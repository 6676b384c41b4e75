//! Wire frames.
//!
//! A frame is what actually crosses the (unreliable) network. `Data`
//! frames carry one Vm payload plus a piggybacked cumulative ack for the
//! reverse direction; `Ack` frames carry only the ack: the answer to a
//! duplicate and, when
//! [`eager_acks`](crate::endpoint::VmConfig::eager_acks) is on, to an
//! acceptance with no reverse traffic to piggyback on.

use crate::channel::Seq;
use bytes::Bytes;

/// One real message between two sites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A Vm payload (possibly a retransmission).
    Data {
        /// Per-channel sequence number (1-based, dense).
        seq: Seq,
        /// Cumulative ack for the reverse channel: "I have accepted every
        /// seq ≤ ack from you".
        ack: Seq,
        /// Opaque payload encoded by the host.
        payload: Bytes,
    },
    /// A standalone cumulative acknowledgement.
    Ack {
        /// Cumulative ack for the reverse channel.
        ack: Seq,
    },
}

impl Frame {
    /// The piggybacked/standalone ack carried by this frame.
    pub fn ack(&self) -> Seq {
        match self {
            Frame::Data { ack, .. } | Frame::Ack { ack } => *ack,
        }
    }

    /// Whether this is a data frame.
    pub fn is_data(&self) -> bool {
        matches!(self, Frame::Data { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_accessor_covers_both_variants() {
        let d = Frame::Data {
            seq: 3,
            ack: 7,
            payload: Bytes::from_static(b"x"),
        };
        assert_eq!(d.ack(), 7);
        assert!(d.is_data());
        let a = Frame::Ack { ack: 9 };
        assert_eq!(a.ack(), 9);
        assert!(!a.is_data());
    }
}
