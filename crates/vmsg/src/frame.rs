//! Wire frames.
//!
//! A frame is what actually crosses the (unreliable) network. `Data`
//! frames carry one Vm payload plus a piggybacked cumulative ack for the
//! reverse direction; `Ack` frames carry only the ack: the answer to an
//! acceptance or a duplicate with no reverse data to piggyback on.
//!
//! The payload type is a parameter: senders hold owned [`Bytes`] (the
//! default), while [`WireDatagram::frames`](crate::WireDatagram::frames)
//! yields `Frame<&[u8]>` borrowing from the received image.

use crate::channel::Seq;
use bytes::Bytes;

/// One real message between two sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frame<P = Bytes> {
    /// A Vm payload (possibly a retransmission).
    Data {
        /// Per-channel sequence number (1-based, dense).
        seq: Seq,
        /// Cumulative ack for the reverse channel: "I have accepted every
        /// seq ≤ ack from you".
        ack: Seq,
        /// Opaque payload encoded by the host.
        payload: P,
    },
    /// A standalone cumulative acknowledgement.
    Ack {
        /// Cumulative ack for the reverse channel.
        ack: Seq,
    },
}

impl<P> Frame<P> {
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

impl Frame<&[u8]> {
    /// Copy a borrowed frame's payload out into an owned frame.
    pub fn into_owned(self) -> Frame {
        match self {
            Frame::Data { seq, ack, payload } => Frame::Data {
                seq,
                ack,
                payload: Bytes::copy_from_slice(payload),
            },
            Frame::Ack { ack } => Frame::Ack { ack },
        }
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
        let a: Frame = Frame::Ack { ack: 9 };
        assert_eq!(a.ack(), 9);
        assert!(!a.is_data());
    }
}
