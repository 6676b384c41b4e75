//! Log operations the host embeds in its stable log.
//!
//! The Vm protocol's durability lives in the *host's* log: the endpoint
//! only hands the host [`VmLogOp`] values to write (and replays them after
//! a crash). `VmLogOp` implements `dvp_storage::Record` so hosts can embed
//! it in their own record enums with zero glue.

use crate::channel::Seq;
use crate::SiteId;
use bytes::Bytes;
use dvp_storage::{DecodeError, Record, RecordReader, RecordWriter};

/// A durable Vm state transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmLogOp {
    /// Sender side: Vm `(to, seq)` with `payload` now exists. Written as
    /// part of the `[database-actions, message-sequence]` record.
    Created {
        /// Destination site.
        to: SiteId,
        /// Channel sequence number.
        seq: Seq,
        /// Opaque payload.
        payload: Bytes,
    },
    /// Receiver side: Vm `(from, seq)` has been accepted and its database
    /// actions applied. Written as part of the `[database-actions]` record.
    Accepted {
        /// Originating site.
        from: SiteId,
        /// Channel sequence number.
        seq: Seq,
    },
    /// Sender side: a cumulative ack `≤ seq` from `to` was observed, so
    /// those Vms have completed their lifespan and may be forgotten.
    /// (Lazy, unforced: losing this record only causes harmless
    /// retransmission of already-accepted messages.)
    AckObserved {
        /// Peer that acknowledged.
        to: SiteId,
        /// Cumulative sequence acknowledged.
        seq: Seq,
    },
}

impl Record for VmLogOp {
    fn encode(&self, w: &mut RecordWriter<'_>) {
        match self {
            VmLogOp::Created { to, seq, payload } => {
                w.u8(0);
                w.u64(*to as u64);
                w.u64(*seq);
                w.bytes(payload);
            }
            VmLogOp::Accepted { from, seq } => {
                w.u8(1);
                w.u64(*from as u64);
                w.u64(*seq);
            }
            VmLogOp::AckObserved { to, seq } => {
                w.u8(2);
                w.u64(*to as u64);
                w.u64(*seq);
            }
        }
    }

    fn decode(r: &mut RecordReader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(VmLogOp::Created {
                to: r.u64()? as SiteId,
                seq: r.u64()?,
                payload: r.bytes()?,
            }),
            1 => Ok(VmLogOp::Accepted {
                from: r.u64()? as SiteId,
                seq: r.u64()?,
            }),
            2 => Ok(VmLogOp::AckObserved {
                to: r.u64()? as SiteId,
                seq: r.u64()?,
            }),
            _ => Err(DecodeError::Invalid("VmLogOp tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_storage::codec::{decode_frame, encode_frame};

    fn roundtrip(op: VmLogOp) {
        let mut buf = Vec::new();
        encode_frame(&op, &mut buf);
        let mut rest = &buf[..];
        let got: VmLogOp = decode_frame(&mut rest).unwrap();
        assert_eq!(got, op);
        assert!(rest.is_empty());
    }

    #[test]
    fn created_roundtrips() {
        roundtrip(VmLogOp::Created {
            to: 3,
            seq: 42,
            payload: Bytes::from_static(b"five seats"),
        });
    }

    #[test]
    fn accepted_roundtrips() {
        roundtrip(VmLogOp::Accepted { from: 1, seq: 7 });
    }

    #[test]
    fn ack_observed_roundtrips() {
        roundtrip(VmLogOp::AckObserved { to: 0, seq: 9 });
    }

    #[test]
    fn empty_payload_roundtrips() {
        roundtrip(VmLogOp::Created {
            to: 0,
            seq: 1,
            payload: Bytes::new(),
        });
    }
}
