//! Stable-log records for the traditional engine.
//!
//! Presumed-abort 2PC logging: participants force a `Prepared` record
//! before voting YES; the coordinator forces a `Decision` record before
//! announcing commit; participants force `Resolved` after installing (or
//! learning of an abort). A recovering coordinator answers decision
//! queries from its log (absent ⇒ abort); a recovering participant
//! re-enters the in-doubt state for every `Prepared` without a matching
//! `Resolved` — and must ask around, which is exactly the dependent
//! recovery DvP avoids.
//!
//! The log does not keep these records forever. Every
//! [`CHECKPOINT_EVERY`](dvp_storage::CHECKPOINT_EVERY) stable records a
//! site checkpoints the state they add up to — replica values and
//! versions, the prepared-but-unresolved transactions, the commit
//! decisions not yet acknowledged by every writer — and truncates the log
//! back to the older retained checkpoint's redo point. Recovery starts
//! from the newest verifying checkpoint and redoes only the records past
//! its redo point.

use dvp_core::clock::Ts;
use dvp_core::{ItemId, SVec};
use dvp_storage::{DecodeError, Record, RecordReader, RecordWriter};

/// A write a transaction installs: `(item, new value, new version)`.
pub type VersionedWrite = (ItemId, u64, u64);

/// One participant's writes, ascending by item: inline for the one or
/// two items a transaction touches.
pub type Writes = SVec<VersionedWrite, 2>;

/// One record in a traditional site's log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TradRecord {
    /// Genesis value of an item's local replica.
    Init {
        /// The item.
        item: ItemId,
        /// Initial replica value.
        value: u64,
    },
    /// Participant prepared `txn` with these pending writes.
    Prepared {
        /// The transaction.
        txn: Ts,
        /// Coordinator site (whom to ask for the decision).
        coordinator: u64,
        /// Writes to install on commit.
        writes: Writes,
    },
    /// Coordinator decision for `txn`.
    Decision {
        /// The transaction.
        txn: Ts,
        /// True = commit.
        commit: bool,
    },
    /// Participant installed `txn`'s writes (or learned of its abort).
    Resolved {
        /// The transaction.
        txn: Ts,
        /// Whether it committed.
        commit: bool,
    },
}

impl Record for TradRecord {
    fn encode(&self, w: &mut RecordWriter<'_>) {
        match self {
            TradRecord::Init { item, value } => {
                w.u8(0);
                w.u32(item.0);
                w.u64(*value);
            }
            TradRecord::Prepared {
                txn,
                coordinator,
                writes,
            } => {
                w.u8(1);
                w.u64(txn.0);
                w.u64(*coordinator);
                w.u32(writes.len() as u32);
                for (item, value, version) in writes {
                    w.u32(item.0);
                    w.u64(*value);
                    w.u64(*version);
                }
            }
            TradRecord::Decision { txn, commit } => {
                w.u8(2);
                w.u64(txn.0);
                w.u8(u8::from(*commit));
            }
            TradRecord::Resolved { txn, commit } => {
                w.u8(3);
                w.u64(txn.0);
                w.u8(u8::from(*commit));
            }
        }
    }

    fn decode(r: &mut RecordReader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(TradRecord::Init {
                item: ItemId(r.u32()?),
                value: r.u64()?,
            }),
            1 => {
                let txn = Ts(r.u64()?);
                let coordinator = r.u64()?;
                let n = r.count(4 + 8 + 8)?; // item, value, version
                let mut writes = Writes::new();
                for _ in 0..n {
                    writes.push((ItemId(r.u32()?), r.u64()?, r.u64()?));
                }
                Ok(TradRecord::Prepared {
                    txn,
                    coordinator,
                    writes,
                })
            }
            2 => Ok(TradRecord::Decision {
                txn: Ts(r.u64()?),
                commit: r.u8()? != 0,
            }),
            3 => Ok(TradRecord::Resolved {
                txn: Ts(r.u64()?),
                commit: r.u8()? != 0,
            }),
            _ => Err(DecodeError::Invalid("TradRecord tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_storage::codec::{decode_frame, encode_frame};

    fn roundtrip(rec: TradRecord) {
        let mut buf = Vec::new();
        encode_frame(&rec, &mut buf);
        let mut rest = &buf[..];
        assert_eq!(decode_frame::<TradRecord>(&mut rest).unwrap(), rec);
        assert!(rest.is_empty());
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(TradRecord::Init {
            item: ItemId(1),
            value: 100,
        });
        roundtrip(TradRecord::Prepared {
            txn: Ts(42),
            coordinator: 3,
            writes: vec![(ItemId(0), 95, 7), (ItemId(2), 5, 8)].into(),
        });
        roundtrip(TradRecord::Decision {
            txn: Ts(42),
            commit: true,
        });
        roundtrip(TradRecord::Resolved {
            txn: Ts(42),
            commit: false,
        });
    }

    #[test]
    fn empty_writes_roundtrip() {
        roundtrip(TradRecord::Prepared {
            txn: Ts(1),
            coordinator: 0,
            writes: Writes::new(),
        });
    }
}
