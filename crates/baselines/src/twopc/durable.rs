//! What survives a 2PC site's crash: the stable log, its checkpoint slot,
//! and the recovery scan that rebuilds replicas, in-doubt transactions
//! and owed decisions from them. The trigger, force-then-install,
//! truncation and recount are `dvp-storage`'s, shared with the DvP site;
//! this module owns only what a 2PC snapshot holds and how a record is
//! redone.

use super::participant::PartTxn;
use super::replica::Replica;
use crate::record::{TradRecord, VersionedWrite, Writes};
use dvp_core::clock::Ts;
use dvp_core::ItemId;
use dvp_obs::Obs;
use dvp_simnet::NodeId;
use dvp_storage::{
    CheckpointedLog, DecodeError, Lsn, Record, RecordReader, RecordWriter, StableLog,
    CHECKPOINT_EVERY,
};
use std::collections::{BTreeMap, BTreeSet};

/// A checkpoint image of a 2PC site: every replica's value and version,
/// the prepared-but-unresolved transactions, and the commit decisions
/// not yet acknowledged by every writer. Together with the log suffix
/// after `redo_from`, it reconstructs all three exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(super) struct TradSnapshot {
    values: Vec<u64>,
    versions: Vec<u64>,
    /// `(txn, coordinator, write count)` per in-doubt transaction; the
    /// writes themselves follow one another in `writes`, so a refill
    /// reuses two flat buffers.
    prepared: Vec<(Ts, NodeId, usize)>,
    writes: Vec<VersionedWrite>,
    decisions: Vec<Ts>,
}

impl TradSnapshot {
    /// Overwrite with the live state, reusing every buffer this snapshot
    /// already holds.
    fn refill(
        &mut self,
        replica: &Replica,
        part: &BTreeMap<Ts, PartTxn>,
        decisions: &BTreeSet<Ts>,
    ) {
        replica.snapshot_into(&mut self.values, &mut self.versions);
        self.prepared.clear();
        self.writes.clear();
        for (&txn, p) in part {
            if let Some(writes) = &p.prepared_writes {
                self.prepared.push((txn, p.coordinator, writes.len()));
                self.writes.extend_from_slice(writes);
            }
        }
        self.decisions.clear();
        self.decisions.extend(decisions.iter().copied());
    }

    /// Each in-doubt transaction with its coordinator and writes.
    fn prepared(&self) -> impl Iterator<Item = (Ts, NodeId, &[VersionedWrite])> {
        let mut rest = &self.writes[..];
        self.prepared.iter().map(move |&(txn, coordinator, n)| {
            let (writes, tail) = rest.split_at(n);
            rest = tail;
            (txn, coordinator, writes)
        })
    }
}

// The checkpoint store keeps slots as checksummed byte images, so the
// snapshot must round-trip through bytes like any log record.
impl Record for TradSnapshot {
    fn encode(&self, w: &mut RecordWriter<'_>) {
        w.u32(self.values.len() as u32);
        for (&value, &version) in self.values.iter().zip(&self.versions) {
            w.u64(value);
            w.u64(version);
        }
        w.u32(self.prepared.len() as u32);
        for (txn, coordinator, writes) in self.prepared() {
            w.u64(txn.0);
            w.u64(coordinator as u64);
            w.u32(writes.len() as u32);
            for &(item, value, version) in writes {
                w.u32(item.0);
                w.u64(value);
                w.u64(version);
            }
        }
        w.u32(self.decisions.len() as u32);
        for txn in &self.decisions {
            w.u64(txn.0);
        }
    }

    fn decode(r: &mut RecordReader<'_>) -> Result<Self, DecodeError> {
        // Counts come off the disk: each is bounded by the bytes left
        // before it sizes an allocation.
        let mut snap = TradSnapshot::default();
        for _ in 0..r.count(8 + 8)? {
            snap.values.push(r.u64()?);
            snap.versions.push(r.u64()?);
        }
        for _ in 0..r.count(8 + 8 + 4)? {
            let txn = Ts(r.u64()?);
            let coordinator = r.u64()? as NodeId;
            let n = r.count(4 + 8 + 8)?;
            for _ in 0..n {
                snap.writes.push((ItemId(r.u32()?), r.u64()?, r.u64()?));
            }
            snap.prepared.push((txn, coordinator, n));
        }
        for _ in 0..r.count(8)? {
            snap.decisions.push(Ts(r.u64()?));
        }
        Ok(snap)
    }
}

/// What recovery rebuilt besides the replica.
pub(super) struct Recovered {
    /// Prepared and unresolved: `txn → (coordinator, writes)`.
    pub(super) in_doubt: BTreeMap<Ts, (NodeId, Writes)>,
    /// Commit decisions (as coordinator) still owed to some writer.
    pub(super) decisions: BTreeSet<Ts>,
    /// Log records redone on top of the checkpoint.
    pub(super) replayed: u64,
}

/// The durable component of a 2PC site.
pub(super) struct Durable {
    stable: CheckpointedLog<TradRecord, TradSnapshot>,
    /// Snapshot refilled in place and lent to each checkpoint install.
    snapshot_scratch: TradSnapshot,
}

impl Durable {
    /// A fresh site's stable storage: the genesis value of every item's
    /// replica, forced.
    pub(super) fn genesis(totals: &[u64]) -> Self {
        let mut log = StableLog::new();
        for (i, &value) in totals.iter().enumerate() {
            log.append(TradRecord::Init {
                item: ItemId(i as u32),
                value,
            });
        }
        log.force();
        Durable {
            stable: CheckpointedLog::new(log),
            snapshot_scratch: TradSnapshot::default(),
        }
    }

    /// Attach a trace handle to the log; `site` labels its events.
    pub(super) fn set_obs(&mut self, obs: Obs, site: u32) {
        self.stable.log.set_obs(obs, site);
    }

    pub(super) fn log(&self) -> &StableLog<TradRecord> {
        &self.stable.log
    }

    pub(super) fn append(&mut self, rec: TradRecord) {
        self.stable.log.append(rec);
    }

    /// The group-commit force (a no-op on a clean log).
    pub(super) fn force(&mut self) {
        self.stable.log.force_if_dirty();
    }

    /// The crash: the unforced tail is lost, the checkpoint slot and the
    /// forced log survive.
    pub(super) fn crash(&mut self) {
        self.stable.log.crash();
    }

    /// Once [`CHECKPOINT_EVERY`] stable records have built up past the
    /// last checkpoint, snapshot the replica, the in-doubt transactions
    /// and the owed decisions, install it and truncate the log; returns
    /// the redo point. The host calls this right after its group-commit
    /// force, so the install finds a clean log and costs no force.
    pub(super) fn checkpoint_if_due(
        &mut self,
        replica: &Replica,
        part: &BTreeMap<Ts, PartTxn>,
        decisions: &BTreeSet<Ts>,
    ) -> Option<Lsn> {
        let snap = &mut self.snapshot_scratch;
        let redo_from = self.stable.checkpoint_if_due(CHECKPOINT_EVERY, move || {
            snap.refill(replica, part, decisions);
            snap
        })?;
        self.stable.truncate_checkpointed();
        Some(redo_from)
    }

    /// The recovery scan: start `replica` from the newest verifying
    /// checkpoint (the genesis records rebuild it when there is none),
    /// then redo the log suffix past its redo point in log order, the
    /// order the live site installed in.
    pub(super) fn recover(&mut self, replica: &mut Replica) -> Recovered {
        let mut in_doubt = BTreeMap::new();
        let mut decisions = BTreeSet::new();
        if let Some(cp) = self.stable.slot.load() {
            let snap = cp.snapshot;
            replica.restore(&snap.values, &snap.versions);
            for (txn, coordinator, writes) in snap.prepared() {
                in_doubt.insert(txn, (coordinator, Writes::from_slice(writes)));
            }
            decisions.extend(snap.decisions);
        }
        let entries = self
            .stable
            .log
            .recover_entries()
            .expect("stable image must decode");
        let suffix = self.stable.recount(&entries);
        for (_, rec) in suffix {
            match rec {
                TradRecord::Init { item, value } => replica.init(*item, *value),
                TradRecord::Prepared {
                    txn,
                    coordinator,
                    writes,
                } => {
                    in_doubt.insert(*txn, (*coordinator as NodeId, writes.clone()));
                }
                TradRecord::Decision { txn, commit } => {
                    if *commit {
                        decisions.insert(*txn);
                    }
                }
                TradRecord::Resolved { txn, commit } => {
                    if let (Some((_, writes)), true) = (in_doubt.remove(txn), *commit) {
                        replica.install(&writes);
                    }
                }
            }
        }
        Recovered {
            in_doubt,
            decisions,
            replayed: suffix.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_storage::codec::{decode_frame, encode_frame};

    #[test]
    fn a_snapshot_roundtrips_through_bytes() {
        let snap = TradSnapshot {
            values: vec![100, 90, 0],
            versions: vec![0, 7, 3],
            prepared: vec![(Ts(41 << 10 | 2), 2, 2), (Ts(44 << 10), 0, 0)],
            writes: vec![(ItemId(1), 90, 7), (ItemId(2), 0, 3)],
            decisions: vec![Ts(40 << 10 | 1), Ts(43 << 10 | 1)],
        };
        let mut buf = Vec::new();
        encode_frame(&snap, &mut buf);
        assert_eq!(decode_frame::<TradSnapshot>(&mut &buf[..]).unwrap(), snap);
        let prepared: Vec<_> = snap.prepared().collect();
        assert_eq!(prepared[0].2, &snap.writes[..]);
        assert!(prepared[1].2.is_empty());
    }
}
