//! A site's copy of every item: a value and the version that wrote it.

use crate::record::VersionedWrite;
use dvp_core::ItemId;

/// Full replicas of every item, indexed by `item.0`. Volatile: a crash
/// zeroes it and recovery restores it from the checkpoint and the log.
pub(super) struct Replica {
    values: Vec<u64>,
    versions: Vec<u64>,
}

impl Replica {
    /// Replicas holding `totals` at version 0.
    pub(super) fn new(totals: Vec<u64>) -> Self {
        Replica {
            versions: vec![0; totals.len()],
            values: totals,
        }
    }

    /// `(value, version)` of `item`.
    pub(super) fn get(&self, item: ItemId) -> (u64, u64) {
        (self.values[item.0 as usize], self.versions[item.0 as usize])
    }

    /// Install `writes`, each only over a version no newer than its own
    /// (a retried or replayed decision must not roll a replica back).
    pub(super) fn install(&mut self, writes: &[VersionedWrite]) {
        for &(item, value, version) in writes {
            if version >= self.versions[item.0 as usize] {
                self.values[item.0 as usize] = value;
                self.versions[item.0 as usize] = version;
            }
        }
    }

    /// Replay a genesis record.
    pub(super) fn init(&mut self, item: ItemId, value: u64) {
        self.values[item.0 as usize] = value;
        self.versions[item.0 as usize] = 0;
    }

    /// Copy every value and version into `values` / `versions` (a
    /// checkpoint snapshot; no allocation once they have the size).
    pub(super) fn snapshot_into(&self, values: &mut Vec<u64>, versions: &mut Vec<u64>) {
        values.clone_from(&self.values);
        versions.clone_from(&self.versions);
    }

    /// Restore every value and version from a checkpoint snapshot.
    pub(super) fn restore(&mut self, values: &[u64], versions: &[u64]) {
        self.values.copy_from_slice(values);
        self.versions.copy_from_slice(versions);
    }

    /// A crash: every value and version is lost.
    pub(super) fn wipe(&mut self) {
        self.values.fill(0);
        self.versions.fill(0);
    }
}
