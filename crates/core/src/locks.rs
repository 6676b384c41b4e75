//! The per-site lock table.
//!
//! Locks are **local** (a transaction only ever locks data values at its
//! home site; remote value arrives via Vm) and **exclusive** (Section 5:
//! "we assume that all locks obtained by transaction t are exclusive
//! locks"). There is no waiting built into the table itself — Conc1
//! rejects conflicts outright and Conc2's FIFO queues live in the site
//! engine, so the table stays a plain map.

use crate::clock::Ts;
use crate::item::ItemId;
use std::collections::HashMap;

/// Who holds a lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Holder {
    /// A local active transaction.
    Txn(Ts),
    /// A read lease granted to a remote read transaction (Section 5's
    /// donor-side exclusivity while a full-value read is in progress);
    /// auto-released by a timer.
    Lease(Ts),
}

impl Holder {
    /// The transaction the hold is on behalf of.
    pub fn txn(&self) -> Ts {
        match self {
            Holder::Txn(t) | Holder::Lease(t) => *t,
        }
    }
}

/// Exclusive lock table over items.
#[derive(Clone, Debug, Default)]
pub struct LockTable {
    held: HashMap<ItemId, Holder>,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Current holder of `item`, if locked.
    pub fn holder(&self, item: ItemId) -> Option<Holder> {
        self.held.get(&item).copied()
    }

    /// Whether `item` is locked.
    pub fn is_locked(&self, item: ItemId) -> bool {
        self.held.contains_key(&item)
    }

    /// Acquire for `holder`; fails (returning the current holder) if held.
    pub fn try_lock(&mut self, item: ItemId, holder: Holder) -> Result<(), Holder> {
        match self.held.get(&item) {
            Some(h) => Err(*h),
            None => {
                self.held.insert(item, holder);
                Ok(())
            }
        }
    }

    /// Release `item` if held on behalf of `txn` (by lock or lease).
    /// Returns whether a release happened.
    pub fn unlock(&mut self, item: ItemId, txn: Ts) -> bool {
        if self.held.get(&item).is_some_and(|h| h.txn() == txn) {
            self.held.remove(&item);
            true
        } else {
            false
        }
    }

    /// Release everything held on behalf of `txn`, writing the items to
    /// `out` (cleared first) in item order. Sorted because callers wake
    /// Conc2 waiters item by item in that order, and `HashMap` iteration
    /// order is randomised per instance — unsorted, identical runs could
    /// grant locks in different interleavings. `out` is a caller-owned
    /// scratch buffer, so the commit path releases without allocating.
    pub fn release_all_into(&mut self, txn: Ts, out: &mut Vec<ItemId>) {
        out.clear();
        out.extend(
            self.held
                .iter()
                .filter(|(_, h)| h.txn() == txn)
                .map(|(i, _)| *i),
        );
        out.sort_unstable();
        for i in out.iter() {
            self.held.remove(i);
        }
    }

    /// Forget all locks — Section 7: "the information regarding the locks
    /// need not survive a failure", so a recovering site simply starts
    /// with an empty table.
    pub fn clear(&mut self) {
        self.held.clear();
    }

    /// Number of held locks.
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// Whether no locks are held.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ItemId = ItemId(0);
    const B: ItemId = ItemId(1);

    #[test]
    fn exclusive_acquisition() {
        let mut lt = LockTable::new();
        assert!(lt.try_lock(A, Holder::Txn(Ts(1))).is_ok());
        assert_eq!(lt.try_lock(A, Holder::Txn(Ts(2))), Err(Holder::Txn(Ts(1))));
        assert!(lt.try_lock(B, Holder::Txn(Ts(2))).is_ok());
        assert!(lt.is_locked(A));
        assert_eq!(lt.len(), 2);
    }

    #[test]
    fn unlock_requires_matching_txn() {
        let mut lt = LockTable::new();
        lt.try_lock(A, Holder::Txn(Ts(1))).unwrap();
        assert!(!lt.unlock(A, Ts(9)), "wrong txn cannot unlock");
        assert!(lt.unlock(A, Ts(1)));
        assert!(!lt.is_locked(A));
        assert!(!lt.unlock(A, Ts(1)), "double unlock is a no-op");
    }

    #[test]
    fn release_all_frees_only_that_txn() {
        let mut lt = LockTable::new();
        lt.try_lock(A, Holder::Txn(Ts(1))).unwrap();
        lt.try_lock(B, Holder::Lease(Ts(1))).unwrap();
        lt.try_lock(ItemId(2), Holder::Txn(Ts(2))).unwrap();
        let mut freed = vec![ItemId(9)];
        lt.release_all_into(Ts(1), &mut freed);
        assert_eq!(freed, vec![A, B]);
        assert!(lt.is_locked(ItemId(2)));
    }

    #[test]
    fn clear_forgets_everything() {
        let mut lt = LockTable::new();
        lt.try_lock(A, Holder::Txn(Ts(1))).unwrap();
        lt.clear();
        assert!(lt.is_empty());
    }

    #[test]
    fn lease_holder_reports_txn() {
        assert_eq!(Holder::Lease(Ts(7)).txn(), Ts(7));
        assert_eq!(Holder::Txn(Ts(8)).txn(), Ts(8));
    }
}
