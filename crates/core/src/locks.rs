//! The per-site lock table.
//!
//! Locks are **local** (a transaction only ever locks data values at its
//! home site; remote value arrives via Vm) and **exclusive** (Section 5:
//! "we assume that all locks obtained by transaction t are exclusive
//! locks"). There is no waiting built into the table itself — Conc1
//! rejects conflicts outright and Conc2's FIFO queues live in the site
//! engine.
//!
//! The table is dense, like every other per-item table: a holder slot per
//! item indexed by `item.0`, sized by the site at build time, plus the
//! list of held items, so releasing a transaction's locks walks only what
//! is held. A lock cycle hashes nothing.

use crate::clock::Ts;
use crate::item::ItemId;

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
    /// The holder of each item, indexed by `item.0`. Grows on demand past
    /// the size it was built with.
    held: Vec<Option<Holder>>,
    /// The items whose slot in `held` is `Some`, in no particular order.
    locked: Vec<ItemId>,
}

impl LockTable {
    /// An empty table, grown as items are locked.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// An empty table sized for items `0..items`, so locking them never
    /// grows it.
    pub fn with_items(items: usize) -> Self {
        LockTable {
            held: vec![None; items],
            locked: Vec::new(),
        }
    }

    /// Current holder of `item`, if locked.
    pub fn holder(&self, item: ItemId) -> Option<Holder> {
        self.held.get(item.0 as usize).copied().flatten()
    }

    /// Whether `item` is locked.
    pub fn is_locked(&self, item: ItemId) -> bool {
        self.holder(item).is_some()
    }

    /// Acquire for `holder`; fails (returning the current holder) if held.
    pub fn try_lock(&mut self, item: ItemId, holder: Holder) -> Result<(), Holder> {
        let i = item.0 as usize;
        if i >= self.held.len() {
            self.held.resize(i + 1, None);
        }
        match self.held[i] {
            Some(h) => Err(h),
            None => {
                self.held[i] = Some(holder);
                self.locked.push(item);
                Ok(())
            }
        }
    }

    /// Release `item` if held on behalf of `txn` (by lock or lease).
    /// Returns whether a release happened.
    pub fn unlock(&mut self, item: ItemId, txn: Ts) -> bool {
        if self.holder(item).is_some_and(|h| h.txn() == txn) {
            self.held[item.0 as usize] = None;
            let at = self.locked.iter().position(|&i| i == item);
            self.locked.swap_remove(at.expect("a held item is listed"));
            true
        } else {
            false
        }
    }

    /// Release everything held on behalf of `txn`, writing the items to
    /// `out` (cleared first) in item order. Sorted because callers wake
    /// Conc2 waiters item by item in that order. `out` is a caller-owned
    /// scratch buffer, so the commit path releases without allocating.
    pub fn release_all_into(&mut self, txn: Ts, out: &mut Vec<ItemId>) {
        out.clear();
        let held = &mut self.held;
        self.locked.retain(|&item| {
            let slot = &mut held[item.0 as usize];
            let mine = slot.is_some_and(|h| h.txn() == txn);
            if mine {
                *slot = None;
                out.push(item);
            }
            !mine
        });
        out.sort_unstable();
    }

    /// Forget all locks — Section 7: "the information regarding the locks
    /// need not survive a failure", so a recovering site simply starts
    /// with an empty table.
    pub fn clear(&mut self) {
        for item in self.locked.drain(..) {
            self.held[item.0 as usize] = None;
        }
    }

    /// Number of held locks.
    pub fn len(&self) -> usize {
        self.locked.len()
    }

    /// Whether no locks are held.
    pub fn is_empty(&self) -> bool {
        self.locked.is_empty()
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

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// Items the table is sized for; the steps also name items past
        /// them, which the table grows to hold.
        const SIZED: usize = 3;
        const ITEMS: u32 = 5;
        const TXNS: u64 = 4;

        /// The hashed table `LockTable` replaced, as the reference model.
        #[derive(Default)]
        struct Reference {
            held: HashMap<ItemId, Holder>,
        }

        impl Reference {
            fn try_lock(&mut self, item: ItemId, holder: Holder) -> Result<(), Holder> {
                match self.held.get(&item) {
                    Some(h) => Err(*h),
                    None => {
                        self.held.insert(item, holder);
                        Ok(())
                    }
                }
            }

            fn unlock(&mut self, item: ItemId, txn: Ts) -> bool {
                if self.held.get(&item).is_some_and(|h| h.txn() == txn) {
                    self.held.remove(&item);
                    true
                } else {
                    false
                }
            }

            fn release_all(&mut self, txn: Ts) -> Vec<ItemId> {
                let mut out: Vec<ItemId> = self
                    .held
                    .iter()
                    .filter(|(_, h)| h.txn() == txn)
                    .map(|(i, _)| *i)
                    .collect();
                out.sort_unstable();
                for i in &out {
                    self.held.remove(i);
                }
                out
            }
        }

        /// One step: 0 locks for a transaction, 1 takes a lease, 2
        /// unlocks, 3 releases everything a transaction holds, 4 clears.
        fn step() -> impl Strategy<Value = (u8, u32, u64)> {
            (0u8..5, 0..ITEMS, 1..TXNS + 1)
        }

        proptest! {
            /// Every answer, and every item's holder, agree with the map
            /// at every step.
            #[test]
            fn the_dense_table_answers_as_the_map_does(
                steps in proptest::collection::vec(step(), 0..80),
            ) {
                let mut table = LockTable::with_items(SIZED);
                let mut model = Reference::default();
                let mut out = vec![ItemId(99)];
                for (op, item, txn) in steps {
                    let (item, txn) = (ItemId(item), Ts(txn));
                    match op {
                        0 => prop_assert_eq!(
                            table.try_lock(item, Holder::Txn(txn)),
                            model.try_lock(item, Holder::Txn(txn))
                        ),
                        1 => prop_assert_eq!(
                            table.try_lock(item, Holder::Lease(txn)),
                            model.try_lock(item, Holder::Lease(txn))
                        ),
                        2 => prop_assert_eq!(table.unlock(item, txn), model.unlock(item, txn)),
                        3 => {
                            table.release_all_into(txn, &mut out);
                            prop_assert_eq!(&out, &model.release_all(txn));
                        }
                        _ => {
                            table.clear();
                            model.held.clear();
                        }
                    }
                    prop_assert_eq!(table.len(), model.held.len());
                    prop_assert_eq!(table.is_empty(), model.held.is_empty());
                    for i in 0..ITEMS + 1 {
                        let i = ItemId(i);
                        prop_assert_eq!(table.holder(i), model.held.get(&i).copied());
                        prop_assert_eq!(table.is_locked(i), model.held.contains_key(&i));
                    }
                }
            }
        }
    }
}
