//! Per-site fragment store.
//!
//! A site holds, per item, one element of the item's multiset `Π⁻¹(d)` —
//! its local aggregate (justified by the grouping law of Section 4.1) —
//! plus the data value's timestamp `TS(dᵢ)` used by Conc1.

use crate::clock::Ts;
use crate::item::ItemId;
use crate::Qty;

/// All fragments a site holds, indexed densely by item id.
#[derive(Clone, Debug, Default)]
pub struct FragmentStore {
    vals: Vec<Qty>,
    ts: Vec<Ts>,
}

impl FragmentStore {
    /// A store covering `n_items` items, all fragments zero.
    pub fn new(n_items: usize) -> Self {
        FragmentStore {
            vals: vec![0; n_items],
            ts: vec![Ts::ZERO; n_items],
        }
    }

    /// Number of items covered.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether the store covers no items.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Local fragment value of `item`.
    #[inline]
    pub fn get(&self, item: ItemId) -> Qty {
        self.vals[item.0 as usize]
    }

    /// Add to the local fragment.
    #[inline]
    pub fn credit(&mut self, item: ItemId, amount: Qty) {
        let v = &mut self.vals[item.0 as usize];
        *v = v.checked_add(amount).expect("fragment overflow");
    }

    /// Remove from the local fragment. Panics if insufficient — callers
    /// must have verified coverage (the engine always does; a panic here
    /// is a protocol bug, not an input error).
    #[inline]
    pub fn debit(&mut self, item: ItemId, amount: Qty) {
        let v = &mut self.vals[item.0 as usize];
        *v = v
            .checked_sub(amount)
            .expect("fragment underflow — engine must check coverage first");
    }

    /// Apply a signed delta (recovery replay path).
    pub fn apply_delta(&mut self, item: ItemId, delta: i64) {
        if delta >= 0 {
            self.credit(item, delta as Qty);
        } else {
            self.debit(item, (-delta) as Qty);
        }
    }

    /// `TS(dᵢ)` — the last transaction to have locked this data value.
    #[inline]
    pub fn ts(&self, item: ItemId) -> Ts {
        self.ts[item.0 as usize]
    }

    /// Update `TS(dᵢ)` (monotone: keeps the max).
    #[inline]
    pub fn bump_ts(&mut self, item: ItemId, ts: Ts) {
        let t = &mut self.ts[item.0 as usize];
        if ts > *t {
            *t = ts;
        }
    }

    /// Snapshot of all fragment values (for checkpoints and audits).
    pub fn snapshot(&self) -> Vec<Qty> {
        self.vals.clone()
    }

    /// Copy all fragment values and timestamps into retained buffers
    /// (for checkpoints: no allocation once they have the store's size).
    pub fn snapshot_into(&self, vals: &mut Vec<Qty>, ts: &mut Vec<Ts>) {
        vals.clone_from(&self.vals);
        ts.clone_from(&self.ts);
    }

    /// Restore values and timestamps from a checkpoint image.
    pub fn restore(&mut self, vals: &[Qty], ts: &[Ts]) {
        assert_eq!(vals.len(), self.vals.len(), "snapshot arity mismatch");
        assert_eq!(ts.len(), self.ts.len(), "snapshot arity mismatch");
        self.vals.copy_from_slice(vals);
        self.ts.copy_from_slice(ts);
    }

    /// Reset to all-zero (recovery rebuild starts here).
    pub fn reset(&mut self) {
        self.vals.iter_mut().for_each(|v| *v = 0);
        self.ts.iter_mut().for_each(|t| *t = Ts::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_debit_roundtrip() {
        let mut f = FragmentStore::new(2);
        f.credit(ItemId(0), 25);
        f.debit(ItemId(0), 12);
        assert_eq!(f.get(ItemId(0)), 13);
        assert_eq!(f.get(ItemId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn debit_beyond_fragment_is_a_bug() {
        let mut f = FragmentStore::new(1);
        f.credit(ItemId(0), 5);
        f.debit(ItemId(0), 6);
    }

    #[test]
    fn apply_delta_both_signs() {
        let mut f = FragmentStore::new(1);
        f.apply_delta(ItemId(0), 10);
        f.apply_delta(ItemId(0), -4);
        assert_eq!(f.get(ItemId(0)), 6);
    }

    #[test]
    fn ts_is_monotone() {
        let mut f = FragmentStore::new(1);
        f.bump_ts(ItemId(0), Ts(50));
        f.bump_ts(ItemId(0), Ts(20)); // stale: ignored
        assert_eq!(f.ts(ItemId(0)), Ts(50));
        f.bump_ts(ItemId(0), Ts(60));
        assert_eq!(f.ts(ItemId(0)), Ts(60));
    }

    #[test]
    fn snapshot_and_reset() {
        let mut f = FragmentStore::new(3);
        f.credit(ItemId(1), 7);
        assert_eq!(f.snapshot(), vec![0, 7, 0]);
        f.reset();
        assert_eq!(f.snapshot(), vec![0, 0, 0]);
        assert_eq!(f.ts(ItemId(1)), Ts::ZERO);
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
    }
}
