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

    #[test]
    #[should_panic(expected = "fragment overflow")]
    fn credit_past_u64_max_is_a_bug() {
        let mut f = FragmentStore::new(1);
        f.credit(ItemId(0), u64::MAX);
        f.credit(ItemId(0), 1);
    }

    /// The Σ law the engine relies on — Section 4.1's partitionable
    /// property for Π = Σ — checked on the sites' own stores rather than
    /// on a model of them.
    mod sigma_law {
        use super::*;
        use crate::item::{Catalog, Split};
        use proptest::prelude::*;

        const ITEMS: usize = 3;

        /// One local step on the stores.
        #[derive(Clone, Copy, Debug)]
        enum Step {
            Credit(usize, ItemId, Qty),
            /// Done only if the fragment covers it, as the engine checks.
            Debit(usize, ItemId, Qty),
            /// `a → b`: a covered debit at `a`, then a credit at `b`.
            Ship(usize, usize, ItemId, Qty),
            /// Checkpoint one store, reset it, restore the image.
            Checkpoint(usize),
        }

        impl Step {
            /// Step `raw` over `n` stores (`n ≥ 2`): a ship's two ends differ.
            fn new((kind, a, b, item, m): (u8, usize, usize, usize, Qty), n: usize) -> Step {
                let (a, item) = (a % n, ItemId(item as u32));
                match kind {
                    0 => Step::Credit(a, item, m),
                    1 => Step::Debit(a, item, m),
                    2 => Step::Ship(a, (a + 1 + b % (n - 1)) % n, item, m),
                    _ => Step::Checkpoint(a),
                }
            }

            fn stores(self) -> [usize; 2] {
                match self {
                    Step::Credit(s, ..) | Step::Debit(s, ..) | Step::Checkpoint(s) => [s, s],
                    Step::Ship(a, b, ..) => [a, b],
                }
            }
        }

        /// Apply `step`, adding its effective delta to `want`.
        fn apply(stores: &mut [FragmentStore], step: Step, want: &mut [Qty]) {
            match step {
                Step::Credit(s, item, m) => {
                    stores[s].credit(item, m);
                    want[item.0 as usize] += m;
                }
                Step::Debit(s, item, m) => {
                    if stores[s].get(item) >= m {
                        stores[s].debit(item, m);
                        want[item.0 as usize] -= m;
                    }
                }
                // Moves value without changing Σ: `want` stays.
                Step::Ship(a, b, item, m) => {
                    if stores[a].get(item) >= m {
                        stores[a].debit(item, m);
                        stores[b].credit(item, m);
                    }
                }
                Step::Checkpoint(s) => {
                    let (mut vals, mut ts) = (Vec::new(), Vec::new());
                    stores[s].snapshot_into(&mut vals, &mut ts);
                    stores[s].reset();
                    assert!(stores[s].snapshot().iter().all(|&v| v == 0));
                    stores[s].restore(&vals, &ts);
                    assert_eq!(stores[s].snapshot(), vals);
                }
            }
        }

        fn sigma(stores: &[FragmentStore]) -> Vec<Qty> {
            (0..ITEMS as u32)
                .map(|i| stores.iter().map(|f| f.get(ItemId(i))).sum())
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn sigma_is_n_plus_the_effective_deltas(
                n in 2usize..9,
                totals in proptest::collection::vec(0u64..1 << 24, ITEMS..ITEMS + 1),
                splits in proptest::collection::vec((0u8..3, 0usize..8), ITEMS..ITEMS + 1),
                raw in proptest::collection::vec(
                    (0u8..4, 0usize..8, 0usize..8, 0usize..ITEMS, 0u64..1 << 22),
                    0..48,
                ),
            ) {
                let mut catalog = Catalog::new();
                for (&total, &(how, k)) in totals.iter().zip(&splits) {
                    let split = match how {
                        0 => Split::Even,
                        1 => Split::AllAt(k % n),
                        _ => Split::Weighted((0..n).map(|s| ((s + k) % 3 + 1) as f64).collect()),
                    };
                    catalog.add("x", total, split);
                }
                let mut stores = vec![FragmentStore::new(ITEMS); n];
                for def in catalog.items() {
                    for (f, q) in stores.iter_mut().zip(catalog.quotas(def.id, n)) {
                        f.credit(def.id, q);
                    }
                }
                let mut want = totals;
                prop_assert_eq!(sigma(&stores), want.clone());

                let steps: Vec<Step> = raw.into_iter().map(|r| Step::new(r, n)).collect();
                for (i, &step) in steps.iter().enumerate() {
                    if let Some(&next) = steps.get(i + 1) {
                        if step.stores().iter().all(|s| !next.stores().contains(s)) {
                            let (mut xy, mut yx) = (stores.clone(), stores.clone());
                            let (mut wxy, mut wyx) = (want.clone(), want.clone());
                            apply(&mut xy, step, &mut wxy);
                            apply(&mut xy, next, &mut wxy);
                            apply(&mut yx, next, &mut wyx);
                            apply(&mut yx, step, &mut wyx);
                            prop_assert_eq!(sigma(&xy), sigma(&yx), "{:?} then {:?}", step, next);
                            prop_assert_eq!(wxy, wyx);
                        }
                    }
                    apply(&mut stores, step, &mut want);
                    prop_assert_eq!(sigma(&stores), want.clone(), "after {:?}", step);
                }
            }
        }
    }
}
