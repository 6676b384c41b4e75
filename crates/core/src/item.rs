//! Data items and the catalog.
//!
//! An *item* is one logical data value (the number of seats on flight A,
//! an account balance, a stock level). The catalog records each item's
//! initial total and how it was split into per-site quotas — the input to
//! experiment F5's "how best to distribute the data" sweep.

use crate::Qty;
use std::fmt;

/// Identifier of a data item.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u32);

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "item:{}", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// How an item's initial total is split into site quotas.
#[derive(Clone, Debug, PartialEq)]
pub enum Split {
    /// Equal shares (remainder to the lowest-numbered sites) — the
    /// Section 3 example's `N/4` to each of W, X, Y, Z.
    Even,
    /// The entire value at one site (the paper's observation that "a
    /// traditional database without replicated data" is the trivial
    /// special case).
    AllAt(usize),
    /// Explicit per-site quotas (must sum to the total).
    Explicit(Vec<Qty>),
    /// Proportional weights (shares rounded down, remainder to the
    /// heaviest sites).
    Weighted(Vec<f64>),
}

/// One catalog entry.
#[derive(Clone, Debug)]
pub struct ItemDef {
    /// Item identifier.
    pub id: ItemId,
    /// Human-readable name ("flight-A", "acct-1017").
    pub name: String,
    /// Initial total value N.
    pub total: Qty,
    /// Initial distribution of N across sites.
    pub split: Split,
}

/// The set of items a cluster manages.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    items: Vec<ItemDef>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Add an item; returns its id. Panics if `total` is above
    /// `i64::MAX`, which the engine's signed deltas cannot carry.
    pub fn add(&mut self, name: impl Into<String>, total: Qty, split: Split) -> ItemId {
        let name = name.into();
        assert!(
            total <= i64::MAX as Qty,
            "item {name:?}'s total {total} is above i64::MAX"
        );
        let id = ItemId(self.items.len() as u32);
        self.items.push(ItemDef {
            id,
            name,
            total,
            split,
        });
        id
    }

    /// All items.
    pub fn items(&self) -> &[ItemDef] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Look up an item definition.
    pub fn get(&self, id: ItemId) -> &ItemDef {
        &self.items[id.0 as usize]
    }

    /// Compute the initial quota of every site for `item`, given `n` sites.
    /// The quotas always sum exactly to the item's total.
    pub fn quotas(&self, id: ItemId, n: usize) -> Vec<Qty> {
        let def = self.get(id);
        match &def.split {
            Split::Even => {
                let base = def.total / n as Qty;
                let rem = (def.total % n as Qty) as usize;
                (0..n).map(|i| base + if i < rem { 1 } else { 0 }).collect()
            }
            Split::AllAt(s) => {
                assert!(*s < n, "AllAt site out of range");
                (0..n)
                    .map(|i| if i == *s { def.total } else { 0 })
                    .collect()
            }
            Split::Explicit(qs) => {
                assert_eq!(qs.len(), n, "explicit split must cover all sites");
                assert_eq!(
                    qs.iter().sum::<Qty>(),
                    def.total,
                    "explicit split must sum to the total"
                );
                qs.clone()
            }
            Split::Weighted(ws) => {
                assert_eq!(ws.len(), n, "weights must cover all sites");
                let wsum: f64 = ws.iter().sum();
                assert!(wsum > 0.0, "weights must be positive");
                let mut qs: Vec<Qty> = ws
                    .iter()
                    .map(|w| ((def.total as f64) * w / wsum).floor() as Qty)
                    .collect();
                let mut assigned: Qty = qs.iter().sum();
                // Distribute the rounding remainder to the heaviest sites.
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| ws[b].partial_cmp(&ws[a]).unwrap());
                let mut k = 0;
                while assigned < def.total {
                    qs[order[k % n]] += 1;
                    assigned += 1;
                    k += 1;
                }
                qs
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_matches_paper_example() {
        let mut c = Catalog::new();
        let a = c.add("flight-A", 100, Split::Even);
        assert_eq!(c.quotas(a, 4), vec![25, 25, 25, 25]);
    }

    #[test]
    fn even_split_distributes_remainder_deterministically() {
        let mut c = Catalog::new();
        let a = c.add("x", 10, Split::Even);
        assert_eq!(c.quotas(a, 3), vec![4, 3, 3]);
        assert_eq!(c.quotas(a, 3).iter().sum::<Qty>(), 10);
    }

    #[test]
    fn all_at_concentrates() {
        let mut c = Catalog::new();
        let a = c.add("x", 7, Split::AllAt(2));
        assert_eq!(c.quotas(a, 4), vec![0, 0, 7, 0]);
    }

    #[test]
    fn explicit_split_validated() {
        let mut c = Catalog::new();
        let a = c.add("x", 30, Split::Explicit(vec![2, 3, 10, 15]));
        assert_eq!(c.quotas(a, 4), vec![2, 3, 10, 15]);
    }

    #[test]
    #[should_panic(expected = "sum to the total")]
    fn explicit_split_must_sum() {
        let mut c = Catalog::new();
        let a = c.add("x", 30, Split::Explicit(vec![1, 1, 1, 1]));
        let _ = c.quotas(a, 4);
    }

    #[test]
    #[should_panic(expected = "item \"x\"'s total 9223372036854775808 is above i64::MAX")]
    fn a_total_above_i64_max_is_refused() {
        let mut c = Catalog::new();
        c.add("ok", i64::MAX as Qty, Split::Even);
        c.add("x", 1 << 63, Split::Even);
    }

    #[test]
    fn weighted_split_sums_exactly() {
        let mut c = Catalog::new();
        let a = c.add("x", 101, Split::Weighted(vec![1.0, 2.0, 1.0]));
        let qs = c.quotas(a, 3);
        assert_eq!(qs.iter().sum::<Qty>(), 101);
        assert!(qs[1] >= qs[0] && qs[1] >= qs[2], "heaviest gets most");
    }

    #[test]
    fn catalog_lookup() {
        let mut c = Catalog::new();
        let a = c.add("alpha", 5, Split::Even);
        let b = c.add("beta", 6, Split::Even);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.get(a).name, "alpha");
        assert_eq!(c.get(b).total, 6);
        assert_eq!(c.items()[1].id, b);
    }
}
