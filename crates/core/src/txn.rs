//! Transaction specifications and outcomes.
//!
//! A [`TxnSpec`] is what a client hands to its home site: a list of
//! `(item, op)` pairs. The engine classifies it (Section 5):
//!
//! * all-`Incr`, or `Decr` fully covered locally → **write-only fast
//!   path**: lock, log, apply, unlock, all in one step;
//! * `Decr` with a deficit → **solicit**: requests out, Vms in, then
//!   commit (or timeout-abort);
//! * `Read` → **gather**: full-value read via read grants from every
//!   other site.

use crate::clock::Ts;
use crate::dense::SVec;
use crate::item::ItemId;
use crate::metrics::AbortReason;
use crate::ops::Op;
use crate::Qty;

/// A transaction as submitted by a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnSpec {
    /// Operations, in program order. Inline up to two — every generated
    /// workload but multi-product inventory orders — so drawing a spec
    /// and reading one out of a [`Script`](crate::Script) allocate
    /// nothing.
    pub ops: SVec<(ItemId, Op), 2>,
}

impl TxnSpec {
    /// Reserve `k` units of `item` (airline: book seats; inventory: ship).
    pub fn reserve(item: ItemId, k: Qty) -> Self {
        TxnSpec {
            ops: SVec::one((item, Op::Decr(k))),
        }
    }

    /// Release `k` units of `item` (cancellation, restock, deposit).
    pub fn release(item: ItemId, k: Qty) -> Self {
        TxnSpec {
            ops: SVec::one((item, Op::Incr(k))),
        }
    }

    /// Read the full value of `item`.
    pub fn read(item: ItemId) -> Self {
        TxnSpec {
            ops: SVec::one((item, Op::Read)),
        }
    }

    /// Move `k` units from `from` to `to` (change a reservation between
    /// flights; transfer between accounts).
    pub fn transfer(from: ItemId, to: ItemId, k: Qty) -> Self {
        TxnSpec {
            ops: SVec::from_slice(&[(from, Op::Decr(k)), (to, Op::Incr(k))]),
        }
    }

    /// The access set A(t): distinct items touched, sorted (the engine
    /// acquires locks in this order under Conc2), into a caller-owned
    /// scratch buffer (the steady-state path must not allocate per
    /// transaction).
    pub fn access_set_into(&self, out: &mut Vec<ItemId>) {
        out.clear();
        out.extend(self.ops.iter().map(|(i, _)| *i));
        out.sort_unstable();
        out.dedup();
    }

    /// Net committed delta per item into a caller-owned scratch buffer,
    /// sorted by item; repeated items accumulate, and a read leaves an
    /// explicit zero entry.
    pub fn deltas_into(&self, out: &mut Vec<(ItemId, i64)>) {
        out.clear();
        for (item, op) in &self.ops {
            match out.binary_search_by_key(item, |e| e.0) {
                Ok(i) => out[i].1 += op.delta(),
                Err(i) => out.insert(i, (*item, op.delta())),
            }
        }
    }

    /// Total local demand per item (sum of `Decr` amounts) into a
    /// caller-owned scratch buffer, sorted by item; only items with
    /// positive demand appear.
    pub fn demands_into(&self, out: &mut Vec<(ItemId, Qty)>) {
        out.clear();
        for (item, op) in &self.ops {
            let d = op.demand();
            if d > 0 {
                match out.binary_search_by_key(item, |e| e.0) {
                    Ok(i) => out[i].1 += d,
                    Err(i) => out.insert(i, (*item, d)),
                }
            }
        }
    }

    /// Whether no operation reads (the write-only fast path's shape).
    pub fn writes_only(&self) -> bool {
        !self.ops.iter().any(|(_, op)| op.is_read())
    }

    /// Items read in full, sorted. Empty, with nothing filtered, sorted
    /// or allocated, for a write-only spec.
    pub fn reads(&self) -> Vec<ItemId> {
        if self.writes_only() {
            return Vec::new();
        }
        let mut items: Vec<ItemId> = self
            .ops
            .iter()
            .filter(|(_, op)| op.is_read())
            .map(|(i, _)| *i)
            .collect();
        items.sort();
        items.dedup();
        items
    }
}

/// How a transaction ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Committed; full-value reads produced these results.
    Committed {
        /// `(item, observed full value)` for each `Op::Read`.
        reads: Vec<(ItemId, Qty)>,
    },
    /// Aborted for the given reason. Redistribution performed on the
    /// transaction's behalf persists (an aborted transaction "can be
    /// regarded as \[an\] Rds transaction", Section 6).
    Aborted(AbortReason),
}

impl TxnOutcome {
    /// Whether the transaction committed.
    pub fn committed(&self) -> bool {
        matches!(self, TxnOutcome::Committed { .. })
    }
}

/// Identifier pairing a transaction with its home site for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnHandle {
    /// The transaction's timestamp-identifier.
    pub id: Ts,
    /// Home site.
    pub site: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ItemId = ItemId(0);
    const B: ItemId = ItemId(1);

    fn access_set(t: &TxnSpec) -> Vec<ItemId> {
        let mut out = Vec::new();
        t.access_set_into(&mut out);
        out
    }

    fn deltas(t: &TxnSpec) -> Vec<(ItemId, i64)> {
        let mut out = Vec::new();
        t.deltas_into(&mut out);
        out
    }

    fn demands(t: &TxnSpec) -> Vec<(ItemId, Qty)> {
        let mut out = Vec::new();
        t.demands_into(&mut out);
        out
    }

    #[test]
    fn reserve_is_a_single_decr() {
        let t = TxnSpec::reserve(A, 3);
        assert_eq!(t.ops.as_slice(), [(A, Op::Decr(3))]);
        assert_eq!(demands(&t), [(A, 3)]);
        assert_eq!(deltas(&t), [(A, -3)]);
    }

    #[test]
    fn transfer_touches_two_items() {
        let t = TxnSpec::transfer(A, B, 4);
        assert_eq!(access_set(&t), [A, B]);
        assert_eq!(deltas(&t), [(A, -4), (B, 4)]);
        assert_eq!(demands(&t), [(A, 4)], "an increment demands nothing");
    }

    #[test]
    fn read_classified() {
        let t = TxnSpec::read(A);
        assert_eq!(t.reads(), vec![A]);
        assert!(!t.writes_only());
        assert_eq!(deltas(&t), [(A, 0)]);
        let t = TxnSpec::transfer(A, B, 1);
        assert!(t.writes_only());
        assert!(t.reads().is_empty());
    }

    #[test]
    fn repeated_items_merge() {
        let t = TxnSpec {
            ops: vec![(A, Op::Decr(2)), (A, Op::Decr(3)), (A, Op::Incr(1))].into(),
        };
        assert_eq!(access_set(&t), [A]);
        assert_eq!(demands(&t), [(A, 5)]);
        assert_eq!(deltas(&t), [(A, -4)]);
    }

    #[test]
    fn into_variants_reuse_their_buffer() {
        let t = TxnSpec {
            ops: vec![
                (B, Op::Decr(2)),
                (A, Op::Read),
                (B, Op::Decr(3)),
                (A, Op::Incr(1)),
            ]
            .into(),
        };
        let mut items = vec![ItemId(99)];
        t.access_set_into(&mut items);
        assert_eq!(items, [A, B]);
        let mut deltas = vec![(ItemId(99), 1)];
        t.deltas_into(&mut deltas);
        assert_eq!(deltas, [(A, 1), (B, -5)]);
        let mut demands = vec![(ItemId(99), 1)];
        t.demands_into(&mut demands);
        assert_eq!(demands, [(B, 5)]);
    }

    #[test]
    fn outcome_predicates() {
        assert!(TxnOutcome::Committed { reads: vec![] }.committed());
        assert!(!TxnOutcome::Aborted(AbortReason::Timeout).committed());
    }
}
