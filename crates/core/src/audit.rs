//! Omniscient safety auditors.
//!
//! These check the paper's core invariants from *outside* the protocol
//! (test/experiment instrumentation — no site could run them, and none
//! needs to):
//!
//! * **Conservation** (Section 3): for every item,
//!   `N = Σᵢ Nᵢ + N_M` at all times — fragments plus value aboard
//!   uncompleted Vms equals the initial total adjusted by committed
//!   deltas, which is the cluster's [`History`] total.
//! * **Read exactness** (Sections 5/6): every committed full-value read
//!   observed precisely the item's true total at its commit instant, i.e.
//!   the value a serial execution (subject to redistribution) would have
//!   shown. This one is checked *as reads commit*: every site feeds the
//!   cluster's [`HistorySink`], which keeps O(items) state, never the
//!   history itself.

use crate::clock::Ts;
use crate::item::Catalog;
use crate::metrics::ClusterMetrics;
use crate::site::SiteNode;
use crate::transfer::Transfer;
use crate::{ItemId, Qty};
use dvp_simnet::time::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// An invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditError {
    /// Conservation failed for an item.
    Conservation {
        /// The item.
        item: ItemId,
        /// Initial total adjusted by committed deltas.
        expected: i64,
        /// Σ fragments + in-flight value actually found.
        found: i64,
    },
    /// A committed read returned the wrong total.
    WrongRead {
        /// The item read.
        item: ItemId,
        /// True total at the read's commit instant.
        expected: i64,
        /// Value the read returned.
        got: u64,
        /// The reading transaction.
        txn: Ts,
        /// Its commit instant.
        at: SimTime,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Conservation {
                item,
                expected,
                found,
            } => write!(
                f,
                "conservation violated for {item:?}: expected {expected}, found {found}"
            ),
            AuditError::WrongRead {
                item,
                expected,
                got,
                txn,
                at,
            } => write!(
                f,
                "read of {item:?} by {txn:?} committed at {at} returned {got}, \
                 true total was {expected}"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// Auditor over a cluster's current state.
pub struct Auditor<'a> {
    sites: &'a [SiteNode],
    catalog: &'a Catalog,
    history: &'a HistorySink,
}

impl<'a> Auditor<'a> {
    /// Build an auditor over `sites`, whose commits `history` folded.
    pub fn new(sites: &'a [SiteNode], catalog: &'a Catalog, history: &'a HistorySink) -> Self {
        Auditor {
            sites,
            catalog,
            history,
        }
    }

    /// Current Σ fragments per item.
    pub fn fragment_totals(&self) -> BTreeMap<ItemId, u64> {
        let mut totals = BTreeMap::new();
        for def in self.catalog.items() {
            let sum: u64 = self.sites.iter().map(|s| s.fragments().get(def.id)).sum();
            totals.insert(def.id, sum);
        }
        totals
    }

    /// Value aboard uncompleted Vms per item (`N_M`).
    ///
    /// A sender-side outgoing entry is *in flight* only while the receiver
    /// has not durably accepted it: once `seq ≤` the receiver's accept
    /// cursor, the value is already inside the receiver's fragment and
    /// counting it again would double-book.
    pub fn in_flight_totals(&self) -> BTreeMap<ItemId, u64> {
        let mut totals: BTreeMap<ItemId, u64> = BTreeMap::new();
        for sender in self.sites {
            let from = sender.id();
            for peer in sender.vm_endpoint().peers() {
                let accepted = self.sites[peer].vm_endpoint().ack_for(from);
                for (seq, payload) in sender.vm_endpoint().outgoing_toward(peer) {
                    if seq <= accepted {
                        continue; // already inside the receiver's fragment
                    }
                    if let Ok(t) = Transfer::from_bytes(&payload) {
                        *totals.entry(t.item).or_insert(0) += t.amount;
                    }
                }
            }
        }
        totals
    }

    /// Check `N = ΣNᵢ + N_M` for every item, where `N` is the initial
    /// total adjusted by every committed transaction's delta: the
    /// history sink's running total.
    pub fn check_conservation(&self) -> Result<(), AuditError> {
        self.check_conservation_bounded(&BTreeMap::new())
    }

    /// Conservation under declared media damage: each item may be off by
    /// at most its salvage-damage bound, in either direction — a dropped
    /// acceptance the live sender may still re-deliver shows up as loss
    /// the channel can undo, a dropped Commit record resurrects a debit —
    /// and items with no declared damage must still conserve exactly.
    pub fn check_conservation_bounded(
        &self,
        damage: &BTreeMap<ItemId, u64>,
    ) -> Result<(), AuditError> {
        let frags = self.fragment_totals();
        let in_flight = self.in_flight_totals();
        let history = self.history.0.borrow();
        for def in self.catalog.items() {
            let expected = history.total(def.id);
            let found = frags.get(&def.id).copied().unwrap_or(0) as i64
                + in_flight.get(&def.id).copied().unwrap_or(0) as i64;
            let bound = damage.get(&def.id).copied().unwrap_or(0) as i64;
            if (found - expected).abs() > bound {
                return Err(AuditError::Conservation {
                    item: def.id,
                    expected,
                    found,
                });
            }
        }
        Ok(())
    }

    /// Every committed read against the serial history: in global commit
    /// order, a read must report the item's running total at its commit
    /// instant. The cluster's [`HistorySink`] reached this verdict as the
    /// reads committed; `metrics` carries its [`History`].
    pub fn check_reads(&self, metrics: &ClusterMetrics) -> Result<(), AuditError> {
        metrics.history.verdict()
    }
}

/// The committed history folded to O(items): a running total and a
/// low-water mark per item, the reads checked, and the first wrong one.
/// [`HistorySink::history`] hands out a copy; [`Cluster::stats`] puts it
/// in [`ClusterMetrics::history`].
///
/// [`Cluster::stats`]: crate::Cluster::stats
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct History {
    /// Running total per item, indexed by `item.0`.
    totals: Vec<i64>,
    /// Smallest running total each item has had.
    low_water: Vec<i64>,
    reads_checked: u64,
    last_read: Option<(ItemId, Qty)>,
    wrong_read: Option<AuditError>,
}

impl History {
    fn new(catalog: &Catalog) -> Self {
        let totals: Vec<i64> = catalog.items().iter().map(|d| d.total as i64).collect();
        History {
            low_water: totals.clone(),
            totals,
            ..History::default()
        }
    }

    /// The item's total after every commit so far (0 for an item outside
    /// the catalog nobody committed to).
    pub fn total(&self, item: ItemId) -> i64 {
        self.totals.get(item.0 as usize).copied().unwrap_or(0)
    }

    /// The smallest total the item has had in commit order: negative iff
    /// some committed decrement overdrew it.
    pub fn low_water(&self, item: ItemId) -> i64 {
        self.low_water.get(item.0 as usize).copied().unwrap_or(0)
    }

    /// Committed full-value reads checked so far.
    pub fn reads_checked(&self) -> u64 {
        self.reads_checked
    }

    /// The last read checked, in commit order: `(item, value returned)`.
    pub fn last_read(&self) -> Option<(ItemId, Qty)> {
        self.last_read
    }

    /// The first committed read, in commit order, that did not return the
    /// item's running total — the read-exactness verdict.
    pub fn verdict(&self) -> Result<(), AuditError> {
        self.wrong_read.clone().map_or(Ok(()), Err)
    }

    /// Fold one commit in.
    fn apply(&mut self, at: SimTime, txn: Ts, deltas: &[(ItemId, i64)], reads: &[(ItemId, Qty)]) {
        for &(item, got) in reads {
            self.reads_checked += 1;
            self.last_read = Some((item, got));
            let expected = self.total(item);
            if expected != got as i64 && self.wrong_read.is_none() {
                self.wrong_read = Some(AuditError::WrongRead {
                    item,
                    expected,
                    got,
                    txn,
                    at,
                });
            }
        }
        for &(item, d) in deltas {
            let i = item.0 as usize;
            if i >= self.totals.len() {
                self.totals.resize(i + 1, 0);
                self.low_water.resize(i + 1, 0);
            }
            self.totals[i] += d;
            self.low_water[i] = self.low_water[i].min(self.totals[i]);
        }
    }
}

/// The read-exactness check, run as transactions commit. One handle is
/// shared by a cluster and all its sites, the way [`dvp_obs::Obs`] is;
/// each commit hands it `(instant, txn, deltas, reads)`, and it folds the
/// commit into a [`History`] at once, in the order commits are recorded —
/// nothing that grows with the run. The kernel dispatches instants in
/// order, and a site records a commit before its lock release can wake
/// (and commit) a Conc2 waiter, so recorded order is a serial order.
#[derive(Clone, Debug, Default)]
pub struct HistorySink(Rc<RefCell<History>>);

impl HistorySink {
    /// A sink starting from the catalog's initial totals.
    pub fn new(catalog: &Catalog) -> Self {
        HistorySink(Rc::new(RefCell::new(History::new(catalog))))
    }

    /// Record one committed transaction: its reads see every commit
    /// recorded before it, and not its own deltas (reads carry none).
    pub fn commit(&self, at: SimTime, txn: Ts, deltas: &[(ItemId, i64)], reads: &[(ItemId, Qty)]) {
        self.0.borrow_mut().apply(at, txn, deltas, reads);
    }

    /// The history so far.
    pub fn history(&self) -> History {
        self.0.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::item::Split;
    use crate::txn::TxnSpec;
    use dvp_simnet::time::SimDuration;

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::millis(n)
    }

    #[test]
    fn conservation_holds_at_every_pause_point() {
        let mut catalog = Catalog::new();
        let flight = catalog.add("A", 60, Split::Even);
        let mut cfg = ClusterConfig::new(3, catalog);
        for k in 0..6u64 {
            cfg = cfg.at((k % 3) as usize, ms(1 + 2 * k), TxnSpec::reserve(flight, 9));
        }
        let mut cl = Cluster::build(cfg);
        // Audit mid-run at several instants, not just at quiescence — the
        // invariant is "at all times".
        for t in [2u64, 5, 9, 15, 40, 200] {
            cl.run_until(ms(t));
            cl.auditor().check_conservation().unwrap();
        }
        cl.run_to_quiescence();
        cl.auditor().check_conservation().unwrap();
    }

    #[test]
    fn audit_error_display() {
        let e = AuditError::Conservation {
            item: ItemId(1),
            expected: 10,
            found: 9,
        };
        assert!(e.to_string().contains("conservation"));
        let e = AuditError::WrongRead {
            item: ItemId(1),
            expected: 10,
            got: 9,
            txn: Ts((7 << 10) | 2),
            at: ms(3),
        };
        assert_eq!(
            e.to_string(),
            "read of item:1 by ts:7@s2 committed at 3.000ms returned 9, true total was 10"
        );
    }

    #[test]
    fn conservation_reads_the_history_total() {
        let mut catalog = Catalog::new();
        let a = catalog.add("A", 50, Split::Even);
        let cfg = ClusterConfig::new(2, catalog)
            .at(0, ms(1), TxnSpec::reserve(a, 5))
            .at(1, ms(2), TxnSpec::release(a, 3));
        let mut cl = Cluster::build(cfg);
        cl.run_to_quiescence();
        assert_eq!(cl.stats().txn.history.total(a), 48);
        assert_eq!(cl.auditor().fragment_totals()[&a], 48);
        cl.auditor().check_conservation().unwrap();
        // Against a history that folded other commits, the same state
        // does not balance.
        let other = HistorySink::new(&cl.catalog);
        other.commit(ms(3), Ts(1), &[(a, -1)], &[]);
        assert_eq!(
            Auditor::new(cl.sim.nodes(), &cl.catalog, &other).check_conservation(),
            Err(AuditError::Conservation {
                item: a,
                expected: 49,
                found: 48
            })
        );
    }
}
