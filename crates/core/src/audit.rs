//! Omniscient safety auditors.
//!
//! These check the paper's core invariants from *outside* the protocol
//! (test/experiment instrumentation — no site could run them, and none
//! needs to):
//!
//! * **Conservation** (Section 3): for every item,
//!   `N = Σᵢ Nᵢ + N_M` at all times — fragments plus value aboard
//!   uncompleted Vms equals the initial total adjusted by committed
//!   deltas.
//! * **Read exactness** (Sections 5/6): every committed full-value read
//!   observed precisely the item's true total at its commit instant, i.e.
//!   the value a serial execution (subject to redistribution) would have
//!   shown.

use crate::item::Catalog;
use crate::metrics::ClusterMetrics;
use crate::site::SiteNode;
use crate::transfer::Transfer;
use crate::ItemId;
use std::collections::BTreeMap;
use std::fmt;

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
            } => write!(
                f,
                "read of {item:?} returned {got}, true total was {expected}"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// Auditor over a cluster's current state.
pub struct Auditor<'a> {
    sites: &'a [SiteNode],
    catalog: &'a Catalog,
}

impl<'a> Auditor<'a> {
    /// Build an auditor.
    pub fn new(sites: &'a [SiteNode], catalog: &'a Catalog) -> Self {
        Auditor { sites, catalog }
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

    /// Net committed delta per item across all sites, from each site's
    /// running totals — O(sites × items), however long the run.
    pub fn committed_deltas(&self) -> BTreeMap<ItemId, i64> {
        let mut deltas: BTreeMap<ItemId, i64> = BTreeMap::new();
        for site in self.sites {
            for (item, d) in site.metrics().net_deltas() {
                *deltas.entry(item).or_insert(0) += d;
            }
        }
        deltas
    }

    /// Check `N = ΣNᵢ + N_M` for every item, where `N` is the initial
    /// total adjusted by every committed transaction's delta.
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
        let deltas = self.committed_deltas();
        for def in self.catalog.items() {
            let expected = def.total as i64 + deltas.get(&def.id).copied().unwrap_or(0);
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

    /// Check every committed read against the serial history: replaying
    /// commits in global commit order, a read must report the item's
    /// running total at its commit instant.
    pub fn check_reads(&self, metrics: &ClusterMetrics) -> Result<(), AuditError> {
        let mut running: BTreeMap<ItemId, i64> = self
            .catalog
            .items()
            .iter()
            .map(|d| (d.id, d.total as i64))
            .collect();
        for entry in metrics.global_commit_order() {
            // The read observes the state including every *earlier* commit
            // but not its own deltas (reads carry zero deltas anyway).
            for &(item, got) in &entry.reads {
                let expected = running.get(&item).copied().unwrap_or(0);
                if expected != got as i64 {
                    return Err(AuditError::WrongRead {
                        item,
                        expected,
                        got,
                    });
                }
            }
            for &(item, d) in &entry.deltas {
                *running.entry(item).or_insert(0) += d;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::item::Split;
    use crate::txn::TxnSpec;
    use dvp_simnet::time::{SimDuration, SimTime};

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
        };
        assert!(e.to_string().contains("read"));
    }

    #[test]
    fn committed_deltas_accumulate() {
        let mut catalog = Catalog::new();
        let a = catalog.add("A", 50, Split::Even);
        let cfg = ClusterConfig::new(2, catalog)
            .at(0, ms(1), TxnSpec::reserve(a, 5))
            .at(1, ms(2), TxnSpec::release(a, 3));
        let mut cl = Cluster::build(cfg);
        cl.run_to_quiescence();
        let deltas = cl.auditor().committed_deltas();
        assert_eq!(deltas.get(&a), Some(&-2));
        assert_eq!(cl.auditor().fragment_totals()[&a], 48);
    }
}
