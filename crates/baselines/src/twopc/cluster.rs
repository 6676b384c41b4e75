//! Cluster builder and cluster-wide checks.

use super::{OutcomeAudit, TradConfig, TradNode};
use crate::metrics::TradClusterMetrics;
use crate::placement::Sites;
use dvp_core::item::Catalog;
use dvp_core::{ClusterConfig, Injection, ItemId};
use dvp_simnet::sim::Simulation;
use dvp_simnet::time::SimTime;

/// A built traditional cluster.
pub struct TradCluster {
    /// The simulation.
    pub sim: Simulation<TradNode>,
    /// The catalog.
    pub catalog: Catalog,
    /// The outcome audit every site feeds.
    audit: OutcomeAudit,
}

impl TradCluster {
    /// Instantiate the simulation: one full-replica site per script, with
    /// arrivals, crashes and recoveries scheduled as for a DvP cluster.
    ///
    /// Panics if the fault plan injects a fault at any site, naming the
    /// site and the fault, or if the run plants a bug, naming it:
    /// crashpoints, storage decay and mutants are hooks inside the DvP
    /// site, which the baseline does not have. Panics, too, on a
    /// cluster of more than [`Sites::MAX`] sites: a site set is one
    /// 64-bit mask.
    pub fn build(cfg: ClusterConfig<TradConfig>) -> TradCluster {
        let n = cfg.n_sites();
        assert!(
            n <= Sites::MAX,
            "the 2PC baseline runs at most {} sites (one bit per site): this cluster has {n}",
            Sites::MAX
        );
        for (site, fault) in cfg.faults.injections.iter().enumerate() {
            assert!(
                *fault == Injection::default(),
                "the 2PC baseline cannot inject faults: site {site} is armed with {fault:?}"
            );
        }
        if let Some(mutant) = cfg.mutant {
            panic!("the 2PC baseline cannot plant a bug: the run names {mutant:?}");
        }
        let totals: Vec<u64> = cfg.catalog.items().iter().map(|d| d.total).collect();
        let audit = OutcomeAudit::default();
        let sim = cfg.simulate(|_, obs, arrivals| {
            let mut node = TradNode::new(n, cfg.site, totals.clone(), arrivals, obs);
            node.set_audit(audit.clone());
            node
        });
        TradCluster {
            sim,
            catalog: cfg.catalog,
            audit,
        }
    }

    /// Run until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Collect metrics.
    pub fn metrics(&self) -> TradClusterMetrics {
        TradClusterMetrics {
            sites: self.sim.nodes().iter().map(|s| s.metrics()).collect(),
        }
    }

    /// Cluster-wide stable-log counters (forces, appends, batch sizes) —
    /// the engine benchmarks report `forces / committed` from these.
    pub fn log_stats(&self) -> dvp_storage::LogStats {
        let mut total = dvp_storage::LogStats::default();
        for site in self.sim.nodes() {
            total.merge(&site.log().stats());
        }
        total
    }

    /// Did every site that acted on a transaction act on the **same**
    /// decision? Always true for 2PC (it blocks instead of guessing);
    /// 3PC's termination rule can diverge under partitions. The cluster's
    /// [`OutcomeAudit`] reached this verdict as outcomes arrived; this
    /// returns the first divergence it saw.
    pub fn check_decision_consistency(&self) -> Result<(), String> {
        self.audit.divergence()
    }

    /// The cluster's outcome audit (memory audit: its live entries).
    pub fn audit(&self) -> &OutcomeAudit {
        &self.audit
    }

    /// At healthy quiescence: for each item that was ever written, a
    /// majority of sites hold the replica with the highest version.
    pub fn check_replica_convergence(&self) -> Result<(), String> {
        let n = self.sim.nodes().len();
        for def in self.catalog.items() {
            let best = self.latest(def.id);
            let agree = (0..n)
                .filter(|&s| self.sim.node(s).replica(def.id) == best)
                .count();
            if agree < n / 2 + 1 && best.1 > 0 {
                return Err(format!(
                    "item {:?}: only {agree}/{n} replicas hold the latest version {}",
                    def.id, best.1
                ));
            }
        }
        Ok(())
    }

    /// At healthy quiescence under 2PC: each item's latest-version
    /// replica holds its initial total plus the deltas of every commit
    /// decided on it. (A 3PC writer can commit on the termination rule,
    /// which no coordinator decided, so this is a 2PC check.)
    pub fn check_replica_values(&self) -> Result<(), String> {
        for def in self.catalog.items() {
            let (value, version) = self.latest(def.id);
            let expected = def.total as i64 + self.audit.committed_delta(def.id);
            if value as i64 != expected {
                return Err(format!(
                    "item {:?}: the latest replica (version {version}) holds {value}, \
                     but its total plus the committed deltas is {expected}",
                    def.id
                ));
            }
        }
        Ok(())
    }

    /// The `(value, version)` of the replica of `item` with the highest
    /// version.
    fn latest(&self, item: ItemId) -> (u64, u64) {
        self.sim
            .nodes()
            .iter()
            .map(|s| s.replica(item))
            .max_by_key(|&(_, version)| version)
            .expect("a cluster has sites")
    }
}
