//! Cluster builder and cluster-wide checks.

use super::{TradConfig, TradNode};
use crate::metrics::TradClusterMetrics;
use dvp_core::clock::Ts;
use dvp_core::item::Catalog;
use dvp_core::{ClusterConfig, Injection};
use dvp_simnet::sim::Simulation;
use dvp_simnet::time::SimTime;
use std::collections::BTreeMap;

/// A built traditional cluster.
pub struct TradCluster {
    /// The simulation.
    pub sim: Simulation<TradNode>,
    /// The catalog.
    pub catalog: Catalog,
}

impl TradCluster {
    /// Instantiate the simulation: one full-replica site per script, with
    /// arrivals, crashes and recoveries scheduled as for a DvP cluster.
    ///
    /// Panics if the fault plan injects a fault at any site, naming the
    /// site and the fault: crashpoints and storage decay are hooks inside
    /// the DvP site, which the baseline does not have.
    pub fn build(cfg: ClusterConfig<TradConfig>) -> TradCluster {
        for (site, fault) in cfg.faults.injections.iter().enumerate() {
            assert!(
                *fault == Injection::default(),
                "the 2PC baseline cannot inject faults: site {site} is armed with {fault:?}"
            );
        }
        let n = cfg.n_sites();
        let totals: Vec<u64> = cfg.catalog.items().iter().map(|d| d.total).collect();
        let sim = cfg.simulate(|s, obs, arrivals| {
            let mut node = TradNode::new(s, n, cfg.site, totals.clone(), arrivals);
            node.set_obs(obs.clone());
            node
        });
        TradCluster {
            sim,
            catalog: cfg.catalog,
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
    /// 3PC's termination rule can diverge under partitions.
    pub fn check_decision_consistency(&self) -> Result<(), String> {
        let mut seen: BTreeMap<Ts, (bool, usize)> = BTreeMap::new();
        for (site, node) in self.sim.nodes().iter().enumerate() {
            for (&txn, &commit) in node.resolutions() {
                match seen.get(&txn) {
                    None => {
                        seen.insert(txn, (commit, site));
                    }
                    Some(&(prev, prev_site)) if prev != commit => {
                        return Err(format!(
                            "txn {txn:?} diverged: site {prev_site} resolved {prev}, \
                             site {site} resolved {commit}"
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }

    /// At healthy quiescence: for each item that was ever written, a
    /// majority of sites hold the replica with the highest version. (The
    /// baseline keeps no per-item journal of committed deltas, so the
    /// value itself is not checked against the initial total.)
    pub fn check_replica_convergence(&self) -> Result<(), String> {
        for def in self.catalog.items() {
            let best = (0..self.sim.nodes().len())
                .map(|s| self.sim.node(s).replica(def.id))
                .max_by_key(|&(_, version)| version)
                .unwrap();
            let n = self.sim.nodes().len();
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
}
