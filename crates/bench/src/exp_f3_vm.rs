//! **F3 — Virtual Message guaranteed delivery under loss.**
//!
//! Claim (Section 4.2): "a Vm is never lost, although several real
//! messages corresponding to it may be sent during its lifespan". We
//! sweep the per-link loss probability and verify that every created Vm
//! completes its lifecycle, while the number of real frames per Vm grows
//! with loss — the price of the guarantee.
//!
//! Setup: site 0 holds the whole quota; site 1 runs reservations that all
//! need solicitation, so every committed reservation rides at least one
//! Vm. Requests themselves are plain messages (lost ⇒ timeout abort),
//! which is why the *commit* ratio sags with loss even though no *value*
//! is ever lost.

use crate::table::{f2, pct, Table};
use dvp_core::item::{Catalog, Split};
use dvp_core::{Cluster, ClusterConfig, TxnSpec};
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::time::{SimDuration, SimTime};

fn msec(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

/// Run F3 and return the table.
pub fn run() -> Table {
    let reservations = 200;
    let mut t = Table::new(
        "F3: Vm delivery under loss (2 sites, all value remote)",
        &[
            "loss p",
            "commit ratio",
            "Vms created",
            "Vms completed",
            "frames/Vm",
        ],
    );
    for loss in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9] {
        let mut catalog = Catalog::new();
        let item = catalog.add("pool", 1_000_000, Split::AllAt(0));
        let mut cfg = ClusterConfig::new(2, catalog);
        cfg.net = NetworkConfig::lossy(loss);
        cfg.seed = 5;
        for k in 0..reservations {
            cfg = cfg.at(1, msec(1 + k * 60), TxnSpec::reserve(item, 10));
        }
        let mut cl = Cluster::build(cfg);
        // Long horizon: retransmission needs time at 90% loss.
        cl.run_until(msec(1 + reservations * 60 + 120_000));
        cl.auditor().check_conservation().unwrap();

        let m = cl.stats().txn;
        let created: u64 = (0..2)
            .map(|s| cl.sim.node(s).vm_endpoint().stats().created)
            .sum();
        let completed: u64 = (0..2)
            .map(|s| cl.sim.node(s).vm_endpoint().stats().completed)
            .sum();
        let frames: u64 = (0..2)
            .map(|s| {
                let st = cl.sim.node(s).vm_endpoint().stats();
                st.data_frames_sent + st.ack_frames_sent
            })
            .sum();
        let fpv = if completed == 0 {
            0.0
        } else {
            frames as f64 / completed as f64
        };
        t.row(vec![
            format!("{loss:.1}"),
            pct(m.commit_ratio()),
            created.to_string(),
            completed.to_string(),
            f2(fpv),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table, computed once for every test here.
    fn table() -> &'static Table {
        static TABLE: std::sync::OnceLock<Table> = std::sync::OnceLock::new();
        TABLE.get_or_init(run)
    }

    #[test]
    fn every_created_vm_completes_at_every_loss_rate() {
        let t = table();
        assert_eq!(t.len(), 6);
        for r in 0..t.len() {
            assert_eq!(
                t.cell(r, 2),
                t.cell(r, 3),
                "row {r}: a Vm is never lost (created == completed)"
            );
        }
    }

    #[test]
    fn frames_per_vm_grow_with_loss() {
        let t = table();
        let fpv = |r: usize| -> f64 { t.cell(r, 4).parse().unwrap() };
        assert!(fpv(5) > fpv(0), "retransmission is the price of loss");
        // Lossless: roughly one data frame + one ack per Vm.
        assert!(fpv(0) <= 3.0);
    }

    #[test]
    fn commit_ratio_sags_with_loss_but_never_silently() {
        let t = table();
        let ratio =
            |r: usize| -> f64 { t.cell(r, 1).trim_end_matches('%').parse::<f64>().unwrap() };
        assert!(ratio(0) > 95.0);
        assert!(ratio(5) < ratio(0), "requests are lossy; timeouts abort");
    }
}
