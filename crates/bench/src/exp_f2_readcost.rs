//! **F2 — Full-value read cost vs cluster size.**
//!
//! Claim (Section 8): "there is a high overhead in reading the entire
//! value of a particular data item" — a DvP read must gather every
//! fragment (2(n−1) messages minimum plus acks), whereas a quorum read
//! touches ⌈(n+1)/2⌉ replicas and a primary-copy read one.
//!
//! Sweep: cluster size n. Metrics: messages per read, read latency.

use crate::table::{ms, Table};
use dvp_baselines::{Placement, TradCluster, TradConfig};
use dvp_core::item::{Catalog, Split};
use dvp_core::{Cluster, ClusterConfig, TxnSpec};
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::time::{SimDuration, SimTime};

/// One full-value read on an `n`-site cluster over fixed 2 ms links: the
/// run every column shares.
fn read_config(n: usize) -> ClusterConfig {
    let mut catalog = Catalog::new();
    let item = catalog.add("item", 1_000, Split::Even);
    let read_at = SimTime::ZERO + SimDuration::millis(1);
    let mut cfg = ClusterConfig::new(n, catalog).at(0, read_at, TxnSpec::read(item));
    cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2));
    cfg
}

/// Run the read on DvP: (messages, latency µs).
fn dvp_read(cfg: ClusterConfig) -> (u64, u64) {
    let mut cl = Cluster::build(cfg);
    cl.run_to_quiescence();
    let m = cl.stats().txn;
    assert_eq!(m.committed(), 1, "read must commit on a healthy network");
    cl.auditor().check_reads(&m).unwrap();
    (cl.sim.stats().sent, m.commit_latency().max())
}

/// Run the read on the baseline under `placement`: (messages, latency µs).
fn trad_read(cfg: ClusterConfig, placement: Placement) -> (u64, u64) {
    let site = TradConfig {
        placement,
        ..Default::default()
    };
    let mut cl = TradCluster::build(cfg.with_site(site));
    cl.sim.run_to_quiescence();
    let m = cl.metrics();
    assert_eq!(m.committed(), 1);
    let mut lat = dvp_obs::Hist::new();
    for s in &m.sites {
        lat.merge(&s.commit_latency);
    }
    (cl.sim.stats().sent, lat.max())
}

/// Run F2 and return the table.
pub fn run() -> Table {
    let mut t = Table::new(
        "F2: cost of one full-value read vs cluster size",
        &[
            "n sites",
            "DvP msgs",
            "DvP latency",
            "quorum msgs",
            "quorum latency",
            "primary msgs",
            "primary latency",
        ],
    );
    for n in [2, 4, 8, 12, 16] {
        let cfg = read_config(n);
        let (dm, dl) = dvp_read(cfg.clone());
        let (qm, ql) = trad_read(cfg.clone(), Placement::ReplicatedQuorum);
        let (pm, pl) = trad_read(cfg, Placement::PrimaryCopy);
        t.row(vec![
            n.to_string(),
            dm.to_string(),
            ms(dl),
            qm.to_string(),
            ms(ql),
            pm.to_string(),
            ms(pl),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dvp_read_cost_scales_with_n_and_exceeds_quorum() {
        let t = run();
        assert_eq!(t.len(), 5);
        let msgs = |r: usize, c: usize| -> u64 { t.cell(r, c).parse().unwrap() };
        // Monotone in n for DvP.
        for r in 1..t.len() {
            assert!(msgs(r, 1) > msgs(r - 1, 1), "row {r}");
        }
        // At n=8 the DvP read is the dearest — the paper's admitted cost.
        assert!(msgs(2, 1) > msgs(2, 3), "DvP read beats quorum in cost");
        assert!(msgs(2, 3) > msgs(2, 5), "quorum beats primary in cost");
    }
}
