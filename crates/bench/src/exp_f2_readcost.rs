//! **F2 — Full-value read cost vs cluster size.**
//!
//! Claim (Section 8): "there is a high overhead in reading the entire
//! value of a particular data item" — a DvP read must gather every
//! fragment (2(n−1) messages minimum plus acks), whereas a quorum read
//! touches ⌈(n+1)/2⌉ replicas and a primary-copy read one.
//!
//! Sweep: cluster size n. Metrics: messages per read, read latency.

use crate::table::{ms, Table};
use crate::Scale;
use dvp_baselines::{Placement, TradCluster, TradClusterConfig, TradConfig};
use dvp_core::item::{Catalog, Split};
use dvp_core::{Cluster, ClusterConfig, TxnSpec};
use dvp_simnet::network::{LinkConfig, NetworkConfig};
use dvp_simnet::time::{SimDuration, SimTime};

fn msec(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

fn fixed_net() -> NetworkConfig {
    NetworkConfig {
        default_link: LinkConfig::reliable_fixed(SimDuration::millis(2)),
        ..Default::default()
    }
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add("item", 1_000, Split::Even);
    c
}

/// Run one DvP read on an n-site cluster: (messages, latency µs).
fn dvp_read(n: usize) -> (u64, u64) {
    let item = dvp_core::ItemId(0);
    let mut cfg = ClusterConfig::new(n, catalog());
    cfg.net = fixed_net();
    cfg = cfg.at(0, msec(1), TxnSpec::read(item));
    let mut cl = Cluster::build(cfg);
    cl.run_to_quiescence();
    let m = cl.stats().txn;
    assert_eq!(m.committed(), 1, "read must commit on a healthy network");
    cl.auditor().check_reads(&m).unwrap();
    (cl.sim.stats().sent, m.commit_latency_percentile(100.0))
}

/// Run one baseline read: (messages, latency µs).
fn trad_read(n: usize, placement: Placement) -> (u64, u64) {
    let item = dvp_core::ItemId(0);
    let mut cfg = TradClusterConfig::new(n, catalog());
    cfg.net = fixed_net();
    cfg.trad = TradConfig {
        placement,
        ..Default::default()
    };
    cfg = cfg.at(0, msec(1), TxnSpec::read(item));
    let mut cl = TradCluster::build(cfg);
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
pub fn run(scale: Scale) -> Table {
    let sizes: &[usize] = if scale == Scale::Quick {
        &[2, 4, 8]
    } else {
        &[2, 4, 8, 12, 16]
    };
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
    for &n in sizes {
        let (dm, dl) = dvp_read(n);
        let (qm, ql) = trad_read(n, Placement::ReplicatedQuorum);
        let (pm, pl) = trad_read(n, Placement::PrimaryCopy);
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
        let t = run(Scale::Quick);
        assert_eq!(t.len(), 3);
        let msgs = |r: usize, c: usize| -> u64 { t.cell(r, c).parse().unwrap() };
        // Monotone in n for DvP.
        assert!(msgs(2, 1) > msgs(1, 1));
        assert!(msgs(1, 1) > msgs(0, 1));
        // At n=8 the DvP read is the dearest — the paper's admitted cost.
        assert!(msgs(2, 1) > msgs(2, 3), "DvP read beats quorum in cost");
        assert!(msgs(2, 3) > msgs(2, 5), "quorum beats primary in cost");
    }
}
