//! Placement-subsystem property tests: **where value goes never decides
//! what is safe**.
//!
//! The adaptive subsystem's contract (DESIGN.md §4h) is that placement
//! may steer value — predictive refill tops a donation up, the
//! rebalancer ships surplus unasked — but never change what any safety
//! oracle sees. Every redistribution preserves Π (paper §4.1), so
//! conservation and read exactness must hold under adaptive placement on
//! any network, lossy included.
//!
//! That the *disabled* path is byte-identical to the pre-subsystem
//! golden trace is pinned by `tests/obs_trace.rs`, whose golden files
//! were captured before the placement subsystem existed and run against
//! today's default (`Placement::Reactive`) configuration.

use dvp::prelude::*;
use dvp::workloads::AirlineWorkload;
use proptest::prelude::*;

/// A 4-site airline run with a skewed demand, `txns` long.
fn config(seed: u64, txns: usize) -> ClusterConfig {
    let w = AirlineWorkload {
        n_sites: 4,
        flights: 2,
        seats_per_flight: 400,
        txns,
        site_skew: 1.5,
        ..Default::default()
    }
    .generate(seed);
    let mut cfg = w.cluster();
    cfg.seed = seed;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Adaptive placement moves value on its own initiative, and loss
    /// makes it retransmit and time out, yet conservation and read
    /// exactness hold to quiescence.
    #[test]
    fn adaptive_placement_keeps_conservation_and_read_exactness_under_loss(
        seed in any::<u64>(),
        txns in 10usize..50,
        loss in 0.0f64..0.3,
    ) {
        let mut cfg = config(seed, txns);
        cfg.site.placement = Placement::adaptive();
        cfg.net = if loss > 0.0 {
            NetworkConfig::lossy(loss)
        } else {
            NetworkConfig::reliable()
        };
        let mut cl = Cluster::build(cfg);
        cl.run_to_quiescence();
        cl.auditor().check_conservation().unwrap();
        let stats = cl.stats();
        cl.auditor()
            .check_reads(&stats.txn)
            .expect("committed reads must be exact under adaptive placement");
    }
}

/// The disabled path really is disabled: a default (`Placement::
/// Reactive`) cluster never rebalances, so the adaptive subsystem cannot
/// leak into runs that did not opt in.
#[test]
fn reactive_path_never_rebalances() {
    let mut cl = Cluster::build(config(7, 60));
    cl.run_to_quiescence();
    let stats = cl.stats();
    assert_eq!(stats.txn.rebalances(), 0, "no rebalancer by default");
    assert_eq!(
        stats.txn.sum(|s| s.rebalance_ticks),
        0,
        "no rebalance timer"
    );
    assert!(stats.txn.committed() > 0, "the workload actually ran");
}
