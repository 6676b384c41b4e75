//! Placement-subsystem tests: **where value goes never decides what is
//! safe** (DESIGN.md §4h). That every oracle holds under every placement
//! on any network is T5's `sampled` row, which draws the placement, the
//! network and the faults of each campaign. That the *disabled* path is
//! byte-identical to the pre-subsystem golden trace is pinned by
//! `tests/obs_trace.rs`.

use dvp::prelude::*;
use dvp::workloads::AirlineWorkload;

/// The disabled path really is disabled: a default (`Placement::
/// Reactive`) cluster never rebalances, so the adaptive subsystem cannot
/// leak into runs that did not opt in.
#[test]
fn reactive_path_never_rebalances() {
    let w = AirlineWorkload {
        n_sites: 4,
        flights: 2,
        seats_per_flight: 400,
        txns: 60,
        site_skew: 1.5,
        ..Default::default()
    }
    .generate(7);
    let mut cl = Cluster::build(ClusterConfig {
        seed: 7,
        ..w.cluster()
    });
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
