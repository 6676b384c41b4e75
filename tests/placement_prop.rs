//! Placement-subsystem property tests: **availability hints are pure
//! gossip, never load-bearing**.
//!
//! The adaptive subsystem's contract (DESIGN.md §4h) is that hints may
//! only *steer* the `Fanout::Hinted` target choice — they must never
//! change what commits, what aborts, or what any safety oracle sees.
//! Two properties pin that down, each run through the [`HintChaos`]
//! knob (drop every hint / treat every hint as expired; a duplicated
//! hint needs no mode, since a hint slot keeps the last write and
//! applying one twice is applying it once):
//!
//! 1. With a fan-out that does not consult hints (`Fanout::All`), every
//!    chaos mode produces an *identical* run — same commits, aborts,
//!    requests, frames. Hints with no steering role are inert.
//! 2. With `Fanout::Hinted`, chaos may change message counts (that is
//!    its job) but conservation and read exactness hold under every
//!    mode, including over a lossy network.
//!
//! The third leg of the story — that the *disabled* path is
//! byte-identical to the pre-PR golden trace — is pinned by
//! `tests/obs_trace.rs`, whose golden files were captured before the
//! placement subsystem existed and run against today's default
//! (`Placement::Reactive`) configuration.

use dvp::prelude::*;
use dvp::workloads::AirlineWorkload;
use proptest::prelude::*;

/// Run one adaptive-placement cluster to quiescence, assert the safety
/// oracles, and return the outcome fingerprint.
fn run(
    seed: u64,
    txns: usize,
    loss: f64,
    fanout: Fanout,
    chaos: HintChaos,
) -> (u64, u64, u64, u64) {
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
    cfg.site.placement = Placement::Adaptive(AdaptivePlacement { fanout, chaos });
    cfg.net = if loss > 0.0 {
        NetworkConfig::lossy(loss)
    } else {
        NetworkConfig::reliable()
    };
    let mut cl = Cluster::build(cfg);
    cl.run_to_quiescence();
    cl.auditor().check_conservation().unwrap();
    let stats = cl.stats();
    let m = &stats.txn;
    cl.auditor()
        .check_reads(m)
        .expect("committed reads must be exact under every chaos mode");
    (
        m.committed(),
        m.aborted(),
        m.requests_sent(),
        cl.sim.stats().frames_sent,
    )
}

const CHAOS: [HintChaos; 3] = [HintChaos::None, HintChaos::Drop, HintChaos::Stale];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: when hints are not steering the fan-out, mangling
    /// them changes *nothing* — not one commit, abort, request, or
    /// frame. This is what makes the piggybacked gossip safe to ship on
    /// every datagram: a site that drops or expires every hint runs the
    /// exact same protocol.
    #[test]
    fn hints_are_inert_when_not_steering(
        seed in any::<u64>(),
        txns in 10usize..50,
    ) {
        let base = run(seed, txns, 0.0, Fanout::All, HintChaos::None);
        for chaos in [HintChaos::Drop, HintChaos::Stale] {
            let got = run(seed, txns, 0.0, Fanout::All, chaos);
            prop_assert_eq!(base, got, "chaos {:?} changed the run", chaos);
        }
    }

    /// Property 2: when hints *do* steer (`Fanout::Hinted`), adversarial
    /// hint handling may cost messages or timeouts but can never break
    /// conservation or read exactness — asserted inside `run` for every
    /// chaos mode, with and without loss.
    #[test]
    fn chaotic_hints_cannot_break_safety(
        seed in any::<u64>(),
        txns in 10usize..50,
        loss in 0.0f64..0.3,
    ) {
        for chaos in CHAOS {
            run(seed, txns, loss, Fanout::Hinted, chaos);
        }
    }
}

/// The disabled path really is disabled: a default (`Placement::
/// Reactive`) cluster neither sends hints nor records hinted
/// solicitations, so the adaptive subsystem cannot leak into runs that
/// did not opt in.
#[test]
fn reactive_path_carries_no_hints() {
    let w = AirlineWorkload {
        n_sites: 4,
        flights: 2,
        seats_per_flight: 400,
        txns: 60,
        site_skew: 1.5,
        ..Default::default()
    }
    .generate(7);
    let mut cfg = w.cluster();
    cfg.seed = 7;
    let mut cl = Cluster::build(cfg);
    cl.run_to_quiescence();
    let stats = cl.stats();
    assert_eq!(stats.vm.hints_sent, 0, "no hints on the wire");
    assert_eq!(stats.txn.hinted_solicits(), 0);
    assert_eq!(stats.txn.hint_hits(), 0);
    assert_eq!(stats.txn.rebalances(), 0, "no rebalancer by default");
    assert!(stats.txn.committed() > 0, "the workload actually ran");
}

/// And the enabled path actually engages end to end: on a solicitation-
/// heavy workload, hints ride datagrams, steer solicitations, and pay
/// off — the counters the benchmark columns are built from are live.
#[test]
fn adaptive_path_hints_flow_and_hit() {
    let w = AirlineWorkload {
        n_sites: 4,
        flights: 2,
        seats_per_flight: 300,
        txns: 150,
        site_skew: 2.0,
        mix: (0.9, 0.1, 0.0, 0.0),
        ..Default::default()
    }
    .generate(2);
    let mut cfg = w.cluster();
    cfg.seed = 2;
    cfg.site.placement = Placement::adaptive();
    let mut cl = Cluster::build(cfg);
    cl.run_to_quiescence();
    cl.auditor().check_conservation().unwrap();
    let stats = cl.stats();
    assert!(stats.vm.hints_sent > 0, "hints piggyback on Vms");
    assert!(
        stats.txn.hinted_solicits() > 0,
        "some solicitations are hint-directed"
    );
    assert!(
        stats.txn.hint_hits() > 0,
        "hint-directed solicitations pay off"
    );
}
