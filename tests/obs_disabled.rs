//! What makes a disabled observability handle free, checked exactly
//! rather than timed: it never evaluates an event payload, it buffers
//! nothing over a whole engine run, and attaching it changes no counter.
//! (The timed comparison is the repo benchmark's
//! `obs.trace_overhead_share`.)

use dvp::bench::Scenario;
use dvp::obs::{EventKind, Obs};
use dvp::workloads::{BankingWorkload, Workload};
use dvp_core::Cluster;

#[test]
fn a_disabled_handle_never_builds_the_payload() {
    for obs in [Obs::disabled(), Obs::new(false)] {
        assert!(!obs.is_enabled());
        obs.emit_with(0, || -> EventKind {
            panic!("payload closure evaluated on a disabled handle")
        });
        assert!(obs.is_empty());
    }
}

/// One closed-loop banking run, traced or not: the counters a
/// `RunReport` carries, then the ones folded from obs events, and how
/// many events the handle buffered.
fn banking(w: &Workload, trace: bool) -> ([u64; 13], usize) {
    let mut cfg = w.cluster();
    cfg.trace = trace;
    let mut cl = Cluster::build(cfg);
    let events = cl.sim.run_to_quiescence();
    let stats = cl.stats();
    let net = cl.sim.stats();
    let m = &stats.txn;
    let counters = [
        m.committed(),
        m.aborted(),
        stats.log.forces,
        net.sent,
        net.wire_bytes,
        events,
        m.fast_path_commits(),
        m.requests_sent(),
        m.sum(|s| s.requests_ignored),
        m.donations(),
        m.sum(|s| s.checkpoints),
        stats.vm.data_frames_sent,
        stats.vm.retransmissions,
    ];
    (counters, cl.obs().len())
}

#[test]
fn a_traced_off_run_buffers_nothing_and_moves_no_counter() {
    let w = BankingWorkload {
        n_sites: 8,
        accounts: 16,
        txns: 1_500,
        ..Default::default()
    }
    .generate(42);
    let (off, off_events) = banking(&w, false);
    assert_eq!(off_events, 0);
    // The zero above is not vacuous: the same run traced buffers events,
    // and still moves no counter.
    let (on, on_events) = banking(&w, true);
    assert!(on_events > 0);
    assert_eq!(on, off);
    // The folded counters count on a disabled handle too, and this run
    // moves every one of them.
    assert!(off[6..].iter().all(|&n| n > 0), "{off:?}");
    // And `Scenario` reports the same run the same way.
    let report = Scenario::dvp(&w).run();
    assert!(report.events.is_empty());
    assert_eq!(
        [
            report.committed,
            report.aborted,
            report.log.forces,
            report.net.sent,
            report.net.wire_bytes
        ],
        off[..5]
    );
}
