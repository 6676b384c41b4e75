//! Conservation, `N = ΣNᵢ + N_M` (paper Section 3), at every pause
//! point of a run.
//!
//! Random runs under arbitrary failures are T5's `sampled` row
//! (`dvp_bench::exp_t5_conservation`), which draws sites, scheme,
//! placement, checkpoint cadence, timeout, workload, network and faults
//! from each campaign's seed and checks every oracle. This file pins one
//! dense campaign of that row and checks a banking run at several pause
//! points.

use dvp::bench::exp_t5_conservation::{configs, Draw};
use dvp::prelude::*;
use dvp_nemesis::{run_campaign, FaultEvent};

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

/// A dense-fault regression on every `cargo test`: `sampled` campaign
/// 7290 draws at least as densely as the hand-built scenario this test
/// once ran (5 sites, 35 % loss, 25 % duplication, 50 bookings on a
/// hub-skewed airline, two partitions, crashes at two sites). It draws
/// 6 sites, 37 % loss and 27 % duplication, 85 bookings 2 ms apart on the
/// same skewed airline under Conc2, two partitions and crashes at two
/// sites plus an armed crashpoint, and every oracle holds.
#[test]
fn pinned_dense_fault_scenario() {
    const SEED: u64 = 7290;
    let sampled = configs().pop().expect("`sampled` is the last config");
    let draw = Draw::new(SEED);
    // 6 sites, Conc2, exact refills, checkpoints every 24, a 10 ms
    // timeout, airline, the `random` net, the standard fault mix.
    assert_eq!(draw.pick, [3, 1, 1, 2, 0, 0, 2, 1]);
    assert!(draw.loss_dup.0 >= 0.35 && draw.loss_dup.1 >= 0.25);
    assert!(draw.txns >= 50 && draw.mean_gap_ms <= 5);
    let schedule = sampled.schedule(SEED);
    let count = |kind: fn(&FaultEvent) -> bool| schedule.events.iter().filter(|e| kind(e)).count();
    assert!(count(|e| matches!(e, FaultEvent::Isolate { .. })) >= 2);
    assert!(count(|e| matches!(e, FaultEvent::Crash { site: 1, .. })) >= 1);
    assert!(count(|e| matches!(e, FaultEvent::Crash { site: 3, .. })) >= 1);
    let r = run_campaign(&sampled.campaign_config(SEED, false), &schedule);
    assert!(r.passed(), "{:?}", r.violation);
    assert!(r.recoveries >= 2 && r.net.lost > 0 && r.net.duplicated > 0);
}

/// Conservation at every pause point of a run that commits at every
/// site: the fragments and the value aboard unacked Vms add up to the
/// history sink's running total, the one fold of the committed deltas.
#[test]
fn conservation_holds_at_every_pause_point_of_a_banking_run() {
    let w = dvp::workloads::BankingWorkload {
        n_sites: 4,
        accounts: 8,
        txns: 600,
        ..Default::default()
    }
    .generate(5);
    let mut cl = dvp::bench::Scenario::dvp(&w).build_dvp();
    let mut moved = 0;
    for k in 1..=6u64 {
        cl.run_until(ms(k * 400));
        let history = cl.history();
        moved += usize::from(
            w.catalog
                .items()
                .iter()
                .any(|def| history.total(def.id) != def.total as i64),
        );
        cl.auditor().check_conservation().unwrap();
    }
    assert!(moved >= 3, "the run must commit across several probes");
}
