//! Liveness of the 2PC baseline under the nemesis's fault schedules.
//!
//! The claim under test (paper §6, and the whole point of non-blocking
//! commitment) is that once the last fault has healed and a bounded
//! settle window has drained, every transaction started on a live site
//! has been decided. The DvP side runs as experiment T5: `run_campaign`
//! checks `check_liveness` after the settle window of every campaign of
//! the matrix. Here schedules from the same generator are applied to the
//! 2PC cluster — their crashes, recoveries, partitions and chaos; the
//! crashpoints and torn writes are hooks inside the DvP site, which
//! `TradCluster::build` refuses — and
//! `still_blocked()` must be zero after the same settle window —
//! in-doubt participants resolve by querying recovered coordinators.
//! Every campaign also checks that each transaction was decided at most
//! once and the same way everywhere: duplicated messages and coordinator
//! crashes must not count a commit a second time, as an abort.

use dvp::prelude::*;
use dvp::workloads::AirlineWorkload;
use dvp_nemesis::{generate, lossy_environment, FaultEvent, FaultSchedule, Intensity};

const N_SITES: usize = 4;
const HORIZON_MS: u64 = 800;
const SEEDS: u64 = 400;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

fn workload(seed: u64) -> dvp::workloads::Workload {
    AirlineWorkload {
        n_sites: N_SITES,
        flights: 2,
        seats_per_flight: 400,
        txns: 30,
        ..Default::default()
    }
    .generate(seed)
}

/// The 2PC baseline under standard fault schedules: after settle, no
/// participant is still blocked in-doubt, no transaction was decided
/// twice, and no two sites acted on different outcomes. (Media faults
/// are DvP-storage specific, so the baseline runs the standard mix.)
#[test]
fn trad_baseline_unblocks_after_every_standard_campaign() {
    let mut total_committed = 0u64;
    for seed in 0..SEEDS {
        let events = generate(seed, N_SITES, HORIZON_MS, &Intensity::standard()).events;
        let sched = FaultSchedule::new(
            events
                .into_iter()
                .filter(|e| {
                    !matches!(
                        e,
                        FaultEvent::ArmCrashpoint { .. } | FaultEvent::TornWrites { .. }
                    )
                })
                .collect(),
        );
        let w = workload(seed);
        let mut sc = Scenario::trad(&w).seed(seed).net(lossy_environment());
        sched.apply(&mut sc.cluster);
        let mut trad = sc.build_trad();
        trad.run_until(ms(HORIZON_MS * 2 + 1_000));
        let m = trad.metrics();
        assert_eq!(
            m.still_blocked(),
            0,
            "seed {seed}: {} transaction(s) still in doubt after settle",
            m.still_blocked()
        );
        assert!(
            m.committed() + m.aborted() <= w.txn_count() as u64,
            "seed {seed}: {} committed + {} aborted for {} scripted transactions",
            m.committed(),
            m.aborted(),
            w.txn_count()
        );
        if let Err(e) = trad.check_decision_consistency() {
            panic!("seed {seed}: {e}");
        }
        total_committed += m.committed();
    }
    // Liveness, not availability: single seeds may legitimately commit
    // nothing under a hostile schedule (quorums need the whole cluster),
    // but the matrix as a whole must make real progress.
    assert!(total_committed > 0, "baseline never committed anything");
}
