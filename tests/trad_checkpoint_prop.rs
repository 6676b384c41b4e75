//! Checkpoint round trip for the 2PC and 3PC baselines: a site that
//! crashes and recovers from its checkpoint plus the redo suffix comes
//! back with exactly the replicas and in-doubt transactions it went down
//! with, and the cluster still ends consistent: the replicas converge,
//! and under 2PC the decisions agree, each item's latest replica holds
//! its total plus the committed deltas, and the outcome audit is empty.
//!
//! Each case runs an 8-site banking script of 2,000 transactions and
//! crashes one random site at a random instant for a random downtime.
//! Crashes late in the script land after the victim has checkpointed at
//! least twice, so its recovery goes through a truncated log and skips
//! the older generation's retained window; every test asserts that some
//! of its cases did.

use dvp::baselines::{CommitProtocol, TradCluster, TradConfig};
use dvp::core::clock::Ts;
use dvp::obs::EventKind;
use dvp::prelude::*;
use dvp::storage::Lsn;
use dvp::workloads::BankingWorkload;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

const SITES: usize = 8;
const CASES: u32 = 10;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

/// What a crash must not change: every replica's `(value, version)` and
/// the in-doubt transactions.
fn durable_view(cl: &TradCluster, site: usize) -> (Vec<(u64, u64)>, Vec<Ts>) {
    let node = cl.sim.node(site);
    let replicas = cl
        .catalog
        .items()
        .iter()
        .map(|d| node.replica(d.id))
        .collect();
    (replicas, node.in_doubt().collect())
}

/// Crash `victim` at `crash_ms` for `down_ms`, check the round trip, run
/// to the horizon and check the cluster. Returns whether the victim had
/// checkpointed at least twice when it crashed.
fn round_trip(
    protocol: CommitProtocol,
    seed: u64,
    victim: usize,
    crash_ms: u64,
    down_ms: u64,
) -> Result<bool, TestCaseError> {
    let w = BankingWorkload {
        n_sites: SITES,
        accounts: 16,
        txns: 2_000,
        ..Default::default()
    }
    .generate(seed);
    let mut cl = Scenario::trad(&w)
        .trad_config(TradConfig {
            protocol,
            ..Default::default()
        })
        .seed(seed)
        .trace(true)
        .build_trad();
    // Every dispatch ends forced, so between two events the victim's
    // live state is all durable: it is what recovery must rebuild.
    let (down, up) = (ms(crash_ms), ms(crash_ms + down_ms));
    cl.run_until(down);
    let before = durable_view(&cl, victim);
    let checkpoints = cl.metrics().sites[victim].checkpoints;
    let retained = cl.sim.node(victim).log().stable_len() as u64;
    let first_lsn = cl.sim.node(victim).log().clone().recover_entries().unwrap()[0].0;
    // Schedule the crash and the recovery at `now`, each after the
    // events already due, so nothing reaches the victim in between.
    cl.sim.schedule_crash(down, victim);
    cl.run_until(down);
    prop_assert!(cl.sim.is_crashed(victim));
    cl.run_until(up);
    cl.sim.schedule_recover(up, victim);
    cl.run_until(up);
    prop_assert_eq!(
        durable_view(&cl, victim),
        before,
        "victim {victim} at {crash_ms} ms"
    );

    let deep = checkpoints >= 2;
    if deep {
        // The genesis records are gone, and the redo skipped the older
        // generation's window the log still holds.
        prop_assert!(first_lsn > Lsn::FIRST, "the log was never truncated");
        let replayed = cl
            .sim
            .obs()
            .take()
            .iter()
            .find_map(|e| match e.kind {
                EventKind::RecoveryEnd { replayed, .. } if e.site == victim as u32 => {
                    Some(replayed)
                }
                _ => None,
            })
            .expect("the victim traced its recovery");
        prop_assert!(
            replayed < retained,
            "redid {replayed} of {retained} retained records: the older window was not skipped"
        );
    }

    cl.run_until(ms(30_000));
    let converged = cl.check_replica_convergence();
    prop_assert!(converged.is_ok(), "{converged:?}");
    if protocol == CommitProtocol::TwoPhase {
        let consistent = cl.check_decision_consistency();
        prop_assert!(consistent.is_ok(), "{consistent:?}");
        let values = cl.check_replica_values();
        prop_assert!(values.is_ok(), "{values:?}");
        prop_assert_eq!(cl.audit().live(), 0, "a resolved transaction stayed live");
    }
    Ok(deep)
}

/// Cases run so far, and how many crashed a victim that had already
/// checkpointed twice; the last case fails if none did.
struct Tally {
    cases: AtomicU32,
    deep: AtomicU32,
}

impl Tally {
    const fn new() -> Self {
        Tally {
            cases: AtomicU32::new(0),
            deep: AtomicU32::new(0),
        }
    }

    fn count(&self, deep: bool) -> TestCaseResult {
        let deep = self.deep.fetch_add(u32::from(deep), Ordering::Relaxed) + u32::from(deep);
        if self.cases.fetch_add(1, Ordering::Relaxed) + 1 == CASES {
            prop_assert!(deep > 0, "no case crashed after two checkpoints");
        }
        Ok(())
    }
}

static TWO_PHASE: Tally = Tally::new();
static THREE_PHASE: Tally = Tally::new();

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn two_phase_recovery_rebuilds_the_crashed_site(
        seed in any::<u64>(),
        victim in 0usize..SITES,
        crash_ms in 200u64..9_500,
        down_ms in 10u64..500,
    ) {
        let deep = round_trip(CommitProtocol::TwoPhase, seed, victim, crash_ms, down_ms)?;
        TWO_PHASE.count(deep)?;
    }

    #[test]
    fn three_phase_recovery_rebuilds_the_crashed_site(
        seed in any::<u64>(),
        victim in 0usize..SITES,
        crash_ms in 200u64..9_500,
        down_ms in 10u64..500,
    ) {
        let deep = round_trip(CommitProtocol::ThreePhase, seed, victim, crash_ms, down_ms)?;
        THREE_PHASE.count(deep)?;
    }
}
