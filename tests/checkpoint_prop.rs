//! Checkpoint-equivalence property: for any workload prefix, any crash
//! point, and any checkpoint cadence, a site that recovers *through a
//! checkpoint* must end in exactly the state a checkpoint-free site
//! reaches — checkpoints are an optimization, never a semantic change.

use dvp::prelude::*;
use dvp::workloads::AirlineWorkload;
use proptest::prelude::*;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

fn run(
    seed: u64,
    checkpoint_every: Option<usize>,
    crash_site: usize,
    crash_ms: u64,
    down_ms: u64,
) -> (u64, Vec<Vec<u64>>) {
    let w = AirlineWorkload {
        n_sites: 4,
        flights: 2,
        seats_per_flight: 2_000,
        txns: 60,
        site_skew: 1.0, // some skew => donations => Vm state in checkpoints
        mix: (0.7, 0.2, 0.05, 0.05),
        ..Default::default()
    }
    .generate(seed);
    let mut cfg = w.cluster();
    cfg.seed = seed;
    cfg.site.checkpoint_every = checkpoint_every;
    cfg.faults = FaultPlan::none()
        .crash(ms(crash_ms), crash_site)
        .recover(ms(crash_ms + down_ms), crash_site);
    let mut cl = Cluster::build(cfg);
    cl.run_until(ms(60_000));
    cl.auditor().check_conservation().unwrap();
    let frags: Vec<Vec<u64>> = (0..4)
        .map(|s| cl.sim.node(s).fragments().snapshot())
        .collect();
    (cl.stats().txn.committed(), frags)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn checkpointing_never_changes_outcomes(
        seed in any::<u64>(),
        cadence in 1usize..40,
        crash_site in 0usize..4,
        crash_ms in 5u64..400,
        down_ms in 10u64..200,
    ) {
        let plain = run(seed, None, crash_site, crash_ms, down_ms);
        let ckpt = run(seed, Some(cadence), crash_site, crash_ms, down_ms);
        prop_assert_eq!(plain.0, ckpt.0, "commit counts must match");
        prop_assert_eq!(&plain.1, &ckpt.1, "final fragments must match");
    }
}

/// Checkpoints also compose with *repeated* crashes of the same site.
#[test]
fn repeated_crashes_through_checkpoints() {
    let w = AirlineWorkload {
        n_sites: 3,
        flights: 1,
        seats_per_flight: 3_000,
        txns: 80,
        site_skew: 1.5,
        mix: (0.8, 0.2, 0.0, 0.0),
        ..Default::default()
    }
    .generate(99);
    let mut cfg = w.cluster();
    cfg.site.checkpoint_every = Some(5); // checkpoint very frequently
    cfg.faults = FaultPlan::none()
        .crash(ms(50), 1)
        .recover(ms(80), 1)
        .crash(ms(150), 1)
        .recover(ms(200), 1)
        .crash(ms(260), 2)
        .recover(ms(310), 2);
    let mut cl = Cluster::build(cfg);
    cl.run_until(ms(60_000));
    cl.auditor().check_conservation().unwrap();
    let m = cl.stats().txn;
    assert_eq!(m.sites[1].recoveries, 2);
    assert_eq!(m.sites[2].recoveries, 1);
    assert!(m.sum(|s| s.checkpoints) > 5);
    // The log of the frequently-checkpointing hot site stays small.
    assert!(cl.sim.node(0).log().stable_len() <= 10);
}

// ---- torn-write and crashpoint recovery (nemesis injection) ------------

/// Run the standard 4-site workload with a crash/recover of `site` whose
/// log writes tear as `torn`, then return (committed, fragment images).
fn run_injected(
    seed: u64,
    checkpoint_every: Option<usize>,
    torn: TornWrite,
    site: usize,
    crash_ms: u64,
) -> (u64, Vec<Vec<u64>>) {
    let w = AirlineWorkload {
        n_sites: 4,
        flights: 2,
        seats_per_flight: 2_000,
        txns: 60,
        site_skew: 1.0,
        mix: (0.7, 0.2, 0.05, 0.05),
        ..Default::default()
    }
    .generate(seed);
    let mut cfg = w.cluster();
    cfg.seed = seed;
    cfg.site.checkpoint_every = checkpoint_every;
    cfg.faults = FaultPlan::none()
        .crash(ms(crash_ms), site)
        .recover(ms(crash_ms + 40), site)
        .torn(site, torn);
    let mut cl = Cluster::build(cfg);
    cl.run_until(ms(60_000));
    cl.auditor().check_conservation().unwrap();
    let frags: Vec<Vec<u64>> = (0..4)
        .map(|s| cl.sim.node(s).fragments().snapshot())
        .collect();
    (cl.stats().txn.committed(), frags)
}

/// A crash that tears the unforced log tail recovers to the same state
/// as a clean crash: the torn frame never committed, so dropping it is
/// semantically invisible.
#[test]
fn torn_tail_recovery_is_equivalent_to_clean_crash() {
    for seed in [7u64, 19, 42] {
        for mode in [TornWrite::Truncated, TornWrite::Garbage] {
            let clean = run_injected(seed, None, TornWrite::None, 1, 120);
            let torn = run_injected(seed, None, mode, 1, 120);
            assert_eq!(clean, torn, "seed {seed}, {mode:?}");
        }
    }
}

/// Torn tails compose with checkpoints: restoring a checkpoint image and
/// redoing a log whose tail tore must equal the checkpoint-free run.
#[test]
fn torn_tail_through_checkpoint_matches_plain_recovery() {
    for seed in [3u64, 11] {
        let plain = run_injected(seed, None, TornWrite::Garbage, 1, 120);
        let ckpt = run_injected(seed, Some(8), TornWrite::Garbage, 1, 120);
        assert_eq!(plain.0, ckpt.0, "commit counts must match (seed {seed})");
        assert_eq!(
            &plain.1, &ckpt.1,
            "final fragments must match (seed {seed})"
        );
    }
}

/// A crash injected *between* checkpoint installation and log truncation
/// must not double-apply the snapshotted prefix on recovery: the LSN
/// skip in redo keeps recovery exact.
#[test]
fn mid_checkpoint_crash_recovers_exactly() {
    let w = AirlineWorkload {
        n_sites: 4,
        flights: 2,
        seats_per_flight: 2_000,
        txns: 60,
        site_skew: 1.0,
        mix: (0.8, 0.2, 0.0, 0.0),
        ..Default::default()
    }
    .generate(5);
    let mut cfg = w.cluster();
    cfg.seed = 5;
    cfg.site.checkpoint_every = Some(6);
    // The crashpoint crashes site 1 from inside the protocol; this
    // recovery brings it back.
    cfg.faults = FaultPlan::none()
        .recover(ms(250), 1)
        .crashpoint(1, Crashpoint::MidCheckpoint, 1);
    let mut cl = Cluster::build(cfg);
    cl.run_until(ms(60_000));
    cl.auditor().check_conservation().unwrap();
    let m = cl.stats().txn;
    assert_eq!(
        m.sum(|s| s.crashpoint_trips),
        1,
        "the mid-checkpoint crashpoint must fire"
    );
    assert_eq!(m.sites[1].recoveries, 1, "site 1 must recover through it");
}

// ---- media failures: dual-slot fallback and mid-log bit rot ------------

/// The previous checkpoint generation stays recoverable: corrupting
/// either physical slot while a `MidCheckpoint` crashpoint kills the
/// site still recovers to the exact clean-run state. When the rot hit
/// the newest image, the dual-slot store must fall back a generation
/// (losslessly — log truncation always retains the older generation's
/// redo window).
#[test]
fn mid_checkpoint_crash_with_a_rotten_slot_falls_back_losslessly() {
    let w = AirlineWorkload {
        n_sites: 4,
        flights: 2,
        seats_per_flight: 2_000,
        txns: 60,
        site_skew: 1.0,
        mix: (0.8, 0.2, 0.0, 0.0),
        ..Default::default()
    }
    .generate(5);
    let run = |corrupt: Option<u8>| {
        let mut cfg = w.cluster();
        cfg.seed = 5;
        cfg.site.checkpoint_every = Some(6);
        cfg.faults =
            FaultPlan::none()
                .recover(ms(250), 1)
                .crashpoint(1, Crashpoint::MidCheckpoint, 1);
        if let Some(slot) = corrupt {
            cfg.faults = cfg.faults.corrupt_checkpoint(1, slot);
        }
        let mut cl = Cluster::build(cfg);
        cl.run_until(ms(60_000));
        cl.auditor().check_conservation().unwrap();
        let frags: Vec<Vec<u64>> = (0..4)
            .map(|s| cl.sim.node(s).fragments().snapshot())
            .collect();
        let m = cl.stats().txn;
        (m.committed(), frags, m.sum(|s| s.checkpoint_fallbacks))
    };
    let clean = run(None);
    let mut fallbacks = 0;
    for slot in [0u8, 1] {
        let rotten = run(Some(slot));
        assert_eq!(clean.0, rotten.0, "slot {slot}: commit counts must match");
        assert_eq!(clean.1, rotten.1, "slot {slot}: final fragments must match");
        fallbacks += rotten.2;
    }
    // Exactly one of the two slots held the newest generation at crash
    // time; rotting *that* one must have forced a fallback.
    assert!(
        fallbacks >= 1,
        "corrupting the newest slot must force a generation fallback"
    );
}

/// Any single flipped byte in the stable log region is caught, blamed on
/// the exact record whose frame holds it, and salvaged around — never
/// silently decoded into wrong state.
mod bit_flip {
    use dvp::storage::{DecodeError, Lsn, Record, RecordReader, RecordWriter, StableLog};
    use proptest::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    struct R(u64);
    impl Record for R {
        fn encode(&self, w: &mut RecordWriter) {
            w.u64(self.0);
        }
        fn decode(r: &mut RecordReader) -> Result<Self, DecodeError> {
            Ok(R(r.u64()?))
        }
    }

    // Frame layout: len(4) + crc(4) + lsn(8) + u64 payload(8).
    const FRAME: usize = 24;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn any_single_byte_flip_is_blamed_on_the_exact_lsn(
            n in 1usize..24,
            frac in 0.0f64..1.0,
        ) {
            let mut log = StableLog::new();
            for i in 0..n {
                log.append_force(R(i as u64));
            }
            let len = log.stable_image_len();
            prop_assert_eq!(len, n * FRAME);
            let offset = (((len - 1) as f64) * frac) as usize;
            prop_assert_eq!(log.corrupt_stable(offset..offset + 1), 1);
            let bad = offset / FRAME; // index of the record whose frame rotted

            let scan = log.recover_salvage();
            // The salvaged prefix is exactly the records before the flip,
            // each intact...
            prop_assert_eq!(scan.entries.len(), bad);
            for (i, (lsn, r)) in scan.entries.iter().enumerate() {
                prop_assert_eq!(*lsn, Lsn(i as u64));
                prop_assert_eq!(r.0, i as u64);
            }
            // ...and the report names the exact first corrupt LSN and
            // everything lost behind it.
            let Some(report) = scan.damage else {
                return Err(TestCaseError::fail(format!("flip at byte {offset} undetected")));
            };
            prop_assert_eq!(report.first_bad_lsn, Lsn(bad as u64));
            prop_assert_eq!(report.records_lost, (n - bad) as u64);
            prop_assert_eq!(report.dropped.len(), n - bad);
            // Salvage repaired the image down to the intact prefix: the
            // strict scan now reads exactly that prefix.
            prop_assert_eq!(log.recover_entries().map(|es| es.len()), Ok(bad));
        }
    }
}

/// All three crashpoints fire at most once (one-shot semantics) and the
/// cluster stays conservative through each.
#[test]
fn every_crashpoint_fires_once_and_recovery_holds() {
    for point in [
        Crashpoint::AfterAppendBeforeForce,
        Crashpoint::AfterForceBeforeSend,
        Crashpoint::MidCheckpoint,
    ] {
        // Tight quotas (15 seats/site) + skewed demand exhaust the hot
        // site fast, so solicitations and donations actually flow —
        // otherwise AfterForceBeforeSend would never be reachable.
        let w = AirlineWorkload {
            n_sites: 4,
            flights: 2,
            seats_per_flight: 60,
            txns: 80,
            site_skew: 1.5,
            mix: (0.8, 0.2, 0.0, 0.0),
            ..Default::default()
        }
        .generate(21);
        // Site 0 is the hot (soliciting) site under skew; site 1 both
        // commits and donates, so every crashpoint is reachable there.
        let mut cfg = w.cluster();
        cfg.seed = 21;
        cfg.site.checkpoint_every = Some(6);
        cfg.faults = FaultPlan::none()
            .recover(ms(300), 1)
            .crashpoint(1, point, 1);
        let mut cl = Cluster::build(cfg);
        cl.run_until(ms(60_000));
        cl.auditor().check_conservation().unwrap();
        let m = cl.stats().txn;
        assert_eq!(
            m.sum(|s| s.crashpoint_trips),
            1,
            "{point:?} must fire exactly once"
        );
        assert_eq!(m.sites[1].recoveries, 1, "{point:?}: site 1 recovers");
    }
}
