//! End-to-end demonstration of the nemesis shrinker: a deliberately
//! broken protocol variant (recovery restores the checkpoint but skips
//! log redo — the classic "forgot the REDO pass" bug) fails a fault
//! campaign, and `ddmin` reduces the failing schedule to a 1-minimal,
//! replayable reproduction.
//!
//! With redo ablated, *any* crash reverts the victim to its initial
//! image and destroys committed value, so the conservation oracle fires
//! — but only when the schedule actually crashes someone. The faultless
//! run passes, which makes the schedule load-bearing: the shrinker has
//! something real to minimize, and the minimum is a single crash.

use dvp_core::{ClusterConfig, Mutant};
use dvp_nemesis::{
    ddmin, generate, run_campaign, CampaignConfig, FaultEvent, FaultSchedule, Intensity, Replay,
};
use dvp_simnet::network::{LinkConfig, NetworkConfig};
use dvp_simnet::time::SimDuration;
use dvp_workloads::AirlineWorkload;

const N_SITES: usize = 4;
const HORIZON_MS: u64 = 800;

fn quiet_net() -> NetworkConfig {
    NetworkConfig {
        default_link: LinkConfig {
            delay_min: SimDuration::millis(1),
            delay_max: SimDuration::millis(8),
            loss: 0.0,
            duplicate: 0.0,
        },
        ..Default::default()
    }
}

fn broken_campaign(seed: u64) -> CampaignConfig {
    let w = AirlineWorkload {
        n_sites: N_SITES,
        flights: 2,
        seats_per_flight: 200,
        txns: 30,
        ..Default::default()
    }
    .generate(seed);
    CampaignConfig {
        cluster: ClusterConfig {
            net: quiet_net(),
            mutant: Some(Mutant::SkipRecoveryRedo),
            seed,
            ..w.cluster()
        },
        horizon_ms: HORIZON_MS,
        audit_points: 8,
    }
}

/// Find a seed whose campaign fails under the broken variant — but only
/// when its fault schedule runs (the faultless run must pass, so the
/// schedule itself is load-bearing and worth shrinking).
fn failing_seed() -> (u64, CampaignConfig, FaultSchedule) {
    for seed in 0..30u64 {
        let schedule = generate(seed, N_SITES, HORIZON_MS, &Intensity::standard());
        let cfg = broken_campaign(seed);
        if !run_campaign(&cfg, &schedule).passed()
            && run_campaign(&cfg, &FaultSchedule::default()).passed()
        {
            return (seed, cfg, schedule);
        }
    }
    panic!("no failing seed in 0..30 — the redo ablation should be detectable");
}

#[test]
fn shrinker_reduces_a_failing_campaign_to_a_minimal_replayable_schedule() {
    let (seed, cfg, schedule) = failing_seed();

    let fails = |indices: &[usize]| !run_campaign(&cfg, &schedule.subset(indices)).passed();
    let kept = ddmin(schedule.events.len(), fails);
    let minimal = schedule.subset(&kept);

    // The shrunk schedule still reproduces the violation...
    let verdict = run_campaign(&cfg, &minimal);
    assert!(
        !verdict.passed(),
        "shrunk schedule must still fail (seed {seed})"
    );
    // ...and it shrank to the essence of the bug: one crash-inducing
    // event (a plain crash, or an armed crashpoint that crashes the
    // victim from inside the protocol).
    assert_eq!(
        kept.len(),
        1,
        "redo ablation fails on any single crash; shrunk: {:?}",
        minimal.events
    );
    assert!(
        matches!(
            minimal.events[0],
            FaultEvent::Crash { .. } | FaultEvent::ArmCrashpoint { .. }
        ),
        "minimal event must induce a crash: {:?}",
        minimal.events[0]
    );

    // 1-minimality: removing any single remaining event makes it pass.
    for drop in 0..kept.len() {
        let sub: Vec<usize> = kept
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != drop)
            .map(|(_, &i)| i)
            .collect();
        assert!(
            !fails(&sub),
            "schedule is not 1-minimal: still fails without event {}",
            kept[drop]
        );
    }

    // Shrinking is deterministic: same failure, same minimal schedule.
    let kept_again = ddmin(schedule.events.len(), fails);
    assert_eq!(kept, kept_again, "ddmin must be deterministic");

    // The replay line round-trips and fingerprints the minimal schedule.
    let replay = Replay::new(seed, "broken-redo", &schedule, kept.clone());
    let line = replay.to_string();
    assert!(line.contains(&format!("seed={seed}")), "line: {line}");
    assert_eq!(Replay::parse(&line), Ok(replay.clone()));
    assert_eq!(replay.schedule(&schedule), Ok(minimal));
}

/// `ddmin` also minimizes *media-fault* reproductions. The healthy
/// protocol survives bit rot (salvage + quarantine keep every oracle
/// green), so the interesting predicate here is not "an oracle tripped"
/// but "the rot actually bit": the shrinker must reduce a full
/// media-intensity schedule to the 1-minimal pair that still produces a
/// salvage — the `BitRot` arming plus one crash of the same site —
/// and the replay line must round-trip it.
#[test]
fn bitrot_repro_shrinks_to_the_arming_and_one_crash() {
    // Find a seed whose media campaign actually salvages something.
    let (seed, cfg, schedule) = (0..30u64)
        .find_map(|seed| {
            let schedule = generate(seed, N_SITES, HORIZON_MS, &Intensity::media());
            if !schedule
                .events
                .iter()
                .any(|e| matches!(e, FaultEvent::BitRot { .. }))
            {
                return None;
            }
            let mut cfg = broken_campaign(seed);
            cfg.cluster.mutant = None; // healthy protocol
            let r = run_campaign(&cfg, &schedule);
            (r.passed() && r.salvages > 0).then_some((seed, cfg, schedule))
        })
        .expect("no salvaging media campaign in seeds 0..30");

    let salvages = |indices: &[usize]| {
        let r = run_campaign(&cfg, &schedule.subset(indices));
        assert!(r.passed(), "healthy protocol must survive any subsequence");
        r.salvages > 0
    };
    let kept = ddmin(schedule.events.len(), salvages);
    let minimal = schedule.subset(&kept);

    // The essence of a mid-log rot: the arming, and one crash of the
    // same site to manifest it.
    assert_eq!(kept.len(), 2, "shrunk: {:?}", minimal.events);
    let rot_site = minimal.events.iter().find_map(|e| match e {
        FaultEvent::BitRot { site } => Some(*site),
        _ => None,
    });
    let rot_site = rot_site.expect("minimal schedule keeps the BitRot arming");
    assert!(
        minimal
            .events
            .iter()
            .any(|e| matches!(e, FaultEvent::Crash { site, .. } if *site == rot_site)),
        "minimal schedule keeps a crash of the rotted site: {:?}",
        minimal.events
    );

    // 1-minimality: dropping either event loses the salvage.
    for drop in 0..kept.len() {
        let sub: Vec<usize> = kept
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != drop)
            .map(|(_, &i)| i)
            .collect();
        assert!(
            !salvages(&sub),
            "not 1-minimal: still salvages without event {}",
            kept[drop]
        );
    }

    // The replay line round-trips the minimal schedule and its digest.
    let replay = Replay::new(seed, "media-bitrot", &schedule, kept);
    assert_eq!(Replay::parse(&replay.to_string()), Ok(replay.clone()));
    assert_eq!(replay.schedule(&schedule), Ok(minimal));
}

/// The healthy protocol survives the exact same campaigns — the failure
/// above is the ablation's fault, not the nemesis being unfair.
#[test]
fn healthy_variant_survives_the_same_campaigns() {
    for seed in 0..6u64 {
        let schedule = generate(seed, N_SITES, HORIZON_MS, &Intensity::standard());
        let mut cfg = broken_campaign(seed);
        cfg.cluster.mutant = None;
        let r = run_campaign(&cfg, &schedule);
        assert!(r.passed(), "seed {seed}: {:?}", r.violation);
    }
}
