//! The seeded fault-schedule generator.
//!
//! One generator, two RNG streams:
//!
//! * the **base stream** (`seed ^ 0xFA17`) draws partition episodes, then
//!   crash/recover pairs;
//! * the **extension stream** (`seed ^ 0xC4A05`) draws chaos bursts, a
//!   crashpoint, torn writes and — in the media mix only — bit rot and
//!   checkpoint-slot corruption, so the media mix only *appends* to the
//!   standard schedule of the same seed.

use crate::schedule::{FaultEvent, FaultSchedule};
use dvp_core::Crashpoint;
use dvp_simnet::network::{LinkConfig, NetworkConfig};
use dvp_simnet::rng::SimRng;
use dvp_simnet::time::SimDuration;
use dvp_storage::TornWrite;

/// Which fault mix a campaign draws from. Every campaign gets partitions,
/// crash/recover pairs, chaos bursts, an occasional crashpoint and
/// occasional torn writes; the media mix adds stable-log bit rot and
/// checkpoint-slot corruption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Intensity {
    media: bool,
}

impl Intensity {
    /// The default campaign mix. Media faults stay off, so every pinned
    /// stream, digest and golden trace that predates them is untouched.
    pub fn standard() -> Self {
        Intensity { media: false }
    }

    /// Everything in [`Intensity::standard`] plus stable-log bit rot and
    /// checkpoint-slot corruption.
    pub fn media() -> Self {
        Intensity { media: true }
    }
}

/// The lossy (15%), duplicating (10%) base network of every T5 config.
pub fn lossy_environment() -> NetworkConfig {
    NetworkConfig {
        default_link: LinkConfig {
            delay_min: SimDuration::millis(1),
            delay_max: SimDuration::millis(8),
            loss: 0.15,
            duplicate: 0.10,
        },
        ..Default::default()
    }
}

// Per-campaign probabilities and counts, shared by both mixes except
// the last two (media only). Each media fault needs a crash of the site
// it names, because decay applies to the durable image as the site goes
// down: it rides the site's drawn down window if it has one, and
// otherwise draws the site's only one, so one site's windows never
// overlap (a crash of a site already down would do nothing).
const PARTITION_P: f64 = 0.4; // per site, joins a partition episode's cut
const CRASH_P: f64 = 0.3; // per site, one crash/recover pair
const CHAOS_WINDOWS: u32 = 2; // loss/dup/jitter bursts
const CHAOS_LOSS: f64 = 0.2; // extra loss inside a burst
const CHAOS_DUP: f64 = 0.1; // extra duplication inside a burst
const CHAOS_JITTER_MS: u64 = 6; // max extra delivery delay inside a burst
const CRASHPOINT_P: f64 = 0.5; // arm one protocol crashpoint
const TORN_P: f64 = 0.5; // one site's crashes tear the log write
const BIT_ROT_P: f64 = 0.6; // rot one stable-log byte at one site
const CORRUPT_CKPT_P: f64 = 0.6; // corrupt one checkpoint slot at one site

/// Generate the fault schedule for `(seed, n, horizon_ms)` at the given
/// intensity.
pub fn generate(seed: u64, n: usize, horizon_ms: u64, intensity: &Intensity) -> FaultSchedule {
    let mut events = Vec::new();

    // --- base stream: partitions then crash/recover pairs ---------------
    let mut rng = SimRng::new(seed ^ 0xFA17);
    let episodes = rng.uniform(1, 3);
    let mut tcur = rng.uniform(10, horizon_ms / 4);
    for _ in 0..episodes {
        let cut: Vec<usize> = (0..n).filter(|_| rng.chance(PARTITION_P)).collect();
        if !cut.is_empty() && cut.len() < n {
            let heal = tcur + rng.uniform(50, horizon_ms / 3);
            events.push(FaultEvent::Isolate {
                at_ms: tcur,
                sites: cut,
            });
            events.push(FaultEvent::Heal { at_ms: heal });
            tcur = heal + rng.uniform(10, horizon_ms / 4);
        } else {
            tcur += rng.uniform(10, horizon_ms / 4);
        }
    }
    // Whether each site already has a drawn down window.
    let mut goes_down = vec![false; n];
    for (site, down) in goes_down.iter_mut().enumerate() {
        if rng.chance(CRASH_P) {
            let c = rng.uniform(10, horizon_ms / 2);
            let r = c + rng.uniform(20, horizon_ms / 2);
            events.push(FaultEvent::Crash { at_ms: c, site });
            events.push(FaultEvent::Recover { at_ms: r, site });
            *down = true;
        }
    }

    // --- extension stream: chaos, crashpoints, torn writes, media -------
    let mut xrng = SimRng::new(seed ^ 0xC4A05);
    for _ in 0..CHAOS_WINDOWS {
        let from = xrng.uniform(10, horizon_ms.saturating_sub(100).max(11));
        let until = from + xrng.uniform(30, (horizon_ms / 4).max(31));
        events.push(FaultEvent::Chaos {
            from_ms: from,
            until_ms: until,
            loss: CHAOS_LOSS,
            dup: CHAOS_DUP,
            jitter_ms: CHAOS_JITTER_MS,
        });
    }
    if xrng.chance(CRASHPOINT_P) {
        let site = xrng.index(n);
        let point = match xrng.index(3) {
            0 => Crashpoint::AfterAppendBeforeForce,
            1 => Crashpoint::AfterForceBeforeSend,
            _ => Crashpoint::MidCheckpoint,
        };
        let on_hit = xrng.uniform(1, 4) as u32;
        events.push(FaultEvent::ArmCrashpoint {
            site,
            point,
            on_hit,
        });
        // A crashed-at-a-crashpoint site needs a way back up.
        let r = xrng.uniform(
            horizon_ms / 4,
            horizon_ms.saturating_sub(50).max(horizon_ms / 4 + 1),
        );
        events.push(FaultEvent::Recover { at_ms: r, site });
    }
    if xrng.chance(TORN_P) {
        let site = xrng.index(n);
        let mode = if xrng.chance(0.5) {
            TornWrite::Truncated
        } else {
            TornWrite::Garbage
        };
        events.push(FaultEvent::TornWrites { site, mode });
    }
    // A media fault's site goes down once: in its drawn window, or in
    // one drawn here.
    let mut go_down = |site: usize, xrng: &mut SimRng, events: &mut Vec<FaultEvent>| {
        if !std::mem::replace(&mut goes_down[site], true) {
            let c = xrng.uniform(10, horizon_ms / 2);
            let r = c + xrng.uniform(20, horizon_ms / 2);
            events.push(FaultEvent::Crash { at_ms: c, site });
            events.push(FaultEvent::Recover { at_ms: r, site });
        }
    };
    if intensity.media && xrng.chance(BIT_ROT_P) {
        let site = xrng.index(n);
        events.push(FaultEvent::BitRot { site });
        go_down(site, &mut xrng, &mut events);
    }
    if intensity.media && xrng.chance(CORRUPT_CKPT_P) {
        let site = xrng.index(n);
        let slot = xrng.index(2) as u8;
        events.push(FaultEvent::CorruptCheckpoint { site, slot });
        go_down(site, &mut xrng, &mut events);
    }

    FaultSchedule::new(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = generate(42, 6, 1500, &Intensity::standard());
        let b = generate(42, 6, 1500, &Intensity::standard());
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn standard_profile_reaches_every_fault_kind() {
        let mut kinds = [false; 7];
        for seed in 0..60u64 {
            for e in generate(seed, 6, 1500, &Intensity::standard()).events {
                let k = match e {
                    FaultEvent::Crash { .. } => 0,
                    FaultEvent::Recover { .. } => 1,
                    FaultEvent::Isolate { .. } => 2,
                    FaultEvent::Heal { .. } => 3,
                    FaultEvent::Chaos { .. } => 4,
                    FaultEvent::ArmCrashpoint { .. } => 5,
                    FaultEvent::TornWrites { .. } => 6,
                    FaultEvent::BitRot { .. } | FaultEvent::CorruptCheckpoint { .. } => {
                        panic!("standard profile must not emit media faults: {e:?}")
                    }
                };
                kinds[k] = true;
            }
        }
        assert!(kinds.iter().all(|&k| k), "coverage: {kinds:?}");
    }

    #[test]
    fn media_extension_does_not_perturb_the_standard_stream() {
        // Turning media faults on only *appends*: the standard-profile
        // prefix is byte-identical.
        for seed in 0..20u64 {
            let std_s = generate(seed, 6, 1500, &Intensity::standard());
            let media = generate(seed, 6, 1500, &Intensity::media());
            assert_eq!(
                std_s.events,
                media.events[..std_s.events.len()],
                "seed {seed}"
            );
        }
    }

    /// A site's drawn down windows never overlap, so every drawn crash
    /// takes down a site that is up: a media fault rides its site's
    /// window or draws the only one.
    #[test]
    fn no_two_drawn_down_windows_of_a_site_overlap() {
        for intensity in [Intensity::standard(), Intensity::media()] {
            for n in 3..=6 {
                for seed in 0..500u64 {
                    let mut windows: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
                    let events = generate(seed, n, 1500, &intensity).events;
                    for (i, e) in events.iter().enumerate() {
                        let FaultEvent::Crash { at_ms, site } = *e else {
                            continue;
                        };
                        // Every drawn crash is followed by its recovery.
                        let Some(FaultEvent::Recover { at_ms: up, site: s }) =
                            events.get(i + 1).cloned()
                        else {
                            panic!("seed {seed}: crash of {site} without its recovery");
                        };
                        assert_eq!(s, site);
                        windows[site].push((at_ms, up));
                    }
                    for (site, w) in windows.iter().enumerate() {
                        for (i, a) in w.iter().enumerate() {
                            for b in &w[i + 1..] {
                                assert!(
                                    a.1 < b.0 || b.1 < a.0,
                                    "seed {seed} n {n} site {site}: {a:?} overlaps {b:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn media_profile_reaches_media_fault_kinds() {
        let (mut rot, mut ckpt, mut slots) = (false, false, [false; 2]);
        for seed in 0..60u64 {
            for e in generate(seed, 6, 1500, &Intensity::media()).events {
                match e {
                    FaultEvent::BitRot { .. } => rot = true,
                    FaultEvent::CorruptCheckpoint { slot, .. } => {
                        ckpt = true;
                        slots[slot as usize] = true;
                    }
                    _ => {}
                }
            }
        }
        assert!(rot && ckpt && slots == [true; 2]);
    }
}
