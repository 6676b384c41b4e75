//! Typed fault schedules and their translation onto cluster knobs.
//!
//! A [`FaultSchedule`] is a flat list of [`FaultEvent`]s kept in
//! **generation order**, not time order. Two properties follow:
//!
//! * Applying the list pushes faults in the order the generator drew them
//!   (crash/recover pairs interleaved per site), so a schedule fixes the
//!   kernel's event sequence numbers — and therefore the whole trajectory.
//! * The list is **removal-closed**: any subsequence is itself a valid
//!   schedule (a `Recover` without its `Crash` is a no-op, a `Heal`
//!   without its `Isolate` adds a fully-connected window, and partition
//!   events stay time-ordered among themselves). That is exactly the
//!   property `ddmin` shrinking needs.

use dvp_core::policy::{Crashpoint, InjectConfig};
use dvp_core::FaultPlan;
use dvp_simnet::network::{ChaosWindow, NetworkConfig};
use dvp_simnet::partition::PartitionSchedule;
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_storage::codec::crc32;
use dvp_storage::TornWrite;

fn msec(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

/// One injected fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Crash `site` at `at_ms`.
    Crash {
        /// Instant (ms).
        at_ms: u64,
        /// Victim site.
        site: usize,
    },
    /// Recover `site` at `at_ms` (a no-op if it is not down).
    Recover {
        /// Instant (ms).
        at_ms: u64,
        /// Recovering site.
        site: usize,
    },
    /// Cut `sites` away from the rest of the cluster at `at_ms`.
    Isolate {
        /// Instant (ms).
        at_ms: u64,
        /// The isolated group.
        sites: Vec<usize>,
    },
    /// Heal all partitions at `at_ms`.
    Heal {
        /// Instant (ms).
        at_ms: u64,
    },
    /// A chaos burst: extra loss/duplication/delay-jitter on every link
    /// inside the window.
    Chaos {
        /// Window start (ms).
        from_ms: u64,
        /// Window end (ms, exclusive).
        until_ms: u64,
        /// Extra loss probability.
        loss: f64,
        /// Extra duplication probability.
        dup: f64,
        /// Max extra delivery delay (ms).
        jitter_ms: u64,
    },
    /// Arm a protocol crashpoint at `site` (fires once, on hit `on_hit`).
    ArmCrashpoint {
        /// Victim site.
        site: usize,
        /// The named crash site.
        point: Crashpoint,
        /// Which hit fires it (1 = first).
        on_hit: u32,
    },
    /// Tear the in-flight log write on every crash of `site`.
    TornWrites {
        /// Victim site.
        site: usize,
        /// How the write tears.
        mode: TornWrite,
    },
    /// Flip one byte in `site`'s *stable* log region on its next crash —
    /// media decay in the durable image, not a torn tail. Recovery must
    /// salvage the clean prefix or quarantine, never serve wrong state.
    BitRot {
        /// Victim site.
        site: usize,
    },
    /// Corrupt checkpoint slot `slot` (0 or 1) at `site` on its next
    /// crash. Recovery must fall back a checkpoint generation.
    CorruptCheckpoint {
        /// Victim site.
        site: usize,
        /// Which physical slot rots.
        slot: u8,
    },
}

/// A full fault schedule: events in generation order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// The events.
    pub events: Vec<FaultEvent>,
}

/// A schedule translated onto the knobs `ClusterConfig` understands.
#[derive(Clone, Debug)]
pub struct AppliedFaults {
    /// Network model: base links + partitions + chaos windows.
    pub net: NetworkConfig,
    /// Site crash/recovery plan.
    pub faults: FaultPlan,
    /// Crashpoint / torn-write injection (goes on `SiteConfig::inject`).
    pub inject: InjectConfig,
}

impl FaultSchedule {
    /// The schedule with these events.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultSchedule { events }
    }

    /// Keep only the events at `indices` (ascending) — the shrinker's
    /// subsequence operation.
    pub fn subset(&self, indices: &[usize]) -> FaultSchedule {
        FaultSchedule {
            events: indices.iter().map(|&i| self.events[i].clone()).collect(),
        }
    }

    /// Translate onto cluster knobs, layering partitions and chaos onto
    /// `base` (link delays/loss stay the caller's choice).
    ///
    /// At most one `ArmCrashpoint` and one `TornWrites` are honoured (the
    /// last of each wins) — `InjectConfig` carries a single victim.
    pub fn apply(&self, n_sites: usize, base: NetworkConfig) -> AppliedFaults {
        let mut net = base;
        let mut sched = PartitionSchedule::fully_connected(n_sites);
        let mut faults = FaultPlan::none();
        let mut inject = InjectConfig::default();
        for ev in &self.events {
            match ev {
                FaultEvent::Crash { at_ms, site } => {
                    faults = faults.crash(msec(*at_ms), *site);
                }
                FaultEvent::Recover { at_ms, site } => {
                    faults = faults.recover(msec(*at_ms), *site);
                }
                FaultEvent::Isolate { at_ms, sites } => {
                    sched = sched.isolate_at(msec(*at_ms), sites);
                }
                FaultEvent::Heal { at_ms } => {
                    sched = sched.heal_at(msec(*at_ms));
                }
                FaultEvent::Chaos {
                    from_ms,
                    until_ms,
                    loss,
                    dup,
                    jitter_ms,
                } => {
                    net = net.with_chaos(ChaosWindow {
                        from: msec(*from_ms),
                        until: msec(*until_ms),
                        loss: *loss,
                        duplicate: *dup,
                        jitter: SimDuration::millis(*jitter_ms),
                    });
                }
                FaultEvent::ArmCrashpoint {
                    site,
                    point,
                    on_hit,
                } => {
                    inject.crashpoint = Some(*point);
                    inject.crash_on_hit = *on_hit;
                    inject.victim = *site;
                }
                FaultEvent::TornWrites { site, mode } => {
                    inject.torn = *mode;
                    inject.victim = *site;
                }
                FaultEvent::BitRot { site } => {
                    inject.bit_rot = true;
                    inject.victim = *site;
                }
                FaultEvent::CorruptCheckpoint { site, slot } => {
                    inject.corrupt_ckpt = Some(*slot);
                    inject.victim = *site;
                }
            }
        }
        // The schedule owns the partition dimension: installed even when
        // empty, so every campaign's network carries one.
        net = net.with_partitions(sched);
        AppliedFaults {
            net,
            faults,
            inject,
        }
    }

    /// A stable digest of the schedule (CRC-32 over a canonical
    /// encoding) — the fingerprint replay lines carry.
    pub fn digest(&self) -> u32 {
        let mut buf: Vec<u8> = Vec::new();
        let num = |buf: &mut Vec<u8>, x: u64| buf.extend_from_slice(&x.to_be_bytes());
        for ev in &self.events {
            match ev {
                FaultEvent::Crash { at_ms, site } => {
                    buf.push(1);
                    num(&mut buf, *at_ms);
                    num(&mut buf, *site as u64);
                }
                FaultEvent::Recover { at_ms, site } => {
                    buf.push(2);
                    num(&mut buf, *at_ms);
                    num(&mut buf, *site as u64);
                }
                FaultEvent::Isolate { at_ms, sites } => {
                    buf.push(3);
                    num(&mut buf, *at_ms);
                    num(&mut buf, sites.len() as u64);
                    for &s in sites {
                        num(&mut buf, s as u64);
                    }
                }
                FaultEvent::Heal { at_ms } => {
                    buf.push(4);
                    num(&mut buf, *at_ms);
                }
                FaultEvent::Chaos {
                    from_ms,
                    until_ms,
                    loss,
                    dup,
                    jitter_ms,
                } => {
                    buf.push(5);
                    num(&mut buf, *from_ms);
                    num(&mut buf, *until_ms);
                    num(&mut buf, loss.to_bits());
                    num(&mut buf, dup.to_bits());
                    num(&mut buf, *jitter_ms);
                }
                FaultEvent::ArmCrashpoint {
                    site,
                    point,
                    on_hit,
                } => {
                    buf.push(6);
                    num(&mut buf, *site as u64);
                    buf.push(match point {
                        Crashpoint::AfterAppendBeforeForce => 0,
                        Crashpoint::AfterForceBeforeSend => 1,
                        Crashpoint::MidCheckpoint => 2,
                    });
                    num(&mut buf, *on_hit as u64);
                }
                FaultEvent::TornWrites { site, mode } => {
                    buf.push(7);
                    num(&mut buf, *site as u64);
                    buf.push(match mode {
                        TornWrite::None => 0,
                        TornWrite::Truncated => 1,
                        TornWrite::Garbage => 2,
                    });
                }
                FaultEvent::BitRot { site } => {
                    buf.push(8);
                    num(&mut buf, *site as u64);
                }
                FaultEvent::CorruptCheckpoint { site, slot } => {
                    buf.push(9);
                    num(&mut buf, *site as u64);
                    buf.push(*slot);
                }
            }
        }
        crc32(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_builds_fault_plan_in_list_order() {
        let s = FaultSchedule::new(vec![
            FaultEvent::Crash { at_ms: 50, site: 2 },
            FaultEvent::Recover { at_ms: 90, site: 2 },
            FaultEvent::Crash { at_ms: 10, site: 0 },
        ]);
        let a = s.apply(4, NetworkConfig::reliable());
        assert_eq!(a.faults.crashes, vec![(msec(50), 2), (msec(10), 0)]);
        assert_eq!(a.faults.recoveries, vec![(msec(90), 2)]);
    }

    #[test]
    fn any_subsequence_applies_cleanly() {
        let s = FaultSchedule::new(vec![
            FaultEvent::Isolate {
                at_ms: 10,
                sites: vec![1],
            },
            FaultEvent::Heal { at_ms: 60 },
            FaultEvent::Crash { at_ms: 20, site: 1 },
            FaultEvent::Recover { at_ms: 70, site: 1 },
        ]);
        // Every one-element removal must still translate without panicking
        // (removal-closure, the property ddmin relies on).
        for drop in 0..s.events.len() {
            let keep: Vec<usize> = (0..s.events.len()).filter(|&i| i != drop).collect();
            let _ = s.subset(&keep).apply(3, NetworkConfig::reliable());
        }
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let a = FaultSchedule::new(vec![
            FaultEvent::Crash { at_ms: 1, site: 0 },
            FaultEvent::Heal { at_ms: 2 },
        ]);
        let b = FaultSchedule::new(vec![
            FaultEvent::Heal { at_ms: 2 },
            FaultEvent::Crash { at_ms: 1, site: 0 },
        ]);
        assert_eq!(a.digest(), a.clone().digest());
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), FaultSchedule::default().digest());
    }
}
