//! Typed fault schedules and their translation onto a run description.
//!
//! A [`FaultSchedule`] is a flat list of [`FaultEvent`]s kept in
//! **generation order**, not time order. Two properties follow:
//!
//! * Applying the list pushes faults in the order the generator drew them
//!   (crash/recover pairs interleaved per site), so a schedule fixes the
//!   kernel's event sequence numbers — and therefore the whole trajectory.
//! * The list is **removal-closed**: any subsequence is itself a valid
//!   schedule (a `Recover` without its `Crash` is a no-op, a `Heal`
//!   without its `Isolate` adds a fully-connected window, partition
//!   events stay time-ordered among themselves, and an injection arms
//!   only the site it names, so dropping one leaves the others where
//!   they were). That is exactly the property `ddmin` shrinking needs.

use dvp_core::{ClusterConfig, Crashpoint, FaultPlan};
use dvp_simnet::network::ChaosWindow;
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

    /// Write the schedule into `cluster`, for either engine: partitions
    /// and chaos layer onto its network (link delays and loss stay the
    /// caller's choice), and its fault plan is replaced by the schedule's
    /// crashes, recoveries and injections. Each injection arms the site it
    /// names; within a site, the last event of each kind wins. The run's
    /// planted bug ([`ClusterConfig::mutant`]) is left alone, so
    /// shrinking a schedule never shrinks the bug away.
    pub fn apply<S>(&self, cluster: &mut ClusterConfig<S>) {
        let mut net = std::mem::take(&mut cluster.net);
        let mut sched = PartitionSchedule::fully_connected(cluster.n_sites());
        let mut faults = FaultPlan::none();
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
                    faults = faults.crashpoint(*site, *point, *on_hit);
                }
                FaultEvent::TornWrites { site, mode } => {
                    faults = faults.torn(*site, *mode);
                }
                FaultEvent::BitRot { site } => {
                    faults = faults.bit_rot(*site);
                }
                FaultEvent::CorruptCheckpoint { site, slot } => {
                    faults = faults.corrupt_checkpoint(*site, *slot);
                }
            }
        }
        // The schedule owns the partition dimension: installed even when
        // empty, so every campaign's network carries one.
        cluster.net = net.with_partitions(sched);
        cluster.faults = faults;
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
    use dvp_core::item::Catalog;
    use dvp_core::{Injection, Mutant};

    fn applied(s: &FaultSchedule, n: usize) -> FaultPlan {
        let mut cluster = ClusterConfig::new(n, Catalog::new());
        s.apply(&mut cluster);
        cluster.faults
    }

    #[test]
    fn apply_builds_fault_plan_in_list_order() {
        let s = FaultSchedule::new(vec![
            FaultEvent::Crash { at_ms: 50, site: 2 },
            FaultEvent::Recover { at_ms: 90, site: 2 },
            FaultEvent::Crash { at_ms: 10, site: 0 },
        ]);
        let faults = applied(&s, 4);
        assert_eq!(faults.crashes, vec![(msec(50), 2), (msec(10), 0)]);
        assert_eq!(faults.recoveries, vec![(msec(90), 2)]);
    }

    #[test]
    fn apply_leaves_the_planted_bug_alone() {
        let mut cluster = ClusterConfig::new(4, Catalog::new());
        cluster.mutant = Some(Mutant::SkipRecoveryRedo);
        FaultSchedule::default().apply(&mut cluster);
        assert_eq!(cluster.mutant, Some(Mutant::SkipRecoveryRedo));
    }

    #[test]
    fn each_injection_arms_the_site_it_names() {
        let s = FaultSchedule::new(vec![
            FaultEvent::ArmCrashpoint {
                site: 1,
                point: Crashpoint::MidCheckpoint,
                on_hit: 2,
            },
            FaultEvent::TornWrites {
                site: 3,
                mode: TornWrite::Garbage,
            },
            FaultEvent::BitRot { site: 2 },
            FaultEvent::CorruptCheckpoint { site: 2, slot: 1 },
            FaultEvent::TornWrites {
                site: 3,
                mode: TornWrite::Truncated,
            },
        ]);
        let faults = applied(&s, 4);
        let crashpoint = Injection {
            crashpoint: Some(Crashpoint::MidCheckpoint),
            crash_on_hit: 2,
            ..Default::default()
        };
        // Within a site, the last event of a kind wins.
        let torn = Injection {
            torn: TornWrite::Truncated,
            ..Default::default()
        };
        let media = Injection {
            bit_rot: true,
            corrupt_ckpt: Some(1),
            ..Default::default()
        };
        assert_eq!(faults.injection(0), Injection::default());
        assert_eq!(faults.injection(1), crashpoint);
        assert_eq!(faults.injection(2), media);
        assert_eq!(faults.injection(3), torn);
        // Dropping an event retargets nothing else.
        let rest = applied(&s.subset(&[0, 1, 4]), 4);
        assert_eq!(rest.injection(1), crashpoint);
        assert_eq!(rest.injection(2), Injection::default());
        assert_eq!(rest.injection(3), torn);
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
            let _ = applied(&s.subset(&keep), 3);
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
