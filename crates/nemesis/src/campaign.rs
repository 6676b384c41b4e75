//! One fault campaign end-to-end: build the cluster with a schedule
//! injected, drive it past the horizon with periodic oracle audits, and
//! report the verdict plus fault-exposure counters.

use crate::oracle;
use crate::schedule::FaultSchedule;
use dvp_core::{Cluster, ClusterConfig};
use dvp_obs::{Event, PhaseHists};
use dvp_simnet::stats::NetStats;
use dvp_simnet::time::{SimDuration, SimTime};

/// Everything one campaign needs besides its fault schedule.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The run the schedule is injected into. Its network is the base
    /// (link delays/loss) the schedule layers partitions and chaos onto;
    /// its fault plan is replaced by the schedule's ([`FaultSchedule::apply`]);
    /// its seed drives the network RNG (and should match the schedule's).
    pub cluster: ClusterConfig,
    /// Horizon (ms): audits are spread across it; after it the cluster
    /// settles (bounded drain window) for the final audit.
    pub horizon_ms: u64,
    /// Number of mid-run audit pause points.
    pub audit_points: u32,
}

/// Virtual time (ms) watched after the settle audit: what the cluster
/// still sends and fires there is what not draining costs — a site that
/// never came back up, or a Vm still unacked on a channel whose timeout
/// reached its cap.
pub const QUIET_WINDOW_MS: u64 = 1_000;

/// The outcome of one campaign. Deterministic: same config + schedule ⇒
/// identical result, field for field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignResult {
    /// First oracle violation, if any (with the pause time in ms).
    pub violation: Option<String>,
    /// Transactions committed / aborted.
    pub committed: u64,
    /// Aborts (all reasons).
    pub aborted: u64,
    /// Site recoveries performed.
    pub recoveries: u64,
    /// Crashpoint triggers fired.
    pub crashpoint_trips: u64,
    /// Crashes that left (and recovery repaired) a torn log tail.
    pub torn_crashes: u64,
    /// Recoveries that fell back a checkpoint generation (CRC mismatch
    /// on the newest slot).
    pub checkpoint_fallbacks: u64,
    /// Recoveries that salvaged around mid-log media damage.
    pub salvages: u64,
    /// Sites quarantined for unrecoverable media loss.
    pub media_failures: u64,
    /// The kernel's network counters at harvest: loss and duplication
    /// (link + chaos), deliveries and client arrivals suppressed at a
    /// down site.
    pub net: NetStats,
    /// Messages put on the wire in the [`QUIET_WINDOW_MS`] after settle.
    /// Toward a site that never answers again, each peer with unacked
    /// Vms resends once per capped timeout.
    pub quiet_sent: u64,
    /// Timers fired in the same window.
    pub quiet_timers: u64,
    /// Per-phase latency breakdown harvested from the cluster.
    pub phases: PhaseHists,
    /// Structured event stream; empty unless the config enabled tracing.
    pub events: Vec<Event>,
}

impl CampaignResult {
    /// Did every oracle hold?
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

fn msec(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

/// Run one campaign: inject `schedule` into the cluster, audit at evenly
/// spaced pause points and once more at quiescence, and harvest counters.
pub fn run_campaign(cfg: &CampaignConfig, schedule: &FaultSchedule) -> CampaignResult {
    let mut cluster = cfg.cluster.clone();
    schedule.apply(&mut cluster);
    let mut cl = Cluster::build(cluster);

    let mut violation = None;
    let settle = msec(cfg.horizon_ms * 2 + 1_000);
    let step = (cfg.horizon_ms / cfg.audit_points.max(1) as u64).max(1);
    for k in 1..=cfg.audit_points as u64 {
        cl.run_until(msec(k * step));
        let m = cl.stats().txn;
        if let Err(v) = oracle::check_all(&cl, &m) {
            violation = Some(format!("t={}ms: {v}", k * step));
            break;
        }
    }
    if violation.is_none() {
        // Settle: run well past the horizon so retransmits, recoveries,
        // and healed partitions drain. The window is bounded because some
        // campaigns never quiesce: a Vm toward a site that never answers
        // again is retransmitted forever, once per capped timeout. In T5
        // that site is always one quarantined after media loss: every
        // generated crash and crashpoint comes with a recovery of its own
        // site. A crashpoint that trips after that recovery, or a shrunk
        // subset without the `Recover`, would strand a site too. Acks do not
        // keep a campaign busy: every accept and every duplicate is
        // acked, so a sender's last Vm completes with no reverse traffic
        // to carry the ack.
        cl.run_until(settle);
        let m = cl.stats().txn;
        if let Err(v) = oracle::check_all(&cl, &m) {
            violation = Some(format!("settle: {v}"));
        } else if let Err(v) = oracle::check_liveness(&cl) {
            // Only meaningful here: mid-run audits pause with
            // transactions legitimately in flight.
            violation = Some(format!("settle: {v}"));
        }
    }

    let stats = cl.stats();
    let m = &stats.txn;
    let net = *cl.sim.stats();
    let (mut quiet_sent, mut quiet_timers) = (0, 0);
    if violation.is_none() {
        cl.run_until(settle + SimDuration::millis(QUIET_WINDOW_MS));
        let after = cl.sim.stats();
        quiet_sent = after.sent - net.sent;
        quiet_timers = after.timers_fired - net.timers_fired;
    }
    CampaignResult {
        violation,
        committed: m.committed(),
        aborted: m.aborted(),
        recoveries: m.sum(|s| s.recoveries),
        crashpoint_trips: m.sum(|s| s.crashpoint_trips),
        torn_crashes: m.sum(|s| s.torn_crashes),
        checkpoint_fallbacks: m.sum(|s| s.checkpoint_fallbacks),
        salvages: stats.log.media_salvages,
        media_failures: m.sum(|s| s.media_failures),
        net,
        quiet_sent,
        quiet_timers,
        phases: m.phases(),
        events: cl.obs().take(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::lossy_environment;
    use crate::schedule::FaultEvent;
    use dvp_core::item::{Catalog, Split};
    use dvp_core::txn::TxnSpec;
    use dvp_core::Crashpoint;
    use dvp_storage::TornWrite;

    const SITES: usize = 4;

    fn small_config(seed: u64) -> CampaignConfig {
        let mut catalog = Catalog::new();
        let flight = catalog.add("flight", 600, Split::Even);
        let mut cluster = ClusterConfig::new(SITES, catalog);
        for k in 0..24u64 {
            let site = (k % SITES as u64) as usize;
            cluster = cluster.at(site, msec(1 + k * 25), TxnSpec::reserve(flight, 7));
        }
        cluster.net = lossy_environment();
        cluster.seed = seed;
        CampaignConfig {
            cluster,
            horizon_ms: 800,
            audit_points: 8,
        }
    }

    /// Three injections at three sites each hit the site they name, and
    /// only that one.
    #[test]
    fn each_injection_lands_on_the_site_its_schedule_names() {
        let cfg = small_config(3);
        let schedule = FaultSchedule::new(vec![
            FaultEvent::ArmCrashpoint {
                site: 1,
                point: Crashpoint::AfterAppendBeforeForce,
                on_hit: 1,
            },
            FaultEvent::Recover {
                at_ms: 300,
                site: 1,
            },
            FaultEvent::TornWrites {
                site: 3,
                mode: TornWrite::Garbage,
            },
            FaultEvent::BitRot { site: 2 },
            FaultEvent::Crash {
                at_ms: 400,
                site: 2,
            },
            FaultEvent::Recover {
                at_ms: 450,
                site: 2,
            },
        ]);
        assert!(run_campaign(&cfg, &schedule).passed());

        let mut cluster = cfg.cluster.clone();
        schedule.apply(&mut cluster);
        let mut cl = Cluster::build(cluster);
        cl.run_until(msec(cfg.horizon_ms * 2 + 1_000));
        let m = cl.stats().txn;
        // Site 1 tripped its crashpoint before its scheduled recovery,
        // which brought it back.
        assert_eq!(m.sites[1].crashpoint_trips, 1);
        assert_eq!(m.sites[1].recoveries, 1);
        assert!(!cl.sim.is_crashed(1), "site 1 is up at settle");
        // Site 3 never crashes, so its torn writes never tear.
        let s3 = &m.sites[3];
        assert_eq!(
            (s3.crashpoint_trips, s3.torn_crashes, s3.recoveries),
            (0, 0, 0)
        );
        // Site 2's crash met its bit rot and nothing else.
        let s2 = &m.sites[2];
        assert_eq!((s2.crashpoint_trips, s2.torn_crashes), (0, 0));
        assert_eq!(
            cl.sim.node(2).log().stats().media_salvages,
            1,
            "site 2 salvages around its rot"
        );
    }
}
