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
    /// its fault plan and its site config's injection knobs are replaced
    /// by the schedule's; its seed drives the network RNG (and should
    /// match the schedule's).
    pub cluster: ClusterConfig,
    /// Horizon (ms): audits are spread across it; after it the cluster
    /// settles (bounded drain window) for the final audit.
    pub horizon_ms: u64,
    /// Number of mid-run audit pause points.
    pub audit_points: u32,
}

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
    let applied = schedule.apply(cluster.n_sites(), cluster.net);
    cluster.site.inject = applied.inject;
    cluster.net = applied.net;
    cluster.faults = applied.faults;
    let mut cl = Cluster::build(cluster);

    let mut violation = None;
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
        // again (quarantined after media loss, or crashed by a crashpoint
        // with no scheduled recovery) is retransmitted every interval
        // forever. Piggyback-only acks (`eager_acks: false`) do not keep
        // a campaign busy: every duplicate is acked, so a sender's last
        // Vm completes with no reverse traffic to carry the ack.
        cl.run_until(msec(cfg.horizon_ms * 2 + 1_000));
        let m = cl.stats().txn;
        if let Err(v) = oracle::check_all(&cl, &m) {
            violation = Some(format!("settle: {v}"));
        } else if let Err(v) = oracle::check_liveness(&cl) {
            // Only meaningful here: mid-run audits pause with
            // transactions legitimately in flight.
            violation = Some(format!("settle: {v}"));
        }
    }

    let m = cl.stats().txn;
    CampaignResult {
        violation,
        committed: m.committed(),
        aborted: m.aborted(),
        recoveries: m.sum(|s| s.recoveries),
        crashpoint_trips: m.sum(|s| s.crashpoint_trips),
        torn_crashes: m.sum(|s| s.torn_crashes),
        checkpoint_fallbacks: m.sum(|s| s.checkpoint_fallbacks),
        salvages: m.sum(|s| s.salvages),
        media_failures: m.sum(|s| s.media_failures),
        net: *cl.sim.stats(),
        phases: m.phases(),
        events: cl.obs().take(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, lossy_environment, Intensity};
    use dvp_core::item::{Catalog, Split};
    use dvp_core::txn::TxnSpec;

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

    #[test]
    fn campaigns_pass_and_are_deterministic() {
        for seed in 0..4u64 {
            let cfg = small_config(seed);
            let sched = generate(seed, SITES, cfg.horizon_ms, &Intensity::standard());
            let a = run_campaign(&cfg, &sched);
            let b = run_campaign(&cfg, &sched);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(a.passed(), "seed {seed}: {:?}", a.violation);
        }
    }

    #[test]
    fn campaigns_actually_exercise_faults() {
        let mut crashes = 0u64;
        for seed in 0..8u64 {
            let cfg = small_config(seed);
            let sched = generate(seed, SITES, cfg.horizon_ms, &Intensity::standard());
            let r = run_campaign(&cfg, &sched);
            crashes += r.recoveries + r.crashpoint_trips + r.torn_crashes;
        }
        assert!(crashes > 0, "the nemesis never hurt anything");
    }

    #[test]
    fn media_campaigns_pass_and_actually_rot_something() {
        let (mut salvages, mut fallbacks) = (0u64, 0u64);
        for seed in 0..12u64 {
            let mut cfg = small_config(seed);
            // Checkpoints must exist for slot corruption to have teeth.
            cfg.cluster.site.checkpoint_every = Some(6);
            let sched = generate(seed, SITES, cfg.horizon_ms, &Intensity::media());
            let r = run_campaign(&cfg, &sched);
            assert!(r.passed(), "seed {seed}: {:?}", r.violation);
            salvages += r.salvages;
            fallbacks += r.checkpoint_fallbacks;
        }
        assert!(
            salvages > 0 && fallbacks > 0,
            "media faults never bit: salvages={salvages} fallbacks={fallbacks}"
        );
    }
}
