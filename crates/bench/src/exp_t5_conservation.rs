//! **T5 — The nemesis matrix: every oracle under random fault campaigns.**
//!
//! Claims: `N = ΣNᵢ + N_M` **at all times**, whatever fails (§3); Vm
//! value is never lost or duplicated on a channel (§4.2); full-value
//! reads equal the serial running total (§5/§6); a recovered site is a
//! pure function of its own checkpoint slots and stable log (§7); and
//! once faults heal, no transaction stays undecided (§6, non-blocking).
//!
//! For each protocol configuration below and each seed, `dvp_nemesis`
//! generates a fault schedule (partitions, crash/recover pairs, chaos
//! bursts, crashpoints, torn writes and, in the `media-*` rows, bit rot
//! and checkpoint-slot corruption), runs it over a live airline workload
//! and checks all five oracles at 10 pause points and once more after a
//! settle window. The table sums each configuration's campaigns. A
//! failing campaign is `ddmin`-shrunk and the harness panics with the
//! violation, the minimal events and a `fault_campaign --replay` line.

use crate::table::Table;
use crate::Scale;
use dvp_core::{ClusterConfig, ConcMode, Placement, SiteConfig};
use dvp_nemesis::{
    ddmin, generate, lossy_environment, run_campaign, CampaignConfig, CampaignResult,
    FaultSchedule, Intensity, Replay,
};
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::time::SimDuration;
use dvp_workloads::AirlineWorkload;
use std::fmt::Write as _;

/// Sites per campaign.
pub const N_SITES: usize = 6;
/// Campaign horizon (ms): audits are spread across it, then the cluster
/// settles.
pub const HORIZON_MS: u64 = 1_200;

/// One protocol configuration under test.
pub struct ProtoConfig {
    /// Row label, and the `config=` of a replay line.
    pub name: &'static str,
    /// Per-site protocol configuration.
    site: SiteConfig,
    /// Base network; the schedule layers partitions and chaos onto it.
    net: NetworkConfig,
    /// Fault mix.
    intensity: Intensity,
}

impl ProtoConfig {
    /// The fault schedule campaign `seed` runs.
    pub fn schedule(&self, seed: u64) -> FaultSchedule {
        generate(seed, N_SITES, HORIZON_MS, &self.intensity)
    }

    /// Everything campaign `seed` needs besides its schedule.
    pub fn campaign_config(&self, seed: u64, trace: bool) -> CampaignConfig {
        let w = AirlineWorkload {
            n_sites: N_SITES,
            flights: 3,
            seats_per_flight: 500,
            txns: 60,
            mix: (0.6, 0.2, 0.15, 0.05),
            ..Default::default()
        }
        .generate(seed);
        CampaignConfig {
            cluster: ClusterConfig {
                site: self.site,
                net: self.net.clone(),
                seed,
                trace,
                ..w.cluster()
            },
            horizon_ms: HORIZON_MS,
            audit_points: 10,
        }
    }
}

/// The eight protocol configurations of the matrix, in table order.
pub fn configs() -> Vec<ProtoConfig> {
    let base = SiteConfig::default();
    let ckpt = SiteConfig {
        checkpoint_every: Some(24),
        ..base
    };
    // Adaptive placement under the full fault mix: demand estimators
    // and suspicion are volatile, so every oracle must still pass with
    // them churning through crashes and partitions.
    let adaptive = SiteConfig::builder()
        .placement(Placement::adaptive())
        .build();
    // The same with solicitation retries: the rebalancer ships while
    // retried solicitations are in flight.
    let retry_adaptive = SiteConfig {
        solicit_retries: 2,
        ..adaptive
    };
    let lazy_acks_ckpt = {
        let mut c = ckpt;
        c.vm.eager_acks = false;
        c
    };
    let conc2 = SiteConfig {
        conc: ConcMode::Conc2,
        ..base
    };
    // Media campaigns need checkpoints to give slot corruption teeth; the
    // tight variant checkpoints often enough that bit rot usually lands
    // *behind* the redo floor (transparent salvage), the loose one leaves
    // a long redo window so salvage loss and quarantine get exercised.
    let media_tight_ckpt = SiteConfig {
        checkpoint_every: Some(8),
        ..base
    };
    let standard = |name, site| ProtoConfig {
        name,
        site,
        net: lossy_environment(),
        intensity: Intensity::standard(),
    };
    let media = |name, site| ProtoConfig {
        intensity: Intensity::media(),
        ..standard(name, site)
    };
    vec![
        standard("conc1-baseline", base),
        standard("conc1-ckpt", ckpt),
        standard("conc1-retry-adaptive", retry_adaptive),
        standard("conc1-adaptive", adaptive),
        standard("conc1-lazyacks-ckpt", lazy_acks_ckpt),
        // Conc2 assumes a synchronous-ordered network (paper §6.2), so
        // its campaigns keep that transport guarantee; crashes,
        // crashpoints, and torn writes still apply.
        ProtoConfig {
            net: NetworkConfig::synchronous_ordered(SimDuration::millis(2)),
            ..standard("conc2-sync", conc2)
        },
        media("media-ckpt", ckpt),
        media("media-tight-ckpt", media_tight_ckpt),
    ]
}

/// Run `seeds` campaigns of each configuration and sum them into one
/// row per configuration. The first failing campaign stops the matrix:
/// its schedule is shrunk to a 1-minimal one, and the error carries the
/// violation, the minimal events and the replay line.
pub fn matrix(configs: &[ProtoConfig], seeds: u64) -> Result<Table, String> {
    let mut t = Table::new(
        format!(
            "T5: five oracles under random fault campaigns ({} configs x {seeds} seeds, {N_SITES} sites, horizon {HORIZON_MS}ms)",
            configs.len()
        ),
        &[
            "config",
            "campaigns",
            "violations",
            "commits",
            "aborts",
            "recoveries",
            "crashpoint trips",
            "torn crashes",
            "ckpt fallbacks",
            "salvages",
            "media failures",
            "dropped@crashed",
            "externals@crashed",
            "lost",
            "dup",
        ],
    );
    for pc in configs {
        let mut results = Vec::new();
        for seed in 0..seeds {
            let schedule = pc.schedule(seed);
            let r = run_campaign(&pc.campaign_config(seed, false), &schedule);
            if let Some(v) = &r.violation {
                return Err(shrink(pc, seed, &schedule, v));
            }
            results.push(r);
        }
        let sum = |f: fn(&CampaignResult) -> u64| results.iter().map(f).sum::<u64>().to_string();
        t.row(vec![
            pc.name.to_string(),
            seeds.to_string(),
            "0".to_string(),
            sum(|r| r.committed),
            sum(|r| r.aborted),
            sum(|r| r.recoveries),
            sum(|r| r.crashpoint_trips),
            sum(|r| r.torn_crashes),
            sum(|r| r.checkpoint_fallbacks),
            sum(|r| r.salvages),
            sum(|r| r.media_failures),
            sum(|r| r.net.dropped_crashed),
            sum(|r| r.net.externals_dropped),
            sum(|r| r.net.lost),
            sum(|r| r.net.duplicated),
        ]);
    }
    Ok(t)
}

/// Shrink a failing campaign to a 1-minimal schedule and describe it.
fn shrink(pc: &ProtoConfig, seed: u64, schedule: &FaultSchedule, violation: &str) -> String {
    let cfg = pc.campaign_config(seed, false);
    let kept = ddmin(schedule.events.len(), |indices| {
        !run_campaign(&cfg, &schedule.subset(indices)).passed()
    });
    let minimal = schedule.subset(&kept);
    let verdict = run_campaign(&cfg, &minimal);
    let mut out = format!(
        "VIOLATION config={} seed={seed}: {violation}\nminimal repro ({} of {} events): {}\n",
        pc.name,
        minimal.events.len(),
        schedule.events.len(),
        verdict.violation.as_deref().unwrap_or("?")
    );
    for (i, ev) in kept.iter().zip(&minimal.events) {
        let _ = writeln!(out, "  [{i}] {ev:?}");
    }
    let _ = write!(
        out,
        "replay: {}",
        Replay::new(seed, pc.name, schedule, kept)
    );
    out
}

/// Run T5 and return the table; panics on the first violation.
pub fn run(scale: Scale) -> Table {
    matrix(&configs(), scale.pick(40, 100)).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A planted bug (recovery restores the checkpoint but skips log
    /// redo) must stop the matrix with a shrunk, replayable repro.
    #[test]
    fn a_violation_names_its_campaign_and_replays() {
        let broken = ProtoConfig {
            name: "broken-redo",
            site: SiteConfig {
                unsafe_skip_recovery_redo: true,
                ..Default::default()
            },
            net: lossy_environment(),
            intensity: Intensity::standard(),
        };
        let err = matrix(std::slice::from_ref(&broken), 10).unwrap_err();
        assert!(
            err.starts_with("VIOLATION config=broken-redo seed="),
            "{err}"
        );
        let line = err
            .lines()
            .find_map(|l| l.strip_prefix("replay: "))
            .expect("the error carries a replay line");
        let replay = Replay::parse(line).expect("the replay line parses");
        assert_eq!(replay.config, "broken-redo");
        assert!(err.contains(&format!("seed={}:", replay.seed)), "{err}");
        let kept = replay
            .schedule(&broken.schedule(replay.seed))
            .expect("keep and digest match the generated schedule");
        let verdict = run_campaign(&broken.campaign_config(replay.seed, false), &kept);
        assert!(!verdict.passed(), "the kept subset must still fail");
    }
}
