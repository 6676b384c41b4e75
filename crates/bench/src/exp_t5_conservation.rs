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
//!
//! A seventh configuration, `sampled`, fixes nothing: each campaign draws
//! its whole run from its seed ([`Draw`]) — sites, scheme, placement,
//! checkpoint cadence, timeout, workload, base network and fault mix. Its
//! companion table sums it over [`SAMPLED_SEEDS`] campaigns, overall and
//! per drawn value.

use crate::table::Table;
use dvp_core::{ClusterConfig, ConcMode, Mutant, Placement, RefillPolicy, SiteConfig};
use dvp_nemesis::{
    ddmin, generate, lossy_environment, run_campaign, CampaignConfig, CampaignResult,
    FaultSchedule, Intensity, Replay,
};
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::rng::SimRng;
use dvp_simnet::time::SimDuration;
use dvp_workloads::arrivals::Arrivals;
use dvp_workloads::{
    AirlineWorkload, BankingWorkload, HotspotDriftWorkload, InventoryWorkload, Workload,
};
use std::fmt::Write as _;

/// Sites per campaign.
pub const N_SITES: usize = 6;
/// Campaign horizon (ms): audits are spread across it, then the cluster
/// settles.
pub const HORIZON_MS: u64 = 1_200;

/// Campaigns each fixed configuration runs in the matrix.
pub const MATRIX_SEEDS: u64 = 100;

/// Campaigns the `sampled` row runs in the companion table.
pub const SAMPLED_SEEDS: u64 = 1_000;

/// One protocol configuration under test.
pub struct ProtoConfig {
    /// Row label, and the `config=` of a replay line.
    pub name: &'static str,
    /// Per-site protocol configuration and fault mix of every campaign
    /// (airline on [`N_SITES`] sites, [`lossy_environment`]), or `None`
    /// to draw the whole run from each campaign's seed ([`Draw`]).
    fixed: Option<(SiteConfig, Intensity)>,
    /// A bug planted at every site (`None` in every row of the table).
    mutant: Option<Mutant>,
}

impl ProtoConfig {
    /// The fault schedule campaign `seed` runs.
    pub fn schedule(&self, seed: u64) -> FaultSchedule {
        match self.fixed {
            Some((_, intensity)) => generate(seed, N_SITES, HORIZON_MS, &intensity),
            None => Draw::new(seed).schedule(seed),
        }
    }

    /// Everything campaign `seed` needs besides its schedule.
    pub fn campaign_config(&self, seed: u64, trace: bool) -> CampaignConfig {
        let (site, w, net) = match self.fixed {
            Some((site, _)) => (
                site,
                airline(N_SITES, 60).generate(seed),
                lossy_environment(),
            ),
            None => {
                let d = Draw::new(seed);
                (d.site(), d.workload(seed), d.net())
            }
        };
        CampaignConfig {
            cluster: ClusterConfig {
                site,
                net,
                mutant: self.mutant,
                seed,
                trace,
                ..w.cluster()
            },
            horizon_ms: HORIZON_MS,
            audit_points: 10,
        }
    }
}

/// The airline workload of every fixed row: `txns` bookings on 3 flights
/// of 500 seats.
fn airline(n_sites: usize, txns: usize) -> AirlineWorkload {
    AirlineWorkload {
        n_sites,
        flights: 3,
        seats_per_flight: 500,
        txns,
        mix: (0.6, 0.2, 0.15, 0.05),
        ..Default::default()
    }
}

/// Every dimension a `sampled` campaign draws, with the labels of the
/// values it draws from, in the order [`Draw::pick`] indexes them.
pub const DIMENSIONS: [(&str, &[&str]); 8] = [
    ("sites", &["3", "4", "5", "6"]),
    ("conc", &["conc1", "conc2"]),
    ("placement", &["static", "exact", "half", "adaptive"]),
    ("checkpoint", &["none", "8", "24", "256"]),
    ("timeout", &["10ms", "50ms", "200ms"]),
    ("workload", &["airline", "banking", "inventory", "hotspot"]),
    ("net", &["reliable", "lossy", "random"]),
    ("faults", &["none", "standard", "media"]),
];

/// The run a `sampled` campaign draws from its seed, on an RNG stream of
/// its own, so the fault schedule, the workload and the network draw
/// exactly what they draw for a fixed row.
#[derive(Clone, Debug, PartialEq)]
pub struct Draw {
    /// The value drawn for each of [`DIMENSIONS`], as an index into its
    /// labels.
    pub pick: [usize; 8],
    /// Transactions in the workload, 20–100.
    pub txns: usize,
    /// Mean Poisson gap between arrivals (ms), 2–12.
    pub mean_gap_ms: u64,
    /// Link loss and duplication of the `random` net: up to 0.4 and 0.3.
    pub loss_dup: (f64, f64),
}

impl Draw {
    /// Draw campaign `seed`'s run.
    pub fn new(seed: u64) -> Draw {
        let mut rng = SimRng::new(seed ^ 0x05A3_D1ED);
        let pick = DIMENSIONS.map(|(_, values)| rng.index(values.len()));
        Draw {
            pick,
            txns: rng.uniform(20, 100) as usize,
            mean_gap_ms: rng.uniform(2, 12),
            loss_dup: (rng.unit() * 0.4, rng.unit() * 0.3),
        }
    }

    /// The drawn protocol configuration.
    pub fn site(&self) -> SiteConfig {
        let [_, conc, placement, checkpoint, timeout, ..] = self.pick;
        SiteConfig {
            conc: [ConcMode::Conc1, ConcMode::Conc2][conc],
            placement: [
                Placement::Static,
                Placement::Reactive(RefillPolicy::DemandExact),
                Placement::Reactive(RefillPolicy::DemandHalf),
                Placement::Adaptive,
            ][placement],
            checkpoint_every: [None, Some(8), Some(24), Some(256)][checkpoint],
            txn_timeout: SimDuration::millis([10, 50, 200][timeout]),
        }
    }

    /// The drawn workload, generated from the campaign's seed.
    pub fn workload(&self, seed: u64) -> Workload {
        let [sites, .., workload, _, _] = self.pick;
        let (n_sites, txns) = (3 + sites, self.txns);
        let arrivals = Arrivals::Poisson {
            mean_gap: SimDuration::millis(self.mean_gap_ms),
        };
        match workload {
            // Skewed toward a hub, so value has to move.
            0 => AirlineWorkload {
                site_skew: 1.5,
                arrivals,
                ..airline(n_sites, txns)
            }
            .generate(seed),
            1 => BankingWorkload {
                n_sites,
                txns,
                arrivals,
                ..Default::default()
            }
            .generate(seed),
            2 => InventoryWorkload {
                n_sites,
                txns,
                arrivals,
                ..Default::default()
            }
            .generate(seed),
            // Stock cut to this run's length, so the hot site solicits.
            _ => HotspotDriftWorkload {
                n_sites,
                per_item: 600,
                txns,
                arrivals,
                ..Default::default()
            }
            .generate(seed),
        }
    }

    /// The drawn base network the schedule layers its faults onto.
    pub fn net(&self) -> NetworkConfig {
        let [.., net, _] = self.pick;
        match net {
            0 => NetworkConfig::reliable(),
            1 => lossy_environment(),
            _ => {
                let mut net = NetworkConfig::lossy(self.loss_dup.0);
                net.default_link.duplicate = self.loss_dup.1;
                net
            }
        }
    }

    /// The drawn fault schedule: none, or [`generate()`]'s at the standard
    /// or the media intensity.
    pub fn schedule(&self, seed: u64) -> FaultSchedule {
        let [sites, .., faults] = self.pick;
        let intensity = match faults {
            0 => return FaultSchedule::new(Vec::new()),
            1 => Intensity::standard(),
            _ => Intensity::media(),
        };
        generate(seed, 3 + sites, HORIZON_MS, &intensity)
    }
}

/// The six protocol configurations of the matrix, in table order, then
/// `sampled`.
pub fn configs() -> Vec<ProtoConfig> {
    let base = SiteConfig::default();
    let ckpt = SiteConfig::builder().checkpoint_every(24).build();
    let adaptive = SiteConfig::builder().placement(Placement::Adaptive).build();
    let conc2 = SiteConfig::builder().conc(ConcMode::Conc2).build();
    // Media campaigns need checkpoints to give slot corruption teeth; the
    // tight variant checkpoints often enough that bit rot usually lands
    // *behind* the redo floor (transparent salvage), the loose one leaves
    // a long redo window so salvage loss and quarantine get exercised.
    let media_tight_ckpt = SiteConfig::builder().checkpoint_every(8).build();
    let fixed = |name, site, intensity| ProtoConfig {
        name,
        fixed: Some((site, intensity)),
        mutant: None,
    };
    let (standard, media) = (Intensity::standard(), Intensity::media());
    vec![
        fixed("conc1-baseline", base, standard),
        fixed("conc1-ckpt", ckpt, standard),
        fixed("conc1-adaptive", adaptive, standard),
        fixed("conc2", conc2, standard),
        fixed("media-ckpt", ckpt, media),
        fixed("media-tight-ckpt", media_tight_ckpt, media),
        ProtoConfig {
            name: "sampled",
            fixed: None,
            mutant: None,
        },
    ]
}

/// The columns of both T5 tables after the first.
const COLUMNS: [&str; 16] = [
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
    "quiet sends",
    "quiet timers",
];

/// One row: `label`, then `results` summed under [`COLUMNS`].
fn row<'a>(label: &str, results: impl Iterator<Item = &'a CampaignResult> + Clone) -> Vec<String> {
    let sum = |f: fn(&CampaignResult) -> u64| results.clone().map(f).sum::<u64>().to_string();
    vec![
        label.to_string(),
        results.clone().count().to_string(),
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
        sum(|r| r.quiet_sent),
        sum(|r| r.quiet_timers),
    ]
}

/// Run campaigns `0..seeds` of `pc`; the first failing one is shrunk and
/// described instead.
fn campaigns(pc: &ProtoConfig, seeds: u64) -> Result<Vec<CampaignResult>, String> {
    (0..seeds)
        .map(|seed| {
            let schedule = pc.schedule(seed);
            let r = run_campaign(&pc.campaign_config(seed, false), &schedule);
            match &r.violation {
                Some(v) => Err(shrink(pc, seed, &schedule, v)),
                None => Ok(r),
            }
        })
        .collect()
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
        &[&["config"][..], &COLUMNS].concat(),
    );
    for pc in configs {
        t.row(row(pc.name, campaigns(pc, seeds)?.iter()));
    }
    Ok(t)
}

/// Run `seeds` campaigns of a drawing configuration and sum them: one
/// row over all of them, then one per value of each of [`DIMENSIONS`],
/// over the campaigns that drew it. A failing campaign stops the run as
/// in [`matrix`].
pub fn sampled(pc: &ProtoConfig, seeds: u64) -> Result<Table, String> {
    let results = campaigns(pc, seeds)?;
    let draws: Vec<Draw> = (0..seeds).map(Draw::new).collect();
    let mut t = Table::new(
        format!(
            "T5: {} campaigns drawing their whole run from the seed ({seeds} seeds, horizon {HORIZON_MS}ms)",
            pc.name
        ),
        &[&["draw"][..], &COLUMNS].concat(),
    );
    t.row(row("all", results.iter()));
    for (d, (dim, values)) in DIMENSIONS.iter().enumerate() {
        for (v, value) in values.iter().enumerate() {
            let drew = draws.iter().zip(&results).filter(|(x, _)| x.pick[d] == v);
            t.row(row(&format!("{dim}={value}"), drew.map(|(_, r)| r)));
        }
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

/// Run T5 and return the matrix of the six fixed configurations, then
/// the `sampled` table; panics on the first violation.
pub fn run() -> Vec<Table> {
    let mut configs = configs();
    let drawn = configs.pop().expect("`sampled` is the last config");
    [
        matrix(&configs, MATRIX_SEEDS),
        sampled(&drawn, SAMPLED_SEEDS),
    ]
    .into_iter()
    .map(|t| t.unwrap_or_else(|e| panic!("{e}")))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every planted bug stops the sampled row within its seeds, with a
    /// shrunk repro that the replay line rebuilds from the seed alone.
    #[test]
    fn the_sampled_row_catches_every_mutant_and_replays_it() {
        for mutant in [Mutant::SkipRecoveryRedo, Mutant::SkipReadDrainGate] {
            let pc = ProtoConfig {
                name: "sampled",
                fixed: None,
                mutant: Some(mutant),
            };
            let err = sampled(&pc, SAMPLED_SEEDS).unwrap_err();
            assert!(err.starts_with("VIOLATION config=sampled seed="), "{err}");
            let line = err
                .lines()
                .find_map(|l| l.strip_prefix("replay: "))
                .expect("the error carries a replay line");
            match mutant {
                // The first campaign fails, and shrinks to one event.
                Mutant::SkipRecoveryRedo => assert_eq!(
                    line,
                    "fault_campaign --replay seed=0 config=sampled keep=4 digest=905f0b17"
                ),
                // A donor grants a read while its own Vm carrying the item
                // is unacked: the gate reads the site's per-item count.
                Mutant::SkipReadDrainGate => assert!(
                    err.starts_with("VIOLATION config=sampled seed=20:"),
                    "{err}"
                ),
            }
            let replay = Replay::parse(line).expect("the replay line parses");
            let generated = pc.schedule(replay.seed);
            let kept = replay
                .schedule(&generated)
                .expect("keep and digest match the drawn schedule");
            assert!(kept.events.len() < generated.events.len(), "{err}");
            let verdict = run_campaign(&pc.campaign_config(replay.seed, false), &kept);
            assert!(
                !verdict.passed(),
                "{mutant:?}: the kept events must still fail"
            );
        }
    }

    /// A campaign's run is a function of its seed alone, and the row's
    /// seeds draw every value of every dimension.
    #[test]
    fn a_draw_is_a_function_of_its_seed_and_reaches_every_value() {
        let pc = configs().pop().unwrap();
        for seed in 0..10 {
            let run = || run_campaign(&pc.campaign_config(seed, false), &pc.schedule(seed));
            assert_eq!(run(), run(), "seed {seed}");
        }
        let draws: Vec<Draw> = (0..SAMPLED_SEEDS).map(Draw::new).collect();
        for (d, (dim, values)) in DIMENSIONS.iter().enumerate() {
            for (v, value) in values.iter().enumerate() {
                let drew = draws.iter().any(|x| x.pick[d] == v);
                assert!(drew, "{dim}={value} never drawn");
            }
        }
    }
}
