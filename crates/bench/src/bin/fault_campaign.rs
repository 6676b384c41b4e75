//! `fault_campaign` — the nemesis smoke matrix.
//!
//! Runs N seeded fault campaigns (crashes, partitions, chaos bursts,
//! crashpoints, torn log writes — and, in the `media-*` configurations,
//! stable-log bit rot and checkpoint-slot corruption) against each
//! protocol configuration and checks the full oracle suite (conservation,
//! Vm channel sanity, read exactness, rebuild equivalence, post-settle
//! liveness) at many pause points per campaign.
//!
//! On a violation, the failing schedule is shrunk with `ddmin` to a
//! 1-minimal reproduction and a one-line replay invocation is printed;
//! the process exits nonzero.
//!
//! Knobs:
//!
//! * `DVP_NEMESIS_SEEDS` — seeds per configuration (default 50 quick /
//!   100 full);
//! * `DVP_NEMESIS_INTENSITY` — scale factor on the standard intensity
//!   (default 1.0);
//! * `--replay seed=S config=NAME keep=I,J,... [digest=X]` — rerun one
//!   (possibly shrunk) campaign and print its verdict.

use dvp_bench::table::phase_table;
use dvp_bench::{BenchEnv, Table};
use dvp_core::{ConcMode, Placement, ReactivePlacement, SiteConfig};
use dvp_nemesis::{
    ddmin, generate, legacy_environment, run_campaign, CampaignConfig, CampaignResult,
    FaultSchedule, Intensity, Replay,
};
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::time::SimDuration;
use dvp_workloads::AirlineWorkload;

/// One protocol configuration under test.
struct ProtoConfig {
    name: &'static str,
    site: SiteConfig,
    net: NetworkConfig,
    /// Fault mix for this configuration (scaled by `DVP_NEMESIS_INTENSITY`).
    intensity: Intensity,
}

fn configs() -> Vec<ProtoConfig> {
    let base = SiteConfig::default();
    let ckpt = SiteConfig {
        checkpoint_every: Some(24),
        ..base
    };
    let retry_rebalance = SiteConfig::builder()
        .solicit_retries(2)
        .placement(Placement::Reactive(ReactivePlacement {
            rebalance: true,
            ..Default::default()
        }))
        .build();
    // Adaptive placement under the full fault mix: hints, demand
    // estimators, and suspicion are all volatile, so every oracle must
    // still pass with them churning through crashes and partitions.
    let adaptive = SiteConfig::builder()
        .placement(Placement::adaptive())
        .build();
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
    let media_ckpt = SiteConfig {
        checkpoint_every: Some(24),
        ..base
    };
    let media_tight_ckpt = SiteConfig {
        checkpoint_every: Some(8),
        ..base
    };
    vec![
        ProtoConfig {
            name: "conc1-baseline",
            site: base,
            net: legacy_environment(),
            intensity: Intensity::standard(),
        },
        ProtoConfig {
            name: "conc1-ckpt",
            site: ckpt,
            net: legacy_environment(),
            intensity: Intensity::standard(),
        },
        ProtoConfig {
            name: "conc1-retry-rebalance",
            site: retry_rebalance,
            net: legacy_environment(),
            intensity: Intensity::standard(),
        },
        ProtoConfig {
            name: "conc1-adaptive",
            site: adaptive,
            net: legacy_environment(),
            intensity: Intensity::standard(),
        },
        ProtoConfig {
            name: "conc1-lazyacks-ckpt",
            site: lazy_acks_ckpt,
            net: legacy_environment(),
            intensity: Intensity::standard(),
        },
        ProtoConfig {
            // Conc2 assumes a synchronous-ordered network (paper §6.2), so
            // its campaigns keep that transport guarantee; crashes,
            // crashpoints, and torn writes still apply.
            name: "conc2-sync",
            site: conc2,
            net: NetworkConfig::synchronous_ordered(SimDuration::millis(2)),
            intensity: Intensity::standard(),
        },
        ProtoConfig {
            name: "media-ckpt",
            site: media_ckpt,
            net: legacy_environment(),
            intensity: Intensity::media(),
        },
        ProtoConfig {
            name: "media-tight-ckpt",
            site: media_tight_ckpt,
            net: legacy_environment(),
            intensity: Intensity::media(),
        },
    ]
}

fn campaign_config(
    pc: &ProtoConfig,
    seed: u64,
    n: usize,
    horizon_ms: u64,
    trace: bool,
) -> CampaignConfig {
    let w = AirlineWorkload {
        n_sites: n,
        flights: 3,
        seats_per_flight: 500,
        txns: 60,
        mix: (0.6, 0.2, 0.15, 0.05),
        ..Default::default()
    }
    .generate(seed);
    CampaignConfig {
        seed,
        n_sites: n,
        horizon_ms,
        audit_points: 10,
        site: pc.site,
        base_net: pc.net.clone(),
        catalog: w.catalog,
        scripts: w.scripts,
        trace,
    }
}

fn intensity(env: &BenchEnv, pc: &ProtoConfig) -> Intensity {
    pc.intensity.scaled(env.nemesis_intensity)
}

const N_SITES: usize = 6;
const HORIZON_MS: u64 = 1_200;

/// Shrink a failing campaign to a 1-minimal schedule and print its
/// replay line.
fn shrink_and_report(
    pc: &ProtoConfig,
    seed: u64,
    schedule: &FaultSchedule,
    result: &CampaignResult,
) {
    let cfg = campaign_config(pc, seed, N_SITES, HORIZON_MS, false);
    eprintln!(
        "VIOLATION  config={} seed={seed}: {}",
        pc.name,
        result.violation.as_deref().unwrap_or("?")
    );
    eprintln!("shrinking {} fault events...", schedule.events.len());
    let kept = ddmin(schedule.events.len(), |indices| {
        !run_campaign(&cfg, &schedule.subset(indices)).passed()
    });
    let minimal = schedule.subset(&kept);
    let verdict = run_campaign(&cfg, &minimal);
    eprintln!(
        "minimal repro ({} events): {}",
        minimal.events.len(),
        verdict.violation.as_deref().unwrap_or("?")
    );
    for (i, ev) in kept.iter().zip(minimal.events.iter()) {
        eprintln!("  [{i}] {ev:?}");
    }
    eprintln!("replay: {}", Replay::new(seed, pc.name, schedule, kept));
}

fn run_matrix() -> bool {
    let env = BenchEnv::from_env();
    let seeds = env.nemesis_seeds();
    let all = configs();

    let mut t = Table::new(
        format!(
            "Nemesis fault-campaign matrix ({} configs x {seeds} seeds, {N_SITES} sites, horizon {HORIZON_MS}ms)",
            all.len()
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

    let mut failed = false;
    let mut breakdowns: Vec<Table> = Vec::new();
    for pc in &all {
        let intensity = intensity(&env, pc);
        let results: Vec<(u64, FaultSchedule, CampaignResult)> = (0..seeds)
            .map(|seed| {
                let schedule = generate(seed, N_SITES, HORIZON_MS, &intensity);
                let cfg = campaign_config(pc, seed, N_SITES, HORIZON_MS, false);
                let r = run_campaign(&cfg, &schedule);
                (seed, schedule, r)
            })
            .collect();
        let mut phases = dvp_obs::PhaseHists::new();
        for (_, _, r) in &results {
            phases.merge(&r.phases);
        }
        breakdowns.push(phase_table(
            format!("{} per-phase latency ({seeds} campaigns)", pc.name),
            &phases,
        ));
        let violations = results.iter().filter(|(_, _, r)| !r.passed()).count();
        let sum = |f: fn(&CampaignResult) -> u64| results.iter().map(|(_, _, r)| f(r)).sum::<u64>();
        t.row(vec![
            pc.name.to_string(),
            seeds.to_string(),
            violations.to_string(),
            sum(|r| r.committed).to_string(),
            sum(|r| r.aborted).to_string(),
            sum(|r| r.recoveries).to_string(),
            sum(|r| r.crashpoint_trips).to_string(),
            sum(|r| r.torn_crashes).to_string(),
            sum(|r| r.checkpoint_fallbacks).to_string(),
            sum(|r| r.salvages).to_string(),
            sum(|r| r.media_failures).to_string(),
            sum(|r| r.dropped_crashed).to_string(),
            sum(|r| r.externals_dropped).to_string(),
            sum(|r| r.lost).to_string(),
            sum(|r| r.duplicated).to_string(),
        ]);
        if let Some((seed, schedule, r)) = results.iter().find(|(_, _, r)| !r.passed()) {
            shrink_and_report(pc, *seed, schedule, r);
            failed = true;
        }
    }
    println!("{}", t.render());
    for b in &breakdowns {
        println!("{}", b.render());
    }
    !failed
}

fn run_replay(args: &[String]) -> bool {
    let mut seed = None;
    let mut config = None;
    let mut keep = None;
    let mut digest = None;
    for a in args {
        if let Some(v) = a.strip_prefix("seed=") {
            seed = v.parse::<u64>().ok();
        } else if let Some(v) = a.strip_prefix("config=") {
            config = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("keep=") {
            keep = Replay::parse_keep(v);
        } else if let Some(v) = a.strip_prefix("digest=") {
            digest = u32::from_str_radix(v, 16).ok();
        }
    }
    let (seed, config, keep) = match (seed, config, keep) {
        (Some(s), Some(c), Some(k)) => (s, c, k),
        _ => {
            eprintln!("usage: fault_campaign --replay seed=S config=NAME keep=I,J,... [digest=X]");
            return false;
        }
    };
    let all = configs();
    let pc = match all.iter().find(|p| p.name == config) {
        Some(pc) => pc,
        None => {
            eprintln!("unknown config {config:?}");
            return false;
        }
    };
    let env = BenchEnv::from_env();
    let schedule = generate(seed, N_SITES, HORIZON_MS, &intensity(&env, pc)).subset(&keep);
    if let Some(d) = digest {
        if schedule.digest() != d {
            eprintln!(
                "digest mismatch: expected {d:08x}, schedule is {:08x} (intensity drift?)",
                schedule.digest()
            );
            return false;
        }
    }
    println!("replaying {} events:", schedule.events.len());
    for ev in &schedule.events {
        println!("  {ev:?}");
    }
    let r = run_campaign(
        &campaign_config(pc, seed, N_SITES, HORIZON_MS, true),
        &schedule,
    );
    let label = format!("fault_campaign/{}", pc.name);
    let jsonl = dvp_obs::to_jsonl(&label, seed, &r.events);
    let path = dvp_bench::trace_path()
        .unwrap_or_else(|| format!("target/fault_campaign-{}-seed{seed}.jsonl", pc.name));
    match write_trace(&path, &jsonl) {
        Ok(()) => println!("trace: {} events -> {path}", r.events.len()),
        Err(e) => eprintln!("trace: failed to write {path}: {e}"),
    }
    println!(
        "{}",
        phase_table(format!("{} replay per-phase latency", pc.name), &r.phases).render()
    );
    match &r.violation {
        Some(v) => {
            println!("REPRODUCED: {v}");
            true
        }
        None => {
            println!("campaign passed (no violation)");
            true
        }
    }
}

fn write_trace(path: &str, jsonl: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, jsonl)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = if args.first().map(String::as_str) == Some("--replay") {
        run_replay(&args[1..])
    } else {
        run_matrix()
    };
    if !ok {
        std::process::exit(1);
    }
}
