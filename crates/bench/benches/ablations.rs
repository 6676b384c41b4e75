//! Ablation benchmarks for the design choices DESIGN.md §5 calls out:
//! refill policy, fan-out, ack eagerness, Vm window, timeout, and
//! placement. Each benchmark times the same workload under one knob's settings; the
//! *metric* deltas (requests, frames, aborts) are printed once per
//! setting via `eprintln!` so `cargo bench` output doubles as the
//! ablation table.

use criterion::{criterion_group, criterion_main, Criterion};
use dvp_bench::{RunReport, Scenario};
use dvp_core::{Fanout, Placement, ReactivePlacement, RefillPolicy, SiteConfig};
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_vmsg::VmConfig;
use dvp_workloads::{AirlineWorkload, HotspotDriftWorkload, Workload};

fn until() -> SimTime {
    SimTime::ZERO + SimDuration::secs(10)
}

fn dvp(w: &Workload, site: SiteConfig, net: NetworkConfig) -> RunReport {
    // Seed 1 matches the runs recorded in EXPERIMENTS.md's ablation table.
    Scenario::dvp(w)
        .site(site)
        .net(net)
        .until(until())
        .seed(1)
        .run()
}

/// Hub-skewed airline workload that must solicit.
fn hub_workload() -> Workload {
    AirlineWorkload {
        n_sites: 4,
        flights: 2,
        // Tight pool: the hub's quota (75/flight) is well under its
        // skewed demand, so every knob below actually gets exercised.
        seats_per_flight: 300,
        txns: 150,
        site_skew: 2.0,
        mix: (0.9, 0.1, 0.0, 0.0),
        ..Default::default()
    }
    .generate(2)
}

fn ablate_refill(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_refill");
    let w = hub_workload();
    for (policy, name) in [
        (RefillPolicy::DemandExact, "exact"),
        (RefillPolicy::DemandHalf, "half"),
        (RefillPolicy::All, "all"),
    ] {
        let site = SiteConfig::builder()
            .placement(Placement::Reactive(ReactivePlacement {
                refill: policy,
                ..Default::default()
            }))
            .build();
        let r = dvp(&w, site, NetworkConfig::reliable());
        eprintln!(
            "[ablation refill={name}] commits={} aborts={} requests={} donations={}",
            r.committed, r.aborted, r.requests, r.donations
        );
        g.bench_function(name, |b| {
            b.iter(|| dvp(&w, site, NetworkConfig::reliable()))
        });
    }
    g.finish();
}

fn ablate_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_fanout");
    let w = hub_workload();
    for (fanout, name) in [(Fanout::One, "one"), (Fanout::All, "all")] {
        let site = SiteConfig::builder()
            .placement(Placement::Reactive(ReactivePlacement {
                fanout,
                ..Default::default()
            }))
            .build();
        let r = dvp(&w, site, NetworkConfig::reliable());
        eprintln!(
            "[ablation fanout={name}] commits={} aborts={} requests={} messages={}",
            r.committed, r.aborted, r.requests, r.messages
        );
        g.bench_function(name, |b| {
            b.iter(|| dvp(&w, site, NetworkConfig::reliable()))
        });
    }
    g.finish();
}

fn ablate_acks_and_window(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_vm");
    let w = hub_workload();
    let lossy = NetworkConfig::lossy(0.2);
    for (eager, name) in [(true, "eager_acks"), (false, "piggyback_only")] {
        let site = SiteConfig {
            vm: VmConfig {
                window: 16,
                eager_acks: eager,
                ..VmConfig::default()
            },
            ..Default::default()
        };
        let r = dvp(&w, site, lossy.clone());
        eprintln!(
            "[ablation acks={name}] commits={} messages={}",
            r.committed, r.messages
        );
        g.bench_function(name, |b| b.iter(|| dvp(&w, site, lossy.clone())));
    }
    for window in [1usize, 16, 64] {
        let site = SiteConfig {
            vm: VmConfig {
                window,
                eager_acks: true,
                ..VmConfig::default()
            },
            ..Default::default()
        };
        let r = dvp(&w, site, lossy.clone());
        eprintln!(
            "[ablation window={window}] commits={} messages={}",
            r.committed, r.messages
        );
        g.bench_function(format!("window_{window}"), |b| {
            b.iter(|| dvp(&w, site, lossy.clone()))
        });
    }
    g.finish();
}

fn ablate_timeout(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_timeout");
    let w = hub_workload();
    let lossy = NetworkConfig::lossy(0.3);
    for ms in [10u64, 50, 200] {
        let site = SiteConfig::builder()
            .timeout(SimDuration::millis(ms))
            .build();
        let r = dvp(&w, site, lossy.clone());
        eprintln!(
            "[ablation timeout={ms}ms] commits={} aborts={} p95={}us max={}us",
            r.committed, r.aborted, r.p95_us, r.max_us
        );
        g.bench_function(format!("timeout_{ms}ms"), |b| {
            b.iter(|| dvp(&w, site, lossy.clone()))
        });
    }
    g.finish();
}

fn ablate_placement(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_placement");
    // A drifting hotspot is the regime that separates the three placement
    // modes: Static strands value, Reactive chases yesterday's demand,
    // Adaptive tracks the spike via demand EWMAs and hint-directed
    // solicitation.
    let w = HotspotDriftWorkload {
        txns: 300,
        ..Default::default()
    }
    .generate(2);
    for (placement, name) in [
        (Placement::Static, "static"),
        (Placement::reactive(), "reactive"),
        (Placement::adaptive(), "adaptive"),
    ] {
        let site = SiteConfig::builder().placement(placement).build();
        let r = dvp(&w, site, NetworkConfig::reliable());
        eprintln!(
            "[ablation placement={name}] commits={} aborts={} requests={} frames={} fast_path={} hint_hits={}/{}",
            r.committed, r.aborted, r.requests, r.frames, r.fast_path, r.hint_hits, r.hinted_solicits
        );
        g.bench_function(name, |b| {
            b.iter(|| dvp(&w, site, NetworkConfig::reliable()))
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(200));
    targets = ablate_refill, ablate_fanout, ablate_acks_and_window, ablate_timeout, ablate_placement
);
criterion_main!(benches);
