//! The flagship property test: **conservation under arbitrary failures**.
//!
//! For random combinations of workload, partition schedule, site
//! crash/recovery plan, loss, and duplication, the invariant of paper
//! Section 3 — `N = ΣNᵢ + N_M` for every item, adjusted by committed
//! deltas — must hold at *every* probed instant, not only at quiescence.

use dvp::prelude::*;
use dvp::workloads::AirlineWorkload;
use proptest::prelude::*;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

#[derive(Clone, Debug)]
struct Scenario {
    seed: u64,
    n_sites: usize,
    txns: usize,
    loss: f64,
    duplicate: f64,
    site_skew: f64,
    // (cut set bitmask, start ms, duration ms)
    partitions: Vec<(u8, u64, u64)>,
    // (site, crash ms, down-for ms)
    crashes: Vec<(usize, u64, u64)>,
    conc2: bool,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        3usize..6,
        10usize..60,
        0.0f64..0.4,
        0.0f64..0.3,
        0.0f64..2.0,
        proptest::collection::vec((any::<u8>(), 5u64..400, 20u64..400), 0..3),
        proptest::collection::vec((0usize..6, 5u64..500, 20u64..400), 0..3),
        any::<bool>(),
    )
        .prop_map(
            |(seed, n_sites, txns, loss, duplicate, site_skew, partitions, crashes, conc2)| {
                Scenario {
                    seed,
                    n_sites,
                    txns,
                    loss,
                    duplicate,
                    site_skew,
                    partitions,
                    crashes,
                    conc2,
                }
            },
        )
}

fn run_scenario(sc: &Scenario) -> Result<(), TestCaseError> {
    let w = AirlineWorkload {
        n_sites: sc.n_sites,
        flights: 3,
        seats_per_flight: 400,
        txns: sc.txns,
        site_skew: sc.site_skew,
        mix: (0.6, 0.2, 0.15, 0.05),
        ..Default::default()
    }
    .generate(sc.seed);

    // Build partition schedule (episodes sorted and non-overlapping).
    let mut sched = PartitionSchedule::fully_connected(sc.n_sites);
    let mut t = 0u64;
    for &(mask, start, dur) in &sc.partitions {
        let start = t.max(start);
        let cut: Vec<usize> = (0..sc.n_sites).filter(|&s| mask & (1 << s) != 0).collect();
        if cut.is_empty() || cut.len() == sc.n_sites {
            continue;
        }
        sched = sched.isolate_at(ms(start), &cut).heal_at(ms(start + dur));
        t = start + dur + 1;
    }
    let mut net = NetworkConfig::lossy(sc.loss);
    net.default_link.duplicate = sc.duplicate;
    let net = net.with_partitions(sched);

    let mut faults = FaultPlan::none();
    for &(site, crash, down) in &sc.crashes {
        let site = site % sc.n_sites;
        faults = faults
            .crash(ms(crash), site)
            .recover(ms(crash + down), site);
    }

    let mut cfg = w.cluster();
    cfg.net = net;
    cfg.faults = faults;
    cfg.seed = sc.seed;
    if sc.conc2 {
        cfg.site.conc = ConcMode::Conc2;
    }

    let mut cl = Cluster::build(cfg);
    // Probe the invariant throughout the run.
    for k in 1..=12u64 {
        cl.run_until(ms(k * 150));
        cl.auditor()
            .check_conservation()
            .map_err(|e| TestCaseError::fail(format!("at {}ms: {e}", k * 150)))?;
    }
    cl.run_until(ms(30_000));
    cl.auditor()
        .check_conservation()
        .map_err(|e| TestCaseError::fail(format!("at end: {e}")))?;

    // Read exactness for whatever reads committed.
    let m = cl.stats().txn;
    cl.auditor()
        .check_reads(&m)
        .map_err(|e| TestCaseError::fail(format!("reads: {e}")))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conservation_under_arbitrary_failures(sc in scenario_strategy()) {
        run_scenario(&sc)?;
    }
}

/// A pinned worst-case regression scenario (dense faults, high loss) that
/// runs on every `cargo test` without proptest's randomness.
#[test]
fn pinned_dense_fault_scenario() {
    let sc = Scenario {
        seed: 0xDEAD,
        n_sites: 5,
        txns: 50,
        loss: 0.35,
        duplicate: 0.25,
        site_skew: 1.5,
        partitions: vec![(0b00110, 20, 300), (0b01001, 400, 200)],
        crashes: vec![(1, 50, 200), (4, 300, 350)],
        conc2: false,
    };
    run_scenario(&sc).unwrap();
}

/// Two independent folds of the same commits: the cluster's history sink
/// (one running total per item, in global commit order) and the sites'
/// running net deltas the conservation check reads. They must agree at
/// every pause point of a run that commits at every site.
#[test]
fn sink_totals_equal_the_site_folds() {
    let w = dvp::workloads::BankingWorkload {
        n_sites: 4,
        accounts: 8,
        txns: 600,
        ..Default::default()
    }
    .generate(5);
    let mut cl = dvp::bench::Scenario::dvp(&w).build_dvp();
    let mut moved = 0;
    for k in 1..=6u64 {
        cl.run_until(ms(k * 400));
        let history = cl.stats().txn.history;
        let deltas = cl.auditor().committed_deltas();
        for def in w.catalog.items() {
            let net = deltas.get(&def.id).copied().unwrap_or(0);
            assert_eq!(
                history.total(def.id),
                def.total as i64 + net,
                "{:?} at {}ms",
                def.id,
                k * 400
            );
        }
        moved += usize::from(deltas.values().any(|&d| d != 0));
        cl.auditor().check_conservation().unwrap();
    }
    assert!(moved >= 3, "the run must commit across several probes");
}
