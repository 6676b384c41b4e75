//! Cross-engine integration: the DvP engine and the traditional 2PC
//! baseline consume identical workloads; on a healthy network both must
//! process them correctly, and their relative behaviour must match the
//! paper's comparative claims. Runs are described with the [`Scenario`]
//! builder; tests needing node access use its white-box escape hatches.

use dvp::baselines::{Placement, TradConfig};
use dvp::prelude::*;
use dvp::workloads::{AirlineWorkload, BankingWorkload};

fn horizon() -> SimTime {
    SimTime::ZERO + SimDuration::secs(60)
}

#[test]
fn healthy_network_both_engines_clear_the_workload() {
    let w = AirlineWorkload {
        txns: 80,
        seats_per_flight: 5_000,
        mix: (0.8, 0.2, 0.0, 0.0),
        ..Default::default()
    }
    .generate(3);

    let d = Scenario::dvp(&w).until(horizon()).run();

    // White-box on the baseline side: replica convergence needs the
    // built cluster, not just the report.
    let mut trad = Scenario::trad(&w).build_trad();
    trad.run_until(horizon());
    trad.check_replica_convergence().unwrap();
    trad.check_replica_values().unwrap();
    let tm = trad.metrics();

    assert_eq!(d.committed + d.aborted, 80, "DvP decides everything");
    assert!(d.commit_ratio() > 0.95);
    // The baseline loses a slice to distributed-lock timeouts even on a
    // healthy network (each transaction locks a 3-site quorum); DvP's
    // single-site execution is exactly what avoids that.
    assert!(tm.commit_ratio() > 0.6);
    assert!(d.commit_ratio() > tm.commit_ratio());
    assert_eq!(tm.still_blocked(), 0);

    // With ample quotas DvP's all-Incr/-covered-Decr mix is mostly local;
    // 2PC pays quorum coordination for every transaction.
    assert!(
        d.net.sent < trad.sim.stats().sent,
        "DvP must use fewer messages on a local-heavy mix: {} vs {}",
        d.net.sent,
        trad.sim.stats().sent
    );
}

#[test]
fn both_engines_agree_on_final_totals_when_everything_commits() {
    // Deterministic script where every transaction can commit in both
    // engines: final logical totals must agree exactly.
    let mut catalog = Catalog::new();
    let a = catalog.add("A", 1_000, Split::Even);
    let b = catalog.add("B", 500, Split::Even);
    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::millis(n)
    }
    // Spaced far apart: no contention in either engine.
    let script: Vec<(usize, u64, TxnSpec)> = vec![
        (0, 1, TxnSpec::reserve(a, 100)),
        (1, 200, TxnSpec::release(b, 50)),
        (2, 400, TxnSpec::transfer(a, b, 200)),
        (3, 600, TxnSpec::reserve(b, 30)),
    ];

    let mut dvp_scn = Scenario::dvp_sites(4, catalog.clone());
    for (s, t, spec) in &script {
        dvp_scn = dvp_scn.at(*s, ms(*t), spec.clone());
    }
    let mut dvp = dvp_scn.build_dvp();
    dvp.run_until(horizon());
    let dm = dvp.stats().txn;
    assert_eq!(dm.committed(), 4);
    let dvp_a: u64 = (0..4).map(|s| dvp.sim.node(s).fragments().get(a)).sum();
    let dvp_b: u64 = (0..4).map(|s| dvp.sim.node(s).fragments().get(b)).sum();

    let mut trad_scn = Scenario::trad_sites(4, catalog);
    for (s, t, spec) in &script {
        trad_scn = trad_scn.at(*s, ms(*t), spec.clone());
    }
    let mut trad = trad_scn.build_trad();
    trad.run_until(horizon());
    assert_eq!(trad.metrics().committed(), 4);
    trad.check_replica_convergence().unwrap();
    trad.check_replica_values().unwrap();
    let trad_a = (0..4)
        .map(|s| trad.sim.node(s).replica(a))
        .max_by_key(|r| r.1)
        .unwrap()
        .0;
    let trad_b = (0..4)
        .map(|s| trad.sim.node(s).replica(b))
        .max_by_key(|r| r.1)
        .unwrap()
        .0;

    assert_eq!(dvp_a, 700);
    assert_eq!(dvp_b, 720);
    assert_eq!(trad_a, dvp_a, "engines must agree on item A");
    assert_eq!(trad_b, dvp_b, "engines must agree on item B");
}

#[test]
fn deposits_commit_at_isolated_branch_only_under_dvp() {
    // The Section 2.2 banking anecdote, executed against both engines.
    let w = BankingWorkload {
        n_sites: 4,
        accounts: 2,
        txns: 0,
        ..Default::default()
    }
    .generate(1);
    let acct = w.catalog.items()[0].id;
    let sched = PartitionSchedule::fully_connected(4).isolate_at(SimTime::ZERO, &[3]);
    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::millis(n)
    }

    let d = Scenario::dvp(&w)
        .net(NetworkConfig::reliable().with_partitions(sched.clone()))
        .at(3, ms(1), TxnSpec::release(acct, 500))
        .run();
    assert_eq!(d.committed, 1, "DvP deposit commits locally");

    for placement in [Placement::ReplicatedQuorum, Placement::PrimaryCopy] {
        let t = Scenario::trad(&w)
            .trad_config(TradConfig {
                placement,
                ..Default::default()
            })
            .net(NetworkConfig::reliable().with_partitions(sched.clone()))
            .at(3, ms(1), TxnSpec::release(acct, 500))
            .until(horizon())
            .run();
        assert_eq!(
            t.committed, 0,
            "{placement:?}: the isolated branch cannot reach its replicas"
        );
    }
}
