//! The arrival script exists once: the workload, the scenario, the
//! cluster config and every built node hold one handle per site, a write
//! through any shared handle copies first, and neither sharing nor
//! drawing changes anything about what a run computes: a run of a drawn
//! workload and a run of the same arrivals listed agree on every count
//! and every traced event.

use dvp::baselines::TradConfig;
use dvp::prelude::*;
use dvp::workloads::{
    AirlineWorkload, BankingWorkload, HotspotDriftWorkload, InventoryWorkload, Workload,
};

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

fn banking(txns: usize) -> dvp::workloads::Workload {
    BankingWorkload {
        n_sites: 4,
        accounts: 8,
        txns,
        ..Default::default()
    }
    .generate(7)
}

#[test]
fn scenario_and_built_nodes_point_at_the_workloads_scripts() {
    let w = banking(200);
    let sc = Scenario::dvp(&w);
    let cl = sc.build_dvp();
    let trad = Scenario::trad(&w).build_trad();
    for (s, script) in w.scripts.iter().enumerate() {
        assert!(!script.is_empty(), "site {s} must have arrivals to share");
        assert!(
            Script::ptr_eq(script, &sc.cluster.scripts[s]),
            "scenario, site {s}"
        );
        assert!(
            Script::ptr_eq(script, cl.sim.node(s).script()),
            "dvp node {s}"
        );
        assert!(
            Script::ptr_eq(script, trad.sim.node(s).script()),
            "trad node {s}"
        );
    }
}

#[test]
fn appending_to_a_shared_script_copies_and_leaves_the_other_holder_alone() {
    let w = banking(40);
    let before = w.scripts.clone();
    let extra = TxnSpec::release(ItemId(0), 1);

    let sc = Scenario::dvp(&w).at(1, ms(9_000), extra.clone());
    assert_eq!(sc.cluster.scripts[1].len(), w.scripts[1].len() + 1);
    assert_eq!(
        sc.cluster.scripts[1].last(),
        Some(&(ms(9_000), extra.clone()))
    );
    assert!(!Script::ptr_eq(&sc.cluster.scripts[1], &w.scripts[1]));
    assert!(
        Script::ptr_eq(&sc.cluster.scripts[0], &w.scripts[0]),
        "untouched"
    );

    let cfg = w.cluster().at(2, ms(9_000), extra.clone());
    assert_eq!(cfg.scripts[2].len(), w.scripts[2].len() + 1);
    assert!(!Script::ptr_eq(&cfg.scripts[2], &w.scripts[2]));

    // The baseline's description is the same type over the same handles.
    let trad = cfg.clone().with_site(TradConfig::default());
    let trad = trad.at(3, ms(9_000), extra);
    assert_eq!(trad.scripts[3].len(), w.scripts[3].len() + 1);
    assert!(
        Script::ptr_eq(&cfg.scripts[3], &w.scripts[3]),
        "dvp's untouched"
    );

    assert_eq!(w.scripts, before, "the workload saw none of it");
}

#[test]
fn two_clusters_from_one_scenario_run_identically() {
    let w = banking(400);
    let sc = Scenario::dvp(&w).seed(3);
    let run = || {
        let mut cl = sc.build_dvp();
        let events = cl.sim.run_to_quiescence();
        let stats = cl.stats();
        (
            stats.txn.committed(),
            stats.txn.aborted(),
            stats.log.forces,
            cl.sim.stats().wire_bytes,
            events,
        )
    };
    let first = run();
    assert_eq!(first.0 + first.1, 400, "every scripted txn decided");
    assert_eq!(run(), first, "a script is not used up by running it");
}

/// The same arrivals, collected into listed scripts.
fn listed(w: &Workload) -> Workload {
    let scripts = w
        .scripts
        .iter()
        .map(|drawn| {
            let mut script = Script::new();
            drawn.iter().for_each(|arrival| script.push(arrival));
            script
        })
        .collect();
    Workload {
        catalog: w.catalog.clone(),
        scripts,
    }
}

/// Committed, aborted, forces, wire bytes, events processed, arrivals
/// dropped, and the trace, of `w` with site 1 down from 30 % to 60 % of
/// the span (its arrivals meanwhile are drawn and dropped) on a lossy
/// network.
type Counts = (u64, u64, u64, u64, u64, u64);

fn run(w: &Workload, engine: fn(&Workload) -> Scenario) -> (Counts, String) {
    let span = w
        .scripts
        .iter()
        .filter_map(|s| s.last())
        .map(|a| a.0)
        .max()
        .unwrap();
    let at = |percent: u64| SimTime(span.micros() / 100 * percent);
    let r = engine(w)
        .faults(FaultPlan::none().crash(at(30), 1).recover(at(60), 1))
        .net(NetworkConfig::lossy(0.02))
        .until(span + SimDuration::secs(30))
        .seed(5)
        .trace(true)
        .run();
    let counts = (
        r.committed,
        r.aborted,
        r.log.forces,
        r.net.wire_bytes,
        r.net.events_processed,
        r.net.externals_dropped,
    );
    (counts, r.trace_jsonl())
}

fn drawn_runs_as_listed(w: Workload) {
    let (txns, listed) = (w.txn_count(), listed(&w));
    assert_eq!(listed.txn_count(), txns);
    let drawn = run(&w, Scenario::dvp);
    let (committed, _, _, _, _, dropped) = drawn.0;
    assert!(committed > 0 && dropped > 0, "{:?}", drawn.0);
    assert_eq!(run(&listed, Scenario::dvp), drawn, "DvP");
}

#[test]
fn a_drawn_banking_run_is_its_listed_run() {
    let w = BankingWorkload {
        txns: 600,
        ..Default::default()
    }
    .generate(11);
    drawn_runs_as_listed(w.clone());
    assert_eq!(
        run(&listed(&w), Scenario::trad),
        run(&w, Scenario::trad),
        "2PC"
    );
}

#[test]
fn a_drawn_hotspot_run_is_its_listed_run() {
    drawn_runs_as_listed(
        HotspotDriftWorkload {
            txns: 800,
            ..Default::default()
        }
        .generate(12),
    );
}

#[test]
fn a_drawn_airline_run_is_its_listed_run() {
    drawn_runs_as_listed(
        AirlineWorkload {
            txns: 600,
            ..Default::default()
        }
        .generate(13),
    );
}

#[test]
fn a_drawn_inventory_run_is_its_listed_run() {
    drawn_runs_as_listed(
        InventoryWorkload {
            txns: 600,
            max_order_lines: 4,
            ..Default::default()
        }
        .generate(14),
    );
}
