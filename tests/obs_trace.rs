//! Trace-layer integration tests: the JSONL export is a *golden* artifact
//! (same scenario + seed ⇒ byte-identical bytes run over run), and the
//! captured event stream reconstructs complete cross-site transaction
//! timelines (solicit at home → donate at peers → absorb → commit).

use dvp::obs::{txn_timeline, EventKind};
use dvp::prelude::*;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

/// A scenario that must solicit: site 1 sells 40 seats against a local
/// quota of 25, so peers donate the difference over Virtual Messages.
fn soliciting_scenario() -> Scenario {
    let mut catalog = Catalog::new();
    let flight = catalog.add("flight", 100, Split::Even);
    Scenario::dvp_sites(4, catalog)
        .name("obs/solicit")
        .at(1, ms(1), TxnSpec::reserve(flight, 40))
        .at(0, ms(200), TxnSpec::reserve(flight, 3))
        .seed(9)
        .trace(true)
}

#[test]
fn golden_trace_is_byte_identical_across_runs() {
    let a = soliciting_scenario().run().trace_jsonl();
    let b = soliciting_scenario().run().trace_jsonl();
    assert!(!a.is_empty());
    assert!(a.starts_with("{\"trace\":\"dvp-obs/v1\",\"scenario\":\"obs/solicit\",\"seed\":9,"));
    assert!(a.lines().count() > 2, "header plus events");
    assert_eq!(a, b, "same scenario + seed must export identical bytes");
}

/// The default-config trace of the soliciting scenario, byte for byte.
/// The golden was captured on the tree that still carried the per-record
/// and per-frame forks, so it pins that removing them did not move the
/// batched path: any diff here is a behaviour change, not a refactor.
#[test]
fn default_trace_matches_golden() {
    let got = soliciting_scenario().run().trace_jsonl();
    let golden = include_str!("golden/obs_solicit.jsonl");
    assert_eq!(got, golden, "default trace diverged from the golden");
}

#[test]
fn trace_reconstructs_cross_site_solicit_donate_commit_timeline() {
    let r = soliciting_scenario().run();
    assert_eq!(r.committed, 2);

    // Find the solicited (non-fast-path) commit and pull its timeline.
    let txn = r
        .events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::TxnCommit {
                txn,
                fast_path: false,
                ..
            } => Some(txn),
            _ => None,
        })
        .expect("the 40-seat reservation commits off the fast path");
    let timeline = txn_timeline(&r.events, txn);

    // Timeline is in simulated-time order…
    assert!(timeline.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    // …starts at the home site and commits there. (Events *after* the
    // commit are legal: a surplus donation from a second donor is still
    // absorbed once the transaction no longer needs it.)
    assert!(matches!(timeline[0].kind, EventKind::TxnStart { .. }));
    assert_eq!(timeline[0].site, 1);
    let commit = timeline
        .iter()
        .find(|e| matches!(e.kind, EventKind::TxnCommit { .. }))
        .expect("timeline contains the commit");
    assert_eq!(commit.site, 1);

    // The span crosses sites: solicitations leave site 1, donations are
    // recorded at the donors, absorbs back at site 1.
    let solicits: Vec<_> = timeline
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TxnSolicit { .. }))
        .collect();
    let donates: Vec<_> = timeline
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TxnDonate { .. }))
        .collect();
    let absorbs: Vec<_> = timeline
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TxnAbsorb { .. }))
        .collect();
    assert!(!solicits.is_empty(), "home site solicited");
    assert!(solicits.iter().all(|e| e.site == 1));
    assert!(!donates.is_empty(), "at least one peer donated");
    assert!(
        donates.iter().all(|e| e.site != 1),
        "donations happen at peers"
    );
    assert!(!absorbs.is_empty(), "value came home");
    assert!(absorbs.iter().all(|e| e.site == 1));

    // Causal order: first solicit < first donate < first absorb < commit.
    assert!(solicits[0].at_us <= donates[0].at_us);
    assert!(donates[0].at_us <= absorbs[0].at_us);
    assert!(absorbs[0].at_us <= commit.at_us);

    // And the fast-path transaction never solicited.
    let fast = r
        .events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::TxnCommit {
                txn,
                fast_path: true,
                ..
            } => Some(txn),
            _ => None,
        })
        .expect("the 3-seat reservation is write-only and local");
    assert!(txn_timeline(&r.events, fast)
        .iter()
        .all(|e| !matches!(e.kind, EventKind::TxnSolicit { .. })));
}

/// Every solicitation the counters report is in the trace — including the
/// ones a read re-issues once the site's own outstanding Vms clear, which
/// used to be counted and sent without an event.
#[test]
fn every_counted_solicitation_is_traced() {
    let w = dvp::workloads::AirlineWorkload {
        n_sites: 6,
        txns: 400,
        mix: (0.5, 0.2, 0.1, 0.2),
        ..Default::default()
    }
    .generate(0);
    let r = Scenario::dvp(&w).trace(true).run();
    let traced = r
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TxnSolicit { .. }))
        .count() as u64;
    assert!(r.txn.requests_sent() > 0);
    assert_eq!(traced, r.txn.requests_sent());
}

#[test]
fn trad_engine_traces_too() {
    let w = dvp::workloads::AirlineWorkload {
        txns: 20,
        ..Default::default()
    }
    .generate(5);
    let r = Scenario::trad(&w)
        .name("obs/trad")
        .until(ms(5_000))
        .seed(5)
        .trace(true)
        .run();
    assert!(r.committed > 0);
    assert!(r
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::TxnCommit { .. })));
    let again = Scenario::trad(&w)
        .name("obs/trad")
        .until(ms(5_000))
        .seed(5)
        .trace(true)
        .run();
    assert_eq!(r.trace_jsonl(), again.trace_jsonl());
}

/// A scripted baseline run that walks every 2PC/3PC recovery path on a
/// fixed 2 ms link, so each step lands on a known instant:
///
/// * txn A (site 0, quorum {0,1,2}) has its prepares forced and voted
///   at 7 ms; the coordinator crashes at 8 ms with the votes in flight
///   and recovers at 300 ms, re-entering in-doubt for its own `Prepared`
///   record. 2PC participants query until presumed abort answers; 3PC
///   participants hit the termination rule first.
/// * txn B (site 3, quorum {3,0,1}) decides at 408 ms; a partition at
///   409 ms cuts the decision (2PC: retried until the heal at 700 ms) or
///   the pre-commit (3PC: coordinator commits on timeout, the cut-off
///   writers terminate with abort).
fn trad_recovery_scenario(protocol: dvp::baselines::CommitProtocol, name: &str) -> Scenario {
    use dvp::baselines::TradConfig;
    use dvp::simnet::network::NetworkConfig;
    use dvp::simnet::partition::PartitionSchedule;

    let mut catalog = Catalog::new();
    let flight = catalog.add("flight", 100, Split::Even);
    let partitions = PartitionSchedule::fully_connected(4)
        .split_at(ms(409), &[&[3], &[0, 1, 2]])
        .heal_at(ms(700));
    let net = NetworkConfig::fixed_delay(SimDuration::millis(2)).with_partitions(partitions);
    Scenario::trad_sites(4, catalog)
        .name(name)
        .trad_config(TradConfig {
            protocol,
            ..Default::default()
        })
        .net(net)
        .faults(FaultPlan::none().crash(ms(8), 0).recover(ms(300), 0))
        .at(0, ms(1), TxnSpec::reserve(flight, 10))
        .at(3, ms(400), TxnSpec::reserve(flight, 5))
        .until(ms(2_000))
        .seed(5)
        .trace(true)
}

/// The 2PC engine's trace of the recovery scenario, byte for byte, under
/// both commit protocols. The goldens were captured on the one-file,
/// one-`impl` engine that `twopc/` was split from: any diff here is a
/// behaviour change.
#[test]
fn trad_traces_match_goldens() {
    use dvp::baselines::CommitProtocol;

    let two = trad_recovery_scenario(CommitProtocol::TwoPhase, "obs/trad-2pc").run();
    assert_eq!((two.committed, two.aborted, two.still_blocked), (1, 1, 0));
    assert_eq!(two.recovery_remote_msgs, 1, "in-doubt re-entry queried");
    assert_eq!(
        (two.net.sent, two.log.forces),
        (97, 17),
        "retries and queries"
    );
    assert_eq!(
        two.trace_jsonl(),
        include_str!("golden/obs_trad_2pc.jsonl"),
        "2PC trace diverged from the golden"
    );

    let three = trad_recovery_scenario(CommitProtocol::ThreePhase, "obs/trad-3pc").run();
    assert_eq!(
        (three.committed, three.aborted, three.still_blocked),
        (1, 1, 0),
        "3PC terminates on its own"
    );
    // 110 sends: once the decision is taken, its retries replace the
    // pre-commit's (138 while both chains ran, each unacked writer hearing
    // every decision twice per interval).
    assert_eq!((three.net.sent, three.log.forces), (110, 17));
    assert_eq!(
        three.trace_jsonl(),
        include_str!("golden/obs_trad_3pc.jsonl"),
        "3PC trace diverged from the golden"
    );
}
