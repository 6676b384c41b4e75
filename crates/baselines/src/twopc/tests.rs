//! Engine tests: small scripted clusters on fixed-delay links.

use super::*;
use dvp_core::item::Catalog;
use dvp_core::item::Split;
use dvp_core::txn::TxnSpec;
use dvp_simnet::network::LinkConfig;
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::partition::PartitionSchedule;
use dvp_simnet::time::SimTime;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

fn catalog(total: u64) -> (Catalog, ItemId) {
    let mut c = Catalog::new();
    let id = c.add("flight-A", total, Split::Even);
    (c, id)
}

#[test]
fn healthy_reservation_commits_via_quorum() {
    let (cat, flight) = catalog(100);
    let cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    let mut cl = TradCluster::build(cfg);
    cl.sim.run_to_quiescence();
    let m = cl.metrics();
    assert_eq!(m.committed(), 1);
    assert_eq!(m.aborted(), 0);
    assert_eq!(m.still_blocked(), 0);
    cl.check_replica_convergence().unwrap();
    // Majority of replicas saw the write.
    let updated = (0..4)
        .filter(|&s| cl.sim.node(s).replica(flight).0 == 90)
        .count();
    assert!(updated >= 3);
    // Every writer acked the decision: the coordinator owes nothing.
    assert_eq!(cl.sim.node(0).decisions_owed(), 0);
}

#[test]
fn insufficient_value_aborts() {
    let (cat, flight) = catalog(100);
    let cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 150));
    let mut cl = TradCluster::build(cfg);
    cl.sim.run_to_quiescence();
    let m = cl.metrics();
    assert_eq!(m.committed(), 0);
    assert_eq!(m.aborted(), 1);
}

#[test]
fn read_sees_committed_value() {
    let (cat, flight) = catalog(100);
    let cfg = TradClusterConfig::new(4, cat)
        .at(0, ms(1), TxnSpec::reserve(flight, 10))
        .at(1, ms(100), TxnSpec::read(flight));
    let mut cl = TradCluster::build(cfg);
    cl.sim.run_to_quiescence();
    assert_eq!(cl.metrics().committed(), 2);
    cl.check_replica_convergence().unwrap();
}

#[test]
fn minority_partition_cannot_commit() {
    // Site 3 is isolated: it cannot assemble a majority quorum, so its
    // transaction aborts — while DvP would have served it from the
    // local quota (see dvp-core's partitioned_minority test).
    let (cat, flight) = catalog(100);
    let sched = PartitionSchedule::fully_connected(4).isolate_at(SimTime::ZERO, &[3]);
    let mut cfg = TradClusterConfig::new(4, cat).at(3, ms(1), TxnSpec::reserve(flight, 5));
    cfg.net = NetworkConfig::reliable().with_partitions(sched);
    let mut cl = TradCluster::build(cfg);
    cl.run_until(ms(2_000));
    let m = cl.metrics();
    assert_eq!(m.committed(), 0);
    assert_eq!(m.aborted(), 1);
}

#[test]
fn partition_after_prepare_blocks_participant() {
    // Fixed 2ms delays make the 2PC timeline deterministic:
    //   t=1ms  txn starts at site 0 (quorum {0,1,2})
    //   t≈3ms  LockReq arrives; t≈5ms grants back; t≈5ms Prepare out
    //   t≈7ms  participants force Prepared and vote YES  -> in doubt
    //   t≈9ms  coordinator would receive votes and decide
    // Partition at t=8ms cuts site 1 and 2 from the coordinator: they
    // are prepared, in doubt, and must hold their locks until the
    // partition heals at t=500ms. That window is the blocking DvP
    // avoids by construction.
    let (cat, flight) = catalog(100);
    let sched = PartitionSchedule::fully_connected(4)
        .split_at(ms(8), &[&[0, 3], &[1, 2]])
        .heal_at(ms(500));
    let mut cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.net = NetworkConfig {
        default_link: LinkConfig::reliable_fixed(SimDuration::millis(2)),
        ..Default::default()
    }
    .with_partitions(sched);
    let mut cl = TradCluster::build(cfg);

    // Mid-partition: participants are blocked in doubt.
    cl.run_until(ms(400));
    let blocked_now: usize = (0..4).map(|s| cl.sim.node(s).in_doubt_count()).sum();
    assert!(blocked_now >= 1, "someone must be blocked in doubt");
    let m = cl.metrics();
    assert!(
        m.max_blocking_us(cl.sim.now()) >= 300_000,
        "blocking window spans the partition"
    );

    // After healing, the retried decision resolves everyone.
    cl.run_until(ms(2_000));
    let blocked_after: usize = (0..4).map(|s| cl.sim.node(s).in_doubt_count()).sum();
    assert_eq!(blocked_after, 0, "healing resolves the in-doubt state");
}

#[test]
fn coordinator_crash_before_decision_resolves_to_abort() {
    // Coordinator crashes at t=8ms: after prepares went out, before a
    // decision was logged. Participants block, query, and — once the
    // coordinator recovers — presumed-abort resolves them.
    let (cat, flight) = catalog(100);
    let mut cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.net = NetworkConfig {
        default_link: LinkConfig::reliable_fixed(SimDuration::millis(2)),
        ..Default::default()
    };
    cfg.crashes.push((ms(8), 0));
    cfg.recoveries.push((ms(300), 0));
    let mut cl = TradCluster::build(cfg);
    cl.run_until(ms(2_000));
    let m = cl.metrics();
    assert_eq!(m.committed(), 0);
    let blocked: usize = (0..4).map(|s| cl.sim.node(s).in_doubt_count()).sum();
    assert_eq!(blocked, 0, "presumed abort resolves after recovery");
    // All replicas untouched.
    for s in 0..4 {
        assert_eq!(cl.sim.node(s).replica(flight).0, 100);
    }
}

#[test]
fn participant_recovery_requires_remote_messages() {
    // Participant 1 crashes while in doubt; on recovery it must query
    // the coordinator — recovery_remote_messages > 0 (contrast with
    // DvP's zero).
    let (cat, flight) = catalog(100);
    let mut cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.net = NetworkConfig {
        default_link: LinkConfig::reliable_fixed(SimDuration::millis(2)),
        ..Default::default()
    };
    // Crash in the in-doubt window (prepared ≈7ms, decision ≈11ms).
    cfg.crashes.push((ms(8), 1));
    cfg.recoveries.push((ms(200), 1));
    let mut cl = TradCluster::build(cfg);
    cl.run_until(ms(2_000));
    let m = cl.metrics();
    assert!(
        m.recovery_remote_messages() >= 1,
        "traditional recovery is dependent"
    );
    let blocked: usize = (0..4).map(|s| cl.sim.node(s).in_doubt_count()).sum();
    assert_eq!(blocked, 0);
}

#[test]
fn threepc_healthy_commit_works() {
    let (cat, flight) = catalog(100);
    let mut cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.trad.protocol = CommitProtocol::ThreePhase;
    let mut cl = TradCluster::build(cfg);
    cl.sim.run_to_quiescence();
    let m = cl.metrics();
    assert_eq!(m.committed(), 1);
    assert_eq!(m.still_blocked(), 0);
    cl.check_decision_consistency().unwrap();
    cl.check_replica_convergence().unwrap();
}

#[test]
fn threepc_is_nonblocking_under_coordinator_crash() {
    // The same coordinator-crash scenario that blocks 2PC for the
    // whole outage: 3PC participants terminate via the cooperative
    // protocol in bounded time, consistently (all abort — no
    // pre-commit was sent).
    let (cat, flight) = catalog(100);
    let mut cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.trad.protocol = CommitProtocol::ThreePhase;
    cfg.net = NetworkConfig {
        default_link: LinkConfig::reliable_fixed(SimDuration::millis(2)),
        ..Default::default()
    };
    cfg.crashes.push((ms(8), 0)); // after prepares, before pre-commit
    cfg.recoveries.push((ms(5_000), 0)); // very late
    let mut cl = TradCluster::build(cfg);
    cl.run_until(ms(1_000)); // well before the coordinator returns
    let blocked: usize = (0..4).map(|s| cl.sim.node(s).in_doubt_count()).sum();
    assert_eq!(blocked, 0, "3PC terminates without the coordinator");
    let m = cl.metrics();
    assert!(
        m.max_blocking_us(cl.sim.now()) < 1_000_000,
        "in-doubt window bounded by the termination protocol"
    );
    cl.check_decision_consistency().unwrap();
    // Everyone aborted; replicas untouched.
    for s in 1..4 {
        assert_eq!(cl.sim.node(s).replica(flight).0, 100);
    }
}

#[test]
fn threepc_diverges_under_partition() {
    // Partition between the pre-commit reaching writer 1 and writer 2:
    //   t=9  votes arrive; pre-commits sent
    //   t=10 partition {0,1} | {2,3}
    //   t=11 pre-commit reaches writer 1; writer 2's copy is cut
    // Coordinator side commits (pre-commit round + timeout rule);
    // writer 2, cut off and uncertain, terminates with abort. The two
    // sides of the partition decide DIFFERENTLY — the Section 2
    // impossibility, demonstrated.
    let (cat, flight) = catalog(100);
    let sched = PartitionSchedule::fully_connected(4)
        .split_at(ms(10), &[&[0, 1], &[2, 3]])
        .heal_at(ms(10_000)); // long partition
    let mut cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.trad.protocol = CommitProtocol::ThreePhase;
    cfg.net = NetworkConfig {
        default_link: LinkConfig::reliable_fixed(SimDuration::millis(2)),
        ..Default::default()
    }
    .with_partitions(sched);
    let mut cl = TradCluster::build(cfg);
    cl.run_until(ms(2_000)); // both sides have terminated by now
    let blocked: usize = (0..4).map(|s| cl.sim.node(s).in_doubt_count()).sum();
    assert_eq!(blocked, 0, "3PC never blocks — that is its problem");
    let err = cl
        .check_decision_consistency()
        .expect_err("3PC must diverge in this scenario");
    // The coordinator's side committed; writer 2, cut off, aborted.
    assert_eq!(
        err,
        "txn ts:1001@s0 diverged: site 0 resolved true, site 2 resolved false"
    );
}

#[test]
fn primary_copy_routes_through_primary() {
    let (cat, flight) = catalog(100);
    let mut cfg = TradClusterConfig::new(4, cat).at(1, ms(1), TxnSpec::reserve(flight, 10));
    cfg.trad.placement = Placement::PrimaryCopy;
    let mut cl = TradCluster::build(cfg);
    cl.sim.run_to_quiescence();
    let m = cl.metrics();
    assert_eq!(m.committed(), 1);
    // Only the primary (item 0 -> site 0) has the new value.
    assert_eq!(cl.sim.node(0).replica(flight).0, 90);
    assert_eq!(cl.sim.node(2).replica(flight).0, 100);
}

#[test]
fn primary_copy_unavailable_when_primary_isolated() {
    let (cat, flight) = catalog(100);
    let sched = PartitionSchedule::fully_connected(4).isolate_at(SimTime::ZERO, &[0]);
    let mut cfg = TradClusterConfig::new(4, cat).at(1, ms(1), TxnSpec::reserve(flight, 10));
    cfg.trad.placement = Placement::PrimaryCopy;
    cfg.net = NetworkConfig::reliable().with_partitions(sched);
    let mut cl = TradCluster::build(cfg);
    cl.run_until(ms(2_000));
    let m = cl.metrics();
    assert_eq!(m.committed(), 0);
    assert_eq!(m.aborted(), 1);
}
