//! Engine tests: small scripted clusters on fixed-delay links.

use super::*;
use crate::record::TradRecord;
use dvp_core::item::Catalog;
use dvp_core::item::Split;
use dvp_core::txn::TxnSpec;
use dvp_core::{ClusterConfig, FaultPlan, Mutant};
use dvp_simnet::network::LinkConfig;
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::partition::PartitionSchedule;
use dvp_simnet::sim::Simulation;
use dvp_simnet::time::SimTime;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

/// A 4-site baseline run over `cat`: reliable network, no faults.
fn config(cat: Catalog) -> ClusterConfig<TradConfig> {
    ClusterConfig::new(4, cat).with_site(TradConfig::default())
}

fn catalog(total: u64) -> (Catalog, ItemId) {
    let mut c = Catalog::new();
    let id = c.add("flight-A", total, Split::Even);
    (c, id)
}

#[test]
fn healthy_reservation_commits_via_quorum() {
    let (cat, flight) = catalog(100);
    let cfg = config(cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    let mut cl = TradCluster::build(cfg);
    cl.sim.run_to_quiescence();
    let m = cl.metrics();
    assert_eq!(m.committed(), 1);
    assert_eq!(m.aborted(), 0);
    assert_eq!(m.still_blocked(), 0);
    cl.check_replica_convergence().unwrap();
    cl.check_replica_values().unwrap();
    // Majority of replicas saw the write.
    let updated = (0..4)
        .filter(|&s| cl.sim.node(s).replica(flight).0 == 90)
        .count();
    assert!(updated >= 3);
    // Every writer acked the decision: the coordinator owes nothing.
    assert_eq!(cl.sim.node(0).decisions_owed(), 0);
}

/// On a reliable net every timer a site arms is cancelled once the state
/// it guards is gone, so the only timers that fire are the coordinator
/// timeouts that abort a transaction. E1's banking script at 2,000
/// transactions reads 314 of each; with the unprepared timeouts, in-doubt
/// queries and decision retries left armed, 19,287 timers fired.
#[test]
fn on_a_reliable_net_only_aborting_timeouts_fire() {
    use crate::metrics::TradAbort;
    use dvp_workloads::BankingWorkload;

    let w = BankingWorkload {
        n_sites: 8,
        accounts: 16,
        txns: 2_000,
        ..Default::default()
    }
    .generate(42);
    let mut cl = TradCluster::build(w.cluster().with_site(TradConfig::default()));
    cl.sim.run_to_quiescence();
    let m = cl.metrics();
    let timeouts: u64 = m
        .sites
        .iter()
        .map(|s| s.aborted[TradAbort::Timeout as usize])
        .sum();
    assert!(timeouts > 0, "the script must time some transactions out");
    assert_eq!(cl.sim.stats().timers_fired, timeouts);
}

#[test]
fn insufficient_value_aborts() {
    let (cat, flight) = catalog(100);
    let cfg = config(cat).at(0, ms(1), TxnSpec::reserve(flight, 150));
    let mut cl = TradCluster::build(cfg);
    cl.sim.run_to_quiescence();
    let m = cl.metrics();
    assert_eq!(m.committed(), 0);
    assert_eq!(m.aborted(), 1);
}

#[test]
fn read_sees_committed_value() {
    let (cat, flight) = catalog(100);
    let write = config(cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    let cfg = write.at(1, ms(100), TxnSpec::read(flight));
    let mut cl = TradCluster::build(cfg);
    cl.sim.run_to_quiescence();
    assert_eq!(cl.metrics().committed(), 2);
    cl.check_replica_convergence().unwrap();
    cl.check_replica_values().unwrap();
}

#[test]
fn minority_partition_cannot_commit() {
    // Site 3 is isolated: it cannot assemble a majority quorum, so its
    // transaction aborts — while DvP would have served it from the
    // local quota (see dvp-core's partitioned_minority test).
    let (cat, flight) = catalog(100);
    let sched = PartitionSchedule::fully_connected(4).isolate_at(SimTime::ZERO, &[3]);
    let mut cfg = config(cat).at(3, ms(1), TxnSpec::reserve(flight, 5));
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
    let mut cfg = config(cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2)).with_partitions(sched);
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
    let mut cfg = config(cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2));
    cfg.faults = FaultPlan::none().crash(ms(8), 0).recover(ms(300), 0);
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

/// The baseline has no crashpoints and no decaying storage: a plan that
/// injects either is refused at build, not silently run without it.
#[test]
#[should_panic(
    expected = "the 2PC baseline cannot inject faults: site 2 is armed with Injection { crashpoint: None, crash_on_hit: 0, torn: Truncated"
)]
fn an_injected_fault_is_refused_at_build() {
    let (cat, flight) = catalog(100);
    let mut cfg = config(cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.faults = FaultPlan::none()
        .crash(ms(8), 2)
        .recover(ms(300), 2)
        .torn(2, dvp_storage::TornWrite::Truncated);
    TradCluster::build(cfg);
}

/// A planted bug names a DvP mechanism (the read-drain gate, the redo
/// pass) the baseline does not have: it is refused at build too.
#[test]
#[should_panic(expected = "the 2PC baseline cannot plant a bug: the run names SkipRecoveryRedo")]
fn a_mutant_is_refused_at_build() {
    let (cat, flight) = catalog(100);
    let mut cfg = config(cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.mutant = Some(Mutant::SkipRecoveryRedo);
    TradCluster::build(cfg);
}

/// A site set is one 64-bit mask: the largest cluster the baseline runs
/// is 64 sites, and one more is refused at build.
#[test]
#[should_panic(
    expected = "the 2PC baseline runs at most 64 sites (one bit per site): this cluster has 65"
)]
fn a_cluster_past_64_sites_is_refused_at_build() {
    let (cat, flight) = catalog(100);
    let cfg = ClusterConfig::new(65, cat)
        .with_site(TradConfig::default())
        .at(64, ms(1), TxnSpec::reserve(flight, 10));
    TradCluster::build(cfg);
}

#[test]
fn a_64_site_cluster_commits() {
    let (cat, flight) = catalog(6_400);
    let cfg = ClusterConfig::new(64, cat)
        .with_site(TradConfig::default())
        .at(63, ms(1), TxnSpec::reserve(flight, 10));
    let mut cl = TradCluster::build(cfg);
    cl.sim.run_to_quiescence();
    assert_eq!(cl.metrics().committed(), 1);
    let updated = (0..64)
        .filter(|&s| cl.sim.node(s).replica(flight).0 == 6_390)
        .count();
    assert_eq!(updated, 33, "a majority quorum wrote it");
    cl.check_replica_values().unwrap();
}

#[test]
fn participant_recovery_requires_remote_messages() {
    // Participant 1 crashes while in doubt; on recovery it must query
    // the coordinator — recovery_remote_messages > 0 (contrast with
    // DvP's zero).
    let (cat, flight) = catalog(100);
    let mut cfg = config(cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2));
    // Crash in the in-doubt window (prepared ≈7ms, decision ≈11ms).
    cfg.faults = FaultPlan::none().crash(ms(8), 1).recover(ms(200), 1);
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
    let mut cfg = config(cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.site.protocol = CommitProtocol::ThreePhase;
    let mut cl = TradCluster::build(cfg);
    cl.sim.run_to_quiescence();
    let m = cl.metrics();
    assert_eq!(m.committed(), 1);
    assert_eq!(m.still_blocked(), 0);
    cl.check_decision_consistency().unwrap();
    cl.check_replica_convergence().unwrap();
    cl.check_replica_values().unwrap();
}

#[test]
fn threepc_is_nonblocking_under_coordinator_crash() {
    // The same coordinator-crash scenario that blocks 2PC for the
    // whole outage: 3PC participants terminate via the cooperative
    // protocol in bounded time, consistently (all abort — no
    // pre-commit was sent).
    let (cat, flight) = catalog(100);
    let mut cfg = config(cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.site.protocol = CommitProtocol::ThreePhase;
    cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2));
    cfg.faults = FaultPlan::none()
        .crash(ms(8), 0) // after prepares, before pre-commit
        .recover(ms(5_000), 0); // very late
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
    let mut cfg = config(cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.site.protocol = CommitProtocol::ThreePhase;
    cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2)).with_partitions(sched);
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
    let mut cfg = config(cat).at(1, ms(1), TxnSpec::reserve(flight, 10));
    cfg.site.placement = Placement::PrimaryCopy;
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
    let mut cfg = config(cat).at(1, ms(1), TxnSpec::reserve(flight, 10));
    cfg.site.placement = Placement::PrimaryCopy;
    cfg.net = NetworkConfig::reliable().with_partitions(sched);
    let mut cl = TradCluster::build(cfg);
    cl.run_until(ms(2_000));
    let m = cl.metrics();
    assert_eq!(m.committed(), 0);
    assert_eq!(m.aborted(), 1);
}

/// Fixed 2 ms links, with site 2 cut off from 10 ms to 500 ms: after the
/// votes are in (≈9 ms), before the commit decision reaches it (≈11 ms).
/// The coordinator then sits in `Deciding`, retrying the decision to
/// writer 2, while writers 0 and 1 have resolved and acked.
fn decision_owed_to_writer_2(cat: Catalog, flight: ItemId) -> ClusterConfig<TradConfig> {
    let sched = PartitionSchedule::fully_connected(4)
        .isolate_at(ms(10), &[2])
        .heal_at(ms(500));
    let mut cfg = config(cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
    cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2)).with_partitions(sched);
    cfg
}

/// The value each site's replica of `item` holds: 90 once the one
/// reservation of 10 committed there, 100 where it did not.
fn values<'a>(nodes: impl Iterator<Item = &'a TradNode>, item: ItemId) -> Vec<u64> {
    nodes.map(|n| n.replica(item).0).collect()
}

/// A 2PC site that keeps the messages `keep` selects and, on its scripted
/// arrival, receives them again: duplicates the network delivered late.
/// It also notes every vote it receives, `(from, yes)`, and the kind of
/// every message that reached it over the wire from itself.
struct Replayer {
    node: TradNode,
    keep: fn(&TradBody) -> bool,
    kept: Vec<(NodeId, TradMsg)>,
    votes: Vec<(NodeId, bool)>,
    from_itself: Vec<TradKind>,
}

impl Replayer {
    fn new(node: TradNode, keep: fn(&TradBody) -> bool) -> Self {
        Replayer {
            node,
            keep,
            kept: Vec::new(),
            votes: Vec::new(),
            from_itself: Vec::new(),
        }
    }
}

impl Node for Replayer {
    type Msg = TradMsg;

    fn on_message(&mut self, from: NodeId, msg: TradMsg, ctx: &mut Context<'_, TradMsg>) {
        let logical = match &msg.body {
            TradBody::Batch(bodies) => bodies.iter().collect(),
            body => vec![body],
        };
        for body in logical {
            if from == self.node.id {
                self.from_itself.push(body.kind());
            }
            if let TradBody::Vote { yes, .. } = *body {
                self.votes.push((from, yes));
            }
            if (self.keep)(body) {
                let lamport = msg.lamport;
                let body = body.clone();
                self.kept.push((from, TradMsg { lamport, body }));
            }
        }
        self.node.on_message(from, msg, ctx);
    }

    fn on_external(&mut self, tag: u64, ctx: &mut Context<'_, TradMsg>) {
        if self.kept.is_empty() {
            return self.node.on_external(tag, ctx);
        }
        for (from, msg) in self.kept.clone() {
            self.node.on_message(from, msg, ctx);
        }
    }

    fn on_timer(&mut self, id: TimerId, tag: u64, ctx: &mut Context<'_, TradMsg>) {
        self.node.on_timer(id, tag, ctx);
    }

    fn on_crash(&mut self) {
        self.node.on_crash();
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, TradMsg>) {
        self.node.on_recover(ctx);
    }
}

/// Build `cfg`'s sites as [`Replayer`]s keeping what `keep` selects, all
/// feeding one outcome audit.
fn replayers(
    cfg: &ClusterConfig<TradConfig>,
    keep: fn(&TradBody) -> bool,
) -> (Simulation<Replayer>, OutcomeAudit) {
    let totals: Vec<u64> = cfg.catalog.items().iter().map(|d| d.total).collect();
    let audit = OutcomeAudit::default();
    let n = cfg.n_sites();
    let sim = cfg.simulate(|_, obs, arrivals| {
        let mut node = TradNode::new(n, cfg.site, totals.clone(), arrivals, obs);
        node.set_audit(audit.clone());
        Replayer::new(node, keep)
    });
    (sim, audit)
}

/// A site's messages to itself skip the wire, all but the lock round's:
/// on E1's banking script (2,000 transfers) under 2PC and 3PC, with a
/// site crashed and recovered mid-run, every message that reaches a site
/// over the wire from itself is a `LockReq` or a `LockGrant`, and each
/// decision-phase kind was handed in-site.
#[test]
fn only_the_lock_round_crosses_the_wire_from_a_site_to_itself() {
    use dvp_workloads::BankingWorkload;

    let w = BankingWorkload {
        n_sites: 8,
        accounts: 16,
        txns: 2_000,
        ..Default::default()
    }
    .generate(42);
    for protocol in [CommitProtocol::TwoPhase, CommitProtocol::ThreePhase] {
        let mut cfg = w.cluster().with_site(TradConfig {
            protocol,
            ..Default::default()
        });
        cfg.faults = FaultPlan::none().crash(ms(300), 2).recover(ms(700), 2);
        let (mut sim, _) = replayers(&cfg, |_| false);
        sim.run_to_quiescence();
        let mut lock_round = 0;
        let mut in_site = [0; TradKind::ALL.len()];
        for r in sim.nodes() {
            for &kind in &r.from_itself {
                assert!(
                    !kind.in_site(),
                    "{protocol:?}: site {} sent itself a {kind:?} over the wire",
                    r.node.id
                );
                lock_round += 1;
            }
            for (n, t) in in_site.iter_mut().zip(&r.node.metrics().traffic) {
                *n += t.in_site;
            }
        }
        assert!(lock_round > 0, "{protocol:?}: no home lock was taken");
        let mut handed = vec![
            TradKind::Prepare,
            TradKind::Vote,
            TradKind::Decision,
            TradKind::DecisionAck,
            TradKind::ReleaseLocks,
        ];
        if protocol == CommitProtocol::ThreePhase {
            handed.extend([TradKind::PreCommit, TradKind::PreAck]);
        }
        for kind in handed {
            assert!(
                in_site[kind as usize] > 0,
                "{protocol:?}: no {kind:?} in-site"
            );
        }
        assert_eq!(in_site[TradKind::LockReq as usize], 0);
        assert_eq!(in_site[TradKind::LockGrant as usize], 0);
    }
}

#[test]
fn late_no_vote_cannot_undo_a_commit() {
    // Writer 1 resolved commit at ≈11 ms; at 50 ms a duplicate of its
    // `Prepare` arrives. It holds no locks for the transaction any more,
    // so it votes NO — while the coordinator is still deciding (writer
    // 2's ack is owed). The NO must count for nothing: the commit stands
    // everywhere, and is counted once.
    let (cat, flight) = catalog(100);
    let cfg = decision_owed_to_writer_2(cat, flight).at(1, ms(50), TxnSpec::read(flight));
    let (mut sim, audit) = replayers(&cfg, |b| matches!(b, TradBody::Prepare { .. }));
    sim.run_until(ms(49));
    let nodes = || sim.nodes().iter().map(|r| &r.node);
    assert_eq!(values(nodes(), flight), [90, 90, 100, 100]);
    assert_eq!(sim.node(2).node.in_doubt_count(), 1, "writer 2 is cut off");
    sim.run_until(ms(2_000));
    let nodes = || sim.nodes().iter().map(|r| &r.node);
    let committed: u64 = nodes().map(|n| n.metrics().committed()).sum();
    let aborted: u64 = nodes().map(|n| n.metrics().total_aborted()).sum();
    assert_eq!((committed, aborted), (1, 0), "decided once, as a commit");
    assert_eq!(sim.node(0).votes.last(), Some(&(1, false)), "the late NO");
    assert_eq!(nodes().map(TradNode::in_doubt_count).sum::<usize>(), 0);
    let replicas: Vec<(u64, u64)> = nodes().map(|n| n.replica(flight)).collect();
    assert_eq!(replicas[..3], [replicas[0]; 3], "every writer commits");
    assert_eq!((replicas[0].0, replicas[3]), (90, (100, 0)));
    audit.divergence().unwrap();
    assert_eq!(audit.live(), 0, "nobody can resolve it any more");
}

#[test]
fn coordinator_crash_after_the_decision_is_not_an_abort() {
    // The coordinator decided commit at ≈9 ms and crashes at 30 ms with
    // writer 2's ack still owed. The commit was counted when it was
    // decided; the crash loses no undecided transaction. Recovery reloads
    // the decision, and writer 2's query after the heal learns commit.
    let (cat, flight) = catalog(100);
    let mut cfg = decision_owed_to_writer_2(cat, flight);
    cfg.faults = FaultPlan::none().crash(ms(30), 0).recover(ms(600), 0);
    let mut cl = TradCluster::build(cfg);
    cl.run_until(ms(2_000));
    let m = cl.metrics();
    assert_eq!((m.committed(), m.aborted()), (1, 0), "decided once");
    assert_eq!(values(cl.sim.nodes().iter(), flight), [90, 90, 90, 100]);
    cl.check_decision_consistency().unwrap();
    cl.check_replica_values().unwrap();
    assert_eq!(cl.audit().live(), 0);
}

#[test]
fn a_stale_prepare_after_the_commit_is_refused() {
    // The reservation commits by ≈11 ms and every writer acks, so the
    // coordinator forgets it. At 50 ms writer 1 receives its `LockReq` and
    // its `Prepare` again, as a duplicating network may deliver them. The
    // re-granted lock must not let the `Prepare` re-prepare a transaction
    // whose writes the replica already holds: writer 1 votes NO and logs
    // no second `Prepared`. (Voting YES, it would sit in doubt, ask the
    // coordinator, and learn presumed abort for a commit.)
    let (cat, flight) = catalog(100);
    let mut cfg =
        config(cat)
            .at(0, ms(1), TxnSpec::reserve(flight, 10))
            .at(1, ms(50), TxnSpec::read(flight));
    cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2));
    let keep = |b: &TradBody| matches!(b, TradBody::LockReq { .. } | TradBody::Prepare { .. });
    let (mut sim, audit) = replayers(&cfg, keep);
    sim.run_until(ms(49));
    assert_eq!(audit.live(), 0, "the commit is resolved everywhere");
    sim.run_until(ms(2_000));
    let from_writer_1: Vec<bool> = sim
        .node(0)
        .votes
        .iter()
        .filter(|&&(from, _)| from == 1)
        .map(|&(_, yes)| yes)
        .collect();
    assert_eq!(
        from_writer_1,
        [true, false],
        "the replayed Prepare gets a NO"
    );
    let prepared = sim
        .node(1)
        .node
        .log()
        .clone()
        .recover_entries()
        .unwrap()
        .into_iter()
        .filter(|(_, r)| matches!(r, TradRecord::Prepared { .. }))
        .count();
    assert_eq!(prepared, 1, "no second Prepared record");
    let nodes = || sim.nodes().iter().map(|r| &r.node);
    assert_eq!(values(nodes(), flight), [90, 90, 90, 100]);
    assert_eq!(nodes().map(TradNode::in_doubt_count).sum::<usize>(), 0);
    audit.divergence().unwrap();
    assert_eq!(audit.live(), 0);
}

#[test]
fn a_later_transaction_committing_first_is_not_lost() {
    // T1 begins at site 3 at 1 ms (stamp ≈1000), T2 at site 1 at 2 ms
    // (≈2000); both reserve 10 seats. Site 3's outgoing links take 15 ms,
    // so T2 locks, commits and releases on sites 0–2 by ≈12 ms, before
    // T1's lock requests arrive. T1 then reads T2's write and must write
    // a version above it: stamped with its begin time, its write would
    // lose to T2's at install and its commit would vanish.
    let (cat, flight) = catalog(100);
    let mut cfg = config(cat).at(3, ms(1), TxnSpec::reserve(flight, 10)).at(
        1,
        ms(2),
        TxnSpec::reserve(flight, 10),
    );
    let mut net = NetworkConfig::fixed_delay(SimDuration::millis(2));
    for to in 0..3 {
        net = net.with_link(3, to, LinkConfig::reliable_fixed(SimDuration::millis(15)));
    }
    cfg.net = net;
    let mut cl = TradCluster::build(cfg);
    cl.sim.run_to_quiescence();
    assert_eq!(cl.metrics().committed(), 2);
    let latest = (0..4)
        .map(|s| cl.sim.node(s).replica(flight))
        .max_by_key(|&(_, version)| version)
        .unwrap();
    assert_eq!(latest.0, 80, "both reservations hold");
    cl.check_replica_values().unwrap();
    cl.check_replica_convergence().unwrap();
    cl.check_decision_consistency().unwrap();
    assert_eq!(cl.audit().live(), 0);
}
