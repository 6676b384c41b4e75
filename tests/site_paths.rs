//! Targeted tests for specific site-protocol paths that the broader
//! scenario tests exercise only incidentally.

use dvp::prelude::*;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

fn seats(total: u64, n: usize) -> (Catalog, ItemId) {
    let _ = n;
    let mut c = Catalog::new();
    let id = c.add("pool", total, Split::Even);
    (c, id)
}

/// Under Conc2, a waiter whose transaction timed out while queued is
/// skipped when the lock frees — the queue cannot hand a lock to a ghost.
#[test]
fn conc2_skips_timed_out_waiters() {
    let (catalog, item) = seats(100, 2);
    let mut cfg = ClusterConfig::new(2, catalog);
    cfg.site.conc = ConcMode::Conc2;
    cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2));
    // T1 at site 0 needs solicitation (quota 50, wants 80) but site 1
    // refuses nothing — T1 holds the lock from t=1 until commit (~5ms).
    // T2 (t=2) and T3 (t=3) queue behind it. T2/T3 want more than exists
    // and will wait out their timeouts in the queue or in solicitation.
    let cfg = cfg
        .at(0, ms(1), TxnSpec::reserve(item, 80))
        .at(0, ms(2), TxnSpec::reserve(item, 500)) // can never be satisfied
        .at(0, ms(3), TxnSpec::reserve(item, 10)); // satisfiable once granted
    let mut cl = Cluster::build(cfg);
    cl.run_to_quiescence();
    let m = cl.stats().txn;
    cl.auditor().check_conservation().unwrap();
    // T1 commits; T2 aborts (insufficient value → timeout); T3 must still
    // get the lock after T2's ghost is skipped, and commits.
    assert_eq!(m.committed(), 2, "T1 and T3 commit");
    assert_eq!(m.aborted_for(AbortReason::Timeout), 1, "T2 times out");
    let total: u64 = (0..2).map(|s| cl.sim.node(s).fragments().get(item)).sum();
    assert_eq!(total, 100 - 80 - 10);
}

/// If the explicit `ReleaseLease` message is lost, the lease-timer
/// fallback still frees the donor's item — availability degrades for one
/// lease span, never forever.
#[test]
fn lease_timer_fallback_frees_item_when_release_is_lost() {
    let (catalog, item) = seats(100, 2);
    let mut cfg = ClusterConfig::new(2, catalog);
    // Drop everything site 0 sends to site 1 *after* the read completes:
    // simplest deterministic approximation is a one-way dead link from
    // t=0 — site 1 then never hears the request... so instead kill only
    // the reverse path the ReleaseLease takes by partitioning right after
    // the grant arrives at site 0.
    let sched = PartitionSchedule::fully_connected(2)
        .split_at(ms(6), &[&[0], &[1]]) // grant (≈5ms) got through; release won't
        .heal_at(ms(400));
    cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2)).with_partitions(sched);
    let cfg = cfg
        .at(0, ms(1), TxnSpec::read(item)) // leases site 1's fragment
        // Local work at site 1 during the lease: a deposit needs no
        // solicitation, so only the lease can stop it (Conc1 ⇒
        // lock-conflict abort while leased)...
        .at(1, ms(50), TxnSpec::release(item, 5))
        // ...and the same deposit succeeds once the 100ms lease expires
        // on its own — despite the lost ReleaseLease and the partition.
        .at(1, ms(150), TxnSpec::release(item, 5));
    let mut cl = Cluster::build(cfg);
    cl.run_to_quiescence();
    let m = cl.stats().txn;
    cl.auditor().check_conservation().unwrap();
    cl.auditor().check_reads(&m).unwrap();
    // The read committed (grant arrived before the partition).
    assert_eq!(cl.history().reads_checked(), 1);
    assert_eq!(cl.history().last_read(), Some((item, 100)));
    // The 50ms reservation hit the lease (lock conflict); the 150ms one
    // committed because the timer fallback freed the item.
    assert_eq!(m.aborted_for(AbortReason::LockConflict), 1);
    assert_eq!(m.committed(), 2, "read + post-expiry reservation");
}

/// A transaction no donor can satisfy still decides within its timeout:
/// the timeout is the decision bound.
#[test]
fn an_unsatisfiable_transaction_decides_within_its_timeout() {
    let (catalog, item) = seats(100, 2);
    let cfg = ClusterConfig::new(2, catalog).at(0, ms(1), TxnSpec::reserve(item, 1_000)); // impossible
    let mut cl = Cluster::build(cfg);
    cl.run_to_quiescence();
    let m = cl.stats().txn;
    assert_eq!(m.aborted_for(AbortReason::Timeout), 1);
    let bound = cl.sim.node(0).config().txn_timeout.as_micros() + 1_000;
    assert!(m.sites[0].abort_latency.max() <= bound);
    cl.auditor().check_conservation().unwrap();
}

/// A transaction that commits in the callback that received it never
/// arms a timer: a run of nothing but fast-path commits neither fires
/// nor suppresses one.
#[test]
fn a_commit_on_arrival_arms_no_timer() {
    let (catalog, item) = seats(400, 2); // 200 per site
    let mut cfg = ClusterConfig::new(2, catalog);
    for k in 0..20u64 {
        let spec = match k % 2 {
            0 => TxnSpec::reserve(item, 5),
            _ => TxnSpec::release(item, 3),
        };
        cfg = cfg.at(0, ms(1 + k), spec);
    }
    let mut cl = Cluster::build(cfg);
    cl.run_to_quiescence();
    assert_eq!(cl.stats().txn.sites[0].fast_path.count(), 20);
    let net = cl.sim.stats();
    assert_eq!((net.timers_fired, net.timers_suppressed), (0, 0));
}

/// A transaction that must solicit arms exactly one timer, its timeout,
/// and its commit cancels it; a Conc1 lock conflict arriving while it
/// holds the lock aborts and arms nothing. The donor's retransmit timer
/// runs only while its Vm is unacked.
#[test]
fn only_a_waiting_transaction_arms_its_timeout() {
    let (catalog, item) = seats(100, 2); // 50 per site
    let mut cfg = ClusterConfig::new(2, catalog);
    cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2));
    let cfg = cfg
        .at(0, ms(1), TxnSpec::reserve(item, 80)) // solicits site 1
        .at(0, ms(2), TxnSpec::release(item, 1)); // meets the held lock
    let mut cl = Cluster::build(cfg);
    cl.run_to_quiescence();
    let m = cl.stats().txn;
    assert_eq!(m.committed(), 1);
    assert_eq!(m.sites[0].fast_path.count(), 0);
    assert_eq!(m.aborted_for(AbortReason::LockConflict), 1);
    let net = cl.sim.stats();
    // Nothing fires. The two suppressed timers are the timeout the commit
    // cancelled and the donor's retransmit timer, cancelled when the ack
    // of its one Vm landed.
    assert_eq!((net.timers_fired, net.timers_suppressed), (0, 2));
}

/// A Conc1 timestamp conflict aborts and arms nothing. Five commits in
/// one instant push site 0's clock five ticks past it; a crash resets
/// the clock, recovery restores the item's timestamp from the log, and
/// the next arrival's timestamp falls behind it.
#[test]
fn a_timestamp_conflict_arms_nothing() {
    let us = |n: u64| SimTime::ZERO + SimDuration::micros(n);
    let (catalog, item) = seats(100, 2);
    let mut cfg = ClusterConfig::new(2, catalog);
    for _ in 0..5 {
        cfg = cfg.at(0, us(1_000), TxnSpec::release(item, 1));
    }
    cfg.faults = FaultPlan::none().crash(us(1_001), 0).recover(us(1_002), 0);
    let cfg = cfg.at(0, us(1_003), TxnSpec::release(item, 1));
    let mut cl = Cluster::build(cfg);
    cl.run_to_quiescence();
    let m = cl.stats().txn;
    assert_eq!(m.sites[0].fast_path.count(), 5);
    assert_eq!(m.aborted_for(AbortReason::TsConflict), 1);
    let net = cl.sim.stats();
    assert_eq!((net.timers_fired, net.timers_suppressed), (0, 0));
}

/// A DvP commit appends one record, its forced `Commit`, on the fast path
/// and after a solicitation alike: Step 6's "the changes have been made"
/// is the checkpoint's `redo_from`, not a record of its own.
#[test]
fn a_commit_appends_exactly_one_record() {
    let (catalog, item) = seats(100, 2); // 50 per site
    let mut cfg = ClusterConfig::new(2, catalog);
    cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2));
    let cfg = cfg
        .at(0, ms(1), TxnSpec::reserve(item, 5)) // fast path
        .at(0, ms(10), TxnSpec::reserve(item, 80)); // solicits site 1
    let mut cl = Cluster::build(cfg);
    // Site 0's durable records, by variant name.
    let records = |cl: &Cluster| -> Vec<String> {
        let log = cl.sim.node(0).log();
        let recs = log.clone().recover_entries().unwrap();
        assert_eq!(recs.len(), log.stable_len(), "every record is durable");
        recs.iter()
            .map(|(_, r)| format!("{r:?}").split(' ').next().unwrap().to_owned())
            .collect()
    };
    cl.run_until(ms(2));
    assert_eq!(cl.stats().txn.sites[0].fast_path.count(), 1);
    assert_eq!(records(&cl), ["Init", "Commit"]);
    cl.run_to_quiescence();
    let m = cl.stats().txn;
    assert_eq!((m.committed(), m.sites[0].solicit.count()), (2, 1));
    // The solicited commit: the absorption's Rds, then the one Commit.
    assert_eq!(records(&cl), ["Init", "Commit", "Rds", "Commit"]);
}
