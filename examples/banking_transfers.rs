//! Banking on DvP: deposits never block, a branch crash loses nothing.
//!
//! The paper's banking anecdote (Section 2.2): in a traditional system a
//! partition can make even a *deposit* impossible, because the balance's
//! copies are unreachable. Under DvP a deposit is a write-only, purely
//! local transaction — it commits at a completely isolated branch.
//!
//! This example runs a small branch network through a partition and a
//! branch crash, does withdrawals, deposits, a cross-account transfer and
//! a final exact balance read, and audits conservation throughout.
//!
//! Run with: `cargo run --example banking_transfers`

use dvp::prelude::*;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

fn main() {
    let mut catalog = Catalog::new();
    let alice = catalog.add("acct-alice", 10_000, Split::Even);
    let bob = catalog.add("acct-bob", 5_000, Split::Even);

    // Branch 2 is partitioned away from 0..=1,3 between 10ms and 300ms;
    // branch 3 crashes at 350ms and recovers at 500ms.
    let schedule = PartitionSchedule::fully_connected(4)
        .isolate_at(ms(10), &[2])
        .heal_at(ms(300));

    let scenario = Scenario::dvp_sites(4, catalog)
        .name("banking-transfers")
        .net(NetworkConfig::reliable().with_partitions(schedule))
        .faults(FaultPlan::none().crash(ms(350), 3).recover(ms(500), 3))
        // While branch 2 is cut off: a deposit there STILL commits.
        .at(2, ms(50), TxnSpec::release(alice, 700))
        // A local-quota withdrawal at the isolated branch also commits.
        .at(2, ms(60), TxnSpec::reserve(alice, 100))
        // A withdrawal too big for local quota fails fast (bounded abort),
        // because no peer is reachable.
        .at(2, ms(70), TxnSpec::reserve(alice, 9_000))
        // Meanwhile the connected majority operates normally.
        .at(0, ms(80), TxnSpec::reserve(bob, 1_200))
        .at(1, ms(100), TxnSpec::transfer(alice, bob, 2_000))
        // After healing and recovery: an exact balance read for Alice.
        .at(0, ms(700), TxnSpec::read(alice));

    // White-box build: this example audits conservation at pause points
    // and inspects per-branch fragments below.
    let mut cluster = scenario.build_dvp();
    for t in [100u64, 250, 400, 600, 2_000] {
        cluster.run_until(ms(t));
        cluster
            .auditor()
            .check_conservation()
            .unwrap_or_else(|e| panic!("at {t}ms: {e}"));
    }
    cluster.run_to_quiescence();

    let m = cluster.stats().txn;
    println!("=== 4-branch bank: partition + branch crash ===\n");
    println!("committed {} / aborted {}", m.committed(), m.aborted());
    for (reason, count) in m.sites.iter().flat_map(|s| s.aborted.iter()) {
        println!("  abort reason {reason:?}: {count}");
    }

    let alice_total: u64 = (0..4)
        .map(|s| cluster.sim.node(s).fragments().get(alice))
        .sum();
    let bob_total: u64 = (0..4)
        .map(|s| cluster.sim.node(s).fragments().get(bob))
        .sum();
    println!("\nAlice: {alice_total}   (10000 +700 deposit −100 −2000 transfer)");
    println!("Bob:   {bob_total}   (5000 −1200 +2000 transfer)");

    let read = cluster
        .history()
        .last_read()
        .expect("the balance read committed");
    println!("exact balance read of Alice observed: {}", read.1);

    cluster.auditor().check_reads(&m).expect("read exactness");
    cluster
        .auditor()
        .check_conservation()
        .expect("conservation");
    println!("\ninvariants: conservation OK, read exactness OK");
    println!(
        "branch 3 recovered from its own log, replaying {} records (independent recovery)",
        m.sites[3].records_replayed
    );

    assert_eq!(alice_total, 8_600);
    assert_eq!(bob_total, 5_800);
    assert_eq!(read, (alice, 8_600));
    assert_eq!(m.sites[3].recoveries, 1);
}
