//! Airline reservations through a network partition — DvP vs 2PC.
//!
//! An 8-site reservation system suffers a clean 4/4 partition for half
//! the run. The same workload is executed by the DvP engine and by a
//! traditional strict-2PL + 2PC engine over quorum-replicated data.
//! Watch the commit counts: DvP keeps selling seats in *both* halves
//! (each site owns a quota); the traditional system can only make
//! progress where a majority lives — and a 4/4 split has none.
//!
//! Run with: `cargo run --example airline_partition`

use dvp::prelude::*;
use dvp::workloads::AirlineWorkload;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

fn main() {
    let n = 8;
    let workload = AirlineWorkload {
        n_sites: n,
        flights: 4,
        seats_per_flight: 10_000,
        txns: 400,
        mix: (0.85, 0.15, 0.0, 0.0),
        ..Default::default()
    }
    .generate(7);

    // Partition: sites {0..3} | {4..7} from 500ms to 1500ms.
    let schedule = PartitionSchedule::fully_connected(n)
        .split_at(ms(500), &[&[0, 1, 2, 3], &[4, 5, 6, 7]])
        .heal_at(ms(1500));
    let horizon = ms(10_000);

    println!("=== 8-site airline, 4/4 partition from 500ms to 1500ms ===\n");

    // ---- DvP ----  (conservation is audited inside Scenario::run)
    let d = Scenario::dvp(&workload)
        .name("airline-partition/dvp")
        .net(NetworkConfig::reliable().with_partitions(schedule.clone()))
        .until(horizon)
        .run();

    // ---- traditional 2PC over quorum-replicated data ----
    let t = Scenario::trad(&workload)
        .name("airline-partition/2pc")
        .net(NetworkConfig::reliable().with_partitions(schedule))
        .until(horizon)
        .run();

    println!("                          DvP        2PC+quorum");
    println!(
        "committed                 {:<10} {}",
        d.committed, t.committed
    );
    println!("aborted                   {:<10} {}", d.aborted, t.aborted);
    println!(
        "commit ratio              {:<10.1} {:.1}",
        d.commit_ratio() * 100.0,
        t.commit_ratio() * 100.0
    );
    // `decisions` holds decided transactions only — comparable across
    // engines. The baseline's open-ended lock-holding shows up in
    // `max_blocked_us`.
    let dvp_decided = format!("{:.0}ms", d.decisions.max() as f64 / 1000.0);
    let trad_decided = format!("{:.0}ms", t.decisions.max() as f64 / 1000.0);
    println!("worst decided latency     {dvp_decided:<10} {trad_decided}");
    let dvp_block = format!("{:.0}ms", d.max_blocked_us as f64 / 1000.0);
    let trad_block = format!("{:.0}ms", t.max_blocked_us as f64 / 1000.0);
    println!("worst blocking window     {dvp_block:<10} {trad_block}");
    println!(
        "still blocked at end      {:<10} {}",
        d.still_blocked, t.still_blocked
    );

    println!("\nDvP kept both halves selling seats from their local quotas;");
    println!("2PC could not assemble a majority in either half and, worse,");
    println!("participants caught mid-commit stayed blocked until healing.");

    assert!(d.commit_ratio() > t.commit_ratio());
    assert_eq!(d.max_blocked_us, 0, "DvP never blocks");
}
