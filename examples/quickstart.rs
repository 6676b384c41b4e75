//! Quickstart: the paper's Section 3 worked example, executed.
//!
//! Flight A has N = 100 seats sold from four sites W, X, Y, Z, each
//! starting with a quota of 25. Customers book at W until its quota runs
//! low; then a customer wanting 5 seats arrives at X after X has run dry,
//! forcing X to solicit value from its peers via Virtual Messages.
//!
//! Run with: `cargo run --example quickstart`

use dvp::prelude::*;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

fn main() {
    const W: usize = 0;
    const X: usize = 1;

    let mut catalog = Catalog::new();
    let flight_a = catalog.add("flight-A", 100, Split::Even);

    // The Section 3 script: W sells 3, 4, 5 seats; X sells its whole
    // quota; then a party of 5 arrives at X with nothing left locally.
    let scenario = Scenario::dvp_sites(4, catalog)
        .name("quickstart")
        .at(W, ms(1), TxnSpec::reserve(flight_a, 3))
        .at(W, ms(2), TxnSpec::reserve(flight_a, 4))
        .at(W, ms(3), TxnSpec::reserve(flight_a, 5))
        .at(X, ms(4), TxnSpec::reserve(flight_a, 25)) // X's quota gone
        .at(X, ms(40), TxnSpec::reserve(flight_a, 5)) // must solicit
        .at(W, ms(200), TxnSpec::read(flight_a)); // exact seat count

    // White-box build: this example inspects per-site fragments below.
    let mut cluster = scenario.build_dvp();
    cluster.run_to_quiescence();

    let metrics = cluster.stats().txn;
    println!("=== DvP quickstart: airline reservation (paper Section 3) ===\n");
    println!(
        "transactions: {} committed, {} aborted",
        metrics.committed(),
        metrics.aborted()
    );
    println!(
        "solicitations: {} requests sent, {} donations made\n",
        metrics.requests_sent(),
        metrics.donations()
    );

    println!("final fragments of flight-A (N_W, N_X, N_Y, N_Z):");
    for site in 0..4 {
        let name = ["W", "X", "Y", "Z"][site];
        println!(
            "  N_{name} = {:>3}",
            cluster.sim.node(site).fragments().get(flight_a)
        );
    }
    let total: u64 = (0..4)
        .map(|s| cluster.sim.node(s).fragments().get(flight_a))
        .sum();
    println!("  ───────────");
    println!("  N   = {total}   (100 initial − 42 sold)\n");

    let (_, observed) = metrics.history.last_read().expect("W's read committed");
    println!("W's full-value read observed N = {observed}");

    cluster
        .auditor()
        .check_conservation()
        .expect("N = ΣNᵢ + N_M must hold");
    cluster
        .auditor()
        .check_reads(&metrics)
        .expect("committed reads must be exact");
    println!("\ninvariants: conservation OK, read exactness OK");

    assert_eq!(metrics.committed(), 6);
    assert_eq!(total, 58);
    assert_eq!(observed, 58);
}
