//! Serializability subject to redistribution (paper Section 6).
//!
//! For committed histories the engine must be equivalent to a serial
//! execution: (1) final per-item totals equal the initial totals plus the
//! committed deltas applied in any order (the ops commute — that is the
//! point of partitionable operators); (2) every committed full-value read
//! observes the running total at its commit instant; (3) no committed
//! decrement ever overdraws an item (the serial schedule is *feasible*).
//! The cluster's history sink folds the commits in global order as they
//! happen; (2) is its verdict and (3) its per-item low-water mark.

use dvp::prelude::*;
use dvp::workloads::{AirlineWorkload, BankingWorkload, InventoryWorkload, Workload};
use proptest::prelude::*;

fn run_and_check(w: &Workload, conc2: bool, seed: u64) -> Result<(), TestCaseError> {
    let mut cfg = w.cluster();
    cfg.seed = seed;
    if conc2 {
        cfg.site.conc = ConcMode::Conc2;
        cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2));
    }
    let mut cl = Cluster::build(cfg);
    cl.run_until(SimTime::ZERO + SimDuration::secs(120));

    cl.auditor()
        .check_conservation()
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    let m = cl.stats().txn;
    cl.auditor()
        .check_reads(&m)
        .map_err(|e| TestCaseError::fail(e.to_string()))?;

    // (3) in global commit order the running totals never dip below zero
    // (the committed history is a feasible serial schedule), and (1) the
    // final fragments equal those running totals.
    let frag_totals = cl.auditor().fragment_totals();
    for def in w.catalog.items() {
        let low = m.history.low_water(def.id);
        prop_assert!(low >= 0, "item {:?} overdrawn to {}", def.id, low);
        prop_assert_eq!(
            frag_totals[&def.id] as i64,
            m.history.total(def.id),
            "item {:?}",
            def.id
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn airline_histories_are_serializable(seed in any::<u64>(), skew in 0.0f64..2.5) {
        let w = AirlineWorkload {
            txns: 60,
            seats_per_flight: 300,
            site_skew: skew,
            mix: (0.6, 0.2, 0.1, 0.1),
            ..Default::default()
        }.generate(seed);
        run_and_check(&w, false, seed)?;
    }

    #[test]
    fn banking_histories_are_serializable(seed in any::<u64>()) {
        let w = BankingWorkload {
            txns: 60,
            accounts: 4,
            ..Default::default()
        }.generate(seed);
        run_and_check(&w, false, seed)?;
    }

    #[test]
    fn inventory_histories_are_serializable_under_conc2(seed in any::<u64>()) {
        let w = InventoryWorkload {
            txns: 50,
            ..Default::default()
        }.generate(seed);
        run_and_check(&w, true, seed)?;
    }
}
