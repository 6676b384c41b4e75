//! Inventory control on a distributed warehouse network: multi-line
//! shipment orders deplete stock, restocks replenish it, and a stocktake
//! reads the exact level of a product.
//!
//! Run with: `cargo run --release --example inventory`

use dvp::prelude::*;
use dvp::workloads::InventoryWorkload;

fn main() {
    println!("=== distributed warehouse (4 sites, 6 SKUs) ===\n");
    let workload = InventoryWorkload {
        txns: 300,
        ..Default::default()
    }
    .generate(5);
    let sku0 = workload.catalog.items()[0].id;

    // White-box build: the stock tally below needs per-site fragments.
    let mut cluster = Scenario::dvp(&workload).build_dvp();
    cluster.run_until(SimTime::ZERO + SimDuration::secs(30));
    cluster
        .auditor()
        .check_conservation()
        .expect("conservation");

    let m = cluster.stats().txn;
    println!(
        "orders: {} committed, {} aborted ({} were local fast-path)",
        m.committed(),
        m.aborted(),
        m.fast_path_commits()
    );
    let stock: u64 = (0..4)
        .map(|s| cluster.sim.node(s).fragments().get(sku0))
        .sum();
    println!("sku-0 stock across warehouses: {stock}");
    cluster.auditor().check_reads(&m).expect("read exactness");
    println!("exact stocktakes completed: {}", m.history.reads_checked());
}
