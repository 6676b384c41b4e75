//! Inventory control + the hot-spot counter comparison (Section 8).
//!
//! Part 1 runs a distributed warehouse network: multi-line shipment
//! orders deplete stock, restocks replenish it, and a stocktake reads the
//! exact level of a product.
//!
//! Part 2 is the intra-site analogue the paper sketches for "aggregate
//! fields": many threads hammering one hot counter under (a) exclusive
//! locking, (b) O'Neil's Escrow method, (c) a DvP-style sharded counter —
//! same invariant, very different concurrency.
//!
//! Run with: `cargo run --release --example inventory_hotspot`

use dvp::baselines::escrow::Counter;
use dvp::baselines::{EscrowCounter, ExclusiveCounter, ShardedCounter};
use dvp::bench::exp_f4_hotspot::throughput;
use dvp::prelude::*;
use dvp::workloads::InventoryWorkload;
use std::sync::Arc;

fn part1_distributed() {
    println!("=== part 1: distributed warehouse (4 sites, 6 SKUs) ===\n");
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
    println!(
        "exact stocktakes completed: {}\n",
        m.history.reads_checked()
    );
}

/// F4's reserve-work-commit loop (`exp f4`), 30 000 transactions a thread.
fn bench_counter(name: &str, counter: Arc<dyn Counter>, threads: usize) -> f64 {
    let ops = throughput(counter, threads, 30_000);
    println!("  {name:<22} {ops:>12.0} ops/s");
    ops
}

fn part2_hotspot() {
    println!("=== part 2: one hot counter, 4 threads ===\n");
    let initial = 1u64 << 40;
    let ex = bench_counter(
        "exclusive lock",
        Arc::new(ExclusiveCounter::new(initial)),
        4,
    );
    let es = bench_counter("escrow (O'Neil)", Arc::new(EscrowCounter::new(initial)), 4);
    let sh = bench_counter(
        "DvP sharded (16)",
        Arc::new(ShardedCounter::new(initial, 16)),
        4,
    );
    println!(
        "\nescrow {:.1}x, sharded {:.1}x the exclusive-lock throughput",
        es / ex,
        sh / ex
    );
}

fn main() {
    part1_distributed();
    part2_hotspot();
}
