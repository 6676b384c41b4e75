//! Steady-state allocation audit: the committed fast-path transaction
//! allocates nothing.
//!
//! Run with `cargo test -p dvp-bench --features alloc-audit --test
//! alloc_steady_state -- --test-threads=1` — the feature installs the
//! counting global allocator, whose counter is process-wide: on more
//! than one test thread the two gates (and the harness reporting the
//! first result) allocate into each other's measurement.
//!
//! Methodology (two-run delta): drive two identical single-site clusters
//! in the same process, one with `W` scripted fast-path transactions and
//! one with `W + M`, and compare the allocation events counted during
//! each *run* phase (setup is excluded by snapshotting the counter after
//! `Cluster::build`). The extra `M` transactions go through the full
//! engine — begin, lock, log append + force, apply, journal, unlock —
//! so if the run-phase deltas are equal, those `M` commits allocated
//! exactly zero times. `W` and `M` are chosen so no amortized container
//! doubling (commit journal, stable log, byte image) lands between the
//! two workload sizes; growth that both runs share cancels out.

#![cfg(feature = "alloc-audit")]

use dvp_bench::alloc_audit;
use dvp_core::item::{Catalog, Split};
use dvp_core::{Cluster, ClusterConfig, Placement, TxnSpec};
use dvp_simnet::time::{SimDuration, SimTime};

/// Warmup+measure sizes: capacities after W pushes and after W+M pushes
/// fall inside the same power-of-two growth window for every per-txn
/// container (commit journal ~1/txn, stable log ~2 records/txn, image
/// ~66 bytes/txn), so the extra M transactions trigger no doubling.
const W: u64 = 3_000;
const M: u64 = 500;

fn run_phase_allocs_with(txns: u64, placement: Placement) -> u64 {
    let mut catalog = Catalog::new();
    let acct = catalog.add("acct", 1_000_000, Split::Even);
    let mut cfg = ClusterConfig::new(1, catalog);
    cfg.site.checkpoint_every = None;
    cfg.site.placement = placement;
    for k in 0..txns {
        let when = SimTime::ZERO + SimDuration::micros(1 + k * 10);
        // Alternate reserve/release so quotas never drain: every
        // transaction is write-only, locally covered, fast path.
        let spec = if k % 2 == 0 {
            TxnSpec::reserve(acct, 1)
        } else {
            TxnSpec::release(acct, 1)
        };
        cfg = cfg.at(0, when, spec);
    }
    let mut cl = Cluster::build(cfg);
    let before = alloc_audit::alloc_count();
    cl.run_to_quiescence();
    let during = alloc_audit::alloc_count() - before;
    let m = cl.stats().txn;
    assert_eq!(m.committed(), txns, "every scripted txn must commit");
    assert_eq!(
        m.sites[0].fast_path_commits, txns,
        "every commit must take the fast path"
    );
    during
}

fn run_phase_allocs(txns: u64) -> u64 {
    run_phase_allocs_with(txns, Placement::Static)
}

#[test]
fn fast_path_commit_allocates_zero() {
    // Prime process-wide state the measured runs would otherwise pay for
    // unevenly (the thread-local encode pool persists across clusters).
    run_phase_allocs(64);
    let base = run_phase_allocs(W);
    let extended = run_phase_allocs(W + M);
    assert_eq!(
        extended,
        base,
        "{M} extra fast-path commits must allocate zero times \
         (run-phase allocs: {base} for {W} txns, {extended} for {} txns)",
        W + M
    );
}

/// The same gate with the adaptive placement subsystem switched on: the
/// demand estimators, hint bookkeeping, and rebalancer state ride every
/// commit, so a committed adaptive fast-path transaction must also
/// allocate exactly zero times (the estimators are dense tables, the
/// gossip and solicitation planners run on retained scratch buffers).
#[test]
fn adaptive_fast_path_commit_allocates_zero() {
    run_phase_allocs_with(64, Placement::adaptive());
    let base = run_phase_allocs_with(W, Placement::adaptive());
    let extended = run_phase_allocs_with(W + M, Placement::adaptive());
    assert_eq!(
        extended,
        base,
        "{M} extra adaptive fast-path commits must allocate zero times \
         (run-phase allocs: {base} for {W} txns, {extended} for {} txns)",
        W + M
    );
}
