//! Quick-scale regression gate for the adaptive-placement subsystem.
//!
//! Pins the three properties the hint flow-control work bought on the
//! banking workload (the scenario whose hint storm originally regressed
//! adaptive placement to 338k hints and +13% wire volume over reactive):
//!
//! 1. the hint volume stays bounded — demand-delta gating, the global
//!    per-window budget, and scope-to-budget truncation hold the line;
//! 2. adaptive costs no more wire than reactive (within 10%) — the
//!    gossip and the persistence-gated rebalancer pay for themselves;
//! 3. the run is a pure function of the seed — its outcome, force, wire
//!    and hint counts are pinned by equality (for a drifting hotspot
//!    too), so the two ceilings above gate real regressions, not noise.
//!
//! The workload mirrors `engine_baseline`'s quick-scale banking row
//! (8 sites, 16 accounts, 2 000 transactions, seed 42); the full-scale
//! ceilings live in the CI engine-baseline guard.

use dvp_bench::{RunReport, Scenario};
use dvp_core::{Placement, SiteConfig};
use dvp_workloads::{BankingWorkload, HotspotDriftWorkload, Workload};

/// Fixed hint ceiling for the quick-scale banking run. Currently ~1.9k
/// hints go out (roughly one per decided transaction); the pre-fix hint
/// storm was two orders of magnitude above this.
const HINT_CEILING: u64 = 4_000;

fn banking() -> Workload {
    BankingWorkload {
        n_sites: 8,
        accounts: 16,
        txns: 2_000,
        ..Default::default()
    }
    .generate(42)
}

fn run(w: &Workload, site: SiteConfig) -> RunReport {
    Scenario::dvp(w)
        .name("adaptive_regression")
        .site(site)
        .run()
}

fn wire_per_txn(r: &RunReport) -> f64 {
    r.wire_bytes as f64 / (r.committed + r.aborted).max(1) as f64
}

#[test]
fn banking_adaptive_hint_and_wire_budgets_hold() {
    let w = banking();
    let reactive = run(&w, SiteConfig::default());
    let adaptive = run(&w, adaptive_site());

    assert!(
        adaptive.hints_sent < HINT_CEILING,
        "hint flow control must bound gossip volume: {} hints sent \
         (ceiling {HINT_CEILING})",
        adaptive.hints_sent
    );
    let (a, r) = (wire_per_txn(&adaptive), wire_per_txn(&reactive));
    assert!(
        a <= 1.1 * r,
        "adaptive wire volume must stay within 10% of reactive: \
         {a:.1} B/txn adaptive vs {r:.1} B/txn reactive"
    );
}

/// Everything the adaptive path decides, as one comparable value:
/// `(committed, aborted, forces, wire_bytes, hints_sent, hinted_solicits,
/// hint_hits, rebalances)`.
fn fingerprint(r: &RunReport) -> [u64; 8] {
    [
        r.committed,
        r.aborted,
        r.forces,
        r.wire_bytes,
        r.hints_sent,
        r.hinted_solicits,
        r.hint_hits,
        r.rebalances,
    ]
}

fn adaptive_site() -> SiteConfig {
    SiteConfig::builder()
        .placement(Placement::adaptive())
        .build()
}

/// The run is a pure function of the seed, so the only path hints take
/// is pinned by equality: these figures were captured on the tree whose
/// hint gate still lived in the Vm endpoint, and any diff is a changed
/// placement decision, not noise.
#[test]
fn banking_adaptive_fingerprint_is_pinned() {
    let r = run(&banking(), adaptive_site());
    assert_eq!(
        fingerprint(&r),
        [1_845, 155, 7_433, 603_859, 1_871, 126, 92, 12]
    );
}

/// Same pin for `engine_baseline`'s quick-scale drifting hotspot (4
/// epochs over 2 000 transactions), where hinted solicitation and the
/// rebalancer both act.
#[test]
fn hotspot_adaptive_fingerprint_is_pinned() {
    let txns = 2_000;
    let w = HotspotDriftWorkload {
        txns,
        epochs: 4,
        per_item: txns as u64 * 4,
        ..Default::default()
    }
    .generate(42);
    let r = run(&w, adaptive_site());
    assert_eq!(
        fingerprint(&r),
        [1_858, 142, 2_985, 84_330, 18, 112, 112, 147]
    );
}
