//! **E1 — Engine cost per transaction: DvP vs 2PC, reactive vs adaptive.**
//!
//! Claim (Section 8): a DvP system forces its log less often and sends
//! fewer messages than a traditional one, because a transaction whose
//! site holds enough value commits without leaving it. Seven closed-loop
//! runs — every scripted transaction generated up front, the cluster
//! driven until the workload drains — over banking (about half the
//! transfers must solicit), airline and a drifting hotspot: each DvP
//! workload under reactive placement, banking and hotspot again under
//! `Placement::Adaptive`, and the 2PC baseline on banking and airline.
//!
//! Two tables. The first holds what both engines have: stable-log forces,
//! logical protocol frames, wire transmissions and bytes. Wire bytes are
//! accounted at the simulation kernel on *both* engines — every send
//! declares its encoded length — so the DvP and `trad2pc_*` figures
//! compare directly. The second holds what only DvP has: solicitations,
//! the fast-path share, hint use and value movement, then the placement
//! planner's own work — rebalance ticks fired, demand rows the tick read
//! slot by slot, gossip recomputes and hint-gate calls — counted rather
//! than timed, so what the adaptive bookkeeping costs is held by
//! equality like every other cell.
//!
//! [`run`] refuses to print an unsound table: an `*_adaptive` row that
//! sends more wire bytes per decided transaction than its reactive
//! sibling, or a `trad2pc_*` row with no wire bytes (the baseline lost
//! its kernel accounting), panics — as [`Scenario::run`] already does
//! for conservation.
//!
//! This module owns the engine rows' workloads; `alloc_steady_state`
//! audits [`banking`] and E2 crashes a site in it.

use crate::scenario::{RunReport, Scenario};
use crate::table::{f2, pct, Table};
use crate::Scale;
use dvp_core::{Placement, SiteConfig};
use dvp_workloads::{AirlineWorkload, BankingWorkload, HotspotDriftWorkload, Workload};

/// The banking script at `txns` transfers: 8 sites, 16 accounts, about
/// half of the transfers must solicit remote value.
pub fn banking(txns: usize) -> Workload {
    BankingWorkload {
        n_sites: 8,
        accounts: 16,
        txns,
        ..Default::default()
    }
    .generate(42)
}

fn airline(txns: usize) -> Workload {
    AirlineWorkload {
        n_sites: 8,
        flights: 4,
        seats_per_flight: 100_000,
        txns,
        ..Default::default()
    }
    .generate(42)
}

fn hotspot(txns: usize) -> Workload {
    HotspotDriftWorkload {
        txns,
        epochs: 4,
        // Supply scales with the run so the spike stays *tight* (the hot
        // site's share is far below one epoch's withdrawals) without the
        // workload ever exhausting the global pool.
        per_item: txns as u64 * 4,
        ..Default::default()
    }
    .generate(42)
}

/// Transactions per row.
fn txns(scale: Scale) -> usize {
    scale.pick(2_000, 20_000)
}

/// The seven engine scenarios, named as their table rows.
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    let n = txns(scale);
    let (bank, air, hot) = (banking(n), airline(n), hotspot(n));
    let adaptive = SiteConfig::builder()
        .placement(Placement::adaptive())
        .build();
    vec![
        Scenario::dvp(&bank).name("dvp_banking"),
        Scenario::dvp(&bank)
            .name("dvp_banking_adaptive")
            .site(adaptive),
        Scenario::dvp(&air).name("dvp_airline"),
        Scenario::dvp(&hot).name("dvp_hotspot"),
        Scenario::dvp(&hot)
            .name("dvp_hotspot_adaptive")
            .site(adaptive),
        Scenario::trad(&bank).name("trad2pc_banking"),
        Scenario::trad(&air).name("trad2pc_airline"),
    ]
}

fn decided(r: &RunReport) -> u64 {
    r.committed + r.aborted
}

/// What the table claims must hold of the rows it is built from.
fn check(reports: &[RunReport]) {
    for r in reports {
        if let Some(base) = r.scenario.strip_suffix("_adaptive") {
            let sib = reports
                .iter()
                .find(|s| s.scenario == base)
                .unwrap_or_else(|| panic!("{} has no reactive sibling row {base}", r.scenario));
            // Cross-multiplied, so the per-transaction comparison is exact.
            assert!(
                r.net.wire_bytes as u128 * decided(sib) as u128
                    <= sib.net.wire_bytes as u128 * decided(r) as u128,
                "{} sends more wire bytes per transaction than {}: {} B / {} txns vs {} B / {} txns",
                r.scenario,
                sib.scenario,
                r.net.wire_bytes,
                decided(r),
                sib.net.wire_bytes,
                decided(sib),
            );
        }
        assert!(
            !r.scenario.starts_with("trad2pc_") || r.net.wire_bytes > 0,
            "{} reports no wire bytes: the 2PC baseline lost its kernel wire accounting",
            r.scenario
        );
    }
}

fn per_txn(r: &RunReport, x: u64) -> f64 {
    x as f64 / decided(r).max(1) as f64
}

fn share(part: u64, whole: u64) -> String {
    pct(part as f64 / whole.max(1) as f64)
}

/// A column: its header, and the cell a report puts under it.
type Col = (&'static str, fn(&RunReport) -> String);

const ENGINE: [Col; 13] = [
    ("decided", |r| decided(r).to_string()),
    ("committed", |r| r.committed.to_string()),
    ("forces", |r| r.log.forces.to_string()),
    ("forces/txn", |r| f2(per_txn(r, r.log.forces))),
    ("max batch", |r| r.log.max_force_batch.to_string()),
    ("frames", |r| r.net.frames_sent.to_string()),
    ("frames/txn", |r| f2(per_txn(r, r.net.frames_sent))),
    ("messages", |r| r.net.sent.to_string()),
    ("datagrams", |r| r.datagrams.to_string()),
    ("dgrams/txn", |r| f2(per_txn(r, r.datagrams))),
    ("wire bytes", |r| r.net.wire_bytes.to_string()),
    ("wire B/txn", |r| {
        format!("{:.1}", per_txn(r, r.net.wire_bytes))
    }),
    ("ack B saved", |r| r.vm.bytes_acked_piggyback.to_string()),
];

const PLACEMENT: [Col; 14] = [
    ("solicits", |r| r.txn.requests_sent().to_string()),
    ("solicits/txn", |r| f2(per_txn(r, r.txn.requests_sent()))),
    ("fast path", |r| r.txn.fast_path_commits().to_string()),
    ("fast-path rate", |r| {
        share(r.txn.fast_path_commits(), r.committed)
    }),
    ("hinted", |r| r.txn.hinted_solicits().to_string()),
    ("hint hits", |r| r.txn.hint_hits().to_string()),
    ("hit rate", |r| {
        share(r.txn.hint_hits(), r.txn.hinted_solicits())
    }),
    ("hints sent", |r| r.vm.hints_sent.to_string()),
    ("donations", |r| r.txn.donations().to_string()),
    ("rebalances", |r| r.txn.rebalances().to_string()),
    ("rebalance ticks", |r| {
        r.txn.sum(|s| s.rebalance_ticks).to_string()
    }),
    ("rows scanned", |r| {
        r.txn.sum(|s| s.rows_scanned).to_string()
    }),
    ("gossip refreshes", |r| {
        r.txn.sum(|s| s.gossip_refreshes).to_string()
    }),
    ("gate calls", |r| r.txn.sum(|s| s.gate_calls).to_string()),
];

/// One row per report: its name, then a cell per column.
fn table<'a>(title: String, cols: &[Col], rows: impl Iterator<Item = &'a RunReport>) -> Table {
    let header: Vec<&str> = std::iter::once("row")
        .chain(cols.iter().map(|c| c.0))
        .collect();
    let mut t = Table::new(title, &header);
    for r in rows {
        let cells = cols.iter().map(|c| (c.1)(r));
        t.row(std::iter::once(r.scenario.clone()).chain(cells).collect());
    }
    t
}

/// The seven rows' reports. Panics on a row the module doc calls
/// unsound.
fn reports(scale: Scale) -> Vec<RunReport> {
    let reports: Vec<RunReport> = scenarios(scale).into_iter().map(Scenario::run).collect();
    check(&reports);
    reports
}

/// The engine/wire table (all rows) and the placement table (DvP rows).
fn tables(scale: Scale, reports: &[RunReport]) -> Vec<Table> {
    let dvp = reports
        .iter()
        .filter(|r| !r.scenario.starts_with("trad2pc_"));
    vec![
        table(
            format!(
                "E1: log forces and wire traffic per decided transaction (8 sites, {} txns per row, seed 42)",
                txns(scale)
            ),
            &ENGINE,
            reports.iter(),
        ),
        table("E1: value placement, DvP rows".into(), &PLACEMENT, dvp),
    ]
}

/// Run E1 and return its two tables. Panics on a row the module doc
/// calls unsound.
pub fn run(scale: Scale) -> Vec<Table> {
    tables(scale, &reports(scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_simnet::stats::NetStats;

    /// `(committed, aborted, forces, wire bytes, hints sent, hinted
    /// solicits, hint hits, rebalances, rebalance ticks, rows scanned,
    /// gossip refreshes, gate calls)` of the row named `name`.
    fn fingerprint(reports: &[RunReport], name: &str) -> [u64; 12] {
        let r = reports
            .iter()
            .find(|r| r.scenario == name)
            .unwrap_or_else(|| panic!("no row {name}"));
        let t = &r.txn;
        [
            r.committed,
            r.aborted,
            r.log.forces,
            r.net.wire_bytes,
            r.vm.hints_sent,
            t.hinted_solicits(),
            t.hint_hits(),
            t.rebalances(),
            t.sum(|s| s.rebalance_ticks),
            t.sum(|s| s.rows_scanned),
            t.sum(|s| s.gossip_refreshes),
            t.sum(|s| s.gate_calls),
        ]
    }

    /// The adaptive rows are pure functions of the seed. The first eight
    /// figures were captured on the tree whose hint gate still lived in
    /// the Vm endpoint: a diff is a changed placement decision, not
    /// noise. The last four are the planner's work; the reactive default
    /// runs no rebalance timer and no gossip, so it does none.
    #[test]
    fn quick_scale_adaptive_rows_are_pinned() {
        let reports = reports(Scale::Quick);
        let tables = tables(Scale::Quick, &reports);
        assert_eq!(tables[0].len(), 7);
        assert_eq!(tables[1].len(), 5);
        let banking = fingerprint(&reports, "dvp_banking_adaptive");
        assert_eq!(
            banking,
            [1_845, 155, 7_433, 603_859, 1_871, 126, 92, 12, 786, 1_626, 328, 4_033]
        );
        // Hint flow control bounds gossip volume: the storm it replaced
        // was two orders of magnitude above this.
        assert!(banking[4] < 4_000);
        assert_eq!(
            fingerprint(&reports, "dvp_hotspot_adaptive"),
            [1_858, 142, 2_985, 84_330, 18, 112, 112, 147, 539, 324, 253, 77]
        );
        for reactive in ["dvp_banking", "dvp_airline", "dvp_hotspot"] {
            assert_eq!(fingerprint(&reports, reactive)[8..], [0; 4], "{reactive}");
        }
    }

    fn report(name: &str, wire_bytes: u64) -> RunReport {
        RunReport {
            scenario: name.into(),
            committed: 100,
            net: NetStats {
                wire_bytes,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    #[should_panic(
        expected = "dvp_banking_adaptive sends more wire bytes per transaction than dvp_banking"
    )]
    fn an_adaptive_row_one_byte_over_its_sibling_is_refused() {
        check(&[
            report("dvp_banking", 5_000),
            report("dvp_banking_adaptive", 5_001),
        ]);
    }

    #[test]
    #[should_panic(expected = "trad2pc_banking reports no wire bytes")]
    fn a_baseline_row_without_wire_bytes_is_refused() {
        check(&[report("trad2pc_banking", 0)]);
    }
}
