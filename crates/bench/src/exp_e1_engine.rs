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
//! the fast-path share and value movement, then the placement planner's
//! own work — rebalance ticks fired and demand rows the tick read slot by
//! slot — counted rather than timed, so what the adaptive bookkeeping
//! costs is held by equality like every other cell.
//!
//! A third block splits `trad2pc_banking`'s traffic by message kind:
//! logical messages, the share a site handed itself in-site, the
//! messages on the wire (a batch envelope counted as its own kind) and
//! the bytes each kind declared, all per decided transaction. Its total
//! row is the engine table's frames and wire bytes, and [`run`] checks
//! that it is.
//!
//! A fourth block runs banking on a reliable net at the default link's
//! delays times 1, 5 and 10 under both engines: commits, timeout aborts
//! and DvP's retransmissions per data frame, where DvP's Vm timeouts
//! follow measured round trips and 2PC's timers are constants.
//!
//! [`run`] refuses to print an unsound table, as [`Scenario::run`]
//! already does for conservation. It panics on a `trad2pc_*` row with no
//! wire bytes (the baseline lost its kernel accounting). It also panics
//! when adaptive placement stops beating reactive on the drifting
//! hotspot, the workload it exists for: `dvp_hotspot_adaptive` must send
//! strictly fewer wire bytes and solicitations per decided transaction
//! than `dvp_hotspot`, and commit at least as many. On banking the two
//! arms are a near-tie either way, so no direction is asserted there.
//!
//! This module owns the engine rows' workloads; `alloc_steady_state`
//! audits [`banking`] and E2 crashes a site in it.

use crate::scenario::{RunReport, Scenario};
use crate::table::{f2, pct, Table};
use dvp_baselines::metrics::{KindTraffic, TradAbort};
use dvp_baselines::twopc::TradKind;
use dvp_core::{AbortReason, Placement, SiteConfig};
use dvp_simnet::network::{LinkConfig, NetworkConfig};
use dvp_simnet::time::SimDuration;
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
const TXNS: usize = 20_000;

/// The seven engine scenarios, named as their table rows.
pub fn scenarios() -> Vec<Scenario> {
    let (bank, air, hot) = (banking(TXNS), airline(TXNS), hotspot(TXNS));
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

/// Whether `a` costs strictly less than `b` per decided transaction
/// (cross-multiplied, so the comparison is exact).
fn cheaper(a: &RunReport, x: u64, b: &RunReport, y: u64) -> bool {
    x as u128 * (decided(b) as u128) < y as u128 * (decided(a) as u128)
}

/// What the table claims must hold of the rows it is built from.
fn check(reports: &[RunReport]) {
    let row = |name: &str| reports.iter().find(|r| r.scenario == name);
    if let Some(a) = row("dvp_hotspot_adaptive") {
        let r = row("dvp_hotspot").expect("dvp_hotspot_adaptive has no reactive sibling row");
        assert!(
            cheaper(a, a.net.wire_bytes, r, r.net.wire_bytes),
            "{} sends no fewer wire bytes per transaction than {}: {} B / {} txns vs {} B / {} txns",
            a.scenario,
            r.scenario,
            a.net.wire_bytes,
            decided(a),
            r.net.wire_bytes,
            decided(r),
        );
        let solicits = |x: &RunReport| x.txn.requests_sent();
        assert!(
            cheaper(a, solicits(a), r, solicits(r)),
            "{} solicits no less per transaction than {}: {} / {} txns vs {} / {} txns",
            a.scenario,
            r.scenario,
            solicits(a),
            decided(a),
            solicits(r),
            decided(r),
        );
        assert!(
            a.committed >= r.committed,
            "{} commits fewer than {}: {} vs {}",
            a.scenario,
            r.scenario,
            a.committed,
            r.committed,
        );
    }
    for r in reports {
        assert!(
            !r.scenario.starts_with("trad2pc_") || r.net.wire_bytes > 0,
            "{} reports no wire bytes: the 2PC baseline lost its kernel wire accounting",
            r.scenario
        );
        let traffic = r.trad.traffic();
        let bytes: u64 = traffic.iter().map(|t| t.wire_bytes).sum();
        let frames: u64 = logical_kinds(&traffic).map(|(_, t)| t.transmitted).sum();
        assert!(
            r.trad.sites.is_empty() || (bytes, frames) == (r.net.wire_bytes, r.net.frames_sent),
            "{}: its traffic by kind ({bytes} B, {frames} frames) is not the kernel's \
             ({} B, {} frames)",
            r.scenario,
            r.net.wire_bytes,
            r.net.frames_sent
        );
    }
}

/// The kinds that are logical messages (every kind but the batch
/// envelope), each with its traffic.
fn logical_kinds(
    traffic: &[KindTraffic; TradKind::ALL.len()],
) -> impl Iterator<Item = (TradKind, &KindTraffic)> {
    TradKind::ALL
        .into_iter()
        .zip(traffic)
        .filter(|(k, _)| *k != TradKind::Batch)
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

const PLACEMENT: [Col; 8] = [
    ("solicits", |r| r.txn.requests_sent().to_string()),
    ("solicits/txn", |r| f2(per_txn(r, r.txn.requests_sent()))),
    ("fast path", |r| r.txn.fast_path_commits().to_string()),
    ("fast-path rate", |r| {
        share(r.txn.fast_path_commits(), r.committed)
    }),
    ("donations", |r| r.txn.donations().to_string()),
    ("rebalances", |r| r.txn.rebalances().to_string()),
    ("rebalance ticks", |r| {
        r.txn.sum(|s| s.rebalance_ticks).to_string()
    }),
    ("rows scanned", |r| {
        r.txn.sum(|s| s.rows_scanned).to_string()
    }),
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
fn reports() -> Vec<RunReport> {
    let reports: Vec<RunReport> = scenarios().into_iter().map(Scenario::run).collect();
    check(&reports);
    reports
}

/// `trad2pc_banking`'s traffic by message kind, per decided transaction:
/// a row per kind that moved, the batch envelope's after, then the
/// total.
fn by_kind(reports: &[RunReport]) -> Table {
    let r = reports
        .iter()
        .find(|r| r.scenario == "trad2pc_banking")
        .expect("E1 runs trad2pc_banking");
    let mut t = Table::new(
        "E1: 2PC traffic by message kind (trad2pc_banking, per decided transaction)",
        &["kind", "logical", "in-site", "transmitted", "wire B"],
    );
    let per = |x: u64| f2(per_txn(r, x));
    let bytes = |x: u64| format!("{:.1}", per_txn(r, x));
    let traffic = r.trad.traffic();
    for (kind, k) in logical_kinds(&traffic).filter(|(_, k)| k.logical() > 0) {
        t.row(vec![
            format!("{kind:?}"),
            per(k.logical()),
            per(k.in_site),
            per(k.transmitted),
            bytes(k.wire_bytes),
        ]);
    }
    let batch = traffic[TradKind::Batch as usize];
    t.row(vec![
        "Batch (envelope)".into(),
        "-".into(),
        "-".into(),
        per(batch.transmitted),
        bytes(batch.wire_bytes),
    ]);
    let sum = |f: fn(&KindTraffic) -> u64| logical_kinds(&traffic).map(|(_, k)| f(k)).sum();
    t.row(vec![
        "total".into(),
        per(sum(KindTraffic::logical)),
        per(sum(|k| k.in_site)),
        per(sum(|k| k.transmitted)),
        bytes(traffic.iter().map(|k| k.wire_bytes).sum()),
    ]);
    t
}

/// The engine/wire table (all rows), the placement table (DvP rows) and
/// the 2PC by-kind table.
fn tables(reports: &[RunReport]) -> Vec<Table> {
    let dvp = reports
        .iter()
        .filter(|r| !r.scenario.starts_with("trad2pc_"));
    vec![
        table(
            format!(
                "E1: log forces and wire traffic per decided transaction (8 sites, {TXNS} txns per row, seed 42)"
            ),
            &ENGINE,
            reports.iter(),
        ),
        table("E1: value placement, DvP rows".into(), &PLACEMENT, dvp),
        by_kind(reports),
    ]
}

/// Transactions per row of the link-scale block.
const SCALE_TXNS: usize = 4_000;

/// Factors the default link's delays are scaled by in the link-scale
/// block.
const SCALES: [u64; 3] = [1, 5, 10];

/// The link-scale block: banking on a reliable net whose every delay is
/// the default link's times k, under both engines. DvP's retransmission
/// timeout follows the round trips each channel measures; 2PC's timers
/// are constants tuned to the default link. On a reliable net a
/// retransmission answers a frame the receiver dropped (out of order
/// behind a reordered predecessor, or under a read lease), or it is
/// spurious.
fn link_scale() -> Table {
    let bank = banking(SCALE_TXNS);
    let mut t = Table::new(
        format!(
            "E1: link scale (banking, 8 sites, {SCALE_TXNS} txns, reliable net, default link delays x k)"
        ),
        &["row", "committed", "commit rate", "timeout aborts", "retransmits / data frames"],
    );
    for k in SCALES {
        let base = LinkConfig::default();
        let scaled = |d: SimDuration| SimDuration::micros(d.as_micros() * k);
        let net = NetworkConfig {
            default_link: LinkConfig {
                delay_min: scaled(base.delay_min),
                delay_max: scaled(base.delay_max),
                ..base
            },
            ..NetworkConfig::default()
        };
        let dvp = Scenario::dvp(&bank).net(net.clone()).run();
        t.row(vec![
            format!("dvp k={k}"),
            dvp.committed.to_string(),
            pct(dvp.commit_ratio()),
            dvp.txn.aborted_for(AbortReason::Timeout).to_string(),
            format!("{} / {}", dvp.vm.retransmissions, dvp.vm.data_frames_sent),
        ]);
        let mut trad = Scenario::trad(&bank).net(net).build_trad();
        trad.sim.run_to_quiescence();
        let m = trad.metrics();
        let timeouts: u64 = m
            .sites
            .iter()
            .map(|s| s.aborted[TradAbort::Timeout as usize])
            .sum();
        t.row(vec![
            format!("2pc k={k}"),
            m.committed().to_string(),
            pct(m.commit_ratio()),
            timeouts.to_string(),
            "-".into(),
        ]);
    }
    t
}

/// Run E1 and return its tables: the seven rows' two, the 2PC by-kind
/// block, then the link-scale block. Panics on a row the module doc
/// calls unsound.
pub fn run() -> Vec<Table> {
    let mut t = tables(&reports());
    t.push(link_scale());
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_core::{ClusterMetrics, SiteMetrics};
    use dvp_simnet::stats::NetStats;

    /// `(committed, aborted, forces, wire bytes, rebalances, rebalance
    /// ticks, rows scanned)` of the row named `name`.
    fn fingerprint(reports: &[RunReport], name: &str) -> [u64; 7] {
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
            t.rebalances(),
            t.sum(|s| s.rebalance_ticks),
            t.sum(|s| s.rows_scanned),
        ]
    }

    /// The adaptive rows are pure functions of the seed: a diff is a
    /// changed placement decision, not noise. The last three figures are
    /// the planner's work; the reactive default runs no rebalance timer,
    /// so it does none.
    #[test]
    fn published_adaptive_rows_are_pinned() {
        let reports = reports();
        let tables = tables(&reports);
        assert_eq!(tables[0].len(), 7);
        assert_eq!(tables[1].len(), 5);
        assert_eq!(
            fingerprint(&reports, "dvp_banking_adaptive"),
            [18_740, 1_260, 76_744, 6_093_073, 93, 7_651, 15_059]
        );
        assert_eq!(
            fingerprint(&reports, "dvp_hotspot_adaptive"),
            [19_587, 413, 31_980, 852_346, 1_600, 5_570, 3_393]
        );
        for reactive in ["dvp_banking", "dvp_airline", "dvp_hotspot"] {
            assert_eq!(fingerprint(&reports, reactive)[4..], [0; 3], "{reactive}");
        }
    }

    /// A DvP row that committed 100 of 100 transactions.
    fn report(name: &str, wire_bytes: u64, solicits: u64) -> RunReport {
        let site = SiteMetrics {
            requests_sent: solicits,
            ..Default::default()
        };
        RunReport {
            scenario: name.into(),
            committed: 100,
            net: NetStats {
                wire_bytes,
                ..Default::default()
            },
            txn: ClusterMetrics { sites: vec![site] },
            ..Default::default()
        }
    }

    #[test]
    fn adaptive_hotspot_beating_reactive_passes_and_banking_is_not_judged() {
        check(&[
            report("dvp_hotspot", 5_000, 50),
            report("dvp_hotspot_adaptive", 4_999, 49),
            report("dvp_banking", 5_000, 50),
            report("dvp_banking_adaptive", 5_001, 51),
        ]);
    }

    #[test]
    #[should_panic(
        expected = "dvp_hotspot_adaptive sends no fewer wire bytes per transaction than dvp_hotspot"
    )]
    fn an_adaptive_hotspot_row_tying_on_wire_bytes_is_refused() {
        check(&[
            report("dvp_hotspot", 5_000, 50),
            report("dvp_hotspot_adaptive", 5_000, 49),
        ]);
    }

    #[test]
    #[should_panic(
        expected = "dvp_hotspot_adaptive solicits no less per transaction than dvp_hotspot"
    )]
    fn an_adaptive_hotspot_row_tying_on_solicits_is_refused() {
        check(&[
            report("dvp_hotspot", 5_000, 50),
            report("dvp_hotspot_adaptive", 4_999, 50),
        ]);
    }

    #[test]
    #[should_panic(expected = "dvp_hotspot_adaptive commits fewer than dvp_hotspot: 99 vs 100")]
    fn an_adaptive_hotspot_row_committing_less_is_refused() {
        let mut adaptive = report("dvp_hotspot_adaptive", 4_000, 40);
        adaptive.committed = 99;
        adaptive.aborted = 1;
        check(&[report("dvp_hotspot", 5_000, 50), adaptive]);
    }

    #[test]
    #[should_panic(expected = "trad2pc_banking reports no wire bytes")]
    fn a_baseline_row_without_wire_bytes_is_refused() {
        check(&[report("trad2pc_banking", 0, 0)]);
    }
}
