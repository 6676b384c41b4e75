//! **E2 — What a crash costs to redo, against the checkpoint interval.**
//!
//! Claim (Section 7): a recovering site redoes its own log, and "by
//! using checkpointing mechanisms, the number of redo actions required
//! can be reduced in the usual manner". A checkpoint is a snapshot in the
//! site's two-slot store plus a redo point; the log keeps records back to
//! the *older* slot's redo point, so a rotten newest slot can fall back
//! one generation. What a crash replays, and what the log holds, should
//! then be bounded by about two checkpoint windows — not by how long the
//! site has run — and checkpointing should be invisible to the protocol.
//!
//! E1's banking script (8 sites, 16 accounts, seed 42) runs to quiescence
//! while site 3 crashes at 50 % of the arrival span and recovers at 60 %.
//! Rows: `checkpoint_every` none, 64, 256 (the default) and 1024.
//! Columns: commits, forces per decided transaction, checkpoints taken,
//! log records site 3's recovery redid, and the durable log bytes all
//! sites retain at harvest.

use crate::exp_e1_engine::banking;
use crate::scenario::Scenario;
use crate::table::{f2, Table};
use dvp_core::{FaultPlan, SiteConfig};
use dvp_simnet::time::SimTime;

/// The site that crashes.
const VICTIM: usize = 3;

/// Checkpoint intervals, in table order (`None` = never).
const INTERVALS: [Option<usize>; 4] = [None, Some(64), Some(256), Some(1024)];

/// `percent` of the way through `span`.
fn at(span: SimTime, percent: u64) -> SimTime {
    SimTime(span.micros() / 100 * percent)
}

/// Run E2 and return the table.
pub fn run() -> Table {
    let txns = 20_000;
    let w = banking(txns);
    let span = w
        .scripts
        .iter()
        .filter_map(|s| s.last())
        .map(|&(t, _)| t)
        .max()
        .unwrap_or(SimTime::ZERO);
    let faults = FaultPlan::none()
        .crash(at(span, 50), VICTIM)
        .recover(at(span, 60), VICTIM);
    let mut t = Table::new(
        format!(
            "E2: recovery cost against checkpoint interval (banking, 8 sites, {txns} txns, \
             seed 42; site {VICTIM} down from 50 % to 60 % of the span)"
        ),
        &[
            "checkpoint every",
            "committed",
            "forces/txn",
            "checkpoints",
            "replayed at recovery",
            "retained log KB",
        ],
    );
    for every in INTERVALS {
        let site = SiteConfig {
            checkpoint_every: every,
            ..SiteConfig::default()
        };
        let mut cl = Scenario::dvp(&w)
            .site(site)
            .faults(faults.clone())
            .build_dvp();
        cl.run_to_quiescence();
        cl.auditor()
            .check_conservation()
            .expect("conservation must hold in every experiment");
        let stats = cl.stats();
        let m = &stats.txn;
        let decided = m.committed() + m.aborted();
        let checkpoints = m.sum(|s| s.checkpoints);
        let retained: usize = cl
            .sim
            .nodes()
            .iter()
            .map(|s| s.log().stable_image_len())
            .sum();
        t.row(vec![
            every.map_or_else(|| "none".into(), |n| n.to_string()),
            m.committed().to_string(),
            f2(stats.log.forces as f64 / decided.max(1) as f64),
            checkpoints.to_string(),
            m.sites[VICTIM].records_replayed.to_string(),
            format!("{:.1}", retained as f64 / 1024.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checkpointing changes what recovery costs, never what commits: a
    /// shorter interval takes more checkpoints and leaves no more to redo
    /// or to retain.
    #[test]
    fn shorter_intervals_bound_the_redo_and_change_no_outcome() {
        let t = run();
        assert_eq!(t.len(), INTERVALS.len());
        let num = |r: usize, c: usize| -> f64 { t.cell(r, c).parse().unwrap() };
        // Table order is none, 64, 256, 1024: walk from none down to 64.
        for (longer, shorter) in [(0, 3), (3, 2), (2, 1)] {
            let rows = format!("rows {longer} → {shorter}");
            assert_eq!(t.cell(shorter, 1), t.cell(longer, 1), "{rows}: committed");
            assert!(num(shorter, 3) > num(longer, 3), "{rows}: checkpoints");
            assert!(num(shorter, 4) <= num(longer, 4), "{rows}: replayed");
            assert!(num(shorter, 5) <= num(longer, 5), "{rows}: retained");
        }
        assert!(num(1, 4) < num(0, 4) && num(1, 5) < num(0, 5));
    }
}
