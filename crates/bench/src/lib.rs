//! # dvp-bench — the experiment harness
//!
//! Regenerates every table of the constructed evaluation (see `DESIGN.md`
//! §3 and `EXPERIMENTS.md`). One module per experiment, listed in
//! [`EXPERIMENTS`]; one binary, `exp [id…]`, prints them ([`output`]).
//! `EXPERIMENTS.md` quotes the full-scale tables and
//! `tests/experiments_md.rs` holds it to them by equality. Wall-clock
//! figures are not produced here: they come from `benchmark/`. What the
//! adaptive planner costs is counted instead, in [`exp_e1_engine`]'s
//! planner-work columns.
//!
//! Each experiment runs one configuration, the one `EXPERIMENTS.md`
//! quotes; its unit tests assert the table's claims on that same run.

// The alloc-audit feature needs one `unsafe impl GlobalAlloc`; every
// other configuration keeps the hard forbid.
#![cfg_attr(not(feature = "alloc-audit"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-audit", deny(unsafe_code))]
#![warn(missing_docs)]

#[cfg(feature = "alloc-audit")]
pub mod alloc_audit;
pub mod diff;
pub mod exp_a1_ablations;
pub mod exp_e1_engine;
pub mod exp_e2_recovery_cost;
pub mod exp_f1_quota;
pub mod exp_f2_readcost;
pub mod exp_f3_vm;
pub mod exp_f5_traffic;
pub mod exp_t1_availability;
pub mod exp_t2_blocking;
pub mod exp_t3_recovery;
pub mod exp_t4_conc;
pub mod exp_t5_conservation;
pub mod scenario;
pub mod table;

pub use diff::diff;
pub use scenario::{EngineKind, RunReport, Scenario};
pub use table::Table;

/// `DVP_TRACE`: where trace-emitting binaries write their JSONL event
/// stream (unset ⇒ no trace, except `fault_campaign --replay`, which
/// defaults to a path under `target/`).
pub fn trace_path() -> Option<String> {
    std::env::var("DVP_TRACE").ok().filter(|s| !s.is_empty())
}

/// One experiment: the id `exp` takes on its command line, and the
/// tables it prints.
pub type Experiment = (&'static str, fn() -> Vec<Table>);

/// Every experiment, in `EXPERIMENTS.md` order. Each is a pure function
/// of its seeds.
pub const EXPERIMENTS: [Experiment; 12] = [
    ("t1", || {
        vec![
            exp_t1_availability::run(),
            exp_t1_availability::phase_breakdown(),
        ]
    }),
    ("t2", || vec![exp_t2_blocking::run()]),
    ("t3", || vec![exp_t3_recovery::run()]),
    ("t4", || vec![exp_t4_conc::run()]),
    ("t5", exp_t5_conservation::run),
    ("f1", || vec![exp_f1_quota::run()]),
    ("f2", || vec![exp_f2_readcost::run()]),
    ("f3", || vec![exp_f3_vm::run()]),
    ("f5", || vec![exp_f5_traffic::run()]),
    ("a1", || vec![exp_a1_ablations::run()]),
    ("e1", exp_e1_engine::run),
    ("e2", || vec![exp_e2_recovery_cost::run()]),
];

/// Resolve `exp`'s arguments to experiments: none means all of them, in
/// order; an unknown id is an error naming the known ones.
pub fn select(ids: &[String]) -> Result<Vec<Experiment>, String> {
    if ids.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    ids.iter()
        .map(|id| {
            EXPERIMENTS
                .iter()
                .find(|(known, _)| known == id)
                .copied()
                .ok_or_else(|| {
                    let known: Vec<&str> = EXPERIMENTS.iter().map(|(k, _)| *k).collect();
                    format!("unknown experiment {id:?}; known: {}", known.join(" "))
                })
        })
        .collect()
}

/// What `exp` prints for `experiments`: each table rendered, each
/// followed by a blank line — so the output for a list is the
/// concatenation of the outputs for its members.
pub fn output(experiments: &[Experiment]) -> String {
    experiments
        .iter()
        .flat_map(|(_, tables)| tables())
        .map(|t| t.render() + "\n")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_ids_means_every_experiment_and_output_concatenates() {
        let ids: Vec<&str> = select(&[]).unwrap().iter().map(|(id, _)| *id).collect();
        assert_eq!(
            ids,
            ["t1", "t2", "t3", "t4", "t5", "f1", "f2", "f3", "f5", "a1", "e1", "e2"]
        );
        // Two stand-ins, so no experiment runs here: `tests/experiments_md.rs`
        // renders all twelve.
        let pair: [Experiment; 2] = [("x", || vec![Table::new("X", &["a"]); 2]); 2];
        let one_by_one: String = pair.iter().map(|e| output(&[*e])).collect();
        assert_eq!(output(&pair), one_by_one);
    }

    #[test]
    fn ids_select_in_the_order_given_and_unknown_ids_are_refused() {
        let picked = select(&["f5".into(), "t2".into()]).unwrap();
        let ids: Vec<&str> = picked.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, ["f5", "t2"]);
        let err = select(&["t9".into()]).unwrap_err();
        assert!(err.contains("\"t9\"") && err.contains("t1 t2"), "{err}");
    }
}
