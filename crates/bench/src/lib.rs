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
//! All experiments run at two scales: `quick` (used in CI and by default)
//! and `full` (the numbers recorded in `EXPERIMENTS.md`). Select with the
//! `DVP_SCALE` environment variable (`quick`/`full`).

// The alloc-audit feature needs one `unsafe impl GlobalAlloc`; every
// other configuration keeps the hard forbid.
#![cfg_attr(not(feature = "alloc-audit"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-audit", deny(unsafe_code))]
#![warn(missing_docs)]

#[cfg(feature = "alloc-audit")]
pub mod alloc_audit;
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

pub use scenario::{EngineKind, RunReport, Scenario};
pub use table::Table;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small: seconds per experiment; used by tests and CI.
    Quick,
    /// Full: the EXPERIMENTS.md configuration.
    Full,
}

impl Scale {
    /// Read `DVP_SCALE`: `full` or `FULL` selects [`Scale::Full`];
    /// anything else, or nothing, [`Scale::Quick`].
    pub fn from_env() -> Scale {
        Scale::named(std::env::var("DVP_SCALE").ok().as_deref())
    }

    fn named(name: Option<&str>) -> Scale {
        match name {
            Some("full" | "FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Pick `q` under quick, `f` under full.
    pub fn pick<T>(self, q: T, f: T) -> T {
        match self {
            Scale::Quick => q,
            Scale::Full => f,
        }
    }
}

/// `DVP_TRACE`: where trace-emitting binaries write their JSONL event
/// stream (unset ⇒ no trace, except `fault_campaign --replay`, which
/// defaults to a path under `target/`).
pub fn trace_path() -> Option<String> {
    std::env::var("DVP_TRACE").ok().filter(|s| !s.is_empty())
}

/// One experiment: the id `exp` takes on its command line, and the
/// tables it prints at a scale.
pub type Experiment = (&'static str, fn(Scale) -> Vec<Table>);

/// Every experiment, in `EXPERIMENTS.md` order. Each is a pure function
/// of its seeds.
pub const EXPERIMENTS: [Experiment; 12] = [
    ("t1", |s| {
        vec![
            exp_t1_availability::run(s),
            exp_t1_availability::phase_breakdown(),
        ]
    }),
    ("t2", |s| vec![exp_t2_blocking::run(s)]),
    ("t3", |s| vec![exp_t3_recovery::run(s)]),
    ("t4", |s| vec![exp_t4_conc::run(s)]),
    ("t5", |s| vec![exp_t5_conservation::run(s)]),
    ("f1", |s| vec![exp_f1_quota::run(s)]),
    ("f2", |s| vec![exp_f2_readcost::run(s)]),
    ("f3", |s| vec![exp_f3_vm::run(s)]),
    ("f5", |s| vec![exp_f5_traffic::run(s)]),
    ("a1", |s| vec![exp_a1_ablations::run(s)]),
    ("e1", exp_e1_engine::run),
    ("e2", |s| vec![exp_e2_recovery_cost::run(s)]),
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
pub fn output(experiments: &[Experiment], scale: Scale) -> String {
    experiments
        .iter()
        .flat_map(|(_, tables)| tables(scale))
        .map(|t| t.render() + "\n")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_ids_means_every_experiment_and_output_concatenates() {
        let all = select(&[]).unwrap();
        let ids: Vec<&str> = all.iter().map(|(id, _)| *id).collect();
        assert_eq!(
            ids,
            ["t1", "t2", "t3", "t4", "t5", "f1", "f2", "f3", "f5", "a1", "e1", "e2"]
        );
        let one_by_one: String = all.iter().map(|e| output(&[*e], Scale::Quick)).collect();
        assert_eq!(output(&all, Scale::Quick), one_by_one);
    }

    #[test]
    fn only_full_or_full_in_capitals_selects_full_scale() {
        assert_eq!(Scale::named(Some("full")), Scale::Full);
        assert_eq!(Scale::named(Some("FULL")), Scale::Full);
        for other in [Some("Full"), Some("quick"), Some("medium"), Some(""), None] {
            assert_eq!(Scale::named(other), Scale::Quick, "{other:?}");
        }
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
