//! # dvp-bench — the experiment harness
//!
//! Regenerates every table and figure of the constructed evaluation (see
//! `DESIGN.md` §3 and `EXPERIMENTS.md`). One module per experiment; one
//! binary per experiment (`src/bin/exp_*.rs`); Criterion micro-benchmarks
//! under `benches/`.
//!
//! All experiments run at two scales: `quick` (seconds, used in CI and by
//! default) and `full` (the numbers recorded in `EXPERIMENTS.md`).
//! Select with the `DVP_SCALE` environment variable (`quick`/`full`).

// The alloc-audit feature needs one `unsafe impl GlobalAlloc`; every
// other configuration keeps the hard forbid.
#![cfg_attr(not(feature = "alloc-audit"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-audit", deny(unsafe_code))]
#![warn(missing_docs)]

#[cfg(feature = "alloc-audit")]
pub mod alloc_audit;
pub mod deep_queue;
pub mod exp_f1_quota;
pub mod exp_f2_readcost;
pub mod exp_f3_vm;
pub mod exp_f4_hotspot;
pub mod exp_f5_traffic;
pub mod exp_t1_availability;
pub mod exp_t2_blocking;
pub mod exp_t3_recovery;
pub mod exp_t4_conc;
pub mod exp_t5_conservation;
pub mod scenario;
pub mod sweep;
pub mod table;

mod env;

pub use env::{trace_path, BenchEnv};
pub use scenario::{EngineKind, RunReport, Scenario};
pub use sweep::{sweep, sweep_serial};
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
    /// Read from `DVP_SCALE` (default quick) via [`BenchEnv`].
    pub fn from_env() -> Scale {
        BenchEnv::from_env().scale
    }

    /// Pick `q` under quick, `f` under full.
    pub fn pick<T>(self, q: T, f: T) -> T {
        match self {
            Scale::Quick => q,
            Scale::Full => f,
        }
    }
}
