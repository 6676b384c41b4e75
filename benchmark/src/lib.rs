//! # dvp-benchmark — the repo benchmark
//!
//! Four long-run workloads, end-to-end metrics with regression bounds,
//! and an outside-in per-layer ledger. `README.md` beside this crate
//! documents every metric, workload and formula; `BENCHMARK.json` at the
//! repo root is [`metrics::benchmark_json`] rendered.

#![warn(missing_docs)]

pub mod alloc_count;
pub mod drivers;
pub mod ledger;
pub mod metrics;
pub mod rep;
pub mod stats;
pub mod workload;
