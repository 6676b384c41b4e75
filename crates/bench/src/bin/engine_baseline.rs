//! The adaptive-vs-reactive wall-clock floor: times the two scenario
//! pairs `scripts/engine_guard.py` compares and writes them to
//! `BENCH_engine.json` (path overridable as `argv[1]`).
//!
//! Everything deterministic about these runs — forces, frames, wire
//! bytes, the placement counters, and the 2PC and airline rows — is
//! table `E1` (`exp e1`, `dvp_bench::exp_e1_engine`), held to
//! `EXPERIMENTS.md` by equality. Throughput and allocations per
//! transaction with run-to-run spread come from `benchmark/`. What is
//! left here is `txns_per_sec`: decided transactions per wall-clock
//! second of a closed-loop run to quiescence, fastest of `DVP_TIME_REPS`
//! repeats (default 3). The simulation is deterministic — every repeat
//! decides the same transactions and sends the same bytes — so repeats
//! differ only by scheduler/cache noise and the minimum is the robust
//! estimator.
//!
//! Scale via `DVP_SCALE=quick|full`; compare runs at identical scales
//! only.

use dvp_bench::{exp_e1_engine, Scale, Scenario};
use std::fmt::Write as _;
use std::time::Instant;

/// The `E1` rows the guard's floor reads: each `*_adaptive` row and its
/// reactive sibling.
const TIMED: [&str; 4] = [
    "dvp_banking",
    "dvp_banking_adaptive",
    "dvp_hotspot",
    "dvp_hotspot_adaptive",
];

/// How many timed repeats each scenario gets (`DVP_TIME_REPS=n`, e.g.
/// `1` for a smoke run); each row reports the fastest.
fn time_reps() -> usize {
    std::env::var("DVP_TIME_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3)
}

/// One timed closed-loop run: `(decided, wall seconds)`.
fn time(sc: &Scenario) -> (u64, f64) {
    let mut cl = sc.build_dvp();
    let t = Instant::now();
    cl.run_to_quiescence();
    let wall_secs = t.elapsed().as_secs_f64();
    let m = cl.stats().txn;
    (m.committed() + m.aborted(), wall_secs)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let scale = Scale::from_env();
    let timed: Vec<Scenario> = exp_e1_engine::scenarios(scale)
        .into_iter()
        .filter(|sc| TIMED.contains(&sc.name.as_str()))
        .collect();

    // Rep-major timing passes: each pass times every scenario once and
    // each row keeps its fastest wall clock. Timing A, B, …, A, B, …
    // (rather than A, A, …, then B, B, …) puts paired scenarios in the
    // same machine window on every pass, so the cross-row ratio the guard
    // checks is not skewed by frequency or contention drift between
    // windows.
    let mut rows: Vec<(u64, f64)> = timed.iter().map(time).collect();
    for _ in 1..time_reps() {
        for (row, sc) in rows.iter_mut().zip(&timed) {
            row.1 = row.1.min(time(sc).1);
        }
    }

    let mut json = String::from("{\n  \"scenarios\": [\n");
    for (i, (sc, &(decided, wall_secs))) in timed.iter().zip(&rows).enumerate() {
        let txns_per_sec = decided as f64 / wall_secs.max(1e-9);
        println!(
            "{:<22} {decided:>7} decided  {wall_secs:>8.3} s  {txns_per_sec:>10.0} txns/s",
            sc.name
        );
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"decided\": {decided}, \"wall_secs\": {wall_secs:.6}, \
             \"txns_per_sec\": {txns_per_sec:.0}}}",
            sc.name
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"scale\": \"{}\"\n}}\n",
        scale.pick("quick", "full")
    );
    std::fs::write(&out_path, json).expect("write BENCH_engine.json");
    println!("wrote {out_path}");
}
