//! The benchmark against its own contract: `BENCHMARK.json` is the
//! registry rendered, and a `--smoke` run of every workload passes the
//! correctness gate and emits exactly the declared metric names.

use dvp_benchmark::metrics::{benchmark_json, end_to_end, per_layer, MetricDef};
use dvp_benchmark::workload::SPECS;
use std::collections::BTreeSet;
use std::process::Command;

#[test]
fn benchmark_json_is_the_registry_rendered() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "BENCHMARK.json is stale: regenerate it with `dvp-benchmark --describe`"
    );
    assert!(on_disk.len() <= 64 * 1024);
}

/// Metric names of a result line, in order: each sits before
/// `": {"value": `.
fn emitted_names(result: &str) -> Vec<String> {
    let pieces: Vec<&str> = result.split("\": {\"value\": ").collect();
    pieces[..pieces.len() - 1]
        .iter()
        .map(|p| p.rsplit('"').next().unwrap().to_string())
        .collect()
}

fn names(defs: Vec<MetricDef>) -> BTreeSet<String> {
    defs.into_iter().map(|d| d.name).collect()
}

#[test]
fn smoke_runs_pass_the_gate_and_emit_the_declared_names() {
    for spec in SPECS {
        for (trace, declared) in [("0", names(end_to_end())), ("1", names(per_layer()))] {
            let out = Command::new(env!("CARGO_BIN_EXE_dvp-benchmark"))
                .args(["--workload", spec.name, "--smoke", "--trace", trace])
                .output()
                .expect("run the benchmark binary");
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "{} --trace {trace} failed:\n{stdout}\n{}",
                spec.name,
                String::from_utf8_lossy(&out.stderr)
            );
            let result = stdout.lines().last().unwrap();
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": 4000, \"failed\": 0, "),
                "{result}"
            );
            let emitted = emitted_names(result);
            for n in &emitted {
                assert!(
                    n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad name {n}"
                );
            }
            let unique: BTreeSet<String> = emitted.iter().cloned().collect();
            assert_eq!(unique.len(), emitted.len(), "a name was emitted twice");
            assert_eq!(unique, declared, "{} --trace {trace}", spec.name);
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dvp-benchmark"))
            .args(args)
            .output()
            .expect("run the benchmark binary");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
