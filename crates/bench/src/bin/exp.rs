//! `exp [id…]` — print experiment tables (`t1`…`t5`, `f1`…`f3`, `f5`, `a1`, `e1`, `e2`;
//! no ids = all of them, which is the `EXPERIMENTS.md` refresh command).
//!
//! `cargo run --release -p dvp-bench --bin exp`
//!
//! When `t1` is among the ids and `DVP_TRACE=<path>` is set, the
//! representative T1 run's structured JSONL event trace is written there
//! (deterministic: same seed ⇒ byte-identical file).

use dvp_bench::{exp_t1_availability, output, select, trace_path};

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let experiments = select(&ids).unwrap_or_else(|e| {
        eprintln!("exp: {e}");
        std::process::exit(2);
    });
    print!("{}", output(&experiments));
    if !experiments.iter().any(|(id, _)| *id == "t1") {
        return;
    }
    if let Some(path) = trace_path() {
        let report = exp_t1_availability::traced_representative();
        match std::fs::write(&path, report.trace_jsonl()) {
            Ok(()) => println!("trace: {} events -> {path}", report.events.len()),
            Err(e) => eprintln!("trace: failed to write {path}: {e}"),
        }
    }
}
