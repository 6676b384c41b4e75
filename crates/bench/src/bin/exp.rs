//! `exp [id…]` — print experiment tables (`t1`…`t5`, `f1`…`f3`, `f5`, `a1`, `e1`, `e2`;
//! no ids = all of them, which is the `EXPERIMENTS.md` refresh command).
//!
//! `cargo run --release -p dvp-bench --bin exp`
//!
//! `exp --diff <old EXPERIMENTS.md> [id…]` prints, instead of the tables,
//! every cell of them that moved against that file, one line each:
//! `block / row / column: old → new` ([`dvp_bench::diff()`]).
//!
//! When `t1` is among the ids and `DVP_TRACE=<path>` is set, the
//! representative T1 run's structured JSONL event trace is written there
//! (deterministic: same seed ⇒ byte-identical file).

use dvp_bench::{diff, exp_t1_availability, output, select, trace_path};

fn fail(msg: String) -> ! {
    eprintln!("exp: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut ids: Vec<String> = std::env::args().skip(1).collect();
    let old = match ids.first().map(String::as_str) {
        Some("--diff") => {
            let Some(path) = ids.get(1).cloned() else {
                fail("--diff needs the path of an older EXPERIMENTS.md".into());
            };
            ids.drain(..2);
            let doc = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            Some(doc)
        }
        _ => None,
    };
    let experiments = select(&ids).unwrap_or_else(|e| fail(e));
    if let Some(old) = old {
        print!("{}", diff(&old, &output(&experiments)));
        return;
    }
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
