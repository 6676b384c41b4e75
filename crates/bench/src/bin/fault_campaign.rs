//! `fault_campaign --replay seed=S config=NAME keep=I,J,... [digest=X]` —
//! rerun one (possibly shrunk) campaign of the nemesis matrix and print
//! its events, per-phase latency and verdict, writing its event trace to
//! `DVP_TRACE` (default: a file under `target/`).
//!
//! The matrix itself is experiment T5 (`exp t5`), which prints this line
//! when a campaign fails. A malformed line, an unknown config, a `keep`
//! index past the generated schedule or a digest that does not match
//! exits 1.

use dvp_bench::exp_t5_conservation::configs;
use dvp_bench::table::phase_table;
use dvp_nemesis::{run_campaign, Replay};

const USAGE: &str = "usage: fault_campaign --replay seed=S config=NAME keep=I,J,... [digest=X]\n\
                     (the campaign matrix is `exp t5`)";

fn replay(line: &str) -> Result<(), String> {
    let r = Replay::parse(line)?;
    let all = configs();
    let pc = all.iter().find(|p| p.name == r.config).ok_or_else(|| {
        let known: Vec<&str> = all.iter().map(|p| p.name).collect();
        format!("unknown config {:?}; known: {}", r.config, known.join(" "))
    })?;
    let schedule = r.schedule(&pc.schedule(r.seed))?;
    println!("replaying {} events:", schedule.events.len());
    for ev in &schedule.events {
        println!("  {ev:?}");
    }
    let seed = r.seed;
    let res = run_campaign(&pc.campaign_config(seed, true), &schedule);
    let jsonl = dvp_obs::to_jsonl(&format!("fault_campaign/{}", pc.name), seed, &res.events);
    let path = dvp_bench::trace_path()
        .unwrap_or_else(|| format!("target/fault_campaign-{}-seed{seed}.jsonl", pc.name));
    match write_trace(&path, &jsonl) {
        Ok(()) => println!("trace: {} events -> {path}", res.events.len()),
        Err(e) => eprintln!("trace: failed to write {path}: {e}"),
    }
    println!(
        "{}",
        phase_table(format!("{} replay per-phase latency", pc.name), &res.phases).render()
    );
    match &res.violation {
        Some(v) => println!("REPRODUCED: {v}"),
        None => println!("campaign passed (no violation)"),
    }
    Ok(())
}

fn write_trace(path: &str, jsonl: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, jsonl)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((flag, fields)) if flag == "--replay" => replay(&fields.join(" ")),
        _ => Err(USAGE.to_string()),
    };
    if let Err(e) = result {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
