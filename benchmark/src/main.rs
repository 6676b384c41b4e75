//! The repo benchmark's one command. See `README.md` beside this crate.
//!
//! ```text
//! dvp-benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//!               [--reps N] [--smoke]
//! dvp-benchmark                 # every workload, both passes, in turn
//! dvp-benchmark --describe      # print BENCHMARK.json from the registry
//! ```
//!
//! Every timed rep runs in a process of its own: the command re-runs
//! itself with `--one-rep` (an internal flag) and reads back one line.

use dvp_benchmark::alloc_count::CountingAlloc;
use dvp_benchmark::ledger::{self, TraceFacts};
use dvp_benchmark::metrics::{self, ratio, Values, RUN_SECONDS};
use dvp_benchmark::rep::{self, Fingerprint, Rep, SumCount, Timed};
use dvp_benchmark::stats::Summary;
use dvp_benchmark::workload::{self, Spec, SPECS};
use std::process::{Command, ExitCode};
use std::time::Duration;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Timed reps below which a median is not worth reporting.
const MIN_TIMED_REPS: usize = 7;
/// Untraced reps behind the ledger's median wall (it is never used for
/// an end-to-end host-time metric).
const LEDGER_REPS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    reps: Option<usize>,
    smoke: bool,
    describe: bool,
    one_rep: bool,
}

impl Args {
    /// Scripted transactions: the workload's own count, or the smoke size.
    fn txns(&self, spec: &Spec) -> usize {
        if self.smoke {
            2_000
        } else {
            spec.txns
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        reps: None,
        smoke: false,
        describe: false,
        one_rep: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |s: String| s.parse::<u64>().map_err(|e| format!("{flag} {s}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?,
            "--reps" => a.reps = Some(number(value()?)?.max(1) as usize),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--smoke" => a.smoke = true,
            "--describe" => a.describe = true,
            "--one-rep" => a.one_rep = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// The correctness gate: collects every violation of every rep, and
/// holds all reps of the workload to one fingerprint.
struct Gate {
    expected: Option<Fingerprint>,
    violations: Vec<String>,
}

impl Gate {
    fn admit_rep(&mut self, label: &str, rep: &Rep) {
        for v in &rep.violations {
            self.violations.push(format!("{label}: {v}"));
        }
        self.admit(label, rep.timed.fingerprint, rep.timed.scripted);
    }

    fn admit(&mut self, label: &str, f: Fingerprint, scripted: u64) {
        if f.committed + f.aborted > scripted {
            self.violations.push(format!(
                "{label}: {} decided of {scripted} scripted",
                f.committed + f.aborted,
            ));
        }
        match self.expected {
            None => self.expected = Some(f),
            Some(first) if first != f => self.violations.push(format!(
                "{label}: not deterministic: {f:?} differs from the first rep's {first:?}"
            )),
            Some(_) => {}
        }
    }
}

fn print_values(values: &Values) {
    for (d, v) in values.finish() {
        let dir = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let bound = d
            .bound
            .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
        println!(
            "  {:<34} {v:>16.4} {:<9} ({dir} is better; {:?}){bound}",
            d.name, d.unit, d.source
        );
    }
}

/// Child mode: run exactly one untraced rep and report it on one line.
fn run_one_rep(spec: &Spec, args: &Args) -> ExitCode {
    let r = rep::run(spec, args.seed, args.txns(spec), false);
    for v in &r.violations {
        eprintln!("correctness gate: {v}");
    }
    println!("{}", r.timed.to_line());
    if r.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one timed rep in a process of its own and collect its report.
fn spawn_rep(spec: &Spec, args: &Args) -> Result<Timed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("path of this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--one-rep", "--workload", spec.name])
        .args(["--seed", &args.seed.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // stderr is inherited: a failing audit explains itself there.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn a rep: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = stdout.lines().find_map(Timed::parse);
    match (out.status.success(), report) {
        (true, Some(t)) => Ok(t),
        (false, _) => Err(format!("failed its audit ({})", out.status)),
        (true, None) => Err("printed no report".to_string()),
    }
}

fn run_one(spec: &Spec, args: &Args) -> ExitCode {
    let txns = args.txns(spec);
    let budget = Duration::from_secs(args.seconds);
    let mut gate = Gate {
        expected: None,
        violations: Vec::new(),
    };
    println!(
        "workload {} seed {} ({txns} scripted transactions; {})",
        spec.name, args.seed, spec.why
    );

    // Timed reps, each in a fresh process. The first is a discarded
    // warm-up; then, for the end-to-end pass, as many as fit in
    // `--seconds`, and for the ledger pass just enough for a median wall
    // to scale the drivers' unit costs by.
    let min_reps = args.reps.unwrap_or(match (args.smoke, args.trace) {
        (true, _) => 2,
        (false, true) => LEDGER_REPS,
        (false, false) => MIN_TIMED_REPS,
    });
    let timed_budget = if args.trace || args.smoke || args.reps.is_some() {
        Duration::ZERO
    } else {
        budget
    };
    let mut reps: Vec<Timed> = Vec::new();
    let mut spent = Duration::ZERO;
    while reps.len() < 1 + min_reps || spent < timed_budget {
        let label = match reps.len() {
            0 => "warm-up".to_string(),
            n => format!("timed rep {n}"),
        };
        match spawn_rep(spec, args) {
            Ok(t) => {
                gate.admit(&label, t.fingerprint, t.scripted);
                if !reps.is_empty() {
                    spent += Duration::from_secs_f64(t.wall_s);
                }
                reps.push(t);
            }
            Err(e) => {
                eprintln!("correctness gate: {label}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (warm_up, timed) = reps.split_first().expect("warm-up plus timed reps");
    let column = |f: fn(&Timed) -> f64| Summary::of(&timed.iter().map(f).collect::<Vec<_>>());
    let wall = column(|t| t.wall_s);
    let setup = column(|t| t.setup_s);
    let generate = column(|t| t.generate_s);
    let peak_rss = column(|t| t.peak_rss_mb);
    let last = timed.last().expect("at least one timed rep");
    let scripted = last.scripted;

    // The traced rep, in this process: exact latencies and the span
    // stream. Virtual results must not depend on tracing, so it faces
    // the same gate as the timed reps.
    let traced = rep::run(spec, args.seed, txns, true);
    gate.admit_rep("traced rep", &traced);
    let facts = TraceFacts::of(&traced.events);
    let traced_wall_s = traced.timed.wall_s;
    drop(traced); // the event buffer is the largest thing this process holds
    let from_trace = SumCount {
        sum: facts.commit_latency_sum,
        count: facts.commit_latencies.len() as u64,
    };
    if from_trace != last.commit_latency {
        gate.violations.push(format!(
            "commit latency from the trace {from_trace:?} differs from the untraced histogram's {:?}",
            last.commit_latency
        ));
    }

    let f = last.fingerprint;
    println!(
        "  outcome: {} committed, {} aborted, {} undecided, {} still blocked; {} commit-latency samples",
        f.committed,
        f.aborted,
        scripted - f.committed - f.aborted,
        last.still_blocked,
        facts.commit_latencies.len()
    );
    let bound = metrics::end_to_end()
        .into_iter()
        .find(|d| d.name == "txns_per_s")
        .and_then(|d| d.bound)
        .expect("txns_per_s carries a bound");
    println!(
        "  timed wall: {} reps, median {:.4} s, quartiles {:.4}..{:.4}, min {:.4}, max {:.4}, IQR {:.2}% of median{}; warm-up {:.2}x median",
        wall.n,
        wall.median,
        wall.q1,
        wall.q3,
        wall.min,
        wall.max,
        100.0 * wall.iqr_share(),
        if wall.iqr_share() > bound {
            " (unresolved: wider than the txns_per_s bound)"
        } else {
            ""
        },
        warm_up.wall_s / wall.median,
    );

    let walls: Vec<String> = timed.iter().map(|t| format!("{:.4}", t.wall_s)).collect();
    println!("  timed walls in order, s: {}", walls.join(" "));

    let values = if args.trace {
        // A second in-process rep, untraced, for the counters and the
        // allocation count (its wall is not used: the heap is no longer
        // fresh).
        let counted = rep::run(spec, args.seed, txns, false);
        gate.admit_rep("counted rep", &counted);
        let slice = if args.smoke {
            Duration::from_millis(50)
        } else {
            budget / 20
        };
        let ledger = ledger::assemble(
            spec,
            &counted,
            wall.median,
            generate.median,
            traced_wall_s,
            &facts,
            slice,
        );
        match ledger.vm_mix {
            Some(m) => println!(
                "  measured Vm mix: {} B payload, {} frames per datagram",
                m.payload_len, m.frames_per_datagram
            ),
            None => println!("  measured Vm mix: none (no Vm was created)"),
        }
        println!(
            "  measured log mix: {} B per record, {} records per force",
            ledger.log_mix.record_bytes, ledger.log_mix.records_per_force
        );
        for line in &ledger.drivers {
            match line.timing {
                Some(t) => println!(
                    "  driver {:<42} {:>9.1} ns/op over {:>10} ops in {:.3} s",
                    line.name, t.ns_per_op, t.ops, t.total_s
                ),
                None => println!("  driver {:<42} skipped (layer idle in the rep)", line.name),
            }
        }
        ledger.values
    } else {
        let mut v = Values::new(metrics::end_to_end());
        v.set("setup_s", setup.median);
        v.set("txns_per_s", scripted as f64 / wall.median);
        v.set("peak_rss_mb", peak_rss.median);
        v.set("commit_p99_us", facts.commit_percentile_us(99.0) as f64);
        v.set("commit_mean_us", facts.commit_mean_us());
        v.set(
            "failed_share",
            ratio((scripted - f.committed) as f64, scripted as f64),
        );
        v.set(
            "wire_bytes_per_txn",
            ratio(f.wire_bytes as f64, scripted as f64),
        );
        v.set("forces_per_txn", ratio(f.forces as f64, scripted as f64));
        v
    };
    print_values(&values);

    for v in &gate.violations {
        eprintln!("correctness gate: {v}");
    }
    let correct = gate.violations.is_empty();
    // An operation is a scripted transaction of a timed rep. It fails
    // when the program leaves it blocked; an abort or an arrival lost
    // with a crashed site is a defined outcome, counted in failed_share.
    let attempted = scripted * timed.len() as u64;
    let failed: u64 = timed.iter().map(|t| t.still_blocked).sum();
    println!(
        "{}",
        metrics::result_json(correct, attempted, failed, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, end-to-end pass then ledger pass, one process each
/// (peak RSS is per process).
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut ok = true;
    for spec in &SPECS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if let Some(n) = args.reps {
                cmd.args(["--reps", &n.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().expect("run one workload");
            ok &= status.success();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dvp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        None => run_all(&args),
        Some(name) => match workload::spec(name) {
            Some(spec) if args.one_rep => run_one_rep(spec, &args),
            Some(spec) => run_one(spec, &args),
            None => {
                let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                eprintln!("dvp-benchmark: unknown workload {name}; one of {names:?}");
                ExitCode::from(2)
            }
        },
    }
}
