//! One repetition of a workload: generate the script, build a fresh
//! cluster (both untimed, counted as set-up), time the run, then audit
//! the result and harvest every public counter.

use crate::alloc_count::alloc_events;
use crate::workload::{Engine, Spec};
use dvp_core::AbortReason;
use dvp_obs::{Event, Hist, PhaseHists};
use dvp_simnet::stats::NetStats;
use dvp_storage::{LogStats, Record, StableLog};
use dvp_vmsg::VmStats;
use std::time::Instant;

/// What every rep of one workload must reproduce exactly — the run is a
/// deterministic simulation, so any difference between two reps (traced
/// or not) is a bug in the program or in the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Transactions committed.
    pub committed: u64,
    /// Transactions that reached an abort decision.
    pub aborted: u64,
    /// Stable-log forces, cluster-wide.
    pub forces: u64,
    /// Bytes handed to the simulated wire.
    pub wire_bytes: u64,
    /// Events the simulation kernel processed.
    pub events_processed: u64,
}

/// `(sum, count)` of one exact latency histogram, in virtual µs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SumCount {
    /// Sum of samples.
    pub sum: u64,
    /// Number of samples.
    pub count: u64,
}

impl SumCount {
    fn of(h: Option<&Hist>) -> SumCount {
        h.map_or_else(SumCount::default, |h| SumCount {
            sum: h.sum(),
            count: h.count(),
        })
    }

    /// Exact mean; 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// `dvp-core` counters (all zero on the 2PC workload).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreCounts {
    /// Commits that never left their home site.
    pub fast_path: u64,
    /// Solicitation requests sent.
    pub solicits: u64,
    /// Solicitations a donor declined (locked / stale / outstanding read).
    pub declines: u64,
    /// Solicitations honoured with a donation.
    pub donations: u64,
    /// Aborts per [`AbortReason::ALL`] entry.
    pub aborted_for: [u64; AbortReason::ALL.len()],
    /// `solicit` phase: start → first credit.
    pub solicit: SumCount,
    /// `gather` phase: first credit → commit.
    pub gather: SumCount,
    /// Solicitations aimed at one hint-advertised peer.
    pub hinted_solicits: u64,
    /// Hinted solicitations the advertised donor answered.
    pub hint_hits: u64,
    /// Rebalance transfers shipped.
    pub rebalances: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
}

/// `dvp-baselines` counters (all zero on the DvP workloads).
#[derive(Clone, Copy, Debug, Default)]
pub struct TradCounts {
    /// Protocol messages sent (locks, votes, decisions, queries).
    pub msgs: u64,
    /// Longest completed in-doubt window, virtual µs.
    pub in_doubt_us_max: u64,
}

/// What a timed rep reports to the process that spawned it: each timed
/// rep runs in a process of its own (see `README.md`, "Run shape"), and
/// this is the one line it prints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// Wall seconds to generate the script.
    pub generate_s: f64,
    /// Wall seconds of set-up: generate + build the cluster.
    pub setup_s: f64,
    /// Wall seconds of the timed run.
    pub wall_s: f64,
    /// Peak resident set of the process when the timed run ended, MB.
    pub peak_rss_mb: f64,
    /// Transactions in the script.
    pub scripted: u64,
    /// The exactly-repeatable outcome.
    pub fingerprint: Fingerprint,
    /// Transactions still in flight (DvP) or in doubt (2PC) at harvest.
    pub still_blocked: u64,
    /// Exact commit-latency sum and count from the engine's histogram.
    pub commit_latency: SumCount,
}

/// Everything one rep measured: the [`Timed`] summary plus every public
/// counter the ledger reads.
#[derive(Clone, Debug)]
pub struct Rep {
    /// The part a timed rep reports across the process boundary.
    pub timed: Timed,
    /// Allocation events during the timed run.
    pub allocs: u64,
    /// Items in the catalog.
    pub items: u64,
    /// Simulation-kernel counters.
    pub net: NetStats,
    /// Stable-log counters, cluster-wide.
    pub log: LogStats,
    /// Records and bytes the stable images hold at harvest (after any
    /// checkpoint truncation): their ratio is the mean record size.
    pub log_retained: (u64, u64),
    /// Vm-layer counters, cluster-wide.
    pub vm: VmStats,
    /// Transaction-engine counters.
    pub core: CoreCounts,
    /// Baseline-engine counters.
    pub trad: TradCounts,
    /// The obs event stream (empty unless traced).
    pub events: Vec<Event>,
    /// Correctness-gate failures (empty when the rep is sound).
    pub violations: Vec<String>,
}

fn retained<'a, R: Record + 'a>(logs: impl Iterator<Item = &'a StableLog<R>>) -> (u64, u64) {
    logs.fold((0, 0), |(records, bytes), log| {
        (
            records + log.stable_len() as u64,
            bytes + log.stable_image_len() as u64,
        )
    })
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

fn phase(p: &PhaseHists, name: &str) -> SumCount {
    SumCount::of(p.get(name))
}

/// What the timed section of a rep measured.
struct Run {
    setup_s: f64,
    wall_s: f64,
    allocs: u64,
    peak_rss_mb: f64,
}

/// Time `run`; everything since `t0` before it counts as set-up.
fn timed(t0: Instant, run: impl FnOnce()) -> Run {
    let setup_s = t0.elapsed().as_secs_f64();
    let allocs0 = alloc_events();
    let t = Instant::now();
    run();
    let wall_s = t.elapsed().as_secs_f64();
    Run {
        setup_s,
        wall_s,
        allocs: alloc_events() - allocs0,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// What an engine's cluster yields after the run, beyond the kernel and
/// log counters both engines share.
struct Harvest {
    committed: u64,
    aborted: u64,
    still_blocked: u64,
    commit_latency: Hist,
    net: NetStats,
    log: LogStats,
    log_retained: (u64, u64),
    vm: VmStats,
    core: CoreCounts,
    trad: TradCounts,
    events: Vec<Event>,
    violations: Vec<String>,
}

/// Run one rep of `spec` on the script `seed` generates.
pub fn run(spec: &Spec, seed: u64, txns: usize, trace: bool) -> Rep {
    let t0 = Instant::now();
    let w = spec.generate(seed, txns);
    let generate_s = t0.elapsed().as_secs_f64();
    let scenario = spec.scenario(&w, trace);
    let until = scenario.until;
    let mut violations = Vec::new();

    let (run, h) = match spec.engine {
        Engine::Dvp => {
            let mut cl = scenario.build_dvp();
            let run = timed(t0, || match until {
                Some(deadline) => cl.run_until(deadline),
                None => cl.run_to_quiescence(),
            });
            let stats = cl.stats();
            let m = &stats.txn;
            if let Err(e) = cl.auditor().check_conservation() {
                violations.push(format!("conservation: {e}"));
            }
            if let Err(e) = cl.auditor().check_reads(m) {
                violations.push(format!("read exactness: {e}"));
            }
            let still_blocked: u64 = cl.sim.nodes().iter().map(|s| s.active_txns() as u64).sum();
            if still_blocked != 0 {
                violations.push(format!("{still_blocked} transactions still blocked"));
            }
            let phases = m.phases();
            let mut aborted_for = [0; AbortReason::ALL.len()];
            for (slot, reason) in aborted_for.iter_mut().zip(AbortReason::ALL) {
                *slot = m.aborted_for(reason);
            }
            let h = Harvest {
                committed: m.committed(),
                aborted: m.aborted(),
                still_blocked,
                commit_latency: m.commit_latency(),
                net: *cl.sim.stats(),
                log: stats.log,
                log_retained: retained(cl.sim.nodes().iter().map(|s| s.log())),
                vm: stats.vm,
                core: CoreCounts {
                    fast_path: m.fast_path_commits(),
                    solicits: m.requests_sent(),
                    declines: m.sites.iter().map(|s| s.requests_ignored).sum(),
                    donations: m.donations(),
                    aborted_for,
                    solicit: phase(&phases, "solicit"),
                    gather: phase(&phases, "gather"),
                    hinted_solicits: m.hinted_solicits(),
                    hint_hits: m.hint_hits(),
                    rebalances: m.rebalances(),
                    checkpoints: m.sites.iter().map(|s| s.checkpoints).sum(),
                },
                trad: TradCounts::default(),
                events: cl.obs().take(),
                violations,
            };
            (run, h)
        }
        Engine::Trad2pc => {
            let mut cl = scenario.build_trad();
            let deadline = until.expect("the 2PC scenario always has a horizon");
            let run = timed(t0, || cl.run_until(deadline));
            let m = cl.metrics();
            if let Err(e) = cl.check_decision_consistency() {
                violations.push(format!("decision consistency: {e}"));
            }
            if let Err(e) = cl.check_replica_convergence() {
                violations.push(format!("replica convergence: {e}"));
            }
            let mut commit_latency = Hist::new();
            for s in &m.sites {
                commit_latency.merge(&s.commit_latency);
            }
            let h = Harvest {
                committed: m.committed(),
                aborted: m.aborted(),
                still_blocked: m.still_blocked() as u64,
                commit_latency,
                net: *cl.sim.stats(),
                log: cl.log_stats(),
                log_retained: retained(cl.sim.nodes().iter().map(|s| s.log())),
                vm: VmStats::default(),
                core: CoreCounts::default(),
                trad: TradCounts {
                    msgs: m.messages_sent(),
                    in_doubt_us_max: m.max_in_doubt_us(),
                },
                events: cl.sim.obs().take(),
                violations,
            };
            (run, h)
        }
    };

    Rep {
        timed: Timed {
            generate_s,
            setup_s: run.setup_s,
            wall_s: run.wall_s,
            peak_rss_mb: run.peak_rss_mb,
            scripted: w.txn_count() as u64,
            fingerprint: Fingerprint {
                committed: h.committed,
                aborted: h.aborted,
                forces: h.log.forces,
                wire_bytes: h.net.wire_bytes,
                events_processed: h.net.events_processed,
            },
            still_blocked: h.still_blocked,
            commit_latency: SumCount::of(Some(&h.commit_latency)),
        },
        allocs: run.allocs,
        items: w.catalog.len() as u64,
        net: h.net,
        log: h.log,
        log_retained: h.log_retained,
        vm: h.vm,
        core: h.core,
        trad: h.trad,
        events: h.events,
        violations: h.violations,
    }
}

impl Timed {
    /// Encode as one line of `key=value` fields.
    pub fn to_line(&self) -> String {
        let f = &self.fingerprint;
        format!(
            "rep generate_s={} setup_s={} wall_s={} peak_rss_mb={} scripted={} committed={} \
             aborted={} forces={} wire_bytes={} events_processed={} still_blocked={} \
             commit_latency_sum={} commit_latency_count={}",
            self.generate_s,
            self.setup_s,
            self.wall_s,
            self.peak_rss_mb,
            self.scripted,
            f.committed,
            f.aborted,
            f.forces,
            f.wire_bytes,
            f.events_processed,
            self.still_blocked,
            self.commit_latency.sum,
            self.commit_latency.count,
        )
    }

    /// Decode [`Timed::to_line`]'s output; `None` if `line` is not one.
    pub fn parse(line: &str) -> Option<Timed> {
        let fields = line.strip_prefix("rep ")?;
        let get = |key: &str| {
            fields
                .split(' ')
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        };
        let float = |key: &str| get(key)?.parse::<f64>().ok();
        let int = |key: &str| get(key)?.parse::<u64>().ok();
        Some(Timed {
            generate_s: float("generate_s")?,
            setup_s: float("setup_s")?,
            wall_s: float("wall_s")?,
            peak_rss_mb: float("peak_rss_mb")?,
            scripted: int("scripted")?,
            fingerprint: Fingerprint {
                committed: int("committed")?,
                aborted: int("aborted")?,
                forces: int("forces")?,
                wire_bytes: int("wire_bytes")?,
                events_processed: int("events_processed")?,
            },
            still_blocked: int("still_blocked")?,
            commit_latency: SumCount {
                sum: int("commit_latency_sum")?,
                count: int("commit_latency_count")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_line_round_trips_exactly() {
        let t = Timed {
            generate_s: 0.012345678901234,
            setup_s: 0.0301,
            wall_s: 0.8123456789,
            peak_rss_mb: 248.984375,
            scripted: 100_000,
            fingerprint: Fingerprint {
                committed: 92_581,
                aborted: 7_419,
                forces: 385_606,
                wire_bytes: 31_021_886,
                events_processed: 980_933,
            },
            still_blocked: 0,
            commit_latency: SumCount {
                sum: 260_004_321,
                count: 92_581,
            },
        };
        assert_eq!(Timed::parse(&t.to_line()), Some(t));
        assert_eq!(Timed::parse("workload banking seed 42"), None);
        assert_eq!(Timed::parse("rep wall_s=1.0"), None);
    }
}
