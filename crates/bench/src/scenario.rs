//! The experiment driver surface: [`Scenario`] describes *one run* of
//! either engine declaratively; [`Scenario::run`] executes it and reduces
//! the outcome to a [`RunReport`].
//!
//! This replaces the old positional `run_dvp(w, site, net, faults, until,
//! seed)` / `run_trad(..)` pair: every knob is a named field with a
//! sensible default, both engines report through the same type, and
//! enabling `.trace(true)` captures the structured `dvp-obs` event stream
//! for deterministic JSONL export.

use dvp_baselines::{TradCluster, TradClusterMetrics, TradConfig};
use dvp_core::{Cluster, ClusterConfig, ClusterMetrics, FaultPlan, SiteConfig, StatsView};
use dvp_obs::{to_jsonl, Event, Hist, PhaseHists};
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::stats::NetStats;
use dvp_simnet::time::SimTime;
use dvp_storage::LogStats;
use dvp_vmsg::VmStats;
use dvp_workloads::Workload;

/// Which engine a [`Scenario`] drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Data-value partitioning (the paper's protocol).
    Dvp,
    /// The traditional 2PC/3PC baseline.
    Trad,
}

/// A declarative description of one engine run: the run itself (a
/// [`ClusterConfig`]) plus what only a scenario adds — a label, the
/// engine, the baseline's protocol config and a horizon.
///
/// Build one with [`Scenario::dvp`] or [`Scenario::trad`], chain the
/// setters you need, then call [`Scenario::run`]. White-box tests that
/// need node access can call [`Scenario::build_dvp`] /
/// [`Scenario::build_trad`] instead and drive the cluster by hand.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable label, echoed into the report and trace header.
    pub name: String,
    /// Which engine to run.
    pub engine: EngineKind,
    /// The run: catalog, scripts (the workload's own, shared), DvP site
    /// config, network, faults (both engines honour crashes and
    /// recoveries; the 2PC build refuses injected faults), seed and trace
    /// flag.
    pub cluster: ClusterConfig,
    /// Baseline protocol configuration: replaces `cluster.site` when the
    /// baseline runs.
    pub trad: TradConfig,
    /// Simulation horizon; `None` runs to quiescence.
    pub until: Option<SimTime>,
}

impl Scenario {
    fn new(w: &Workload, engine: EngineKind) -> Scenario {
        Scenario {
            name: String::new(),
            engine,
            cluster: w.cluster(),
            trad: TradConfig::default(),
            until: None,
        }
    }

    /// A DvP run of `w` on a reliable network, no faults, seed 0.
    pub fn dvp(w: &Workload) -> Scenario {
        Scenario::new(w, EngineKind::Dvp)
    }

    /// A baseline (2PC) run of `w` on a reliable network, no faults.
    pub fn trad(w: &Workload) -> Scenario {
        Scenario::new(w, EngineKind::Trad)
    }

    /// A DvP scenario over a bare catalog with `n` empty per-site
    /// scripts — append arrivals with [`Scenario::at`].
    pub fn dvp_sites(n: usize, catalog: dvp_core::item::Catalog) -> Scenario {
        Scenario::dvp(&Workload {
            catalog,
            scripts: vec![dvp_core::Script::new(); n],
        })
    }

    /// A baseline scenario over a bare catalog with `n` empty scripts.
    pub fn trad_sites(n: usize, catalog: dvp_core::item::Catalog) -> Scenario {
        Scenario::trad(&Workload {
            catalog,
            scripts: vec![dvp_core::Script::new(); n],
        })
    }

    /// Append a transaction arrival at `site`.
    pub fn at(mut self, site: usize, when: SimTime, spec: dvp_core::TxnSpec) -> Scenario {
        self.cluster = self.cluster.at(site, when, spec);
        self
    }

    /// Label the run (appears in the report and trace header).
    pub fn name(mut self, name: impl Into<String>) -> Scenario {
        self.name = name.into();
        self
    }

    /// Set the DvP site configuration.
    pub fn site(mut self, site: SiteConfig) -> Scenario {
        self.cluster.site = site;
        self
    }

    /// Set the baseline protocol configuration.
    pub fn trad_config(mut self, trad: TradConfig) -> Scenario {
        self.trad = trad;
        self
    }

    /// Set the network model.
    pub fn net(mut self, net: NetworkConfig) -> Scenario {
        self.cluster.net = net;
        self
    }

    /// Set the fault plan (crashes, recoveries, per-site injections).
    pub fn faults(mut self, faults: FaultPlan) -> Scenario {
        self.cluster.faults = faults;
        self
    }

    /// Run until `deadline` instead of to quiescence.
    pub fn until(mut self, deadline: SimTime) -> Scenario {
        self.until = Some(deadline);
        self
    }

    /// Set the determinism seed.
    pub fn seed(mut self, seed: u64) -> Scenario {
        self.cluster.seed = seed;
        self
    }

    /// Capture the structured event stream ([`RunReport::events`]).
    pub fn trace(mut self, on: bool) -> Scenario {
        self.cluster.trace = on;
        self
    }

    /// Build the DvP cluster without running it (white-box escape hatch).
    ///
    /// Panics if the scenario targets the baseline engine.
    pub fn build_dvp(&self) -> Cluster {
        assert_eq!(self.engine, EngineKind::Dvp, "scenario targets Trad");
        Cluster::build(self.cluster.clone())
    }

    /// Build the baseline cluster without running it.
    ///
    /// Panics if the scenario targets the DvP engine.
    pub fn build_trad(&self) -> TradCluster {
        assert_eq!(self.engine, EngineKind::Trad, "scenario targets DvP");
        TradCluster::build(self.cluster.clone().with_site(self.trad))
    }

    /// Execute the scenario and reduce it to a [`RunReport`].
    ///
    /// DvP runs panic if the conservation audit fails — experiments must
    /// never report unsound numbers.
    pub fn run(self) -> RunReport {
        match self.engine {
            EngineKind::Dvp => self.run_dvp(),
            EngineKind::Trad => self.run_trad(),
        }
    }

    fn run_dvp(self) -> RunReport {
        let mut cl = self.build_dvp();
        match self.until {
            Some(deadline) => cl.run_until(deadline),
            None => cl.run_to_quiescence(),
        }
        cl.auditor()
            .check_conservation()
            .expect("conservation must hold in every experiment");
        let StatsView { txn, vm, log } = cl.stats();
        RunReport {
            scenario: self.name,
            seed: self.cluster.seed,
            committed: txn.committed(),
            aborted: txn.aborted(),
            datagrams: vm.datagrams_sent,
            max_blocked_us: 0,
            still_blocked: 0,
            // A DvP site recovers from its own storage alone.
            recovery_remote_msgs: 0,
            decisions: txn.decision_latency(),
            phases: txn.phases(),
            events: cl.obs().take(),
            net: *cl.sim.stats(),
            log,
            vm,
            txn,
            // No 2PC engine: the by-kind traffic has no sites.
            trad: TradClusterMetrics::default(),
        }
    }

    fn run_trad(self) -> RunReport {
        let mut cl = self.build_trad();
        match self.until {
            Some(deadline) => cl.run_until(deadline),
            None => {
                cl.sim.run_to_quiescence();
            }
        }
        let m = cl.metrics();
        let net = *cl.sim.stats();
        RunReport {
            scenario: self.name,
            seed: self.cluster.seed,
            committed: m.committed(),
            aborted: m.aborted(),
            datagrams: net.sent,
            max_blocked_us: m.max_blocking_us(cl.sim.now()),
            still_blocked: m.still_blocked() as u64,
            recovery_remote_msgs: m.recovery_remote_messages(),
            decisions: m.decision_latency(),
            phases: m.phases(),
            events: cl.sim.obs().take(),
            net,
            log: cl.log_stats(),
            trad: m,
            // No Vm layer and no DvP transaction engine: every DvP-only
            // column reads 0.
            ..Default::default()
        }
    }
}

/// One engine run: the few figures whose source differs by engine, each
/// layer's own counters whole, the latency distributions and (when
/// tracing) the event stream. A layer the engine does not have stays at
/// its default.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Scenario label.
    pub scenario: String,
    /// Seed the run used.
    pub seed: u64,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Wire datagrams transmitted: Vm-layer datagram count for DvP (0
    /// when coalescing is off), kernel transmissions for the baseline.
    /// `datagrams / committed` is the coalescing headline metric.
    pub datagrams: u64,
    /// Longest blocking window (µs) including still-open in-doubt
    /// windows measured to harvest time. Always 0 for DvP — the
    /// non-blocking claim.
    pub max_blocked_us: u64,
    /// Transactions still blocked (in doubt) at harvest — always 0 for
    /// DvP, possibly nonzero for 2PC under partition.
    pub still_blocked: u64,
    /// Remote messages consumed by recovery: the 2PC in-doubt queries;
    /// always 0 for DvP, whose recovery reads only its own storage.
    pub recovery_remote_msgs: u64,
    /// Decision-latency histogram over *decided* transactions (commits +
    /// aborts) for both engines, so `decisions.max()` means p100 for
    /// both; open-ended blocking is in `max_blocked_us`.
    pub decisions: Hist,
    /// Per-phase latency breakdown (`fast_path`/`solicit`/`gather`/
    /// `abort` for DvP; `decide`/`abort`/`in_doubt` for the baseline).
    pub phases: PhaseHists,
    /// Structured event stream; empty unless the scenario enabled
    /// tracing.
    pub events: Vec<Event>,
    /// The simulation kernel's network counters. Every send of either
    /// engine declares its encoded length (DvP's codec output, the
    /// baseline's `TradMsg::wire_len`), so `net.wire_bytes` compares the
    /// engines directly.
    pub net: NetStats,
    /// Cluster-wide stable-log counters (both engines force a log).
    pub log: LogStats,
    /// Cluster-wide Vm-layer counters; default for the baseline.
    pub vm: VmStats,
    /// Per-site DvP transaction-engine counters; no sites for the
    /// baseline.
    pub txn: ClusterMetrics,
    /// Per-site baseline engine counters; no sites for DvP.
    pub trad: TradClusterMetrics,
}

impl RunReport {
    /// Commit ratio over decided transactions (0 when none decided).
    pub fn commit_ratio(&self) -> f64 {
        let decided = self.committed + self.aborted;
        if decided == 0 {
            0.0
        } else {
            self.committed as f64 / decided as f64
        }
    }

    /// Render the captured event stream as deterministic JSONL (one
    /// header line, then one line per event). Empty-bodied when the run
    /// was not traced.
    pub fn trace_jsonl(&self) -> String {
        to_jsonl(&self.scenario, self.seed, &self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_simnet::time::SimDuration;
    use dvp_workloads::AirlineWorkload;

    #[test]
    fn both_engines_run_the_same_workload() {
        let w = AirlineWorkload {
            txns: 40,
            ..Default::default()
        }
        .generate(1);
        let until = SimTime::ZERO + SimDuration::secs(5);
        let d = Scenario::dvp(&w).until(until).seed(1).run();
        let t = Scenario::trad(&w).until(until).seed(1).run();
        assert!(d.committed + d.aborted == 40, "dvp decided everything");
        assert!(t.committed + t.aborted <= 40);
        assert!(t.committed > 0);
        assert!(d.commit_ratio() > 0.5);
        assert_eq!(d.still_blocked, 0);
        assert_eq!(d.max_blocked_us, 0, "DvP never blocks");
        // A baseline row can never show a DvP counter.
        assert_eq!(t.vm, VmStats::default());
        assert!(t.txn.sites.is_empty());
    }

    #[test]
    fn decided_latency_excludes_open_blocking_windows() {
        let w = AirlineWorkload {
            txns: 30,
            ..Default::default()
        }
        .generate(7);
        // Crash a site mid-run and never recover it: the baseline strands
        // in-doubt participants whose open windows must NOT inflate the
        // decided p100.
        let crash_at = SimTime::ZERO + SimDuration::millis(25);
        let until = SimTime::ZERO + SimDuration::secs(5);
        let t = Scenario::trad(&w)
            .faults(FaultPlan::none().crash(crash_at, 0))
            .until(until)
            .seed(7)
            .run();
        assert!(
            t.still_blocked > 0,
            "the crash strands in-doubt participants"
        );
        assert!(
            t.max_blocked_us > t.decisions.max(),
            "open windows ({}) should dwarf decided latencies ({})",
            t.max_blocked_us,
            t.decisions.max()
        );
    }

    #[test]
    fn untraced_run_captures_no_events() {
        let w = AirlineWorkload {
            txns: 5,
            ..Default::default()
        }
        .generate(3);
        let r = Scenario::dvp(&w).run();
        assert!(r.events.is_empty());
        let traced = Scenario::dvp(&w).trace(true).name("t").run();
        assert!(!traced.events.is_empty());
        assert!(traced
            .trace_jsonl()
            .starts_with("{\"trace\":\"dvp-obs/v1\""));
    }
}
