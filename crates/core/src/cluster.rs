//! Cluster orchestration: describe, build, run, and harvest a run.
//!
//! [`ClusterConfig`] is the one description of a run, for either engine:
//! catalog, arrival scripts, per-site protocol config, network (with
//! partition schedule), fault plan, planted bug, seed and trace flag.
//! [`Cluster`] turns a DvP description into a running [`Simulation`]
//! plus harvesting helpers; the 2PC baseline builds its own nodes from
//! the same description, and both hand them to
//! [`ClusterConfig::simulate`].

use crate::audit::{Auditor, History, HistorySink};
use crate::fault::{FaultPlan, Mutant};
use crate::item::Catalog;
use crate::metrics::ClusterMetrics;
use crate::policy::SiteConfig;
use crate::script::{Script, ScriptCursor};
use crate::site::SiteNode;
use crate::txn::TxnSpec;
use dvp_obs::Obs;
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::node::Node;
use dvp_simnet::sim::Simulation;
use dvp_simnet::time::SimTime;
use dvp_simnet::NodeId;

/// Everything one run varies, for either engine. `S` is the per-site
/// protocol config: [`SiteConfig`] for DvP, the baseline's own config for
/// 2PC. [`with_site`](Self::with_site) swaps it, so a DvP row and a 2PC
/// row can run the same transactions under the same failures.
#[derive(Clone, Debug)]
pub struct ClusterConfig<S = SiteConfig> {
    /// The data items and their initial splits.
    pub catalog: Catalog,
    /// Per-site workload scripts: `scripts[s]` is the
    /// `(arrival time, transaction)` pairs initiated at site `s`, in time
    /// order ([`simulate`](Self::simulate) panics otherwise), listed or
    /// drawn from a generator as the run goes, and shared with whoever
    /// made it and with the built site. Their count is the number of
    /// sites.
    pub scripts: Vec<Script>,
    /// Per-site protocol configuration (same at every site).
    pub site: S,
    /// Network model (delays, loss, partitions, ordered mode).
    pub net: NetworkConfig,
    /// Site crashes and recoveries, and the faults injected at each site.
    pub faults: FaultPlan,
    /// A bug planted at every site (`None` in a real run): a run input
    /// like the fault plan, but one no nemesis schedule touches.
    pub mutant: Option<Mutant>,
    /// RNG seed (drives network delays/loss and nothing else — the
    /// workload is part of the config, in its scripts).
    pub seed: u64,
    /// Record the structured `dvp-obs` event stream, shared by the kernel
    /// and every site; read it back through `Simulation::obs`. Off by
    /// default: the instrumented paths then cost one branch.
    pub trace: bool,
}

impl ClusterConfig {
    /// A minimal DvP config: `n` sites, reliable network, no faults,
    /// empty scripts.
    pub fn new(n: usize, catalog: Catalog) -> Self {
        ClusterConfig {
            catalog,
            scripts: vec![Script::new(); n],
            site: SiteConfig::default(),
            net: NetworkConfig::reliable(),
            faults: FaultPlan::none(),
            mutant: None,
            seed: 0,
            trace: false,
        }
    }
}

impl<S> ClusterConfig<S> {
    /// Number of sites: one per script.
    pub fn n_sites(&self) -> usize {
        self.scripts.len()
    }

    /// Append a transaction arrival at `site`; `when` must not be earlier
    /// than the site's last arrival. A drawn script is listed first (see
    /// [`Script::push`]).
    pub fn at(mut self, site: NodeId, when: SimTime, spec: TxnSpec) -> Self {
        self.scripts[site].push((when, spec));
        self
    }

    /// The same run under another per-site protocol config (another
    /// engine's).
    pub fn with_site<T>(self, site: T) -> ClusterConfig<T> {
        ClusterConfig {
            catalog: self.catalog,
            scripts: self.scripts,
            site,
            net: self.net,
            faults: self.faults,
            mutant: self.mutant,
            seed: self.seed,
            trace: self.trace,
        }
    }

    /// The simulation both engines' clusters run on: one node per script,
    /// made by `node(site, &obs, cursor)` with the run's trace handle and
    /// the site's [`ScriptCursor`], then every arrival, crash and recovery
    /// scheduled. At equal instants the kernel dispatches in scheduling
    /// order, so the order here is part of every trajectory: arrivals site
    /// by site in script order, then crashes, then recoveries, each in
    /// plan order. Each site's arrivals are a kernel arrival stream moving
    /// the site's cursor, one arrival pending at a time; the cursors share
    /// one feed, so drawn scripts are drawn once per run, as it goes.
    ///
    /// Panics if a listed script is not in time order, naming the site and
    /// the first arrival earlier than the one before it, or if an op moves
    /// more than `i64::MAX` (its signed [`Op::delta`](crate::Op::delta)
    /// would wrap), naming the site and the arrival. Drawn scripts were
    /// checked the same way when they were drawn. Panics too, naming the
    /// item and the site, if an item's catalog total plus its scripted
    /// deposits can pass `i64::MAX`, where its `History` total would wrap.
    pub fn simulate<N: Node>(
        &self,
        mut node: impl FnMut(NodeId, &Obs, ScriptCursor) -> N,
    ) -> Simulation<N> {
        assert!(self.n_sites() > 0, "a cluster needs at least one site");
        let obs = Obs::new(self.trace);
        let cursors = ScriptCursor::run(&self.scripts, &self.catalog);
        let nodes = cursors
            .iter()
            .enumerate()
            .map(|(s, cursor)| node(s, &obs, cursor.clone()))
            .collect();
        let mut sim = Simulation::new(nodes, self.net.clone(), self.seed);
        sim.set_obs(obs);
        for (s, cursor) in cursors.into_iter().enumerate() {
            sim.schedule_arrivals(s, cursor.script().len(), move |k| cursor.due(k));
        }
        for &(when, site) in &self.faults.crashes {
            sim.schedule_crash(when, site);
        }
        for &(when, site) in &self.faults.recoveries {
            sim.schedule_recover(when, site);
        }
        sim
    }
}

/// A built cluster: the simulation plus the catalog and the history sink
/// for auditing.
///
/// ```
/// use dvp_core::item::{Catalog, Split};
/// use dvp_core::{Cluster, ClusterConfig, TxnSpec};
/// use dvp_simnet::time::SimTime;
///
/// let mut catalog = Catalog::new();
/// let flight = catalog.add("flight-A", 100, Split::Even);
/// let cfg = ClusterConfig::new(4, catalog)
///     .at(3, SimTime(1_000), TxnSpec::reserve(flight, 40));
/// let mut cluster = Cluster::build(cfg);
/// cluster.run_to_quiescence();
/// assert_eq!(cluster.stats().txn.committed(), 1);
/// cluster.auditor().check_conservation().unwrap();
/// ```
pub struct Cluster {
    /// The underlying simulation (drive it with `run_until` etc.).
    pub sim: Simulation<SiteNode>,
    /// The catalog the cluster was built from.
    pub catalog: Catalog,
    /// The read check every site feeds as it commits.
    history: HistorySink,
}

impl Cluster {
    /// Instantiate the simulation: construct sites with their quota
    /// splits, schedule all workload arrivals and faults.
    pub fn build(cfg: ClusterConfig) -> Cluster {
        let n = cfg.n_sites();
        // Per-site quota vectors, one entry per item.
        let mut site_quotas: Vec<Vec<crate::Qty>> = vec![Vec::new(); n];
        for def in cfg.catalog.items() {
            let qs = cfg.catalog.quotas(def.id, n);
            for (s, q) in qs.into_iter().enumerate() {
                site_quotas[s].push(q);
            }
        }

        let history = HistorySink::new(&cfg.catalog);
        let sim = cfg.simulate(|s, obs, arrivals| {
            let quotas = site_quotas[s].clone();
            let faults = cfg.faults.injection(s);
            let mut node = SiteNode::new(n, cfg.site, faults, cfg.mutant, quotas, arrivals, obs);
            node.set_history(history.clone());
            node
        });
        Cluster {
            sim,
            catalog: cfg.catalog,
            history,
        }
    }

    /// Run until `deadline` in simulated time.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Run until no events remain (workload exhausted, all Vms settled).
    pub fn run_to_quiescence(&mut self) {
        self.sim.run_to_quiescence();
    }

    /// One coherent snapshot of every counter layer: transaction engine,
    /// Vm channel and stable log. This is the single stats
    /// surface — reports and benchmarks pull everything from here rather
    /// than stitching together per-layer accessors. Its size is
    /// O(sites × items), however many transactions committed.
    pub fn stats(&self) -> StatsView {
        let txn = ClusterMetrics {
            sites: self
                .sim
                .nodes()
                .iter()
                .map(|s| s.metrics().clone())
                .collect(),
        };
        let mut vm = dvp_vmsg::VmStats::default();
        let mut log = dvp_storage::LogStats::default();
        for site in self.sim.nodes() {
            vm.absorb(site.vm_endpoint().stats());
            log.merge(&site.log().stats());
        }
        StatsView { txn, vm, log }
    }

    /// The committed history as the cluster's read check has folded it
    /// so far: a copy, O(items).
    pub fn history(&self) -> History {
        self.history.history()
    }

    /// An auditor over the current state.
    pub fn auditor(&self) -> Auditor<'_> {
        Auditor::new(self.sim.nodes(), &self.catalog, &self.history)
    }

    /// The trace handle the cluster was built with.
    pub fn obs(&self) -> &Obs {
        self.sim.obs()
    }
}

/// Every counter layer of a [`Cluster`], captured at one instant by
/// [`Cluster::stats`]. Benchmarks and run reports derive their columns
/// from this view instead of poking at per-layer accessors.
#[derive(Clone, Debug)]
pub struct StatsView {
    /// Per-site transaction-engine counters (commits, aborts, fast path,
    /// solicitations, rebalance ships).
    pub txn: ClusterMetrics,
    /// Cluster-wide Vm-layer counters (frames, datagrams, wire bytes,
    /// piggybacked acks).
    pub vm: dvp_vmsg::VmStats,
    /// Cluster-wide stable-log counters (forces, appends, batch sizes).
    pub log: dvp_storage::LogStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Split;
    use crate::metrics::AbortReason;
    use crate::policy::ConcMode;
    use dvp_simnet::node::Context;
    use dvp_simnet::partition::PartitionSchedule;
    use dvp_simnet::time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::millis(n)
    }

    fn seats_catalog(total: crate::Qty) -> (Catalog, crate::ItemId) {
        let mut c = Catalog::new();
        let id = c.add("flight-A", total, Split::Even);
        (c, id)
    }

    #[test]
    fn local_reservation_commits_on_fast_path() {
        let (catalog, flight) = seats_catalog(100);
        let cfg = ClusterConfig::new(4, catalog).at(0, ms(1), TxnSpec::reserve(flight, 10));
        let mut cl = Cluster::build(cfg);
        cl.run_to_quiescence();
        let m = cl.stats().txn;
        assert_eq!(m.committed(), 1);
        assert_eq!(m.aborted(), 0);
        assert_eq!(m.sites[0].fast_path.count(), 1);
        assert_eq!(cl.sim.node(0).fragments().get(flight), 15); // 25 - 10
        cl.auditor().check_conservation().unwrap();
    }

    #[test]
    fn deficit_triggers_solicitation_and_commits() {
        // Site 0 has 25 but needs 40: must gather ≥15 from elsewhere.
        let (catalog, flight) = seats_catalog(100);
        let cfg = ClusterConfig::new(4, catalog).at(0, ms(1), TxnSpec::reserve(flight, 40));
        let mut cl = Cluster::build(cfg);
        cl.run_to_quiescence();
        let m = cl.stats().txn;
        assert_eq!(m.committed(), 1, "solicited reservation must commit");
        assert!(m.requests_sent() >= 1);
        assert!(m.donations() >= 1);
        assert_eq!(m.sites[0].fast_path.count(), 0);
        // Total seats across the cluster fell by exactly 40.
        let total: crate::Qty = (0..4).map(|s| cl.sim.node(s).fragments().get(flight)).sum();
        assert_eq!(total, 60);
        cl.auditor().check_conservation().unwrap();
    }

    #[test]
    fn impossible_demand_aborts_by_timeout() {
        // 100 seats exist; asking for 150 can never be satisfied.
        let (catalog, flight) = seats_catalog(100);
        let cfg = ClusterConfig::new(4, catalog).at(0, ms(1), TxnSpec::reserve(flight, 150));
        let mut cl = Cluster::build(cfg);
        cl.run_to_quiescence();
        let m = cl.stats().txn;
        assert_eq!(m.committed(), 0);
        assert_eq!(m.aborted_for(AbortReason::Timeout), 1);
        // No seats were consumed; redistribution may have occurred.
        let total: crate::Qty = (0..4).map(|s| cl.sim.node(s).fragments().get(flight)).sum();
        assert_eq!(total, 100);
        cl.auditor().check_conservation().unwrap();
    }

    #[test]
    fn partitioned_minority_still_serves_local_quota() {
        // Site 3 is cut off but its local quota still serves customers.
        let (catalog, flight) = seats_catalog(100);
        let sched = PartitionSchedule::fully_connected(4).isolate_at(SimTime::ZERO, &[3]);
        let mut cfg = ClusterConfig::new(4, catalog).at(3, ms(1), TxnSpec::reserve(flight, 20));
        cfg.net = NetworkConfig::reliable().with_partitions(sched);
        let mut cl = Cluster::build(cfg);
        cl.run_to_quiescence();
        let m = cl.stats().txn;
        assert_eq!(m.committed(), 1, "local work proceeds despite partition");
        assert_eq!(cl.sim.node(3).fragments().get(flight), 5);
        cl.auditor().check_conservation().unwrap();
    }

    #[test]
    fn partitioned_deficit_aborts_within_timeout_bound() {
        // Site 3 is isolated and needs more than its quota: the paper's
        // non-blocking claim says it must reach an abort decision within
        // the timeout, not hang.
        let (catalog, flight) = seats_catalog(100);
        let sched = PartitionSchedule::fully_connected(4).isolate_at(SimTime::ZERO, &[3]);
        let mut cfg = ClusterConfig::new(4, catalog).at(3, ms(1), TxnSpec::reserve(flight, 40));
        cfg.net = NetworkConfig::reliable().with_partitions(sched);
        let mut cl = Cluster::build(cfg);
        cl.run_to_quiescence();
        let m = cl.stats().txn;
        assert_eq!(m.aborted_for(AbortReason::Timeout), 1);
        let bound = cl.sim.node(3).config().txn_timeout.as_micros() + 1_000;
        assert!(
            m.sites[3].abort_latency.max() <= bound,
            "abort decision must be bounded by the timeout"
        );
        cl.auditor().check_conservation().unwrap();
    }

    #[test]
    fn full_value_read_returns_exact_total() {
        let (catalog, flight) = seats_catalog(100);
        let cfg = ClusterConfig::new(4, catalog)
            .at(1, ms(1), TxnSpec::reserve(flight, 7)) // 100 -> 93
            .at(0, ms(30), TxnSpec::read(flight));
        let mut cl = Cluster::build(cfg);
        cl.run_to_quiescence();
        let m = cl.stats().txn;
        assert_eq!(m.committed(), 2);
        assert_eq!(cl.history().reads_checked(), 1);
        assert_eq!(cl.history().last_read(), Some((flight, 93)));
        cl.auditor().check_conservation().unwrap();
        cl.auditor().check_reads(&m).unwrap();
    }

    #[test]
    fn read_under_partition_aborts() {
        let (catalog, flight) = seats_catalog(100);
        let sched = PartitionSchedule::fully_connected(4).isolate_at(SimTime::ZERO, &[2]);
        let mut cfg = ClusterConfig::new(4, catalog).at(0, ms(1), TxnSpec::read(flight));
        cfg.net = NetworkConfig::reliable().with_partitions(sched);
        let mut cl = Cluster::build(cfg);
        cl.run_to_quiescence();
        let m = cl.stats().txn;
        assert_eq!(m.committed(), 0, "read needs every fragment");
        assert_eq!(m.aborted_for(AbortReason::Timeout), 1);
        cl.auditor().check_conservation().unwrap();
    }

    #[test]
    fn crash_and_recovery_preserve_value() {
        let (catalog, flight) = seats_catalog(100);
        let mut cfg = ClusterConfig::new(4, catalog)
            .at(0, ms(1), TxnSpec::reserve(flight, 40)) // forces donations
            .at(2, ms(120), TxnSpec::reserve(flight, 5));
        cfg.faults = FaultPlan::none().crash(ms(60), 2).recover(ms(100), 2);
        let mut cl = Cluster::build(cfg);
        cl.run_to_quiescence();
        let m = cl.stats().txn;
        cl.auditor().check_conservation().unwrap();
        assert_eq!(m.sites[2].recoveries, 1);
        // Both reservations eventually committed (site 2's arrives after
        // recovery).
        assert_eq!(m.committed(), 2);
        let total: crate::Qty = (0..4).map(|s| cl.sim.node(s).fragments().get(flight)).sum();
        assert_eq!(total, 100 - 40 - 5);
    }

    #[test]
    fn conc1_rejects_stale_timestamp_conflicts() {
        // Two simultaneous transfers over the same two items at different
        // sites: under Conc1 at least one request path hits a lock or
        // timestamp conflict, but totals stay exact.
        let mut catalog = Catalog::new();
        let a = catalog.add("A", 40, Split::Even);
        let b = catalog.add("B", 40, Split::Even);
        let cfg = ClusterConfig::new(2, catalog)
            .at(0, ms(1), TxnSpec::transfer(a, b, 30))
            .at(1, ms(1), TxnSpec::transfer(b, a, 30));
        let mut cl = Cluster::build(cfg);
        cl.run_to_quiescence();
        let m = cl.stats().txn;
        cl.auditor().check_conservation().unwrap();
        // Whatever committed, totals moved consistently.
        let ta: crate::Qty = (0..2).map(|s| cl.sim.node(s).fragments().get(a)).sum();
        let tb: crate::Qty = (0..2).map(|s| cl.sim.node(s).fragments().get(b)).sum();
        assert_eq!(ta + tb, 80);
        assert!(m.committed() + m.aborted() == 2);
    }

    #[test]
    fn conc2_queues_instead_of_rejecting() {
        // Under Conc2 on a reliable fixed-delay network, two reservations
        // hitting the same items serialize through the FIFO queue and both
        // commit.
        let (catalog, flight) = seats_catalog(100);
        let mut cfg = ClusterConfig::new(4, catalog)
            .at(0, ms(1), TxnSpec::reserve(flight, 30)) // needs donation
            .at(0, ms(2), TxnSpec::reserve(flight, 30)); // queued behind
        cfg.site.conc = ConcMode::Conc2;
        cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2));
        let mut cl = Cluster::build(cfg);
        cl.run_to_quiescence();
        let m = cl.stats().txn;
        assert_eq!(m.committed(), 2, "both must commit via queueing");
        cl.auditor().check_conservation().unwrap();
    }

    #[test]
    fn lossy_network_still_conserves_value() {
        let (catalog, flight) = seats_catalog(100);
        let mut cfg = ClusterConfig::new(4, catalog);
        for k in 0..10u64 {
            let site = (k % 4) as usize;
            cfg = cfg.at(site, ms(1 + k * 3), TxnSpec::reserve(flight, 8));
        }
        cfg.net = NetworkConfig::lossy(0.3);
        cfg.seed = 7;
        let mut cl = Cluster::build(cfg);
        cl.run_until(ms(5_000));
        cl.auditor().check_conservation().unwrap();
    }

    #[test]
    fn checkpoints_bound_the_log() {
        let run = |every: Option<usize>| {
            let (catalog, flight) = seats_catalog(100_000);
            let mut cfg = ClusterConfig::new(2, catalog);
            cfg.site.checkpoint_every = every;
            for k in 0..200u64 {
                cfg = cfg.at(0, ms(1 + k * 2), TxnSpec::reserve(flight, 1));
            }
            let mut cl = Cluster::build(cfg);
            cl.run_to_quiescence();
            assert_eq!(cl.stats().txn.committed(), 200);
            (
                cl.sim.node(0).log().stable_len(),
                cl.stats().txn.sites[0].checkpoints,
            )
        };
        let (unbounded, cps0) = run(None);
        let (bounded, cps1) = run(Some(50));
        assert_eq!(cps0, 0);
        assert!(cps1 >= 3, "checkpoints must fire: {cps1}");
        assert!(
            bounded < unbounded / 2,
            "log must stay bounded: {bounded} vs {unbounded}"
        );
    }

    #[test]
    fn recovery_from_checkpoint_is_exact() {
        // Same fault scenario with and without checkpointing must yield
        // identical recovered state.
        let run = |every: Option<usize>| {
            let (catalog, flight) = seats_catalog(1_000);
            let mut cfg = ClusterConfig::new(4, catalog);
            cfg.site.checkpoint_every = every;
            // Donation-heavy: site 0 oversells its quota repeatedly.
            for k in 0..40u64 {
                cfg = cfg.at(0, ms(1 + k * 10), TxnSpec::reserve(flight, 12));
            }
            cfg.faults = FaultPlan::none().crash(ms(250), 0).recover(ms(300), 0);
            let mut cl = Cluster::build(cfg);
            cl.run_to_quiescence();
            cl.auditor().check_conservation().unwrap();
            (
                cl.stats().txn.committed(),
                (0..4)
                    .map(|s| cl.sim.node(s).fragments().get(flight))
                    .collect::<Vec<_>>(),
            )
        };
        let (c_plain, frags_plain) = run(None);
        let (c_ckpt, frags_ckpt) = run(Some(20));
        assert_eq!(c_plain, c_ckpt, "checkpointing must not change outcomes");
        assert_eq!(frags_plain, frags_ckpt, "recovered state must be identical");
    }

    #[test]
    fn checkpoint_preserves_outstanding_vms_across_crash() {
        // A donor checkpoints while its Vm is still unacked, then crashes.
        // The snapshot must carry the outstanding Vm so retransmission
        // resumes and the value survives.
        let (catalog, flight) = seats_catalog(100);
        let sched = PartitionSchedule::fully_connected(4)
            .isolate_at(ms(2), &[0]) // strand the requester: acks can't flow
            .heal_at(ms(400));
        let mut cfg = ClusterConfig::new(4, catalog);
        cfg.site.checkpoint_every = Some(1); // checkpoint eagerly
        cfg.net = NetworkConfig::reliable().with_partitions(sched);
        // Site 0 needs 40 (quota 25): donors ship Vms that cannot be
        // delivered during the partition.
        let mut cfg = cfg.at(0, ms(1), TxnSpec::reserve(flight, 40));
        // Donor crashes mid-partition with the Vm outstanding.
        cfg.faults = FaultPlan::none().crash(ms(100), 1).recover(ms(200), 1);
        let mut cl = Cluster::build(cfg);
        cl.run_until(ms(5_000));
        cl.auditor().check_conservation().unwrap();
        let total: crate::Qty = (0..4).map(|s| cl.sim.node(s).fragments().get(flight)).sum();
        assert_eq!(total, 100, "the reservation aborted; all value survives");
    }

    /// Every scripted callback, cluster-wide, in dispatch order:
    /// `(site, kind, tag)`.
    type Dispatches = Rc<RefCell<Vec<(NodeId, &'static str, u64)>>>;

    struct Recorder {
        id: NodeId,
        log: Dispatches,
    }

    impl Node for Recorder {
        type Msg = ();
        fn on_message(&mut self, _: NodeId, _: (), _: &mut Context<'_, ()>) {}
        fn on_external(&mut self, tag: u64, _: &mut Context<'_, ()>) {
            self.log.borrow_mut().push((self.id, "arrival", tag));
        }
        fn on_crash(&mut self) {
            self.log.borrow_mut().push((self.id, "crash", 0));
        }
        fn on_recover(&mut self, _: &mut Context<'_, ()>) {
            self.log.borrow_mut().push((self.id, "recover", 0));
        }
    }

    /// Both engines build through `simulate`, and at equal instants the
    /// kernel breaks ties by scheduling order, so that order is part of
    /// every trajectory: arrivals site-major in script order, then
    /// crashes, then recoveries, each in plan order — whatever order the
    /// plan was written in.
    #[test]
    fn simulate_schedules_arrivals_then_crashes_then_recoveries() {
        let (catalog, flight) = seats_catalog(100);
        let t = ms(5);
        let mut cfg = ClusterConfig::new(3, catalog)
            .at(1, t, TxnSpec::reserve(flight, 1))
            .at(0, t, TxnSpec::reserve(flight, 2))
            .at(0, t, TxnSpec::reserve(flight, 3))
            .at(2, t, TxnSpec::reserve(flight, 4));
        cfg.faults = FaultPlan::none()
            .recover(t, 2)
            .crash(t, 2)
            .crash(t, 0)
            .recover(t, 0);
        let log = Dispatches::default();
        let mut sim = cfg.simulate(|id, _, _| Recorder {
            id,
            log: Rc::clone(&log),
        });
        sim.run_to_quiescence();
        assert_eq!(
            *log.borrow(),
            vec![
                (0, "arrival", 0),
                (0, "arrival", 1),
                (1, "arrival", 0),
                (2, "arrival", 0),
                (2, "crash", 0),
                (0, "crash", 0),
                (2, "recover", 0),
                (0, "recover", 0),
            ]
        );
    }

    /// The kernel draws a site's arrivals in script order, so a script
    /// that goes back in time is refused at build, not reordered.
    #[test]
    #[should_panic(
        expected = "site 1's script is out of time order: arrival 2 is due before arrival 1"
    )]
    fn simulate_refuses_an_out_of_order_script() {
        let (catalog, flight) = seats_catalog(100);
        let cfg = ClusterConfig::new(2, catalog)
            .at(0, ms(9), TxnSpec::reserve(flight, 1))
            .at(1, ms(1), TxnSpec::reserve(flight, 1))
            .at(1, ms(5), TxnSpec::reserve(flight, 1))
            .at(1, ms(3), TxnSpec::reserve(flight, 1));
        cfg.simulate(|id, _, _| Recorder {
            id,
            log: Dispatches::default(),
        });
    }

    /// `Op::delta` is signed, so an amount past `i64::MAX` would read as
    /// a move the other way; the run is refused at build instead.
    #[test]
    #[should_panic(
        expected = "site 1's arrival 1 moves 9223372036854775808 units, more than i64::MAX"
    )]
    fn simulate_refuses_an_amount_above_i64_max() {
        let (catalog, flight) = seats_catalog(100);
        let cfg = ClusterConfig::new(2, catalog)
            .at(1, ms(1), TxnSpec::release(flight, i64::MAX as crate::Qty))
            .at(1, ms(2), TxnSpec::release(flight, 1 << 63));
        cfg.simulate(|id, _, _| Recorder {
            id,
            log: Dispatches::default(),
        });
    }

    /// Deposits that can take an item's total past `i64::MAX` are refused
    /// at build. Run, they would wrap the history's `i64` total, then
    /// overflow site 1's fragment mid-run.
    #[test]
    #[should_panic(expected = "site 1's deposits can take item:0 past i64::MAX")]
    fn build_refuses_deposits_that_can_pass_i64_max() {
        let (catalog, flight) = seats_catalog(100);
        let mut cfg = ClusterConfig::new(2, catalog);
        for k in 1..=3 {
            cfg = cfg.at(1, ms(k), TxnSpec::release(flight, i64::MAX as crate::Qty));
        }
        Cluster::build(cfg).run_to_quiescence();
    }

    /// Deposits up to `i64::MAX` in total still run, spread over sites.
    #[test]
    fn deposits_up_to_i64_max_run() {
        let (catalog, flight) = seats_catalog(100);
        let half = (i64::MAX as crate::Qty - 100) / 2;
        let cfg = ClusterConfig::new(2, catalog)
            .at(0, ms(1), TxnSpec::release(flight, half))
            .at(1, ms(1), TxnSpec::release(flight, half));
        let mut cl = Cluster::build(cfg);
        cl.run_to_quiescence();
        assert_eq!(cl.stats().txn.committed(), 2);
        assert_eq!(cl.history().total(flight), 100 + 2 * half as i64);
        cl.auditor().check_conservation().unwrap();
    }
}
