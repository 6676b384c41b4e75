//! The four benchmark workloads: what each generates and how its
//! cluster is configured. Scripts come from `dvp-workloads`; arrivals are
//! open-loop in *virtual* time (Poisson, mean gap 5 ms cluster-wide, so
//! generator lateness is zero by construction) and the latency limit is
//! the protocol's 50 ms timeout.

use dvp_bench::Scenario;
use dvp_core::{FaultPlan, Placement, SiteConfig};
use dvp_simnet::network::{LinkConfig, NetworkConfig};
use dvp_simnet::partition::PartitionSchedule;
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_workloads::{AirlineWorkload, BankingWorkload, HotspotDriftWorkload, Workload};

/// Sites in every workload's cluster.
pub const N_SITES: usize = 8;

/// Seed of the simulated network's own randomness (delays, loss,
/// duplication). Fixed: `--seed` feeds the workload generator only.
const NET_SEED: u64 = 1;

/// Virtual time granted after the last arrival before harvesting a run
/// that cannot be driven to quiescence (retry timers keep it alive).
const DRAIN: SimDuration = SimDuration::secs(60);

/// Which engine runs the script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Data-value partitioning (`dvp-core` over `dvp-vmsg`).
    Dvp,
    /// The two-phase-commit baseline (`dvp-baselines`).
    Trad2pc,
}

/// Script shape of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Script {
    Banking,
    HotspotDrift,
    Airline,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload is in the benchmark.
    pub why: &'static str,
    /// Engine under test.
    pub engine: Engine,
    /// Scripted transactions at full scale.
    pub txns: usize,
    script: Script,
    adaptive: bool,
    faulted: bool,
}

/// The benchmark's workloads, in reporting order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "banking",
        why: "DvP slow path: about half the commits solicit remote value, so core solicit/donate/absorb, vmsg and storage all carry load",
        engine: Engine::Dvp,
        txns: 100_000,
        script: Script::Banking,
        adaptive: false,
        faulted: false,
    },
    Spec {
        name: "hotspot_adaptive",
        why: "DvP fast path under adaptive placement: core txn/lock lifecycle and storage forces dominate, vmsg is nearly idle, and only here do hints and the rebalancer run",
        engine: Engine::Dvp,
        txns: 200_000,
        script: Script::HotspotDrift,
        adaptive: true,
        faulted: false,
    },
    Spec {
        name: "airline_faulted",
        why: "DvP under loss, duplication, a 4/4 partition and two crash/recover cycles: vmsg retransmission, storage checkpoint and recovery, simnet timers and partition oracle",
        engine: Engine::Dvp,
        txns: 100_000,
        script: Script::Airline,
        adaptive: false,
        faulted: true,
    },
    Spec {
        name: "trad2pc_banking",
        why: "2PC baseline on the banking script: bypasses core and vmsg (baselines + simnet + storage only), the paper's comparison row",
        engine: Engine::Trad2pc,
        txns: 100_000,
        script: Script::Banking,
        adaptive: false,
        faulted: false,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

fn at(span: SimTime, percent: u64) -> SimTime {
    SimTime(span.micros() / 100 * percent)
}

impl Spec {
    /// Generate the script: `txns` transactions, determined by `seed`.
    pub fn generate(&self, seed: u64, txns: usize) -> Workload {
        match self.script {
            Script::Banking => BankingWorkload {
                n_sites: N_SITES,
                accounts: 16,
                txns,
                ..Default::default()
            }
            .generate(seed),
            Script::HotspotDrift => HotspotDriftWorkload {
                n_sites: N_SITES,
                txns,
                epochs: 4,
                // Supply scales with the run: the spike stays tight
                // without ever exhausting the global pool.
                per_item: 4 * txns as u64,
                ..Default::default()
            }
            .generate(seed),
            Script::Airline => AirlineWorkload {
                n_sites: N_SITES,
                flights: 4,
                seats_per_flight: 100_000,
                txns,
                ..Default::default()
            }
            .generate(seed),
        }
    }

    /// The run of `w` this workload measures (engine, placement, network,
    /// faults, horizon), optionally capturing the obs event stream.
    pub fn scenario(&self, w: &Workload, trace: bool) -> Scenario {
        let span = w
            .scripts
            .iter()
            .filter_map(|s| s.last())
            .map(|&(t, _)| t)
            .max()
            .unwrap_or(SimTime::ZERO);
        let sc = match self.engine {
            Engine::Dvp => Scenario::dvp(w),
            // Retry timers keep the baseline from ever going quiet.
            Engine::Trad2pc => Scenario::trad(w).until(span + DRAIN),
        };
        let mut site = SiteConfig::builder();
        if self.adaptive {
            site = site.placement(Placement::adaptive());
        }
        let sc = if self.faulted {
            let (a, b): (Vec<usize>, Vec<usize>) = (0..N_SITES).partition(|&s| s < N_SITES / 2);
            let net = NetworkConfig {
                default_link: LinkConfig {
                    loss: 0.05,
                    duplicate: 0.02,
                    ..Default::default()
                },
                ..Default::default()
            }
            .with_partitions(
                PartitionSchedule::fully_connected(N_SITES)
                    .split_at(at(span, 30), &[&a, &b])
                    .heal_at(at(span, 50)),
            );
            let faults = FaultPlan::none()
                .crash(at(span, 60), 3)
                .recover(at(span, 70), 3)
                .crash(at(span, 80), 5)
                .recover(at(span, 85), 5);
            site = site.checkpoint_every(256);
            sc.net(net).faults(faults).until(span + DRAIN)
        } else {
            sc
        };
        sc.name(self.name)
            .site(site.build())
            .seed(NET_SEED)
            .trace(trace)
    }
}
