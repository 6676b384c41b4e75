//! **T2 — Non-blocking behaviour.**
//!
//! Claim (Sections 2, 5): every DvP transaction reaches a decision within
//! a bound (the timeout), no matter what fails; a 2PC participant that
//! voted YES and lost its coordinator can *not* decide — it holds locks
//! until connectivity returns.
//!
//! Scenarios: (a) a partition opens mid-commit and heals later; (b) the
//! coordinator crashes mid-commit and recovers later. For each we report
//! the worst-case decision/blocking window and how many transactions were
//! still undecided mid-fault.

use crate::table::{ms, Table};
use dvp_baselines::CommitProtocol::{ThreePhase, TwoPhase};
use dvp_baselines::{TradCluster, TradConfig};
use dvp_core::item::{Catalog, Split};
use dvp_core::{Cluster, ClusterConfig, FaultPlan, TxnSpec};
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::partition::PartitionSchedule;
use dvp_simnet::time::{SimDuration, SimTime};

fn msec(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

fn fixed_net() -> NetworkConfig {
    NetworkConfig::fixed_delay(SimDuration::millis(2))
}

/// One row's run, shared by every engine: a reservation big enough to
/// require solicitation — the same shape that forces 2PC into its
/// prepare phase — on `net` under `faults`.
fn config(net: NetworkConfig, faults: FaultPlan) -> ClusterConfig {
    let mut catalog = Catalog::new();
    let acct = catalog.add("acct", 1_000, Split::Even);
    let mut cfg = ClusterConfig::new(4, catalog).at(0, msec(1), TxnSpec::reserve(acct, 400));
    cfg.net = net;
    cfg.faults = faults;
    cfg
}

struct Obs {
    max_window_us: u64,
    undecided_mid_fault: u64,
    consistent: bool,
}

fn observe_dvp(cfg: ClusterConfig, probe_at: SimTime, until: SimTime) -> Obs {
    let mut cl = Cluster::build(cfg);
    cl.run_until(probe_at);
    let undecided: u64 = (0..4).map(|s| cl.sim.node(s).active_txns() as u64).sum();
    cl.run_until(until);
    cl.auditor().check_conservation().unwrap();
    let m = cl.stats().txn;
    Obs {
        max_window_us: m.decision_latency().max(),
        undecided_mid_fault: undecided,
        consistent: true, // single-site decisions cannot diverge
    }
}

fn observe_trad(cfg: ClusterConfig<TradConfig>, probe_at: SimTime, until: SimTime) -> Obs {
    let mut cl = TradCluster::build(cfg);
    cl.run_until(probe_at);
    let undecided: u64 = (0..4).map(|s| cl.sim.node(s).in_doubt_count() as u64).sum();
    let blocking_at_probe = cl.metrics().max_blocking_us(cl.sim.now());
    cl.run_until(until);
    let m = cl.metrics();
    Obs {
        max_window_us: m.max_blocking_us(cl.sim.now()).max(blocking_at_probe),
        undecided_mid_fault: undecided,
        consistent: cl.check_decision_consistency().is_ok(),
    }
}

/// Run T2 and return the table.
pub fn run() -> Table {
    // A heal time far beyond any protocol constant shows the window
    // scaling with the fault.
    let heal = 5_000;
    let until = msec(heal + 2_000);
    let probe = msec(heal - 100);

    let mut t = Table::new(
        "T2: worst-case decision window under mid-commit faults (4 sites)",
        &[
            "scenario",
            "system",
            "max window",
            "undecided mid-fault",
            "consistent",
        ],
    );
    let yn = |b: bool| if b { "yes" } else { "NO" }.to_string();

    // Scenario (a): a partition opens at 8ms — right after the 2PC
    // participants prepared (≈7ms) — and heals at `heal`. 3PC's partition
    // starts slightly later, at 10ms, so its pre-commit round has begun:
    // that is the window in which its termination rule diverges.
    let split_at = |at, groups: &[&[usize]]| {
        let sched = PartitionSchedule::fully_connected(4)
            .split_at(msec(at), groups)
            .heal_at(msec(heal));
        config(fixed_net().with_partitions(sched), FaultPlan::none())
    };
    let partition = split_at(8, &[&[0, 3], &[1, 2]]);
    let partition_3pc = split_at(10, &[&[0, 1], &[2, 3]]);
    // Scenario (b): the coordinator crashes mid-commit.
    let crash = config(
        fixed_net(),
        FaultPlan::none().crash(msec(8), 0).recover(msec(heal), 0),
    );
    let dvp = |cfg: &ClusterConfig| observe_dvp(cfg.clone(), probe, until);
    let trad = |cfg: &ClusterConfig, protocol| {
        let site = TradConfig {
            protocol,
            ..Default::default()
        };
        observe_trad(cfg.clone().with_site(site), probe, until)
    };
    let (a, b) = ("partition mid-commit", "coordinator crash");
    let rows = [
        (a, "DvP", dvp(&partition)),
        (a, "2PC", trad(&partition, TwoPhase)),
        (a, "3PC", trad(&partition_3pc, ThreePhase)),
        (b, "DvP", dvp(&crash)),
        (b, "2PC", trad(&crash, TwoPhase)),
        (b, "3PC", trad(&crash, ThreePhase)),
    ];
    for (scenario, system, o) in rows {
        t.row(vec![
            scenario.into(),
            system.into(),
            ms(o.max_window_us),
            o.undecided_mid_fault.to_string(),
            yn(o.consistent),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table, computed once for every test here.
    fn table() -> &'static Table {
        static TABLE: std::sync::OnceLock<Table> = std::sync::OnceLock::new();
        TABLE.get_or_init(run)
    }

    fn window_ms(cell: &str) -> f64 {
        cell.trim_end_matches("ms").parse().unwrap()
    }

    #[test]
    fn dvp_window_is_bounded_by_timeout_2pc_by_fault_duration() {
        let t = table();
        assert_eq!(t.len(), 6);
        // DvP rows: bounded by the 50ms timeout (+ small slack), and
        // trivially consistent.
        for r in [0, 3] {
            assert_eq!(t.cell(r, 1), "DvP");
            assert!(
                window_ms(t.cell(r, 2)) <= 60.0,
                "DvP decision window must be bounded: {}",
                t.cell(r, 2)
            );
            assert_eq!(t.cell(r, 3), "0", "DvP has nothing undecided mid-fault");
            assert_eq!(t.cell(r, 4), "yes");
        }
        // 2PC rows: window scales with the fault (≥ 300ms here) but the
        // decisions stay consistent — blocking IS the price of safety.
        for r in [1, 4] {
            assert_eq!(t.cell(r, 1), "2PC");
            assert!(
                window_ms(t.cell(r, 2)) >= 300.0,
                "2PC must block across the fault: {}",
                t.cell(r, 2)
            );
            assert_eq!(t.cell(r, 4), "yes");
        }
        // Partition scenario: someone was in doubt mid-fault.
        assert_ne!(t.cell(1, 3), "0");
    }

    #[test]
    fn threepc_is_bounded_but_diverges_under_partition() {
        let t = table();
        // 3PC under partition (row 2): bounded window, but inconsistent.
        assert_eq!(t.cell(2, 1), "3PC");
        assert!(
            window_ms(t.cell(2, 2)) < 300.0,
            "3PC terminates without waiting out the partition: {}",
            t.cell(2, 2)
        );
        assert_eq!(
            t.cell(2, 4),
            "NO",
            "3PC's termination rule diverges across the partition"
        );
        // 3PC under coordinator crash (row 5): bounded AND consistent.
        assert_eq!(t.cell(5, 1), "3PC");
        assert!(window_ms(t.cell(5, 2)) < 300.0);
        assert_eq!(t.cell(5, 4), "yes");
    }
}
