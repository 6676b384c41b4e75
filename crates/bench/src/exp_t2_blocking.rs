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
use crate::Scale;
use dvp_baselines::{CommitProtocol, TradCluster, TradClusterConfig};
use dvp_core::item::{Catalog, Split};
use dvp_core::{Cluster, ClusterConfig, FaultPlan, TxnSpec};
use dvp_simnet::network::{LinkConfig, NetworkConfig};
use dvp_simnet::partition::PartitionSchedule;
use dvp_simnet::time::{SimDuration, SimTime};

fn msec(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add("acct", 1_000, Split::Even);
    c
}

fn fixed_net() -> NetworkConfig {
    NetworkConfig {
        default_link: LinkConfig::reliable_fixed(SimDuration::millis(2)),
        ..Default::default()
    }
}

/// The partition used by scenario (a): opens at 8ms — right after the 2PC
/// participants prepared (≈7ms) — and heals at `heal_ms`.
fn mid_commit_partition(heal_ms: u64) -> PartitionSchedule {
    PartitionSchedule::fully_connected(4)
        .split_at(msec(8), &[&[0, 3], &[1, 2]])
        .heal_at(msec(heal_ms))
}

struct Obs {
    max_window_us: u64,
    undecided_mid_fault: u64,
    consistent: bool,
}

fn observe_dvp(net: NetworkConfig, faults: FaultPlan, probe_at: SimTime, until: SimTime) -> Obs {
    let mut cfg = ClusterConfig::new(4, catalog());
    cfg.net = net;
    cfg.faults = faults;
    // A reservation big enough to require solicitation — the same shape
    // that forces 2PC into its prepare phase.
    cfg = cfg.at(0, msec(1), TxnSpec::reserve(dvp_core::ItemId(0), 400));
    let mut cl = Cluster::build(cfg);
    cl.run_until(probe_at);
    let undecided: u64 = (0..4).map(|s| cl.sim.node(s).active_txns() as u64).sum();
    cl.run_until(until);
    cl.auditor().check_conservation().unwrap();
    let m = cl.stats().txn;
    Obs {
        max_window_us: m.decision_latency_percentile(100.0),
        undecided_mid_fault: undecided,
        consistent: true, // single-site decisions cannot diverge
    }
}

fn observe_trad(
    protocol: CommitProtocol,
    net: NetworkConfig,
    crashes: Vec<(SimTime, usize)>,
    recoveries: Vec<(SimTime, usize)>,
    probe_at: SimTime,
    until: SimTime,
) -> Obs {
    let mut cfg = TradClusterConfig::new(4, catalog());
    cfg.trad.protocol = protocol;
    cfg.net = net;
    cfg.crashes = crashes;
    cfg.recoveries = recoveries;
    cfg = cfg.at(0, msec(1), TxnSpec::reserve(dvp_core::ItemId(0), 400));
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
pub fn run(scale: Scale) -> Table {
    // Longer heal times at full scale show the window scaling with the
    // fault, not with any protocol constant.
    let heal = scale.pick(500, 5_000);
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

    // Scenario (a): partition mid-commit. (3PC's partition starts slightly
    // later — at 10ms — so its pre-commit round has begun; that is the
    // window in which its termination rule diverges.)
    // Scenario (b): coordinator crash mid-commit.
    for (scenario, system) in [
        ("partition mid-commit", "DvP"),
        ("partition mid-commit", "2PC"),
        ("partition mid-commit", "3PC"),
        ("coordinator crash", "DvP"),
        ("coordinator crash", "2PC"),
        ("coordinator crash", "3PC"),
    ] {
        let o = match (scenario, system) {
            ("partition mid-commit", "DvP") => observe_dvp(
                fixed_net().with_partitions(mid_commit_partition(heal)),
                FaultPlan::none(),
                probe,
                until,
            ),
            ("partition mid-commit", "2PC") => observe_trad(
                CommitProtocol::TwoPhase,
                fixed_net().with_partitions(mid_commit_partition(heal)),
                vec![],
                vec![],
                probe,
                until,
            ),
            ("partition mid-commit", "3PC") => {
                let sched3 = PartitionSchedule::fully_connected(4)
                    .split_at(msec(10), &[&[0, 1], &[2, 3]])
                    .heal_at(msec(heal));
                observe_trad(
                    CommitProtocol::ThreePhase,
                    fixed_net().with_partitions(sched3),
                    vec![],
                    vec![],
                    probe,
                    until,
                )
            }
            ("coordinator crash", "DvP") => observe_dvp(
                fixed_net(),
                FaultPlan::none().crash(msec(8), 0).recover(msec(heal), 0),
                probe,
                until,
            ),
            ("coordinator crash", "2PC") => observe_trad(
                CommitProtocol::TwoPhase,
                fixed_net(),
                vec![(msec(8), 0)],
                vec![(msec(heal), 0)],
                probe,
                until,
            ),
            ("coordinator crash", "3PC") => observe_trad(
                CommitProtocol::ThreePhase,
                fixed_net(),
                vec![(msec(8), 0)],
                vec![(msec(heal), 0)],
                probe,
                until,
            ),
            _ => unreachable!("unknown cell"),
        };
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

    fn window_ms(cell: &str) -> f64 {
        cell.trim_end_matches("ms").parse().unwrap()
    }

    #[test]
    fn dvp_window_is_bounded_by_timeout_2pc_by_fault_duration() {
        let t = run(Scale::Quick);
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
        let t = run(Scale::Quick);
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
