//! **T5 — Conservation under random fault schedules.**
//!
//! Claim (Section 3): `N = ΣNᵢ + N_M` **at all times**, whatever fails.
//! This is the safety experiment: for a batch of seeds we generate a
//! random fault schedule (partitions opening and healing, site crashes
//! and recoveries, message loss and duplication) over a live airline
//! workload, and audit the invariant at many instants during the run —
//! not just at quiescence.
//!
//! The table is a per-seed verdict; any violation panics the harness
//! (and the matching proptest in `tests/` shrinks it).

use crate::table::Table;
use crate::Scale;
use dvp_core::{Cluster, ClusterConfig, FaultPlan};
use dvp_nemesis::{generate, legacy_environment, Intensity};
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_workloads::AirlineWorkload;

fn msec(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

/// Build a random fault environment from a seed.
///
/// Since the nemesis subsystem landed, this is a thin wrapper over its
/// generator at [`Intensity::legacy`] — the single source of truth for
/// fault schedules. The output (and therefore every T5 table cell) is
/// byte-identical to the original inline generator at every seed; the
/// `legacy_generator_is_byte_identical` test pins that equivalence
/// against a verbatim copy of the old algorithm.
pub fn random_faults(seed: u64, n: usize, horizon_ms: u64) -> (NetworkConfig, FaultPlan) {
    let schedule = generate(seed, n, horizon_ms, &Intensity::legacy());
    let applied = schedule.apply(n, legacy_environment());
    (applied.net, applied.faults)
}

/// Run T5 and return the table.
pub fn run(scale: Scale) -> Table {
    let seeds = scale.pick(6, 30);
    let horizon_ms = scale.pick(1_500u64, 6_000);
    let n = 6;
    let mut t = Table::new(
        "T5: conservation N = ΣNᵢ + N_M under random faults (6 sites)",
        &["seed", "txns decided", "audits", "verdict"],
    );
    for seed in 0..seeds {
        let w = AirlineWorkload {
            n_sites: n,
            flights: 3,
            seats_per_flight: 500,
            txns: scale.pick(60, 400),
            mix: (0.6, 0.2, 0.15, 0.05),
            ..Default::default()
        }
        .generate(seed);
        let (net, faults) = random_faults(seed, n, horizon_ms);
        let mut cfg = ClusterConfig::new(n, w.catalog.clone());
        cfg.net = net;
        cfg.faults = faults;
        cfg.scripts = w.scripts.clone();
        cfg.seed = seed;
        let mut cl = Cluster::build(cfg);
        // Audit at many pause points during the run.
        let mut audits = 0u32;
        let step = horizon_ms / 20;
        for k in 1..=20u64 {
            cl.run_until(msec(k * step));
            cl.auditor()
                .check_conservation()
                .unwrap_or_else(|e| panic!("seed {seed}, t={}ms: {e}", k * step));
            audits += 1;
        }
        let m = cl.stats().txn;
        t.row(vec![
            seed.to_string(),
            (m.committed() + m.aborted()).to_string(),
            audits.to_string(),
            "OK".into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_passes_every_audit() {
        let t = run(Scale::Quick);
        assert_eq!(t.len(), 6);
        for r in 0..t.len() {
            assert_eq!(t.cell(r, 3), "OK");
            assert_eq!(t.cell(r, 2), "20");
        }
    }

    #[test]
    fn fault_generator_is_deterministic() {
        let (_, f1) = random_faults(3, 6, 1000);
        let (_, f2) = random_faults(3, 6, 1000);
        assert_eq!(format!("{f1:?}"), format!("{f2:?}"));
    }

    /// Verbatim copy of the pre-nemesis inline generator, kept only to
    /// pin that the nemesis legacy profile reproduces it byte-for-byte
    /// (same RNG stream, same push order ⇒ same trajectories).
    fn old_random_faults(seed: u64, n: usize, horizon_ms: u64) -> (NetworkConfig, FaultPlan) {
        use dvp_simnet::network::LinkConfig;
        use dvp_simnet::partition::PartitionSchedule;
        use dvp_simnet::rng::SimRng;
        let mut rng = SimRng::new(seed ^ 0xFA17);
        let mut net = NetworkConfig {
            default_link: LinkConfig {
                delay_min: SimDuration::millis(1),
                delay_max: SimDuration::millis(8),
                loss: 0.15,
                duplicate: 0.10,
            },
            ..Default::default()
        };
        let mut sched = PartitionSchedule::fully_connected(n);
        let episodes = rng.uniform(1, 3);
        let mut tcur = rng.uniform(10, horizon_ms / 4);
        for _ in 0..episodes {
            let cut: Vec<usize> = (0..n).filter(|_| rng.chance(0.4)).collect();
            if !cut.is_empty() && cut.len() < n {
                sched = sched.isolate_at(msec(tcur), &cut);
                let heal = tcur + rng.uniform(50, horizon_ms / 3);
                sched = sched.heal_at(msec(heal));
                tcur = heal + rng.uniform(10, horizon_ms / 4);
            } else {
                tcur += rng.uniform(10, horizon_ms / 4);
            }
        }
        net = net.with_partitions(sched);
        let mut faults = FaultPlan::none();
        for site in 0..n {
            if rng.chance(0.3) {
                let c = rng.uniform(10, horizon_ms / 2);
                let r = c + rng.uniform(20, horizon_ms / 2);
                faults = faults.crash(msec(c), site).recover(msec(r), site);
            }
        }
        (net, faults)
    }

    #[test]
    fn legacy_generator_is_byte_identical() {
        for seed in 0..40u64 {
            for horizon in [1000u64, 1500, 6000] {
                let (net_old, faults_old) = old_random_faults(seed, 6, horizon);
                let (net_new, faults_new) = random_faults(seed, 6, horizon);
                assert_eq!(
                    format!("{net_old:?}"),
                    format!("{net_new:?}"),
                    "net mismatch at seed {seed}, horizon {horizon}"
                );
                assert_eq!(
                    format!("{faults_old:?}"),
                    format!("{faults_new:?}"),
                    "fault plan mismatch at seed {seed}, horizon {horizon}"
                );
            }
        }
    }
}
