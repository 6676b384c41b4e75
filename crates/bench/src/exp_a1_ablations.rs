//! **A1 — Ablations of the design knobs (DESIGN.md §5, §5c).**
//!
//! One row per setting of each knob the design keeps configurable: refill
//! policy, transaction timeout, and placement mode.
//! Every row is the same DvP run with one knob moved, so the deltas
//! between neighbouring rows *are* the ablation; the columns are the
//! counters a knob can move.
//!
//! The first two knobs run a hub-skewed airline workload with a pool
//! tight enough that the hub must solicit (the timeout rows over a lossy
//! link, where that knob bites); the placement rows run the drifting
//! hotspot, the regime that separates the three modes.

use crate::scenario::{RunReport, Scenario};
use crate::table::Table;
use dvp_core::{Placement, RefillPolicy, SiteConfig};
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_workloads::{AirlineWorkload, HotspotDriftWorkload, Workload};

fn dvp(w: &Workload, site: SiteConfig, net: NetworkConfig) -> RunReport {
    Scenario::dvp(w)
        .site(site)
        .net(net)
        .until(SimTime::ZERO + SimDuration::secs(10))
        .seed(1)
        .run()
}

/// Run A1 and return the table.
pub fn run() -> Table {
    // Tight pool: the hub's quota (75/flight) is well under its skewed
    // demand, so every knob below actually gets exercised.
    let hub = AirlineWorkload {
        n_sites: 4,
        flights: 2,
        seats_per_flight: 300,
        txns: 150,
        site_skew: 2.0,
        mix: (0.9, 0.1, 0.0, 0.0),
        ..Default::default()
    }
    .generate(2);
    let drift = HotspotDriftWorkload {
        txns: 300,
        ..Default::default()
    }
    .generate(2);

    let mut t = Table::new(
        "A1: one knob at a time (hub-skewed airline, 150 txns; placement rows: drifting hotspot, 300 txns)",
        &[
            "knob",
            "setting",
            "commits",
            "aborts",
            "requests",
            "donations",
            "messages",
            "frames",
            "fast path",
            "max µs",
        ],
    );
    let mut row = |knob: &str, setting: String, r: RunReport| {
        t.row(vec![
            knob.into(),
            setting,
            r.committed.to_string(),
            r.aborted.to_string(),
            r.txn.requests_sent().to_string(),
            r.txn.donations().to_string(),
            r.net.sent.to_string(),
            r.net.frames_sent.to_string(),
            r.txn.fast_path_commits().to_string(),
            r.decisions.max().to_string(),
        ])
    };
    for (refill, name) in [
        (RefillPolicy::DemandExact, "exact"),
        (RefillPolicy::DemandHalf, "half"),
    ] {
        let site = SiteConfig::builder()
            .placement(Placement::Reactive(refill))
            .build();
        row(
            "refill",
            name.into(),
            dvp(&hub, site, NetworkConfig::reliable()),
        );
    }
    for ms in [10u64, 50, 200] {
        let site = SiteConfig::builder()
            .timeout(SimDuration::millis(ms))
            .build();
        row(
            "timeout",
            format!("{ms}ms"),
            dvp(&hub, site, NetworkConfig::lossy(0.3)),
        );
    }
    for (placement, name) in [
        (Placement::Static, "static"),
        (Placement::reactive(), "reactive"),
        (Placement::adaptive(), "adaptive"),
    ] {
        let site = SiteConfig::builder().placement(placement).build();
        row(
            "placement",
            name.into(),
            dvp(&drift, site, NetworkConfig::reliable()),
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_knob_moves_the_counter_it_is_kept_for() {
        let t = run();
        assert_eq!(t.len(), 8);
        let row = |knob: &str, setting: &str| {
            (0..t.len())
                .find(|&r| t.cell(r, 0) == knob && t.cell(r, 1) == setting)
                .unwrap_or_else(|| panic!("no row {knob}={setting}"))
        };
        let num = |r: usize, c: usize| -> u64 { t.cell(r, c).parse().unwrap() };
        // Shipping surplus with the deficit settles the hub in one wave.
        assert!(num(row("refill", "half"), 4) < num(row("refill", "exact"), 4));
        // The timeout is the decision bound.
        assert_eq!(num(row("timeout", "10ms"), 9), 10_000);
        assert!(num(row("timeout", "50ms"), 9) <= 50_000);
        // A static split cannot follow a moving spike; adaptive follows
        // it with fewer solicitations than reactive.
        assert!(num(row("placement", "static"), 3) > num(row("placement", "reactive"), 3));
        assert!(num(row("placement", "adaptive"), 4) < num(row("placement", "reactive"), 4));
    }
}
