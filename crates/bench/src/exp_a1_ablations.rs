//! **A1 — Ablations of the design knobs (DESIGN.md §5, §5c).**
//!
//! One row per setting of each knob the design keeps configurable: refill
//! policy, solicitation fan-out, eager vs piggyback-only acks, Vm window,
//! transaction timeout, and placement mode. Every row is the same DvP
//! run with one knob moved, so the deltas between neighbouring rows *are*
//! the ablation; the columns are the counters a knob can move.
//!
//! The first five knobs run a hub-skewed airline workload with a pool
//! tight enough that the hub must solicit (the acks, window and timeout
//! rows over a lossy link, where those knobs bite); the placement rows
//! run the drifting hotspot, the regime that separates the three modes.
//! The scenarios are small and fixed, so the table is the same at both
//! scales.

use crate::scenario::{RunReport, Scenario};
use crate::table::Table;
use crate::Scale;
use dvp_core::{Fanout, Placement, ReactivePlacement, RefillPolicy, SiteConfig};
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_vmsg::VmConfig;
use dvp_workloads::{AirlineWorkload, HotspotDriftWorkload, Workload};

fn dvp(w: &Workload, site: SiteConfig, net: NetworkConfig) -> RunReport {
    Scenario::dvp(w)
        .site(site)
        .net(net)
        .until(SimTime::ZERO + SimDuration::secs(10))
        .seed(1)
        .run()
}

fn reactive(placement: ReactivePlacement) -> SiteConfig {
    SiteConfig::builder()
        .placement(Placement::Reactive(placement))
        .build()
}

fn vm(window: usize, eager_acks: bool) -> SiteConfig {
    SiteConfig {
        vm: VmConfig {
            window,
            eager_acks,
            ..VmConfig::default()
        },
        ..Default::default()
    }
}

/// Run A1 and return the table.
pub fn run(_scale: Scale) -> Table {
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
            "p95 µs",
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
            r.decisions.percentile(95.0).to_string(),
            r.decisions.max().to_string(),
        ])
    };
    for (refill, name) in [
        (RefillPolicy::DemandExact, "exact"),
        (RefillPolicy::DemandHalf, "half"),
        (RefillPolicy::All, "all"),
    ] {
        let site = reactive(ReactivePlacement {
            refill,
            ..Default::default()
        });
        row(
            "refill",
            name.into(),
            dvp(&hub, site, NetworkConfig::reliable()),
        );
    }
    for (fanout, name) in [(Fanout::One, "one"), (Fanout::All, "all")] {
        let site = reactive(ReactivePlacement {
            fanout,
            ..Default::default()
        });
        row(
            "fanout",
            name.into(),
            dvp(&hub, site, NetworkConfig::reliable()),
        );
    }
    for (eager, name) in [(true, "eager"), (false, "piggyback-only")] {
        row(
            "acks",
            name.into(),
            dvp(&hub, vm(16, eager), NetworkConfig::lossy(0.2)),
        );
    }
    for window in [1usize, 16, 64] {
        let r = dvp(&hub, vm(window, true), NetworkConfig::lossy(0.2));
        row("window", window.to_string(), r);
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
        let t = run(Scale::Quick);
        assert_eq!(t.len(), 16);
        let row = |knob: &str, setting: &str| {
            (0..t.len())
                .find(|&r| t.cell(r, 0) == knob && t.cell(r, 1) == setting)
                .unwrap_or_else(|| panic!("no row {knob}={setting}"))
        };
        let num = |r: usize, c: usize| -> u64 { t.cell(r, c).parse().unwrap() };
        // Shipping surplus with the deficit settles the hub in one wave.
        assert!(num(row("refill", "half"), 4) < num(row("refill", "exact"), 4));
        // One donor at a time: fewer messages, less redundancy.
        assert!(num(row("fanout", "one"), 6) < num(row("fanout", "all"), 6));
        assert!(num(row("fanout", "one"), 3) >= num(row("fanout", "all"), 3));
        // Piggyback-only sends a standalone ack only to answer a
        // duplicate, so it sends fewer messages; and because it does
        // answer one, no sender retransmits forever.
        let (lazy, eager) = (row("acks", "piggyback-only"), row("acks", "eager"));
        assert!(num(lazy, 6) < num(eager, 6));
        assert!(num(lazy, 7) < 2 * num(eager, 7));
        // The timeout is the decision bound.
        assert_eq!(num(row("timeout", "10ms"), 10), 10_000);
        assert!(num(row("timeout", "50ms"), 10) <= 50_000);
        // A static split cannot follow a moving spike; adaptive follows
        // it with fewer solicitations than reactive.
        assert!(num(row("placement", "static"), 3) > num(row("placement", "reactive"), 3));
        assert!(num(row("placement", "adaptive"), 4) < num(row("placement", "reactive"), 4));
    }
}
