//! **F1 — Abort rate vs quota adequacy (demand skew).**
//!
//! Claim (Section 3): a transaction aborts only when the local value plus
//! whatever Vms arrive within the timeout is inadequate. With demand
//! spread evenly over sites, local quotas suffice and almost everything
//! commits on the fast path; as demand skews toward a hub site, the hub's
//! quota exhausts and transactions lean on solicitation — making the
//! refill policy matter.
//!
//! Sweep: Zipf θ over sites × refill policy. Metrics: abort fraction and
//! remote requests per commit.

use crate::scenario::Scenario;
use crate::table::{f2, pct, Table};
use dvp_core::{Placement, RefillPolicy, SiteConfig};
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_workloads::AirlineWorkload;

/// Run F1 and return the table.
pub fn run() -> Table {
    let txns = 3_000;
    let until = SimTime::ZERO + SimDuration::secs(90);
    let mut t = Table::new(
        "F1: aborts & solicitation vs demand skew (4 sites, airline, tight seats)",
        &[
            "site skew θ",
            "policy",
            "abort rate",
            "requests/commit",
            "donations/commit",
        ],
    );
    for theta in [0.0, 1.0, 2.0, 3.0] {
        for (policy, name) in [
            (RefillPolicy::DemandExact, "exact"),
            (RefillPolicy::DemandHalf, "half"),
        ] {
            // Supply = 1.5 × estimated net demand: never a global
            // sell-out, but a per-site quota (supply/4 ≈ 0.37 × demand)
            // that a skewed hub (receiving ~0.9 × demand) must exceed —
            // so requests measure *skew*, not scarcity.
            let est_demand = (txns as u64) * 3 * 3 / 4; // avg party 3, ~75% net decr
            let total_supply = est_demand * 2;
            let w = AirlineWorkload {
                n_sites: 4,
                flights: 2,
                seats_per_flight: total_supply / 2,
                txns,
                site_skew: theta,
                mix: (0.85, 0.15, 0.0, 0.0),
                ..Default::default()
            }
            .generate(17);
            let site = SiteConfig::builder()
                .placement(Placement::Reactive(policy))
                .build();
            let r = Scenario::dvp(&w).site(site).until(until).seed(3).run();
            let per_commit = |x: u64| {
                if r.committed == 0 {
                    0.0
                } else {
                    x as f64 / r.committed as f64
                }
            };
            t.row(vec![
                format!("{theta:.1}"),
                name.into(),
                pct(1.0 - r.commit_ratio()),
                f2(per_commit(r.txn.requests_sent())),
                f2(per_commit(r.txn.donations())),
            ]);
        }
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

    fn requests(t: &Table, r: usize) -> f64 {
        t.cell(r, 3).parse().unwrap()
    }

    #[test]
    fn skew_increases_solicitation() {
        let t = table();
        assert_eq!(t.len(), 8);
        // Compare θ=0 vs θ=3 for the same (exact) policy: rows 0 and 6.
        assert!(
            requests(t, 6) > requests(t, 0),
            "hub demand must lean on solicitation: {} vs {}",
            t.cell(6, 3),
            t.cell(0, 3)
        );
        // Even quotas + even demand = pure fast path.
        assert_eq!(t.cell(0, 3), "0.00");
        assert_eq!(t.cell(0, 2), "0.0%");
    }

    #[test]
    fn surplus_shipping_amortises_repeat_requests_under_skew() {
        let t = table();
        // At θ=3: 'half' (row 7) ships surplus with every donation, so
        // the hub stops asking; 'exact' (row 6) asks again per deficit.
        assert!(
            requests(t, 7) < requests(t, 6),
            "half {} must undercut exact {}",
            t.cell(7, 3),
            t.cell(6, 3)
        );
    }
}
