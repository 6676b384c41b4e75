//! **F5 — Message traffic vs initial split and refill policy.**
//!
//! Claim (Section 9, future work the paper asks for): "performance
//! studies to find the best ways to distribute the data ... and to reduce
//! the message traffic are needed". We sweep the *initial split* of each
//! item (everything at one site / even / weighted to match demand) and
//! the refill policy, under hub-skewed demand, and report solicitation
//! traffic and abort rate.
//!
//! Expected shape: a split matching the demand distribution minimises
//! requests; concentrating everything away from the demand maximises
//! them; shipping `All` on first contact amortises later requests.

use crate::scenario::Scenario;
use crate::table::{f2, pct, Table};
use dvp_core::item::Split;
use dvp_core::{Placement, RefillPolicy, SiteConfig};
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_workloads::AirlineWorkload;

/// Run F5 and return the table.
pub fn run() -> Table {
    let n = 8;
    let txns = 3_000;
    let until = SimTime::ZERO + SimDuration::secs(90);
    let theta = 1.2; // hub-skewed demand over sites

    // Weights matching the Zipf demand: site k gets ~1/(k+1)^θ.
    let demand_weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(theta)).collect();

    let splits: Vec<(&str, Split)> = vec![
        ("all-at-cold-site", Split::AllAt(n - 1)),
        ("all-at-hub", Split::AllAt(0)),
        ("even", Split::Even),
        ("demand-weighted", Split::Weighted(demand_weights)),
    ];

    let mut t = Table::new(
        "F5: solicitation traffic vs initial split (8 sites, hub-skewed demand)",
        &[
            "split",
            "policy",
            "requests/commit",
            "donations/commit",
            "abort rate",
        ],
    );
    for (split_name, split) in &splits {
        for (policy, pname) in [
            (RefillPolicy::DemandExact, "exact"),
            (RefillPolicy::DemandHalf, "half"),
        ] {
            let w = AirlineWorkload {
                n_sites: n,
                flights: 2,
                seats_per_flight: (txns as u64) * 3,
                txns,
                site_skew: theta,
                mix: (0.9, 0.1, 0.0, 0.0),
                split: split.clone(),
                ..Default::default()
            }
            .generate(23);
            let site = SiteConfig::builder()
                .placement(Placement::Reactive(policy))
                .build();
            let r = Scenario::dvp(&w).site(site).until(until).seed(4).run();
            let per_commit = |x: u64| {
                if r.committed == 0 {
                    0.0
                } else {
                    x as f64 / r.committed as f64
                }
            };
            t.row(vec![
                split_name.to_string(),
                pname.into(),
                f2(per_commit(r.txn.requests_sent())),
                f2(per_commit(r.txn.donations())),
                pct(1.0 - r.commit_ratio()),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(t: &Table, r: usize) -> f64 {
        t.cell(r, 2).parse().unwrap()
    }

    #[test]
    fn demand_weighted_split_minimises_traffic() {
        let t = run();
        assert_eq!(t.len(), 8);
        // Rows (exact policy): cold=0, hub=2, even=4, weighted=6.
        let cold = requests(&t, 0);
        let even = requests(&t, 4);
        let weighted = requests(&t, 6);
        assert!(
            weighted <= even + 0.2,
            "matching the demand must not cost more than even: {weighted} vs {even}"
        );
        assert!(
            cold >= weighted,
            "misplaced value must cost the most: {cold} vs {weighted}"
        );
    }
}
