//! Airline reservation workload — the paper's running example (Section 3).
//!
//! Flights are items; customers arrive at sites and reserve 1–5 seats,
//! occasionally cancel, occasionally change flights (a transfer), and
//! agents occasionally ask for the exact seat count (a full-value read).
//! Demand can be skewed toward "hot" sites (everyone books from the hub)
//! and "hot" flights — the skew axis of experiment F1.

use crate::arrivals::Arrivals;
use crate::stream::{self, Mix};
use crate::zipf::Zipf;
use crate::Workload;
use dvp_core::item::{Catalog, ItemId, Split};
use dvp_core::txn::TxnSpec;
use dvp_core::Qty;
use dvp_simnet::rng::SimRng;
use dvp_simnet::time::SimDuration;
use dvp_simnet::NodeId;

/// Parameters of the airline workload.
///
/// ```
/// use dvp_workloads::AirlineWorkload;
///
/// let w = AirlineWorkload { txns: 50, ..Default::default() }.generate(7);
/// assert_eq!(w.txn_count(), 50);
/// assert_eq!(w.scripts, AirlineWorkload { txns: 50, ..Default::default() }
///     .generate(7).scripts); // deterministic per seed
/// ```
#[derive(Clone, Debug)]
pub struct AirlineWorkload {
    /// Number of sites selling tickets.
    pub n_sites: usize,
    /// Number of flights.
    pub flights: usize,
    /// Seats per flight.
    pub seats_per_flight: Qty,
    /// Total customer transactions to generate.
    pub txns: usize,
    /// Zipf θ over *sites*: 0 = customers spread evenly; large = all
    /// demand hits one hub site.
    pub site_skew: f64,
    /// Zipf θ over *flights*.
    pub flight_skew: f64,
    /// Fractions (reserve, cancel, change, read); must sum to ≤ 1.0 with
    /// the remainder treated as reserve.
    pub mix: (f64, f64, f64, f64),
    /// Largest single-booking size (uniform in `1..=max`).
    pub max_party: Qty,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// How the initial seat pool is split across sites.
    pub split: Split,
}

impl Default for AirlineWorkload {
    fn default() -> Self {
        AirlineWorkload {
            n_sites: 4,
            flights: 4,
            seats_per_flight: 200,
            txns: 200,
            site_skew: 0.0,
            flight_skew: 0.0,
            mix: (0.70, 0.15, 0.10, 0.05),
            max_party: 5,
            arrivals: Arrivals::Poisson {
                mean_gap: SimDuration::millis(5),
            },
            split: Split::Even,
        }
    }
}

impl AirlineWorkload {
    /// Generate the workload deterministically from `seed`: the catalog,
    /// and one drawn script per site.
    pub fn generate(&self, seed: u64) -> Workload {
        let mut catalog = Catalog::new();
        for f in 0..self.flights {
            catalog.add(
                format!("flight-{f}"),
                self.seats_per_flight,
                self.split.clone(),
            );
        }
        let mix = AirlineMix {
            w: self.clone(),
            sites: Zipf::new(self.n_sites, self.site_skew),
            flights: Zipf::new(self.flights, self.flight_skew),
            ids: catalog.items().iter().map(|d| d.id).collect(),
        };
        let rng = SimRng::new(seed ^ 0xA1B2);
        let scripts = stream::scripts(self.n_sites, self.arrivals, self.txns, rng, mix);
        Workload { catalog, scripts }
    }
}

/// What one airline arrival is.
#[derive(Clone)]
struct AirlineMix {
    w: AirlineWorkload,
    sites: Zipf,
    flights: Zipf,
    ids: Vec<ItemId>,
}

impl Mix for AirlineMix {
    fn draw(&self, _k: usize, rng: &mut SimRng) -> (NodeId, TxnSpec) {
        let w = &self.w;
        let (p_res, p_can, p_chg, p_read) = w.mix;
        let site = self.sites.sample(rng);
        let flight = self.ids[self.flights.sample(rng)];
        let party = rng.uniform(1, w.max_party.max(1));
        let u = rng.unit();
        let spec = if u < p_res {
            TxnSpec::reserve(flight, party)
        } else if u < p_res + p_can {
            TxnSpec::release(flight, party)
        } else if u < p_res + p_can + p_chg && w.flights > 1 {
            // Change to a different flight.
            let mut other = self.ids[self.flights.sample(rng)];
            if other == flight {
                other = self.ids[(flight.0 as usize + 1) % w.flights];
            }
            TxnSpec::transfer(flight, other, party)
        } else if u < p_res + p_can + p_chg + p_read {
            TxnSpec::read(flight)
        } else {
            TxnSpec::reserve(flight, party)
        };
        (site, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_core::ops::Op;
    use dvp_core::Script;

    #[test]
    fn generates_requested_volume() {
        let w = AirlineWorkload::default().generate(1);
        assert_eq!(w.txn_count(), 200);
        assert_eq!(w.catalog.len(), 4);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = AirlineWorkload::default().generate(9);
        let b = AirlineWorkload::default().generate(9);
        assert_eq!(a.scripts, b.scripts);
        let c = AirlineWorkload::default().generate(10);
        assert_ne!(a.scripts, c.scripts);
    }

    #[test]
    fn site_skew_concentrates_arrivals() {
        let flat = AirlineWorkload {
            txns: 1000,
            site_skew: 0.0,
            ..Default::default()
        }
        .generate(3);
        let skewed = AirlineWorkload {
            txns: 1000,
            site_skew: 2.5,
            ..Default::default()
        }
        .generate(3);
        let max_flat = flat.scripts.iter().map(|s| s.len()).max().unwrap();
        let max_skew = skewed.scripts.iter().map(|s| s.len()).max().unwrap();
        assert!(max_skew > max_flat, "skew must concentrate demand");
        assert!(max_skew as f64 > 0.7 * 1000.0);
    }

    #[test]
    fn mix_fractions_are_respected() {
        let w = AirlineWorkload {
            txns: 4000,
            mix: (0.5, 0.2, 0.2, 0.1),
            ..Default::default()
        }
        .generate(5);
        let mut reserve = 0;
        let mut cancel = 0;
        let mut change = 0;
        let mut read = 0;
        for (_, spec) in w.scripts.iter().flat_map(Script::iter) {
            match spec.ops.as_slice() {
                [(_, Op::Decr(_))] => reserve += 1,
                [(_, Op::Incr(_))] => cancel += 1,
                [(_, Op::Decr(_)), (_, Op::Incr(_))] => change += 1,
                [(_, Op::Read)] => read += 1,
                other => panic!("unexpected spec {other:?}"),
            }
        }
        let total = 4000.0;
        assert!((reserve as f64 / total - 0.5).abs() < 0.05);
        assert!((cancel as f64 / total - 0.2).abs() < 0.05);
        assert!((change as f64 / total - 0.2).abs() < 0.05);
        assert!((read as f64 / total - 0.1).abs() < 0.05);
    }

    #[test]
    fn party_sizes_within_bounds() {
        let w = AirlineWorkload {
            txns: 500,
            max_party: 3,
            ..Default::default()
        }
        .generate(4);
        for (_, spec) in w.scripts.iter().flat_map(Script::iter) {
            for (_, op) in &spec.ops {
                if let Op::Decr(k) | Op::Incr(k) = op {
                    assert!((1..=3).contains(k));
                }
            }
        }
    }

    #[test]
    fn change_never_transfers_to_same_flight() {
        let w = AirlineWorkload {
            txns: 2000,
            mix: (0.0, 0.0, 1.0, 0.0),
            ..Default::default()
        }
        .generate(6);
        for (_, spec) in w.scripts.iter().flat_map(Script::iter) {
            if spec.ops.len() == 2 {
                assert_ne!(spec.ops[0].0, spec.ops[1].0);
            }
        }
    }
}
