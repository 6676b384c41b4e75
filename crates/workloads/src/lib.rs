//! # dvp-workloads — the paper's motivating applications as generators
//!
//! The paper motivates DvP with three applications (Sections 1, 3, 8):
//! airline reservations, banking, and inventory control. This crate turns
//! each into a deterministic workload generator producing the *same*
//! inputs for the DvP engine and the traditional baseline, which both
//! build from one `dvp_core::ClusterConfig`: a catalog of items plus one
//! drawn [`Script`] per site. A script holds no list: each generator is a
//! resumable stream that yields `(site, arrival time, TxnSpec)` in time
//! order, and a run draws its arrivals from it one at a time, as the
//! kernel reaches them. Generating a workload makes one pass over the
//! stream, keeping each site's length and last arrival.
//!
//! Generators are pure functions of their parameters and a seed, so every
//! draw yields the same stream and every experiment row is reproducible
//! bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod airline;
pub mod arrivals;
pub mod banking;
pub mod hotspot;
pub mod inventory;
mod stream;
pub mod zipf;

pub use airline::AirlineWorkload;
pub use banking::BankingWorkload;
pub use hotspot::HotspotDriftWorkload;
pub use inventory::InventoryWorkload;
pub use zipf::Zipf;

use dvp_core::item::Catalog;
use dvp_core::ClusterConfig;
use dvp_core::Script;

/// A generated workload: catalog + per-site transaction scripts.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The data items.
    pub catalog: Catalog,
    /// `scripts[s]` = arrivals at site `s`.
    pub scripts: Vec<Script>,
}

impl Workload {
    /// Total number of transactions across all sites.
    pub fn txn_count(&self) -> usize {
        self.scripts.iter().map(|s| s.len()).sum()
    }

    /// A run of this workload with every other knob at its default: DvP
    /// site config, reliable network, no faults, seed 0. The scripts are
    /// shared, not copied; each cluster built from it draws its own
    /// arrivals.
    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig {
            scripts: self.scripts.clone(),
            ..ClusterConfig::new(0, self.catalog.clone())
        }
    }
}

/// Stream ≡ list: the reference model is the generators as they were
/// when each built every site's list up front — all arrival gaps drawn
/// first, then each arrival's site and spec from the same RNG, pushed
/// onto its site's list. For random parameters and seeds, every drawn
/// script must yield exactly its site's list.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::Arrivals;
    use dvp_core::item::Split;
    use dvp_core::ops::Op;
    use dvp_core::TxnSpec;
    use dvp_simnet::rng::SimRng;
    use dvp_simnet::time::{SimDuration, SimTime};
    use proptest::prelude::*;

    type Lists = Vec<Vec<(SimTime, TxnSpec)>>;

    /// `count` arrival instants, every gap drawn up front.
    fn times(arrivals: &Arrivals, start: SimTime, count: usize, rng: &mut SimRng) -> Vec<SimTime> {
        let mut t = start;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let gap = match arrivals {
                Arrivals::Poisson { mean_gap } => {
                    SimDuration::micros(rng.exp(mean_gap.as_micros() as f64).max(1))
                }
                Arrivals::Uniform { gap } => *gap,
            };
            t += gap;
            out.push(t);
        }
        out
    }

    fn start() -> SimTime {
        SimTime::ZERO + SimDuration::millis(1)
    }

    fn banking(w: &BankingWorkload, seed: u64) -> Lists {
        let mut rng = SimRng::new(seed ^ 0xBA2C);
        let mut catalog = Catalog::new();
        for a in 0..w.accounts {
            catalog.add(format!("acct-{a}"), w.opening_balance, w.split.clone());
        }
        let acct_z = Zipf::new(w.accounts, w.account_skew);
        let times = times(&w.arrivals, start(), w.txns, &mut rng);
        let mut scripts = vec![Vec::new(); w.n_sites];
        let (p_dep, p_wdr, p_tr, p_read) = w.mix;
        for t in times {
            let site = rng.index(w.n_sites);
            let acct = catalog.items()[acct_z.sample(&mut rng)].id;
            let amount = rng.uniform(1, w.max_amount.max(1));
            let u = rng.unit();
            let spec = if u < p_dep {
                TxnSpec::release(acct, amount)
            } else if u < p_dep + p_wdr {
                TxnSpec::reserve(acct, amount)
            } else if u < p_dep + p_wdr + p_tr && w.accounts > 1 {
                let mut other = catalog.items()[acct_z.sample(&mut rng)].id;
                if other == acct {
                    other = catalog.items()[(acct.0 as usize + 1) % w.accounts].id;
                }
                TxnSpec::transfer(acct, other, amount)
            } else if u < p_dep + p_wdr + p_tr + p_read {
                TxnSpec::read(acct)
            } else {
                TxnSpec::release(acct, amount)
            };
            scripts[site].push((t, spec));
        }
        scripts
    }

    fn hotspot(w: &HotspotDriftWorkload, seed: u64) -> Lists {
        let mut rng = SimRng::new(seed ^ 0x407_5B07);
        let mut catalog = Catalog::new();
        for i in 0..w.items {
            catalog.add(format!("stock-{i}"), w.per_item, w.split.clone());
        }
        let item_z = Zipf::new(w.items, w.item_skew);
        let times = times(&w.arrivals, start(), w.txns, &mut rng);
        let per_epoch = w.txns.div_ceil(w.epochs).max(1);
        let mut scripts = vec![Vec::new(); w.n_sites];
        for (k, t) in times.into_iter().enumerate() {
            let (hot_site, hot_item) = w.drift().pair(k / per_epoch);
            let amount = rng.uniform(1, w.max_amount.max(1));
            let (site, spec) = if rng.unit() < w.focus {
                let item = catalog.items()[hot_item].id;
                let spec = if rng.unit() < w.withdraw_frac {
                    TxnSpec::reserve(item, amount)
                } else {
                    TxnSpec::release(item, amount)
                };
                (hot_site, spec)
            } else {
                let site = rng.index(w.n_sites);
                let item = catalog.items()[item_z.sample(&mut rng)].id;
                let spec = if rng.unit() < 0.5 {
                    TxnSpec::reserve(item, amount)
                } else {
                    TxnSpec::release(item, amount)
                };
                (site, spec)
            };
            scripts[site].push((t, spec));
        }
        scripts
    }

    fn airline(w: &AirlineWorkload, seed: u64) -> Lists {
        let mut rng = SimRng::new(seed ^ 0xA1B2);
        let mut catalog = Catalog::new();
        for f in 0..w.flights {
            catalog.add(format!("flight-{f}"), w.seats_per_flight, w.split.clone());
        }
        let site_z = Zipf::new(w.n_sites, w.site_skew);
        let flight_z = Zipf::new(w.flights, w.flight_skew);
        let times = times(&w.arrivals, start(), w.txns, &mut rng);
        let mut scripts = vec![Vec::new(); w.n_sites];
        let (p_res, p_can, p_chg, p_read) = w.mix;
        for t in times {
            let site = site_z.sample(&mut rng);
            let flight = catalog.items()[flight_z.sample(&mut rng)].id;
            let party = rng.uniform(1, w.max_party.max(1));
            let u = rng.unit();
            let spec = if u < p_res {
                TxnSpec::reserve(flight, party)
            } else if u < p_res + p_can {
                TxnSpec::release(flight, party)
            } else if u < p_res + p_can + p_chg && w.flights > 1 {
                let mut other = catalog.items()[flight_z.sample(&mut rng)].id;
                if other == flight {
                    other = catalog.items()[(flight.0 as usize + 1) % w.flights].id;
                }
                TxnSpec::transfer(flight, other, party)
            } else if u < p_res + p_can + p_chg + p_read {
                TxnSpec::read(flight)
            } else {
                TxnSpec::reserve(flight, party)
            };
            scripts[site].push((t, spec));
        }
        scripts
    }

    fn inventory(w: &InventoryWorkload, seed: u64) -> Lists {
        let mut rng = SimRng::new(seed ^ 0x13C0);
        let mut catalog = Catalog::new();
        for p in 0..w.products {
            catalog.add(format!("sku-{p}"), w.stock, w.split.clone());
        }
        let prod_z = Zipf::new(w.products, w.product_skew);
        let times = times(&w.arrivals, start(), w.txns, &mut rng);
        let mut scripts = vec![Vec::new(); w.n_sites];
        let (p_ship, p_restock, p_take) = w.mix;
        for t in times {
            let site = rng.index(w.n_sites);
            let u = rng.unit();
            let spec = if u < p_ship || u >= p_ship + p_restock + p_take {
                let lines = rng.uniform(1, w.max_order_lines.max(1) as u64) as usize;
                let mut prods: Vec<u32> = Vec::new();
                for _ in 0..lines.min(w.products) {
                    let mut p = prod_z.sample(&mut rng) as u32;
                    while prods.contains(&p) {
                        p = (p + 1) % w.products as u32;
                    }
                    prods.push(p);
                }
                TxnSpec {
                    ops: prods
                        .into_iter()
                        .map(|p| {
                            (
                                catalog.items()[p as usize].id,
                                Op::Decr(rng.uniform(1, w.max_units.max(1))),
                            )
                        })
                        .collect(),
                }
            } else if u < p_ship + p_restock {
                let p = catalog.items()[prod_z.sample(&mut rng)].id;
                TxnSpec::release(p, rng.uniform(w.max_units, w.max_units * 5))
            } else {
                let p = catalog.items()[prod_z.sample(&mut rng)].id;
                TxnSpec::read(p)
            };
            scripts[site].push((t, spec));
        }
        scripts
    }

    /// Each drawn script yields its site's list, and its length and last
    /// arrival (from the summary pass) are the list's.
    fn assert_streams_match(w: &Workload, lists: &Lists) {
        assert_eq!(w.scripts.len(), lists.len(), "one script per site");
        for (s, (script, list)) in w.scripts.iter().zip(lists).enumerate() {
            assert_eq!(script.len(), list.len(), "site {s}'s length");
            assert_eq!(script.last(), list.last(), "site {s}'s last arrival");
            assert!(
                script.iter().eq(list.iter().cloned()),
                "site {s}'s stream differs from its list"
            );
        }
        assert_eq!(w.txn_count(), lists.iter().map(Vec::len).sum::<usize>());
    }

    fn arrivals() -> impl Strategy<Value = Arrivals> {
        prop_oneof![
            (1u64..20_000).prop_map(|us| Arrivals::Poisson {
                mean_gap: SimDuration::micros(us)
            }),
            (0u64..5_000).prop_map(|us| Arrivals::Uniform {
                gap: SimDuration::micros(us)
            }),
        ]
    }

    fn unit() -> impl Strategy<Value = f64> {
        0.0f64..1.0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn banking_stream_is_the_list(
            seed in any::<u64>(), n_sites in 1usize..7, accounts in 1usize..12,
            txns in 0usize..400, account_skew in 0.0f64..2.5,
            mix in (unit(), unit(), unit(), unit()), max_amount in 0u64..1_000,
            arrivals in arrivals(), all_at in (any::<bool>(), 0usize..7),
        ) {
            let w = BankingWorkload {
                n_sites, accounts, opening_balance: 10_000, txns, account_skew,
                mix: (mix.0 / 4.0, mix.1 / 4.0, mix.2 / 4.0, mix.3 / 4.0), max_amount, arrivals,
                split: if all_at.0 { Split::AllAt(all_at.1 % n_sites) } else { Split::Even },
            };
            assert_streams_match(&w.generate(seed), &banking(&w, seed));
        }

        #[test]
        fn hotspot_stream_is_the_list(
            seed in any::<u64>(), n_sites in 1usize..10, items in 1usize..10,
            txns in 0usize..400, epochs in 1usize..7, focus in unit(),
            item_skew in 0.0f64..2.0, withdraw_frac in unit(), max_amount in 0u64..100,
            arrivals in arrivals(),
        ) {
            let w = HotspotDriftWorkload {
                n_sites, items, per_item: 4_000, txns, epochs, focus, item_skew,
                withdraw_frac, max_amount, arrivals, split: Split::Even,
            };
            assert_streams_match(&w.generate(seed), &hotspot(&w, seed));
        }

        #[test]
        fn airline_stream_is_the_list(
            seed in any::<u64>(), n_sites in 1usize..7, flights in 1usize..7,
            txns in 0usize..400, site_skew in 0.0f64..3.0, flight_skew in 0.0f64..3.0,
            mix in (unit(), unit(), unit(), unit()), max_party in 0u64..8,
            arrivals in arrivals(),
        ) {
            let w = AirlineWorkload {
                n_sites, flights, seats_per_flight: 200, txns, site_skew, flight_skew,
                mix: (mix.0 / 4.0, mix.1 / 4.0, mix.2 / 4.0, mix.3 / 4.0), max_party, arrivals,
                split: Split::Even,
            };
            assert_streams_match(&w.generate(seed), &airline(&w, seed));
        }

        /// Orders of up to seven lines: past the two a spec holds inline,
        /// and past the four the generator collects products in inline.
        #[test]
        fn inventory_stream_is_the_list(
            seed in any::<u64>(), n_sites in 1usize..7, products in 1usize..9,
            txns in 0usize..400, product_skew in 0.0f64..2.0,
            mix in (unit(), unit(), unit()), max_order_lines in 0usize..8,
            max_units in 1u64..50, arrivals in arrivals(),
        ) {
            let w = InventoryWorkload {
                n_sites, products, stock: 1_000, txns, product_skew,
                mix: (mix.0 / 3.0, mix.1 / 3.0, mix.2 / 3.0), max_order_lines, max_units,
                arrivals, split: Split::Even,
            };
            assert_streams_match(&w.generate(seed), &inventory(&w, seed));
        }
    }

    /// The defaults every table builds on, at a size where a multi-line
    /// order spills its ops to the heap.
    #[test]
    fn default_workloads_stream_their_lists() {
        let inv = InventoryWorkload {
            max_order_lines: 6,
            txns: 2_000,
            ..Default::default()
        };
        let w = inv.generate(3);
        let spills = |(_, spec): (SimTime, TxnSpec)| spec.ops.len() > 4;
        assert!(w.scripts.iter().flat_map(Script::iter).any(spills));
        assert_streams_match(&w, &inventory(&inv, 3));
        let bank = BankingWorkload::default();
        assert_streams_match(&bank.generate(5), &banking(&bank, 5));
        let hot = HotspotDriftWorkload::default();
        assert_streams_match(&hot.generate(7), &hotspot(&hot, 7));
        let air = AirlineWorkload::default();
        assert_streams_match(&air.generate(9), &airline(&air, 9));
    }
}
