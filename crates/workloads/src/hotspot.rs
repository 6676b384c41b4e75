//! Hotspot-drift workload: a moving (site, item) demand spike.
//!
//! The paper's placement story (Section 8) assumes demand is *stable
//! enough* that value migrates to where it is consumed. This generator
//! stresses the opposite regime: a single site+item pair absorbs most of
//! the traffic for one epoch, then the spike *moves* to another site (and
//! another item), repeatedly, over the run. Static splits strand value at
//! cold sites; a reactive rebalancer chases the previous epoch's demand;
//! an adaptive estimator must both learn the new focus quickly and forget
//! the old one (EWMA decay), which is exactly what the placement
//! experiments measure with it.

use crate::arrivals::Arrivals;
use crate::zipf::Zipf;
use crate::Workload;
use dvp_core::item::{Catalog, Split};
use dvp_core::txn::{Script, TxnSpec};
use dvp_core::Qty;
use dvp_simnet::rng::SimRng;
use dvp_simnet::time::{SimDuration, SimTime};

/// Parameters of the hotspot-drift workload.
#[derive(Clone, Debug)]
pub struct HotspotDriftWorkload {
    /// Number of sites.
    pub n_sites: usize,
    /// Number of items.
    pub items: usize,
    /// Opening value per item (units).
    pub per_item: Qty,
    /// Transactions to generate.
    pub txns: usize,
    /// Number of hotspot epochs; the hot (site, item) pair rotates to a
    /// fresh site and item at each epoch boundary.
    pub epochs: usize,
    /// Probability an arrival joins the current hotspot (initiates at the
    /// hot site, touching the hot item) instead of background traffic.
    pub focus: f64,
    /// Zipf θ over items for background traffic.
    pub item_skew: f64,
    /// Fraction of hotspot transactions that *withdraw* value (the rest
    /// release it back). Kept below 1 so the spike drains the hot site's
    /// quota without exhausting the global supply.
    pub withdraw_frac: f64,
    /// Largest single amount moved.
    pub max_amount: Qty,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Initial value split across sites.
    pub split: Split,
}

impl Default for HotspotDriftWorkload {
    fn default() -> Self {
        HotspotDriftWorkload {
            n_sites: 8,
            items: 8,
            // Tight relative to the spike: one epoch's hot-site
            // withdrawals exceed the site's 1/n share, so the hot site
            // must keep soliciting (or be refilled by placement).
            per_item: 4_000,
            txns: 400,
            epochs: 4,
            focus: 0.85,
            item_skew: 0.9,
            withdraw_frac: 0.75,
            max_amount: 50,
            arrivals: Arrivals::Poisson {
                mean_gap: SimDuration::millis(5),
            },
            split: Split::Even,
        }
    }
}

impl HotspotDriftWorkload {
    /// The hot (site, item) pair during `epoch`. Strides are coprime-ish
    /// with typical site/item counts so consecutive epochs never reuse
    /// either coordinate.
    fn hot_pair(&self, epoch: usize) -> (usize, usize) {
        let site = (epoch * 3 + 1) % self.n_sites;
        let item = (epoch * 5 + 2) % self.items;
        (site, item)
    }

    /// Generate the workload deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Workload {
        assert!(self.n_sites > 0 && self.items > 0 && self.epochs > 0);
        let mut rng = SimRng::new(seed ^ 0x407_5B07);
        let mut catalog = Catalog::new();
        for i in 0..self.items {
            catalog.add(format!("stock-{i}"), self.per_item, self.split.clone());
        }
        let item_z = Zipf::new(self.items, self.item_skew);
        let times =
            self.arrivals
                .generate(SimTime::ZERO + SimDuration::millis(1), self.txns, &mut rng);
        let per_epoch = self.txns.div_ceil(self.epochs).max(1);
        let mut scripts = vec![Script::new(); self.n_sites];
        for (k, t) in times.into_iter().enumerate() {
            let (hot_site, hot_item) = self.hot_pair(k / per_epoch);
            let amount = rng.uniform(1, self.max_amount.max(1));
            let (site, spec) = if rng.unit() < self.focus {
                let item = catalog.items()[hot_item].id;
                let spec = if rng.unit() < self.withdraw_frac {
                    TxnSpec::reserve(item, amount)
                } else {
                    TxnSpec::release(item, amount)
                };
                (hot_site, spec)
            } else {
                let site = rng.index(self.n_sites);
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
        Workload { catalog, scripts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let w = HotspotDriftWorkload::default();
        assert_eq!(w.generate(9).scripts, w.generate(9).scripts);
    }

    #[test]
    fn hotspot_concentrates_and_drifts() {
        let w = HotspotDriftWorkload {
            txns: 2_000,
            epochs: 4,
            ..Default::default()
        };
        let gen = w.generate(11);
        // Count arrivals per site per epoch (epoch = arrival index / span,
        // reconstructed by sorting all arrivals by time).
        let mut all: Vec<(SimTime, usize)> = Vec::new();
        for (s, script) in gen.scripts.iter().enumerate() {
            for (t, _) in script {
                all.push((*t, s));
            }
        }
        all.sort();
        let span = all.len().div_ceil(4);
        for epoch in 0..4 {
            let (hot, _) = w.hot_pair(epoch);
            let slice = &all[epoch * span..((epoch + 1) * span).min(all.len())];
            let at_hot = slice.iter().filter(|(_, s)| *s == hot).count();
            assert!(
                at_hot as f64 > 0.6 * slice.len() as f64,
                "epoch {epoch}: hot site {hot} got {at_hot}/{} arrivals",
                slice.len()
            );
        }
        // And the focus actually moves: the four hot sites are distinct.
        let hots: std::collections::BTreeSet<usize> = (0..4).map(|e| w.hot_pair(e).0).collect();
        assert!(hots.len() >= 3, "hotspot must drift across sites: {hots:?}");
    }

    #[test]
    fn supply_outlasts_the_run() {
        // Worst case every hotspot txn withdraws max_amount from one item.
        let w = HotspotDriftWorkload::default();
        let gen = w.generate(13);
        let mut net: std::collections::BTreeMap<u32, i64> = Default::default();
        for (_, spec) in gen.scripts.iter().flatten() {
            for (item, op) in &spec.ops {
                match op {
                    dvp_core::ops::Op::Decr(q) => *net.entry(item.0).or_default() -= *q as i64,
                    dvp_core::ops::Op::Incr(q) => *net.entry(item.0).or_default() += *q as i64,
                    _ => {}
                }
            }
        }
        for (item, delta) in net {
            assert!(
                (w.per_item as i64) + delta > 0,
                "item {item} would exhaust: net {delta}"
            );
        }
    }
}
