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
use crate::stream::{self, Mix};
use crate::zipf::Zipf;
use crate::Workload;
use dvp_core::item::{Catalog, ItemId, Split};
use dvp_core::txn::TxnSpec;
use dvp_core::Qty;
use dvp_simnet::rng::SimRng;
use dvp_simnet::time::SimDuration;
use dvp_simnet::NodeId;

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
    /// Where the hotspot sits in each epoch. Each coordinate strides by
    /// the first step from 3 (sites) or 5 (items) that is coprime with its
    /// count, so consecutive epochs never reuse either coordinate and the
    /// first `n_sites` epochs visit every site once.
    pub(crate) fn drift(&self) -> Drift {
        Drift {
            n_sites: self.n_sites,
            items: self.items,
            site_stride: coprime_stride(3, self.n_sites),
            item_stride: coprime_stride(5, self.items),
        }
    }

    /// Generate the workload deterministically from `seed`: the catalog,
    /// and one drawn script per site.
    pub fn generate(&self, seed: u64) -> Workload {
        assert!(self.n_sites > 0 && self.items > 0 && self.epochs > 0);
        let mut catalog = Catalog::new();
        for i in 0..self.items {
            catalog.add(format!("stock-{i}"), self.per_item, self.split.clone());
        }
        let mix = HotspotMix {
            w: self.clone(),
            items: Zipf::new(self.items, self.item_skew),
            ids: catalog.items().iter().map(|d| d.id).collect(),
            drift: self.drift(),
            per_epoch: self.txns.div_ceil(self.epochs).max(1),
        };
        let rng = SimRng::new(seed ^ 0x407_5B07);
        let scripts = stream::scripts(self.n_sites, self.arrivals, self.txns, rng, mix);
        Workload { catalog, scripts }
    }
}

/// The hotspot's path: see [`HotspotDriftWorkload::drift`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Drift {
    n_sites: usize,
    items: usize,
    site_stride: usize,
    item_stride: usize,
}

impl Drift {
    /// The hot (site, item) pair during `epoch`.
    pub(crate) fn pair(&self, epoch: usize) -> (usize, usize) {
        let site = (epoch * self.site_stride + 1) % self.n_sites;
        let item = (epoch * self.item_stride + 2) % self.items;
        (site, item)
    }
}

/// The first step from `from` up that is coprime with `n`.
fn coprime_stride(from: usize, n: usize) -> usize {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    (from..)
        .find(|&s| gcd(s, n) == 1)
        .expect("n + 1 is coprime with n")
}

/// What one hotspot-drift arrival is.
#[derive(Clone)]
struct HotspotMix {
    w: HotspotDriftWorkload,
    items: Zipf,
    ids: Vec<ItemId>,
    drift: Drift,
    /// Arrivals per epoch.
    per_epoch: usize,
}

impl Mix for HotspotMix {
    fn draw(&self, k: usize, rng: &mut SimRng) -> (NodeId, TxnSpec) {
        let w = &self.w;
        let (hot_site, hot_item) = self.drift.pair(k / self.per_epoch);
        let amount = rng.uniform(1, w.max_amount.max(1));
        if rng.unit() < w.focus {
            let item = self.ids[hot_item];
            let spec = if rng.unit() < w.withdraw_frac {
                TxnSpec::reserve(item, amount)
            } else {
                TxnSpec::release(item, amount)
            };
            (hot_site, spec)
        } else {
            let site = rng.index(w.n_sites);
            let item = self.ids[self.items.sample(rng)];
            let spec = if rng.unit() < 0.5 {
                TxnSpec::reserve(item, amount)
            } else {
                TxnSpec::release(item, amount)
            };
            (site, spec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_core::Script;
    use dvp_simnet::time::SimTime;
    use std::collections::BTreeSet;

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
            for (t, _) in script.iter() {
                all.push((t, s));
            }
        }
        all.sort();
        let span = all.len().div_ceil(4);
        for epoch in 0..4 {
            let (hot, _) = w.drift().pair(epoch);
            let slice = &all[epoch * span..((epoch + 1) * span).min(all.len())];
            let at_hot = slice.iter().filter(|(_, s)| *s == hot).count();
            assert!(
                at_hot as f64 > 0.6 * slice.len() as f64,
                "epoch {epoch}: hot site {hot} got {at_hot}/{} arrivals",
                slice.len()
            );
        }
        // And the focus actually moves: the four hot sites are distinct.
        let hots: BTreeSet<usize> = (0..4).map(|e| w.drift().pair(e).0).collect();
        assert!(hots.len() >= 3, "hotspot must drift across sites: {hots:?}");
    }

    /// Strides 3 and 5 revisit a coordinate whenever they share a factor
    /// with its count (3 sites: site 1 every epoch; 6 sites: 1, 4, 1, 4),
    /// so each stride is the first one from there coprime with its count.
    #[test]
    fn the_hotspot_drifts_to_a_fresh_site_and_item_on_every_cluster_size() {
        for n_sites in 2..=12 {
            for items in 2..=12 {
                let w = HotspotDriftWorkload {
                    n_sites,
                    items,
                    ..Default::default()
                };
                let pairs: Vec<(usize, usize)> = (0..24).map(|e| w.drift().pair(e)).collect();
                for (e, p) in pairs.windows(2).enumerate() {
                    assert!(
                        p[0].0 != p[1].0 && p[0].1 != p[1].1,
                        "{n_sites} sites x {items} items: epochs {e} and {} share a coordinate: {p:?}",
                        e + 1
                    );
                }
                // Any run of at most `n` epochs sees `n` distinct values.
                let sites: BTreeSet<usize> = pairs[..n_sites].iter().map(|p| p.0).collect();
                let hot_items: BTreeSet<usize> = pairs[..items].iter().map(|p| p.1).collect();
                assert_eq!(
                    (sites.len(), hot_items.len()),
                    (n_sites, items),
                    "{n_sites} sites x {items} items: a hot coordinate repeats early: {pairs:?}"
                );
            }
        }
        // 8 x 8, every table's and the benchmark's size, keeps 3 and 5.
        let w = HotspotDriftWorkload::default();
        assert_eq!((w.n_sites, w.items), (8, 8));
        assert_eq!(w.drift().pair(1), (4, 7));
    }

    #[test]
    fn supply_outlasts_the_run() {
        // Worst case every hotspot txn withdraws max_amount from one item.
        let w = HotspotDriftWorkload::default();
        let gen = w.generate(13);
        let mut net: std::collections::BTreeMap<u32, i64> = Default::default();
        for (_, spec) in gen.scripts.iter().flat_map(Script::iter) {
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
