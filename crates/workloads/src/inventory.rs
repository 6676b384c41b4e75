//! Inventory-control workload (Sections 1, 3): shipments deplete stock,
//! restocks replenish it, periodic stocktakes read exact levels.
//!
//! Differs from the airline mix in shape: shipments come in larger,
//! burstier quantities (a warehouse fulfils orders, not single
//! passengers), restocks are few and large, and the read fraction is
//! higher (stocktakes matter). This is the workload used for the Conc1 vs
//! Conc2 contention sweep (T4) because multi-item shipment orders create
//! lock conflicts.

use crate::arrivals::Arrivals;
use crate::stream::{self, Mix};
use crate::zipf::Zipf;
use crate::Workload;
use dvp_core::item::{Catalog, ItemId, Split};
use dvp_core::ops::Op;
use dvp_core::txn::TxnSpec;
use dvp_core::{Qty, SVec};
use dvp_simnet::rng::SimRng;
use dvp_simnet::time::SimDuration;
use dvp_simnet::NodeId;

/// Parameters of the inventory workload.
#[derive(Clone, Debug)]
pub struct InventoryWorkload {
    /// Number of warehouse sites.
    pub n_sites: usize,
    /// Number of stocked products.
    pub products: usize,
    /// Initial stock per product.
    pub stock: Qty,
    /// Transactions to generate.
    pub txns: usize,
    /// Zipf θ over products.
    pub product_skew: f64,
    /// Mix: (ship, restock, stocktake); remainder = ship.
    pub mix: (f64, f64, f64),
    /// Max products per shipment order (multi-item transactions).
    pub max_order_lines: usize,
    /// Max units per order line.
    pub max_units: Qty,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Initial stock split.
    pub split: Split,
}

impl Default for InventoryWorkload {
    fn default() -> Self {
        InventoryWorkload {
            n_sites: 4,
            products: 6,
            stock: 1_000,
            txns: 200,
            product_skew: 1.0,
            mix: (0.70, 0.15, 0.15),
            max_order_lines: 3,
            max_units: 20,
            arrivals: Arrivals::Poisson {
                mean_gap: SimDuration::millis(5),
            },
            split: Split::Even,
        }
    }
}

impl InventoryWorkload {
    /// Generate the workload deterministically from `seed`: the catalog,
    /// and one drawn script per warehouse.
    pub fn generate(&self, seed: u64) -> Workload {
        let mut catalog = Catalog::new();
        for p in 0..self.products {
            catalog.add(format!("sku-{p}"), self.stock, self.split.clone());
        }
        let mix = InventoryMix {
            w: self.clone(),
            products: Zipf::new(self.products, self.product_skew),
            ids: catalog.items().iter().map(|d| d.id).collect(),
        };
        let rng = SimRng::new(seed ^ 0x13C0);
        let scripts = stream::scripts(self.n_sites, self.arrivals, self.txns, rng, mix);
        Workload { catalog, scripts }
    }
}

/// What one inventory arrival is.
#[derive(Clone)]
struct InventoryMix {
    w: InventoryWorkload,
    products: Zipf,
    ids: Vec<ItemId>,
}

impl Mix for InventoryMix {
    fn draw(&self, _k: usize, rng: &mut SimRng) -> (NodeId, TxnSpec) {
        let w = &self.w;
        let (p_ship, p_restock, p_take) = w.mix;
        let site = rng.index(w.n_sites);
        let u = rng.unit();
        let spec = if u < p_ship || u >= p_ship + p_restock + p_take {
            // Multi-line shipment order: distinct products, one Decr
            // per line.
            let lines = rng.uniform(1, w.max_order_lines.max(1) as u64) as usize;
            let mut prods: SVec<usize, 4> = SVec::default();
            for _ in 0..lines.min(w.products) {
                let mut p = self.products.sample(rng);
                while prods.contains(&p) {
                    p = (p + 1) % w.products;
                }
                prods.push(p);
            }
            TxnSpec {
                ops: prods
                    .iter()
                    .map(|&p| (self.ids[p], Op::Decr(rng.uniform(1, w.max_units.max(1)))))
                    .collect(),
            }
        } else if u < p_ship + p_restock {
            let p = self.ids[self.products.sample(rng)];
            TxnSpec::release(p, rng.uniform(w.max_units, w.max_units * 5))
        } else {
            let p = self.ids[self.products.sample(rng)];
            TxnSpec::read(p)
        };
        (site, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_core::Script;

    #[test]
    fn generates_products_and_txns() {
        let w = InventoryWorkload::default().generate(1);
        assert_eq!(w.catalog.len(), 6);
        assert_eq!(w.txn_count(), 200);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            InventoryWorkload::default().generate(7).scripts,
            InventoryWorkload::default().generate(7).scripts
        );
    }

    #[test]
    fn shipment_orders_have_distinct_lines() {
        let w = InventoryWorkload {
            txns: 1000,
            mix: (1.0, 0.0, 0.0),
            ..Default::default()
        }
        .generate(2);
        for (_, spec) in w.scripts.iter().flat_map(Script::iter) {
            let mut items: Vec<_> = spec.ops.iter().map(|(i, _)| *i).collect();
            let before = items.len();
            items.sort();
            items.dedup();
            assert_eq!(items.len(), before, "order lines must be distinct");
            assert!(before <= 3);
        }
    }

    #[test]
    fn restocks_are_large_incrs() {
        let w = InventoryWorkload {
            txns: 500,
            mix: (0.0, 1.0, 0.0),
            ..Default::default()
        }
        .generate(3);
        for (_, spec) in w.scripts.iter().flat_map(Script::iter) {
            match spec.ops.as_slice() {
                [(_, Op::Incr(k))] => assert!(*k >= 20),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn stocktakes_are_reads() {
        let w = InventoryWorkload {
            txns: 300,
            mix: (0.0, 0.0, 1.0),
            ..Default::default()
        }
        .generate(4);
        for (_, spec) in w.scripts.iter().flat_map(Script::iter) {
            assert!(matches!(spec.ops.as_slice(), [(_, Op::Read)]));
        }
    }
}
