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
use crate::zipf::Zipf;
use crate::Workload;
use dvp_core::item::{Catalog, Split};
use dvp_core::ops::Op;
use dvp_core::txn::{Script, TxnSpec};
use dvp_core::Qty;
use dvp_simnet::rng::SimRng;
use dvp_simnet::time::{SimDuration, SimTime};

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
    /// Generate the workload deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Workload {
        let mut rng = SimRng::new(seed ^ 0x13C0);
        let mut catalog = Catalog::new();
        for p in 0..self.products {
            catalog.add(format!("sku-{p}"), self.stock, self.split.clone());
        }
        let prod_z = Zipf::new(self.products, self.product_skew);
        let times =
            self.arrivals
                .generate(SimTime::ZERO + SimDuration::millis(1), self.txns, &mut rng);
        let mut scripts = vec![Script::new(); self.n_sites];
        let (p_ship, p_restock, p_take) = self.mix;
        for t in times {
            let site = rng.index(self.n_sites);
            let u = rng.unit();
            let spec = if u < p_ship || u >= p_ship + p_restock + p_take {
                // Multi-line shipment order: distinct products, one Decr
                // per line.
                let lines = rng.uniform(1, self.max_order_lines.max(1) as u64) as usize;
                let mut prods: Vec<u32> = Vec::new();
                for _ in 0..lines.min(self.products) {
                    let mut p = prod_z.sample(&mut rng) as u32;
                    while prods.contains(&p) {
                        p = (p + 1) % self.products as u32;
                    }
                    prods.push(p);
                }
                TxnSpec {
                    ops: prods
                        .into_iter()
                        .map(|p| {
                            (
                                catalog.items()[p as usize].id,
                                Op::Decr(rng.uniform(1, self.max_units.max(1))),
                            )
                        })
                        .collect(),
                }
            } else if u < p_ship + p_restock {
                let p = catalog.items()[prod_z.sample(&mut rng)].id;
                TxnSpec::release(p, rng.uniform(self.max_units, self.max_units * 5))
            } else {
                let p = catalog.items()[prod_z.sample(&mut rng)].id;
                TxnSpec::read(p)
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
        for (_, spec) in w.scripts.iter().flatten() {
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
        for (_, spec) in w.scripts.iter().flatten() {
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
        for (_, spec) in w.scripts.iter().flatten() {
            assert!(matches!(spec.ops.as_slice(), [(_, Op::Read)]));
        }
    }
}
