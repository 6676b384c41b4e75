//! # dvp-workloads — the paper's motivating applications as generators
//!
//! The paper motivates DvP with three applications (Sections 1, 3, 8):
//! airline reservations, banking, and inventory control. This crate turns
//! each into a deterministic workload generator producing the *same*
//! inputs for the DvP engine and the traditional baseline, which both
//! build from one `dvp_core::ClusterConfig`: a catalog of items plus
//! per-site scripts of `(arrival time, TxnSpec)`.
//!
//! Generators are pure functions of their parameters and a seed, so every
//! experiment row is reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod airline;
pub mod arrivals;
pub mod banking;
pub mod hotspot;
pub mod inventory;
pub mod zipf;

pub use airline::AirlineWorkload;
pub use banking::BankingWorkload;
pub use hotspot::HotspotDriftWorkload;
pub use inventory::InventoryWorkload;
pub use zipf::Zipf;

use dvp_core::item::Catalog;
use dvp_core::txn::Script;
use dvp_core::ClusterConfig;

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
    /// shared, not copied.
    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig {
            scripts: self.scripts.clone(),
            ..ClusterConfig::new(0, self.catalog.clone())
        }
    }
}
