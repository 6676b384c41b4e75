//! # dvp — Data-value Partitioning and Virtual Messages
//!
//! A full implementation of the distributed transaction-processing scheme
//! of **Soparkar & Silberschatz, "Data-value Partitioning and Virtual
//! Messages" (UT Austin TR-89-19, 1989 / PODS 1990)**, together with the
//! substrates it runs on and the traditional baselines it is compared
//! against.
//!
//! The idea in one paragraph: represent a quantity-like data item (seats
//! on a flight, an account balance, a stock level) not as one stored
//! value but as **fragments scattered across sites** whose sum *is* the
//! item (`N = ΣNᵢ + N_M`, with `N_M` the value travelling in messages).
//! Every transaction executes at a **single site** against its local
//! fragment; if the fragment is inadequate the site solicits value from
//! peers, which arrives aboard **Virtual Messages** — transfers anchored
//! in stable logs at both ends so that no failure can destroy value.
//! A transaction that cannot gather what it needs within a timeout simply
//! aborts. The result is non-blocking transaction processing, continued
//! operation under network partitions, and crash recovery that consults
//! nothing but the local log.
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`simnet`] | deterministic discrete-event simulator (network, partitions, crashes) |
//! | [`storage`] | stable log with forced writes and CRC-checked recovery scans |
//! | [`vmsg`] | the Virtual Message layer (windowed retransmission, cumulative acks) |
//! | [`core`](mod@core) | DvP itself: domains/operators, fragments, transactions, Conc1/Conc2, recovery |
//! | [`baselines`] | strict-2PL + 2PC engine (quorum / primary copy), Escrow method |
//! | [`workloads`] | airline / banking / inventory generators |
//! | [`obs`] | structured observability: typed events, histograms, JSONL traces |
//! | [`bench`](mod@bench) | the experiment harness: [`Scenario`](bench::Scenario) runs, experiment tables |
//!
//! ## Quickstart
//!
//! ```
//! use dvp::prelude::*;
//!
//! // Flight A has 100 seats, split 25/25/25/25 across four sites.
//! let mut catalog = Catalog::new();
//! let flight = catalog.add("flight-A", 100, Split::Even);
//!
//! // Site 3 sells 40 seats — more than its quota of 25, so it will
//! // solicit the difference from its peers via Virtual Messages.
//! let cfg = ClusterConfig::new(4, catalog)
//!     .at(3, SimTime(1_000), TxnSpec::reserve(flight, 40));
//!
//! let mut cluster = Cluster::build(cfg);
//! cluster.run_to_quiescence();
//!
//! assert_eq!(cluster.stats().txn.committed(), 1);
//! cluster.auditor().check_conservation().unwrap(); // N = ΣNᵢ + N_M
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dvp_baselines as baselines;
pub use dvp_bench as bench;
pub use dvp_core as core;
pub use dvp_obs as obs;
pub use dvp_simnet as simnet;
pub use dvp_storage as storage;
pub use dvp_vmsg as vmsg;
pub use dvp_workloads as workloads;

/// Everything needed to build and run a DvP cluster.
pub mod prelude {
    pub use dvp_bench::{EngineKind, RunReport, Scenario};
    pub use dvp_core::item::{Catalog, ItemDef, Split};
    pub use dvp_core::{
        AbortReason, Cluster, ClusterConfig, ConcMode, Crashpoint, Fanout, FaultPlan, InjectConfig,
        ItemId, Op, Placement, Qty, ReactivePlacement, RefillPolicy, Script, SiteConfig,
        SiteConfigBuilder, StatsView, TxnOutcome, TxnSpec,
    };
    pub use dvp_simnet::prelude::*;
    pub use dvp_storage::TornWrite;
}
