//! # dvp-core — Data-value Partitioning
//!
//! The primary contribution of Soparkar & Silberschatz (1989): represent a
//! data item `d` not as one stored value but as a **multiset of values**
//! `Π⁻¹(d)` scattered across sites, such that the partitioning map `Π`
//! recovers `d`. Transactions then execute **at a single site** against the
//! locally held portion, soliciting value from other sites (via Virtual
//! Messages) only when the local portion is inadequate — and aborting on a
//! timeout rather than ever blocking.
//!
//! Layer map (paper section → module):
//!
//! | Paper | Module |
//! |---|---|
//! | §4.1 domains Γ, map Π, partitionable/redistribution operators | [`domain`], [`ops`] |
//! | §3 running example (quantities, quotas)                       | [`item`], [`fragment`] |
//! | §4.2 value transfer payloads riding Vms                       | [`transfer`] |
//! | §5 transaction processing (7-step, write-only, Rds)           | [`txn`], [`site`] |
//! | §6 concurrency control (Conc1 timestamps, Conc2 2PL)          | [`locks`], [`clock`], [`site`] |
//! | §7 recovery (redo, lock amnesia, timestamp bump-up)           | [`record`], [`site`] |
//! | §3 invariant N = ΣNᵢ + N_M                                    | [`audit`] |
//! | §9 "best distribution of data values" (a policy, safety-inert) | [`placement`] |
//! | orchestration & measurement                                   | [`cluster`], [`metrics`] |
//! | configuration only (knobs; nothing that acts on them)         | [`policy`] |
//!
//! The transaction engine is concrete over the paper's canonical domain —
//! non-negative integer *quantities* under summation (seats, stock units,
//! cents) — while [`domain`] exposes the general algebraic model with other
//! instances (bags, high-water marks) and property-tested laws.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod clock;
pub mod cluster;
pub mod dense;
pub mod domain;
pub mod fragment;
pub mod item;
pub mod locks;
pub mod metrics;
pub mod ops;
pub mod placement;
pub mod policy;
pub mod record;
pub mod site;
pub mod transfer;
pub mod txn;

pub use clock::{LamportClock, Ts, TxnId};
pub use cluster::{Cluster, ClusterConfig, FaultPlan, StatsView};
pub use dense::SVec;
pub use item::{Catalog, ItemId};
pub use metrics::{AbortReason, ClusterMetrics, SiteMetrics};
pub use ops::Op;
pub use policy::{
    ConcMode, Crashpoint, Fanout, InjectConfig, Placement, ReactivePlacement, RefillPolicy,
    SiteConfig, SiteConfigBuilder,
};
pub use site::SiteNode;
pub use txn::{Script, TxnOutcome, TxnSpec};

/// Quantity type for the canonical sum domain (seats, units, cents).
pub type Qty = u64;
