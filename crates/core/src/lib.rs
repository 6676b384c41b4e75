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
//! | §4.1 Π = Σ, partitionable/redistribution operators            | [`ops`], [`fragment`] |
//! | §3 running example (quantities, quotas)                       | [`item`], [`fragment`] |
//! | §4.2 value transfer payloads riding Vms                       | [`transfer`] |
//! | §5 transaction processing (7-step, write-only, Rds)           | [`txn`], [`site`] |
//! | §1, §8 arrivals: listed, or drawn as the run goes             | [`script`] |
//! | §6 concurrency control (Conc1 timestamps, Conc2 2PL)          | [`locks`], [`clock`], [`site`] |
//! | §7 recovery (redo, lock amnesia, timestamp bump-up)           | [`record`], [`site`] |
//! | §3 invariant N = ΣNᵢ + N_M                                    | [`audit`] |
//! | §9 "best distribution of data values" (a policy, safety-inert) | [`placement`] |
//! | the fault plan: crashes, recoveries, injected faults, mutants | [`fault`] |
//! | orchestration & measurement                                   | [`cluster`], [`metrics`] |
//! | configuration only (knobs; nothing that acts on them)         | [`policy`] |
//!
//! The engine runs one instance of the paper's algebra — non-negative
//! integer *quantities* under summation (seats, stock units, cents) — and
//! property-tests its Σ law against [`fragment::FragmentStore`] itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod clock;
pub mod cluster;
pub mod dense;
pub mod fault;
pub mod fragment;
pub mod item;
pub mod locks;
pub mod metrics;
pub mod ops;
pub mod placement;
pub mod policy;
pub mod record;
pub mod script;
pub mod site;
pub mod transfer;
pub mod txn;

pub use clock::{LamportClock, Ts, TxnId};
pub use cluster::{Cluster, ClusterConfig, StatsView};
pub use dense::SVec;
pub use fault::{Crashpoint, FaultPlan, Injection, Mutant};
pub use item::{Catalog, ItemId};
pub use metrics::{AbortReason, ClusterMetrics, SiteMetrics};
pub use ops::Op;
pub use policy::{ConcMode, Placement, RefillPolicy, SiteConfig, SiteConfigBuilder};
pub use script::{Script, ScriptCursor};
pub use site::SiteNode;
pub use txn::{TxnOutcome, TxnSpec};

/// A quantity: one item's value or fragment (seats, units, cents).
pub type Qty = u64;
