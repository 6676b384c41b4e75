//! # dvp-baselines — the traditional comparators
//!
//! The DvP/Vm paper argues *against* a baseline it never names precisely:
//! the conventional distributed database in which each data item is a
//! single logical value, replicated or partitioned across sites, updated
//! by distributed transactions under strict 2PL and an atomic commit
//! protocol. Every comparative claim (blocking under partitions,
//! unavailability, dependent recovery) needs that system to exist — so
//! this crate builds it:
//!
//! * [`twopc`] — a distributed transaction engine: strict 2PL with
//!   distributed lock requests, two-phase commit with presumed-abort
//!   logging, cooperative termination, in-doubt blocking, and
//!   query-based recovery (the *dependent* recovery DvP's independent
//!   recovery is contrasted with);
//! * [`placement`] — replica control: full replication with majority
//!   quorums, or primary-copy;
//! * [`metrics`] — blocking/availability accounting.
//!
//! The engine runs on the same `dvp-simnet` substrate and builds from the
//! same run description as the DvP engine (`dvp_core::ClusterConfig`,
//! with [`TradConfig`] as its per-site config), so every experiment is an
//! apples-to-apples sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod placement;
pub mod record;
pub mod twopc;

pub use metrics::{TradClusterMetrics, TradMetrics};
pub use placement::{Placement, Sites};
pub use twopc::{CommitProtocol, TradCluster, TradConfig, TradNode};
