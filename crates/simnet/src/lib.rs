//! # dvp-simnet — deterministic discrete-event simulation of a failure-prone
//! distributed system
//!
//! The DvP/Vm paper (Soparkar & Silberschatz 1989) reasons about protocol
//! behaviour under *network partitions*, *message loss/duplication/delay*,
//! and *site crashes*. This crate provides the substrate those protocols run
//! on: a single-threaded, virtual-time, seeded discrete-event simulator.
//!
//! Design goals, in priority order:
//!
//! 1. **Determinism.** Every run is a pure function of `(node code, config,
//!    seed)`. The event queue breaks time ties with a global sequence
//!    number, and all randomness flows from one [`rng::SimRng`]. This is
//!    what makes the conservation-invariant property tests (experiment T5)
//!    and failure-scenario regression tests possible.
//! 2. **Faithful failure model.** Messages may be lost, duplicated,
//!    arbitrarily delayed, or cut by a [`partition::PartitionSchedule`];
//!    sites crash (volatile state wiped, timers invalidated) and later
//!    recover. Nothing in the kernel detects failures on behalf of a node —
//!    exactly the paper's stance that "no partition detection algorithm can
//!    be expected to handle such general situations".
//! 3. **One network model.** Every link is a delay band plus loss and
//!    duplication rates, and chaos windows add to them. Section 6.2's
//!    ordered broadcast is not a mode: a reliable fixed-delay network
//!    ([`network::NetworkConfig::fixed_delay`]) draws no randomness, and
//!    the kernel's global tie-break delivers same-instant messages in send
//!    order at every site.
//!
//! The programming model is an actor loop: implement [`node::Node`], then
//! drive a [`sim::Simulation`]. Work enters from outside as per-node
//! arrival streams, crashes and recoveries; all side effects requested
//! during a callback (sends, timers, a crash) are buffered in a
//! [`node::Context`] and applied by the kernel when the callback returns.
//! The kernel keeps no event record of its own: the nodes observe every
//! callback, [`stats::NetStats`] counts what the network did, and an
//! optional `dvp_obs::Obs` handle, stamped with the clock before each
//! dispatch, is the one event stream.
//!
//! ```
//! use dvp_simnet::prelude::*;
//!
//! /// A node that greets its right-hand neighbour once and counts replies.
//! struct Greeter { n: usize, replies: usize }
//!
//! impl Node for Greeter {
//!     type Msg = &'static str;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
//!         let next = (ctx.me() + 1) % self.n;
//!         ctx.send(next, "hello");
//!     }
//!     fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
//!         if msg == "hello" { ctx.send(from, "world"); } else { self.replies += 1; }
//!     }
//! }
//!
//! let mut sim = Simulation::new(
//!     (0..3).map(|_| Greeter { n: 3, replies: 0 }).collect(),
//!     NetworkConfig::default(),
//!     42,
//! );
//! sim.run_to_quiescence();
//! assert!(sim.nodes().iter().all(|g| g.replies == 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod network;
pub mod node;
pub mod partition;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
mod timers;

/// Identifier of a simulated site. Sites are numbered `0..n`.
pub type NodeId = usize;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::network::{LinkConfig, NetworkConfig};
    pub use crate::node::{Context, Node, TimerId};
    pub use crate::partition::PartitionSchedule;
    pub use crate::rng::SimRng;
    pub use crate::sim::Simulation;
    pub use crate::stats::NetStats;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::NodeId;
}
