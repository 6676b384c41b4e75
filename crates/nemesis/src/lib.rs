//! # dvp-nemesis — adversarial fault campaigns
//!
//! The protocols in `dvp-core` claim safety "at all times, whatever
//! fails" (paper Section 3). This crate is the adversary that earns that
//! claim: it generates seed-driven **fault schedules** composing site
//! crashes and recoveries, network partitions and heals, loss/duplication
//! /delay-jitter bursts, protocol-level **crashpoints** (named crash sites
//! inside the commit, donation, and checkpoint paths), and **torn log
//! writes**; runs them against a live cluster; checks a suite of
//! **invariant oracles** at many pause points; and, when an oracle trips,
//! **shrinks** the failing schedule to a minimal reproduction via delta
//! debugging.
//!
//! Module map:
//!
//! * [`schedule`] — the typed [`FaultSchedule`] (a list of
//!   [`FaultEvent`]s), its translation onto a run's network and fault
//!   plan, and its digest;
//! * [`generate()`] — the seeded generator, at the standard or the media
//!   [`Intensity`];
//! * [`oracle`] — conservation, Vm channel sanity, read exactness,
//!   recovered-site ≡ rebuilt-from-log equivalence, and post-settle
//!   liveness;
//! * [`campaign`] — one seeded campaign end-to-end (build, run, audit);
//! * [`shrink`] — `ddmin` minimization plus the one-line replay format
//!   and its parser.
//!
//! The campaign matrix over the protocol configurations is experiment T5
//! (`dvp_bench::exp_t5_conservation`), so every `cargo test` runs it.
//!
//! Everything is deterministic: same seed ⇒ same schedule ⇒ same campaign
//! outcome ⇒ same shrunk schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod generate;
pub mod oracle;
pub mod schedule;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignResult};
pub use generate::{generate, lossy_environment, Intensity};
pub use oracle::{
    check_all, check_feasibility, check_liveness, check_rebuild, check_vm_channels, Violation,
};
pub use schedule::{FaultEvent, FaultSchedule};
pub use shrink::{ddmin, Replay};
