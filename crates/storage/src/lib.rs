//! # dvp-storage — simulated stable storage
//!
//! The DvP/Vm protocols lean entirely on one primitive: a **stable log**
//! whose forced records survive site crashes (paper Sections 3, 4.2, 7).
//! A Vm "comes into existence the moment a log record indicating a message
//! dispatch ... is created", commit is "the completion of [the log-write]
//! step", and recovery is a redo scan over committed records.
//!
//! This crate models that primitive honestly rather than assuming it:
//!
//! * Records are *encoded* into a length-prefixed, CRC-checked frame format
//!   ([`codec`]) at append, and that byte image is all the log keeps: the
//!   recovery scans decode it — the same code path a disk-backed
//!   implementation would take, so codec bugs are caught by the recovery
//!   tests, not hidden behind a `Vec<R>` clone.
//! * [`log::StableLog`] distinguishes *appended* from *forced* by a
//!   durable-length watermark: a crash ([`log::StableLog::crash`]) discards
//!   the bytes past it, which is exactly the window the paper's protocols
//!   must tolerate.
//! * [`checkpoint`] bounds the redo scan the usual way (paper Section 7:
//!   "by using checkpointing mechanisms, the number of redo actions
//!   required can be reduced in the usual manner").
//! * Recovery is one call, [`CheckpointedLog::recover`]: it re-verifies
//!   the checkpoint slots, loads the newest snapshot that verifies, cuts
//!   the log at its first bad frame, keeps the records past the
//!   snapshot's redo point, and says what storage lost. Both engines and
//!   the DvP rebuild oracle read stable storage back through it.
//!
//! Nothing here panics by accident: outside tests the crate denies
//! `unwrap`, `expect` and `panic!`.
//!
//! The log is in-memory because the whole system runs inside a
//! deterministic simulation; durability here means "survives a simulated
//! crash", which is the property the protocols depend on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod checkpoint;
pub mod codec;
pub mod log;
pub mod lsn;

pub use checkpoint::{
    CheckpointMeta, CheckpointSlot, CheckpointedLog, Recovery, SlotFallback, CHECKPOINT_EVERY,
};
pub use codec::{DecodeError, Record, RecordReader, RecordWriter};
pub use log::{LogStats, SalvageReport, Salvaged, StableLog, TornWrite};
pub use lsn::Lsn;
