//! # dvp-vmsg — Virtual Messages
//!
//! Implements Section 4.2 of the DvP/Vm paper: a **virtual message** (Vm)
//! is a unit of crucial data whose existence is anchored in stable logs,
//! not in the network. It
//!
//! * *comes into existence* the moment the sender forces a log record
//!   `[database-actions, message-sequence]`,
//! * is carried by any number of **real** messages (originals and
//!   retransmissions, any of which may be lost, duplicated, delayed, or cut
//!   by a partition), and
//! * *ceases to exist* the moment the receiver forces a log record
//!   `[database-actions]` recording its acceptance.
//!
//! Between those two instants the Vm "is never lost": the sender's durable
//! state obliges it to retransmit until a cumulative acknowledgement
//! covers the message. Every acceptance owes the sender an ack, and so
//! does every duplicate, since it proves the sender missed one. The ack
//! rides reverse data bound for the sender when there is some, and
//! leaves as a standalone frame when there is not.
//!
//! ## Division of labour
//!
//! This crate is deliberately **host-agnostic**: it knows nothing about
//! simulators, timers, or the host's log format. The host (a DvP site in
//! `dvp-core`, or a test harness):
//!
//! 1. calls [`VmEndpoint::create`] to mint a Vm, writes the returned
//!    [`VmLogOp`] into *its own* stable log together with its database
//!    actions, forces the log, then calls [`VmEndpoint::drain_outbox`] and
//!    puts the frames on the wire;
//! 2. feeds every arriving [`Frame`] to [`VmEndpoint::on_frame`]; a
//!    [`Receipt::Fresh`] obliges the host to either *accept* (log
//!    `[database-actions]` + [`VmLogOp::Accepted`], force, then call
//!    [`VmEndpoint::commit_accept`]) or *ignore* (do nothing — the sender
//!    retransmits, exactly the paper's "if it is locked, the message can
//!    be ignored; it will eventually be sent again anyway"). A frame that
//!    overtook its predecessor, or one the host handed back with
//!    [`VmEndpoint::hold_back`], waits in the endpoint, and
//!    [`VmEndpoint::take_ready`] hands it over once it is next in order;
//! 3. tells the endpoint the time ([`VmEndpoint::advance_clock`]) as it
//!    handles each event, and calls [`VmEndpoint::tick`] at
//!    [`VmEndpoint::next_deadline`] to enqueue retransmissions: each
//!    channel times its own retransmission from the round trips it
//!    measured ([`rto`]);
//! 4. after a crash, replays its log through [`VmEndpoint::replay`] to
//!    rebuild the endpoint (outstanding Vms resume retransmission — paper
//!    Section 7: "outstanding Vm need not be sent again \[specially\]; the
//!    system eventually sends the outstanding Vm in the normal course of
//!    processing").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod codec;
pub mod endpoint;
pub mod frame;
pub mod logop;
pub mod rto;
pub mod stats;

pub use channel::Seq;
pub use codec::{Datagram, WireDatagram};
pub use endpoint::{ChannelSnapshot, Receipt, VmConfig, VmEndpoint};
pub use frame::Frame;
pub use logop::VmLogOp;
pub use stats::VmStats;

/// Site identifier (matches `dvp_simnet::NodeId`).
pub type SiteId = usize;
