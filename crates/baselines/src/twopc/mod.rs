//! The traditional distributed-transaction engine: strict 2PL + 2PC.
//!
//! Each item is a single logical value held in replicas (per
//! [`Placement`]). A transaction runs at a coordinator which:
//!
//! 1. sends `LockReq` to every site in each accessed item's quorum
//!    (strict 2PL; participants queue conflicting requests FIFO);
//! 2. on full grant, computes new values (a `Decr` below zero aborts) and
//!    sends `Prepare` with the versioned writes;
//! 3. participants **force a `Prepared` record** and vote YES — from this
//!    instant they are *in doubt* and may not release locks unilaterally;
//! 4. on unanimous YES the coordinator **forces a `Decision`** and
//!    announces it (with retries until acked); participants install,
//!    force `Resolved`, and release.
//!
//! Presumed abort: an unlogged decision is an abort, so coordinator
//! crashes before the decision resolve cleanly after recovery. The
//! blocking the paper's Section 2 proves unavoidable shows up exactly
//! where theory says: an in-doubt participant **partitioned from its
//! coordinator** holds its locks until the partition heals — there is no
//! timeout it could safely take. `TradMetrics` measures those windows.

mod cluster;
mod coordinator;
mod locks;
mod msg;
mod participant;
mod replica;
mod termination;

pub use cluster::{TradCluster, TradClusterConfig};
pub use msg::{TradBody, TradMsg};

use crate::metrics::{TradAbort, TradMetrics};
use crate::placement::Placement;
use crate::record::{TradRecord, VersionedWrite};
use coordinator::CoordTxn;
use dvp_core::clock::{LamportClock, Ts};
use dvp_core::txn::Script;
use dvp_core::ItemId;
use dvp_obs::{EventKind, Obs};
use dvp_simnet::node::{Context, Node, TimerId};
use dvp_simnet::time::SimDuration;
use dvp_simnet::NodeId;
use dvp_storage::StableLog;
use locks::LockTable;
use participant::PartTxn;
use replica::Replica;
use std::collections::BTreeMap;

const TAG_KIND_SHIFT: u64 = 56;
const TAG_COORD_TIMEOUT: u64 = 1 << TAG_KIND_SHIFT;
const TAG_PART_UNPREPARED: u64 = 2 << TAG_KIND_SHIFT;
const TAG_DECISION_RETRY: u64 = 3 << TAG_KIND_SHIFT;
const TAG_QUERY_RETRY: u64 = 4 << TAG_KIND_SHIFT;
const TAG_PAYLOAD_MASK: u64 = (1 << TAG_KIND_SHIFT) - 1;

/// Which atomic commit protocol the engine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitProtocol {
    /// Classic two-phase commit: blocking when in doubt.
    TwoPhase,
    /// Three-phase commit (Skeen): an extra pre-commit round plus a
    /// timeout-based cooperative termination protocol. Non-blocking under
    /// site crashes — but under a network partition the two sides can
    /// *terminate differently*, demonstrating why no protocol closes the
    /// paper's Section 2 impossibility. Divergence is detectable via
    /// [`TradCluster::check_decision_consistency`].
    ThreePhase,
}

/// Coordinator timeout for assembling locks/votes.
const TXN_TIMEOUT: SimDuration = SimDuration::millis(50);
/// Participant gives up on an *unprepared* transaction after this span
/// (safe: it has not voted).
const UNPREPARED_TIMEOUT: SimDuration = SimDuration::millis(150);
/// Interval for decision retries and in-doubt decision queries.
const RETRY_EVERY: SimDuration = SimDuration::millis(20);

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct TradConfig {
    /// Atomic commit protocol.
    pub protocol: CommitProtocol,
    /// Replica control strategy.
    pub placement: Placement,
}

impl Default for TradConfig {
    fn default() -> Self {
        TradConfig {
            protocol: CommitProtocol::TwoPhase,
            placement: Placement::ReplicatedQuorum,
        }
    }
}

/// One site of the traditional system (coordinator + participant roles).
///
/// Split by ownership like the DvP site: the node holds the two roles'
/// transaction tables and the wire buffer, `replica` and `locks` own
/// their state behind their own methods, and the handlers live with
/// the role that runs them (`coordinator`, `participant`, `termination`).
pub struct TradNode {
    id: NodeId,
    n: usize,
    cfg: TradConfig,
    clock: LamportClock,
    replica: Replica,
    log: StableLog<TradRecord>,
    /// This site's arrivals, shared with the cluster config.
    script: Script,
    coord: BTreeMap<Ts, CoordTxn>,
    part: BTreeMap<Ts, PartTxn>,
    /// Durable + volatile decisions this site (as coordinator) knows.
    decisions: BTreeMap<Ts, bool>,
    locks: LockTable,
    metrics: TradMetrics,
    /// Final per-transaction outcome this site acted on (audit state for
    /// the divergence check; kept across crashes like metrics).
    resolutions: BTreeMap<Ts, bool>,
    /// Messages queued this dispatch, awaiting the wire-flush boundary
    /// (empty between dispatches).
    wire_buf: Vec<(NodeId, TradMsg)>,
    /// Structured trace handle (disabled by default).
    obs: Obs,
}

impl TradNode {
    /// Build a site holding full replicas of every item.
    pub fn new(id: NodeId, n: usize, cfg: TradConfig, totals: Vec<u64>, script: Script) -> Self {
        let mut log = StableLog::new();
        for (i, &v) in totals.iter().enumerate() {
            log.append(TradRecord::Init {
                item: ItemId(i as u32),
                value: v,
            });
        }
        log.force();
        TradNode {
            id,
            n,
            cfg,
            clock: LamportClock::new(id),
            replica: Replica::new(totals),
            log,
            script,
            coord: BTreeMap::new(),
            part: BTreeMap::new(),
            decisions: BTreeMap::new(),
            locks: LockTable::default(),
            metrics: TradMetrics::default(),
            resolutions: BTreeMap::new(),
            wire_buf: Vec::new(),
            obs: Obs::disabled(),
        }
    }

    /// Attach a trace handle (shared into the stable log).
    pub fn set_obs(&mut self, obs: Obs) {
        self.log.set_obs(obs.clone(), self.id as u32);
        self.obs = obs;
    }

    /// The arrival script this site runs (a shared handle).
    pub fn script(&self) -> &Script {
        &self.script
    }

    /// Outcomes this site acted on: `(txn, committed)` (divergence audit).
    pub fn resolutions(&self) -> &BTreeMap<Ts, bool> {
        &self.resolutions
    }

    /// Metrics snapshot, with currently open in-doubt windows attached.
    pub fn metrics(&self) -> TradMetrics {
        let mut m = self.metrics.clone();
        m.in_doubt_open_since
            .extend(self.part.values().filter_map(|p| p.in_doubt_since));
        m
    }

    /// The stable log (bench/audit inspection — forces per transaction).
    pub fn log(&self) -> &StableLog<TradRecord> {
        &self.log
    }

    /// Replica `(value, version)` of an item (test/audit access).
    pub fn replica(&self, item: ItemId) -> (u64, u64) {
        self.replica.get(item)
    }

    /// Number of in-doubt participant transactions right now.
    pub fn in_doubt_count(&self) -> usize {
        self.part
            .values()
            .filter(|p| p.in_doubt_since.is_some())
            .count()
    }

    fn send(&mut self, to: NodeId, body: TradBody) {
        self.metrics.messages_sent += 1;
        let lamport = self.clock.counter();
        self.wire_buf.push((to, TradMsg { lamport, body }));
    }

    /// The flush boundary at the end of every `Node` callback. First the
    /// group commit: one force hardens every record this dispatch
    /// appended, so votes and decisions only leave with their records
    /// durable. Then the wire: everything `send` buffered leaves, one
    /// transmission per destination. A peer with a single message gets
    /// it unwrapped; two or more go out as one [`TradBody::Batch`]
    /// declaring its logical frame count to the kernel (logical message
    /// counts — `TradMetrics::messages_sent`, kernel `frames_sent` — are
    /// unaffected by the batching).
    fn flush(&mut self, ctx: &mut Context<'_, TradMsg>) {
        self.log.force_if_dirty();
        if self.wire_buf.is_empty() {
            return;
        }
        let mut groups: BTreeMap<NodeId, Vec<TradMsg>> = BTreeMap::new();
        for (to, msg) in self.wire_buf.drain(..) {
            groups.entry(to).or_default().push(msg);
        }
        let lamport = self.clock.counter();
        for (to, mut msgs) in groups {
            if msgs.len() == 1 {
                let msg = msgs.pop().expect("length checked");
                let bytes = msg.wire_len();
                ctx.send_frames_bytes(to, msg, 1, bytes);
            } else {
                let frames = msgs.len() as u64;
                let body = TradBody::Batch(msgs);
                let msg = TradMsg { lamport, body };
                let bytes = msg.wire_len();
                ctx.send_frames_bytes(to, msg, frames, bytes);
            }
        }
    }

    /// Dispatch one logical message body (a direct message or one member
    /// of a [`TradBody::Batch`]).
    fn handle_body(&mut self, from: NodeId, body: TradBody, ctx: &mut Context<'_, TradMsg>) {
        match body {
            TradBody::LockReq { txn, item } => self.on_lock_req(from, txn, item, ctx),
            TradBody::LockGrant {
                txn,
                item,
                value,
                version,
            } => self.on_lock_grant(from, txn, item, (value, version), ctx),
            TradBody::Prepare { txn, writes, peers } => {
                self.on_prepare(from, txn, writes, peers, ctx)
            }
            TradBody::PreCommit { txn } => self.on_precommit(from, txn),
            TradBody::PreAck { txn } => self.on_preack(from, txn, ctx),
            TradBody::StateQuery { txn } => self.on_state_query(from, txn),
            TradBody::StateReply { txn, state } => self.on_state_reply(txn, state, ctx),
            TradBody::Vote { txn, yes } => self.on_vote(from, txn, yes, ctx),
            TradBody::Decision { txn, commit } => self.on_decision(from, txn, commit, ctx),
            TradBody::DecisionAck { txn } => self.on_decision_ack(from, txn),
            TradBody::DecisionQuery { txn } => self.on_query(from, txn),
            TradBody::ReleaseLocks { txn } => self.on_release(txn, ctx),
            TradBody::Batch(_) => debug_assert!(false, "batches are never nested"),
        }
    }
}

impl Node for TradNode {
    type Msg = TradMsg;

    fn on_message(&mut self, from: NodeId, msg: TradMsg, ctx: &mut Context<'_, TradMsg>) {
        self.clock.observe_counter(msg.lamport);
        match msg.body {
            TradBody::Batch(msgs) => {
                // One wire transmission, several logical messages: unpack
                // in sender order, observing each inner Lamport stamp.
                // Replies queued while handling them coalesce into this
                // dispatch's own flush below.
                for inner in msgs {
                    self.clock.observe_counter(inner.lamport);
                    self.handle_body(from, inner.body, ctx);
                }
            }
            body => self.handle_body(from, body, ctx),
        }
        self.flush(ctx);
    }

    fn on_external(&mut self, tag: u64, ctx: &mut Context<'_, TradMsg>) {
        // As in `SiteNode::on_external`: the script is shared and
        // immutable, so a replayed tag is structurally harmless, and the
        // clone is an inline copy.
        let Some((_, spec)) = self.script.get(tag as usize).cloned() else {
            debug_assert!(false, "external tag {tag} has no scripted transaction");
            return;
        };
        self.begin_txn(spec, ctx);
        self.flush(ctx);
    }

    fn on_timer(&mut self, _id: TimerId, tag: u64, ctx: &mut Context<'_, TradMsg>) {
        let kind = tag >> TAG_KIND_SHIFT << TAG_KIND_SHIFT;
        let ts = Ts(tag & TAG_PAYLOAD_MASK);
        match kind {
            TAG_COORD_TIMEOUT => self.on_coord_timeout(ts, ctx),
            TAG_PART_UNPREPARED => self.on_unprepared_timeout(ts, ctx),
            TAG_DECISION_RETRY => self.on_decision_retry(ts, ctx),
            TAG_QUERY_RETRY => self.on_query_retry(ts, ctx),
            _ => debug_assert!(false, "unknown timer tag"),
        }
        self.flush(ctx);
    }

    fn on_crash(&mut self) {
        self.log.crash();
        self.wire_buf.clear();
        let lost = std::mem::take(&mut self.coord).len() as u64;
        if lost > 0 {
            *self.metrics.aborted.entry(TradAbort::Crashed).or_insert(0) += lost;
        }
        self.part.clear();
        self.decisions.clear();
        self.locks.clear();
        self.replica.wipe();
        self.clock.crash_reset();
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, TradMsg>) {
        self.metrics.recoveries += 1;
        self.obs.emit(self.id as u32, EventKind::RecoveryBegin);
        let records = self.log.recover().expect("stable image must decode");
        let replayed = records.len() as u64;
        let mut prepared: BTreeMap<Ts, (u64, Vec<VersionedWrite>)> = BTreeMap::new();
        let mut resolved: BTreeMap<Ts, bool> = BTreeMap::new();
        for rec in records {
            match rec {
                TradRecord::Init { item, value } => self.replica.init(item, value),
                TradRecord::Prepared {
                    txn,
                    coordinator,
                    writes,
                } => {
                    prepared.insert(txn, (coordinator, writes));
                }
                TradRecord::Decision { txn, commit } => {
                    self.decisions.insert(txn, commit);
                }
                TradRecord::Resolved { txn, commit } => {
                    resolved.insert(txn, commit);
                }
            }
        }
        // Reinstall writes of resolved-committed transactions.
        for (txn, _) in resolved.iter().filter(|(_, &commit)| commit) {
            if let Some((_, writes)) = prepared.get(txn) {
                self.replica.install(writes);
            }
        }
        // Re-enter in-doubt for prepared-but-unresolved transactions.
        let mut blocked = false;
        for (txn, (coordinator, writes)) in prepared {
            if !resolved.contains_key(&txn) {
                blocked = true;
                self.reenter_in_doubt(txn, coordinator as NodeId, writes, ctx);
            }
        }
        if blocked {
            self.metrics.recoveries_blocked += 1;
        }
        let queries = self.metrics.recovery_remote_messages;
        self.obs
            .emit_with(self.id as u32, || EventKind::RecoveryEnd {
                replayed,
                remote_msgs: queries,
            });
        self.flush(ctx);
    }
}

#[cfg(test)]
mod tests;
