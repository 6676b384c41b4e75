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
//! The coordinator's home site is usually in the quorum, so it is its own
//! participant. What a site sends itself does not cross the wire, with
//! one exception: a lock request and its grant do (see
//! [`TradKind::in_site`]). Everything else — `Prepare`, `Vote`,
//! `Decision`, `DecisionAck`, `ReleaseLocks`, `DecisionQuery`, 3PC's
//! `PreCommit` and `PreAck` — is queued and handled in the same dispatch,
//! in FIFO order, before the flush boundary's one force. So the home
//! site's part of the decision phase costs no wire hop, and one force
//! hardens its `Prepared`, `Decision` and `Resolved` records when they
//! fall in one dispatch. Nothing leaves the site before that force, and
//! a dispatch is atomic with respect to crashes, so no in-site step can
//! be seen without the records it logged.
//!
//! Lock acquisition keeps its network timing, so in-site delivery never
//! lets a transaction *acquire* a lock sooner than a rival could, only
//! *finish* sooner. Two alternatives were measured on the benchmark's
//! `trad2pc_banking` run (100,000 transactions, seed 42), against 15,742
//! timeout aborts for this design. Delivering the lock round in-site
//! too lets each coordinator hold its home lock before any rival's
//! request can reach it: 18,577 timeouts. Requesting the home lock only
//! once every remote grant is in was worse still: 43,693.
//!
//! Like a DvP site, each site checkpoints every
//! [`CHECKPOINT_EVERY`](dvp_storage::CHECKPOINT_EVERY) stable records and
//! truncates its log (`durable`), so neither the log nor the
//! coordinator's decision table grows with the run. Nor does the
//! consistency audit: the cluster's [`OutcomeAudit`] holds a transaction
//! only while some site can still resolve it.
//!
//! Nor does the engine do work the protocol does not need. A timer lives
//! exactly as long as the state it guards: a participant transaction has
//! one live timer — the unprepared timeout until its vote, the in-doubt
//! query retry after — cancelled when it prepares, resolves or releases,
//! and a coordinator cancels its assembly timeout at the decision and
//! its retry timer at the last `DecisionAck` or the abort. On a reliable
//! net the only timers that fire are the timeouts that abort. Nor does a
//! 2PC `Prepare` carry the writer set that only 3PC's cooperative
//! termination reads. Site sets
//! are one-word [`Sites`](crate::placement::Sites) bitmasks — so a
//! cluster has at most 64 sites — and per-item state (the coordinator's
//! grants and reads, a participant's locks, a `Prepare`'s writes) is
//! inline, so a commit allocates a handful of times, not once per set.
//!
//! Presumed abort: an unlogged decision is an abort, so coordinator
//! crashes before the decision resolve cleanly after recovery. The
//! blocking the paper's Section 2 proves unavoidable shows up exactly
//! where theory says: an in-doubt participant **partitioned from its
//! coordinator** holds its locks until the partition heals — there is no
//! timeout it could safely take. `TradMetrics` measures those windows.

mod audit;
mod cluster;
mod coordinator;
mod durable;
mod locks;
mod msg;
mod participant;
mod replica;
mod termination;

pub use audit::OutcomeAudit;
pub use cluster::TradCluster;
pub use msg::{TradBody, TradKind, TradMsg};

use crate::metrics::{TradAbort, TradMetrics};
use crate::placement::Placement;
use crate::record::{TradRecord, VersionedWrite};
use coordinator::CoordTxn;
use durable::Durable;
use dvp_core::clock::{LamportClock, Ts};
use dvp_core::ItemId;
use dvp_core::{Script, ScriptCursor};
use dvp_obs::{EventKind, Obs};
use dvp_simnet::node::{Context, Node, TimerId};
use dvp_simnet::time::SimDuration;
use dvp_simnet::NodeId;
use dvp_storage::StableLog;
use locks::LockTable;
use participant::PartTxn;
use replica::Replica;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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
    durable: Durable,
    /// This site's place in its run's arrivals.
    arrivals: ScriptCursor,
    coord: BTreeMap<Ts, CoordTxn>,
    part: BTreeMap<Ts, PartTxn>,
    /// Commit decisions this site (as coordinator) has forced and not
    /// yet seen every writer acknowledge: exactly what a participant can
    /// still ask about. Aborts and read-only commits never enter —
    /// presumed abort answers a query about an unknown, inactive
    /// transaction with `Decision { commit: false }` — and the last
    /// `DecisionAck` removes the entry. That is safe because a writer
    /// acks only after its `Resolved` record is forced (`flush` forces
    /// before the wire), so no writer queries again, even across a crash.
    /// A stale query that arrives anyway (sent before the decision
    /// reached its writer, delivered after the last ack) gets an abort
    /// answer; the writer has already resolved, so it just re-acks, and
    /// the answer has the same wire length as a commit.
    ///
    /// Recovery reloads the entries still owed from the checkpoint plus
    /// the redo suffix. A reloaded entry has lost its writer set with its
    /// volatile `CoordTxn`, so it stays: at most the decisions owed or
    /// logged within one checkpoint window of each crash.
    decisions: BTreeSet<Ts>,
    locks: LockTable,
    metrics: TradMetrics,
    /// The cluster's outcome audit (a private one until
    /// [`set_audit`](Self::set_audit)).
    audit: OutcomeAudit,
    /// 3PC only: the transactions this site resolved as commits, which
    /// its state replies report (kept across crashes like metrics). It
    /// grows with the run; under 2PC it stays empty.
    commits: BTreeSet<Ts>,
    /// Messages queued this dispatch, awaiting the wire-flush boundary
    /// (empty between dispatches).
    wire_buf: Vec<(NodeId, TradBody)>,
    /// Messages this site sent itself this dispatch, awaiting in-site
    /// delivery at the flush boundary (empty between dispatches).
    in_site: VecDeque<TradBody>,
    /// Structured trace handle.
    obs: Obs,
}

impl TradNode {
    /// Build a site holding full replicas of every item, reading its
    /// transactions from `arrivals` (whose site it is) and tracing to
    /// `obs` (shared into the stable log, so the genesis force is
    /// traced too).
    pub fn new(
        n: usize,
        cfg: TradConfig,
        totals: Vec<u64>,
        arrivals: ScriptCursor,
        obs: &Obs,
    ) -> Self {
        let id = arrivals.site();
        TradNode {
            id,
            n,
            cfg,
            clock: LamportClock::new(id),
            durable: Durable::genesis(&totals, obs, id as u32),
            locks: LockTable::new(totals.len()),
            replica: Replica::new(totals),
            arrivals,
            coord: BTreeMap::new(),
            part: BTreeMap::new(),
            decisions: BTreeSet::new(),
            metrics: TradMetrics::default(),
            audit: OutcomeAudit::default(),
            commits: BTreeSet::new(),
            wire_buf: Vec::new(),
            in_site: VecDeque::new(),
            obs: obs.clone(),
        }
    }

    /// The arrival script this site runs (a shared handle).
    pub fn script(&self) -> &Script {
        self.arrivals.script()
    }

    /// Attach the cluster's outcome audit; every step this site takes
    /// in a transaction's commit feeds it.
    pub fn set_audit(&mut self, audit: OutcomeAudit) {
        self.audit = audit;
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
        self.durable.log()
    }

    /// Commit decisions this site still owes some writer (see the
    /// coordinator's decision table; memory audit).
    pub fn decisions_owed(&self) -> usize {
        self.decisions.len()
    }

    /// Replica `(value, version)` of an item (test/audit access).
    pub fn replica(&self, item: ItemId) -> (u64, u64) {
        self.replica.get(item)
    }

    /// Number of in-doubt participant transactions right now.
    pub fn in_doubt_count(&self) -> usize {
        self.in_doubt().count()
    }

    /// The in-doubt participant transactions right now, oldest first.
    pub fn in_doubt(&self) -> impl Iterator<Item = Ts> + '_ {
        self.part
            .iter()
            .filter(|(_, p)| p.in_doubt_since.is_some())
            .map(|(&txn, _)| txn)
    }

    /// The writes the in-doubt transaction `txn` installs if it commits
    /// (`None` unless it is in doubt here; test/audit access).
    pub fn prepared_writes(&self, txn: Ts) -> Option<&[VersionedWrite]> {
        self.part.get(&txn)?.prepared_writes.as_deref()
    }

    /// Queue `body` for `to`: for the wire, or — sent to this site itself,
    /// and of a kind that may skip the wire ([`TradKind::in_site`]) — for
    /// in-site delivery at the flush boundary.
    fn send(&mut self, to: NodeId, body: TradBody) {
        let kind = body.kind();
        if to == self.id && kind.in_site() {
            self.metrics.traffic[kind as usize].in_site += 1;
            self.in_site.push_back(body);
        } else {
            self.wire_buf.push((to, body));
        }
    }

    /// The flush boundary at the end of every `Node` callback. First the
    /// messages this site sent itself are handled, oldest first, along
    /// with any they send it in turn. Then the group commit: one force
    /// hardens every record this dispatch appended, so votes and
    /// decisions only leave with their records durable. Then a
    /// checkpoint, if one is due: it finds the log clean, so it adds no
    /// force. Then the wire: everything `send` buffered leaves, one
    /// transmission per destination. A peer with a single message gets
    /// it unwrapped; two or more go out as one [`TradBody::Batch`] under
    /// one Lamport stamp, declaring its logical frame count to the kernel
    /// (logical message counts — [`TradMetrics::messages_sent`], kernel
    /// `frames_sent` — are unaffected by the batching).
    fn flush(&mut self, ctx: &mut Context<'_, TradMsg>) {
        while let Some(body) = self.in_site.pop_front() {
            self.handle_body(self.id, body, ctx);
        }
        self.durable.force();
        if let Some(redo_from) =
            self.durable
                .checkpoint_if_due(&self.replica, &self.part, &self.decisions)
        {
            let checkpoint = EventKind::Checkpoint {
                redo_from: redo_from.0,
            };
            self.obs
                .record(self.id as u32, checkpoint, &mut self.metrics);
        }
        // Destinations ascending, send order within each: a stable sort,
        // then one transmission per run of equal destinations. A batch's
        // vector is sized to its run, so it allocates once.
        self.wire_buf.sort_by_key(|&(to, _)| to);
        let lamport = self.clock.counter();
        let traffic = &mut self.metrics.traffic;
        while let Some(&(to, _)) = self.wire_buf.first() {
            let n = self.wire_buf.partition_point(|&(next, _)| next == to);
            let mut run = self.wire_buf.drain(..n).map(|(_, body)| body);
            if n == 1 {
                let body = run.next().expect("a run of one");
                let t = &mut traffic[body.kind() as usize];
                let msg = TradMsg { lamport, body };
                let bytes = msg.wire_len();
                t.transmitted += 1;
                t.wire_bytes += bytes;
                ctx.send_frames_bytes(to, msg, 1, bytes);
                continue;
            }
            let bodies: Vec<TradBody> = run.collect();
            let mut members = 0;
            for body in &bodies {
                let t = &mut traffic[body.kind() as usize];
                let len = 1 + body.wire_len();
                t.transmitted += 1;
                t.wire_bytes += len;
                members += len;
            }
            let frames = bodies.len() as u64;
            let msg = TradMsg {
                lamport,
                body: TradBody::Batch(bodies),
            };
            let bytes = msg.wire_len();
            let batch = &mut traffic[TradKind::Batch as usize];
            batch.transmitted += 1;
            batch.wire_bytes += bytes - members;
            ctx.send_frames_bytes(to, msg, frames, bytes);
        }
    }

    /// Dispatch one logical message body: a direct message, one member of
    /// a [`TradBody::Batch`], or one this site sent itself.
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
            TradBody::DecisionAck { txn } => self.on_decision_ack(from, txn, ctx),
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
            TradBody::Batch(bodies) => {
                // One wire transmission, several logical messages under
                // the stamp just observed: handle them in sender order.
                // Replies queued while handling them coalesce into this
                // dispatch's own flush below.
                for body in bodies {
                    self.handle_body(from, body, ctx);
                }
            }
            body => self.handle_body(from, body, ctx),
        }
        self.flush(ctx);
    }

    fn on_external(&mut self, tag: u64, ctx: &mut Context<'_, TradMsg>) {
        let Some(spec) = self.arrivals.spec(tag) else {
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
        self.durable.crash();
        self.wire_buf.clear();
        self.in_site.clear();
        // A transaction already decided was counted when it was decided;
        // only the undecided ones are lost with the coordinator. Either
        // way this coordinator is done with them.
        let mut lost = 0;
        for (ts, c) in std::mem::take(&mut self.coord) {
            self.audit.coordinator_done(ts);
            lost += u64::from(!c.decided());
        }
        // Counted with no `TxnAbort`: the coordinator is gone.
        self.metrics.aborted[TradAbort::Crashed as usize] += lost;
        self.part.clear();
        self.decisions.clear();
        self.locks.clear();
        self.replica.wipe();
        self.clock.crash_reset();
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, TradMsg>) {
        self.obs
            .record(self.id as u32, EventKind::RecoveryBegin, &mut self.metrics);
        let recovered = self.durable.recover(&mut self.replica);
        let replayed = recovered.replayed;
        self.decisions = recovered.decisions;
        // Re-enter in-doubt for prepared-but-unresolved transactions.
        for (txn, (coordinator, writes)) in recovered.in_doubt {
            self.reenter_in_doubt(txn, coordinator, writes, ctx);
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
