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

use crate::metrics::{TradAbort, TradClusterMetrics, TradMetrics};
use crate::placement::Placement;
use crate::record::{TradRecord, VersionedWrite};
use dvp_core::clock::{LamportClock, Ts};
use dvp_core::item::Catalog;
use dvp_core::ops::Op;
use dvp_core::txn::TxnSpec;
use dvp_core::ItemId;
use dvp_obs::{EventKind, Obs};
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::node::{Context, Node, TimerId};
use dvp_simnet::sim::Simulation;
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_simnet::NodeId;
use dvp_storage::StableLog;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

const TAG_KIND_SHIFT: u64 = 56;
const TAG_COORD_TIMEOUT: u64 = 1 << TAG_KIND_SHIFT;
const TAG_PART_UNPREPARED: u64 = 2 << TAG_KIND_SHIFT;
const TAG_DECISION_RETRY: u64 = 3 << TAG_KIND_SHIFT;
const TAG_QUERY_RETRY: u64 = 4 << TAG_KIND_SHIFT;
const TAG_PAYLOAD_MASK: u64 = (1 << TAG_KIND_SHIFT) - 1;

/// Protocol message bodies.
#[derive(Clone, Debug)]
pub enum TradBody {
    /// Coordinator asks for an exclusive lock on `item`.
    LockReq {
        /// Requesting transaction.
        txn: Ts,
        /// Item to lock.
        item: ItemId,
    },
    /// Participant granted the lock; carries the replica's current state.
    LockGrant {
        /// The transaction.
        txn: Ts,
        /// The item granted.
        item: ItemId,
        /// Replica value.
        value: u64,
        /// Replica version.
        version: u64,
    },
    /// Phase 1: prepare with the writes this participant must install.
    Prepare {
        /// The transaction.
        txn: Ts,
        /// Writes for this participant.
        writes: Vec<VersionedWrite>,
        /// Fellow writers (3PC cooperative termination peer set).
        peers: Vec<u64>,
    },
    /// Participant vote.
    Vote {
        /// The transaction.
        txn: Ts,
        /// YES / NO.
        yes: bool,
    },
    /// Phase 2: the coordinator's decision.
    Decision {
        /// The transaction.
        txn: Ts,
        /// True = commit.
        commit: bool,
    },
    /// Participant acknowledges having resolved the transaction.
    DecisionAck {
        /// The transaction.
        txn: Ts,
    },
    /// In-doubt participant (or recovering site) asks for the outcome.
    DecisionQuery {
        /// The transaction.
        txn: Ts,
    },
    /// Coordinator abort before prepare: release any locks held.
    ReleaseLocks {
        /// The transaction.
        txn: Ts,
    },
    /// 3PC phase 2a: every writer voted YES; commit is now inevitable
    /// unless everyone fails.
    PreCommit {
        /// The transaction.
        txn: Ts,
    },
    /// 3PC participant acknowledgement of the pre-commit.
    PreAck {
        /// The transaction.
        txn: Ts,
    },
    /// 3PC cooperative termination: "what state are you in for txn?"
    StateQuery {
        /// The transaction.
        txn: Ts,
    },
    /// Reply to a state query.
    StateReply {
        /// The transaction.
        txn: Ts,
        /// 0 = uncertain, 1 = pre-committed, 2 = committed, 3 = aborted
        /// or unknown.
        state: u8,
    },
    /// Link-level batch: every message this site queued for one peer
    /// during one dispatch, coalesced into a single wire transmission —
    /// the counterpart of the DvP engine's Vm datagram, so neither engine
    /// gets a free batching advantage in wire comparisons. Each inner
    /// message keeps its own Lamport stamp; the receiver unpacks and
    /// handles them in order.
    /// Never nested.
    Batch(Vec<TradMsg>),
}

/// A protocol message with a Lamport counter piggyback.
#[derive(Clone, Debug)]
pub struct TradMsg {
    /// Sender's Lamport counter.
    pub lamport: u64,
    /// Payload.
    pub body: TradBody,
}

impl TradMsg {
    /// Deterministic encoded-length estimate, in bytes, of the wire shape
    /// this message would have under a minimal fixed-width codec: an
    /// 8-byte Lamport stamp plus a 1-byte body tag, then the body's
    /// fields at their natural widths (`Ts` 8, `ItemId` 4, `u64` 8,
    /// `bool`/`u8` 1, vectors as a 4-byte count plus elements). The
    /// traditional engine exchanges in-memory values, so this estimate —
    /// not a real encoder — is what it declares to
    /// [`NetStats::wire_bytes`](dvp_simnet::stats::NetStats::wire_bytes)
    /// for the cross-engine wire-volume comparison. The DvP engine
    /// declares its *actual* codec output length, so the comparison
    /// favours neither side: both count every field that would cross the
    /// wire, once.
    pub fn wire_len(&self) -> u64 {
        9 + self.body.wire_len()
    }
}

impl TradBody {
    /// Encoded length of the body's fields (excluding the 9-byte
    /// lamport+tag header; see [`TradMsg::wire_len`]).
    fn wire_len(&self) -> u64 {
        match self {
            TradBody::LockReq { .. } => 8 + 4,
            TradBody::LockGrant { .. } => 8 + 4 + 8 + 8,
            TradBody::Prepare { writes, peers, .. } => {
                8 + 4 + 20 * writes.len() as u64 + 4 + 8 * peers.len() as u64
            }
            TradBody::Vote { .. } | TradBody::Decision { .. } => 8 + 1,
            TradBody::DecisionAck { .. }
            | TradBody::DecisionQuery { .. }
            | TradBody::ReleaseLocks { .. }
            | TradBody::PreCommit { .. }
            | TradBody::PreAck { .. }
            | TradBody::StateQuery { .. } => 8,
            TradBody::StateReply { .. } => 8 + 1,
            TradBody::Batch(msgs) => 4 + msgs.iter().map(TradMsg::wire_len).sum::<u64>(),
        }
    }
}

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

#[derive(Clone, Debug, PartialEq, Eq)]
enum CoordPhase {
    Locking,
    Voting,
    /// 3PC only: pre-commits sent, awaiting pre-acks.
    PreCommitting,
    /// Decision made; still pushing it to participants.
    Deciding {
        commit: bool,
    },
}

#[derive(Clone, Debug)]
struct CoordTxn {
    spec: TxnSpec,
    started: SimTime,
    timer: TimerId,
    phase: CoordPhase,
    /// Per item: quorum sites whose grant is still awaited.
    awaiting: BTreeMap<ItemId, BTreeSet<NodeId>>,
    /// Best (highest-version) value per item.
    values: BTreeMap<ItemId, (u64, u64)>,
    /// Per participant: the writes it must install.
    part_writes: BTreeMap<NodeId, Vec<VersionedWrite>>,
    /// Participants that have not voted yet.
    votes_pending: BTreeSet<NodeId>,
    /// Participants that have not acked the decision yet.
    acks_pending: BTreeSet<NodeId>,
    /// All participants.
    participants: BTreeSet<NodeId>,
    /// Participants that received writes (the 2PC voter set; the rest are
    /// released at prepare time — the read-only optimization).
    writers: BTreeSet<NodeId>,
    /// Latency is recorded once; further acks are bookkeeping.
    reported: bool,
}

#[derive(Clone, Debug)]
struct PartTxn {
    coordinator: NodeId,
    items: BTreeSet<ItemId>,
    prepared_writes: Option<Vec<VersionedWrite>>,
    in_doubt_since: Option<SimTime>,
    /// 3PC: pre-commit received (commit is inevitable barring total loss).
    precommitted: bool,
    /// Fellow writers (for cooperative termination).
    peers: Vec<NodeId>,
    /// Termination-protocol rounds attempted while in doubt.
    term_attempts: u32,
}

/// One site of the traditional system (coordinator + participant roles).
pub struct TradNode {
    id: NodeId,
    n: usize,
    cfg: TradConfig,
    clock: LamportClock,
    values: Vec<u64>,
    versions: Vec<u64>,
    log: StableLog<TradRecord>,
    script: Vec<TxnSpec>,
    coord: BTreeMap<Ts, CoordTxn>,
    part: BTreeMap<Ts, PartTxn>,
    /// Durable + volatile decisions this site (as coordinator) knows.
    decisions: BTreeMap<Ts, bool>,
    locks: BTreeMap<ItemId, Ts>,
    queues: BTreeMap<ItemId, VecDeque<(Ts, NodeId)>>,
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
    pub fn new(
        id: NodeId,
        n: usize,
        cfg: TradConfig,
        totals: Vec<u64>,
        script: Vec<TxnSpec>,
    ) -> Self {
        let mut log = StableLog::new();
        for (i, &v) in totals.iter().enumerate() {
            log.append(TradRecord::Init {
                item: ItemId(i as u32),
                value: v,
            });
        }
        log.force();
        let versions = vec![0; totals.len()];
        TradNode {
            id,
            n,
            cfg,
            clock: LamportClock::new(id),
            values: totals,
            versions,
            log,
            script,
            coord: BTreeMap::new(),
            part: BTreeMap::new(),
            decisions: BTreeMap::new(),
            locks: BTreeMap::new(),
            queues: BTreeMap::new(),
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

    /// Replica value of an item (test/audit access).
    pub fn replica(&self, item: ItemId) -> (u64, u64) {
        (self.values[item.0 as usize], self.versions[item.0 as usize])
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

    /// Wire-flush boundary: everything `send` buffered during this
    /// dispatch leaves now, one transmission per destination. Runs right
    /// after [`flush_log`](Self::flush_log) at the end of each callback,
    /// so every batch still departs with its records durable. A peer
    /// with a single message gets it unwrapped; two or more go out as
    /// one [`TradBody::Batch`] declaring its logical frame count to the
    /// kernel (logical message counts — `TradMetrics::messages_sent`,
    /// kernel `frames_sent` — are unaffected by the batching).
    fn flush_wire(&mut self, ctx: &mut Context<'_, TradMsg>) {
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

    /// Group-commit flush boundary: one force hardens every record this
    /// dispatch appended. Runs at the end of each `Node` callback — before
    /// the kernel transmits any message the dispatch queued, so votes and
    /// decisions only leave with their records durable.
    fn flush_log(&mut self) {
        self.log.force_if_dirty();
    }

    // ---- coordinator side -------------------------------------------------

    fn begin_txn(&mut self, spec: TxnSpec, ctx: &mut Context<'_, TradMsg>) {
        let ts = self.clock.tick_at(ctx.now().micros());
        let timer = ctx.set_timer(TXN_TIMEOUT, TAG_COORD_TIMEOUT | ts.0);
        let items = spec.access_set();
        self.obs.emit_with(self.id as u32, || EventKind::TxnStart {
            txn: ts.0,
            ops: items.len() as u32,
        });
        let mut awaiting: BTreeMap<ItemId, BTreeSet<NodeId>> = BTreeMap::new();
        let mut participants: BTreeSet<NodeId> = BTreeSet::new();
        for &item in &items {
            let q = self.cfg.placement.quorum(item, self.id, self.n);
            participants.extend(q.iter().copied());
            awaiting.insert(item, q.into_iter().collect());
        }
        self.coord.insert(
            ts,
            CoordTxn {
                spec,
                started: ctx.now(),
                timer,
                phase: CoordPhase::Locking,
                awaiting: awaiting.clone(),
                values: BTreeMap::new(),
                part_writes: BTreeMap::new(),
                votes_pending: BTreeSet::new(),
                acks_pending: BTreeSet::new(),
                participants,
                writers: BTreeSet::new(),
                reported: false,
            },
        );
        for (item, sites) in awaiting {
            for site in sites {
                self.send(site, TradBody::LockReq { txn: ts, item });
            }
        }
    }

    fn on_lock_grant(
        &mut self,
        from: NodeId,
        ts: Ts,
        item: ItemId,
        value: u64,
        version: u64,
        ctx: &mut Context<'_, TradMsg>,
    ) {
        let all_granted = {
            let c = match self.coord.get_mut(&ts) {
                Some(c) if c.phase == CoordPhase::Locking => c,
                _ => return, // late/stale grant
            };
            if let Some(waiting) = c.awaiting.get_mut(&item) {
                waiting.remove(&from);
            }
            let best = c.values.entry(item).or_insert((value, version));
            if version >= best.1 {
                *best = (value, version);
            }
            c.awaiting.values().all(|s| s.is_empty())
        };
        if all_granted {
            self.enter_prepare(ts, ctx);
        }
    }

    fn enter_prepare(&mut self, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        // Compute new values by applying the ops against the quorum reads.
        let (ok, part_writes, participants) = {
            let c = self.coord.get_mut(&ts).expect("coord txn");
            let mut current: BTreeMap<ItemId, u64> =
                c.values.iter().map(|(&i, &(v, _))| (i, v)).collect();
            let mut ok = true;
            for (item, op) in &c.spec.ops {
                let v = current.get_mut(item).expect("value read during locking");
                match op {
                    Op::Incr(m) => *v += m,
                    Op::Decr(m) => {
                        if *v < *m {
                            ok = false;
                            break;
                        }
                        *v -= m;
                    }
                    Op::Read => {}
                }
            }
            if ok {
                let new_version = ts.counter();
                let mut per_site: BTreeMap<NodeId, Vec<VersionedWrite>> = BTreeMap::new();
                for (&item, &new_value) in &current {
                    if c.values[&item].0 == new_value {
                        continue; // unchanged: not a write
                    }
                    let q = self.cfg.placement.quorum(item, self.id, self.n);
                    for site in q {
                        per_site
                            .entry(site)
                            .or_default()
                            .push((item, new_value, new_version));
                    }
                }
                c.part_writes = per_site.clone();
                c.votes_pending = per_site.keys().copied().collect();
                c.writers = per_site.keys().copied().collect();
                c.phase = CoordPhase::Voting;
                (true, per_site, c.participants.clone())
            } else {
                (false, BTreeMap::new(), c.participants.clone())
            }
        };
        if !ok {
            self.coordinator_abort(ts, TradAbort::Insufficient, ctx);
            return;
        }
        // Standard read-only optimization: a transaction with no writes
        // needs no atomic commit — release the read locks and finish.
        let read_only = part_writes.values().all(|w| w.is_empty());
        if read_only {
            let started = {
                let c = self.coord.remove(&ts).expect("coord txn");
                ctx.cancel_timer(c.timer);
                c.started
            };
            self.decisions.insert(ts, true);
            for site in participants {
                self.send(site, TradBody::ReleaseLocks { txn: ts });
            }
            let latency = ctx.now().since(started).as_micros();
            self.metrics.record_commit(latency);
            self.obs.emit_with(self.id as u32, || EventKind::TxnCommit {
                txn: ts.0,
                latency_us: latency,
                fast_path: true,
            });
            return;
        }
        // Pure readers are released now; writers enter the vote.
        for site in participants {
            if !part_writes.contains_key(&site) {
                self.send(site, TradBody::ReleaseLocks { txn: ts });
            }
        }
        let peer_list: Vec<u64> = part_writes.keys().map(|&s| s as u64).collect();
        for (site, writes) in part_writes {
            self.send(
                site,
                TradBody::Prepare {
                    txn: ts,
                    writes,
                    peers: peer_list.clone(),
                },
            );
        }
    }

    fn on_vote(&mut self, from: NodeId, ts: Ts, yes: bool, ctx: &mut Context<'_, TradMsg>) {
        if !yes {
            if self.coord.contains_key(&ts) {
                self.coordinator_abort(ts, TradAbort::VoteNo, ctx);
            }
            return;
        }
        let all_yes = {
            let c = match self.coord.get_mut(&ts) {
                Some(c) if c.phase == CoordPhase::Voting => c,
                _ => return,
            };
            c.votes_pending.remove(&from);
            c.votes_pending.is_empty()
        };
        if all_yes {
            match self.cfg.protocol {
                CommitProtocol::TwoPhase => self.decide_commit(ts, ctx),
                CommitProtocol::ThreePhase => {
                    // Phase 2a: disseminate the inevitable-commit state.
                    let writers = {
                        let c = self.coord.get_mut(&ts).expect("coord txn");
                        c.phase = CoordPhase::PreCommitting;
                        c.acks_pending = c.writers.clone();
                        c.writers.clone()
                    };
                    for site in writers {
                        self.send(site, TradBody::PreCommit { txn: ts });
                    }
                    ctx.set_timer(RETRY_EVERY, TAG_DECISION_RETRY | ts.0);
                }
            }
        }
    }

    /// Force the commit decision and announce it (with retries).
    fn decide_commit(&mut self, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        self.log.append(TradRecord::Decision {
            txn: ts,
            commit: true,
        });
        self.decisions.insert(ts, true);
        let (writers, started) = {
            let c = self.coord.get_mut(&ts).expect("coord txn");
            c.phase = CoordPhase::Deciding { commit: true };
            c.acks_pending = c.writers.clone();
            ctx.cancel_timer(c.timer);
            (c.writers.clone(), c.started)
        };
        for site in writers {
            self.send(
                site,
                TradBody::Decision {
                    txn: ts,
                    commit: true,
                },
            );
        }
        ctx.set_timer(RETRY_EVERY, TAG_DECISION_RETRY | ts.0);
        // Commit is decided now; report it now.
        let latency = ctx.now().since(started).as_micros();
        self.metrics.record_commit(latency);
        self.obs.emit_with(self.id as u32, || EventKind::TxnCommit {
            txn: ts.0,
            latency_us: latency,
            fast_path: false,
        });
        self.coord.get_mut(&ts).expect("coord").reported = true;
    }

    // ---- 3PC handlers ------------------------------------------------------

    fn on_precommit(&mut self, from: NodeId, ts: Ts) {
        if let Some(p) = self.part.get_mut(&ts) {
            if p.prepared_writes.is_some() {
                p.precommitted = true;
            }
        }
        // Ack regardless: if we already resolved, the coordinator should
        // stop waiting on us.
        self.send(from, TradBody::PreAck { txn: ts });
    }

    fn on_preack(&mut self, from: NodeId, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        let all_acked = {
            let c = match self.coord.get_mut(&ts) {
                Some(c) if c.phase == CoordPhase::PreCommitting => c,
                _ => return,
            };
            c.acks_pending.remove(&from);
            c.acks_pending.is_empty()
        };
        if all_acked {
            self.decide_commit(ts, ctx);
        }
    }

    fn on_state_query(&mut self, from: NodeId, ts: Ts) {
        let state = if let Some(p) = self.part.get(&ts) {
            if p.precommitted {
                1
            } else {
                0
            }
        } else {
            match self.resolutions.get(&ts) {
                Some(true) => 2,
                Some(false) | None => 3,
            }
        };
        self.send(from, TradBody::StateReply { txn: ts, state });
    }

    fn on_state_reply(&mut self, ts: Ts, state: u8, ctx: &mut Context<'_, TradMsg>) {
        match state {
            1 | 2 => self.resolve_locally(ts, true, ctx),
            3 => self.resolve_locally(ts, false, ctx),
            _ => {} // uncertain peer: keep waiting
        }
    }

    /// Terminate an in-doubt transaction locally (3PC termination rule or
    /// a peer's definitive state).
    fn resolve_locally(&mut self, ts: Ts, commit: bool, ctx: &mut Context<'_, TradMsg>) {
        let p = match self.part.remove(&ts) {
            Some(p) if p.prepared_writes.is_some() => p,
            Some(p) => {
                self.part.insert(ts, p); // unprepared: not ours to resolve
                return;
            }
            None => return,
        };
        if commit {
            if let Some(writes) = &p.prepared_writes {
                for &(item, value, version) in writes {
                    if version >= self.versions[item.0 as usize] {
                        self.values[item.0 as usize] = value;
                        self.versions[item.0 as usize] = version;
                    }
                }
            }
        }
        self.log.append(TradRecord::Resolved { txn: ts, commit });
        self.resolutions.insert(ts, commit);
        if let Some(since) = p.in_doubt_since {
            self.metrics
                .record_in_doubt(ctx.now().since(since).as_micros());
        }
        for item in p.items {
            self.release_lock(ts, item, ctx);
        }
    }

    fn coordinator_abort(&mut self, ts: Ts, reason: TradAbort, ctx: &mut Context<'_, TradMsg>) {
        let c = match self.coord.remove(&ts) {
            Some(c) => c,
            None => return,
        };
        ctx.cancel_timer(c.timer);
        self.decisions.insert(ts, false);
        // Presumed abort: no forced decision record needed.
        for site in &c.participants {
            match c.phase {
                CoordPhase::Locking => {
                    self.send(*site, TradBody::ReleaseLocks { txn: ts });
                }
                _ => {
                    self.send(
                        *site,
                        TradBody::Decision {
                            txn: ts,
                            commit: false,
                        },
                    );
                }
            }
        }
        let latency = ctx.now().since(c.started).as_micros();
        self.metrics.record_abort(reason, latency);
        self.obs.emit_with(self.id as u32, || EventKind::TxnAbort {
            txn: ts.0,
            reason: reason.tag(),
            latency_us: latency,
        });
    }

    fn on_decision_ack(&mut self, from: NodeId, ts: Ts) {
        let done = {
            let c = match self.coord.get_mut(&ts) {
                Some(c) => c,
                None => return,
            };
            c.acks_pending.remove(&from);
            c.acks_pending.is_empty()
        };
        if done {
            self.coord.remove(&ts);
        }
    }

    // ---- participant side ---------------------------------------------------

    fn on_lock_req(&mut self, from: NodeId, ts: Ts, item: ItemId, ctx: &mut Context<'_, TradMsg>) {
        match self.locks.get(&item) {
            Some(&holder) if holder == ts => {
                // Duplicate request: re-grant idempotently.
                self.grant(from, ts, item);
            }
            Some(_) => {
                self.queues.entry(item).or_default().push_back((ts, from));
            }
            None => {
                self.locks.insert(item, ts);
                self.track_part(ts, from, item, ctx);
                self.grant(from, ts, item);
            }
        }
    }

    fn track_part(
        &mut self,
        ts: Ts,
        coordinator: NodeId,
        item: ItemId,
        ctx: &mut Context<'_, TradMsg>,
    ) {
        let newly = !self.part.contains_key(&ts);
        let p = self.part.entry(ts).or_insert_with(|| PartTxn {
            coordinator,
            items: BTreeSet::new(),
            prepared_writes: None,
            in_doubt_since: None,
            precommitted: false,
            peers: Vec::new(),
            term_attempts: 0,
        });
        p.items.insert(item);
        if newly {
            ctx.set_timer(UNPREPARED_TIMEOUT, TAG_PART_UNPREPARED | ts.0);
        }
    }

    fn grant(&mut self, to: NodeId, ts: Ts, item: ItemId) {
        let value = self.values[item.0 as usize];
        let version = self.versions[item.0 as usize];
        self.send(
            to,
            TradBody::LockGrant {
                txn: ts,
                item,
                value,
                version,
            },
        );
    }

    fn on_prepare(
        &mut self,
        from: NodeId,
        ts: Ts,
        writes: Vec<VersionedWrite>,
        peers: Vec<u64>,
        ctx: &mut Context<'_, TradMsg>,
    ) {
        let holds_all = self
            .part
            .get(&ts)
            .map(|p| writes.iter().all(|(i, _, _)| p.items.contains(i)))
            .unwrap_or(false);
        if !holds_all {
            // We released (unprepared timeout) or never knew it: vote NO.
            self.send(
                from,
                TradBody::Vote {
                    txn: ts,
                    yes: false,
                },
            );
            return;
        }
        self.log.append(TradRecord::Prepared {
            txn: ts,
            coordinator: from as u64,
            writes: writes.clone(),
        });
        {
            let p = self.part.get_mut(&ts).expect("checked above");
            p.prepared_writes = Some(writes);
            p.in_doubt_since = Some(ctx.now());
            p.peers = peers
                .into_iter()
                .map(|x| x as NodeId)
                .filter(|&s| s != self.id)
                .collect();
        }
        self.metrics.in_doubt_entered += 1;
        self.send(from, TradBody::Vote { txn: ts, yes: true });
        // Start querying if the decision does not arrive.
        ctx.set_timer(RETRY_EVERY.saturating_mul(2), TAG_QUERY_RETRY | ts.0);
    }

    fn on_decision(&mut self, from: NodeId, ts: Ts, commit: bool, ctx: &mut Context<'_, TradMsg>) {
        let p = match self.part.remove(&ts) {
            Some(p) => p,
            None => {
                // Already resolved: just (re-)ack so the coordinator stops.
                self.send(from, TradBody::DecisionAck { txn: ts });
                return;
            }
        };
        if commit {
            if let Some(writes) = &p.prepared_writes {
                for &(item, value, version) in writes {
                    if version >= self.versions[item.0 as usize] {
                        self.values[item.0 as usize] = value;
                        self.versions[item.0 as usize] = version;
                    }
                }
            }
        }
        self.log.append(TradRecord::Resolved { txn: ts, commit });
        if p.prepared_writes.is_some() {
            self.resolutions.insert(ts, commit);
        }
        if let Some(since) = p.in_doubt_since {
            self.metrics
                .record_in_doubt(ctx.now().since(since).as_micros());
        }
        for item in p.items {
            self.release_lock(ts, item, ctx);
        }
        self.send(p.coordinator, TradBody::DecisionAck { txn: ts });
    }

    fn on_release(&mut self, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        if let Some(p) = self.part.get(&ts) {
            if p.prepared_writes.is_some() {
                return; // prepared: must not release on a plain release msg
            }
        }
        if let Some(p) = self.part.remove(&ts) {
            for item in p.items {
                self.release_lock(ts, item, ctx);
            }
        }
        // Also purge queued requests of this transaction.
        for q in self.queues.values_mut() {
            q.retain(|(t, _)| *t != ts);
        }
    }

    fn release_lock(&mut self, ts: Ts, item: ItemId, ctx: &mut Context<'_, TradMsg>) {
        if self.locks.get(&item) == Some(&ts) {
            self.locks.remove(&item);
            // FIFO handoff.
            if let Some((next_ts, next_from)) =
                self.queues.get_mut(&item).and_then(|q| q.pop_front())
            {
                self.locks.insert(item, next_ts);
                self.track_part(next_ts, next_from, item, ctx);
                self.grant(next_from, next_ts, item);
            }
        }
    }

    fn on_query(&mut self, from: NodeId, ts: Ts) {
        match self.decisions.get(&ts) {
            Some(&commit) => {
                self.send(from, TradBody::Decision { txn: ts, commit });
            }
            None => {
                if self.coord.contains_key(&ts) {
                    // Still deciding: stay silent; the querier will retry.
                } else {
                    // Presumed abort: no record, not active ⇒ abort.
                    self.send(
                        from,
                        TradBody::Decision {
                            txn: ts,
                            commit: false,
                        },
                    );
                }
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
            } => self.on_lock_grant(from, txn, item, value, version, ctx),
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
        self.flush_log();
        self.flush_wire(ctx);
    }

    fn on_external(&mut self, tag: u64, ctx: &mut Context<'_, TradMsg>) {
        if let Some(spec) = self.script.get(tag as usize).cloned() {
            self.begin_txn(spec, ctx);
        }
        self.flush_log();
        self.flush_wire(ctx);
    }

    fn on_timer(&mut self, _id: TimerId, tag: u64, ctx: &mut Context<'_, TradMsg>) {
        let kind = tag >> TAG_KIND_SHIFT << TAG_KIND_SHIFT;
        let ts = Ts(tag & TAG_PAYLOAD_MASK);
        match kind {
            TAG_COORD_TIMEOUT => {
                match self.coord.get(&ts).map(|c| c.phase.clone()) {
                    Some(CoordPhase::Locking) | Some(CoordPhase::Voting) => {
                        self.coordinator_abort(ts, TradAbort::Timeout, ctx);
                    }
                    Some(CoordPhase::PreCommitting) => {
                        // 3PC: every writer voted YES and saw (or will
                        // learn of) the pre-commit; commit proceeds even
                        // with pre-acks missing.
                        self.decide_commit(ts, ctx);
                    }
                    _ => {}
                }
            }
            TAG_PART_UNPREPARED => {
                let unprepared = self
                    .part
                    .get(&ts)
                    .is_some_and(|p| p.prepared_writes.is_none());
                if unprepared {
                    self.on_release(ts, ctx);
                }
            }
            TAG_DECISION_RETRY => {
                let action = self.coord.get(&ts).map(|c| {
                    (
                        c.phase.clone(),
                        c.acks_pending.iter().copied().collect::<Vec<NodeId>>(),
                    )
                });
                match action {
                    Some((CoordPhase::Deciding { commit }, pending)) => {
                        for site in pending {
                            self.send(site, TradBody::Decision { txn: ts, commit });
                        }
                        ctx.set_timer(RETRY_EVERY, TAG_DECISION_RETRY | ts.0);
                    }
                    Some((CoordPhase::PreCommitting, pending)) => {
                        for site in pending {
                            self.send(site, TradBody::PreCommit { txn: ts });
                        }
                        ctx.set_timer(RETRY_EVERY, TAG_DECISION_RETRY | ts.0);
                    }
                    _ => {}
                }
            }
            TAG_QUERY_RETRY => {
                let info = self.part.get_mut(&ts).and_then(|p| {
                    if p.prepared_writes.is_some() {
                        p.term_attempts += 1;
                        Some((
                            p.coordinator,
                            p.peers.clone(),
                            p.precommitted,
                            p.term_attempts,
                        ))
                    } else {
                        None
                    }
                });
                if let Some((coordinator, peers, precommitted, attempts)) = info {
                    self.send(coordinator, TradBody::DecisionQuery { txn: ts });
                    match self.cfg.protocol {
                        CommitProtocol::TwoPhase => {
                            // 2PC: nothing else is safe — keep asking
                            // (this is the blocking).
                            ctx.set_timer(RETRY_EVERY.saturating_mul(2), TAG_QUERY_RETRY | ts.0);
                        }
                        CommitProtocol::ThreePhase => {
                            if attempts >= 4 {
                                // Termination rule: pre-committed sites
                                // commit, uncertain sites abort. Safe for
                                // crashes; *divergent* under partitions —
                                // the Section 2 impossibility made flesh.
                                self.resolve_locally(ts, precommitted, ctx);
                            } else {
                                for peer in peers {
                                    self.send(peer, TradBody::StateQuery { txn: ts });
                                }
                                ctx.set_timer(
                                    RETRY_EVERY.saturating_mul(2),
                                    TAG_QUERY_RETRY | ts.0,
                                );
                            }
                        }
                    }
                }
            }
            _ => debug_assert!(false, "unknown timer tag"),
        }
        self.flush_log();
        self.flush_wire(ctx);
    }

    fn on_crash(&mut self) {
        self.log.crash();
        self.wire_buf.clear();
        for (_, _c) in std::mem::take(&mut self.coord) {
            *self.metrics.aborted.entry(TradAbort::Crashed).or_insert(0) += 1;
        }
        self.part.clear();
        self.decisions.clear();
        self.locks.clear();
        self.queues.clear();
        self.values.iter_mut().for_each(|v| *v = 0);
        self.versions.iter_mut().for_each(|v| *v = 0);
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
                TradRecord::Init { item, value } => {
                    self.values[item.0 as usize] = value;
                    self.versions[item.0 as usize] = 0;
                }
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
        for (txn, commit) in &resolved {
            if *commit {
                if let Some((_, writes)) = prepared.get(txn) {
                    for &(item, value, version) in writes {
                        if version >= self.versions[item.0 as usize] {
                            self.values[item.0 as usize] = value;
                            self.versions[item.0 as usize] = version;
                        }
                    }
                }
            }
        }
        // Re-enter in-doubt for prepared-but-unresolved transactions: the
        // dependent part of traditional recovery. Locks are re-taken and
        // the coordinator must be asked.
        let mut blocked = false;
        for (txn, (coordinator, writes)) in prepared {
            if resolved.contains_key(&txn) {
                continue;
            }
            blocked = true;
            let items: BTreeSet<ItemId> = writes.iter().map(|(i, _, _)| *i).collect();
            for &item in &items {
                self.locks.insert(item, txn);
            }
            self.part.insert(
                txn,
                PartTxn {
                    coordinator: coordinator as usize,
                    items,
                    prepared_writes: Some(writes),
                    in_doubt_since: Some(ctx.now()),
                    precommitted: false, // not logged: recovers as uncertain
                    peers: Vec::new(),
                    term_attempts: 0,
                },
            );
            self.metrics.recovery_remote_messages += 1;
            self.send(coordinator as usize, TradBody::DecisionQuery { txn });
            ctx.set_timer(RETRY_EVERY.saturating_mul(2), TAG_QUERY_RETRY | txn.0);
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
        self.flush_log();
        self.flush_wire(ctx);
    }
}

// ---------------------------------------------------------------------------
// Cluster builder
// ---------------------------------------------------------------------------

/// Configuration of a traditional cluster (mirrors `dvp_core::ClusterConfig`).
#[derive(Clone, Debug)]
pub struct TradClusterConfig {
    /// Number of sites.
    pub n_sites: usize,
    /// Items (initial totals; every site replicates every item).
    pub catalog: Catalog,
    /// Engine configuration.
    pub trad: TradConfig,
    /// Network model.
    pub net: NetworkConfig,
    /// Crash/recovery schedule (pairs of `(when, site)`).
    pub crashes: Vec<(SimTime, NodeId)>,
    /// Recovery schedule.
    pub recoveries: Vec<(SimTime, NodeId)>,
    /// Per-site workload scripts.
    pub scripts: Vec<Vec<(SimTime, TxnSpec)>>,
    /// RNG seed.
    pub seed: u64,
    /// Structured trace handle shared by the kernel and every site.
    pub obs: Obs,
}

impl TradClusterConfig {
    /// A minimal config.
    pub fn new(n: usize, catalog: Catalog) -> Self {
        TradClusterConfig {
            n_sites: n,
            catalog,
            trad: TradConfig::default(),
            net: NetworkConfig::reliable(),
            crashes: Vec::new(),
            recoveries: Vec::new(),
            scripts: vec![Vec::new(); n],
            seed: 0,
            obs: Obs::disabled(),
        }
    }

    /// Append a transaction arrival.
    pub fn at(mut self, site: NodeId, when: SimTime, spec: TxnSpec) -> Self {
        self.scripts[site].push((when, spec));
        self
    }
}

/// A built traditional cluster.
pub struct TradCluster {
    /// The simulation.
    pub sim: Simulation<TradNode>,
    /// The catalog.
    pub catalog: Catalog,
}

impl TradCluster {
    /// Instantiate the simulation.
    pub fn build(cfg: TradClusterConfig) -> TradCluster {
        let n = cfg.n_sites;
        assert!(n > 0);
        assert_eq!(cfg.scripts.len(), n);
        let totals: Vec<u64> = cfg.catalog.items().iter().map(|d| d.total).collect();
        let nodes: Vec<TradNode> = (0..n)
            .map(|s| {
                let script: Vec<TxnSpec> = cfg.scripts[s]
                    .iter()
                    .map(|(_, spec)| spec.clone())
                    .collect();
                let mut node = TradNode::new(s, n, cfg.trad, totals.clone(), script);
                node.set_obs(cfg.obs.clone());
                node
            })
            .collect();
        let mut sim = Simulation::new(nodes, cfg.net, cfg.seed);
        sim.set_obs(cfg.obs);
        for (s, script) in cfg.scripts.iter().enumerate() {
            for (idx, (when, _)) in script.iter().enumerate() {
                sim.schedule_external(*when, s, idx as u64);
            }
        }
        for (when, site) in cfg.crashes {
            sim.schedule_crash(when, site);
        }
        for (when, site) in cfg.recoveries {
            sim.schedule_recover(when, site);
        }
        TradCluster {
            sim,
            catalog: cfg.catalog,
        }
    }

    /// Run until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Collect metrics.
    pub fn metrics(&self) -> TradClusterMetrics {
        TradClusterMetrics {
            sites: self.sim.nodes().iter().map(|s| s.metrics()).collect(),
        }
    }

    /// Cluster-wide stable-log counters (forces, appends, batch sizes) —
    /// the engine benchmarks report `forces / committed` from these.
    pub fn log_stats(&self) -> dvp_storage::LogStats {
        let mut total = dvp_storage::LogStats::default();
        for site in self.sim.nodes() {
            total.merge(&site.log().stats());
        }
        total
    }

    /// Did every site that acted on a transaction act on the **same**
    /// decision? Always true for 2PC (it blocks instead of guessing);
    /// 3PC's termination rule can diverge under partitions.
    pub fn check_decision_consistency(&self) -> Result<(), String> {
        let mut seen: BTreeMap<Ts, (bool, usize)> = BTreeMap::new();
        for (site, node) in self.sim.nodes().iter().enumerate() {
            for (&txn, &commit) in node.resolutions() {
                match seen.get(&txn) {
                    None => {
                        seen.insert(txn, (commit, site));
                    }
                    Some(&(prev, prev_site)) if prev != commit => {
                        return Err(format!(
                            "txn {txn:?} diverged: site {prev_site} resolved {prev},                              site {site} resolved {commit}"
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }

    /// At healthy quiescence: the max-version replica value of each item
    /// must equal the initial total adjusted by all committed deltas.
    pub fn check_replica_convergence(&self) -> Result<(), String> {
        for def in self.catalog.items() {
            let best = (0..self.sim.nodes().len())
                .map(|s| self.sim.node(s).replica(def.id))
                .max_by_key(|&(_, version)| version)
                .unwrap();
            // Expected: initial + committed deltas. Committed deltas are not
            // journaled per item in the baseline; instead verify majority
            // agreement on the max version.
            let n = self.sim.nodes().len();
            let agree = (0..n)
                .filter(|&s| self.sim.node(s).replica(def.id) == best)
                .count();
            if agree < n / 2 + 1 && best.1 > 0 {
                return Err(format!(
                    "item {:?}: only {agree}/{n} replicas hold the latest version {}",
                    def.id, best.1
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_core::item::Split;
    use dvp_simnet::network::LinkConfig;
    use dvp_simnet::partition::PartitionSchedule;

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::millis(n)
    }

    fn catalog(total: u64) -> (Catalog, ItemId) {
        let mut c = Catalog::new();
        let id = c.add("flight-A", total, Split::Even);
        (c, id)
    }

    #[test]
    fn healthy_reservation_commits_via_quorum() {
        let (cat, flight) = catalog(100);
        let cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
        let mut cl = TradCluster::build(cfg);
        cl.sim.run_to_quiescence();
        let m = cl.metrics();
        assert_eq!(m.committed(), 1);
        assert_eq!(m.aborted(), 0);
        assert_eq!(m.still_blocked(), 0);
        cl.check_replica_convergence().unwrap();
        // Majority of replicas saw the write.
        let updated = (0..4)
            .filter(|&s| cl.sim.node(s).replica(flight).0 == 90)
            .count();
        assert!(updated >= 3);
    }

    #[test]
    fn insufficient_value_aborts() {
        let (cat, flight) = catalog(100);
        let cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 150));
        let mut cl = TradCluster::build(cfg);
        cl.sim.run_to_quiescence();
        let m = cl.metrics();
        assert_eq!(m.committed(), 0);
        assert_eq!(m.aborted(), 1);
    }

    #[test]
    fn read_sees_committed_value() {
        let (cat, flight) = catalog(100);
        let cfg = TradClusterConfig::new(4, cat)
            .at(0, ms(1), TxnSpec::reserve(flight, 10))
            .at(1, ms(100), TxnSpec::read(flight));
        let mut cl = TradCluster::build(cfg);
        cl.sim.run_to_quiescence();
        assert_eq!(cl.metrics().committed(), 2);
        cl.check_replica_convergence().unwrap();
    }

    #[test]
    fn minority_partition_cannot_commit() {
        // Site 3 is isolated: it cannot assemble a majority quorum, so its
        // transaction aborts — while DvP would have served it from the
        // local quota (see dvp-core's partitioned_minority test).
        let (cat, flight) = catalog(100);
        let sched = PartitionSchedule::fully_connected(4).isolate_at(SimTime::ZERO, &[3]);
        let mut cfg = TradClusterConfig::new(4, cat).at(3, ms(1), TxnSpec::reserve(flight, 5));
        cfg.net = NetworkConfig::reliable().with_partitions(sched);
        let mut cl = TradCluster::build(cfg);
        cl.run_until(ms(2_000));
        let m = cl.metrics();
        assert_eq!(m.committed(), 0);
        assert!(m.aborted_total_is(1));
    }

    #[test]
    fn partition_after_prepare_blocks_participant() {
        // Fixed 2ms delays make the 2PC timeline deterministic:
        //   t=1ms  txn starts at site 0 (quorum {0,1,2})
        //   t≈3ms  LockReq arrives; t≈5ms grants back; t≈5ms Prepare out
        //   t≈7ms  participants force Prepared and vote YES  -> in doubt
        //   t≈9ms  coordinator would receive votes and decide
        // Partition at t=8ms cuts site 1 and 2 from the coordinator: they
        // are prepared, in doubt, and must hold their locks until the
        // partition heals at t=500ms. That window is the blocking DvP
        // avoids by construction.
        let (cat, flight) = catalog(100);
        let sched = PartitionSchedule::fully_connected(4)
            .split_at(ms(8), &[&[0, 3], &[1, 2]])
            .heal_at(ms(500));
        let mut cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
        cfg.net = NetworkConfig {
            default_link: LinkConfig::reliable_fixed(SimDuration::millis(2)),
            ..Default::default()
        }
        .with_partitions(sched);
        let mut cl = TradCluster::build(cfg);

        // Mid-partition: participants are blocked in doubt.
        cl.run_until(ms(400));
        let blocked_now: usize = (0..4).map(|s| cl.sim.node(s).in_doubt_count()).sum();
        assert!(blocked_now >= 1, "someone must be blocked in doubt");
        let m = cl.metrics();
        assert!(
            m.max_blocking_us(cl.sim.now()) >= 300_000,
            "blocking window spans the partition"
        );

        // After healing, the retried decision resolves everyone.
        cl.run_until(ms(2_000));
        let blocked_after: usize = (0..4).map(|s| cl.sim.node(s).in_doubt_count()).sum();
        assert_eq!(blocked_after, 0, "healing resolves the in-doubt state");
    }

    #[test]
    fn coordinator_crash_before_decision_resolves_to_abort() {
        // Coordinator crashes at t=8ms: after prepares went out, before a
        // decision was logged. Participants block, query, and — once the
        // coordinator recovers — presumed-abort resolves them.
        let (cat, flight) = catalog(100);
        let mut cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
        cfg.net = NetworkConfig {
            default_link: LinkConfig::reliable_fixed(SimDuration::millis(2)),
            ..Default::default()
        };
        cfg.crashes.push((ms(8), 0));
        cfg.recoveries.push((ms(300), 0));
        let mut cl = TradCluster::build(cfg);
        cl.run_until(ms(2_000));
        let m = cl.metrics();
        assert_eq!(m.committed(), 0);
        let blocked: usize = (0..4).map(|s| cl.sim.node(s).in_doubt_count()).sum();
        assert_eq!(blocked, 0, "presumed abort resolves after recovery");
        // All replicas untouched.
        for s in 0..4 {
            assert_eq!(cl.sim.node(s).replica(flight).0, 100);
        }
    }

    #[test]
    fn participant_recovery_requires_remote_messages() {
        // Participant 1 crashes while in doubt; on recovery it must query
        // the coordinator — recovery_remote_messages > 0 (contrast with
        // DvP's zero).
        let (cat, flight) = catalog(100);
        let mut cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
        cfg.net = NetworkConfig {
            default_link: LinkConfig::reliable_fixed(SimDuration::millis(2)),
            ..Default::default()
        };
        // Crash in the in-doubt window (prepared ≈7ms, decision ≈11ms).
        cfg.crashes.push((ms(8), 1));
        cfg.recoveries.push((ms(200), 1));
        let mut cl = TradCluster::build(cfg);
        cl.run_until(ms(2_000));
        let m = cl.metrics();
        assert!(
            m.recovery_remote_messages() >= 1,
            "traditional recovery is dependent"
        );
        let blocked: usize = (0..4).map(|s| cl.sim.node(s).in_doubt_count()).sum();
        assert_eq!(blocked, 0);
    }

    #[test]
    fn threepc_healthy_commit_works() {
        let (cat, flight) = catalog(100);
        let mut cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
        cfg.trad.protocol = CommitProtocol::ThreePhase;
        let mut cl = TradCluster::build(cfg);
        cl.sim.run_to_quiescence();
        let m = cl.metrics();
        assert_eq!(m.committed(), 1);
        assert_eq!(m.still_blocked(), 0);
        cl.check_decision_consistency().unwrap();
        cl.check_replica_convergence().unwrap();
    }

    #[test]
    fn threepc_is_nonblocking_under_coordinator_crash() {
        // The same coordinator-crash scenario that blocks 2PC for the
        // whole outage: 3PC participants terminate via the cooperative
        // protocol in bounded time, consistently (all abort — no
        // pre-commit was sent).
        let (cat, flight) = catalog(100);
        let mut cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
        cfg.trad.protocol = CommitProtocol::ThreePhase;
        cfg.net = NetworkConfig {
            default_link: LinkConfig::reliable_fixed(SimDuration::millis(2)),
            ..Default::default()
        };
        cfg.crashes.push((ms(8), 0)); // after prepares, before pre-commit
        cfg.recoveries.push((ms(5_000), 0)); // very late
        let mut cl = TradCluster::build(cfg);
        cl.run_until(ms(1_000)); // well before the coordinator returns
        let blocked: usize = (0..4).map(|s| cl.sim.node(s).in_doubt_count()).sum();
        assert_eq!(blocked, 0, "3PC terminates without the coordinator");
        let m = cl.metrics();
        assert!(
            m.max_blocking_us(cl.sim.now()) < 1_000_000,
            "in-doubt window bounded by the termination protocol"
        );
        cl.check_decision_consistency().unwrap();
        // Everyone aborted; replicas untouched.
        for s in 1..4 {
            assert_eq!(cl.sim.node(s).replica(flight).0, 100);
        }
    }

    #[test]
    fn threepc_diverges_under_partition() {
        // Partition between the pre-commit reaching writer 1 and writer 2:
        //   t=9  votes arrive; pre-commits sent
        //   t=10 partition {0,1} | {2,3}
        //   t=11 pre-commit reaches writer 1; writer 2's copy is cut
        // Coordinator side commits (pre-commit round + timeout rule);
        // writer 2, cut off and uncertain, terminates with abort. The two
        // sides of the partition decide DIFFERENTLY — the Section 2
        // impossibility, demonstrated.
        let (cat, flight) = catalog(100);
        let sched = PartitionSchedule::fully_connected(4)
            .split_at(ms(10), &[&[0, 1], &[2, 3]])
            .heal_at(ms(10_000)); // long partition
        let mut cfg = TradClusterConfig::new(4, cat).at(0, ms(1), TxnSpec::reserve(flight, 10));
        cfg.trad.protocol = CommitProtocol::ThreePhase;
        cfg.net = NetworkConfig {
            default_link: LinkConfig::reliable_fixed(SimDuration::millis(2)),
            ..Default::default()
        }
        .with_partitions(sched);
        let mut cl = TradCluster::build(cfg);
        cl.run_until(ms(2_000)); // both sides have terminated by now
        let blocked: usize = (0..4).map(|s| cl.sim.node(s).in_doubt_count()).sum();
        assert_eq!(blocked, 0, "3PC never blocks — that is its problem");
        let err = cl
            .check_decision_consistency()
            .expect_err("3PC must diverge in this scenario");
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn primary_copy_routes_through_primary() {
        let (cat, flight) = catalog(100);
        let mut cfg = TradClusterConfig::new(4, cat).at(1, ms(1), TxnSpec::reserve(flight, 10));
        cfg.trad.placement = Placement::PrimaryCopy;
        let mut cl = TradCluster::build(cfg);
        cl.sim.run_to_quiescence();
        let m = cl.metrics();
        assert_eq!(m.committed(), 1);
        // Only the primary (item 0 -> site 0) has the new value.
        assert_eq!(cl.sim.node(0).replica(flight).0, 90);
        assert_eq!(cl.sim.node(2).replica(flight).0, 100);
    }

    #[test]
    fn primary_copy_unavailable_when_primary_isolated() {
        let (cat, flight) = catalog(100);
        let sched = PartitionSchedule::fully_connected(4).isolate_at(SimTime::ZERO, &[0]);
        let mut cfg = TradClusterConfig::new(4, cat).at(1, ms(1), TxnSpec::reserve(flight, 10));
        cfg.trad.placement = Placement::PrimaryCopy;
        cfg.net = NetworkConfig::reliable().with_partitions(sched);
        let mut cl = TradCluster::build(cfg);
        cl.run_until(ms(2_000));
        let m = cl.metrics();
        assert_eq!(m.committed(), 0);
        assert_eq!(m.aborted(), 1);
    }

    impl TradClusterMetrics {
        fn aborted_total_is(&self, n: u64) -> bool {
            self.aborted() == n
        }
    }
}
