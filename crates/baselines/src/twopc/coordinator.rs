//! The coordinator role: assemble the quorum's locks, compute the
//! writes, run the vote, force and announce the decision, and answer
//! decision queries (presumed abort).

use super::msg::{TradBody, TradMsg};
use super::{
    CommitProtocol, TradNode, RETRY_EVERY, TAG_COORD_TIMEOUT, TAG_DECISION_RETRY, TXN_TIMEOUT,
};
use crate::metrics::TradAbort;
use crate::record::{TradRecord, VersionedWrite};
use dvp_core::clock::Ts;
use dvp_core::ops::Op;
use dvp_core::txn::TxnSpec;
use dvp_core::ItemId;
use dvp_obs::EventKind;
use dvp_simnet::node::{Context, TimerId};
use dvp_simnet::time::SimTime;
use dvp_simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) enum CoordPhase {
    Locking,
    Voting,
    /// 3PC only: pre-commits sent, awaiting pre-acks.
    PreCommitting,
    /// Decision made; still pushing it to participants.
    Deciding {
        commit: bool,
    },
}

/// One transaction this site coordinates. Volatile.
#[derive(Clone, Debug)]
pub(super) struct CoordTxn {
    spec: TxnSpec,
    started: SimTime,
    timer: TimerId,
    phase: CoordPhase,
    /// Per item: quorum sites whose grant is still awaited.
    awaiting: BTreeMap<ItemId, BTreeSet<NodeId>>,
    /// Best (highest-version) value per item.
    values: BTreeMap<ItemId, (u64, u64)>,
    /// Participants that have not voted yet.
    votes_pending: BTreeSet<NodeId>,
    /// Participants that have not acked the decision yet.
    acks_pending: BTreeSet<NodeId>,
    /// All participants.
    participants: BTreeSet<NodeId>,
    /// Participants that received writes (the 2PC voter set; the rest are
    /// released at prepare time — the read-only optimization).
    writers: BTreeSet<NodeId>,
}

/// The values `spec`'s operations leave behind when applied to the quorum
/// reads, or `None` if a decrement would take an item below zero.
fn apply(spec: &TxnSpec, read: &BTreeMap<ItemId, (u64, u64)>) -> Option<BTreeMap<ItemId, u64>> {
    let mut current: BTreeMap<ItemId, u64> = read.iter().map(|(&i, &(v, _))| (i, v)).collect();
    for (item, op) in &spec.ops {
        let v = current.get_mut(item).expect("value read during locking");
        match op {
            Op::Incr(m) => *v += m,
            Op::Decr(m) => *v = v.checked_sub(*m)?,
            Op::Read => {}
        }
    }
    Some(current)
}

impl CoordTxn {
    /// Has the outcome been decided (and counted)?
    pub(super) fn decided(&self) -> bool {
        matches!(self.phase, CoordPhase::Deciding { .. })
    }
}

impl TradNode {
    pub(super) fn begin_txn(&mut self, spec: TxnSpec, ctx: &mut Context<'_, TradMsg>) {
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
                votes_pending: BTreeSet::new(),
                acks_pending: BTreeSet::new(),
                participants,
                writers: BTreeSet::new(),
            },
        );
        for (item, sites) in awaiting {
            for site in sites {
                self.send(site, TradBody::LockReq { txn: ts, item });
            }
        }
    }

    pub(super) fn on_lock_grant(
        &mut self,
        from: NodeId,
        ts: Ts,
        item: ItemId,
        (value, version): (u64, u64),
        ctx: &mut Context<'_, TradMsg>,
    ) {
        let Some(c) = self
            .coord
            .get_mut(&ts)
            .filter(|c| c.phase == CoordPhase::Locking)
        else {
            return; // late/stale grant
        };
        if let Some(waiting) = c.awaiting.get_mut(&item) {
            waiting.remove(&from);
        }
        let best = c.values.entry(item).or_insert((value, version));
        if version >= best.1 {
            *best = (value, version);
        }
        if c.awaiting.values().all(|s| s.is_empty()) {
            self.enter_prepare(ts, ctx);
        }
    }

    /// Every lock is held: compute the writes and open the vote (or, with
    /// nothing to write, finish on the spot).
    fn enter_prepare(&mut self, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        let c = self.coord.get_mut(&ts).expect("coord txn");
        let Some(current) = apply(&c.spec, &c.values) else {
            self.coordinator_abort(ts, TradAbort::Insufficient, ctx);
            return;
        };
        let mut part_writes: BTreeMap<NodeId, Vec<VersionedWrite>> = BTreeMap::new();
        for (&item, &new_value) in &current {
            let (read_value, read_version) = c.values[&item];
            if read_value == new_value {
                continue; // unchanged: not a write
            }
            // Above the version read, not just the begin stamp: a
            // transaction that began later may have committed on this
            // item first, and a lower version would lose to it at install.
            let new_version = ts.counter().max(read_version + 1);
            for site in self.cfg.placement.quorum(item, self.id, self.n) {
                part_writes
                    .entry(site)
                    .or_default()
                    .push((item, new_value, new_version));
            }
        }
        let participants = c.participants.clone();
        // Standard read-only optimization: a transaction with no writes
        // needs no atomic commit — release the read locks and finish.
        if part_writes.is_empty() {
            let c = self.coord.remove(&ts).expect("coord txn");
            ctx.cancel_timer(c.timer);
            for site in participants {
                self.send(site, TradBody::ReleaseLocks { txn: ts });
            }
            let latency = ctx.now().since(c.started).as_micros();
            self.metrics.record_commit(latency);
            self.obs.emit_with(self.id as u32, || EventKind::TxnCommit {
                txn: ts.0,
                latency_us: latency,
                fast_path: true,
            });
            return;
        }
        c.votes_pending = part_writes.keys().copied().collect();
        c.writers = c.votes_pending.clone();
        c.phase = CoordPhase::Voting;
        self.audit.open(ts);
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

    pub(super) fn on_vote(
        &mut self,
        from: NodeId,
        ts: Ts,
        yes: bool,
        ctx: &mut Context<'_, TradMsg>,
    ) {
        // Only a vote still awaited counts. A NO can arrive late: a
        // duplicated `Prepare` that reaches a writer after it resolved is
        // answered NO, and it must not undo a decision already taken.
        let Some(c) = self
            .coord
            .get_mut(&ts)
            .filter(|c| c.phase == CoordPhase::Voting)
        else {
            return;
        };
        if !yes {
            self.coordinator_abort(ts, TradAbort::VoteNo, ctx);
            return;
        }
        c.votes_pending.remove(&from);
        if !c.votes_pending.is_empty() {
            return;
        }
        match self.cfg.protocol {
            CommitProtocol::TwoPhase => self.decide_commit(ts, ctx),
            CommitProtocol::ThreePhase => {
                // Phase 2a: disseminate the inevitable-commit state.
                c.phase = CoordPhase::PreCommitting;
                c.acks_pending = c.writers.clone();
                for site in c.writers.clone() {
                    self.send(site, TradBody::PreCommit { txn: ts });
                }
                ctx.set_timer(RETRY_EVERY, TAG_DECISION_RETRY | ts.0);
            }
        }
    }

    /// Force the commit decision and announce it (with retries).
    fn decide_commit(&mut self, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        self.durable.append(TradRecord::Decision {
            txn: ts,
            commit: true,
        });
        self.decisions.insert(ts);
        let (writers, started) = {
            let c = self.coord.get_mut(&ts).expect("coord txn");
            c.phase = CoordPhase::Deciding { commit: true };
            c.acks_pending = c.writers.clone();
            ctx.cancel_timer(c.timer);
            let current = apply(&c.spec, &c.values).expect("checked at prepare");
            self.audit.committed(
                current
                    .into_iter()
                    .map(|(item, v)| (item, v as i64 - c.values[&item].0 as i64)),
            );
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
    }

    pub(super) fn on_preack(&mut self, from: NodeId, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        let precommitting = |c: &&mut CoordTxn| c.phase == CoordPhase::PreCommitting;
        let Some(c) = self.coord.get_mut(&ts).filter(precommitting) else {
            return;
        };
        c.acks_pending.remove(&from);
        if c.acks_pending.is_empty() {
            self.decide_commit(ts, ctx);
        }
    }

    fn coordinator_abort(&mut self, ts: Ts, reason: TradAbort, ctx: &mut Context<'_, TradMsg>) {
        let Some(c) = self.coord.remove(&ts) else {
            return;
        };
        ctx.cancel_timer(c.timer);
        self.audit.coordinator_done(ts);
        // Presumed abort: no forced decision record, and nothing owed.
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

    pub(super) fn on_decision_ack(&mut self, from: NodeId, ts: Ts) {
        let Some(c) = self.coord.get_mut(&ts) else {
            return;
        };
        c.acks_pending.remove(&from);
        if c.acks_pending.is_empty() {
            // Every writer has resolved durably: nobody can ask again.
            self.coord.remove(&ts);
            self.decisions.remove(&ts);
            self.audit.coordinator_done(ts);
        }
    }

    pub(super) fn on_query(&mut self, from: NodeId, ts: Ts) {
        let commit = self.decisions.contains(&ts);
        if !commit && self.coord.contains_key(&ts) {
            // Still deciding: stay silent; the querier will retry.
            return;
        }
        // An owed commit, or presumed abort: not owed, not active ⇒ abort.
        self.send(from, TradBody::Decision { txn: ts, commit });
    }

    /// The lock/vote assembly timer fired.
    pub(super) fn on_coord_timeout(&mut self, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        match self.coord.get(&ts).map(|c| c.phase.clone()) {
            Some(CoordPhase::Locking) | Some(CoordPhase::Voting) => {
                self.coordinator_abort(ts, TradAbort::Timeout, ctx);
            }
            Some(CoordPhase::PreCommitting) => {
                // 3PC: every writer voted YES and saw (or will learn of)
                // the pre-commit; commit proceeds even with pre-acks
                // missing.
                self.decide_commit(ts, ctx);
            }
            _ => {}
        }
    }

    /// Re-announce a decision (or 3PC pre-commit) to whoever has not
    /// acked it yet, and keep the retry timer running.
    pub(super) fn on_decision_retry(&mut self, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        let Some(c) = self.coord.get(&ts) else {
            return;
        };
        let body = match c.phase {
            CoordPhase::Deciding { commit } => TradBody::Decision { txn: ts, commit },
            CoordPhase::PreCommitting => TradBody::PreCommit { txn: ts },
            _ => return,
        };
        for site in c.acks_pending.iter().copied().collect::<Vec<NodeId>>() {
            self.send(site, body.clone());
        }
        ctx.set_timer(RETRY_EVERY, TAG_DECISION_RETRY | ts.0);
    }
}
