//! The coordinator role: assemble the quorum's locks, compute the
//! writes, run the vote, force and announce the decision, and answer
//! decision queries (presumed abort).

use super::msg::{TradBody, TradMsg};
use super::{
    CommitProtocol, TradNode, RETRY_EVERY, TAG_COORD_TIMEOUT, TAG_DECISION_RETRY, TXN_TIMEOUT,
};
use crate::metrics::TradAbort;
use crate::placement::Sites;
use crate::record::{TradRecord, Writes};
use dvp_core::clock::Ts;
use dvp_core::ops::Op;
use dvp_core::txn::TxnSpec;
use dvp_core::{ItemId, SVec};
use dvp_obs::EventKind;
use dvp_simnet::node::{Context, TimerId};
use dvp_simnet::time::SimTime;
use dvp_simnet::NodeId;

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

/// One item a coordinator locks: its quorum, the quorum sites whose
/// grant is still awaited, and the best (highest-version) replica read
/// so far.
#[derive(Clone, Copy, Debug, Default)]
struct ItemLock {
    item: ItemId,
    quorum: Sites,
    awaiting: Sites,
    value: u64,
    version: u64,
}

/// One transaction this site coordinates. Volatile.
#[derive(Clone, Debug)]
pub(super) struct CoordTxn {
    spec: TxnSpec,
    started: SimTime,
    /// The lock/vote assembly timeout, cancelled once the decision is
    /// taken.
    timer: TimerId,
    /// The live re-announcement timer (3PC pre-commit, then decision),
    /// cancelled once every writer acked or the transaction aborted.
    retry: Option<TimerId>,
    phase: CoordPhase,
    /// Per accessed item, ascending.
    items: SVec<ItemLock, 2>,
    /// Participants that have not voted yet.
    votes_pending: Sites,
    /// Participants that have not acked the decision yet.
    acks_pending: Sites,
    /// All participants.
    participants: Sites,
    /// Participants that received writes (the 2PC voter set; the rest are
    /// released at prepare time — the read-only optimization).
    writers: Sites,
}

/// The values `spec`'s operations leave behind when applied to the quorum
/// reads, one per entry of `items`, or `None` if a decrement would take an
/// item below zero.
fn apply(spec: &TxnSpec, items: &[ItemLock]) -> Option<SVec<u64, 2>> {
    let mut current: SVec<u64, 2> = items.iter().map(|l| l.value).collect();
    for &(item, op) in &spec.ops {
        let k = items.iter().position(|l| l.item == item);
        let v = &mut current.as_mut_slice()[k.expect("value read during locking")];
        match op {
            Op::Incr(m) => *v += m,
            Op::Decr(m) => *v = v.checked_sub(m)?,
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
        let mut items: SVec<ItemLock, 2> = SVec::new();
        let mut participants = Sites::EMPTY;
        for &(item, _) in &spec.ops {
            if items.iter().all(|l| l.item != item) {
                let quorum = self.cfg.placement.quorum_mask(item, self.id, self.n);
                participants |= quorum;
                items.push(ItemLock {
                    item,
                    quorum,
                    awaiting: quorum,
                    ..ItemLock::default()
                });
            }
        }
        items.as_mut_slice().sort_unstable_by_key(|l| l.item);
        self.obs.emit_with(self.id as u32, || EventKind::TxnStart {
            txn: ts.0,
            ops: items.len() as u32,
        });
        for l in &items {
            for site in l.quorum.iter() {
                self.send(
                    site,
                    TradBody::LockReq {
                        txn: ts,
                        item: l.item,
                    },
                );
            }
        }
        self.coord.insert(
            ts,
            CoordTxn {
                spec,
                started: ctx.now(),
                timer,
                retry: None,
                phase: CoordPhase::Locking,
                items,
                votes_pending: Sites::EMPTY,
                acks_pending: Sites::EMPTY,
                participants,
                writers: Sites::EMPTY,
            },
        );
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
        if let Some(l) = c.items.as_mut_slice().iter_mut().find(|l| l.item == item) {
            l.awaiting.remove(from);
            // The first grant always lands: every version is >= 0.
            if version >= l.version {
                (l.value, l.version) = (value, version);
            }
        }
        if c.items.iter().all(|l| l.awaiting.is_empty()) {
            self.enter_prepare(ts, ctx);
        }
    }

    /// Every lock is held: compute the writes and open the vote (or, with
    /// nothing to write, finish on the spot).
    fn enter_prepare(&mut self, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        let c = self.coord.get_mut(&ts).expect("coord txn");
        let Some(current) = apply(&c.spec, &c.items) else {
            self.coordinator_abort(ts, TradAbort::Insufficient, ctx);
            return;
        };
        // An item whose value is unchanged is not a write; every site in
        // a changed item's quorum writes it.
        let items = c.items.clone();
        let changed = || {
            items
                .iter()
                .zip(current.iter())
                .filter(|&(l, &v)| l.value != v)
        };
        let writers = changed().fold(Sites::EMPTY, |w, (l, _)| w | l.quorum);
        let participants = c.participants;
        // Standard read-only optimization: a transaction with no writes
        // needs no atomic commit — release the read locks and finish.
        if writers.is_empty() {
            let c = self.coord.remove(&ts).expect("coord txn");
            ctx.cancel_timer(c.timer);
            for site in participants.iter() {
                self.send(site, TradBody::ReleaseLocks { txn: ts });
            }
            let commit = EventKind::TxnCommit {
                txn: ts.0,
                latency_us: ctx.now().since(c.started).as_micros(),
                fast_path: true,
            };
            self.obs.record(self.id as u32, commit, &mut self.metrics);
            return;
        }
        c.votes_pending = writers;
        c.writers = writers;
        c.phase = CoordPhase::Voting;
        self.audit.open(ts);
        // Pure readers are released now; writers enter the vote.
        for site in (participants - writers).iter() {
            self.send(site, TradBody::ReleaseLocks { txn: ts });
        }
        for site in writers.iter() {
            // Above the version read, not just the begin stamp: a
            // transaction that began later may have committed on this
            // item first, and a lower version would lose to it at install.
            let writes: Writes = changed()
                .filter(|(l, _)| l.quorum.contains(site))
                .map(|(l, &v)| (l.item, v, ts.counter().max(l.version + 1)))
                .collect();
            let peers = match self.cfg.protocol {
                CommitProtocol::TwoPhase => None,
                CommitProtocol::ThreePhase => Some(writers),
            };
            let body = TradBody::Prepare {
                txn: ts,
                writes,
                peers,
            };
            self.send(site, body);
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
        c.votes_pending.remove(from);
        if !c.votes_pending.is_empty() {
            return;
        }
        match self.cfg.protocol {
            CommitProtocol::TwoPhase => self.decide_commit(ts, ctx),
            CommitProtocol::ThreePhase => {
                // Phase 2a: disseminate the inevitable-commit state.
                c.phase = CoordPhase::PreCommitting;
                c.acks_pending = c.writers;
                c.retry = Some(ctx.set_timer(RETRY_EVERY, TAG_DECISION_RETRY | ts.0));
                for site in c.writers.iter() {
                    self.send(site, TradBody::PreCommit { txn: ts });
                }
            }
        }
    }

    /// Force the commit decision and announce it (with retries). Under
    /// 3PC the decision's retries replace the pre-commit's.
    fn decide_commit(&mut self, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        self.durable.append(TradRecord::Decision {
            txn: ts,
            commit: true,
        });
        self.decisions.insert(ts);
        let c = self.coord.get_mut(&ts).expect("coord txn");
        c.phase = CoordPhase::Deciding { commit: true };
        c.acks_pending = c.writers;
        ctx.cancel_timer(c.timer);
        if let Some(precommit_retry) = c.retry {
            ctx.cancel_timer(precommit_retry);
        }
        c.retry = Some(ctx.set_timer(RETRY_EVERY, TAG_DECISION_RETRY | ts.0));
        let current = apply(&c.spec, &c.items).expect("checked at prepare");
        let deltas = c.items.iter().zip(current);
        self.audit
            .committed(deltas.map(|(l, v)| (l.item, v as i64 - l.value as i64)));
        let (writers, started) = (c.writers, c.started);
        for site in writers.iter() {
            self.send(
                site,
                TradBody::Decision {
                    txn: ts,
                    commit: true,
                },
            );
        }
        // Commit is decided now; report it now.
        let commit = EventKind::TxnCommit {
            txn: ts.0,
            latency_us: ctx.now().since(started).as_micros(),
            fast_path: false,
        };
        self.obs.record(self.id as u32, commit, &mut self.metrics);
    }

    pub(super) fn on_preack(&mut self, from: NodeId, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        let precommitting = |c: &&mut CoordTxn| c.phase == CoordPhase::PreCommitting;
        let Some(c) = self.coord.get_mut(&ts).filter(precommitting) else {
            return;
        };
        c.acks_pending.remove(from);
        if c.acks_pending.is_empty() {
            self.decide_commit(ts, ctx);
        }
    }

    fn coordinator_abort(&mut self, ts: Ts, reason: TradAbort, ctx: &mut Context<'_, TradMsg>) {
        let Some(c) = self.coord.remove(&ts) else {
            return;
        };
        ctx.cancel_timer(c.timer);
        if let Some(retry) = c.retry {
            ctx.cancel_timer(retry);
        }
        self.audit.coordinator_done(ts);
        // Presumed abort: no forced decision record, and nothing owed.
        for site in c.participants.iter() {
            match c.phase {
                CoordPhase::Locking => {
                    self.send(site, TradBody::ReleaseLocks { txn: ts });
                }
                _ => {
                    self.send(
                        site,
                        TradBody::Decision {
                            txn: ts,
                            commit: false,
                        },
                    );
                }
            }
        }
        let abort = EventKind::TxnAbort {
            txn: ts.0,
            reason: reason.into(),
            latency_us: ctx.now().since(c.started).as_micros(),
        };
        self.obs.record(self.id as u32, abort, &mut self.metrics);
    }

    pub(super) fn on_decision_ack(&mut self, from: NodeId, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        let Some(c) = self.coord.get_mut(&ts) else {
            return;
        };
        c.acks_pending.remove(from);
        if c.acks_pending.is_empty() {
            // Every writer has resolved durably: nobody can ask again,
            // and nobody needs telling again.
            if let Some(retry) = c.retry {
                ctx.cancel_timer(retry);
            }
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
        let Some(c) = self.coord.get_mut(&ts) else {
            return;
        };
        let body = match c.phase {
            CoordPhase::Deciding { commit } => TradBody::Decision { txn: ts, commit },
            CoordPhase::PreCommitting => TradBody::PreCommit { txn: ts },
            _ => return,
        };
        c.retry = Some(ctx.set_timer(RETRY_EVERY, TAG_DECISION_RETRY | ts.0));
        for site in c.acks_pending.iter() {
            self.send(site, body.clone());
        }
    }
}
