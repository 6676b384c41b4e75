//! The participant role: grant locks, force `Prepared` and vote, then
//! sit in doubt until an outcome arrives — from the coordinator, from a
//! query, or (3PC) from the termination protocol.

use super::locks::Request;
use super::msg::{TradBody, TradMsg};
use super::{
    CommitProtocol, TradNode, RETRY_EVERY, TAG_PART_UNPREPARED, TAG_QUERY_RETRY, UNPREPARED_TIMEOUT,
};
use crate::placement::Sites;
use crate::record::{TradRecord, Writes};
use dvp_core::clock::Ts;
use dvp_core::{ItemId, SVec};
use dvp_simnet::node::{Context, TimerId};
use dvp_simnet::time::SimTime;
use dvp_simnet::NodeId;
use std::collections::btree_map::Entry;

/// One transaction this site holds locks for. Volatile; a prepared one
/// is rebuilt from its `Prepared` record at recovery.
#[derive(Clone, Debug)]
pub(super) struct PartTxn {
    pub(super) coordinator: NodeId,
    /// The items it holds locks on, ascending.
    items: SVec<ItemId, 2>,
    /// `Some` from the YES vote on: the transaction is in doubt.
    pub(super) prepared_writes: Option<Writes>,
    pub(super) in_doubt_since: Option<SimTime>,
    /// 3PC: pre-commit received (commit is inevitable barring total loss).
    pub(super) precommitted: bool,
    /// 3PC: fellow writers (for cooperative termination); empty under
    /// 2PC.
    pub(super) peers: Sites,
    /// Termination-protocol rounds attempted while in doubt.
    pub(super) term_attempts: u32,
    /// Its one live timer: the unprepared timeout until the YES vote,
    /// the in-doubt query retry from then on. Cancelled when the
    /// transaction ends here, so no timer outlives what it guards.
    pub(super) timer: TimerId,
}

impl PartTxn {
    fn new(coordinator: NodeId, timer: TimerId) -> Self {
        PartTxn {
            coordinator,
            items: SVec::new(),
            prepared_writes: None,
            in_doubt_since: None,
            precommitted: false,
            peers: Sites::EMPTY,
            term_attempts: 0,
            timer,
        }
    }

    /// Note that it holds `item`'s lock.
    fn hold(&mut self, item: ItemId) {
        if !self.items.contains(&item) {
            self.items.push(item);
            self.items.as_mut_slice().sort_unstable();
        }
    }
}

impl TradNode {
    pub(super) fn on_lock_req(
        &mut self,
        from: NodeId,
        ts: Ts,
        item: ItemId,
        ctx: &mut Context<'_, TradMsg>,
    ) {
        match self.locks.request(item, ts, from) {
            Request::Queued => {}
            // A duplicate request is re-granted idempotently.
            Request::Held => self.grant(from, ts, item),
            Request::Granted => {
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
        let p = match self.part.entry(ts) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let timer = ctx.set_timer(UNPREPARED_TIMEOUT, TAG_PART_UNPREPARED | ts.0);
                e.insert(PartTxn::new(coordinator, timer))
            }
        };
        p.hold(item);
    }

    fn grant(&mut self, to: NodeId, ts: Ts, item: ItemId) {
        let (value, version) = self.replica.get(item);
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

    pub(super) fn on_prepare(
        &mut self,
        from: NodeId,
        ts: Ts,
        writes: Writes,
        peers: Option<Sites>,
        ctx: &mut Context<'_, TradMsg>,
    ) {
        let holds_all = self
            .part
            .get(&ts)
            .map(|p| writes.iter().all(|(i, _, _)| p.items.contains(i)))
            .unwrap_or(false);
        // A legitimate `Prepare` writes versions above the ones this site
        // granted under the transaction's lock. One that does not is a
        // duplicate of a transaction whose commit this replica already
        // installed, its lock re-granted by a duplicated `LockReq`.
        let stale = writes
            .iter()
            .any(|&(item, _, version)| version <= self.replica.get(item).1);
        if !holds_all || stale {
            // We released (unprepared timeout), never knew it, or
            // installed it already: vote NO.
            self.send(
                from,
                TradBody::Vote {
                    txn: ts,
                    yes: false,
                },
            );
            return;
        }
        self.durable.append(TradRecord::Prepared {
            txn: ts,
            coordinator: from as u64,
            writes: writes.clone(),
        });
        {
            let p = self.part.get_mut(&ts).expect("checked above");
            if p.prepared_writes.is_none() {
                self.audit.prepared(ts);
            }
            p.prepared_writes = Some(writes);
            p.in_doubt_since = Some(ctx.now());
            p.peers = peers.unwrap_or(Sites::EMPTY) - Sites::one(self.id);
            // The unprepared timeout gives way to the query retry: start
            // querying if the decision does not arrive.
            ctx.cancel_timer(p.timer);
            p.timer = ctx.set_timer(RETRY_EVERY.saturating_mul(2), TAG_QUERY_RETRY | ts.0);
        }
        self.send(from, TradBody::Vote { txn: ts, yes: true });
    }

    /// 3PC: the pre-commit round.
    pub(super) fn on_precommit(&mut self, from: NodeId, ts: Ts) {
        if let Some(p) = self.part.get_mut(&ts) {
            if p.prepared_writes.is_some() {
                p.precommitted = true;
            }
        }
        // Ack regardless: if we already resolved, the coordinator should
        // stop waiting on us.
        self.send(from, TradBody::PreAck { txn: ts });
    }

    pub(super) fn on_decision(
        &mut self,
        from: NodeId,
        ts: Ts,
        commit: bool,
        ctx: &mut Context<'_, TradMsg>,
    ) {
        let Some(p) = self.part.remove(&ts) else {
            // Already resolved: just (re-)ack so the coordinator stops.
            self.send(from, TradBody::DecisionAck { txn: ts });
            return;
        };
        let coordinator = p.coordinator;
        self.resolve(ts, p, commit, ctx);
        self.send(coordinator, TradBody::DecisionAck { txn: ts });
    }

    /// The one way a participant transaction ends once its outcome is
    /// known: stop its timer, install on commit, log `Resolved`, close
    /// the in-doubt window, hand the locks on.
    pub(super) fn resolve(
        &mut self,
        ts: Ts,
        p: PartTxn,
        commit: bool,
        ctx: &mut Context<'_, TradMsg>,
    ) {
        ctx.cancel_timer(p.timer);
        if let (true, Some(writes)) = (commit, &p.prepared_writes) {
            self.replica.install(writes);
        }
        self.durable
            .append(TradRecord::Resolved { txn: ts, commit });
        if p.prepared_writes.is_some() {
            self.audit.resolved(ts, self.id, commit);
            if commit && self.cfg.protocol == CommitProtocol::ThreePhase {
                self.commits.insert(ts);
            }
        }
        if let Some(since) = p.in_doubt_since {
            self.metrics
                .in_doubt
                .record(ctx.now().since(since).as_micros());
        }
        for item in p.items {
            self.release_lock(ts, item, ctx);
        }
    }

    /// Give up an *unprepared* transaction's locks (the coordinator said
    /// so, or the unprepared timeout fired). A prepared one stays put.
    pub(super) fn on_release(&mut self, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        if self
            .part
            .get(&ts)
            .is_some_and(|p| p.prepared_writes.is_some())
        {
            return;
        }
        if let Some(p) = self.part.remove(&ts) {
            ctx.cancel_timer(p.timer);
            for item in p.items {
                self.release_lock(ts, item, ctx);
            }
        }
        self.locks.forget_waiter(ts);
    }

    /// The unprepared timeout fired: safe to walk away, it has not voted.
    pub(super) fn on_unprepared_timeout(&mut self, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        let unprepared = |p: &PartTxn| p.prepared_writes.is_none();
        if self.part.get(&ts).is_some_and(unprepared) {
            self.on_release(ts, ctx);
        }
    }

    fn release_lock(&mut self, ts: Ts, item: ItemId, ctx: &mut Context<'_, TradMsg>) {
        // FIFO handoff.
        if let Some((next_ts, next_from)) = self.locks.release(item, ts) {
            self.track_part(next_ts, next_from, item, ctx);
            self.grant(next_from, next_ts, item);
        }
    }

    /// Recovery found `txn` prepared and unresolved: take its locks back,
    /// sit in doubt again, and ask the coordinator — the dependent part
    /// of traditional recovery.
    pub(super) fn reenter_in_doubt(
        &mut self,
        txn: Ts,
        coordinator: NodeId,
        writes: Writes,
        ctx: &mut Context<'_, TradMsg>,
    ) {
        let timer = ctx.set_timer(RETRY_EVERY.saturating_mul(2), TAG_QUERY_RETRY | txn.0);
        // A pre-commit is not logged: it recovers as uncertain.
        let mut p = PartTxn::new(coordinator, timer);
        for &(item, _, _) in &writes {
            self.locks.retake(item, txn);
            p.hold(item);
        }
        p.prepared_writes = Some(writes);
        p.in_doubt_since = Some(ctx.now());
        self.part.insert(txn, p);
        // A transaction this site coordinated is answered in-site, from
        // the decisions recovery just reloaded.
        if coordinator != self.id {
            self.metrics.recovery_remote_messages += 1;
        }
        self.send(coordinator, TradBody::DecisionQuery { txn });
    }
}
