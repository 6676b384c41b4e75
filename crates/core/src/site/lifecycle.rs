//! The local transaction lifecycle (Section 5's 7-step general
//! transaction and the write-only fast path) under either concurrency
//! scheme (Section 6): begin and lock, solicit what is missing, commit
//! or abort, and wake whoever queued behind the released locks.
//!
//! A transaction that holds its locks on arrival, reads nothing and finds
//! its demands covered by the local fragments commits in the callback
//! that received it, straight from its spec. Only a transaction that
//! must wait — for a lock, for value, for read grants — is registered as
//! an [`ActiveTxn`] and arms its timeout timer. Both kinds of commit run
//! the same steps (`commit`).

use super::msg::{Body, ProtoMsg, Solicit};
use super::{peers_of, SiteNode, TAG_PAYLOAD_MASK, TAG_TIMEOUT};
use crate::clock::Ts;
use crate::dense::SVec;
use crate::fault::Crashpoint;
use crate::item::ItemId;
use crate::locks::Holder;
use crate::metrics::AbortReason;
use crate::policy::ConcMode;
use crate::record::DbActions;
use crate::transfer::{Transfer, TransferKind};
use crate::txn::TxnSpec;
use crate::Qty;
use dvp_obs::EventKind;
use dvp_simnet::node::{Context, TimerId};
use dvp_simnet::time::SimTime;
use dvp_simnet::NodeId;

/// A party waiting for a lock under Conc2.
#[derive(Clone, Debug)]
pub(super) enum Waiter {
    /// A local transaction still acquiring its access set.
    LocalTxn(Ts),
    /// A remote solicitation to honour once the item frees up.
    Request { from: NodeId, ask: Solicit },
}

/// Volatile state of one local transaction that must wait.
#[derive(Clone, Debug)]
pub(super) struct ActiveTxn {
    spec: TxnSpec,
    /// `spec.reads()`, computed once.
    reads: Vec<ItemId>,
    started: SimTime,
    timeout_timer: TimerId,
    /// Items still to lock (Conc2 queueing); empty ⇒ all locks held.
    pending_locks: Vec<ItemId>,
    /// Remaining deficit per solicited item, sorted by item (inline: a
    /// transaction touches 1–2 items).
    deficits: SVec<(ItemId, Qty), 2>,
    /// Per read item (sorted): donors not yet heard from.
    read_pending: Vec<(ItemId, Vec<NodeId>)>,
    /// Read items (sorted) waiting for our *own* outstanding Vms to clear.
    reads_blocked_on_self: Vec<ItemId>,
    /// When the first solicited credit arrived (phase breakdown).
    first_credit_at: Option<SimTime>,
    /// Whether this transaction ever solicited (false ⇒ fast path).
    solicited: bool,
}

impl ActiveTxn {
    fn locks_held(&self) -> bool {
        self.pending_locks.is_empty()
    }

    fn ready(&self) -> bool {
        self.locks_held()
            && self.deficits.iter().all(|&(_, d)| d == 0)
            && self.read_pending.iter().all(|(_, s)| s.is_empty())
            && self.reads_blocked_on_self.is_empty()
    }

    fn new(
        spec: TxnSpec,
        started: SimTime,
        timeout_timer: TimerId,
        pending_locks: Vec<ItemId>,
    ) -> Self {
        ActiveTxn {
            reads: spec.reads(),
            spec,
            started,
            timeout_timer,
            pending_locks,
            deficits: SVec::new(),
            read_pending: Vec::new(),
            reads_blocked_on_self: Vec::new(),
            first_credit_at: None,
            solicited: false,
        }
    }
}

/// Local transactions that must wait, sorted by timestamp. Timestamps are
/// issued in increasing order per site, so insertion is a push-at-end
/// in the steady state and iteration is in timestamp order.
#[derive(Default)]
pub(super) struct ActiveTable(Vec<(Ts, ActiveTxn)>);

impl ActiveTable {
    fn find(&self, ts: Ts) -> Option<usize> {
        self.0.binary_search_by_key(&ts, |e| e.0).ok()
    }

    pub(super) fn len(&self) -> usize {
        self.0.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub(super) fn clear(&mut self) {
        self.0.clear();
    }

    pub(super) fn get(&self, ts: Ts) -> Option<&ActiveTxn> {
        self.find(ts).map(|i| &self.0[i].1)
    }

    pub(super) fn get_mut(&mut self, ts: Ts) -> Option<&mut ActiveTxn> {
        self.find(ts).map(|i| &mut self.0[i].1)
    }

    fn remove(&mut self, ts: Ts) -> Option<ActiveTxn> {
        self.find(ts).map(|i| self.0.remove(i).1)
    }

    fn insert(&mut self, ts: Ts, txn: ActiveTxn) {
        // The binary search keeps the table sorted even if an
        // interleaving ever violates timestamp monotonicity.
        match self.0.binary_search_by_key(&ts, |e| e.0) {
            Ok(_) => debug_assert!(false, "duplicate active txn {ts:?}"),
            Err(i) => self.0.insert(i, (ts, txn)),
        }
    }
}

impl SiteNode {
    pub(super) fn begin_txn(&mut self, spec: TxnSpec, ctx: &mut Context<'_, ProtoMsg>) {
        let ts = self.clock.tick_at(ctx.now().micros());
        debug_assert!(
            ts.0 <= TAG_PAYLOAD_MASK,
            "timestamp exceeds timer-tag space"
        );
        spec.access_set_into(&mut self.access_scratch);
        self.obs.emit_with(self.id as u32, || EventKind::TxnStart {
            txn: ts.0,
            ops: self.access_scratch.len() as u32,
        });

        match self.cfg.conc {
            ConcMode::Conc1 => {
                // Step 1: all locks atomically, with the TS(t) > TS(d) check.
                let mut conflict = None;
                for &item in &self.access_scratch {
                    if self.locks.is_locked(item) {
                        conflict = Some(AbortReason::LockConflict);
                        break;
                    }
                    if ts <= self.frags.ts(item) {
                        conflict = Some(AbortReason::TsConflict);
                        break;
                    }
                }
                if let Some(reason) = conflict {
                    // Nothing was locked, registered or armed.
                    self.finish_abort(ts, ctx.now(), reason, ctx);
                    return;
                }
                for &item in &self.access_scratch {
                    self.locks
                        .try_lock(item, Holder::Txn(ts))
                        .expect("checked free above");
                    self.frags.bump_ts(item, ts);
                }
            }
            ConcMode::Conc2 => {
                // Incremental ordered acquisition with FIFO queues.
                let blocked = self
                    .access_scratch
                    .iter()
                    .position(|&item| self.locks.try_lock(item, Holder::Txn(ts)).is_err());
                if let Some(idx) = blocked {
                    let item = self.access_scratch[idx];
                    self.lock_queue[item.0 as usize].push_back(Waiter::LocalTxn(ts));
                    self.obs.emit_with(self.id as u32, || EventKind::TxnQueued {
                        txn: ts.0,
                        item: item.0,
                    });
                    let pending = self.access_scratch[idx..].to_vec();
                    self.register(ts, spec, pending, ctx);
                    return;
                }
            }
        }
        // Every lock is held on arrival.
        spec.demands_into(&mut self.demands_scratch);
        let covered = self.note_demands();
        if covered && spec.writes_only() && !self.inject.crash_pending() {
            // The write-only fast path: commit here, from the spec.
            self.commit(ts, &spec, &[], ctx.now(), None, ctx);
        } else {
            self.register(ts, spec, Vec::new(), ctx);
            self.await_needs(ts, ctx);
        }
    }

    /// Register `ts` as a transaction that must wait and arm its timeout
    /// — ahead of the solicitations, the order these actions have always
    /// taken.
    fn register(
        &mut self,
        ts: Ts,
        spec: TxnSpec,
        pending_locks: Vec<ItemId>,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        let timer = ctx.set_timer(self.cfg.txn_timeout, TAG_TIMEOUT | ts.0);
        let txn = ActiveTxn::new(spec, ctx.now(), timer, pending_locks);
        self.active.insert(ts, txn);
    }

    /// The bookkeeping every abort ends with: counters and trace.
    fn finish_abort(
        &mut self,
        ts: Ts,
        started: SimTime,
        reason: AbortReason,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        let abort = EventKind::TxnAbort {
            txn: ts.0,
            reason: reason.tag(),
            latency_us: ctx.now().since(started).as_micros(),
        };
        self.obs.record(self.id as u32, abort, &mut self.metrics);
    }

    /// Feed every local demand in `demands_scratch` to the estimator,
    /// satisfied or not — a hot site with enough local value still wants
    /// the rebalancer (and its own headroom) to keep it stocked. Returns
    /// whether the local fragments cover them all.
    fn note_demands(&mut self) -> bool {
        let mut covered = true;
        for &(item, demand) in &self.demands_scratch {
            self.planner.local_demand(item, demand);
            covered &= demand <= self.frags.get(item);
        }
        covered
    }

    /// The registered transaction `ts` now holds every lock (Conc2, after
    /// queueing).
    fn locks_granted(&mut self, ts: Ts, ctx: &mut Context<'_, ProtoMsg>) {
        let t = self.active.get(ts).expect("active");
        t.spec.demands_into(&mut self.demands_scratch);
        self.note_demands();
        self.await_needs(ts, ctx);
    }

    /// The registered transaction `ts` holds its locks, its demands in
    /// `demands_scratch`: record what the local fragments lack and what
    /// it reads, then commit if nothing is missing or solicit (Step 2).
    fn await_needs(&mut self, ts: Ts, ctx: &mut Context<'_, ProtoMsg>) {
        let t = self.active.get_mut(ts).expect("active");
        for &(item, demand) in &self.demands_scratch {
            let deficit = demand.saturating_sub(self.frags.get(item));
            if deficit > 0 {
                t.deficits.push((item, deficit));
            }
        }
        for &item in &t.reads {
            if self.outstanding[item.0 as usize] > 0 {
                // Our own outgoing Vms must complete before the read can be
                // exact (they would double-count or escape otherwise).
                t.reads_blocked_on_self.push(item);
            } else {
                t.read_pending
                    .push((item, peers_of(self.id, self.n).collect()));
            }
        }

        if t.ready() {
            self.commit_txn(ts, ctx);
            return;
        }
        // Step 2: solicit every unmet need, once.
        t.solicited = true;
        self.send_solicitations(ts, ctx);
    }

    /// Ask every other site for each of the transaction's unmet needs,
    /// just recorded (every deficit is positive, every read waits on all
    /// peers). Each need is looked up afresh, so no borrow of the
    /// transaction spans a send.
    fn send_solicitations(&mut self, ts: Ts, ctx: &mut Context<'_, ProtoMsg>) {
        let mut k = 0;
        while let Some(&(item, need)) = self.active.get(ts).and_then(|t| t.deficits.get(k)) {
            k += 1;
            let ask = Solicit {
                txn: ts,
                item,
                need,
                demand: self.planner.advertised_demand(item, need),
                read: false,
            };
            for to in peers_of(self.id, self.n) {
                self.solicit_peer(to, ask, ctx);
            }
        }
        // Reads go to every other site too: Π needs every fragment.
        let mut k = 0;
        while let Some(&(item, _)) = self.active.get(ts).and_then(|t| t.read_pending.get(k)) {
            k += 1;
            for to in peers_of(self.id, self.n) {
                self.solicit_peer(to, Solicit::read(ts, item), ctx);
            }
        }
    }

    /// Put one solicitation on the wire.
    fn solicit_peer(&mut self, to: NodeId, ask: Solicit, ctx: &mut Context<'_, ProtoMsg>) {
        self.send(ctx, to, Body::Request(ask));
        let solicit = EventKind::TxnSolicit {
            txn: ask.txn.0,
            item: ask.item.0,
            to: to as u32,
            qty: ask.need as i64,
        };
        self.obs.record(self.id as u32, solicit, &mut self.metrics);
    }

    /// A read item blocked on our own outstanding Vms just cleared.
    pub(super) fn unblock_reads(&mut self, item: ItemId, ctx: &mut Context<'_, ProtoMsg>) {
        let waiting: Vec<Ts> = self
            .active
            .0
            .iter()
            .filter(|(_, t)| t.reads_blocked_on_self.binary_search(&item).is_ok())
            .map(|&(ts, _)| ts)
            .collect();
        for ts in waiting {
            let donors: Vec<NodeId> = peers_of(self.id, self.n).collect();
            let t = self.active.get_mut(ts).expect("active");
            if let Ok(i) = t.reads_blocked_on_self.binary_search(&item) {
                t.reads_blocked_on_self.remove(i);
            }
            match t.read_pending.binary_search_by_key(&item, |e| e.0) {
                Ok(i) => t.read_pending[i] = (item, donors),
                Err(i) => t.read_pending.insert(i, (item, donors)),
            }
            for to in peers_of(self.id, self.n) {
                self.solicit_peer(to, Solicit::read(ts, item), ctx);
            }
        }
    }

    /// Tell donors a read transaction has decided, so they can drop their
    /// leases early.
    fn release_read_leases(&mut self, ts: Ts, reads: &[ItemId], ctx: &mut Context<'_, ProtoMsg>) {
        for &item in reads {
            for to in peers_of(self.id, self.n) {
                self.send(ctx, to, Body::ReleaseLease { txn: ts, item });
            }
        }
    }

    /// Commit the registered transaction `ts`: every need is met.
    pub(super) fn commit_txn(&mut self, ts: Ts, ctx: &mut Context<'_, ProtoMsg>) {
        if self.inject.crash_pending() {
            return; // the impending crash will abort it as Crashed
        }
        let t = self.active.remove(ts).expect("active");
        ctx.cancel_timer(t.timeout_timer);
        let first_credit = t
            .solicited
            .then(|| t.first_credit_at.unwrap_or_else(|| ctx.now()));
        self.commit(ts, &t.spec, &t.reads, t.started, first_credit, ctx);
    }

    /// Steps 5–7, for a registered transaction and a fast-path one alike:
    /// force the commit record, install changes, record the commit,
    /// release locks. `first_credit` is `Some` for a transaction that
    /// solicited: the instant its first credit arrived (or now, if none
    /// did), which splits its latency into phases.
    fn commit(
        &mut self,
        ts: Ts,
        spec: &TxnSpec,
        reads: &[ItemId],
        started: SimTime,
        first_credit: Option<SimTime>,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        self.release_read_leases(ts, reads, ctx);

        spec.deltas_into(&mut self.deltas_scratch);
        // Empty for write-only transactions; 1–2 entries stay inline.
        let read_values: SVec<(ItemId, Qty), 2> = reads
            .iter()
            .map(|&item| (item, self.frags.get(item)))
            .collect();

        // Step 5: the forced commit record IS the commit point. The
        // force is deferred to this dispatch's flush boundary — still
        // before any frame leaves the site, and crashes only arrive
        // between dispatches, so the commit point stays within the same
        // indivisible instant of simulated time.
        if self.inject.armed(Crashpoint::AfterAppendBeforeForce) {
            // Pin the crashpoint's contract: records appended earlier in
            // this dispatch harden now, so the trip below kills exactly
            // the Commit record it names.
            self.durable.force_now();
        }
        let deltas = self
            .durable
            .append_commit(ts, DbActions::from_slice(&self.deltas_scratch));
        if self.crashpoint(ctx, Crashpoint::AfterAppendBeforeForce) {
            // Crash with the Commit record appended but unforced: the
            // record dies with the tail, so the transaction must *not*
            // survive recovery (it never reached its commit point):
            // `crash_pending` makes the flush skip its force.
            return;
        }
        self.durable.owe_force();

        // Step 6: install. Its log note is the checkpoint's `redo_from`:
        // recovery redoes every record past it, this Commit included.
        for &(item, delta) in &deltas {
            self.frags.apply_delta(item, delta);
            self.frags.bump_ts(item, ts);
        }

        // Recorded before step 7: a Conc2 waiter that step 7 wakes may
        // commit re-entrantly, and lock handover is its serial order.
        let commit = EventKind::TxnCommit {
            txn: ts.0,
            latency_us: ctx.now().since(started).as_micros(),
            fast_path: first_credit.is_none(),
        };
        self.obs.record(self.id as u32, commit, &mut self.metrics);
        // Phase split, which no event carries: solicit = start → first
        // credit arriving, gather = first credit → commit (zero when a
        // single credit completed the transaction in the same instant).
        if let Some(fc) = first_credit {
            self.metrics.solicit.record(fc.since(started).as_micros());
            self.metrics.gather.record(ctx.now().since(fc).as_micros());
        }
        self.history.commit(ctx.now(), ts, &deltas, &read_values);

        // Step 7: release locks (and wake Conc2 waiters).
        self.release_locks_and_wake(ts, ctx);
    }

    pub(super) fn abort_txn(
        &mut self,
        ts: Ts,
        reason: AbortReason,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        let t = match self.active.remove(ts) {
            Some(t) => t,
            None => return,
        };
        ctx.cancel_timer(t.timeout_timer);
        if reason == AbortReason::Timeout {
            // Unmet deficits are demand the estimator under-called:
            // re-emphasize them so the next advertisement asks higher.
            for &(item, d) in &t.deficits {
                if d > 0 {
                    self.planner.local_demand(item, d);
                }
            }
        }
        self.release_read_leases(ts, &t.reads, ctx);
        self.release_locks_and_wake(ts, ctx);
        self.finish_abort(ts, t.started, reason, ctx);
        // Value already absorbed stays: the aborted transaction degenerates
        // to an Rds transaction (Section 6).
    }

    /// Track an absorbed transfer against the waiting transaction's needs.
    pub(super) fn credit_to_txn(
        &mut self,
        holder: Ts,
        transfer: &Transfer,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        let t = match self.active.get_mut(holder) {
            Some(t) => t,
            None => return,
        };
        if t.first_credit_at.is_none() {
            t.first_credit_at = Some(ctx.now());
        }
        if let Ok(i) = t.deficits.binary_search_by_key(&transfer.item, |e| e.0) {
            let d = &mut t.deficits.as_mut_slice()[i].1;
            *d = d.saturating_sub(transfer.amount);
        }
        if transfer.kind == TransferKind::ReadGrant && transfer.for_txn == holder {
            if let Ok(i) = t.read_pending.binary_search_by_key(&transfer.item, |e| e.0) {
                let pending = &mut t.read_pending[i].1;
                if let Some(p) = pending.iter().position(|&d| d == transfer.donor) {
                    pending.remove(p);
                }
            }
        }
        if t.ready() {
            self.commit_txn(holder, ctx);
        }
    }

    /// Release every lock `ts` holds and let the Conc2 waiters behind
    /// them in. Waking a waiter can commit it, and that commit releases
    /// locks in turn — so the buffer is taken for the duration of the
    /// loop and a nested release falls back to a fresh one instead of
    /// corrupting this borrow.
    fn release_locks_and_wake(&mut self, ts: Ts, ctx: &mut Context<'_, ProtoMsg>) {
        let mut released = std::mem::take(&mut self.released_scratch);
        self.locks.release_all_into(ts, &mut released);
        for &item in &released {
            self.grant_waiters(item, ctx);
        }
        self.released_scratch = released;
    }

    /// Pop Conc2 waiters for a freed item until someone holds the lock.
    pub(super) fn grant_waiters(&mut self, item: ItemId, ctx: &mut Context<'_, ProtoMsg>) {
        loop {
            if self.locks.is_locked(item) {
                return;
            }
            let waiter = match self.lock_queue[item.0 as usize].pop_front() {
                Some(w) => w,
                None => return,
            };
            match waiter {
                Waiter::LocalTxn(ts) => {
                    let Some(t) = self.active.get_mut(ts) else {
                        continue; // timed out while waiting
                    };
                    self.locks
                        .try_lock(item, Holder::Txn(ts))
                        .expect("item is free");
                    // Continue ordered acquisition from after this item.
                    debug_assert_eq!(t.pending_locks.first(), Some(&item));
                    t.pending_locks.remove(0);
                    let blocked_at = t
                        .pending_locks
                        .iter()
                        .position(|&next| self.locks.try_lock(next, Holder::Txn(ts)).is_err());
                    match blocked_at {
                        Some(idx) => {
                            let next = t.pending_locks[idx];
                            self.lock_queue[next.0 as usize].push_back(Waiter::LocalTxn(ts));
                            t.pending_locks.drain(..idx);
                        }
                        None => {
                            t.pending_locks = Vec::new();
                            self.locks_granted(ts, ctx);
                        }
                    }
                    return; // the item is now held
                }
                Waiter::Request { from, ask } => {
                    // Momentary Rds: donate and keep popping (the lock is
                    // free again afterwards, unless a read lease pinned it).
                    self.try_donate(from, ask, ctx);
                }
            }
        }
    }
}
