//! The local transaction lifecycle (Section 5's 7-step general
//! transaction and the write-only fast path) under either concurrency
//! scheme (Section 6): begin and lock, solicit what is missing, commit
//! or abort, and wake whoever queued behind the released locks.

use super::msg::{Body, ProtoMsg, Solicit};
use super::{peers_of, SiteNode, TAG_PAYLOAD_MASK, TAG_SOLICIT_RETRY, TAG_TIMEOUT};
use crate::clock::Ts;
use crate::dense::SVec;
use crate::item::ItemId;
use crate::locks::Holder;
use crate::metrics::AbortReason;
use crate::placement::Target;
use crate::policy::{ConcMode, Crashpoint};
use crate::record::{DbActions, SiteRecord};
use crate::transfer::{Transfer, TransferKind};
use crate::txn::TxnSpec;
use crate::Qty;
use dvp_obs::EventKind;
use dvp_simnet::node::{Context, TimerId};
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_simnet::NodeId;

/// A party waiting for a lock under Conc2.
#[derive(Clone, Debug)]
pub(super) enum Waiter {
    /// A local transaction still acquiring its access set.
    LocalTxn(Ts),
    /// A remote solicitation to honour once the item frees up.
    Request { from: NodeId, ask: Solicit },
}

/// Volatile state of one in-flight local transaction.
#[derive(Clone, Debug)]
pub(super) struct ActiveTxn {
    spec: TxnSpec,
    started: SimTime,
    timeout_timer: TimerId,
    /// Items still to lock (Conc2 queueing); empty ⇒ all locks held.
    pending_locks: Vec<ItemId>,
    /// Remaining deficit per solicited item, sorted by item.
    deficits: Vec<(ItemId, Qty)>,
    /// Per read item (sorted): donors not yet heard from.
    read_pending: Vec<(ItemId, Vec<NodeId>)>,
    /// Read items (sorted) waiting for our *own* outstanding Vms to clear.
    reads_blocked_on_self: Vec<ItemId>,
    /// When the first solicited credit arrived (phase breakdown).
    first_credit_at: Option<SimTime>,
    /// Whether this transaction ever solicited (false ⇒ fast path).
    solicited: bool,
    /// Remaining solicitation retries (see `SiteConfig::solicit_retries`).
    retries_left: u32,
    /// Per item (sorted): the single peer a solicitation targeted. On a
    /// timeout abort, it becomes suspect.
    single_targets: Vec<(ItemId, NodeId)>,
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

    fn new(spec: TxnSpec, started: SimTime, timeout_timer: TimerId) -> Self {
        ActiveTxn {
            spec,
            started,
            timeout_timer,
            pending_locks: Vec::new(),
            deficits: Vec::new(),
            read_pending: Vec::new(),
            reads_blocked_on_self: Vec::new(),
            first_credit_at: None,
            solicited: false,
            retries_left: 0,
            single_targets: Vec::new(),
        }
    }
}

/// In-flight local transactions, sorted by timestamp. Timestamps are
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
        let timer = ctx.set_timer(self.cfg.txn_timeout, TAG_TIMEOUT | ts.0);
        debug_assert!(
            ts.0 <= TAG_PAYLOAD_MASK,
            "timestamp exceeds timer-tag space"
        );
        spec.access_set_into(&mut self.access_scratch);
        self.obs.emit_with(self.id as u32, || EventKind::TxnStart {
            txn: ts.0,
            ops: self.access_scratch.len() as u32,
        });
        let mut txn = ActiveTxn::new(spec, ctx.now(), timer);

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
                    // The transaction never registered in `active`.
                    ctx.cancel_timer(txn.timeout_timer);
                    self.finish_abort(ts, &txn, reason, ctx);
                    return;
                }
                for &item in &self.access_scratch {
                    self.locks
                        .try_lock(item, Holder::Txn(ts))
                        .expect("checked free above");
                    self.frags.bump_ts(item, ts);
                }
                self.active.insert(ts, txn);
                self.locks_granted(ts, ctx);
            }
            ConcMode::Conc2 => {
                // Incremental ordered acquisition with FIFO queues.
                for (idx, &item) in self.access_scratch.iter().enumerate() {
                    if self.locks.try_lock(item, Holder::Txn(ts)).is_err() {
                        self.lock_queue[item.0 as usize].push_back(Waiter::LocalTxn(ts));
                        self.obs.emit_with(self.id as u32, || EventKind::TxnQueued {
                            txn: ts.0,
                            item: item.0,
                        });
                        txn.pending_locks = self.access_scratch[idx..].to_vec();
                        break;
                    }
                }
                let held = txn.locks_held();
                self.active.insert(ts, txn);
                if held {
                    self.locks_granted(ts, ctx);
                }
            }
        }
    }

    /// The bookkeeping every abort ends with: counters and trace.
    fn finish_abort(
        &mut self,
        ts: Ts,
        txn: &ActiveTxn,
        reason: AbortReason,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        let latency = ctx.now().since(txn.started).as_micros();
        self.metrics.record_abort(reason, latency);
        self.obs.emit_with(self.id as u32, || EventKind::TxnAbort {
            txn: ts.0,
            reason: reason.tag(),
            latency_us: latency,
        });
    }

    /// All local locks are held: enter the solicitation phase (Step 2) or
    /// commit immediately on the write-only fast path.
    fn locks_granted(&mut self, ts: Ts, ctx: &mut Context<'_, ProtoMsg>) {
        let t = self.active.get_mut(ts).expect("active");
        t.spec.demands_into(&mut self.demands_scratch);

        // Deficits after counting what is already local.
        for &(item, demand) in &self.demands_scratch {
            // Every local demand feeds the estimator, satisfied or not —
            // a hot site with enough local value still wants the
            // rebalancer (and its own headroom) to keep it stocked.
            self.planner.local_demand(item, demand);
            let deficit = demand.saturating_sub(self.frags.get(item));
            if deficit > 0 {
                t.deficits.push((item, deficit));
            }
        }

        // `reads()` is empty for write-only transactions (no allocation);
        // read transactions are off the fast path and may allocate.
        for item in t.spec.reads() {
            if self.outstanding.of(item) > 0 {
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
        // Step 2: solicit every unmet need, arming the retry schedule.
        t.solicited = true;
        t.retries_left = self.cfg.solicit_retries;
        if self.cfg.solicit_retries > 0 {
            ctx.set_timer(self.retry_gap(), TAG_SOLICIT_RETRY | ts.0);
        }
        self.send_solicitations(ts, ctx);
    }

    /// The gap between solicitation rounds: retries are spaced evenly
    /// inside the timeout window so the decision bound is untouched.
    fn retry_gap(&self) -> SimDuration {
        SimDuration::micros(
            self.cfg.txn_timeout.as_micros() / (self.cfg.solicit_retries as u64 + 1),
        )
    }

    /// A retry timer fired: one more round if the transaction is still
    /// short, and another timer if rounds remain after it.
    pub(super) fn retry_solicitations(&mut self, ts: Ts, ctx: &mut Context<'_, ProtoMsg>) {
        let retry = self
            .active
            .get_mut(ts)
            .filter(|t| t.locks_held() && !t.ready() && t.retries_left > 0)
            .map(|t| {
                t.retries_left -= 1;
                t.retries_left
            });
        if let Some(left) = retry {
            self.send_solicitations(ts, ctx);
            if left > 0 {
                ctx.set_timer(self.retry_gap(), TAG_SOLICIT_RETRY | ts.0);
            }
        }
    }

    /// Transmit requests for the transaction's *current* unmet needs.
    /// Each need is looked up afresh, so no borrow of the transaction
    /// spans a send.
    fn send_solicitations(&mut self, ts: Ts, ctx: &mut Context<'_, ProtoMsg>) {
        let mut k = 0;
        while let Some(&(item, need)) = self.active.get(ts).and_then(|t| t.deficits.get(k)) {
            k += 1;
            if need == 0 {
                continue;
            }
            let ask = Solicit {
                txn: ts,
                item,
                need,
                demand: self.planner.advertised_demand(item, need),
                read: false,
            };
            match self.planner.target(ctx.now()) {
                Target::All => {
                    for to in peers_of(self.id, self.n) {
                        self.solicit_peer(to, ask, ctx);
                    }
                }
                Target::One(peer) => {
                    self.solicit_peer(peer, ask, ctx);
                    // Remember the target so a timeout can mark it suspect.
                    let t = self.active.get_mut(ts).expect("looked up above");
                    let entry = (item, peer);
                    match t.single_targets.binary_search_by_key(&item, |e| e.0) {
                        Ok(i) => t.single_targets[i] = entry,
                        Err(i) => t.single_targets.insert(i, entry),
                    }
                }
            }
        }
        // Reads always go to every other site: Π needs every fragment.
        let mut k = 0;
        while let Some((item, waiting)) = self
            .active
            .get(ts)
            .and_then(|t| t.read_pending.get(k))
            .map(|(item, pending)| (*item, !pending.is_empty()))
        {
            k += 1;
            if waiting {
                for to in peers_of(self.id, self.n) {
                    self.solicit_peer(to, Solicit::read(ts, item), ctx);
                }
            }
        }
    }

    /// Put one solicitation on the wire.
    fn solicit_peer(&mut self, to: NodeId, ask: Solicit, ctx: &mut Context<'_, ProtoMsg>) {
        self.send(ctx, to, Body::Request(ask));
        self.metrics.requests_sent += 1;
        self.obs
            .emit_with(self.id as u32, || EventKind::TxnSolicit {
                txn: ask.txn.0,
                item: ask.item.0,
                to: to as u32,
                qty: ask.need as i64,
            });
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
    fn release_read_leases(&mut self, ts: Ts, spec: &TxnSpec, ctx: &mut Context<'_, ProtoMsg>) {
        for item in spec.reads() {
            for to in peers_of(self.id, self.n) {
                self.send(ctx, to, Body::ReleaseLease { txn: ts, item });
            }
        }
    }

    /// Steps 5–7: force the commit record, install changes, release locks.
    pub(super) fn commit_txn(&mut self, ts: Ts, ctx: &mut Context<'_, ProtoMsg>) {
        if self.inject.crash_pending() {
            return; // the impending crash will abort it as Crashed
        }
        let t = self.active.remove(ts).expect("active");
        ctx.cancel_timer(t.timeout_timer);
        self.release_read_leases(ts, &t.spec, ctx);

        t.spec.deltas_into(&mut self.deltas_scratch);
        // `reads()` is empty (and allocation-free) for write-only
        // transactions; 1–2 entries stay inline in the `SVec`s the
        // history sink keeps until the instant closes.
        let reads: SVec<(ItemId, Qty), 2> = t
            .spec
            .reads()
            .into_iter()
            .map(|item| (item, self.frags.get(item)))
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
        self.durable.append(SiteRecord::Commit {
            txn: ts,
            actions: DbActions::from_slice(&self.deltas_scratch),
        });
        if self.crashpoint(ctx, Crashpoint::AfterAppendBeforeForce) {
            // Crash with the Commit record appended but unforced: the
            // record dies with the tail, so the transaction must *not*
            // survive recovery (it never reached its commit point):
            // `crash_pending` makes the flush skip its force.
            return;
        }
        self.durable.owe_force();

        // Step 6: install and note installation.
        for &(item, delta) in &self.deltas_scratch {
            self.frags.apply_delta(item, delta);
            self.frags.bump_ts(item, ts);
        }
        self.durable.append(SiteRecord::Applied { txn: ts });
        // Copied out before waking waiters: a woken one may commit
        // re-entrantly and reuse the scratch.
        let deltas = SVec::from_slice(&self.deltas_scratch);

        // Step 7: release locks (and wake Conc2 waiters).
        self.release_locks_and_wake(ts, ctx);

        let latency = ctx.now().since(t.started).as_micros();
        self.metrics.record_commit(&deltas, latency, !t.solicited);
        self.history.commit(ctx.now(), ts, deltas, reads);
        if t.solicited {
            // Phase split: solicit = start → first credit arriving,
            // gather = first credit → commit (zero when a single credit
            // completed the transaction in the same instant).
            let fc = t.first_credit_at.unwrap_or_else(|| ctx.now());
            self.metrics
                .phases
                .record("solicit", fc.since(t.started).as_micros());
            self.metrics
                .phases
                .record("gather", ctx.now().since(fc).as_micros());
        }
        self.obs.emit_with(self.id as u32, || EventKind::TxnCommit {
            txn: ts.0,
            latency_us: latency,
            fast_path: !t.solicited,
        });
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
            // Unanswered single-target solicitations mark their target
            // suspect for two timeout spans (any message from the peer
            // clears the suspicion — see `on_message`).
            let until = ctx.now() + self.cfg.txn_timeout.saturating_mul(2);
            for &(_, peer) in &t.single_targets {
                self.planner.solicit_timed_out(peer, until);
            }
            // Unmet deficits are demand the estimator under-called:
            // re-emphasize them so the next advertisement asks higher.
            for &(item, d) in &t.deficits {
                if d > 0 {
                    self.planner.local_demand(item, d);
                }
            }
        }
        self.release_read_leases(ts, &t.spec, ctx);
        self.release_locks_and_wake(ts, ctx);
        self.finish_abort(ts, &t, reason, ctx);
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
            let d = &mut t.deficits[i].1;
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
