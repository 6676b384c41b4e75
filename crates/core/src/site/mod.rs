//! The DvP site: one node of the distributed system.
//!
//! [`SiteNode`] implements the whole per-site protocol stack:
//!
//! * **Transaction processing** (Section 5): the 7-step general
//!   transaction, the write-only fast path, and implicit Rds transactions
//!   (donations and Vm acceptances);
//! * **Concurrency control** (Section 6): Conc1 (conservative
//!   timestamping, fail-fast) or Conc2 (strict 2PL with FIFO lock queues);
//! * **Recovery** (Section 7): on crash, volatile state is discarded and
//!   the unforced log tail lost; on restart the site rebuilds fragments,
//!   timestamps, and Vm state purely from its own stable log — no remote
//!   messages needed (independent recovery).
//!
//! The site is split by *ownership*: `SiteNode` holds the transaction /
//! lock / transfer protocol state, and three components own the rest
//! behind their own methods — stable storage (`durable`), the fault
//! injector (`inject`) and the placement planner ([`crate::placement`],
//! which can name neither fragments nor the log).
//!
//! ## Full-value reads and leases
//!
//! Section 5's read protocol requires every other site to ship its entire
//! fragment and to certify that it has no outstanding Vms for the item.
//! One subtlety the paper leaves implicit: a donor must keep the item
//! locked until the read decides, otherwise a Vm that was in flight at
//! donation time could land *behind* the donation and its value would
//! escape the read. We pin the donated item with a **read lease** lasting
//! `2 × txn_timeout` (> the requester's decision bound), restoring
//! exactness: a read that commits observed the true total. Reads that
//! cannot achieve quiescence time out and abort — dear reads are the price
//! the paper itself flags ("there is a high overhead in reading the entire
//! value", Section 8).

mod durable;
mod inject;
mod lifecycle;
mod msg;
mod redistribute;

pub use durable::SiteSnapshot;
pub use msg::{Body, ProtoMsg, Solicit};

use crate::audit::HistorySink;
use crate::clock::{LamportClock, Ts};
use crate::fault::{Crashpoint, Injection, Mutant};
use crate::fragment::FragmentStore;
use crate::item::ItemId;
use crate::locks::{Holder, LockTable};
use crate::metrics::{AbortReason, SiteMetrics};
use crate::placement::{Planner, View};
use crate::policy::SiteConfig;
use crate::record::{DbActions, SiteRecord};
use crate::script::{Script, ScriptCursor};
use crate::transfer::Transfer;
use crate::Qty;
use bytes::Bytes;
use durable::Durable;
use dvp_obs::{EventKind, Obs};
use dvp_simnet::node::{Context, Node, TimerId};
use dvp_simnet::time::SimDuration;
use dvp_simnet::NodeId;
use dvp_storage::StableLog;
use dvp_vmsg::{Seq, VmConfig, VmEndpoint, VmLogOp, WireDatagram};
use inject::FaultInjector;
use lifecycle::{ActiveTable, Waiter};
use std::collections::VecDeque;

// Timer-tag kinds (top byte).
const TAG_KIND_SHIFT: u64 = 56;
const TAG_TIMEOUT: u64 = 1 << TAG_KIND_SHIFT;
const TAG_RETRANSMIT: u64 = 2 << TAG_KIND_SHIFT;
const TAG_LEASE: u64 = 3 << TAG_KIND_SHIFT;
const TAG_REBALANCE: u64 = 5 << TAG_KIND_SHIFT;
const TAG_PAYLOAD_MASK: u64 = (1 << TAG_KIND_SHIFT) - 1;

/// The Vm endpoint of site `id`, fresh: the endpoint's default window
/// with datagram coalescing on — a site only ever speaks
/// [`Body::VmDatagram`] (the endpoint's own default keeps that layer
/// usable standalone with bare frames).
fn vm_endpoint(id: NodeId) -> VmEndpoint {
    let cfg = VmConfig {
        coalesce: true,
        ..VmConfig::default()
    };
    VmEndpoint::new(id, cfg)
}

/// The unacked outgoing Vms of `vm` carrying each of `n_items` items.
fn outstanding_per_item(vm: &VmEndpoint, n_items: usize) -> Vec<u64> {
    let mut counts = vec![0; n_items];
    for peer in vm.peers() {
        for (_, payload) in vm.outgoing_toward(peer) {
            if let Ok(t) = Transfer::from_bytes(&payload) {
                counts[t.item.0 as usize] += 1;
            }
        }
    }
    counts
}

/// Every site but `id`, ascending.
fn peers_of(id: NodeId, n: usize) -> impl Iterator<Item = NodeId> {
    (0..n).filter(move |&s| s != id)
}

/// All the placement planner may see of a site.
impl View for (&FragmentStore, &LockTable) {
    fn have(&self, item: ItemId) -> Qty {
        self.0.get(item)
    }

    fn locked(&self, item: ItemId) -> bool {
        self.1.is_locked(item)
    }
}

/// One DvP site (a [`Node`] for `dvp-simnet`).
///
/// Per-item tables are indexed by `item.0`: the catalog assigns
/// contiguous ids, so walking a table `0..len` visits items in ascending
/// `ItemId` order.
pub struct SiteNode {
    id: NodeId,
    n: usize,
    cfg: SiteConfig,
    clock: LamportClock,
    frags: FragmentStore,
    locks: LockTable,
    vm: VmEndpoint,
    /// Stable storage and its bookkeeping (survives crashes).
    durable: Durable,
    /// Nemesis fault injection (omniscient: survives crashes).
    inject: FaultInjector,
    /// Everything this site remembers about value placement. Volatile.
    planner: Planner,
    /// This site's place in its run's arrivals: the kernel moves it, an
    /// arrival reads its transaction from it.
    arrivals: ScriptCursor,
    /// In-flight local transactions that must wait (a fast-path commit
    /// never enters).
    active: ActiveTable,
    /// Conc2 FIFO lock queues, per item.
    lock_queue: Vec<VecDeque<Waiter>>,
    /// How many unacked outgoing Vms carry each item (the endpoint holds
    /// the Vms): a donor certifies a read of an item only at 0.
    outstanding: Vec<u64>,
    /// The live lease-expiry timer per item. A firing that does not match
    /// the stored id is stale (the lease it was armed for was released
    /// early and a newer lease may be in force) and must be ignored.
    lease_timers: Vec<Option<TimerId>>,
    /// The one retransmit timer and the instant (µs) it is armed for:
    /// the Vm endpoint's earliest channel deadline. `None` while nothing
    /// is unacked.
    retransmit_timer: Option<(TimerId, u64)>,
    /// A periodic rebalance timer is pending. The timer is idle-aware:
    /// ticks re-arm only while the site has local activity, and arrivals
    /// or messages re-arm it, so a drained cluster reaches quiescence.
    rebalance_armed: bool,
    /// Experiment instrumentation (omniscient: survives crashes).
    metrics: SiteMetrics,
    /// The cluster's read check, fed at every commit (omniscient).
    history: HistorySink,
    /// Structured trace handle (disabled by default; survives crashes).
    obs: Obs,
    /// Reusable buffers, retained so the steady-state dispatch path
    /// allocates nothing. Only `released_scratch` is live across a
    /// re-entrant call (see `release_locks_and_wake`).
    completed_scratch: Vec<(NodeId, Seq, Bytes)>,
    datagram_scratch: Vec<(NodeId, WireDatagram)>,
    freed_scratch: Vec<ItemId>,
    access_scratch: Vec<ItemId>,
    deltas_scratch: Vec<(ItemId, i64)>,
    demands_scratch: Vec<(ItemId, Qty)>,
    released_scratch: Vec<ItemId>,
}

impl SiteNode {
    /// Build a site.
    ///
    /// * `n`: the cluster size.
    /// * `faults`: the faults the run's plan injects at this site.
    /// * `mutant`: the bug the run plants, if any.
    /// * `quotas[i]`: this site's initial fragment of item `i` (the data-
    ///   value partitioning). Logged as genesis records.
    /// * `arrivals`: the transactions this site will run, read at each
    ///   arrival by the external-event tag the cluster scheduler uses;
    ///   the site's id is the cursor's.
    /// * `obs`: the trace handle, shared down into the Vm endpoint and the
    ///   stable log so every layer stamps events on the same clock, the
    ///   genesis force included.
    pub fn new(
        n: usize,
        cfg: SiteConfig,
        faults: Injection,
        mutant: Option<Mutant>,
        quotas: Vec<Qty>,
        arrivals: ScriptCursor,
        obs: &Obs,
    ) -> Self {
        let id = arrivals.site();
        let k = quotas.len();
        let mut vm = vm_endpoint(id);
        vm.set_obs(obs.clone());
        let mut frags = FragmentStore::new(k);
        for (i, &q) in quotas.iter().enumerate() {
            frags.credit(ItemId(i as u32), q);
        }
        SiteNode {
            id,
            n,
            cfg,
            clock: LamportClock::new(id),
            frags,
            locks: LockTable::with_items(k),
            vm,
            durable: Durable::genesis(id, &quotas, obs),
            inject: FaultInjector::new(id, faults, mutant),
            planner: Planner::new(id, n, cfg.placement, k),
            arrivals,
            active: ActiveTable::default(),
            lock_queue: vec![VecDeque::new(); k],
            outstanding: vec![0; k],
            lease_timers: vec![None; k],
            retransmit_timer: None,
            rebalance_armed: false,
            metrics: SiteMetrics::default(),
            history: HistorySink::default(),
            obs: obs.clone(),
            completed_scratch: Vec::new(),
            datagram_scratch: Vec::new(),
            freed_scratch: Vec::new(),
            access_scratch: Vec::new(),
            deltas_scratch: Vec::new(),
            demands_scratch: Vec::new(),
            released_scratch: Vec::new(),
        }
    }

    /// Attach the cluster's history sink; every commit here feeds it.
    pub fn set_history(&mut self, history: HistorySink) {
        self.history = history;
    }

    // ---- public inspection (harness / audit) ----------------------------

    /// This site's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Fragment store (local portions of every item).
    pub fn fragments(&self) -> &FragmentStore {
        &self.frags
    }

    /// The Vm endpoint (for the conservation auditor).
    pub fn vm_endpoint(&self) -> &VmEndpoint {
        &self.vm
    }

    /// The stable log.
    pub fn log(&self) -> &StableLog<SiteRecord> {
        self.durable.log()
    }

    /// The arrival script this site runs (a shared handle).
    pub fn script(&self) -> &Script {
        self.arrivals.script()
    }

    /// Instrumentation counters.
    pub fn metrics(&self) -> &SiteMetrics {
        &self.metrics
    }

    /// Number of in-flight local transactions.
    pub fn active_txns(&self) -> usize {
        self.active.len()
    }

    /// The site configuration.
    pub fn config(&self) -> &SiteConfig {
        &self.cfg
    }

    /// Whether this site is quarantined after unrecoverable media damage
    /// (see [`SiteMetrics::media_failures`]).
    pub fn media_failed(&self) -> bool {
        self.durable.media_failed()
    }

    /// Reconstruct this site's durable state — fragments and Vm channels —
    /// from the checkpoint slot and stable log alone, touching nothing
    /// live. The nemesis rebuild-equivalence oracle compares this against
    /// the running site: recovery must be a pure function of stable
    /// storage.
    pub fn rebuilt_durable_state(&self) -> (FragmentStore, VmEndpoint) {
        self.durable.rebuilt_state(self.frags.len())
    }

    /// Evaluate an armed crashpoint at a named protocol instant. Returns
    /// `true` when it fires: the caller must return immediately without
    /// performing the step that follows the crash site. The kernel applies
    /// the crash when the current callback finishes.
    fn crashpoint(&mut self, ctx: &mut Context<'_, ProtoMsg>, point: Crashpoint) -> bool {
        let fired = self.inject.reached(point);
        if fired {
            self.metrics.crashpoint_trips += 1;
            ctx.crash_self();
        }
        fired
    }

    fn send(&mut self, ctx: &mut Context<'_, ProtoMsg>, to: NodeId, body: Body) {
        let lamport = self.clock.counter();
        let msg = ProtoMsg { lamport, body };
        let bytes = msg.wire_len();
        ctx.send_frames_bytes(to, msg, 1, bytes);
    }

    // ---- the flush boundary ------------------------------------------------

    /// Drain every queued Vm frame into per-peer wire datagrams and put
    /// them on the wire.
    fn send_vm_datagrams(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        self.vm
            .drain_datagrams_into(ctx.now().micros(), &mut self.datagram_scratch);
        for (to, wire) in self.datagram_scratch.drain(..) {
            let frames = u64::from(wire.frame_count());
            let msg = ProtoMsg {
                lamport: self.clock.counter(),
                body: Body::VmDatagram(wire),
            };
            let bytes = msg.wire_len();
            ctx.send_frames_bytes(to, msg, frames, bytes);
        }
    }

    /// Force what this dispatch owes, drain the Vm outbox onto the wire,
    /// account completed Vm lifecycles, and keep the retransmit timer on
    /// the earliest channel deadline.
    fn flush_vm(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.inject.crash_pending() {
            return;
        }
        self.durable.force_at_flush();
        // One wire datagram per peer per flush: every queued frame toward
        // a peer rides a single transmission, with owed acks folded in.
        self.send_vm_datagrams(ctx);
        // Acks still owed found no data to piggyback on: they leave right
        // now, in this same dispatch, as ack-only datagrams — acks from
        // one dispatch dedup into one cumulative frame per peer, and ack
        // timing (and with it window advance and borderline txn timeouts)
        // never depends on how much reverse traffic there is.
        if self.vm.flush_owed_acks() {
            self.send_vm_datagrams(ctx);
        }
        self.vm.drain_completed_into(&mut self.completed_scratch);
        self.freed_scratch.clear();
        for (peer, seq, payload) in self.completed_scratch.drain(..) {
            if let Ok(t) = Transfer::from_bytes(&payload) {
                let count = &mut self.outstanding[t.item.0 as usize];
                *count -= 1;
                if *count == 0 {
                    self.freed_scratch.push(t.item);
                }
            }
            // Lazy durable note so recovery forgets completed Vms too.
            let op = VmLogOp::AckObserved { to: peer, seq };
            self.durable.append_rds(Ts::ZERO, DbActions::new(), op);
        }
        for k in 0..self.freed_scratch.len() {
            self.unblock_reads(self.freed_scratch[k], ctx);
        }
        debug_assert_eq!(
            self.outstanding,
            outstanding_per_item(&self.vm, self.outstanding.len()),
            "the per-item counts follow the endpoint's unacked Vms"
        );
        self.arm_retransmit(ctx);
        self.maybe_checkpoint(ctx);
    }

    /// Move the retransmit timer to the endpoint's earliest deadline, or
    /// cancel it when nothing is unacked.
    fn arm_retransmit(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let due = self.vm.next_deadline();
        if self.retransmit_timer.map(|(_, at)| at) == due {
            return;
        }
        if let Some((timer, _)) = self.retransmit_timer.take() {
            ctx.cancel_timer(timer);
        }
        if let Some(at) = due {
            let delay = SimDuration::micros(at.saturating_sub(ctx.now().micros()));
            self.retransmit_timer = Some((ctx.set_timer(delay, TAG_RETRANSMIT), at));
        }
    }

    /// Take a checkpoint when the stable log has grown past the
    /// configured bound: snapshot durable state, remember the redo point,
    /// truncate the log prefix.
    fn maybe_checkpoint(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.inject.crash_pending() || self.durable.media_failed() {
            return;
        }
        let Some(redo_from) = self
            .cfg
            .checkpoint_every
            .and_then(|limit| self.durable.checkpoint_if_due(limit, &self.frags, &self.vm))
        else {
            return;
        };
        if self.crashpoint(ctx, Crashpoint::MidCheckpoint) {
            // Crash between installing the checkpoint and truncating the
            // log: the snapshotted records are still in the log, and
            // recovery must not redo them.
            return;
        }
        self.durable.truncate_checkpointed();
        let checkpoint = EventKind::Checkpoint {
            redo_from: redo_from.0,
        };
        self.obs
            .record(self.id as u32, checkpoint, &mut self.metrics);
    }
}

impl Node for SiteNode {
    type Msg = ProtoMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        self.arm_rebalance(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: ProtoMsg, ctx: &mut Context<'_, ProtoMsg>) {
        if self.durable.media_failed() {
            return; // quarantined: inert until the end of time
        }
        self.clock.observe_counter(msg.lamport);
        self.vm.advance_clock(ctx.now().micros());
        // Traffic can change what the next rebalance tick would ship.
        self.arm_rebalance(ctx);
        if !matches!(msg.body, Body::VmDatagram(_)) {
            // Any message shows the peer is up: a Vm channel toward it
            // that backed off retransmits on its base timeout again (a
            // Vm frame does so by itself).
            self.vm.heard_from(from);
        }
        match msg.body {
            Body::VmDatagram(wire) => self.handle_vm_datagram(from, wire, ctx),
            Body::Request(ask) => self.handle_request(from, ask, ctx),
            Body::ReleaseLease { txn, item } => {
                if self.locks.holder(item) == Some(Holder::Lease(txn)) {
                    self.locks.unlock(item, txn);
                    if let Some(timer) = self.lease_timers[item.0 as usize].take() {
                        ctx.cancel_timer(timer);
                    }
                    self.grant_waiters(item, ctx);
                    self.receive_held_from_all(ctx);
                    // Waking waiters can commit queued transactions and
                    // donate — flush so their records harden this dispatch.
                    self.flush_vm(ctx);
                }
            }
        }
    }

    fn on_external(&mut self, tag: u64, ctx: &mut Context<'_, ProtoMsg>) {
        if self.durable.media_failed() {
            return; // quarantined: no new transactions ever start here
        }
        let Some(spec) = self.arrivals.spec(tag) else {
            return;
        };
        self.vm.advance_clock(ctx.now().micros());
        self.arm_rebalance(ctx);
        self.begin_txn(spec, ctx);
        self.flush_vm(ctx);
    }

    fn on_timer(&mut self, id: TimerId, tag: u64, ctx: &mut Context<'_, ProtoMsg>) {
        if self.durable.media_failed() {
            return; // quarantined: pre-quarantine timers are all stale
        }
        let kind = tag >> TAG_KIND_SHIFT << TAG_KIND_SHIFT;
        let payload = tag & TAG_PAYLOAD_MASK;
        self.vm.advance_clock(ctx.now().micros());
        match kind {
            TAG_RETRANSMIT => {
                // The timer only runs while something is unacked, and it
                // is cancelled when the last ack lands.
                self.retransmit_timer = None;
                self.vm.tick();
                self.flush_vm(ctx);
            }
            TAG_TIMEOUT => {
                self.abort_txn(Ts(payload), AbortReason::Timeout, ctx);
                // Released locks can wake Conc2 waiters into commits and
                // donations — flush the dispatch like every other entry.
                self.flush_vm(ctx);
            }
            TAG_REBALANCE => {
                self.rebalance_armed = false;
                self.metrics.rebalance_ticks += 1;
                self.run_rebalance(ctx);
                // Keep the cadence while this site still has local work;
                // an idle site's next arrival or message re-arms it.
                if !self.active.is_empty() || self.vm.has_outstanding() {
                    self.arm_rebalance(ctx);
                }
            }
            TAG_LEASE => {
                let item = ItemId(payload as u32);
                if self.lease_timers[item.0 as usize] != Some(id) {
                    return; // stale timer from an earlier, already-released lease
                }
                self.lease_timers[item.0 as usize] = None;
                if let Some(Holder::Lease(reader)) = self.locks.holder(item) {
                    self.locks.unlock(item, reader);
                    self.grant_waiters(item, ctx);
                    self.receive_held_from_all(ctx);
                    self.flush_vm(ctx);
                }
            }
            _ => debug_assert!(false, "unknown timer tag kind"),
        }
    }

    fn on_crash(&mut self) {
        // The unforced log tail and every piece of volatile state die
        // here; each owner of volatile state is cleared or replaced
        // whole. (No pre-crash timer fires after recovery: the kernel
        // bumps the node's epoch on crash and drops every timer armed
        // before it, so recovery re-arms the rebalance cadence.)
        self.inject.on_crash(&mut self.durable);
        self.vm.crash_reset();
        self.locks.clear();
        // In-flight transactions simply vanish, with no `TxnAbort`.
        self.metrics.aborted[AbortReason::Crashed as usize] += self.active.len() as u64;
        self.active.clear();
        for q in self.lock_queue.iter_mut() {
            q.clear();
        }
        self.lease_timers.fill(None);
        // Placement memory describes a pre-crash world; recovery never
        // consults any of it.
        self.planner.reset();
        self.clock.crash_reset();
        self.retransmit_timer = None;
        self.rebalance_armed = false;
        // What remains of the site *is* its durable log; materialize that
        // view immediately so the site's observable state (fragments, Vm
        // cursors) equals stable storage for the whole downtime. This is
        // the redo scan of Section 7 — running it eagerly is equivalent
        // (the site receives no events while down) and keeps omniscient
        // audits honest: a crashed site's value is its logged value.
        self.durable.rebuild(
            self.inject.planted(Mutant::SkipRecoveryRedo),
            &mut self.frags,
            &mut self.vm,
            &mut self.metrics,
        );
        self.outstanding = outstanding_per_item(&self.vm, self.frags.len());
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.durable.media_failed() {
            // A quarantined site refuses to rejoin: its durable state lost
            // committed effects, and resuming would reuse Vm sequence
            // numbers and hand peers already-consumed value again.
            return;
        }
        // State was already rebuilt from the stable log at crash time
        // (see on_crash); restarting is just resuming normal processing.
        self.obs
            .record(self.id as u32, EventKind::RecoveryBegin, &mut self.metrics);
        self.obs
            .emit_with(self.id as u32, || EventKind::RecoveryEnd {
                replayed: self.durable.last_replayed(),
                remote_msgs: 0,
            });
        // Nothing consulted a peer. Outstanding Vms resume in the normal
        // course of processing: every recovered channel is due at once.
        self.vm.advance_clock(ctx.now().micros());
        self.vm.tick();
        self.arm_rebalance(ctx);
        self.flush_vm(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Placement;

    /// A crash replaces the planner whole: nothing it observed survives,
    /// so nothing it observed can reach recovery.
    #[test]
    fn a_crash_leaves_the_planner_freshly_built() {
        let cfg = SiteConfig::builder()
            .placement(Placement::adaptive())
            .build();
        let faults = Injection::default();
        let scripts = [Script::new(), Script::new()];
        let mut site = SiteNode::new(
            4,
            cfg,
            faults,
            None,
            vec![100, 50],
            ScriptCursor::run(&scripts, &crate::item::Catalog::new()).remove(1),
            &Obs::disabled(),
        );
        let fresh = site.planner.clone();
        site.planner.local_demand(ItemId(0), 30);
        site.planner.peer_request(ItemId(1), 2, 10, 40, false);
        let _ = site.planner.plan_rebalance(&(&site.frags, &site.locks));
        assert_ne!(site.planner, fresh);
        site.on_crash();
        assert_eq!(site.planner, fresh);
        assert_eq!(site.fragments().snapshot(), vec![100, 50]);
    }
}
