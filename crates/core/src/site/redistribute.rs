//! Value on the move (the Rds transactions of Section 5): honouring
//! solicitations on the donor side, spontaneous rebalance ships, and
//! absorbing arriving Vm transfers on the receiver side.

use super::lifecycle::Waiter;
use super::msg::{ProtoMsg, Solicit};
use super::{SiteNode, TAG_LEASE, TAG_REBALANCE};
use crate::clock::Ts;
use crate::item::ItemId;
use crate::locks::Holder;
use crate::policy::{ConcMode, Crashpoint};
use crate::record::DbActions;
use crate::transfer::{Transfer, TransferKind};
use dvp_obs::EventKind;
use dvp_simnet::node::Context;
use dvp_simnet::NodeId;
use dvp_vmsg::{Frame, Receipt, Seq, VmLogOp, WireDatagram};
use std::collections::BTreeMap;

/// This site's outgoing unacked Vms: how many carry each item (a donor
/// may not certify a read while any do — the read-donation gate) and
/// which item each `(peer, seq)` carries.
pub(super) struct Outstanding {
    per_item: Vec<u64>,
    vm_item: BTreeMap<(NodeId, Seq), ItemId>,
}

impl Outstanding {
    pub(super) fn new(n_items: usize) -> Self {
        Outstanding {
            per_item: vec![0; n_items],
            vm_item: BTreeMap::new(),
        }
    }

    /// Unacked outgoing Vms carrying `item`.
    pub(super) fn of(&self, item: ItemId) -> u64 {
        self.per_item[item.0 as usize]
    }

    pub(super) fn any(&self) -> bool {
        !self.vm_item.is_empty()
    }

    /// One more unacked outgoing Vm, `seq` toward `peer`, carrying `item`.
    pub(super) fn created(&mut self, peer: NodeId, seq: Seq, item: ItemId) {
        self.vm_item.insert((peer, seq), item);
        self.per_item[item.0 as usize] += 1;
    }

    /// Vm `seq` toward `peer` was acked. Returns the item it carried and
    /// whether that was the item's last outstanding Vm.
    pub(super) fn completed(&mut self, peer: NodeId, seq: Seq) -> Option<(ItemId, bool)> {
        let item = self.vm_item.remove(&(peer, seq))?;
        let c = &mut self.per_item[item.0 as usize];
        *c = c.saturating_sub(1);
        Some((item, *c == 0))
    }
}

impl SiteNode {
    // ---- remote requests (donor side) --------------------------------------

    pub(super) fn handle_request(
        &mut self,
        from: NodeId,
        ask: Solicit,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        // Every incoming solicitation is observed demand at `from`.
        self.planner
            .peer_request(ask.item, from, ask.need, ask.demand, ask.read);
        if self.locks.is_locked(ask.item) {
            match self.cfg.conc {
                // "site s_j can simply decide not to honor the request"
                ConcMode::Conc1 => self.decline(&ask),
                ConcMode::Conc2 => {
                    self.lock_queue[ask.item.0 as usize].push_back(Waiter::Request { from, ask })
                }
            }
            return;
        }
        self.try_donate(from, ask, ctx);
    }

    /// Leave a solicitation unanswered (requests are never nacked: the
    /// requester's timeout is the answer).
    fn decline(&mut self, ask: &Solicit) {
        self.metrics.requests_ignored += 1;
        self.obs
            .emit_with(self.id as u32, || EventKind::TxnDecline {
                txn: ask.txn.0,
                item: ask.item.0,
            });
    }

    /// Honour a request against an unlocked item (an Rds transaction).
    pub(super) fn try_donate(
        &mut self,
        from: NodeId,
        ask: Solicit,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        if self.inject.crash_pending() {
            return;
        }
        let Solicit {
            txn,
            item,
            need,
            demand,
            read,
        } = ask;
        if self.cfg.conc == ConcMode::Conc1 && txn <= self.frags.ts(item) {
            // Conc1: the soliciting transaction is too old for this value.
            return self.decline(&ask);
        }
        let have = self.frags.get(item);
        let (amount, kind) = if read {
            if !self.cfg.unsafe_skip_read_drain_gate && self.outstanding.of(item) > 0 {
                // Cannot certify quiescence: our own Vms for this item are
                // still in flight. Ignore; the read will abort or retry.
                return self.decline(&ask);
            }
            (have, TransferKind::ReadGrant)
        } else {
            let amount = self.planner.refill(item, need, demand, have);
            if amount == 0 {
                return self.decline(&ask);
            }
            (amount, TransferKind::Refill)
        };

        let transfer = Transfer {
            item,
            amount,
            for_txn: txn,
            donor: self.id,
            kind,
        };
        if !self.ship(from, &transfer, ctx) {
            return;
        }
        self.metrics.donations += 1;
        self.obs.emit_with(self.id as u32, || EventKind::TxnDonate {
            txn: txn.0,
            item: item.0,
            to: from as u32,
            qty: amount as i64,
        });

        if read {
            // Pin the drained item until the reader has surely decided.
            self.locks
                .try_lock(item, Holder::Lease(txn))
                .expect("item was free");
            let timer = ctx.set_timer(self.cfg.read_lease(), TAG_LEASE | item.0 as u64);
            self.lease_timers[item.0 as usize] = Some(timer);
        }
        self.flush_vm(ctx);
    }

    /// Move `transfer.amount` out of the local fragment into a new Vm
    /// toward `to`: create the Vm, log the `[database-actions,
    /// message-sequence]` record — forced, so the Vm exists from this
    /// dispatch's flush boundary, ahead of the frame — then debit and
    /// track the Vm as outstanding. A solicited donation passes the
    /// `AfterForceBeforeSend` crashpoint between the two halves; `false`
    /// means it fired and the value never left the fragment.
    fn ship(&mut self, to: NodeId, transfer: &Transfer, ctx: &mut Context<'_, ProtoMsg>) -> bool {
        let op = self.vm.create(to, transfer.to_bytes());
        let seq = match &op {
            VmLogOp::Created { seq, .. } => *seq,
            _ => unreachable!("create returns Created"),
        };
        let debit = DbActions::one((transfer.item, -(transfer.amount as i64)));
        self.durable.append_rds(transfer.for_txn, debit, op);
        let solicited = transfer.kind != TransferKind::Rebalance;
        if solicited && self.inject.armed(Crashpoint::AfterForceBeforeSend) {
            // The crashpoint names the instant *after* the force: honour
            // its contract by forcing eagerly on the armed path.
            self.durable.force_now();
        } else {
            self.durable.owe_force();
        }
        if solicited && self.crashpoint(ctx, Crashpoint::AfterForceBeforeSend) {
            // Crash with the Rds record forced but the Vm frame never
            // transmitted: the Vm exists durably and must still reach its
            // destination via post-recovery retransmission.
            return false;
        }
        self.frags.debit(transfer.item, transfer.amount);
        self.frags.bump_ts(transfer.item, transfer.for_txn);
        self.outstanding.created(to, seq, transfer.item);
        true
    }

    // ---- the proactive rebalancer ------------------------------------------

    /// Arm the periodic rebalance timer unless one is already pending
    /// (or the planner names no cadence). Called from every entry point
    /// that could create work for a tick — start, arrivals, messages —
    /// so the cadence is continuous under load but the timer chain dies
    /// out when the cluster drains (quiescence stays reachable).
    pub(super) fn arm_rebalance(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.rebalance_armed {
            return;
        }
        if let Some(every) = self.planner.rebalance_every() {
            ctx.set_timer(every, TAG_REBALANCE);
            self.rebalance_armed = true;
        }
    }

    /// A rebalance tick: carry out the spontaneous Rds transfer the
    /// planner decided on, if any.
    pub(super) fn run_rebalance(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.inject.crash_pending() {
            return;
        }
        let (ship, rows_scanned) = self
            .planner
            .plan_rebalance(ctx.now(), &(&self.frags, &self.locks));
        self.metrics.rows_scanned += rows_scanned;
        // An idle tick appends no records and queues no frames, so its
        // trailing flush would be a pure no-op, and at the rebalance
        // cadence those no-ops add up.
        let Some((item, to, amount)) = ship else {
            return;
        };
        let transfer = Transfer {
            item,
            amount,
            for_txn: Ts::ZERO,
            donor: self.id,
            kind: TransferKind::Rebalance,
        };
        self.ship(to, &transfer, ctx);
        self.metrics.rebalances += 1;
        self.obs
            .emit_with(self.id as u32, || EventKind::PlacementShip {
                item: item.0,
                to: to as u32,
                qty: amount,
            });
        self.flush_vm(ctx);
    }

    // ---- Vm arrivals (receiver side) ---------------------------------------

    /// Process one arriving datagram: every coalesced frame in order,
    /// then a single flush — so all acceptances the datagram causes are
    /// hardened by one force and answered by (at most) one datagram per
    /// peer, exactly the amortization the batching exists for.
    pub(super) fn handle_vm_datagram(
        &mut self,
        from: NodeId,
        wire: WireDatagram,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        let datagram = wire.decode();
        self.vm.begin_datagram(datagram.id);
        for frame in datagram.frames {
            self.process_vm_frame(from, frame, ctx);
        }
        self.flush_vm(ctx);
    }

    fn process_vm_frame(&mut self, from: NodeId, frame: Frame, ctx: &mut Context<'_, ProtoMsg>) {
        let receipt = self.vm.on_frame(from, frame);
        if let Receipt::Fresh { seq, payload } = receipt {
            let transfer = match Transfer::from_bytes(&payload) {
                Ok(t) => t,
                Err(e) => {
                    debug_assert!(false, "undecodable transfer payload: {e}");
                    return;
                }
            };
            match self.locks.holder(transfer.item) {
                None => {
                    // Unlocked: accept as a spontaneous Rds transaction.
                    self.accept_transfer(from, seq, &transfer);
                }
                Some(Holder::Lease(_)) => {
                    // A read lease pins the item: ignore; the sender will
                    // retransmit and we will accept after the lease.
                }
                Some(Holder::Txn(holder)) => {
                    // The lock holder performs the acceptance itself
                    // (Section 5: no need to wait for the lock).
                    self.accept_transfer(from, seq, &transfer);
                    self.credit_to_txn(holder, &transfer, ctx);
                }
            }
        }
    }

    /// Durably accept a transfer: `[database-actions]` + `Accepted` op.
    fn accept_transfer(&mut self, from: NodeId, seq: Seq, transfer: &Transfer) {
        if self.inject.crash_pending() {
            return;
        }
        let op = self.vm.commit_accept(from, seq);
        let credit = DbActions::one((transfer.item, transfer.amount as i64));
        self.durable.append_rds(transfer.for_txn, credit, op);
        // The acceptance must be durable before our ack frame leaves:
        // the flush forces ahead of the datagram drain.
        self.durable.owe_force();
        self.frags.credit(transfer.item, transfer.amount);
        self.frags.bump_ts(transfer.item, transfer.for_txn);
        self.metrics.absorbed += 1;
        self.obs.emit_with(self.id as u32, || EventKind::TxnAbsorb {
            txn: transfer.for_txn.0,
            item: transfer.item.0,
            from: transfer.donor as u32,
            qty: transfer.amount as i64,
        });
    }
}
