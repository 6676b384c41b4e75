//! Value on the move (the Rds transactions of Section 5): honouring
//! solicitations on the donor side, spontaneous rebalance ships, and
//! absorbing arriving Vm transfers on the receiver side.

use super::lifecycle::Waiter;
use super::msg::{ProtoMsg, Solicit};
use super::{SiteNode, TAG_LEASE, TAG_REBALANCE};
use crate::clock::Ts;
use crate::fault::{Crashpoint, Mutant};
use crate::locks::Holder;
use crate::policy::ConcMode;
use crate::record::DbActions;
use crate::transfer::{Transfer, TransferKind};
use dvp_obs::EventKind;
use dvp_simnet::node::Context;
use dvp_simnet::NodeId;
use dvp_vmsg::{Frame, Receipt, Seq, WireDatagram};

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
        let decline = EventKind::TxnDecline {
            txn: ask.txn.0,
            item: ask.item.0,
        };
        self.obs.record(self.id as u32, decline, &mut self.metrics);
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
            if !self.inject.planted(Mutant::SkipReadDrainGate)
                && self.outstanding[item.0 as usize] > 0
            {
                // Cannot certify quiescence: our own Vms for this item are
                // still in flight. Ignore; the read times out and aborts.
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
        let donate = EventKind::TxnDonate {
            txn: txn.0,
            item: item.0,
            to: from as u32,
            qty: amount as i64,
        };
        self.obs.record(self.id as u32, donate, &mut self.metrics);

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
        self.outstanding[transfer.item.0 as usize] += 1;
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
        let (ship, rows_scanned) = self.planner.plan_rebalance(&(&self.frags, &self.locks));
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
        let ship = EventKind::PlacementShip {
            item: item.0,
            to: to as u32,
            qty: amount,
        };
        self.obs.record(self.id as u32, ship, &mut self.metrics);
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
        self.vm.begin_datagram(wire.id());
        for frame in wire.frames() {
            self.process_vm_frame(from, frame, ctx);
        }
        self.flush_vm(ctx);
    }

    /// One frame, its payload borrowed from the datagram's image: a
    /// fresh transfer decodes straight out of it.
    fn process_vm_frame(
        &mut self,
        from: NodeId,
        frame: Frame<&[u8]>,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        if let Receipt::Fresh { seq, payload } = self.vm.on_frame(from, frame) {
            if self.receive_vm(from, seq, payload, ctx) {
                self.receive_held(from, ctx);
            }
        }
    }

    /// Accept the Vms from `from` that the endpoint held and that are in
    /// order now, until one is held back again.
    pub(super) fn receive_held(&mut self, from: NodeId, ctx: &mut Context<'_, ProtoMsg>) {
        while let Some((seq, payload)) = self.vm.take_ready(from) {
            if !self.receive_vm(from, seq, &payload, ctx) {
                return;
            }
        }
    }

    /// A lease ended: accept what the endpoint held back for it.
    pub(super) fn receive_held_from_all(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        for peer in 0..self.n {
            self.receive_held(peer, ctx);
        }
    }

    /// Accept the in-order Vm `seq` from `from`, or hand it back to the
    /// endpoint to hold while a read lease pins its item. Returns whether
    /// it was accepted.
    fn receive_vm(
        &mut self,
        from: NodeId,
        seq: Seq,
        payload: &[u8],
        ctx: &mut Context<'_, ProtoMsg>,
    ) -> bool {
        let transfer = match Transfer::from_bytes(payload) {
            Ok(t) => t,
            Err(e) => {
                debug_assert!(false, "undecodable transfer payload: {e}");
                return false;
            }
        };
        match self.locks.holder(transfer.item) {
            None => {
                // Unlocked: accept as a spontaneous Rds transaction.
                self.accept_transfer(from, seq, &transfer)
            }
            Some(Holder::Lease(_)) => {
                // A read lease pins the item: hold the Vm until the lease
                // ends (or the sender's retransmission finds it over).
                self.vm.hold_back(from, seq, payload);
                false
            }
            Some(Holder::Txn(holder)) => {
                // The lock holder performs the acceptance itself
                // (Section 5: no need to wait for the lock).
                let accepted = self.accept_transfer(from, seq, &transfer);
                self.credit_to_txn(holder, &transfer, ctx);
                accepted
            }
        }
    }

    /// Durably accept a transfer: `[database-actions]` + `Accepted` op.
    /// Returns whether it was accepted (not with a crash pending).
    fn accept_transfer(&mut self, from: NodeId, seq: Seq, transfer: &Transfer) -> bool {
        if self.inject.crash_pending() {
            return false;
        }
        let op = self.vm.commit_accept(from, seq);
        let credit = DbActions::one((transfer.item, transfer.amount as i64));
        self.durable.append_rds(transfer.for_txn, credit, op);
        // The acceptance must be durable before our ack frame leaves:
        // the flush forces ahead of the datagram drain.
        self.durable.owe_force();
        self.frags.credit(transfer.item, transfer.amount);
        self.frags.bump_ts(transfer.item, transfer.for_txn);
        self.obs.emit_with(self.id as u32, || EventKind::TxnAbsorb {
            txn: transfer.for_txn.0,
            item: transfer.item.0,
            from: transfer.donor as u32,
            qty: transfer.amount as i64,
        });
        true
    }
}
