//! The receiving side: classifying arrivals against the accept cursor,
//! and the ack duty that follows from accepting — owed, piggybacked, or
//! flushed standalone.

use super::{Receipt, VmEndpoint};
use crate::channel::Seq;
use crate::codec::ACK_FRAME_LEN;
use crate::frame::Frame;
use crate::logop::VmLogOp;
use crate::SiteId;
use bytes::Bytes;
use dvp_obs::{EventKind, VmReceipt};
use std::ops::Deref;

impl VmEndpoint {
    /// Process an arriving frame from `from`. Owned and borrowed
    /// payloads alike: a `Fresh` receipt hands back the frame's own.
    pub fn on_frame<P: Deref<Target = [u8]>>(
        &mut self,
        from: SiteId,
        frame: Frame<P>,
    ) -> Receipt<P> {
        // Any frame's ack releases our outgoing state toward `from`,
        // straight into the completed list.
        let now = self.now;
        self.chan(from);
        let chan = self.chans[from].as_mut().expect("just materialized");
        let completed = &mut self.completed;
        let old_base = chan.acked_out;
        let released = chan.on_ack(frame.ack(), |seq, p| completed.push((from, seq, p)));
        if released > 0 {
            match chan.progressed(now) {
                Some((rtt, true)) => self.seed.sample(rtt),
                Some((rtt, false)) => self.seed.bound(rtt),
                None => {}
            }
            if chan.in_flight() == 0 {
                self.clear_dirty(from);
            } else {
                self.send_admitted(from, old_base);
            }
            self.stats.completed += released as u64;
        } else {
            chan.heard(now);
        }
        let Frame::Data { seq, payload, .. } = frame else {
            return Receipt::AckOnly;
        };
        let class = self.chan(from).classify(seq);
        let accept = EventKind::VmAccept {
            from: from as u32,
            vseq: seq,
            receipt: class.tag(),
            datagram: self.in_datagram,
        };
        self.obs.record(self.me as u32, accept, &mut self.stats);
        match class {
            VmReceipt::Duplicate => {
                // A duplicate proves the sender missed the ack: refresh it,
                // so the sender can stop resending.
                self.queue_ack(from);
                Receipt::Duplicate
            }
            VmReceipt::OutOfOrder => {
                let window = self.cfg.window;
                self.chan(from).hold(seq, &payload, window);
                Receipt::OutOfOrder
            }
            VmReceipt::Fresh => Receipt::Fresh { seq, payload },
        }
    }

    /// The host cannot accept the in-order Vm `seq` from `from` yet (a
    /// [`Receipt::Fresh`] or a [`take_ready`](Self::take_ready)): hold it
    /// as if it had arrived ahead of the cursor, and `take_ready` hands it
    /// back when the host asks again. The sender retransmits it all the
    /// same until it is accepted.
    pub fn hold_back(&mut self, from: SiteId, seq: Seq, payload: &[u8]) {
        let window = self.cfg.window;
        self.chan(from).hold(seq, payload, window);
    }

    /// The next Vm from `from` that arrived ahead of its predecessors
    /// ([`Receipt::OutOfOrder`]) and is now in order, taken out of the
    /// hold: a [`Receipt::Fresh`] in all but name, which the host accepts
    /// or ignores as it would one. The host asks again after each
    /// acceptance from `from`, until `None`.
    pub fn take_ready(&mut self, from: SiteId) -> Option<(Seq, Bytes)> {
        let (seq, payload) = self.chans.get_mut(from)?.as_mut()?.take_next_held()?;
        let datagram = self.in_datagram;
        self.obs.emit_with(self.me as u32, || EventKind::VmAccept {
            from: from as u32,
            vseq: seq,
            receipt: VmReceipt::Fresh.tag(),
            datagram,
        });
        Some((seq, payload))
    }

    /// The host has durably logged acceptance of `(from, seq)`; advance the
    /// cumulative-ack cursor and queue the ack it owes `from`.
    ///
    /// Returns the [`VmLogOp::Accepted`] for symmetry with `create` — the
    /// host should have written exactly this op in the record it just
    /// forced (the method exists so replay and live paths share code).
    pub fn commit_accept(&mut self, from: SiteId, seq: Seq) -> VmLogOp {
        self.chan(from).commit_accept(seq);
        self.stats.accepted += 1;
        self.queue_ack(from);
        VmLogOp::Accepted { from, seq }
    }

    fn queue_ack(&mut self, peer: SiteId) {
        if !self.cfg.coalesce {
            self.push_ack(peer);
            return;
        }
        // Mark the ack *owed*. It folds into the next outgoing datagram
        // toward `peer` (data frames always carry the current cumulative
        // ack), or the host flushes it standalone via `flush_owed_ack`.
        self.ensure_peer(peer);
        if self.ack_owed[peer] {
            // Already owed: the cumulative cursor covers both
            // obligations, so this second ack rides the pending one for
            // free — one standalone frame (or one fold) now services two
            // acks. Count the avoided frame.
            self.stats.bytes_acked_piggyback += ACK_FRAME_LEN as u64;
        } else {
            self.ack_owed[peer] = true;
        }
    }

    /// Queue a standalone `Ack` frame carrying the current cumulative
    /// cursor toward `peer`.
    fn push_ack(&mut self, peer: SiteId) {
        let ack = {
            let chan = self.chan(peer);
            chan.ack_sent = chan.ack_sent.max(chan.accepted_in);
            chan.accepted_in
        };
        self.outbox.push((peer, Frame::Ack { ack }));
        self.stats.ack_frames_sent += 1;
        self.stats.bytes_sent += ACK_FRAME_LEN as u64;
        let datagram = self.pending_datagram_id(peer);
        self.obs.emit_with(self.me as u32, || EventKind::VmAck {
            to: peer as u32,
            upto: ack,
            datagram,
        });
    }

    /// Flush an owed ack toward `peer` as a standalone `Ack` frame
    /// (queued; the next [`drain_datagrams_into`](Self::drain_datagrams_into)
    /// ships it as an ack-only datagram). Returns whether an ack was
    /// actually owed. The host calls this once a flush has left the ack
    /// without reverse data traffic to piggyback on.
    pub fn flush_owed_ack(&mut self, peer: SiteId) -> bool {
        if peer >= self.ack_owed.len() || !self.ack_owed[peer] {
            return false;
        }
        self.ack_owed[peer] = false;
        self.push_ack(peer);
        true
    }

    /// [`flush_owed_ack`](Self::flush_owed_ack) toward every peer, in
    /// ascending peer order. Returns whether any ack was owed.
    pub fn flush_owed_acks(&mut self) -> bool {
        if !self.ack_owed.contains(&true) {
            return false; // the common case: one scan, no per-peer calls
        }
        let mut owed = false;
        for peer in 0..self.ack_owed.len() {
            owed |= self.flush_owed_ack(peer);
        }
        owed
    }

    /// Whether `peer` is owed a standalone ack.
    pub fn has_owed_ack(&self, peer: SiteId) -> bool {
        self.ack_owed.get(peer).copied().unwrap_or(false)
    }

    /// Mark the start of processing an incoming datagram: subsequent
    /// `VmAccept` events carry `id` until the next datagram begins.
    #[inline]
    pub fn begin_datagram(&mut self, id: u64) {
        self.in_datagram = id;
    }

    /// Move the Vms whose lifecycles completed (cumulative ack observed)
    /// since the last call into `out` (appending), as `(peer, seq,
    /// payload)` with the payload each was created with. Hosts use this
    /// to release per-item bookkeeping (e.g. "outstanding Vms for item d").
    #[inline]
    pub fn drain_completed_into(&mut self, out: &mut Vec<(SiteId, Seq, Bytes)>) {
        out.append(&mut self.completed);
    }
}
