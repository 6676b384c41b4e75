//! The receiving side: classifying arrivals against the accept cursor,
//! and the ack duty that follows from accepting — owed, piggybacked, or
//! flushed standalone.

use super::{Receipt, VmEndpoint};
use crate::channel::{Classify, Seq};
use crate::codec::ACK_FRAME_LEN;
use crate::frame::Frame;
use crate::logop::VmLogOp;
use crate::SiteId;
use dvp_obs::EventKind;

impl VmEndpoint {
    /// Process an arriving frame from `from`.
    pub fn on_frame(&mut self, from: SiteId, frame: Frame) -> Receipt {
        // Any frame's ack releases our outgoing state toward `from`.
        let released = self.chan(from).on_ack(frame.ack());
        if !released.is_empty() {
            if self.chan(from).in_flight() == 0 {
                self.clear_dirty(from);
            }
            self.stats.acks_effective += 1;
            self.stats.completed += released.len() as u64;
            self.completed
                .extend(released.into_iter().map(|s| (from, s)));
        }
        let Frame::Data { seq, payload, .. } = frame else {
            return Receipt::AckOnly;
        };
        let class = self.chan(from).classify(seq);
        let datagram = self.in_datagram;
        self.obs.emit_with(self.me as u32, || EventKind::VmAccept {
            from: from as u32,
            vseq: seq,
            receipt: match class {
                Classify::Duplicate => "duplicate",
                Classify::OutOfOrder => "out_of_order",
                Classify::Next => "fresh",
            },
            datagram,
        });
        match class {
            Classify::Duplicate => {
                self.stats.duplicates_discarded += 1;
                // A duplicate proves the sender missed the ack: refresh it
                // whatever `eager_acks` says, so the sender can stop
                // resending (the window protocol's own rule; `eager_acks`
                // governs fresh frames only).
                self.queue_ack(from);
                Receipt::Duplicate
            }
            Classify::OutOfOrder => {
                self.stats.out_of_order_discarded += 1;
                Receipt::OutOfOrder
            }
            Classify::Next => Receipt::Fresh { seq, payload },
        }
    }

    /// The host has durably logged acceptance of `(from, seq)`; advance the
    /// cumulative-ack cursor and (optionally) queue an eager ack.
    ///
    /// Returns the [`VmLogOp::Accepted`] for symmetry with `create` — the
    /// host should have written exactly this op in the record it just
    /// forced (the method exists so replay and live paths share code).
    pub fn commit_accept(&mut self, from: SiteId, seq: Seq) -> VmLogOp {
        self.chan(from).commit_accept(seq);
        self.stats.accepted += 1;
        if self.cfg.eager_acks {
            self.queue_ack(from);
        }
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

    /// Whether `peer` is owed a standalone ack.
    pub fn has_owed_ack(&self, peer: SiteId) -> bool {
        self.ack_owed.get(peer).copied().unwrap_or(false)
    }

    /// Mark the start of processing an incoming datagram: subsequent
    /// `VmAccept` events carry `id` until the next datagram begins.
    pub fn begin_datagram(&mut self, id: u64) {
        self.in_datagram = id;
    }

    /// Move the `(peer, seq)` pairs whose lifecycles completed (cumulative
    /// ack observed) since the last call into `out` (appending). Hosts
    /// use this to release per-item bookkeeping (e.g. "outstanding Vms
    /// for item d").
    pub fn drain_completed_into(&mut self, out: &mut Vec<(SiteId, Seq)>) {
        out.append(&mut self.completed);
    }
}
