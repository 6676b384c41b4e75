//! Datagram assembly (coalesce mode): everything the outbox holds for a
//! peer at a flush boundary leaves as one [`WireDatagram`], with the
//! ack duty folded in.

use super::VmEndpoint;
use crate::codec::{WireDatagram, ACK_FRAME_LEN, DATAGRAM_HEADER_LEN};
use crate::frame::Frame;
use crate::SiteId;
use dvp_obs::EventKind;

impl VmEndpoint {
    /// The datagram id the next drained datagram toward `peer` will get
    /// (0 when coalescing is off). Frames queued now ride exactly that
    /// datagram — the host drains at every flush boundary — so `VmSend`
    /// events can carry the id before the datagram is assembled.
    pub(super) fn pending_datagram_id(&self, peer: SiteId) -> u64 {
        if !self.cfg.coalesce {
            return 0;
        }
        self.next_datagram.get(peer).copied().unwrap_or(0) + 1
    }

    /// Drain all queued frames as **one encoded datagram per peer**,
    /// appending `(peer, datagram)` pairs to `out` in ascending peer
    /// order. Per-peer frame order is preserved; each data frame's
    /// piggybacked ack is refreshed to the current cumulative cursor, and
    /// any *owed* standalone ack toward a peer with outgoing data is
    /// folded away. A data-bearing datagram that services an owed ack or
    /// advances the on-wire ack cursor counts one avoided standalone
    /// frame in [`VmStats::bytes_acked_piggyback`](crate::VmStats::bytes_acked_piggyback).
    /// Owed acks toward peers with no outgoing data stay owed — the host
    /// flushes them via [`flush_owed_ack`](Self::flush_owed_ack).
    ///
    /// `_now` is unused: the endpoint's clock comes from
    /// [`advance_clock`](Self::advance_clock), and the signature is the
    /// one `benchmark/` compiles against.
    pub fn drain_datagrams_into(&mut self, _now: u64, out: &mut Vec<(SiteId, WireDatagram)>) {
        if self.outbox.is_empty() {
            return;
        }
        // Bucket per peer into the persistent regroup buffers, preserving
        // per-peer FIFO order; peers are then visited in index order.
        let mut frames = std::mem::take(&mut self.outbox);
        for (to, f) in frames.drain(..) {
            self.ensure_peer(to);
            self.groups[to].push(f);
        }
        self.outbox = frames; // keep the allocation
        for to in 0..self.groups.len() {
            if self.groups[to].is_empty() {
                continue;
            }
            let mut group = std::mem::take(&mut self.groups[to]);
            self.next_datagram[to] += 1;
            let id = self.next_datagram[to];
            let ack_now = self.chan_ref(to).map_or(0, |c| c.accepted_in);
            let mut has_data = false;
            for f in &mut group {
                if let Frame::Data { ack, .. } = f {
                    *ack = ack_now;
                    has_data = true;
                }
            }
            if has_data {
                // A data-bearing datagram services the ack duty for free:
                // every data frame carries the refreshed cumulative cursor.
                // Count the avoided standalone frame whenever an ack was
                // owed *or* the cursor on the wire advances past what this
                // endpoint last transmitted toward the peer — without the
                // piggyback, either case costs one encoded `Frame::Ack`.
                let owed = std::mem::replace(&mut self.ack_owed[to], false);
                let chan = self.chan(to);
                let advanced = ack_now > chan.ack_sent;
                chan.ack_sent = ack_now;
                if owed || advanced {
                    self.stats.bytes_acked_piggyback += ACK_FRAME_LEN as u64;
                    self.obs.emit_with(self.me as u32, || EventKind::VmAck {
                        to: to as u32,
                        upto: ack_now,
                        datagram: id,
                    });
                }
            }
            let wire = WireDatagram::encode(id, &group);
            self.stats.datagrams_sent += 1;
            self.stats.bytes_sent += DATAGRAM_HEADER_LEN as u64;
            group.clear();
            self.groups[to] = group; // keep the allocation
            out.push((to, wire));
        }
    }
}
