//! The sending side: minting Vms, the outbox, and window-limited
//! retransmission of whatever is still unacked.

use super::VmEndpoint;
use crate::channel::Seq;
use crate::codec::frame_wire_len;
use crate::frame::Frame;
use crate::logop::VmLogOp;
use crate::SiteId;
use bytes::Bytes;
use dvp_obs::EventKind;

impl VmEndpoint {
    /// Mint a Vm carrying `payload` toward `to`.
    ///
    /// Returns the [`VmLogOp::Created`] the host **must force to its log
    /// before** draining the outbox — the Vm exists from that log write,
    /// not from transmission. The first real message is queued here.
    #[must_use = "the returned VmLogOp must be written to the host's stable log"]
    pub fn create(&mut self, to: SiteId, payload: Bytes) -> VmLogOp {
        assert_ne!(to, self.me, "a site does not send Vms to itself");
        let seq = self.chan(to).create(payload.clone());
        self.mark_dirty(to);
        self.stats.created += 1;
        let ack = self.chan(to).accepted_in;
        // Transmit immediately only if within the window.
        let window_base = self.chan(to).acked_out;
        if seq <= window_base + self.cfg.window as Seq {
            let frame = Frame::Data {
                seq,
                ack,
                payload: payload.clone(),
            };
            self.stats.data_frames_sent += 1;
            self.stats.bytes_sent += frame_wire_len(&frame) as u64;
            self.outbox.push((to, frame));
            self.chan(to).highest_sent = seq;
            let datagram = self.pending_datagram_id(to);
            self.obs.emit_with(self.me as u32, || EventKind::VmSend {
                to: to as u32,
                vseq: seq,
                retransmit: false,
                datagram,
            });
        }
        VmLogOp::Created { to, seq, payload }
    }

    /// Queue retransmissions of every unacked outgoing Vm (window-limited,
    /// lowest sequence numbers first). The host calls this on its
    /// retransmit timer.
    ///
    /// Only dirty channels (`in_flight() > 0`) are visited; fully-acked
    /// peers cost nothing here, however many a long run accumulates.
    pub fn tick(&mut self) {
        let VmEndpoint {
            me,
            cfg,
            chans,
            chan_count,
            dirty,
            dirty_count,
            outbox,
            next_datagram,
            stats,
            obs,
            ..
        } = self;
        stats.idle_channels_skipped += (*chan_count - *dirty_count) as u64;
        for (peer, slot) in chans.iter_mut().enumerate() {
            if !dirty[peer] {
                continue;
            }
            let chan = slot.as_mut().expect("dirty channels exist");
            let base = chan.acked_out;
            let ack = chan.accepted_in;
            let datagram = if cfg.coalesce {
                next_datagram[peer] + 1
            } else {
                0
            };
            let highest_sent = chan.highest_sent;
            let retx_before = chan.retx_before;
            let mut max_in_window = highest_sent;
            for &(seq, ref payload) in chan
                .outgoing
                .iter()
                .take_while(|&&(s, _)| s <= base + cfg.window as Seq)
            {
                max_in_window = max_in_window.max(seq);
                // Coalescing pacing: a frame first sent since the previous
                // tick gets one tick of grace — its ack may still be in
                // flight, and retransmitting into that race only burns
                // datagrams.
                // First transmissions (frames the window just admitted)
                // always go out.
                if cfg.coalesce && seq <= highest_sent && seq > retx_before {
                    continue;
                }
                let frame = Frame::Data {
                    seq,
                    ack,
                    payload: payload.clone(),
                };
                stats.retransmissions += 1;
                stats.data_frames_sent += 1;
                stats.bytes_sent += frame_wire_len(&frame) as u64;
                outbox.push((peer, frame));
                obs.emit_with(*me as u32, || EventKind::VmSend {
                    to: peer as u32,
                    vseq: seq,
                    retransmit: true,
                    datagram,
                });
            }
            // Everything in the window has now been handed to the wire at
            // least once; all of it is fair game at the next tick.
            chan.highest_sent = max_in_window;
            chan.retx_before = max_in_window;
        }
    }

    /// Take all frames queued for transmission.
    pub fn drain_outbox(&mut self) -> Vec<(SiteId, Frame)> {
        std::mem::take(&mut self.outbox)
    }

    /// Move all queued frames into `out` (appending), keeping this
    /// endpoint's outbox buffer allocated. Hot-path hosts drain into a
    /// reusable scratch vector instead of taking a fresh `Vec` per
    /// dispatch ([`drain_outbox`](Self::drain_outbox) stays for the
    /// occasional callers and doc examples).
    pub fn drain_outbox_into(&mut self, out: &mut Vec<(SiteId, Frame)>) {
        out.append(&mut self.outbox);
    }
}
