//! The sending side: minting Vms, the outbox, and window-limited
//! retransmission of whatever is still unacked once its channel's
//! deadline passes.

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
        let (now, seed) = (self.now, self.seed);
        let chan = self.chan(to);
        if chan.in_flight() == 0 {
            chan.arm(now, &seed);
        }
        let seq = chan.create(payload.clone());
        self.mark_dirty(to);
        self.stats.created += 1;
        // Transmit immediately only if within the window.
        if seq <= self.chan(to).acked_out + self.cfg.window as Seq {
            self.send_first(to, seq, payload.clone());
        }
        VmLogOp::Created { to, seq, payload }
    }

    /// Queue the first transmission of Vm `seq` toward `to`.
    fn send_first(&mut self, to: SiteId, seq: Seq, payload: Bytes) {
        let now = self.now;
        let chan = self.chan(to);
        chan.sent_first(seq, now);
        let frame = Frame::Data {
            seq,
            ack: chan.accepted_in,
            payload,
        };
        self.stats.bytes_sent += frame_wire_len(&frame) as u64;
        self.outbox.push((to, frame));
        let send = EventKind::VmSend {
            to: to as u32,
            vseq: seq,
            retransmit: false,
            datagram: self.pending_datagram_id(to),
        };
        self.obs.record(self.me as u32, send, &mut self.stats);
    }

    /// Queue the first transmissions an ack just let into the window:
    /// the unacked Vms above `old_base + window`, up to the new base's
    /// window. Everything below was sent when it was created or when an
    /// earlier ack admitted it.
    pub(super) fn send_admitted(&mut self, to: SiteId, old_base: Seq) {
        let window = self.cfg.window as Seq;
        let Some(chan) = self.chans[to].as_ref() else {
            return;
        };
        let (lo, hi) = (old_base + window, chan.acked_out + window);
        if chan.last_created <= lo {
            return;
        }
        let mut i = chan.outgoing.partition_point(|&(seq, _)| seq <= lo);
        while let Some((seq, payload)) = self.chans[to]
            .as_ref()
            .and_then(|c| c.outgoing.get(i))
            .filter(|&&(seq, _)| seq <= hi)
            .cloned()
        {
            self.send_first(to, seq, payload);
            i += 1;
        }
    }

    /// Queue retransmissions toward every peer whose channel is due at
    /// the endpoint's clock (see [`advance_clock`](Self::advance_clock)):
    /// its unacked Vms, window-limited, lowest sequence numbers first.
    /// Each such channel then doubles its timeout until an ack makes
    /// progress. The host calls this when its retransmit timer, armed at
    /// [`next_deadline`](Self::next_deadline), fires.
    ///
    /// Only dirty channels (`in_flight() > 0`) are visited; fully-acked
    /// peers cost nothing here, however many a long run accumulates.
    pub fn tick(&mut self) {
        let VmEndpoint {
            me,
            cfg,
            now,
            chans,
            chan_count,
            dirty,
            dirty_count,
            outbox,
            next_datagram,
            seed,
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
            if chan.deadline > *now {
                continue;
            }
            let base = chan.acked_out;
            let ack = chan.accepted_in;
            let datagram = if cfg.coalesce {
                next_datagram[peer] + 1
            } else {
                0
            };
            let mut upto = base;
            for &(seq, ref payload) in chan
                .outgoing
                .iter()
                .take_while(|&&(s, _)| s <= base + cfg.window as Seq)
            {
                upto = seq;
                let frame = Frame::Data {
                    seq,
                    ack,
                    payload: payload.clone(),
                };
                stats.bytes_sent += frame_wire_len(&frame) as u64;
                outbox.push((peer, frame));
                let send = EventKind::VmSend {
                    to: peer as u32,
                    vseq: seq,
                    retransmit: true,
                    datagram,
                };
                obs.record(*me as u32, send, stats);
            }
            chan.resent(upto, *now, seed);
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
