//! Crash, replay and checkpoint images: volatile state dies, durable
//! channel state comes back from the host's log.

use super::VmEndpoint;
use crate::channel::Seq;
use crate::logop::VmLogOp;
use crate::rto::RtoEstimator;
use crate::SiteId;
use bytes::Bytes;

impl VmEndpoint {
    /// Reset volatile state after a crash. Channel state is rebuilt by
    /// [`replay`](Self::replay); queued frames are simply lost (they were
    /// only real messages).
    pub fn crash_reset(&mut self) {
        for c in &mut self.chans {
            *c = None;
        }
        self.chan_count = 0;
        self.seed = RtoEstimator::default();
        for d in &mut self.dirty {
            *d = false;
        }
        self.dirty_count = 0;
        self.outbox.clear();
        self.completed.clear();
        for a in &mut self.ack_owed {
            *a = false;
        }
        self.in_datagram = 0;
        // `next_datagram` survives: it is pure wire-level numbering, and
        // keeping it monotone means datagram ids in a trace never repeat
        // for a (site, peer) pair across crashes.
    }

    /// Rebuild state from one durable log op (called in log order during
    /// the host's recovery scan).
    pub fn replay(&mut self, op: &VmLogOp) {
        match op {
            VmLogOp::Created { to, seq, payload } => {
                self.chan(*to).replay_created(*seq, payload.clone());
                self.mark_dirty(*to);
            }
            VmLogOp::Accepted { from, seq } => {
                let c = self.chan(*from);
                debug_assert_eq!(*seq, c.accepted_in + 1, "log replays accepts in order");
                c.accepted_in = *seq;
            }
            VmLogOp::AckObserved { to, seq } => {
                let c = self.chan(*to);
                c.on_ack(*seq, |_, _| {});
                if c.in_flight() == 0 {
                    self.clear_dirty(*to);
                }
            }
        }
    }

    /// Snapshot all durable channel state into `snaps` (for host
    /// checkpoints). The snapshot plus replay of later `VmLogOp`s
    /// reconstructs the endpoint exactly.
    ///
    /// The snapshot is owned state by design — a checkpoint must not alias
    /// the live endpoint — but the payload "copies" are `Bytes` refcount
    /// bumps, and the entries already in `snaps`, with their `outgoing`
    /// lists, are overwritten in place: a host that checkpoints into a
    /// retained buffer allocates only when a channel or an outgoing list
    /// outgrows every earlier snapshot.
    pub fn snapshot_into(&self, snaps: &mut Vec<ChannelSnapshot>) {
        let mut n = 0;
        for (peer, c) in self.chans.iter().enumerate() {
            let Some(c) = c else { continue };
            if n == snaps.len() {
                snaps.push(ChannelSnapshot::default());
            }
            let s = &mut snaps[n];
            s.peer = peer;
            s.last_created = c.last_created;
            s.acked_out = c.acked_out;
            s.accepted_in = c.accepted_in;
            s.outgoing.clear();
            s.outgoing.extend(c.outgoing.iter().cloned());
            n += 1;
        }
        snaps.truncate(n);
    }

    /// Restore channel state from a snapshot (after `crash_reset`).
    pub fn restore(&mut self, snaps: &[ChannelSnapshot]) {
        for s in snaps {
            let c = self.chan(s.peer);
            c.last_created = s.last_created;
            c.acked_out = s.acked_out;
            c.accepted_in = s.accepted_in;
            c.restore_outgoing(&s.outgoing);
            if c.in_flight() > 0 {
                self.mark_dirty(s.peer);
            } else {
                self.clear_dirty(s.peer);
            }
        }
    }
}

/// Durable image of one channel, produced by [`VmEndpoint::snapshot_into`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChannelSnapshot {
    /// Peer site.
    pub peer: SiteId,
    /// Last sequence number created toward the peer.
    pub last_created: Seq,
    /// Highest cumulative ack received from the peer.
    pub acked_out: Seq,
    /// Highest in-order sequence accepted from the peer.
    pub accepted_in: Seq,
    /// Unacked outgoing Vms.
    pub outgoing: Vec<(Seq, Bytes)>,
}
