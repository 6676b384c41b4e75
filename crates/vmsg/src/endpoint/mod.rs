//! The per-site Vm endpoint.
//!
//! One struct, split by which protocol duty owns the state: `send`
//! (minting, the outbox, window-limited retransmission on each channel's
//! deadline), `recv`
//! (classification, the cumulative cursor, the ack duty), `datagram`
//! (per-peer assembly of what the outbox holds into wire datagrams) and
//! `recovery` (crash wipe, log replay, checkpoint images). This file
//! holds the types, the per-peer tables and read-only inspection.

mod datagram;
mod recovery;
mod recv;
mod send;

pub use recovery::ChannelSnapshot;

use crate::channel::{Channel, Seq};
use crate::frame::Frame;
use crate::rto::RtoEstimator;
use crate::stats::VmStats;
use crate::SiteId;
use bytes::Bytes;
use dvp_obs::Obs;

/// Tuning knobs for the Vm protocol. There is one ack mode: every
/// acceptance owes the sender an ack, and a duplicate is answered with
/// one too.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Max distinct unacked Vms on the wire per channel (the
    /// sliding-window size; creation is never limited — Vms beyond the
    /// window wait durably until an ack admits them).
    pub window: usize,
    /// Link-level coalescing: instead of one wire message per frame, the
    /// host drains [`drain_datagrams_into`](VmEndpoint::drain_datagrams_into)
    /// — one [`WireDatagram`](crate::WireDatagram) per peer per flush
    /// boundary — and an ack is *owed*: it folds into the next outgoing
    /// datagram toward the peer, or the host flushes it standalone via
    /// [`flush_owed_ack`](VmEndpoint::flush_owed_ack). Off by default at
    /// this layer so the endpoint stands alone, queueing each ack as a
    /// bare frame at once; a DvP site always turns it on.
    pub coalesce: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            window: 16,
            coalesce: false,
        }
    }
}

/// What [`VmEndpoint::on_frame`] tells the host about an arrival. The
/// payload type is the frame's: owned [`Bytes`] by default, or a slice
/// borrowed from a datagram's image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Receipt<P = Bytes> {
    /// A new in-order Vm. The host must either accept it — durably log
    /// its database actions plus
    /// [`VmLogOp::Accepted`](crate::VmLogOp::Accepted) and then call
    /// [`VmEndpoint::commit_accept`] — or ignore it (it will be
    /// retransmitted).
    Fresh {
        /// Channel sequence number (pass back to `commit_accept`).
        seq: Seq,
        /// Host payload.
        payload: P,
    },
    /// Already accepted earlier; discarded (the ack was refreshed).
    Duplicate,
    /// Ahead of the accept cursor. Cumulative acks require in-order
    /// acceptance, so the endpoint holds it (volatile) and hands it over
    /// by [`VmEndpoint::take_ready`] once its predecessors are accepted.
    OutOfOrder,
    /// A standalone ack frame; nothing for the host to do.
    AckOnly,
}

/// Per-site Virtual Message endpoint.
///
/// Owns volatile channel state; durability is delegated to the host's log
/// via [`VmLogOp`](crate::VmLogOp) (see the crate docs for the full contract).
///
/// Channel state is **index-dense**: site ids are small dense integers,
/// so every per-peer table is a `Vec` indexed by peer id, and iteration
/// is in ascending peer order (which the golden obs traces pin).
///
/// ```
/// use dvp_vmsg::{Receipt, VmConfig, VmEndpoint};
/// use bytes::Bytes;
///
/// let mut sender = VmEndpoint::new(0, VmConfig::default());
/// let mut receiver = VmEndpoint::new(1, VmConfig::default());
///
/// // Mint a Vm (the returned op goes into the sender's stable log)...
/// let _created = sender.create(1, Bytes::from_static(b"5 seats"));
/// // ...carry its frames across the (here: perfect) network...
/// for (_, frame) in sender.drain_outbox() {
///     if let Receipt::Fresh { seq, payload } = receiver.on_frame(0, frame) {
///         assert_eq!(&payload[..], b"5 seats");
///         let _accepted = receiver.commit_accept(0, seq); // log this too
///     }
/// }
/// // ...and let the ack complete the lifecycle.
/// for (_, frame) in receiver.drain_outbox() {
///     sender.on_frame(1, frame);
/// }
/// assert!(!sender.has_outstanding());
/// ```
#[derive(Clone, Debug)]
pub struct VmEndpoint {
    me: SiteId,
    cfg: VmConfig,
    /// The host's clock (µs), as last told by
    /// [`advance_clock`](Self::advance_clock): what sends are stamped
    /// with, samples measured against and deadlines compared to.
    now: u64,
    /// Every round-trip sample and bound any channel took, pooled: where
    /// a channel that has measured nothing starts. Volatile.
    seed: RtoEstimator,
    /// Channel state per peer, indexed by peer id. `None` means the
    /// channel was never touched (the dense equivalent of "absent from
    /// the map"); slots materialize on first use and are emptied — but
    /// never shrunk — by `crash_reset`.
    chans: Vec<Option<Channel>>,
    /// Number of materialized (`Some`) entries in `chans`.
    chan_count: usize,
    /// Peers whose channel has unacked outgoing Vms. Kept exactly in sync
    /// with `chans` (`in_flight() > 0` ⇔ set) so `tick` and
    /// `has_outstanding` never scan idle channels.
    dirty: Vec<bool>,
    /// Number of set entries in `dirty`.
    dirty_count: usize,
    /// Frames ready to put on the wire.
    outbox: Vec<(SiteId, Frame)>,
    /// Vms whose lifecycle completed since the last drain (peer, seq, payload).
    completed: Vec<(SiteId, Seq, Bytes)>,
    /// Peers owed a standalone ack (coalesce mode only): the ack rides
    /// the next data datagram that way, or a `flush_owed_ack`.
    ack_owed: Vec<bool>,
    /// Next outgoing datagram id per peer (coalesce mode only; ids are
    /// 1-based and per-(site, peer)). Survives `crash_reset`.
    next_datagram: Vec<u64>,
    /// Per-peer regroup buffers for the datagram drain: frames are
    /// bucketed here per flush and the buffers' allocations are kept
    /// across flushes (always empty between calls).
    groups: Vec<Vec<Frame>>,
    /// Id of the incoming datagram currently being processed (set by
    /// [`begin_datagram`](Self::begin_datagram); 0 = non-coalesced frame).
    in_datagram: u64,
    stats: VmStats,
    /// Structured-observability handle (disabled by default; the host
    /// shares the cluster-wide handle via [`VmEndpoint::set_obs`]).
    obs: Obs,
}

impl VmEndpoint {
    /// A fresh endpoint for site `me`.
    pub fn new(me: SiteId, cfg: VmConfig) -> Self {
        VmEndpoint {
            me,
            cfg,
            now: 0,
            seed: RtoEstimator::default(),
            chans: Vec::new(),
            chan_count: 0,
            dirty: Vec::new(),
            dirty_count: 0,
            outbox: Vec::new(),
            completed: Vec::new(),
            ack_owed: Vec::new(),
            next_datagram: Vec::new(),
            groups: Vec::new(),
            in_datagram: 0,
            stats: VmStats::default(),
            obs: Obs::disabled(),
        }
    }

    /// Attach a structured-observability handle (Vm channel events are
    /// emitted through it; timestamps come from the simulation kernel).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// This endpoint's site id.
    pub fn site(&self) -> SiteId {
        self.me
    }

    /// Protocol counters.
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// Tell the endpoint the host's time (µs, never decreasing). The
    /// host calls this as it starts handling each event, before any
    /// other call: round trips are measured and deadlines set against it.
    #[inline]
    pub fn advance_clock(&mut self, now: u64) {
        debug_assert!(now >= self.now, "the clock runs backwards");
        self.now = now;
    }

    /// The earliest instant (µs) at which a channel is due for
    /// retransmission, or `None` with nothing unacked. The host arms its
    /// one retransmit timer here and calls [`tick`](Self::tick) when it
    /// fires. A recovered channel is due at once (instant 0).
    #[inline]
    pub fn next_deadline(&self) -> Option<u64> {
        if self.dirty_count == 0 {
            return None;
        }
        self.chans
            .iter()
            .zip(&self.dirty)
            .filter(|&(_, &dirty)| dirty)
            .filter_map(|(c, _)| c.as_ref().map(|c| c.deadline))
            .min()
    }

    /// Something arrived from `peer` outside the Vm frames (a Vm frame
    /// counts by itself): the peer is up, so a channel toward it that
    /// backed off falls back to its base timeout.
    #[inline]
    pub fn heard_from(&mut self, peer: SiteId) {
        let now = self.now;
        if let Some(Some(c)) = self.chans.get_mut(peer) {
            c.heard(now);
        }
    }

    /// Grow every peer-indexed table to cover `peer`. `next_datagram` is
    /// grown but never cleared — its contents outlive crashes.
    #[inline]
    fn ensure_peer(&mut self, peer: SiteId) {
        if peer < self.chans.len() {
            return;
        }
        let n = peer + 1;
        self.chans.resize_with(n, || None);
        self.dirty.resize(n, false);
        self.ack_owed.resize(n, false);
        self.groups.resize_with(n, Vec::new);
        if n > self.next_datagram.len() {
            self.next_datagram.resize(n, 0);
        }
    }

    #[inline]
    fn chan(&mut self, peer: SiteId) -> &mut Channel {
        self.ensure_peer(peer);
        let slot = &mut self.chans[peer];
        if slot.is_none() {
            *slot = Some(Channel::default());
            self.chan_count += 1;
        }
        slot.as_mut().expect("just materialized")
    }

    fn chan_ref(&self, peer: SiteId) -> Option<&Channel> {
        self.chans.get(peer).and_then(|c| c.as_ref())
    }

    fn mark_dirty(&mut self, peer: SiteId) {
        self.ensure_peer(peer);
        if !self.dirty[peer] {
            self.dirty[peer] = true;
            self.dirty_count += 1;
        }
    }

    fn clear_dirty(&mut self, peer: SiteId) {
        if peer < self.dirty.len() && self.dirty[peer] {
            self.dirty[peer] = false;
            self.dirty_count -= 1;
        }
    }

    // ---- inspection -----------------------------------------------------

    /// Number of created-but-unacked Vms toward `peer`.
    pub fn in_flight_to(&self, peer: SiteId) -> usize {
        self.chan_ref(peer).map_or(0, |c| c.in_flight())
    }

    /// The cumulative ack currently advertised to `peer`.
    pub fn ack_for(&self, peer: SiteId) -> Seq {
        self.chan_ref(peer).map_or(0, |c| c.accepted_in)
    }

    /// Unacked outgoing Vms toward `peer` as `(seq, payload)`, ascending.
    /// The conservation auditor uses this to value in-flight Vms.
    ///
    /// Lazily iterates the channel state — no `Vec` is built. The yielded
    /// `Bytes` payloads are refcounted slices, so each "clone" is a
    /// pointer copy plus a counter bump, never a payload copy.
    pub fn outgoing_toward(&self, peer: SiteId) -> impl Iterator<Item = (Seq, Bytes)> + '_ {
        self.chan_ref(peer)
            .into_iter()
            .flat_map(|c| c.outgoing.iter().cloned())
    }

    /// Peers this endpoint has channel state with, in ascending order.
    pub fn peers(&self) -> Vec<SiteId> {
        self.chans
            .iter()
            .enumerate()
            .filter_map(|(peer, c)| c.as_ref().map(|_| peer))
            .collect()
    }

    /// Whether any channel still has unacked outgoing Vms (i.e. a
    /// deadline is pending). O(1): the dirty count tracks exactly the
    /// channels with in-flight Vms.
    #[inline]
    pub fn has_outstanding(&self) -> bool {
        self.dirty_count > 0
    }

    /// Highest ack observed from `peer` (for emitting `AckObserved` ops).
    pub fn acked_out(&self, peer: SiteId) -> Seq {
        self.chan_ref(peer).map_or(0, |c| c.acked_out)
    }

    /// Highest sequence number ever created toward `peer` (channel-oracle
    /// input: together with `acked_out` it bounds the live window).
    pub fn last_created(&self, peer: SiteId) -> Seq {
        self.chan_ref(peer).map_or(0, |c| c.last_created)
    }
}

#[cfg(test)]
mod tests;
#[cfg(test)]
mod timing_tests;
