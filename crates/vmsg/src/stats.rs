//! Vm protocol counters. The ones a `VmSend` or `VmAccept` event
//! records are folds of those events ([`Fold`]).

use dvp_obs::{EventKind, Fold};

/// Counters for one [`VmEndpoint`](crate::endpoint::VmEndpoint).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Vms created (durable sender-side records written).
    pub created: u64,
    /// Vms accepted (durable receiver-side records written).
    pub accepted: u64,
    /// Vms whose lifecycle completed (cumulative ack observed).
    pub completed: u64,
    /// Data frames put on the wire (originals + retransmissions).
    pub data_frames_sent: u64,
    /// Of which, retransmissions.
    pub retransmissions: u64,
    /// Standalone ack frames sent.
    pub ack_frames_sent: u64,
    /// Duplicate data frames discarded.
    pub duplicates_discarded: u64,
    /// Data frames that arrived ahead of the accept cursor. Each is held
    /// (up to a window per channel) until its predecessors are accepted;
    /// see [`take_ready`](crate::endpoint::VmEndpoint::take_ready).
    pub out_of_order_held: u64,
    /// Channels a retransmit tick did *not* visit because they had no
    /// in-flight Vms (idle-aware retransmission).
    pub idle_channels_skipped: u64,
    /// Coalesced wire datagrams put on the network (0 unless
    /// [`coalesce`](crate::endpoint::VmConfig::coalesce) is on).
    pub datagrams_sent: u64,
    /// Total encoded wire bytes sent: every frame's encoded size, plus
    /// one datagram header per datagram when coalescing.
    pub bytes_sent: u64,
    /// Wire bytes *saved* by piggybacking acks — each saving is one
    /// avoided encoded standalone ack frame
    /// ([`ACK_FRAME_LEN`](crate::codec::ACK_FRAME_LEN) bytes). Three
    /// channels: a data-bearing datagram whose refreshed cumulative
    /// cursor *advances* what this endpoint last put on the wire toward
    /// the peer (the routine case — the ack rides the data for free), an
    /// owed standalone ack folded into an outgoing data datagram, and a
    /// second ack obligation merged into one already owed (the
    /// cumulative cursor covers both).
    pub bytes_acked_piggyback: u64,
    /// Always 0: datagrams carry nothing but frames. Kept only because
    /// `benchmark/` still reads it.
    pub hints_sent: u64,
    /// Always 0, like the field above, and kept for the same reason.
    pub hint_bytes_sent: u64,
}

impl Fold for VmStats {
    #[inline]
    fn fold(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::VmSend { retransmit, .. } => {
                self.data_frames_sent += 1;
                self.retransmissions += u64::from(retransmit);
            }
            EventKind::VmAccept { receipt, .. } => match receipt {
                "duplicate" => self.duplicates_discarded += 1,
                "out_of_order" => self.out_of_order_held += 1,
                _ => {}
            },
            _ => {}
        }
    }
}

impl VmStats {
    /// Accumulate another endpoint's counters into this one (used for
    /// cluster-wide aggregation in reports).
    pub fn absorb(&mut self, o: &VmStats) {
        self.created += o.created;
        self.accepted += o.accepted;
        self.completed += o.completed;
        self.data_frames_sent += o.data_frames_sent;
        self.retransmissions += o.retransmissions;
        self.ack_frames_sent += o.ack_frames_sent;
        self.duplicates_discarded += o.duplicates_discarded;
        self.out_of_order_held += o.out_of_order_held;
        self.idle_channels_skipped += o.idle_channels_skipped;
        self.datagrams_sent += o.datagrams_sent;
        self.bytes_sent += o.bytes_sent;
        self.bytes_acked_piggyback += o.bytes_acked_piggyback;
    }
}
