//! What sites say to each other: Vm datagrams, solicitations, and the
//! early lease release, each under a piggybacked Lamport counter.

use crate::clock::Ts;
use crate::item::ItemId;
use crate::Qty;
use dvp_vmsg::WireDatagram;

/// A solicitation: "send me value of `item`" (Section 3/5), as it
/// travels on the wire, waits in a Conc2 lock queue, and reaches the
/// donor's decision.
#[derive(Clone, Copy, Debug)]
pub struct Solicit {
    /// The soliciting transaction (carries its Conc1 timestamp).
    pub txn: Ts,
    /// Item whose value is needed.
    pub item: ItemId,
    /// Amount needed (ignored for reads).
    pub need: Qty,
    /// The requester's *estimated* ongoing demand for the item
    /// (its own EWMA, rounded up). Donors under adaptive placement
    /// refill toward this instead of just the instant `need`;
    /// always 0 when the adaptive subsystem is off, making the
    /// field inert there.
    pub demand: Qty,
    /// Whether this is a full-value read solicitation.
    pub read: bool,
}

impl Solicit {
    /// The read solicitation of `txn` for `item`: every fragment, no
    /// amount, no demand figure.
    pub(super) fn read(txn: Ts, item: ItemId) -> Self {
        Solicit {
            txn,
            item,
            need: 0,
            demand: 0,
            read: true,
        }
    }
}

/// Body of a protocol message.
#[derive(Clone, Debug)]
pub enum Body {
    /// A wire datagram: every Vm frame (value transfer or ack) bound for
    /// the receiver at one flush boundary, encoded as a single
    /// length-prefixed frame sequence. Loss, duplication, and
    /// reordering apply to the whole datagram — per-frame Vm semantics
    /// are unaffected because every frame is individually retransmitted
    /// until cumulatively acked.
    VmDatagram(WireDatagram),
    /// A solicitation. Requests are plain messages — never
    /// retransmitted, no unique ids needed (Section 8's optimization
    /// note) — because their loss only costs a timeout abort, never
    /// safety.
    Request(Solicit),
    /// The read transaction `txn` has decided (committed or aborted):
    /// donors may drop their read lease on `item` now instead of waiting
    /// for the lease timer. Best-effort — if lost, the lease timer is the
    /// fallback, so safety never depends on this message.
    ReleaseLease {
        /// The read transaction.
        txn: Ts,
        /// The leased item.
        item: ItemId,
    },
}

/// A protocol message: a Lamport counter piggybacked on a body.
#[derive(Clone, Debug)]
pub struct ProtoMsg {
    /// Sender's Lamport counter at send time (Section 7's "bump-up").
    pub lamport: u64,
    /// Payload.
    pub body: Body,
}

impl ProtoMsg {
    /// Deterministic wire-size estimate: 8-byte lamport + 1-byte body tag
    /// header plus the body payload. Vm datagrams use their actual codec
    /// length; plain protocol bodies use fixed-width field
    /// sums. Declared on every send so kernel [`NetStats::wire_bytes`]
    /// compares engines at the same layer as the 2PC baseline.
    ///
    /// [`NetStats::wire_bytes`]: dvp_simnet::stats::NetStats::wire_bytes
    pub fn wire_len(&self) -> u64 {
        9 + self.body.wire_len()
    }
}

impl Body {
    fn wire_len(&self) -> u64 {
        match self {
            Body::VmDatagram(wire) => wire.wire_len() as u64,
            // txn:8 item:4 need:8 demand:8 read:1
            Body::Request(_) => 8 + 4 + 8 + 8 + 1,
            // txn:8 item:4
            Body::ReleaseLease { .. } => 8 + 4,
        }
    }
}
