//! Protocol messages and their declared wire size.

use crate::placement::Sites;
use crate::record::Writes;
use dvp_core::clock::Ts;
use dvp_core::ItemId;

/// Protocol message bodies.
#[derive(Clone, Debug)]
pub enum TradBody {
    /// Coordinator asks for an exclusive lock on `item`.
    LockReq {
        /// Requesting transaction.
        txn: Ts,
        /// Item to lock.
        item: ItemId,
    },
    /// Participant granted the lock; carries the replica's current state.
    LockGrant {
        /// The transaction.
        txn: Ts,
        /// The item granted.
        item: ItemId,
        /// Replica value.
        value: u64,
        /// Replica version.
        version: u64,
    },
    /// Phase 1: prepare with the writes this participant must install.
    Prepare {
        /// The transaction.
        txn: Ts,
        /// Writes for this participant.
        writes: Writes,
        /// 3PC only: every writer, this one included (the cooperative
        /// termination peer set). Under 2PC nothing reads it, so the
        /// engine sends `None` and the message declares no such field.
        peers: Option<Sites>,
    },
    /// Participant vote.
    Vote {
        /// The transaction.
        txn: Ts,
        /// YES / NO.
        yes: bool,
    },
    /// Phase 2: the coordinator's decision.
    Decision {
        /// The transaction.
        txn: Ts,
        /// True = commit.
        commit: bool,
    },
    /// Participant acknowledges having resolved the transaction.
    DecisionAck {
        /// The transaction.
        txn: Ts,
    },
    /// In-doubt participant (or recovering site) asks for the outcome.
    DecisionQuery {
        /// The transaction.
        txn: Ts,
    },
    /// Coordinator abort before prepare: release any locks held.
    ReleaseLocks {
        /// The transaction.
        txn: Ts,
    },
    /// 3PC phase 2a: every writer voted YES; commit is now inevitable
    /// unless everyone fails.
    PreCommit {
        /// The transaction.
        txn: Ts,
    },
    /// 3PC participant acknowledgement of the pre-commit.
    PreAck {
        /// The transaction.
        txn: Ts,
    },
    /// 3PC cooperative termination: "what state are you in for txn?"
    StateQuery {
        /// The transaction.
        txn: Ts,
    },
    /// Reply to a state query.
    StateReply {
        /// The transaction.
        txn: Ts,
        /// 0 = uncertain, 1 = pre-committed, 2 = committed, 3 = aborted
        /// or unknown.
        state: u8,
    },
    /// Link-level batch: every message this site queued for one peer
    /// during one dispatch, coalesced into a single wire transmission —
    /// the counterpart of the DvP engine's Vm datagram, so neither engine
    /// gets a free batching advantage in wire comparisons. The bodies
    /// ride under the batch's one Lamport stamp: the sender's clock did
    /// not move between them, so a stamp each would say nothing more.
    /// The receiver observes that stamp, then handles the bodies in
    /// order. Never nested.
    Batch(Vec<TradBody>),
}

/// The kind of a [`TradBody`], for per-kind traffic accounting
/// ([`TradMetrics::traffic`](crate::metrics::TradMetrics::traffic)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TradKind {
    /// [`TradBody::LockReq`].
    LockReq,
    /// [`TradBody::LockGrant`].
    LockGrant,
    /// [`TradBody::Prepare`].
    Prepare,
    /// [`TradBody::Vote`].
    Vote,
    /// [`TradBody::Decision`].
    Decision,
    /// [`TradBody::DecisionAck`].
    DecisionAck,
    /// [`TradBody::DecisionQuery`].
    DecisionQuery,
    /// [`TradBody::ReleaseLocks`].
    ReleaseLocks,
    /// [`TradBody::PreCommit`].
    PreCommit,
    /// [`TradBody::PreAck`].
    PreAck,
    /// [`TradBody::StateQuery`].
    StateQuery,
    /// [`TradBody::StateReply`].
    StateReply,
    /// [`TradBody::Batch`]: the envelope only, its bodies count as their
    /// own kinds.
    Batch,
}

impl TradKind {
    /// Every kind, in declaration order: `kind as usize` indexes it.
    pub const ALL: [TradKind; 13] = [
        TradKind::LockReq,
        TradKind::LockGrant,
        TradKind::Prepare,
        TradKind::Vote,
        TradKind::Decision,
        TradKind::DecisionAck,
        TradKind::DecisionQuery,
        TradKind::ReleaseLocks,
        TradKind::PreCommit,
        TradKind::PreAck,
        TradKind::StateQuery,
        TradKind::StateReply,
        TradKind::Batch,
    ];

    /// May a site hand a message of this kind to itself without the
    /// wire? Every kind but the two that acquire a lock: a lock request
    /// the home site sends itself, and the grant that answers it, keep
    /// their network timing, so a coordinator never takes its home lock
    /// ahead of a rival whose request is still in flight (see
    /// `TradNode`'s in-site decision phase).
    pub fn in_site(self) -> bool {
        !matches!(self, TradKind::LockReq | TradKind::LockGrant)
    }
}

/// A protocol message with a Lamport counter piggyback.
#[derive(Clone, Debug)]
pub struct TradMsg {
    /// Sender's Lamport counter.
    pub lamport: u64,
    /// Payload.
    pub body: TradBody,
}

impl TradMsg {
    /// Deterministic encoded-length estimate, in bytes, of the wire shape
    /// this message would have under a minimal fixed-width codec: an
    /// 8-byte Lamport stamp plus a 1-byte body tag, then the body's
    /// fields at their natural widths (`Ts` 8, `ItemId` 4, `u64` 8,
    /// `bool`/`u8` 1, vectors as a 4-byte count plus elements; a site set
    /// as a vector of 8-byte ids; an absent optional field — a 2PC
    /// `Prepare`'s writer set — as nothing). A batch's bodies ride under
    /// its one stamp: each declares its 1-byte tag and its fields. The
    /// traditional engine exchanges
    /// in-memory values, so this estimate — not a real encoder — is what
    /// it declares to
    /// [`NetStats::wire_bytes`](dvp_simnet::stats::NetStats::wire_bytes)
    /// for the cross-engine wire-volume comparison. The DvP engine
    /// declares its *actual* codec output length, so the comparison
    /// favours neither side: both count every field that would cross the
    /// wire, once.
    pub fn wire_len(&self) -> u64 {
        9 + self.body.wire_len()
    }
}

impl TradBody {
    /// This body's kind.
    pub fn kind(&self) -> TradKind {
        match self {
            TradBody::LockReq { .. } => TradKind::LockReq,
            TradBody::LockGrant { .. } => TradKind::LockGrant,
            TradBody::Prepare { .. } => TradKind::Prepare,
            TradBody::Vote { .. } => TradKind::Vote,
            TradBody::Decision { .. } => TradKind::Decision,
            TradBody::DecisionAck { .. } => TradKind::DecisionAck,
            TradBody::DecisionQuery { .. } => TradKind::DecisionQuery,
            TradBody::ReleaseLocks { .. } => TradKind::ReleaseLocks,
            TradBody::PreCommit { .. } => TradKind::PreCommit,
            TradBody::PreAck { .. } => TradKind::PreAck,
            TradBody::StateQuery { .. } => TradKind::StateQuery,
            TradBody::StateReply { .. } => TradKind::StateReply,
            TradBody::Batch(_) => TradKind::Batch,
        }
    }

    /// Encoded length of the body's fields (excluding the 9-byte
    /// lamport+tag header; see [`TradMsg::wire_len`]).
    pub(super) fn wire_len(&self) -> u64 {
        match self {
            TradBody::LockReq { .. } => 8 + 4,
            TradBody::LockGrant { .. } => 8 + 4 + 8 + 8,
            TradBody::Prepare { writes, peers, .. } => {
                let peers = peers.map_or(0, |p| 4 + 8 * p.len() as u64);
                8 + 4 + 20 * writes.len() as u64 + peers
            }
            TradBody::Vote { .. } | TradBody::Decision { .. } => 8 + 1,
            TradBody::DecisionAck { .. }
            | TradBody::DecisionQuery { .. }
            | TradBody::ReleaseLocks { .. }
            | TradBody::PreCommit { .. }
            | TradBody::PreAck { .. }
            | TradBody::StateQuery { .. } => 8,
            TradBody::StateReply { .. } => 8 + 1,
            TradBody::Batch(bodies) => 4 + bodies.iter().map(|b| 1 + b.wire_len()).sum::<u64>(),
        }
    }
}
