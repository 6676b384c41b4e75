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
        /// Every writer, this one included (3PC cooperative termination
        /// peer set).
        peers: Sites,
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
    /// gets a free batching advantage in wire comparisons. Each inner
    /// message keeps its own Lamport stamp; the receiver unpacks and
    /// handles them in order.
    /// Never nested.
    Batch(Vec<TradMsg>),
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
    /// as a vector of 8-byte ids). The traditional engine exchanges
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
    /// Encoded length of the body's fields (excluding the 9-byte
    /// lamport+tag header; see [`TradMsg::wire_len`]).
    fn wire_len(&self) -> u64 {
        match self {
            TradBody::LockReq { .. } => 8 + 4,
            TradBody::LockGrant { .. } => 8 + 4 + 8 + 8,
            TradBody::Prepare { writes, peers, .. } => {
                8 + 4 + 20 * writes.len() as u64 + 4 + 8 * peers.len() as u64
            }
            TradBody::Vote { .. } | TradBody::Decision { .. } => 8 + 1,
            TradBody::DecisionAck { .. }
            | TradBody::DecisionQuery { .. }
            | TradBody::ReleaseLocks { .. }
            | TradBody::PreCommit { .. }
            | TradBody::PreAck { .. }
            | TradBody::StateQuery { .. } => 8,
            TradBody::StateReply { .. } => 8 + 1,
            TradBody::Batch(msgs) => 4 + msgs.iter().map(TradMsg::wire_len).sum::<u64>(),
        }
    }
}
