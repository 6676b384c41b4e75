//! The typed facts events carry where a tag string used to stand: why a
//! transaction aborted, and how a Vm receive window classified a frame.
//! Each renders to the same tag in the JSONL encoding; a fold matches on
//! the type, so a misspelt tag does not compile.

/// Why a DvP transaction aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortReason {
    /// Solicited value / read grants did not arrive in time (Section 5,
    /// Step 3 — the pessimistic timeout).
    Timeout,
    /// A required local data value was already locked (Conc1 fail-fast).
    LockConflict,
    /// The Conc1 timestamp check `TS(t) > TS(d)` failed.
    TsConflict,
    /// The home site crashed while the transaction was in flight.
    Crashed,
}

impl AbortReason {
    /// All reasons, for tabulation, in declaration order: `reason as
    /// usize` indexes it.
    pub const ALL: [AbortReason; 4] = [
        AbortReason::Timeout,
        AbortReason::LockConflict,
        AbortReason::TsConflict,
        AbortReason::Crashed,
    ];

    /// Static tag for trace events.
    pub fn tag(self) -> &'static str {
        match self {
            AbortReason::Timeout => "timeout",
            AbortReason::LockConflict => "lock_conflict",
            AbortReason::TsConflict => "ts_conflict",
            AbortReason::Crashed => "crashed",
        }
    }
}

/// Why a traditional (2PC/3PC) transaction aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TradAbort {
    /// Lock acquisition / quorum assembly timed out.
    Timeout,
    /// Application logic rejected (e.g. insufficient value for a Decr).
    Insufficient,
    /// A participant voted NO.
    VoteNo,
    /// The coordinator crashed mid-protocol.
    Crashed,
}

impl TradAbort {
    /// All reasons, in declaration order: `reason as usize` indexes it.
    pub const ALL: [TradAbort; 4] = [
        TradAbort::Timeout,
        TradAbort::Insufficient,
        TradAbort::VoteNo,
        TradAbort::Crashed,
    ];

    /// Static tag for trace events.
    pub fn tag(self) -> &'static str {
        match self {
            TradAbort::Timeout => "timeout",
            TradAbort::Insufficient => "insufficient",
            TradAbort::VoteNo => "vote_no",
            TradAbort::Crashed => "crashed",
        }
    }
}

/// The reason a [`TxnAbort`](crate::EventKind::TxnAbort) carries: one
/// engine's own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortCause {
    /// A DvP site's abort.
    Dvp(AbortReason),
    /// A 2PC/3PC coordinator's abort.
    Trad(TradAbort),
}

impl AbortCause {
    /// Static tag for trace events: the engine's reason's own.
    pub fn tag(self) -> &'static str {
        match self {
            AbortCause::Dvp(r) => r.tag(),
            AbortCause::Trad(r) => r.tag(),
        }
    }
}

impl From<AbortReason> for AbortCause {
    fn from(r: AbortReason) -> Self {
        AbortCause::Dvp(r)
    }
}

impl From<TradAbort> for AbortCause {
    fn from(r: TradAbort) -> Self {
        AbortCause::Trad(r)
    }
}

/// How a Vm receive window classified an arriving data frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmReceipt {
    /// The next frame in sequence (or a held one now in order).
    Fresh,
    /// Already accepted: discarded, and its ack refreshed.
    Duplicate,
    /// Ahead of a missing predecessor: held until it is in order.
    OutOfOrder,
}

impl VmReceipt {
    /// Every class, in declaration order.
    pub const ALL: [VmReceipt; 3] = [
        VmReceipt::Fresh,
        VmReceipt::Duplicate,
        VmReceipt::OutOfOrder,
    ];

    /// The class whose [`tag`](Self::tag) is `tag`, if any.
    pub fn of(tag: &str) -> Option<VmReceipt> {
        Self::ALL.into_iter().find(|r| r.tag() == tag)
    }

    /// Static tag for trace events.
    pub fn tag(self) -> &'static str {
        match self {
            VmReceipt::Fresh => "fresh",
            VmReceipt::Duplicate => "duplicate",
            VmReceipt::OutOfOrder => "out_of_order",
        }
    }
}
