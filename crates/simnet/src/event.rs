//! Pending-work lanes for everything that is not a timer.
//!
//! All pending work is totally ordered by `(time, seq)` where `seq` is a
//! global monotone counter assigned at scheduling time. The tiebreaker makes
//! the run deterministic *and* gives a fixed-delay network its "every site
//! sees broadcasts in the same order" property: equal-delay deliveries
//! inherit the ordering of their sends.
//!
//! Two of the kernel's three lanes live here (the third is
//! `crate::timers`); the run loop merges all three by that key:
//!
//! * `ScheduledLane` — arrivals, crashes and recoveries, which enter
//!   through `Simulation::schedule_*`. A workload script is not
//!   loaded here: an `ArrivalStream` reserves its arrivals' `seq` values
//!   up front and keeps only its next arrival in the lane, and dispatching
//!   that arrival inserts the one after it. The lane therefore holds about
//!   one entry per node plus the fault plan, in a `Vec` sorted on insertion
//!   and popped from the end.
//! * `MessageHeap` — in-flight deliveries only, so it stays as shallow as
//!   the protocol's window. The heap orders small `Copy` keys; the message
//!   itself waits in a slab slot and never moves during a sift.

use crate::time::SimTime;
use crate::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The total-order key every lane is merged on.
pub(crate) type Key = (SimTime, u64);

/// What a scheduled entry does when its instant arrives.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ScheduledKind {
    /// Arrival `tag` of the node's [`ArrivalStream`]: handed to
    /// `on_external`, then the stream's next arrival takes its place.
    Arrival,
    /// Crash the node.
    Crash,
    /// Recover the node.
    Recover,
}

/// One entry of the scheduled lane, 32 bytes. Every sorted insertion
/// shifts the entries due after it, so they stay slim.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Scheduled {
    pub at: SimTime,
    pub seq: u64,
    /// The arrival's index in its stream; unused by crash/recover.
    pub tag: u64,
    pub node: u32,
    pub kind: ScheduledKind,
}

impl Scheduled {
    #[inline]
    fn key(&self) -> Key {
        (self.at, self.seq)
    }
}

/// Arrivals and faults, sorted on insertion.
///
/// Entries are held in *descending* key order so the next one due is
/// popped from the end. Keys are unique, so where an entry goes is
/// determined. The lane is short — an arrival stream keeps one entry in
/// it, not its whole script — so inserting costs a binary search and a
/// shift of the few entries due after the new one.
#[derive(Debug, Default)]
pub(crate) struct ScheduledLane {
    entries: Vec<Scheduled>,
}

impl ScheduledLane {
    /// Number of pending entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Add an entry; any `at`, in any order.
    pub fn push(&mut self, e: Scheduled) {
        let pos = self.entries.partition_point(|due| due.key() > e.key());
        self.entries.insert(pos, e);
    }

    /// Key of the next entry due, if any.
    #[inline]
    pub fn peek_key(&self) -> Option<Key> {
        self.entries.last().map(Scheduled::key)
    }

    /// Remove and return the entry [`peek_key`](Self::peek_key) reports.
    #[inline]
    pub fn pop(&mut self) -> Option<Scheduled> {
        self.entries.pop()
    }
}

/// One node's scripted arrivals, drawn one at a time.
///
/// Arrival `k` is due at `next_at(k)`, clamped to the instant it is drawn,
/// and carries `seq = base + k` and tag `k`. Only the arrival due next is
/// in the lane. `next_at` is a cursor: it is called once for each `k`, in
/// order, and only after arrival `k - 1` left the lane.
pub(crate) struct ArrivalStream {
    pub next_at: Box<dyn FnMut(usize) -> SimTime>,
    pub len: usize,
    pub base: u64,
}

impl ArrivalStream {
    /// Draw arrival `k` at `node` at instant `now` and return its lane
    /// entry.
    pub fn arrival(&mut self, node: u32, k: usize, now: SimTime) -> Scheduled {
        Scheduled {
            at: (self.next_at)(k).max(now),
            seq: self.base + k as u64,
            tag: k as u64,
            node,
            kind: ScheduledKind::Arrival,
        }
    }
}

/// A message on the wire.
#[derive(Debug)]
pub(crate) struct InFlight<M> {
    pub from: NodeId,
    pub to: NodeId,
    pub msg: M,
}

/// What the message heap actually sifts: `(at, seq, slot)`, 24 bytes,
/// `Copy`. `Reverse` because `BinaryHeap` is a max-heap and the earliest
/// key is wanted; `seq` is unique, so `slot` never decides an ordering.
type MsgKey = Reverse<(SimTime, u64, u32)>;

/// One slab slot: a parked message, or a link in the free list.
#[derive(Debug)]
enum Slot<M> {
    Full(InFlight<M>),
    Vacant { next_free: u32 },
}

/// End of the free list.
const NO_SLOT: u32 = u32::MAX;

/// In-flight deliveries: a min-heap of [`MsgKey`]s over a free-list slab
/// of parked messages.
#[derive(Debug)]
pub(crate) struct MessageHeap<M> {
    heap: BinaryHeap<MsgKey>,
    slots: Vec<Slot<M>>,
    /// First vacant slot (they chain through `next_free`), reused before
    /// the slab grows.
    free: u32,
}

impl<M> Default for MessageHeap<M> {
    fn default() -> Self {
        MessageHeap {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: NO_SLOT,
        }
    }
}

impl<M> MessageHeap<M> {
    /// Number of messages in flight.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Park `m` until `(at, seq)` comes due.
    pub fn push(&mut self, at: SimTime, seq: u64, m: InFlight<M>) {
        let slot = match self.slots.get_mut(self.free as usize) {
            Some(vacant) => {
                let Slot::Vacant { next_free } = *vacant else {
                    unreachable!("free list points at a parked message");
                };
                *vacant = Slot::Full(m);
                std::mem::replace(&mut self.free, next_free)
            }
            None => {
                let slot = self.slots.len();
                assert!(slot < NO_SLOT as usize, "too many messages in flight");
                self.slots.push(Slot::Full(m));
                slot as u32
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
    }

    /// Key of the earliest delivery, if any.
    #[inline]
    pub fn peek_key(&self) -> Option<Key> {
        self.heap.peek().map(|&Reverse((at, seq, _))| (at, seq))
    }

    /// Remove and return the earliest delivery.
    pub fn pop(&mut self) -> Option<InFlight<M>> {
        let Reverse((_, _, slot)) = self.heap.pop()?;
        let vacant = Slot::Vacant {
            next_free: self.free,
        };
        self.free = slot;
        match std::mem::replace(&mut self.slots[slot as usize], vacant) {
            Slot::Full(m) => Some(m),
            Slot::Vacant { .. } => unreachable!("heap key points at a vacant slot"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(at: u64, seq: u64) -> Scheduled {
        Scheduled {
            at: SimTime(at),
            seq,
            tag: seq,
            node: 0,
            kind: ScheduledKind::Arrival,
        }
    }

    fn drain(l: &mut ScheduledLane) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| l.pop().map(|e| (e.at.0, e.seq))).collect()
    }

    #[test]
    fn entries_stay_slim() {
        assert_eq!(std::mem::size_of::<Scheduled>(), 32);
        assert_eq!(std::mem::size_of::<MsgKey>(), 24);
    }

    #[test]
    fn scheduled_lane_pops_earliest_first_ties_by_seq() {
        let mut l = ScheduledLane::default();
        for (at, seq) in [(30, 0), (10, 1), (20, 2), (10, 3), (10, 4)] {
            l.push(sched(at, seq));
        }
        assert_eq!(l.len(), 5);
        assert_eq!(
            drain(&mut l),
            vec![(10, 1), (10, 3), (10, 4), (20, 2), (30, 0)]
        );
    }

    #[test]
    fn scheduled_lane_accepts_pushes_between_pops() {
        let mut l = ScheduledLane::default();
        l.push(sched(10, 0));
        l.push(sched(50, 1));
        assert_eq!(l.peek_key(), Some((SimTime(10), 0)));
        l.pop();
        // Later than, equal to, and earlier than what is still pending.
        l.push(sched(70, 2));
        l.push(sched(50, 3));
        l.push(sched(20, 4));
        assert_eq!(drain(&mut l), vec![(20, 4), (50, 1), (50, 3), (70, 2)]);
    }

    #[test]
    fn message_heap_orders_by_key_and_reuses_slots() {
        let mut h: MessageHeap<u64> = MessageHeap::default();
        let m = |msg| InFlight {
            from: 0,
            to: 1,
            msg,
        };
        h.push(SimTime(30), 0, m(30));
        h.push(SimTime(10), 5, m(15));
        h.push(SimTime(10), 2, m(12));
        assert_eq!(h.peek_key(), Some((SimTime(10), 2)));
        assert_eq!(h.pop().unwrap().msg, 12);
        h.push(SimTime(20), 6, m(26));
        assert_eq!(h.slots.len(), 3, "the popped slot is reused");
        let order: Vec<u64> = std::iter::from_fn(|| h.pop().map(|f| f.msg)).collect();
        assert_eq!(order, vec![15, 26, 30]);
        assert_eq!(h.len(), 0);
        assert_eq!(h.peek_key(), None);
    }
}
