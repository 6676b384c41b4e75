//! The timer lane: an indexed min-heap with in-place cancellation.
//!
//! Timers used to ride the main event heap, with cancellation recorded in
//! a side `HashSet` of tombstones that every pop had to consult — cancelled
//! timers stayed in the queue until their instant came around, inflating
//! queue depth and wasting pops. Here they live in their own lane: a
//! binary min-heap ordered by `(at, seq)` plus a position table by timer
//! id, so `cancel` removes the entry immediately in `O(log n)` and the fire
//! path never sees dead timers.
//!
//! The position table is dense, not hashed: the kernel hands out timer ids
//! sequentially, so `id - base` indexes a sliding window (`VecDeque<u32>`)
//! whose dead front is trimmed as timers fire or are cancelled. Every heap
//! swap writes two table entries, so this is the lane's hottest store.
//!
//! Determinism: `seq` comes from the kernel's one global counter (shared
//! with the other lanes), so merging the lanes by `(at, seq)` replays the
//! exact total order the single-queue kernel produced.
//!
//! A timer set and cancelled inside one callback never gets here: the
//! node's `Context` annuls the pair before the kernel applies its actions.
//!
//! The lane's methods are `#[inline]`: it is driven from the generic
//! kernel, which is instantiated in the crate that names the node type,
//! and the release profile has no LTO to inline across that boundary.

use crate::event::Key;
use crate::time::SimTime;
use crate::NodeId;
use std::collections::VecDeque;

/// Table value for an id with no armed timer.
const DEAD: u32 = u32::MAX;

/// The window is never cut below this many ids.
const MIN_WINDOW: usize = 1024;

/// The window may span this many ids per armed timer before it is cut.
const WINDOW_PER_TIMER: usize = 8;

/// One armed timer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimerEntry {
    pub at: SimTime,
    pub seq: u64,
    pub node: NodeId,
    pub id: u64,
    pub tag: u64,
    pub epoch: u32,
}

impl TimerEntry {
    #[inline]
    fn key(&self) -> Key {
        (self.at, self.seq)
    }
}

/// Indexed binary min-heap of pending timers.
#[derive(Debug, Default)]
pub(crate) struct TimerLane {
    heap: Vec<TimerEntry>,
    /// `pos[id - base]` is the index in `heap` of armed timer `id`, or
    /// [`DEAD`]. The front entry is always live (or the window is empty).
    pos: VecDeque<u32>,
    /// Timer id of `pos[0]`.
    base: u64,
    /// Armed timers with `id < base`. One long-lived timer would otherwise
    /// pin the window's front while every later id extends its back, so
    /// when the window outgrows the armed count it is cut and the timers
    /// left behind are found by scanning `heap` instead. Zero in steady
    /// state, which keeps late cancels of old ids free.
    stragglers: usize,
}

impl TimerLane {
    #[inline]
    pub fn new() -> Self {
        TimerLane::default()
    }

    /// Number of armed timers.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Key of the earliest timer, if any.
    #[inline]
    pub fn peek_key(&self) -> Option<Key> {
        self.heap.first().map(TimerEntry::key)
    }

    /// Arm a timer. Ids must be handed in increasing order (the kernel's
    /// counter guarantees it; gaps are fine).
    #[inline]
    pub fn schedule(&mut self, e: TimerEntry) {
        if self.pos.is_empty() {
            self.base = e.id;
        }
        assert!(
            e.id >= self.base + self.pos.len() as u64,
            "timer id reused or out of order"
        );
        let off = (e.id - self.base) as usize;
        let i = self.heap.len();
        assert!(i < DEAD as usize, "too many armed timers");
        self.pos.resize(off, DEAD);
        self.pos.push_back(i as u32);
        self.heap.push(e);
        self.sift_up(i);
        if self.pos.len() > MIN_WINDOW.max(WINDOW_PER_TIMER * self.heap.len()) {
            self.cut_window();
        }
    }

    /// Disarm timer `id` in place. Returns whether it was pending.
    #[inline]
    pub fn cancel(&mut self, id: u64) -> bool {
        let i = match id.checked_sub(self.base) {
            Some(off) => match self.pos.get(off as usize) {
                Some(&i) if i != DEAD => i as usize,
                _ => return false,
            },
            None if self.stragglers == 0 => return false,
            None => match self.heap.iter().position(|e| e.id == id) {
                Some(i) => i,
                None => return false,
            },
        };
        self.forget(id);
        self.remove_at(i);
        true
    }

    /// Remove and return the earliest timer.
    #[inline]
    pub fn pop(&mut self) -> Option<TimerEntry> {
        let e = *self.heap.first()?;
        self.forget(e.id);
        self.remove_at(0);
        Some(e)
    }

    /// Number of ids the position table currently spans.
    #[cfg(test)]
    pub fn window_len(&self) -> usize {
        self.pos.len()
    }

    /// Record that armed timer `id` now sits at heap index `i`.
    #[inline]
    fn set_pos(&mut self, id: u64, i: usize) {
        if let Some(off) = id.checked_sub(self.base) {
            self.pos[off as usize] = i as u32;
        }
    }

    /// Drop armed timer `id` from the table and trim the dead front.
    #[inline]
    fn forget(&mut self, id: u64) {
        if id < self.base {
            self.stragglers -= 1;
            return;
        }
        self.pos[(id - self.base) as usize] = DEAD;
        self.trim_front();
    }

    /// Slide the window past ids that are no longer armed.
    #[inline]
    fn trim_front(&mut self) {
        while self.pos.front() == Some(&DEAD) {
            self.pos.pop_front();
            self.base += 1;
        }
    }

    /// Drop the older half of the window, leaving its armed timers as
    /// stragglers. Every id in the window was issued by one `set_timer`
    /// and is dropped once, so the amortised cost per timer is constant.
    #[cold]
    fn cut_window(&mut self) {
        let cut = self.pos.len() / 2;
        self.stragglers += self.pos.drain(..cut).filter(|&i| i != DEAD).count();
        self.base += cut as u64;
        self.trim_front();
    }

    /// Remove the entry at heap index `i` (already forgotten by the table)
    /// and restore the heap invariant.
    #[inline]
    fn remove_at(&mut self, i: usize) {
        let last = self.heap.len() - 1;
        if i == last {
            self.heap.pop();
            return;
        }
        self.heap.swap(i, last);
        self.heap.pop();
        self.set_pos(self.heap[i].id, i);
        // The moved element may violate the invariant in either direction.
        self.sift_down(i);
        self.sift_up(i);
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].key() >= self.heap[parent].key() {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let smallest = if r < self.heap.len() && self.heap[r].key() < self.heap[l].key() {
                r
            } else {
                l
            };
            if self.heap[smallest].key() >= self.heap[i].key() {
                break;
            }
            self.swap(i, smallest);
            i = smallest;
        }
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.set_pos(self.heap[a].id, a);
        self.set_pos(self.heap[b].id, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(at: u64, seq: u64, id: u64) -> TimerEntry {
        TimerEntry {
            at: SimTime(at),
            seq,
            node: 0,
            id,
            tag: 0,
            epoch: 0,
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut l = TimerLane::new();
        l.schedule(e(30, 3, 0));
        l.schedule(e(10, 7, 1));
        l.schedule(e(10, 2, 2));
        l.schedule(e(20, 5, 3));
        let order: Vec<u64> = std::iter::from_fn(|| l.pop().map(|t| t.id)).collect();
        assert_eq!(order, vec![2, 1, 3, 0]);
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn cancel_removes_in_place() {
        let mut l = TimerLane::new();
        for i in 0..10 {
            l.schedule(e(100 - i, i, i));
        }
        assert!(l.cancel(5));
        assert!(!l.cancel(5), "double cancel is a no-op");
        assert!(l.cancel(9));
        assert_eq!(l.len(), 8);
        let ids: Vec<u64> = std::iter::from_fn(|| l.pop().map(|t| t.id)).collect();
        assert_eq!(ids, vec![8, 7, 6, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn cancel_never_fired_and_unknown_ids() {
        let mut l = TimerLane::new();
        assert!(!l.cancel(42), "unknown id");
        l.schedule(e(1, 0, 7));
        let p = l.pop().unwrap();
        assert_eq!(p.id, 7);
        assert!(!l.cancel(7), "already fired: no tombstone, no effect");
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn long_timer_does_not_pin_the_position_table() {
        // One timer stays armed while 100k short ones come and go. A pure
        // sliding window would span every id issued since the long timer;
        // the cut keeps it bounded and the long timer stays reachable.
        let mut l = TimerLane::new();
        l.schedule(e(u64::MAX, 0, 0));
        let mut widest = 0;
        for id in 1..=100_000u64 {
            l.schedule(e(id, id, id));
            // Alternate the two ways a short timer dies.
            if id % 2 == 0 {
                assert!(l.cancel(id));
            } else {
                assert_eq!(l.pop().unwrap().id, id);
            }
            widest = widest.max(l.window_len());
        }
        assert!(widest <= MIN_WINDOW + 1, "window reached {widest}");
        assert_eq!(l.len(), 1);
        assert!(!l.cancel(1), "long-dead id behind the window");
        assert!(l.cancel(0), "the straggler is still cancellable");
        assert!(!l.cancel(0));
        assert_eq!((l.len(), l.stragglers), (0, 0));
    }

    #[test]
    fn stragglers_fire_in_order_and_leave_late_cancels_free() {
        let mut l = TimerLane::new();
        // Ten old timers due last, then enough dead ids to cut them loose.
        for id in 0..10u64 {
            l.schedule(e(1_000_000 + id, id, id));
        }
        for id in 10..3_000u64 {
            l.schedule(e(id, id, id));
            assert!(l.cancel(id));
        }
        assert_eq!(l.stragglers, 10);
        assert!(l.window_len() <= MIN_WINDOW);
        // Tracked and untracked timers share one heap.
        l.schedule(e(5, 3_000, 3_000));
        assert!(l.cancel(4), "cancel a straggler");
        let ids: Vec<u64> = std::iter::from_fn(|| l.pop().map(|t| t.id)).collect();
        assert_eq!(ids, vec![3_000, 0, 1, 2, 3, 5, 6, 7, 8, 9]);
        assert_eq!(l.stragglers, 0);
        assert!(!l.cancel(2), "already fired");
    }

    #[test]
    fn interleaved_schedule_cancel_pop_stays_consistent() {
        let mut l = TimerLane::new();
        // Deterministic pseudo-random workout of the index maintenance.
        let mut live: Vec<u64> = Vec::new();
        let mut x = 12345u64;
        for id in 0..500u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            l.schedule(e(x % 1000, id, id));
            live.push(id);
            if x.is_multiple_of(3) {
                let victim = live[(x % live.len() as u64) as usize];
                if l.cancel(victim) {
                    live.retain(|&v| v != victim);
                }
            }
            if x.is_multiple_of(5) {
                if let Some(p) = l.pop() {
                    live.retain(|&v| v != p.id);
                }
            }
        }
        let mut drained: Vec<(SimTime, u64)> = Vec::new();
        while let Some(p) = l.pop() {
            drained.push((p.at, p.seq));
            live.retain(|&v| v != p.id);
        }
        assert!(live.is_empty());
        let mut sorted = drained.clone();
        sorted.sort();
        assert_eq!(drained, sorted, "pop order must be (at, seq) sorted");
    }
}
