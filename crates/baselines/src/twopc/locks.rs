//! Strict-2PL exclusive locks with FIFO wait queues, per item.

use dvp_core::clock::Ts;
use dvp_core::ItemId;
use dvp_simnet::NodeId;
use std::collections::VecDeque;

/// What became of a lock request.
pub(super) enum Request {
    /// The item was free: the requester holds it now.
    Granted,
    /// The requester already held it (a duplicate request).
    Held,
    /// Someone else holds it: the request waits its turn.
    Queued,
}

/// The participant-side lock table: dense per-item tables indexed by
/// `item.0`. Volatile.
pub(super) struct LockTable {
    /// Each item's holder.
    held: Vec<Option<Ts>>,
    /// Each item's waiting `(transaction, its coordinator)` pairs, oldest
    /// first.
    queues: Vec<VecDeque<(Ts, NodeId)>>,
}

impl LockTable {
    /// A table of `items` free locks.
    pub(super) fn new(items: usize) -> Self {
        LockTable {
            held: vec![None; items],
            queues: vec![VecDeque::new(); items],
        }
    }

    /// `ts` (coordinated at `from`) asks for `item`.
    pub(super) fn request(&mut self, item: ItemId, ts: Ts, from: NodeId) -> Request {
        let k = item.0 as usize;
        match self.held[k] {
            Some(holder) if holder == ts => Request::Held,
            Some(_) => {
                self.queues[k].push_back((ts, from));
                Request::Queued
            }
            None => {
                self.held[k] = Some(ts);
                Request::Granted
            }
        }
    }

    /// `ts` lets go of `item` (a no-op unless it is the holder). The lock
    /// passes to the oldest waiter, which is returned.
    pub(super) fn release(&mut self, item: ItemId, ts: Ts) -> Option<(Ts, NodeId)> {
        let k = item.0 as usize;
        if self.held[k] != Some(ts) {
            return None;
        }
        let next = self.queues[k].pop_front();
        self.held[k] = next.map(|(t, _)| t);
        next
    }

    /// Drop every queued request of `ts`.
    pub(super) fn forget_waiter(&mut self, ts: Ts) {
        for q in &mut self.queues {
            q.retain(|(t, _)| *t != ts);
        }
    }

    /// Recovery re-takes the lock of an in-doubt transaction.
    pub(super) fn retake(&mut self, item: ItemId, ts: Ts) {
        self.held[item.0 as usize] = Some(ts);
    }

    /// A crash: holders and waiters are forgotten.
    pub(super) fn clear(&mut self) {
        self.held.fill(None);
        self.queues.iter_mut().for_each(VecDeque::clear);
    }
}
