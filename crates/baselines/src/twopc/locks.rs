//! Strict-2PL exclusive locks with FIFO wait queues, per item.

use dvp_core::clock::Ts;
use dvp_core::ItemId;
use dvp_simnet::NodeId;
use std::collections::{BTreeMap, VecDeque};

/// What became of a lock request.
pub(super) enum Request {
    /// The item was free: the requester holds it now.
    Granted,
    /// The requester already held it (a duplicate request).
    Held,
    /// Someone else holds it: the request waits its turn.
    Queued,
}

/// The participant-side lock table. Volatile.
#[derive(Default)]
pub(super) struct LockTable {
    held: BTreeMap<ItemId, Ts>,
    /// Waiting `(transaction, its coordinator)` pairs, oldest first.
    queues: BTreeMap<ItemId, VecDeque<(Ts, NodeId)>>,
}

impl LockTable {
    /// `ts` (coordinated at `from`) asks for `item`.
    pub(super) fn request(&mut self, item: ItemId, ts: Ts, from: NodeId) -> Request {
        match self.held.get(&item) {
            Some(&holder) if holder == ts => Request::Held,
            Some(_) => {
                self.queues.entry(item).or_default().push_back((ts, from));
                Request::Queued
            }
            None => {
                self.held.insert(item, ts);
                Request::Granted
            }
        }
    }

    /// `ts` lets go of `item` (a no-op unless it is the holder). The lock
    /// passes to the oldest waiter, which is returned.
    pub(super) fn release(&mut self, item: ItemId, ts: Ts) -> Option<(Ts, NodeId)> {
        if self.held.get(&item) != Some(&ts) {
            return None;
        }
        self.held.remove(&item);
        let next = self.queues.get_mut(&item)?.pop_front()?;
        self.held.insert(item, next.0);
        Some(next)
    }

    /// Drop every queued request of `ts`.
    pub(super) fn forget_waiter(&mut self, ts: Ts) {
        for q in self.queues.values_mut() {
            q.retain(|(t, _)| *t != ts);
        }
    }

    /// Recovery re-takes the lock of an in-doubt transaction.
    pub(super) fn retake(&mut self, item: ItemId, ts: Ts) {
        self.held.insert(item, ts);
    }

    /// A crash: holders and waiters are forgotten.
    pub(super) fn clear(&mut self) {
        self.held.clear();
        self.queues.clear();
    }
}
