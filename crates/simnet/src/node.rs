//! The actor interface: [`Node`] and its per-callback [`Context`].
//!
//! Side effects requested inside a callback are buffered as `Action`s in
//! the `Context` and applied by the kernel after the callback returns. This
//! keeps callbacks pure with respect to the event queue (no re-entrancy)
//! and lets the kernel timestamp every send with the same "now".
//!
//! A timer set and cancelled inside the same callback is annulled in the
//! `Context`: the cancel drops the buffered `SetTimer`, so the pair never
//! reaches the timer lane. The one exception is a cancel buffered after
//! [`Context::crash_self`], which is applied literally (see
//! [`Context::cancel_timer`]).

use crate::time::{SimDuration, SimTime};
use crate::NodeId;

/// Handle to a pending timer; used for cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Raw identifier (unique within a simulation run).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Buffered side effect.
#[derive(Debug)]
pub(crate) enum Action<M> {
    Send {
        to: NodeId,
        msg: M,
        frames: u64,
        bytes: u64,
    },
    SetTimer {
        id: TimerId,
        at: SimTime,
        tag: u64,
    },
    CancelTimer {
        id: TimerId,
    },
    CrashSelf,
}

/// Per-callback environment handed to every [`Node`] method.
pub struct Context<'a, M> {
    now: SimTime,
    me: NodeId,
    next_timer: &'a mut u64,
    /// The first timer id issued in this callback: an older id cannot
    /// have its `SetTimer` buffered here.
    first_timer: u64,
    /// `crash_self` was called in this callback.
    crashed: bool,
    /// Timers set and cancelled in this callback, each pair dropped from
    /// `actions`. The kernel counts them as suppressed.
    pub(crate) annulled: u64,
    pub(crate) actions: Vec<Action<M>>,
}

impl<'a, M> Context<'a, M> {
    pub(crate) fn new(now: SimTime, me: NodeId, next_timer: &'a mut u64) -> Self {
        Context {
            now,
            me,
            first_timer: *next_timer,
            next_timer,
            crashed: false,
            annulled: 0,
            actions: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Send `msg` to `to`. Delivery (or loss) is decided by the network
    /// model; the sender learns nothing either way.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send {
            to,
            msg,
            frames: 1,
            bytes: 0,
        });
    }

    /// Send `msg` to `to`, declaring both its logical frame count and its
    /// encoded wire length in bytes.
    ///
    /// A message may coalesce `frames` logical protocol frames into one
    /// transmission (link-level batching). The kernel treats it as a
    /// single wire event — one delay draw, one loss/duplication decision —
    /// but accounts all `frames` in
    /// [`NetStats::frames_sent`](crate::stats::NetStats::frames_sent) so
    /// logical message traffic stays comparable across batching modes.
    /// The byte figure feeds
    /// [`NetStats::wire_bytes`](crate::stats::NetStats::wire_bytes) — the
    /// engine-neutral wire-volume counter the cross-engine benchmarks
    /// compare — and nothing else: delivery, delay and loss are decided
    /// exactly as for [`send`](Self::send). Protocols whose
    /// messages are in-memory values (the 2PC baseline) declare a
    /// deterministic encoded-length estimate here; byte-codec protocols
    /// declare their real encoded size. `bytes = 0` means "undeclared".
    pub fn send_frames_bytes(&mut self, to: NodeId, msg: M, frames: u64, bytes: u64) {
        self.actions.push(Action::Send {
            to,
            msg,
            frames,
            bytes,
        });
    }

    /// Arrange for `on_timer(id, tag)` to fire after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.actions.push(Action::SetTimer {
            id,
            at: self.now + delay,
            tag,
        });
        id
    }

    /// Cancel a pending timer. Cancelling an already-fired or foreign timer
    /// is a no-op.
    ///
    /// A timer set earlier in this same callback is annulled here: its
    /// `SetTimer` is dropped from the buffer, so neither the timer lane
    /// nor the kernel's action loop sees the pair, and it counts once in
    /// [`NetStats::timers_suppressed`](crate::stats::NetStats::timers_suppressed),
    /// as a cancel in the lane does. Every other pending entry keeps its
    /// relative order. After [`crash_self`](Self::crash_self) nothing is
    /// annulled: the cancel is buffered behind the crash and discarded
    /// with it, and a timer armed before the crash pops suppressed.
    pub fn cancel_timer(&mut self, id: TimerId) {
        if id.0 >= self.first_timer && !self.crashed {
            let set = self
                .actions
                .iter()
                .rposition(|a| matches!(a, Action::SetTimer { id: t, .. } if *t == id));
            if let Some(i) = set {
                self.actions.remove(i);
                self.annulled += 1;
                return;
            }
        }
        self.actions.push(Action::CancelTimer { id });
    }

    /// Crash this node at the current instant (fault injection /
    /// crashpoints).
    ///
    /// Effects requested *before* this call in the same callback still
    /// happen — they model work completed before the failure. Everything
    /// after it is discarded by the kernel: the node is marked crashed,
    /// its epoch is bumped (lazily invalidating pending timers), and
    /// [`Node::on_crash`] runs, exactly as for an externally scheduled
    /// crash event.
    pub fn crash_self(&mut self) {
        self.crashed = true;
        self.actions.push(Action::CrashSelf);
    }
}

/// A simulated site.
///
/// All methods receive a [`Context`] for side effects. Crashed nodes
/// receive no callbacks until their recovery event; messages addressed to
/// them in the interim are lost (that is what retransmission is for).
pub trait Node {
    /// Protocol message type exchanged between nodes.
    type Msg: Clone + std::fmt::Debug;

    /// Called once at simulation start (time zero), before any event.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// A message from `from` has arrived.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>);

    /// A timer set via [`Context::set_timer`] has fired.
    fn on_timer(&mut self, id: TimerId, tag: u64, ctx: &mut Context<'_, Self::Msg>) {
        let _ = (id, tag, ctx);
    }

    /// An externally injected event (e.g. a client request from a workload
    /// generator) with an opaque tag.
    fn on_external(&mut self, tag: u64, ctx: &mut Context<'_, Self::Msg>) {
        let _ = (tag, ctx);
    }

    /// The site is about to crash: volatile state must be considered gone.
    ///
    /// Implementations should *not* try to clean up protocol state here —
    /// a real crash gives no such opportunity. The hook exists only so test
    /// nodes can record that the crash happened. Stable storage owned by
    /// the node must be modelled via `dvp-storage`, whose log survives.
    fn on_crash(&mut self) {}

    /// The site restarts. Volatile state should be rebuilt from stable
    /// storage here (Section 7's recovery algorithm).
    fn on_recover(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_buffers_actions_in_order() {
        let mut next = 0u64;
        // A timer armed in an earlier callback.
        let old = Context::<'_, u32>::new(SimTime::ZERO, 0, &mut next)
            .set_timer(SimDuration::millis(9), 5);
        let mut ctx: Context<'_, u32> = Context::new(SimTime::ZERO, 0, &mut next);
        ctx.send(1, 10);
        let t = ctx.set_timer(SimDuration::millis(5), 77);
        ctx.cancel_timer(old);
        assert_eq!(ctx.actions.len(), 3);
        assert!(matches!(
            ctx.actions[0],
            Action::Send {
                to: 1,
                msg: 10,
                frames: 1,
                bytes: 0
            }
        ));
        assert!(matches!(ctx.actions[1], Action::SetTimer { id, tag: 77, .. } if id == t));
        assert!(matches!(ctx.actions[2], Action::CancelTimer { id } if id == old));
        assert_eq!(ctx.annulled, 0);
    }

    #[test]
    fn a_timer_cancelled_in_the_callback_that_set_it_is_annulled() {
        let mut next = 0u64;
        let mut ctx: Context<'_, u32> = Context::new(SimTime::ZERO, 0, &mut next);
        let a = ctx.set_timer(SimDuration::millis(5), 1);
        ctx.send(1, 10);
        let b = ctx.set_timer(SimDuration::millis(6), 2);
        ctx.cancel_timer(a);
        ctx.cancel_timer(a);
        assert_eq!(ctx.annulled, 1, "a second cancel finds nothing to annul");
        assert_eq!(ctx.actions.len(), 3);
        assert!(matches!(ctx.actions[0], Action::Send { msg: 10, .. }));
        assert!(matches!(ctx.actions[1], Action::SetTimer { id, .. } if id == b));
        assert!(matches!(ctx.actions[2], Action::CancelTimer { id } if id == a));
        assert_eq!(next, 2, "ids are still issued at set_timer");
    }

    #[test]
    fn nothing_is_annulled_after_crash_self() {
        let mut next = 0u64;
        let mut ctx: Context<'_, u32> = Context::new(SimTime::ZERO, 0, &mut next);
        let t = ctx.set_timer(SimDuration::millis(5), 1);
        ctx.crash_self();
        ctx.cancel_timer(t);
        assert_eq!(ctx.annulled, 0);
        assert!(matches!(ctx.actions[0], Action::SetTimer { id, .. } if id == t));
        assert!(matches!(ctx.actions[1], Action::CrashSelf));
        assert!(matches!(ctx.actions[2], Action::CancelTimer { id } if id == t));
    }

    #[test]
    fn timer_ids_are_unique_and_increasing() {
        let mut next = 0u64;
        let mut ctx: Context<'_, ()> = Context::new(SimTime::ZERO, 0, &mut next);
        let a = ctx.set_timer(SimDuration::millis(1), 0);
        let b = ctx.set_timer(SimDuration::millis(1), 0);
        assert!(b > a);
        assert_eq!(next, 2);
    }
}
