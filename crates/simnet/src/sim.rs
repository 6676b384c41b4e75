//! The simulation kernel.
//!
//! [`Simulation`] owns the nodes, the pending-work lanes, the network
//! model, and the clock. It is generic over one [`Node`] implementation;
//! heterogeneous systems are modelled with an enum-of-roles node (see the
//! transaction engine in `dvp-core`). The kernel keeps no record of what
//! happened beyond [`NetStats`]: the nodes observe every callback, and the
//! optional [`Obs`] handle is the one event stream.
//!
//! ## Failure semantics
//!
//! * **Crash** (`schedule_crash`, or `Context::crash_self` from inside a
//!   callback — one code path): the node's epoch is bumped, which lazily
//!   invalidates every outstanding timer; `on_crash` is invoked so the node
//!   can mark its volatile state dead; until recovery, messages addressed
//!   to the node are silently dropped and its arrivals are counted and
//!   dropped.
//! * **Recover** (`schedule_recover`): `on_recover` runs with a fresh
//!   context; the node rebuilds volatile state from its stable log.
//! * **Partition**: decided per message by the network model's oracle —
//!   checked both at send and at delivery time, so a partition also cuts
//!   messages already in flight across the new boundary.

use crate::event::{
    ArrivalStream, InFlight, Key, MessageHeap, Scheduled, ScheduledKind, ScheduledLane,
};
use crate::network::{Fate, NetworkConfig, NetworkModel};
use crate::node::{Action, Context, Node, TimerId};
use crate::rng::SimRng;
use crate::stats::NetStats;
use crate::time::SimTime;
use crate::timers::{TimerEntry, TimerLane};
use crate::NodeId;
use dvp_obs::{EventKind as ObsEvent, Obs};

/// Cap on processed events per `run_*` call; a protocol that
/// exceeds it almost certainly livelocked, and determinism means the
/// condition is reproducible.
pub const DEFAULT_EVENT_LIMIT: u64 = 200_000_000;

/// A deterministic discrete-event simulation over `n` nodes.
///
/// Pending work enters through [`schedule_arrivals`](Self::schedule_arrivals),
/// [`schedule_crash`](Self::schedule_crash) and
/// [`schedule_recover`](Self::schedule_recover), and through what each
/// callback asks of its [`Context`]; [`run_until`](Self::run_until) and
/// [`run_to_quiescence`](Self::run_to_quiescence) dispatch it in `(at, seq)`
/// order.
pub struct Simulation<N: Node> {
    nodes: Vec<N>,
    crashed: Vec<bool>,
    epoch: Vec<u32>,
    net_rng: SimRng,
    net: NetworkModel,
    /// Pending work, in three lanes by how it enters and leaves: arrivals
    /// and faults (a few per node at a time, never cancelled — an arrival
    /// stream keeps only its next arrival here), in-flight messages (few
    /// at a time, never cancelled), and armed timers (cancelled in
    /// place). All three draw `seq` from the same counter
    /// and the run loop merges them by `(at, seq)`, so the total order is
    /// identical to a single queue's.
    scheduled: ScheduledLane,
    /// Each node's arrival stream, if it was given one.
    streams: Vec<Option<ArrivalStream>>,
    /// Stream arrivals not yet in the lane, summed over the streams.
    backlog: usize,
    messages: MessageHeap<N::Msg>,
    timers: TimerLane,
    now: SimTime,
    seq: u64,
    next_timer: u64,
    /// Reusable action buffer loaned to each `Context` (callbacks never
    /// nest, so one buffer suffices) — no per-event allocation.
    scratch: Vec<Action<N::Msg>>,
    started: bool,
    stats: NetStats,
    /// Structured-observability handle: the kernel stamps it with `now`
    /// before every dispatch so instrumented layers with no clock of
    /// their own (vmsg, storage) record correct times. Disabled by
    /// default — one branch per event.
    obs: Obs,
}

impl<N: Node> Simulation<N> {
    /// Build a simulation over the given nodes, network, and seed.
    pub fn new(nodes: Vec<N>, net: NetworkConfig, seed: u64) -> Self {
        let mut root = SimRng::new(seed);
        // Each node once forked a stream here, one draw apiece: skip them
        // so the network's stream is the one every seed always had.
        for _ in 0..nodes.len() {
            root.next_u64();
        }
        let net_rng = root.fork(u64::MAX);
        let n = nodes.len();
        Simulation {
            nodes,
            crashed: vec![false; n],
            epoch: vec![0; n],
            net_rng,
            net: NetworkModel::new(net),
            scheduled: ScheduledLane::default(),
            streams: (0..n).map(|_| None).collect(),
            backlog: 0,
            messages: MessageHeap::default(),
            timers: TimerLane::new(),
            now: SimTime::ZERO,
            seq: 0,
            next_timer: 0,
            scratch: Vec::new(),
            started: false,
            stats: NetStats::default(),
            obs: Obs::disabled(),
        }
    }

    /// Attach a structured-observability handle (share the same handle
    /// with the nodes so the whole cluster writes one event stream).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The attached observability handle (disabled unless
    /// [`set_obs`](Self::set_obs) was called).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network-level counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Immutable access to all nodes (for post-run inspection).
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Immutable access to one node.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id]
    }

    /// Whether `id` is currently crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.crashed[id]
    }

    /// Number of pending events (scheduled arrivals — those of a stream
    /// not yet drawn included — and faults, in-flight messages, and armed
    /// timers).
    pub fn pending_events(&self) -> usize {
        self.resident() + self.backlog
    }

    /// Number of armed (not yet fired, not cancelled) timers.
    pub fn pending_timers(&self) -> usize {
        self.timers.len()
    }

    /// Entries resident in the three lanes: [`pending_events`](Self::pending_events)
    /// without the arrivals a stream has not drawn yet.
    #[inline]
    fn resident(&self) -> usize {
        self.scheduled.len() + self.messages.len() + self.timers.len()
    }

    // ---- scheduling -----------------------------------------------------

    /// Schedule a crash of `node` at absolute time `at`.
    ///
    /// The `schedule_*` calls may come in any order, before the first run
    /// or between `run_*` calls. An `at` already in the past is clamped to
    /// `now`; entries at equal instants fire in the order they were
    /// scheduled. Panics if there is no such `node`.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.schedule(at, node, ScheduledKind::Crash);
    }

    /// Schedule a recovery of `node` at absolute time `at`; ordering and
    /// clamping as for [`schedule_crash`](Self::schedule_crash).
    pub fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        self.schedule(at, node, ScheduledKind::Recover);
    }

    /// Schedule `len` arrivals (e.g. client requests) at `node`: arrival
    /// `k` is due at `at(k)` and reaches `on_external` with tag `k`.
    ///
    /// The arrivals are drawn one at a time: only the next one due is
    /// pending in the kernel. `at` is a cursor: it is called once for each
    /// `k`, in order, for `k = 0` here and for each later `k` once arrival
    /// `k - 1` has been dispatched, or dropped at a crashed node. Each
    /// drawn instant is clamped to `now`, as for
    /// [`schedule_crash`](Self::schedule_crash), so an `at` that decreases
    /// delays its late arrival to the instant it is drawn. Arrival `k`
    /// takes the `k`-th of `len` consecutive sequence numbers reserved
    /// here, so at equal instants the arrivals fire in stream order, after
    /// anything scheduled before this call and before anything scheduled
    /// after it. An arrival at a crashed node is dropped and counted in
    /// [`NetStats::externals_dropped`]; the stream goes on. Panics if
    /// there is no such `node` or it already has an arrival stream, empty
    /// or not.
    pub fn schedule_arrivals(
        &mut self,
        node: NodeId,
        len: usize,
        at: impl FnMut(usize) -> SimTime + 'static,
    ) {
        let id = node_index(node, self.nodes.len());
        assert!(
            self.streams[node].is_none(),
            "node {node} already has an arrival stream"
        );
        let mut stream = ArrivalStream {
            next_at: Box::new(at),
            len,
            base: self.seq,
        };
        self.seq += len as u64;
        if len > 0 {
            self.scheduled.push(stream.arrival(id, 0, self.now));
            self.backlog += len - 1;
            self.note_depth();
        }
        self.streams[node] = Some(stream);
    }

    fn schedule(&mut self, at: SimTime, node: NodeId, kind: ScheduledKind) {
        let node = node_index(node, self.nodes.len());
        let seq = self.next_seq();
        self.scheduled.push(Scheduled {
            at: at.max(self.now),
            seq,
            tag: 0,
            node,
            kind,
        });
        self.note_depth();
    }

    /// Put the arrival after `e` in its stream, if there is one, in the
    /// lane, clamped to `now`.
    fn draw_next_arrival(&mut self, e: &Scheduled) {
        let next = e.tag as usize + 1;
        let stream = self.streams[e.node as NodeId]
            .as_mut()
            .expect("an arrival has a stream");
        if next < stream.len {
            let e = stream.arrival(e.node, next, self.now);
            self.scheduled.push(e);
            self.backlog -= 1;
            self.note_depth();
        }
    }

    /// Put a message on the wire, to arrive at `at`.
    fn post(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: N::Msg) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.next_seq();
        self.messages
            .push(at.max(self.now), seq, InFlight { from, to, msg });
        self.note_depth();
    }

    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    #[inline]
    fn note_depth(&mut self) {
        let depth = self.resident() as u64;
        if depth > self.stats.peak_queue_depth {
            self.stats.peak_queue_depth = depth;
        }
    }

    // ---- running --------------------------------------------------------

    /// Run until the queue is empty or the event limit trips. Returns the
    /// number of events processed.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_internal(SimTime::MAX)
    }

    /// Run until simulated time reaches `deadline` (events at exactly
    /// `deadline` are processed). Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.run_internal(deadline)
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.dispatch(i, |node, ctx| node.on_start(ctx));
        }
    }

    fn run_internal(&mut self, deadline: SimTime) -> u64 {
        self.ensure_started();
        let mut processed = 0u64;
        // Merge the three lanes by `(at, seq)`. All draw `seq` from the
        // same counter, so keys never tie and this replays exactly the
        // total order of a single queue.
        while let Some((key, lane)) = earliest([
            (self.scheduled.peek_key(), Lane::Scheduled),
            (self.messages.peek_key(), Lane::Messages),
            (self.timers.peek_key(), Lane::Timers),
        ]) {
            if key.0 > deadline {
                break;
            }
            debug_assert!(key.0 >= self.now, "time went backwards");
            self.now = key.0;
            self.obs.set_now_us(self.now.0);
            match lane {
                Lane::Scheduled => {
                    let e = self.scheduled.pop().expect("peeked");
                    self.handle_scheduled(e);
                }
                Lane::Messages => {
                    let m = self.messages.pop().expect("peeked");
                    self.deliver(m);
                }
                Lane::Timers => {
                    let t = self.timers.pop().expect("peeked");
                    self.fire_timer(t);
                }
            }
            processed += 1;
            self.stats.events_processed += 1;
            if processed >= DEFAULT_EVENT_LIMIT {
                panic!(
                    "event limit {DEFAULT_EVENT_LIMIT} exceeded at {} — livelock?",
                    self.now
                );
            }
        }
        if deadline != SimTime::MAX && self.now < deadline {
            self.now = deadline;
        }
        processed
    }

    /// A message popped from the wire at its arrival instant.
    fn deliver(&mut self, InFlight { from, to, msg }: InFlight<N::Msg>) {
        if self.crashed[to] {
            self.stats.dropped_crashed += 1;
            return;
        }
        // A partition that arose while the message was in flight also
        // cuts it.
        if !self.net.connected(from, to, self.now) {
            self.stats.partitioned += 1;
            return;
        }
        self.stats.delivered += 1;
        self.dispatch(to, |node, ctx| node.on_message(from, msg, ctx));
    }

    /// An arrival or fault popped from the scheduled lane at its instant.
    fn handle_scheduled(&mut self, e: Scheduled) {
        let node = e.node as NodeId;
        match e.kind {
            ScheduledKind::Arrival => {
                if self.crashed[node] {
                    // A client arriving at a dead site gets nothing.
                    self.stats.externals_dropped += 1;
                } else {
                    self.dispatch(node, |n, ctx| n.on_external(e.tag, ctx));
                }
                self.draw_next_arrival(&e);
            }
            ScheduledKind::Crash => self.crash(node),
            ScheduledKind::Recover => {
                if !self.crashed[node] {
                    return;
                }
                self.crashed[node] = false;
                self.dispatch(node, |n, ctx| n.on_recover(ctx));
            }
        }
    }

    /// Crash `node` now, unless it is down already: bumping its epoch
    /// lazily invalidates every timer it armed, and `on_crash` runs.
    fn crash(&mut self, node: NodeId) {
        if self.crashed[node] {
            return;
        }
        self.crashed[node] = true;
        self.epoch[node] += 1;
        self.obs.emit(node as u32, ObsEvent::Crash);
        self.nodes[node].on_crash();
    }

    /// A timer popped from the lane at its instant. Cancellation never gets
    /// here (cancelled timers are removed from the lane in place); only the
    /// epoch/crash check remains, because a crash must lazily invalidate
    /// timers armed before it without the kernel walking the lane.
    fn fire_timer(&mut self, t: TimerEntry) {
        if self.epoch[t.node] != t.epoch || self.crashed[t.node] {
            self.stats.timers_suppressed += 1;
            return;
        }
        self.stats.timers_fired += 1;
        let (node, id, tag) = (t.node, TimerId(t.id), t.tag);
        self.dispatch(node, |n, ctx| n.on_timer(id, tag, ctx));
    }

    /// Run `f` on node `id` with a fresh context, then apply the buffered
    /// actions. The action buffer is loaned from `self.scratch` and handed
    /// back afterwards, so steady-state dispatch allocates nothing. Timers
    /// the callback set and cancelled itself were annulled in the context
    /// and only count here.
    fn dispatch<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut N, &mut Context<'_, N::Msg>),
    {
        let mut ctx = Context::new(self.now, id, &mut self.next_timer);
        ctx.actions = std::mem::take(&mut self.scratch);
        f(&mut self.nodes[id], &mut ctx);
        self.stats.timers_suppressed += ctx.annulled;
        let mut actions = ctx.actions;
        let mut crashed_self = false;
        for a in actions.drain(..) {
            if crashed_self {
                continue; // effects requested after the crashpoint never happen
            }
            match a {
                Action::Send {
                    to,
                    msg,
                    frames,
                    bytes,
                } => self.transmit(id, to, msg, frames, bytes),
                Action::SetTimer { id: tid, at, tag } => {
                    debug_assert!(at >= self.now, "cannot schedule into the past");
                    let seq = self.next_seq();
                    self.timers.schedule(TimerEntry {
                        at: at.max(self.now),
                        seq,
                        node: id,
                        id: tid.0,
                        tag,
                        epoch: self.epoch[id],
                    });
                    self.note_depth();
                }
                Action::CancelTimer { id: tid } => {
                    // Removed from the lane immediately; counted as
                    // suppressed so totals match the tombstone kernel's.
                    if self.timers.cancel(tid.0) {
                        self.stats.timers_suppressed += 1;
                    }
                }
                Action::CrashSelf => {
                    // A crashpoint inside the callback: everything buffered
                    // before this action already took effect (work completed
                    // before the failure); everything after it is discarded.
                    self.crash(id);
                    crashed_self = true;
                }
            }
        }
        self.scratch = actions;
    }

    fn transmit(&mut self, from: NodeId, to: NodeId, msg: N::Msg, frames: u64, bytes: u64) {
        self.stats.sent += 1;
        self.stats.frames_sent += frames;
        self.stats.wire_bytes += bytes;
        match self.net.route(from, to, self.now, &mut self.net_rng) {
            Fate::Lost => self.stats.lost += 1,
            Fate::Partitioned => self.stats.partitioned += 1,
            Fate::Deliver(arrivals) => match arrivals.dup {
                // Single arrival (the overwhelmingly common case): the
                // message moves into the queue — no clone.
                None => self.post(arrivals.first, from, to, msg),
                Some(dup_at) => {
                    self.stats.duplicated += 1;
                    // Post order (first, then dup) fixes seq assignment.
                    self.post(arrivals.first, from, to, msg.clone());
                    self.post(dup_at, from, to, msg);
                }
            },
        }
    }
}

/// `node` as a lane entry's node id; panics if there is no such node.
fn node_index(node: NodeId, nodes: usize) -> u32 {
    assert!(node < nodes, "no node {node}");
    u32::try_from(node).expect("node ids fit in 32 bits")
}

#[derive(Clone, Copy)]
enum Lane {
    Scheduled,
    Messages,
    Timers,
}

/// The lane whose head has the smallest key, with that key.
#[inline]
fn earliest(heads: [(Option<Key>, Lane); 3]) -> Option<(Key, Lane)> {
    let mut best: Option<(Key, Lane)> = None;
    for (head, lane) in heads {
        if let Some(key) = head {
            if best.is_none_or(|(b, _)| key < b) {
                best = Some((key, lane));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LinkConfig;
    use crate::node::TimerId;
    use crate::partition::PartitionSchedule;
    use crate::time::SimDuration;

    /// Ping-pong node: site 0 sends `k` pings to site 1, which echoes.
    #[derive(Debug, Default)]
    struct PingPong {
        to_send: u32,
        pings_seen: u32,
        pongs_seen: u32,
        crashes: u32,
        recoveries: u32,
        timer_fired: bool,
    }

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u32),
        Pong(#[allow(dead_code)] u32),
    }

    impl Node for PingPong {
        type Msg = Msg;

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for i in 0..self.to_send {
                ctx.send(1, Msg::Ping(i));
            }
        }

        fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Ping(i) => {
                    self.pings_seen += 1;
                    ctx.send(from, Msg::Pong(i));
                }
                Msg::Pong(_) => self.pongs_seen += 1,
            }
        }

        fn on_timer(&mut self, _id: TimerId, _tag: u64, _ctx: &mut Context<'_, Msg>) {
            self.timer_fired = true;
        }

        fn on_crash(&mut self) {
            self.crashes += 1;
        }

        fn on_recover(&mut self, _ctx: &mut Context<'_, Msg>) {
            self.recoveries += 1;
        }
    }

    fn two_nodes(k: u32) -> Vec<PingPong> {
        vec![
            PingPong {
                to_send: k,
                ..Default::default()
            },
            PingPong::default(),
        ]
    }

    #[test]
    fn reliable_network_delivers_everything() {
        let mut sim = Simulation::new(two_nodes(10), NetworkConfig::reliable(), 1);
        sim.run_to_quiescence();
        assert_eq!(sim.node(1).pings_seen, 10);
        assert_eq!(sim.node(0).pongs_seen, 10);
        assert_eq!(sim.stats().sent, 20);
        assert_eq!(sim.stats().delivered, 20);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let mut sim = Simulation::new(two_nodes(50), NetworkConfig::lossy(0.4), seed);
            sim.run_to_quiescence();
            (
                sim.stats().delivered,
                sim.stats().lost,
                sim.node(0).pongs_seen,
            )
        };
        assert_eq!(run(7), run(7));
        // And a different seed gives a different trajectory (with 50 lossy
        // messages this is overwhelmingly likely).
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn lossy_network_loses_some() {
        let mut sim = Simulation::new(two_nodes(200), NetworkConfig::lossy(0.5), 3);
        sim.run_to_quiescence();
        assert!(sim.stats().lost > 0);
        assert!(sim.node(0).pongs_seen < 200);
    }

    #[test]
    fn crashed_node_receives_nothing_until_recovery() {
        let mut sim = Simulation::new(two_nodes(5), NetworkConfig::reliable(), 4);
        sim.schedule_crash(SimTime::ZERO, 1);
        sim.run_to_quiescence();
        assert_eq!(sim.node(1).pings_seen, 0);
        assert_eq!(sim.node(1).crashes, 1);
        assert_eq!(sim.stats().dropped_crashed, 5);
    }

    /// Records `(now, tag)` for every arrival it is handed, and counts its
    /// crashes.
    #[derive(Default)]
    struct Arrivals {
        seen: Vec<(u64, u64)>,
        crashes: u32,
    }

    impl Node for Arrivals {
        type Msg = ();
        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<'_, ()>) {}
        fn on_external(&mut self, tag: u64, ctx: &mut Context<'_, ()>) {
            self.seen.push((ctx.now().0, tag));
        }
        fn on_crash(&mut self) {
            self.crashes += 1;
        }
    }

    #[test]
    fn faults_scheduled_out_of_order_fire_in_time_order_ties_by_scheduling() {
        let mut sim = Simulation::new(vec![Arrivals::default()], NetworkConfig::reliable(), 4);
        // Scheduled out of order on purpose: the lane sorts, `seq` breaks
        // the tie at t=100 (the crash was scheduled before the stream, so
        // arrival 1 is dropped, and so is arrival 2 while the node is down).
        sim.schedule_recover(SimTime(200), 0);
        sim.schedule_crash(SimTime(100), 0);
        let times = [50, 100, 150, 300];
        sim.schedule_arrivals(0, times.len(), move |k| SimTime(times[k]));
        assert_eq!(sim.pending_events(), 6);
        sim.run_to_quiescence();
        assert_eq!(sim.node(0).seen, vec![(50, 0), (300, 3)]);
        assert_eq!(sim.node(0).crashes, 1);
        assert_eq!(sim.stats().externals_dropped, 2);
        // The crash, the recovery and the stream's next arrival: undrawn
        // arrivals are pending but not resident.
        assert_eq!(sim.stats().peak_queue_depth, 3);
    }

    #[test]
    fn stream_arrivals_at_a_crashed_node_are_dropped_and_the_stream_goes_on() {
        let times = [50, 100, 150, 200, 250];
        let mut sim = Simulation::new(vec![Arrivals::default()], NetworkConfig::reliable(), 4);
        sim.schedule_arrivals(0, times.len(), move |k| SimTime(times[k]));
        sim.schedule_crash(SimTime(100), 0);
        sim.schedule_recover(SimTime(200), 0);
        // Four arrivals wait behind the first, and all count as pending.
        assert_eq!(sim.pending_events(), 7);
        sim.run_to_quiescence();
        // Arrival 1 ties with the crash and was scheduled first; arrival 3
        // ties with the recovery and was scheduled first, so it is dropped.
        assert_eq!(sim.node(0).seen, vec![(50, 0), (100, 1), (250, 4)]);
        assert_eq!(sim.stats().externals_dropped, 2);
        assert_eq!(sim.stats().peak_queue_depth, 3, "resident entries only");
        assert_eq!(sim.pending_events(), 0);
    }

    /// The stream is a cursor: arrival `k` is drawn once, and only after
    /// arrival `k - 1` left the lane, dispatched or dropped at a crashed
    /// node.
    #[test]
    fn a_stream_draws_each_arrival_once_after_the_one_before_left() {
        type Log = std::rc::Rc<std::cell::RefCell<Vec<(&'static str, u64)>>>;
        struct Logged(Log);
        impl Node for Logged {
            type Msg = ();
            fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<'_, ()>) {}
            fn on_external(&mut self, tag: u64, _ctx: &mut Context<'_, ()>) {
                self.0.borrow_mut().push(("dispatch", tag));
            }
        }
        let log = Log::default();
        let mut sim = Simulation::new(vec![Logged(log.clone())], NetworkConfig::reliable(), 4);
        let drawn = log.clone();
        sim.schedule_arrivals(0, 4, move |k| {
            drawn.borrow_mut().push(("draw", k as u64));
            SimTime(100 * (k as u64 + 1))
        });
        sim.schedule_crash(SimTime(150), 0);
        sim.schedule_recover(SimTime(250), 0);
        sim.run_to_quiescence();
        assert_eq!(
            *log.borrow(),
            [
                ("draw", 0),
                ("dispatch", 0),
                ("draw", 1),
                ("draw", 2),
                ("dispatch", 2),
                ("draw", 3),
                ("dispatch", 3),
            ]
        );
        assert_eq!(sim.stats().externals_dropped, 1);
    }

    #[test]
    fn a_stream_scheduled_mid_run_clamps_its_past_arrivals() {
        let mut sim = Simulation::new(vec![Arrivals::default()], NetworkConfig::reliable(), 4);
        sim.run_until(SimTime(1_000));
        let times = [200, 900, 1_000, 1_500];
        sim.schedule_arrivals(0, times.len(), move |k| SimTime(times[k]));
        // Also in the past, so also clamped to now: it ties with the
        // stream's first three arrivals and was scheduled after them.
        sim.schedule_crash(SimTime(500), 0);
        sim.schedule_recover(SimTime(1_200), 0);
        sim.run_to_quiescence();
        // The three arrivals due by now fire at now, in stream order and
        // ahead of the crash; none is dropped.
        assert_eq!(
            sim.node(0).seen,
            vec![(1_000, 0), (1_000, 1), (1_000, 2), (1_500, 3)]
        );
        assert_eq!(sim.node(0).crashes, 1);
        assert_eq!(sim.stats().externals_dropped, 0);
    }

    /// Every drawn arrival is clamped to the instant it is drawn, so a
    /// cursor that goes back in time delays its late arrival to `now`
    /// rather than running the clock backwards.
    #[test]
    fn a_decreasing_cursor_dispatches_its_late_arrival_at_now() {
        let mut sim = Simulation::new(vec![Arrivals::default()], NetworkConfig::reliable(), 4);
        let times = [100, 300, 200, 400];
        sim.schedule_arrivals(0, times.len(), move |k| SimTime(times[k]));
        sim.run_to_quiescence();
        assert_eq!(
            sim.node(0).seen,
            vec![(100, 0), (300, 1), (300, 2), (400, 3)]
        );
        assert_eq!(sim.now(), SimTime(400));
    }

    #[test]
    #[should_panic(expected = "node 0 already has an arrival stream")]
    fn an_empty_stream_still_takes_the_nodes_one_stream() {
        let mut sim = Simulation::new(vec![Arrivals::default()], NetworkConfig::reliable(), 4);
        sim.schedule_arrivals(0, 0, |_| SimTime::ZERO);
        sim.schedule_arrivals(0, 1, |_| SimTime::ZERO);
    }

    #[test]
    fn recovery_invokes_on_recover() {
        let mut sim = Simulation::new(two_nodes(0), NetworkConfig::reliable(), 5);
        sim.schedule_crash(SimTime(100), 1);
        sim.schedule_recover(SimTime(200), 1);
        sim.run_to_quiescence();
        assert_eq!(sim.node(1).crashes, 1);
        assert_eq!(sim.node(1).recoveries, 1);
    }

    #[test]
    fn crash_invalidates_outstanding_timers() {
        // The node sets a timer on an arrival, then crashes before it fires.
        #[derive(Default)]
        struct T {
            fired: bool,
        }
        impl Node for T {
            type Msg = ();
            fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<'_, ()>) {}
            fn on_external(&mut self, _tag: u64, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(SimDuration::millis(10), 0);
            }
            fn on_timer(&mut self, _id: TimerId, _tag: u64, _ctx: &mut Context<'_, ()>) {
                self.fired = true;
            }
        }
        let mut sim = Simulation::new(vec![T::default()], NetworkConfig::reliable(), 6);
        sim.schedule_arrivals(0, 1, |_| SimTime(0));
        sim.schedule_crash(SimTime(1_000), 0); // 1ms, before the 10ms timer
        sim.schedule_recover(SimTime(2_000), 0);
        sim.run_to_quiescence();
        assert!(!sim.node(0).fired, "timer must die with the crash");
        assert_eq!(sim.stats().timers_suppressed, 1);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        #[derive(Default)]
        struct T {
            fired: u32,
        }
        impl Node for T {
            type Msg = ();
            fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<'_, ()>) {}
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                let a = ctx.set_timer(SimDuration::millis(5), 1);
                ctx.set_timer(SimDuration::millis(6), 2);
                ctx.cancel_timer(a);
            }
            fn on_timer(&mut self, _id: TimerId, tag: u64, _ctx: &mut Context<'_, ()>) {
                assert_eq!(tag, 2, "only the uncancelled timer may fire");
                self.fired += 1;
            }
        }
        let mut sim = Simulation::new(vec![T::default()], NetworkConfig::reliable(), 7);
        sim.run_to_quiescence();
        assert_eq!(sim.node(0).fired, 1);
    }

    /// Sets a timer at each arrival and runs `then` on it, in the same
    /// callback; records what fires.
    struct SetThen {
        then: fn(&mut Context<'_, u8>, TimerId),
        fired: u32,
    }

    impl Node for SetThen {
        type Msg = u8;
        fn on_message(&mut self, _from: NodeId, _msg: u8, _ctx: &mut Context<'_, u8>) {}
        fn on_external(&mut self, _tag: u64, ctx: &mut Context<'_, u8>) {
            let t = ctx.set_timer(SimDuration::millis(1), 0);
            (self.then)(ctx, t);
        }
        fn on_timer(&mut self, _id: TimerId, _tag: u64, _ctx: &mut Context<'_, u8>) {
            self.fired += 1;
        }
    }

    #[test]
    fn a_timer_cancelled_in_the_callback_that_set_it_never_reaches_the_lane() {
        let node = SetThen {
            then: |ctx, t| ctx.cancel_timer(t),
            fired: 0,
        };
        let mut sim = Simulation::new(vec![node], NetworkConfig::reliable(), 14);
        sim.schedule_arrivals(0, 1, |_| SimTime(1_000));
        sim.run_until(SimTime(1_000));
        assert_eq!(sim.pending_timers(), 0);
        assert_eq!(sim.stats().timers_suppressed, 1, "the pair counts once");
        sim.run_to_quiescence();
        assert_eq!(sim.node(0).fired, 0);
        assert_eq!(sim.stats().timers_fired, 0);
        assert_eq!(sim.stats().events_processed, 1, "the arrival only");
        assert_eq!(sim.stats().peak_queue_depth, 1);
    }

    #[test]
    fn a_cancel_after_crash_self_leaves_the_timer_to_pop_suppressed() {
        let node = SetThen {
            then: |ctx, t| {
                ctx.crash_self();
                ctx.cancel_timer(t);
            },
            fired: 0,
        };
        let mut sim = Simulation::new(vec![node], NetworkConfig::reliable(), 15);
        sim.schedule_arrivals(0, 1, |_| SimTime(1_000));
        sim.schedule_recover(SimTime(1_500), 0);
        sim.run_until(SimTime(1_000));
        assert!(sim.is_crashed(0));
        assert_eq!(sim.pending_timers(), 1, "armed before the crash");
        assert_eq!(sim.stats().timers_suppressed, 0);
        sim.run_to_quiescence();
        assert_eq!(sim.node(0).fired, 0);
        assert_eq!(sim.stats().timers_suppressed, 1, "popped stale");
        // The arrival, the recovery and the suppressed timer's pop.
        assert_eq!(sim.stats().events_processed, 3);
        assert_eq!(sim.now(), SimTime(2_000));
    }

    #[test]
    fn an_annulled_pair_leaves_later_entries_in_order() {
        // Both orders of a message and a timer due at the same instant,
        // each scheduled after an annulled pair in the same callback.
        type Log = std::rc::Rc<std::cell::RefCell<Vec<&'static str>>>;
        struct N {
            log: Log,
            timer_first: bool,
        }
        impl Node for N {
            type Msg = u8;
            fn on_message(&mut self, _from: NodeId, _msg: u8, _ctx: &mut Context<'_, u8>) {
                self.log.borrow_mut().push("message");
            }
            fn on_external(&mut self, _tag: u64, ctx: &mut Context<'_, u8>) {
                let a = ctx.set_timer(SimDuration::millis(1), 9);
                ctx.cancel_timer(a);
                if self.timer_first {
                    ctx.set_timer(SimDuration::millis(1), 0);
                    ctx.send(0, 1);
                } else {
                    ctx.send(0, 1);
                    ctx.set_timer(SimDuration::millis(1), 0);
                }
            }
            fn on_timer(&mut self, _id: TimerId, tag: u64, _ctx: &mut Context<'_, u8>) {
                assert_eq!(tag, 0, "the annulled timer never fires");
                self.log.borrow_mut().push("timer");
            }
        }
        for (timer_first, want) in [(true, ["timer", "message"]), (false, ["message", "timer"])] {
            let log = Log::default();
            let node = N {
                log: log.clone(),
                timer_first,
            };
            let cfg = NetworkConfig::fixed_delay(SimDuration::millis(1));
            let mut sim = Simulation::new(vec![node], cfg, 16);
            sim.schedule_arrivals(0, 1, |_| SimTime(1_000));
            sim.run_to_quiescence();
            assert_eq!(*log.borrow(), want);
            assert_eq!(sim.now(), SimTime(2_000));
            assert_eq!(sim.stats().timers_suppressed, 1);
        }
    }

    #[test]
    fn a_fast_path_node_keeps_one_resident_arrival_per_node() {
        // Each arrival arms a timeout and a retry timer and cancels both
        // before it returns, as a fast-path commit does. Neither reaches
        // the lane, so the resident peak is the one arrival each stream
        // keeps there; armed in the lane, the two timers would have
        // raised it by one.
        const NODES: usize = 4;
        const ARRIVALS: usize = 50;
        let nodes = (0..NODES)
            .map(|_| SetThen {
                then: |ctx, timeout| {
                    let retry = ctx.set_timer(SimDuration::millis(1), 1);
                    ctx.cancel_timer(retry);
                    ctx.cancel_timer(timeout);
                },
                fired: 0,
            })
            .collect();
        let mut sim = Simulation::new(nodes, NetworkConfig::reliable(), 17);
        for node in 0..NODES {
            sim.schedule_arrivals(node, ARRIVALS, move |k| {
                SimTime(1_000 * (k as u64 + 1) + node as u64)
            });
        }
        assert_eq!(sim.pending_events(), NODES * ARRIVALS);
        sim.run_to_quiescence();
        let s = sim.stats();
        assert_eq!(s.peak_queue_depth, NODES as u64);
        assert_eq!(s.timers_suppressed, 2 * (NODES * ARRIVALS) as u64);
        assert_eq!(
            (s.timers_fired, s.events_processed),
            (0, (NODES * ARRIVALS) as u64)
        );
    }

    #[test]
    fn cancel_after_fire_is_a_free_no_op() {
        // Regression: the old kernel kept cancellations in a tombstone set
        // keyed by timer id; cancelling a timer that had already fired
        // inserted an id that no future pop could ever reclaim, leaking one
        // entry per late cancel. The timer lane must treat a late cancel as
        // a pure no-op: nothing pending afterwards, nothing counted as
        // suppressed, and every timer still fires exactly once.
        #[derive(Default)]
        struct T {
            rounds: u64,
            fired: u64,
        }
        impl Node for T {
            type Msg = ();
            fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<'_, ()>) {}
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(SimDuration::millis(1), 0);
            }
            fn on_timer(&mut self, id: TimerId, _tag: u64, ctx: &mut Context<'_, ()>) {
                self.fired += 1;
                // `id` was consumed by this very fire — cancelling it now
                // is the late cancel the old kernel leaked on.
                ctx.cancel_timer(id);
                if self.fired < self.rounds {
                    ctx.set_timer(SimDuration::millis(1), 0);
                }
            }
        }
        let rounds = 10_000;
        let mut sim = Simulation::new(vec![T { rounds, fired: 0 }], NetworkConfig::reliable(), 10);
        sim.run_to_quiescence();
        assert_eq!(sim.node(0).fired, rounds);
        assert_eq!(sim.stats().timers_fired, rounds);
        assert_eq!(
            sim.stats().timers_suppressed,
            0,
            "a late cancel is not a suppression"
        );
        assert_eq!(sim.pending_timers(), 0, "late cancels must not accumulate");
    }

    #[test]
    fn partition_cuts_in_flight_messages() {
        // Link delay is fixed 5ms; partition starts at 2ms; a message sent
        // at t=0 is in flight across the boundary and must be cut.
        let sched = PartitionSchedule::fully_connected(2).split_at(SimTime(2_000), &[&[0], &[1]]);
        let cfg = NetworkConfig::fixed_delay(SimDuration::millis(5)).with_partitions(sched);
        let mut sim = Simulation::new(two_nodes(1), cfg, 8);
        sim.run_to_quiescence();
        assert_eq!(sim.node(1).pings_seen, 0);
        assert_eq!(sim.stats().partitioned, 1);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(two_nodes(3), NetworkConfig::reliable(), 9);
        sim.run_until(SimTime::ZERO); // start events only; deliveries are later
        assert_eq!(sim.node(1).pings_seen, 0);
        sim.run_until(SimTime(60_000));
        assert_eq!(sim.node(1).pings_seen, 3);
        assert_eq!(sim.now(), SimTime(60_000));
    }

    #[test]
    fn a_fixed_delay_net_gives_global_broadcast_order() {
        // Two sites broadcast concurrently to two observers; both observers
        // must see the two messages in the same order.
        #[derive(Default)]
        struct B {
            seen: Vec<NodeId>,
            is_sender: bool,
        }
        impl Node for B {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
                if self.is_sender {
                    for to in [2, 3] {
                        ctx.send(to, 0);
                    }
                }
            }
            fn on_message(&mut self, from: NodeId, _m: u8, _ctx: &mut Context<'_, u8>) {
                self.seen.push(from);
            }
        }
        for seed in 0..20 {
            let nodes = vec![
                B {
                    is_sender: true,
                    ..Default::default()
                },
                B {
                    is_sender: true,
                    ..Default::default()
                },
                B::default(),
                B::default(),
            ];
            let mut sim = Simulation::new(
                nodes,
                NetworkConfig::fixed_delay(SimDuration::millis(1)),
                seed,
            );
            sim.run_to_quiescence();
            assert_eq!(sim.node(2).seen, sim.node(3).seen, "seed {seed}");
            assert_eq!(sim.node(2).seen.len(), 2);
        }
    }

    #[test]
    fn crash_self_discards_later_actions_and_crashes_in_place() {
        // Node 0 sends one message, crashes itself, then "sends" another
        // and arms a timer — the pre-crash send must go out, the rest must
        // vanish, and on_crash must run at the crashpoint instant.
        #[derive(Default)]
        struct C {
            crashes: u32,
            recoveries: u32,
            heard: u32,
            fired: bool,
        }
        impl Node for C {
            type Msg = u8;
            fn on_message(&mut self, _from: NodeId, _msg: u8, _ctx: &mut Context<'_, u8>) {
                self.heard += 1;
            }
            fn on_external(&mut self, _tag: u64, ctx: &mut Context<'_, u8>) {
                ctx.send(1, 1);
                ctx.crash_self();
                ctx.send(1, 2);
                ctx.set_timer(SimDuration::millis(1), 0);
            }
            fn on_timer(&mut self, _id: TimerId, _tag: u64, _ctx: &mut Context<'_, u8>) {
                self.fired = true;
            }
            fn on_crash(&mut self) {
                self.crashes += 1;
            }
            fn on_recover(&mut self, _ctx: &mut Context<'_, u8>) {
                self.recoveries += 1;
            }
        }
        let mut sim = Simulation::new(
            vec![C::default(), C::default()],
            NetworkConfig::reliable(),
            13,
        );
        sim.schedule_arrivals(0, 1, |_| SimTime(1_000));
        sim.schedule_recover(SimTime(50_000), 0);
        sim.run_to_quiescence();
        assert_eq!(sim.node(0).crashes, 1);
        assert_eq!(sim.node(0).recoveries, 1);
        assert_eq!(sim.node(1).heard, 1, "only the pre-crash send goes out");
        assert!(!sim.node(0).fired, "post-crash timer must be discarded");
        assert_eq!(sim.stats().sent, 1);
    }

    #[test]
    fn lifecycle_reaches_the_nodes_and_the_counters() {
        let mut sim = Simulation::new(two_nodes(1), NetworkConfig::reliable(), 11);
        sim.schedule_crash(SimTime(50_000), 1);
        sim.schedule_recover(SimTime(60_000), 1);
        sim.run_to_quiescence();
        // The ping and its pong went out and arrived before the crash.
        assert_eq!((sim.node(1).pings_seen, sim.node(0).pongs_seen), (1, 1));
        assert_eq!((sim.stats().sent, sim.stats().delivered), (2, 2));
        assert_eq!((sim.node(1).crashes, sim.node(1).recoveries), (1, 1));
        assert!(!sim.is_crashed(1));
        // Two deliveries, the crash and the recovery.
        assert_eq!(sim.stats().events_processed, 4);
        assert_eq!(sim.now(), SimTime(60_000));
    }

    #[test]
    fn duplicated_messages_arrive_twice() {
        let cfg = NetworkConfig {
            default_link: LinkConfig {
                duplicate: 1.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sim = Simulation::new(two_nodes(1), cfg, 12);
        sim.run_to_quiescence();
        // Ping duplicated -> 2 pings seen; each provokes a pong, each pong
        // itself duplicated -> 4 pongs seen.
        assert_eq!(sim.node(1).pings_seen, 2);
        assert_eq!(sim.node(0).pongs_seen, 4);
        assert_eq!(sim.stats().duplicated, 3);
    }
}
