//! The three-lane kernel against a single-queue reference model.
//!
//! The kernel keeps pending work in three structures (a sorted scheduled
//! lane, a message heap, an indexed timer heap) and merges them by
//! `(time, seq)`. Its contract is that this is unobservable: every
//! callback happens exactly when, and in exactly the order, a kernel with
//! one `BinaryHeap` of everything and a tombstone set for cancelled timers
//! would make it. This test *is* that one-heap kernel (`Model`), driven
//! side by side with the real one on random mixes of `schedule_crash` /
//! `schedule_recover` (equal instants, out of order, between `run_until`
//! calls, in the past), up to one arrival stream per node
//! (`schedule_arrivals`, before the first run or mid-run, some of its
//! instants in the past; the model pushes each arrival up front, clamped
//! to `now`), sends, `set_timer`, `cancel_timer` (of any timer, or of the
//! one the same callback just set) and `crash_self`, comparing the full
//! dispatch sequence. The model applies every action literally, so it
//! also checks that the real kernel's annulment of a timer set and
//! cancelled in one callback, and the exception after `crash_self`, are
//! unobservable.

use dvp_simnet::network::{LinkConfig, NetworkConfig};
use dvp_simnet::node::{Context, Node, TimerId};
use dvp_simnet::sim::Simulation;
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_simnet::NodeId;
use proptest::collection::vec;
use proptest::prelude::*;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::rc::Rc;

const NODES: usize = 3;
/// Every instant and delay is a small multiple of this, so equal instants
/// across lanes are the norm rather than the exception.
const TICK_US: u64 = 500;

fn ticks(n: u64) -> SimDuration {
    SimDuration::micros(n * TICK_US)
}

// ---- node behaviour, shared by both kernels -----------------------------

#[derive(Clone, Debug)]
enum Op {
    Send {
        to: NodeId,
    },
    SetTimer {
        ticks: u64,
        tag: u64,
    },
    /// Cancel one of the timers this node ever set — possibly one that
    /// already fired or was already cancelled.
    Cancel {
        nth: usize,
    },
    /// Cancel the timer this callback set last, if it set one.
    CancelJustSet,
    /// Crash in place: the effects after it are discarded.
    CrashSelf,
}

/// The side effects a callback may request, over either kernel.
trait Effects {
    type Timer: Copy;
    fn send(&mut self, to: NodeId, msg: u64);
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> Self::Timer;
    fn cancel_timer(&mut self, t: Self::Timer);
    fn crash_self(&mut self);
}

/// A node's whole behaviour: its `k`-th callback (of any kind) runs
/// `program[k % len]`, until `budget` callbacks have acted — which bounds
/// the run. Deliberately not reset by a crash: the kernels are under test,
/// not a protocol.
#[derive(Clone, Debug)]
struct Brain<T> {
    program: Vec<Vec<Op>>,
    budget: usize,
    calls: usize,
    sent: u64,
    timers: Vec<T>,
}

impl<T: Copy> Brain<T> {
    fn new(program: Vec<Vec<Op>>, budget: usize) -> Self {
        Brain {
            program,
            budget,
            calls: 0,
            sent: 0,
            timers: Vec::new(),
        }
    }

    fn react(&mut self, fx: &mut impl Effects<Timer = T>) {
        if self.calls >= self.budget {
            return;
        }
        let ops = &self.program[self.calls % self.program.len()];
        self.calls += 1;
        let first = self.timers.len();
        for op in ops {
            match *op {
                Op::Send { to } => {
                    fx.send(to, self.sent);
                    self.sent += 1;
                }
                Op::SetTimer { ticks: n, tag } => self.timers.push(fx.set_timer(ticks(n), tag)),
                Op::Cancel { nth } => {
                    if !self.timers.is_empty() {
                        fx.cancel_timer(self.timers[nth % self.timers.len()]);
                    }
                }
                Op::CancelJustSet => {
                    if self.timers.len() > first {
                        fx.cancel_timer(*self.timers.last().expect("set here"));
                    }
                }
                Op::CrashSelf => fx.crash_self(),
            }
        }
    }
}

/// One callback, as the node saw it. `on_crash` has no clock, hence the
/// `Option`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Dispatch {
    at: Option<SimTime>,
    node: NodeId,
    what: What,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum What {
    Start,
    Message { from: NodeId, msg: u64 },
    Timer { id: u64, tag: u64 },
    External { tag: u64 },
    Crash,
    Recover,
}

type Log = Rc<RefCell<Vec<Dispatch>>>;

// ---- the real kernel ----------------------------------------------------

struct RealNode {
    id: NodeId,
    brain: Brain<TimerId>,
    log: Log,
}

struct CtxEffects<'a, 'b>(&'a mut Context<'b, u64>);

impl Effects for CtxEffects<'_, '_> {
    type Timer = TimerId;
    fn send(&mut self, to: NodeId, msg: u64) {
        self.0.send(to, msg);
    }
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.0.set_timer(delay, tag)
    }
    fn cancel_timer(&mut self, t: TimerId) {
        self.0.cancel_timer(t);
    }
    fn crash_self(&mut self) {
        self.0.crash_self();
    }
}

impl RealNode {
    fn on(&mut self, what: What, ctx: &mut Context<'_, u64>) {
        self.log.borrow_mut().push(Dispatch {
            at: Some(ctx.now()),
            node: ctx.me(),
            what,
        });
        self.brain.react(&mut CtxEffects(ctx));
    }
}

impl Node for RealNode {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.on(What::Start, ctx);
    }
    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Context<'_, u64>) {
        self.on(What::Message { from, msg }, ctx);
    }
    fn on_timer(&mut self, id: TimerId, tag: u64, ctx: &mut Context<'_, u64>) {
        self.on(What::Timer { id: id.raw(), tag }, ctx);
    }
    fn on_external(&mut self, tag: u64, ctx: &mut Context<'_, u64>) {
        self.on(What::External { tag }, ctx);
    }
    fn on_crash(&mut self) {
        self.log.borrow_mut().push(Dispatch {
            at: None,
            node: self.id,
            what: What::Crash,
        });
    }
    fn on_recover(&mut self, ctx: &mut Context<'_, u64>) {
        self.on(What::Recover, ctx);
    }
}

// ---- the reference kernel: one heap, tombstones -------------------------

#[derive(Clone, Debug)]
enum Pending {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: u64,
    },
    External {
        node: NodeId,
        tag: u64,
    },
    Crash {
        node: NodeId,
    },
    Recover {
        node: NodeId,
    },
    Timer {
        node: NodeId,
        id: u64,
        tag: u64,
        epoch: u32,
    },
}

enum Action {
    Send { to: NodeId, msg: u64 },
    SetTimer { id: u64, at: SimTime, tag: u64 },
    Cancel { id: u64 },
    CrashSelf,
}

struct ModelEffects<'a> {
    now: SimTime,
    next_timer: &'a mut u64,
    actions: Vec<Action>,
}

impl Effects for ModelEffects<'_> {
    type Timer = u64;
    fn send(&mut self, to: NodeId, msg: u64) {
        self.actions.push(Action::Send { to, msg });
    }
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> u64 {
        let id = *self.next_timer;
        *self.next_timer += 1;
        self.actions.push(Action::SetTimer {
            id,
            at: self.now + delay,
            tag,
        });
        id
    }
    fn cancel_timer(&mut self, id: u64) {
        self.actions.push(Action::Cancel { id });
    }
    fn crash_self(&mut self) {
        self.actions.push(Action::CrashSelf);
    }
}

#[derive(Debug, Default, PartialEq, Eq)]
struct Counters {
    delivered: u64,
    dropped_crashed: u64,
    externals_dropped: u64,
    timers_fired: u64,
    timers_suppressed: u64,
}

struct Model {
    brains: Vec<Brain<u64>>,
    crashed: Vec<bool>,
    epoch: Vec<u32>,
    /// Everything pending, timers included, keyed `(at, seq)`.
    queue: BinaryHeap<Reverse<(SimTime, u64)>>,
    pending: HashMap<u64, Pending>,
    /// Timers set and neither fired nor cancelled.
    armed: HashSet<u64>,
    /// Cancelled timers still sitting in `queue`.
    tombstones: HashSet<u64>,
    delay_ticks: [[u64; NODES]; NODES],
    now: SimTime,
    seq: u64,
    next_timer: u64,
    started: bool,
    counters: Counters,
    log: Vec<Dispatch>,
}

impl Model {
    fn new(brains: Vec<Brain<u64>>, delay_ticks: [[u64; NODES]; NODES]) -> Self {
        Model {
            brains,
            crashed: vec![false; NODES],
            epoch: vec![0; NODES],
            queue: BinaryHeap::new(),
            pending: HashMap::new(),
            armed: HashSet::new(),
            tombstones: HashSet::new(),
            delay_ticks,
            now: SimTime::ZERO,
            seq: 0,
            next_timer: 0,
            started: false,
            counters: Counters::default(),
            log: Vec::new(),
        }
    }

    fn push(&mut self, at: SimTime, p: Pending) {
        self.queue.push(Reverse((at.max(self.now), self.seq)));
        self.pending.insert(self.seq, p);
        self.seq += 1;
    }

    fn pending_events(&self) -> usize {
        self.queue.len() - self.tombstones.len()
    }

    fn dispatch(&mut self, node: NodeId, what: What) {
        self.log.push(Dispatch {
            at: Some(self.now),
            node,
            what,
        });
        let mut fx = ModelEffects {
            now: self.now,
            next_timer: &mut self.next_timer,
            actions: Vec::new(),
        };
        self.brains[node].react(&mut fx);
        for a in fx.actions {
            if self.crashed[node] {
                break; // effects requested after a crash_self never happen
            }
            match a {
                Action::Send { to, msg } => {
                    let at = self.now + ticks(self.delay_ticks[node][to]);
                    self.push(
                        at,
                        Pending::Deliver {
                            from: node,
                            to,
                            msg,
                        },
                    );
                }
                Action::SetTimer { id, at, tag } => {
                    self.armed.insert(id);
                    let epoch = self.epoch[node];
                    self.push(
                        at,
                        Pending::Timer {
                            node,
                            id,
                            tag,
                            epoch,
                        },
                    );
                }
                Action::Cancel { id } => {
                    if self.armed.remove(&id) {
                        self.tombstones.insert(id);
                        self.counters.timers_suppressed += 1;
                    }
                }
                Action::CrashSelf => self.crash(node),
            }
        }
    }

    fn crash(&mut self, node: NodeId) {
        if !self.crashed[node] {
            self.crashed[node] = true;
            self.epoch[node] += 1;
            self.log.push(Dispatch {
                at: None,
                node,
                what: What::Crash,
            });
        }
    }

    fn run(&mut self, deadline: SimTime) {
        if !self.started {
            self.started = true;
            for node in 0..NODES {
                self.dispatch(node, What::Start);
            }
        }
        while let Some(&Reverse((at, seq))) = self.queue.peek() {
            if at > deadline {
                break;
            }
            self.queue.pop();
            let p = self.pending.remove(&seq).expect("queued");
            if let Pending::Timer { id, .. } = p {
                if self.tombstones.remove(&id) {
                    continue; // cancelled: not an event, the clock does not move
                }
            }
            self.now = at;
            match p {
                Pending::Deliver { from, to, msg } => {
                    if self.crashed[to] {
                        self.counters.dropped_crashed += 1;
                    } else {
                        self.counters.delivered += 1;
                        self.dispatch(to, What::Message { from, msg });
                    }
                }
                Pending::External { node, tag } => {
                    if self.crashed[node] {
                        self.counters.externals_dropped += 1;
                    } else {
                        self.dispatch(node, What::External { tag });
                    }
                }
                Pending::Crash { node } => self.crash(node),
                Pending::Recover { node } => {
                    if self.crashed[node] {
                        self.crashed[node] = false;
                        self.dispatch(node, What::Recover);
                    }
                }
                Pending::Timer {
                    node,
                    id,
                    tag,
                    epoch,
                } => {
                    self.armed.remove(&id);
                    if self.epoch[node] != epoch || self.crashed[node] {
                        self.counters.timers_suppressed += 1;
                    } else {
                        self.counters.timers_fired += 1;
                        self.dispatch(node, What::Timer { id, tag });
                    }
                }
            }
        }
        if deadline != SimTime::MAX && self.now < deadline {
            self.now = deadline;
        }
    }
}

// ---- the scenario -------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Kind {
    Crash,
    Recover,
}

/// One `schedule_crash` or `schedule_recover` call. `at_ticks` is relative
/// to the phase start minus [`PAST_TICKS`], so some land before `now` and
/// must be clamped.
#[derive(Clone, Copy, Debug)]
struct Sched {
    kind: Kind,
    node: NodeId,
    at_ticks: u64,
}

const PAST_TICKS: u64 = 3;

/// The instant `at_ticks` names in a phase starting at `origin`.
fn phase_instant(origin: SimTime, at_ticks: u64) -> SimTime {
    // Saturates at zero in the first phase, clamps to `now` later.
    SimTime((origin.0 + at_ticks * TICK_US).saturating_sub(PAST_TICKS * TICK_US))
}

/// One node's arrival stream: scheduled in phase `phase` (never, if there
/// is no such phase), after the first `after` of that phase's
/// [`Sched`] calls, with arrivals at these sorted offsets (as in
/// [`Sched`], so some are in the past).
#[derive(Clone, Debug)]
struct Stream {
    phase: usize,
    after: usize,
    at_ticks: Vec<u64>,
}

/// A batch of scheduling calls followed by `run_until(now + run_ticks)`.
#[derive(Clone, Debug)]
struct Phase {
    scheds: Vec<Sched>,
    run_ticks: u64,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NODES).prop_map(|to| Op::Send { to }),
        (0u64..6, 0u64..100).prop_map(|(ticks, tag)| Op::SetTimer { ticks, tag }),
        (0usize..64).prop_map(|nth| Op::Cancel { nth }),
        Just(Op::CancelJustSet),
        Just(Op::CancelJustSet),
        Just(Op::CrashSelf),
    ]
}

fn program() -> impl Strategy<Value = Vec<Vec<Op>>> {
    vec(vec(op(), 0..4), 1..6)
}

fn sched() -> impl Strategy<Value = Sched> {
    // Recoveries outnumber crashes so most of the run has live nodes.
    let kind = prop_oneof![Just(Kind::Crash), Just(Kind::Recover), Just(Kind::Recover)];
    (kind, 0..NODES, 0u64..16).prop_map(|(kind, node, at_ticks)| Sched {
        kind,
        node,
        at_ticks,
    })
}

fn stream() -> impl Strategy<Value = Stream> {
    (0usize..6, 0usize..12, vec(0u64..16, 0..24)).prop_map(|(phase, after, mut at_ticks)| {
        at_ticks.sort_unstable();
        Stream {
            phase,
            after,
            at_ticks,
        }
    })
}

fn phase() -> impl Strategy<Value = Phase> {
    (vec(sched(), 0..12), 0u64..10).prop_map(|(scheds, run_ticks)| Phase { scheds, run_ticks })
}

fn real_counters(sim: &Simulation<RealNode>) -> Counters {
    let s = sim.stats();
    Counters {
        delivered: s.delivered,
        dropped_crashed: s.dropped_crashed,
        externals_dropped: s.externals_dropped,
        timers_fired: s.timers_fired,
        timers_suppressed: s.timers_suppressed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn three_lanes_dispatch_like_one_heap(
        programs in vec(program(), NODES..NODES + 1),
        budget in 5usize..60,
        delays in vec(0u64..5, NODES * NODES..NODES * NODES + 1),
        phases in vec(phase(), 1..6),
        streams in vec(stream(), NODES..NODES + 1),
    ) {
        let mut delay_ticks = [[0u64; NODES]; NODES];
        let mut net = NetworkConfig::default();
        for from in 0..NODES {
            for to in 0..NODES {
                let d = delays[from * NODES + to];
                delay_ticks[from][to] = d;
                net = net.with_link(from, to, LinkConfig::reliable_fixed(ticks(d)));
            }
        }

        let log: Log = Rc::default();
        let nodes = programs
            .iter()
            .enumerate()
            .map(|(id, p)| RealNode { id, brain: Brain::new(p.clone(), budget), log: log.clone() })
            .collect();
        let mut sim = Simulation::new(nodes, net, 7);
        let mut model = Model::new(
            programs.iter().map(|p| Brain::new(p.clone(), budget)).collect(),
            delay_ticks,
        );

        for (p, phase) in phases.iter().enumerate() {
            let origin = sim.now();
            for i in 0..=phase.scheds.len() {
                // At most one stream per node, `streams[node]`.
                for (node, st) in streams.iter().enumerate() {
                    if st.phase != p || st.after.min(phase.scheds.len()) != i {
                        continue;
                    }
                    let times: Vec<SimTime> =
                        st.at_ticks.iter().map(|&t| phase_instant(origin, t)).collect();
                    for (k, &at) in times.iter().enumerate() {
                        model.push(at, Pending::External { node, tag: k as u64 });
                    }
                    sim.schedule_arrivals(node, times.len(), move |k| times[k]);
                }
                let Some(s) = phase.scheds.get(i) else { break };
                let at = phase_instant(origin, s.at_ticks);
                match s.kind {
                    Kind::Crash => {
                        sim.schedule_crash(at, s.node);
                        model.push(at, Pending::Crash { node: s.node });
                    }
                    Kind::Recover => {
                        sim.schedule_recover(at, s.node);
                        model.push(at, Pending::Recover { node: s.node });
                    }
                }
            }
            prop_assert_eq!(sim.pending_events(), model.pending_events());
            let deadline = origin + ticks(phase.run_ticks);
            sim.run_until(deadline);
            model.run(deadline);
            prop_assert_eq!(sim.now(), model.now);
            prop_assert_eq!(sim.pending_events(), model.pending_events());
            prop_assert_eq!(sim.pending_timers(), model.armed.len());
        }
        sim.run_to_quiescence();
        model.run(SimTime::MAX);

        prop_assert_eq!(&*log.borrow(), &model.log);
        prop_assert_eq!(sim.now(), model.now);
        prop_assert_eq!(real_counters(&sim), model.counters);
        prop_assert_eq!(sim.pending_events(), 0);
    }
}
