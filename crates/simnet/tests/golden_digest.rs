//! Golden digests: what the nodes observe is part of the kernel's
//! contract.
//!
//! Each scenario runs with a fixed seed. Every node folds every callback it
//! receives into one shared FNV-1a hash, in dispatch order: the node, the
//! callback kind, the instant, the sender or timer tag, and the message
//! payload (`on_crash` has no context, so it folds the node and kind
//! only). The run then folds in every [`NetStats`] field and the final
//! instant, and the result is compared against a pinned constant. Any
//! change to event ordering, RNG consumption, timer or crash semantics, or
//! stats accounting shows up here as a digest mismatch — which is exactly
//! the point: kernel optimisations must be *bit-identical* rewrites, not
//! approximations.
//!
//! If a digest changes on purpose (a deliberate semantic change to the
//! kernel), re-pin it and say why in the commit message.

use dvp_simnet::network::{LinkConfig, NetworkConfig};
use dvp_simnet::node::{Context, Node, TimerId};
use dvp_simnet::partition::PartitionSchedule;
use dvp_simnet::sim::Simulation;
use dvp_simnet::stats::NetStats;
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_simnet::NodeId;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

// ---- digest -------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// The hash every node of one run folds its callbacks into.
type Digest = Rc<RefCell<Fnv>>;

/// Callback kinds, as folded into the digest.
const START: u64 = 1;
const MESSAGE: u64 = 2;
const TIMER: u64 = 3;
const CRASH: u64 = 4;
const RECOVER: u64 = 5;

/// Fold one callback: `(node, kind, now, from or timer tag, payload)`.
fn observe(h: &Digest, ctx: &Context<'_, Msg>, kind: u64, arg: u64, payload: u64) {
    let mut h = h.borrow_mut();
    for v in [ctx.me() as u64, kind, ctx.now().0, arg, payload] {
        h.u64(v);
    }
}

/// The run's digest: the callbacks already folded, then every `NetStats`
/// field and the final instant.
fn finish<N: Node>(h: &Digest, sim: &Simulation<N>) -> u64 {
    // Destructured without `..`, so a new counter cannot be left out.
    let NetStats {
        sent,
        frames_sent,
        wire_bytes,
        delivered,
        lost,
        partitioned,
        duplicated,
        dropped_crashed,
        externals_dropped,
        timers_fired,
        timers_suppressed,
        events_processed,
        peak_queue_depth,
    } = *sim.stats();
    let mut h = h.borrow_mut();
    for v in [
        sent,
        frames_sent,
        wire_bytes,
        delivered,
        lost,
        partitioned,
        duplicated,
        dropped_crashed,
        externals_dropped,
        timers_fired,
        timers_suppressed,
        events_processed,
        peak_queue_depth,
        sim.now().0,
    ] {
        h.u64(v);
    }
    h.0
}

// ---- a protocol that exercises the whole kernel -------------------------

/// Stop-and-wait-ish reliable sender: node 0 pushes `n_msgs` pings at node
/// 1, arms a retransmit timer per ping, cancels it on ack. Under loss the
/// timers fire (retransmission); under reliable delivery they are
/// cancelled — so both the fire path and the cancel path get traffic.
/// The receiver arms one long timer at its first ping, so a crash has an
/// armed timer to invalidate; with `crash_after` set it crashes itself
/// right after acking that many distinct pings, then tries one more send.
#[derive(Default)]
struct Retx {
    h: Digest,
    id: NodeId,
    n_msgs: u32,
    acked: u32,
    timers: HashMap<u32, TimerId>,
    seen: HashSet<u32>,
    crash_after: Option<usize>,
}

#[derive(Clone, Debug)]
enum Msg {
    Ping(u32),
    Ack(u32),
}

impl Msg {
    fn payload(&self) -> u64 {
        match *self {
            Msg::Ping(i) => i as u64,
            Msg::Ack(i) => 1 << 32 | i as u64,
        }
    }
}

const RETX_EVERY: SimDuration = SimDuration::millis(20);
const LINGER: SimDuration = SimDuration::millis(100);
const LINGER_TAG: u64 = u64::MAX;

impl Retx {
    fn send_ping(&mut self, i: u32, ctx: &mut Context<'_, Msg>) {
        ctx.send(1, Msg::Ping(i));
        let t = ctx.set_timer(RETX_EVERY, i as u64);
        self.timers.insert(i, t);
    }
}

impl Node for Retx {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        observe(&self.h, ctx, START, 0, 0);
        for i in 0..self.n_msgs {
            self.send_ping(i, ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        observe(&self.h, ctx, MESSAGE, from as u64, msg.payload());
        match msg {
            Msg::Ping(i) => {
                // Receiver: ack every copy (duplicates re-acked — the ack
                // may have been lost).
                if self.seen.is_empty() {
                    ctx.set_timer(LINGER, LINGER_TAG);
                }
                let new = self.seen.insert(i);
                ctx.send(0, Msg::Ack(i));
                if new && self.crash_after == Some(self.seen.len()) {
                    ctx.crash_self();
                    ctx.send(0, Msg::Ack(i));
                }
            }
            Msg::Ack(i) => {
                if let Some(t) = self.timers.remove(&i) {
                    ctx.cancel_timer(t);
                    self.acked += 1;
                }
            }
        }
    }

    fn on_timer(&mut self, _id: TimerId, tag: u64, ctx: &mut Context<'_, Msg>) {
        observe(&self.h, ctx, TIMER, tag, 0);
        let i = tag as u32;
        if tag != LINGER_TAG && self.timers.remove(&i).is_some() {
            self.send_ping(i, ctx);
        }
    }

    fn on_crash(&mut self) {
        let mut h = self.h.borrow_mut();
        h.u64(self.id as u64);
        h.u64(CRASH);
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, Msg>) {
        observe(&self.h, ctx, RECOVER, 0, 0);
    }
}

/// How a scenario crashes the receiver, if at all.
#[derive(Clone, Copy)]
enum Faults {
    None,
    /// Crash at 30 ms, recover at 90 ms.
    Scheduled,
    /// `crash_self` after the 10th distinct ping, recover at 60 ms.
    CrashSelf,
}

fn run_scenario(net: NetworkConfig, seed: u64, faults: Faults) -> u64 {
    let h = Digest::default();
    let receiver = Retx {
        h: h.clone(),
        id: 1,
        crash_after: matches!(faults, Faults::CrashSelf).then_some(10),
        ..Default::default()
    };
    let sender = Retx {
        h: h.clone(),
        n_msgs: 40,
        ..Default::default()
    };
    let mut sim = Simulation::new(vec![sender, receiver], net, seed);
    match faults {
        Faults::None => {}
        Faults::Scheduled => {
            sim.schedule_crash(SimTime(30_000), 1);
            sim.schedule_recover(SimTime(90_000), 1);
        }
        Faults::CrashSelf => sim.schedule_recover(SimTime(60_000), 1),
    }
    sim.run_until(SimTime::ZERO + SimDuration::secs(2));
    finish(&h, &sim)
}

fn reliable() -> NetworkConfig {
    NetworkConfig::reliable()
}

fn lossy_dup() -> NetworkConfig {
    NetworkConfig {
        default_link: LinkConfig {
            loss: 0.3,
            duplicate: 0.15,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Splits while the first pings are still in flight (delays are 1–5 ms),
/// so the cut happens both at delivery and, for retransmissions, at send.
fn partitioned() -> NetworkConfig {
    let sched = PartitionSchedule::fully_connected(2)
        .split_at(SimTime(3_000), &[&[0], &[1]])
        .heal_at(SimTime(120_000));
    NetworkConfig::reliable().with_partitions(sched)
}

// ---- pinned digests -----------------------------------------------------
//
// All four scenarios run the same retransmission protocol; they differ in
// which kernel paths dominate (clean delivery + cancels / loss +
// duplication + fires / partition cuts + crash-recovery + dead-recipient
// drops / a crash from inside a callback, with the actions queued after it
// discarded).

#[test]
fn golden_reliable_ping_pong() {
    assert_eq!(
        run_scenario(reliable(), 1, Faults::None),
        0x77f0_7aa1_ded2_5ca7
    );
    assert_eq!(
        run_scenario(reliable(), 2, Faults::None),
        0xccb0_8441_1fa7_4e11
    );
}

#[test]
fn golden_lossy_duplicating() {
    assert_eq!(
        run_scenario(lossy_dup(), 1, Faults::None),
        0x4f37_d7ed_dc04_71e2
    );
    assert_eq!(
        run_scenario(lossy_dup(), 7, Faults::None),
        0x0c1f_fac0_5be4_fcb3
    );
}

#[test]
fn golden_partitioned_with_crash() {
    assert_eq!(
        run_scenario(partitioned(), 1, Faults::Scheduled),
        0xf9c7_2e6e_3af2_f03e
    );
    assert_eq!(
        run_scenario(partitioned(), 13, Faults::Scheduled),
        0xc5b0_2b69_bcf8_3260
    );
}

#[test]
fn golden_lossy_crash_self() {
    assert_eq!(
        run_scenario(lossy_dup(), 3, Faults::CrashSelf),
        0x7037_3e3a_13af_31b7
    );
    assert_eq!(
        run_scenario(lossy_dup(), 11, Faults::CrashSelf),
        0x769f_2088_772b_fd0c
    );
}

/// Digests aside, the same seed must reproduce the same digest in-process
/// (guards against hidden global state, e.g. hash-order dependence).
#[test]
fn same_seed_same_digest_repeated() {
    for _ in 0..3 {
        assert_eq!(
            run_scenario(lossy_dup(), 5, Faults::Scheduled),
            run_scenario(lossy_dup(), 5, Faults::Scheduled)
        );
    }
}

#[test]
#[ignore]
fn print_digests() {
    for (name, net, seed, faults) in [
        ("reliable  s1 ", reliable(), 1, Faults::None),
        ("reliable  s2 ", reliable(), 2, Faults::None),
        ("lossy     s1 ", lossy_dup(), 1, Faults::None),
        ("lossy     s7 ", lossy_dup(), 7, Faults::None),
        ("part      s1 ", partitioned(), 1, Faults::Scheduled),
        ("part      s13", partitioned(), 13, Faults::Scheduled),
        ("crashself s3 ", lossy_dup(), 3, Faults::CrashSelf),
        ("crashself s11", lossy_dup(), 11, Faults::CrashSelf),
    ] {
        eprintln!("{name} {:#018x}", run_scenario(net, seed, faults));
    }
}
