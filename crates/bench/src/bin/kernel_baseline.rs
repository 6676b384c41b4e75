//! Kernel throughput baseline: wall-clock events/sec for four scenario
//! shapes, written to `BENCH_kernel.json` (path overridable as `argv[1]`).
//!
//! The four shapes stress different kernel paths:
//! * `reliable_ping_pong` — pure message hot path: enqueue, dequeue,
//!   dispatch, transmit. No loss, no timers.
//! * `lossy_dup_retx` — the full mix: random loss and duplication plus a
//!   per-message retransmit timer protocol (set, cancel, fire all hot).
//! * `airline_t1_partitioned` — the real transaction engine under the T1
//!   split-4/4 partition: partition oracle checks, protocol-level timers
//!   and Vm retransmission over a scripted-arrival backlog.
//! * `deep_queue` — the backlog itself: 100k pre-scheduled externals
//!   under a window-32 ping-pong with a timer set + cancel per event
//!   (`dvp_bench::deep_queue`). The first two shapes never hold more than
//!   a few dozen pending entries, so they cannot see what depth costs.
//!
//! Each scenario reports simulated events processed, wall seconds, and
//! events/sec; compare across kernel changes with identical scales.

use dvp_bench::deep_queue::deep_queue;
use dvp_bench::Scale;
use dvp_core::{Cluster, ClusterConfig, FaultPlan};
use dvp_simnet::network::{LinkConfig, NetworkConfig};
use dvp_simnet::node::{Context, Node, TimerId};
use dvp_simnet::partition::PartitionSchedule;
use dvp_simnet::sim::Simulation;
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_simnet::NodeId;
use dvp_workloads::AirlineWorkload;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

// ---- scenario 1: reliable ping-pong ------------------------------------

/// Windowed ping-pong: node 0 keeps `window` pings in flight and refills
/// on every pong until `rounds` complete. Steady-state message traffic
/// with no timers — isolates the enqueue/dequeue/transmit path.
#[derive(Default)]
struct Bouncer {
    remaining: u64,
    window: u32,
}

#[derive(Clone, Debug)]
enum BMsg {
    Ping,
    Pong,
}

impl Node for Bouncer {
    type Msg = BMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, BMsg>) {
        for _ in 0..self.window.min(self.remaining as u32) {
            self.remaining -= 1;
            ctx.send(1, BMsg::Ping);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: BMsg, ctx: &mut Context<'_, BMsg>) {
        match msg {
            BMsg::Ping => ctx.send(from, BMsg::Pong),
            BMsg::Pong => {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.send(1, BMsg::Ping);
                }
            }
        }
    }
}

fn ping_pong(rounds: u64) -> (u64, f64) {
    let nodes = vec![
        Bouncer {
            remaining: rounds,
            window: 32,
        },
        Bouncer::default(),
    ];
    let mut sim = Simulation::new(nodes, NetworkConfig::reliable(), 1);
    let t = Instant::now();
    let events = sim.run_to_quiescence();
    (events, t.elapsed().as_secs_f64())
}

// ---- scenario 2: lossy + duplicating with retransmission ----------------

/// Stop-and-wait retransmission: every unacked ping re-arms a timer, so
/// loss exercises timer fire and clean delivery exercises timer cancel.
#[derive(Default)]
struct Retx {
    to_deliver: u64,
    next: u64,
    inflight: HashMap<u64, TimerId>,
    window: u32,
}

#[derive(Clone, Debug)]
enum RMsg {
    Ping(u64),
    Ack(u64),
}

impl Retx {
    fn pump(&mut self, ctx: &mut Context<'_, RMsg>) {
        while (self.inflight.len() as u32) < self.window && self.next < self.to_deliver {
            let i = self.next;
            self.next += 1;
            self.post(i, ctx);
        }
    }
    fn post(&mut self, i: u64, ctx: &mut Context<'_, RMsg>) {
        ctx.send(1, RMsg::Ping(i));
        let t = ctx.set_timer(SimDuration::millis(20), i);
        self.inflight.insert(i, t);
    }
}

impl Node for Retx {
    type Msg = RMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, RMsg>) {
        self.pump(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: RMsg, ctx: &mut Context<'_, RMsg>) {
        match msg {
            RMsg::Ping(i) => ctx.send(0, RMsg::Ack(i)),
            RMsg::Ack(i) => {
                if let Some(t) = self.inflight.remove(&i) {
                    ctx.cancel_timer(t);
                }
                self.pump(ctx);
            }
        }
    }

    fn on_timer(&mut self, _id: TimerId, tag: u64, ctx: &mut Context<'_, RMsg>) {
        if self.inflight.remove(&tag).is_some() {
            self.post(tag, ctx);
        }
    }
}

fn lossy_dup(msgs: u64) -> (u64, f64) {
    let nodes = vec![
        Retx {
            to_deliver: msgs,
            window: 64,
            ..Default::default()
        },
        Retx::default(),
    ];
    let net = NetworkConfig {
        default_link: LinkConfig {
            loss: 0.2,
            duplicate: 0.1,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut sim = Simulation::new(nodes, net, 2);
    let t = Instant::now();
    let events = sim.run_to_quiescence();
    (events, t.elapsed().as_secs_f64())
}

// ---- scenario 3: airline under the T1 partition -------------------------

fn airline_partitioned(txns: u32) -> (u64, f64) {
    let n = 8;
    let w = AirlineWorkload {
        n_sites: n,
        flights: 4,
        seats_per_flight: 10_000,
        txns: txns as usize,
        mix: (0.8, 0.15, 0.0, 0.05),
        ..Default::default()
    }
    .generate(11);
    let a: Vec<usize> = (0..n / 2).collect();
    let b: Vec<usize> = (n / 2..n).collect();
    let sched = PartitionSchedule::fully_connected(n).split_at(SimTime::ZERO, &[&a, &b]);
    let mut cfg = ClusterConfig::new(n, w.catalog.clone());
    cfg.net = NetworkConfig::reliable().with_partitions(sched);
    cfg.faults = FaultPlan::none();
    cfg.scripts = w.scripts.clone();
    cfg.seed = 1;
    let mut cl = Cluster::build(cfg);
    let until = SimTime::ZERO + SimDuration::secs(600);
    let t = Instant::now();
    let events = cl.sim.run_until(until);
    (events, t.elapsed().as_secs_f64())
}

// ---- scenario 4: deep backlog -------------------------------------------

fn deep_backlog(gap: SimDuration) -> (u64, f64) {
    let mut sim = deep_queue(100_000, gap);
    let t = Instant::now();
    let events = sim.run_to_quiescence();
    (events, t.elapsed().as_secs_f64())
}

// ---- harness ------------------------------------------------------------

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernel.json".to_string());
    let scale = Scale::from_env();
    // Quick keeps CI fast; Full is for real measurement sessions.
    let (rounds, msgs, txns, gap_us) = match scale {
        Scale::Quick => (400_000u64, 60_000u64, 2_000u32, 100u64),
        Scale::Full => (4_000_000, 600_000, 20_000, 1_000),
    };

    let mut results: Vec<(&str, u64, f64)> = Vec::new();
    let (e, s) = ping_pong(rounds);
    results.push(("reliable_ping_pong", e, s));
    let (e, s) = lossy_dup(msgs);
    results.push(("lossy_dup_retx", e, s));
    let (e, s) = airline_partitioned(txns);
    results.push(("airline_t1_partitioned", e, s));
    let (e, s) = deep_backlog(SimDuration::micros(gap_us));
    results.push(("deep_queue", e, s));

    let mut json = String::from("{\n  \"scenarios\": [\n");
    for (i, (name, events, secs)) in results.iter().enumerate() {
        let eps = *events as f64 / secs.max(1e-9);
        println!("{name:<24} {events:>10} events  {secs:>8.3} s  {eps:>12.0} events/s");
        let _ = write!(
            json,
            "    {{\"name\": \"{name}\", \"events\": {events}, \"wall_secs\": {secs:.6}, \"events_per_sec\": {eps:.0}}}"
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"scale\": \"{}\"\n}}\n",
        match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    );
    std::fs::write(&out_path, json).expect("write BENCH_kernel.json");
    println!("wrote {out_path}");
}
