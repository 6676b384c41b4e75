//! Kernel hot-path micro-benchmarks: the four operations every simulated
//! event decomposes into — event enqueue/dequeue through the heap,
//! timer set/cancel/fire through the timer lane, and message transmit
//! through the network model — plus `deep_queue`, the same paths taken
//! together over a 100k-entry backlog. Complements `kernel_baseline`
//! (whole-run events/sec) with per-path costs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dvp_bench::deep_queue::deep_queue;
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::node::{Context, Node, TimerId};
use dvp_simnet::sim::Simulation;
use dvp_simnet::time::SimDuration;
use dvp_simnet::NodeId;

const N: u64 = 4_096;

/// Sends a burst of `n` messages at start, never replies: the run is a
/// pure heap exercise — `n` pushes from one dispatch, then `n` pops.
#[derive(Default)]
struct Flood {
    n: u64,
}

impl Node for Flood {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        for i in 0..self.n {
            ctx.send(1, i);
        }
    }

    fn on_message(&mut self, _from: NodeId, _msg: u64, _ctx: &mut Context<'_, u64>) {}
}

/// One ball bounced `n` times: each event is a full dispatch + transmit +
/// enqueue of exactly one successor, so the queue stays depth one and the
/// measurement isolates per-event dispatch overhead.
#[derive(Default)]
struct Bounce {
    remaining: u64,
}

impl Node for Bounce {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        if self.remaining > 0 {
            ctx.send(1, ());
        }
    }

    fn on_message(&mut self, from: NodeId, _msg: (), ctx: &mut Context<'_, ()>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(from, ());
        }
    }
}

/// Sets `n` timers at start; with `cancel` they are all cancelled in the
/// same dispatch (pure set + in-place cancel, nothing ever fires), without
/// it the run drains them through the fire path.
#[derive(Default)]
struct Timers {
    n: u64,
    cancel: bool,
}

impl Node for Timers {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        let mut ids: Vec<TimerId> = Vec::with_capacity(self.n as usize);
        for i in 0..self.n {
            ids.push(ctx.set_timer(SimDuration::millis(1 + i), i));
        }
        if self.cancel {
            // Reverse order forces the deepest sift work in the lane.
            for id in ids.into_iter().rev() {
                ctx.cancel_timer(id);
            }
        }
    }

    fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<'_, ()>) {}

    fn on_timer(&mut self, _id: TimerId, _tag: u64, _ctx: &mut Context<'_, ()>) {}
}

fn bench_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    g.throughput(Throughput::Elements(N));

    g.bench_function("enqueue_dequeue_4k", |b| {
        b.iter_batched(
            || {
                Simulation::new(
                    vec![Flood { n: N }, Flood::default()],
                    NetworkConfig::reliable(),
                    1,
                )
            },
            |mut sim| sim.run_to_quiescence(),
            BatchSize::SmallInput,
        )
    });

    g.bench_function("transmit_bounce_4k", |b| {
        b.iter_batched(
            || {
                Simulation::new(
                    vec![Bounce { remaining: N }, Bounce { remaining: N }],
                    NetworkConfig::reliable(),
                    1,
                )
            },
            |mut sim| sim.run_to_quiescence(),
            BatchSize::SmallInput,
        )
    });

    g.bench_function("transmit_lossy_dup_4k", |b| {
        let net = NetworkConfig {
            default_link: dvp_simnet::network::LinkConfig {
                loss: 0.2,
                duplicate: 0.1,
                ..Default::default()
            },
            ..Default::default()
        };
        b.iter_batched(
            || Simulation::new(vec![Flood { n: N }, Flood::default()], net.clone(), 2),
            |mut sim| sim.run_to_quiescence(),
            BatchSize::SmallInput,
        )
    });

    g.bench_function("timer_set_fire_4k", |b| {
        b.iter_batched(
            || {
                Simulation::new(
                    vec![Timers {
                        n: N,
                        cancel: false,
                    }],
                    NetworkConfig::reliable(),
                    1,
                )
            },
            |mut sim| sim.run_to_quiescence(),
            BatchSize::SmallInput,
        )
    });

    g.bench_function("timer_set_cancel_4k", |b| {
        b.iter_batched(
            || {
                Simulation::new(
                    vec![Timers { n: N, cancel: true }],
                    NetworkConfig::reliable(),
                    1,
                )
            },
            |mut sim| sim.run_to_quiescence(),
            BatchSize::SmallInput,
        )
    });

    // 100k arrivals plus the ping-pong beneath them; building the backlog
    // is set-up, draining it is what is timed.
    let backlog = || deep_queue(100_000, SimDuration::micros(100));
    g.throughput(Throughput::Elements(backlog().run_to_quiescence()));
    g.bench_function("deep_queue_100k", |b| {
        b.iter_batched(
            backlog,
            |mut sim| sim.run_to_quiescence(),
            BatchSize::LargeInput,
        )
    });

    g.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
