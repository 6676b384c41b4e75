//! The `deep_queue` kernel scenario, shared by `kernel_baseline` and the
//! `bench_kernel` criterion group.
//!
//! The other kernel scenarios keep at most a few dozen entries pending,
//! so they cannot see what a *deep* backlog costs each event. The engine
//! runs are deep: `Cluster::build` schedules a whole script of arrivals
//! up front (100k–200k) and the protocol's messages and timers then run
//! on top of that backlog. This scenario reproduces the shape in
//! isolation: `externals` pre-scheduled arrivals one `gap` apart, a
//! window-32 ping-pong between two nodes for as long as arrivals remain,
//! and on every event the handling node cancels its previous timer and
//! arms a new one — so all three of the kernel's lanes are hot at once.

use dvp_simnet::network::NetworkConfig;
use dvp_simnet::node::{Context, Node, TimerId};
use dvp_simnet::sim::Simulation;
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_simnet::NodeId;

const WINDOW: u32 = 32;

/// Longer than any gap between two events at one node, so the timers are
/// always cancelled, never fired (but for the last one per node).
const TIMER: SimDuration = SimDuration::secs(60);

/// Ping or pong.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Sent by node 0; echoed.
    Ping,
    /// The echo; node 0 refills its window on it.
    Pong,
}

/// One side of the ping-pong.
#[derive(Default)]
pub struct DeepNode {
    /// Tag of the last scripted arrival; seeing it ends the ping-pong.
    last_arrival: u64,
    draining: bool,
    timer: Option<TimerId>,
}

impl DeepNode {
    fn rearm(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        self.timer = Some(ctx.set_timer(TIMER, 0));
    }
}

impl Node for DeepNode {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        if ctx.me() == 0 {
            for _ in 0..WINDOW {
                ctx.send(1, Msg::Ping);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        self.rearm(ctx);
        match msg {
            Msg::Ping => ctx.send(from, Msg::Pong),
            Msg::Pong if !self.draining => ctx.send(from, Msg::Ping),
            Msg::Pong => {}
        }
    }

    fn on_external(&mut self, tag: u64, ctx: &mut Context<'_, Msg>) {
        self.rearm(ctx);
        self.draining |= tag == self.last_arrival;
    }
}

/// Build the scenario: `externals` arrivals at node 0, `gap` apart. Run it
/// with `run_to_quiescence`; it processes roughly
/// `externals * (1 + gap / 94 µs)` events (the default link's round trip
/// averages 6 ms for a window of 32 pings and 32 pongs).
pub fn deep_queue(externals: u64, gap: SimDuration) -> Simulation<DeepNode> {
    let nodes = vec![
        DeepNode {
            last_arrival: externals - 1,
            ..Default::default()
        },
        DeepNode::default(),
    ];
    let mut sim = Simulation::new(nodes, NetworkConfig::reliable(), 3);
    let mut at = SimTime::ZERO;
    for tag in 0..externals {
        at += gap;
        sim.schedule_external(at, 0, tag);
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_is_the_whole_script_and_the_run_ends() {
        let mut sim = deep_queue(1_000, SimDuration::micros(100));
        let events = sim.run_to_quiescence();
        assert!(sim.stats().peak_queue_depth >= 1_000);
        assert!(events > 2_000, "arrivals plus ping-pong, got {events}");
        // One cancel per event but the first at each node; the two timers
        // left armed at the end fire.
        assert_eq!(sim.stats().timers_fired, 2);
        assert_eq!(sim.stats().timers_suppressed, events - 2 - 2);
        assert_eq!(sim.pending_events(), 0);
    }
}
