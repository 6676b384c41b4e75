//! Property tests for the Virtual Message layer: under an adversarial
//! network (arbitrary loss, duplication, and batching of frames), every
//! created Vm is accepted exactly once and eventually completes, and the
//! total transferred amount is conserved. A clock runs through every
//! schedule: time passes between steps, and the sender's retransmit timer
//! fires at its earliest channel deadline, so the round-trip estimates,
//! deadlines and backoff all run under the adversary.

use bytes::Bytes;
use dvp::vmsg::{Frame, Receipt, VmConfig, VmEndpoint, WireDatagram};
use proptest::prelude::*;

/// One adversarial step applied to the channel between two endpoints.
#[derive(Clone, Debug)]
enum Step {
    /// Sender mints a Vm carrying `amount`.
    Create(u8),
    /// Deliver up to `n` queued frames sender→receiver, dropping each
    /// with the given mask bit and duplicating with the dup mask bit.
    DeliverToReceiver { n: u8, drop_mask: u8, dup_mask: u8 },
    /// Deliver queued frames receiver→sender (acks), with loss.
    DeliverToSender { n: u8, drop_mask: u8 },
    /// Sender retransmission timer fires at its deadline.
    Tick,
    /// `ms` milliseconds pass.
    Wait(u8),
}

/// The two endpoints' shared clock (µs).
#[derive(Default)]
struct Clock(u64);

impl Clock {
    /// Let `ms` milliseconds pass.
    fn wait(&mut self, ms: u8, sender: &mut VmEndpoint, receiver: &mut VmEndpoint) {
        self.0 += u64::from(ms) * 1_000;
        sender.advance_clock(self.0);
        receiver.advance_clock(self.0);
    }

    /// Run to the sender's earliest deadline, if it has one, and fire its
    /// retransmit timer there.
    fn fire(&mut self, sender: &mut VmEndpoint, receiver: &mut VmEndpoint) {
        if let Some(due) = sender.next_deadline() {
            self.0 = self.0.max(due);
        }
        sender.advance_clock(self.0);
        receiver.advance_clock(self.0);
        sender.tick();
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u8..20).prop_map(Step::Create),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(n, drop_mask, dup_mask)| {
            Step::DeliverToReceiver {
                n: n % 8,
                drop_mask,
                dup_mask,
            }
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(n, drop_mask)| Step::DeliverToSender {
            n: n % 8,
            drop_mask
        }),
        Just(Step::Tick),
        (0u8..40).prop_map(Step::Wait),
    ]
}

#[derive(Default)]
struct Wire {
    to_receiver: Vec<Frame>,
    to_sender: Vec<Frame>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn adversarial_schedules_never_lose_or_double_value(
        steps in proptest::collection::vec(step_strategy(), 1..120)
    ) {
        let cfg = VmConfig { window: 4, ..VmConfig::default() };
        let mut sender = VmEndpoint::new(0, cfg);
        let mut receiver = VmEndpoint::new(1, cfg);
        let mut wire = Wire::default();
        let mut clock = Clock::default();
        let mut created_total: u64 = 0;
        let mut accepted_total: u64 = 0;

        let run_step = |step: &Step,
                            sender: &mut VmEndpoint,
                            receiver: &mut VmEndpoint,
                            wire: &mut Wire,
                            clock: &mut Clock,
                            created_total: &mut u64,
                            accepted_total: &mut u64| {
            match step {
                Step::Create(amount) => {
                    let _op = sender.create(1, Bytes::from(vec![*amount]));
                    *created_total += *amount as u64;
                }
                Step::DeliverToReceiver { n, drop_mask, dup_mask } => {
                    for (to, f) in sender.drain_outbox() {
                        assert_eq!(to, 1);
                        wire.to_receiver.push(f);
                    }
                    for k in 0..(*n as usize).min(wire.to_receiver.len()) {
                        if wire.to_receiver.is_empty() { break; }
                        let f = wire.to_receiver.remove(0);
                        let _ = k;
                        let copies = if dup_mask & (1 << (k % 8)) != 0 { 2 } else { 1 };
                        if drop_mask & (1 << (k % 8)) != 0 {
                            continue; // lost
                        }
                        for _ in 0..copies {
                            if let Receipt::Fresh { seq, payload } = receiver.on_frame(0, f.clone()) {
                                *accepted_total += payload[0] as u64;
                                receiver.commit_accept(0, seq);
                            }
                        }
                    }
                }
                Step::DeliverToSender { n, drop_mask } => {
                    for (to, f) in receiver.drain_outbox() {
                        assert_eq!(to, 0);
                        wire.to_sender.push(f);
                    }
                    for k in 0..(*n as usize) {
                        if wire.to_sender.is_empty() { break; }
                        let f = wire.to_sender.remove(0);
                        if drop_mask & (1 << (k % 8)) != 0 {
                            continue;
                        }
                        sender.on_frame(1, f);
                    }
                }
                Step::Tick => clock.fire(sender, receiver),
                Step::Wait(ms) => clock.wait(*ms, sender, receiver),
            }
        };

        for step in &steps {
            run_step(step, &mut sender, &mut receiver, &mut wire, &mut clock,
                     &mut created_total, &mut accepted_total);
        }

        // Invariant during the run: never accept more than was created.
        prop_assert!(accepted_total <= created_total);

        // Drain to quiescence over a reliable network: everything created
        // must complete ("a Vm is never lost").
        for _ in 0..2048 {
            if !sender.has_outstanding() && wire.to_receiver.is_empty() && wire.to_sender.is_empty() {
                break;
            }
            for s in [
                Step::Tick,
                Step::DeliverToReceiver { n: 7, drop_mask: 0, dup_mask: 0 },
                Step::DeliverToSender { n: 7, drop_mask: 0 },
            ] {
                run_step(&s, &mut sender, &mut receiver, &mut wire, &mut clock,
                         &mut created_total, &mut accepted_total);
            }
        }
        prop_assert!(!sender.has_outstanding(), "all Vms must complete");
        prop_assert_eq!(accepted_total, created_total,
            "exactly-once acceptance of every created amount");
        prop_assert_eq!(sender.stats().created, receiver.stats().accepted);
    }

    /// Crash-and-replay at arbitrary points preserves exactly-once
    /// semantics: the receiver's durable cursor dedups retransmissions,
    /// the sender's durable Created ops resume retransmission.
    #[test]
    fn crash_replay_preserves_exactly_once(
        amounts in proptest::collection::vec(1u8..20, 1..12),
        crash_sender_at in 0usize..12,
        crash_receiver_at in 0usize..12,
    ) {
        let cfg = VmConfig { window: 8, ..VmConfig::default() };
        let mut sender = VmEndpoint::new(0, cfg);
        let mut receiver = VmEndpoint::new(1, cfg);
        let mut sender_log = Vec::new();   // durable Created ops
        let mut receiver_log = Vec::new(); // durable Accepted ops
        let mut accepted_total = 0u64;
        let created_total: u64 = amounts.iter().map(|&a| a as u64).sum();
        let mut clock = Clock::default();

        for (i, &a) in amounts.iter().enumerate() {
            clock.wait(3, &mut sender, &mut receiver);
            sender_log.push(sender.create(1, Bytes::from(vec![a])));

            if i == crash_sender_at {
                sender.crash_reset();
                for op in &sender_log {
                    sender.replay(op);
                }
            }
            if i == crash_receiver_at {
                receiver.crash_reset();
                for op in &receiver_log {
                    receiver.replay(op);
                }
            }

            // A lossy delivery round (arbitrarily drop every other frame).
            for (k, (_, f)) in sender.drain_outbox().into_iter().enumerate() {
                if k % 2 == 0 {
                    if let Receipt::Fresh { seq, payload } = receiver.on_frame(0, f) {
                        accepted_total += payload[0] as u64;
                        receiver_log.push(receiver.commit_accept(0, seq));
                    }
                }
            }
            for (_, f) in receiver.drain_outbox() {
                sender.on_frame(1, f);
            }
        }

        // Reliable drain to quiescence.
        for _ in 0..1024 {
            if !sender.has_outstanding() {
                break;
            }
            clock.fire(&mut sender, &mut receiver);
            for (_, f) in sender.drain_outbox() {
                if let Receipt::Fresh { seq, payload } = receiver.on_frame(0, f) {
                    accepted_total += payload[0] as u64;
                    receiver_log.push(receiver.commit_accept(0, seq));
                }
            }
            for (_, f) in receiver.drain_outbox() {
                sender.on_frame(1, f);
            }
        }
        prop_assert!(!sender.has_outstanding());
        prop_assert_eq!(accepted_total, created_total);
    }

    /// Datagram-granularity adversary: with link-level coalescing the
    /// unit of loss, duplication, and reordering is the *datagram* (one
    /// encoded frame batch), not the frame. Whatever the schedule, the
    /// receiver must accept each Vm exactly once, in dense per-channel
    /// FIFO order, and every fresh acceptance must land inside the
    /// oracle window `(acked, created]` of the sender's channel state.
    /// Runs both coalesced (wire carries encoded [`WireDatagram`]s) and
    /// non-coalesced (wire carries bare frames) for the same schedule
    /// shape.
    #[test]
    fn datagram_adversary_preserves_fifo_and_window(
        steps in proptest::collection::vec(dgram_step_strategy(), 1..100),
        coalesce in any::<bool>(),
    ) {
        let cfg = VmConfig { window: 4, coalesce };
        let mut sender = VmEndpoint::new(0, cfg);
        let mut receiver = VmEndpoint::new(1, cfg);
        // The wire: each element is one transmission unit.
        let mut to_receiver: Vec<Unit> = Vec::new();
        let mut to_sender: Vec<Unit> = Vec::new();
        // created/accepted value totals and the FIFO/window oracle.
        let mut tally = Tally::default();
        let mut clock = Clock::default();

        // Drain one side's queued traffic onto the wire as units.
        fn drain(ep: &mut VmEndpoint, expect_to: usize, wire: &mut Vec<Unit>, coalesce: bool) {
            if coalesce {
                let mut dgrams = Vec::new();
                ep.drain_datagrams_into(0, &mut dgrams);
                for (to, wd) in dgrams {
                    assert_eq!(to, expect_to);
                    wire.push(Unit::Dgram(wd));
                }
            } else {
                for (to, f) in ep.drain_outbox() {
                    assert_eq!(to, expect_to);
                    wire.push(Unit::Frame(f));
                }
            }
        }

        // Deliver one unit's frames into an endpoint; returns the frames.
        fn unpack(ep: &mut VmEndpoint, unit: &Unit) -> Vec<Frame> {
            match unit {
                Unit::Dgram(wd) => {
                    let d = wd.decode();
                    assert_ne!(d.id, 0, "coalesced datagrams get real ids");
                    ep.begin_datagram(d.id);
                    d.frames
                }
                Unit::Frame(f) => vec![f.clone()],
            }
        }

        let run = |step: &DStep,
                   sender: &mut VmEndpoint,
                   receiver: &mut VmEndpoint,
                   to_receiver: &mut Vec<Unit>,
                   to_sender: &mut Vec<Unit>,
                   clock: &mut Clock,
                   t: &mut Tally| {
            match step {
                DStep::Create(amount) => {
                    let _op = sender.create(1, Bytes::from(vec![*amount]));
                    t.created_total += *amount as u64;
                    t.created_count += 1;
                }
                DStep::Tick => clock.fire(sender, receiver),
                DStep::Wait(ms) => clock.wait(*ms, sender, receiver),
                DStep::FlushData => drain(sender, 1, to_receiver, coalesce),
                DStep::FlushAcks => {
                    // The delayed-ack timer fires: owed acks go standalone.
                    if coalesce {
                        receiver.flush_owed_ack(0);
                    }
                    drain(receiver, 0, to_sender, coalesce);
                }
                DStep::DeliverData { n, drop_mask, dup_mask, from_back } => {
                    for k in 0..(*n as usize) {
                        if to_receiver.is_empty() { break; }
                        // Reorder by taking from either end of the wire.
                        let unit = if *from_back & (1 << (k % 8)) != 0 {
                            to_receiver.pop().unwrap()
                        } else {
                            to_receiver.remove(0)
                        };
                        if drop_mask & (1 << (k % 8)) != 0 {
                            continue; // the whole datagram is lost
                        }
                        let copies = if dup_mask & (1 << (k % 8)) != 0 { 2 } else { 1 };
                        for _ in 0..copies {
                            for f in unpack(receiver, &unit) {
                                let Receipt::Fresh { seq, payload } = receiver.on_frame(0, f)
                                else {
                                    continue;
                                };
                                // The fresh frame, then every held frame
                                // it put in order.
                                let mut next = Some((seq, payload));
                                while let Some((seq, payload)) = next {
                                    // Per-channel FIFO: dense, in order,
                                    // exactly once.
                                    assert_eq!(seq, t.last_accepted + 1,
                                        "fresh acceptance out of FIFO order");
                                    // Oracle window (acked, created].
                                    assert!(seq <= t.created_count,
                                        "accepted a seq never created");
                                    t.last_accepted = seq;
                                    t.accepted_total += payload[0] as u64;
                                    receiver.commit_accept(0, seq);
                                    next = receiver.take_ready(0);
                                }
                            }
                        }
                    }
                }
                DStep::DeliverAcks { n, drop_mask } => {
                    for k in 0..(*n as usize) {
                        if to_sender.is_empty() { break; }
                        let unit = to_sender.remove(0);
                        if drop_mask & (1 << (k % 8)) != 0 {
                            continue;
                        }
                        for f in unpack(sender, &unit) {
                            // Acks carried by the frame must never exceed
                            // what the receiver durably accepted.
                            assert!(f.ack() <= t.last_accepted, "ack beyond acceptance");
                            sender.on_frame(1, f);
                        }
                    }
                }
            }
        };

        for step in &steps {
            run(step, &mut sender, &mut receiver, &mut to_receiver, &mut to_sender,
                &mut clock, &mut tally);
        }
        prop_assert!(tally.accepted_total <= tally.created_total);

        // Reliable drain to quiescence: the timer fires at each deadline.
        for _ in 0..2048 {
            if !sender.has_outstanding() && to_receiver.is_empty() && to_sender.is_empty() {
                break;
            }
            for s in [
                DStep::Tick,
                DStep::FlushData,
                DStep::DeliverData { n: 16, drop_mask: 0, dup_mask: 0, from_back: 0 },
                DStep::FlushAcks,
                DStep::DeliverAcks { n: 16, drop_mask: 0 },
            ] {
                run(&s, &mut sender, &mut receiver, &mut to_receiver, &mut to_sender,
                    &mut clock, &mut tally);
            }
        }
        prop_assert!(!sender.has_outstanding(), "all Vms must complete");
        prop_assert_eq!(tally.accepted_total, tally.created_total,
            "exactly-once acceptance of every created amount");
        prop_assert_eq!(sender.stats().created, receiver.stats().accepted);
        if coalesce && tally.created_count > 0 {
            prop_assert!(sender.stats().datagrams_sent > 0);
        }
    }
}

/// Running oracle for the datagram adversary test.
#[derive(Default)]
struct Tally {
    created_total: u64,
    accepted_total: u64,
    /// Vms created on the 0→1 channel (the upper window bound).
    created_count: u64,
    /// Last seq accepted fresh (the FIFO cursor and lower ack bound).
    last_accepted: u64,
}

/// One transmission unit on the adversarial wire: an encoded datagram
/// (coalesced mode) or a bare frame (legacy mode).
#[derive(Clone, Debug)]
enum Unit {
    Dgram(WireDatagram),
    Frame(Frame),
}

/// One adversarial step at datagram granularity.
#[derive(Clone, Debug)]
enum DStep {
    /// Sender mints a Vm carrying `amount`.
    Create(u8),
    /// Sender retransmission timer fires at its deadline.
    Tick,
    /// `ms` milliseconds pass.
    Wait(u8),
    /// Sender's flush boundary: queued frames leave as datagrams.
    FlushData,
    /// Receiver's delayed-ack timer + flush boundary.
    FlushAcks,
    /// Deliver up to `n` data units, dropping/duplicating/reordering
    /// whole datagrams by mask bits.
    DeliverData {
        n: u8,
        drop_mask: u8,
        dup_mask: u8,
        from_back: u8,
    },
    /// Deliver up to `n` ack units toward the sender, with loss.
    DeliverAcks { n: u8, drop_mask: u8 },
}

fn dgram_step_strategy() -> impl Strategy<Value = DStep> {
    prop_oneof![
        (1u8..20).prop_map(DStep::Create),
        Just(DStep::Tick),
        (0u8..40).prop_map(DStep::Wait),
        Just(DStep::FlushData),
        Just(DStep::FlushAcks),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(n, drop_mask, dup_mask, from_back)| DStep::DeliverData {
                n: n % 8,
                drop_mask,
                dup_mask,
                from_back,
            }
        ),
        (any::<u8>(), any::<u8>()).prop_map(|(n, drop_mask)| DStep::DeliverAcks {
            n: n % 8,
            drop_mask
        }),
    ]
}
