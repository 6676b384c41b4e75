//! Endpoint unit tests: two endpoints wired back to back by hand.

use super::*;
use crate::codec::ACK_FRAME_LEN;
use crate::logop::VmLogOp;

pub(super) fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

pub(super) fn pair() -> (VmEndpoint, VmEndpoint) {
    (
        VmEndpoint::new(0, VmConfig::default()),
        VmEndpoint::new(1, VmConfig::default()),
    )
}

/// Let `e`'s clock run to its earliest channel deadline and fire its
/// retransmit timer there, as a host does.
pub(super) fn expire(e: &mut VmEndpoint) {
    let due = e.next_deadline().expect("a Vm is unacked");
    e.advance_clock(due.max(e.now));
    e.tick();
}

/// Deliver every outbox frame of `a` to `b`, returning receipts.
pub(super) fn flush(a: &mut VmEndpoint, b: &mut VmEndpoint) -> Vec<Receipt> {
    let frames = a.drain_outbox();
    frames
        .into_iter()
        .map(|(to, f)| {
            assert_eq!(to, b.site());
            b.on_frame(a.site(), f)
        })
        .collect()
}

#[test]
fn happy_path_create_accept_ack() {
    let (mut s, mut r) = pair();
    let op = s.create(1, b("5 seats"));
    assert!(matches!(op, VmLogOp::Created { to: 1, seq: 1, .. }));
    assert_eq!(s.in_flight_to(1), 1);

    let receipts = flush(&mut s, &mut r);
    let (seq, payload) = match &receipts[0] {
        Receipt::Fresh { seq, payload } => (*seq, payload.clone()),
        other => panic!("expected Fresh, got {other:?}"),
    };
    assert_eq!(payload, b("5 seats"));
    let op = r.commit_accept(0, seq);
    assert_eq!(op, VmLogOp::Accepted { from: 0, seq: 1 });

    // The ack flows back and releases the sender's state.
    let receipts = flush(&mut r, &mut s);
    assert_eq!(receipts, vec![Receipt::AckOnly]);
    assert_eq!(s.in_flight_to(1), 0);
    assert!(!s.has_outstanding());
    assert_eq!(s.stats().completed, 1);
}

#[test]
fn lost_frame_is_retransmitted_until_acked() {
    let (mut s, mut r) = pair();
    let _op = s.create(1, b("x"));
    let _lost = s.drain_outbox(); // network eats the first copy

    // Still outstanding, so its deadline regenerates it.
    assert!(s.has_outstanding());
    expire(&mut s);
    let receipts = flush(&mut s, &mut r);
    assert!(matches!(receipts[0], Receipt::Fresh { seq: 1, .. }));
    r.commit_accept(0, 1);
    flush(&mut r, &mut s);
    assert!(!s.has_outstanding());
    assert!(s.stats().retransmissions >= 1);
}

/// A duplicate proves the sender missed the ack, so it is answered
/// again, bare or coalesced. Without that, once the one ack an accept
/// owes is lost and no reverse data carries the cursor, the sender's last
/// Vm is retransmitted and discarded forever.
#[test]
fn duplicates_are_discarded_and_reacked() {
    for coalesce in [false, true] {
        let cfg = VmConfig {
            coalesce,
            ..VmConfig::default()
        };
        let (mut s, mut r) = (VmEndpoint::new(0, cfg), VmEndpoint::new(1, cfg));
        let _ = s.create(1, b("x"));
        let (_, frame) = s.drain_outbox().into_iter().next().unwrap();
        assert!(matches!(
            r.on_frame(0, frame.clone()),
            Receipt::Fresh { .. }
        ));
        r.commit_accept(0, 1);
        // The ack the accept owes leaves, and the network eats it.
        if coalesce {
            assert!(r.flush_owed_ack(0));
        }
        assert_eq!(r.drain_outbox(), vec![(0, Frame::Ack { ack: 1 })]);

        // The same frame arrives again (a retransmission) and is answered.
        assert_eq!(r.on_frame(0, frame), Receipt::Duplicate);
        assert_eq!(r.stats().duplicates_discarded, 1);
        if coalesce {
            assert!(r.has_owed_ack(0), "coalesce {coalesce}");
            assert!(r.flush_owed_ack(0));
        }
        assert_eq!(flush(&mut r, &mut s), vec![Receipt::AckOnly]);
        assert!(!s.has_outstanding(), "coalesce {coalesce}: still resending");
    }
}

#[test]
fn out_of_order_frames_are_not_accepted() {
    let (mut s, mut r) = pair();
    let _ = s.create(1, b("first"));
    let _ = s.create(1, b("second"));
    let frames = s.drain_outbox();
    // Deliver only the second frame.
    let (_, f2) = frames.into_iter().nth(1).unwrap();
    assert_eq!(r.on_frame(0, f2), Receipt::OutOfOrder);
    assert_eq!(r.ack_for(0), 0);
    // Retransmission brings both; the first is fresh, and the held
    // second follows it in order.
    expire(&mut s);
    let receipts = flush(&mut s, &mut r);
    assert!(matches!(receipts[0], Receipt::Fresh { seq: 1, .. }));
    assert_eq!(receipts[1], Receipt::OutOfOrder);
    let _ = r.commit_accept(0, 1);
    assert_eq!(r.take_ready(0), Some((2, b("second"))));
}

/// A frame that overtook its predecessor on the wire is held, not
/// dropped, and handed over once the predecessor is accepted: reordering
/// costs no retransmission.
#[test]
fn an_overtaking_frame_is_held_until_its_predecessor_is_accepted() {
    let (mut s, mut r) = pair();
    for p in ["first", "second", "third"] {
        let _ = s.create(1, b(p));
    }
    let mut frames: Vec<Frame> = s.drain_outbox().into_iter().map(|(_, f)| f).collect();
    let f1 = frames.remove(0);
    // `third` arrives twice, ahead of both others.
    for f in [frames[1].clone(), frames[1].clone(), frames[0].clone()] {
        assert_eq!(r.on_frame(0, f), Receipt::OutOfOrder);
    }
    assert_eq!(r.take_ready(0), None, "`first` is still missing");
    let Receipt::Fresh { seq: 1, payload } = r.on_frame(0, f1) else {
        panic!("`first` is next in order");
    };
    assert_eq!(payload, b("first"));
    let _ = r.commit_accept(0, 1);
    let mut handed = Vec::new();
    while let Some((seq, payload)) = r.take_ready(0) {
        handed.push((seq, payload));
        let _ = r.commit_accept(0, seq);
    }
    assert_eq!(handed, vec![(2, b("second")), (3, b("third"))]);
    flush(&mut r, &mut s);
    assert!(!s.has_outstanding());
    assert_eq!(s.stats().retransmissions, 0);
    assert_eq!(r.stats().out_of_order_held, 3);
}

/// A held frame waits while its predecessor is ignored, and is dropped
/// once a retransmitted copy of it was accepted first.
#[test]
fn a_held_frame_waits_for_its_predecessor_and_is_handed_over_once() {
    let (mut s, mut r) = pair();
    let _ = s.create(1, b("first"));
    let _ = s.create(1, b("second"));
    let frames = s.drain_outbox();
    assert_eq!(r.on_frame(0, frames[1].1.clone()), Receipt::OutOfOrder);
    // The host ignores `first` (its item is pinned): `second` stays held.
    assert!(matches!(
        r.on_frame(0, frames[0].1.clone()),
        Receipt::Fresh { seq: 1, .. }
    ));
    assert_eq!(r.take_ready(0), None);
    // Both come again; the host accepts each as it arrives.
    expire(&mut s);
    for (_, f) in s.drain_outbox() {
        if let Receipt::Fresh { seq, .. } = r.on_frame(0, f) {
            let _ = r.commit_accept(0, seq);
        }
    }
    assert_eq!(r.ack_for(0), 2);
    assert_eq!(r.take_ready(0), None, "the held copy of `second` is stale");
}

/// A fresh Vm the host cannot take yet, handed back, is held and handed
/// over again when the host asks: no retransmission needed.
#[test]
fn a_vm_held_back_by_the_host_comes_back_when_asked() {
    let (mut s, mut r) = pair();
    let _ = s.create(1, b("x"));
    let (_, f) = s.drain_outbox().remove(0);
    let Receipt::Fresh { seq, payload } = r.on_frame(0, f) else {
        panic!("in order");
    };
    r.hold_back(0, seq, &payload);
    assert_eq!(r.take_ready(0), Some((1, b("x"))));
    assert_eq!(r.take_ready(0), None, "handed over once");
    let _ = r.commit_accept(0, 1);
    flush(&mut r, &mut s);
    assert!(!s.has_outstanding());
    assert_eq!(s.stats().retransmissions, 0);
}

#[test]
fn ignored_fresh_frame_comes_back() {
    // Host ignores a Fresh receipt (e.g. item locked) — no commit_accept.
    let (mut s, mut r) = pair();
    let _ = s.create(1, b("x"));
    let receipts = flush(&mut s, &mut r);
    assert!(matches!(receipts[0], Receipt::Fresh { .. }));
    // Cursor unmoved; retransmission redelivers as Fresh again.
    expire(&mut s);
    let receipts = flush(&mut s, &mut r);
    assert!(matches!(receipts[0], Receipt::Fresh { seq: 1, .. }));
}

#[test]
fn window_limits_transmission_not_creation() {
    let cfg = VmConfig {
        window: 2,
        ..VmConfig::default()
    };
    let mut s = VmEndpoint::new(0, cfg);
    let mut r = VmEndpoint::new(1, cfg);
    for i in 0..5 {
        let _ = s.create(1, b(&format!("m{i}")));
    }
    assert_eq!(s.in_flight_to(1), 5, "creation is unlimited");
    // Only the first two were put on the wire.
    let frames = s.drain_outbox();
    assert_eq!(frames.len(), 2);
    for (_, f) in frames {
        if let Receipt::Fresh { seq, .. } = r.on_frame(0, f) {
            r.commit_accept(0, seq);
        }
    }
    // Acks slide the window and admit 3 and 4 at once.
    flush(&mut r, &mut s);
    let seqs: Vec<Seq> = s
        .drain_outbox()
        .iter()
        .filter_map(|(_, f)| match f {
            Frame::Data { seq, .. } => Some(*seq),
            _ => None,
        })
        .collect();
    assert_eq!(seqs, vec![3, 4]);
}

#[test]
fn all_acked_endpoint_tick_does_no_work() {
    let (mut s, mut r) = pair();
    // Complete a full lifecycle on the 0→1 channel.
    let _ = s.create(1, b("x"));
    for receipt in flush(&mut s, &mut r) {
        if let Receipt::Fresh { seq, .. } = receipt {
            r.commit_accept(0, seq);
        }
    }
    flush(&mut r, &mut s);
    assert!(!s.has_outstanding());

    // The channel exists but is idle: a tick must skip it, queue
    // nothing, and count nothing as a retransmission.
    let before = *s.stats();
    s.tick();
    assert!(s.drain_outbox().is_empty(), "idle tick queued frames");
    assert_eq!(s.stats().retransmissions, before.retransmissions);
    assert_eq!(s.stats().data_frames_sent, before.data_frames_sent);
    assert_eq!(
        s.stats().idle_channels_skipped,
        before.idle_channels_skipped + 1,
        "the idle channel must be counted as skipped"
    );
}

#[test]
fn tick_visits_only_dirty_channels() {
    let cfg = VmConfig::default();
    let mut s = VmEndpoint::new(0, cfg);
    let mut r1 = VmEndpoint::new(1, cfg);
    // Channel 0→1 completes; channel 0→2 stays in flight.
    let _ = s.create(1, b("done"));
    for receipt in flush(&mut s, &mut r1) {
        if let Receipt::Fresh { seq, .. } = receipt {
            r1.commit_accept(0, seq);
        }
    }
    flush(&mut r1, &mut s);
    let _ = s.create(2, b("pending"));
    s.drain_outbox(); // lose the original transmission

    assert!(s.has_outstanding());
    expire(&mut s);
    let frames = s.drain_outbox();
    assert_eq!(frames.len(), 1, "only the in-flight Vm is retransmitted");
    assert_eq!(frames[0].0, 2);
    assert_eq!(s.stats().idle_channels_skipped, 1, "channel to 1 skipped");
}

#[test]
fn drain_into_variants_reuse_caller_buffers() {
    let (mut s, mut r) = pair();
    let _ = s.create(1, b("x"));
    let mut frames = Vec::with_capacity(8);
    s.drain_outbox_into(&mut frames);
    assert_eq!(frames.len(), 1);
    for (to, f) in frames.drain(..) {
        assert_eq!(to, 1);
        if let Receipt::Fresh { seq, .. } = r.on_frame(0, f) {
            r.commit_accept(0, seq);
        }
    }
    flush(&mut r, &mut s);
    let mut completed = Vec::new();
    s.drain_completed_into(&mut completed);
    assert_eq!(completed, vec![(1, 1, b("x"))]);
    // A second drain finds both endpoint buffers empty.
    s.drain_outbox_into(&mut frames);
    s.drain_completed_into(&mut completed);
    assert!(frames.is_empty());
    assert_eq!(completed.len(), 1, "append semantics: caller clears");
}

/// A cumulative ack hands back every Vm it releases with the payload it
/// was created with, lowest `seq` first: the endpoint is the host's one
/// record of what an unacked Vm carries.
#[test]
fn one_cumulative_ack_hands_back_each_released_vm_with_its_payload() {
    let (mut s, _) = pair();
    let sent = [b("one"), b("two"), b("three"), b("four")];
    for p in &sent {
        let _ = s.create(1, p.clone());
    }
    let _ = s.create(2, b("elsewhere"));
    assert_eq!(
        s.on_frame(1, Frame::<Bytes>::Ack { ack: 3 }),
        Receipt::AckOnly
    );
    let mut completed = Vec::new();
    s.drain_completed_into(&mut completed);
    let seqs: Vec<(SiteId, Seq)> = completed.iter().map(|&(p, q, _)| (p, q)).collect();
    assert_eq!(seqs, vec![(1, 1), (1, 2), (1, 3)]);
    for ((_, _, got), want) in completed.iter().zip(&sent) {
        assert_eq!(got, want);
        assert_eq!(
            got.as_ptr(),
            want.as_ptr(),
            "moved out of the ring, not copied"
        );
    }
    assert_eq!(s.in_flight_to(1), 1);
    assert_eq!(s.in_flight_to(2), 1);
}

#[test]
fn outgoing_toward_iterates_without_collecting() {
    let mut s = VmEndpoint::new(0, VmConfig::default());
    let _ = s.create(1, b("a"));
    let _ = s.create(1, b("b"));
    let seqs: Vec<Seq> = s.outgoing_toward(1).map(|(seq, _)| seq).collect();
    assert_eq!(seqs, vec![1, 2]);
    assert_eq!(s.outgoing_toward(7).count(), 0, "unknown peer is empty");
}

#[test]
fn crash_and_replay_restores_outstanding_vms() {
    let (mut s, mut r) = pair();
    let op1 = s.create(1, b("a"));
    let op2 = s.create(1, b("b"));
    s.drain_outbox(); // both lost

    // Sender crashes; volatile state gone.
    s.crash_reset();
    assert_eq!(s.in_flight_to(1), 0);

    // Recovery replays the durable Created ops.
    s.replay(&op1);
    s.replay(&op2);
    assert_eq!(s.in_flight_to(1), 2);

    // Normal processing resumes: retransmit rounds until everything is
    // accepted and acked. (Frames delivered in one batch are classified
    // before the intervening commits, so seq 2 is out-of-order on the
    // first round — the retransmission machinery absorbs that.)
    for _round in 0..4 {
        if !s.has_outstanding() {
            break;
        }
        expire(&mut s);
        for receipt in flush(&mut s, &mut r) {
            if let Receipt::Fresh { seq, .. } = receipt {
                r.commit_accept(0, seq);
            }
        }
        flush(&mut r, &mut s);
    }
    assert!(!s.has_outstanding());
}

#[test]
fn receiver_crash_replay_preserves_dedup() {
    let (mut s, mut r) = pair();
    let _ = s.create(1, b("a"));
    let mut accepted_ops = Vec::new();
    for receipt in flush(&mut s, &mut r) {
        if let Receipt::Fresh { seq, .. } = receipt {
            accepted_ops.push(r.commit_accept(0, seq));
        }
    }
    // Receiver crashes after durably accepting; ack to sender was lost.
    r.crash_reset();
    for op in &accepted_ops {
        r.replay(op);
    }
    // Sender retransmits; receiver must classify as duplicate, not
    // re-apply (that would double-count the value!).
    expire(&mut s);
    let receipts = flush(&mut s, &mut r);
    assert_eq!(receipts, vec![Receipt::Duplicate]);
}

#[test]
fn ack_observed_replay_trims_sender_state() {
    let mut s = VmEndpoint::new(0, VmConfig::default());
    let op = s.create(1, b("a"));
    s.crash_reset();
    s.replay(&op);
    s.replay(&VmLogOp::AckObserved { to: 1, seq: 1 });
    assert_eq!(s.in_flight_to(1), 0);
}

#[test]
#[should_panic(expected = "itself")]
fn self_send_is_a_bug() {
    let mut s = VmEndpoint::new(0, VmConfig::default());
    let _ = s.create(0, Bytes::new());
}

#[test]
fn snapshot_restore_roundtrips_exactly() {
    let (mut s, mut r) = pair();
    let _ = s.create(1, b("a"));
    let _ = s.create(1, b("b"));
    for receipt in flush(&mut s, &mut r) {
        if let Receipt::Fresh { seq, .. } = receipt {
            r.commit_accept(0, seq);
        }
    }
    flush(&mut r, &mut s); // acks release seq 1 (seq 2 was batched out of order)
    let (mut snap, mut again) = (Vec::new(), Vec::new());
    s.snapshot_into(&mut snap);
    let mut s2 = VmEndpoint::new(0, VmConfig::default());
    s2.restore(&snap);
    s2.snapshot_into(&mut again);
    assert_eq!(again, snap);
    assert_eq!(s2.in_flight_to(1), s.in_flight_to(1));
    assert_eq!(s2.ack_for(1), s.ack_for(1));
    // The restored endpoint continues the sequence space correctly.
    let op = s2.create(1, b("c"));
    assert!(matches!(op, crate::VmLogOp::Created { seq: 3, .. }));
}

fn coalescing_cfg() -> VmConfig {
    VmConfig {
        coalesce: true,
        ..VmConfig::default()
    }
}

/// Deliver every drained datagram of `a` to `b`, returning receipts.
fn flush_datagrams(a: &mut VmEndpoint, b: &mut VmEndpoint) -> Vec<Receipt> {
    let mut dgrams = Vec::new();
    a.drain_datagrams_into(0, &mut dgrams);
    let mut receipts = Vec::new();
    for (to, wire) in dgrams {
        assert_eq!(to, b.site());
        let d = wire.decode();
        b.begin_datagram(d.id);
        for f in d.frames {
            receipts.push(b.on_frame(a.site(), f));
        }
    }
    receipts
}

#[test]
fn coalesced_drain_builds_one_datagram_per_peer() {
    let mut s = VmEndpoint::new(0, coalescing_cfg());
    let _ = s.create(1, b("a"));
    let _ = s.create(2, b("b"));
    let _ = s.create(1, b("c"));
    let mut dgrams = Vec::new();
    s.drain_datagrams_into(0, &mut dgrams);
    assert_eq!(dgrams.len(), 2, "one datagram per peer");
    assert!(
        dgrams.windows(2).all(|w| w[0].0 < w[1].0),
        "datagrams come out in ascending peer order"
    );
    let to1 = &dgrams.iter().find(|(to, _)| *to == 1).unwrap().1;
    assert_eq!(to1.frame_count(), 2, "both frames toward 1 coalesced");
    assert_eq!(to1.decode().id, 1, "ids are 1-based per peer");
    assert_eq!(s.stats().datagrams_sent, 2);
    assert!(s.stats().bytes_sent > 0);
    // Per-channel FIFO order survives the coalescing.
    let seqs: Vec<Seq> = to1
        .decode()
        .frames
        .iter()
        .filter_map(|f| match f {
            Frame::Data { seq, .. } => Some(*seq),
            _ => None,
        })
        .collect();
    assert_eq!(seqs, vec![1, 2]);
}

#[test]
fn coalesced_lifecycle_with_owed_ack_piggyback() {
    let mut s = VmEndpoint::new(0, coalescing_cfg());
    let mut r = VmEndpoint::new(1, coalescing_cfg());
    let _ = s.create(1, b("x"));
    for receipt in flush_datagrams(&mut s, &mut r) {
        if let Receipt::Fresh { seq, .. } = receipt {
            r.commit_accept(0, seq);
        }
    }
    // In coalesce mode the ack is *owed* — nothing on the wire yet.
    assert!(r.has_owed_ack(0));
    let mut none = Vec::new();
    r.drain_datagrams_into(0, &mut none);
    assert!(none.is_empty(), "owed ack alone does not build a datagram");
    // Reverse data traffic folds it in for free.
    let _ = r.create(0, b("reverse"));
    let mut dgrams = Vec::new();
    r.drain_datagrams_into(0, &mut dgrams);
    assert_eq!(dgrams.len(), 1);
    assert!(!r.has_owed_ack(0), "owed ack folded into the datagram");
    assert_eq!(r.stats().bytes_acked_piggyback, ACK_FRAME_LEN as u64);
    assert_eq!(r.stats().ack_frames_sent, 0, "no standalone ack frame");
    let d = dgrams[0].1.decode();
    match &d.frames[0] {
        Frame::Data { ack, .. } => assert_eq!(*ack, 1, "refreshed piggyback ack"),
        other => panic!("expected data frame, got {other:?}"),
    }
    // Delivering it releases the sender's outgoing state.
    for (_, wire) in dgrams {
        let d = wire.decode();
        s.begin_datagram(d.id);
        for f in d.frames {
            s.on_frame(1, f);
        }
    }
    assert!(!s.has_outstanding());
}

#[test]
fn second_owed_ack_merges_and_is_counted_as_piggybacked() {
    // Two accepts from the same peer inside one dispatch: the first
    // marks the ack owed, the second merges into it. The merge must
    // be counted as a saved standalone ack frame — this is the
    // dominant piggyback saving under datagram coalescing, where a
    // multi-frame datagram produces several accepts back to back.
    let mut s = VmEndpoint::new(0, coalescing_cfg());
    let mut r = VmEndpoint::new(1, coalescing_cfg());
    let _ = s.create(1, b("a"));
    let _ = s.create(1, b("b"));
    let mut dgrams = Vec::new();
    s.drain_datagrams_into(0, &mut dgrams);
    for (_, wire) in dgrams {
        let d = wire.decode();
        r.begin_datagram(d.id);
        // Commit each accept as it lands — the way a real host
        // processes a datagram — so the second frame is in order.
        for f in d.frames {
            if let Receipt::Fresh { seq, .. } = r.on_frame(0, f) {
                r.commit_accept(0, seq);
            }
        }
    }
    assert!(r.has_owed_ack(0));
    assert_eq!(
        r.stats().bytes_acked_piggyback,
        ACK_FRAME_LEN as u64,
        "the merged second ack counts as one saved frame"
    );
    // The surviving owed ack flushes standalone: one frame acking both.
    assert!(r.flush_owed_ack(0));
    let mut dgrams = Vec::new();
    r.drain_datagrams_into(0, &mut dgrams);
    let d = dgrams[0].1.decode();
    assert_eq!(d.frames, vec![Frame::Ack { ack: 2 }]);
    assert_eq!(r.stats().ack_frames_sent, 1);
}

#[test]
fn a_recovered_cursor_riding_data_counts_without_an_owed_ack() {
    // Every accept owes an ack, so between flushes the on-wire cursor
    // never trails the accept cursor. A crash breaks that: it forgets the
    // owed ack and what was last sent, while replay restores what was
    // accepted. The first data datagram toward the peer then carries an
    // advance nothing owes, and it spares the standalone frame the
    // sender's retransmission would otherwise draw as a duplicate.
    let mut s = VmEndpoint::new(0, coalescing_cfg());
    let mut r = VmEndpoint::new(1, coalescing_cfg());
    let _ = s.create(1, b("a"));
    let mut accepted = Vec::new();
    for receipt in flush_datagrams(&mut s, &mut r) {
        if let Receipt::Fresh { seq, .. } = receipt {
            accepted.push(r.commit_accept(0, seq));
        }
    }
    assert!(r.has_owed_ack(0));
    r.crash_reset();
    for op in &accepted {
        r.replay(op);
    }
    assert!(!r.has_owed_ack(0), "a crash forgets the owed ack");
    assert_eq!(r.stats().bytes_acked_piggyback, 0);
    // Reverse data carries ack=1: an advance over the forgotten 0.
    let _ = r.create(0, b("reverse"));
    let mut dgrams = Vec::new();
    r.drain_datagrams_into(0, &mut dgrams);
    assert_eq!(
        r.stats().bytes_acked_piggyback,
        ACK_FRAME_LEN as u64,
        "the advanced cursor is one avoided standalone ack frame"
    );
    assert_eq!(r.stats().ack_frames_sent, 0);
    match &dgrams[0].1.decode().frames[0] {
        Frame::Data { ack, .. } => assert_eq!(*ack, 1),
        other => panic!("expected data frame, got {other:?}"),
    }
    // A retransmission re-ships the same cursor: no advance, no
    // additional saving — the stat counts frames avoided, not
    // datagrams that happen to carry an ack.
    expire(&mut r);
    dgrams.clear();
    r.drain_datagrams_into(0, &mut dgrams);
    assert_eq!(dgrams.len(), 1, "retransmission went out");
    assert_eq!(
        r.stats().bytes_acked_piggyback,
        ACK_FRAME_LEN as u64,
        "an unchanged cursor is not counted again"
    );
}

#[test]
fn owed_ack_flushes_standalone_without_reverse_traffic() {
    let mut s = VmEndpoint::new(0, coalescing_cfg());
    let mut r = VmEndpoint::new(1, coalescing_cfg());
    let _ = s.create(1, b("x"));
    for receipt in flush_datagrams(&mut s, &mut r) {
        if let Receipt::Fresh { seq, .. } = receipt {
            r.commit_accept(0, seq);
        }
    }
    assert!(r.has_owed_ack(0));
    // No reverse traffic: the host flushes the ack standalone.
    assert!(r.flush_owed_ack(0));
    assert!(!r.flush_owed_ack(0), "second flush finds nothing owed");
    let mut dgrams = Vec::new();
    r.drain_datagrams_into(0, &mut dgrams);
    assert_eq!(dgrams.len(), 1);
    let d = dgrams[0].1.decode();
    assert_eq!(d.frames, vec![Frame::Ack { ack: 1 }]);
    assert_eq!(r.stats().ack_frames_sent, 1);
    for (_, wire) in dgrams {
        let d = wire.decode();
        s.begin_datagram(d.id);
        for f in d.frames {
            s.on_frame(1, f);
        }
    }
    assert!(!s.has_outstanding());
}

#[test]
fn flush_owed_acks_serves_every_peer_in_ascending_order() {
    let mut r = VmEndpoint::new(1, coalescing_cfg());
    for from in [3, 0] {
        let mut s = VmEndpoint::new(from, coalescing_cfg());
        let _ = s.create(1, b("x"));
        for receipt in flush_datagrams(&mut s, &mut r) {
            if let Receipt::Fresh { seq, .. } = receipt {
                r.commit_accept(from, seq);
            }
        }
    }
    assert!(r.flush_owed_acks());
    assert!(!r.flush_owed_acks(), "second flush finds nothing owed");
    let mut dgrams = Vec::new();
    r.drain_datagrams_into(0, &mut dgrams);
    let to: Vec<SiteId> = dgrams.iter().map(|(to, _)| *to).collect();
    assert_eq!(to, vec![0, 3]);
    assert_eq!(r.stats().ack_frames_sent, 2);
}

#[test]
fn datagram_ids_stay_monotone_across_crash() {
    let mut s = VmEndpoint::new(0, coalescing_cfg());
    let op = s.create(1, b("a"));
    let mut dgrams = Vec::new();
    s.drain_datagrams_into(0, &mut dgrams);
    assert_eq!(dgrams[0].1.decode().id, 1);
    s.crash_reset();
    s.replay(&op);
    s.tick();
    dgrams.clear();
    s.drain_datagrams_into(0, &mut dgrams);
    assert_eq!(
        dgrams[0].1.decode().id,
        2,
        "post-crash datagrams continue the id sequence"
    );
}
