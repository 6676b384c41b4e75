//! Endpoint unit tests: two endpoints wired back to back by hand.

use super::*;
use crate::codec::ACK_FRAME_LEN;
use crate::logop::VmLogOp;

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn pair() -> (VmEndpoint, VmEndpoint) {
    (
        VmEndpoint::new(0, VmConfig::default()),
        VmEndpoint::new(1, VmConfig::default()),
    )
}

/// Deliver every outbox frame of `a` to `b`, returning receipts.
fn flush(a: &mut VmEndpoint, b: &mut VmEndpoint) -> Vec<Receipt> {
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

    // The eager ack flows back and releases the sender's state.
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

    // Still outstanding, so a tick regenerates it.
    assert!(s.has_outstanding());
    s.tick();
    let receipts = flush(&mut s, &mut r);
    assert!(matches!(receipts[0], Receipt::Fresh { seq: 1, .. }));
    r.commit_accept(0, 1);
    flush(&mut r, &mut s);
    assert!(!s.has_outstanding());
    assert!(s.stats().retransmissions >= 1);
}

#[test]
fn duplicates_are_discarded_and_reacked() {
    let (mut s, mut r) = pair();
    let _ = s.create(1, b("x"));
    let frames = s.drain_outbox();
    let (_, frame) = frames.into_iter().next().unwrap();

    assert!(matches!(
        r.on_frame(0, frame.clone()),
        Receipt::Fresh { .. }
    ));
    r.commit_accept(0, 1);
    r.drain_outbox(); // discard the eager ack

    // The same frame arrives again (network duplication).
    assert_eq!(r.on_frame(0, frame), Receipt::Duplicate);
    assert_eq!(r.stats().duplicates_discarded, 1);
    // Duplicate triggered an ack refresh.
    let refreshed = r.drain_outbox();
    assert!(matches!(refreshed[0].1, Frame::Ack { ack: 1 }));
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
    // Retransmission brings both, in order this time.
    s.tick();
    let receipts = flush(&mut s, &mut r);
    assert!(matches!(receipts[0], Receipt::Fresh { seq: 1, .. }));
    r.commit_accept(0, 1);
    assert!(matches!(
        receipts[1],
        Receipt::Fresh { .. } | Receipt::OutOfOrder
    ));
}

#[test]
fn ignored_fresh_frame_comes_back() {
    // Host ignores a Fresh receipt (e.g. item locked) — no commit_accept.
    let (mut s, mut r) = pair();
    let _ = s.create(1, b("x"));
    let receipts = flush(&mut s, &mut r);
    assert!(matches!(receipts[0], Receipt::Fresh { .. }));
    // Cursor unmoved; retransmission redelivers as Fresh again.
    s.tick();
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
    // Acks slide the window; next tick transmits 3 and 4.
    flush(&mut r, &mut s);
    s.tick();
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
    s.tick();
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
    assert_eq!(completed, vec![(1, 1)]);
    // A second drain finds both endpoint buffers empty.
    s.drain_outbox_into(&mut frames);
    s.drain_completed_into(&mut completed);
    assert!(frames.is_empty());
    assert_eq!(completed.len(), 1, "append semantics: caller clears");
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
        s.tick();
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
    s.tick();
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
    // The eager ack became an *owed* ack — nothing on the wire yet.
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
fn data_carried_ack_advance_counts_without_an_owed_ack() {
    // Piggyback-only mode (eager acks off): acks ride data frames
    // exclusively and nothing is ever *owed*, yet the refreshed
    // cumulative cursor on reverse data is the peer's only ack
    // channel. Each datagram that advances the on-wire cursor avoids
    // the standalone frame an eager configuration would have sent —
    // the saving the stat measures.
    let piggyback_only = || VmConfig {
        eager_acks: false,
        ..coalescing_cfg()
    };
    let mut s = VmEndpoint::new(0, piggyback_only());
    let mut r = VmEndpoint::new(1, piggyback_only());
    let _ = s.create(1, b("a"));
    for receipt in flush_datagrams(&mut s, &mut r) {
        if let Receipt::Fresh { seq, .. } = receipt {
            r.commit_accept(0, seq);
        }
    }
    assert!(!r.has_owed_ack(0), "piggyback-only mode owes nothing");
    // Reverse data carries ack=1: an advance over the never-sent 0.
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
    // datagrams that happen to carry an ack. (Two ticks: the first
    // only lifts the fresh frame's one-tick retransmit grace.)
    r.tick();
    r.tick();
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

#[test]
fn piggyback_only_mode_sends_no_ack_frames() {
    let cfg = VmConfig {
        eager_acks: false,
        ..VmConfig::default()
    };
    let mut s = VmEndpoint::new(0, cfg);
    let mut r = VmEndpoint::new(1, cfg);
    let _ = s.create(1, b("x"));
    for receipt in flush(&mut s, &mut r) {
        if let Receipt::Fresh { seq, .. } = receipt {
            r.commit_accept(0, seq);
        }
    }
    assert!(r.drain_outbox().is_empty(), "no eager ack in this mode");
    // The ack instead rides the next data frame in the reverse direction.
    let _ = r.create(0, b("reverse"));
    let frames = r.drain_outbox();
    match &frames[0].1 {
        Frame::Data { ack, .. } => assert_eq!(*ack, 1),
        other => panic!("expected data frame, got {other:?}"),
    }
}

/// A duplicate proves the sender missed the ack, so it is answered in
/// piggyback-only mode too. Without that, once no reverse data carries
/// the ack, the sender's last Vm is retransmitted and discarded forever.
#[test]
fn piggyback_only_mode_still_acks_a_duplicate() {
    for coalesce in [false, true] {
        let cfg = VmConfig {
            eager_acks: false,
            coalesce,
            ..VmConfig::default()
        };
        let mut s = VmEndpoint::new(0, cfg);
        let mut r = VmEndpoint::new(1, cfg);
        let _ = s.create(1, b("x"));
        let (_, frame) = s.drain_outbox().into_iter().next().unwrap();
        assert!(matches!(
            r.on_frame(0, frame.clone()),
            Receipt::Fresh { .. }
        ));
        r.commit_accept(0, 1);
        assert!(!r.has_owed_ack(0), "a fresh frame waits for reverse data");
        assert!(r.drain_outbox().is_empty());

        // The retransmission lands as a duplicate and is answered.
        assert_eq!(r.on_frame(0, frame), Receipt::Duplicate);
        if coalesce {
            assert!(r.has_owed_ack(0), "coalesce {coalesce}");
            assert!(r.flush_owed_ack(0));
        }
        assert_eq!(flush(&mut r, &mut s), vec![Receipt::AckOnly]);
        assert!(!s.has_outstanding(), "coalesce {coalesce}: still resending");
    }
}
