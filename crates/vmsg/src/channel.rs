//! Per-peer channel state.
//!
//! Each ordered pair of sites `(me, peer)` has one channel with its own
//! dense, 1-based sequence numbers (the paper's "unbounded totally ordered
//! sequence of unique message identifiers for communication from a site
//! sᵢ to a site sⱼ"). The receiver accepts only the next in-order
//! sequence number ("the messages will never be accepted if they are
//! out-of-order"), which makes the cumulative ack sound.
//!
//! The unacked outgoing Vms are a ring in ascending `seq`: a Vm is created
//! at the next `seq` and pushed at the back, and a cumulative ack releases
//! a prefix from the front. Log replay and checkpoint restore hand the
//! ring ascending sequence numbers too, so they push at the back as well.

use bytes::Bytes;
use std::collections::VecDeque;

/// Channel sequence number. `0` means "nothing yet"; real messages use
/// `1, 2, 3, …`.
pub type Seq = u64;

/// State of one directed channel pair with a peer (both directions).
#[derive(Clone, Debug, Default)]
pub struct Channel {
    /// Sequence number of the last Vm created toward the peer.
    pub(crate) last_created: Seq,
    /// Unacked outgoing Vms as `(seq, payload)`, ascending `seq`. Durable
    /// via `VmLogOp::Created`.
    pub(crate) outgoing: VecDeque<(Seq, Bytes)>,
    /// Highest cumulative ack received from the peer.
    pub(crate) acked_out: Seq,
    /// Highest in-order sequence accepted *and committed* from the peer
    /// (this is the cumulative ack we advertise). Durable via
    /// `VmLogOp::Accepted`.
    pub(crate) accepted_in: Seq,
    /// Highest sequence number ever handed to the wire (first
    /// transmission, not retransmits). Volatile retransmit-pacing state
    /// used only under coalescing.
    pub(crate) highest_sent: Seq,
    /// Retransmit-eligibility watermark under coalescing: at a tick,
    /// only already-sent frames with `seq <= retx_before` are
    /// retransmitted — frames first sent *since the previous tick* get
    /// one tick of grace, so an ack in flight (data delay + ack delay
    /// can exceed one retransmit period) isn't raced by a pointless
    /// retransmission. Volatile; `0` after recovery means
    /// everything outstanding retransmits promptly.
    pub(crate) retx_before: Seq,
    /// Highest cumulative ack toward the peer ever put on the wire (by a
    /// standalone ack frame or piggybacked on a data frame). Lets the
    /// endpoint tell when a data datagram *advances* the peer's ack view
    /// for free — the avoided-standalone-ack accounting. Volatile; `0`
    /// after recovery just means the next transmission counts as an
    /// advance (it genuinely re-ships the cursor).
    pub(crate) ack_sent: Seq,
}

impl Channel {
    /// Number of created-but-unacked outgoing Vms.
    pub fn in_flight(&self) -> usize {
        self.outgoing.len()
    }

    /// Mint the next outgoing sequence number and remember the payload.
    pub(crate) fn create(&mut self, payload: Bytes) -> Seq {
        self.last_created += 1;
        self.push(self.last_created, payload);
        self.last_created
    }

    /// Replay a logged creation of Vm `seq`. The log holds a channel's
    /// creations in `seq` order.
    pub(crate) fn replay_created(&mut self, seq: Seq, payload: Bytes) {
        self.last_created = self.last_created.max(seq);
        self.push(seq, payload);
    }

    /// Replace the unacked outgoing Vms with a checkpoint's, which lists
    /// them in ascending `seq`.
    pub(crate) fn restore_outgoing(&mut self, outgoing: &[(Seq, Bytes)]) {
        self.outgoing.clear();
        for (seq, payload) in outgoing {
            self.push(*seq, payload.clone());
        }
    }

    /// Remember `payload` as unacked Vm `seq`, above every entry.
    fn push(&mut self, seq: Seq, payload: Bytes) {
        debug_assert!(
            self.outgoing.back().is_none_or(|&(last, _)| last < seq),
            "unacked Vms are kept in seq order"
        );
        self.outgoing.push_back((seq, payload));
    }

    /// Process a cumulative ack from the peer: hand the sequence number
    /// of every Vm it released (their lifecycles are complete) to
    /// `released`, lowest first, and return how many that was.
    pub(crate) fn on_ack(&mut self, ack: Seq, mut released: impl FnMut(Seq)) -> usize {
        if ack <= self.acked_out {
            return 0;
        }
        self.acked_out = ack;
        let mut n = 0;
        while let Some(&(seq, _)) = self.outgoing.front() {
            if seq > ack {
                break;
            }
            self.outgoing.pop_front();
            released(seq);
            n += 1;
        }
        n
    }

    /// Classify an incoming data frame's sequence number.
    pub(crate) fn classify(&self, seq: Seq) -> Classify {
        if seq <= self.accepted_in {
            Classify::Duplicate
        } else if seq == self.accepted_in + 1 {
            Classify::Next
        } else {
            Classify::OutOfOrder
        }
    }

    /// Advance the accept cursor (host has durably logged the acceptance).
    pub(crate) fn commit_accept(&mut self, seq: Seq) {
        debug_assert_eq!(seq, self.accepted_in + 1, "accepts must be in order");
        self.accepted_in = seq;
    }
}

/// How an incoming sequence number relates to the accept cursor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Classify {
    Duplicate,
    Next,
    OutOfOrder,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    #[test]
    fn create_numbers_densely_from_one() {
        let mut c = Channel::default();
        assert_eq!(c.create(b("a")), 1);
        assert_eq!(c.create(b("b")), 2);
        assert_eq!(c.in_flight(), 2);
    }

    #[test]
    fn cumulative_ack_releases_prefix() {
        let mut c = Channel::default();
        for _ in 0..5 {
            c.create(b("x"));
        }
        let mut out = Vec::new();
        assert_eq!(c.on_ack(3, |s| out.push(s)), 3);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(c.in_flight(), 2);
        // Stale / repeated acks release nothing.
        assert_eq!(c.on_ack(3, |s| out.push(s)), 0);
        assert_eq!(c.on_ack(2, |s| out.push(s)), 0);
        assert_eq!(c.on_ack(5, |s| out.push(s)), 2);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn classify_tracks_cursor() {
        let mut c = Channel::default();
        assert_eq!(c.classify(1), Classify::Next);
        assert_eq!(c.classify(2), Classify::OutOfOrder);
        c.commit_accept(1);
        assert_eq!(c.classify(1), Classify::Duplicate);
        assert_eq!(c.classify(2), Classify::Next);
        assert_eq!(c.classify(5), Classify::OutOfOrder);
    }

    #[test]
    #[should_panic(expected = "in order")]
    #[cfg(debug_assertions)]
    fn out_of_order_commit_is_a_bug() {
        let mut c = Channel::default();
        c.commit_accept(2);
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// The channel's outgoing side over the ordered map the ring
        /// replaced, as the reference model.
        #[derive(Default)]
        struct Reference {
            last_created: Seq,
            acked_out: Seq,
            outgoing: BTreeMap<Seq, Bytes>,
        }

        impl Reference {
            fn create(&mut self, payload: Bytes) -> Seq {
                self.last_created += 1;
                self.outgoing.insert(self.last_created, payload);
                self.last_created
            }

            fn replay_created(&mut self, seq: Seq, payload: Bytes) {
                self.last_created = self.last_created.max(seq);
                self.outgoing.insert(seq, payload);
            }

            fn on_ack(&mut self, ack: Seq) -> Vec<Seq> {
                let mut out = Vec::new();
                if ack <= self.acked_out {
                    return out;
                }
                self.acked_out = ack;
                while let Some(entry) = self.outgoing.first_entry() {
                    if *entry.key() > ack {
                        break;
                    }
                    out.push(entry.remove_entry().0);
                }
                out
            }

            /// Snapshot order: ascending `seq`.
            fn snapshot(&self) -> Vec<(Seq, Bytes)> {
                self.outgoing.iter().map(|(&s, p)| (s, p.clone())).collect()
            }
        }

        fn payload(k: u64) -> Bytes {
            Bytes::copy_from_slice(&k.to_be_bytes())
        }

        /// One step: 0 creates, 1 acks cumulatively (sometimes stale), 2
        /// replays a `Created` above every outstanding Vm (as a log holds
        /// them: the next `seq`, or one past a gap a lost record left), 3
        /// replays an `AckObserved`, 4 restores from a snapshot of the
        /// model (ascending, as `snapshot_into` writes it), or from an
        /// empty one.
        fn step() -> impl Strategy<Value = (u8, u64, bool)> {
            (0u8..5, 0u64..16, any::<bool>())
        }

        proptest! {
            /// Every answer and the snapshot order agree with the map at
            /// every step.
            #[test]
            fn the_ring_answers_as_the_map_does(
                steps in proptest::collection::vec(step(), 0..80),
            ) {
                let mut ring = Channel::default();
                let mut model = Reference::default();
                for (i, (op, k, twist)) in steps.into_iter().enumerate() {
                    let p = payload(i as u64);
                    match op {
                        0 => prop_assert_eq!(ring.create(p.clone()), model.create(p)),
                        1 | 3 => {
                            let ack = model.last_created.saturating_sub(k % 6);
                            let mut out = Vec::new();
                            let n = ring.on_ack(ack, |s| out.push(s));
                            prop_assert_eq!(n, out.len());
                            prop_assert_eq!(out, model.on_ack(ack));
                        }
                        2 => {
                            let gap = if twist { k % 3 } else { 0 };
                            let seq = model.last_created + 1 + gap;
                            ring.replay_created(seq, p.clone());
                            model.replay_created(seq, p);
                        }
                        _ => {
                            let snap = if twist { Vec::new() } else { model.snapshot() };
                            ring.restore_outgoing(&snap);
                            model.outgoing = snap.into_iter().collect();
                        }
                    }
                    prop_assert_eq!(ring.last_created, model.last_created);
                    prop_assert_eq!(ring.acked_out, model.acked_out);
                    prop_assert_eq!(ring.in_flight(), model.outgoing.len());
                    let snap: Vec<(Seq, Bytes)> = ring.outgoing.iter().cloned().collect();
                    prop_assert_eq!(snap, model.snapshot());
                }
            }
        }
    }
}
