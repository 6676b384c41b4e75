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

use crate::rto::RtoEstimator;
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
    /// Round-trip estimate and backoff behind this channel's timeout.
    /// Volatile.
    pub(crate) rto: RtoEstimator,
    /// Instant (µs) at which the unacked Vms are next due for
    /// retransmission; meaningful while any is unacked. Volatile; `0`
    /// after recovery, so everything outstanding is due at once.
    pub(crate) deadline: u64,
    /// The one Vm being timed, as `(seq, first sent at µs, sent only
    /// once)`. Its ack is a sample while it was sent once, and an upper
    /// bound on the round trip after it was resent (Karn's rule).
    /// Volatile.
    pub(crate) timed: Option<(Seq, u64, bool)>,
    /// Highest sequence number this channel has retransmitted since it
    /// was built: Karn's rule in checkable form. Volatile.
    pub(crate) resent_upto: Seq,
    /// Data frames from the peer that arrived ahead of the accept cursor,
    /// as `(seq, payload)` in ascending `seq`, at most a window of them:
    /// handed to the host once their predecessors are accepted, so a
    /// frame the network reordered costs no retransmission. Volatile.
    pub(crate) held: Vec<(Seq, Bytes)>,
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

    /// Process a cumulative ack from the peer: move every Vm it released
    /// (their lifecycles are complete) to `released` as `(seq, payload)`,
    /// lowest first, and return how many that was.
    pub(crate) fn on_ack(&mut self, ack: Seq, mut released: impl FnMut(Seq, Bytes)) -> usize {
        if ack <= self.acked_out {
            return 0;
        }
        self.acked_out = ack;
        let mut n = 0;
        while let Some((seq, payload)) = self.outgoing.pop_front_if(|&mut (seq, _)| seq <= ack) {
            released(seq, payload);
            n += 1;
        }
        n
    }

    /// Start the timer at `now` for a first unacked Vm, from `seed` if
    /// the channel has measured nothing.
    pub(crate) fn arm(&mut self, now: u64, seed: &RtoEstimator) {
        debug_assert_eq!(self.in_flight(), 0, "the timer runs for the oldest Vm");
        self.rto.adopt(seed);
        self.deadline = now + self.rto.rto();
    }

    /// Vm `seq` was handed to the wire for the first time at `now`: time
    /// it unless a round trip is already being timed.
    pub(crate) fn sent_first(&mut self, seq: Seq, now: u64) {
        debug_assert!(seq > self.resent_upto, "a first transmission");
        if self.timed.is_none() {
            self.timed = Some((seq, now, true));
        }
    }

    /// Every unacked Vm up to `upto` was resent at `now`: no sample from
    /// any of them, and the timeout (from `seed` if the channel has
    /// measured nothing) doubles until progress.
    pub(crate) fn resent(&mut self, upto: Seq, now: u64, seed: &RtoEstimator) {
        self.rto.adopt(seed);
        if let Some((seq, _, once)) = &mut self.timed {
            *once &= *seq > upto;
        }
        self.resent_upto = self.resent_upto.max(upto);
        self.rto.back_off();
        self.deadline = now + self.rto.rto();
    }

    /// An ack released Vms at `now`: take the round-trip sample or bound
    /// it completes, undo any backoff, and restart the timer for what is
    /// still unacked. Returns the evidence taken, as `(µs, a sample)`.
    pub(crate) fn progressed(&mut self, now: u64) -> Option<(u64, bool)> {
        let mut evidence = None;
        if let Some((seq, sent_at, once)) = self.timed {
            if seq <= self.acked_out {
                let rtt = now - sent_at;
                if once {
                    debug_assert!(
                        seq > self.resent_upto,
                        "Karn: sample {seq} from a resent frame"
                    );
                    self.rto.sample(rtt);
                } else {
                    self.rto.bound(rtt);
                }
                self.timed = None;
                evidence = Some((rtt, once));
            }
        }
        self.rto.relax();
        self.deadline = now + self.rto.rto();
        evidence
    }

    /// Something arrived from the peer at `now`, so it is up: a backed-off
    /// channel falls back to its base timeout.
    #[inline]
    pub(crate) fn heard(&mut self, now: u64) {
        if self.rto.relax() {
            self.deadline = self.deadline.min(now + self.rto.rto());
        }
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

    /// Hold data frame `seq`, ahead of the accept cursor or not yet
    /// accepted at it, until the host takes it, unless `limit` frames are
    /// held already.
    pub(crate) fn hold(&mut self, seq: Seq, payload: &[u8], limit: usize) {
        self.drop_stale_held();
        if let Err(i) = self.held.binary_search_by_key(&seq, |&(s, _)| s) {
            if self.held.len() < limit {
                self.held.insert(i, (seq, Bytes::copy_from_slice(payload)));
            }
        }
    }

    /// The held frame next in order, taken out of the hold.
    pub(crate) fn take_next_held(&mut self) -> Option<(Seq, Bytes)> {
        self.drop_stale_held();
        let &(seq, _) = self.held.first()?;
        (seq == self.accepted_in + 1).then(|| self.held.remove(0))
    }

    /// Forget held frames the accept cursor has passed (a retransmitted
    /// copy was accepted first).
    fn drop_stale_held(&mut self) {
        let accepted = self.accepted_in;
        if self.held.first().is_some_and(|&(s, _)| s <= accepted) {
            self.held.retain(|&(s, _)| s > accepted);
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
        assert_eq!(c.on_ack(3, |s, _| out.push(s)), 3);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(c.in_flight(), 2);
        // Stale / repeated acks release nothing.
        assert_eq!(c.on_ack(3, |s, _| out.push(s)), 0);
        assert_eq!(c.on_ack(2, |s, _| out.push(s)), 0);
        assert_eq!(c.on_ack(5, |s, _| out.push(s)), 2);
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

            fn on_ack(&mut self, ack: Seq) -> Vec<(Seq, Bytes)> {
                let mut out = Vec::new();
                if ack <= self.acked_out {
                    return out;
                }
                self.acked_out = ack;
                while let Some(entry) = self.outgoing.first_entry() {
                    if *entry.key() > ack {
                        break;
                    }
                    out.push(entry.remove_entry());
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
                            let n = ring.on_ack(ack, |s, p| out.push((s, p)));
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
