//! Retransmission timeout from measured round trips.
//!
//! Each channel keeps its own estimator: a smoothed round-trip time and
//! its mean deviation (Jacobson/Karels, RFC 6298), in integer
//! microseconds so that runs stay deterministic. A sample comes only from
//! a frame that was sent exactly once (Karn's rule: the ack of a resent
//! frame cannot say which copy it answers). Every retransmission the
//! channel makes doubles its timeout, up to [`MAX_RTO_US`]; ack progress,
//! or anything else arriving from the peer, undoes the doubling.
//!
//! The timeout is `max(SRTT + 4·RTTVAR, 2·SRTT)`, clamped to
//! `[MIN_RTO_US, MAX_RTO_US]`. The `2·SRTT` floor scales with the link:
//! once the deviation term has decayed on a steady link, a frame is still
//! given twice its smoothed round trip before it is resent, so a link
//! whose delays vary within a factor of two of their mean draws no
//! spurious retransmission, whatever its scale.
//!
//! Before its first sample a channel starts from its endpoint's seed:
//! every sample and bound the endpoint's other channels took, pooled
//! ([`RtoEstimator::adopt`]). With none, it resends on
//! [`INITIAL_RTO_US`]. On a link whose round trip is longer than that,
//! every first Vm is resent before its ack returns, so by Karn's rule no
//! sample is clean. The ack of a resent Vm still bounds the round trip
//! from above: whichever copy it answers left no earlier than the first,
//! so the round trip is at most the time since the first copy. A channel
//! without a sample takes twice its tightest bound as its base timeout:
//! longer than a round trip it has seen, so the next Vm sent once is
//! measured, on a slow link as on a lossy one.

/// Timeout of a channel that has no sample yet: the retransmission
/// interval the protocol used before it measured anything.
pub const INITIAL_RTO_US: u64 = 10_000;

/// Lower bound of the timeout. Only a link with (near) zero delay reaches
/// it; the bound keeps a zero-delay link from resending in the instant it
/// sent.
pub const MIN_RTO_US: u64 = 1_000;

/// Upper bound of the timeout, backed off or not. Toward a peer that
/// never answers, a channel resends about once per this interval, so
/// over a silence of `t` it spends `O(log(MAX/RTO) + t/MAX)` resends.
pub const MAX_RTO_US: u64 = 1_000_000;

/// One channel's round-trip estimate and backoff. Volatile: a crash
/// forgets it, and the channel starts again from [`INITIAL_RTO_US`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtoEstimator {
    /// Smoothed round trip (µs); meaningful once `sampled`.
    srtt: u64,
    /// Mean deviation of the round trip (µs); meaningful once `sampled`.
    rttvar: u64,
    /// Whether `srtt` and `rttvar` hold an estimate: from a sample, or
    /// adopted from the endpoint's seed.
    sampled: bool,
    /// Before the first sample: the tightest upper bound on the round
    /// trip (µs) an ack of a resent Vm gave; `0` for none.
    bound: u64,
    /// Doublings applied since the last progress, stopped once the
    /// timeout reaches the cap.
    backoff: u32,
}

impl RtoEstimator {
    /// Fold one round-trip sample (µs) from a frame sent once, and undo
    /// any backoff: the link's round trip is known again.
    pub fn sample(&mut self, rtt: u64) {
        if self.sampled {
            // RTTVAR first, from the old SRTT (RFC 6298 §2.3).
            self.rttvar = (3 * self.rttvar + self.srtt.abs_diff(rtt)) / 4;
            self.srtt = (7 * self.srtt + rtt) / 8;
        } else {
            self.srtt = rtt;
            self.rttvar = rtt / 2;
            self.sampled = true;
        }
        self.backoff = 0;
    }

    /// An ack of a Vm resent since its first copy left `rtt` µs ago:
    /// the round trip is at most `rtt`. Ignored once a sample was taken.
    pub fn bound(&mut self, rtt: u64) {
        if !self.sampled {
            self.bound = if self.bound == 0 {
                rtt.max(1)
            } else {
                self.bound.min(rtt.max(1))
            };
        }
    }

    /// Whether a sample or a bound says what the base timeout is.
    pub fn measured(&self) -> bool {
        self.sampled || self.bound > 0
    }

    /// A channel that has measured nothing starts from `seed`, the
    /// estimate its endpoint pooled from every channel that has: its own
    /// evidence would cost it a round of resends on a link slower than
    /// [`INITIAL_RTO_US`]. Its own samples refine the seed from then on.
    pub fn adopt(&mut self, seed: &RtoEstimator) {
        if !self.measured() && seed.measured() {
            *self = RtoEstimator {
                backoff: 0,
                ..*seed
            };
        }
    }

    /// The timeout before any backoff.
    fn base(&self) -> u64 {
        let base = if self.sampled {
            (self.srtt + 4 * self.rttvar).max(2 * self.srtt)
        } else if self.bound > 0 {
            2 * self.bound
        } else {
            return INITIAL_RTO_US;
        };
        base.clamp(MIN_RTO_US, MAX_RTO_US)
    }

    /// The timeout in force: the base, doubled once per retransmission
    /// since the last progress, capped.
    pub fn rto(&self) -> u64 {
        // `back_off` stops at the cap, so the shift stays far below 64 bits.
        let rto = (self.base() << self.backoff).min(MAX_RTO_US);
        debug_assert!(
            (MIN_RTO_US..=MAX_RTO_US).contains(&rto),
            "RTO {rto} µs outside its bounds"
        );
        rto
    }

    /// A retransmission saw no progress: double the timeout, up to the cap.
    pub fn back_off(&mut self) {
        if self.rto() < MAX_RTO_US {
            self.backoff += 1;
        }
    }

    /// The peer showed it is up (an ack made progress, or something else
    /// arrived from it): undo every doubling. Returns whether there was
    /// any.
    pub fn relax(&mut self) -> bool {
        std::mem::take(&mut self.backoff) > 0
    }

    /// Smoothed round trip (µs), once sampled.
    pub fn srtt(&self) -> Option<u64> {
        self.sampled.then_some(self.srtt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_sample_sets_srtt_and_half_of_it_as_deviation() {
        let mut e = RtoEstimator::default();
        assert_eq!(e.rto(), INITIAL_RTO_US);
        assert_eq!(e.srtt(), None);
        e.sample(6_000);
        assert_eq!(e.srtt(), Some(6_000));
        // 6 + 4·3 = 18 ms, above the 12 ms floor.
        assert_eq!(e.rto(), 18_000);
    }

    #[test]
    fn a_steady_link_converges_to_twice_its_round_trip() {
        let mut e = RtoEstimator::default();
        for _ in 0..64 {
            e.sample(4_000);
        }
        assert_eq!(e.srtt(), Some(4_000));
        assert_eq!(e.rto(), 8_000, "the 2·SRTT floor once RTTVAR decays");
    }

    #[test]
    fn the_bounds_hold_at_both_ends() {
        let mut fast = RtoEstimator::default();
        fast.sample(0);
        assert_eq!(fast.rto(), MIN_RTO_US);
        let mut slow = RtoEstimator::default();
        slow.sample(10 * MAX_RTO_US);
        assert_eq!(slow.rto(), MAX_RTO_US);
    }

    #[test]
    fn a_channel_with_no_evidence_adopts_its_endpoints_seed() {
        let mut seed = RtoEstimator::default();
        let mut fresh = RtoEstimator::default();
        fresh.back_off();
        fresh.adopt(&seed);
        assert_eq!(fresh.rto(), 2 * INITIAL_RTO_US, "nothing to adopt");
        seed.sample(20_000);
        fresh.adopt(&seed);
        assert_eq!(fresh.rto(), seed.rto(), "the seed, without the doubling");
        let mut own = RtoEstimator::default();
        own.sample(4_000);
        own.adopt(&seed);
        assert_eq!(own.srtt(), Some(4_000), "own samples win");
    }

    #[test]
    fn backoff_doubles_to_the_cap() {
        let mut e = RtoEstimator::default();
        let mut seen = vec![e.rto()];
        for _ in 0..12 {
            e.back_off();
            seen.push(e.rto());
        }
        assert_eq!(
            seen,
            [10, 20, 40, 80, 160, 320, 640, 1000, 1000, 1000, 1000, 1000, 1000]
                .map(|ms| ms * 1_000)
        );
    }

    #[test]
    fn a_sample_or_evidence_of_the_peer_undoes_the_doubling() {
        let mut e = RtoEstimator::default();
        e.back_off();
        e.back_off();
        assert_eq!(e.rto(), 4 * INITIAL_RTO_US);
        assert!(e.relax());
        assert_eq!(e.rto(), INITIAL_RTO_US);
        e.bound(50_000);
        e.bound(45_000);
        e.bound(70_000);
        assert_eq!(e.rto(), 90_000, "twice the tightest bound");
        e.sample(30_000);
        assert_eq!(e.rto(), 90_000, "a sample undoes the doubling");
        e.back_off();
        assert_eq!(e.rto(), 180_000);
        assert!(e.relax());
        assert_eq!(e.rto(), 90_000);
        assert!(!e.relax(), "nothing left to undo");
    }
}
