//! Network model: delays, loss, duplication, reordering, partitions.
//!
//! The model answers one question per send: *what happens to this message?*
//! ([`NetworkModel::route`]). Possible fates: delivered after a sampled
//! delay (possibly more than once, if duplicated), or silently dropped
//! (loss, partition, crashed recipient). Nothing is ever reported back to
//! the sender — the paper's failure model gives senders only timeouts.

use crate::partition::PartitionSchedule;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::NodeId;
use std::collections::HashMap;

/// Per-link behaviour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// Minimum one-way delay.
    pub delay_min: SimDuration,
    /// Maximum one-way delay (uniformly sampled in `[min, max]`).
    pub delay_max: SimDuration,
    /// Probability a message is silently lost.
    pub loss: f64,
    /// Probability a delivered message is delivered twice.
    pub duplicate: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            delay_min: SimDuration::millis(1),
            delay_max: SimDuration::millis(5),
            loss: 0.0,
            duplicate: 0.0,
        }
    }
}

impl LinkConfig {
    /// A perfectly reliable link with a fixed symmetric delay.
    pub fn reliable_fixed(delay: SimDuration) -> Self {
        LinkConfig {
            delay_min: delay,
            delay_max: delay,
            loss: 0.0,
            duplicate: 0.0,
        }
    }

    /// A completely dead link (drops everything).
    pub fn dead() -> Self {
        LinkConfig {
            loss: 1.0,
            ..Default::default()
        }
    }
}

/// A time-bounded burst of extra network misbehaviour (nemesis chaos).
///
/// While `now ∈ [from, until)` the window's `loss`/`duplicate` rates are
/// *added* to the link's own (clamped to 1.0 by the sampler) and every
/// delivered message is delayed by an extra uniformly-sampled jitter in
/// `[0, jitter]` — which also reorders messages relative to quiet traffic
/// and shifts timing against the sites' timers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Additional loss probability during the window.
    pub loss: f64,
    /// Additional duplication probability during the window.
    pub duplicate: f64,
    /// Maximum extra delivery delay (uniform in `[0, jitter]`).
    pub jitter: SimDuration,
}

impl ChaosWindow {
    fn active(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// Whole-network configuration.
#[derive(Clone, Debug, Default)]
pub struct NetworkConfig {
    /// Default behaviour for every ordered pair of sites.
    pub default_link: LinkConfig,
    /// Overrides for specific directed links `(from, to)`.
    pub link_overrides: HashMap<(NodeId, NodeId), LinkConfig>,
    /// The partition oracle. `None` means never partitioned.
    pub partitions: Option<PartitionSchedule>,
    /// Nemesis chaos bursts. Empty (the default) costs one `is_empty()`
    /// check per routed message.
    pub chaos: Vec<ChaosWindow>,
}

impl NetworkConfig {
    /// A reliable fully-connected network with the default delay band.
    pub fn reliable() -> Self {
        NetworkConfig::default()
    }

    /// A lossy network: every link drops messages with probability `p`.
    pub fn lossy(p: f64) -> Self {
        NetworkConfig {
            default_link: LinkConfig {
                loss: p,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// A reliable network whose every link takes exactly `d`. It draws
    /// nothing from the run's RNG, and the kernel breaks same-instant ties
    /// by send order, so every site sees a broadcast in one global order
    /// (the message-order synchronicity Section 6.2 assumes for Conc2).
    pub fn fixed_delay(d: SimDuration) -> Self {
        NetworkConfig {
            default_link: LinkConfig::reliable_fixed(d),
            ..Default::default()
        }
    }

    /// Attach a partition schedule.
    pub fn with_partitions(mut self, schedule: PartitionSchedule) -> Self {
        self.partitions = Some(schedule);
        self
    }

    /// Override one directed link.
    pub fn with_link(mut self, from: NodeId, to: NodeId, cfg: LinkConfig) -> Self {
        self.link_overrides.insert((from, to), cfg);
        self
    }

    /// Add a chaos burst window.
    pub fn with_chaos(mut self, w: ChaosWindow) -> Self {
        self.chaos.push(w);
        self
    }

    fn link(&self, from: NodeId, to: NodeId) -> &LinkConfig {
        self.link_overrides
            .get(&(from, to))
            .unwrap_or(&self.default_link)
    }
}

/// Arrival instants for a delivered message: the copy the link always
/// produces, plus at most one duplicate. Inline — no allocation on the
/// per-send hot path (the old `Vec<SimTime>` cost one heap allocation per
/// message routed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrivals {
    /// Arrival instant of the primary copy.
    pub first: SimTime,
    /// Arrival instant of the duplicate, if the link duplicated.
    pub dup: Option<SimTime>,
}

impl Arrivals {
    /// One copy, no duplicate.
    pub fn single(at: SimTime) -> Self {
        Arrivals {
            first: at,
            dup: None,
        }
    }
}

/// The fate of a single send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Deliver at the listed instant(s).
    Deliver(Arrivals),
    /// Lost to random loss.
    Lost,
    /// Cut by a network partition.
    Partitioned,
}

/// Stateless router: consults config + partition oracle + RNG per message.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    cfg: NetworkConfig,
}

impl NetworkModel {
    /// Build a model from a configuration.
    pub fn new(cfg: NetworkConfig) -> Self {
        NetworkModel { cfg }
    }

    /// Is the pair connected (per the partition oracle) at `t`?
    #[inline]
    pub fn connected(&self, from: NodeId, to: NodeId, t: SimTime) -> bool {
        match &self.cfg.partitions {
            None => true,
            Some(p) => p.connected(from, to, t),
        }
    }

    /// Decide what happens to a message sent `from -> to` at `now`.
    #[inline]
    pub fn route(&self, from: NodeId, to: NodeId, now: SimTime, rng: &mut SimRng) -> Fate {
        if !self.connected(from, to, now) {
            return Fate::Partitioned;
        }
        let link = self.cfg.link(from, to);
        // Chaos bursts stack on top of the link's own misbehaviour. The
        // empty-vec check keeps the quiet path free of any extra work.
        let (mut loss, mut dup, mut jitter) = (link.loss, link.duplicate, SimDuration::ZERO);
        if !self.cfg.chaos.is_empty() {
            for w in &self.cfg.chaos {
                if w.active(now) {
                    loss += w.loss;
                    dup += w.duplicate;
                    jitter = jitter + w.jitter;
                }
            }
        }
        if rng.chance(loss) {
            return Fate::Lost;
        }
        let extra = if jitter > SimDuration::ZERO {
            SimDuration::micros(rng.uniform(0, jitter.as_micros()))
        } else {
            SimDuration::ZERO
        };
        let d1 = rng.uniform(link.delay_min.as_micros(), link.delay_max.as_micros());
        let mut arrivals = Arrivals::single(now + SimDuration::micros(d1) + extra);
        if rng.chance(dup) {
            let d2 = rng.uniform(link.delay_min.as_micros(), link.delay_max.as_micros() * 2);
            arrivals.dup = Some(now + SimDuration::micros(d2) + extra);
        }
        Fate::Deliver(arrivals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionSchedule;

    #[test]
    fn reliable_link_always_delivers_within_band() {
        let m = NetworkModel::new(NetworkConfig::reliable());
        let mut rng = SimRng::new(1);
        for _ in 0..200 {
            match m.route(0, 1, SimTime::ZERO, &mut rng) {
                Fate::Deliver(ts) => {
                    assert_eq!(ts.dup, None);
                    let d = ts.first.since(SimTime::ZERO);
                    assert!(d >= SimDuration::millis(1) && d <= SimDuration::millis(5));
                }
                other => panic!("unexpected fate {other:?}"),
            }
        }
    }

    #[test]
    fn lossy_link_drops_roughly_p() {
        let m = NetworkModel::new(NetworkConfig::lossy(0.3));
        let mut rng = SimRng::new(2);
        let n = 10_000;
        let lost = (0..n)
            .filter(|_| matches!(m.route(0, 1, SimTime::ZERO, &mut rng), Fate::Lost))
            .count();
        let frac = lost as f64 / n as f64;
        assert!((0.27..0.33).contains(&frac), "loss fraction {frac}");
    }

    #[test]
    fn duplication_produces_two_arrivals() {
        let cfg = NetworkConfig {
            default_link: LinkConfig {
                duplicate: 1.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let m = NetworkModel::new(cfg);
        let mut rng = SimRng::new(3);
        match m.route(0, 1, SimTime::ZERO, &mut rng) {
            Fate::Deliver(ts) => assert!(ts.dup.is_some()),
            other => panic!("unexpected fate {other:?}"),
        }
    }

    #[test]
    fn partition_cuts_messages() {
        let sched = PartitionSchedule::fully_connected(2)
            .split_at(SimTime::ZERO + SimDuration::millis(10), &[&[0], &[1]]);
        let m = NetworkModel::new(NetworkConfig::reliable().with_partitions(sched));
        let mut rng = SimRng::new(4);
        assert!(matches!(
            m.route(0, 1, SimTime::ZERO, &mut rng),
            Fate::Deliver(_)
        ));
        assert_eq!(
            m.route(0, 1, SimTime::ZERO + SimDuration::millis(10), &mut rng),
            Fate::Partitioned
        );
    }

    #[test]
    fn fixed_delay_delivers_exactly_d_and_draws_nothing() {
        let m = NetworkModel::new(NetworkConfig::fixed_delay(SimDuration::millis(2)));
        let mut rng = SimRng::new(5);
        let mut untouched = rng.clone();
        for _ in 0..100 {
            match m.route(1, 0, SimTime::ZERO, &mut rng) {
                Fate::Deliver(ts) => {
                    assert_eq!(ts, Arrivals::single(SimTime::ZERO + SimDuration::millis(2)))
                }
                other => panic!("unexpected fate {other:?}"),
            }
        }
        assert_eq!(
            rng.next_u64(),
            untouched.next_u64(),
            "a fixed reliable link draws no randomness"
        );
    }

    #[test]
    fn link_override_applies_one_direction() {
        let cfg = NetworkConfig::reliable().with_link(0, 1, LinkConfig::dead());
        let m = NetworkModel::new(cfg);
        let mut rng = SimRng::new(6);
        assert_eq!(m.route(0, 1, SimTime::ZERO, &mut rng), Fate::Lost);
        assert!(matches!(
            m.route(1, 0, SimTime::ZERO, &mut rng),
            Fate::Deliver(_)
        ));
    }
}
