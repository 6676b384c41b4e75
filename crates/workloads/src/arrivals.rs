//! Arrival processes.

use dvp_simnet::rng::SimRng;
use dvp_simnet::time::SimDuration;

/// How transaction arrivals are spaced.
#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    /// Poisson process with the given mean inter-arrival gap.
    Poisson {
        /// Mean gap between consecutive arrivals.
        mean_gap: SimDuration,
    },
    /// Fixed spacing (deterministic, useful for reproducible micro-tests).
    Uniform {
        /// Exact gap between consecutive arrivals.
        gap: SimDuration,
    },
}

impl Arrivals {
    /// The gap before the next arrival: one draw from `rng` for Poisson,
    /// none for uniform spacing.
    pub fn gap(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            Arrivals::Poisson { mean_gap } => {
                SimDuration::micros(rng.exp(mean_gap.as_micros() as f64).max(1))
            }
            Arrivals::Uniform { gap } => *gap,
        }
    }

    /// Advance `rng` past `n` gaps without computing them: `rng` ends as
    /// `n` calls of [`gap`](Self::gap) would leave it, since a Poisson gap
    /// is one [`unit`](SimRng::unit) draw and a uniform one draws nothing.
    pub(crate) fn skip(&self, n: usize, rng: &mut SimRng) {
        if let Arrivals::Poisson { .. } = self {
            for _ in 0..n {
                rng.unit();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `count` arrival instants, each one gap after the one before,
    /// starting after `start`.
    fn instants(a: Arrivals, start: u64, count: usize, seed: u64) -> Vec<u64> {
        let mut rng = SimRng::new(seed);
        let mut at = start;
        (0..count)
            .map(|_| {
                at += a.gap(&mut rng).as_micros();
                at
            })
            .collect()
    }

    #[test]
    fn uniform_spacing_is_exact() {
        let a = Arrivals::Uniform {
            gap: SimDuration::millis(5),
        };
        assert_eq!(instants(a, 0, 3, 1), vec![5_000, 10_000, 15_000]);
    }

    #[test]
    fn poisson_mean_is_roughly_right() {
        let a = Arrivals::Poisson {
            mean_gap: SimDuration::millis(10),
        };
        let n = 10_000;
        let ts = instants(a, 0, n, 2);
        let mean_gap = *ts.last().unwrap() as f64 / n as f64;
        assert!((9_000.0..11_000.0).contains(&mean_gap), "mean {mean_gap}");
        // Strictly increasing.
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn skipping_gaps_leaves_the_rng_where_drawing_them_does() {
        for a in [
            Arrivals::Poisson {
                mean_gap: SimDuration::millis(5),
            },
            Arrivals::Uniform {
                gap: SimDuration::millis(1),
            },
        ] {
            let (mut drawn, mut skipped) = (SimRng::new(4), SimRng::new(4));
            for _ in 0..100 {
                a.gap(&mut drawn);
            }
            a.skip(100, &mut skipped);
            assert_eq!(drawn.unit(), skipped.unit(), "{a:?}");
        }
    }

    #[test]
    fn arrivals_start_after_start() {
        let a = Arrivals::Uniform {
            gap: SimDuration::millis(1),
        };
        assert!(instants(a, 100_000, 2, 3)[0] > 100_000);
    }
}
