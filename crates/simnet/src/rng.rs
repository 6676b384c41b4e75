//! Deterministic randomness.
//!
//! All stochastic decisions in a simulation (message delays, loss,
//! workload arrivals) must flow from one seed so that a run is exactly
//! reproducible. [`SimRng`] is a self-contained xoshiro256++ generator
//! (no external crate: the kernel owns its hot-path RNG) with `fork`,
//! which derives an independent child stream — components that consume
//! random numbers at different rates then cannot perturb each other.

/// A seedable, forkable deterministic RNG stream (xoshiro256++).
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SimRng {
    /// Create the root stream from a seed (SplitMix64 state expansion, so
    /// even seed 0 yields a well-mixed non-zero state).
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        SimRng {
            s: [
                splitmix64(&mut z),
                splitmix64(&mut z),
                splitmix64(&mut z),
                splitmix64(&mut z),
            ],
        }
    }

    /// Derive an independent child stream.
    ///
    /// The child is seeded from the parent's output mixed with `stream`, so
    /// `fork(0)` and `fork(1)` on clones of the same parent give distinct
    /// sequences, while the same `(parent state, stream)` always gives the
    /// same child.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base: u64 = self.next_u64();
        // SplitMix64 finalizer: decorrelates sequential stream ids.
        let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::new(z)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform integer in `[lo, hi]` (inclusive). `lo > hi` yields `lo`.
    #[inline]
    pub fn uniform(&mut self, lo: u64, hi: u64) -> u64 {
        if lo >= hi {
            lo
        } else {
            // Span never overflows to 0 here because lo < hi rules out the
            // full-u64 range; Lemire multiply-shift keeps it branch-light.
            let span = hi - lo + 1;
            lo + self.below(span)
        }
    }

    /// Uniform integer in `[0, n)` (n > 0), via 128-bit multiply-shift.
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)` (53-bit precision).
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Sample an index in `0..n` (panics if `n == 0`).
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() requires a non-empty range");
        self.below(n as u64) as usize
    }

    /// Exponentially distributed value with the given mean (rounded to u64).
    ///
    /// Used for Poisson arrival processes in the workload generators.
    #[inline]
    pub fn exp(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        let u: f64 = f64::EPSILON + self.unit() * (1.0 - f64::EPSILON);
        (-mean * u.ln()).round().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be uncorrelated");
    }

    #[test]
    fn forks_are_deterministic_and_distinct() {
        let mut parent1 = SimRng::new(99);
        let mut parent2 = SimRng::new(99);
        let mut c1 = parent1.fork(5);
        let mut c2 = parent2.fork(5);
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut p = SimRng::new(99);
        let mut p2 = p.clone();
        let mut f0 = p.fork(0);
        let mut f1 = p2.fork(1);
        assert_ne!(f0.next_u64(), f1.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn uniform_bounds_inclusive() {
        let mut r = SimRng::new(11);
        for _ in 0..1000 {
            let v = r.uniform(10, 12);
            assert!((10..=12).contains(&v));
        }
        assert_eq!(r.uniform(5, 5), 5);
        assert_eq!(r.uniform(9, 2), 9);
    }

    #[test]
    fn exp_mean_is_roughly_right() {
        let mut r = SimRng::new(13);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| r.exp(100.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((90.0..110.0).contains(&mean), "mean was {mean}");
        assert_eq!(r.exp(0.0), 0);
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::new(23);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
