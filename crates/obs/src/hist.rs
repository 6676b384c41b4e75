//! Fixed-bucket latency histograms and the named-histogram registry.
//!
//! The buckets are powers of two (64 of them), so recording is two
//! instructions and merging is element-wise addition — no allocation per
//! sample, unlike the `Vec<u64>` collectors these replace. Exact `min`,
//! `max`, `count`, and `sum` ride alongside the buckets, so the metrics
//! the test suite pins exactly (p0/p100, counts, bounded-decision
//! assertions) stay exact; only interior percentiles are quantised to
//! their bucket's upper bound.

/// Number of power-of-two buckets. Bucket `i` holds values whose
/// bit-length is `i`, i.e. `[2^(i-1), 2^i)`; bucket 0 holds zero. 63
/// buckets cover the whole `u64` range.
pub const BUCKETS: usize = 64;

/// A fixed-bucket histogram of `u64` samples (microseconds, by
/// convention) with exact min/max/count/sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist::default()
    }

    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize % BUCKETS
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest sample; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample; 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank percentile (0..=100). p0 and p100 are exact (`min` /
    /// `max`); interior percentiles are quantised to the upper bound of
    /// the sample's power-of-two bucket, clamped to `max`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        if p == 0.0 {
            return self.min();
        }
        if p == 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * (self.count as f64 - 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                // Upper bound of bucket i is 2^i - 1 (bucket 0 is zero).
                let hi = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A small ordered view of named histograms — the per-phase latency
/// breakdown every engine reports through. Each engine records into its
/// own named histograms and builds this view from them in a fixed order,
/// so reports and traces are deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseHists {
    entries: Vec<(&'static str, Hist)>,
}

impl PhaseHists {
    /// Look up one phase.
    pub fn get(&self, phase: &str) -> Option<&Hist> {
        self.entries
            .iter()
            .find(|(n, _)| *n == phase)
            .map(|(_, h)| h)
    }

    /// Iterate phases in the order the view was built.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Hist)> {
        self.entries.iter().map(|(n, h)| (*n, h))
    }

    /// True when no phase has any samples.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A view of `(phase, histogram)` pairs in the given order, leaving out
/// every phase without samples.
impl FromIterator<(&'static str, Hist)> for PhaseHists {
    fn from_iter<I: IntoIterator<Item = (&'static str, Hist)>>(iter: I) -> PhaseHists {
        PhaseHists {
            entries: iter.into_iter().filter(|(_, h)| h.count() > 0).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_extremes_and_counts() {
        let mut h = Hist::new();
        for v in [7u64, 900, 33, 0, 12_345] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 12_345);
        assert_eq!(h.sum(), 7 + 900 + 33 + 12_345);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 12_345);
    }

    #[test]
    fn empty_hist_is_all_zero() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.percentile(50.0), 0);
    }

    #[test]
    fn interior_percentile_bounds_sample() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        // Nearest-rank sample is 500; its bucket [256, 512) reports 511.
        assert_eq!(p50, 511);
        assert!(h.percentile(95.0) >= 950 && h.percentile(95.0) <= h.max());
    }

    #[test]
    fn merge_matches_union() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut u = Hist::new();
        for v in [5u64, 80, 3000] {
            a.record(v);
            u.record(v);
        }
        for v in [1u64, 999_999] {
            b.record(v);
            u.record(v);
        }
        a.merge(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn a_phase_view_keeps_its_order_and_leaves_out_empty_phases() {
        let hist = |vs: &[u64]| {
            let mut h = Hist::new();
            for &v in vs {
                h.record(v);
            }
            h
        };
        let p: PhaseHists = [
            ("gather", hist(&[100, 300])),
            ("idle", Hist::new()),
            ("settle", hist(&[10])),
        ]
        .into_iter()
        .collect();
        assert_eq!(p.get("gather").unwrap().count(), 2);
        assert_eq!(p.get("gather").unwrap().max(), 300);
        assert!(p.get("idle").is_none());
        let order: Vec<&str> = p.iter().map(|(n, _)| n).collect();
        assert_eq!(order, vec!["gather", "settle"]);
        assert!(!p.is_empty());
        assert!(PhaseHists::from_iter([("idle", Hist::new())]).is_empty());
    }
}
