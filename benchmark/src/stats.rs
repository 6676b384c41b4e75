//! Order statistics the benchmark reports: exact nearest-rank
//! percentiles over integer samples (virtual-time latencies) and
//! median/quartile summaries over float samples (host-time repeats).

/// Exact nearest-rank percentile of an ascending-sorted slice: the
/// smallest sample with at least `p` percent of the samples at or below
/// it (rank `ceil(p/100 · n)`, 1-based). Returns 0 for an empty slice.
pub fn percentile_nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    // `99.9 / 100 * 1000` is 999.0000000000001 in floating point; the
    // tolerance keeps such a product from being rounded up a whole rank.
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median, quartiles and extremes of a set of repeats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise `xs` (must be non-empty). Quartiles follow Python's
    /// `statistics.quantiles(xs, n=4)` (the exclusive method), because
    /// that is what the acceptance check applies to repeated runs.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "summary of no samples");
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let quartile = |i: usize| -> f64 {
            if n == 1 {
                return s[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
        };
        Summary {
            n,
            min: s[0],
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
            max: s[n - 1],
        }
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Median of `xs` (must be non-empty).
pub fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_hand_cases() {
        // The textbook example: ranks ceil(p/100 * 5).
        let xs = [15, 20, 35, 40, 50];
        assert_eq!(percentile_nearest_rank(&xs, 5.0), 15);
        assert_eq!(percentile_nearest_rank(&xs, 30.0), 20);
        assert_eq!(percentile_nearest_rank(&xs, 40.0), 20);
        assert_eq!(percentile_nearest_rank(&xs, 50.0), 35);
        assert_eq!(percentile_nearest_rank(&xs, 99.0), 50);
        assert_eq!(percentile_nearest_rank(&xs, 100.0), 50);
        assert_eq!(percentile_nearest_rank(&xs, 0.0), 15);
        assert_eq!(percentile_nearest_rank(&[], 50.0), 0);
        assert_eq!(percentile_nearest_rank(&[7], 99.0), 7);
        // Even count: p50 is the lower middle sample, never an average.
        assert_eq!(percentile_nearest_rank(&[1, 2, 3, 4], 50.0), 2);
        // 1000 samples 1..=1000: p99 is the 990th.
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_nearest_rank(&big, 99.0), 990);
        assert_eq!(percentile_nearest_rank(&big, 99.9), 999);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Summary::of(&[4.0]).median, 4.0);
    }
}
