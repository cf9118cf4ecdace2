//! Order statistics: the percentile rule, medians, and run-to-run spread.

/// The percentiles a timing may be reported at, lowest first.
pub const LADDER: [(f64, &str); 4] = [
    (0.50, "p50"),
    (0.90, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
];

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the value is one of a handful of outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples support percentile `q`: at least [`MIN_BEYOND`] of
/// them lie beyond it.
fn supports(n: usize, q: f64) -> bool {
    // The epsilon absorbs `1.0 - 0.9 = 0.09999…` so that 100 samples
    // count ten beyond p90.
    (n as f64 * (1.0 - q) + 1e-9).floor() as usize >= MIN_BEYOND
}

/// The highest percentile of [`LADDER`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<(f64, &'static str)> {
    LADDER.iter().rev().copied().find(|&(q, _)| supports(n, q))
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(samples), q)
}

/// Median (mean of the two middle samples when the count is even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median, extremes and count of one metric over repeated runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median over the runs.
    pub median: f64,
    /// Smallest run.
    pub min: f64,
    /// Largest run.
    pub max: f64,
    /// Number of runs.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (at least one).
    pub fn of(samples: &[f64]) -> Summary {
        let v = sorted(samples);
        Summary {
            median: median(&v),
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }

    /// (max − min) ÷ median: how far identical runs disagreed.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            if self.max == self.min {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20).unwrap().1, "p50");
        assert_eq!(highest_supported(99).unwrap().1, "p50");
        assert_eq!(highest_supported(100).unwrap().1, "p90");
        assert_eq!(highest_supported(999).unwrap().1, "p90");
        assert_eq!(highest_supported(1_000).unwrap().1, "p99");
        assert_eq!(highest_supported(2_400).unwrap().1, "p99");
        assert_eq!(highest_supported(10_000).unwrap().1, "p99.9");
        assert!(supports(3_000, 0.99));
        assert!(!supports(100, 0.99));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.9), 90.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.0), 1.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[10.0, 12.0, 11.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (11.0, 10.0, 12.0, 3));
        assert!((s.spread() - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }
}
