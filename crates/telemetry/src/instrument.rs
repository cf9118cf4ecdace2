//! Typed instruments: monotonic counters, gauges and fixed-bucket log2
//! histograms.
//!
//! Every instrument is a handful of `Cell`s, so recording goes through a
//! shared `&` handle and never allocates — cheap enough for the push
//! engine's per-job hot path. The engine is one thread, so nothing here is
//! `Sync`.

use std::cell::Cell;

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `2^63`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(Cell<u64>);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter, wrapping at `u64::MAX`.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Adds one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A last-value-wins gauge holding an `f64`.
///
/// Gauges are the bridge for *view* metrics: subsystems that keep their own
/// authoritative state (the usage ledger, storage counters) are projected
/// into the registry by setting gauges at snapshot time instead of
/// double-booking every update.
#[derive(Debug, Default)]
pub struct Gauge(Cell<f64>);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

/// Index of the log2 bucket for a sample: bucket 0 holds exactly zero,
/// bucket `i >= 1` holds `[2^(i-1), 2^i)`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive value range covered by bucket `i` (see `bucket_index`).
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        _ => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// A fixed-bucket log2 histogram with exact `count`/`sum`/`min`/`max`.
///
/// Recording touches five cells; there is no allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [Cell<u64>; HISTOGRAM_BUCKETS],
    count: Cell<u64>,
    sum: Cell<u64>,
    min: Cell<u64>,
    max: Cell<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| Cell::new(0)),
            count: Cell::new(0),
            sum: Cell::new(0),
            min: Cell::new(u64::MAX),
            max: Cell::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let bucket = &self.buckets[bucket_index(v)];
        bucket.set(bucket.get() + 1);
        self.count.set(self.count.get() + 1);
        self.sum.set(self.sum.get().wrapping_add(v));
        self.min.set(self.min.get().min(v));
        self.max.set(self.max.get().max(v));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.get();
        HistogramSnapshot {
            buckets: self.buckets.iter().map(Cell::get).collect(),
            count,
            sum: self.sum.get(),
            min: if count == 0 { 0 } else { self.min.get() },
            max: self.max.get(),
        }
    }
}

/// Owned copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts, `HISTOGRAM_BUCKETS` entries.
    pub buckets: Vec<u64>,
    /// Total number of samples.
    pub count: u64,
    /// Exact sum of all samples (wrapping beyond `u64::MAX`).
    pub sum: u64,
    /// Exact minimum sample (0 when empty).
    pub min: u64,
    /// Exact maximum sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`) from the
    /// bucket boundaries; exact `min`/`max` are reported separately.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
        }
    }

    #[test]
    fn histogram_exact_stats() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 1000, 1000, 7] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 2013);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 6);
    }

    #[test]
    fn quantile_bounds() {
        let h = Histogram::new();
        for v in 1..=1024u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(1.0), 1024);
        assert!(s.quantile(0.5) >= 512);
        assert!(s.quantile(0.5) <= 1023);
    }
}
