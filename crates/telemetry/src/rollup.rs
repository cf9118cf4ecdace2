//! Bounded per-fleet headroom rollup.
//!
//! PR 4 materialized one `Histogram` + `Counter` pair per sharing via
//! name-keyed registry lookups — O(N) instruments and O(N) snapshot rows at
//! 100k sharings. The rollup replaces that family with O(1) registry
//! cardinality: the executor records every push into a single fleet-wide
//! headroom histogram (still in the registry, same names as before) and into
//! the pushed sharing's *compact* [`SharingSummary`] — plain integers, no
//! atomics, no name — which lives in the executor's record of that sharing
//! and goes with it at retirement. [`top_k_worst`] answers the one fleet
//! question the snapshot needs over the live summaries: the deterministic
//! top-K worst-headroom sharings. Only the K exported rows ever become
//! metric names, so snapshot cardinality is O(K) no matter the fleet size.

/// Compact lifetime accounting for one sharing: fixed-size, no allocation
/// after registration. It does not name its sharing: whatever keeps it
/// keys it by the sharing's id.
#[derive(Debug, Clone, Copy)]
pub struct SharingSummary {
    /// The sharing's staleness SLA in microseconds.
    pub sla_us: u64,
    /// Completed pushes.
    pub pushes: u64,
    /// Pushes that landed past the SLA.
    pub misses: u64,
    /// Sum of headroom over all pushes (µs; missed pushes contribute 0).
    pub sum_headroom_us: u64,
    /// Worst (smallest) headroom seen (µs).
    pub min_headroom_us: u64,
    /// Best (largest) headroom seen (µs).
    pub max_headroom_us: u64,
    /// Sim-time of the most recent push (µs).
    pub last_at_us: u64,
    /// Headroom-as-fraction-of-SLA octile counts: band `i` holds pushes
    /// whose headroom fell in `[i/8, (i+1)/8)` of the SLA (band 7 is
    /// top-open). Eight buckets bound the memory while still supporting
    /// per-sharing percentile estimates for `Smile::explain`.
    pub bands: [u64; 8],
}

impl SharingSummary {
    /// The empty summary of a sharing under an SLA of `sla_us`.
    pub fn new(sla_us: u64) -> Self {
        Self {
            sla_us,
            pushes: 0,
            misses: 0,
            sum_headroom_us: 0,
            min_headroom_us: u64::MAX,
            max_headroom_us: 0,
            last_at_us: 0,
            bands: [0; 8],
        }
    }

    /// Records one completed push.
    pub fn record(&mut self, headroom_us: u64, missed: bool, at_us: u64) {
        self.pushes += 1;
        if missed {
            self.misses += 1;
        }
        self.sum_headroom_us += headroom_us;
        self.min_headroom_us = self.min_headroom_us.min(headroom_us);
        self.max_headroom_us = self.max_headroom_us.max(headroom_us);
        self.last_at_us = at_us;
        let band = (headroom_us * 8)
            .checked_div(self.sla_us)
            .map_or(7, |b| b.min(7)) as usize;
        self.bands[band] += 1;
    }

    /// Mean headroom in microseconds (0 when no pushes).
    pub fn mean_headroom_us(&self) -> f64 {
        if self.pushes == 0 {
            0.0
        } else {
            self.sum_headroom_us as f64 / self.pushes as f64
        }
    }

    /// Upper bound (µs) of the band holding the `q`-quantile push, capped
    /// at the observed max — a per-sharing percentile estimate at eight
    /// buckets of resolution.
    pub fn band_quantile_us(&self, q: f64) -> u64 {
        if self.pushes == 0 {
            return 0;
        }
        let rank = ((q * self.pushes as f64).ceil() as u64).clamp(1, self.pushes);
        let mut seen = 0u64;
        for (i, n) in self.bands.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = (i as u64 + 1) * self.sla_us / 8;
                return upper.min(self.max_headroom_us);
            }
        }
        self.max_headroom_us
    }
}

/// One exported top-K row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorstRow {
    /// Raw sharing id.
    pub sharing: u32,
    /// Worst headroom seen (µs).
    pub min_headroom_us: u64,
    /// Lifetime misses.
    pub misses: u64,
    /// Lifetime pushes.
    pub pushes: u64,
}

/// The deterministic top-`k` worst-headroom sharings among `summaries`,
/// each beside its raw sharing id: those with at least one push, ordered by
/// (smallest min-headroom, most misses, smallest sharing id). The ordering
/// key is total, so the result does not depend on the order the summaries
/// come in.
pub fn top_k_worst<'a>(summaries: impl Iterator<Item = (u32, &'a SharingSummary)>, k: usize) -> Vec<WorstRow> {
    let mut rows: Vec<WorstRow> = summaries
        .filter(|(_, s)| s.pushes > 0)
        .map(|(sharing, s)| WorstRow {
            sharing,
            min_headroom_us: s.min_headroom_us,
            misses: s.misses,
            pushes: s.pushes,
        })
        .collect();
    rows.sort_unstable_by_key(|r| (r.min_headroom_us, u64::MAX - r.misses, r.sharing));
    rows.truncate(k);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_orders_by_worst_headroom_then_misses_then_id() {
        let mut s = [SharingSummary::new(8_000_000); 4];
        s[0].record(5_000_000, false, 10);
        s[1].record(1_000_000, false, 11);
        s[2].record(1_000_000, true, 12);
        let rows: Vec<(u32, &SharingSummary)> = (1..).zip(&s).collect();
        let top = top_k_worst(rows.iter().rev().copied(), 2);
        assert_eq!(top[0].sharing, 3); // ties on headroom broken by misses
        assert_eq!(top[1].sharing, 2);
        // A summary without pushes has no row; one left out is not ranked.
        let top = top_k_worst(rows[..2].iter().copied(), 8);
        assert_eq!(top.iter().map(|t| t.sharing).collect::<Vec<_>>(), [2, 1]);
    }

    #[test]
    fn band_quantile_tracks_the_octiles() {
        let mut s = SharingSummary::new(8_000_000);
        // Headrooms land in bands 0..8: one push per band.
        for b in 0..8u64 {
            s.record(b * 1_000_000 + 1, b == 0, b);
        }
        assert_eq!(s.pushes, 8);
        assert_eq!(s.misses, 1);
        assert_eq!(s.bands, [1; 8]);
        assert_eq!(s.band_quantile_us(0.5), 4_000_000);
        assert_eq!(s.band_quantile_us(1.0), s.max_headroom_us);
    }
}
