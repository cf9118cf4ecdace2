//! Bounded per-fleet headroom rollup.
//!
//! PR 4 materialized one `Histogram` + `Counter` pair per sharing via
//! name-keyed registry lookups — O(N) instruments and O(N) snapshot rows at
//! 100k sharings. The rollup replaces that family with O(1) registry
//! cardinality: the executor records every push into a single fleet-wide
//! headroom histogram (still in the registry, same names as before) and
//! into this structure, which keeps one *compact* summary per sharing —
//! plain integers, no atomics, no name — and can answer the two questions
//! the snapshot actually needs: fleet percentiles and the deterministic
//! top-K worst-headroom sharings. Only the K exported rows ever become
//! metric names, so snapshot cardinality is O(K) no matter the fleet size.

/// Compact lifetime accounting for one sharing: fixed-size, no allocation
/// after registration.
#[derive(Debug, Clone, Copy)]
pub struct SharingSummary {
    /// Raw sharing id.
    pub sharing: u32,
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
    /// True once the sharing is retired; retired slots drop out of top-K.
    pub retired: bool,
}

impl SharingSummary {
    fn new(sharing: u32, sla_us: u64) -> Self {
        Self {
            sharing,
            sla_us,
            pushes: 0,
            misses: 0,
            sum_headroom_us: 0,
            min_headroom_us: u64::MAX,
            max_headroom_us: 0,
            last_at_us: 0,
            bands: [0; 8],
            retired: false,
        }
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

/// Fleet-wide bounded rollup: one [`SharingSummary`] per executor slot,
/// indexed by the executor's dense slot index (tombstoned slots stay,
/// marked retired). Single-writer (the executor coordinator).
#[derive(Debug, Default)]
pub struct FleetRollup {
    slots: Vec<SharingSummary>,
}

impl FleetRollup {
    /// An empty rollup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a sharing; returns its slot index. Call order must match
    /// the executor's slot order.
    pub fn register(&mut self, sharing: u32, sla_us: u64) -> usize {
        self.slots.push(SharingSummary::new(sharing, sla_us));
        self.slots.len() - 1
    }

    /// Marks a slot retired (tombstoned in the executor).
    pub fn retire(&mut self, slot: usize) {
        if let Some(s) = self.slots.get_mut(slot) {
            s.retired = true;
        }
    }

    /// Records one completed push for `slot`.
    pub fn record(&mut self, slot: usize, headroom_us: u64, missed: bool, at_us: u64) {
        let s = &mut self.slots[slot];
        s.pushes += 1;
        if missed {
            s.misses += 1;
        }
        s.sum_headroom_us += headroom_us;
        s.min_headroom_us = s.min_headroom_us.min(headroom_us);
        s.max_headroom_us = s.max_headroom_us.max(headroom_us);
        s.last_at_us = at_us;
        let band = (headroom_us * 8)
            .checked_div(s.sla_us)
            .map_or(7, |b| b.min(7)) as usize;
        s.bands[band] += 1;
    }

    /// The summary at `slot`.
    pub fn summary(&self, slot: usize) -> Option<&SharingSummary> {
        self.slots.get(slot)
    }

    /// Number of registered slots (including retired).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total pushes and misses across live and retired slots.
    pub fn totals(&self) -> (u64, u64) {
        let mut pushes = 0;
        let mut misses = 0;
        for s in &self.slots {
            pushes += s.pushes;
            misses += s.misses;
        }
        (pushes, misses)
    }

    /// The deterministic top-`k` worst-headroom sharings: live slots with
    /// at least one push, ordered by (smallest min-headroom, most misses,
    /// smallest sharing id). The ordering key is total, so the result
    /// does not depend on slot iteration order.
    pub fn top_k_worst(&self, k: usize) -> Vec<WorstRow> {
        let mut rows: Vec<WorstRow> = self
            .slots
            .iter()
            .filter(|s| !s.retired && s.pushes > 0)
            .map(|s| WorstRow {
                sharing: s.sharing,
                min_headroom_us: s.min_headroom_us,
                misses: s.misses,
                pushes: s.pushes,
            })
            .collect();
        rows.sort_unstable_by_key(|r| (r.min_headroom_us, u64::MAX - r.misses, r.sharing));
        rows.truncate(k);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_orders_by_worst_headroom_then_misses_then_id() {
        let mut r = FleetRollup::new();
        for (id, sla) in [(1u32, 8_000_000u64), (2, 8_000_000), (3, 8_000_000)] {
            r.register(id, sla);
        }
        r.record(0, 5_000_000, false, 10);
        r.record(1, 1_000_000, false, 11);
        r.record(2, 1_000_000, true, 12);
        let top = r.top_k_worst(2);
        assert_eq!(top[0].sharing, 3); // ties on headroom broken by misses
        assert_eq!(top[1].sharing, 2);
        r.retire(2);
        let top = r.top_k_worst(8);
        assert_eq!(top.iter().map(|t| t.sharing).collect::<Vec<_>>(), [2, 1]);
    }

    #[test]
    fn band_quantile_tracks_the_octiles() {
        let mut r = FleetRollup::new();
        r.register(7, 8_000_000);
        // Headrooms land in bands 0..8: one push per band.
        for b in 0..8u64 {
            r.record(0, b * 1_000_000 + 1, b == 0, b);
        }
        let s = *r.summary(0).unwrap();
        assert_eq!(s.pushes, 8);
        assert_eq!(s.misses, 1);
        assert_eq!(s.bands, [1; 8]);
        assert_eq!(s.band_quantile_us(0.5), 4_000_000);
        assert_eq!(s.band_quantile_us(1.0), s.max_headroom_us);
        assert_eq!(r.totals(), (8, 1));
    }
}
