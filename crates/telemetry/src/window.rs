//! Sim-time sliding windows: a fixed ring of rotating sub-windows.
//!
//! The fleet-scale signal path (DESIGN.md §14) needs *recent* statistics —
//! "misses over the last 30 simulated seconds" — not lifetime totals. A
//! [`SlidingWindow`] divides sim-time into fixed-width sub-windows (epochs)
//! and keeps the last `subs` of them in a ring; recording rotates the slot
//! for the current epoch lazily, so there is no timer wheel and no
//! allocation after construction. Everything is keyed off the simulated
//! clock passed by the caller, which is what keeps windowed values
//! byte-identical run to run: the coordinator drives all recordings in
//! canonical order with deterministic timestamps.

/// Shape of a sliding window: `subs` sub-windows of `sub_width_us` each,
/// covering the last `subs * sub_width_us` microseconds of sim-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Width of one sub-window in simulated microseconds.
    pub sub_width_us: u64,
    /// Number of sub-windows retained (the ring length).
    pub subs: usize,
}

/// Merged statistics over the live sub-windows of a [`SlidingWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowStats {
    /// Number of samples recorded in the live sub-windows.
    pub count: u64,
    /// Sum of the recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl WindowStats {
    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    epoch: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// A bounded sim-time sliding window. Not thread-safe by design: windows are
/// owned by the executor coordinator, which is the only writer, so plain
/// `&mut` keeps the hot path branch-and-add with no atomics.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    spec: WindowSpec,
    slots: Vec<Slot>,
}

impl SlidingWindow {
    /// Creates an empty window with the given shape. `sub_width_us` and
    /// `subs` must be non-zero.
    pub fn new(spec: WindowSpec) -> Self {
        assert!(spec.sub_width_us > 0 && spec.subs > 0);
        Self {
            spec,
            slots: vec![Slot::default(); spec.subs],
        }
    }

    /// The window's shape.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    fn epoch_of(&self, now_us: u64) -> u64 {
        now_us / self.spec.sub_width_us
    }

    /// Records `value` at sim-time `now_us`, rotating the ring slot for the
    /// current epoch if it still holds an expired sub-window.
    pub fn record(&mut self, now_us: u64, value: u64) {
        let epoch = self.epoch_of(now_us);
        let idx = (epoch % self.spec.subs as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.epoch != epoch || slot.count == 0 {
            *slot = Slot {
                epoch,
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            };
        }
        slot.epoch = epoch;
        slot.count += 1;
        slot.sum += value;
        slot.min = slot.min.min(value);
        slot.max = slot.max.max(value);
    }

    fn live(&self, now_us: u64, slot: &Slot) -> bool {
        let epoch = self.epoch_of(now_us);
        let oldest = epoch.saturating_sub(self.spec.subs as u64 - 1);
        slot.count > 0 && slot.epoch >= oldest && slot.epoch <= epoch
    }

    /// Merged statistics over the sub-windows still inside the window at
    /// sim-time `now_us` (expired slots are skipped, not zeroed).
    pub fn stats(&self, now_us: u64) -> WindowStats {
        let mut out = WindowStats::default();
        let mut min = u64::MAX;
        for slot in &self.slots {
            if self.live(now_us, slot) {
                out.count += slot.count;
                out.sum += slot.sum;
                min = min.min(slot.min);
                out.max = out.max.max(slot.max);
            }
        }
        if out.count > 0 {
            out.min = min;
        }
        out
    }

    /// Per-sub-window `(epoch, count, sum)` series, oldest first, for the
    /// live slots — the input to trend-slope fits.
    pub fn series(&self, now_us: u64) -> Vec<(u64, u64, u64)> {
        let mut out: Vec<(u64, u64, u64)> = self
            .slots
            .iter()
            .filter(|s| self.live(now_us, s))
            .map(|s| (s.epoch, s.count, s.sum))
            .collect();
        out.sort_unstable();
        out
    }

    /// True when no live-or-expired slot holds any sample — quiet-mode
    /// windows must stay provably empty.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.count == 0)
    }
}

/// Least-squares slope over `(x, y)` points; `None` below 2 points or when
/// all x coincide. Deterministic: callers pass points in a fixed order.
pub fn slope(points: &[(f64, f64)]) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom == 0.0 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: WindowSpec = WindowSpec {
        sub_width_us: 1_000_000,
        subs: 4,
    };

    #[test]
    fn window_rotates_and_expires() {
        let mut w = SlidingWindow::new(SPEC);
        assert!(w.is_empty());
        w.record(0, 10);
        w.record(1_500_000, 20);
        w.record(2_500_000, 30);
        let s = w.stats(2_500_000);
        assert_eq!((s.count, s.sum, s.min, s.max), (3, 60, 10, 30));
        // Advance past the window: the epoch-0 sample expires.
        let s = w.stats(4_200_000);
        assert_eq!((s.count, s.sum, s.min), (2, 50, 20));
        // Far future: everything expired, ring reused cleanly.
        assert_eq!(w.stats(60_000_000).count, 0);
        w.record(60_000_000, 7);
        let s = w.stats(60_000_000);
        assert_eq!((s.count, s.sum, s.min, s.max), (1, 7, 7, 7));
        assert!(!w.is_empty());
    }

    #[test]
    fn slot_reuse_overwrites_expired_epoch() {
        let mut w = SlidingWindow::new(SPEC);
        w.record(500_000, 100); // epoch 0 → slot 0
        w.record(4_100_000, 5); // epoch 4 → slot 0 again
        let s = w.stats(4_100_000);
        assert_eq!((s.count, s.sum), (1, 5));
    }

    #[test]
    fn series_is_oldest_first() {
        let mut w = SlidingWindow::new(SPEC);
        w.record(3_000_000, 1);
        w.record(1_000_000, 2);
        w.record(2_000_000, 3);
        assert_eq!(
            w.series(3_000_000),
            vec![(1, 1, 2), (2, 1, 3), (3, 1, 1)]
        );
    }

    #[test]
    fn slope_fits_a_line() {
        let pts = [(0.0, 4.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0)];
        assert_eq!(slope(&pts), Some(-1.0));
        assert_eq!(slope(&pts[..1]), None);
    }
}
