//! Deterministic span sampling and the incident flight recorder.
//!
//! At 100k sharings the span ring cannot retain every push lifecycle, and
//! random sampling would break the byte-identical-trace invariant. The
//! [`SpanSampler`] therefore samples by *sharing*, not by span: a seeded
//! integer hash of the sharing id decides, once and forever, whether that
//! sharing's spans are kept. Structural spans with no sharing (ticks, batch
//! plans, waves) are always kept so sampled traces stay well-parented. The
//! decision depends only on the span's content, and spans are recorded
//! coordinator-side in canonical merge order — so a sampled trace is
//! byte-identical run to run, exactly like the full trace.
//!
//! The [`FlightRecorder`] complements sampling: it keeps a small ring of
//! the *unsampled* recent spans, and when the executor sees an SLA miss or
//! the burn-rate monitor fires, it retroactively freezes the window of
//! spans around the incident for that sharing — so the spans you need for
//! a post-mortem exist even when the sharing lost the sampling coin-toss.

use crate::span::{SpanKind, SpanRecord};
use std::collections::VecDeque;

/// Seeded splitmix64 finalizer — the same integer mix used elsewhere in the
/// workspace for deterministic seeding.
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sharing-coherent deterministic span sampler: keep a sharing's spans iff
/// `mix(seed, sharing) % rate == 0`. Rate 1 keeps everything.
#[derive(Debug, Clone, Copy)]
pub struct SpanSampler {
    rate: u32,
    seed: u64,
}

impl SpanSampler {
    /// Creates a sampler keeping roughly 1-in-`rate` sharings.
    pub fn new(rate: u32, seed: u64) -> Self {
        Self {
            rate: rate.max(1),
            seed,
        }
    }

    /// Whether spans for `sharing` are retained.
    pub fn keep_sharing(&self, sharing: u32) -> bool {
        self.rate <= 1 || mix(self.seed, sharing as u64).is_multiple_of(self.rate as u64)
    }

    /// Whether `rec` is retained: structural (sharing-less) spans always
    /// are, sharing-bound spans follow the sharing's coin.
    pub fn keep(&self, rec: &SpanRecord) -> bool {
        match rec.sharing {
            None => true,
            Some(s) => self.keep_sharing(s),
        }
    }
}

/// One frozen incident: the spans that surrounded an SLA miss or alert.
#[derive(Debug, Clone)]
pub struct FlightIncident {
    /// The sharing the incident concerns.
    pub sharing: u32,
    /// Sim-time the incident was captured (µs).
    pub at_us: u64,
    /// Why it was captured (`"sla_miss"` or `"alert"`).
    pub reason: &'static str,
    /// The sharing's spans (plus enclosing ticks) from the recent window.
    pub spans: Vec<SpanRecord>,
}

/// Bounded pre-sampling span ring plus a bounded store of frozen incidents.
#[derive(Debug)]
pub struct FlightRecorder {
    recent: VecDeque<SpanRecord>,
    capacity: usize,
    incidents: Vec<FlightIncident>,
    max_incidents: usize,
    suppressed: u64,
}

impl FlightRecorder {
    /// A recorder retaining `capacity` recent spans and at most
    /// `max_incidents` frozen incidents. `capacity == 0` disables it.
    pub fn new(capacity: usize, max_incidents: usize) -> Self {
        Self {
            recent: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity,
            incidents: Vec::new(),
            max_incidents,
            suppressed: 0,
        }
    }

    /// Observes one span (pre-sampling).
    pub fn note(&mut self, rec: SpanRecord) {
        if self.capacity == 0 {
            return;
        }
        if self.recent.len() == self.capacity {
            self.recent.pop_front();
        }
        self.recent.push_back(rec);
    }

    /// Freezes the current window for `sharing`. Incidents beyond the cap
    /// are counted as suppressed rather than evicting older ones: the
    /// first incidents of a regime shift are the interesting ones.
    pub fn capture(&mut self, sharing: u32, at_us: u64, reason: &'static str) {
        if self.incidents.len() >= self.max_incidents {
            self.suppressed += 1;
            return;
        }
        let spans: Vec<SpanRecord> = self
            .recent
            .iter()
            .filter(|s| s.sharing == Some(sharing) || s.kind == SpanKind::Tick)
            .cloned()
            .collect();
        self.incidents.push(FlightIncident {
            sharing,
            at_us,
            reason,
            spans,
        });
    }

    /// The frozen incidents, oldest first.
    pub fn incidents(&self) -> &[FlightIncident] {
        &self.incidents
    }

    /// Number of captures dropped at the cap.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, kind: SpanKind, sharing: Option<u32>) -> SpanRecord {
        let span = SpanRecord::new(id, None, kind, id, id + 1);
        match sharing {
            Some(s) => span.for_sharing(s),
            None => span,
        }
    }

    #[test]
    fn sampler_is_sharing_coherent_and_keeps_structure() {
        let s = SpanSampler::new(4, 0x5eed);
        assert!(s.keep(&span(1, SpanKind::Tick, None)));
        for sh in 0..64u32 {
            let a = s.keep(&span(1, SpanKind::Ship, Some(sh)));
            let b = s.keep(&span(2, SpanKind::Land, Some(sh)));
            assert_eq!(a, b, "same sharing must sample identically");
        }
        let kept = (0..1000u32).filter(|&sh| s.keep_sharing(sh)).count();
        assert!(kept > 150 && kept < 350, "rate 4 kept {kept}/1000");
        // Rate 1 keeps everything.
        let all = SpanSampler::new(1, 9);
        assert!((0..100u32).all(|sh| all.keep_sharing(sh)));
    }

    #[test]
    fn flight_recorder_freezes_the_sharing_window() {
        let mut fr = FlightRecorder::new(4, 2);
        fr.note(span(1, SpanKind::Tick, None));
        fr.note(span(2, SpanKind::Ship, Some(7)));
        fr.note(span(3, SpanKind::Ship, Some(8)));
        fr.note(span(4, SpanKind::Land, Some(7)));
        fr.note(span(5, SpanKind::MvApply, Some(7))); // evicts span 1
        fr.capture(7, 99, "sla_miss");
        let inc = &fr.incidents()[0];
        assert_eq!(inc.spans.iter().map(|s| s.id).collect::<Vec<_>>(), [2, 4, 5]);
        assert_eq!(inc.reason, "sla_miss");
        fr.capture(7, 100, "alert");
        fr.capture(7, 101, "alert");
        assert_eq!(fr.incidents().len(), 2);
        assert_eq!(fr.suppressed(), 1);
    }
}
