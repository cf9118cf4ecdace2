//! Std-only telemetry substrate for the SMILE platform.
//!
//! The build environment is offline (no crates.io), so instead of `tracing`
//! and `prometheus` this crate provides the minimal subset SMILE needs,
//! designed around one extra constraint those crates don't have: **the
//! simulator is deterministic and telemetry must not break that**. See
//! DESIGN.md §10 for the full model; in short:
//!
//! * [`instrument`] — counters, gauges and log2 histograms on `Cell`s;
//! * [`registry`] — get-or-create instruments by name, name-sorted
//!   deterministic snapshots rendered as JSON or text;
//! * [`span`] — parented spans over the push lifecycle in a bounded ring,
//!   recorded in canonical job order, sim-time only;
//! * [`trace`] — Chrome `trace_event` JSON export (Perfetto-loadable);
//! * [`window`] — sim-time sliding windows (fixed ring of rotating
//!   sub-windows) for recent-statistics instruments;
//! * [`rollup`] — the bounded fleet headroom rollup: O(K) snapshot
//!   cardinality instead of one instrument family per sharing;
//! * [`monitor`] — the SLA burn-rate monitor emitting deterministic
//!   [`monitor::Alert`] records per sharing cohort;
//! * [`sample`] — seeded sharing-coherent span sampling plus the incident
//!   flight recorder.
//!
//! The [`Telemetry`] handle ties these together and implements the quiet
//! mode: when disabled, span recording is a branch on a `bool` — nothing is
//! allocated, the ring stays empty — while instruments (plain cells that
//! never allocate after creation) keep working so accounting views stay
//! correct. The push engine is one thread, and so is all of this: nothing
//! here is `Send` or `Sync`.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod instrument;
pub mod monitor;
pub mod registry;
pub mod rollup;
pub mod sample;
pub mod span;
pub mod trace;
pub mod window;

use std::cell::{Cell, RefCell};

pub use instrument::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use monitor::{cohort_of, Alert, AlertKind, BurnRateMonitor, Severity};
pub use registry::{MetricsSnapshot, Registry};
pub use rollup::{FleetRollup, SharingSummary, WorstRow};
pub use sample::{FlightIncident, FlightRecorder, SpanSampler};
pub use span::{SpanKind, SpanRecord, SpanRing};
pub use trace::{chrome_trace, TraceInstant};
pub use window::{SlidingWindow, WindowSpec, WindowStats};

/// Telemetry settings, carried in `SmileConfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch for span recording. Off ⇒ the ring stays empty and no
    /// span ids are allocated; instruments still record.
    pub enabled: bool,
    /// Span sampling rate: keep spans for roughly 1-in-`rate` sharings
    /// (sharing-coherent, seeded). 1 keeps every span.
    pub span_sample_rate: u32,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            span_sample_rate: 1,
        }
    }
}

/// Maximum number of spans retained in the ring.
const RING_CAPACITY: usize = 1 << 16;
/// Seed for the span-sampling hash.
const SAMPLE_SEED: u64 = 0x5137_1e5eed;
/// Flight-recorder recent-span ring capacity.
const FLIGHT_RECENT: usize = 2048;
/// Maximum frozen incidents the flight recorder retains.
const FLIGHT_MAX_INCIDENTS: usize = 16;

/// Shared handle owning the registry, the span ring and the per-job
/// host-time histogram. One per `Smile` platform, shared with the executor
/// behind an `Rc`.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    next_span: Cell<u64>,
    ring: RefCell<SpanRing>,
    registry: Registry,
    /// Host nanoseconds the push engine spent per job — wall-clock, hence
    /// nondeterministic; named with the `host_` prefix that marks a metric
    /// as excluded from logical-determinism comparisons.
    host_job_nanos: Histogram,
    /// `None` at rate 1 (keep everything): the common case skips the hash.
    sampler: Option<SpanSampler>,
    sampled_out: Cell<u64>,
    flight: RefCell<FlightRecorder>,
}

impl Telemetry {
    /// Creates a handle from `cfg`.
    pub fn new(cfg: &TelemetryConfig) -> Self {
        Self {
            enabled: cfg.enabled,
            next_span: Cell::new(1),
            ring: RefCell::new(SpanRing::new(RING_CAPACITY)),
            registry: Registry::new(),
            host_job_nanos: Histogram::new(),
            sampler: (cfg.span_sample_rate > 1)
                .then(|| SpanSampler::new(cfg.span_sample_rate, SAMPLE_SEED)),
            sampled_out: Cell::new(0),
            flight: RefCell::new(FlightRecorder::new(FLIGHT_RECENT, FLIGHT_MAX_INCIDENTS)),
        }
    }

    /// A handle with span recording off (instruments still live).
    pub fn disabled() -> Self {
        Self::new(&TelemetryConfig {
            enabled: false,
            ..TelemetryConfig::default()
        })
    }

    /// Whether span recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instrument registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Allocates the next span id (sequential, coordinator-side).
    pub fn next_span_id(&self) -> u64 {
        let id = self.next_span.get();
        self.next_span.set(id + 1);
        id
    }

    /// Records a span. No-op (no allocation) when disabled;
    /// callers building attribute strings should guard on [`Self::enabled`]
    /// to keep quiet mode allocation-free end to end.
    ///
    /// With a sampler configured, spans for unsampled sharings skip the
    /// main ring (counted in `spans.sampled_out`) but still pass through
    /// the flight recorder's recent window, so incident captures see the
    /// full picture.
    pub fn record_span(&self, rec: SpanRecord) {
        if !self.enabled {
            return;
        }
        if let Some(sampler) = &self.sampler {
            if !sampler.keep(&rec) {
                self.sampled_out.set(self.sampled_out.get() + 1);
                self.flight.borrow_mut().note(rec);
                return;
            }
        }
        self.flight.borrow_mut().note(rec.clone());
        self.ring.borrow_mut().push(rec);
    }

    /// Freezes the flight-recorder window around an incident for `sharing`.
    /// No-op in quiet mode.
    pub fn capture_incident(&self, sharing: u32, at_us: u64, reason: &'static str) {
        if !self.enabled {
            return;
        }
        self.flight.borrow_mut().capture(sharing, at_us, reason);
    }

    /// Copies the frozen flight incidents, oldest first.
    pub fn flight_incidents(&self) -> Vec<FlightIncident> {
        self.flight.borrow().incidents().to_vec()
    }

    /// Number of spans dropped from the main ring by the sampler.
    pub fn spans_sampled_out(&self) -> u64 {
        self.sampled_out.get()
    }

    /// Copies the retained spans, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.ring.borrow().to_vec()
    }

    /// Number of spans currently retained.
    pub fn spans_len(&self) -> usize {
        self.ring.borrow().len()
    }

    /// Number of spans evicted from the ring so far.
    pub fn spans_dropped(&self) -> u64 {
        self.ring.borrow().dropped()
    }

    /// The histogram the push engine records each job's host nanoseconds
    /// into; snapshots export it as `wave.host_job_nanos`.
    pub fn host_job_nanos(&self) -> &Histogram {
        &self.host_job_nanos
    }

    /// Snapshot of every instrument: the registry plus the per-job
    /// host-time histogram, span-ring occupancy counters,
    /// sampler/flight counters, and — so silent span loss and cardinality
    /// creep are visible — registry instrument counts and ring-loss gauges.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        // Registry cardinality, measured before the synthetic rows below.
        let (nc, ng, nh) = (
            snap.counters.len(),
            snap.gauges.len(),
            snap.histograms.len(),
        );
        let (ring_dropped, ring_len) = (self.spans_dropped(), self.spans_len() as u64);
        let flight = self.flight.borrow();
        let (flight_incidents, flight_suppressed) =
            (flight.incidents().len() as u64, flight.suppressed());
        drop(flight);
        snap.counters
            .push(("spans.dropped".to_string(), ring_dropped));
        snap.counters
            .push(("spans.retained".to_string(), ring_len));
        snap.counters
            .push(("spans.sampled_out".to_string(), self.spans_sampled_out()));
        snap.counters
            .push(("flight.incidents".to_string(), flight_incidents));
        snap.counters
            .push(("flight.suppressed".to_string(), flight_suppressed));
        snap.counters.sort();
        snap.gauges
            .push(("spans.ring_dropped".to_string(), ring_dropped as f64));
        snap.gauges.push((
            "telemetry.instruments".to_string(),
            (nc + ng + nh) as f64,
        ));
        snap.gauges
            .push(("telemetry.instruments_counters".to_string(), nc as f64));
        snap.gauges
            .push(("telemetry.instruments_gauges".to_string(), ng as f64));
        snap.gauges
            .push(("telemetry.instruments_histograms".to_string(), nh as f64));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let host = self.host_job_nanos.snapshot();
        if host.count > 0 {
            snap.histograms
                .push(("wave.host_job_nanos".to_string(), host));
            snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Telemetry::disabled();
        let id = t.next_span_id();
        t.record_span(SpanRecord::new(id, None, SpanKind::Tick, 0, 1));
        assert!(t.spans().is_empty());
        assert_eq!(t.spans_dropped(), 0);
        // Instruments still work in quiet mode.
        t.registry().counter("c").inc();
        assert_eq!(t.snapshot().counter("c"), Some(1));
    }

    #[test]
    fn snapshot_includes_ring_and_host_job_hist() {
        let t = Telemetry::new(&TelemetryConfig::default());
        let id = t.next_span_id();
        t.record_span(SpanRecord::new(id, None, SpanKind::Wave, 5, 9));
        t.host_job_nanos().record(1234);
        let s = t.snapshot();
        assert_eq!(s.counter("spans.retained"), Some(1));
        assert_eq!(s.histogram("wave.host_job_nanos").unwrap().count, 1);
    }
}
