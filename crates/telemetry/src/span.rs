//! Structured spans over the push lifecycle, recorded into a bounded ring.
//!
//! A span is a closed interval of *simulated* time with an explicit parent
//! id, so the full causal tree of a push is reconstructible:
//! `tick → plan_batch`, `tick → wave → edge_job → {ship, land}`,
//! `tick → retry`. Spans are recorded coordinator-side only, in canonical
//! batch order, and carry no host wall-clock fields — the recorded stream
//! (ids included) is byte-identical run to run.
//!
//! The ring is bounded: when full, the oldest span is dropped and a drop
//! counter advances, so long simulations keep the most recent window of
//! activity at a fixed memory cost.

use std::collections::VecDeque;

/// What phase of the push lifecycle a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One executor tick that planned at least one push.
    Tick,
    /// Planning: due-sharing selection, target binding, wave assignment.
    PlanBatch,
    /// One topological wave of edge jobs.
    Wave,
    /// One edge job (delta propagation along one plan edge).
    EdgeJob,
    /// Ship half of a cross-machine copy (source NIC occupancy).
    Ship,
    /// Land half of a cross-machine copy (destination apply).
    Land,
    /// The final apply into a sharing's materialized view.
    MvApply,
    /// A scheduled retry after a transient failure (span runs from the
    /// failure to the retry due time).
    Retry,
    /// A live placement migration: the span runs from the shadow-chain
    /// install to the cutover (or abort), so the dual-write handoff
    /// window is visible in the trace.
    Migration,
}

impl SpanKind {
    /// Stable lower-snake name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Tick => "tick",
            SpanKind::PlanBatch => "plan_batch",
            SpanKind::Wave => "wave",
            SpanKind::EdgeJob => "edge_job",
            SpanKind::Ship => "ship",
            SpanKind::Land => "land",
            SpanKind::MvApply => "mv_apply",
            SpanKind::Retry => "retry",
            SpanKind::Migration => "migration",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id, allocated sequentially coordinator-side.
    pub id: u64,
    /// Parent span id, `None` for roots (ticks).
    pub parent: Option<u64>,
    /// Lifecycle phase.
    pub kind: SpanKind,
    /// Start, simulated microseconds.
    pub start_us: u64,
    /// End, simulated microseconds (`>= start_us`).
    pub end_us: u64,
    /// Simulated machine the work ran on, if machine-bound.
    pub machine: Option<u32>,
    /// Sharing the work belongs to, if sharing-bound.
    pub sharing: Option<u32>,
    /// Delta-batch correlation id (the idempotency key cross-machine
    /// copies are deduplicated by), if the span moves a batch.
    pub batch_id: Option<u64>,
    /// Free-form `(key, value)` attributes; values must be derived from
    /// simulation state only (never host time) to preserve determinism.
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// A span over `[start_us, end_us]` bound to no machine, sharing or
    /// batch and carrying no attributes; the builders below add those.
    pub fn new(id: u64, parent: Option<u64>, kind: SpanKind, start_us: u64, end_us: u64) -> Self {
        Self {
            id,
            parent,
            kind,
            start_us,
            end_us,
            machine: None,
            sharing: None,
            batch_id: None,
            attrs: Vec::new(),
        }
    }

    /// Binds the span to the machine the work ran on.
    pub fn on_machine(mut self, machine: u32) -> Self {
        self.machine = Some(machine);
        self
    }

    /// Binds the span to the sharing the work belongs to.
    pub fn for_sharing(mut self, sharing: u32) -> Self {
        self.sharing = Some(sharing);
        self
    }

    /// Tags the span with the delta batch it moves.
    pub fn moving_batch(mut self, batch_id: u64) -> Self {
        self.batch_id = Some(batch_id);
        self
    }

    /// Appends one attribute.
    pub fn with(mut self, key: &'static str, value: impl ToString) -> Self {
        self.attrs.push((key, value.to_string()));
        self
    }

    /// The value of attribute `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Fixed-capacity ring of spans with a drop counter.
#[derive(Debug)]
pub struct SpanRing {
    cap: usize,
    buf: VecDeque<SpanRecord>,
    dropped: u64,
}

impl SpanRing {
    /// Creates a ring holding at most `cap` spans (at least one).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends a span, evicting the oldest when full. The ring outlives
    /// the tick by far, so it does not keep the slack the attribute
    /// builder grew.
    pub fn push(&mut self, mut rec: SpanRecord) {
        rec.attrs.shrink_to_fit();
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of spans evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Copies the retained spans oldest-first.
    pub fn to_vec(&self) -> Vec<SpanRecord> {
        self.buf.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64) -> SpanRecord {
        SpanRecord::new(id, None, SpanKind::Tick, id, id + 1)
    }

    #[test]
    fn ring_drops_oldest() {
        let mut r = SpanRing::new(3);
        for i in 0..5 {
            r.push(span(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let ids: Vec<u64> = r.to_vec().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn attr_lookup() {
        let s = span(1).with("outcome", "ok");
        assert_eq!(s.attr("outcome"), Some("ok"));
        assert_eq!(s.attr("missing"), None);
    }
}
