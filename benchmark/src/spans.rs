//! Harness-side tracing: spans recorded from outside, around the public
//! calls into each layer. Spans stay in memory until the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The layer the time belongs to (`platform`, `workload`, …).
    pub layer: &'static str,
    /// What was called (`step`, `ingest`, …).
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The tick the span belongs to (spans of one tick share it).
    pub tick: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times calls and, when recording, keeps a span for each.
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// The tick id stamped on spans opened from now on.
    pub tick: u64,
}

impl Tracer {
    /// A tracer; with `recording` off it only times.
    pub fn new(recording: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            recording,
            spans: Vec::new(),
            open: Vec::new(),
            tick: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses the calls made until [`Tracer::close`].
    pub fn open(&mut self, layer: &'static str, name: &'static str) {
        if !self.recording {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            tick: self.tick,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.recording {
            return;
        }
        let i = self.open.pop().expect("close without open");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f`, returning its result and its wall seconds; records a span
    /// around it when recording.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        self.open(layer, name);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.close();
        (out, secs)
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer self time in seconds: each span's duration minus the part its
/// direct children cover, summed by layer.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        *out.entry(s.layer).or_default() += s.duration_ns().saturating_sub(covered) as f64 / 1e9;
    }
    out
}

/// Share of the wall time between the first span's start and the last
/// span's end that spans of a layer other than `harness` account for.
pub fn coverage(spans: &[Span]) -> f64 {
    let (Some(first), Some(last)) = (
        spans.iter().map(|s| s.start_ns).min(),
        spans.iter().map(|s| s.end_ns).max(),
    ) else {
        return 0.0;
    };
    let covered: f64 = self_times(spans)
        .iter()
        .filter(|(layer, _)| **layer != HARNESS)
        .map(|(_, s)| s)
        .sum();
    covered / ((last - first).max(1) as f64 / 1e9)
}

/// Layer name of the spans that only group others (phases, ticks): their
/// self time is the harness's own bookkeeping.
pub const HARNESS: &str = "harness";

/// Chrome `trace_event` JSON, one lane (`tid`) per layer.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let mut lanes: Vec<&'static str> = Vec::new();
    let mut events = Vec::with_capacity(spans.len());
    for s in spans {
        let lane = match lanes.iter().position(|l| *l == s.layer) {
            Some(i) => i,
            None => {
                lanes.push(s.layer);
                lanes.len() - 1
            }
        };
        events.push(Json::obj([
            ("name", Json::str(format!("{}.{}", s.layer, s.name))),
            ("ph", Json::str("X")),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(lane as f64)),
            ("ts", Json::Num(s.start_ns as f64 / 1e3)),
            ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
            ("args", Json::obj([("tick", Json::Num(s.tick as f64))])),
        ]));
    }
    for (i, lane) in lanes.iter().enumerate() {
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(i as f64)),
            ("args", Json::obj([("name", Json::str(*lane))])),
        ]));
    }
    Json::obj([("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "x",
            start_ns,
            end_ns,
            parent,
            tick: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // harness tick [0,100) ⊃ platform step [10,90) ⊃ executor wave [20,50)
        //                      ⊃ workload gen [90,100)
        let spans = vec![
            span(HARNESS, 0, 100, None),
            span("platform", 10, 90, Some(0)),
            span("executor", 20, 50, Some(1)),
            span("workload", 90, 100, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[HARNESS], 10e-9); // 100 − 80 − 10
        assert_eq!(t["platform"], 50e-9); // 80 − 30
        assert_eq!(t["executor"], 30e-9);
        assert_eq!(t["workload"], 10e-9);
        let total: f64 = t.values().sum();
        assert!(
            (total - 100e-9).abs() < 1e-15,
            "self times add up to the root"
        );
        assert!((coverage(&spans) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_times() {
        let mut t = Tracer::new(true);
        t.open(HARNESS, "tick");
        t.tick = 7;
        let (v, secs) = t.time("platform", "step", || 41 + 1);
        t.close();
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].tick, 7);
        assert!(s[0].end_ns >= s[1].end_ns);

        let mut off = Tracer::new(false);
        off.open(HARNESS, "tick");
        let (v, _) = off.time("platform", "step", || 1);
        off.close();
        assert_eq!(v, 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_one_lane_per_layer() {
        let spans = vec![
            span(HARNESS, 0, 100, None),
            span("platform", 10, 90, Some(0)),
            span("platform", 91, 95, Some(0)),
        ];
        let j = chrome_trace(&spans);
        let events = j.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3 + 2);
        assert_eq!(events[1].get("tid"), events[2].get("tid"));
        assert_ne!(events[0].get("tid"), events[1].get("tid"));
    }
}
