//! Named instrument registry and point-in-time metrics snapshots.
//!
//! The registry is the single vocabulary all SMILE meters speak: names are
//! dotted paths with optional `{key=value}` labels (for example
//! `push.worst_headroom_us{rank=00,sharing=3}`), and lookups are
//! get-or-create
//! so call sites never coordinate registration. Instruments are stored in
//! `BTreeMap`s, which makes every snapshot iterate in name order — the
//! rendered output is deterministic byte-for-byte.
//!
//! Hot paths are expected to look an instrument up once and keep the
//! `Rc`, after which recording is a few `Cell` writes (see
//! [`crate::instrument`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::instrument::{Counter, Gauge, Histogram, HistogramSnapshot};

/// Name-keyed store of typed instruments, for the one thread the engine
/// runs on.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RefCell<BTreeMap<String, Rc<Counter>>>,
    gauges: RefCell<BTreeMap<String, Rc<Gauge>>>,
    histograms: RefCell<BTreeMap<String, Rc<Histogram>>>,
}

fn get_or_create<T: Default>(map: &RefCell<BTreeMap<String, Rc<T>>>, name: &str) -> Rc<T> {
    let mut map = map.borrow_mut();
    if let Some(v) = map.get(name) {
        return Rc::clone(v);
    }
    Rc::clone(map.entry(name.to_string()).or_default())
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Rc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Returns the gauge named `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Rc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Returns the histogram named `name`, creating it if absent.
    pub fn histogram(&self, name: &str) -> Rc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Point-in-time copy of every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: read_all(&self.counters, Counter::get),
            gauges: read_all(&self.gauges, Gauge::get),
            histograms: read_all(&self.histograms, Histogram::snapshot),
        }
    }
}

/// `(name, read(instrument))` for every instrument of one kind, in name order.
fn read_all<T, V>(map: &RefCell<BTreeMap<String, Rc<T>>>, read: fn(&T) -> V) -> Vec<(String, V)> {
    map.borrow().iter().map(|(k, v)| (k.clone(), read(v))).collect()
}

/// An owned, name-sorted copy of a [`Registry`]'s contents, plus whatever
/// extra histograms the caller folds in (the telemetry handle adds its
/// per-job host-time histogram here).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counter pairs, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge pairs, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` histogram pairs, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl MetricsSnapshot {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Histogram snapshot `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Histograms whose name starts with `prefix` (used to enumerate
    /// labelled instrument families).
    pub fn histograms_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a HistogramSnapshot)> {
        self.histograms
            .iter()
            .filter(move |(n, _)| n.starts_with(prefix))
            .map(|(n, h)| (n.as_str(), h))
    }

    /// Renders the snapshot as deterministic JSON: instruments in name
    /// order, histograms with exact stats, quantile estimates and only the
    /// non-empty buckets (as `[lo, hi, count]` triples).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape(name), v));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape(name), fmt_f64(*v)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p99\": {}, \"buckets\": [",
                escape(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.quantile(0.50),
                h.quantile(0.99),
            ));
            let mut first = true;
            for (b, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let (lo, hi) = crate::instrument::bucket_bounds(b);
                out.push_str(&format!("[{lo}, {hi}, {c}]"));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders the snapshot as one deterministic text line per instrument.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge {name} = {}\n", fmt_f64(*v)));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "hist {name} count={} sum={} min={} max={} p50<={} p99<={}\n",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.quantile(0.50),
                h.quantile(0.99),
            ));
        }
        out
    }
}

/// Formats an `f64` deterministically and JSON-compatibly (no `NaN`/`inf`
/// literals, always a decimal point or exponent).
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_is_shared() {
        let r = Registry::new();
        r.counter("a.b").add(3);
        r.counter("a.b").add(4);
        assert_eq!(r.counter("a.b").get(), 7);
    }

    #[test]
    fn snapshot_is_name_sorted_and_renders() {
        let r = Registry::new();
        r.counter("z.late").inc();
        r.counter("a.early").add(2);
        r.gauge("g.mid").set(1.5);
        r.histogram("h.lat_us{sharing=1}").record(700);
        let s = r.snapshot();
        assert_eq!(s.counters[0].0, "a.early");
        assert_eq!(s.counters[1].0, "z.late");
        assert_eq!(s.counter("a.early"), Some(2));
        assert_eq!(s.gauge("g.mid"), Some(1.5));
        assert_eq!(s.histogram("h.lat_us{sharing=1}").unwrap().count, 1);
        let json = s.to_json();
        assert!(json.contains("\"a.early\": 2"));
        assert!(json.contains("\"h.lat_us{sharing=1}\""));
        let text = s.to_text();
        assert!(text.contains("gauge g.mid = 1.5"));
        assert!(text.contains("hist h.lat_us{sharing=1} count=1 sum=700 min=700 max=700"));
    }
}
