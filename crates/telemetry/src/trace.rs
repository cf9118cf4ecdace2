//! Chrome `trace_event` JSON exporter.
//!
//! Produces the JSON-object flavour of the Trace Event Format —
//! `{"traceEvents": [...]}` — loadable in Perfetto and `about://tracing`.
//! Spans become `"ph": "X"` complete events and fault events become
//! `"ph": "i"` instants. Timestamps are *simulated* microseconds, which is
//! exactly the unit the format expects; because no host wall-clock enters
//! the file, the exported bytes are identical run to run.
//!
//! Lane layout: one process (`pid` 0, named `smile-sim`), one thread lane
//! per simulated machine (`tid = machine + 1`, named `machine-N`), and lane
//! 0 for coordinator-side spans (`tick`, `plan_batch`, `wave`, `retry`).

use crate::span::SpanRecord;

/// A point event (no duration) shown as an instant marker in its lane —
/// used for simulator fault events (crashes, restarts, drops, lost acks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceInstant {
    /// Event time, simulated microseconds.
    pub at_us: u64,
    /// Event name, e.g. `fault.crash`.
    pub name: String,
    /// Machine lane; `None` lands in the coordinator lane.
    pub machine: Option<u32>,
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

fn lane(machine: Option<u32>) -> u32 {
    machine.map(|m| m + 1).unwrap_or(0)
}

/// Renders spans plus instants as Chrome `trace_event` JSON.
///
/// Events are emitted in input order (spans first), which is the canonical
/// recording order; viewers sort by timestamp themselves.
pub fn chrome_trace(spans: &[SpanRecord], instants: &[TraceInstant]) -> String {
    let mut lanes: Vec<u32> = spans
        .iter()
        .map(|s| lane(s.machine))
        .chain(instants.iter().map(|i| lane(i.machine)))
        .collect();
    lanes.sort_unstable();
    lanes.dedup();

    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    push(
        "{\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", \
         \"args\": {\"name\": \"smile-sim\"}}"
            .to_string(),
        &mut first,
    );
    for l in &lanes {
        let name = if *l == 0 {
            "coordinator".to_string()
        } else {
            format!("machine-{}", l - 1)
        };
        push(
            format!(
                "{{\"ph\": \"M\", \"pid\": 0, \"tid\": {l}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{name}\"}}}}"
            ),
            &mut first,
        );
    }

    for s in spans {
        let mut args = format!("\"id\": {}", s.id);
        if let Some(p) = s.parent {
            args.push_str(&format!(", \"parent\": {p}"));
        }
        if let Some(sh) = s.sharing {
            args.push_str(&format!(", \"sharing\": {sh}"));
        }
        if let Some(b) = s.batch_id {
            args.push_str(&format!(", \"batch_id\": {b}"));
        }
        for (k, v) in &s.attrs {
            args.push_str(&format!(", \"{}\": \"{}\"", escape(k), escape(v)));
        }
        push(
            format!(
                "{{\"name\": \"{}\", \"cat\": \"smile\", \"ph\": \"X\", \"ts\": {}, \
                 \"dur\": {}, \"pid\": 0, \"tid\": {}, \"args\": {{{args}}}}}",
                s.kind.name(),
                s.start_us,
                s.end_us.saturating_sub(s.start_us),
                lane(s.machine),
            ),
            &mut first,
        );
    }

    for i in instants {
        push(
            format!(
                "{{\"name\": \"{}\", \"cat\": \"smile\", \"ph\": \"i\", \"s\": \"t\", \
                 \"ts\": {}, \"pid\": 0, \"tid\": {}, \"args\": {{}}}}",
                escape(&i.name),
                i.at_us,
                lane(i.machine),
            ),
            &mut first,
        );
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;

    #[test]
    fn renders_lanes_spans_and_instants() {
        let spans = vec![SpanRecord::new(1, None, SpanKind::EdgeJob, 10, 25)
            .on_machine(2)
            .for_sharing(7)
            .moving_batch(99)
            .with("outcome", "ok")];
        let instants = vec![TraceInstant {
            at_us: 12,
            name: "fault.crash".to_string(),
            machine: Some(2),
        }];
        let json = chrome_trace(&spans, &instants);
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"name\": \"edge_job\""));
        assert!(json.contains("\"ts\": 10"));
        assert!(json.contains("\"dur\": 15"));
        assert!(json.contains("\"tid\": 3"));
        assert!(json.contains("\"machine-2\""));
        assert!(json.contains("\"fault.crash\""));
        assert!(json.contains("\"sharing\": 7"));
        assert!(json.contains("\"batch_id\": 99"));
    }
}
