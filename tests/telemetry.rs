//! End-to-end telemetry: every SLA-relevant event must be attributable to
//! a concrete span path in the exported trace, the fleet-wide
//! staleness-headroom histogram and bounded per-sharing rollup must be
//! populated, `push_records()` must come back in canonical order, and
//! quiet mode must record no spans at all while the accounting
//! instruments keep working.

mod common;

use common::{ab_feed, ab_join, ab_sharing};
use smile::core::platform::{Smile, SmileConfig};
use smile::sim::FaultProfile;
use smile::storage::{Predicate, SpjQuery};
use smile::telemetry::{SpanKind, SpanRecord};
use smile::types::SimDuration;

fn find_span(spans: &[SpanRecord], id: u64) -> &SpanRecord {
    spans
        .iter()
        .find(|s| s.id == id)
        .unwrap_or_else(|| panic!("span {id} referenced but not retained"))
}

/// Inject ack loss on every cross-machine shipment and check that the
/// resulting retries are attributable from the trace alone: a `retry` span
/// exists, its parent chain bottoms out at a `tick` root, and the same
/// tick's subtree holds the failed `edge_job`/`mv_apply` attempt whose
/// `outcome` records the transient error.
#[test]
fn retries_are_attributable_through_the_span_tree() {
    let mut config = SmileConfig::with_machines(2);
    config.faults = FaultProfile { seed: 7, ack_loss: 0.5, ..FaultProfile::disabled() };
    let (mut smile, a, b, id) = ab_sharing(config, "t", 20, None);
    ab_feed(&mut smile, a, b, 300, false);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();

    let report = smile.fault_report();
    assert!(report.acks_lost >= 1, "ack loss never fired: {report:?}");
    assert!(report.pushes_retried >= 1, "no retries: {report:?}");

    let spans = smile.telemetry().spans();
    assert!(!spans.is_empty(), "telemetry recorded no spans");

    // Locate a scheduled retry for the sharing.
    let retry = spans
        .iter()
        .find(|s| {
            s.kind == SpanKind::Retry
                && s.sharing == Some(id.0)
                && s.attr("outcome") == Some("scheduled")
        })
        .expect("no retry span despite pushes_retried >= 1");

    // Walk its parent chain: retry -> tick (root).
    let tick = find_span(&spans, retry.parent.expect("retry span has no parent"));
    assert_eq!(tick.kind, SpanKind::Tick, "retry's parent is not a tick");
    assert_eq!(tick.parent, None, "tick span is not a root");

    // The failed attempt lives in the same tick's subtree:
    // tick -> wave -> edge_job/mv_apply with an error outcome.
    let failed = spans
        .iter()
        .find(|s| {
            (s.kind == SpanKind::EdgeJob || s.kind == SpanKind::MvApply)
                && s.sharing == Some(id.0)
                && s.attr("outcome").is_some_and(|o| o.starts_with("error:"))
                && s.parent
                    .is_some_and(|w| find_span(&spans, w).parent == Some(tick.id))
        })
        .expect("no failed edge job under the retry's tick");
    let wave = find_span(&spans, failed.parent.unwrap());
    assert_eq!(wave.kind, SpanKind::Wave);

    // Cross-machine copies that did land decompose into ship + land halves
    // parented on the edge job, on the right machine lanes.
    let ship = spans
        .iter()
        .find(|s| s.kind == SpanKind::Ship)
        .expect("no ship span for a cross-machine sharing");
    let land = spans
        .iter()
        .find(|s| s.kind == SpanKind::Land && s.parent == ship.parent)
        .expect("ship half without a matching land half");
    assert_ne!(ship.machine, land.machine, "ship and land share a lane");
    let job = find_span(&spans, ship.parent.unwrap());
    assert!(matches!(job.kind, SpanKind::EdgeJob | SpanKind::MvApply));
    assert!(job.batch_id.is_some(), "copy job carries no batch id");
    assert!(land.start_us >= ship.start_us, "land began before ship");
}

/// The headline metric: the fleet-wide staleness-headroom histogram and
/// the bounded per-sharing rollup are present in the snapshot, consistent
/// with the push record stream, and the snapshot renders
/// deterministically. Registry cardinality stays O(1) in the sharing
/// count — the per-sharing `{sharing=N}` instrument family is gone.
#[test]
fn snapshot_exposes_staleness_headroom_rollup() {
    let (mut smile, a, b, id) = ab_sharing(SmileConfig::with_machines(2), "t", 20, None);
    ab_feed(&mut smile, a, b, 200, false);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();

    let snap = smile.telemetry_snapshot();
    let headroom = snap
        .histogram("push.staleness_headroom_us")
        .expect("missing fleet headroom histogram");
    let pushes = smile.push_records();
    assert!(!pushes.is_empty());
    assert_eq!(
        headroom.count,
        pushes.len() as u64,
        "one headroom sample per completed push"
    );
    // SLA 20 s and a healthy run: every push leaves real headroom.
    assert!(headroom.min > 0, "a push consumed the entire SLA budget");
    assert!(
        headroom.max <= SimDuration::from_secs(20).as_micros(),
        "headroom exceeds the SLA bound"
    );
    // Companion fleet histogram; exactly one headroom-family histogram —
    // no per-sharing cardinality.
    assert!(snap.histogram("push.staleness_after_us").is_some());
    assert_eq!(
        snap.histograms_with_prefix("push.staleness_headroom_us")
            .count(),
        1
    );
    // The bounded rollup carries per-sharing attribution instead: the
    // single sharing is the worst-headroom row, and its summary matches
    // the fleet histogram.
    let rollup = smile.executor.as_ref().unwrap().rollup();
    let top = rollup.top_k_worst(8);
    assert_eq!(top.len(), 1);
    assert_eq!(top[0].sharing, id.0);
    assert_eq!(top[0].pushes, pushes.len() as u64);
    assert_eq!(
        snap.gauge(&format!(
            "push.worst_headroom_us{{rank=00,sharing={}}}",
            id.0
        )),
        Some(top[0].min_headroom_us as f64)
    );
    // Instrument-count gauges make cardinality creep visible.
    assert!(snap.gauge("telemetry.instruments").unwrap() >= 1.0);
    // The accounting views agree with the legacy meters.
    assert_eq!(
        snap.gauge("exec.tuples_moved"),
        Some(smile.executor.as_ref().unwrap().tuples_moved as f64)
    );
    let wal = smile.wal_meter();
    assert_eq!(snap.gauge("wal.batches_shipped"), Some(wal.batches_shipped as f64));
    assert!(wal.batches_shipped >= 1, "cross-machine sharing never shipped");
    let wave = smile.wave_meter();
    assert!(wave.waves >= 1 && wave.jobs >= wave.waves);
    assert_eq!(
        (Some(wave.waves), Some(wave.jobs), Some(wave.busy_nanos)),
        (
            snap.counter("wave.waves"),
            snap.counter("wave.jobs"),
            snap.counter("wave.host_busy_nanos")
        ),
        "wave meter is a view of the registry totals"
    );
    // Deterministic render round-trip: two snapshots, identical bytes.
    assert_eq!(snap.to_json(), smile.telemetry_snapshot().to_json());
    assert_eq!(snap.to_text(), smile.telemetry_snapshot().to_text());
}

/// Admission telemetry covers admissions made while the platform runs:
/// one accepted and one inadmissible live admission each show up in the
/// host-latency histogram and the catalog counters, the accepted one grows
/// the catalog, the rejected one is counted.
#[test]
fn live_admissions_feed_the_admission_instruments() {
    let (mut smile, a, b, _) = ab_sharing(SmileConfig::with_machines(2), "t", 20, None);
    ab_feed(&mut smile, a, b, 20, false);
    let read = |smile: &Smile| {
        let snap = smile.telemetry_snapshot();
        (
            snap.histogram("admission.host_latency_us").unwrap().count,
            snap.counter("catalog.hits").unwrap() + snap.counter("catalog.misses").unwrap(),
            snap.gauge("catalog.entries").unwrap(),
            snap.counter("planner.sharings_rejected").unwrap_or(0),
        )
    };
    let before = read(&smile);
    // A filtered scan: a structure the catalog has not indexed yet.
    let filtered = SpjQuery::select(b, Predicate::eq(1, 3i64));
    smile
        .submit_live("filtered", filtered, SimDuration::from_secs(20), 0.01, None)
        .unwrap();
    assert!(smile
        .submit_live("too-fast", ab_join(a, b), SimDuration::from_millis(1), 0.01, None)
        .is_err());
    let after = read(&smile);
    assert_eq!(after.0, before.0 + 2, "one latency sample per live admission");
    assert!(after.1 > before.1, "live merge bypassed the catalog counters");
    assert!(after.2 > before.2, "catalog.entries stale after a live admission");
    assert_eq!(after.3, before.3 + 1, "live rejection not counted");
}

/// `push_records()` returns the stream sorted by `(completed, sharing)`,
/// whatever order the executor drained them in.
#[test]
fn push_records_are_sorted_by_time_then_sharing() {
    let (mut smile, a, b, _) = ab_sharing(SmileConfig::with_machines(2), "t", 20, None);
    ab_feed(&mut smile, a, b, 200, false);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();

    let sorted = smile.push_records();
    assert!(sorted.len() >= 2, "need several pushes to check ordering");
    assert!(
        sorted
            .windows(2)
            .all(|w| (w[0].completed, w[0].sharing) <= (w[1].completed, w[1].sharing)),
        "push_records() not sorted by (completed, sharing)"
    );
    // Same multiset as the executor's raw drain-order stream.
    let mut raw = smile.executor.as_ref().unwrap().push_records.clone();
    raw.sort_by_key(|r| (r.completed, r.sharing));
    assert_eq!(sorted, raw);
}

/// Quiet mode: with `telemetry.enabled = false` the ring stays empty end to
/// end — no spans recorded, none dropped — while instruments (counters,
/// histograms) keep feeding the accounting views.
#[test]
fn quiet_mode_keeps_the_ring_empty() {
    let mut config = SmileConfig::with_machines(2);
    config.telemetry.enabled = false;
    let (mut smile, a, b, id) = ab_sharing(config, "t", 20, None);
    ab_feed(&mut smile, a, b, 120, false);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();

    assert!(!smile.telemetry().enabled());
    assert_eq!(smile.telemetry().spans_len(), 0, "quiet mode recorded spans");
    assert_eq!(smile.telemetry().spans_dropped(), 0);
    assert!(smile.telemetry().spans().is_empty());

    // Instruments still work: waves ran, headroom was recorded into the
    // fleet histogram and the per-sharing rollup.
    let snap = smile.telemetry_snapshot();
    assert!(snap.counter("wave.waves").unwrap_or(0) >= 1);
    assert!(snap.histogram("push.staleness_headroom_us").unwrap().count >= 1);
    let exec = smile.executor.as_ref().unwrap();
    assert!(exec.sharing_summary(id).unwrap().pushes >= 1);
    // The observability surfaces stay provably empty in quiet mode: no
    // monitor windows, no alerts, no flight incidents, nothing sampled.
    assert!(exec.monitor_windows_empty(), "quiet mode filled windows");
    assert!(smile.alerts().is_empty());
    assert!(smile.flight_incidents().is_empty());
    assert_eq!(smile.telemetry().spans_sampled_out(), 0);
    // The trace export degenerates to instants-only (here: none at all).
    let trace = smile.export_trace();
    assert!(trace.contains("\"traceEvents\""));
    assert!(!trace.contains("\"ph\": \"X\""), "quiet trace has spans");

    // Observability records what happens and never changes it: the same
    // drive with the layer on moves the same tuples through the same pushes.
    let (mut loud, a, b, _) = ab_sharing(SmileConfig::with_machines(2), "t", 20, None);
    ab_feed(&mut loud, a, b, 120, false);
    loud.run_idle(SimDuration::from_secs(60)).unwrap();
    assert!(loud.telemetry().spans_len() > 0);
    assert_eq!(
        loud.executor.as_ref().unwrap().tuples_moved,
        exec.tuples_moved
    );
    assert_eq!(loud.push_records(), smile.push_records());
}
