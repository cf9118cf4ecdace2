//! End-to-end coverage for the observability layer: the pinned
//! `Smile::explain` report, burn-rate alerting under a tight-SLA chaos
//! regime, flight-recorder capture around SLA misses, the deterministic
//! span sampler's effect on the exported trace, the bounded-cardinality
//! guarantee of the metric registry as the fleet grows, and detection of an
//! injected ingest regime shift.

mod common;

use common::{ab, ab_feed, ab_join, ab_sharing, feed, fleet, stats, Base};
use smile::core::platform::{Smile, SmileConfig};
use smile::sim::FaultProfile;
use smile::storage::delta::{DeltaBatch, DeltaEntry};
use smile::storage::join::JoinOn;
use smile::storage::{Predicate, SpjQuery};
use smile::telemetry::Severity;
use smile::types::{tuple, MachineId, SharingId, SimDuration, Timestamp};

/// The two-machine fixture with one sharing; `sla_secs` staleness bound;
/// chaos when requested; optional 1-in-`sample_rate` sharing sampler.
/// Feeds 200 ticks and idles 60 s.
fn run(sla_secs: u64, chaos: bool, sample_rate: u32) -> (Smile, SharingId) {
    let mut config = SmileConfig::with_machines(2);
    if chaos {
        config.faults = FaultProfile::chaos(4242);
    }
    config.telemetry.span_sample_rate = sample_rate;
    let (mut smile, a, b, id) = ab_sharing(config, "obs", sla_secs, None);
    ab_feed(&mut smile, a, b, 200, false);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();
    (smile, id)
}

/// The full report is a pinned golden: every section is assembled from
/// deterministic sim-time state, so a byte change here means the
/// introspection surface (or the engine underneath it) changed semantics.
#[test]
fn explain_matches_pinned_golden() {
    let (smile, id) = run(20, false, 1);
    let expected = "\
== sharing 1 \"obs\" ==
sla: 20000000us  penalty_per_tuple: $0.010000  cohort: 4
critical_path: 9902us  mv: v10 on m0
placement: mv v10 live on m0
plan: 2 source(s), 7 push vertices, 0 shared with other sharings
  v0 relation m1 shr=1 sig=r1
  v2 relation m0 shr=1 sig=r0
  v4 delta m0 shr=1 sig=r1
  v5 delta m1 shr=1 sig=r0
  v6 delta m0 shr=1 sig=(\u{394}r1 \u{22c8} r0)
  v7 delta m1 shr=1 sig=(r1 \u{22c8} \u{394}r0)
  v8 delta m0 shr=1 sig=(r1 \u{22c8} \u{394}r0)
  v9 delta m0 shr=1 sig=(r1 \u{22c8} r0)
  v10 relation m0 shr=1 sig=(r1 \u{22c8} r0)
catalog: 8 entries, 2 probe keys  arrangements: 2 installed, hit_rate 1.0000
headroom: pushes=18 misses=0 min=18964665us p50<=18984000us p90<=18984000us max=18984000us mean=18974423.7us
burn: fast=0ppm slow=0ppm fast_window_pushes=2
alerts: 0 fleet-wide, 0 naming this sharing
flight: 0 incident(s) captured for this sharing
actions: 0 fleet-wide, 0 for this sharing
dollars: total=$0.000033950 penalty=$0.000000000
";
    assert_eq!(smile.explain(id).unwrap(), expected);
    // A healthy run keeps every alerting surface quiet.
    assert!(smile.alerts().is_empty());
    assert!(smile.flight_incidents().is_empty());
}

/// A 1-second SLA under chaos is an injected burn regime: every push lands
/// late, so the fast and slow windows saturate and the monitor must page —
/// exactly once, because alerts are edge-triggered per cohort.
#[test]
fn burn_rate_monitor_pages_under_tight_sla_chaos() {
    let (smile, id) = run(1, true, 1);
    let summary = {
        let exec = smile.executor.as_ref().unwrap();
        *exec.sharing_summary(id).unwrap()
    };
    assert!(summary.pushes > 0, "workload produced no pushes");
    assert_eq!(
        summary.misses, summary.pushes,
        "a 1s SLA under chaos should miss on every push"
    );

    let alerts = smile.alerts();
    assert_eq!(alerts.len(), 1, "edge-triggered page fired more than once");
    let page = &alerts[0];
    assert_eq!(page.severity, Severity::Page);
    assert_eq!(page.sharing, Some(id.0), "page must name the worst sharing");
    assert_eq!(page.value_ppm, 1_000_000, "all pushes missed => 100% burn");
    // The Display form feeds logs and the flight recorder's incident
    // labels; pin it so it stays grep-stable.
    assert_eq!(
        page.to_string(),
        "t=12000000us cohort=0 sharing=1 kind=burn_rate severity=page value_ppm=1000000"
    );

    // The report reflects the incident state.
    let report = smile.explain(id).unwrap();
    assert!(report.contains("alerts: 1 fleet-wide, 1 naming this sharing"));
    assert!(report.contains("burn: fast=1000000ppm slow=1000000ppm"));
}

/// Flight incidents freeze the span window around each SLA miss (and each
/// alert), stay bounded at the configured cap, and only retain spans that
/// concern the incident's sharing or the tick skeleton.
#[test]
fn flight_recorder_captures_bounded_incidents_around_misses() {
    let (smile, id) = run(1, true, 1);
    let incidents = smile.flight_incidents();
    assert!(!incidents.is_empty(), "no incidents despite saturating misses");
    assert!(
        incidents.len() <= 16,
        "incident list exceeded the configured cap: {}",
        incidents.len()
    );
    let mut reasons: Vec<&str> = incidents.iter().map(|i| i.reason).collect();
    reasons.dedup();
    assert!(reasons.contains(&"sla_miss"), "no miss-triggered capture");
    assert!(reasons.contains(&"alert"), "no alert-triggered capture");
    for inc in &incidents {
        assert_eq!(inc.sharing, id.0);
        assert!(!inc.spans.is_empty(), "incident froze an empty window");
        for span in &inc.spans {
            assert!(
                span.sharing == Some(id.0) || span.sharing.is_none(),
                "incident retained another sharing's span: {span:?}"
            );
        }
    }
    // 100+ misses against a 16-incident cap: the overflow is counted, not
    // silently dropped.
    let snap = smile.telemetry_snapshot();
    assert_eq!(snap.counter("flight.incidents"), Some(incidents.len() as u64));
    assert!(snap.counter("flight.suppressed").unwrap() > 0);
}

/// With an effectively-never sampler the sharing-bound spans vanish from
/// the exported trace while the tick/planning skeleton survives, the
/// drops are counted, and — because sampling is decided per sharing from
/// span content alone — accounting metrics are untouched.
#[test]
fn sampler_drops_sharing_spans_but_keeps_skeleton_and_accounting() {
    let (full, id_full) = run(20, false, 1);
    let (sampled, id) = run(20, false, 1_000_000);
    assert_eq!(id, id_full);

    let trace = sampled.export_trace();
    for kind in ["tick", "plan_batch", "wave"] {
        assert!(
            trace.contains(&format!("\"name\": \"{kind}\"")),
            "sampler dropped a sharing-less {kind} span"
        );
    }
    for kind in ["edge_job", "mv_apply", "push"] {
        assert!(
            !trace.contains(&format!("\"name\": \"{kind}\"")),
            "1-in-1000000 sampler retained a {kind} span"
        );
    }

    let snap = sampled.telemetry_snapshot();
    assert!(snap.counter("spans.sampled_out").unwrap() > 0);
    // Sampling shapes the trace, never the measurements: histogram counts,
    // rollup and billing match the full-fidelity run exactly.
    let full_snap = full.telemetry_snapshot();
    assert_eq!(
        snap.histogram("push.staleness_headroom_us").unwrap().count,
        full_snap.histogram("push.staleness_headroom_us").unwrap().count
    );
    assert_eq!(
        format!("{:.9}", sampled.total_dollars()),
        format!("{:.9}", full.total_dollars())
    );
}

/// Registers `n` sharings of the same joined query and returns the
/// registry's self-reported instrument count plus the number of exported
/// worst-headroom rows.
fn fleet_instruments(n: usize) -> (f64, usize) {
    let (mut smile, a, b) = ab(SmileConfig::with_machines(2));
    for i in 0..n {
        let sla = SimDuration::from_secs(20 + i as u64);
        smile.submit(&format!("s{i}"), ab_join(a, b), sla, 0.01).unwrap();
    }
    smile.install().unwrap();
    ab_feed(&mut smile, a, b, 40, false);
    smile.run_idle(SimDuration::from_secs(30)).unwrap();
    let snap = smile.telemetry_snapshot();
    let instruments = snap.gauge("telemetry.instruments").unwrap();
    let worst_rows = snap
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with("push.worst_headroom_us{"))
        .count();
    (instruments, worst_rows)
}

/// The point of the rollup refactor: instrument cardinality must not grow
/// with the number of sharings, and the per-sharing attribution surface is
/// the top-K worst gauge family, clamped at K.
#[test]
fn registry_cardinality_is_bounded_in_fleet_size() {
    let (small, small_rows) = fleet_instruments(4);
    let (large, large_rows) = fleet_instruments(40);
    assert_eq!(
        small, large,
        "instrument count grew with the fleet: {small} -> {large}"
    );
    assert!(small_rows <= 8, "top-K export exceeded K: {small_rows}");
    assert!(large_rows <= 8, "top-K export exceeded K: {large_rows}");
    assert!(large_rows >= small_rows.min(8));
}

/// The BENCH_0009 regime shift: 8 identical 30 s-SLA sharings whose shipped
/// deltas cross one 50 KB/s NIC. Ingest holds at a healthy 50 t/s for 60 s
/// (transfers take milliseconds), then jumps 100×; steady-state transfer
/// time alone then exceeds the SLA, every later push misses, and the
/// burn-rate monitor must page within 180 simulated seconds of the shift
/// (most of it queue-buildup physics) and within 60 of the first miss.
#[test]
fn regime_shift_pages_within_the_detection_bar() {
    const SLA: SimDuration = SimDuration::from_secs(30);
    const HEALTHY_SECS: u64 = 60;
    const DETECTION_BAR_SECS: u64 = 180;

    let mut config = SmileConfig::with_machines(2);
    config.capacity = 1e12;
    config.hill_climb = false;
    config.machine_config.net_bandwidth = 50_000.0;
    let cols = ["id", "fk", "g"];
    let bases = [
        Base::i64("src", &cols, &[0], 0, stats(50.0, 50_000.0, 24.0, &[50_000.0, 5_000.0, 1000.0])),
        Base::i64("dim", &cols, &[0], 1, stats(1.0, 1000.0, 24.0, &[1000.0, 100.0, 50.0])),
    ];
    let (mut smile, rels) = fleet(config, &bases);
    let (src, dim) = (rels[0], rels[1]);
    for i in 0..8 {
        let q = SpjQuery::scan(src).join(dim, JoinOn::on(1, 0), Predicate::eq(2, i as i64));
        smile
            .submit_pinned(&format!("shift{i}"), q, SLA, 0.001, Some(MachineId::new(1)))
            .unwrap();
    }
    smile.install().unwrap();

    let shift_at = Timestamp::from_secs(HEALTHY_SECS);
    let mut seq = 0i64;
    let mut paged_at = None;
    for _ in 0..HEALTHY_SECS + DETECTION_BAR_SECS {
        let now = smile.now();
        if now == shift_at {
            let pushes = smile.push_records();
            assert!(!pushes.is_empty(), "healthy phase produced no pushes");
            assert!(
                pushes.iter().all(|p| p.staleness_after <= SLA),
                "healthy phase missed SLAs; the shift is confounded"
            );
            assert!(smile.alerts().is_empty(), "alert before the shift");
        }
        let rate = if now < shift_at { 50 } else { 5_000 };
        let batch: DeltaBatch = (seq..seq + rate)
            .map(|s| DeltaEntry::insert(tuple![s, s % 977, s % 8], now))
            .collect();
        seq += rate;
        let mut tick = Some((src, batch));
        feed(&mut smile, 1, |_, _| tick.take());
        if let Some(page) = smile.alerts().iter().find(|a| a.severity == Severity::Page) {
            paged_at = Some(page.at_us);
            break;
        }
    }
    let paged_at = paged_at.expect("monitor never paged after the regime shift");
    let detection_us = paged_at - HEALTHY_SECS * 1_000_000;
    assert!(
        detection_us <= DETECTION_BAR_SECS * 1_000_000,
        "page {detection_us}us after the shift, above the {DETECTION_BAR_SECS}s bar"
    );
    // The monitor's own latency: first observable miss to the page.
    let first_miss = smile
        .push_records()
        .iter()
        .find(|p| p.staleness_after > SLA)
        .map(|p| p.completed.0)
        .expect("page without a missed push");
    assert!(
        (first_miss..=first_miss + 60_000_000).contains(&paged_at),
        "page at {paged_at}us, first miss completed at {first_miss}us"
    );
}
