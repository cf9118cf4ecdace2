//! Cross-suite conformance harness for the engine.
//!
//! One seeded workload — a cross-machine joined, filtered sharing fed
//! inserts and deletes — runs through `faults {off, chaos} × {static,
//! adaptive}`. Every cell runs twice with the same configuration and the
//! whole observable surface must be byte-identical run to run: MV
//! contents, fault attribution, the PUSH record stream, billing, the
//! exported Perfetto trace (full-fidelity and sampled), the logical metrics
//! snapshot, alert and action streams, flight-recorder incidents, and
//! `explain()`. Every cell's MV must also equal the ground truth
//! (`SpjQuery::evaluate` over base snapshots as of the MV's timestamp), and
//! two pinned digests hold the default engine's observables fixed across
//! rewrites.
//!
//! The cell tests keep the `_worker_deterministic` names they had when the
//! matrix had a worker-count axis; what they assert is the run-to-run
//! determinism above.

use smile::core::catalog::BaseStats;
use smile::core::executor::PushRecord;
use smile::core::platform::{FaultReport, Smile, SmileConfig};
use smile::sim::FaultProfile;
use smile::storage::delta::{DeltaBatch, DeltaEntry};
use smile::storage::join::JoinOn;
use smile::storage::predicate::CmpOp;
use smile::storage::{Predicate, SpjQuery};
use smile::types::{
    tuple, Column, ColumnType, MachineId, RelationId, Schema, SharingId, SimDuration, Value,
};

fn schema(cols: &[(&str, ColumnType)], key: Vec<usize>) -> Schema {
    Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect(), key)
}

/// One cell of the conformance matrix.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    chaos: bool,
    /// Closed-loop actuation: the control loop drains alerts into
    /// re-planning, live migration and budgeted elasticity.
    adaptive: bool,
    /// Staleness SLA; the adaptive axis tightens it so the burn-rate
    /// monitor actually pages and the actuator has something to do.
    sla: SimDuration,
    /// 1 keeps every span; N > 1 puts the exported trace through the
    /// deterministic 1-in-N sharing sampler.
    span_sample_rate: u32,
}

/// Everything observable about a run that must repeat byte for byte when
/// the same configuration runs again.
struct RunResult {
    mv: String,
    expected: String,
    report: FaultReport,
    pushes: Vec<PushRecord>,
    tuples_moved: u64,
    dollars: String,
    /// Exported Chrome trace — sim-time only, canonical order.
    trace: String,
    /// Metrics snapshot with host wall-clock lines (`host_` marker)
    /// filtered out; the rest is logical and must repeat.
    metrics: String,
    /// Burn-rate monitor alert stream, Debug-formatted.
    alerts: String,
    /// Typed control-loop action stream, Debug-formatted. Empty in static
    /// runs.
    actions: String,
    /// `Smile::explain` report for the sharing — assembled only from
    /// deterministic state, so its bytes are a conformance surface too.
    explain: String,
    /// Flight-recorder incidents as `(sharing, at_us, reason, span ids)`.
    /// Not part of the pinned digests, which predate it.
    flight: String,
}

impl Scenario {
    /// The default engine: faults off, static, full trace.
    const DEFAULT: Scenario = Scenario {
        chaos: false,
        adaptive: false,
        sla: SimDuration::from_secs(20),
        span_sample_rate: 1,
    };

    /// Two machines, one cross-machine joined sharing with a real ship-side
    /// filter (so the filtered frame encoder is on the hot path), seeded
    /// chaos when requested. Inserts *and* deletes feed both bases so
    /// negative weights cross the wire.
    fn run(self) -> RunResult {
        let mut config = SmileConfig::with_machines(2);
        config.telemetry.span_sample_rate = self.span_sample_rate;
        if self.chaos {
            config.faults = FaultProfile::chaos(4242);
        }
        if self.adaptive {
            config.adaptive.enabled = true;
            // Two machines, no budget headroom: the actuator can only
            // migrate between the machines it already has.
            config.adaptive.budget_dollars_per_hour = 0.0;
        }
        let mut smile = Smile::new(config);
        let a = smile
            .register_base(
                "a",
                schema(&[("k", ColumnType::I64)], vec![0]),
                MachineId::new(0),
                BaseStats {
                    update_rate: 5.0,
                    cardinality: 100.0,
                    tuple_bytes: 16.0,
                    distinct: vec![100.0],
                },
            )
            .unwrap();
        let b = smile
            .register_base(
                "b",
                schema(&[("k", ColumnType::I64), ("v", ColumnType::I64)], vec![0]),
                MachineId::new(1),
                BaseStats {
                    update_rate: 5.0,
                    cardinality: 100.0,
                    tuple_bytes: 16.0,
                    distinct: vec![100.0, 50.0],
                },
            )
            .unwrap();
        let q = SpjQuery::scan(a).join(
            b,
            JoinOn::on(0, 0),
            Predicate::Cmp {
                col: 0,
                op: CmpOp::Lt,
                value: Value::I64(18),
            },
        );
        let id: SharingId = smile.submit("conf", q, self.sla, 0.01).unwrap();
        smile.install().unwrap();
        feed(&mut smile, a, b, 200);
        smile.run_idle(SimDuration::from_secs(60)).unwrap();

        let trace = smile.export_trace();
        let metrics = smile
            .telemetry_snapshot()
            .to_text()
            .lines()
            .filter(|l| !l.contains("host_"))
            .collect::<Vec<_>>()
            .join("\n");
        let alerts = format!("{:?}", smile.alerts());
        let actions = format!("{:?}", smile.actions());
        let explain = smile.explain(id).unwrap();
        let flight = smile
            .flight_incidents()
            .iter()
            .map(|i| {
                let spans: Vec<u64> = i.spans.iter().map(|s| s.id).collect();
                format!("({}, {}, {}, {spans:?})", i.sharing, i.at_us, i.reason)
            })
            .collect::<Vec<_>>()
            .join(";");
        let executor = smile.executor.as_ref().unwrap();
        RunResult {
            mv: format!("{:?}", smile.mv_contents(id).unwrap().sorted_entries()),
            expected: format!(
                "{:?}",
                smile.expected_mv_contents(id).unwrap().sorted_entries()
            ),
            report: smile.fault_report(),
            pushes: executor.push_records.clone(),
            tuples_moved: executor.tuples_moved,
            dollars: format!("{:.9}", smile.total_dollars()),
            trace,
            metrics,
            alerts,
            actions,
            explain,
            flight,
        }
    }
}

/// One insert into each base per tick, a trailing delete every fourth tick
/// (weight −1 crosses the ship edge), then a platform tick.
fn feed(smile: &mut Smile, a: RelationId, b: RelationId, ticks: u64) {
    for s in 0..ticks {
        let now = smile.now();
        let k = (s % 20) as i64;
        let mut entries = vec![DeltaEntry::insert(tuple![k], now)];
        if s % 4 == 3 {
            entries.push(DeltaEntry::delete(tuple![(s.saturating_sub(2) % 20) as i64], now));
        }
        smile.ingest(a, DeltaBatch { entries }).unwrap();
        smile
            .ingest(
                b,
                DeltaBatch {
                    entries: vec![DeltaEntry::insert(tuple![k, s as i64], now)],
                },
            )
            .unwrap();
        smile.step().unwrap();
    }
}

/// Asserts byte-identical observable state between two runs, labelling any
/// divergence with the matrix cell that produced it.
fn assert_identical(base: &RunResult, other: &RunResult, cell: &str) {
    assert_eq!(other.mv, base.mv, "MV bytes differ: {cell}");
    assert_eq!(other.expected, base.expected, "ground truth differs: {cell}");
    assert_eq!(other.report, base.report, "fault report differs: {cell}");
    assert_eq!(other.pushes, base.pushes, "PUSH records differ: {cell}");
    assert_eq!(
        other.tuples_moved, base.tuples_moved,
        "tuples-moved meter differs: {cell}"
    );
    assert_eq!(other.dollars, base.dollars, "billing differs: {cell}");
    assert_eq!(other.trace, base.trace, "exported trace differs: {cell}");
    assert_eq!(other.metrics, base.metrics, "logical metrics differ: {cell}");
    assert_eq!(other.alerts, base.alerts, "alert stream differs: {cell}");
    assert_eq!(other.actions, base.actions, "action stream differs: {cell}");
    assert_eq!(
        other.explain, base.explain,
        "explain() report differs: {cell}"
    );
    assert_eq!(other.flight, base.flight, "flight incidents differ: {cell}");
}

/// Runs one cell twice with the same configuration, requires MV == ground
/// truth in both runs and byte-identical observables between them, and
/// returns the first. Two `Smile`s in one process get differently seeded
/// `std` `HashMap`s, so a map's iteration order or host time leaking into
/// any compared surface shows up here.
fn cell_repeats(cell: Scenario) -> RunResult {
    let run = || {
        let r = cell.run();
        assert_eq!(r.mv, r.expected, "MV != ground truth: {cell:?}");
        r
    };
    let first = run();
    assert_identical(&first, &run(), &format!("second run of {cell:?}"));
    first
}

#[test]
fn matches_ground_truth_fault_free() {
    // The simplest cell on its own, so a plain maintenance bug fails here
    // by name before it fails the matrix.
    let r = Scenario::DEFAULT.run();
    assert_eq!(r.mv, r.expected, "MV diverged from ground truth");
    assert!(!r.pushes.is_empty(), "no pushes completed");
}

#[test]
fn static_fault_free_cell_is_exact_and_worker_deterministic() {
    let r = cell_repeats(Scenario::DEFAULT);
    assert_eq!(r.actions, "[]", "static run must take no actions");
}

#[test]
fn static_chaos_cell_is_exact_and_worker_deterministic() {
    // The most adversarial static cell, pinned on its own so a failure
    // names it directly.
    let r = cell_repeats(Scenario {
        chaos: true,
        ..Scenario::DEFAULT
    });
    // The comparison must not be vacuous: the fault machinery actually
    // fired and recovery ran.
    assert!(r.report.crashes >= 1, "no crashes: {:?}", r.report);
    assert!(r.report.pushes_retried >= 1, "no retries: {:?}", r.report);
    assert!(!r.pushes.is_empty(), "no pushes completed");
    // Nor is the byte-compared trace trivially empty: it names every span
    // kind a chaos run exercises, and the injected faults.
    for kind in ["tick", "plan_batch", "wave", "edge_job", "mv_apply", "retry"] {
        assert!(
            r.trace.contains(&format!("\"name\": \"{kind}\"")),
            "trace has no {kind} span"
        );
    }
    assert!(
        r.trace.contains("fault."),
        "trace has no fault instant despite chaos profile"
    );
    assert!(
        r.metrics.contains("push.staleness_headroom_us"),
        "metrics lack the headroom histogram"
    );
}

/// The sampled trace is a determinism surface of its own: with a 1-in-4
/// sharing sampler the retained span set (and everything else) must still
/// be byte-identical run to run, chaos included.
#[test]
fn sampled_chaos_cell_is_exact_and_worker_deterministic() {
    let r = cell_repeats(Scenario {
        chaos: true,
        span_sample_rate: 4,
        ..Scenario::DEFAULT
    });
    assert!(!r.pushes.is_empty(), "no pushes completed");
}

#[test]
fn adaptive_fault_free_cell_is_exact_and_worker_deterministic() {
    cell_repeats(Scenario {
        adaptive: true,
        sla: SimDuration::from_secs(1),
        ..Scenario::DEFAULT
    });
}

#[test]
fn adaptive_axis_is_worker_deterministic_and_preserves_semantics() {
    // The actuation axis: a tight SLA under chaos pages the burn-rate
    // monitor, and the adaptive control loop re-plans and live-migrates
    // the alerted sharing. Every control decision is made from
    // deterministic state, so the full observable surface — action and
    // alert streams included — must be byte-identical run to run; and
    // because the actuator only moves work (never changes the query), the
    // sharing's ground truth must match the static run's.
    let tight_chaos = Scenario {
        chaos: true,
        sla: SimDuration::from_secs(1),
        ..Scenario::DEFAULT
    };
    let static_run = tight_chaos.run();
    let base = cell_repeats(Scenario {
        adaptive: true,
        ..tight_chaos
    });
    // The axis is not vacuous: the monitor paged and the actuator acted.
    assert_ne!(base.alerts, "[]", "tight-SLA chaos run raised no alert");
    assert!(
        base.actions.contains("MigrationStarted"),
        "adaptive run never attempted a migration: {}",
        base.actions
    );
    assert_eq!(static_run.actions, "[]", "static run must take no actions");
    // Actuation moves the MV; it must not change what the sharing computes.
    assert_eq!(
        base.expected, static_run.expected,
        "adaptive run changed the sharing's ground truth"
    );
}

/// FNV-1a over the run's observable surface, each part terminated by a
/// unit separator so adjacent parts cannot trade bytes.
fn digest(r: &RunResult) -> u64 {
    let parts = [
        r.mv.clone(),
        r.expected.clone(),
        format!("{:?}", r.report),
        format!("{:?}", r.pushes),
        r.dollars.clone(),
        r.trace.clone(),
        r.metrics.clone(),
        r.alerts.clone(),
        r.actions.clone(),
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in parts.iter().flat_map(|p| p.bytes().chain([0x1f])) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Before/after proof for engine rewrites: the default-configuration
/// scenario's observables (sorted MV entries, ground truth, fault report,
/// PUSH records, dollars, exported trace, `host_`-filtered metrics, alert
/// and action streams) hashed to one pinned value per cell. A change that
/// moves any digest changed behaviour, not just code.
#[test]
fn default_engine_observables_match_pinned_digests() {
    let pinned: [(bool, u64); 2] = [
        (false, 0xad03_ec7c_d387_396e),
        (true, 0x17fe_1651_b903_b946),
    ];
    let got = pinned.map(|(chaos, _)| {
        let r = Scenario {
            chaos,
            ..Scenario::DEFAULT
        }
        .run();
        assert_eq!(r.mv, r.expected, "MV != ground truth: chaos={chaos}");
        (chaos, digest(&r))
    });
    assert_eq!(
        got.map(|(c, d)| format!("chaos={c} {d:#018x}")),
        pinned.map(|(c, d)| format!("chaos={c} {d:#018x}")),
        "observable digest moved"
    );
}
