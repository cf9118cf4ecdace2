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

mod common;

use common::{ab, ab_feed, observe, Observed};
use smile::core::platform::SmileConfig;
use smile::sim::FaultProfile;
use smile::storage::join::JoinOn;
use smile::storage::predicate::CmpOp;
use smile::storage::{Predicate, SpjQuery};
use smile::types::SimDuration;

/// One cell of the conformance matrix.
#[derive(Clone, Copy, Debug)]
struct Cell {
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

impl Cell {
    /// The default engine: faults off, static, full trace.
    const DEFAULT: Cell = Cell {
        chaos: false,
        adaptive: false,
        sla: SimDuration::from_secs(20),
        span_sample_rate: 1,
    };

    /// The two-machine fixture, one cross-machine joined sharing with a real
    /// ship-side filter (so the filtered frame encoder is on the hot path),
    /// seeded chaos when requested. Inserts *and* deletes feed both bases so
    /// negative weights cross the wire.
    fn run(self) -> Observed {
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
        let (mut smile, a, b) = ab(config);
        let q = SpjQuery::scan(a).join(b, JoinOn::on(0, 0), Predicate::cmp(0, CmpOp::Lt, 18i64));
        let id = smile.submit("conf", q, self.sla, 0.01).unwrap();
        smile.install().unwrap();
        ab_feed(&mut smile, a, b, 200, true);
        smile.run_idle(SimDuration::from_secs(60)).unwrap();
        observe(&smile, &[id])
    }
}

/// Runs one cell twice with the same configuration, requires MV == ground
/// truth in both runs and byte-identical observables between them, and
/// returns the first. Two `Smile`s in one process get differently seeded
/// `std` `HashMap`s, so a map's iteration order or host time leaking into
/// any compared surface shows up here.
fn cell_repeats(cell: Cell) -> Observed {
    let run = || {
        let r = cell.run();
        assert_eq!(r.mv, r.expected, "MV != ground truth: {cell:?}");
        r
    };
    let first = run();
    assert_eq!(first.differs(&run()), None, "second run of {cell:?} differs");
    first
}

#[test]
fn matches_ground_truth_fault_free() {
    // The simplest cell on its own, so a plain maintenance bug fails here
    // by name before it fails the matrix.
    let r = Cell::DEFAULT.run();
    assert_eq!(r.mv, r.expected, "MV diverged from ground truth");
    assert!(!r.pushes.is_empty(), "no pushes completed");
}

#[test]
fn static_fault_free_cell_is_exact_and_worker_deterministic() {
    let r = cell_repeats(Cell::DEFAULT);
    assert_eq!(r.actions, "[]", "static run must take no actions");
}

#[test]
fn static_chaos_cell_is_exact_and_worker_deterministic() {
    // The most adversarial static cell, pinned on its own so a failure
    // names it directly.
    let r = cell_repeats(Cell {
        chaos: true,
        ..Cell::DEFAULT
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
    let r = cell_repeats(Cell {
        chaos: true,
        span_sample_rate: 4,
        ..Cell::DEFAULT
    });
    assert!(!r.pushes.is_empty(), "no pushes completed");
}

#[test]
fn adaptive_fault_free_cell_is_exact_and_worker_deterministic() {
    cell_repeats(Cell {
        adaptive: true,
        sla: SimDuration::from_secs(1),
        ..Cell::DEFAULT
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
    let tight_chaos = Cell {
        chaos: true,
        sla: SimDuration::from_secs(1),
        ..Cell::DEFAULT
    };
    let static_run = tight_chaos.run();
    let base = cell_repeats(Cell {
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

/// Before/after proof for engine rewrites: the default-configuration
/// scenario's observables (sorted MV entries, ground truth, fault report,
/// PUSH records, dollars, exported trace, `host_`-filtered metrics, alert
/// and action streams) hashed to one pinned value per cell. A change that
/// moves any digest changed behaviour, not just code.
#[test]
fn default_engine_observables_match_pinned_digests() {
    let pinned: [(bool, u64); 2] = [
        (false, 0x7efb_a1a9_3a2f_d52f),
        (true, 0x2e2e_c5e2_3742_b315),
    ];
    let got = pinned.map(|(chaos, _)| {
        let r = Cell {
            chaos,
            ..Cell::DEFAULT
        }
        .run();
        assert_eq!(r.mv, r.expected, "MV != ground truth: chaos={chaos}");
        (chaos, r.digest())
    });
    assert_eq!(
        got.map(|(c, d)| format!("chaos={c} {d:#018x}")),
        pinned.map(|(c, d)| format!("chaos={c} {d:#018x}")),
        "observable digest moved"
    );
}
