//! BENCH_0010 — the adaptive runtime actuator: what online re-planning,
//! live migration, and dollar-budgeted elasticity buy under a regime shift.
//!
//! Three sections, one JSON:
//!
//! * **regime** — a flash crowd lands on the wrong side of a thin NIC.
//!   Two bases on two 50 KB/s machines: a small `src` dimension on m0, a
//!   busy `events` stream on m1. Four 30 s-SLA join sharings are pinned
//!   (deliberately badly) on quiet m0, so the shared raw `Δevents` stream
//!   must cross the NIC to reach the MV-side half-joins. The crowd then
//!   spikes to 2900 t/s (≈1.4× the NIC) for 90 s — building a transfer
//!   backlog — and settles at an elevated 1050 t/s plateau (≈0.5×) under
//!   which the backlog never drains: the **static** arm's staleness parks
//!   ~180 s above the SLA forever and the burn-rate monitor pages. The
//!   **adaptive** arm drains the alert, re-plans each paged sharing with
//!   its MV pinned on `events`' home machine m1, and live-migrates —
//!   compute moves to the data, after cutover only the filtered
//!   `Δσ(src)` trickle crosses the NIC, and the backlog drains. The
//!   enforced bars: the adaptive arm ends with ≥ 30% fewer SLA misses
//!   than static at ≤ +10% total dollars.
//! * **handoff** — the migration protocol in isolation: the same topology
//!   under a calm constant rate, one operator-invoked `migrate_sharing`
//!   mid-feed. The dual-write handoff must cut over with **zero** SLA
//!   misses across the whole run — the MV never stops serving — and the
//!   exported Perfetto trace must document the handoff as a `migration`
//!   span (written next to the JSON artifact).
//! * **determinism** — the adaptive regime arm replayed once with the same
//!   configuration: the action and alert streams must be byte-identical,
//!   because control decisions are derived from deterministic sim-time
//!   state, not from host time or a hash map's iteration order.
//!
//! Headline metrics, validated by `--validate`:
//! * `miss_reduction_pct` ≥ 30 with `dollar_overhead_pct` ≤ 10;
//! * `regime_migrations_completed` ≥ 1 and `regime_migrations_aborted`
//!   == 0 (no faults are injected, so an abort would be a protocol bug);
//! * `handoff_migrations_completed` ≥ 1 with `handoff_misses` == 0 and
//!   `trace_migration_spans` ≥ 1;
//! * `action_streams_identical` == 1 and `alert_streams_identical` == 1
//!   between the adaptive arm and its replay.

use smile_core::catalog::BaseStats;
use smile_core::platform::{ActionKind, Smile, SmileConfig};
use smile_storage::delta::DeltaEntry;
use smile_storage::join::JoinOn;
use smile_storage::{DeltaBatch, Predicate, SpjQuery};
use smile_types::{
    tuple, Column, ColumnType, MachineId, RelationId, Schema, SharingId, SimDuration,
};
use smile_workload::rates::{RateIntegrator, RateTrace};

/// Per-machine NIC bandwidth (bytes/s). With the MV on the wrong machine
/// the raw 24-byte crowd deltas must cross (69.6 KB/s ≈ 1.39× at the
/// spike, 25.2 KB/s ≈ 0.50× at the plateau); with the MV at the data
/// only the filtered src trickle does (~12 B/s).
const NET_BANDWIDTH: f64 = 50_000.0;
const CAPACITY: f64 = 1e12;
/// Distinct `src` keys the crowd's foreign keys cycle through; preloaded
/// once so every crowd row joins exactly one src row (fan-out 1 keeps the
/// byte math honest).
const SRC_KEYS: i64 = 1000;
/// Calm crowd ingest (tuples/s) before the regime shift.
const CROWD_CALM_RATE: f64 = 30.0;
/// The arriving crowd: 2900 t/s ≈ 1.39× the NIC in raw delta bytes —
/// the spike that builds the transfer backlog.
const CROWD_SPIKE_RATE: f64 = 2900.0;
/// The crowd that stays: 1050 t/s ≈ 0.50× NIC utilization. The backlog
/// built by the spike never drains (steady-state staleness ≈
/// backlog/(1−u) ≈ 2× backlog, past the SLA), yet every transfer still
/// completes in bounded time — so the static arm misses indefinitely
/// while the dual-write handoff can finish and cut over.
const CROWD_ELEVATED_RATE: f64 = 1050.0;
/// Quiet trickle into `src` (tuples/s), always-fresh unmatched keys.
const SRC_TRICKLE_PER_SEC: i64 = 2;
/// Staleness SLA of every sharing.
const SLA_SECS: u64 = 30;
/// Sharings in the regime fleet, one per `g` residue class.
const SHARINGS: usize = 4;
/// Hourly budget: exactly the two reserved machines. Scale-up is neither
/// needed (the quiet machine is a valid target) nor affordable.
const BUDGET_DOLLARS_PER_HOUR: f64 = 0.68;

/// Calm seconds before the crowd arrives.
const ONSET_SECS: u64 = 120;
/// Seconds of the backlog-building spike.
const SPIKE_SECS: u64 = 90;
/// Total driven seconds of each regime arm; everything past the spike runs
/// at the elevated plateau.
const TOTAL_SECS: u64 = 780;
/// When the handoff section invokes `migrate_sharing`.
const HANDOFF_MIGRATE_AT_SECS: u64 = 120;
/// Total driven seconds of the handoff section.
const HANDOFF_TOTAL_SECS: u64 = 360;
/// Idle seconds after each arm's driven run, before its MVs are compared
/// with recomputation: enough for the static arm's NIC backlog to drain.
const DRAIN_SECS: u64 = 600;

/// The shared two-machine topology: quiet `src` on m0, crowd-hit `events`
/// on m1, `n` join sharings pinned on m0 — the side the flash crowd does
/// NOT land on, so the raw crowd delta stream must cross the NIC until a
/// migration moves the MVs to the data.
fn build(adaptive: bool, n: usize) -> (Smile, RelationId, RelationId, Vec<SharingId>) {
    let mut config = SmileConfig::with_machines(2);
    config.capacity = CAPACITY;
    config.hill_climb = false;
    config.machine_config.net_bandwidth = NET_BANDWIDTH;
    if adaptive {
        config.adaptive.enabled = true;
        config.adaptive.budget_dollars_per_hour = BUDGET_DOLLARS_PER_HOUR;
        // One page names one sharing, but every fleet member shares the
        // saturated NIC; let a single drained alert move them all.
        config.adaptive.max_migrations_per_alert = n;
        // A regime change deserves one decisive move per sharing, not a
        // thrash cycle: park re-migration past the end of the run.
        config.adaptive.cooldown = SimDuration::from_secs(3600);
    }
    let mut smile = Smile::new(config);
    let src = smile
        .register_base(
            "src",
            Schema::new(
                vec![
                    Column::new("id", ColumnType::I64),
                    Column::new("fk", ColumnType::I64),
                    Column::new("g", ColumnType::I64),
                ],
                vec![0],
            ),
            MachineId::new(0),
            BaseStats {
                update_rate: SRC_TRICKLE_PER_SEC as f64,
                cardinality: SRC_KEYS as f64,
                tuple_bytes: 24.0,
                distinct: vec![SRC_KEYS as f64, 100.0, 50.0],
            },
        )
        .expect("register src");
    let events = smile
        .register_base(
            "events",
            Schema::new(
                vec![
                    Column::new("id", ColumnType::I64),
                    Column::new("fk", ColumnType::I64),
                    Column::new("g", ColumnType::I64),
                ],
                vec![0],
            ),
            MachineId::new(1),
            BaseStats {
                update_rate: CROWD_CALM_RATE,
                cardinality: 100_000.0,
                tuple_bytes: 24.0,
                distinct: vec![100_000.0, SRC_KEYS as f64, SHARINGS as f64],
            },
        )
        .expect("register events");
    let mut ids = Vec::new();
    for i in 0..n {
        let pred = if n == 1 {
            Predicate::True
        } else {
            Predicate::eq(2, i as i64)
        };
        let q = SpjQuery::scan(events).join(src, JoinOn::on(1, 0), pred);
        let id = smile
            .submit_pinned(
                &format!("crowd{i}"),
                q,
                SimDuration::from_secs(SLA_SECS),
                0.001,
                Some(MachineId::new(0)),
            )
            .expect("sharing admits");
        ids.push(id);
    }
    smile.install().expect("install");
    (smile, src, events, ids)
}

/// One driven second: crowd deltas from the integrator (fk cycles the
/// preloaded src keys, g cycles the sharing residues), plus the src
/// trickle of fresh unmatched keys.
fn drive_tick(
    smile: &mut Smile,
    src: RelationId,
    events: RelationId,
    integrator: &mut RateIntegrator,
    crowd_seq: &mut i64,
    src_seq: &mut i64,
) {
    let now = smile.now();
    let count = integrator.tick(now, SimDuration::from_secs(1));
    if count > 0 {
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            entries.push(DeltaEntry::insert(
                tuple![*crowd_seq, *crowd_seq % SRC_KEYS, *crowd_seq % SHARINGS as i64],
                now,
            ));
            *crowd_seq += 1;
        }
        let batch: DeltaBatch = entries.into_iter().collect();
        smile.ingest(events, batch).expect("ingest events");
    }
    let mut entries = Vec::with_capacity(SRC_TRICKLE_PER_SEC as usize);
    for _ in 0..SRC_TRICKLE_PER_SEC {
        entries.push(DeltaEntry::insert(
            tuple![SRC_KEYS + *src_seq, *src_seq, *src_seq % SHARINGS as i64],
            now,
        ));
        *src_seq += 1;
    }
    let batch: DeltaBatch = entries.into_iter().collect();
    smile.ingest(src, batch).expect("ingest src");
    smile.step().expect("step");
}

/// Preload `src` with the full key range in one batch, so crowd fan-out
/// is exactly 1 from the first joined row.
fn preload_src(smile: &mut Smile, src: RelationId) {
    let now = smile.now();
    let entries: Vec<DeltaEntry> = (0..SRC_KEYS)
        .map(|k| DeltaEntry::insert(tuple![k, k, k % SHARINGS as i64], now))
        .collect();
    let batch: DeltaBatch = entries.into_iter().collect();
    smile.ingest(src, batch).expect("preload src");
}

/// Lets the platform catch up with no further ingest, then requires every
/// MV to equal recomputation. Every arm runs this after its numbers are
/// read and before they are reported: misses and dollars measured on MVs
/// that are short of rows are cheap for the wrong reason.
fn assert_mvs_exact(smile: &mut Smile, ids: &[SharingId], arm: &str) {
    let drain = SimDuration::from_secs(DRAIN_SECS);
    smile.run_idle(drain).expect("drain");
    for &id in ids {
        let got = smile.mv_contents(id).expect("MV contents");
        let want = smile.expected_mv_contents(id).expect("recomputation");
        let (rows, truth) = (got.len(), want.len());
        assert!(got == want, "{arm} arm: MV of {id} holds {rows} rows, recomputation {truth}");
    }
}

struct RegimeArm {
    pushes: usize,
    misses: u64,
    first_miss_secs: f64,
    dollars: f64,
    migrations_started: usize,
    migrations_completed: usize,
    migrations_aborted: usize,
    scale_ups: usize,
    scale_denied: usize,
    alerts: usize,
    first_migration_secs: f64,
    /// Full debug render of the action log — the determinism probe.
    action_stream: String,
    /// Pinned Display render of every alert — the other probe.
    alert_stream: String,
}

/// Drives the flash-crowd regime for [`TOTAL_SECS`] with the adaptive
/// actuator on or off.
fn run_regime(adaptive: bool) -> RegimeArm {
    let (mut smile, src, events, ids) = build(adaptive, SHARINGS);
    preload_src(&mut smile, src);
    let mut integrator = RateIntegrator::new(RateTrace::Phases(vec![
        (SimDuration::from_secs(ONSET_SECS), CROWD_CALM_RATE),
        (SimDuration::from_secs(SPIKE_SECS), CROWD_SPIKE_RATE),
        (
            SimDuration::from_secs(TOTAL_SECS - ONSET_SECS - SPIKE_SECS),
            CROWD_ELEVATED_RATE,
        ),
    ]));
    let (mut crowd_seq, mut src_seq) = (0i64, 0i64);
    for _ in 0..TOTAL_SECS {
        drive_tick(&mut smile, src, events, &mut integrator, &mut crowd_seq, &mut src_seq);
    }

    let sla = SimDuration::from_secs(SLA_SECS);
    let ex = smile.executor.as_ref().expect("installed");
    let misses = ex
        .push_records
        .iter()
        .filter(|p| p.staleness_after > sla)
        .count() as u64;
    let first_miss_secs = ex
        .push_records
        .iter()
        .filter(|p| p.staleness_after > sla)
        .map(|p| p.completed.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let pushes = ex.push_records.len();
    let actions = smile.actions();
    let count = |f: &dyn Fn(&ActionKind) -> bool| actions.iter().filter(|a| f(&a.kind)).count();
    let first_migration_secs = actions
        .iter()
        .find(|a| matches!(a.kind, ActionKind::MigrationStarted { .. }))
        .map_or(-1.0, |a| a.at_us as f64 / 1e6);
    let arm = RegimeArm {
        pushes,
        misses,
        first_miss_secs: if first_miss_secs.is_finite() {
            first_miss_secs
        } else {
            -1.0
        },
        dollars: smile.total_dollars(),
        migrations_started: count(&|k| matches!(k, ActionKind::MigrationStarted { .. })),
        migrations_completed: count(&|k| matches!(k, ActionKind::MigrationCompleted { .. })),
        migrations_aborted: count(&|k| matches!(k, ActionKind::MigrationAborted { .. })),
        scale_ups: count(&|k| matches!(k, ActionKind::ScaleUp { .. })),
        scale_denied: count(&|k| matches!(k, ActionKind::ScaleDenied { .. })),
        alerts: smile.alerts().len(),
        first_migration_secs,
        action_stream: format!("{:?}", actions),
        alert_stream: smile
            .alerts()
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join("\n"),
    };
    let arm_name = if adaptive { "adaptive" } else { "static" };
    assert_mvs_exact(&mut smile, &ids, arm_name);
    arm
}

struct HandoffOut {
    migrations_started: usize,
    migrations_completed: usize,
    migrations_aborted: usize,
    pushes: usize,
    misses: u64,
    migration_secs: f64,
    trace_migration_spans: usize,
    trace: String,
}

/// The protocol-in-isolation run: calm constant rates, one sharing, one
/// operator-invoked migration mid-feed. The bar is zero misses across the
/// entire run — the dual-write handoff never stops serving the MV.
fn run_handoff() -> HandoffOut {
    let (mut smile, src, events, ids) = build(false, 1);
    preload_src(&mut smile, src);
    let mut integrator = RateIntegrator::new(RateTrace::Constant(CROWD_CALM_RATE));
    let (mut crowd_seq, mut src_seq) = (0i64, 0i64);
    for _ in 0..HANDOFF_MIGRATE_AT_SECS {
        drive_tick(&mut smile, src, events, &mut integrator, &mut crowd_seq, &mut src_seq);
    }
    let started = smile
        .migrate_sharing(ids[0], Some(MachineId::new(1)))
        .expect("migration plans");
    assert!(started, "calm-regime migration did not begin");
    for _ in HANDOFF_MIGRATE_AT_SECS..HANDOFF_TOTAL_SECS {
        drive_tick(&mut smile, src, events, &mut integrator, &mut crowd_seq, &mut src_seq);
    }

    let sla = SimDuration::from_secs(SLA_SECS);
    let ex = smile.executor.as_ref().expect("installed");
    let misses = ex
        .push_records
        .iter()
        .filter(|p| p.staleness_after > sla)
        .count() as u64;
    let pushes = ex.push_records.len();
    let actions = smile.actions();
    let count = |f: &dyn Fn(&ActionKind) -> bool| actions.iter().filter(|a| f(&a.kind)).count();
    let migration_secs = actions
        .iter()
        .find(|a| matches!(a.kind, ActionKind::MigrationCompleted { .. }))
        .map_or(-1.0, |a| {
            let done = a.at_us as f64 / 1e6;
            done - HANDOFF_MIGRATE_AT_SECS as f64
        });
    let trace = smile.export_trace();
    let out = HandoffOut {
        migrations_started: count(&|k| matches!(k, ActionKind::MigrationStarted { .. })),
        migrations_completed: count(&|k| matches!(k, ActionKind::MigrationCompleted { .. })),
        migrations_aborted: count(&|k| matches!(k, ActionKind::MigrationAborted { .. })),
        pushes,
        misses,
        migration_secs,
        trace_migration_spans: trace.matches("\"name\": \"migration\"").count(),
        trace,
    };
    assert_mvs_exact(&mut smile, &ids, "handoff");
    out
}

fn emit_json(
    stat: &RegimeArm,
    adapt: &RegimeArm,
    (actions_identical, alerts_identical): (bool, bool),
    handoff: &HandoffOut,
) -> String {
    let miss_reduction_pct =
        (stat.misses as f64 - adapt.misses as f64) / (stat.misses as f64).max(1e-9) * 100.0;
    let dollar_overhead_pct = (adapt.dollars - stat.dollars) / stat.dollars.max(1e-9) * 100.0;
    format!(
        r#"{{
  "bench_id": "BENCH_0010",
  "config": {{
    "mv_check": "every MV of every arm equals recomputation after a {drain} s drain; records of this bench from before that check were taken on MVs missing 92-99% of their rows (ROADMAP item 1, root cause 3)",
    "machines": 2,
    "net_bandwidth": {bw:.0},
    "sharings": {sharings},
    "sla_secs": {sla},
    "crowd_calm_rate": {calm:.0},
    "crowd_spike_rate": {spike:.0},
    "crowd_elevated_rate": {elevated:.0},
    "onset_secs": {onset},
    "spike_secs": {spikes},
    "total_secs": {total},
    "budget_dollars_per_hour": {budget:.2}
  }},
  "regime": {{
    "static_pushes": {sp},
    "static_misses": {sm},
    "static_first_miss_secs": {sfm:.1},
    "static_dollars": {sd:.9},
    "adaptive_pushes": {ap},
    "adaptive_misses": {am},
    "adaptive_first_miss_secs": {afm:.1},
    "adaptive_dollars": {ad:.9},
    "miss_reduction_pct": {mr:.1},
    "dollar_overhead_pct": {dop:.2},
    "regime_alerts": {alerts},
    "regime_migrations_started": {ms},
    "regime_migrations_completed": {mc},
    "regime_migrations_aborted": {ma},
    "regime_scale_ups": {su},
    "regime_scale_denied": {sden},
    "first_migration_secs": {fmig:.1}
  }},
  "handoff": {{
    "migrate_at_secs": {hat},
    "handoff_total_secs": {htot},
    "handoff_pushes": {hp},
    "handoff_misses": {hm},
    "handoff_migrations_started": {hms},
    "handoff_migrations_completed": {hmc},
    "handoff_migrations_aborted": {hma},
    "handoff_cutover_secs": {hsec:.1},
    "trace_migration_spans": {tms}
  }},
  "determinism": {{
    "action_streams_identical": {acti},
    "alert_streams_identical": {alei}
  }}
}}
"#,
        drain = DRAIN_SECS,
        bw = NET_BANDWIDTH,
        sharings = SHARINGS,
        sla = SLA_SECS,
        calm = CROWD_CALM_RATE,
        spike = CROWD_SPIKE_RATE,
        elevated = CROWD_ELEVATED_RATE,
        onset = ONSET_SECS,
        spikes = SPIKE_SECS,
        total = TOTAL_SECS,
        budget = BUDGET_DOLLARS_PER_HOUR,
        sp = stat.pushes,
        sm = stat.misses,
        sfm = stat.first_miss_secs,
        sd = stat.dollars,
        ap = adapt.pushes,
        am = adapt.misses,
        afm = adapt.first_miss_secs,
        ad = adapt.dollars,
        mr = miss_reduction_pct,
        dop = dollar_overhead_pct,
        alerts = adapt.alerts,
        ms = adapt.migrations_started,
        mc = adapt.migrations_completed,
        ma = adapt.migrations_aborted,
        su = adapt.scale_ups,
        sden = adapt.scale_denied,
        fmig = adapt.first_migration_secs,
        hat = HANDOFF_MIGRATE_AT_SECS,
        htot = HANDOFF_TOTAL_SECS,
        hp = handoff.pushes,
        hm = handoff.misses,
        hms = handoff.migrations_started,
        hmc = handoff.migrations_completed,
        hma = handoff.migrations_aborted,
        hsec = handoff.migration_secs,
        tms = handoff.trace_migration_spans,
        acti = i32::from(actions_identical),
        alei = i32::from(alerts_identical),
    )
}

/// The number that follows `"key":` — every validated key is unique.
fn get_num(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn validate(path: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    if !json.contains("\"bench_id\": \"BENCH_0010\"") {
        return Err("missing or wrong bench_id".into());
    }
    let num = |key: &str| get_num(&json, key).ok_or_else(|| format!("missing numeric {key}"));
    for key in [
        "static_pushes",
        "static_misses",
        "adaptive_pushes",
        "static_dollars",
        "adaptive_dollars",
        "regime_alerts",
        "handoff_pushes",
    ] {
        if num(key)? <= 0.0 {
            return Err(format!("{key} must be positive"));
        }
    }
    // The headline bars: the actuator buys back at least 30% of the SLA
    // misses for at most 10% more dollars. (In practice it is *cheaper* —
    // avoided misses are avoided penalty dollars.)
    let mr = num("miss_reduction_pct")?;
    if mr < 30.0 {
        return Err(format!("miss_reduction_pct is {mr:.1}, below the 30% bar"));
    }
    let dop = num("dollar_overhead_pct")?;
    if dop > 10.0 {
        return Err(format!("dollar_overhead_pct is {dop:.2}, above the +10% bar"));
    }
    // The adaptive arm must have actually acted — and cleanly: no faults
    // are injected, so any abort is a protocol bug.
    if num("regime_migrations_completed")? < 1.0 {
        return Err("adaptive arm completed no live migration".into());
    }
    if num("regime_migrations_aborted")? != 0.0 {
        return Err("a fault-free live migration aborted".into());
    }
    // Elasticity stayed inside the budget: the quiet machine was a valid
    // target, so no scale-up was needed or bought.
    if num("regime_scale_ups")? != 0.0 {
        return Err("adaptive arm scaled up despite a valid in-fleet target".into());
    }
    // The handoff protocol bar: a calm-regime live migration completes
    // with zero migration-attributable misses, and the trace shows it.
    if num("handoff_migrations_completed")? < 1.0 {
        return Err("handoff migration never completed".into());
    }
    if num("handoff_misses")? != 0.0 {
        return Err("the dual-write handoff dropped SLA misses on the floor".into());
    }
    if num("trace_migration_spans")? < 1.0 {
        return Err("exported trace documents no migration span".into());
    }
    // Decision determinism between the adaptive arm and its replay.
    if num("action_streams_identical")? != 1.0 {
        return Err("action streams diverged between identical runs".into());
    }
    if num("alert_streams_identical")? != 1.0 {
        return Err("alert streams diverged between identical runs".into());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let path = args.get(i + 1).expect("--validate needs a path");
        match validate(path) {
            Ok(()) => println!("{path}: schema OK"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|j| args.get(j + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_0010.json".to_string());

    eprintln!(
        "adaptive regime: {:.0}→{:.0} t/s crowd at t={}s over a {:.0} B/s NIC, {} sharings ...",
        CROWD_CALM_RATE, CROWD_SPIKE_RATE, ONSET_SECS, NET_BANDWIDTH, SHARINGS,
    );
    let stat = run_regime(false);
    eprintln!(
        "  static:   {} pushes, {} misses (first {:.1}s), ${:.6}",
        stat.pushes, stat.misses, stat.first_miss_secs, stat.dollars
    );
    let adapt = run_regime(true);
    eprintln!(
        "  adaptive: {} pushes, {} misses, ${:.6}, {} alerts, {} migrations ({} completed, first at {:.1}s)",
        adapt.pushes,
        adapt.misses,
        adapt.dollars,
        adapt.alerts,
        adapt.migrations_started,
        adapt.migrations_completed,
        adapt.first_migration_secs,
    );

    let replay = run_regime(true);
    let identical = (
        replay.action_stream == adapt.action_stream,
        replay.alert_stream == adapt.alert_stream,
    );
    eprintln!(
        "  replay: actions identical={}, alerts identical={}",
        identical.0, identical.1,
    );

    eprintln!(
        "  handoff: calm migration at t={HANDOFF_MIGRATE_AT_SECS}s over {HANDOFF_TOTAL_SECS}s ..."
    );
    let handoff = run_handoff();
    eprintln!(
        "  handoff: {} pushes, {} misses, cutover in {:.1}s, {} migration span(s) in trace",
        handoff.pushes, handoff.misses, handoff.migration_secs, handoff.trace_migration_spans
    );

    let json = emit_json(&stat, &adapt, identical, &handoff);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    let trace_out = out.replace(".json", "_trace.json");
    std::fs::write(&trace_out, &handoff.trace).expect("write trace");
    std::fs::write(&out, json).expect("write BENCH json");
    println!("wrote {out} and {trace_out}");
}
