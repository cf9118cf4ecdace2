//! BENCH_0009 — fleet-scale observability: what the layer costs and what
//! it buys.
//!
//! Three sections, one JSON:
//!
//! * **overhead** — the BENCH_0007 calendar workload (6 machines, 4 join
//!   shapes, 1-in-200 interactive-SLA minority, gardenhose ingest) swept to
//!   100k *executing* sharings twice per checkpoint: observability on
//!   (spans + burn monitor + flight recorder) vs off (quiet mode). The
//!   enforced bar is wall-clock drive overhead at the top of the sweep,
//!   and both arms must move byte-identical tuple counts — observability
//!   shapes what is *recorded*, never what *happens*.
//! * **cardinality** — the point of the rollup refactor: the registry's
//!   self-reported instrument count must not grow from the smallest
//!   checkpoint to 100k (per-sharing attribution rides the O(K) top-K
//!   worst-headroom gauge export and the executor-side `FleetRollup`,
//!   not per-sharing instrument families).
//! * **alerting** — an injected headroom-regime shift: a fleet of 30 s-SLA
//!   sharings pushes cross-machine through a deliberately thin NIC. A
//!   piecewise-constant ingest trace runs a healthy phase (transfers take
//!   milliseconds, zero misses), then jumps 100×, oversubscribing the NIC
//!   so queueing delay — and with it push completion — blows through the
//!   SLA. The burn-rate monitor must page within the detection bar of the
//!   shift, entirely in sim time, so the measured latency is deterministic.
//!
//! Headline metrics, validated by `--validate`:
//! * `overhead_pct_top` ≤ 3 (full mode; the quick CI pass runs
//!   sub-second drives where wall-clock noise dominates, so its bar is
//!   only sanity);
//! * `instruments_at_top` == `instruments_at_min`, with zero
//!   sharing-labelled histogram families and ≤ K worst-headroom rows;
//! * `page_fired` with `detection_secs` ≤ 180 after the regime shift and
//!   a provably clean healthy phase (`healthy_misses` == 0).

use smile_core::catalog::BaseStats;
use smile_core::platform::{Smile, SmileConfig};
use smile_storage::delta::DeltaEntry;
use smile_storage::join::JoinOn;
use smile_storage::{DeltaBatch, Predicate, SpjQuery};
use smile_types::{
    tuple, Column, ColumnType, MachineId, RelationId, Schema, SimDuration, Timestamp,
};
use smile_workload::rates::{RateIntegrator, RateTrace};
use std::time::Instant;

const MACHINES: usize = 6;
const RELATIONS: u32 = 6;
const SHAPES: u32 = 4;
const CAPACITY: f64 = 1e12;
const WARMUP_TICKS: usize = 5;
const GARDENHOSE_MEAN: f64 = 100.0;
const SEED: u64 = 7;
/// NIC bandwidth of the regime-shift scenario: thin enough that the surge
/// phase oversubscribes it (raw surge bytes ≈ 2.4× this), fat enough that
/// the healthy phase never queues.
const SHIFT_NET_BANDWIDTH: f64 = 50_000.0;
/// Ingest rate of the healthy phase (tuples/s into the shipped base).
const SHIFT_HEALTHY_RATE: f64 = 50.0;
/// The shifted regime: 100× the healthy rate.
const SHIFT_SURGE_RATE: f64 = 5_000.0;
/// SLA of every sharing in the shift scenario.
const SHIFT_SLA_SECS: u64 = 30;

struct Config {
    mode: &'static str,
    /// Overhead-sweep checkpoints (resident sharing counts), on+off each.
    ns: &'static [usize],
    /// Executed ticks per overhead run (1 simulated second each).
    ticks: usize,
    /// Simulated seconds of healthy regime before the injected shift.
    shift_healthy_secs: u64,
    /// Simulated seconds the shifted regime may run before "no alert"
    /// aborts the section.
    shift_max_secs: u64,
}

impl Config {
    fn full() -> Self {
        Self {
            mode: "full",
            ns: &[1000, 10_000, 100_000],
            // 10× the BENCH_0007 tick count: the overhead bar is a ratio of
            // drive wall-clock, so the drive must be long enough (~5 s at
            // 100k) that timer noise sits well under the 3% bar.
            ticks: 600,
            shift_healthy_secs: 60,
            shift_max_secs: 300,
        }
    }

    fn quick() -> Self {
        Self {
            mode: "quick",
            ns: &[200, 1000],
            ticks: 30,
            shift_healthy_secs: 60,
            shift_max_secs: 300,
        }
    }
}

/// SLA of the i-th sharing — the BENCH_0007 population: a 1-in-200
/// interactive minority keeps real pushes firing inside the window, the
/// bulk sleeps on minutes-long SLAs.
fn sla_secs(i: usize) -> u64 {
    if i.is_multiple_of(200) {
        30 + (i / 200 % 30) as u64
    } else {
        300 + (i % 600) as u64
    }
}

/// The i-th sharing of the sweep (BENCH_0005/0007 shape family).
fn query(i: usize) -> SpjQuery {
    let shape = (i as u32) % SHAPES;
    let k = (i as f64).sqrt().floor() as i64;
    let (a, b) = (shape, (shape + 1) % RELATIONS);
    SpjQuery::scan(RelationId::new(a)).join(
        RelationId::new(b),
        JoinOn::on(1, 0),
        Predicate::eq(2, k),
    )
}

fn build_platform(n: usize, observability: bool) -> (Smile, Vec<RelationId>) {
    let mut config = SmileConfig::with_machines(MACHINES);
    config.capacity = CAPACITY;
    config.hill_climb = false;
    config.telemetry.enabled = observability;
    let mut smile = Smile::new(config);
    let mut rels = Vec::new();
    for r in 0..RELATIONS {
        let card = 50_000.0 + 25_000.0 * r as f64;
        let rel = smile
            .register_base(
                &format!("rel{r}"),
                Schema::new(
                    vec![
                        Column::new("id", ColumnType::I64),
                        Column::new("fk", ColumnType::I64),
                        Column::new("g", ColumnType::I64),
                    ],
                    vec![0],
                ),
                MachineId::new(r % MACHINES as u32),
                BaseStats {
                    update_rate: 10.0 + r as f64,
                    cardinality: card,
                    tuple_bytes: 24.0,
                    distinct: vec![card, card / 10.0, 1000.0],
                },
            )
            .expect("register base");
        rels.push(rel);
    }
    for i in 0..n {
        smile
            .submit_pinned(
                &format!("S{i}"),
                query(i),
                SimDuration::from_secs(sla_secs(i)),
                0.001,
                Some(MachineId::new(i as u32 % MACHINES as u32)),
            )
            .expect("admission under unlimited capacity");
    }
    smile.install().expect("install");
    (smile, rels)
}

struct Arm {
    drive_secs: f64,
    tuples_moved: u64,
    pushes: usize,
    sched_p99_us: f64,
    instruments: f64,
    worst_rows: usize,
    sharing_labelled_histograms: usize,
    spans_retained: u64,
    spans_dropped: f64,
    alerts: usize,
}

/// Executes `ticks` one-second ticks at population `n` under gardenhose
/// ingest — the BENCH_0007 drive loop — with observability on or off.
/// An identical unmeasured warmup pass runs first in both arms, so the
/// measured window compares steady states rather than charging whichever
/// arm runs first for cold caches and fresh-heap page faults.
fn run_arm(n: usize, observability: bool, ticks: usize) -> Arm {
    let (mut smile, rels) = build_platform(n, observability);
    let mut integrator = RateIntegrator::new(RateTrace::Gardenhose {
        mean: GARDENHOSE_MEAN,
        seed: SEED,
    });
    let mut seq: i64 = 0;
    let drive = |smile: &mut Smile, integrator: &mut RateIntegrator, seq: &mut i64| {
        for _ in 0..ticks {
            let now = smile.now();
            let count = integrator.tick(now, SimDuration::from_secs(1));
            let mut per_rel: Vec<Vec<DeltaEntry>> = vec![Vec::new(); RELATIONS as usize];
            for _ in 0..count {
                let r = (*seq % RELATIONS as i64) as usize;
                per_rel[r].push(DeltaEntry::insert(
                    tuple![*seq, *seq % 977, *seq % 1000],
                    now,
                ));
                *seq += 1;
            }
            for (r, entries) in per_rel.into_iter().enumerate() {
                if !entries.is_empty() {
                    let batch: DeltaBatch = entries.into_iter().collect();
                    smile.ingest(rels[r], batch).expect("ingest");
                }
            }
            smile.step().expect("step");
        }
    };
    drive(&mut smile, &mut integrator, &mut seq);
    let started = Instant::now();
    drive(&mut smile, &mut integrator, &mut seq);
    let drive_secs = started.elapsed().as_secs_f64();
    let snap = smile.telemetry_snapshot();
    let alerts = smile.alerts().len();
    let ex = smile.executor.as_ref().expect("installed");
    let mut window: Vec<u64> = ex.sched_host_us.iter().skip(WARMUP_TICKS).copied().collect();
    window.sort_unstable();
    Arm {
        drive_secs,
        tuples_moved: ex.tuples_moved,
        pushes: ex.push_records.len(),
        sched_p99_us: smile_bench::percentile_sorted(&window, 0.99),
        instruments: snap.gauge("telemetry.instruments").unwrap_or(0.0),
        worst_rows: snap
            .gauges
            .iter()
            .filter(|(k, _)| k.starts_with("push.worst_headroom_us{"))
            .count(),
        sharing_labelled_histograms: snap
            .histograms
            .iter()
            .filter(|(k, _)| k.contains("{sharing="))
            .count(),
        spans_retained: snap.counter("spans.retained").unwrap_or(0),
        spans_dropped: snap.gauge("spans.ring_dropped").unwrap_or(0.0),
        alerts,
    }
}

struct Checkpoint {
    n: usize,
    on: Arm,
    off: Arm,
}

impl Checkpoint {
    fn overhead_pct(&self) -> f64 {
        (self.on.drive_secs - self.off.drive_secs) / self.off.drive_secs.max(1e-9) * 100.0
    }
}

struct ShiftOut {
    shift_at_secs: u64,
    healthy_pushes: usize,
    healthy_misses: u64,
    first_miss_secs: f64,
    first_alert_secs: f64,
    detection_secs: f64,
    alerts_total: usize,
    page_fired: bool,
    misses: u64,
    flight_incidents: usize,
}

/// The injected headroom-regime shift: 8 identical 30 s-SLA sharings whose
/// shipped deltas cross one 50 KB/s NIC. `Phases` holds the ingest at a
/// healthy 50 t/s until `shift_at`, then jumps to 5000 t/s; steady-state
/// transfer time alone then exceeds the SLA, so every subsequent push
/// misses and the fast/slow burn windows saturate.
fn run_regime_shift(healthy_secs: u64, max_secs: u64) -> ShiftOut {
    let mut config = SmileConfig::with_machines(2);
    config.capacity = CAPACITY;
    config.hill_climb = false;
    config.machine_config.net_bandwidth = SHIFT_NET_BANDWIDTH;
    let mut smile = Smile::new(config);
    let a = smile
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
                update_rate: SHIFT_HEALTHY_RATE,
                cardinality: 50_000.0,
                tuple_bytes: 24.0,
                distinct: vec![50_000.0, 5_000.0, 1000.0],
            },
        )
        .expect("register src");
    let b = smile
        .register_base(
            "dim",
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
                update_rate: 1.0,
                cardinality: 1000.0,
                tuple_bytes: 24.0,
                distinct: vec![1000.0, 100.0, 50.0],
            },
        )
        .expect("register dim");
    for i in 0..8 {
        smile
            .submit_pinned(
                &format!("shift{i}"),
                SpjQuery::scan(a).join(b, JoinOn::on(1, 0), Predicate::eq(2, i as i64)),
                SimDuration::from_secs(SHIFT_SLA_SECS),
                0.001,
                Some(MachineId::new(1)),
            )
            .expect("shift sharing admits");
    }
    smile.install().expect("install");

    let shift_at = Timestamp::from_secs(healthy_secs);
    let mut integrator = RateIntegrator::new(RateTrace::Phases(vec![
        (SimDuration::from_secs(healthy_secs), SHIFT_HEALTHY_RATE),
        (SimDuration::from_secs(max_secs), SHIFT_SURGE_RATE),
    ]));
    let mut seq: i64 = 0;
    let mut healthy_pushes = 0usize;
    let mut healthy_misses = 0u64;
    let mut first_alert_secs = -1.0f64;
    for _ in 0..(healthy_secs + max_secs) {
        let now = smile.now();
        if now == shift_at {
            let ex = smile.executor.as_ref().expect("installed");
            healthy_pushes = ex.push_records.len();
            healthy_misses = ex
                .push_records
                .iter()
                .filter(|p| p.staleness_after > SimDuration::from_secs(SHIFT_SLA_SECS))
                .count() as u64;
        }
        let count = integrator.tick(now, SimDuration::from_secs(1));
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            entries.push(DeltaEntry::insert(tuple![seq, seq % 977, seq % 8], now));
            seq += 1;
        }
        if !entries.is_empty() {
            let batch: DeltaBatch = entries.into_iter().collect();
            smile.ingest(a, batch).expect("ingest");
        }
        smile.step().expect("step");
        if first_alert_secs < 0.0 {
            if let Some(alert) = smile.alerts().first() {
                first_alert_secs = alert.at_us as f64 / 1e6;
                break;
            }
        }
    }
    let sla = SimDuration::from_secs(SHIFT_SLA_SECS);
    let ex = smile.executor.as_ref().expect("installed");
    let first_miss_secs = ex
        .push_records
        .iter()
        .filter(|p| p.staleness_after > sla)
        .map(|p| p.completed.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let misses = ex
        .push_records
        .iter()
        .filter(|p| p.staleness_after > sla)
        .count() as u64;
    let alerts = smile.alerts();
    ShiftOut {
        shift_at_secs: healthy_secs,
        healthy_pushes,
        healthy_misses,
        first_miss_secs: if first_miss_secs.is_finite() {
            first_miss_secs
        } else {
            -1.0
        },
        first_alert_secs,
        detection_secs: if first_alert_secs >= 0.0 {
            first_alert_secs - healthy_secs as f64
        } else {
            -1.0
        },
        alerts_total: alerts.len(),
        page_fired: alerts
            .iter()
            .any(|al| al.severity == smile_telemetry::Severity::Page),
        misses,
        flight_incidents: smile.flight_incidents().len(),
    }
}

fn emit_json(cfg: &Config, checkpoints: &[Checkpoint], shift: &ShiftOut) -> String {
    let first = checkpoints.first().unwrap();
    let top = checkpoints.last().unwrap();
    let rows: Vec<String> = checkpoints
        .iter()
        .map(|c| {
            format!(
                "      {{ \"n\": {}, \"drive_secs_on\": {:.3}, \"drive_secs_off\": {:.3}, \"overhead_pct\": {:.2}, \"tuples_on\": {}, \"tuples_off\": {}, \"pushes\": {}, \"sched_p99_us_on\": {:.1}, \"sched_p99_us_off\": {:.1}, \"instruments\": {:.0}, \"spans_retained\": {}, \"spans_dropped\": {:.0}, \"alerts\": {} }}",
                c.n,
                c.on.drive_secs,
                c.off.drive_secs,
                c.overhead_pct(),
                c.on.tuples_moved,
                c.off.tuples_moved,
                c.on.pushes,
                c.on.sched_p99_us,
                c.off.sched_p99_us,
                c.on.instruments,
                c.on.spans_retained,
                c.on.spans_dropped,
                c.on.alerts,
            )
        })
        .collect();
    format!(
        r#"{{
  "bench_id": "BENCH_0009",
  "config": {{
    "mode": "{mode}",
    "machines": {machines},
    "relations": {relations},
    "shapes": {shapes},
    "ticks": {ticks},
    "warmup_ticks": {warmup},
    "gardenhose_mean": {mean:.1},
    "shift_net_bandwidth": {bw:.0},
    "shift_healthy_rate": {hr:.0},
    "shift_surge_rate": {sr:.0},
    "shift_sla_secs": {ssla}
  }},
  "overhead": {{
    "executed_sharings": {top_n},
    "drive_secs_on_top": {on_top:.3},
    "drive_secs_off_top": {off_top:.3},
    "overhead_pct_top": {ov_top:.2},
    "tuples_moved_on_top": {tuples_on},
    "tuples_moved_off_top": {tuples_off},
    "pushes_top": {pushes_top},
    "checkpoints": [
{rows}
    ]
  }},
  "cardinality": {{
    "instruments_at_min": {inst_min:.0},
    "instruments_at_top": {inst_top:.0},
    "instrument_growth": {inst_growth:.0},
    "worst_rows_top": {worst_rows},
    "top_k": 8,
    "sharing_labelled_histograms_top": {labelled}
  }},
  "alerting": {{
    "shift_at_secs": {shift_at},
    "healthy_pushes": {healthy_pushes},
    "healthy_misses": {healthy_misses},
    "first_miss_secs": {first_miss:.1},
    "first_alert_secs": {first_alert:.1},
    "detection_secs": {detection:.1},
    "detection_after_first_miss_secs": {detection_miss:.1},
    "alerts_total": {alerts_total},
    "page_fired": {page_fired},
    "misses": {misses},
    "flight_incidents": {flight}
  }}
}}
"#,
        mode = cfg.mode,
        machines = MACHINES,
        relations = RELATIONS,
        shapes = SHAPES,
        ticks = cfg.ticks,
        warmup = WARMUP_TICKS,
        mean = GARDENHOSE_MEAN,
        bw = SHIFT_NET_BANDWIDTH,
        hr = SHIFT_HEALTHY_RATE,
        sr = SHIFT_SURGE_RATE,
        ssla = SHIFT_SLA_SECS,
        top_n = top.n,
        on_top = top.on.drive_secs,
        off_top = top.off.drive_secs,
        ov_top = top.overhead_pct(),
        tuples_on = top.on.tuples_moved,
        tuples_off = top.off.tuples_moved,
        pushes_top = top.on.pushes,
        rows = rows.join(",\n"),
        inst_min = first.on.instruments,
        inst_top = top.on.instruments,
        inst_growth = top.on.instruments - first.on.instruments,
        worst_rows = top.on.worst_rows,
        labelled = top.on.sharing_labelled_histograms,
        shift_at = shift.shift_at_secs,
        healthy_pushes = shift.healthy_pushes,
        healthy_misses = shift.healthy_misses,
        first_miss = shift.first_miss_secs,
        first_alert = shift.first_alert_secs,
        detection = shift.detection_secs,
        detection_miss = if shift.first_alert_secs >= 0.0 && shift.first_miss_secs >= 0.0 {
            shift.first_alert_secs - shift.first_miss_secs
        } else {
            -1.0
        },
        alerts_total = shift.alerts_total,
        page_fired = i32::from(shift.page_fired),
        misses = shift.misses,
        flight = shift.flight_incidents,
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
    if !json.contains("\"bench_id\": \"BENCH_0009\"") {
        return Err("missing or wrong bench_id".into());
    }
    let full = json.contains("\"mode\": \"full\"");
    let num = |key: &str| get_num(&json, key).ok_or_else(|| format!("missing numeric {key}"));
    for key in [
        "machines",
        "executed_sharings",
        "drive_secs_on_top",
        "drive_secs_off_top",
        "tuples_moved_on_top",
        "instruments_at_min",
        "pushes_top",
        "misses",
        "alerts_total",
        "flight_incidents",
    ] {
        if num(key)? <= 0.0 {
            return Err(format!("{key} must be positive"));
        }
    }
    if full && num("executed_sharings")? < 100_000.0 {
        return Err("full mode must execute >= 100k concurrent sharings".into());
    }
    // The headline bar: observability costs ≤ 3% of the drive at 100k. The
    // quick pass drives for well under a second per arm, so its wall-clock
    // ratio is noise; only sanity-bound it.
    let overhead = num("overhead_pct_top")?;
    let overhead_bar = if full { 3.0 } else { 100.0 };
    if overhead > overhead_bar {
        return Err(format!(
            "overhead_pct_top is {overhead:.2}%, above the {overhead_bar}% bar"
        ));
    }
    // Observability must not change semantics: both arms moved the same
    // tuples.
    let (on, off) = (num("tuples_moved_on_top")?, num("tuples_moved_off_top")?);
    if on != off {
        return Err(format!(
            "arms diverged: on moved {on} tuples, off moved {off}"
        ));
    }
    // Bounded cardinality: the instrument count is flat in fleet size and
    // the per-sharing surface is the clamped top-K export.
    if num("instrument_growth")? != 0.0 {
        return Err("instrument count grew with the fleet".into());
    }
    if num("worst_rows_top")? > num("top_k")? {
        return Err("worst-headroom export exceeded top-K".into());
    }
    if num("sharing_labelled_histograms_top")? != 0.0 {
        return Err("a per-sharing histogram family survived the rollup refactor".into());
    }
    // Alerting: the healthy phase must be provably clean, the page must
    // fire, and detection must land within the bar.
    if num("healthy_misses")? != 0.0 {
        return Err("healthy phase missed SLAs; the regime shift is confounded".into());
    }
    if num("page_fired")? != 1.0 {
        return Err("monitor never paged after the regime shift".into());
    }
    let detection = num("detection_secs")?;
    if detection <= 0.0 {
        return Err("no alert fired after the regime shift".into());
    }
    if detection > 180.0 {
        return Err(format!(
            "detection_secs is {detection:.1}, above the 180 s bar"
        ));
    }
    // Most of `detection_secs` is queue-buildup physics; the monitor's own
    // latency — shift-induced miss to page — carries the tighter bar.
    let monitor_latency = num("detection_after_first_miss_secs")?;
    if !(0.0..=60.0).contains(&monitor_latency) {
        return Err(format!(
            "detection_after_first_miss_secs is {monitor_latency:.1}, outside the 60 s bar"
        ));
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

    let quick = args.iter().any(|a| a == "--quick");
    let cfg = if quick { Config::quick() } else { Config::full() };
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|j| args.get(j + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_0009.json".to_string());

    eprintln!(
        "observability sweep ({}): on/off to {} sharings, {} ticks each ...",
        cfg.mode,
        cfg.ns.last().unwrap(),
        cfg.ticks,
    );
    let mut checkpoints = Vec::new();
    for &n in cfg.ns {
        let off = run_arm(n, false, cfg.ticks);
        let on = run_arm(n, true, cfg.ticks);
        let c = Checkpoint { n, on, off };
        eprintln!(
            "  n={n}: on {:.2}s / off {:.2}s ({:+.2}%), {} instruments, {} spans retained, {} pushes",
            c.on.drive_secs,
            c.off.drive_secs,
            c.overhead_pct(),
            c.on.instruments,
            c.on.spans_retained,
            c.on.pushes,
        );
        checkpoints.push(c);
    }

    eprintln!(
        "  regime shift: {} t/s -> {} t/s at t={}s over a {:.0} B/s NIC ...",
        SHIFT_HEALTHY_RATE, SHIFT_SURGE_RATE, cfg.shift_healthy_secs, SHIFT_NET_BANDWIDTH
    );
    let shift = run_regime_shift(cfg.shift_healthy_secs, cfg.shift_max_secs);
    eprintln!(
        "  shift at {}s: first miss {:.1}s, first alert {:.1}s (detection {:.1}s), {} misses, page={}",
        shift.shift_at_secs,
        shift.first_miss_secs,
        shift.first_alert_secs,
        shift.detection_secs,
        shift.misses,
        shift.page_fired,
    );

    let json = emit_json(&cfg, &checkpoints, &shift);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out, json).expect("write BENCH json");
    println!("wrote {out}");
}
