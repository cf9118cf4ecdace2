//! The traced pass: the same run with harness spans on, then the layer
//! numbers taken from outside the program — (H) the harness's own spans
//! around public calls, (M) meters the program already exports, (R) a
//! short replay of each lower layer's public functions on the inputs the
//! traced drive captured.

use crate::metrics::PER_LAYER;
use crate::probe::Probe;
use crate::run::{
    drain_and_verify, drive, parallel_workers, peak_rss_mb, sim_outcome, ticks_for, DriveLog,
    Verified, TIMED_WORKERS,
};
use crate::spans::{self, Tracer, HARNESS};
use crate::stats;
use crate::workloads::{build, Built, Workload};
use smile_core::multi::GlobalPlan;
use smile_core::plan::cost::{machine_utilization, Scope};
use smile_core::{MergeCatalog, Reoptimizer};
use smile_storage::{
    AggregateSpec, ColumnarBatch, Database, DeltaBatch, DeltaEntry, Frame, Predicate, Table,
};
use smile_telemetry::MetricsSnapshot;
use smile_types::{RelationId, Result, Schema, SmileError, Timestamp};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

/// Sharings the admission replays run over: enough for a median, few
/// enough that a 4,000-sharing fleet does not replay its whole set-up.
const REPLAY_SHARINGS: usize = 256;
/// Sharings merged before the hill-climb replay (the paper's 25).
const HILL_CLIMB_SHARINGS: usize = 25;

/// What the traced pass produced.
pub struct TracedRun {
    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub values: Vec<f64>,
    /// Drain and MV verification of the traced platform.
    pub verified: Verified,
    /// Operations attempted: platform calls plus MVs checked.
    pub attempted: u64,
    /// Where the Chrome trace was written.
    pub trace_path: PathBuf,
}

type Metrics = BTreeMap<&'static str, f64>;

fn ms_quantile(secs: &[f64], q: f64) -> f64 {
    if secs.is_empty() {
        0.0
    } else {
        stats::quantile(secs, q) * 1e3
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced pass of one workload (one worker, as the timed runs, so
/// that wave busy time and `step` time are additive), followed by one
/// untraced drive at two workers for `executor.parallel_speedup`.
pub fn run_traced(workload: Workload, seed: u64, seconds: u64) -> Result<TracedRun> {
    let ticks = ticks_for(workload, seconds);
    let probe = Probe::new();
    let mut tracer = Tracer::new(true);
    let mut built = build(workload, seed, TIMED_WORKERS, &mut tracer)?;
    let mut captured = Vec::new();
    let log = drive(&mut built, ticks, &probe, &mut tracer, Some(&mut captured))?;
    let sim = sim_outcome(&built)?;
    let rss_mb = peak_rss_mb()?;
    // Meters are read where the drive ends, so that they describe the
    // same interval as the harness's own timings.
    let mut m = Metrics::new();
    let (snap, snapshot_s) =
        tracer.time("telemetry", "snapshot", || built.smile.telemetry_snapshot());
    let (_, export_s) = tracer.time("telemetry", "export_trace", || built.smile.export_trace());
    m.insert("telemetry.snapshot_ms", snapshot_s * 1e3);
    m.insert("telemetry.export_trace_ms", export_s * 1e3);
    meters(&mut m, &built, &snap, &log, rss_mb)?;
    m.insert("executor.sla_missed", sim.sla_missed as f64);
    m.insert("snapshot.staleness_peak_ratio", sim.staleness_peak_ratio);
    residual_share(&mut m, &built, &log)?;
    let verified = drain_and_verify(&mut built, workload, seed, &mut tracer)?;
    harness_spans(&mut m, &built, &log, &verified);
    // Coverage is the workload's own: set-up through verification. The
    // replays below prepare inputs outside any span.
    m.insert("harness.span_coverage", spans::coverage(tracer.spans()));

    tracer.open(HARNESS, "replay");
    replay_storage(
        &mut m,
        &built,
        &captured,
        push_period(&built, ticks),
        &mut tracer,
    )?;
    drop(captured);
    replay_admission(&mut m, &built, &mut tracer)?;
    tracer.close();

    let trace_path = write_trace(workload, tracer.spans())?;
    let self_s = spans::self_times(tracer.spans());
    for (layer, name) in [
        ("workload", "workload.self_s"),
        ("platform", "platform.self_s"),
        ("storage", "storage.self_s"),
        ("optimizer", "optimizer.self_s"),
        ("multi", "multi.self_s"),
        ("telemetry", "telemetry.self_s"),
        (HARNESS, "harness.self_s"),
    ] {
        m.insert(name, self_s.get(layer).copied().unwrap_or(0.0));
    }
    m.insert("harness.traced_drive_s", log.busy_s());
    let attempted = built.calls + log.calls + verified.calls + verified.checked;
    drop(built);

    m.insert("harness.host_index", log.host_index());

    // The same drive at two workers, untraced. Each side is stated at
    // reference speed: the two drives are minutes apart on a shared host.
    let mut off = Tracer::new(false);
    let mut parallel = build(workload, seed, parallel_workers(), &mut off)?;
    let parallel_log = drive(&mut parallel, ticks, &probe, &mut off, None)?;
    m.insert(
        "executor.parallel_speedup",
        ratio(
            parallel_log.tuples_per_s() * parallel_log.host_index(),
            log.tuples_per_s() * log.host_index(),
        ),
    );

    let values = PER_LAYER
        .iter()
        .map(|d| {
            m.remove(d.name).ok_or_else(|| {
                SmileError::Internal(format!("layer metric {} not measured", d.name))
            })
        })
        .collect::<Result<Vec<f64>>>()?;
    if let Some(extra) = m.keys().next() {
        return Err(SmileError::Internal(format!(
            "layer metric {extra} measured but not declared"
        )));
    }
    Ok(TracedRun {
        values,
        verified,
        attempted,
        trace_path,
    })
}

/// The part of `step` no exported meter explains. The traced drive runs
/// one worker, so scheduler time and wave busy time lie inside `step`
/// back to back and the remainder is the coordinator's own.
fn residual_share(m: &mut Metrics, b: &Built, log: &DriveLog) -> Result<()> {
    let executor = b
        .smile
        .executor
        .as_ref()
        .ok_or_else(|| SmileError::Internal("no executor".into()))?;
    let sched_s = executor.sched_host_us.iter().sum::<u64>() as f64 / 1e6;
    let busy_s = b.smile.wave_meter().busy_nanos as f64 / 1e9;
    let step_s: f64 = log.step_s.iter().sum();
    m.insert(
        "platform.step_residual_share",
        ratio(step_s - sched_s - busy_s, step_s),
    );
    Ok(())
}

/// (H): what the harness timed around the public calls.
fn harness_spans(m: &mut Metrics, b: &Built, log: &DriveLog, v: &Verified) {
    let ingest_s: f64 = log.ingest_s.iter().sum();
    let step_s: f64 = log.step_s.iter().sum();
    let (push, idle): (Vec<_>, Vec<_>) = log
        .tick_s
        .iter()
        .zip(&log.push_tick)
        .partition(|(_, pushed)| **pushed);
    let push: Vec<f64> = push.into_iter().map(|(s, _)| *s).collect();
    let idle: Vec<f64> = idle.into_iter().map(|(s, _)| *s).collect();
    m.insert("workload.gen_s", log.gen_s);
    m.insert("workload.entries", log.entries as f64);
    m.insert(
        "workload.delete_share",
        ratio(log.deletes as f64, log.entries as f64),
    );
    m.insert("platform.ingest_s", ingest_s);
    m.insert(
        "platform.ingest_us_per_ktuple",
        ratio(ingest_s * 1e6, log.entries as f64 / 1e3),
    );
    m.insert("platform.step_s", step_s);
    m.insert(
        "platform.push_tick_share",
        ratio(push.len() as f64, log.tick_s.len() as f64),
    );
    m.insert("platform.push_tick_ms_p50", ms_quantile(&push, 0.5));
    m.insert("platform.idle_tick_us_p50", ms_quantile(&idle, 0.5) * 1e3);
    m.insert("platform.submit_s", b.admit_s.iter().sum());
    m.insert("platform.submit_ms_p50", ms_quantile(&b.admit_s, 0.5));
    m.insert("platform.submit_ms_p99", ms_quantile(&b.admit_s, 0.99));
    m.insert("platform.install_s", b.install_s);
    m.insert("platform.admit_per_s", b.admit_per_s());
    m.insert("platform.submit_live_s", log.live_s.iter().sum());
    m.insert("platform.submit_live_ms_p50", ms_quantile(&log.live_s, 0.5));
    m.insert("platform.submit_live_ms_p90", ms_quantile(&log.live_s, 0.9));
    m.insert("platform.retire_s", log.retire_s.iter().sum());
    m.insert("platform.retire_ms_p50", ms_quantile(&log.retire_s, 0.5));
    m.insert("platform.drain_s", v.drain_s);
    m.insert("platform.mv_read_ms_p50", ms_quantile(&v.mv_read_s, 0.5));
    m.insert("storage.spj_eval_ms_p50", ms_quantile(&v.spj_eval_s, 0.5));
}

/// (M): meters the program already exports, read once at the end.
fn meters(
    m: &mut Metrics,
    b: &Built,
    snap: &MetricsSnapshot,
    log: &DriveLog,
    rss_mb: f64,
) -> Result<()> {
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let gauge = |name: &str| snap.gauge(name).unwrap_or(0.0);
    let hist = |name: &str, q: f64| snap.histogram(name).map_or(0.0, |h| h.quantile(q) as f64);
    let executor = b
        .smile
        .executor
        .as_ref()
        .ok_or_else(|| SmileError::Internal("no executor".into()))?;
    let sched_us: Vec<f64> = executor.sched_host_us.iter().map(|&us| us as f64).collect();
    let moved = gauge("exec.tuples_moved");
    m.insert("executor.sched_s", sched_us.iter().sum::<f64>() / 1e6);
    m.insert("executor.sched_us_p50", stats::quantile(&sched_us, 0.5));
    m.insert("executor.sched_us_p99", stats::quantile(&sched_us, 0.99));
    m.insert(
        "executor.wave_busy_s",
        counter("wave.host_busy_nanos") / 1e9,
    );
    m.insert("executor.waves", counter("wave.waves"));
    m.insert("executor.jobs", counter("wave.jobs"));
    m.insert(
        "executor.job_us_p50",
        hist("wave.host_job_nanos", 0.5) / 1e3,
    );
    m.insert(
        "executor.job_us_p99",
        hist("wave.host_job_nanos", 0.99) / 1e3,
    );
    m.insert("executor.pushes", gauge("exec.push_records"));
    m.insert("executor.tuples_moved", moved);
    m.insert(
        "executor.move_amplification",
        ratio(moved, log.entries as f64),
    );
    m.insert("executor.pushes_retried", gauge("exec.pushes_retried"));
    m.insert("executor.cal_wakes", counter("sched.calendar.host_wakes"));
    m.insert(
        "executor.cal_early_wake_ratio",
        ratio(
            counter("sched.calendar.host_early_wakes"),
            counter("sched.calendar.host_wakes"),
        ),
    );
    m.insert(
        "executor.headroom_us_p50",
        hist("push.staleness_headroom_us", 0.5),
    );

    let mut table_bytes = 0usize;
    let mut pending = 0usize;
    for id in b.smile.cluster.machine_ids() {
        let db = &b.smile.cluster.machine(id)?.db;
        table_bytes += db.total_bytes();
        pending += db.total_pending_entries();
    }
    m.insert("storage.wal_bytes_shipped", gauge("wal.bytes_shipped"));
    m.insert(
        "storage.wal_bytes_per_moved_tuple",
        ratio(gauge("wal.bytes_shipped"), moved),
    );
    m.insert("storage.arr_probes", gauge("arrangement.probes"));
    m.insert(
        "storage.arr_hit_rate",
        ratio(gauge("arrangement.hits"), gauge("arrangement.probes")),
    );
    m.insert("storage.arr_maintained", gauge("arrangement.maintained"));
    m.insert("storage.arr_built_rows", gauge("arrangement.built_rows"));
    m.insert("storage.table_bytes", table_bytes as f64);
    m.insert("storage.pending_entries", pending as f64);
    m.insert(
        "storage.rss_bytes_per_ingested_tuple",
        ratio(rss_mb * 1024.0 * 1024.0, log.entries as f64),
    );

    m.insert("optimizer.admitted", counter("planner.sharings_admitted"));
    m.insert("optimizer.rejected", counter("planner.sharings_rejected"));
    m.insert(
        "optimizer.admission_host_us_p50",
        hist("admission.host_latency_us", 0.5),
    );
    m.insert("multi.plan_vertices", gauge("plan.vertices"));
    m.insert("multi.plan_edges", gauge("plan.edges"));
    m.insert(
        "multi.catalog_hit_rate",
        ratio(
            counter("catalog.hits"),
            counter("catalog.hits") + counter("catalog.misses"),
        ),
    );
    m.insert("multi.catalog_entries", gauge("catalog.entries"));
    m.insert(
        "multi.arr_registry_entries",
        gauge("arrangement_registry.entries"),
    );
    m.insert(
        "multi.arr_registry_reclaimed",
        gauge("arrangement_registry.reclaimed"),
    );
    m.insert("snapshot.records", b.smile.snapshot.records.len() as f64);
    m.insert("snapshot.violations", gauge("snapshot.sla_violations"));
    m.insert("sim.cpu_secs", gauge("ledger.cpu_secs"));
    m.insert("sim.net_bytes", gauge("ledger.net_bytes"));
    m.insert("sim.disk_byte_secs", gauge("ledger.disk_byte_secs"));
    m.insert("sim.penalty_dollars", gauge("ledger.penalty_dollars"));
    m.insert("telemetry.instruments", gauge("telemetry.instruments"));
    m.insert("telemetry.spans_retained", counter("spans.retained"));
    m.insert("telemetry.spans_dropped", counter("spans.dropped"));
    Ok(())
}

/// Ticks between two pushes of the sharing that pushed most often: the
/// window the storage replay ships at a time.
fn push_period(b: &Built, ticks: u64) -> usize {
    let mut per_sharing: HashMap<_, u64> = HashMap::new();
    if let Some(executor) = &b.smile.executor {
        for r in &executor.push_records {
            *per_sharing.entry(r.sharing).or_default() += 1;
        }
    }
    let most = per_sharing.values().copied().max().unwrap_or(1).max(1);
    (ticks / most).max(1) as usize
}

/// (R) storage: replays the busiest base relation's captured stream
/// through the public ship → land → apply functions and the operators
/// beside them, one push period at a time.
fn replay_storage(
    m: &mut Metrics,
    b: &Built,
    stream: &[DeltaBatch],
    period: usize,
    tracer: &mut Tracer,
) -> Result<()> {
    let schema: Schema = b.smile.catalog.base(b.busiest)?.schema.clone();
    let rel = RelationId::new(0);
    let key: Vec<usize> = schema.key().to_vec();
    let spec = AggregateSpec::count_by(vec![schema.arity() - 1]);
    let mut view = Table::new(spec.output_schema(&schema)?);
    let mut src = Database::new();
    src.create_relation(rel, schema.clone())?;
    let mut dst = Database::new();
    dst.create_relation(rel, schema)?;
    dst.ensure_index(rel, &key)?;

    let (mut ship_s, mut land_s, mut apply_s, mut probe_s, mut cons_s, mut agg_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut shipped = 0usize;
    let mut keys = 0usize;
    let mut entries_total = 0usize;
    for (w, window) in stream.chunks(period).enumerate() {
        let lo = src.relation_ts(rel)?;
        let mut entries: Vec<DeltaEntry> = Vec::new();
        for batch in window {
            entries.extend(batch.entries.iter().cloned());
            src.ingest(rel, batch.clone())?;
        }
        let hi = src.relation_ts(rel)?;
        entries_total += entries.len();

        let (bytes, s) = tracer.time("storage", "ship", || {
            src.delta_window_encode(rel, lo, hi, &Predicate::True, None)
        });
        ship_s += s;
        let (landed, s) = tracer.time("storage", "land", || -> Result<usize> {
            let frame = Frame::parse(bytes?)?;
            dst.append_frame_dedup(rel, &frame, w as u64, 1, hi)?;
            Ok(frame.len())
        });
        land_s += s;
        shipped += landed?;
        let (applied, s) = tracer.time("storage", "apply", || dst.apply_pending(rel, hi));
        apply_s += s;
        applied?;

        let keys_flat: Vec<_> = entries
            .iter()
            .flat_map(|e| key.iter().map(|&c| e.tuple.values()[c].clone()))
            .collect();
        let arrangement = dst
            .relation(rel)?
            .table
            .arrangement(&key)
            .ok_or_else(|| SmileError::Internal("replay arrangement missing".into()))?;
        let (hits, s) = tracer.time("storage", "probe", || {
            arrangement
                .probe_batch(&keys_flat, key.len(), entries.len())
                .len()
        });
        probe_s += s;
        keys += std::hint::black_box(hits);

        let mut columnar = ColumnarBatch::from_entries(&entries);
        let (_, s) = tracer.time("storage", "consolidate", || columnar.consolidate_in_place());
        cons_s += s;

        let batch = DeltaBatch { entries };
        let (out, s) = tracer.time("storage", "agg_transform", || {
            spec.delta_transform(&batch, |g| view.get_by_key(g))
        });
        agg_s += s;
        view.apply(&out?, hi)?;
    }
    let end = src.relation_ts(rel)?;
    let mid = Timestamp(end.0 / 2);
    let (snap, snapshot_s) = tracer.time("storage", "snapshot_at", || src.snapshot_at(rel, mid));
    std::hint::black_box(snap?.len());
    let (dropped, compact_s) = tracer.time("storage", "compact", || src.compact(rel, end));
    let dropped = dropped?;

    let per_k = |secs: f64, n: usize| ratio(secs * 1e6, n as f64 / 1e3);
    m.insert("storage.ship_us_per_ktuple", per_k(ship_s, shipped));
    m.insert("storage.land_us_per_ktuple", per_k(land_s, shipped));
    m.insert("storage.apply_us_per_ktuple", per_k(apply_s, shipped));
    m.insert(
        "storage.probe_ns_per_key",
        ratio(probe_s * 1e9, keys as f64),
    );
    m.insert(
        "storage.consolidate_us_per_ktuple",
        per_k(cons_s, entries_total),
    );
    m.insert(
        "storage.agg_transform_us_per_ktuple",
        per_k(agg_s, entries_total),
    );
    m.insert("storage.snapshot_at_ms", snapshot_s * 1e3);
    m.insert("storage.compact_us_per_ktuple", per_k(compact_s, dropped));
    Ok(())
}

/// (R) optimizer and multi: re-runs plan search, plan merging and the
/// hill climb on the workload's own sharings.
fn replay_admission(m: &mut Metrics, b: &Built, tracer: &mut Tracer) -> Result<()> {
    let smile = &b.smile;
    let executor = smile
        .executor
        .as_ref()
        .ok_or_else(|| SmileError::Internal("no executor".into()))?;
    let committed = machine_utilization(&executor.global.plan, Scope::All, &smile.config.model);
    let reoptimizer = || {
        Reoptimizer::new(
            &smile.catalog,
            smile.cluster.machine_ids(),
            &smile.config.model,
            &smile.config.prices,
        )
        .with_capacity(smile.config.capacity)
    };
    let sharings = &smile.sharings()[..smile.sharings().len().min(REPLAY_SHARINGS)];

    // Plan search: the workload's distinct queries against the final
    // committed utilization.
    let mut seen = std::collections::HashSet::new();
    let mut search_s = Vec::new();
    for s in sharings
        .iter()
        .filter(|s| seen.insert(format!("{:?}", s.query)))
    {
        let pin = smile.planned(s.id)?.mv_machine;
        let (planned, secs) = tracer.time("optimizer", "plan_admission", || {
            reoptimizer().plan_admission(s, committed.clone(), Some(pin))
        });
        planned?;
        search_s.push(secs);
    }
    m.insert(
        "optimizer.plan_search_us_p50",
        ms_quantile(&search_s, 0.5) * 1e3,
    );

    // Plan merging through the catalog, in admission order.
    let mut global = GlobalPlan::new();
    let mut catalog = MergeCatalog::new();
    let mut merge_s = Vec::new();
    for s in sharings {
        let planned = smile.planned(s.id)?;
        let (merged, secs) = tracer.time("multi", "merge_indexed", || {
            global.merge_indexed(s, planned, &mut catalog)
        });
        merged?;
        merge_s.push(secs);
    }
    m.insert("multi.merge_us_p50", ms_quantile(&merge_s, 0.5) * 1e3);

    // Hill climbing over the first sharings merged from scratch.
    let mut global = GlobalPlan::new();
    let mut catalog = MergeCatalog::new();
    for s in &sharings[..sharings.len().min(HILL_CLIMB_SHARINGS)] {
        global.merge_indexed(s, smile.planned(s.id)?, &mut catalog)?;
    }
    global.indexed_shr = true;
    let (report, climb_s) = tracer.time("multi", "hill_climb", || {
        reoptimizer().hill_climb_placement(&mut global, true, smile.config.hill_climb_iterations)
    });
    std::hint::black_box(report.applied.len());
    m.insert("multi.hill_climb_s", climb_s);
    Ok(())
}

/// Writes the harness spans as Chrome `trace_event` JSON under the
/// benchmark's own `out/` directory.
fn write_trace(workload: Workload, spans: &[spans::Span]) -> Result<PathBuf> {
    let dir = out_dir();
    let io = |e: std::io::Error| SmileError::Internal(format!("writing trace: {e}"));
    std::fs::create_dir_all(&dir).map_err(io)?;
    let path = dir.join(format!("{}.trace.json", workload.name()));
    std::fs::write(&path, spans::chrome_trace(spans).to_string()).map_err(io)?;
    Ok(path)
}

/// `benchmark/out/`, beside the package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}
