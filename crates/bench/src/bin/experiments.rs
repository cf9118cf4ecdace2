//! Regenerates every table and figure of the SMILE evaluation (paper §9).
//!
//! ```text
//! cargo run --release -p smile-bench --bin experiments -- <experiment> [--full]
//! ```
//!
//! Experiments: `table1 fig5 fig6 fig7 fig8 fig9 table2 fig10 fig11 fig12
//! fig13 fig14 ablations all`. `--full` runs at the paper's rates and
//! durations (hours of wall time); the default scale divides rates by 20
//! and durations by 8, preserving shapes (see EXPERIMENTS.md).
//!
//! `heap` (not part of `all`) runs fig6's configuration under the counting
//! allocator below and prints what the run allocated.

use smile_bench::{print_table, run_experiment, RunConfig, RunOutcome, Scale, SlaAssignment};
use smile_core::multi::{hill_climb_filtered, GlobalPlan};
use smile_core::optimizer::{Objective, Optimizer};
use smile_core::plan::cost::{critical_path, plan_cost};
use smile_core::plan::timecost::TimeCostModel;
use smile_core::platform::{Smile, SmileConfig};
use smile_sim::PriceSheet;
use smile_storage::delta::{DeltaBatch, DeltaEntry};
use smile_storage::{wal, Database};
use smile_types::{
    tuple, Column, ColumnType, MachineId, RelationId, Schema, SimDuration, Timestamp,
};
use smile_workload::rates::RateTrace;
use smile_workload::readload::ReadLoad;
use smile_workload::sharings::paper_sharings;
use smile_workload::twitter::{standard_setup, TwitterConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator, counting: calls, bytes requested, and the peak of
/// the bytes live. `heap` reads the counts; every other experiment pays a
/// few relaxed atomic operations per call and ignores them.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

impl Counting {
    /// Counts a call that made `new` bytes live in place of `old`.
    fn count(new: usize, old: usize) {
        ALLOCATIONS.fetch_add(1, Relaxed);
        ALLOCATED.fetch_add(new as u64, Relaxed);
        // Wrapping: a shrinking `realloc` adds a negative change.
        let change = (new as u64).wrapping_sub(old as u64);
        let live = LIVE.fetch_add(change, Relaxed).wrapping_add(change);
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's own arguments
// and returns its result unchanged, so `System` upholds `GlobalAlloc`'s
// contract; the counting only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Counting::count(layout.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Counting::count(layout.size(), 0);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Counting::count(new_size, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full {
        Scale::full()
    } else {
        Scale::default_scale()
    };
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let t0 = std::time::Instant::now();
    match which.as_str() {
        "table1" => table1(),
        "fig5" => fig5(),
        "fig6" => fig6(scale),
        "fig7" => fig7(scale),
        "fig8" => fig8(scale),
        "fig9" => fig9(scale),
        "table2" => table2(scale),
        "fig10" => fig10(scale),
        "fig11" => fig11(scale),
        "fig12" => fig12(scale),
        "fig13" => fig13(),
        "fig14" => fig14(scale),
        "ablations" => ablations(scale),
        "heap" => heap(scale),
        "all" => {
            table1();
            fig5();
            fig6(scale);
            fig7(scale);
            fig8(scale);
            fig9(scale);
            table2(scale);
            fig10(scale);
            fig11(scale);
            fig12(scale);
            fig13();
            fig14(scale);
            ablations(scale);
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            eprintln!(
                "choose from: table1 fig5 fig6 fig7 fig8 fig9 table2 fig10 fig11 fig12 fig13 fig14 ablations all heap"
            );
            std::process::exit(2);
        }
    }
    eprintln!(
        "\n[{which} done in {:.1}s wall]",
        t0.elapsed().as_secs_f64()
    );
}

// ---------------------------------------------------------------- table 1

fn table1() {
    let mut smile = Smile::new(SmileConfig::with_machines(6));
    let workload =
        smile_workload::twitter::TwitterWorkload::register(&mut smile, TwitterConfig::default())
            .expect("register");
    let rows: Vec<Vec<String>> = smile
        .catalog
        .bases()
        .iter()
        .map(|b| {
            vec![
                b.name.clone(),
                format!("{}", b.schema),
                b.machine.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 1 (left): base relations",
        &["relation", "schema", "home"],
        &rows,
    );

    let rows: Vec<Vec<String>> = paper_sharings(&workload.rels())
        .iter()
        .map(|s| {
            let names: Vec<String> = s
                .query
                .sources()
                .iter()
                .map(|r| smile.catalog.base(*r).unwrap().name.clone())
                .collect();
            vec![
                format!("S{}", s.index),
                names.join(" ⋈ "),
                s.app.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 1 (right): the 25 sharings",
        &["id", "transformation", "app"],
        &rows,
    );
}

// ----------------------------------------------------------------- fig 5

/// Measures the real wall-clock cost of pushing n tuples through each edge
/// operator's data path (the paper's calibration methodology), and reports
/// the least-squares linear fit.
fn fig5() {
    let schema = Schema::new(
        vec![
            Column::new("k", ColumnType::I64),
            Column::new("v", ColumnType::I64),
        ],
        vec![0],
    );
    let base_rows = 50_000i64;
    let rel = RelationId::new(0);
    let make_db = || {
        let mut db = Database::new();
        db.create_relation(rel, schema.clone()).unwrap();
        let batch: DeltaBatch = (0..base_rows)
            .map(|i| DeltaEntry::insert(tuple![i, i % 977], Timestamp::from_secs(1)))
            .collect();
        db.ingest(rel, batch).unwrap();
        db.ensure_index(rel, &[1]).unwrap();
        db
    };
    let sizes = [1_000usize, 2_500, 5_000, 7_500, 10_000];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut fits: Vec<(&str, f64, f64)> = Vec::new();
    for op in ["DeltaToRel", "CopyDelta", "Join", "Union"] {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for &n in &sizes {
            let window: DeltaBatch = (0..n as i64)
                .map(|i| {
                    DeltaEntry::insert(tuple![base_rows + i, i % 977], Timestamp::from_secs(2))
                })
                .collect();
            let secs = match op {
                "DeltaToRel" => {
                    let mut db = make_db();
                    db.append_delta(rel, window).unwrap();
                    let t = std::time::Instant::now();
                    db.apply_pending(rel, Timestamp::from_secs(2)).unwrap();
                    t.elapsed().as_secs_f64()
                }
                "CopyDelta" => {
                    let mut db = make_db();
                    let t = std::time::Instant::now();
                    let bytes = wal::encode(&window);
                    let decoded = wal::decode(bytes).unwrap();
                    db.append_delta(rel, decoded).unwrap();
                    t.elapsed().as_secs_f64()
                }
                "Join" => {
                    let db = make_db();
                    let slot = db.relation(rel).unwrap();
                    let t = std::time::Instant::now();
                    let mut out = 0usize;
                    for e in &window.entries {
                        let key = e.tuple.project(&[1]);
                        if let Some(bucket) = slot.table.probe_index(&[1], &key) {
                            out += bucket.len();
                        }
                    }
                    std::hint::black_box(out);
                    t.elapsed().as_secs_f64()
                }
                _ => {
                    let mut db = make_db();
                    let t = std::time::Instant::now();
                    let mut merged = window.entries.clone();
                    merged.extend(window.entries.iter().cloned());
                    merged.sort_by_key(|e| e.ts);
                    db.append_delta(rel, DeltaBatch { entries: merged })
                        .unwrap();
                    t.elapsed().as_secs_f64()
                }
            };
            xs.push(n as f64);
            ys.push(secs);
            rows.push(vec![
                op.to_string(),
                n.to_string(),
                format!("{:.3}", secs * 1e3),
            ]);
        }
        let (a, b) = least_squares(&xs, &ys);
        fits.push((op, a, b));
    }
    print_table(
        "Figure 5: time cost of the four edge operators (real wall clock)",
        &["operator", "tuples", "ms"],
        &rows,
    );
    let rows: Vec<Vec<String>> = fits
        .iter()
        .map(|(op, a, b)| {
            vec![
                op.to_string(),
                format!("{:.1}", a * 1e6),
                format!("{:.3}", b * 1e6),
            ]
        })
        .collect();
    print_table(
        "Figure 5: linear fits (time = fixed + slope × n)",
        &["operator", "fixed µs", "slope µs/tuple"],
        &rows,
    );
    println!("paper slopes (PostgreSQL testbed): DeltaToRel ≈ 550, CopyDelta ≈ 25, Join ≈ 500, Union ≈ 70 µs/tuple");
    println!(
        "same ordering and linearity expected; the embedded engine is faster in absolute terms"
    );
}

fn least_squares(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    (intercept, slope)
}

// ----------------------------------------------------------------- fig 6

fn fig6_config(scale: Scale) -> RunConfig {
    RunConfig::standard(
        RateTrace::Constant(scale.rate(6000.0)),
        scale.duration(SimDuration::from_secs(2400)),
    )
}

fn fig6(scale: Scale) {
    let cfg = fig6_config(scale);
    let out = run_experiment(&cfg).expect("fig6 run");
    let mut rows = Vec::new();
    for (index, app, id) in &out.ids {
        let series = out.smile.snapshot.staleness_series(*id);
        let max = series
            .iter()
            .map(|(_, s)| s.as_secs_f64())
            .fold(0.0, f64::max);
        let mean =
            series.iter().map(|(_, s)| s.as_secs_f64()).sum::<f64>() / series.len().max(1) as f64;
        rows.push(vec![
            format!("S{index}"),
            app.to_string(),
            format!("{:.1}", mean),
            format!("{:.1}", max),
            out.smile.snapshot.violations_of(*id).to_string(),
        ]);
    }
    print_table(
        &format!(
            "Figure 6 (left): staleness of 25 sharings, SLA 45 s, {} tweets/s, {} sim-s",
            scale.rate(6000.0),
            cfg.duration.as_secs_f64()
        ),
        &["id", "app", "mean stale s", "peak stale s", "violations"],
        &rows,
    );

    // The S1 trace in full (the zoomed-in plot of the figure).
    if let Some(id) = out.id_of(1) {
        let series = out.smile.snapshot.staleness_series(id);
        let rows: Vec<Vec<String>> = series
            .iter()
            .map(|(t, s)| {
                vec![
                    format!("{:.0}", t.as_secs_f64()),
                    format!("{:.2}", s.as_secs_f64()),
                ]
            })
            .collect();
        print_table(
            "Figure 6: S1 staleness trace",
            &["t s", "staleness s"],
            &rows,
        );
    }

    let rows: Vec<Vec<String>> = out
        .smile
        .snapshot
        .tuples_series()
        .iter()
        .map(|(t, n)| vec![format!("{:.0}", t.as_secs_f64()), n.to_string()])
        .collect();
    print_table(
        "Figure 6 (right): tuples moved per 5 s snapshot (ALL sharings)",
        &["t s", "tuples"],
        &rows,
    );
    println!(
        "total violations: {} (paper: 31 over 40 min at 6k tweets/s)",
        out.smile.snapshot.violations_total()
    );
}

// ------------------------------------------------------------------ heap

/// What fig6's run allocates, from its start to its end: calls, bytes
/// requested and the peak of the bytes live. Each is a count of what the
/// platform asked for, not of host time, so two runs print the same file.
fn heap(scale: Scale) {
    let cfg = fig6_config(scale);
    let (allocations, allocated) = (ALLOCATIONS.load(Relaxed), ALLOCATED.load(Relaxed));
    // The peak is counted above what was live before the run (the
    // command line's own strings, whose length depends on the path the
    // binary was started by).
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let out = run_experiment(&cfg).expect("fig6 run");
    let rows = [
        ("allocations", ALLOCATIONS.load(Relaxed) - allocations),
        ("bytes allocated", ALLOCATED.load(Relaxed) - allocated),
        ("peak live bytes", PEAK.load(Relaxed) - before),
    ];
    drop(out);
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(k, n)| vec![k.to_string(), n.to_string()])
        .collect();
    print_table(
        &format!(
            "Heap: fig6's run (25 sharings, SLA 45 s, {} tweets/s, {} sim-s) under a counting allocator",
            scale.rate(6000.0),
            cfg.duration.as_secs_f64()
        ),
        &["count", "value"],
        &rows,
    );
}

// ----------------------------------------------------------------- fig 7

fn fig7(scale: Scale) {
    let cfg = RunConfig::standard(
        RateTrace::Constant(scale.rate(6000.0)),
        scale.duration(SimDuration::from_secs(2400)),
    );
    let out = run_experiment(&cfg).expect("fig7 run");
    let id = out.id_of(1).expect("S1 admitted");
    let exec = out.smile.executor.as_ref().unwrap();
    let rows: Vec<Vec<String>> = exec
        .push_records
        .iter()
        .filter(|r| r.sharing == id)
        .map(|r| {
            vec![
                format!("{:.0}", r.issued.as_secs_f64()),
                format!("{:.1}", r.staleness_before.as_secs_f64()),
                format!("{:.1}", r.staleness_after.as_secs_f64()),
                format!("{:.1}", r.advanced.as_secs_f64()),
                r.tuples.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 7: PUSH operations on S1 (staleness before/after, timestamp advanced)",
        &["issued s", "before s", "after s", "advanced s", "tuples"],
        &rows,
    );
    println!("paper: pushes fire near the SLA (45 s), drop staleness below 10 s, advance 25–40 s");
}

// ----------------------------------------------------------------- fig 8

fn fig8(scale: Scale) {
    let duration = scale.duration(SimDuration::from_secs(1200));
    let points: Vec<(String, RateTrace)> = vec![
        ("50".into(), RateTrace::Constant(scale.rate(50.0))),
        (
            "G".into(),
            RateTrace::Gardenhose {
                mean: scale.rate(100.0),
                seed: 7,
            },
        ),
        ("100".into(), RateTrace::Constant(scale.rate(100.0))),
        ("500".into(), RateTrace::Constant(scale.rate(500.0))),
        ("1000".into(), RateTrace::Constant(scale.rate(1000.0))),
        (
            "F".into(),
            RateTrace::Scaled {
                base: Box::new(RateTrace::Gardenhose {
                    mean: scale.rate(100.0),
                    seed: 7,
                }),
                factor: 10.0,
            },
        ),
        ("2000".into(), RateTrace::Constant(scale.rate(2000.0))),
        ("3000".into(), RateTrace::Constant(scale.rate(3000.0))),
        ("5000".into(), RateTrace::Constant(scale.rate(5000.0))),
        ("6000".into(), RateTrace::Constant(scale.rate(6000.0))),
    ];
    let mut rows = Vec::new();
    for (label, trace) in points {
        let cfg = RunConfig::standard(trace, duration);
        let out = run_experiment(&cfg).expect("fig8 point");
        rows.push(vec![
            label,
            format!("{:.4}", out.dollars_per_sharing_hour()),
            format!("{:.2}", out.smile.snapshot.violations_per_sharing_hour()),
            out.tweets_generated.to_string(),
        ]);
    }
    print_table(
        "Figure 8 (a,b): cost and violations per sharing-hour vs tweet rate",
        &[
            "rate",
            "$ / sharing-hour",
            "violations / sharing-hour",
            "tweets",
        ],
        &rows,
    );
    println!("paper: violations low everywhere (0 for G and F, ≈3 at 6k); cost grows with rate ($6 at F, $25 at 6k)");

    // (c) the gardenhose trace itself.
    let trace = RateTrace::Gardenhose {
        mean: scale.rate(100.0),
        seed: 7,
    };
    let rows: Vec<Vec<String>> = (0..60)
        .map(|i| {
            let t = Timestamp::from_secs(i * 120);
            vec![
                format!("{}", t.as_secs_f64() as u64),
                format!("{:.0}", trace.rate_at(t)),
            ]
        })
        .collect();
    print_table(
        "Figure 8 (c): gardenhose rate trace",
        &["t s", "tweets/s"],
        &rows,
    );
}

// ----------------------------------------------------------------- fig 9

fn fig9(scale: Scale) {
    let trace = RateTrace::Constant(scale.rate(6000.0));
    let duration = scale.duration(SimDuration::from_secs(1200));
    let shared_cfg = RunConfig::standard(trace.clone(), duration);
    let shared = run_experiment(&shared_cfg).expect("fig9 shared");

    // The paper plots these nine sharings: small-gap S1,S3,S4,S20 and
    // large-gap S7,S8,S9,S10,S23.
    let targets = [1usize, 3, 4, 20, 7, 8, 9, 10, 23];
    let mut rows = Vec::new();
    for &index in &targets {
        let iso_cfg = RunConfig {
            sharing_indexes: vec![index],
            ..RunConfig::standard(trace.clone(), duration)
        };
        let iso = run_experiment(&iso_cfg).expect("fig9 isolated");
        let moved = |run: &RunOutcome| {
            let executor = run.smile.executor.as_ref().unwrap();
            executor.sharing_tuples(run.id_of(index).unwrap()).unwrap_or(0) as f64
        };
        let (shared_tuples, iso_tuples) = (moved(&shared), moved(&iso));
        let change = 100.0 * (shared_tuples - iso_tuples) / iso_tuples.max(1.0);
        rows.push(vec![
            format!("S{index}"),
            format!("{:.0}", iso_tuples),
            format!("{:.0}", shared_tuples),
            format!("{:+.0}%", change),
        ]);
    }
    print_table(
        "Figure 9: tuples moved with commonality vs run in isolation",
        &["id", "isolated", "shared", "change"],
        &rows,
    );
    println!("paper: sharings benefiting from commonality move far fewer tuples (up to −3000%... i.e. 30× less)");
}

// ---------------------------------------------------------------- table 2

fn table2(scale: Scale) {
    let trace = RateTrace::Constant(scale.rate(1000.0));
    let duration = scale.duration(SimDuration::from_secs(2400));
    let mut rows = Vec::new();
    for sla in [10u64, 20, 30, 40, 50, 60] {
        let cfg = RunConfig {
            slas: SlaAssignment::Uniform(SimDuration::from_secs(sla)),
            ..RunConfig::standard(trace.clone(), duration)
        };
        let out = run_experiment(&cfg).expect("table2 run");
        rows.push(vec![
            sla.to_string(),
            format!("{:.2}", out.smile.snapshot.violations_per_sharing_hour()),
            out.smile.snapshot.violations_total().to_string(),
        ]);
    }
    let cfg = RunConfig {
        slas: SlaAssignment::Mix,
        ..RunConfig::standard(trace.clone(), duration)
    };
    let out = run_experiment(&cfg).expect("table2 mix");
    rows.push(vec![
        "mix".into(),
        format!("{:.2}", out.smile.snapshot.violations_per_sharing_hour()),
        out.smile.snapshot.violations_total().to_string(),
    ]);
    print_table(
        "Table 2: violations per sharing-hour for varying SLA (1000 tweets/s paper rate)",
        &["SLA s", "violations/sharing-hour", "total"],
        &rows,
    );
    println!("paper: 4 / 1 / 2 / 1 / 0 / 0 / 0 — worst at the tightest SLA, mix clean");
}

// ----------------------------------------------------------------- fig 10

fn fig10(scale: Scale) {
    let trace = RateTrace::Constant(scale.rate(1000.0));
    let duration = scale.duration(SimDuration::from_secs(2400));
    let run_with = |slas: SlaAssignment| -> RunOutcome {
        run_experiment(&RunConfig {
            slas,
            ..RunConfig::standard(trace.clone(), duration)
        })
        .expect("fig10 run")
    };
    let mix = run_with(SlaAssignment::Mix);
    let u10 = run_with(SlaAssignment::Uniform(SimDuration::from_secs(10)));
    let u40 = run_with(SlaAssignment::Uniform(SimDuration::from_secs(40)));
    let u60 = run_with(SlaAssignment::Uniform(SimDuration::from_secs(60)));

    let mut rows = Vec::new();
    for index in 1..=25usize {
        let uniform = if index <= 7 {
            &u10
        } else if index <= 15 {
            &u40
        } else {
            &u60
        };
        let mix_cost = mix.smile.sharing_dollars(mix.id_of(index).unwrap());
        let uni_cost = uniform.smile.sharing_dollars(uniform.id_of(index).unwrap());
        let change = 100.0 * (mix_cost - uni_cost) / uni_cost.max(1e-12);
        rows.push(vec![
            format!("S{index}"),
            SlaAssignment::Mix.sla_of(index).as_secs_f64().to_string(),
            format!("{:.6}", uni_cost),
            format!("{:.6}", mix_cost),
            format!("{:+.0}%", change),
        ]);
    }
    print_table(
        "Figure 10: per-sharing cost, mixed SLA vs the matching uniform SLA",
        &["id", "mix SLA s", "uniform $", "mix $", "change"],
        &rows,
    );
    // Group means (the figure's visual takeaway).
    let mut group_rows = Vec::new();
    for (label, lo, hi, uniform) in [
        ("S1–S7 (10 s)", 1usize, 7usize, &u10),
        ("S8–S15 (40 s)", 8, 15, &u40),
        ("S16–S25 (60 s)", 16, 25, &u60),
    ] {
        let mut mix_sum = 0.0;
        let mut uni_sum = 0.0;
        for index in lo..=hi {
            mix_sum += mix.smile.sharing_dollars(mix.id_of(index).unwrap());
            uni_sum += uniform.smile.sharing_dollars(uniform.id_of(index).unwrap());
        }
        group_rows.push(vec![
            label.to_string(),
            format!("{:.6}", uni_sum),
            format!("{:.6}", mix_sum),
            format!("{:+.0}%", 100.0 * (mix_sum - uni_sum) / uni_sum.max(1e-12)),
        ]);
    }
    print_table(
        "Figure 10 (groups): total cost per SLA group",
        &["group", "uniform $", "mix $", "change"],
        &group_rows,
    );
    println!("paper: S1–S7 become slightly dearer, S8–S25 much cheaper — tight-SLA sharings subsidize related loose ones");
}

// ----------------------------------------------------------------- fig 11

fn fig11(scale: Scale) {
    let duration = SimDuration::from_secs(45);
    let sustainable = |machines: usize, sharing_count: usize, rate: f64| -> bool {
        let cfg = RunConfig {
            machines,
            sharing_indexes: (1..=sharing_count).collect(),
            trace: RateTrace::Constant(rate),
            duration,
            prepopulate: 2_000,
            ..RunConfig::standard(RateTrace::Constant(rate), duration)
        };
        match run_experiment(&cfg) {
            Ok(out) => {
                // Stability: machine queues are not diverging and the
                // auditor saw no (or almost no) violations.
                let backlog = out.smile.cluster.max_backlog(out.smile.now());
                let viol = out.smile.snapshot.violations_per_sharing_hour();
                backlog < SimDuration::from_secs(2) && viol < 30.0
            }
            // Admission refuses: the fleet cannot even host the sharings.
            Err(_) => false,
        }
    };
    // Coarse rate grid (tweets/second as executed). With `--full` the grid
    // stretches by the scale factor so the knee still shows.
    let stretch = scale.rate_div / Scale::default_scale().rate_div;
    let grid: Vec<f64> = [
        100.0, 200.0, 300.0, 400.0, 500.0, 650.0, 800.0, 1000.0, 1200.0, 1500.0,
    ]
    .iter()
    .map(|r| r / stretch.max(1e-9))
    .collect();

    let mut rows = Vec::new();
    for machines in 2..=5usize {
        let mut best = 0.0f64;
        for &r in &grid {
            if sustainable(machines, 25, r) {
                best = r;
            } else {
                break;
            }
        }
        rows.push(vec![
            machines.to_string(),
            format!("{:.0}", best),
            format!("{:.0}", best * scale.rate_div),
        ]);
    }
    print_table(
        "Figure 11 (a): max sustainable rate vs machines (25 sharings, SLA 45 s)",
        &["machines", "rate (scaled)", "≈ paper tweets/s"],
        &rows,
    );
    println!("paper: rate grows from ≈2000 (2 machines) to ≈7000 (5 machines); each machine adds 25–30k tuples/s");

    let mut rows = Vec::new();
    for sharing_count in [20usize, 25, 30, 40, 50] {
        let mut best = 0.0f64;
        for &r in &grid {
            if sustainable(6, sharing_count, r) {
                best = r;
            } else {
                break;
            }
        }
        rows.push(vec![
            sharing_count.to_string(),
            format!("{:.0}", best),
            format!("{:.0}", best * scale.rate_div),
        ]);
    }
    print_table(
        "Figure 11 (c): max sustainable rate vs number of sharings (6 machines)",
        &["sharings", "rate (scaled)", "≈ paper tweets/s"],
        &rows,
    );
    println!("paper: rate decreases as sharings grow beyond 25 (more vertices/edges to manage)");
}

// ----------------------------------------------------------------- fig 12

fn fig12(scale: Scale) {
    let trace = RateTrace::Constant(scale.rate(1000.0));
    let duration = scale.duration(SimDuration::from_secs(1200));
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (label, objective, hc) in [
        ("DPT", Some(Objective::Time), false),
        ("DPD", Some(Objective::Dollars), false),
        ("DPT+HC", Some(Objective::Time), true),
        ("DPD+HC", Some(Objective::Dollars), true),
    ] {
        let cfg = RunConfig {
            force_objective: objective,
            hill_climb: hc,
            same_region_prices: true,
            // Plan under the paper's 1000 tweets/s statistics so placement
            // pressure (and thus removable redundancy) matches the paper;
            // capacity 4.0 models the EC2 large instances' multiple cores.
            assumed_rate: Some(1000.0),
            capacity: 4.0,
            ..RunConfig::standard(trace.clone(), duration)
        };
        let out = run_experiment(&cfg).expect("fig12 run");
        let dpss = out.dollars_per_sharing_second();
        results.push((label, dpss));
        rows.push(vec![label.to_string(), format!("{:.9}", dpss)]);
    }
    print_table(
        "Figure 12: average cost of DPT/DPD with and without hill climbing",
        &["plan", "$ / sharing-second"],
        &rows,
    );
    let dpt = results.iter().find(|(l, _)| *l == "DPT").unwrap().1;
    let dpt_hc = results.iter().find(|(l, _)| *l == "DPT+HC").unwrap().1;
    let dpd = results.iter().find(|(l, _)| *l == "DPD").unwrap().1;
    let dpd_hc = results.iter().find(|(l, _)| *l == "DPD+HC").unwrap().1;
    println!(
        "HC savings over merged: DPT {:.0}%, DPD {:.0}% (paper: 0.0042/0.0033/0.0025/0.0023 → ≈35%; DPD+HC cheapest)",
        100.0 * (dpt - dpt_hc) / dpt.max(1e-12),
        100.0 * (dpd - dpd_hc) / dpd.max(1e-12),
    );

    // Static steady-state analysis: how much does exploiting commonality
    // save relative to running every sharing's plan in isolation? (This
    // reproduction's merge step already removes the identical-duplicate
    // redundancy the paper's plumbing begins with, so the paper's headline
    // ">35% from amortizing work across sharings" corresponds to
    // isolated → merged+HC here.)
    let mut rows = Vec::new();
    for objective in [Objective::Time, Objective::Dollars] {
        let label = if objective == Objective::Time {
            "DPT"
        } else {
            "DPD"
        };
        let mut pconf = SmileConfig::with_machines(6);
        pconf.hill_climb = false;
        pconf.force_objective = Some(objective);
        pconf.capacity = 4.0;
        let mut smile = Smile::new(pconf);
        let workload = standard_setup(
            &mut smile,
            TwitterConfig {
                assumed_tweet_rate: 1000.0,
                ..TwitterConfig::default()
            },
            2_000,
        )
        .expect("setup");
        for (pin, s) in paper_sharings(&workload.rels()).into_iter().enumerate() {
            let m = MachineId::new(pin as u32 % 6);
            smile
                .submit_pinned(s.app, s.query, SimDuration::from_secs(45), 0.001, Some(m))
                .expect("submit");
        }
        let model = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_same_region();
        let isolated: f64 = smile
            .sharings()
            .iter()
            .map(|sh| {
                let planned = smile.planned(sh.id).unwrap();
                smile_core::plan::cost::res_cost(&planned.plan, &model, &prices)
            })
            .sum();
        let mut global = GlobalPlan::new();
        for (sharing, planned) in smile
            .sharings()
            .iter()
            .map(|sh| (sh.clone(), smile.planned(sh.id).unwrap().clone()))
            .collect::<Vec<_>>()
        {
            global.merge(&sharing, &planned).expect("merge");
        }
        let merged = global.total_cost(&model, &prices);
        hill_climb_filtered(&mut global, &model, &prices, 128, true);
        let merged_hc = global.total_cost(&model, &prices);
        rows.push(vec![
            label.to_string(),
            format!("{:.6}", isolated),
            format!("{:.6}", merged),
            format!("{:.6}", merged_hc),
            format!(
                "{:.0}%",
                100.0 * (isolated - merged_hc) / isolated.max(1e-12)
            ),
        ]);
    }
    print_table(
        "Figure 12 (analysis): steady-state $/s — isolated plans vs merged vs merged+HC",
        &[
            "plan",
            "isolated $/s",
            "merged $/s",
            "merged+HC $/s",
            "total saving",
        ],
        &rows,
    );
}

// ----------------------------------------------------------------- fig 13

fn fig13() {
    // Build the 25-sharing global plan for each objective and hill-climb
    // it, recording the trajectory (no workload run needed).
    for objective in [Objective::Time, Objective::Dollars] {
        let label = if objective == Objective::Time {
            "DPT"
        } else {
            "DPD"
        };
        let mut pconf = SmileConfig::with_machines(6);
        pconf.hill_climb = false;
        pconf.force_objective = Some(objective);
        pconf.capacity = 4.0;
        let mut smile = Smile::new(pconf);
        let workload = standard_setup(
            &mut smile,
            TwitterConfig {
                assumed_tweet_rate: 1000.0,
                ..TwitterConfig::default()
            },
            2_000,
        )
        .expect("setup");
        for (pin, s) in paper_sharings(&workload.rels()).into_iter().enumerate() {
            let m = MachineId::new(pin as u32 % 6);
            smile
                .submit_pinned(s.app, s.query, SimDuration::from_secs(45), 0.001, Some(m))
                .expect("submit");
        }
        // Recreate the global plan exactly as install would, then climb.
        let mut global = GlobalPlan::new();
        for (sharing, planned) in smile
            .sharings()
            .iter()
            .map(|s| (s.clone(), smile.planned(s.id).unwrap().clone()))
            .collect::<Vec<_>>()
        {
            global.merge(&sharing, &planned).expect("merge");
        }
        let model = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_same_region();
        let report = hill_climb_filtered(&mut global, &model, &prices, 128, true);
        let rows: Vec<Vec<String>> = report
            .trajectory
            .iter()
            .enumerate()
            .map(|(i, (v, e, c))| {
                vec![
                    i.to_string(),
                    v.to_string(),
                    e.to_string(),
                    format!("{:.8}", c),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 13: hill-climbing trajectory on {label} (25 sharings)"),
            &["iteration", "vertices", "edges", "$/s"],
            &rows,
        );
    }
    println!("paper: both plans shrink by ≈80 vertices+edges over ≈14 plumbing iterations");
}

// ----------------------------------------------------------------- fig 14

fn fig14(scale: Scale) {
    // 4 machines, sharings S1..S4; S4's SLA is 50 s, the others 20–70 s.
    let phase_secs = (240.0 / scale.duration_div).max(45.0) as u64;
    let phases = [(8usize, 50.0f64), (16, 75.0), (32, 100.0), (50, 150.0)];

    let mut pconf = SmileConfig::with_machines(4);
    pconf.hill_climb = true;
    let mut smile = Smile::new(pconf);
    let mut workload = standard_setup(
        &mut smile,
        TwitterConfig {
            assumed_tweet_rate: scale.rate(100.0),
            ..TwitterConfig::default()
        },
        2_000,
    )
    .expect("setup");
    let all = paper_sharings(&workload.rels());
    let slas = [20u64, 35, 70, 50];
    let mut ids = Vec::new();
    for (i, s) in all.into_iter().take(4).enumerate() {
        let id = smile
            .submit_pinned(
                s.app,
                s.query,
                SimDuration::from_secs(slas[i]),
                0.001,
                Some(MachineId::new(i as u32)),
            )
            .expect("submit");
        ids.push(id);
    }
    smile.install().expect("install");
    let s4 = ids[3];

    let mut phase_rows = Vec::new();
    for (users, paper_rate) in phases {
        let rate = scale.rate(paper_rate * 2.0); // keep some pressure at laptop scale
        let load = ReadLoad::new(ids.clone(), users);
        let end = smile.now() + SimDuration::from_secs(phase_secs);
        let mut integrator = smile_workload::rates::RateIntegrator::new(RateTrace::Constant(rate));
        let mut staleness_sum = 0.0;
        let mut staleness_peak = 0.0f64;
        let mut samples = 0usize;
        while smile.now() < end {
            let n = integrator.tick(smile.now(), SimDuration::from_secs(1));
            for (rel, batch) in workload.tweets(n, smile.now()) {
                smile.ingest(rel, batch).expect("ingest");
            }
            load.apply(&mut smile, SimDuration::from_secs(1))
                .expect("read load");
            smile.step().expect("step");
            let s = smile
                .executor
                .as_ref()
                .unwrap()
                .staleness(s4, smile.now())
                .unwrap()
                .as_secs_f64();
            staleness_sum += s;
            staleness_peak = staleness_peak.max(s);
            samples += 1;
        }
        phase_rows.push(vec![
            format!("{users} users, {rate:.0} tw/s"),
            format!("{:.1}", staleness_sum / samples.max(1) as f64),
            format!("{:.1}", staleness_peak),
            format!("{:.2}", smile.executor.as_ref().unwrap().model.inflation()),
        ]);
    }
    print_table(
        "Figure 14: S4 staleness under abrupt load changes (SLA 50 s)",
        &["phase", "mean stale s", "peak stale s", "model inflation"],
        &phase_rows,
    );
    let series = smile.snapshot.staleness_series(s4);
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|(t, s)| {
            vec![
                format!("{:.0}", t.as_secs_f64()),
                format!("{:.1}", s.as_secs_f64()),
            ]
        })
        .collect();
    print_table(
        "Figure 14: S4 staleness trace",
        &["t s", "staleness s"],
        &rows,
    );
    println!(
        "violations on S4: {} (paper: staleness never exceeds 40 s despite load)",
        smile.snapshot.violations_of(s4)
    );
}

// --------------------------------------------------------------- ablations

fn ablations(scale: Scale) {
    // (1) Lazy vs eager executor.
    let trace = RateTrace::Constant(scale.rate(1000.0));
    let duration = scale.duration(SimDuration::from_secs(1200));
    let mut rows = Vec::new();
    for (label, lazy) in [("lazy (paper)", true), ("eager every tick", false)] {
        let cfg = RunConfig {
            lazy,
            sharing_indexes: (1..=10).collect(),
            ..RunConfig::standard(trace.clone(), duration)
        };
        let out = run_experiment(&cfg).expect("ablation run");
        let exec = out.smile.executor.as_ref().unwrap();
        rows.push(vec![
            label.to_string(),
            exec.push_records.len().to_string(),
            exec.tuples_moved.to_string(),
            format!("{:.4}", out.dollars_per_sharing_hour()),
            out.smile.snapshot.violations_total().to_string(),
        ]);
    }
    print_table(
        "Ablation: lazy vs eager push scheduling (10 sharings)",
        &[
            "executor",
            "pushes",
            "tuples moved",
            "$/sharing-hour",
            "violations",
        ],
        &rows,
    );

    // (2) Copy-only vs full plumbing.
    let mut rows = Vec::new();
    for (label, allow_join) in [
        ("copy plumbing only", false),
        ("copy + join plumbing", true),
    ] {
        let mut pconf = SmileConfig::with_machines(6);
        pconf.hill_climb = false;
        let mut smile = Smile::new(pconf);
        let workload = standard_setup(&mut smile, TwitterConfig::default(), 2_000).expect("setup");
        for (pin, s) in paper_sharings(&workload.rels()).into_iter().enumerate() {
            let m = MachineId::new(pin as u32 % 6);
            smile
                .submit_pinned(s.app, s.query, SimDuration::from_secs(45), 0.001, Some(m))
                .expect("submit");
        }
        let mut global = GlobalPlan::new();
        for (sharing, planned) in smile
            .sharings()
            .iter()
            .map(|s| (s.clone(), smile.planned(s.id).unwrap().clone()))
            .collect::<Vec<_>>()
        {
            global.merge(&sharing, &planned).expect("merge");
        }
        let model = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_same_region();
        let before = global.total_cost(&model, &prices);
        let report = hill_climb_filtered(&mut global, &model, &prices, 128, allow_join);
        let after = global.total_cost(&model, &prices);
        rows.push(vec![
            label.to_string(),
            report.applied.len().to_string(),
            format!("{:.1}%", 100.0 * (before - after) / before.max(1e-12)),
        ]);
    }
    print_table(
        "Ablation: plumbing kinds (25 sharings, merge-only baseline)",
        &["hill climbing", "ops applied", "cost reduction"],
        &rows,
    );

    // (3) Over-provisioning term on/off in Eq. 1 (reporting-level).
    let mut pconf = SmileConfig::with_machines(6);
    pconf.hill_climb = false;
    let mut smile = Smile::new(pconf);
    let workload = standard_setup(&mut smile, TwitterConfig::default(), 2_000).expect("setup");
    let model = TimeCostModel::paper_defaults();
    let prices = PriceSheet::ec2_cross_zone();
    let mut rows = Vec::new();
    for s in paper_sharings(&workload.rels()).into_iter().take(6) {
        let sharing = smile_core::sharing::Sharing::new(
            smile_types::SharingId::new(s.index as u32),
            s.app,
            s.query.clone(),
            SimDuration::from_secs(10),
            0.001,
        );
        let opt = Optimizer::new(&smile.catalog, smile.cluster.machine_ids(), &model, &prices);
        let planned = opt.plan_admission(&sharing, Default::default(), None).unwrap();
        let mv_rate = planned.plan.vertex(planned.mv).est_rate;
        let with = plan_cost(
            &planned.plan,
            &model,
            &prices,
            SimDuration::from_secs(10),
            0.001,
            mv_rate,
        );
        // Without over-provisioning: resCost + penalty only.
        let rescost = smile_core::plan::cost::res_cost(&planned.plan, &model, &prices);
        let cp = critical_path(&planned.plan, 1.0, &model).as_secs_f64();
        let without = with - rescost * (cp / 10.0);
        rows.push(vec![
            format!("S{}", s.index),
            format!("{:.9}", without),
            format!("{:.9}", with),
            format!("{:.1}%", 100.0 * (with - without) / without.max(1e-15)),
        ]);
    }
    print_table(
        "Ablation: Eq. 1 over-provisioning term (SLA 10 s)",
        &["id", "$/s without", "$/s with", "uplift"],
        &rows,
    );

    // (4) Feedback on/off under a load spike: does the model track it?
    let mut rows = Vec::new();
    for (label, feedback) in [("feedback on", true), ("feedback off", false)] {
        let mut pconf = SmileConfig::with_machines(2);
        pconf.exec.feedback = feedback;
        let mut smile = Smile::new(pconf);
        let mut workload =
            standard_setup(&mut smile, TwitterConfig::default(), 1_000).expect("setup");
        let all = paper_sharings(&workload.rels());
        let s5 = all.into_iter().find(|s| s.index == 5).unwrap();
        let id = smile
            .submit(s5.app, s5.query, SimDuration::from_secs(25), 0.001)
            .expect("submit");
        smile.install().expect("install");
        // Load spike via a heavy reader population.
        let load = ReadLoad::new(vec![id], 60);
        let mut integrator =
            smile_workload::rates::RateIntegrator::new(RateTrace::Constant(scale.rate(1000.0)));
        let end = smile.now() + SimDuration::from_secs(120);
        while smile.now() < end {
            let n = integrator.tick(smile.now(), SimDuration::from_secs(1));
            for (rel, batch) in workload.tweets(n, smile.now()) {
                smile.ingest(rel, batch).expect("ingest");
            }
            load.apply(&mut smile, SimDuration::from_secs(1))
                .expect("load");
            smile.step().expect("step");
        }
        let exec = smile.executor.as_ref().unwrap();
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", exec.model.inflation()),
            smile.snapshot.violations_total().to_string(),
        ]);
    }
    print_table(
        "Ablation: time-model feedback under reader load spike",
        &["config", "final inflation", "violations"],
        &rows,
    );
}
