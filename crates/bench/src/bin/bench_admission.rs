//! BENCH_0005 — admission scale-out through the merge catalog, swept
//! 1k → 100k sharings.
//!
//! Measures the *admission* path in isolation (JOINCOST planning + global
//! merge + capacity accounting): committed utilization tracked
//! incrementally, `GlobalPlan::merge_indexed` through the [`MergeCatalog`],
//! SHR membership extended in place. Per-admission work is bounded by the
//! new sharing's own plan, not the resident population.
//!
//! The workload mixes four two-way join shapes over six base relations with
//! an equality predicate whose literal is `isqrt(i)`, so the number of
//! *distinct* plan structures grows ~√N while every structure costs the
//! same steady-state rate: later admissions increasingly dedup into
//! resident structures, which is what drives the falling per-sharing
//! marginal dollar cost the paper's sharing economics predict.
//!
//! The committed `results/BENCH_0005.json` was emitted at PR 5, when a
//! scan-all-plans admission path still existed; its `brute` section and
//! the speedups against it are a historical record and are not re-emitted.
//!
//! Bars enforced by `--validate`:
//! * `marginal_cost_monotone` = the per-window marginal dollar rate per
//!   sharing never increases across the sweep (required), with
//!   `marginal_cost_top < marginal_cost_first`;
//! * `p99_growth_ratio` = p99 at top ÷ at first checkpoint (≤ 10 required:
//!   admission latency stays flat while N grows 100×).

use smile_core::catalog::{BaseStats, Catalog};
use smile_core::merge_catalog::MergeCatalog;
use smile_core::multi::GlobalPlan;
use smile_core::optimizer::Optimizer;
use smile_core::plan::cost::{machine_utilization, Scope};
use smile_core::plan::timecost::TimeCostModel;
use smile_core::sharing::Sharing;
use smile_sim::PriceSheet;
use smile_storage::join::JoinOn;
use smile_storage::{Predicate, SpjQuery};
use smile_types::{Column, ColumnType, MachineId, RelationId, Schema, SharingId, SimDuration};
use std::collections::HashMap;
use std::time::Instant;

const MACHINES: usize = 6;
const RELATIONS: u32 = 6;
const SHAPES: u32 = 4;
/// Effectively unlimited admission capacity: the sweep measures merge
/// mechanics, not rejection behaviour, so every sharing must admit.
const CAPACITY: f64 = 1e12;

struct Config {
    mode: &'static str,
    /// Sweep checkpoints (cumulative sharing counts).
    indexed_checkpoints: &'static [usize],
}

impl Config {
    fn full() -> Self {
        Self {
            mode: "full",
            indexed_checkpoints: &[1000, 2000, 5000, 10_000, 20_000, 50_000, 100_000],
        }
    }

    fn quick() -> Self {
        Self {
            mode: "quick",
            indexed_checkpoints: &[250, 500, 1000, 2000],
        }
    }
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for r in 0..RELATIONS {
        let card = 50_000.0 + 25_000.0 * r as f64;
        c.register_base(
            format!("rel{r}"),
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
        );
    }
    c
}

/// The i-th sharing of the sweep. Shape cycles over four join pairs; the
/// equality literal advances as `isqrt(i)`, so distinct structures appear
/// at a falling ~1/(2√i) rate while each one's steady-state rate stays
/// constant (equality selectivity is 1/distinct regardless of the literal).
fn sharing(i: usize) -> Sharing {
    let shape = (i as u32) % SHAPES;
    let k = (i as f64).sqrt().floor() as i64;
    let (a, b) = (shape, (shape + 1) % RELATIONS);
    let q = SpjQuery::scan(RelationId::new(a)).join(
        RelationId::new(b),
        JoinOn::on(1, 0),
        Predicate::eq(2, k),
    );
    Sharing::new(
        SharingId::new(i as u32 + 1),
        format!("S{i}"),
        q,
        SimDuration::from_secs(120),
        0.001,
    )
}

fn mv_pin(i: usize) -> Option<MachineId> {
    Some(MachineId::new((i as u32) % MACHINES as u32))
}

fn p99_us(window: &mut Vec<u64>) -> f64 {
    window.sort_unstable();
    let v = smile_bench::percentile_sorted(window, 0.99);
    window.clear();
    v
}

struct Checkpoint {
    n: usize,
    window_p99_us: f64,
    /// Plan dollar rate at this population.
    total_cost: f64,
    /// Δ(dollar rate) per admitted sharing since the previous checkpoint.
    marginal_cost: f64,
}

struct IndexedRun {
    checkpoints: Vec<Checkpoint>,
    catalog_hits: u64,
    catalog_misses: u64,
    catalog_entries: usize,
    plan_vertices: usize,
    plan_edges: usize,
}

fn run_indexed(cat: &Catalog, cfg: &Config, model: &TimeCostModel, prices: &PriceSheet) -> IndexedRun {
    let machines: Vec<MachineId> = (0..MACHINES as u32).map(MachineId::new).collect();
    let mut g = GlobalPlan::new();
    let mut mc = MergeCatalog::new();
    let mut committed: HashMap<MachineId, f64> = HashMap::new();
    let mut window: Vec<u64> = Vec::new();
    let mut checkpoints = Vec::new();
    let (mut prev_n, mut prev_cost) = (0usize, 0.0f64);
    let total = *cfg.indexed_checkpoints.last().unwrap();
    for i in 0..total {
        let s = sharing(i);
        let started = Instant::now();
        let opt = Optimizer::new(cat, machines.clone(), model, prices)
            .with_committed(committed.clone())
            .with_capacity(CAPACITY)
            .with_mv_machine(mv_pin(i));
        let planned = opt
            .plan_pair(&s)
            .and_then(|p| p.choose(&s))
            .expect("admission under unlimited capacity");
        g.merge_indexed(&s, &planned, &mut mc).expect("merge");
        for (m, u) in machine_utilization(&planned.plan, Scope::All, model) {
            *committed.entry(m).or_default() += u;
        }
        window.push(started.elapsed().as_micros() as u64);
        if cfg.indexed_checkpoints.contains(&(i + 1)) {
            let n = i + 1;
            let cost = g.total_cost(model, prices);
            checkpoints.push(Checkpoint {
                n,
                window_p99_us: p99_us(&mut window),
                total_cost: cost,
                marginal_cost: (cost - prev_cost) / (n - prev_n) as f64,
            });
            prev_n = n;
            prev_cost = cost;
        }
    }
    IndexedRun {
        checkpoints,
        catalog_hits: mc.hits,
        catalog_misses: mc.misses,
        catalog_entries: mc.len(),
        plan_vertices: g.plan.vertex_count(),
        plan_edges: g.plan.edge_count(),
    }
}

fn emit_json(cfg: &Config, ix: &IndexedRun) -> String {
    let first = ix.checkpoints.first().unwrap();
    let top = ix.checkpoints.last().unwrap();
    let monotone = ix
        .checkpoints
        .windows(2)
        .all(|w| w[1].marginal_cost <= w[0].marginal_cost * (1.0 + 1e-9) + 1e-15);
    let ix_rows: Vec<String> = ix
        .checkpoints
        .iter()
        .map(|c| {
            format!(
                "      {{ \"n\": {}, \"window_p99_us\": {:.1}, \"total_cost_per_sec\": {:.9}, \"marginal_cost\": {:.12} }}",
                c.n, c.window_p99_us, c.total_cost, c.marginal_cost
            )
        })
        .collect();
    format!(
        r#"{{
  "bench_id": "BENCH_0005",
  "config": {{
    "mode": "{mode}",
    "machines": {machines},
    "relations": {relations},
    "shapes": {shapes},
    "capacity": {capacity:e}
  }},
  "indexed": {{
    "sharings": {sharings},
    "p99_us_first": {p99_first:.1},
    "p99_us_top": {p99_top:.1},
    "p99_growth_ratio": {growth:.3},
    "marginal_cost_first": {mc_first:.12},
    "marginal_cost_top": {mc_top:.12},
    "marginal_cost_monotone": {monotone},
    "catalog_hits": {hits},
    "catalog_misses": {misses},
    "catalog_entries": {entries},
    "plan_vertices": {verts},
    "plan_edges": {edges},
    "checkpoints": [
{ix_rows}
    ]
  }}
}}
"#,
        mode = cfg.mode,
        machines = MACHINES,
        relations = RELATIONS,
        shapes = SHAPES,
        capacity = CAPACITY,
        sharings = top.n,
        p99_first = first.window_p99_us,
        p99_top = top.window_p99_us,
        growth = top.window_p99_us / first.window_p99_us,
        mc_first = first.marginal_cost,
        mc_top = top.marginal_cost,
        monotone = monotone as u8,
        hits = ix.catalog_hits,
        misses = ix.catalog_misses,
        entries = ix.catalog_entries,
        verts = ix.plan_vertices,
        edges = ix.plan_edges,
        ix_rows = ix_rows.join(",\n"),
    )
}

/// The number that follows `"key":`. Every validated key is unique in the
/// schema, so a flat scan is unambiguous.
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
    if !json.contains("\"bench_id\": \"BENCH_0005\"") {
        return Err("missing or wrong bench_id".into());
    }
    let num = |key: &str| get_num(&json, key).ok_or_else(|| format!("missing numeric {key}"));
    for key in [
        "machines",
        "sharings",
        "p99_us_first",
        "p99_us_top",
        "marginal_cost_first",
        "catalog_hits",
        "catalog_misses",
        "catalog_entries",
        "plan_vertices",
        "plan_edges",
    ] {
        if num(key)? <= 0.0 {
            return Err(format!("{key} must be positive"));
        }
    }
    if num("marginal_cost_monotone")? != 1.0 {
        return Err("per-sharing marginal cost did not fall monotonically".into());
    }
    let (mc_first, mc_top) = (num("marginal_cost_first")?, num("marginal_cost_top")?);
    if mc_top >= mc_first {
        return Err(format!(
            "marginal cost did not fall: first {mc_first:e}, top {mc_top:e}"
        ));
    }
    let growth = num("p99_growth_ratio")?;
    if growth > 10.0 {
        return Err(format!(
            "admission p99 grew {growth:.1}x across the sweep — admission is not sublinear"
        ));
    }
    // The merged plan must be strictly smaller than the unshared sum: with
    // heavy structure reuse, vertex count stays far below sharings × plan
    // size, and hits dominate misses late in the sweep.
    if num("plan_vertices")? >= num("sharings")? * 7.0 {
        return Err("no structure sharing: vertices grew with the unshared sum".into());
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
        .unwrap_or_else(|| "results/BENCH_0005.json".to_string());

    let cat = catalog();
    let model = TimeCostModel::paper_defaults();
    let prices = PriceSheet::ec2_cross_zone();

    let top = *cfg.indexed_checkpoints.last().unwrap();
    eprintln!("admission sweep ({}): to {top} sharings ...", cfg.mode);
    let started = Instant::now();
    let ix = run_indexed(&cat, &cfg, &model, &prices);
    eprintln!(
        "  {} sharings in {:.1}s, p99 {:.0} -> {:.0} us, catalog {} entries ({} hits / {} misses)",
        top,
        started.elapsed().as_secs_f64(),
        ix.checkpoints.first().unwrap().window_p99_us,
        ix.checkpoints.last().unwrap().window_p99_us,
        ix.catalog_entries,
        ix.catalog_hits,
        ix.catalog_misses,
    );
    let json = emit_json(&cfg, &ix);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out, json).expect("write BENCH json");
    println!("wrote {out}");
}
