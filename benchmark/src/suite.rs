//! The suite: every workload `reps` times, interleaved (A B C D A B C D …)
//! so that a slow minute on the host touches each workload once rather
//! than one workload three times, each rep in a fresh child process of
//! this binary so that `peak_rss_mb` belongs to one workload; then one
//! traced pass per workload. Medians, extremes and the noise verdict go to
//! `out/result.json`, which `--check` compares.

use crate::json::Json;
use crate::layers::out_dir;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{highest_supported, Summary};
use crate::workloads::Workload;
use std::process::{Command, Stdio};

/// Simulated seconds each workload drives at full scale (the paper's
/// 40-minute window for the Twitter workloads).
fn full_scale_ticks(w: Workload) -> f64 {
    match w {
        Workload::Fig5Gardenhose | Workload::AggRetract => 2_400.0,
        Workload::FleetIdle => 3_600.0,
        Workload::AdmitChurn => 1_000.0,
    }
}

/// The parsed `BENCHMARK.json` at the repository root.
pub fn benchmark_spec() -> Result<Json, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `run_seconds` of `BENCHMARK.json` (the default for `--seconds`).
pub fn run_seconds() -> u64 {
    benchmark_spec()
        .ok()
        .and_then(|s| s.get("run_seconds").and_then(Json::as_f64))
        .map_or(12, |s| s as u64)
}

/// The regression bound of each end-to-end metric, by name.
pub fn bounds(spec: &Json) -> Result<Vec<(String, f64)>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: metric without name or bound".to_string())
        })
        .collect()
}

/// What one child run printed: its `detail` object and its result object.
struct ChildRun {
    detail: Json,
    result: Json,
}

fn child(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `output` waits for the child to end and reaps it.
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("a run printed nothing")?;
    let detail = lines.next().ok_or("a run printed no detail line")?;
    let parsed = ChildRun {
        detail: Json::parse(detail)?
            .get("detail")
            .cloned()
            .ok_or("a run's detail line has no detail")?,
        result: Json::parse(result)?,
    };
    if !out.status.success() && parsed.result.get("correct").and_then(Json::as_bool) != Some(false)
    {
        return Err(format!(
            "a run of {} failed: {}",
            workload.name(),
            out.status
        ));
    }
    Ok(parsed)
}

fn metric_value(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("a run did not report {name}"))
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The counts that must be identical in every rep of one seed.
const DETERMINISTIC: [&str; 6] = [
    "entries",
    "tuples_moved",
    "pushes",
    "sla_missed",
    "dollars",
    "mv_digest",
];

/// One end-to-end metric over the reps of one workload, as stored in the
/// result file.
pub fn summary_json(s: &Summary, unit: &str, bound: f64, samples: Option<f64>) -> Json {
    let mut pairs = vec![
        ("median", Json::Num(s.median)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("n", Json::Num(s.n as f64)),
        ("unit", Json::str(unit)),
        ("bound", Json::Num(bound)),
        ("unresolved", Json::Bool(s.spread() > bound)),
    ];
    if let Some(samples) = samples {
        pairs.push(("samples", Json::Num(samples)));
    }
    Json::obj(pairs)
}

/// `v` with six significant digits, so that both 0.0000216 usd and
/// 9,115,984 tuples read well in one column.
pub fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.decimals$}")
}

/// Samples behind one rep's value of an end-to-end metric, where the
/// metric is a statistic over many.
fn samples_of(metric: &str, detail: &Json) -> Option<f64> {
    let key = match metric {
        "tick_ms_p99" | "ingest_tuples_per_s" => "tick_samples",
        "setup_s" => "setup_samples",
        _ => return None,
    };
    detail.get(key).and_then(Json::as_f64)
}

/// Member `key` of `j`, or `null`.
fn field(j: &Json, key: &str) -> Json {
    j.get(key).cloned().unwrap_or(Json::Null)
}

/// Numeric member `key` of `j`, or 0.
fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Prints one workload's metrics and returns its section of the result
/// file, and whether every run was correct and deterministic.
fn report_workload(
    w: Workload,
    reps_of_w: &[ChildRun],
    traced: &ChildRun,
    bounds: &[(String, f64)],
) -> Result<(Json, bool), String> {
    println!("\n== {} ==", w.name());

    let mut end_to_end = Vec::new();
    for (def, (_, bound)) in END_TO_END.iter().zip(bounds) {
        let values = reps_of_w
            .iter()
            .map(|r| metric_value(&r.result, def.name))
            .collect::<Result<Vec<f64>, String>>()?;
        let s = Summary::of(&values);
        let samples = samples_of(def.name, &reps_of_w[0].detail);
        println!(
            "{:<28} {:>14} {:<6} min {:<12} max {:<12} reps {}{}{}",
            def.name,
            sig(s.median),
            def.unit,
            sig(s.min),
            sig(s.max),
            s.n,
            samples.map_or(String::new(), |n| {
                // The highest percentile this many samples support.
                let up_to = highest_supported(n as usize).map_or("none", |(_, label)| label);
                format!("  samples {n} (percentiles up to {up_to})")
            }),
            if s.spread() > *bound {
                "  UNRESOLVED"
            } else {
                ""
            },
        );
        end_to_end.push((def.name, summary_json(&s, def.unit, *bound, samples)));
    }

    // Deterministic counts: every rep and the traced pass ran the same
    // seed, so they must agree exactly.
    let first = &reps_of_w[0].detail;
    let mut identical = true;
    for key in DETERMINISTIC {
        let differs = |d: &Json| d.get(key) != first.get(key);
        let in_reps = reps_of_w.iter().any(|r| differs(&r.detail));
        // The traced pass reports the digest only.
        let in_trace = key == "mv_digest" && differs(&traced.detail);
        if in_reps || in_trace {
            identical = false;
            println!("DIFFERS between runs of one seed: {key}");
        }
    }
    let total = |key: &str| -> f64 {
        reps_of_w
            .iter()
            .chain([traced])
            .map(|r| num(&r.result, key))
            .sum()
    };
    let (attempted, failed) = (total("attempted"), total("failed"));
    let failed_op_ratio = (failed + if identical { 0.0 } else { 1.0 }) / (attempted + 1.0);

    // Both sides at reference speed (the traced drive runs minutes after
    // the untraced ones) and both one pass long: a tick's smallest reading
    // over two passes would flatter the untraced side.
    let drives: Vec<f64> = reps_of_w
        .iter()
        .filter_map(|r| r.detail.get("drive_at_reference_s").and_then(Json::as_arr))
        .flatten()
        .filter_map(Json::as_f64)
        .collect();
    if drives.is_empty() {
        return Err(format!("{}: no untraced drive times", w.name()));
    }
    let drive = Summary::of(&drives);
    let traced_drive = metric_value(&traced.result, "harness.traced_drive_s")?
        / metric_value(&traced.result, "harness.host_index")?;
    let overhead_pct = (traced_drive / drive.median - 1.0) * 100.0;
    println!("failed_op_ratio              {failed_op_ratio:>14.6}");
    println!(
        "trace_overhead_pct           {overhead_pct:>14.2} %  (traced drive vs median untraced)"
    );
    println!("-- layers (traced pass) --");
    let mut per_layer = Vec::new();
    for def in PER_LAYER {
        let v = metric_value(&traced.result, def.name)?;
        println!("{:<40} {:>16} {}", def.name, sig(v), def.unit);
        per_layer.push((
            def.name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::str(def.unit))]),
        ));
    }
    let ticks = num(first, "ticks");
    let section = Json::obj([
        ("ticks", Json::Num(ticks)),
        ("scale", Json::Num(ticks / full_scale_ticks(w))),
        ("end_to_end", Json::obj(end_to_end)),
        (
            "deterministic",
            Json::obj(
                DETERMINISTIC
                    .iter()
                    .map(|k| (*k, field(first, k)))
                    .chain([("identical", Json::Bool(identical))]),
            ),
        ),
        ("failed_op_ratio", Json::Num(failed_op_ratio)),
        ("trace_overhead_pct", Json::Num(overhead_pct)),
        ("trace_path", field(&traced.detail, "trace_path")),
        ("per_layer", Json::obj(per_layer)),
    ]);
    Ok((section, identical && failed == 0.0))
}

/// Runs the suite and writes `out/result.json`. `Ok(false)` when any run
/// was incorrect or any deterministic count differed between reps.
pub fn run_suite(
    only: Option<Workload>,
    reps: usize,
    seed: u64,
    seconds: u64,
) -> Result<bool, String> {
    let spec = benchmark_spec()?;
    let bounds = bounds(&spec)?;
    let workloads: Vec<Workload> = Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
        .collect();
    let mut runs: Vec<Vec<ChildRun>> = workloads.iter().map(|_| Vec::new()).collect();
    for rep in 0..reps {
        for (i, w) in workloads.iter().enumerate() {
            eprintln!("rep {}/{reps}: {}", rep + 1, w.name());
            runs[i].push(child(*w, seed, seconds, false)?);
        }
    }
    let mut ok = true;
    let mut sections = Vec::new();
    for (w, reps_of_w) in workloads.iter().zip(&runs) {
        eprintln!("traced pass: {}", w.name());
        let traced = child(*w, seed, seconds, true)?;
        let (section, clean) = report_workload(*w, reps_of_w, &traced, &bounds)?;
        ok &= clean;
        sections.push((w.name(), section));
    }
    let first_detail = &runs[0][0].detail;
    let result = Json::obj([
        ("schema", Json::str("smile-benchmark/1")),
        ("seed", Json::Num(seed as f64)),
        ("reps", Json::Num(reps as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("nproc", field(first_detail, "nproc")),
        ("workers", field(first_detail, "workers")),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("workloads", Json::obj(sections)),
    ]);
    let path = out_dir().join("result.json");
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    std::fs::write(&path, format!("{result}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(ok)
}
