//! The SMILE benchmark: one command, four workloads, end-to-end metrics
//! from untraced runs and layer metrics from a traced pass.
//!
//! ```text
//! smile-benchmark --workload W --seed N --seconds S --trace 0|1   one run
//! smile-benchmark [--workload W] [--reps R] [--seed N]            the suite
//! smile-benchmark --check a.json b.json                           compare
//! ```
//!
//! One run prints, as its last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the suite runs every
//! workload `R` times in fresh child processes of this same binary,
//! interleaved, then one traced pass each, and writes `out/result.json`.

mod check;
mod json;
mod layers;
mod metrics;
mod probe;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::Workload;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 7;

fn usage() -> ExitCode {
    eprintln!(
        "usage: smile-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      smile-benchmark [--workload <name>] [--reps <r>] [--seed <n>] [--seconds <s>]\n\
         \x20      smile-benchmark --check <a.json> <b.json>\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// Command-line options; `None` where the flag was not given.
#[derive(Default)]
struct Options {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    reps: Option<usize>,
    check: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Option<Options> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => o.workload = Some(Workload::parse(it.next()?)?),
            "--seed" => o.seed = Some(it.next()?.parse().ok()?),
            "--seconds" => {
                o.seconds = Some(it.next()?.parse().ok().filter(|s| (1..=60).contains(s))?)
            }
            "--trace" => {
                o.trace = Some(match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--reps" => o.reps = Some(it.next()?.parse().ok().filter(|r| *r >= 1)?),
            "--check" => o.check = Some((it.next()?.clone(), it.next()?.clone())),
            _ => return None,
        }
    }
    Some(o)
}

fn metrics_object(defs: &[MetricDef], values: &[f64]) -> Json {
    Json::obj(defs.iter().zip(values).map(|(d, v)| {
        (
            d.name,
            Json::obj([("value", Json::Num(*v)), ("unit", Json::str(d.unit))]),
        )
    }))
}

/// One run, as the driver invokes it. Prints a `detail` line (what the
/// suite reads: deterministic counts, digest, sample counts) and then the
/// result line.
fn one_run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> smile_types::Result<bool> {
    let (metrics, verified, attempted, mut detail) = if trace {
        let t = layers::run_traced(workload, seed, seconds)?;
        let detail = vec![("trace_path", Json::str(t.trace_path.display().to_string()))];
        (
            metrics_object(PER_LAYER, &t.values),
            t.verified,
            t.attempted,
            detail,
        )
    } else {
        let t = run::run_timed(workload, seed, seconds)?;
        let first = &t.passes[0].log;
        let per_pass = |f: &dyn Fn(&run::Pass) -> f64| {
            Json::Arr(t.passes.iter().map(|p| Json::Num(f(p))).collect())
        };
        let detail = vec![
            // As the clock read them, before any correction, one per pass.
            ("drive_s", per_pass(&|p| p.log.busy_s())),
            ("host_index", per_pass(&|p| p.log.host_index())),
            // Each pass's own total at reference speed: what the suite
            // compares the (single-pass) traced drive with.
            (
                "drive_at_reference_s",
                per_pass(&|p| p.log.busy_s() / p.log.host_index()),
            ),
            ("gen_s", Json::Num(first.gen_s)),
            ("entries", Json::Num(first.entries as f64)),
            ("passes", Json::Num(t.passes.len() as f64)),
            ("tick_samples", Json::Num(first.tick_s.len() as f64)),
            (
                "setup_samples",
                Json::Num(t.setups_at_reference().len() as f64),
            ),
            ("tuples_moved", Json::Num(t.sim.tuples_moved as f64)),
            ("pushes", Json::Num(t.sim.pushes as f64)),
            ("sla_missed", Json::Num(t.sim.sla_missed as f64)),
            ("dollars", Json::Num(t.sim.dollars)),
            (
                "staleness_peak_ratio",
                Json::Num(t.sim.staleness_peak_ratio),
            ),
        ];
        let (metrics, attempted) = (metrics_object(END_TO_END, &t.end_to_end()), t.attempted());
        (metrics, t.verified, attempted, detail)
    };
    detail.extend([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("ticks", Json::Num(run::ticks_for(workload, seconds) as f64)),
        ("nproc", Json::Num(run::nproc() as f64)),
        ("workers", Json::Num(run::TIMED_WORKERS as f64)),
        ("mvs_checked", Json::Num(verified.checked as f64)),
        ("mv_digest", Json::str(format!("{:016x}", verified.digest))),
    ]);
    let correct = verified.mismatched == 0;
    println!("{}", Json::obj([("detail", Json::obj(detail))]));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(verified.mismatched as f64)),
            ("metrics", metrics),
        ])
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(o) = parse_args(&args) else {
        return usage();
    };
    let outcome = if let Some((a, b)) = &o.check {
        check::check_files(a, b)
    } else if let (Some(trace), None) = (o.trace, o.reps) {
        let Some(workload) = o.workload else {
            return usage();
        };
        one_run(
            workload,
            o.seed.unwrap_or(DEFAULT_SEED),
            o.seconds.unwrap_or_else(suite::run_seconds),
            trace,
        )
        .map_err(|e| e.to_string())
    } else {
        suite::run_suite(
            o.workload,
            o.reps.unwrap_or(3),
            o.seed.unwrap_or(DEFAULT_SEED),
            o.seconds.unwrap_or_else(suite::run_seconds),
        )
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("smile-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
