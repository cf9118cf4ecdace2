//! `--check a.json b.json`: compares two result files of the suite, metric
//! by metric and workload by workload, against the bounds in
//! `BENCHMARK.json`.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::Summary;
use crate::suite;

/// The verdict on one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// One side's own runs disagree by more than the bound, so neither
    /// "unchanged" nor "regressed" can be claimed.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median in the first file.
    pub a: f64,
    /// Median in the second file.
    pub b: f64,
    /// By what share of `a` the second median is worse (negative: better).
    pub worse_by: f64,
    /// Widest (max − min) ÷ median of the two sides.
    pub spread: f64,
    /// The bound applied.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn field(metric: &Json, key: &str) -> Result<f64, String> {
    metric
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("metric without {key}"))
}

fn spread_of(metric: &Json) -> Result<f64, String> {
    Ok(Summary {
        median: field(metric, "median")?,
        min: field(metric, "min")?,
        max: field(metric, "max")?,
        n: 0,
    }
    .spread())
}

/// Compares every workload present in both results.
pub fn compare(a: &Json, b: &Json, bounds: &[(String, f64)]) -> Result<Vec<Row>, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first result has no workloads")?;
    let mut rows = Vec::new();
    for (workload, section_a) in workloads {
        let Some(section_b) = b.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        for def in END_TO_END {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == def.name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
            let get = |s: &Json| {
                s.get("end_to_end")
                    .and_then(|e| e.get(def.name))
                    .cloned()
                    .ok_or_else(|| format!("{workload}: no {}", def.name))
            };
            let (ma, mb) = (get(section_a)?, get(section_b)?);
            let (va, vb) = (field(&ma, "median")?, field(&mb, "median")?);
            let delta = if def.higher_is_better {
                va - vb
            } else {
                vb - va
            };
            // End-to-end metrics are never 0 by choice; a 0 baseline has no
            // relative change to speak of.
            let worse_by = if va == 0.0 { 0.0 } else { delta / va.abs() };
            let spread = spread_of(&ma)?.max(spread_of(&mb)?);
            let verdict = if spread > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name.to_string(),
                a: va,
                b: vb,
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Workloads whose deterministic counts (simulated outcome, MV digest)
/// differ between the two results, or within either.
pub fn deterministic_differences(a: &Json, b: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let Some(workloads) = a.get("workloads").and_then(Json::as_obj) else {
        return out;
    };
    let same_inputs = a.get("seed") == b.get("seed") && a.get("seconds") == b.get("seconds");
    for (workload, section_a) in workloads {
        let Some(section_b) = b.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        let (da, db) = (
            section_a.get("deterministic"),
            section_b.get("deterministic"),
        );
        let identical =
            |d: Option<&Json>| d.and_then(|d| d.get("identical")).and_then(Json::as_bool);
        if identical(da) != Some(true) || identical(db) != Some(true) || (same_inputs && da != db) {
            out.push(workload.clone());
        }
    }
    out
}

/// Reads two result files, prints one row per (metric, workload), and
/// returns whether nothing regressed and the deterministic counts agree.
pub fn check_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (ja, jb) = (read(a)?, read(b)?);
    let bounds = suite::bounds(&suite::benchmark_spec()?)?;
    let rows = compare(&ja, &jb, &bounds)?;
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse by", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<26} {:>14} {:>14} {:>8.1}% {:>7.1}% {:>5.1}%  {}",
            r.workload,
            r.metric,
            suite::sig(r.a),
            suite::sig(r.b),
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    let differing = deterministic_differences(&ja, &jb);
    for w in &differing {
        println!("{w:<16} deterministic counts DIFFER");
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved, {} workloads with differing deterministic counts",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        differing.len()
    );
    Ok(count(Verdict::Regressed) == 0 && differing.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::summary_json;

    /// A hand-made result file: one workload, every end-to-end metric at
    /// `value` ± `noise` (as a share), higher-is-better ones included.
    fn result(value: f64, noise: f64, digest: &str) -> Json {
        let metrics = END_TO_END.iter().map(|d| {
            let s = Summary::of(&[value * (1.0 - noise), value, value * (1.0 + noise)]);
            (d.name, summary_json(&s, d.unit, 0.1, None))
        });
        Json::obj([
            ("seed", Json::Num(7.0)),
            ("seconds", Json::Num(8.0)),
            (
                "workloads",
                Json::obj([(
                    "fig5_gardenhose",
                    Json::obj([
                        ("end_to_end", Json::obj(metrics)),
                        (
                            "deterministic",
                            Json::obj([
                                ("mv_digest", Json::str(digest)),
                                ("identical", Json::Bool(true)),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    fn bounds() -> Vec<(String, f64)> {
        END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), 0.1))
            .collect()
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn within_bounds_is_ok() {
        // 5% away in either direction, 2% spread, 10% bound.
        let rows = compare(
            &result(100.0, 0.01, "d"),
            &result(105.0, 0.01, "d"),
            &bounds(),
        )
        .unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        let rows = compare(
            &result(100.0, 0.01, "d"),
            &result(95.0, 0.01, "d"),
            &bounds(),
        )
        .unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn worse_by_more_than_the_bound_is_regressed_in_the_bad_direction_only() {
        // Every metric 20% larger: bad for lower-is-better, good otherwise.
        let rows = compare(
            &result(100.0, 0.01, "d"),
            &result(120.0, 0.01, "d"),
            &bounds(),
        )
        .unwrap();
        assert_eq!(verdict_of(&rows, "tick_ms_p99"), Verdict::Regressed);
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Regressed);
        assert_eq!(verdict_of(&rows, "ingest_tuples_per_s"), Verdict::Ok);
        // And 20% smaller: the other way round.
        let rows = compare(
            &result(100.0, 0.01, "d"),
            &result(80.0, 0.01, "d"),
            &bounds(),
        )
        .unwrap();
        assert_eq!(verdict_of(&rows, "tick_ms_p99"), Verdict::Ok);
        assert_eq!(verdict_of(&rows, "ingest_tuples_per_s"), Verdict::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        // ±8% runs: a 16% spread against a 10% bound, medians equal.
        let rows = compare(
            &result(100.0, 0.01, "d"),
            &result(100.0, 0.08, "d"),
            &bounds(),
        )
        .unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unresolved));
        // A noisy side hides even a large move.
        let rows = compare(
            &result(100.0, 0.08, "d"),
            &result(150.0, 0.01, "d"),
            &bounds(),
        )
        .unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unresolved));
    }

    #[test]
    fn deterministic_counts_must_match_for_one_seed() {
        let (a, b) = (result(1.0, 0.0, "aa"), result(1.0, 0.0, "bb"));
        assert!(deterministic_differences(&a, &a).is_empty());
        assert_eq!(
            deterministic_differences(&a, &b),
            vec!["fig5_gardenhose".to_string()]
        );
    }

    #[test]
    fn result_files_survive_a_round_trip() {
        let a = result(123.456, 0.03, "0123abcd");
        assert_eq!(Json::parse(&a.to_string()).unwrap(), a);
    }
}
