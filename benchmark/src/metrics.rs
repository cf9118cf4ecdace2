//! The metric catalogue: names, units and directions, in the order they
//! are printed. `BENCHMARK.json` lists the same metrics (a unit test keeps
//! the two in step) and holds the regression bounds.

/// One metric's declaration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    /// `<layer>.<metric>` for layer metrics, a bare name end to end.
    pub name: &'static str,
    /// Unit, in `BENCHMARK.json`'s unit alphabet.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the platform sees. Every workload reports every one;
/// which layer dominates each is the workload's doing (see the README).
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ingest_tuples_per_s", "1/s"),
    lower("tick_ms_p99", "ms"),
    lower("peak_rss_mb", "MB"),
    lower("dollars_per_sharing_hour", "usd"),
    lower("staleness_mean_ratio", "ratio"),
];

/// Single-layer metrics from the traced pass. For counts that describe
/// the input or the work done rather than a cost, the direction says
/// which way "more useful work" points; they have no bound.
pub const PER_LAYER: &[MetricDef] = &[
    // workload: smile-workload and the harness generators
    lower("workload.gen_s", "s"),
    higher("workload.entries", "count"),
    lower("workload.delete_share", "ratio"),
    lower("workload.self_s", "s"),
    // platform: smile-core::platform, harness spans around public calls
    lower("platform.ingest_s", "s"),
    lower("platform.ingest_us_per_ktuple", "us/ktuple"),
    lower("platform.step_s", "s"),
    lower("platform.push_tick_share", "ratio"),
    lower("platform.push_tick_ms_p50", "ms"),
    lower("platform.idle_tick_us_p50", "us"),
    lower("platform.submit_s", "s"),
    lower("platform.submit_ms_p50", "ms"),
    lower("platform.submit_ms_p99", "ms"),
    lower("platform.install_s", "s"),
    higher("platform.admit_per_s", "1/s"),
    lower("platform.submit_live_s", "s"),
    lower("platform.submit_live_ms_p50", "ms"),
    lower("platform.submit_live_ms_p90", "ms"),
    lower("platform.retire_s", "s"),
    lower("platform.retire_ms_p50", "ms"),
    lower("platform.drain_s", "s"),
    lower("platform.mv_read_ms_p50", "ms"),
    lower("platform.step_residual_share", "ratio"),
    lower("platform.self_s", "s"),
    // executor: smile-core::executor, meters the program exports
    lower("executor.sched_s", "s"),
    lower("executor.sched_us_p50", "us"),
    lower("executor.sched_us_p99", "us"),
    lower("executor.wave_busy_s", "s"),
    lower("executor.waves", "count"),
    lower("executor.jobs", "count"),
    lower("executor.job_us_p50", "us"),
    lower("executor.job_us_p99", "us"),
    higher("executor.pushes", "count"),
    lower("executor.tuples_moved", "count"),
    lower("executor.move_amplification", "ratio"),
    lower("executor.pushes_retried", "count"),
    lower("executor.sla_missed", "count"),
    lower("executor.cal_wakes", "count"),
    lower("executor.cal_early_wake_ratio", "ratio"),
    higher("executor.headroom_us_p50", "us"),
    higher("executor.parallel_speedup", "ratio"),
    // storage: smile-storage, meters and replays of its public functions
    lower("storage.wal_bytes_shipped", "bytes"),
    lower("storage.wal_bytes_per_moved_tuple", "B/tuple"),
    lower("storage.arr_probes", "count"),
    higher("storage.arr_hit_rate", "ratio"),
    lower("storage.arr_maintained", "count"),
    lower("storage.arr_built_rows", "count"),
    lower("storage.table_bytes", "bytes"),
    lower("storage.pending_entries", "count"),
    lower("storage.rss_bytes_per_ingested_tuple", "B/tuple"),
    lower("storage.ship_us_per_ktuple", "us/ktuple"),
    lower("storage.land_us_per_ktuple", "us/ktuple"),
    lower("storage.apply_us_per_ktuple", "us/ktuple"),
    lower("storage.probe_ns_per_key", "ns/key"),
    lower("storage.consolidate_us_per_ktuple", "us/ktuple"),
    lower("storage.agg_transform_us_per_ktuple", "us/ktuple"),
    lower("storage.snapshot_at_ms", "ms"),
    lower("storage.compact_us_per_ktuple", "us/ktuple"),
    lower("storage.spj_eval_ms_p50", "ms"),
    lower("storage.self_s", "s"),
    // optimizer: smile-core::optimizer, reoptimizer, plan
    higher("optimizer.admitted", "count"),
    lower("optimizer.rejected", "count"),
    lower("optimizer.admission_host_us_p50", "us"),
    lower("optimizer.plan_search_us_p50", "us"),
    lower("optimizer.self_s", "s"),
    // multi: smile-core::multi, merge_catalog, storage::registry
    lower("multi.plan_vertices", "count"),
    lower("multi.plan_edges", "count"),
    higher("multi.catalog_hit_rate", "ratio"),
    lower("multi.catalog_entries", "count"),
    lower("multi.arr_registry_entries", "count"),
    higher("multi.arr_registry_reclaimed", "count"),
    lower("multi.merge_us_p50", "us"),
    lower("multi.hill_climb_s", "s"),
    lower("multi.self_s", "s"),
    // snapshot: smile-core::snapshot
    lower("snapshot.records", "count"),
    lower("snapshot.violations", "count"),
    lower("snapshot.staleness_peak_ratio", "ratio"),
    // sim: smile-sim's usage ledger (simulated, the same for one seed)
    lower("sim.cpu_secs", "s"),
    lower("sim.net_bytes", "bytes"),
    lower("sim.disk_byte_secs", "B.s"),
    lower("sim.penalty_dollars", "usd"),
    // telemetry: smile-telemetry
    lower("telemetry.instruments", "count"),
    lower("telemetry.spans_retained", "count"),
    lower("telemetry.spans_dropped", "count"),
    lower("telemetry.snapshot_ms", "ms"),
    lower("telemetry.export_trace_ms", "ms"),
    lower("telemetry.self_s", "s"),
    // the harness's own tracing
    lower("harness.self_s", "s"),
    lower("harness.traced_drive_s", "s"),
    lower("harness.host_index", "ratio"),
    higher("harness.span_coverage", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn declared(section: &Json) -> Vec<(String, String, bool)> {
        section
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                    m.get("better").unwrap().as_str().unwrap() == "higher",
                )
            })
            .collect()
    }

    fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, bool)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.higher_is_better))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            declared(spec.get("end_to_end").unwrap()),
            catalogue(END_TO_END)
        );
        assert_eq!(
            declared(spec.get("per_layer").unwrap()),
            catalogue(PER_LAYER)
        );
        let workloads: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for m in spec.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
