//! Read-only views of a running platform: MV contents against ground
//! truth, meters, the metrics snapshot, `explain()`, the Chrome trace
//! export and the fault report.

use super::{running, Action, Smile, WORST_ROWS};
use crate::catalog::Catalog;
use crate::plan::dag::{IndexId, Plan, VertexKind};
use crate::plan::sig::ExprSig;
use smile_sim::Cluster;
use smile_storage::spj::RelationProvider;
use smile_storage::ZSet;
use smile_telemetry::{
    chrome_trace, Alert, FlightIncident, MetricsSnapshot, Severity, Telemetry, TraceInstant,
};
use smile_types::{FastSet, RelationId, Result, Schema, SharingId, SmileError, Timestamp, VertexId};
use std::collections::BTreeMap;

/// Summary of the faults injected into a run and the recovery work they
/// caused. Derived `Debug` output is byte-identical across runs with the
/// same seed and workload, which the robustness suite asserts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Machine crashes scheduled by the injector.
    pub crashes: u64,
    /// Delta batches lost in transit.
    pub deltas_dropped: u64,
    /// Acknowledgements lost after a batch landed.
    pub acks_lost: u64,
    /// Pub/sub messages (heartbeats) lost.
    pub messages_lost: u64,
    /// Pub/sub messages duplicated.
    pub duplicates: u64,
    /// Pub/sub latency spikes.
    pub latency_spikes: u64,
    /// Push attempts retried after a transient fault.
    pub pushes_retried: u64,
    /// Pushes abandoned after exhausting the retry budget.
    pub pushes_abandoned: u64,
    /// Pushes deferred because a machine they needed was down.
    pub pushes_deferred: u64,
    /// Retried delta batches suppressed by their producer's watermark.
    pub batches_deduped: u64,
    /// SLA violations observed by the snapshot auditor.
    pub sla_violations: u64,
    /// Violations whose staleness window overlapped an injected fault
    /// (the penalty is attributable to the fault, not the scheduler).
    pub sla_violations_attributable: u64,
}

impl Smile {
    /// Current MV contents of a sharing, in its submitted query's column
    /// order whatever join order the plan serving it stores
    /// ([`PlannedSharing::columns`](crate::optimizer::PlannedSharing::columns)).
    pub fn mv_contents(&self, id: SharingId) -> Result<ZSet> {
        let executor = running(&self.executor)?;
        let mv = executor.global.mv_vertex(id)?;
        let vert = executor.global.plan.vertex(mv);
        let slot = vert
            .slot
            .ok_or_else(|| SmileError::Internal("MV without slot".into()))?;
        let db = &self.cluster.machine(vert.machine)?.db;
        let rows = db.relation(slot)?.table.rows();
        Ok(match &self.planned(id)?.columns {
            Some(columns) => rows.map(|(row, w)| (row.project(columns), w)).collect(),
            None => rows.collect(),
        })
    }

    /// Ground truth: what the MV *should* contain — the sharing's submitted
    /// query evaluated over base-relation snapshots as of the MV's committed
    /// timestamp.
    pub fn expected_mv_contents(&self, id: SharingId) -> Result<ZSet> {
        let at = running(&self.executor)?.mv_ts(id)?;
        let provider = AsOfProvider {
            cluster: &self.cluster,
            catalog: &self.catalog,
            at,
        };
        self.sharing(id)?.query.evaluate(&provider)
    }

    /// Dollars attributed to one sharing so far (resource share plus
    /// penalties).
    pub fn sharing_dollars(&self, id: SharingId) -> f64 {
        let usage = self.cluster.ledger.sharing(id);
        self.cluster.prices.dollars(&usage) + self.cluster.ledger.penalty(id)
    }

    /// Total platform dollars so far.
    pub fn total_dollars(&self) -> f64 {
        self.cluster.total_dollars()
    }

    /// Fleet-wide arrangement statistics: probe hit/miss and incremental
    /// maintenance counters summed over every machine's database.
    pub fn arrangement_meter(&self) -> smile_sim::meter::ArrangementMeter {
        self.cluster.arrangement_meter()
    }

    /// Host-side totals of the push engine: waves, jobs and their
    /// summed host busy time. Zero before the start.
    pub fn wave_meter(&self) -> smile_sim::WaveMeter {
        self.executor
            .as_ref()
            .map(|e| e.wave_meter_view())
            .unwrap_or_default()
    }

    /// Every installed index with its reader count, read off the
    /// machines: after each storage reconcile, the multiset of
    /// [`Executor::live_reads`](crate::executor::Executor::live_reads).
    pub fn index_readers(&self) -> Result<BTreeMap<IndexId, u32>> {
        let mut readers = BTreeMap::new();
        for m in self.cluster.machine_ids() {
            for (rel, slot) in self.cluster.machine(m)?.db.relations() {
                readers.extend(slot.indexes().map(|(index, n)| ((m, rel, index), n)));
            }
        }
        Ok(readers)
    }

    /// Fleet-wide WAL traffic counters (ship/land bytes and batches).
    pub fn wal_meter(&self) -> smile_sim::meter::WalCounters {
        self.cluster.wal_meter()
    }

    /// The platform's telemetry handle (span ring + instrument registry).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Completed pushes sorted by `(completion timestamp, sharing id)` —
    /// the canonical order for reports. (The executor's own
    /// `push_records` field preserves raw event-drain order.)
    pub fn push_records(&self) -> Vec<crate::executor::PushRecord> {
        let mut records = self
            .executor
            .as_ref()
            .map(|e| e.push_records.clone())
            .unwrap_or_default();
        records.sort_by_key(|r| (r.completed, r.sharing));
        records
    }

    /// Point-in-time metrics snapshot: the telemetry registry plus every
    /// legacy meter (arrangements, WAL traffic, usage ledger, fault
    /// recovery) projected into gauges so one artifact carries the whole
    /// platform state. The headline metric is the fleet-wide
    /// `push.staleness_headroom_us` histogram plus the bounded
    /// `push.worst_headroom_us{rank=..}` top-K rows — snapshot cardinality
    /// is O(K) in the sharing count, not O(N).
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        let reg = self.telemetry.registry();
        let arr = self.arrangement_meter();
        reg.gauge("arrangement.count").set(arr.arrangements as f64);
        reg.gauge("arrangement.probes").set(arr.counters.probes as f64);
        reg.gauge("arrangement.hits").set(arr.counters.hits as f64);
        reg.gauge("arrangement.misses").set(arr.counters.misses as f64);
        reg.gauge("arrangement.maintained")
            .set(arr.counters.maintained as f64);
        reg.gauge("arrangement.built_rows")
            .set(arr.counters.built_rows as f64);
        let wal = self.cluster.wal_meter();
        reg.gauge("wal.batches_shipped")
            .set(wal.batches_shipped as f64);
        reg.gauge("wal.bytes_shipped").set(wal.bytes_shipped as f64);
        reg.gauge("wal.batches_landed").set(wal.batches_landed as f64);
        reg.gauge("wal.bytes_landed").set(wal.bytes_landed as f64);
        let usage = self.cluster.ledger.total();
        reg.gauge("ledger.cpu_secs").set(usage.cpu.as_secs_f64());
        reg.gauge("ledger.net_bytes").set(usage.net_bytes as f64);
        reg.gauge("ledger.disk_byte_secs").set(usage.disk_byte_secs);
        reg.gauge("ledger.penalty_dollars")
            .set(self.cluster.ledger.total_penalties());
        if let Some(e) = &self.executor {
            let fs = e.fault_stats;
            reg.gauge("exec.pushes_retried").set(fs.pushes_retried as f64);
            reg.gauge("exec.pushes_abandoned")
                .set(fs.pushes_abandoned as f64);
            reg.gauge("exec.pushes_deferred")
                .set(fs.pushes_deferred as f64);
            reg.gauge("exec.batches_deduped")
                .set(fs.batches_deduped as f64);
            reg.gauge("exec.tuples_moved").set(e.tuples_moved as f64);
            reg.gauge("exec.push_records").set(e.push_records.len() as f64);
        }
        reg.gauge("snapshot.sla_violations")
            .set(self.snapshot.violations_total() as f64);
        let (entries, probe_keys) = catalog_keys(&self.global_plan().plan);
        reg.gauge("catalog.entries").set(entries as f64);
        reg.gauge("catalog.probe_keys").set(probe_keys as f64);
        // One entry per installed arrangement, one reference per live join
        // edge probing it: each arrangement counts its readers.
        let machines = self.cluster.machine_ids().into_iter().filter_map(|m| self.cluster.machine(m).ok());
        let slots = machines.flat_map(|m| m.db.relations());
        let arrangements = slots.flat_map(|(_, slot)| slot.table.arrangements());
        let (entries, refs) = arrangements.fold((0usize, 0u64), |(n, refs), a| (n + 1, refs + u64::from(a.readers())));
        reg.gauge("arrangement_registry.entries").set(entries as f64);
        reg.gauge("arrangement_registry.refs").set(refs as f64);
        reg.gauge("arrangement_registry.reclaimed")
            .set(self.arrangements_reclaimed as f64);
        let mut snap = self.telemetry.snapshot();
        if let Some(e) = &self.executor {
            // The top-K worst-headroom rows are folded into the snapshot
            // without ever registering instruments: the registry stays
            // bounded no matter the fleet size. Rank is zero-padded so the
            // rows sort together; keys and values derive only from the
            // sharings' deterministic summaries.
            for (rank, row) in e.top_k_worst(WORST_ROWS).iter().enumerate() {
                snap.gauges.push((
                    format!(
                        "push.worst_headroom_us{{rank={rank:02},sharing={}}}",
                        row.sharing
                    ),
                    row.min_headroom_us as f64,
                ));
            }
            let alerts = e.alerts();
            snap.gauges
                .push(("obs.alerts_total".to_string(), alerts.len() as f64));
            let pages = alerts
                .iter()
                .filter(|a| a.severity == Severity::Page)
                .count();
            snap.gauges
                .push(("obs.alerts_page".to_string(), pages as f64));
            snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        }
        snap
    }

    /// Alerts the SLA burn-rate monitor has fired so far, in fire order —
    /// the control-signal feed for the adaptive runtime (ROADMAP item 5).
    pub fn alerts(&self) -> &[Alert] {
        self.executor.as_ref().map(|e| e.alerts()).unwrap_or(&[])
    }

    /// Flight-recorder incidents frozen so far (SLA misses and alerts),
    /// oldest first.
    pub fn flight_incidents(&self) -> Vec<FlightIncident> {
        self.telemetry.flight_incidents()
    }

    /// One-call introspection report for a sharing: plan shape and
    /// placement, structures shared with other sharings, arrangement
    /// hit rates, headroom percentiles from the bounded rollup, burn-rate
    /// state, dollar attribution, alerts and flight incidents. The text is
    /// assembled exclusively from deterministic state (sim-time, fixed
    /// float precision, canonical orders), so it is byte-identical run to
    /// run — and pinned as a golden output in the test suite.
    // A straight-line report writer: one stanza per section of the text,
    // no state carried between them, so splitting it would only scatter
    // the golden output's order over several functions.
    #[allow(clippy::too_many_lines)]
    pub fn explain(&self, id: SharingId) -> Result<String> {
        use std::fmt::Write as _;
        let sharing = self.sharing(id)?;
        let executor = running(&self.executor)?;
        let planned = self.planned(id)?;
        let (order, srcs) = executor
            .sharing_topology(id)
            .ok_or(SmileError::UnknownSharing(id))?;
        let plan = &executor.global.plan;
        let mut out = String::new();
        let _ = writeln!(out, "== sharing {} \"{}\" ==", id.0, sharing.name);
        let sla_us = sharing.staleness_sla.as_micros();
        let _ = writeln!(
            out,
            "sla: {}us  penalty_per_tuple: ${:.6}  cohort: {}",
            sla_us,
            sharing.penalty_per_tuple,
            smile_telemetry::cohort_of(sla_us)
        );
        let _ = writeln!(
            out,
            "critical_path: {}us  mv: {} on m{}",
            planned.critical_path.as_micros(),
            planned.mv,
            planned.mv_machine.0
        );
        // Live placement: where the MV actually serves from right now —
        // migrations move it away from the admission-time choice.
        let live_mv = executor.global.mv_vertex(id)?;
        let _ = writeln!(
            out,
            "placement: mv {} live on m{}{}",
            live_mv,
            plan.vertex(live_mv).machine.0,
            if executor.migrating(id) {
                "  [migrating]"
            } else {
                ""
            }
        );
        // Plan shape: the sharing's push subgraph (sources + non-base
        // vertices in push order), flagging vertices that serve other
        // sharings too.
        let shown: Vec<VertexId> = srcs.iter().chain(order.iter()).copied().collect();
        let shr = executor.global.shr_counts(&shown)?;
        let shared = shr.iter().filter(|&&n| n > 1).count();
        let _ = writeln!(
            out,
            "plan: {} source(s), {} push vertices, {} shared with other sharings",
            srcs.len(),
            order.len(),
            shared
        );
        for (&v, shr) in shown.iter().zip(shr) {
            let vert = plan.vertex(v);
            let kind = match vert.kind {
                VertexKind::Relation => "relation",
                VertexKind::Delta => "delta",
            };
            let _ = writeln!(
                out,
                "  {} {} m{} shr={} sig={}",
                vert.id,
                kind,
                vert.machine.0,
                shr,
                vert.sig
            );
        }
        // Fleet-shared infrastructure this sharing rides on.
        let arr = self.arrangement_meter();
        let (entries, probe_keys) = catalog_keys(plan);
        let _ = writeln!(
            out,
            "catalog: {} entries, {} probe keys  arrangements: {} installed, hit_rate {:.4}",
            entries,
            probe_keys,
            arr.arrangements,
            arr.hit_rate()
        );
        // Headroom percentiles from the bounded rollup.
        match executor.sharing_summary(id) {
            Some(s) if s.pushes > 0 => {
                let _ = writeln!(
                    out,
                    "headroom: pushes={} misses={} min={}us p50<={}us p90<={}us max={}us mean={:.1}us",
                    s.pushes,
                    s.misses,
                    s.min_headroom_us,
                    s.band_quantile_us(0.50),
                    s.band_quantile_us(0.90),
                    s.max_headroom_us,
                    s.mean_headroom_us()
                );
            }
            _ => {
                let _ = writeln!(out, "headroom: no completed pushes yet");
            }
        }
        if let Some((fast, slow, pushes)) = executor.cohort_burn(id, self.now) {
            let _ = writeln!(
                out,
                "burn: fast={}ppm slow={}ppm fast_window_pushes={}",
                fast, slow, pushes
            );
        }
        let mine = |s: Option<u32>| s == Some(id.0);
        let alerts = executor.alerts();
        let _ = writeln!(
            out,
            "alerts: {} fleet-wide, {} naming this sharing",
            alerts.len(),
            alerts.iter().filter(|a| mine(a.sharing)).count()
        );
        let incidents = self.flight_incidents();
        let _ = writeln!(
            out,
            "flight: {} incident(s) captured for this sharing",
            incidents.iter().filter(|i| i.sharing == id.0).count()
        );
        // Adaptive-actuator history: fleet-wide decision count plus this
        // sharing's own migration record, in decision order.
        let mine_actions: Vec<&Action> = self
            .actions
            .iter()
            .filter(|a| a.kind.sharing() == Some(id))
            .collect();
        let _ = writeln!(
            out,
            "actions: {} fleet-wide, {} for this sharing",
            self.actions.len(),
            mine_actions.len()
        );
        for a in mine_actions {
            let _ = writeln!(out, "  t={}us {}", a.at_us, a.kind.label());
        }
        let _ = writeln!(
            out,
            "dollars: total=${:.9} penalty=${:.9}",
            self.sharing_dollars(id),
            self.cluster.ledger.penalty(id)
        );
        Ok(out)
    }

    /// Exports the retained spans plus the injected fault events as Chrome
    /// `trace_event` JSON (Perfetto-loadable): one lane per simulated
    /// machine plus a coordinator lane. All timing fields are simulated
    /// microseconds, so the artifact is byte-stable run to run.
    pub fn export_trace(&self) -> String {
        let spans = self.telemetry.spans();
        let instants: Vec<TraceInstant> = self
            .cluster
            .faults
            .events
            .iter()
            .map(|e| {
                let (name, at, machine) = e.trace_instant();
                TraceInstant {
                    at_us: (at - Timestamp::ZERO).as_micros(),
                    name: name.to_string(),
                    machine: machine.map(|m| m.0),
                }
            })
            .collect();
        chrome_trace(&spans, &instants)
    }

    /// Assembles the [`FaultReport`] for the run so far: injector tallies,
    /// the executor's recovery statistics, and the snapshot auditor's SLA
    /// violations split by whether an injected fault was active inside the
    /// violating staleness window.
    pub fn fault_report(&self) -> FaultReport {
        let c = self.cluster.faults.counters();
        let stats = self
            .executor
            .as_ref()
            .map(|e| e.fault_stats)
            .unwrap_or_default();
        let mut sla_violations = 0u64;
        let mut attributable = 0u64;
        for r in &self.snapshot.records {
            for s in &r.sharings {
                if !s.violated {
                    continue;
                }
                sla_violations += 1;
                // The MV last advanced at `r.at − staleness`; any fault
                // active since then plausibly caused the violation.
                if self
                    .cluster
                    .faults
                    .fault_in_window(r.at - s.staleness, r.at)
                {
                    attributable += 1;
                }
            }
        }
        FaultReport {
            crashes: c.crashes,
            deltas_dropped: c.deltas_dropped,
            acks_lost: c.acks_lost,
            messages_lost: c.messages_lost,
            duplicates: c.duplicates,
            latency_spikes: c.latency_spikes,
            pushes_retried: stats.pushes_retried,
            pushes_abandoned: stats.pushes_abandoned,
            pushes_deferred: stats.pushes_deferred,
            batches_deduped: stats.batches_deduped,
            sla_violations,
            sla_violations_attributable: attributable,
        }
    }
}

/// What admission can dedup onto, counted over the plan's vertices: the
/// distinct `(kind, signature)` pairs on any machine, and the distinct
/// `(snapshot-side signature, probe columns)` pairs its half-joins ask an
/// arrangement for.
fn catalog_keys(plan: &Plan) -> (usize, usize) {
    let (mut entries, mut probe_keys) = (FastSet::default(), FastSet::default());
    for v in plan.vertices() {
        entries.insert((v.kind, &v.sig));
        if let ExprSig::HalfJoin { left, right, on, delta_left, .. } = &v.sig {
            probe_keys.insert(match delta_left {
                true => (right, &on.right_cols),
                false => (left, &on.left_cols),
            });
        }
    }
    (entries.len(), probe_keys.len())
}

/// `RelationProvider` reading base snapshots as of a fixed timestamp.
struct AsOfProvider<'a> {
    cluster: &'a Cluster,
    catalog: &'a Catalog,
    at: Timestamp,
}

impl RelationProvider for AsOfProvider<'_> {
    fn schema(&self, rel: RelationId) -> Result<Schema> {
        Ok(self.catalog.base(rel)?.schema.clone())
    }

    fn rows(&self, rel: RelationId) -> Result<ZSet> {
        let machine = self.catalog.base(rel)?.machine;
        self.cluster.machine(machine)?.db.snapshot_at(rel, self.at)
    }
}
