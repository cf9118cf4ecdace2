//! The `Smile` facade: the whole platform behind one handle.
//!
//! Usage follows the paper's life cycle:
//!
//! 1. [`Smile::new`] builds the machine fleet;
//! 2. [`Smile::register_base`] declares each app's shared base relation
//!    (schema, home machine, statistics) and creates its storage;
//! 3. [`Smile::submit`] runs the sharing optimizer — the sharing is either
//!    admitted (DPD/DPT chosen per §6.2) or rejected with
//!    [`SmileError::Inadmissible`];
//! 4. [`Smile::install`] merges the admitted plans into the global plan,
//!    optionally hill-climbs the plumbing, allocates storage slots, seeds
//!    derived relations, and starts the executor;
//! 5. the driver loop alternates [`Smile::ingest`] (workload updates) and
//!    [`Smile::step`] (one executor tick + audit).

use crate::catalog::{BaseStats, Catalog};
use crate::executor::seed::eval_sig;
use crate::executor::{ExecConfig, Executor};
use crate::merge_catalog::MergeCatalog;
use crate::multi::{GlobalPlan, HillClimbReport};
use crate::optimizer::{Objective, PlannedSharing};
use crate::plan::cost::{machine_utilization, Scope};
use crate::plan::dag::{DeltaSide, EdgeOp, Plan, VertexKind};
use crate::plan::timecost::TimeCostModel;
use crate::reoptimizer::Reoptimizer;
use crate::sharing::Sharing;
use crate::snapshot::SnapshotModule;
use smile_sim::{Cluster, FaultProfile, MachineConfig, MachineState, PriceSheet};
use smile_storage::registry::ArrangementKey;
use smile_storage::spj::RelationProvider;
use smile_storage::{ArrangementRegistry, DeltaBatch, SpjQuery, ZSet};
use smile_telemetry::{
    chrome_trace, Alert, FlightIncident, MetricsSnapshot, Severity, Telemetry, TelemetryConfig,
    TraceInstant,
};
use smile_types::{
    MachineId, RelationId, Result, Schema, SharingId, SimDuration, SmileError, Timestamp,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Platform configuration.
#[derive(Clone, Debug)]
pub struct SmileConfig {
    /// Number of machines in the fleet.
    pub machines: usize,
    /// Per-machine simulator configuration.
    pub machine_config: MachineConfig,
    /// Infrastructure prices.
    pub prices: PriceSheet,
    /// Ground-truth operator time model (the simulator's service times; the
    /// executor starts from a copy and recalibrates).
    pub model: TimeCostModel,
    /// Executor tuning.
    pub exec: ExecConfig,
    /// Whether `install` runs the hill-climbing plumbing pass.
    pub hill_climb: bool,
    /// Iteration cap for hill climbing.
    pub hill_climb_iterations: usize,
    /// Per-machine CPU capacity for admission (operator-seconds/second).
    pub capacity: f64,
    /// Planning objective preference; `None` = the paper's rule (DPD if
    /// admissible else DPT). `Some(..)` forces one objective (used by the
    /// Figure 12 algorithm comparison).
    pub force_objective: Option<Objective>,
    /// Fault-injection profile (disabled by default; see
    /// [`FaultProfile::chaos`] for a hostile preset).
    pub faults: FaultProfile,
    /// Telemetry settings: span recording on/off, ring capacity, worker
    /// histogram shards. Instruments always record (pure atomics);
    /// disabling only quiets span recording (zero allocation).
    pub telemetry: TelemetryConfig,
    /// Adaptive-runtime actuator settings: online re-planning, live MV
    /// migration and dollar-budgeted fleet elasticity. Disabled by default
    /// so every pre-adaptive workload replays byte-identically.
    pub adaptive: AdaptiveConfig,
}

impl SmileConfig {
    /// The paper's default setup shape: identical machines, EC2 cross-zone
    /// prices, lazy executor, hill climbing on.
    pub fn with_machines(machines: usize) -> Self {
        Self {
            machines,
            machine_config: MachineConfig::default(),
            prices: PriceSheet::ec2_cross_zone(),
            model: TimeCostModel::paper_defaults(),
            exec: ExecConfig::default(),
            hill_climb: true,
            hill_climb_iterations: 64,
            capacity: 1.0,
            force_objective: None,
            faults: FaultProfile::disabled(),
            telemetry: TelemetryConfig::default(),
            adaptive: AdaptiveConfig::default(),
        }
    }
}

/// Settings for the adaptive runtime actuator (the control loop run by
/// [`Smile::step`] when `enabled`): it drains burn-rate alerts, re-plans
/// alerted sharings off their saturated machine through the
/// [`Reoptimizer`], live-migrates their MVs, and grows/shrinks the fleet
/// against an hourly dollar budget.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Master switch. Off by default: the control loop never runs, so every
    /// pre-adaptive workload replays byte-identically.
    pub enabled: bool,
    /// Hourly instance-dollar ceiling for the reserved fleet. A scale-up
    /// that would push `reserved × cpu_per_hour` past it is denied (and
    /// logged as [`ActionKind::ScaleDenied`]).
    pub budget_dollars_per_hour: f64,
    /// Minimum sim-time between two migrations of the same sharing, so one
    /// sustained alert storm cannot thrash an MV back and forth.
    pub cooldown: SimDuration,
    /// Migration cap per drained alert: at most this many MVs leave the
    /// saturated machine per control decision.
    pub max_migrations_per_alert: usize,
    /// How long an *elastic* machine (added by scale-up) must host no MV
    /// before the shrink pass drains and retires it.
    pub idle_retire_after: SimDuration,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            budget_dollars_per_hour: 0.0,
            cooldown: SimDuration::from_secs(60),
            max_migrations_per_alert: 2,
            idle_retire_after: SimDuration::from_secs(120),
        }
    }
}

/// One decision the adaptive actuator took, stamped with the sim-time it
/// was made at. The action log is derived exclusively from deterministic
/// simulation state in canonical order, so it is byte-identical at any
/// worker count — pinned by the adaptive conformance suite.
#[derive(Clone, Debug, PartialEq)]
pub struct Action {
    /// Simulated microseconds since time zero.
    pub at_us: u64,
    /// What was decided.
    pub kind: ActionKind,
}

/// The decision taken by one adaptive-control action.
#[derive(Clone, Debug, PartialEq)]
pub enum ActionKind {
    /// A live migration began: the sharing's MV dual-writes `from` → `to`.
    MigrationStarted {
        /// The migrating sharing.
        sharing: SharingId,
        /// Machine the MV is leaving.
        from: MachineId,
        /// Machine the MV is moving to.
        to: MachineId,
    },
    /// A live migration cut over; the MV now serves from `to`.
    MigrationCompleted {
        /// The migrated sharing.
        sharing: SharingId,
        /// Machine the MV left.
        from: MachineId,
        /// Machine the MV now serves from.
        to: MachineId,
    },
    /// A live migration aborted; the MV keeps serving from `from`.
    MigrationAborted {
        /// The sharing whose migration aborted.
        sharing: SharingId,
        /// Machine the MV stays on.
        from: MachineId,
        /// Machine the handoff was targeting.
        to: MachineId,
    },
    /// The fleet grew by one machine within the dollar budget.
    ScaleUp {
        /// The newly added machine.
        machine: MachineId,
    },
    /// A scale-up was denied: the budget could not cover one more machine.
    ScaleDenied {
        /// Reserved (non-retired) machine count at the time of denial.
        active: usize,
    },
    /// A drained elastic machine was retired from the fleet.
    ScaleDown {
        /// The retired machine.
        machine: MachineId,
    },
}

impl ActionKind {
    /// The sharing this action concerns, if any.
    pub fn sharing(&self) -> Option<SharingId> {
        match self {
            ActionKind::MigrationStarted { sharing, .. }
            | ActionKind::MigrationCompleted { sharing, .. }
            | ActionKind::MigrationAborted { sharing, .. } => Some(*sharing),
            _ => None,
        }
    }

    /// Compact deterministic label for reports and goldens.
    pub fn label(&self) -> String {
        match self {
            ActionKind::MigrationStarted { from, to, .. } => {
                format!("migration_started m{}->m{}", from.0, to.0)
            }
            ActionKind::MigrationCompleted { from, to, .. } => {
                format!("migration_completed m{}->m{}", from.0, to.0)
            }
            ActionKind::MigrationAborted { from, to, .. } => {
                format!("migration_aborted m{}->m{}", from.0, to.0)
            }
            ActionKind::ScaleUp { machine } => format!("scale_up m{}", machine.0),
            ActionKind::ScaleDenied { active } => format!("scale_denied at {active} machines"),
            ActionKind::ScaleDown { machine } => format!("scale_down m{}", machine.0),
        }
    }
}

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
    /// Retried delta batches suppressed by batch-id deduplication.
    pub batches_deduped: u64,
    /// Pending retries dropped because a later push of the same sharing
    /// superseded their target.
    pub retries_coalesced: u64,
    /// SLA violations observed by the snapshot auditor.
    pub sla_violations: u64,
    /// Violations whose staleness window overlapped an injected fault
    /// (the penalty is attributable to the fault, not the scheduler).
    pub sla_violations_attributable: u64,
}

/// One sharing in a [`Smile::submit_batch`] admission request.
#[derive(Clone, Debug)]
pub struct SharingRequest {
    /// Human-readable sharing name.
    pub name: String,
    /// The SPJ transformation over registered base relations.
    pub query: SpjQuery,
    /// Staleness SLA.
    pub staleness_sla: SimDuration,
    /// Penalty dollars per stale tuple.
    pub penalty_per_tuple: f64,
    /// Optional MV machine pin.
    pub mv_machine: Option<MachineId>,
}

/// The SMILE platform.
pub struct Smile {
    /// The simulated machine fleet.
    pub cluster: Cluster,
    /// The base-relation catalog.
    pub catalog: Catalog,
    /// Platform configuration.
    pub config: SmileConfig,
    /// Admitted sharings.
    sharings: Vec<Sharing>,
    /// Their chosen plans (order-matched with `sharings`).
    planned: Vec<PlannedSharing>,
    /// The executor, live after `install`.
    pub executor: Option<Executor>,
    /// The staleness auditor.
    pub snapshot: SnapshotModule,
    /// The hill-climbing report from the last `install`.
    pub hc_report: Option<HillClimbReport>,
    /// Shared telemetry handle (spans, counters, histograms).
    telemetry: Arc<Telemetry>,
    /// The global plan built incrementally at submit time; `install`
    /// consumes it.
    staged: GlobalPlan,
    /// The cross-tenant index over admitted structures.
    merge_catalog: MergeCatalog,
    /// Committed utilization per machine, accumulated per admission and
    /// released per retirement.
    committed: HashMap<MachineId, f64>,
    /// Refcounted fleet-wide arrangement bookkeeping, reconciled against
    /// the live plan after install / live admission / retirement.
    arrangements: ArrangementRegistry,
    now: Timestamp,
    next_sharing: u32,
    /// Entries ingested at or before the seed instant would fall outside
    /// the half-open push windows `(seed, t]`; ingest clamps them above it.
    seed_floor: Option<Timestamp>,
    /// Typed log of every adaptive-actuator decision, in decision order.
    actions: Vec<Action>,
    /// How many of the executor's alerts the control loop has consumed.
    alert_cursor: usize,
    /// Last migration start per sharing (cooldown bookkeeping).
    last_migration: HashMap<SharingId, Timestamp>,
    /// Re-planned placements of in-flight migrations; applied to `planned`
    /// (and committed utilization) when the cutover settles.
    pending_plans: HashMap<SharingId, PlannedSharing>,
    /// Since when each *elastic* machine has hosted no MV (shrink pass).
    mv_idle_since: HashMap<MachineId, Timestamp>,
}

impl Smile {
    /// Builds the platform with `config.machines` simulated machines.
    pub fn new(config: SmileConfig) -> Self {
        let mut cluster = Cluster::with_configs(vec![config.machine_config; config.machines]);
        cluster.prices = config.prices;
        cluster.set_fault_profile(config.faults);
        let telemetry = Arc::new(Telemetry::new(&config.telemetry));
        Self {
            cluster,
            catalog: Catalog::new(),
            config,
            sharings: Vec::new(),
            planned: Vec::new(),
            executor: None,
            snapshot: SnapshotModule::new(),
            hc_report: None,
            telemetry,
            staged: GlobalPlan::new(),
            merge_catalog: MergeCatalog::new(),
            committed: HashMap::new(),
            arrangements: ArrangementRegistry::new(),
            now: Timestamp::ZERO,
            next_sharing: 1,
            seed_floor: None,
            actions: Vec::new(),
            alert_cursor: 0,
            last_migration: HashMap::new(),
            pending_plans: HashMap::new(),
            mv_idle_since: HashMap::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Registers a base relation: catalog entry plus storage on its home
    /// machine.
    pub fn register_base(
        &mut self,
        name: &str,
        schema: Schema,
        machine: MachineId,
        stats: BaseStats,
    ) -> Result<RelationId> {
        let rel = self
            .catalog
            .register_base(name, schema.clone(), machine, stats);
        self.cluster
            .machine_mut(machine)?
            .db
            .create_relation(rel, schema)?;
        Ok(rel)
    }

    /// Submits a sharing for admission. On success the sharing is admitted
    /// and its plan stored (it starts running at the next `install`).
    pub fn submit(
        &mut self,
        name: &str,
        query: SpjQuery,
        staleness_sla: SimDuration,
        penalty_per_tuple: f64,
    ) -> Result<SharingId> {
        self.submit_pinned(name, query, staleness_sla, penalty_per_tuple, None)
    }

    /// Like [`Smile::submit`], but pins the MV to a machine — the paper's
    /// setup "arbitrarily assigned" the 25 sharings to the 6 machines.
    pub fn submit_pinned(
        &mut self,
        name: &str,
        query: SpjQuery,
        staleness_sla: SimDuration,
        penalty_per_tuple: f64,
        mv_machine: Option<MachineId>,
    ) -> Result<SharingId> {
        let started = std::time::Instant::now();
        let out = self.submit_inner(name, query, staleness_sla, penalty_per_tuple, mv_machine);
        let reg = self.telemetry.registry();
        // `host_` marks the one wall-clock (nondeterministic) metric here;
        // determinism suites filter on that marker.
        reg.histogram("admission.host_latency_us")
            .record(started.elapsed().as_micros() as u64);
        let (hits, misses) = self.merge_catalog.take_counters();
        reg.counter("catalog.hits").add(hits);
        reg.counter("catalog.misses").add(misses);
        out
    }

    fn submit_inner(
        &mut self,
        name: &str,
        query: SpjQuery,
        staleness_sla: SimDuration,
        penalty_per_tuple: f64,
        mv_machine: Option<MachineId>,
    ) -> Result<SharingId> {
        query.validate(&self.catalog)?;
        let id = SharingId::new(self.next_sharing);
        let sharing = Sharing::new(id, name, query, staleness_sla, penalty_per_tuple);
        // The decision itself lives in the re-entrant `Reoptimizer` — the
        // same plan-search + placement logic the adaptive control loop
        // re-invokes online against live fleet state.
        let plan_result = Reoptimizer::new(
            &self.catalog,
            self.cluster.machine_ids(),
            &self.config.model,
            &self.config.prices,
        )
        .with_capacity(self.config.capacity)
        .with_force_objective(self.config.force_objective)
        .plan_admission(&sharing, self.committed.clone(), mv_machine);
        let planned = match plan_result {
            Ok(p) => {
                self.telemetry
                    .registry()
                    .counter("planner.sharings_admitted")
                    .inc();
                p
            }
            Err(e) => {
                if matches!(e, SmileError::Inadmissible { .. }) {
                    self.telemetry
                        .registry()
                        .counter("planner.sharings_rejected")
                        .inc();
                }
                return Err(e);
            }
        };
        account(&mut self.committed, &self.config.model, &planned.plan, 1.0);
        if self.executor.is_none() {
            self.staged
                .merge_indexed(&sharing, &planned, &mut self.merge_catalog)?;
        }
        self.next_sharing += 1;
        self.snapshot.register_penalty(id, penalty_per_tuple);
        self.sharings.push(sharing);
        self.planned.push(planned);
        Ok(id)
    }

    /// Admits a vector of sharings in one catalog pass: each admission
    /// consults and extends the same merge catalog, so the batch costs one
    /// incremental merge per member instead of a scan over all resident
    /// plans per member. Per-member results come back in request order —
    /// a rejection does not abort the rest of the batch.
    pub fn submit_batch(&mut self, requests: Vec<SharingRequest>) -> Vec<Result<SharingId>> {
        requests
            .into_iter()
            .map(|r| {
                self.submit_pinned(
                    &r.name,
                    r.query,
                    r.staleness_sla,
                    r.penalty_per_tuple,
                    r.mv_machine,
                )
            })
            .collect()
    }

    /// Merges all admitted plans into the global plan, runs the plumbing
    /// pass, materializes storage, and starts the executor.
    pub fn install(&mut self) -> Result<()> {
        if self.executor.is_some() {
            return Err(SmileError::Internal(
                "platform already installed; dynamic re-install is not supported".into(),
            ));
        }
        // Already merged incrementally, one sharing at a time, at submit.
        let mut global = std::mem::take(&mut self.staged);
        if self.config.hill_climb {
            let report = Reoptimizer::new(
                &self.catalog,
                self.cluster.machine_ids(),
                &self.config.model,
                &self.config.prices,
            )
            .hill_climb_placement(&mut global, true, self.config.hill_climb_iterations);
            self.hc_report = Some(report);
            // Plumbing + garbage collection remapped vertex ids.
            self.merge_catalog.rebuild(&global.plan);
        }
        global.plan.validate()?;
        let _created = self.materialize(&mut global)?;
        let reg = self.telemetry.registry();
        reg.gauge("plan.vertices")
            .set(global.plan.vertex_count() as f64);
        reg.gauge("plan.edges").set(global.plan.edges().len() as f64);
        let mut executor = Executor::new(
            global,
            &self.sharings,
            self.config.model.clone(),
            self.config.exec.clone(),
            Arc::clone(&self.telemetry),
        )?;
        executor.mark_seeded(self.now);
        self.seed_floor = Some(self.now + SimDuration::from_micros(1));
        self.executor = Some(executor);
        self.sync_arrangements()?;
        Ok(())
    }

    /// Reconciles the global arrangement registry against the live plan's
    /// join edges and applies the physical delta: first references
    /// build arrangements (idempotent — materialization usually already
    /// did), last references drop them so retired sharings reclaim memory.
    fn sync_arrangements(&mut self) -> Result<()> {
        let Some(executor) = &self.executor else {
            return Ok(());
        };
        let delta = self
            .arrangements
            .reconcile(desired_arrangements(&executor.global));
        for (machine, slot, cols) in delta.added {
            if self.cluster.machine(machine)?.db.has_relation(slot) {
                self.cluster
                    .machine_mut(machine)?
                    .db
                    .ensure_index(slot, &cols)?;
            }
        }
        for (machine, slot, cols) in delta.removed {
            self.cluster.machine_mut(machine)?.db.drop_index(slot, &cols);
        }
        Ok(())
    }

    /// The refcounted fleet-wide arrangement registry.
    pub fn arrangement_registry(&self) -> &ArrangementRegistry {
        &self.arrangements
    }

    /// The cross-tenant merge catalog.
    pub fn merge_catalog(&self) -> &MergeCatalog {
        &self.merge_catalog
    }

    /// The running global plan, once installed.
    pub fn global_plan(&self) -> Option<&GlobalPlan> {
        self.executor.as_ref().map(|e| &e.global)
    }

    /// The global plan admissions have merged so far; empty once `install`
    /// has consumed it.
    pub fn staged_plan(&self) -> &GlobalPlan {
        &self.staged
    }

    /// Running per-machine utilization committed to admitted sharings —
    /// what the next admission is planned against.
    pub fn committed_utilization(&self) -> &HashMap<MachineId, f64> {
        &self.committed
    }

    /// Allocates storage slots for plan vertices, creates the relations,
    /// declares the secondary indexes join edges probe, and seeds derived
    /// relation contents from ground truth. Incremental: vertices that
    /// already have slots are untouched, so the same routine serves both
    /// `install` and on-the-fly additions. Returns the vertices whose
    /// storage was created (and therefore freshly seeded) by this call.
    fn materialize(&mut self, global: &mut GlobalPlan) -> Result<Vec<smile_types::VertexId>> {
        materialize_into(&mut self.catalog, &mut self.cluster, global, None, self.now)
    }

    /// **On-the-fly admission** (paper §10 future work): plans, admits and
    /// starts maintaining a sharing while the platform is running. The
    /// running global plan gains (deduplicated) vertices; new storage is
    /// seeded from the current base contents.
    pub fn submit_live(
        &mut self,
        name: &str,
        query: SpjQuery,
        staleness_sla: SimDuration,
        penalty_per_tuple: f64,
        mv_machine: Option<MachineId>,
    ) -> Result<SharingId> {
        if self.executor.is_none() {
            return Err(SmileError::Internal(
                "submit_live before install; use submit instead".into(),
            ));
        }
        query.validate(&self.catalog)?;
        let id = SharingId::new(self.next_sharing);
        let sharing = Sharing::new(id, name, query, staleness_sla, penalty_per_tuple);
        // Commit against the *running* global plan's utilization.
        let committed = {
            let executor = self.executor.as_ref().expect("checked");
            machine_utilization(&executor.global.plan, Scope::All, &self.config.model)
        };
        // Live admission places only among *active* machines: a draining
        // or retired machine must not gain new MVs.
        let planned = Reoptimizer::new(
            &self.catalog,
            self.cluster.active_machine_ids(),
            &self.config.model,
            &self.config.prices,
        )
        .with_capacity(self.config.capacity)
        .plan_admission(&sharing, committed, mv_machine)?;
        self.telemetry
            .registry()
            .counter("planner.sharings_admitted")
            .inc();

        let executor = self.executor.as_mut().expect("checked");
        executor.add_sharing(&sharing, &planned)?;
        let created = materialize_into(
            &mut self.catalog,
            &mut self.cluster,
            &mut executor.global,
            None,
            self.now,
        )?;
        executor.mark_vertices_seeded(&created, self.now);
        // Entries stamped at or before this instant fall outside the new
        // vertices' half-open push windows; lift the ingest floor past it.
        let floor = self.now + SimDuration::from_micros(1);
        self.seed_floor = Some(self.seed_floor.map_or(floor, |f| f.max(floor)));

        account(&mut self.committed, &self.config.model, &planned.plan, 1.0);
        self.next_sharing += 1;
        self.snapshot.register_penalty(id, penalty_per_tuple);
        self.sharings.push(sharing);
        self.planned.push(planned);
        self.sync_arrangements()?;
        Ok(id)
    }

    /// **On-the-fly removal** (paper §10 future work): stops maintaining a
    /// sharing and drops the storage that served only it. Other sharings
    /// are untouched — shared vertices keep running for them.
    pub fn retire(&mut self, id: SharingId) -> Result<()> {
        let executor = self
            .executor
            .as_mut()
            .ok_or_else(|| SmileError::Internal("retire before install".into()))?;
        let dropped = executor.remove_sharing(id)?;
        self.drop_slots(&dropped)?;
        if let Some(pos) = self.sharings.iter().position(|s| s.id == id) {
            let plan = &self.planned[pos].plan;
            account(&mut self.committed, &self.config.model, plan, -1.0);
            self.sharings.remove(pos);
            self.planned.remove(pos);
        }
        self.pending_plans.remove(&id);
        self.last_migration.remove(&id);
        self.sync_arrangements()?;
        Ok(())
    }

    /// Drops a set of now-unserved storage slots and clears their vertex
    /// slot markers (so a future identical sharing re-materializes) — the
    /// single reconcile shared by sharing retirement and live-migration
    /// settlement, which used to be duplicated at every call site.
    fn drop_slots(&mut self, dropped: &[(MachineId, RelationId)]) -> Result<()> {
        let mut dropped_set: std::collections::HashSet<(MachineId, RelationId)> =
            std::collections::HashSet::new();
        for &(machine, slot) in dropped {
            if dropped_set.insert((machine, slot)) {
                self.cluster.machine_mut(machine)?.db.drop_relation(slot)?;
            }
        }
        if dropped_set.is_empty() {
            return Ok(());
        }
        let executor = self
            .executor
            .as_mut()
            .ok_or_else(|| SmileError::Internal("drop_slots before install".into()))?;
        let vertex_ids: Vec<_> = executor
            .global
            .plan
            .vertices()
            .iter()
            .map(|v| v.id)
            .collect();
        for v in vertex_ids {
            let vert = executor.global.plan.vertex(v);
            if let Some(slot) = vert.slot {
                if dropped_set.contains(&(vert.machine, slot)) {
                    executor.global.plan.vertex_mut(v).slot = None;
                }
            }
        }
        Ok(())
    }

    /// Ingests an application update batch into a base relation (delta
    /// capture). Entries should be stamped at or near `self.now()`; stamps
    /// at or below the install instant are clamped just above it so they
    /// stay inside the executor's half-open push windows.
    pub fn ingest(&mut self, rel: RelationId, mut batch: DeltaBatch) -> Result<()> {
        if let Some(floor) = self.seed_floor {
            for e in &mut batch.entries {
                if e.ts < floor {
                    e.ts = floor;
                }
            }
        }
        let machine = self.catalog.base(rel)?.machine;
        self.cluster.machine_mut(machine)?.db.ingest(rel, batch)
    }

    /// Advances the platform by one executor tick, settles any live
    /// migrations the tick cut over or aborted, and — when the adaptive
    /// actuator is enabled — runs one deterministic control decision:
    /// drain new burn-rate alerts, re-plan and migrate alerted sharings off
    /// their saturated machine, and grow/shrink the fleet within budget.
    pub fn step(&mut self) -> Result<()> {
        let executor = self
            .executor
            .as_mut()
            .ok_or_else(|| SmileError::Internal("step before install".into()))?;
        // Crashes due now take machines out of service before the executor
        // plans around them.
        self.cluster.apply_faults(self.now);
        executor.tick(&mut self.cluster, self.now)?;
        self.settle_migrations()?;
        if self.config.adaptive.enabled {
            self.adaptive_control()?;
        }
        let executor = self.executor.as_mut().expect("checked above");
        self.snapshot
            .maybe_record(executor, &mut self.cluster, self.now);
        self.now += self.config.exec.tick;
        Ok(())
    }

    /// Typed log of every adaptive-actuator decision so far, in decision
    /// order (byte-identical at any worker count).
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    fn push_action(&mut self, kind: ActionKind) {
        self.actions.push(Action {
            at_us: (self.now - Timestamp::ZERO).as_micros(),
            kind,
        });
    }

    /// **Live migration** (tentpole of the adaptive runtime): re-plans a
    /// running sharing over the active machine set — optionally pinning the
    /// new MV to `to` — and, if a better placement exists, starts the
    /// executor's dual-write handoff. Returns `Ok(true)` when a migration
    /// began, `Ok(false)` when the current placement already wins (or the
    /// sharing is mid-migration). The MV keeps serving throughout; the
    /// cutover settles in a later [`Smile::step`].
    pub fn migrate_sharing(&mut self, id: SharingId, to: Option<MachineId>) -> Result<bool> {
        let machines = self.cluster.active_machine_ids();
        self.replan_and_migrate(id, machines, to)
    }

    /// Re-plans `id` among `machines` against live fleet utilization and
    /// starts the shadow-chain handoff when the placement moves.
    fn replan_and_migrate(
        &mut self,
        id: SharingId,
        machines: Vec<MachineId>,
        pin: Option<MachineId>,
    ) -> Result<bool> {
        let pos = self
            .sharings
            .iter()
            .position(|s| s.id == id)
            .ok_or(SmileError::UnknownSharing(id))?;
        let (live, cur_machine, seed_at) = {
            let executor = self
                .executor
                .as_ref()
                .ok_or_else(|| SmileError::Internal("migrate before install".into()))?;
            if executor.migrating(id) {
                return Ok(false);
            }
            let live = machine_utilization(&executor.global.plan, Scope::All, &self.config.model);
            let mv = executor.global.mv_vertex(id)?;
            (live, executor.global.plan.vertex(mv).machine, executor.mv_ts(id)?)
        };
        let planned = Reoptimizer::new(
            &self.catalog,
            machines,
            &self.config.model,
            &self.config.prices,
        )
        .with_capacity(self.config.capacity)
        .replan(&self.sharings[pos], live, &self.planned[pos], pin)?;
        if planned.mv_machine == cur_machine {
            return Ok(false); // the current placement already wins
        }
        // Shadow install: merge the new chain into the running plan, then
        // materialize + seed its storage exactly like a live admission. No
        // arrangement sync yet — the shadow chain serves no sharing until
        // cutover recomputes SHR; its physical indexes already exist from
        // materialization.
        let executor = self.executor.as_mut().expect("checked above");
        executor.begin_migration(id, &planned, self.now)?;
        // Seed the shadow chain *as of the old chain's committed MV
        // timestamp*, not `now`: the shadow reuses the old chain's anchored
        // half-join vertices, whose push windows tile forward from that
        // commit point. A seed at `now` would double-count the in-flight
        // window's base entries on one side and miss the cross term on the
        // other; seeding at `mv_ts` makes the correction algebra telescope
        // exactly (base logs are retained back to every live MV's commit
        // point by the executor's compaction bound).
        let created = materialize_into(
            &mut self.catalog,
            &mut self.cluster,
            &mut executor.global,
            Some(seed_at),
            self.now,
        )?;
        executor.mark_vertices_seeded(&created, seed_at);
        // Entries stamped at or before the seed instant are baked into the
        // shadow seed; a later ingest back-dated past it would be missed by
        // the shadow chain's half-open push windows.
        let floor = seed_at + SimDuration::from_micros(1);
        self.seed_floor = Some(self.seed_floor.map_or(floor, |f| f.max(floor)));
        self.last_migration.insert(id, self.now);
        let to = planned.mv_machine;
        self.pending_plans.insert(id, planned);
        self.push_action(ActionKind::MigrationStarted {
            sharing: id,
            from: cur_machine,
            to,
        });
        Ok(true)
    }

    /// Applies migration outcomes the executor settled this tick: drops
    /// now-unserved slots, swaps the sharing's admitted plan (and its
    /// committed-utilization contribution) on completion, reconciles
    /// arrangements, logs the action — and retires any drained machine
    /// that no longer hosts MVs, migrations or base relations.
    fn settle_migrations(&mut self) -> Result<()> {
        let outcomes = match self.executor.as_mut() {
            Some(e) => e.take_migration_outcomes(),
            None => return Ok(()),
        };
        let any = !outcomes.is_empty();
        for o in outcomes {
            self.drop_slots(&o.dropped)?;
            if o.completed {
                let new_plan = self.pending_plans.remove(&o.id);
                if let (Some(new_plan), Some(pos)) =
                    (new_plan, self.sharings.iter().position(|s| s.id == o.id))
                {
                    let (committed, model) = (&mut self.committed, &self.config.model);
                    account(committed, model, &self.planned[pos].plan, -1.0);
                    account(committed, model, &new_plan.plan, 1.0);
                    self.planned[pos] = new_plan;
                }
                self.push_action(ActionKind::MigrationCompleted {
                    sharing: o.id,
                    from: o.from,
                    to: o.to,
                });
            } else {
                self.pending_plans.remove(&o.id);
                self.push_action(ActionKind::MigrationAborted {
                    sharing: o.id,
                    from: o.from,
                    to: o.to,
                });
            }
        }
        if any {
            self.sync_arrangements()?;
        }
        // Drain-before-retire: a Draining machine leaves the fleet only
        // once nothing is homed on it — no live MV, no in-flight handoff
        // touching it, no base relation.
        let draining: Vec<MachineId> = self
            .cluster
            .machine_ids()
            .into_iter()
            .filter(|&m| self.cluster.machine_state(m) == MachineState::Draining)
            .collect();
        if !draining.is_empty() {
            let executor = self.executor.as_ref().expect("outcomes drained above");
            let hosting = executor.mv_machines();
            let mut retire: Vec<MachineId> = Vec::new();
            for m in draining {
                let busy = hosting.contains(&m)
                    || executor.migrations_touching(m)
                    || self.catalog.bases().iter().any(|b| b.machine == m);
                if !busy {
                    retire.push(m);
                }
            }
            for m in retire {
                self.cluster.retire_machine(m, self.now);
                self.push_action(ActionKind::ScaleDown { machine: m });
            }
        }
        Ok(())
    }

    /// One adaptive-control decision: consume alerts fired since the last
    /// step and, for each, move the worst-burning sharings off the alerted
    /// (hot) machine — growing the fleet within budget when there is
    /// nowhere else to go — then run the elastic shrink pass. Every input
    /// is deterministic simulation state read in canonical order.
    fn adaptive_control(&mut self) -> Result<()> {
        let cfg = self.config.adaptive;
        let fresh: Vec<Alert> = {
            let executor = self.executor.as_ref().expect("step checked");
            let alerts = executor.alerts();
            let from = self.alert_cursor.min(alerts.len());
            self.alert_cursor = alerts.len();
            alerts[from..].to_vec()
        };
        for alert in fresh {
            let Some(sid) = alert.sharing else { continue };
            let id = SharingId::new(sid);
            // The hot machine is wherever the alerted sharing's MV lives
            // *now* (a completed migration moves it).
            let hot = {
                let executor = self.executor.as_ref().expect("checked");
                match executor.global.mv_vertex(id) {
                    Ok(v) => executor.global.plan.vertex(v).machine,
                    Err(_) => continue, // already retired
                }
            };
            let mut machines: Vec<MachineId> = self
                .cluster
                .active_machine_ids()
                .into_iter()
                .filter(|&m| m != hot)
                .collect();
            if machines.is_empty() {
                // Nowhere to migrate to: grow the fleet iff one more
                // reserved machine still fits the hourly dollar budget.
                let next = (self.cluster.reserved_count() + 1) as f64;
                if next * self.config.prices.cpu_per_hour <= cfg.budget_dollars_per_hour {
                    let m = self.cluster.add_machine(self.config.machine_config, self.now);
                    self.push_action(ActionKind::ScaleUp { machine: m });
                    machines.push(m);
                } else {
                    let active = self.cluster.reserved_count();
                    self.push_action(ActionKind::ScaleDenied { active });
                    continue;
                }
            }
            // Candidate *targets*, lightest live load first (ties by id).
            // The replanner itself still sees every active machine — the
            // half-join halves must stay colocated with their base
            // relations regardless of where the MV lands — so moving off
            // the hot machine means pinning the MV to a cooler target,
            // not planning over a fleet with the hot machine excluded.
            let util = {
                let executor = self.executor.as_ref().expect("checked");
                machine_utilization(&executor.global.plan, Scope::All, &self.config.model)
            };
            machines.sort_by(|x, y| {
                let ux = util.get(x).copied().unwrap_or(0.0);
                let uy = util.get(y).copied().unwrap_or(0.0);
                ux.partial_cmp(&uy)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.0.cmp(&y.0))
            });
            // Candidates: the alerted sharing first, then the fleet's
            // deterministic worst-headroom rows.
            let mut candidates: Vec<SharingId> = vec![id];
            {
                let executor = self.executor.as_ref().expect("checked");
                for row in executor.rollup().top_k_worst(8) {
                    let c = SharingId::new(row.sharing);
                    if !candidates.contains(&c) {
                        candidates.push(c);
                    }
                }
            }
            let mut moved = 0usize;
            for cid in candidates {
                if moved >= cfg.max_migrations_per_alert {
                    break;
                }
                if !self.sharings.iter().any(|s| s.id == cid) {
                    continue;
                }
                let on_hot = {
                    let executor = self.executor.as_ref().expect("checked");
                    if executor.migrating(cid) {
                        continue;
                    }
                    executor
                        .global
                        .mv_vertex(cid)
                        .map(|v| executor.global.plan.vertex(v).machine == hot)
                        .unwrap_or(false)
                };
                if !on_hot {
                    continue;
                }
                if let Some(&t) = self.last_migration.get(&cid) {
                    if self.now - t < cfg.cooldown {
                        continue;
                    }
                }
                for &target in &machines {
                    let all = self.cluster.active_machine_ids();
                    match self.replan_and_migrate(cid, all, Some(target)) {
                        Ok(true) => {
                            moved += 1;
                            break;
                        }
                        Ok(false) => break,
                        // No admissible placement with the MV on this
                        // target — try the next-coolest machine, and leave
                        // the sharing where it is rather than fail the run.
                        Err(SmileError::Inadmissible { .. })
                        | Err(SmileError::CapacityExhausted { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        self.elastic_shrink();
        Ok(())
    }

    /// The shrink half of fleet elasticity: an *elastic* machine (index at
    /// or past the seed fleet size) that has hosted no MV for
    /// `idle_retire_after` is drained; [`Smile::settle_migrations`] retires
    /// it once it is fully empty.
    fn elastic_shrink(&mut self) {
        let idle_after = self.config.adaptive.idle_retire_after;
        let base = self.config.machines;
        let executor = self.executor.as_ref().expect("step checked");
        let hosting = executor.mv_machines();
        let mut to_drain: Vec<MachineId> = Vec::new();
        for m in self.cluster.active_machine_ids() {
            if (m.0 as usize) < base {
                continue; // never drain the seed fleet
            }
            if hosting.contains(&m) || executor.migrations_touching(m) {
                self.mv_idle_since.remove(&m);
                continue;
            }
            let since = *self.mv_idle_since.entry(m).or_insert(self.now);
            if self.now - since >= idle_after {
                to_drain.push(m);
            }
        }
        for m in to_drain {
            self.cluster.begin_drain(m);
            self.mv_idle_since.remove(&m);
        }
    }

    /// Drains a machine out of the fleet: marks it Draining (no new MVs
    /// land there) and live-migrates every MV it hosts to the remaining
    /// active machines. Returns the sharings whose migrations started; the
    /// machine retires via [`Smile::step`] once the handoffs settle.
    pub fn drain_machine(&mut self, m: MachineId) -> Result<Vec<SharingId>> {
        if self.executor.is_none() {
            return Err(SmileError::Internal("drain before install".into()));
        }
        if self.catalog.bases().iter().any(|b| b.machine == m) {
            return Err(SmileError::Internal(format!(
                "machine m{} hosts base relations and cannot be drained",
                m.0
            )));
        }
        let rest: Vec<MachineId> = self
            .cluster
            .active_machine_ids()
            .into_iter()
            .filter(|&x| x != m)
            .collect();
        if rest.is_empty() {
            return Err(SmileError::Internal(
                "cannot drain the last active machine".into(),
            ));
        }
        self.cluster.begin_drain(m);
        let homed: Vec<SharingId> = {
            let executor = self.executor.as_ref().expect("checked above");
            self.sharings
                .iter()
                .map(|s| s.id)
                .filter(|&id| {
                    executor
                        .global
                        .mv_vertex(id)
                        .map(|v| executor.global.plan.vertex(v).machine == m)
                        .unwrap_or(false)
                })
                .collect()
        };
        let mut moved = Vec::new();
        for id in homed {
            if self.replan_and_migrate(id, rest.clone(), None)? {
                moved.push(id);
            }
        }
        Ok(moved)
    }

    /// Runs the platform for a simulated duration with no further ingest.
    pub fn run_idle(&mut self, duration: SimDuration) -> Result<()> {
        let end = self.now + duration;
        while self.now < end {
            self.step()?;
        }
        Ok(())
    }

    /// The admitted sharings.
    pub fn sharings(&self) -> &[Sharing] {
        &self.sharings
    }

    /// The chosen plan of a sharing.
    pub fn planned(&self, id: SharingId) -> Result<&PlannedSharing> {
        self.sharings
            .iter()
            .position(|s| s.id == id)
            .map(|i| &self.planned[i])
            .ok_or(SmileError::UnknownSharing(id))
    }

    /// Current MV contents of a sharing.
    pub fn mv_contents(&self, id: SharingId) -> Result<ZSet> {
        let executor = self
            .executor
            .as_ref()
            .ok_or_else(|| SmileError::Internal("no executor".into()))?;
        let mv = executor.global.mv_vertex(id)?;
        let vert = executor.global.plan.vertex(mv);
        let slot = vert
            .slot
            .ok_or_else(|| SmileError::Internal("MV without slot".into()))?;
        Ok(self
            .cluster
            .machine(vert.machine)?
            .db
            .relation(slot)?
            .table
            .rows()
            .clone())
    }

    /// Ground truth: what the MV *should* contain — the sharing's query
    /// evaluated over base-relation snapshots as of the MV's committed
    /// timestamp.
    pub fn expected_mv_contents(&self, id: SharingId) -> Result<ZSet> {
        let executor = self
            .executor
            .as_ref()
            .ok_or_else(|| SmileError::Internal("no executor".into()))?;
        let at = executor.mv_ts(id)?;
        let planned = self.planned(id)?;
        let provider = AsOfProvider {
            cluster: &self.cluster,
            catalog: &self.catalog,
            at,
        };
        planned.query.evaluate(&provider)
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

    /// Host-side totals of the parallel push engine: waves, jobs and their
    /// summed host busy time. Zero before `install`.
    pub fn wave_meter(&self) -> smile_sim::WaveMeter {
        self.executor
            .as_ref()
            .map(|e| e.wave_meter_view())
            .unwrap_or_default()
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
            reg.gauge("exec.retries_coalesced")
                .set(fs.retries_coalesced as f64);
            reg.gauge("exec.tuples_moved").set(e.tuples_moved as f64);
            reg.gauge("exec.push_records").set(e.push_records.len() as f64);
        }
        reg.gauge("snapshot.sla_violations")
            .set(self.snapshot.violations_total() as f64);
        reg.gauge("catalog.entries").set(self.merge_catalog.len() as f64);
        reg.gauge("catalog.probe_keys")
            .set(self.merge_catalog.probe_key_count() as f64);
        reg.gauge("arrangement_registry.entries")
            .set(self.arrangements.len() as f64);
        reg.gauge("arrangement_registry.refs")
            .set(self.arrangements.total_refs() as f64);
        reg.gauge("arrangement_registry.reclaimed")
            .set(self.arrangements.reclaimed as f64);
        let mut snap = self.telemetry.snapshot();
        if let Some(e) = &self.executor {
            // The top-K worst-headroom rows are folded into the snapshot
            // without ever registering instruments: the registry stays
            // bounded no matter the fleet size. Rank is zero-padded so the
            // rows sort together; keys and values derive only from the
            // deterministic rollup.
            for (rank, row) in e
                .rollup()
                .top_k_worst(self.telemetry.top_k_worst())
                .iter()
                .enumerate()
            {
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
    /// placement, structures shared through the merge catalog, arrangement
    /// hit rates, headroom percentiles from the bounded rollup, burn-rate
    /// state, dollar attribution, alerts and flight incidents. The text is
    /// assembled exclusively from deterministic state (sim-time, fixed
    /// float precision, canonical orders), so it is byte-identical at any
    /// worker count and across scheduler modes — and pinned as a golden
    /// output in the test suite.
    pub fn explain(&self, id: SharingId) -> Result<String> {
        use std::fmt::Write as _;
        let sharing = self
            .sharings
            .iter()
            .find(|s| s.id == id)
            .ok_or(SmileError::UnknownSharing(id))?;
        let executor = self
            .executor
            .as_ref()
            .ok_or_else(|| SmileError::Internal("explain requires an installed plan".into()))?;
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
        // vertices in push order), flagging vertices the merge catalog
        // shares with other sharings.
        let shared = order
            .iter()
            .chain(srcs.iter())
            .filter(|&&v| plan.vertex(v).sharings.len() > 1)
            .count();
        let _ = writeln!(
            out,
            "plan: {} source(s), {} push vertices, {} shared with other sharings",
            srcs.len(),
            order.len(),
            shared
        );
        for &v in srcs.iter().chain(order.iter()) {
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
                vert.sharings.len(),
                vert.sig
            );
        }
        // Fleet-shared infrastructure this sharing rides on.
        let arr = self.arrangement_meter();
        let _ = writeln!(
            out,
            "catalog: {} entries, {} probe keys  arrangements: {} installed, hit_rate {:.4}",
            self.merge_catalog.len(),
            self.merge_catalog.probe_key_count(),
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
    /// microseconds, so the artifact is byte-stable across worker counts.
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
            retries_coalesced: stats.retries_coalesced,
            sla_violations,
            sla_violations_attributable: attributable,
        }
    }
}

/// Adds (`sign = 1.0`) or releases (`sign = -1.0`) a plan's utilization in
/// the running committed totals.
fn account(
    committed: &mut HashMap<MachineId, f64>,
    model: &TimeCostModel,
    plan: &Plan,
    sign: f64,
) {
    for (m, u) in machine_utilization(plan, Scope::All, model) {
        *committed.entry(m).or_default() += sign * u;
    }
}

/// Desired arrangement refcounts from the live plan: one reference per
/// *live* (serving at least one sharing) join edge, keyed by the
/// snapshot side's (machine, relation slot, probe columns). `BTreeMap`, so
/// reconciliation walks keys deterministically.
fn desired_arrangements(global: &GlobalPlan) -> BTreeMap<ArrangementKey, usize> {
    let mut desired: BTreeMap<ArrangementKey, usize> = BTreeMap::new();
    for e in global.plan.edges() {
        let EdgeOp::Join { on, delta_side, .. } = &e.op else {
            continue;
        };
        if e.sharings.is_empty() {
            continue;
        }
        let snap_cols = match delta_side {
            DeltaSide::Left => &on.right_cols,
            DeltaSide::Right => &on.left_cols,
        };
        let rel_v = global.plan.vertex(e.inputs[1]);
        let Some(slot) = rel_v.slot else {
            continue;
        };
        *desired
            .entry((rel_v.machine, slot, snap_cols.clone()))
            .or_default() += 1;
    }
    desired
}

/// The incremental storage materializer shared by `install`, `submit_live`
/// and live migration. `seed_at` pins the seed: freshly created derived
/// relations are evaluated from base snapshots *as of* that instant and
/// stamped with it. Admissions seed at `now` (base tables are current);
/// a migration must instead seed at the old chain's committed MV
/// timestamp so the shadow chain's push windows tile exactly against the
/// anchored half-join jobs it shares with the old chain.
fn materialize_into(
    catalog: &mut Catalog,
    cluster: &mut Cluster,
    global: &mut GlobalPlan,
    seed_at: Option<Timestamp>,
    now: Timestamp,
) -> Result<Vec<smile_types::VertexId>> {
    use crate::plan::sig::ExprSig;
    // Existing slot assignments seed the (sig, machine) → slot map so a new
    // Delta vertex pairs with its already-materialized Relation twin.
    let mut slots: HashMap<(ExprSig, MachineId), RelationId> = HashMap::new();
    for v in global.plan.vertices() {
        if let Some(slot) = v.slot {
            slots.insert((v.sig.clone(), v.machine), slot);
        }
    }
    let mut created: Vec<smile_types::VertexId> = Vec::new();
    let mut created_slots: std::collections::HashSet<(MachineId, RelationId)> =
        std::collections::HashSet::new();
    let vertex_ids: Vec<_> = global.plan.vertices().iter().map(|v| v.id).collect();
    for v in vertex_ids {
        let (sig, machine, is_base, schema, has_slot) = {
            let vert = global.plan.vertex(v);
            (
                vert.sig.clone(),
                vert.machine,
                vert.is_base,
                vert.schema.clone(),
                vert.slot.is_some(),
            )
        };
        if has_slot {
            continue;
        }
        let slot = if is_base {
            match &sig {
                ExprSig::Base(r) => *r,
                other => {
                    return Err(SmileError::Internal(format!(
                        "base vertex with non-base signature {other}"
                    )))
                }
            }
        } else {
            *slots
                .entry((sig, machine))
                .or_insert_with(|| catalog.alloc_derived())
        };
        if !cluster.machine(machine)?.db.has_relation(slot) {
            cluster
                .machine_mut(machine)?
                .db
                .create_relation(slot, schema)?;
            created_slots.insert((machine, slot));
        }
        global.plan.vertex_mut(v).slot = Some(slot);
        if created_slots.contains(&(machine, slot)) {
            created.push(v);
        }
    }
    // Arrangements for join probes (idempotent; edges on the same
    // (relation, key) pair share one arrangement).
    for e in global.plan.edges().to_vec() {
        let EdgeOp::Join { on, delta_side, .. } = &e.op else {
            continue;
        };
        let snap_cols = match delta_side {
            DeltaSide::Left => &on.right_cols,
            DeltaSide::Right => &on.left_cols,
        };
        let rel_v = global.plan.vertex(e.inputs[1]);
        let slot = rel_v
            .slot
            .ok_or_else(|| SmileError::Internal("join input without slot".into()))?;
        cluster
            .machine_mut(rel_v.machine)?
            .db
            .ensure_index(slot, snap_cols)?;
    }
    // Seed the freshly created derived relations in topological order.
    let mut seeded: std::collections::HashSet<(MachineId, RelationId)> =
        std::collections::HashSet::new();
    for v in global.plan.topo_order()? {
        let vert = global.plan.vertex(v);
        if vert.is_base || vert.kind != VertexKind::Relation {
            continue;
        }
        let slot = vert.slot.expect("assigned above");
        if !created_slots.contains(&(vert.machine, slot)) || !seeded.insert((vert.machine, slot)) {
            continue;
        }
        let rows = eval_sig(&vert.sig, cluster, catalog, seed_at)?;
        cluster
            .machine_mut(vert.machine)?
            .db
            .seed_relation(slot, rows, seed_at.unwrap_or(now))?;
    }
    Ok(created)
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

#[cfg(test)]
mod tests {
    use super::*;
    use smile_storage::delta::DeltaEntry;
    use smile_storage::join::JoinOn;
    use smile_storage::Predicate;
    use smile_types::{tuple, Column, ColumnType};

    fn users_schema() -> Schema {
        Schema::new(
            vec![
                Column::new("uid", ColumnType::I64),
                Column::new("name", ColumnType::Str),
            ],
            vec![0],
        )
    }

    fn tweets_schema() -> Schema {
        Schema::new(
            vec![
                Column::new("tid", ColumnType::I64),
                Column::new("uid", ColumnType::I64),
            ],
            vec![0],
        )
    }

    fn setup() -> (Smile, RelationId, RelationId) {
        let mut smile = Smile::new(SmileConfig::with_machines(3));
        let users = smile
            .register_base(
                "users",
                users_schema(),
                MachineId::new(0),
                BaseStats {
                    update_rate: 5.0,
                    cardinality: 100.0,
                    tuple_bytes: 40.0,
                    distinct: vec![100.0, 90.0],
                },
            )
            .unwrap();
        let tweets = smile
            .register_base(
                "tweets",
                tweets_schema(),
                MachineId::new(1),
                BaseStats {
                    update_rate: 20.0,
                    cardinality: 1000.0,
                    tuple_bytes: 40.0,
                    distinct: vec![1000.0, 100.0],
                },
            )
            .unwrap();
        (smile, users, tweets)
    }

    /// Drives a deterministic workload: every second, one new user and a
    /// few tweets from known users.
    fn drive(smile: &mut Smile, users: RelationId, tweets: RelationId, seconds: u64) {
        for s in 0..seconds {
            let now = smile.now();
            let uid = (s % 50) as i64;
            let user_batch: DeltaBatch = [DeltaEntry::insert(
                tuple![uid, format!("user{uid}").as_str()],
                now,
            )]
            .into_iter()
            .collect();
            smile.ingest(users, user_batch).unwrap();
            let tweet_batch: DeltaBatch = (0..3)
                .map(|k| {
                    DeltaEntry::insert(tuple![(s * 10 + k) as i64, ((s + k) % 50) as i64], now)
                })
                .collect();
            smile.ingest(tweets, tweet_batch).unwrap();
            smile.step().unwrap();
        }
    }

    #[test]
    fn end_to_end_incremental_equals_ground_truth() {
        let (mut smile, users, tweets) = setup();
        let q = SpjQuery::scan(users).join(tweets, JoinOn::on(0, 1), Predicate::True);
        let id = smile
            .submit("twitaholic", q, SimDuration::from_secs(20), 0.001)
            .unwrap();
        smile.install().unwrap();
        drive(&mut smile, users, tweets, 120);

        // At least one push must have happened.
        let executor = smile.executor.as_ref().unwrap();
        assert!(
            !executor.push_records.is_empty(),
            "no pushes in 120 seconds"
        );
        let got = smile.mv_contents(id).unwrap();
        let want = smile.expected_mv_contents(id).unwrap();
        assert!(!want.is_empty(), "ground truth should not be empty");
        assert_eq!(got.sorted_entries(), want.sorted_entries());
    }

    #[test]
    fn staleness_stays_within_sla() {
        let (mut smile, users, tweets) = setup();
        let q = SpjQuery::scan(users).join(tweets, JoinOn::on(0, 1), Predicate::True);
        let _id = smile
            .submit("twitaholic", q, SimDuration::from_secs(20), 0.001)
            .unwrap();
        smile.install().unwrap();
        drive(&mut smile, users, tweets, 180);
        assert_eq!(
            smile.snapshot.violations_total(),
            0,
            "SLA violations under light load"
        );
        // The staleness series shows the lazy sawtooth: it must at some
        // point exceed half the SLA (laziness) and drop after pushes.
        let series = smile.snapshot.staleness_series(SharingId::new(1));
        let max = series.iter().map(|(_, s)| *s).max().unwrap();
        assert!(max > SimDuration::from_secs(8), "never got lazy: {max}");
    }

    #[test]
    fn costs_accrue_and_are_attributed() {
        let (mut smile, users, tweets) = setup();
        let q = SpjQuery::scan(users).join(tweets, JoinOn::on(0, 1), Predicate::True);
        let id = smile
            .submit("twitaholic", q, SimDuration::from_secs(20), 0.001)
            .unwrap();
        smile.install().unwrap();
        drive(&mut smile, users, tweets, 60);
        assert!(smile.total_dollars() > 0.0);
        assert!(smile.sharing_dollars(id) > 0.0);
    }

    #[test]
    fn filtered_projected_sharing_maintained_exactly() {
        let (mut smile, users, tweets) = setup();
        // Dinner-style filter: tweets of users 0..10 only, keep (name, tid).
        let q = SpjQuery::scan(users)
            .join(
                tweets,
                JoinOn::on(0, 1),
                Predicate::cmp(1, smile_storage::predicate::CmpOp::Lt, 10i64),
            )
            .project(vec![1, 2]);
        let id = smile
            .submit("dinner", q, SimDuration::from_secs(15), 0.001)
            .unwrap();
        smile.install().unwrap();
        drive(&mut smile, users, tweets, 90);
        let got = smile.mv_contents(id).unwrap();
        let want = smile.expected_mv_contents(id).unwrap();
        assert_eq!(got.sorted_entries(), want.sorted_entries());
        assert!(got.iter().all(|(t, _)| t.arity() == 2));
    }

    #[test]
    fn inadmissible_sharing_rejected_at_submit() {
        let (mut smile, users, tweets) = setup();
        let q = SpjQuery::scan(users).join(tweets, JoinOn::on(0, 1), Predicate::True);
        let err = smile.submit("too-fast", q, SimDuration::from_millis(1), 0.001);
        assert!(matches!(err, Err(SmileError::Inadmissible { .. })));
        assert!(smile.sharings().is_empty());
    }

    #[test]
    fn step_before_install_errors() {
        let (mut smile, _, _) = setup();
        assert!(smile.step().is_err());
    }
}
