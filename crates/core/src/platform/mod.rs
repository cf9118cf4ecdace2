//! The `Smile` facade: the whole platform behind one handle.
//!
//! Usage follows the paper's life cycle:
//!
//! 1. [`Smile::new`] builds the machine fleet;
//! 2. [`Smile::register_base`] declares each app's shared base relation
//!    (schema, home machine, statistics) and creates its storage;
//! 3. [`Smile::submit`] runs the sharing optimizer — the sharing is either
//!    admitted (DPD/DPT chosen per §6.2) and merged into the global plan,
//!    or rejected with [`SmileError::Inadmissible`];
//! 4. [`Smile::install`] optionally hill-climbs the plumbing of the
//!    staged global plan, allocates storage slots, seeds derived relations,
//!    and starts the executor;
//! 5. the driver loop alternates [`Smile::ingest`] (workload updates) and
//!    [`Smile::step`] (one executor tick + audit).
//!
//! Admission is one routine in both phases: before `install` the admitted
//! plan merges into the staged global plan, after it into the running one
//! (and starts being maintained at once). This file holds the configuration,
//! the `Smile` handle and that lifecycle; `adaptive.rs` holds the control
//! loop and live migration, `introspect.rs` the read-only reports.

mod adaptive;
mod introspect;

pub use adaptive::{Action, ActionKind, AdaptiveConfig};
pub use introspect::FaultReport;

use crate::catalog::{BaseStats, Catalog};
use crate::executor::seed::{eval_sig, BaseReads};
use crate::executor::{ExecConfig, Executor};
use crate::multi::{GlobalPlan, HillClimbReport};
use crate::optimizer::{Objective, Optimizer, PlannedSharing};
use crate::plan::cost::{edge_utilization, machine_utilization, Scope};
use crate::plan::dag::{ArrangementId, Plan, Vertex, VertexKind};
use crate::plan::sig::ExprSig;
use crate::plan::timecost::TimeCostModel;
use crate::sharing::Sharing;
use crate::snapshot::SnapshotModule;
use smile_sim::{Cluster, FaultProfile, MachineConfig, PriceSheet};
use smile_storage::{DeltaBatch, IndexCols, SpjQuery};
use smile_telemetry::{Telemetry, TelemetryConfig};
use smile_types::{
    MachineId, RelationId, Result, Schema, SharingId, SimDuration, SmileError, Timestamp, VertexId,
};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// How many worst-headroom sharings the metrics snapshot exports as rows
/// and the adaptive loop considers as migration candidates per alert — the
/// K in the O(K) rollup cardinality bound.
const WORST_ROWS: usize = 8;

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
    /// Telemetry settings: span recording on/off and the span sampling
    /// rate. Instruments always record (plain cells); disabling only
    /// quiets span recording (zero allocation).
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
    telemetry: Rc<Telemetry>,
    /// The global plan built incrementally at submit time; `install`
    /// consumes it.
    staged: GlobalPlan,
    /// Utilization per machine committed to the staged sharings; `install`
    /// consumes it with the staged plan (the running plan's own load is
    /// what later admissions are planned against).
    committed: HashMap<MachineId, f64>,
    /// Arrangements that stopped existing because no live join probed them
    /// any more, dropped alone or with their relation.
    arrangements_reclaimed: u64,
    now: Timestamp,
    next_sharing: u32,
    /// Entries ingested at or before the latest seed instant would fall
    /// outside the half-open push windows `(seed, t]`; ingest clamps them
    /// up to this floor just above it.
    seed_floor: Timestamp,
    /// Typed log of every adaptive-actuator decision, in decision order.
    actions: Vec<Action>,
    /// How many of the executor's alerts the control loop has consumed.
    alert_cursor: usize,
    /// Last migration start per sharing (cooldown bookkeeping).
    last_migration: HashMap<SharingId, Timestamp>,
    /// Re-planned placements of in-flight migrations; applied to `planned`
    /// when the cutover settles.
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
        let telemetry = Rc::new(Telemetry::new(&config.telemetry));
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
            committed: HashMap::new(),
            arrangements_reclaimed: 0,
            now: Timestamp::ZERO,
            next_sharing: 1,
            seed_floor: Timestamp::ZERO,
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

    /// Submits a sharing for admission: runs the sharing optimizer against
    /// the utilization already committed and, if admissible, merges the
    /// chosen plan into the global plan. Before `install` the sharing is
    /// staged and starts running at `install`; after it the sharing joins
    /// the *running* plan (paper §10 future work) — the plan gains
    /// deduplicated vertices, new storage is seeded from the current base
    /// contents, and maintenance starts at the next tick.
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
    /// setup "arbitrarily assigned" the 25 sharings to the 6 machines. This
    /// is the one admission routine behind every `submit*` entry:
    /// `plan_and_merge`, its host latency recorded whether the sharing was
    /// admitted or not, then the sharing registered.
    pub fn submit_pinned(
        &mut self,
        name: &str,
        query: SpjQuery,
        staleness_sla: SimDuration,
        penalty_per_tuple: f64,
        mv_machine: Option<MachineId>,
    ) -> Result<SharingId> {
        let started = std::time::Instant::now();
        let id = SharingId::new(self.next_sharing);
        let sharing = Sharing::new(id, name, query, staleness_sla, penalty_per_tuple);
        let planned = self.plan_and_merge(&sharing, mv_machine);
        // `host_` marks the one wall-clock (nondeterministic) metric here;
        // determinism suites filter on that marker.
        self.telemetry
            .registry()
            .histogram("admission.host_latency_us")
            .record(started.elapsed().as_micros() as u64);
        self.planned.push(planned?);
        self.sharings.push(sharing);
        self.next_sharing += 1;
        Ok(id)
    }

    /// The same operation as [`Smile::submit_pinned`], under the name
    /// drivers use for admissions made while the platform runs.
    pub fn submit_live(
        &mut self,
        name: &str,
        query: SpjQuery,
        staleness_sla: SimDuration,
        penalty_per_tuple: f64,
        mv_machine: Option<MachineId>,
    ) -> Result<SharingId> {
        self.submit_pinned(name, query, staleness_sla, penalty_per_tuple, mv_machine)
    }

    /// Validate → plan against the phase's utilization → merge, counting
    /// what the merge reused → reconcile storage when running. The phase
    /// selects only the utilization view and where the plan merges.
    fn plan_and_merge(
        &mut self,
        sharing: &Sharing,
        mv_machine: Option<MachineId>,
    ) -> Result<PlannedSharing> {
        sharing.query.validate(&self.catalog)?;
        // Staged admissions plan against the sum of the admitted plans;
        // once running, against what the merged plan actually loads.
        let utilization = match self.executor {
            Some(_) => self.live_utilization()?,
            None => self.committed.clone(),
        };
        let reg = self.telemetry.registry();
        let planned = self
            .optimizer(self.cluster.active_machine_ids())
            .plan_admission(sharing, utilization, mv_machine)
            .inspect_err(|e| {
                if matches!(e, SmileError::Inadmissible { .. }) {
                    reg.counter("planner.sharings_rejected").inc();
                }
            })?;
        // A running plan's admission is seeded no later than the resident
        // vertices it attaches to, and refused before it merges if one of
        // them holds no state to read from at that instant.
        let seed = match &self.executor {
            Some(executor) => {
                let inputs = self.resident_inputs(&planned)?;
                let derived = inputs.iter().filter(|&&v| !executor.global.plan.vertex(v).is_base);
                let seed = derived.map(|&v| executor.coverage(v)).fold(self.now, Timestamp::min);
                if let Some(relation) = self.unseedable(&inputs, seed, &[])? {
                    reg.counter("planner.sharings_rejected").inc();
                    reg.counter("planner.sharings_unseedable").inc();
                    return Err(SmileError::SeedUnavailable { relation, seed });
                }
                Some(seed)
            }
            None => None,
        };
        reg.counter("planner.sharings_admitted").inc();
        let before = self.current_plan().vertex_count();
        match &mut self.executor {
            Some(executor) => executor.add_sharing(sharing, &planned)?,
            None => {
                self.staged.merge(sharing, &planned)?;
                for (m, u) in machine_utilization(&planned.plan, Scope::All, &self.config.model) {
                    *self.committed.entry(m).or_default() += u;
                }
            }
        }
        self.count_reuse(&planned, before);
        if let Some(seed) = seed {
            self.reconcile_storage(Some(seed).filter(|&s| s < self.now))?;
        }
        Ok(planned)
    }

    /// The vertices already holding storage that `planned`'s newly live
    /// vertices read from, once merged into the running plan — where their
    /// first windows start, at the seed instant. The walk follows the merge:
    /// a vertex the running plan has keeps its producer there (slotless:
    /// inert, about to be revived), one it lacks brings its planned one.
    ///
    /// A live admission seeds no later than the oldest coverage among them:
    /// a twin that dedups into a half-join pair whose last push lags `now`
    /// must see the pair's next window whole, since its cross-term is
    /// stamped inside the lag. And neither a live admission nor a migration
    /// can seed before one of their logs' horizons.
    fn resident_inputs(&self, planned: &PlannedSharing) -> Result<Vec<VertexId>> {
        /// A vertex of the merged plan: one the running plan has, or one only
        /// `planned` brings.
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        enum Merged {
            Running(VertexId),
            New(VertexId),
        }
        let (plan, global) = (&planned.plan, &running(&self.executor)?.global.plan);
        let merged = |v: VertexId| {
            let vert = plan.vertex(v);
            let found = global.find_vertex(vert.kind, &vert.sig, vert.machine);
            found.map_or(Merged::New(v), Merged::Running)
        };
        let resident = |v| matches!(v, Merged::Running(g) if global.vertex(g).slot.is_some());
        let (mut live, mut seen, mut inputs) = (vec![merged(planned.mv)], HashSet::new(), vec![]);
        live.retain(|&v| !resident(v));
        while let Some(v) = live.pop() {
            let producer = match v {
                Merged::Running(g) => global.producer(g).map(|e| (e, true)),
                Merged::New(p) => plan.producer(p).map(|e| (e, false)),
            };
            let Some((edge, in_global)) = producer else { continue };
            for &i in &edge.inputs {
                let input = if in_global { Merged::Running(i) } else { merged(i) };
                match input {
                    _ if !seen.insert(input) => {}
                    Merged::Running(g) if resident(input) => inputs.push(g),
                    _ => live.push(input),
                }
            }
        }
        Ok(inputs)
    }

    /// The first of `inputs` that new vertices seeded at `seed` could not
    /// start reading there: its log is cut past it — compaction keeps a log
    /// for its current readers, who may be far ahead (a Relation replicated
    /// where its Delta twin already lands catches up from the twin's log the
    /// same way) — or it is a join's or an aggregate's output, which is a
    /// state of its expression only at the end of a window it was pushed
    /// through, and `seed` is not its coverage. `own` are vertices `seed` is
    /// known to end a window of: a migrating sharing's chain, which each of
    /// its pushes took to its target.
    fn unseedable(
        &self,
        inputs: &[VertexId],
        seed: Timestamp,
        own: &[VertexId],
    ) -> Result<Option<RelationId>> {
        let executor = running(&self.executor)?;
        for &v in inputs {
            let vert = executor.global.plan.vertex(v);
            let Some(slot) = vert.slot else { continue };
            let horizon = self.cluster.machine(vert.machine)?.db.relation(slot)?.delta.horizon();
            let mid_window = executor.coverage(v) != seed && vert.sig.windowed();
            if seed < horizon || (mid_window && !own.contains(&v)) {
                return Ok(Some(slot));
            }
        }
        Ok(None)
    }

    /// Posts what merging `planned` reused, at the merge: of the vertices it
    /// brought, those the global plan (`before` vertices until then) did not
    /// grow by were already there.
    fn count_reuse(&self, planned: &PlannedSharing, before: usize) {
        let grew = self.current_plan().vertex_count() - before;
        let reg = self.telemetry.registry();
        reg.counter("catalog.misses").add(grew as u64);
        reg.counter("catalog.hits")
            .add((planned.plan.vertex_count() - grew) as u64);
    }

    /// The global plan admissions merge into: the running one once
    /// installed, the staged one before.
    fn current_plan(&self) -> &Plan {
        &self.global_plan().unwrap_or(&self.staged).plan
    }

    /// The decision layer every plan search, install-time plumbing pass and
    /// online re-plan goes through, choosing placements among `machines`.
    /// Only *active* machines are ever passed: a draining or retired
    /// machine must not gain new MVs.
    fn optimizer(&self, machines: Vec<MachineId>) -> Optimizer<'_> {
        Optimizer::new(
            &self.catalog,
            machines,
            &self.config.model,
            &self.config.prices,
        )
        .with_capacity(self.config.capacity)
        .with_force_objective(self.config.force_objective)
    }

    /// Per-machine utilization of the live part of the *running* global
    /// plan: what a retired sharing loaded is admission capacity again.
    fn live_utilization(&self) -> Result<HashMap<MachineId, f64>> {
        let executor = running(&self.executor)?;
        let (plan, model) = (&executor.global.plan, &self.config.model);
        Ok(edge_utilization(plan, executor.live_edges(), model))
    }

    /// Runs the plumbing pass over the staged global plan, starts the
    /// executor on it, and gives the plan its storage.
    pub fn install(&mut self) -> Result<()> {
        if self.executor.is_some() {
            return Err(SmileError::Internal(
                "platform already installed; dynamic re-install is not supported".into(),
            ));
        }
        // Already merged incrementally, one sharing at a time, at submit.
        let mut global = std::mem::take(&mut self.staged);
        self.committed.clear();
        if self.config.hill_climb {
            let report = self
                .optimizer(self.cluster.active_machine_ids())
                .hill_climb_placement(&mut global, true, self.config.hill_climb_iterations);
            self.hc_report = Some(report);
        }
        global.plan.validate()?;
        let reg = self.telemetry.registry();
        reg.gauge("plan.vertices")
            .set(global.plan.vertex_count() as f64);
        reg.gauge("plan.edges").set(global.plan.edges().len() as f64);
        self.executor = Some(Executor::new(
            global,
            &self.sharings,
            self.config.model.clone(),
            self.config.exec.clone(),
            Rc::clone(&self.telemetry),
        )?);
        self.reconcile_storage(None)
    }

    /// The one storage reconcile, run wherever liveness may have changed
    /// (install, live admission, retirement, migration start and
    /// settlement): afterwards a derived vertex holds a storage slot exactly
    /// when the executor says it is [`live`](Executor::live), and an
    /// arrangement exists exactly when a live join edge probes it.
    ///
    /// * Every live vertex without a slot gets one, in vertex-id order — its
    ///   twin's if the twin holds one (a Relation vertex and the Delta
    ///   vertex of the same signature and machine share table + log), else
    ///   a new relation whose log starts at the seed instant.
    /// * Every Relation vertex slotted here is seeded from ground truth (all
    ///   evaluated first, reading each base once: [`BaseReads`]) and every
    ///   vertex slotted here is stamped with the seed instant — per
    ///   vertex, so a relation adopting the slot its delta twin has long
    ///   been landing windows in is seeded like any other. The ingest floor
    ///   is lifted past the seed: entries stamped at or before it are in the
    ///   seed and would fall outside the new vertices' half-open windows.
    /// * Every vertex that is no longer live gives its slot up: a slot nobody
    ///   holds any more is dropped, and a relation vertex whose delta twin
    ///   keeps the slot empties its table.
    /// * Every arrangement still installed that no live join edge probes is
    ///   dropped. The live join edges *are* the readers (a migration's
    ///   shadow chain included, from its start), so there is no count to keep
    ///   beside them.
    ///
    /// `seed_at` pins the seed: the relations are evaluated from base
    /// snapshots *as of* that instant and stamped with it. Install, retire
    /// and settlement seed at `now` (base tables are current); a live
    /// admission no later than the resident vertices it attaches to
    /// (`resident_inputs`); a migration at the old chain's committed MV
    /// timestamp, so the shadow chain's push windows tile exactly against
    /// the anchored half-join jobs it shares with it.
    fn reconcile_storage(&mut self, seed_at: Option<Timestamp>) -> Result<()> {
        let executor = running_mut(&mut self.executor)?;
        let seed = seed_at.unwrap_or(self.now);
        let vertex_ids = (0..executor.global.plan.vertex_count()).map(|i| VertexId::new(i as u32));
        let mut slotted: Vec<VertexId> = Vec::new();
        for v in vertex_ids.clone() {
            let plan = &executor.global.plan;
            let vert = plan.vertex(v);
            if vert.slot.is_some() || !executor.live(v) {
                continue;
            }
            let slot = match (&vert.sig, vert.is_base) {
                (ExprSig::Base(rel), true) => *rel,
                (other, true) => {
                    return Err(SmileError::Internal(format!(
                        "base vertex with non-base signature {other}"
                    )))
                }
                (_, false) => twin_slot(plan, vert).unwrap_or_else(|| self.catalog.alloc_derived()),
            };
            let db = &mut self.cluster.machine_mut(vert.machine)?.db;
            if !db.has_relation(slot) {
                db.create_relation(slot, vert.schema.clone())?;
                db.compact(slot, seed)?;
            }
            if !vert.is_base {
                slotted.push(v);
            }
            executor.global.plan.vertex_mut(v).slot = Some(slot);
        }
        let plan = &executor.global.plan;
        // Arrangements the newly slotted join edges probe, before seeding
        // fills the tables (idempotent; edges with one (relation, index
        // columns) identity share one arrangement).
        for e in slotted.iter().filter_map(|&v| plan.producer(v)) {
            if let Some(((machine, slot, on), _)) = plan.probed_arrangement(e) {
                self.cluster.machine_mut(machine)?.db.ensure_arrangement(slot, &on)?;
            }
        }
        let mut reads = BaseReads::new();
        let mut seeds = Vec::new();
        for vert in slotted.iter().map(|&v| plan.vertex(v)) {
            if let (VertexKind::Relation, Some(slot)) = (vert.kind, vert.slot) {
                let rows = eval_sig(&vert.sig, &self.cluster, &self.catalog, seed_at, &mut reads)?;
                seeds.push((vert.machine, slot, rows));
            }
        }
        for (machine, slot, rows) in seeds {
            self.cluster.machine_mut(machine)?.db.seed_relation(slot, rows, seed)?;
        }
        if !slotted.is_empty() {
            executor.mark_vertices_seeded(&slotted, seed);
            self.seed_floor = self.seed_floor.max(seed + SimDuration::from_micros(1));
        }
        for v in vertex_ids {
            let plan = &executor.global.plan;
            let vert = plan.vertex(v);
            let Some(slot) = vert.slot.filter(|_| !executor.live(v)) else { continue };
            let db = &mut self.cluster.machine_mut(vert.machine)?.db;
            if twin_slot(plan, vert) != Some(slot) {
                let installed = db.relation(slot)?.table.arrangements().count();
                self.arrangements_reclaimed += installed as u64;
                db.drop_relation(slot)?;
            } else if vert.kind == VertexKind::Relation {
                // The delta twin keeps the log; the rows go now.
                db.clear_table(slot)?;
            }
            executor.global.plan.vertex_mut(v).slot = None;
        }
        let plan = &executor.global.plan;
        let probed: HashSet<ArrangementId> = live_probes(executor).collect();
        for vert in plan.vertices() {
            let Some(slot) = vert.slot else { continue };
            let db = &mut self.cluster.machine_mut(vert.machine)?.db;
            let installed = db.relation(slot)?.table.arrangements();
            let unread: Vec<IndexCols> = installed
                .map(|a| a.on().clone())
                .filter(|on| !probed.contains(&(vert.machine, slot, on.clone())))
                .collect();
            for on in unread {
                db.drop_arrangement(slot, &on);
                self.arrangements_reclaimed += 1;
            }
        }
        Ok(())
    }

    /// The running global plan, once installed.
    pub fn global_plan(&self) -> Option<&GlobalPlan> {
        self.executor.as_ref().map(|e| &e.global)
    }

    /// The global plan staged admissions have merged so far; empty once
    /// `install` has consumed it.
    pub fn staged_plan(&self) -> &GlobalPlan {
        &self.staged
    }

    /// Per-machine utilization committed to staged sharings — what the
    /// next admission before `install` is planned against; empty once
    /// `install` has consumed the staged plan.
    pub fn committed_utilization(&self) -> &HashMap<MachineId, f64> {
        &self.committed
    }

    /// **On-the-fly removal** (paper §10 future work): stops maintaining a
    /// sharing and drops the storage that served only it. Other sharings
    /// are untouched — shared vertices keep running for them.
    pub fn retire(&mut self, id: SharingId) -> Result<()> {
        running_mut(&mut self.executor)?.remove_sharing(id)?;
        if let Ok(pos) = self.position(id) {
            self.sharings.remove(pos);
            self.planned.remove(pos);
        }
        self.pending_plans.remove(&id);
        self.last_migration.remove(&id);
        self.reconcile_storage(None)
    }

    /// Ingests an application update batch into a base relation (delta
    /// capture). Entries should be stamped at or near `self.now()`; stamps
    /// at or below the latest seed instant (install, a live admission, a
    /// migration's shadow seed) are clamped just above it so they stay
    /// inside the executor's half-open push windows.
    pub fn ingest(&mut self, rel: RelationId, batch: DeltaBatch) -> Result<()> {
        let machine = self.catalog.base(rel)?.machine;
        let db = &mut self.cluster.machine_mut(machine)?.db;
        db.ingest_above(rel, batch, self.seed_floor)
    }

    /// Advances the platform by one executor tick, settles any live
    /// migrations the tick cut over or aborted, and — when the adaptive
    /// actuator is enabled — runs one deterministic control decision:
    /// drain new burn-rate alerts, re-plan and migrate alerted sharings off
    /// their saturated machine, and grow/shrink the fleet within budget.
    pub fn step(&mut self) -> Result<()> {
        let executor = running_mut(&mut self.executor)?;
        // Crashes due now take machines out of service before the executor
        // plans around them.
        self.cluster.apply_faults(self.now);
        executor.tick(&mut self.cluster, self.now)?;
        self.settle_migrations()?;
        if self.config.adaptive.enabled {
            self.adaptive_control()?;
        }
        self.snapshot.maybe_record(
            running_mut(&mut self.executor)?,
            &mut self.cluster,
            self.now,
        );
        self.now += self.config.exec.tick;
        Ok(())
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
        Ok(&self.planned[self.position(id)?])
    }

    /// An admitted sharing: its submitted query is what its MV holds.
    fn sharing(&self, id: SharingId) -> Result<&Sharing> {
        Ok(&self.sharings[self.position(id)?])
    }

    /// Where an admitted sharing sits in `sharings` and `planned`.
    fn position(&self, id: SharingId) -> Result<usize> {
        let pos = self.sharings.iter().position(|s| s.id == id);
        pos.ok_or(SmileError::UnknownSharing(id))
    }
}

/// The running executor, or the one error every entry point that needs it
/// returns before `install`. Free functions over the field rather than
/// methods, so callers can keep borrowing the cluster and catalog beside it.
fn running(executor: &Option<Executor>) -> Result<&Executor> {
    executor.as_ref().ok_or_else(not_installed)
}

/// [`running`], mutably.
fn running_mut(executor: &mut Option<Executor>) -> Result<&mut Executor> {
    executor.as_mut().ok_or_else(not_installed)
}

fn not_installed() -> SmileError {
    SmileError::Internal("the platform is not running: call install() first".into())
}

/// What the live join edges probe, one arrangement per edge: edges on one
/// arrangement share it.
fn live_probes(executor: &Executor) -> impl Iterator<Item = ArrangementId> + '_ {
    let plan = &executor.global.plan;
    executor
        .live_edges()
        .filter_map(|e| Some(plan.probed_arrangement(e)?.0))
}

/// The slot held by `vert`'s twin — the vertex of the other kind with the
/// same signature on the same machine, with which it shares one slot.
fn twin_slot(plan: &Plan, vert: &Vertex) -> Option<RelationId> {
    let other = match vert.kind {
        VertexKind::Relation => VertexKind::Delta,
        VertexKind::Delta => VertexKind::Relation,
    };
    plan.vertex(plan.find_vertex(other, &vert.sig, vert.machine)?).slot
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
