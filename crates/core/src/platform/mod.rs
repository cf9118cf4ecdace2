//! The `Smile` facade: the whole platform behind one handle.
//!
//! Usage follows the paper's life cycle:
//!
//! 1. [`Smile::new`] builds the fleet and an executor over an empty plan;
//! 2. [`Smile::register_base`] declares each app's shared base relation
//!    (schema, home machine, statistics) and creates its storage;
//! 3. [`Smile::submit`] runs the sharing optimizer against the global
//!    plan's load — the sharing is either admitted (DPD/DPT chosen per §6.2)
//!    and merged into that plan, or rejected with [`SmileError::Inadmissible`];
//! 4. [`Smile::install`] optionally hill-climbs the plumbing of the global
//!    plan, then starts it: allocates storage slots, seeds derived
//!    relations and gives every admitted sharing its runtime;
//! 5. the driver loop alternates [`Smile::ingest`] (workload updates) and
//!    [`Smile::step`] (one executor tick + audit; the first one starts the
//!    platform if `install` did not).
//!
//! Admission is one routine before and after the start; once started, an
//! admitted sharing is maintained at once. This file holds the
//! configuration, the `Smile` handle and that lifecycle; `adaptive.rs` holds
//! the control loop and live migration, `introspect.rs` the read-only reports.

mod adaptive;
mod introspect;

pub use adaptive::{Action, ActionKind, AdaptiveConfig};
pub use introspect::FaultReport;

use crate::catalog::{BaseStats, Catalog};
use crate::executor::seed::{eval_sig, BaseReads};
use crate::executor::{ExecConfig, Executor};
use crate::multi::{hill_climb, GlobalPlan, HillClimbReport};
use crate::optimizer::{Objective, Optimizer, PlannedSharing};
use crate::plan::dag::{IndexId, Plan, Vertex, VertexKind};
use crate::plan::sig::ExprSig;
use crate::plan::timecost::TimeCostModel;
use crate::sharing::Sharing;
use crate::snapshot::SnapshotModule;
use smile_sim::{Cluster, FaultProfile, MachineConfig, PriceSheet};
use smile_storage::{DeltaBatch, SlotIndex, SpjQuery};
use smile_telemetry::{Telemetry, TelemetryConfig};
use smile_types::{FastMap, FastSet, MachineId, RelationId, Result, Schema, SharingId};
use smile_types::{SimDuration, SmileError, Timestamp, VertexId};
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
    /// Admitted sharings, in admission order, which is id order.
    sharings: Vec<Sharing>,
    /// Their chosen plans.
    planned: FastMap<SharingId, PlannedSharing>,
    /// The executor, built by [`Smile::new`] and never taken out: the
    /// `Option` stays only because the frozen `benchmark/` harness reads the
    /// field as one (ROADMAP item 3(b)).
    pub executor: Option<Executor>,
    /// The staleness auditor.
    pub snapshot: SnapshotModule,
    /// The hill-climbing report from the last `install`.
    pub hc_report: Option<HillClimbReport>,
    /// Shared telemetry handle (spans, counters, histograms).
    telemetry: Rc<Telemetry>,
    /// Arrangements that stopped existing because no live join probed them
    /// any more, dropped alone or with their relation.
    arrangements_reclaimed: u64,
    now: Timestamp,
    next_sharing: u32,
    /// Typed log of every adaptive-actuator decision, in decision order.
    actions: Vec<Action>,
    /// How many of the executor's alerts the control loop has consumed.
    alert_cursor: usize,
    /// Last migration start per sharing (cooldown bookkeeping).
    last_migration: FastMap<SharingId, Timestamp>,
    /// Re-planned placements of in-flight migrations; applied to `planned`
    /// when the cutover settles.
    pending_plans: FastMap<SharingId, PlannedSharing>,
    /// Since when each *elastic* machine has hosted no MV (shrink pass).
    mv_idle_since: FastMap<MachineId, Timestamp>,
}

impl Smile {
    /// Builds the platform with `config.machines` simulated machines and an
    /// executor over an empty plan, not yet started.
    pub fn new(config: SmileConfig) -> Self {
        let mut cluster = Cluster::with_configs(vec![config.machine_config; config.machines]);
        cluster.prices = config.prices;
        cluster.set_fault_profile(config.faults);
        let telemetry = Rc::new(Telemetry::new(&config.telemetry));
        let executor = Executor::new(
            config.model.clone(),
            config.exec.clone(),
            Rc::clone(&telemetry),
        );
        Self {
            cluster,
            catalog: Catalog::new(),
            config,
            sharings: Vec::new(),
            planned: FastMap::default(),
            executor: Some(executor),
            snapshot: SnapshotModule::new(),
            hc_report: None,
            telemetry,
            arrangements_reclaimed: 0,
            now: Timestamp::ZERO,
            next_sharing: 1,
            actions: Vec::new(),
            alert_cursor: 0,
            last_migration: FastMap::default(),
            pending_plans: FastMap::default(),
            mv_idle_since: FastMap::default(),
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
    /// the global plan's live load and, if admissible, merges the chosen
    /// plan into it. Once started, that is a *running* plan (paper §10
    /// future work): new storage is seeded from the current base contents,
    /// and maintenance starts at the next tick.
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
        self.planned.insert(id, planned?);
        self.sharings.push(sharing);
        self.next_sharing += 1;
        Ok(id)
    }

    /// The same operation as [`Smile::submit_pinned`], under the name
    /// callers use for admissions made while the platform runs (ROADMAP
    /// item 9(c) folds the three names into one).
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

    /// Validate → plan against the live load → merge, refused if it cannot
    /// be seeded, counting what the merge reused → reconcile storage (a no-op
    /// before the start, which seeds everything at once).
    fn plan_and_merge(
        &mut self,
        sharing: &Sharing,
        mv_machine: Option<MachineId>,
    ) -> Result<PlannedSharing> {
        sharing.query.validate(&self.catalog)?;
        let reg = self.telemetry.registry();
        let planned = self
            .optimizer(self.cluster.active_machine_ids())
            .plan_admission(sharing, running(&self.executor)?.load(&self.config.model), mv_machine)
            .inspect_err(|e| {
                if matches!(e, SmileError::Inadmissible { .. }) {
                    reg.counter("planner.sharings_rejected").inc();
                }
            })?;
        // Seeded no later than the resident vertices it attaches to (none
        // before the start), and refused, the merge taken back, if one of
        // them holds no state to read from at that instant.
        let (cluster, now) = (&self.cluster, self.now);
        let seed_of = |executor: &Executor, mv| {
            let plan = &executor.global.plan;
            let inputs = resident_inputs(plan, mv);
            let derived = inputs.iter().filter(|&&v| !plan.vertex(v).is_base);
            let seed = derived.map(|&v| executor.coverage(v)).fold(now, Timestamp::min);
            seedable(cluster, executor, &inputs, seed, &[]).map(|()| seed)
        };
        let (before, model) = (self.global_plan().plan.vertex_count(), &self.config.model);
        let admitted = running_mut(&mut self.executor)?.add_sharing(sharing, &planned, model, seed_of);
        if let Err(SmileError::SeedUnavailable { .. }) = admitted {
            reg.counter("planner.sharings_rejected").inc();
            reg.counter("planner.sharings_unseedable").inc();
        }
        let seed = admitted?;
        reg.counter("planner.sharings_admitted").inc();
        self.count_reuse(&planned, before);
        self.reconcile_storage(Some(seed).filter(|&s| s < self.now))?;
        Ok(planned)
    }

    /// Posts what merging `planned` reused, at the merge: of the vertices it
    /// brought, those the global plan (`before` vertices until then) did not
    /// grow by were already there.
    fn count_reuse(&self, planned: &PlannedSharing, before: usize) {
        let grew = self.global_plan().plan.vertex_count() - before;
        let reg = self.telemetry.registry();
        reg.counter("catalog.misses").add(grew as u64);
        reg.counter("catalog.hits")
            .add((planned.plan.vertex_count() - grew) as u64);
    }

    /// The decision layer every plan search and online re-plan goes
    /// through, choosing placements among `machines`.
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

    /// Whether [`Smile::install`] or the first [`Smile::step`] has run.
    pub fn started(&self) -> bool {
        self.executor.as_ref().is_some_and(Executor::started)
    }

    /// Plumb, then start: runs the hill-climbing pass over the global plan
    /// (when configured) and starts the platform on it. Refused with
    /// [`SmileError::AlreadyStarted`] once started — a plumbing cannot move
    /// seeded state — leaving the platform running as it was.
    pub fn install(&mut self) -> Result<()> {
        if self.started() {
            return Err(SmileError::AlreadyStarted);
        }
        if self.config.hill_climb {
            let (global, c) = (&mut running_mut(&mut self.executor)?.global, &self.config);
            self.hc_report = Some(hill_climb(global, &c.model, &c.prices, c.hill_climb_iterations));
        }
        self.start()
    }

    /// Starts the executor on the global plan and gives the plan its
    /// storage: the one seed of everything admitted before the start.
    fn start(&mut self) -> Result<()> {
        let executor = running_mut(&mut self.executor)?;
        let plan = &executor.global.plan;
        plan.validate()?;
        let reg = self.telemetry.registry();
        reg.gauge("plan.vertices").set(plan.vertex_count() as f64);
        reg.gauge("plan.edges").set(plan.edges().len() as f64);
        executor.start(&self.sharings)?;
        self.reconcile_storage(None)
    }

    /// The one storage reconcile, run wherever liveness may have changed
    /// (the start, live admission, retirement, migration start and
    /// settlement): afterwards a derived vertex holds a storage slot exactly
    /// when the executor says it is [`live`](Executor::live), and an index
    /// exists exactly when a live edge reads through it. It walks the
    /// executor's liveness journal — the vertices whose liveness flipped
    /// since the last reconcile, every vertex at the start — in vertex-id
    /// order, so a lifecycle operation costs what it changed, not the plan,
    /// and empties it only once it succeeded.
    ///
    /// * Every journalled live vertex without a slot gets one — its twin's
    ///   if the twin holds one (a Relation vertex and the Delta vertex of
    ///   the same signature and machine share table + log), else a new
    ///   relation whose log starts at the seed instant — and every index its
    ///   producer reads through ([`Plan::reads`]) gains a reader
    ///   ([`Database::ensure`](smile_storage::Database::ensure)), and is
    ///   installed when that is its first.
    /// * Every Relation vertex slotted here is seeded from ground truth (all
    ///   evaluated first, reading each base once: [`BaseReads`]) and every
    ///   vertex slotted here is stamped with the seed instant — per
    ///   vertex, so a relation adopting the slot its delta twin has long
    ///   been landing windows in is seeded like any other. The ingest floor
    ///   is lifted past the seed: entries stamped at or before it are in the
    ///   seed and would fall outside the new vertices' half-open windows.
    /// * Every journalled vertex that is no longer live gives its slot up: a
    ///   slot nobody holds any more is dropped, and a relation vertex whose
    ///   delta twin keeps the slot empties its table.
    /// * Every index an edge that just died read through loses a reader
    ///   ([`Database::release`](smile_storage::Database::release)) before
    ///   any slot moves, in [`IndexId`] order, and one left with none is
    ///   dropped. The counts, kept with the indexes, change only where an
    ///   edge gains or gives up its slot, so they stay the multiset of
    ///   [`Executor::live_reads`] (a migration's shadow chain included,
    ///   from its start) without a walk over any consumer list.
    ///
    /// `seed_at` pins the seed: the relations are evaluated from base
    /// snapshots *as of* that instant and stamped with it. The start, retire
    /// and settlement seed at `now` (base tables are current); a live
    /// admission no later than the resident vertices it attaches to
    /// ([`resident_inputs`]); a migration at the old chain's committed MV
    /// timestamp, so the shadow chain's push windows tile exactly against
    /// the anchored half-join jobs it shares with it.
    ///
    /// Before the start there is nothing to reconcile: the start runs it.
    fn reconcile_storage(&mut self, seed_at: Option<Timestamp>) -> Result<()> {
        let Some(executor) = self.executor.as_mut().filter(|e| e.started()) else { return Ok(()) };
        let seed = seed_at.unwrap_or(self.now);
        let journal = executor.sorted_journal();
        let mut slotted: Vec<VertexId> = Vec::new();
        for &v in &journal {
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
        // The newly slotted edges take up the indexes they read through,
        // which are installed with their first reader, before seeding fills
        // the tables.
        for e in slotted.iter().filter_map(|&v| plan.producer(v)) {
            for (machine, slot, index) in plan.reads(e) {
                self.cluster.machine_mut(machine)?.db.ensure(slot, &index)?;
            }
        }
        let mut reads = BaseReads::default();
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
            // The seed read base relations as of `seed`: an entry ingested
            // at or before it would fall outside every push window `(seed, t]`.
            for m in self.cluster.machine_ids() {
                self.cluster.machine_mut(m)?.db.vouch(seed);
            }
        }
        // A journalled vertex still holding a slot but no longer live just
        // died, and its producer with it: what that edge read loses a
        // reader before any slot moves.
        let plan = &executor.global.plan;
        let died = journal.iter().filter(|&&v| !executor.live(v) && plan.vertex(v).slot.is_some());
        let died_edges = died.filter_map(|&v| plan.producer(v));
        let mut unread: Vec<IndexId> = died_edges.flat_map(|e| plan.reads(e)).collect();
        unread.sort_unstable();
        for (machine, slot, index) in unread {
            let dropped = self.cluster.machine_mut(machine)?.db.release(slot, &index)?;
            self.arrangements_reclaimed += u64::from(dropped && matches!(index, SlotIndex::Arrangement(_)));
        }
        for &v in &journal {
            let plan = &executor.global.plan;
            let vert = plan.vertex(v);
            let Some(slot) = vert.slot.filter(|_| !executor.live(v)) else { continue };
            let db = &mut self.cluster.machine_mut(vert.machine)?.db;
            if twin_slot(plan, vert) != Some(slot) {
                // The indexes its readers released are gone already.
                let installed = db.relation(slot)?.table.arrangements().count();
                self.arrangements_reclaimed += installed as u64;
                db.drop_relation(slot)?;
            } else if vert.kind == VertexKind::Relation {
                // The delta twin keeps the log; the rows go now.
                db.clear_table(slot)?;
            }
            executor.global.plan.vertex_mut(v).slot = None;
        }
        executor.journal_reconciled(journal.len());
        Ok(())
    }

    /// The global plan every admission merges into. (The empty fallback
    /// only keeps this infallible: the executor never leaves its `Option`.)
    pub fn global_plan(&self) -> &GlobalPlan {
        static EMPTY: std::sync::OnceLock<GlobalPlan> = std::sync::OnceLock::new();
        match &self.executor {
            Some(executor) => &executor.global,
            None => EMPTY.get_or_init(GlobalPlan::new),
        }
    }

    /// **On-the-fly removal** (paper §10 future work): stops maintaining a
    /// sharing and drops the storage that served only it. Other sharings
    /// are untouched — shared vertices keep running for them. Refused
    /// before the start.
    pub fn retire(&mut self, id: SharingId) -> Result<()> {
        if !self.started() {
            return Err(SmileError::Internal("retire before the platform started".into()));
        }
        running_mut(&mut self.executor)?.remove_sharing(id)?;
        self.planned.remove(&id);
        if let Ok(pos) = self.position(id) {
            self.sharings.remove(pos);
        }
        self.pending_plans.remove(&id);
        self.last_migration.remove(&id);
        self.reconcile_storage(None)
    }

    /// Ingests an application update batch into a base relation (delta
    /// capture). Entries should be stamped at or near `self.now()`; one
    /// stamped behind what the relation's readers have already read — an
    /// agent's heartbeat, a seed — or behind the relation's log is stamped
    /// just past it instead ([`Database::ingest`]), so it still reaches
    /// every MV.
    ///
    /// [`Database::ingest`]: smile_storage::Database::ingest
    pub fn ingest(&mut self, rel: RelationId, batch: DeltaBatch) -> Result<()> {
        let machine = self.catalog.base(rel)?.machine;
        self.cluster.machine_mut(machine)?.db.ingest(rel, batch)
    }

    /// Advances the platform by one executor tick, settles any live
    /// migrations the tick cut over or aborted, and — when the adaptive
    /// actuator is enabled — runs one deterministic control decision:
    /// drain new burn-rate alerts, re-plan and migrate alerted sharings off
    /// their saturated machine, and grow/shrink the fleet within budget.
    /// The first step starts a platform `install` did not, unplumbed.
    pub fn step(&mut self) -> Result<()> {
        if !self.started() {
            self.start()?;
        }
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
        self.planned.get(&id).ok_or(SmileError::UnknownSharing(id))
    }

    /// An admitted sharing: its submitted query is what its MV holds.
    fn sharing(&self, id: SharingId) -> Result<&Sharing> {
        Ok(&self.sharings[self.position(id)?])
    }

    /// Where an admitted sharing sits in `sharings`, which is in id order.
    fn position(&self, id: SharingId) -> Result<usize> {
        let pos = self.sharings.binary_search_by_key(&id, |s| s.id);
        pos.map_err(|_| SmileError::UnknownSharing(id))
    }
}

/// The platform's executor. Free functions over the field rather than
/// methods, so callers can keep borrowing the cluster and catalog beside it.
fn running(executor: &Option<Executor>) -> Result<&Executor> {
    executor.as_ref().ok_or_else(no_executor)
}

/// [`running`], mutably.
fn running_mut(executor: &mut Option<Executor>) -> Result<&mut Executor> {
    executor.as_mut().ok_or_else(no_executor)
}

fn no_executor() -> SmileError {
    SmileError::Internal("the executor was taken out of the platform".into())
}

/// The slotted vertices that the unslotted ones at and upstream of `mv` in
/// the merged plan read from — where the newly live vertices' first windows
/// start, at the seed instant — in the order of a depth-first walk from
/// `mv` that stops at slotted vertices (an MV that has a slot reads from
/// nothing new).
///
/// A live admission seeds no later than the oldest coverage among them: a
/// twin that dedups into a half-join pair whose last push lags `now` must
/// see the pair's next window whole, since its cross-term is stamped inside
/// the lag. And neither a live admission nor a migration can seed before
/// one of their logs' horizons.
fn resident_inputs(plan: &Plan, mv: VertexId) -> Vec<VertexId> {
    let resident = |v: VertexId| plan.vertex(v).slot.is_some();
    let (mut walk, mut seen, mut inputs) = (vec![mv], FastSet::default(), vec![]);
    walk.retain(|&v| !resident(v));
    while let Some(v) = walk.pop() {
        for &input in plan.producer(v).map_or(&[][..], |e| &e.inputs) {
            match input {
                _ if !seen.insert(input) => {}
                _ if resident(input) => inputs.push(input),
                _ => walk.push(input),
            }
        }
    }
    inputs
}

/// Refuses, with [`SmileError::SeedUnavailable`], new vertices seeded at
/// `seed` that could not start reading one of `inputs` there: its log is cut
/// past it — compaction keeps a log for its current readers, who may be far
/// ahead (a Relation replicated where its Delta twin already lands catches
/// up from the twin's log the same way) — or it is a join's or an
/// aggregate's output, which is a state of its expression only at the end
/// of a window it was pushed through, and `seed` is not its coverage. `own`
/// are vertices `seed` is known to end a window of: a migrating sharing's
/// chain, which each of its pushes took to its target.
fn seedable(
    cluster: &Cluster,
    executor: &Executor,
    inputs: &[VertexId],
    seed: Timestamp,
    own: &[VertexId],
) -> Result<()> {
    for &v in inputs {
        let vert = executor.global.plan.vertex(v);
        let Some(slot) = vert.slot else { continue };
        let horizon = cluster.machine(vert.machine)?.db.relation(slot)?.delta.horizon();
        let mid_window = executor.coverage(v) != seed && vert.sig.windowed();
        if seed < horizon || (mid_window && !own.contains(&v)) {
            return Err(SmileError::SeedUnavailable { relation: slot, seed });
        }
    }
    Ok(())
}

/// The slot held by `vert`'s twin — the vertex of the other kind with the
/// same signature on the same machine, the one vertex that can share
/// `vert`'s slot.
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
}
