//! The sharing executor (paper §8): lazy, SLA-aware push scheduling.
//!
//! The executor maintains every admitted sharing at or below its staleness
//! SLA. It is *lazy by design*: it does not refresh an MV unless waiting any
//! longer would risk missing the SLA, bunching as much work as possible into
//! each PUSH. Per tick it:
//!
//! 1. drains its own completion events and the agents' heartbeats (base
//!    vertex timestamps) from the mailbox;
//! 2. for each sharing, projects the staleness a push started *now* would
//!    end at — `MAXTS(SRC) + CP(D_i, x) − t` — and fires the push only when
//!    that projection approaches `l · SLA` (`l = 0.8`);
//! 3. picks the target timestamp `t` by binary search between `TS(MV)` and
//!    `MINTS(SRC)` (§8.2);
//! 4. walks the sharing's subgraph in topological order issuing one PUSH
//!    command per vertex, each executing on the simulated machines with
//!    real data movement;
//! 5. feeds realized push durations back into its time-cost model so the
//!    critical-path projections track machine load (Figure 14).
//!
//! Scheduling itself is event-driven: a push calendar (wake heap + cached
//! critical paths, see `executor::calendar`) makes the per-tick host cost
//! O(due + invalidated) instead of O(sharings · plan-size). A slot the
//! calendar leaves asleep must be one the guard chain would not fire; the
//! crate's unit-test build asserts exactly that every tick
//! (`Executor::assert_sleepers_idle`).
//!
//! The tick is laid out over the submodules in the order it runs:
//! `liveness` (events, heartbeats, due retries), `sched` (which sharings
//! push, to what target), `batch` (planning a push into edge jobs and
//! running them wave by wave on `push`'s machine-local primitives), `spans`,
//! `compact`; this file keeps the executor's state, registration and
//! accessors.

mod batch;
mod calendar;
mod compact;
mod liveness;
mod migrate;
pub mod push;
mod sched;
pub mod seed;
mod spans;
#[cfg(test)]
mod wake_tests;

pub use migrate::MigrationOutcome;

use crate::multi::GlobalPlan;
use crate::optimizer::PlannedSharing;
use crate::plan::cost::edge_utilization;
use crate::plan::dag::{Edge, IndexId, Plan, VertexKind};
use crate::plan::timecost::TimeCostModel;
use crate::sharing::Sharing;
use calendar::{CalendarState, CpEval};
use liveness::{ExecEvent, Heartbeat, PendingRetry};
use smile_sim::{Cluster, EventQueue, Mailbox, WaveMeter};
use smile_telemetry::{Alert, BurnRateMonitor, Counter, Gauge, Histogram, SharingSummary};
use smile_telemetry::{Telemetry, WorstRow};
use smile_types::{FastMap, MachineId, RelationId, Result, SharingId, SimDuration};
use smile_types::{SmileError, Timestamp, VertexId};
use spans::us;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::rc::Rc;

/// Command dispatch latency (executor → agent).
const COMMAND_LATENCY: SimDuration = SimDuration::from_millis(5);

/// Executor tuning knobs.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Scheduler tick period.
    pub tick: SimDuration,
    /// Lazy scheduling (the paper's design). `false` pushes every tick —
    /// the eager baseline of the ablation benches.
    pub lazy: bool,
    /// Whether PUSHDONE durations recalibrate the time model.
    pub feedback: bool,
    /// Vestige, read by nothing: the push engine is one thread. The field
    /// stays only because the frozen harness assigns it
    /// (`benchmark/src/workloads.rs`); ROADMAP item 3(f) drops it.
    pub workers: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            tick: SimDuration::from_secs(1),
            lazy: true,
            feedback: true,
            workers: 1,
        }
    }
}

/// Fault-recovery statistics the executor accumulates (merged into the
/// platform-level `FaultReport`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecFaultStats {
    /// Push attempts that failed transiently and were rescheduled.
    pub pushes_retried: u64,
    /// Pushes abandoned after exhausting the retry budget (a later push
    /// re-covers their window).
    pub pushes_abandoned: u64,
    /// Pushes deferred at scheduling time because a machine they need was
    /// down.
    pub pushes_deferred: u64,
    /// Delta batches a retry re-shipped that the producer's watermark
    /// suppressed (the first attempt had landed).
    pub batches_deduped: u64,
}

/// One completed PUSH, as recorded for the Figure 7 analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PushRecord {
    /// The sharing pushed.
    pub sharing: SharingId,
    /// When the push was issued.
    pub issued: Timestamp,
    /// When the MV finished applying.
    pub completed: Timestamp,
    /// The timestamp the MV was advanced to.
    pub target: Timestamp,
    /// MV staleness just before the push was issued.
    pub staleness_before: SimDuration,
    /// MV staleness at completion.
    pub staleness_after: SimDuration,
    /// How far the MV timestamp advanced.
    pub advanced: SimDuration,
    /// Tuples moved by this push across all its edges.
    pub tuples: u64,
}

/// The executor's one record of a live sharing, keyed by its id: its
/// subgraph and the scheduling caches derived from it, built together at
/// registration and replaced together when a migration cuts over, and what
/// its pushes have done so far. Retirement removes it. Whether the sharing
/// is idle or mid-push is the push calendar's to say.
#[derive(Clone, Debug)]
struct SharingRt {
    sla: SimDuration,
    /// Dollars per late tuple, charged when the auditor finds the MV stale.
    penalty: f64,
    /// The MV vertex its meta in the global plan resolves to: read there at
    /// registration, repointed with it at cutover.
    mv: VertexId,
    /// Base Relation vertices feeding this sharing (`SRC(S_i)`).
    srcs: Vec<VertexId>,
    /// Push-order (topological) list of the sharing's non-base vertices.
    order: Vec<VertexId>,
    /// Compact critical-path evaluator over `order`.
    cp: CpEval,
    /// The deduplicated machines the sharing's pushes touch (for the
    /// crash-deferral check).
    machines: Vec<MachineId>,
    /// Headroom accounting of its completed pushes.
    summary: SharingSummary,
    /// Tuples its pushes moved, a migration's dual writes included.
    tuples: u64,
}

impl SharingRt {
    /// The record of sharing `id` under its contract's `(SLA, penalty per
    /// late tuple)`, served at `mv` through the subgraph `(srcs, order)`
    /// [`Executor::subgraph_of`] derives, with nothing pushed yet.
    fn build(
        plan: &Plan,
        id: SharingId,
        (sla, penalty): (SimDuration, f64),
        mv: VertexId,
        (srcs, order): (Vec<VertexId>, Vec<VertexId>),
        model: &TimeCostModel,
    ) -> Self {
        let mut machines: Vec<MachineId> = order
            .iter()
            .chain(srcs.iter())
            .map(|&v| plan.vertex(v).machine)
            .collect();
        machines.sort_unstable_by_key(|m| m.index());
        machines.dedup();
        Self {
            sla,
            penalty,
            mv,
            cp: CpEval::build(plan, &order, model),
            srcs,
            order,
            machines,
            summary: SharingSummary::new(id.0, sla.as_micros()),
            tuples: 0,
        }
    }
}

/// The sharing executor.
pub struct Executor {
    /// The merged global plan being executed.
    pub global: GlobalPlan,
    /// The executor's calibrated time model (feedback-adjusted).
    pub model: TimeCostModel,
    config: ExecConfig,
    /// Eager content timestamp per vertex (window bookkeeping).
    data_ts: Vec<Timestamp>,
    /// Committed timestamp per vertex (staleness accounting).
    visible_ts: Vec<Timestamp>,
    /// Per vertex, how many holds keep it [`Executor::live`]: one per
    /// registered sharing or in-flight migration whose MV it is, one per
    /// input position of each live edge that reads it, and for a base vertex
    /// one that is never released. The plan is append-only, so after the
    /// first retire or cutover part of it is held by nothing. The start
    /// counts them afresh; [`Executor::hold`] and [`Executor::release`]
    /// step them where a handle is taken or let go.
    holds: Vec<u32>,
    /// The liveness journal: every vertex whose liveness flipped, or that
    /// was appended live, since the storage reconcile last walked it
    /// ([`Executor::sorted_journal`]). The start journals every vertex.
    journal: Vec<VertexId>,
    /// How many vertices the last journal taken held.
    reconciled: usize,
    /// Last heartbeat-reported timestamp per vertex (base vertices only).
    heartbeats: Vec<Option<Timestamp>>,
    /// One record per live sharing, in id order.
    sharings: BTreeMap<SharingId, SharingRt>,
    events: EventQueue<ExecEvent>,
    /// The agents' channel to the executor.
    bus: Mailbox<Heartbeat>,
    last_heartbeat: Option<Timestamp>,
    last_compaction: Timestamp,
    /// Slots whose logs hold cut entries not yet freed, in the order they
    /// were cut ([`Executor::compact_if_due`]).
    reclaiming: VecDeque<(MachineId, RelationId)>,
    /// How many entries the last compaction cut.
    last_cut: usize,
    /// Transiently-failed pushes awaiting their backoff, min-heap keyed
    /// `(due, sharing)`.
    pending_retries: BinaryHeap<Reverse<PendingRetry>>,
    /// Fault-recovery statistics.
    pub fault_stats: ExecFaultStats,
    /// Total tuples moved across all edges (snapshot-module metric).
    pub tuples_moved: u64,
    /// Completed pushes (Figure 7 data).
    pub push_records: Vec<PushRecord>,
    /// Shared telemetry handle: spans, counters, histograms.
    telemetry: Rc<Telemetry>,
    /// Registry counters behind [`Executor::wave_meter_view`], cached at
    /// build time so the merge loop records without a registry lookup.
    ctr_waves: Rc<Counter>,
    ctr_jobs: Rc<Counter>,
    ctr_busy_nanos: Rc<Counter>,
    /// Per edge id, for a half-join: the sibling half-join's output vertex,
    /// whose coverage anchors this join's snapshot (consistency under skew).
    anchor_of: Vec<Option<VertexId>>,
    /// Base Relation vertices that heartbeat each round, in plan order
    /// (the publish order the per-vertex scan produced, which the
    /// fault-prone bus draws in): appended as the plan grows.
    base_beats: Vec<(MachineId, VertexId)>,
    /// Push-calendar scheduler state, and with it whether each live
    /// sharing is idle or in flight.
    cal: CalendarState,
    /// Host wall-clock per tick spent in the scheduling phase (drain +
    /// heartbeats + planning), µs. `host_` marks it excluded from
    /// determinism comparisons.
    hist_sched_us: Rc<Histogram>,
    /// The same per-tick scheduling latencies as a raw log, for benches
    /// that window percentiles past warmup (host-side only).
    pub sched_host_us: Vec<u64>,
    ctr_cal_wakes: Rc<Counter>,
    ctr_cal_early: Rc<Counter>,
    gauge_cal_scheduled: Rc<Gauge>,
    gauge_cal_wheel: Rc<Gauge>,
    /// Fleet-wide staleness-headroom histogram (one instrument for the
    /// whole fleet — the per-sharing `{sharing=N}` family it replaces was
    /// O(N) registry cardinality at 100k sharings). Cached at build so the
    /// completion path is an O(1) handle deref, never a name lookup.
    hist_headroom_us: Rc<Histogram>,
    /// Fleet-wide staleness-at-completion histogram.
    hist_after_us: Rc<Histogram>,
    /// Fleet-wide SLA-miss counter.
    ctr_sla_missed: Rc<Counter>,
    /// SLA burn-rate monitor over sharing cohorts (sim-time windows).
    monitor: BurnRateMonitor,
    /// Alerts fired so far, in fire order — the adaptive-runtime feed.
    alerts: Vec<Alert>,
    /// In-flight live migrations, keyed by sharing id (BTreeMap so
    /// settlement iterates in canonical order).
    migrations: BTreeMap<SharingId, migrate::MigrationRt>,
    /// Settled migrations awaiting platform pickup
    /// ([`Executor::take_migration_outcomes`]).
    migration_outcomes: Vec<MigrationOutcome>,
    /// Until [`Executor::start`], what [`Executor::load`] reads, grown as
    /// each merge adds live edges; `None` once started.
    load_before_start: Option<FastMap<MachineId, f64>>,
}

impl Executor {
    /// A sharing's executable subgraph rooted at `mv`: its base-relation
    /// sources (`SRC(S_i)`) and the push-order list of its non-base
    /// vertices. Shared by runtime construction and the live-migration
    /// shadow install (which derives the *new* placement's subgraph before
    /// the sharing's MV is repointed there).
    fn subgraph_of(global: &GlobalPlan, id: SharingId, mv: VertexId) -> Result<(Vec<VertexId>, Vec<VertexId>)> {
        let (plan, anc) = (&global.plan, global.plan.ancestors(mv));
        // `SRC(S_i)`: the base *relations* feeding the sharing. A plan may
        // reference a base only through its delta vertex (scan plans copy
        // Δbase without touching the base table), so map every base
        // ancestor back to its Relation twin by (signature, machine).
        let mut srcs = Vec::new();
        for vert in anc.iter().map(|&v| plan.vertex(v)).filter(|vert| vert.is_base) {
            let twin = match vert.kind {
                VertexKind::Relation => Some(vert.id),
                VertexKind::Delta => plan.find_vertex(VertexKind::Relation, &vert.sig, vert.machine),
            };
            let v = vert.id;
            srcs.push(twin.ok_or_else(|| SmileError::Internal(format!("base delta {v} has no Relation twin in the plan")))?);
        }
        srcs.sort_unstable();
        srcs.dedup();
        if srcs.is_empty() {
            return Err(SmileError::InvalidPlan(format!("sharing {id} has no base-relation sources")));
        }
        // The whole plan's topological order restricted to `mv` and its
        // ancestors, walked over those alone.
        let mut order = plan.topo_order_within(anc.into_iter().chain([mv]))?;
        order.retain(|&v| !plan.vertex(v).is_base);
        Ok((srcs, order))
    }

    /// An executor over an empty plan, not yet started: admissions merge
    /// into its plan ([`Executor::add_sharing`]) and [`Executor::start`]
    /// gives them their runtime. `telemetry` is the platform-wide handle
    /// the executor records spans and instruments into.
    pub fn new(model: TimeCostModel, config: ExecConfig, telemetry: Rc<Telemetry>) -> Self {
        let cal = CalendarState::new(config.tick);
        let reg = telemetry.registry();
        Self {
            global: GlobalPlan::new(),
            model,
            config,
            data_ts: Vec::new(),
            visible_ts: Vec::new(),
            holds: Vec::new(),
            journal: Vec::new(),
            reconciled: 0,
            heartbeats: Vec::new(),
            sharings: BTreeMap::new(),
            events: EventQueue::new(),
            bus: Mailbox::new(COMMAND_LATENCY),
            last_heartbeat: None,
            last_compaction: Timestamp::ZERO,
            reclaiming: VecDeque::new(),
            last_cut: 0,
            pending_retries: BinaryHeap::new(),
            fault_stats: ExecFaultStats::default(),
            tuples_moved: 0,
            push_records: Vec::new(),
            ctr_waves: reg.counter("wave.waves"),
            ctr_jobs: reg.counter("wave.jobs"),
            ctr_busy_nanos: reg.counter("wave.host_busy_nanos"),
            anchor_of: Vec::new(),
            base_beats: Vec::new(),
            cal,
            hist_sched_us: reg.histogram("sched.host_tick_us"),
            sched_host_us: Vec::new(),
            ctr_cal_wakes: reg.counter("sched.calendar.host_wakes"),
            ctr_cal_early: reg.counter("sched.calendar.host_early_wakes"),
            gauge_cal_scheduled: reg.gauge("sched.calendar.host_scheduled"),
            gauge_cal_wheel: reg.gauge("sched.calendar.host_wheel_len"),
            hist_headroom_us: reg.histogram("push.staleness_headroom_us"),
            hist_after_us: reg.histogram("push.staleness_after_us"),
            ctr_sla_missed: reg.counter("push.sla_missed"),
            monitor: BurnRateMonitor::default(),
            alerts: Vec::new(),
            migrations: BTreeMap::new(),
            migration_outcomes: Vec::new(),
            telemetry,
            load_before_start: Some(FastMap::default()),
        }
    }

    /// Starts the runtime over the plan merged so far: the plan-wide state,
    /// then a record for each of `sharings`, the admitted ones in order. A
    /// plan whose half-joins cannot be anchored is refused.
    pub fn start(&mut self, sharings: &[Sharing]) -> Result<()> {
        // Counted afresh, not carried over: hill climbing may have rewired
        // the plan the merges held. Each sharing's record takes its hold. The
        // storage reconcile that follows walks every vertex.
        let plan = &self.global.plan;
        self.holds = plan.vertices().iter().map(|v| u32::from(v.is_base)).collect();
        plan.half_join_anchors(&mut self.anchor_of)?;
        self.plan_grew();
        for s in sharings {
            let mv = self.global.mv_vertex(s.id)?;
            let subgraph = Self::subgraph_of(&self.global, s.id, mv)?;
            self.register(s, mv, subgraph);
        }
        self.journal = self.global.plan.vertices().iter().map(|v| v.id).collect();
        self.load_before_start = None;
        Ok(())
    }

    /// Whether [`Executor::start`] has run.
    pub fn started(&self) -> bool {
        self.load_before_start.is_none()
    }

    /// Per-machine load of the live edges under `model`, which admission
    /// plans against; summed afresh once started, as a retire can free load.
    pub fn load(&self, model: &TimeCostModel) -> FastMap<MachineId, f64> {
        let live = || edge_utilization(FastMap::default(), &self.global.plan, self.live_edges(), model);
        self.load_before_start.clone().unwrap_or_else(live)
    }

    /// Merges into the global plan through `merge`, which returns the merged
    /// MV, then runs `admit` on the merged plan: one step that goes in whole
    /// or leaves no trace. `admit` makes every refusal before it changes
    /// anything of the executor; when it refuses, [`Plan::undo`] takes the
    /// merge back and the sharing's meta, if the merge pushed one, is popped.
    fn merge_or_undo<T>(
        &mut self,
        merge: impl FnOnce(&mut GlobalPlan) -> Result<VertexId>,
        admit: impl FnOnce(&mut Self, VertexId) -> Result<T>,
    ) -> Result<T> {
        let (undo, metas) = (self.global.plan.undo_point(), self.global.sharings.len());
        let admitted = merge(&mut self.global).and_then(|mv| admit(self, mv));
        if admitted.is_err() {
            self.global.plan.undo(undo);
            if self.global.sharings.len() > metas {
                self.global.sharings.pop_last();
            }
        }
        admitted
    }

    /// The executor's refusals of a merge into the running plan, made on the
    /// merged plan after the platform's: `mv`'s subgraph
    /// ([`Executor::subgraph_of`], a cycle among its vertices included)
    /// and, last because it is the one that writes, the half-join anchors
    /// of the appended unions. Once all pass, the plan-wide state grows
    /// ([`Executor::plan_grew`]). Returns `mv`'s subgraph.
    fn admit_merged(&mut self, id: SharingId, mv: VertexId) -> Result<(Vec<VertexId>, Vec<VertexId>)> {
        let subgraph = Self::subgraph_of(&self.global, id, mv)?;
        self.global.plan.half_join_anchors(&mut self.anchor_of)?;
        self.plan_grew();
        Ok(subgraph)
    }

    /// Grows the plan-wide runtime state over the vertices the global plan
    /// gained (the start, live admission, a migration's shadow chain) once
    /// nothing can refuse them: the per-vertex vectors grow, the heartbeat
    /// roster takes in the appended base Relation vertices. Merging only
    /// *adds* vertices and edges (dedup reuses existing ones untouched) and
    /// vertex ids are append-only, so per-sharing caches, in-flight pushes
    /// and queued events stay valid. A merge gives a producer only to a
    /// vertex it appended, after that vertex's inputs, and the start's plan
    /// is either merged so or renumbered in topological order by hill
    /// climbing's collection: in the running plan, vertex ids are a
    /// topological order. The start's call, over empty caches, takes in the
    /// whole plan.
    fn plan_grew(&mut self) {
        let plan = &self.global.plan;
        let (before, n) = (self.data_ts.len(), plan.vertex_count());
        self.data_ts.resize(n, Timestamp::ZERO);
        self.visible_ts.resize(n, Timestamp::ZERO);
        self.heartbeats.resize(n, None);
        let bases = plan.vertices()[before..].iter().filter(|v| v.is_base && v.kind == VertexKind::Relation);
        self.base_beats.extend(bases.map(|v| (v.machine, v.id)));
    }

    /// `v` gains a hold. When it is the first, `v` turns live, is
    /// journalled, and its producer's inputs gain one each, as far as the
    /// first vertex already held. The vertices the plan appended since the
    /// last hold are taken in first: the base ones hold themselves, and are
    /// journalled.
    fn hold(&mut self, v: VertexId) {
        let appended = &self.global.plan.vertices()[self.holds.len()..];
        self.journal.extend(appended.iter().filter(|v| v.is_base).map(|v| v.id));
        self.holds.extend(appended.iter().map(|v| u32::from(v.is_base)));
        self.step_holds(v, |holds| {
            *holds += 1;
            *holds == 1
        });
    }

    /// `v` loses a hold. When it was the last, `v` stops being live, is
    /// journalled, and its producer's inputs lose one each: the walk costs
    /// what stops being live and their inputs, never a consumer list.
    fn release(&mut self, v: VertexId) {
        self.step_holds(v, |holds| {
            *holds -= 1;
            *holds == 0
        });
    }

    /// Steps the holds of `v` and, wherever `step` says a count crossed
    /// zero, journals that vertex and steps its producer's inputs, once per
    /// input position.
    fn step_holds(&mut self, v: VertexId, step: impl Fn(&mut u32) -> bool) {
        let mut stack = vec![v];
        while let Some(v) = stack.pop() {
            if step(&mut self.holds[v.index()]) {
                self.journal.push(v);
                stack.extend(self.global.plan.producer(v).iter().flat_map(|e| &e.inputs));
            }
        }
    }

    /// The liveness journal in vertex-id order and without repeats: the
    /// vertices the storage reconcile walks. It stays pending until the
    /// reconcile succeeds ([`Executor::journal_reconciled`]), so one that
    /// fails leaves it to the next.
    pub(crate) fn sorted_journal(&self) -> Vec<VertexId> {
        let mut journal = self.journal.clone();
        journal.sort_unstable();
        journal.dedup();
        journal
    }

    /// Empties the liveness journal: the storage reconcile walked its
    /// `walked` vertices.
    pub(crate) fn journal_reconciled(&mut self, walked: usize) {
        // Freed, not cleared: the start's journal holds every vertex.
        self.journal = Vec::new();
        self.reconciled = walked;
    }

    /// The liveness journal not yet reconciled: the vertices whose liveness
    /// flipped since the last storage reconcile, in the order they flipped.
    pub fn journal(&self) -> &[VertexId] {
        &self.journal
    }

    /// How many vertices the last storage reconcile walked: its journal.
    pub fn last_reconciled(&self) -> usize {
        self.reconciled
    }

    /// Whether a vertex is live: it is a base vertex (the applications' own
    /// storage), serves a sharing (it is an admitted sharing's MV or
    /// upstream of one) or lies on an in-flight migration's shadow chain —
    /// all of it, including vertices the shadow merge found already in the
    /// plan. Everything that keeps, feeds or pays for a vertex asks this:
    /// the platform's storage reconcile, log compaction, admission's view
    /// of the load.
    pub fn live(&self, v: VertexId) -> bool {
        self.holds[v.index()] > 0
    }

    /// The edges that produce a live vertex, in edge order.
    pub fn live_edges(&self) -> impl Iterator<Item = &Edge> {
        self.global.plan.edges().iter().filter(|e| self.live(e.output))
    }

    /// Every index the live edges read through ([`Plan::reads`]), in edge
    /// order, once per reader: what the machines keep. A walk over the
    /// whole plan, for the registry gauges and the checks; the storage
    /// reconcile keeps the machines equal to it by reading only the edges
    /// whose liveness flipped.
    pub fn live_reads(&self) -> impl Iterator<Item = IndexId> + '_ {
        self.live_edges().flat_map(|e| self.global.plan.reads(e))
    }

    /// Gives a sharing already merged into the global plan, served at `mv`
    /// through `subgraph`, its record and a calendar slot due at the next
    /// planning pass.
    fn register(&mut self, s: &Sharing, mv: VertexId, subgraph: (Vec<VertexId>, Vec<VertexId>)) {
        self.hold(mv);
        let contract = (s.staleness_sla, s.penalty_per_tuple);
        let rt = SharingRt::build(&self.global.plan, s.id, contract, mv, subgraph, &self.model);
        self.sharings.insert(s.id, rt);
        self.cal.add(s.id);
    }

    /// Host-side totals of the wave engine, read from the telemetry
    /// registry on demand.
    pub fn wave_meter_view(&self) -> WaveMeter {
        WaveMeter {
            waves: self.ctr_waves.get(),
            jobs: self.ctr_jobs.get(),
            busy_nanos: self.ctr_busy_nanos.get(),
        }
    }

    /// **On-the-fly addition** (paper §10 future work): merges a newly
    /// admitted sharing's plan into the global plan and returns what `check`
    /// returns, the platform's refusal, made first on the merged plan from
    /// the sharing's MV there. A refusal takes the merge back
    /// (`Executor::merge_or_undo`). Before the start that is all, but for
    /// the load under `model`. Once started, the executor's own refusals
    /// follow (`admit_merged`), then it registers the sharing, and the
    /// platform's storage reconcile gives the newly live vertices storage,
    /// seeds them and calls `Executor::mark_vertices_seeded`.
    pub fn add_sharing<T>(
        &mut self,
        sharing: &Sharing,
        planned: &PlannedSharing,
        model: &TimeCostModel,
        check: impl FnOnce(&Self, VertexId) -> Result<T>,
    ) -> Result<T> {
        let (appended, before) = (self.global.plan.edges().len(), self.holds.len());
        let merge = |global: &mut GlobalPlan| global.merge(sharing, planned);
        self.merge_or_undo(merge, |ex, mv| {
            let checked = check(ex, mv)?;
            let Some(load) = ex.load_before_start.take() else {
                let subgraph = ex.admit_merged(sharing.id, mv)?;
                ex.register(sharing, mv, subgraph);
                return Ok(checked);
            };
            // The sharing's hold until the start counts afresh. Whether it
            // turned an older vertex live: a dead chain revived.
            let journalled = ex.journal.len();
            ex.hold(mv);
            let revived = ex.journal[journalled..].iter().any(|v| v.index() < before);
            // Nothing retires before the start, so the live edges only grow:
            // by appended ones, and rarely by an old edge a merge brought for
            // a vertex the plan already produced, revived when a later
            // sharing dedups onto it. The load grows in edge order, so a
            // revival re-sums.
            let plan = &ex.global.plan;
            let (load, from) = if revived { (FastMap::default(), 0) } else { (load, appended) };
            let live = plan.edges()[from..].iter().filter(|e| ex.live(e.output));
            ex.load_before_start = Some(edge_utilization(load, plan, live, model));
            Ok(checked)
        })
    }

    /// Stamps derived vertices whose storage was just seeded as of `at`:
    /// their first push window starts there.
    pub(crate) fn mark_vertices_seeded(&mut self, vertices: &[VertexId], at: Timestamp) {
        for &v in vertices {
            self.data_ts[v.index()] = at;
            self.visible_ts[v.index()] = at;
        }
    }

    /// How far a derived vertex's contents reach: its landed `data_ts`.
    pub(crate) fn coverage(&self, v: VertexId) -> Timestamp {
        self.data_ts[v.index()]
    }

    /// **On-the-fly removal** (paper §10 future work): retires a sharing.
    /// Its record, calendar slot and pending retry go, and its meta leaves
    /// the global plan; a push of it still in flight completes from what
    /// its request carries (`Executor::drain_events`). The plan vertices
    /// that served only it stay in the append-only plan but stop being
    /// [`Executor::live`] until a new sharing dedups onto them: the storage
    /// reconcile drops their slots, compaction stops pinning logs through
    /// their edges and admission stops counting their load — which is what
    /// makes them free at run time.
    pub fn remove_sharing(&mut self, id: SharingId) -> Result<()> {
        let rt = self.sharings.remove(&id).ok_or(SmileError::UnknownSharing(id))?;
        self.cal.remove(id);
        self.pending_retries.retain(|r| r.0.sharing != id);
        // Retiring mid-migration abandons the handoff: the shadow chain
        // stays live until the next settle pass takes the migration off the
        // table.
        if let Some(mig) = self.migrations.get_mut(&id) {
            mig.failed = true;
        }
        self.global.retire(id);
        self.release(rt.mv);
        Ok(())
    }

    /// Current staleness of a sharing: base relations are current as of
    /// `now`, so staleness is `now − TS(MV)`.
    pub fn staleness(&self, id: SharingId, now: Timestamp) -> Result<SimDuration> {
        Ok(now - self.mv_ts(id)?)
    }

    /// The record of a live sharing.
    fn rt(&self, id: SharingId) -> Result<&SharingRt> {
        self.sharings.get(&id).ok_or(SmileError::UnknownSharing(id))
    }

    /// Committed MV timestamp of a sharing.
    pub fn mv_ts(&self, id: SharingId) -> Result<Timestamp> {
        Ok(self.visible_ts[self.rt(id)?.mv.index()])
    }

    /// The machine a sharing's MV serves from right now (a completed
    /// migration moves it).
    pub fn mv_machine(&self, id: SharingId) -> Result<MachineId> {
        Ok(self.global.plan.vertex(self.rt(id)?.mv).machine)
    }

    /// The executor's view of a sharing's SLA.
    pub fn sla(&self, id: SharingId) -> Option<SimDuration> {
        self.sharings.get(&id).map(|rt| rt.sla)
    }

    /// Alerts the burn-rate monitor has fired so far, in fire order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The deterministic top-`k` worst-headroom live sharings
    /// ([`smile_telemetry::top_k_worst`]).
    pub fn top_k_worst(&self, k: usize) -> Vec<WorstRow> {
        smile_telemetry::top_k_worst(self.sharings.values().map(|rt| &rt.summary), k)
    }

    /// The compact headroom summary of one live sharing.
    pub fn sharing_summary(&self, id: SharingId) -> Option<&SharingSummary> {
        self.sharings.get(&id).map(|rt| &rt.summary)
    }

    /// Tuples one live sharing's pushes have moved so far.
    pub fn sharing_tuples(&self, id: SharingId) -> Option<u64> {
        self.sharings.get(&id).map(|rt| rt.tuples)
    }

    /// The live sharings the executor keeps a record of, in id order.
    pub fn sharing_ids(&self) -> impl Iterator<Item = SharingId> + '_ {
        self.sharings.keys().copied()
    }

    /// The sharings the push calendar holds a slot for, in id order.
    pub fn calendar_ids(&self) -> Vec<SharingId> {
        self.cal.ids()
    }

    /// Fast/slow burn ratios (ppm) and fast-window push count for the
    /// cohort of `id` at sim-time `now` — surfaced by `Smile::explain`.
    pub fn cohort_burn(&self, id: SharingId, now: Timestamp) -> Option<(u64, u64, u64)> {
        let sla = self.sla(id)?;
        Some(
            self.monitor
                .cohort_burn(smile_telemetry::cohort_of(sla.as_micros()), us(now)),
        )
    }

    /// True when every monitor window is empty — pinned by the quiet-mode
    /// determinism tests.
    pub fn monitor_windows_empty(&self) -> bool {
        self.monitor.windows_empty()
    }

    /// The sharing's push-order subgraph and base-relation sources, for
    /// introspection reports.
    pub fn sharing_topology(&self, id: SharingId) -> Option<(&[VertexId], &[VertexId])> {
        self.sharings.get(&id).map(|rt| (rt.order.as_slice(), rt.srcs.as_slice()))
    }

    /// One scheduler tick at simulated time `now`: drain message/event
    /// queues, plan every push that should fire this tick (due retries plus
    /// newly triggered pushes) into one batch of edge jobs, then execute the
    /// batch wave by wave.
    pub fn tick(&mut self, cluster: &mut Cluster, now: Timestamp) -> Result<()> {
        // Host wall-clock over the scheduling phase only (drain + heartbeats
        // + planning) — the cost the calendar makes O(due + invalidated).
        // Execution cost is proportional to planned work either way.
        let sched_start = std::time::Instant::now();
        self.drain_events(now);
        // Evaluate the burn-rate monitor right after completions land, on
        // simulated time only, so the alert stream repeats run to run.
        // Gated on telemetry so quiet mode stays silent.
        if self.telemetry.enabled() {
            let fired = self.monitor.on_tick(us(now));
            for a in &fired {
                if let Some(s) = a.sharing {
                    self.telemetry.capture_incident(s, us(now), "alert");
                }
            }
            self.alerts.extend(fired);
        }
        // Settle live migrations after completions landed but before this
        // tick plans: a cutover that becomes ready at tick T re-plans the
        // sharing over its new placement in the same tick.
        self.finish_migrations(now)?;
        self.heartbeat_round(cluster, now)?;
        self.poll_bus(now);
        let batch = self.plan_batch(cluster, now)?;
        let sched_us = sched_start.elapsed().as_micros() as u64;
        self.hist_sched_us.record(sched_us);
        self.sched_host_us.push(sched_us);
        self.gauge_cal_scheduled
            .set(self.cal.scheduled_count() as f64);
        self.gauge_cal_wheel.set(self.cal.wheel_len() as f64);
        self.execute_batch(cluster, now, &batch)?;
        self.compact_if_due(cluster, now)
    }

    /// `(id, staleness at now, SLA, penalty per late tuple, tuples moved so
    /// far)` of each sharing this executor maintains, in id order.
    pub fn staleness_by_sharing(
        &self,
        now: Timestamp,
    ) -> impl Iterator<Item = (SharingId, SimDuration, SimDuration, f64, u64)> + '_ {
        self.sharings.iter().map(move |(&id, rt)| {
            let staleness = now - self.visible_ts[rt.mv.index()];
            (id, staleness, rt.sla, rt.penalty, rt.tuples)
        })
    }

    /// Whether a push for the sharing is currently in flight.
    pub fn in_flight(&self, id: SharingId) -> bool {
        self.cal.in_flight(id)
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::catalog::BaseStats;
    use crate::plan::cost::{path_lengths, restricted_cp};
    use crate::platform::{Smile, SmileConfig};
    use smile_storage::delta::{DeltaBatch, DeltaEntry};
    use smile_storage::join::JoinOn;
    use smile_storage::{Predicate, SpjQuery};
    use smile_types::{tuple, Column, ColumnType, RelationId, Schema};

    fn schema(cols: &[(&str, ColumnType)], key: Vec<usize>) -> Schema {
        Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect(), key)
    }

    /// Two machines, one joined sharing, workload helper.
    fn installed(lazy: bool, sla_secs: u64) -> (Smile, RelationId, RelationId, SharingId) {
        let (smile, a, b, ids) = installed_pinned(lazy, sla_secs, &[None]);
        (smile, a, b, ids[0])
    }

    /// [`installed`] with one sharing of the same join per entry of `pins`,
    /// its MV pinned there (or left to the optimizer): sharings pinned to
    /// different machines share the half-join pair and its feeding copies
    /// and differ in the chain from the halves to the MV.
    pub(super) fn installed_pinned(
        lazy: bool,
        sla_secs: u64,
        pins: &[Option<MachineId>],
    ) -> (Smile, RelationId, RelationId, Vec<SharingId>) {
        let mut config = SmileConfig::with_machines(2);
        config.exec.lazy = lazy;
        let mut smile = Smile::new(config);
        let a = smile
            .register_base(
                "a",
                schema(&[("k", ColumnType::I64)], vec![0]),
                smile_types::MachineId::new(0),
                BaseStats {
                    update_rate: 5.0,
                    cardinality: 100.0,
                    tuple_bytes: 16.0,
                    distinct: vec![100.0],
                },
            )
            .unwrap();
        let b = smile
            .register_base(
                "b",
                schema(&[("k", ColumnType::I64), ("v", ColumnType::I64)], vec![0]),
                smile_types::MachineId::new(1),
                BaseStats {
                    update_rate: 5.0,
                    cardinality: 100.0,
                    tuple_bytes: 16.0,
                    distinct: vec![100.0, 50.0],
                },
            )
            .unwrap();
        let sla = SimDuration::from_secs(sla_secs);
        let ids = pins.iter().map(|&pin| {
            let q = SpjQuery::scan(a).join(b, JoinOn::on(0, 0), Predicate::True);
            smile.submit_pinned("t", q, sla, 0.001, pin).unwrap()
        });
        let ids = ids.collect();
        smile.install().unwrap();
        (smile, a, b, ids)
    }

    pub(super) fn feed(smile: &mut Smile, a: RelationId, b: RelationId, ticks: u64) {
        for s in 0..ticks {
            let now = smile.now();
            smile
                .ingest(
                    a,
                    DeltaBatch {
                        entries: vec![DeltaEntry::insert(tuple![(s % 20) as i64], now)],
                    },
                )
                .unwrap();
            smile
                .ingest(
                    b,
                    DeltaBatch {
                        entries: vec![DeltaEntry::insert(tuple![(s % 20) as i64, s as i64], now)],
                    },
                )
                .unwrap();
            smile.step().unwrap();
        }
    }

    #[test]
    fn lazy_pushes_far_less_often_than_eager() {
        let (mut lazy, a, b, _) = installed(true, 20);
        feed(&mut lazy, a, b, 90);
        let lazy_pushes = lazy.executor.as_ref().unwrap().push_records.len();

        let (mut eager, a2, b2, _) = installed(false, 20);
        feed(&mut eager, a2, b2, 90);
        let eager_pushes = eager.executor.as_ref().unwrap().push_records.len();

        assert!(lazy_pushes >= 1);
        assert!(
            eager_pushes > lazy_pushes * 4,
            "eager {eager_pushes} vs lazy {lazy_pushes}"
        );
    }

    #[test]
    fn pushes_never_overlap_per_sharing() {
        let (mut smile, a, b, id) = installed(true, 15);
        feed(&mut smile, a, b, 120);
        let records = &smile.executor.as_ref().unwrap().push_records;
        let mut last_completed = Timestamp::ZERO;
        for r in records.iter().filter(|r| r.sharing == id) {
            assert!(
                r.issued >= last_completed,
                "push at {} overlapped previous completion {}",
                r.issued,
                last_completed
            );
            assert!(r.completed >= r.issued);
            last_completed = r.completed;
        }
    }

    #[test]
    fn push_targets_advance_monotonically() {
        let (mut smile, a, b, id) = installed(true, 15);
        feed(&mut smile, a, b, 120);
        let records = &smile.executor.as_ref().unwrap().push_records;
        let mut last_target = Timestamp::ZERO;
        for r in records.iter().filter(|r| r.sharing == id) {
            assert!(r.target > last_target);
            last_target = r.target;
        }
    }

    #[test]
    fn compaction_keeps_delta_logs_bounded() {
        let (mut smile, a, b, _) = installed(true, 10);
        feed(&mut smile, a, b, 300);
        // Base delta logs must not retain anything like the full history
        // (300 entries each) after periodic compaction.
        for (rel, m) in [(a, 0u32), (b, 1u32)] {
            let len = smile
                .cluster
                .machine(smile_types::MachineId::new(m))
                .unwrap()
                .db
                .relation(rel)
                .unwrap()
                .delta
                .len();
            assert!(
                len < 150,
                "delta log of {rel} grew to {len} entries despite compaction"
            );
        }
    }

    #[test]
    fn staleness_reflects_mv_lag_and_unknown_sharing_errors() {
        let (mut smile, a, b, id) = installed(true, 20);
        feed(&mut smile, a, b, 10);
        let executor = smile.executor.as_ref().unwrap();
        let s = executor.staleness(id, smile.now()).unwrap();
        assert!(s <= SimDuration::from_secs(10));
        assert!(executor.staleness(SharingId::new(99), smile.now()).is_err());
        assert_eq!(executor.sla(id), Some(SimDuration::from_secs(20)));
        assert_eq!(executor.sla(SharingId::new(99)), None);
    }

    /// A slot waiting out a retry is in flight, so nothing gives it a
    /// second one: after every tick of a chaos run that retries, each
    /// pending retry names a distinct in-flight slot.
    #[test]
    fn a_slot_has_at_most_one_pending_retry() {
        let pins = [None, Some(MachineId::new(0)), Some(MachineId::new(1))];
        let (mut smile, a, b, _) = installed_pinned(true, 20, &pins);
        smile.cluster.set_fault_profile(smile_sim::FaultProfile::chaos(4242));
        for _ in 0..300 {
            feed(&mut smile, a, b, 1);
            let ex = smile.executor.as_ref().unwrap();
            let mut slots: Vec<SharingId> = ex.pending_retries.iter().map(|r| r.0.sharing).collect();
            assert!(slots.iter().all(|&id| ex.cal.in_flight(id)));
            slots.sort_unstable();
            let pending = slots.len();
            slots.dedup();
            assert_eq!(slots.len(), pending, "a slot has two pending retries");
        }
        let retried = smile.executor.as_ref().unwrap().fault_stats.pushes_retried;
        assert!(retried > 0, "the chaos run never retried");
    }

    #[test]
    fn no_due_retries_returns_without_draining() {
        let (mut smile, _a, _b, id) = installed(true, 20);
        let ex = smile.executor.as_mut().unwrap();
        let t = Timestamp::from_secs;
        ex.pending_retries.push(Reverse(PendingRetry {
            due: t(9),
            sharing: id,
            target: t(8),
            attempt: 2,
        }));
        assert!(ex.collect_due_retries(t(4)).is_empty());
        assert!(ex.collect_due_retries(Timestamp::ZERO).is_empty());
        assert_eq!(ex.pending_retries.len(), 1);
    }

    /// The cached evaluator, and the MV's entry in the one sweep, against
    /// an independent per-sharing oracle (`cost::restricted_cp`).
    #[test]
    fn cached_critical_path_matches_full_walk() {
        let (mut smile, a, b, _id) = installed(true, 20);
        feed(&mut smile, a, b, 40); // feedback shifts inflation off 1.0
        let ex = smile.executor.as_ref().unwrap();
        assert!(ex.model.inflation() != 1.0, "feedback never calibrated");
        let plan = &ex.global.plan;
        for (id, rt) in &ex.sharings {
            for w in [0.0, 0.5, 1.0, 3.25, 10.0, 123.456, 3600.0] {
                let oracle = restricted_cp(plan, rt.mv, w, &ex.model);
                let cached = rt.cp.eval(w, &ex.model);
                assert_eq!(cached, oracle, "window {w}s diverged at sharing {id}");
                let swept = path_lengths(plan, w, &ex.model).unwrap()[rt.mv.index()];
                assert_eq!(swept, oracle, "window {w}s: one sweep diverged at sharing {id}");
            }
        }
    }

    /// The anchors `plan_grew` extends admission by admission, over twins
    /// pinned to either machine, equal one pass over the grown plan.
    #[test]
    fn extended_anchors_equal_one_pass() {
        let m = MachineId::new;
        let (mut smile, a, b, _) = installed_pinned(true, 20, &[Some(m(0))]);
        for (i, pin) in [m(1), m(0), m(1), m(0)].into_iter().enumerate() {
            feed(&mut smile, a, b, 3);
            let q = SpjQuery::scan(a).join(b, JoinOn::on(0, 0), Predicate::eq(1, i as i64 % 2));
            smile.submit_live("t", q, SimDuration::from_secs(9), 0.001, Some(pin)).unwrap();
        }
        let ex = smile.executor.as_ref().unwrap();
        let plan = &ex.global.plan;
        let mut fresh = Vec::new();
        plan.half_join_anchors(&mut fresh).unwrap();
        let anchored = (0..plan.edge_count()).filter(|&e| fresh[e].is_some()).count();
        assert!(anchored >= 6, "{anchored} anchored edges");
        assert_eq!(ex.anchor_of, fresh);
    }

    /// A push in flight when its sharing retires completes from its
    /// request: the same push record, `push.sla_missed`, headroom
    /// histograms, burn-rate monitor input and flight incidents as on a
    /// twin run that keeps the sharing — and it brings back no record,
    /// calendar slot or summary.
    #[test]
    fn a_push_in_flight_at_retirement_completes_without_its_record() {
        let (mut kept, a, b, id) = installed(true, 20);
        let (mut retired, ..) = installed(true, 20);
        for _ in 0..60 {
            if kept.executor.as_ref().unwrap().in_flight(id) {
                break;
            }
            feed(&mut kept, a, b, 1);
            feed(&mut retired, a, b, 1);
        }
        assert!(retired.executor.as_ref().unwrap().in_flight(id), "no push went in flight");
        retired.retire(id).unwrap();
        for smile in [&mut kept, &mut retired] {
            smile.step().unwrap();
        }
        let (k, r) = (kept.executor.as_ref().unwrap(), retired.executor.as_ref().unwrap());
        assert_eq!(r.push_records.last().map(|p| p.sharing), Some(id), "the push never completed");
        assert_eq!(r.push_records, k.push_records);
        assert_eq!(r.ctr_sla_missed.get(), k.ctr_sla_missed.get());
        for (rh, kh) in [(&r.hist_headroom_us, &k.hist_headroom_us), (&r.hist_after_us, &k.hist_after_us)] {
            assert_eq!(format!("{:?}", rh.snapshot()), format!("{:?}", kh.snapshot()));
        }
        assert_eq!(format!("{:?}", r.monitor), format!("{:?}", k.monitor));
        assert_eq!(format!("{:?}", retired.flight_incidents()), format!("{:?}", kept.flight_incidents()));
        assert!(r.sharings.is_empty() && r.cal.ids().is_empty() && r.sharing_summary(id).is_none());
    }

    #[test]
    fn feedback_inflation_starts_at_unity() {
        let (smile, _, _, _) = installed(true, 20);
        assert_eq!(smile.executor.as_ref().unwrap().model.inflation(), 1.0);
    }
}
