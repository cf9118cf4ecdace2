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
use crate::plan::dag::{Edge, Plan, VertexKind};
use crate::plan::timecost::TimeCostModel;
use crate::sharing::Sharing;
use calendar::{CalendarState, CpEval};
use liveness::{ExecEvent, Heartbeat, PendingRetry};
use smile_sim::{Cluster, EventQueue, Mailbox, WaveMeter};
use smile_telemetry::{
    Alert, BurnRateMonitor, Counter, FleetRollup, Gauge, Histogram, SharingSummary, Telemetry,
};
use smile_types::{FastMap, MachineId, Result, SharingId, SimDuration};
use smile_types::{SmileError, Timestamp, VertexId};
use spans::us;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
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
    /// How transiently-failed pushes are retried.
    pub retry: RetryPolicy,
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
            retry: RetryPolicy::default(),
            workers: 1,
        }
    }
}

/// Retry/backoff policy for pushes that fail with a transient fault
/// (machine down, delta lost in transit, acknowledgement lost).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts per push including the first; `1` disables retries.
    pub max_attempts: u32,
    /// Detection timeout before a failed attempt is retried (the executor
    /// waits this long for the acknowledgement that never comes).
    pub timeout: SimDuration,
    /// Backoff added on top of the timeout before the first retry.
    pub backoff_base: SimDuration,
    /// Multiplier applied to the backoff for each further retry.
    pub backoff_multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            timeout: SimDuration::from_secs(2),
            backoff_base: SimDuration::from_millis(500),
            backoff_multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Delay between a failed attempt number `attempt` (1-based) and the
    /// next one: detection timeout plus exponential backoff.
    pub fn delay_after(&self, attempt: u32) -> SimDuration {
        self.timeout
            + self
                .backoff_base
                .mul_f64(self.backoff_multiplier.powi(attempt.saturating_sub(1) as i32))
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

/// Runtime state per sharing: its subgraph and the scheduling caches
/// derived from it, built together at registration and replaced together
/// when a migration cuts over. Whether the slot is idle, mid-push or
/// retired is the push calendar's to say.
#[derive(Clone, Debug)]
struct SharingRt {
    id: SharingId,
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
}

impl SharingRt {
    /// The slot of sharing `id` under its contract's `(SLA, penalty per
    /// late tuple)`, served at `mv` through the subgraph `(srcs, order)`
    /// [`Executor::subgraph_of`] derives.
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
            id,
            sla,
            penalty,
            mv,
            cp: CpEval::build(plan, &order, model),
            srcs,
            order,
            machines,
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
    /// Per vertex, [`Executor::live`]: the plan is append-only, so after the
    /// first retire or cutover part of it is inert. A merge marks what it
    /// adds; a retire, a settled migration and the start recompute it.
    live: Vec<bool>,
    /// Last heartbeat-reported timestamp per vertex (base vertices only).
    heartbeats: Vec<Option<Timestamp>>,
    sharings: Vec<SharingRt>,
    /// Live (non-retired) sharing id → slot index, so the per-id accessors
    /// stay O(1) at 100k sharings.
    by_id: FastMap<SharingId, usize>,
    events: EventQueue<ExecEvent>,
    /// The agents' channel to the executor.
    bus: Mailbox<Heartbeat>,
    last_heartbeat: Option<Timestamp>,
    last_compaction: Timestamp,
    /// Transiently-failed pushes awaiting their backoff, min-heap keyed
    /// `(due, idx)`.
    pending_retries: BinaryHeap<Reverse<PendingRetry>>,
    /// Fault-recovery statistics.
    pub fault_stats: ExecFaultStats,
    /// Total tuples moved across all edges (snapshot-module metric).
    pub tuples_moved: u64,
    /// Tuples moved attributed per sharing.
    pub tuples_per_sharing: HashMap<SharingId, u64>,
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
    /// Per-vertex position in one canonical topological order of the
    /// merged plan, shared by every per-sharing build and the wave
    /// assignment pass (rebuilt on live submit).
    topo_rank: Vec<u32>,
    /// Base Relation vertices that heartbeat each round, in plan order
    /// (the publish order the per-vertex scan produced).
    base_beats: Vec<(MachineId, VertexId)>,
    /// Push-calendar scheduler state, and with it each slot's lifecycle
    /// (idle / in flight / retired).
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
    /// Bounded per-sharing accounting: compact summaries + deterministic
    /// top-K worst-headroom rows, O(K) snapshot cardinality.
    rollup: FleetRollup,
    /// SLA burn-rate monitor over sharing cohorts (sim-time windows).
    monitor: BurnRateMonitor,
    /// Alerts fired so far, in fire order — the adaptive-runtime feed.
    alerts: Vec<Alert>,
    /// In-flight live migrations, keyed by sharing slot index (BTreeMap so
    /// settlement iterates in canonical order).
    migrations: std::collections::BTreeMap<usize, migrate::MigrationRt>,
    /// Settled migrations awaiting platform pickup
    /// ([`Executor::take_migration_outcomes`]).
    migration_outcomes: Vec<MigrationOutcome>,
    /// Until [`Executor::start`], what [`Executor::load`] reads, grown as
    /// each merge adds live edges; `None` once started.
    load_before_start: Option<HashMap<MachineId, f64>>,
}

impl Executor {
    /// A sharing's executable subgraph rooted at `mv`: its base-relation
    /// sources (`SRC(S_i)`) and the push-order list of its non-base
    /// vertices. Shared by runtime construction and the live-migration
    /// shadow install (which derives the *new* placement's subgraph before
    /// the sharing's MV is repointed there).
    fn subgraph_of(
        global: &GlobalPlan,
        id: SharingId,
        mv: VertexId,
        topo_rank: &[u32],
    ) -> Result<(Vec<VertexId>, Vec<VertexId>)> {
        let anc = global.plan.ancestors(mv);
        // `SRC(S_i)`: the base *relations* feeding the sharing. A plan may
        // reference a base only through its delta vertex (scan plans copy
        // Δbase without touching the base table), so map every base
        // ancestor back to its Relation twin by (signature, machine).
        let mut src_keys: std::collections::BTreeSet<VertexId> = std::collections::BTreeSet::new();
        for &v in &anc {
            let vert = global.plan.vertex(v);
            if !vert.is_base {
                continue;
            }
            let rel = match vert.kind {
                VertexKind::Relation => v,
                VertexKind::Delta => global
                    .plan
                    .find_vertex(VertexKind::Relation, &vert.sig, vert.machine)
                    .ok_or_else(|| {
                        SmileError::Internal(format!(
                            "base delta {v} has no Relation twin in the plan"
                        ))
                    })?,
            };
            src_keys.insert(rel);
        }
        let srcs: Vec<VertexId> = src_keys.into_iter().collect();
        if srcs.is_empty() {
            return Err(SmileError::InvalidPlan(format!(
                "sharing {id} has no base-relation sources"
            )));
        }
        // Sorting the subgraph members by their rank in the shared
        // canonical topo order yields exactly the filtered-topo order the
        // old per-sharing full sweep produced, at O(sub log sub).
        let mut order: Vec<VertexId> = anc
            .iter()
            .copied()
            .chain(std::iter::once(mv))
            .filter(|&v| !global.plan.vertex(v).is_base)
            .collect();
        order.sort_unstable_by_key(|v| topo_rank[v.index()]);
        order.dedup();
        Ok((srcs, order))
    }

    /// An executor over an empty plan, not yet started: admissions merge
    /// into its plan ([`Executor::add_sharing`]) and [`Executor::start`]
    /// gives them their runtime. `telemetry` is the platform-wide handle
    /// the executor records spans and instruments into.
    pub fn new(model: TimeCostModel, config: ExecConfig, telemetry: Rc<Telemetry>) -> Self {
        let cal = CalendarState::new(0, config.tick);
        let reg = telemetry.registry();
        Self {
            global: GlobalPlan::new(),
            model,
            config,
            data_ts: Vec::new(),
            visible_ts: Vec::new(),
            live: Vec::new(),
            heartbeats: Vec::new(),
            sharings: Vec::new(),
            by_id: FastMap::default(),
            events: EventQueue::new(),
            bus: Mailbox::new(COMMAND_LATENCY),
            last_heartbeat: None,
            last_compaction: Timestamp::ZERO,
            pending_retries: BinaryHeap::new(),
            fault_stats: ExecFaultStats::default(),
            tuples_moved: 0,
            tuples_per_sharing: HashMap::new(),
            push_records: Vec::new(),
            ctr_waves: reg.counter("wave.waves"),
            ctr_jobs: reg.counter("wave.jobs"),
            ctr_busy_nanos: reg.counter("wave.host_busy_nanos"),
            anchor_of: Vec::new(),
            topo_rank: Vec::new(),
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
            rollup: FleetRollup::new(),
            monitor: BurnRateMonitor::default(),
            alerts: Vec::new(),
            migrations: std::collections::BTreeMap::new(),
            migration_outcomes: Vec::new(),
            telemetry,
            load_before_start: Some(HashMap::new()),
        }
    }

    /// Starts the runtime over the plan merged so far: the plan-wide state,
    /// then a slot for each of `sharings`, the admitted ones in order.
    pub fn start(&mut self, sharings: &[Sharing]) -> Result<()> {
        // None is registered yet, so every admitted MV is passed in.
        let mvs = self.global.mvs()?;
        self.plan_grew(&mvs)?;
        sharings.iter().try_for_each(|s| self.register(s))?;
        // Recomputed, not carried over: hill climbing may have rewired the
        // plan the merges marked.
        self.refresh_live();
        self.load_before_start = None;
        Ok(())
    }

    /// Whether [`Executor::start`] has run.
    pub fn started(&self) -> bool {
        self.load_before_start.is_none()
    }

    /// Per-machine load of the live edges under `model`, which admission
    /// plans against; summed afresh once started, as a retire can free load.
    pub fn load(&self, model: &TimeCostModel) -> HashMap<MachineId, f64> {
        let live = || edge_utilization(HashMap::new(), &self.global.plan, self.live_edges(), model);
        self.load_before_start.clone().unwrap_or_else(live)
    }

    /// Re-derives the plan-wide runtime state after the global plan gained
    /// vertices (the start, live admission, a migration's shadow chain): the
    /// per-vertex timestamp vectors grow, and the shared rank vector,
    /// heartbeat roster and half-join anchors take in the new vertices.
    /// Merging only *adds* vertices and edges (dedup reuses existing ones
    /// untouched) and vertex ids are append-only, so per-sharing caches,
    /// in-flight pushes and queued events stay valid.
    /// Fails on a plan whose half-joins cannot be anchored — among the
    /// vertices upstream of a registered sharing's MV or of one of
    /// `unregistered`, the MVs merged but not registered yet — so the start,
    /// live admission and a shadow merge refuse it instead of losing rows.
    fn plan_grew(&mut self, unregistered: &[VertexId]) -> Result<()> {
        let n = self.global.plan.vertex_count();
        self.data_ts.resize(n, Timestamp::ZERO);
        self.visible_ts.resize(n, Timestamp::ZERO);
        self.heartbeats.resize(n, None);
        self.topo_rank = Self::rank_of(&self.global)?;
        self.base_beats = self.global.base_relation_vertices();
        // Walked only if a join resolves to two siblings: from 3,000 MVs the
        // walk alone takes ≈0.1 ms (2-core host), five times the anchors.
        let mvs = || self.live_sharings().map(|rt| rt.mv).chain(unregistered.iter().copied());
        let served = || self.global.plan.upstream_mask(mvs());
        self.anchor_of = self.global.plan.half_join_anchors(served)?;
        Ok(())
    }

    /// Recomputes [`Executor::live`] for every vertex: after a sharing
    /// retires or cuts over, a migration settles, or at the start.
    fn refresh_live(&mut self) {
        let plan = &self.global.plan;
        let mut live: Vec<bool> = plan.vertices().iter().map(|v| v.is_base).collect();
        let mvs = self.live_sharings().map(|rt| rt.mv);
        plan.mark_upstream(&mut live, mvs.chain(self.shadow_mvs()));
        self.live = live;
    }

    /// Marks what a merge made live — `mv` and everything upstream of it, as
    /// far as the first vertex already live (liveness is closed under
    /// ancestors) — over the appended vertices, of which the base ones are
    /// live. Whether it marked an older vertex: a dead chain revived.
    fn mark_live(&mut self, mv: VertexId) -> bool {
        let (plan, before) = (&self.global.plan, self.live.len());
        self.live.extend(plan.vertices()[before..].iter().map(|v| v.is_base));
        let marked = plan.mark_upstream(&mut self.live, [mv]);
        marked.iter().any(|v| v.index() < before)
    }

    /// Whether a vertex is live: it is a base vertex (the applications' own
    /// storage), serves a sharing (it is an admitted sharing's MV or
    /// upstream of one) or lies on an in-flight migration's shadow chain —
    /// all of it, including vertices the shadow merge found already in the
    /// plan. Everything that keeps, feeds or pays for a vertex asks this:
    /// the platform's storage reconcile, log compaction, admission's view
    /// of the load.
    pub fn live(&self, v: VertexId) -> bool {
        self.live[v.index()]
    }

    /// The edges that produce a live vertex, in edge order.
    pub fn live_edges(&self) -> impl Iterator<Item = &Edge> {
        let live = |e: &&Edge| self.live[e.output.index()];
        self.global.plan.edges().iter().filter(live)
    }

    /// Gives a sharing already merged into the global plan its runtime
    /// slot: subgraph, scheduling caches, rollup row and a calendar slot
    /// due at the next planning pass.
    fn register(&mut self, s: &Sharing) -> Result<()> {
        let mv = self.global.mv_vertex(s.id)?;
        let subgraph = Self::subgraph_of(&self.global, s.id, mv, &self.topo_rank)?;
        self.rollup.register(s.id.0, s.staleness_sla.as_micros());
        self.by_id.insert(s.id, self.sharings.len());
        self.sharings.push(SharingRt::build(
            &self.global.plan,
            s.id,
            (s.staleness_sla, s.penalty_per_tuple),
            mv,
            subgraph,
            &self.model,
        ));
        self.cal.add_slot();
        Ok(())
    }

    /// One canonical topological rank per vertex of the merged plan.
    fn rank_of(global: &GlobalPlan) -> Result<Vec<u32>> {
        let topo = global.plan.topo_order()?;
        let mut rank = vec![0u32; global.plan.vertex_count()];
        for (i, v) in topo.iter().enumerate() {
            rank[v.index()] = i as u32;
        }
        Ok(rank)
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
    /// admitted sharing's plan into the global plan. Before the start that
    /// is all, but for the load under `model`. Once started, it registers
    /// the sharing, and the platform's storage reconcile gives the newly
    /// live vertices storage, seeds them and calls
    /// `Executor::mark_vertices_seeded`.
    pub fn add_sharing(
        &mut self,
        sharing: &Sharing,
        planned: &PlannedSharing,
        model: &TimeCostModel,
    ) -> Result<()> {
        let appended = self.global.plan.edges().len();
        let mv = self.global.merge(sharing, planned)?;
        let revived = self.mark_live(mv);
        let Some(load) = self.load_before_start.take() else {
            self.plan_grew(&[mv])?;
            return self.register(sharing);
        };
        // Nothing retires before the start, so the live edges only grow: by
        // appended ones, and rarely by an old edge a merge brought for a
        // vertex the plan already produced, revived when a later sharing
        // dedups onto it. The load grows in edge order, so a revival re-sums.
        let plan = &self.global.plan;
        let (load, from) = if revived { (HashMap::new(), 0) } else { (load, appended) };
        let live = plan.edges()[from..].iter().filter(|e| self.live[e.output.index()]);
        self.load_before_start = Some(edge_utilization(load, plan, live, model));
        Ok(())
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
    /// Its runtime slot becomes a tombstone (indexes in queued events must
    /// stay stable) and its meta leaves the global plan. The plan vertices
    /// that served only it stay in the append-only plan but stop being
    /// [`Executor::live`] until a new sharing dedups onto them: the storage
    /// reconcile drops their slots, compaction stops pinning logs through
    /// their edges and admission stops counting their load — which is what
    /// makes them free at run time.
    pub fn remove_sharing(&mut self, id: SharingId) -> Result<()> {
        // `by_id` indexes only live sharings, so a hit is never a tombstone.
        let idx = self.by_id.remove(&id).ok_or(SmileError::UnknownSharing(id))?;
        self.rollup.retire(idx);
        self.cal.retire(idx);
        // Retiring mid-migration abandons the handoff: the shadow chain
        // stays live until the next settle pass takes the migration off the
        // table.
        if let Some(mig) = self.migrations.get_mut(&idx) {
            mig.failed = true;
        }
        self.global.retire(id);
        self.refresh_live();
        Ok(())
    }

    /// Current staleness of a sharing: base relations are current as of
    /// `now`, so staleness is `now − TS(MV)`.
    pub fn staleness(&self, id: SharingId, now: Timestamp) -> Result<SimDuration> {
        Ok(now - self.mv_ts(id)?)
    }

    /// The runtime slot of a live sharing.
    fn rt(&self, id: SharingId) -> Result<&SharingRt> {
        let idx = self.by_id.get(&id).ok_or(SmileError::UnknownSharing(id))?;
        Ok(&self.sharings[*idx])
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
        self.by_id.get(&id).map(|&i| self.sharings[i].sla)
    }

    /// Alerts the burn-rate monitor has fired so far, in fire order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The bounded fleet headroom rollup.
    pub fn rollup(&self) -> &FleetRollup {
        &self.rollup
    }

    /// The compact rollup summary for one live sharing.
    pub fn sharing_summary(&self, id: SharingId) -> Option<&SharingSummary> {
        self.by_id.get(&id).and_then(|&i| self.rollup.summary(i))
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
        self.by_id.get(&id).map(|&i| {
            let rt = &self.sharings[i];
            (rt.order.as_slice(), rt.srcs.as_slice())
        })
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

    /// Runtime slots of the sharings not retired, in slot order.
    fn live_sharings(&self) -> impl Iterator<Item = &SharingRt> {
        let live = |(idx, _): &(usize, &SharingRt)| self.cal.is_live(*idx);
        self.sharings
            .iter()
            .enumerate()
            .filter(live)
            .map(|(_, rt)| rt)
    }

    /// `(id, staleness at now, SLA, penalty per late tuple)` of each
    /// sharing this executor maintains (retired ones excluded), in slot
    /// order.
    pub fn staleness_by_sharing(
        &self,
        now: Timestamp,
    ) -> impl Iterator<Item = (SharingId, SimDuration, SimDuration, f64)> + '_ {
        self.live_sharings().map(move |rt| {
            let staleness = now - self.visible_ts[rt.mv.index()];
            (rt.id, staleness, rt.sla, rt.penalty)
        })
    }

    /// Whether a push for the sharing is currently in flight.
    pub fn in_flight(&self, id: SharingId) -> bool {
        self.by_id.get(&id).is_some_and(|&i| self.cal.in_flight(i))
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
            let mut slots: Vec<usize> = ex.pending_retries.iter().map(|r| r.0.idx).collect();
            assert!(slots.iter().all(|&idx| ex.cal.in_flight(idx)));
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
        let (mut smile, _a, _b, _id) = installed(true, 20);
        let ex = smile.executor.as_mut().unwrap();
        let t = Timestamp::from_secs;
        ex.pending_retries.push(Reverse(PendingRetry {
            due: t(9),
            idx: 0,
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
        for rt in &ex.sharings {
            for w in [0.0, 0.5, 1.0, 3.25, 10.0, 123.456, 3600.0] {
                let oracle = restricted_cp(plan, rt.mv, w, &ex.model);
                let cached = rt.cp.eval(w, &ex.model);
                assert_eq!(cached, oracle, "window {w}s diverged at sharing {}", rt.id);
                let swept = path_lengths(plan, w, &ex.model).unwrap()[rt.mv.index()];
                assert_eq!(swept, oracle, "window {w}s: one sweep diverged at sharing {}", rt.id);
            }
        }
    }

    #[test]
    fn feedback_inflation_starts_at_unity() {
        let (smile, _, _, _) = installed(true, 20);
        assert_eq!(smile.executor.as_ref().unwrap().model.inflation(), 1.0);
    }
}
