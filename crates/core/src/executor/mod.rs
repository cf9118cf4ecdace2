//! The sharing executor (paper §8): lazy, SLA-aware push scheduling.
//!
//! The executor maintains every admitted sharing at or below its staleness
//! SLA. It is *lazy by design*: it does not refresh an MV unless waiting any
//! longer would risk missing the SLA, bunching as much work as possible into
//! each PUSH. Per tick it:
//!
//! 1. drains agent messages (heartbeats with vertex timestamps, PUSHDONE
//!    completions) from the pub/sub bus;
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
//! critical paths, see [`calendar`]) makes the per-tick host cost
//! O(due + invalidated) instead of O(sharings · plan-size). A slot the
//! calendar leaves asleep must be one the guard chain would not fire; the
//! crate's unit-test build asserts exactly that every tick
//! (`Executor::assert_sleepers_idle`).

mod calendar;
pub mod messages;
mod migrate;
pub mod push;
pub mod seed;
#[cfg(test)]
mod wake_tests;
mod wave;

pub use migrate::MigrationOutcome;

use crate::merge_catalog::MergeCatalog;
use crate::multi::GlobalPlan;
use crate::plan::dag::{EdgeOp, VertexKind};
use crate::plan::timecost::TimeCostModel;
use crate::sharing::Sharing;
use calendar::{CalendarState, SharingCache, INFLATION_HEADROOM};
use messages::{AgentMsg, TOPIC_TO_EXECUTOR};
use push::JobFaults;
use smile_sim::pubsub::SubscriberId;
use smile_sim::{Cluster, EventQueue, PubSub, WaveMeter};
use smile_telemetry::{
    Alert, BurnRateMonitor, Counter, FleetRollup, Gauge, Histogram, SharingSummary, SpanKind,
    SpanRecord, Telemetry,
};
use smile_types::{
    MachineId, RelationId, Result, SharingId, SimDuration, SmileError, Timestamp, VertexId,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// Simulated instant as microseconds since time zero — the only clock that
/// appears in span timing fields, so traces are worker-count-independent.
fn us(t: Timestamp) -> u64 {
    (t - Timestamp::ZERO).as_micros()
}

/// Stable operator name used as a span attribute.
fn op_name(op: &EdgeOp) -> &'static str {
    match op {
        EdgeOp::CopyDelta => "copy_delta",
        EdgeOp::DeltaToRel => "delta_to_rel",
        EdgeOp::Join { .. } => "join",
        EdgeOp::Union => "union",
    }
}

/// Heartbeat publication period.
const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_secs(1);
/// How often delta logs are compacted.
const COMPACTION_PERIOD: SimDuration = SimDuration::from_secs(30);
/// Retention margin kept below the minimum consumer timestamp.
const COMPACTION_MARGIN: SimDuration = SimDuration::from_secs(10);
/// Command dispatch latency (executor → agent).
const COMMAND_LATENCY: SimDuration = SimDuration::from_millis(5);

/// Executor tuning knobs.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Scheduler tick period.
    pub tick: SimDuration,
    /// The `l` factor of §8.2: fire a push when the projected staleness at
    /// completion reaches `l · SLA`.
    pub l_factor: f64,
    /// Lazy scheduling (the paper's design). `false` pushes every tick —
    /// the eager baseline of the ablation benches.
    pub lazy: bool,
    /// Whether PUSHDONE durations recalibrate the time model.
    pub feedback: bool,
    /// How transiently-failed pushes are retried.
    pub retry: RetryPolicy,
    /// Worker threads for wave execution. `1` runs the same engine inline
    /// on the scheduler thread (the ablation baseline); results are
    /// byte-identical at any value. Defaults to the host's available
    /// parallelism, overridable with the `SMILE_WORKERS` env var.
    pub workers: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            tick: SimDuration::from_secs(1),
            l_factor: 0.8,
            lazy: true,
            feedback: true,
            retry: RetryPolicy::default(),
            workers: default_workers(),
        }
    }
}

/// `SMILE_WORKERS` if set to a positive integer, else the host's available
/// parallelism. The env override is what lets CI run the whole suite at
/// several worker counts without touching any test.
fn default_workers() -> usize {
    std::env::var("SMILE_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&w| w >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
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
    /// Delta batches a retry re-shipped that were suppressed by batch-id
    /// deduplication (the first attempt had landed).
    pub batches_deduped: u64,
    /// Stacked retries for the same sharing slot that were collapsed into
    /// one attempt at the freshest target (the dropped duplicates).
    pub retries_coalesced: u64,
}

/// A push attempt scheduled for re-execution after a transient fault.
/// Field order doubles as the min-heap key: `(due, idx)` first, so draining
/// in heap order is draining in `(due, idx)` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct PendingRetry {
    /// When the retry fires.
    due: Timestamp,
    /// Sharing slot index.
    idx: usize,
    /// The original push target (unchanged across retries).
    target: Timestamp,
    /// Attempt number this retry will be (1-based).
    attempt: u32,
}

/// One push planned into the current tick's batch: sharing `idx` advancing
/// its subgraph to `target`.
#[derive(Clone, Copy, Debug)]
struct BatchRequest {
    /// Sharing slot index.
    idx: usize,
    /// The timestamp the push advances to.
    target: Timestamp,
    /// Attempt number (1-based; >1 for retries).
    attempt: u32,
    /// MV staleness when the push was issued.
    staleness_before: SimDuration,
    /// Critical-path prediction for the push (feedback calibration).
    predicted: SimDuration,
    /// The sharing's MV vertex.
    mv: VertexId,
    /// The sharing being advanced.
    sharing: SharingId,
    /// Dual-write shadow of a live migration: advances the new placement's
    /// chain alongside the real request, with no completion bookkeeping —
    /// only the owning migration's handoff state.
    shadow: bool,
}

/// One edge job of a batch: advance `vertex` over `(from, to]` by running
/// its producer edge. `deps` are earlier job indexes that must succeed (and
/// complete, for submission timing) first: the previous job on the same
/// vertex plus the latest job on each input.
#[derive(Clone, Debug)]
struct BatchJob {
    /// The vertex this job advances.
    vertex: VertexId,
    /// Producer edge index in the global plan.
    edge: usize,
    /// Window start (exclusive).
    from: Timestamp,
    /// Window end (inclusive) — the request's target.
    to: Timestamp,
    /// Owning request's index in the batch.
    req: usize,
    /// Earlier jobs this one depends on (always lower indexes).
    deps: Vec<usize>,
    /// Topological wave this job runs in.
    wave: usize,
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

/// Runtime state per sharing.
#[derive(Clone, Debug)]
struct SharingRt {
    id: SharingId,
    sla: SimDuration,
    mv: VertexId,
    /// Base Relation vertices feeding this sharing (`SRC(S_i)`).
    srcs: Vec<VertexId>,
    /// Push-order (topological) list of the sharing's non-base vertices.
    order: Vec<VertexId>,
    in_flight: bool,
    /// Tombstone: the slot stays (event indexes must remain stable) but the
    /// scheduler ignores it.
    retired: bool,
}

#[derive(Clone, Copy, Debug)]
enum ExecEvent {
    /// A vertex's new timestamp becomes visible (its operation completed).
    Commit { vertex: VertexId, ts: Timestamp },
    /// A sharing's push fully completed.
    PushDone {
        idx: usize,
        issued: Timestamp,
        target: Timestamp,
        predicted: SimDuration,
        staleness_before: SimDuration,
        tuples: u64,
    },
}

/// Outcome of evaluating one sharing for a push at the current tick. Only
/// `Fire`/`Deferred` have effects; the calendar maps every other variant
/// to the event that will next make the outcome change, so the slot can
/// sleep until then.
enum Consider {
    /// Push now, to `target`.
    Fire { target: Timestamp },
    /// A source has no heartbeat yet; changes when `src` first beats.
    NoHeartbeat { src: VertexId },
    /// `MINTS(SRC) ≤ TS(MV)` — nothing to move; changes when the minimum
    /// source heartbeat (`src`) advances.
    NoWindow { src: VertexId },
    /// The lazy projection has not reached `l·SLA`; time-driven.
    Lazy,
    /// The skew clamp `min(MINTS(SRC), now)` emptied the window; resolves
    /// as `now` advances, so re-evaluate next tick.
    SkewClamped,
    /// A machine the push needs is down; re-evaluate (and re-count) next
    /// tick.
    Deferred,
}

/// Copy-on-write shadow of `data_ts` for one planning pass: requests
/// advance shared vertices here as they are planned, so later requests in
/// the same batch see their effect — without cloning the full per-vertex
/// timestamp vector every tick.
#[derive(Default)]
struct PlanTs {
    overlay: HashMap<usize, Timestamp>,
}

impl PlanTs {
    fn get(&self, base: &[Timestamp], v: VertexId) -> Timestamp {
        self.overlay
            .get(&v.index())
            .copied()
            .unwrap_or(base[v.index()])
    }

    fn set(&mut self, v: VertexId, ts: Timestamp) {
        self.overlay.insert(v.index(), ts);
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
    /// Last heartbeat-reported timestamp per base vertex.
    heartbeats: HashMap<VertexId, Timestamp>,
    sharings: Vec<SharingRt>,
    /// Live (non-retired) sharing id → slot index, so the per-id accessors
    /// the snapshot auditor hits every period stay O(1) at 100k sharings.
    by_id: HashMap<SharingId, usize>,
    events: EventQueue<ExecEvent>,
    bus: PubSub<AgentMsg>,
    exec_sub: SubscriberId,
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
    telemetry: Arc<Telemetry>,
    /// Registry counters behind [`Executor::wave_meter_view`], cached at
    /// build time so the merge loop records without a registry lookup.
    ctr_waves: Arc<Counter>,
    ctr_jobs: Arc<Counter>,
    ctr_busy_nanos: Arc<Counter>,
    /// Per join edge id: the sibling half-join's output vertex, whose
    /// coverage anchors this join's snapshot (consistency under skew).
    anchor_of: HashMap<usize, VertexId>,
    /// Per-vertex position in one canonical topological order of the
    /// merged plan, shared by every per-sharing build and the wave
    /// assignment pass (rebuilt on live submit).
    topo_rank: Vec<u32>,
    /// Per-sharing scheduling caches (compact critical-path evaluator,
    /// machine set), parallel to `sharings`.
    caches: Vec<SharingCache>,
    /// Base Relation vertices that heartbeat each round, in plan order
    /// (the publish order the per-vertex scan produced).
    base_beats: Vec<(MachineId, VertexId)>,
    /// Push-calendar scheduler state.
    cal: CalendarState,
    /// Host wall-clock per tick spent in the scheduling phase (drain +
    /// heartbeats + planning), µs. `host_` marks it excluded from
    /// determinism comparisons.
    hist_sched_us: Arc<Histogram>,
    /// The same per-tick scheduling latencies as a raw log, for benches
    /// that window percentiles past warmup (host-side only).
    pub sched_host_us: Vec<u64>,
    ctr_cal_wakes: Arc<Counter>,
    ctr_cal_early: Arc<Counter>,
    gauge_cal_scheduled: Arc<Gauge>,
    gauge_cal_waiting: Arc<Gauge>,
    gauge_cal_wheel: Arc<Gauge>,
    /// Fleet-wide staleness-headroom histogram (one instrument for the
    /// whole fleet — the per-sharing `{sharing=N}` family it replaces was
    /// O(N) registry cardinality at 100k sharings). Cached at build so the
    /// completion path is an O(1) handle deref, never a name lookup.
    hist_headroom_us: Arc<Histogram>,
    /// Fleet-wide staleness-at-completion histogram.
    hist_after_us: Arc<Histogram>,
    /// Fleet-wide SLA-miss counter.
    ctr_sla_missed: Arc<Counter>,
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
}

impl Executor {
    /// A sharing's executable subgraph rooted at `mv`: its base-relation
    /// sources (`SRC(S_i)`) and the push-order list of its non-base
    /// vertices. Shared by runtime construction and the live-migration
    /// shadow install (which derives the *new* placement's subgraph before
    /// any SHR set mentions it).
    fn subgraph_of(
        global: &GlobalPlan,
        id: SharingId,
        mv: VertexId,
        topo_rank: &[u32],
    ) -> Result<(Vec<VertexId>, Vec<VertexId>)> {
        let (anc, _) = global.plan.ancestors(mv);
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

    /// Builds an executor over an installed global plan. `sharings` must be
    /// the admitted sharings whose plans were merged into `global`;
    /// `telemetry` is the platform-wide handle the executor records spans
    /// and instruments into.
    pub fn new(
        global: GlobalPlan,
        sharings: &[Sharing],
        model: TimeCostModel,
        config: ExecConfig,
        telemetry: Arc<Telemetry>,
    ) -> Result<Self> {
        let cal = CalendarState::new(0, config.tick, model.inflation() * INFLATION_HEADROOM);
        let mut bus = PubSub::new(COMMAND_LATENCY);
        let exec_sub = bus.subscribe(TOPIC_TO_EXECUTOR);
        let reg = telemetry.registry();
        let mut executor = Self {
            global,
            model,
            config,
            data_ts: Vec::new(),
            visible_ts: Vec::new(),
            heartbeats: HashMap::new(),
            sharings: Vec::new(),
            by_id: HashMap::new(),
            events: EventQueue::new(),
            bus,
            exec_sub,
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
            anchor_of: HashMap::new(),
            topo_rank: Vec::new(),
            caches: Vec::new(),
            base_beats: Vec::new(),
            cal,
            hist_sched_us: reg.histogram("sched.host_tick_us"),
            sched_host_us: Vec::new(),
            ctr_cal_wakes: reg.counter("sched.calendar.host_wakes"),
            ctr_cal_early: reg.counter("sched.calendar.host_early_wakes"),
            gauge_cal_scheduled: reg.gauge("sched.calendar.host_scheduled"),
            gauge_cal_waiting: reg.gauge("sched.calendar.host_waiting"),
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
        };
        executor.plan_grew()?;
        for s in sharings {
            executor.register(s)?;
        }
        Ok(executor)
    }

    /// Re-derives the plan-wide runtime state after the global plan gained
    /// vertices (install, live admission, a migration's shadow chain): the
    /// per-vertex timestamp vectors grow, and the shared rank vector,
    /// heartbeat roster and half-join anchors take in the new vertices.
    /// Merging only *adds* vertices and edges (dedup reuses existing ones
    /// untouched) and vertex ids are append-only, so per-sharing caches,
    /// in-flight pushes and queued events stay valid.
    fn plan_grew(&mut self) -> Result<()> {
        let n = self.global.plan.vertex_count();
        self.data_ts.resize(n, Timestamp::ZERO);
        self.visible_ts.resize(n, Timestamp::ZERO);
        self.topo_rank = Self::rank_of(&self.global)?;
        self.base_beats = self.global.base_relation_vertices();
        self.anchor_of = self.global.plan.half_join_anchors();
        Ok(())
    }

    /// Gives a sharing already merged into the global plan its runtime
    /// slot: subgraph, scheduling caches, rollup row and a calendar slot
    /// due at the next planning pass.
    fn register(&mut self, s: &Sharing) -> Result<()> {
        let mv = self.global.mv_vertex(s.id)?;
        let (srcs, order) = Self::subgraph_of(&self.global, s.id, mv, &self.topo_rank)?;
        self.rollup.register(s.id.0, s.staleness_sla.as_micros());
        self.caches.push(SharingCache::build(
            &self.global.plan,
            s.id,
            &order,
            &srcs,
            &self.model,
        ));
        self.by_id.insert(s.id, self.sharings.len());
        self.sharings.push(SharingRt {
            id: s.id,
            sla: s.staleness_sla,
            mv,
            srcs,
            order,
            in_flight: false,
            retired: false,
        });
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
    /// admitted sharing's plan into the running global plan through the
    /// merge catalog and registers it. The platform must then materialize
    /// and seed the vertices new to the plan and call
    /// [`Executor::mark_vertices_seeded`].
    pub fn add_sharing(
        &mut self,
        sharing: &Sharing,
        planned: &crate::optimizer::PlannedSharing,
        cat: &mut MergeCatalog,
    ) -> Result<()> {
        self.global.merge_indexed(sharing, planned, cat)?;
        self.plan_grew()?;
        self.register(sharing)
    }

    /// Marks freshly materialized vertices as seeded at `now`.
    pub fn mark_vertices_seeded(&mut self, vertices: &[VertexId], now: Timestamp) {
        for &v in vertices {
            if !self.global.plan.vertex(v).is_base {
                self.data_ts[v.index()] = now;
                self.visible_ts[v.index()] = now;
            }
        }
    }

    /// **On-the-fly removal** (paper §10 future work): retires a sharing.
    /// Its runtime slot becomes a tombstone (indexes in queued events must
    /// stay stable), its id leaves every `SHR` set, and the storage slots of
    /// vertices that no longer serve anyone are returned for the platform
    /// to drop. The inert plan vertices themselves remain until the next
    /// full install — they cost nothing at run time.
    pub fn remove_sharing(&mut self, id: SharingId) -> Result<Vec<(MachineId, RelationId)>> {
        // `by_id` indexes only live sharings, so a hit is never a tombstone.
        let idx = self.by_id.remove(&id).ok_or(SmileError::UnknownSharing(id))?;
        self.sharings[idx].retired = true;
        self.rollup.retire(idx);
        self.cal.retire(idx);
        // Retiring mid-migration abandons the handoff: the next settle
        // pass tears the shadow chain down with the rest of the sharing's
        // now-unserved slots.
        if let Some(mig) = self.migrations.get_mut(&idx) {
            mig.failed = true;
        }
        self.global.strip_sharing(id);
        // Every slot (Relation+Delta pairs share one; half-join deltas have
        // their own) that no longer serves any sharing — the same reconcile
        // migration settlement runs.
        Ok(self.release_unserved_slots())
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
    /// batch wave by wave on the worker pool.
    pub fn tick(&mut self, cluster: &mut Cluster, now: Timestamp) -> Result<()> {
        // Host wall-clock over the scheduling phase only (drain + heartbeats
        // + planning) — the cost the calendar makes O(due + invalidated).
        // Execution cost is proportional to planned work either way.
        let sched_start = std::time::Instant::now();
        self.drain_events(now);
        // Evaluate the burn-rate monitor right after completions land,
        // coordinator-side — the alert stream is identical across worker
        // counts by construction. Gated on telemetry so quiet mode stays
        // silent.
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
        self.heartbeat_round(cluster, now);
        self.poll_bus(now);
        let (requests, jobs) = self.plan_batch(cluster, now)?;
        let sched_us = sched_start.elapsed().as_micros() as u64;
        self.hist_sched_us.record(sched_us);
        self.sched_host_us.push(sched_us);
        self.gauge_cal_scheduled
            .set(self.cal.scheduled_count() as f64);
        self.gauge_cal_waiting.set(self.cal.waiting_count() as f64);
        self.gauge_cal_wheel.set(self.cal.wheel_len() as f64);
        self.execute_batch(cluster, now, &requests, &jobs)?;
        if now - self.last_compaction >= COMPACTION_PERIOD {
            self.compact(cluster, now)?;
            self.last_compaction = now;
        }
        Ok(())
    }

    /// Drains every retry whose backoff expired, in due order (ties by
    /// sharing slot), coalescing stacked retries for the same slot into one
    /// attempt at the freshest target — re-running the stale window too
    /// would only be thrown away by batch dedup. Dropped duplicates are
    /// counted in [`ExecFaultStats::retries_coalesced`].
    fn collect_due_retries(&mut self, now: Timestamp) -> Vec<(usize, Timestamp, u32)> {
        // Early return without allocating on the overwhelmingly common
        // no-retries-due tick.
        match self.pending_retries.peek() {
            Some(r) if r.0.due <= now => {}
            _ => return Vec::new(),
        }
        let mut out: Vec<(usize, Timestamp, u32)> = Vec::new();
        while let Some(&Reverse(r)) = self.pending_retries.peek() {
            if r.due > now {
                break;
            }
            self.pending_retries.pop();
            if let Some(e) = out.iter_mut().find(|e| e.0 == r.idx) {
                e.1 = e.1.max(r.target);
                e.2 = e.2.max(r.attempt);
                self.fault_stats.retries_coalesced += 1;
            } else {
                out.push((r.idx, r.target, r.attempt));
            }
        }
        out
    }

    fn drain_events(&mut self, now: Timestamp) {
        while let Some((at, ev)) = self.events.pop_due(now) {
            match ev {
                ExecEvent::Commit { vertex, ts } => {
                    let slot = &mut self.visible_ts[vertex.index()];
                    if ts > *slot {
                        *slot = ts;
                    }
                }
                ExecEvent::PushDone {
                    idx,
                    issued,
                    target,
                    predicted,
                    staleness_before,
                    tuples,
                } => {
                    self.sharings[idx].in_flight = false;
                    // The guard chain sees `in_flight = false` on this very
                    // tick (events drain before planning), so the calendar
                    // must re-evaluate the slot now.
                    self.cal.wake_now(idx);
                    let actual = at - issued;
                    if self.config.feedback {
                        self.model.observe(predicted, actual);
                    }
                    // `issued − staleness_before` is the MV timestamp the
                    // push started from, so the advance is the target minus
                    // that.
                    let advanced = target - (issued - staleness_before);
                    let after = at - target;
                    self.push_records.push(PushRecord {
                        sharing: self.sharings[idx].id,
                        issued,
                        completed: at,
                        target,
                        staleness_before,
                        staleness_after: after,
                        advanced,
                        tuples,
                    });
                    // Staleness headroom at this MV advance: how much of the
                    // SLA bound was left unspent. A miss records zero
                    // headroom and bumps the fleet violation counter; the
                    // per-sharing attribution goes through the bounded
                    // rollup, not a per-sharing instrument family.
                    let (sid, sla) = {
                        let rt = &self.sharings[idx];
                        (rt.id.0, rt.sla)
                    };
                    self.hist_after_us.record(after.as_micros());
                    let (headroom, missed) = if after <= sla {
                        ((sla - after).as_micros(), false)
                    } else {
                        (0, true)
                    };
                    self.hist_headroom_us.record(headroom);
                    if missed {
                        self.ctr_sla_missed.inc();
                    }
                    self.rollup.record(idx, headroom, missed, us(at));
                    // The monitor and flight recorder are observability
                    // surfaces, not accounting: quiet mode keeps their
                    // windows provably empty.
                    if self.telemetry.enabled() {
                        self.monitor
                            .record_push(sla.as_micros(), sid, headroom, missed, us(at));
                        if missed {
                            self.telemetry.capture_incident(sid, us(at), "sla_miss");
                        }
                    }
                }
            }
        }
    }

    /// Agents publish heartbeats for every base relation vertex. A crashed
    /// machine's agent publishes nothing, and every heartbeat rides the
    /// fault-prone bus (loss, duplication, latency spikes).
    fn heartbeat_round(&mut self, cluster: &mut Cluster, now: Timestamp) {
        if self
            .last_heartbeat
            .is_some_and(|t| now - t < HEARTBEAT_PERIOD)
        {
            return;
        }
        self.last_heartbeat = Some(now);
        for &(machine, vertex) in &self.base_beats {
            if cluster.faults.machine_down(machine, now) {
                continue;
            }
            // A base relation is consistent with itself as of the moment
            // the agent reads it; report the machine clock.
            let ts = cluster.clock.read(machine, now);
            self.bus.publish_faulty(
                now,
                TOPIC_TO_EXECUTOR,
                AgentMsg::Heartbeat {
                    machine,
                    vertex,
                    ts,
                },
                &mut cluster.faults,
            );
        }
    }

    fn poll_bus(&mut self, now: Timestamp) {
        for msg in self.bus.poll(self.exec_sub, now) {
            if let AgentMsg::Heartbeat { vertex, ts, .. } = msg {
                let advanced = match self.heartbeats.entry(vertex) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(ts);
                        true
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        if ts > *e.get() {
                            e.insert(ts);
                            true
                        } else {
                            false
                        }
                    }
                };
                // A source advancing is exactly what unblocks a sharing
                // parked on NoHeartbeat/NoWindow. Waking here, before
                // `plan_batch` runs, means the slot is evaluated on the
                // first tick the guard chain can see the new minimum.
                if advanced {
                    self.cal.heartbeat_advanced(vertex);
                }
            }
        }
    }

    /// `MINTS(SRC(S_i))` from the heartbeat cache, with its argmin source
    /// (the first minimal vertex in `srcs` order — the vertex whose next
    /// heartbeat advance can change the scheduling outcome). `Err(src)`
    /// names the first source with no heartbeat yet.
    fn src_min(&self, rt: &SharingRt) -> std::result::Result<(Timestamp, VertexId), VertexId> {
        let mut min: Option<(Timestamp, VertexId)> = None;
        for &v in &rt.srcs {
            let Some(&ts) = self.heartbeats.get(&v) else {
                return Err(v);
            };
            let better = match min {
                Some((m, _)) => ts < m,
                None => true,
            };
            if better {
                min = Some((ts, v));
            }
        }
        min.ok_or(rt.mv) // srcs is never empty (checked at build)
    }

    /// Plans everything that should fire this tick — due retries first,
    /// then newly triggered pushes — into one batch: a list of requests
    /// (one per sharing push) and the edge jobs that realize them, each job
    /// tagged with its dependencies and topological wave.
    ///
    /// Planning runs against `plan_ts`, a copy-on-write shadow of `data_ts`
    /// advanced as each request is planned, so a request sees exactly the
    /// vertex state the serial scheduler would have seen after executing
    /// its predecessors: a shared vertex an earlier request already covers
    /// is not re-planned, only depended upon.
    ///
    /// Candidates come from the push calendar: only slots whose projected
    /// fire tick arrived or that an event re-enqueued — O(due) — each put
    /// through the guard chain ([`Executor::consider`]) in ascending slot
    /// order.
    fn plan_batch(
        &mut self,
        cluster: &mut Cluster,
        now: Timestamp,
    ) -> Result<(Vec<BatchRequest>, Vec<BatchJob>)> {
        let mut requests: Vec<BatchRequest> = Vec::new();
        let mut jobs: Vec<BatchJob> = Vec::new();
        let mut plan_ts = PlanTs::default();
        let mut last_job_on: HashMap<VertexId, usize> = HashMap::new();
        let mut busy: HashSet<usize> = HashSet::new();

        for (idx, target, attempt) in self.collect_due_retries(now) {
            busy.insert(idx);
            self.push_request(
                idx,
                target,
                attempt,
                now,
                &mut plan_ts,
                &mut last_job_on,
                &mut requests,
                &mut jobs,
            )?;
        }

        self.plan_calendar(
            cluster,
            now,
            &busy,
            &mut plan_ts,
            &mut last_job_on,
            &mut requests,
            &mut jobs,
        )?;

        // Wave assignment: a job's wave is at least its vertex's wavefront
        // within the batch's vertex subset, and strictly after every
        // dependency's wave (deps always have lower job indexes, so one
        // ascending pass settles everything).
        if !jobs.is_empty() {
            let mut subset: Vec<VertexId> = jobs.iter().map(|j| j.vertex).collect();
            subset.sort_unstable_by_key(|v| self.topo_rank[v.index()]);
            subset.dedup();
            let vwave = self.global.plan.wavefronts(&subset);
            for jid in 0..jobs.len() {
                let mut w = vwave.get(&jobs[jid].vertex).copied().unwrap_or(0);
                for &d in &jobs[jid].deps {
                    w = w.max(jobs[d].wave + 1);
                }
                jobs[jid].wave = w;
            }
        }
        Ok((requests, jobs))
    }

    /// The event-driven scheduler: evaluate only the slots the calendar
    /// woke this tick, in ascending slot order. Every wake is conservative
    /// — never later than the first tick the guard chain would say `Fire`
    /// or `Deferred` — and an early wake is side-effect-free (the guard
    /// chain says `Lazy` and the slot goes back to sleep), so the batch is
    /// the one a visit to every live slot would plan.
    #[allow(clippy::too_many_arguments)]
    fn plan_calendar(
        &mut self,
        cluster: &mut Cluster,
        now: Timestamp,
        busy: &HashSet<usize>,
        plan_ts: &mut PlanTs,
        last_job_on: &mut HashMap<VertexId, usize>,
        requests: &mut Vec<BatchRequest>,
        jobs: &mut Vec<BatchJob>,
    ) -> Result<()> {
        // Wake projections assume the model's inflation factor stays below
        // the calendar's ratcheted bound. When feedback pushes it past, all
        // scheduled slots' bounds are void: re-derive them. Rare — the
        // bound ratchets ×1.25 inside the model's [1, 50] clamp, so this
        // fires O(log_1.25 50) times over a run, not per tick.
        let inflation = self.model.inflation();
        if inflation > self.cal.inflation_bound {
            self.cal
                .raise_inflation_bound(inflation * INFLATION_HEADROOM);
        }
        let skew_bound = cluster.clock.skew_bound();
        let woken = self.cal.take_woken(now);
        self.ctr_cal_wakes.add(woken.len() as u64);
        #[cfg(test)]
        let mut checked = 0;
        for idx in woken {
            #[cfg(test)]
            {
                self.assert_sleepers_idle(checked..idx, cluster, now, busy, plan_ts);
                checked = idx + 1;
            }
            if self.sharings[idx].retired {
                self.cal.retire(idx);
                continue;
            }
            if self.sharings[idx].in_flight || busy.contains(&idx) {
                // A push (or a just-fired retry) owns this slot; its
                // completion/retry/abandon event re-wakes it.
                self.cal.mark_in_flight(idx);
                continue;
            }
            match self.consider(idx, cluster, now, plan_ts) {
                Consider::Fire { target } => {
                    self.push_request(idx, target, 1, now, plan_ts, last_job_on, requests, jobs)?;
                    self.cal.mark_in_flight(idx);
                }
                Consider::Lazy => {
                    self.ctr_cal_early.inc();
                    let due = self.project_wake_tick(idx, now, skew_bound);
                    self.cal.schedule_at(idx, due);
                }
                Consider::NoHeartbeat { src } | Consider::NoWindow { src } => {
                    self.cal.park_on_src(idx, src);
                }
                Consider::SkewClamped => {
                    let next = self.cal.tick_of(now) + 1;
                    self.cal.schedule_at(idx, next);
                }
                Consider::Deferred => {
                    // A deferral is counted on every tick the machine
                    // stays down.
                    self.fault_stats.pushes_deferred += 1;
                    let next = self.cal.tick_of(now) + 1;
                    self.cal.schedule_at(idx, next);
                }
            }
        }
        #[cfg(test)]
        self.assert_sleepers_idle(checked..self.sharings.len(), cluster, now, busy, plan_ts);
        Ok(())
    }

    /// Wake soundness, checked in this crate's unit-test build only: a
    /// live slot the calendar left asleep this tick, shown the `plan_ts`
    /// shadow it would see at its place in slot order, must be one the
    /// guard chain neither fires nor defers. `machine_down` is
    /// schedule-driven, so the extra `consider` calls draw nothing from
    /// the fault streams.
    #[cfg(test)]
    fn assert_sleepers_idle(
        &self,
        slots: std::ops::Range<usize>,
        cluster: &mut Cluster,
        now: Timestamp,
        busy: &HashSet<usize>,
        plan_ts: &PlanTs,
    ) {
        for idx in slots {
            let rt = &self.sharings[idx];
            if rt.retired || rt.in_flight || busy.contains(&idx) {
                continue;
            }
            let outcome = self.consider(idx, cluster, now, plan_ts);
            assert!(
                !matches!(outcome, Consider::Fire { .. } | Consider::Deferred),
                "calendar slept through a due push: slot {idx} at {now}"
            );
        }
    }

    /// Evaluates sharing `idx` for a push at `now` against the batch's
    /// `plan_ts` shadow — the single guard chain.
    fn consider(
        &self,
        idx: usize,
        cluster: &mut Cluster,
        now: Timestamp,
        plan_ts: &PlanTs,
    ) -> Consider {
        let rt = &self.sharings[idx];
        let (min_src, min_vertex) = match self.src_min(rt) {
            Ok(m) => m,
            Err(src) => return Consider::NoHeartbeat { src }, // no heartbeats yet
        };
        let mv_data_ts = plan_ts.get(&self.data_ts, rt.mv);
        if min_src <= mv_data_ts {
            return Consider::NoWindow { src: min_vertex }; // nothing new to move
        }
        let window_secs = (min_src - mv_data_ts).as_secs_f64();
        let cp = self.cp_for(idx, window_secs);
        let staleness_now = now - self.visible_ts[rt.mv.index()];
        if self.config.lazy {
            // Wait as long as possible: fire only when finishing a push
            // started one tick later would land at l·SLA or beyond.
            let projected = staleness_now + cp + self.config.tick;
            if projected < rt.sla.mul_f64(self.config.l_factor) {
                return Consider::Lazy;
            }
        }
        // Clamp the target to local time: a skewed machine clock can
        // heartbeat a timestamp *ahead* of true time, and pushing past
        // `now` would permanently skip entries that arrive inside the
        // already-consumed window.
        let min_src = min_src.min(now);
        if min_src <= mv_data_ts {
            return Consider::SkewClamped;
        }
        // Crash-aware re-planning: a push that needs a down machine is
        // deferred to a later tick instead of being fired into a
        // guaranteed timeout (the staleness it accrues meanwhile is real
        // and shows up in the snapshot audit).
        if self.needs_down_machine(idx, cluster, now) {
            return Consider::Deferred;
        }
        Consider::Fire {
            target: self.choose_target(idx, mv_data_ts, min_src, now),
        }
    }

    /// Critical path of sharing `idx` over a window of `x_secs`, from the
    /// cached compact evaluator. It issues the `edge_estimate` call
    /// sequence `plan::cost::critical_path` would over the sharing's
    /// in-scope edges, so the result is byte-equal to the full plan walk
    /// (`cached_critical_path_matches_full_walk`) — the cache only skips
    /// re-walking (and re-toposorting) the whole merged plan.
    fn cp_for(&self, idx: usize, x_secs: f64) -> SimDuration {
        self.caches[idx].cp.eval(x_secs, &self.model)
    }

    /// Whether any machine hosting the sharing's subgraph or sources is
    /// currently down — over the machine set cached at plan install.
    /// `machine_down` is schedule-driven and idempotent, so probing the
    /// deduplicated set gives the same answer as the old per-vertex walk
    /// without touching the fault draw streams.
    fn needs_down_machine(&self, idx: usize, cluster: &mut Cluster, now: Timestamp) -> bool {
        self.caches[idx]
            .machines
            .iter()
            .any(|&m| cluster.faults.machine_down(m, now))
    }

    /// First tick at which the lazy guard could pass for idle sharing
    /// `idx`. Conservative by construction: staleness grows at 1 s/s
    /// (`visible_ts` only advances), the window upper bound grows at
    /// ≤ 1 s/s (heartbeats lead true time by at most `skew_bound`, and the
    /// committed `data_ts` only advances), and the critical path is bounded
    /// by the cached affine majorant scaled by the calendar's inflation
    /// bound. So the projection grows at ≤ `1 + Ib·slope` per second, and
    /// sleeping until it could first reach `l·SLA` — minus one tick of
    /// margin for µs rounding — can never skip past the tick the guard
    /// chain first fires on. An early wake just re-evaluates and goes back
    /// to sleep.
    fn project_wake_tick(&self, idx: usize, now: Timestamp, skew_bound: SimDuration) -> u64 {
        let cal = &self.cal;
        let rt = &self.sharings[idx];
        let cp = &self.caches[idx].cp;
        let tick_secs = self.config.tick.as_secs_f64();
        let l_sla = rt.sla.mul_f64(self.config.l_factor).as_secs_f64();
        let staleness = (now - self.visible_ts[rt.mv.index()]).as_secs_f64();
        // Window bound from the *committed* data_ts, not the plan shadow: a
        // same-tick overlay entry can be rolled back by a failed push, so
        // the bound must not assume it.
        let w0 = ((now + skew_bound) - self.data_ts[rt.mv.index()]).as_secs_f64();
        let ib = cal.inflation_bound;
        let projected0 = staleness + tick_secs + ib * (cp.const_secs + cp.slope_per_sec * w0);
        let gap = l_sla - projected0;
        if gap <= 0.0 {
            return cal.tick_of(now) + 1;
        }
        let denom = 1.0 + ib * cp.slope_per_sec;
        let dt_ticks = ((gap / denom) / tick_secs).floor() - 1.0;
        let dt = if dt_ticks >= 1.0 {
            // Clamp before the u64 cast so the tick sum cannot overflow.
            dt_ticks.min(1e18) as u64
        } else {
            1
        };
        cal.tick_of(now) + dt
    }

    /// Plans one push request (sharing `idx` advancing to `target`) into
    /// edge jobs appended to the batch.
    #[allow(clippy::too_many_arguments)]
    fn push_request(
        &self,
        idx: usize,
        target: Timestamp,
        attempt: u32,
        now: Timestamp,
        plan_ts: &mut PlanTs,
        last_job_on: &mut HashMap<VertexId, usize>,
        requests: &mut Vec<BatchRequest>,
        jobs: &mut Vec<BatchJob>,
    ) -> Result<()> {
        let rt = &self.sharings[idx];
        let staleness_before = now - self.visible_ts[rt.mv.index()];
        let window_secs = (target - plan_ts.get(&self.data_ts, rt.mv)).as_secs_f64();
        let predicted = self.cp_for(idx, window_secs);
        let req = requests.len();
        requests.push(BatchRequest {
            idx,
            target,
            attempt,
            staleness_before,
            predicted,
            mv: rt.mv,
            sharing: rt.id,
            shadow: false,
        });
        self.plan_vertex_jobs(&rt.order, target, req, plan_ts, last_job_on, jobs)?;
        // Dual write: while a migration is in flight, the same push also
        // advances the new placement's chain to the same target, in the
        // same batch. Shared vertices were just planned (or overlaid) by
        // the real request, so `plan_ts` dedup makes the shadow pass plan
        // only the placement delta — and its jobs naturally depend on the
        // real jobs through `last_job_on`.
        if let Some(mig) = self.migrations.get(&idx) {
            if !mig.failed {
                let sreq = requests.len();
                requests.push(BatchRequest {
                    idx,
                    target,
                    attempt,
                    staleness_before,
                    predicted,
                    mv: mig.new_mv,
                    sharing: rt.id,
                    shadow: true,
                });
                self.plan_vertex_jobs(&mig.new_order, target, sreq, plan_ts, last_job_on, jobs)?;
            }
        }
        Ok(())
    }

    /// Plans the edge jobs advancing `order` (a push-order vertex list) to
    /// `target` on behalf of request `req` — the per-vertex half of
    /// [`Executor::push_request`], shared by real and shadow requests.
    fn plan_vertex_jobs(
        &self,
        order: &[VertexId],
        target: Timestamp,
        req: usize,
        plan_ts: &mut PlanTs,
        last_job_on: &mut HashMap<VertexId, usize>,
        jobs: &mut Vec<BatchJob>,
    ) -> Result<()> {
        for &v in order {
            if plan_ts.get(&self.data_ts, v) >= target {
                // Another request (this batch or an earlier tick) already
                // advances this shared vertex far enough; depend on its job
                // if it is in this batch, plan nothing.
                continue;
            }
            let edge = self.global.plan.producer(v).ok_or_else(|| {
                SmileError::Internal(format!("non-base vertex {v} has no producer"))
            })?;
            let mut deps: Vec<usize> = Vec::new();
            if let Some(&d) = last_job_on.get(&v) {
                deps.push(d);
            }
            for &i in &edge.inputs {
                if let Some(&d) = last_job_on.get(&i) {
                    if !deps.contains(&d) {
                        deps.push(d);
                    }
                }
            }
            // Half-join pairing: each half's job also depends on the
            // sibling half's latest job in the batch, so the two halves of
            // one join advance in alternating waves. Serializing the pair
            // lets `execute_batch` resolve the snapshot anchor at dispatch
            // from the sibling's *landed* coverage, which keeps the join's
            // output stream a clean `left@tl ⋈ right@tr` product under any
            // partial-failure skew (no double-counted or dropped Δ⋈Δ
            // cross-terms), and makes retries re-anchor correctly with no
            // per-window history.
            if let Some(sib) = self.anchor_of.get(&edge.id) {
                if let Some(&d) = last_job_on.get(sib) {
                    if !deps.contains(&d) {
                        deps.push(d);
                    }
                }
            }
            let jid = jobs.len();
            jobs.push(BatchJob {
                vertex: v,
                edge: edge.id,
                from: plan_ts.get(&self.data_ts, v),
                to: target,
                req,
                deps,
                wave: 0,
            });
            plan_ts.set(v, target);
            last_job_on.insert(v, jid);
        }
        Ok(())
    }

    /// Binary search (§8.2) for the latest target `t` in
    /// `(TS(MV), MINTS(SRC)]` whose projected completion staleness fits the
    /// SLA; falls back to `MINTS(SRC)` (best effort) when none does.
    fn choose_target(
        &self,
        idx: usize,
        mv_ts: Timestamp,
        min_src: Timestamp,
        now: Timestamp,
    ) -> Timestamp {
        let rt = &self.sharings[idx];
        let projected = |t: Timestamp| -> SimDuration {
            let x = (t - mv_ts).as_secs_f64();
            let cp = self.cp_for(idx, x);
            // Completion at now + cp; sources will have advanced there too.
            (now + cp) - t
        };
        if projected(min_src) <= rt.sla {
            return min_src;
        }
        // Overloaded: the freshest target already misses. Search for the
        // largest t that still fits; if none fits, best-effort full push.
        let (mut lo, mut hi) = (mv_ts, min_src);
        let mut best = None;
        for _ in 0..20 {
            let mid = lo.midpoint(hi);
            if mid == lo || mid == hi {
                break;
            }
            if projected(mid) <= rt.sla {
                best = Some(mid);
                lo = mid;
            } else {
                hi = mid;
            }
        }
        best.unwrap_or(min_src)
    }

    /// Executes a planned batch wave by wave on the worker pool and merges
    /// the outcomes back in canonical job order.
    ///
    /// Per wave, the coordinator makes every non-deterministic decision
    /// up front, in job order: dependency-failure propagation, crash-window
    /// checks at the submission time, and the shared fault-stream draws
    /// (delta drop, then ack loss) for cross-machine copies. The wave then
    /// runs on however many workers are configured, and the merge — ledger
    /// charges, `data_ts` advances, commit events, retry decisions — is
    /// single-threaded in job order. Nothing downstream can observe the
    /// worker count.
    ///
    /// A request with a transiently-failed job keeps the progress of the
    /// jobs that succeeded (their windows landed; a retry re-plans from the
    /// advanced `data_ts` and batch dedup absorbs overlap) and is retried
    /// or abandoned per the policy. Jobs depending on a failed job are
    /// skipped without consuming fault draws — skipping is itself
    /// deterministic, so the stream stays aligned at any worker count.
    fn execute_batch(
        &mut self,
        cluster: &mut Cluster,
        now: Timestamp,
        requests: &[BatchRequest],
        jobs: &[BatchJob],
    ) -> Result<()> {
        if requests.is_empty() {
            return Ok(());
        }
        let mut job_ok = vec![false; jobs.len()];
        let mut job_end = vec![now; jobs.len()];
        let mut req_failed = vec![false; requests.len()];
        let mut req_tuples = vec![0u64; requests.len()];
        // A fully-skipped push (everything shared and ahead) commits now.
        let mut completion = vec![now; requests.len()];
        let mut hard_error: Option<SmileError> = None;

        // The tick span roots this batch's span tree. Allocation and every
        // attribute below happen coordinator-side in canonical job order, so
        // span ids and logical content are identical at any worker count.
        let tick_span = self
            .telemetry
            .enabled()
            .then(|| self.telemetry.next_span_id());
        if let Some(ts_id) = tick_span {
            let plan_id = self.telemetry.next_span_id();
            self.telemetry.record_span(SpanRecord {
                id: plan_id,
                parent: Some(ts_id),
                kind: SpanKind::PlanBatch,
                start_us: us(now),
                end_us: us(now),
                machine: None,
                sharing: None,
                batch_id: None,
                attrs: vec![
                    ("requests", requests.len().to_string()),
                    ("jobs", jobs.len().to_string()),
                ],
            });
        }
        let mut max_end = now;

        let max_wave = jobs.iter().map(|j| j.wave).max().unwrap_or(0);
        for wave in 0..=max_wave {
            let mut dispatch: Vec<wave::WaveJob> = Vec::new();
            for (jid, job) in jobs.iter().enumerate() {
                if job.wave != wave {
                    continue;
                }
                if req_failed[job.req] || job.deps.iter().any(|&d| !job_ok[d]) {
                    // A failed dependency means this job would read a
                    // window its producer never filled; fail the request
                    // so the retry re-plans from true state.
                    req_failed[job.req] = true;
                    if let Some(ts_id) = tick_span {
                        self.telemetry.record_span(SpanRecord {
                            id: self.telemetry.next_span_id(),
                            parent: Some(ts_id),
                            kind: SpanKind::EdgeJob,
                            start_us: us(now),
                            end_us: us(now),
                            machine: None,
                            sharing: Some(requests[job.req].sharing.0),
                            batch_id: None,
                            attrs: vec![
                                ("vertex", job.vertex.to_string()),
                                ("outcome", "skipped_dependency".to_string()),
                            ],
                        });
                    }
                    continue;
                }
                let edge = self.global.plan.edge(job.edge);
                let submit = job
                    .deps
                    .iter()
                    .map(|&d| job_end[d])
                    .max()
                    .unwrap_or(now)
                    .max(now + COMMAND_LATENCY);
                let (ship_machine, exec_machine) = match &edge.op {
                    EdgeOp::CopyDelta => {
                        let src = self.global.plan.vertex(edge.inputs[0]).machine;
                        let dst = self.global.plan.vertex(edge.output).machine;
                        ((src != dst).then_some(src), dst)
                    }
                    _ => (None, self.global.plan.vertex(edge.output).machine),
                };
                if ship_machine
                    .iter()
                    .chain(std::iter::once(&exec_machine))
                    .any(|&m| cluster.faults.machine_down(m, submit))
                {
                    // Crash windows are schedule-driven, not stream-driven:
                    // failing here consumes no draws, same as the serial
                    // `check_up` early return.
                    req_failed[job.req] = true;
                    if let Some(ts_id) = tick_span {
                        self.telemetry.record_span(SpanRecord {
                            id: self.telemetry.next_span_id(),
                            parent: Some(ts_id),
                            kind: SpanKind::EdgeJob,
                            start_us: us(now),
                            end_us: us(now),
                            machine: Some(exec_machine.0),
                            sharing: Some(requests[job.req].sharing.0),
                            batch_id: None,
                            attrs: vec![
                                ("vertex", job.vertex.to_string()),
                                ("outcome", "blocked_machine_down".to_string()),
                            ],
                        });
                    }
                    continue;
                }
                let mut faults = JobFaults::default();
                if matches!(edge.op, EdgeOp::CopyDelta) {
                    if ship_machine.is_some() {
                        faults.drop_delta = cluster.faults.drop_delta(submit);
                    }
                    if !faults.drop_delta {
                        faults.ack_lost = cluster.faults.ack_lost(submit);
                    }
                }
                // Half-join snapshot anchor: the sibling half's landed
                // coverage as of this wave. The pairing dependency added at
                // planning guarantees the sibling's current step ran in an
                // earlier wave (or was skipped, failing this job's request),
                // so `data_ts` is exact here at any worker count.
                let anchor = self
                    .anchor_of
                    .get(&job.edge)
                    .map(|sib| self.data_ts[sib.index()]);
                dispatch.push(wave::WaveJob {
                    job: jid,
                    edge: job.edge,
                    from: job.from,
                    to: job.to,
                    anchor,
                    submit,
                    faults,
                    ship_machine: ship_machine.map(|m| m.index()),
                    exec_machine: exec_machine.index(),
                });
            }
            if dispatch.is_empty() {
                continue;
            }
            let outcomes = wave::run_wave(
                cluster.machines_mut(),
                &self.global.plan,
                &self.model,
                &dispatch,
                self.config.workers,
                &self.telemetry,
            );
            let wave_span = tick_span.map(|_| self.telemetry.next_span_id());
            let wave_start = dispatch.iter().map(|d| d.submit).min().unwrap_or(now);
            let mut wave_end = wave_start;
            let (mut wave_jobs, mut wave_busy) = (0u64, 0u64);
            // Outcomes are sorted by canonical job index and dispatch was
            // built in that same order, so the two line up one-to-one.
            for (o, d) in outcomes.into_iter().zip(dispatch.iter()) {
                debug_assert_eq!(o.job, d.job);
                let job = &jobs[o.job];
                let req = &requests[job.req];
                for u in o.charges {
                    cluster.ledger.charge(u, &[req.sharing]);
                }
                wave_jobs += 1 + u64::from(o.ship_nanos.is_some());
                wave_busy = wave_busy
                    .saturating_add(o.exec_nanos)
                    .saturating_add(o.ship_nanos.unwrap_or(0));
                if let Some(ws) = wave_span {
                    self.record_job_span(ws, job, req, d, &o.result);
                }
                match o.result {
                    Ok(run) => {
                        if run.deduped {
                            self.fault_stats.batches_deduped += 1;
                        }
                        job_ok[o.job] = true;
                        job_end[o.job] = run.end;
                        wave_end = wave_end.max(run.end);
                        max_end = max_end.max(run.end);
                        self.data_ts[job.vertex.index()] = job.to;
                        req_tuples[job.req] += run.tuples;
                        self.events.push(
                            run.end,
                            ExecEvent::Commit {
                                vertex: job.vertex,
                                ts: job.to,
                            },
                        );
                        if job.vertex == req.mv {
                            completion[job.req] = run.end;
                        }
                    }
                    Err(SmileError::Transient { .. }) => {
                        req_failed[job.req] = true;
                    }
                    Err(e) => {
                        req_failed[job.req] = true;
                        if hard_error.is_none() {
                            hard_error = Some(e);
                        }
                    }
                }
            }
            if let Some(ws) = wave_span {
                self.telemetry.record_span(SpanRecord {
                    id: ws,
                    parent: tick_span,
                    kind: SpanKind::Wave,
                    start_us: us(wave_start),
                    end_us: us(wave_end),
                    machine: None,
                    sharing: None,
                    batch_id: None,
                    attrs: vec![
                        ("wave", wave.to_string()),
                        ("jobs", dispatch.len().to_string()),
                    ],
                });
            }
            self.ctr_waves.inc();
            self.ctr_jobs.add(wave_jobs);
            self.ctr_busy_nanos.add(wave_busy);
        }

        for (r, req) in requests.iter().enumerate() {
            // Progress made before a fault is kept: the tuples moved and
            // the commit events of successful jobs are already in.
            self.tuples_moved += req_tuples[r];
            *self.tuples_per_sharing.entry(req.sharing).or_default() += req_tuples[r];
            if req.shadow {
                // A shadow request only advances the migration's handoff
                // state: no PushDone, no push record, no retry — the real
                // request owns the sharing's completion bookkeeping, and
                // the next real push re-plans the shadow chain from its
                // landed `data_ts`.
                if let Some(mig) = self.migrations.get_mut(&req.idx) {
                    if req_failed[r] {
                        mig.failed = true;
                    } else {
                        mig.pushed_ok = true;
                    }
                }
                continue;
            }
            if req_failed[r] {
                if req.attempt >= self.config.retry.max_attempts {
                    self.fault_stats.pushes_abandoned += 1;
                    self.sharings[req.idx].in_flight = false;
                    // The slot left the calendar when its push fired; hand it
                    // back to the scheduler at the next tick.
                    let next = self.cal.tick_of(now) + 1;
                    self.cal.schedule_at(req.idx, next);
                    if let Some(ts_id) = tick_span {
                        self.record_retry_span(ts_id, req, now, now, "abandoned");
                    }
                } else {
                    self.fault_stats.pushes_retried += 1;
                    let due = now + self.config.retry.delay_after(req.attempt);
                    self.pending_retries.push(Reverse(PendingRetry {
                        due,
                        idx: req.idx,
                        target: req.target,
                        attempt: req.attempt + 1,
                    }));
                    self.sharings[req.idx].in_flight = true;
                    if let Some(ts_id) = tick_span {
                        self.record_retry_span(ts_id, req, now, due, "scheduled");
                    }
                }
            } else {
                self.events.push(
                    completion[r].max(now),
                    ExecEvent::PushDone {
                        idx: req.idx,
                        issued: now,
                        target: req.target,
                        predicted: req.predicted,
                        staleness_before: req.staleness_before,
                        tuples: req_tuples[r],
                    },
                );
                self.sharings[req.idx].in_flight = true;
            }
        }
        if let Some(ts_id) = tick_span {
            self.telemetry.record_span(SpanRecord {
                id: ts_id,
                parent: None,
                kind: SpanKind::Tick,
                start_us: us(now),
                end_us: us(max_end),
                machine: None,
                sharing: None,
                batch_id: None,
                attrs: vec![("requests", requests.len().to_string())],
            });
        }
        if let Some(e) = hard_error {
            return Err(e);
        }
        Ok(())
    }

    /// Records one edge job's span (plus ship/land child spans for a
    /// cross-machine copy) under its wave. Every field is derived from
    /// coordinator-side state, so span content never depends on the worker
    /// count.
    fn record_job_span(
        &self,
        wave_span: u64,
        job: &BatchJob,
        req: &BatchRequest,
        d: &wave::WaveJob,
        result: &Result<push::EdgeRun>,
    ) {
        let edge = self.global.plan.edge(job.edge);
        let bid = push::batch_id(edge.output, job.from, job.to);
        let kind = if job.vertex == req.mv {
            SpanKind::MvApply
        } else {
            SpanKind::EdgeJob
        };
        let id = self.telemetry.next_span_id();
        let (end, outcome, tuples) = match result {
            Ok(run) if run.deduped => (run.end, "deduped".to_string(), run.tuples),
            Ok(run) => (run.end, "ok".to_string(), run.tuples),
            Err(e) => (d.submit, format!("error: {e}"), 0),
        };
        self.telemetry.record_span(SpanRecord {
            id,
            parent: Some(wave_span),
            kind,
            start_us: us(d.submit),
            end_us: us(end),
            machine: Some(d.exec_machine as u32),
            sharing: Some(req.sharing.0),
            batch_id: Some(bid),
            attrs: vec![
                ("vertex", job.vertex.to_string()),
                ("op", op_name(&edge.op).to_string()),
                ("attempt", req.attempt.to_string()),
                ("tuples", tuples.to_string()),
                ("outcome", outcome),
            ],
        });
        if let (Ok(run), Some(sm)) = (result, d.ship_machine) {
            if let Some(arrive) = run.ship_arrive {
                self.telemetry.record_span(SpanRecord {
                    id: self.telemetry.next_span_id(),
                    parent: Some(id),
                    kind: SpanKind::Ship,
                    start_us: us(d.submit),
                    end_us: us(arrive),
                    machine: Some(sm as u32),
                    sharing: Some(req.sharing.0),
                    batch_id: Some(bid),
                    attrs: Vec::new(),
                });
                self.telemetry.record_span(SpanRecord {
                    id: self.telemetry.next_span_id(),
                    parent: Some(id),
                    kind: SpanKind::Land,
                    start_us: us(arrive),
                    end_us: us(run.end),
                    machine: Some(d.exec_machine as u32),
                    sharing: Some(req.sharing.0),
                    batch_id: Some(bid),
                    attrs: Vec::new(),
                });
            }
        }
    }

    /// Records the retry decision for a transiently-failed push: a span
    /// from `now` to the retry's due time (zero-length when the push is
    /// abandoned instead).
    fn record_retry_span(
        &self,
        tick_span: u64,
        req: &BatchRequest,
        now: Timestamp,
        due: Timestamp,
        outcome: &str,
    ) {
        self.telemetry.record_span(SpanRecord {
            id: self.telemetry.next_span_id(),
            parent: Some(tick_span),
            kind: SpanKind::Retry,
            start_us: us(now),
            end_us: us(due),
            machine: None,
            sharing: Some(req.sharing.0),
            batch_id: None,
            attrs: vec![
                ("attempt", req.attempt.to_string()),
                ("outcome", outcome.to_string()),
            ],
        });
    }

    /// Compacts every slot's delta log below the minimum timestamp its
    /// consumers could still request (minus the safety margin).
    fn compact(&mut self, cluster: &mut Cluster, _now: Timestamp) -> Result<()> {
        let mut bound: HashMap<(MachineId, RelationId), Timestamp> = HashMap::new();
        // Seed bounds with each vertex's own data_ts (slots nobody consumes
        // can be compacted to their own progress).
        for v in self.global.plan.vertices() {
            let Some(slot) = v.slot else { continue };
            let own = if v.is_base {
                // Base slots have no data_ts of their own; they are bounded
                // purely by consumers below.
                Timestamp::MAX
            } else {
                self.data_ts[v.id.index()]
            };
            let e = bound.entry((v.machine, slot)).or_insert(Timestamp::MAX);
            *e = (*e).min(own);
        }
        // Every edge may re-read its inputs back to its output's data_ts —
        // and a half-join additionally corrects its snapshot relation back
        // to its *sibling's* coverage, which lags its own after a partial
        // failure, so the relation's log is pinned by both.
        //
        // Base logs carry one more pin: a live migration re-seeds a shadow
        // chain from base snapshots *as of the sharing's committed MV
        // timestamp*, so every base slot an edge reads must stay
        // reconstructable back to the oldest committed MV among the
        // sharings that edge serves.
        let mv_floor: HashMap<SharingId, Timestamp> = self
            .sharings
            .iter()
            .filter(|rt| !rt.retired)
            .map(|rt| (rt.id, self.visible_ts[rt.mv.index()]))
            .collect();
        for e in self.global.plan.edges() {
            if e.inputs.is_empty() {
                continue; // detached
            }
            let mut out_ts = self.data_ts[e.output.index()];
            if let Some(sib) = self.anchor_of.get(&e.id) {
                out_ts = out_ts.min(self.data_ts[sib.index()]);
            }
            let base_floor = e
                .sharings
                .iter()
                .filter_map(|s| mv_floor.get(s))
                .min()
                .copied()
                .unwrap_or(Timestamp::MAX);
            for &input in &e.inputs {
                let iv = self.global.plan.vertex(input);
                let Some(slot) = iv.slot else { continue };
                let pin = if iv.is_base {
                    out_ts.min(base_floor)
                } else {
                    out_ts
                };
                let b = bound.entry((iv.machine, slot)).or_insert(Timestamp::MAX);
                *b = (*b).min(pin);
            }
        }
        for ((machine, slot), ts) in bound {
            if ts == Timestamp::MAX {
                continue;
            }
            let cut = ts - COMPACTION_MARGIN;
            let m = cluster.machine_mut(machine)?;
            if m.db.has_relation(slot) {
                m.db.compact(slot, cut)?;
            }
        }
        Ok(())
    }

    /// The sharings this executor maintains (retired ones excluded).
    pub fn sharing_ids(&self) -> Vec<SharingId> {
        self.sharings
            .iter()
            .filter(|r| !r.retired)
            .map(|r| r.id)
            .collect()
    }

    /// Whether a push for the sharing is currently in flight.
    pub fn in_flight(&self, id: SharingId) -> bool {
        self.by_id
            .get(&id)
            .is_some_and(|&i| self.sharings[i].in_flight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::BaseStats;
    use crate::plan::cost::{critical_path, Scope};
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
        let q = SpjQuery::scan(a).join(b, JoinOn::on(0, 0), Predicate::True);
        let id = smile
            .submit("t", q, SimDuration::from_secs(sla_secs), 0.001)
            .unwrap();
        smile.install().unwrap();
        (smile, a, b, id)
    }

    fn feed(smile: &mut Smile, a: RelationId, b: RelationId, ticks: u64) {
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

    #[test]
    fn due_retries_coalesce_to_the_freshest_target() {
        let (mut smile, _a, _b, _id) = installed(true, 20);
        let ex = smile.executor.as_mut().unwrap();
        let t = Timestamp::from_secs;
        ex.pending_retries = vec![
            PendingRetry {
                due: t(1),
                idx: 0,
                target: t(5),
                attempt: 2,
            },
            PendingRetry {
                due: t(2),
                idx: 0,
                target: t(7),
                attempt: 3,
            },
            PendingRetry {
                due: t(3),
                idx: 0,
                target: t(6),
                attempt: 2,
            },
            // Not yet due: must survive untouched.
            PendingRetry {
                due: t(9),
                idx: 0,
                target: t(8),
                attempt: 2,
            },
        ]
        .into_iter()
        .map(Reverse)
        .collect();
        let due = ex.collect_due_retries(t(4));
        assert_eq!(due, vec![(0, t(7), 3)], "one attempt at the max target");
        assert_eq!(ex.fault_stats.retries_coalesced, 2);
        assert_eq!(ex.pending_retries.len(), 1);
        assert_eq!(ex.pending_retries.peek().unwrap().0.due, t(9));
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

    #[test]
    fn cached_critical_path_matches_full_walk() {
        let (mut smile, a, b, _id) = installed(true, 20);
        feed(&mut smile, a, b, 40); // feedback shifts inflation off 1.0
        let ex = smile.executor.as_ref().unwrap();
        assert!(ex.model.inflation() != 1.0, "feedback never calibrated");
        for idx in 0..ex.sharings.len() {
            for w in [0.0, 0.5, 1.0, 3.25, 10.0, 123.456, 3600.0] {
                let cached = ex.caches[idx].cp.eval(w, &ex.model);
                let full = critical_path(
                    &ex.global.plan,
                    Scope::Sharing(ex.sharings[idx].id),
                    w,
                    &ex.model,
                );
                assert_eq!(cached, full, "window {w}s diverged at sharing {idx}");
            }
        }
    }

    #[test]
    fn feedback_inflation_starts_at_unity() {
        let (smile, _, _, _) = installed(true, 20);
        assert_eq!(smile.executor.as_ref().unwrap().model.inflation(), 1.0);
    }
}
