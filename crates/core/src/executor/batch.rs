//! One tick's batch of pushes: planning each push request into edge jobs,
//! assigning the jobs to waves, and executing them wave by wave.
//!
//! ## The wave order
//!
//! A job's wave lies past every dependency's ([`Batch::assign_waves`]), and
//! [`Executor::execute_batch`] takes one wave at a time in three steps, each
//! in canonical (job-index) order:
//!
//! 1. **decide** ([`Executor::decide_wave`]): dependency skips, crash-window
//!    checks and the two fault draws of every job, one [`Dispatch`] each;
//! 2. **ship** ([`ship_half`]): the source-machine half of every
//!    cross-machine copy;
//! 3. **land or run, and merge**: per job, the output-machine half
//!    ([`land_or_run`]), then its result into executor state
//!    ([`Executor::merge_job`]).
//!
//! Two ordering facts are what every observable stream rests on. **A wave
//! ships all its copies before it lands any**, so every ship reads its
//! source log exactly as the previous wave left it, whatever its job index,
//! and each machine's NIC FIFO sees the wave's ships, its CPU FIFO the
//! wave's lands and local operators, in one fixed submission sequence. And
//! **everything that consumes shared state happens in job order**: fault
//! draws (a skipped job drawing nothing), ledger charges, `data_ts`
//! advances, event pushes, span-id allocation. Merging a job right after it
//! runs, not after the whole wave ran, is the same sequence: a run reads
//! the machines its job names, the plan and the time model — nothing a
//! merge writes — and the wave's decisions, the half-join anchors read from
//! `data_ts` among them, were all taken before its first ship.
//!
//! Machine concurrency is reproduced in *simulated* time (each machine's
//! CPU/NIC FIFO), so the host needs no threads to get the paper's schedule.
//! Host wall-clock is measured per half ([`HostMeter`]) for the `wave.*`
//! instruments only; it never reaches the simulation.

use super::liveness::{ExecEvent, PendingRetry};
use super::push::{self, EdgeRun, ShipOutput};
use super::spans::us;
use super::{Executor, COMMAND_LATENCY};
use crate::plan::dag::{EdgeOp, Plan};
use crate::plan::timecost::TimeCostModel;
use smile_sim::machine::Machine;
use smile_sim::meter::{ResourceUsage, UsageLedger};
use smile_sim::Cluster;
use smile_telemetry::{Histogram, SpanKind, SpanRecord};
use smile_types::{FastMap, Timestamp, VertexId};
use smile_types::{MachineId, Result, SharingId, SimDuration, SmileError};
use std::cmp::Reverse;
use std::rc::Rc;
use std::time::Instant;

/// One push planned into the current tick's batch: sharing `sharing`
/// advancing its subgraph to `target`. It carries everything its
/// completion reads, so a push in flight when its sharing retires completes
/// without the sharing's record.
#[derive(Clone, Copy, Debug)]
pub(super) struct BatchRequest {
    /// The timestamp the push advances to.
    pub target: Timestamp,
    /// Attempt number (1-based; >1 for retries).
    pub attempt: u32,
    /// MV staleness when the push was issued.
    pub staleness_before: SimDuration,
    /// Critical-path prediction for the push (feedback calibration).
    pub predicted: SimDuration,
    /// The sharing's MV vertex.
    pub mv: VertexId,
    /// The sharing being advanced.
    pub sharing: SharingId,
    /// Its staleness SLA.
    pub sla: SimDuration,
    /// Dual-write shadow of a live migration: advances the new placement's
    /// chain alongside the real request, with no completion bookkeeping —
    /// only the owning migration's handoff state.
    pub shadow: bool,
}

/// One edge job of a batch: advance `vertex` over `(from, to]` by running
/// its producer edge. `deps` are earlier job indexes that must succeed (and
/// complete, for submission timing) first: the previous job on the same
/// vertex plus the latest job on each input and, for a half-join, on its
/// sibling.
#[derive(Clone, Debug)]
pub(super) struct BatchJob {
    /// The vertex this job advances.
    pub vertex: VertexId,
    /// Producer edge index in the global plan.
    pub edge: usize,
    /// Window start (exclusive).
    pub from: Timestamp,
    /// Window end (inclusive) — the request's target.
    pub to: Timestamp,
    /// Owning request's index in the batch.
    pub req: usize,
    /// Earlier jobs this one depends on (always lower indexes).
    pub deps: Vec<usize>,
    /// Topological wave this job runs in.
    pub wave: usize,
}

/// The batch one tick plans and executes. Planning runs against a
/// copy-on-write shadow of `data_ts` advanced as each request is planned —
/// without cloning the full per-vertex timestamp vector every tick — so a
/// request sees exactly the vertex state the serial scheduler would have
/// seen after executing its predecessors: a shared vertex an earlier
/// request already covers is not re-planned, only depended upon.
#[derive(Default)]
pub(super) struct Batch {
    pub requests: Vec<BatchRequest>,
    pub jobs: Vec<BatchJob>,
    /// The latest job planned on each vertex: what later jobs on or below
    /// the vertex depend on, and (its `to`) the vertex's shadow timestamp.
    last_job_on: FastMap<VertexId, usize>,
}

impl Batch {
    /// `v`'s timestamp once the jobs planned so far have run; `committed`
    /// is the executor's `data_ts`.
    pub fn ts(&self, committed: &[Timestamp], v: VertexId) -> Timestamp {
        self.last_job_on
            .get(&v)
            .map_or(committed[v.index()], |&j| self.jobs[j].to)
    }

    /// Wave assignment, once every request is planned: a job's wave is at
    /// least its vertex's wavefront within the batch's vertex subset, and
    /// strictly after every dependency's wave (deps always have lower job
    /// indexes, so one ascending pass settles everything). The running
    /// plan's vertex ids are a topological order, so the subset is sorted
    /// by id.
    pub fn assign_waves(&mut self, plan: &Plan) {
        let jobs = &mut self.jobs;
        if jobs.is_empty() {
            return;
        }
        let mut subset: Vec<VertexId> = jobs.iter().map(|j| j.vertex).collect();
        subset.sort_unstable();
        subset.dedup();
        let vwave = plan.wavefronts(&subset);
        for jid in 0..jobs.len() {
            let mut w = vwave.get(&jobs[jid].vertex).copied().unwrap_or(0);
            for &d in &jobs[jid].deps {
                w = w.max(jobs[d].wave + 1);
            }
            jobs[jid].wave = w;
        }
    }
}

/// One job of the wave being executed, as the coordinator decided it: the
/// planned job and its request, plus everything that had to be settled
/// before anything in the wave runs.
pub(super) struct Dispatch<'b> {
    /// Index of `job` in the batch (merge order).
    pub jid: usize,
    pub job: &'b BatchJob,
    pub req: &'b BatchRequest,
    /// Simulated submission time at the executing machine.
    pub submit: Timestamp,
    /// For a cross-machine copy: the source machine (the ship half).
    pub ship_machine: Option<MachineId>,
    /// The machine the job's output lives on; for a cross-machine copy
    /// this is the destination (the land half).
    pub exec_machine: MachineId,
    /// Drawn: the shipped batch is lost in transit, its NIC time spent.
    drop_delta: bool,
    /// Drawn: the batch lands but its acknowledgement is lost; the retry
    /// re-ships and is absorbed by the producer's watermark.
    ack_lost: bool,
    /// For a half-join, the instant its relation side is read at: the
    /// sibling half's landed coverage. Other operators ignore it.
    snapshot_at: Timestamp,
}

/// How far a batch has got: what the waves run so far leave for the waves
/// after them and for [`Executor::settle_requests`].
struct Progress {
    /// Per job, its simulated completion once it has succeeded — what a
    /// dependent job's submission waits for. `None` before that, and for
    /// good if the job failed or was skipped.
    job_end: Vec<Option<Timestamp>>,
    reqs: Vec<RequestProgress>,
    /// The latest job completion (the tick span's end).
    max_end: Timestamp,
    /// The first non-transient error, returned once the batch is settled.
    hard_error: Option<SmileError>,
}

#[derive(Clone, Copy)]
struct RequestProgress {
    /// One of the request's jobs failed or was skipped.
    failed: bool,
    /// Tuples its successful jobs moved.
    tuples: u64,
    /// When its MV's job completed; `now` for a push that had nothing left
    /// to do (everything shared and ahead).
    completion: Timestamp,
}

/// Host wall-clock of one batch, a record per ship half and per land/run
/// half: each into the `host_job_nanos` histogram, their count and sum
/// into the counters behind [`Executor::wave_meter_view`].
struct HostMeter<'a> {
    host_job_nanos: &'a Histogram,
    halves: u64,
    busy_nanos: u64,
}

impl HostMeter<'_> {
    fn time<T>(&mut self, half: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = half();
        let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.host_job_nanos.record(nanos);
        self.halves += 1;
        self.busy_nanos = self.busy_nanos.saturating_add(nanos);
        out
    }
}

/// The source-machine half of a cross-machine copy, touching `src` alone:
/// encode the window and reserve the NIC.
fn ship_half(src: &mut Machine, plan: &Plan, d: &Dispatch<'_>) -> Result<ShipOutput> {
    let edge = plan.edge(d.job.edge);
    push::ship_copy(src, plan, edge, d.job.from, d.job.to, d.submit)
}

/// The output-machine half of a job, touching `dst` alone: land the bytes
/// the ship half sent, or run the machine-local operator.
fn land_or_run(
    dst: &mut Machine,
    plan: &Plan,
    model: &TimeCostModel,
    d: &Dispatch<'_>,
    shipped: Option<Result<ShipOutput>>,
    charges: &mut Vec<ResourceUsage>,
) -> Result<EdgeRun> {
    let edge = plan.edge(d.job.edge);
    let mut job = push::Job {
        machine: dst,
        plan,
        edge,
        from: d.job.from,
        to: d.job.to,
        start: d.submit,
        model,
        ack_lost: d.ack_lost,
        charges,
    };
    let Some(shipped) = shipped else {
        return push::run_local(job, d.snapshot_at);
    };
    let ship = shipped?;
    // The NIC time was spent whether or not the batch lands.
    job.charges.push(ship.usage);
    if d.drop_delta {
        return Err(SmileError::Transient {
            detail: format!("delta batch for vertex {} lost in transit", edge.output),
        });
    }
    job.start = ship.arrive;
    push::land_copy(job, ship.bytes)
}

impl Executor {
    /// Plans one push request (sharing `id` advancing to `target`) into
    /// edge jobs appended to the batch.
    pub(super) fn push_request(
        &self,
        id: SharingId,
        target: Timestamp,
        attempt: u32,
        now: Timestamp,
        batch: &mut Batch,
    ) -> Result<()> {
        let rt = self.rt(id)?;
        // An instant inside a window some other request pushed a shared join
        // or aggregate output through is no state of it (`ExprSig::windowed`),
        // so the request goes to the furthest such window's end instead
        // (never past `now`: that request's target was a `now` of its own).
        let plan = &self.global.plan;
        let shared = rt.order.iter().filter(|&&v| plan.vertex(v).sig.windowed());
        let target = shared.fold(target, |t, &v| t.max(batch.ts(&self.data_ts, v)));
        let staleness_before = now - self.visible_ts[rt.mv.index()];
        let window_secs = (target - batch.ts(&self.data_ts, rt.mv)).as_secs_f64();
        let mut request = BatchRequest {
            target,
            attempt,
            staleness_before,
            predicted: rt.cp.eval(window_secs, &self.model),
            mv: rt.mv,
            sharing: id,
            sla: rt.sla,
            shadow: false,
        };
        self.plan_vertex_jobs(&rt.order, request, batch)?;
        // Dual write: while a migration is in flight, the same push also
        // advances the new placement's chain to the same target, in the
        // same batch. Shared vertices were just planned by the real
        // request, so the shadow pass plans only the placement delta — and
        // its jobs naturally depend on the real jobs through `last_job_on`.
        if let Some(mig) = self.migrations.get(&id).filter(|mig| !mig.failed) {
            request.mv = mig.new_mv;
            request.shadow = true;
            self.plan_vertex_jobs(&mig.new_order, request, batch)?;
        }
        Ok(())
    }

    /// Appends `request` to the batch with the edge jobs advancing `order`
    /// (a push-order vertex list) to its target — the per-vertex half of
    /// [`Executor::push_request`], shared by real and shadow requests.
    fn plan_vertex_jobs(
        &self,
        order: &[VertexId],
        request: BatchRequest,
        batch: &mut Batch,
    ) -> Result<()> {
        let req = batch.requests.len();
        batch.requests.push(request);
        for &v in order {
            let from = batch.ts(&self.data_ts, v);
            if from >= request.target {
                // Another request (this batch or an earlier tick) already
                // advances this shared vertex far enough; depend on its job
                // if it is in this batch, plan nothing.
                continue;
            }
            let edge = self.global.plan.producer(v).ok_or_else(|| {
                SmileError::Internal(format!("non-base vertex {v} has no producer"))
            })?;
            // Half-join pairing: each half's job also depends on the
            // sibling half's latest job in the batch, so the two halves of
            // one join advance in alternating waves. Serializing the pair
            // lets `execute_batch` read the snapshot anchor at dispatch
            // from the sibling's *landed* coverage, which keeps the join's
            // output stream a clean `left@tl ⋈ right@tr` product under any
            // partial-failure skew (no double-counted or dropped Δ⋈Δ
            // cross-terms), and makes retries re-anchor correctly with no
            // per-window history.
            let mut deps: Vec<usize> = Vec::new();
            for on in std::iter::once(&v)
                .chain(&edge.inputs)
                .chain(&self.anchor_of[edge.id])
            {
                if let Some(&d) = batch.last_job_on.get(on) {
                    if !deps.contains(&d) {
                        deps.push(d);
                    }
                }
            }
            batch.last_job_on.insert(v, batch.jobs.len());
            batch.jobs.push(BatchJob {
                vertex: v,
                edge: edge.id,
                from,
                to: request.target,
                req,
                deps,
                wave: 0,
            });
        }
        Ok(())
    }

    /// Executes a planned batch wave by wave, in the order the module doc
    /// lays down.
    ///
    /// A request with a transiently-failed job keeps the progress of the
    /// jobs that succeeded (their windows landed; a retry re-plans from the
    /// advanced `data_ts` and batch dedup absorbs overlap) and is retried
    /// or abandoned per the policy.
    pub(super) fn execute_batch(
        &mut self,
        cluster: &mut Cluster,
        now: Timestamp,
        batch: &Batch,
    ) -> Result<()> {
        if batch.requests.is_empty() {
            return Ok(());
        }
        let request = RequestProgress {
            failed: false,
            tuples: 0,
            completion: now,
        };
        let mut progress = Progress {
            job_end: vec![None; batch.jobs.len()],
            reqs: vec![request; batch.requests.len()],
            max_end: now,
            hard_error: None,
        };
        // Its own handle, so the meter's borrow outlives the merges' `&mut self`.
        let telemetry = Rc::clone(&self.telemetry);
        let mut host = HostMeter {
            host_job_nanos: telemetry.host_job_nanos(),
            halves: 0,
            busy_nanos: 0,
        };
        // The tick span roots this batch's span tree. Allocation and every
        // attribute below happen in canonical job order and carry simulated
        // time only, so span ids and content repeat run to run.
        let tick_span = telemetry.enabled().then(|| telemetry.next_span_id());
        if let Some(ts_id) = tick_span {
            telemetry.record_span(
                self.span(Some(ts_id), SpanKind::PlanBatch, now, now)
                    .with("requests", batch.requests.len())
                    .with("jobs", batch.jobs.len()),
            );
        }
        let mut charges: Vec<ResourceUsage> = Vec::new();
        let waves = batch.jobs.iter().map(|j| j.wave + 1).max().unwrap_or(0);
        for wave in 0..waves {
            let dispatch = self.decide_wave(cluster, now, batch, wave, &mut progress, tick_span);
            if dispatch.is_empty() {
                continue;
            }
            // Step 2: every ship, before anything lands.
            let plan = &self.global.plan;
            let mut ships = Vec::with_capacity(dispatch.len());
            for d in &dispatch {
                let ship = |src| host.time(|| ship_half(cluster.machine_mut(src)?, plan, d));
                ships.push(d.ship_machine.map(ship));
            }
            // Step 3: land or run, then merge, one job at a time.
            let wave_span = tick_span.map(|_| telemetry.next_span_id());
            for (d, shipped) in dispatch.iter().zip(ships) {
                let plan = &self.global.plan;
                let result = host.time(|| {
                    let dst = cluster.machine_mut(d.exec_machine)?;
                    land_or_run(dst, plan, &self.model, d, shipped, &mut charges)
                });
                let ledger = &mut cluster.ledger;
                self.merge_job(ledger, d, &mut charges, result, wave_span, &mut progress);
            }
            self.ctr_waves.inc();
            if let Some(ws) = wave_span {
                let start = dispatch.iter().map(|d| d.submit).min().unwrap_or(now);
                let ends = dispatch.iter().filter_map(|d| progress.job_end[d.jid]);
                let end = ends.fold(start, Timestamp::max);
                telemetry.record_span(
                    SpanRecord::new(ws, tick_span, SpanKind::Wave, us(start), us(end))
                        .with("wave", wave)
                        .with("jobs", dispatch.len()),
                );
            }
        }
        self.ctr_jobs.add(host.halves);
        self.ctr_busy_nanos.add(host.busy_nanos);
        self.settle_requests(now, batch, &progress, tick_span);
        if let Some(ts_id) = tick_span {
            telemetry.record_span(
                SpanRecord::new(ts_id, None, SpanKind::Tick, us(now), us(progress.max_end))
                    .with("requests", batch.requests.len()),
            );
        }
        progress.hard_error.map_or(Ok(()), Err)
    }

    /// Step 1 of a wave: every decision that consumes shared state, for
    /// every job of `wave` in job order, before any of them runs. A job
    /// that is not dispatched fails its request and, so that the fault
    /// stream stays aligned with the jobs that do run, draws nothing.
    fn decide_wave<'b>(
        &self,
        cluster: &mut Cluster,
        now: Timestamp,
        batch: &'b Batch,
        wave: usize,
        progress: &mut Progress,
        tick_span: Option<u64>,
    ) -> Vec<Dispatch<'b>> {
        let plan = &self.global.plan;
        let mut dispatch = Vec::new();
        for (jid, job) in batch.jobs.iter().enumerate() {
            if job.wave != wave {
                continue;
            }
            let req = &batch.requests[job.req];
            // `Err` names the machine whose crash window blocks the job, or
            // nothing for a job skipped behind a failure.
            let decided = 'job: {
                // Submission waits for the command to arrive and for every
                // dependency to complete. A failed dependency means this
                // job would read a window its producer never filled; fail
                // the request so the retry re-plans from true state.
                let mut deps = job.deps.iter().map(|&d| progress.job_end[d]);
                let submit = deps.try_fold(now + COMMAND_LATENCY, |at, end| Some(at.max(end?)));
                let Some(submit) = submit.filter(|_| !progress.reqs[job.req].failed) else {
                    break 'job Err(None);
                };
                let edge = plan.edge(job.edge);
                let is_copy = matches!(edge.op, EdgeOp::CopyDelta);
                let exec_machine = plan.vertex(edge.output).machine;
                let ship_machine = is_copy
                    .then(|| plan.vertex(edge.inputs[0]).machine)
                    .filter(|&src| src != exec_machine);
                // Crash windows are schedule-driven, not stream-driven.
                let mut machines = ship_machine.into_iter().chain([exec_machine]);
                if machines.any(|m| cluster.faults.machine_down(m, submit)) {
                    break 'job Err(Some(exec_machine));
                }
                // The shared fault stream: delta drop, then ack loss, each
                // only for the copies that can suffer it.
                let drop_delta = ship_machine.is_some() && cluster.faults.drop_delta(submit);
                let ack_lost = is_copy && !drop_delta && cluster.faults.ack_lost(submit);
                // A half-join reads its relation side as of the sibling
                // half's landed coverage as of this wave. The pairing
                // dependency added at planning guarantees the sibling's
                // current step ran in an earlier wave (or was skipped,
                // failing this job's request), so `data_ts` is exact here.
                // Other operators read no snapshot.
                let anchor = self.anchor_of[job.edge];
                let snapshot_at = anchor.map_or(job.to, |sib| self.data_ts[sib.index()]);
                Ok(Dispatch {
                    jid,
                    job,
                    req,
                    submit,
                    ship_machine,
                    exec_machine,
                    drop_delta,
                    ack_lost,
                    snapshot_at,
                })
            };
            match decided {
                Ok(d) => dispatch.push(d),
                Err(down) => {
                    progress.reqs[job.req].failed = true;
                    if let Some(ts_id) = tick_span {
                        self.record_undispatched_job(ts_id, now, job, req, down);
                    }
                }
            }
        }
        dispatch
    }

    /// The merge half of step 3: one job's charges and result into the
    /// ledger, `data_ts`, the event queue, the fault statistics, the span
    /// tree and the batch's progress.
    fn merge_job(
        &mut self,
        ledger: &mut UsageLedger,
        d: &Dispatch<'_>,
        charges: &mut Vec<ResourceUsage>,
        result: Result<EdgeRun>,
        wave_span: Option<u64>,
        progress: &mut Progress,
    ) {
        let (job, req) = (d.job, d.req);
        for usage in charges.drain(..) {
            ledger.charge(usage, Some(req.sharing));
        }
        if let Some(ws) = wave_span {
            self.record_job_span(ws, d, &result);
        }
        let request = &mut progress.reqs[job.req];
        match result {
            Ok(run) => {
                if run.deduped {
                    self.fault_stats.batches_deduped += 1;
                }
                progress.job_end[d.jid] = Some(run.end);
                progress.max_end = progress.max_end.max(run.end);
                self.data_ts[job.vertex.index()] = job.to;
                request.tuples += run.tuples;
                let (vertex, ts) = (job.vertex, job.to);
                self.events.push(run.end, ExecEvent::Commit { vertex, ts });
                if job.vertex == req.mv {
                    request.completion = run.end;
                }
            }
            Err(e) => {
                request.failed = true;
                if !matches!(e, SmileError::Transient { .. }) && progress.hard_error.is_none() {
                    progress.hard_error = Some(e);
                }
            }
        }
    }

    /// After the last wave: each request's PushDone, retry, abandonment or
    /// shadow hand-off, in request order.
    fn settle_requests(
        &mut self,
        now: Timestamp,
        batch: &Batch,
        progress: &Progress,
        tick_span: Option<u64>,
    ) {
        for (req, done) in batch.requests.iter().zip(&progress.reqs) {
            // Progress made before a fault is kept: the tuples moved and
            // the commit events of successful jobs are already in.
            self.tuples_moved += done.tuples;
            // The sharing is live: it was pushed this tick, and retirement
            // happens between ticks.
            if let Some(rt) = self.sharings.get_mut(&req.sharing) {
                rt.tuples += done.tuples;
            }
            if req.shadow {
                // A shadow request only advances the migration's handoff
                // state: no PushDone, no push record, no retry — the real
                // request owns the sharing's completion bookkeeping, and
                // the next real push re-plans the shadow chain from its
                // landed `data_ts`.
                if let Some(mig) = self.migrations.get_mut(&req.sharing) {
                    if done.failed {
                        mig.failed = true;
                    } else {
                        mig.pushed_ok = true;
                    }
                }
            } else if !done.failed {
                self.events.push(
                    done.completion.max(now),
                    ExecEvent::PushDone {
                        req: *req,
                        issued: now,
                        tuples: done.tuples,
                    },
                );
            } else if req.attempt >= RETRY_ATTEMPTS {
                self.fault_stats.pushes_abandoned += 1;
                // The sharing went in flight when its push fired; hand it
                // back to the scheduler at the next tick.
                let next = self.cal.tick_of(now) + 1;
                if let Some(rt) = self.sharings.get(&req.sharing) {
                    self.cal.schedule_at(req.sharing, &rt.slot, next);
                }
                if let Some(ts_id) = tick_span {
                    self.record_retry_span(ts_id, req, now, now, "abandoned");
                }
            } else {
                self.fault_stats.pushes_retried += 1;
                let due = now + retry_delay(req.attempt);
                self.pending_retries.push(Reverse(PendingRetry {
                    due,
                    sharing: req.sharing,
                    target: req.target,
                    attempt: req.attempt + 1,
                }));
                if let Some(ts_id) = tick_span {
                    self.record_retry_span(ts_id, req, now, due, "scheduled");
                }
            }
        }
    }
}

/// Attempts per push that fails with a transient fault (machine down, delta
/// lost, acknowledgement lost), the first included.
const RETRY_ATTEMPTS: u32 = 4;

/// Delay after failed attempt `attempt` (1-based): a 2 s detection timeout
/// plus a backoff of 500 ms, doubled for each further retry.
fn retry_delay(attempt: u32) -> SimDuration {
    SimDuration::from_secs(2) + SimDuration::from_millis(500).mul_f64(2f64.powi(attempt.saturating_sub(1) as i32))
}

#[cfg(test)]
mod tests {
    use super::super::tests::installed_pinned;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The wave rule on a merged plan — twins on two machines, sharing
        /// the half-join pair — over request sequences no scheduler would
        /// restrict itself to: a sharing asked for repeatedly at rising and
        /// falling targets, and shadow requests (a twin's chain planned
        /// under the other's name, which is what a migration's new
        /// placement is).
        #[test]
        fn waves_respect_dependencies_wavefronts_and_pairs(
            requests in prop::collection::vec((0usize..2, 1u64..40, prop::bool::ANY), 1..8),
        ) {
            let pins = [0, 1].map(|m| Some(MachineId::new(m)));
            let (smile, _, _, ids) = installed_pinned(true, 20, &pins);
            let ex = smile.executor.as_ref().unwrap();
            let now = Timestamp::from_secs(40);
            let mut batch = Batch::default();
            for (side, target, shadow) in requests {
                let target = Timestamp::from_secs(target);
                if !shadow {
                    ex.push_request(ids[side], target, 1, now, &mut batch).unwrap();
                    continue;
                }
                let (rt, twin) = (&ex.sharings[&ids[side]], &ex.sharings[&ids[1 - side]]);
                let request = BatchRequest {
                    target,
                    attempt: 1,
                    staleness_before: SimDuration::ZERO,
                    predicted: SimDuration::ZERO,
                    mv: twin.mv,
                    sharing: ids[side],
                    sla: rt.sla,
                    shadow: true,
                };
                ex.plan_vertex_jobs(&twin.order, request, &mut batch).unwrap();
            }
            batch.assign_waves(&ex.global.plan);

            // The oracle's subset is in the whole plan's topological order,
            // not in the vertex-id order the rule sorts by.
            let (jobs, order) = (&batch.jobs, ex.global.plan.topo_order().unwrap());
            let subset: Vec<VertexId> = order.into_iter().filter(|v| jobs.iter().any(|j| j.vertex == *v)).collect();
            let wavefront = ex.global.plan.wavefronts(&subset);
            prop_assert!(jobs.iter().any(|j| ex.anchor_of[j.edge].is_some()));
            for (jid, job) in jobs.iter().enumerate() {
                for &d in &job.deps {
                    prop_assert!(d < jid && jobs[d].wave < job.wave, "job {jid} vs dependency {d}");
                }
                prop_assert!(job.wave >= wavefront[&job.vertex]);
                // Jobs on one vertex come in increasing waves, each window
                // starting where the one before it ended.
                if let Some(prev) = jobs[..jid].iter().rfind(|e| e.vertex == job.vertex) {
                    prop_assert!(prev.wave < job.wave && prev.to == job.from);
                }
                // The halves of a pair never share a wave.
                if let Some(sibling) = ex.anchor_of[job.edge] {
                    let mut halves = jobs.iter().filter(|s| s.vertex == sibling);
                    prop_assert!(halves.all(|s| s.wave != job.wave));
                }
            }
        }
    }
}
