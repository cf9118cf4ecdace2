//! One tick's batch of pushes: planning each push request into edge jobs,
//! then executing the jobs wave by wave and merging the outcomes.

use super::liveness::{ExecEvent, PendingRetry};
use super::push::JobFaults;
use super::spans::us;
use super::{wave, Executor, COMMAND_LATENCY};
use crate::plan::dag::EdgeOp;
use smile_sim::Cluster;
use smile_telemetry::{SpanKind, SpanRecord};
use smile_types::{Result, SharingId, SimDuration, SmileError, Timestamp, VertexId};
use std::cmp::Reverse;
use std::collections::HashMap;

/// One push planned into the current tick's batch: sharing `idx` advancing
/// its subgraph to `target`.
#[derive(Clone, Copy, Debug)]
pub(super) struct BatchRequest {
    /// Sharing slot index.
    pub idx: usize,
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
    /// Vertex index → the timestamp the jobs planned so far advance it to.
    planned_ts: HashMap<usize, Timestamp>,
    /// The latest job planned on each vertex.
    last_job_on: HashMap<VertexId, usize>,
}

impl Batch {
    /// `v`'s timestamp once the jobs planned so far have run; `committed`
    /// is the executor's `data_ts`.
    pub fn ts(&self, committed: &[Timestamp], v: VertexId) -> Timestamp {
        self.planned_ts
            .get(&v.index())
            .copied()
            .unwrap_or(committed[v.index()])
    }
}

impl Executor {
    /// Plans one push request (sharing `idx` advancing to `target`) into
    /// edge jobs appended to the batch.
    pub(super) fn push_request(
        &self,
        idx: usize,
        target: Timestamp,
        attempt: u32,
        now: Timestamp,
        batch: &mut Batch,
    ) -> Result<()> {
        let rt = &self.sharings[idx];
        let staleness_before = now - self.visible_ts[rt.mv.index()];
        let window_secs = (target - batch.ts(&self.data_ts, rt.mv)).as_secs_f64();
        let mut request = BatchRequest {
            idx,
            target,
            attempt,
            staleness_before,
            predicted: self.cp_for(idx, window_secs),
            mv: rt.mv,
            sharing: rt.id,
            shadow: false,
        };
        self.plan_vertex_jobs(&rt.order, request, batch)?;
        // Dual write: while a migration is in flight, the same push also
        // advances the new placement's chain to the same target, in the
        // same batch. Shared vertices were just planned by the real
        // request, so the shadow pass plans only the placement delta — and
        // its jobs naturally depend on the real jobs through `last_job_on`.
        if let Some(mig) = self.migrations.get(&idx).filter(|mig| !mig.failed) {
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
                .chain(self.anchor_of.get(&edge.id))
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
            batch.planned_ts.insert(v.index(), request.target);
        }
        Ok(())
    }

    /// Executes a planned batch wave by wave and merges the outcomes back
    /// in canonical job order.
    ///
    /// Per wave, the coordinator decides, runs, then merges. It makes every
    /// decision that consumes shared state up front, in job order:
    /// dependency-failure propagation, crash-window checks at the
    /// submission time, and the shared fault-stream draws (delta drop, then
    /// ack loss) for cross-machine copies. [`wave::run_wave`] then moves the
    /// data, and the merge — ledger charges, `data_ts` advances, commit
    /// events, retry decisions — follows in job order.
    ///
    /// A request with a transiently-failed job keeps the progress of the
    /// jobs that succeeded (their windows landed; a retry re-plans from the
    /// advanced `data_ts` and batch dedup absorbs overlap) and is retried
    /// or abandoned per the policy. Jobs depending on a failed job are
    /// skipped without consuming fault draws, so the stream stays aligned
    /// with the jobs that did run.
    pub(super) fn execute_batch(
        &mut self,
        cluster: &mut Cluster,
        now: Timestamp,
        batch: &Batch,
    ) -> Result<()> {
        let Batch { requests, jobs, .. } = batch;
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
        // attribute below happen in canonical job order and carry simulated
        // time only, so span ids and content repeat run to run.
        let tick_span = self
            .telemetry
            .enabled()
            .then(|| self.telemetry.next_span_id());
        if let Some(ts_id) = tick_span {
            self.telemetry.record_span(
                self.span(Some(ts_id), SpanKind::PlanBatch, now, now)
                    .with("requests", requests.len())
                    .with("jobs", jobs.len()),
            );
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
                        self.record_undispatched_job(ts_id, now, job, &requests[job.req], None);
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
                    // failing here consumes no draws.
                    req_failed[job.req] = true;
                    if let Some(ts_id) = tick_span {
                        let down = Some(exec_machine);
                        self.record_undispatched_job(ts_id, now, job, &requests[job.req], down);
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
                // A half-join reads its relation side as of the sibling
                // half's landed coverage as of this wave. The pairing
                // dependency added at planning guarantees the sibling's
                // current step ran in an earlier wave (or was skipped,
                // failing this job's request), so `data_ts` is exact here.
                // Other operators read no snapshot.
                let snapshot_at = self
                    .anchor_of
                    .get(&job.edge)
                    .map_or(job.to, |sib| self.data_ts[sib.index()]);
                dispatch.push(wave::WaveJob {
                    job: jid,
                    edge: job.edge,
                    from: job.from,
                    to: job.to,
                    snapshot_at,
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
                self.telemetry.host_job_nanos(),
            );
            let wave_span = tick_span.map(|_| self.telemetry.next_span_id());
            let wave_start = dispatch.iter().map(|d| d.submit).min().unwrap_or(now);
            let mut wave_end = wave_start;
            let (mut wave_jobs, mut wave_busy) = (0u64, 0u64);
            // One outcome per dispatched job, in dispatch order.
            for (o, d) in outcomes.into_iter().zip(dispatch.iter()) {
                let job = &jobs[d.job];
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
                        job_ok[d.job] = true;
                        job_end[d.job] = run.end;
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
                self.telemetry.record_span(
                    SpanRecord::new(ws, tick_span, SpanKind::Wave, us(wave_start), us(wave_end))
                        .with("wave", wave)
                        .with("jobs", dispatch.len()),
                );
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
                    // The slot went in flight when its push fired; hand it
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
                    if let Some(ts_id) = tick_span {
                        self.record_retry_span(ts_id, req, now, due, "scheduled");
                    }
                }
            } else {
                self.events.push(
                    completion[r].max(now),
                    ExecEvent::PushDone {
                        req: *req,
                        issued: now,
                        tuples: req_tuples[r],
                    },
                );
            }
        }
        if let Some(ts_id) = tick_span {
            self.telemetry.record_span(
                SpanRecord::new(ts_id, None, SpanKind::Tick, us(now), us(max_end))
                    .with("requests", requests.len()),
            );
        }
        if let Some(e) = hard_error {
            return Err(e);
        }
        Ok(())
    }
}
