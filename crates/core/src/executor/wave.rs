//! Multi-core wave execution for push batches.
//!
//! The executor plans a *batch* of push requests into edge jobs, assigns
//! each job a topological **wave** (every job's dependencies live in
//! strictly earlier waves), and hands one wave at a time to [`run_wave`].
//! Within a wave, jobs are independent except that several may touch the
//! same machine — so the unit of parallelism is the **machine**, not the
//! job: machine `i` is owned by worker `i % workers` for the duration of
//! the wave, each worker runs its machines' jobs in canonical (job-index)
//! order, and no lock is ever taken on storage. A cross-machine `CopyDelta`
//! is the one job that spans two machines; it splits into a ship half on
//! the source owner and a land half on the destination owner, exchanging an
//! immutable `Arc`-backed WAL byte buffer through a per-job mailbox, with a
//! barrier between the two phases.
//!
//! Determinism is by construction, not by luck:
//!
//! * all fault-stream draws happen coordinator-side before dispatch, in
//!   canonical job order ([`JobFaults`] carries the outcomes in);
//! * workers mutate only their own machines and return [`JobOutcome`]s;
//! * the coordinator merges outcomes back in canonical job order — ledger
//!   charges, timestamp advances, event pushes and retry decisions all
//!   happen on one thread, in one order, whatever the worker count;
//! * simulated time comes from each machine's own FIFO resources, which
//!   see exactly the same submission sequence regardless of which host
//!   thread issues it.
//!
//! `workers == 1` runs the *same* engine inline on the calling thread —
//! there is no separate serial code path to drift from.
//!
//! Host wall-clock per job is measured with [`Instant`] and reported in
//! [`JobOutcome::ship_nanos`] / [`JobOutcome::exec_nanos`]; it feeds only
//! the [`smile_sim::WaveMeter`] observability layer, never the simulation,
//! so timing jitter cannot perturb results.

use super::push::{self, EdgeRun, JobFaults, ShipOutput};
use crate::plan::dag::Plan;
use crate::plan::timecost::TimeCostModel;
use smile_sim::machine::Machine;
use smile_sim::meter::ResourceUsage;
use smile_telemetry::{Histogram, Telemetry};
use smile_types::{Result, SmileError, Timestamp};
use std::collections::HashMap;
use std::sync::{Barrier, Mutex, PoisonError};
use std::time::Instant;

/// One edge job dispatched as part of a wave, with every scheduling
/// decision (submission time, fault outcomes, machine routing) already
/// made by the coordinator.
#[derive(Clone, Debug)]
pub(crate) struct WaveJob {
    /// Canonical index of this job within the batch (merge order).
    pub job: usize,
    /// Edge index in the global plan.
    pub edge: usize,
    /// Window start (exclusive).
    pub from: Timestamp,
    /// Window end (inclusive).
    pub to: Timestamp,
    /// For a half-join job, the instant its relation side is read at: the
    /// sibling half's landed coverage. Other operators ignore it.
    pub snapshot_at: Timestamp,
    /// Simulated submission time at the executing machine.
    pub submit: Timestamp,
    /// Pre-drawn fault outcomes for this job.
    pub faults: JobFaults,
    /// For a cross-machine copy: the source machine's index (phase A).
    pub ship_machine: Option<usize>,
    /// The machine index whose worker produces the job's outcome (phase B);
    /// for a cross-machine copy this is the destination.
    pub exec_machine: usize,
}

/// What one job did, reported back to the coordinator.
#[derive(Debug)]
pub(crate) struct JobOutcome {
    /// Canonical index of the job (matches [`WaveJob::job`]).
    pub job: usize,
    /// Resource usages to charge, in the order the serial path charges them.
    pub charges: Vec<ResourceUsage>,
    /// The edge result (success, transient fault, or hard error).
    pub result: Result<EdgeRun>,
    /// Host nanoseconds the phase-A ship cost, for a cross-machine copy —
    /// observability only, never fed back into the simulation.
    pub ship_nanos: Option<u64>,
    /// Host nanoseconds of the phase-B land / local operator.
    pub exec_nanos: u64,
}

/// Mailbox carrying a shipped delta batch (or the ship's error) plus the
/// host nanos the ship cost, from the source worker to the destination
/// worker across the phase barrier.
type ShipSlot = Mutex<Option<(Result<ShipOutput>, u64)>>;

/// Executes one wave of jobs over the fleet with `workers` threads and
/// returns the outcomes sorted in canonical job order.
pub(crate) fn run_wave(
    machines: &mut [Machine],
    plan: &Plan,
    model: &TimeCostModel,
    jobs: &[WaveJob],
    workers: usize,
    telemetry: &Telemetry,
) -> Vec<JobOutcome> {
    let w = workers.max(1).min(machines.len().max(1));
    // Ship mailboxes are only ever indexed for jobs with a ship machine;
    // the common all-local wave skips the per-job mutex allocation.
    let ships: Vec<ShipSlot> = if jobs.iter().any(|j| j.ship_machine.is_some()) {
        jobs.iter().map(|_| Mutex::new(None)).collect()
    } else {
        Vec::new()
    };
    let barrier = Barrier::new(w);
    let mut outcomes: Vec<JobOutcome> = if w <= 1 {
        // Same engine, inline: the barrier trivially passes with one
        // participant and the job order is already canonical.
        let part: Vec<(usize, &mut Machine)> = machines.iter_mut().enumerate().collect();
        worker_run(
            part,
            jobs,
            plan,
            model,
            &ships,
            &barrier,
            telemetry.worker_nanos_shard(0),
        )
    } else {
        let mut parts: Vec<Vec<(usize, &mut Machine)>> = (0..w).map(|_| Vec::new()).collect();
        for (i, m) in machines.iter_mut().enumerate() {
            parts[i % w].push((i, m));
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .into_iter()
                .enumerate()
                .map(|(wi, part)| {
                    let (ships, barrier) = (&ships, &barrier);
                    let shard = telemetry.worker_nanos_shard(wi);
                    s.spawn(move || worker_run(part, jobs, plan, model, ships, barrier, shard))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    };
    outcomes.sort_unstable_by_key(|o| o.job);
    outcomes
}

/// Host nanoseconds since `t0`, saturating.
fn host_nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One worker's share of a wave: ship every cross-machine copy whose source
/// it owns (phase A), wait for the fleet at the barrier, then execute every
/// job whose output machine it owns (phase B), in canonical job order.
fn worker_run(
    part: Vec<(usize, &mut Machine)>,
    jobs: &[WaveJob],
    plan: &Plan,
    model: &TimeCostModel,
    ships: &[ShipSlot],
    barrier: &Barrier,
    shard: &Histogram,
) -> Vec<JobOutcome> {
    let mut mine: HashMap<usize, &mut Machine> = part.into_iter().collect();

    // Phase A: encode + NIC-reserve outbound batches on source machines.
    // Mailboxes are indexed by position in the wave's job slice (every
    // worker iterates the same slice, so positions agree).
    for (slot, j) in jobs.iter().enumerate() {
        let Some(sm) = j.ship_machine else { continue };
        let Some(src) = mine.get_mut(&sm) else { continue };
        let t0 = Instant::now();
        let res = push::ship_copy(src, plan, plan.edge(j.edge), j.from, j.to, j.submit);
        let nanos = host_nanos(t0);
        // A mailbox is written once and read once, so a writer that
        // panicked cannot have left it half-updated.
        *ships[slot].lock().unwrap_or_else(PoisonError::into_inner) = Some((res, nanos));
    }
    barrier.wait();

    // Phase B: land copies / run local operators on output machines. Reads
    // of phase-A state are safe: every mailbox written in phase A is sealed
    // by the barrier, and window bounds exclude entries later jobs append.
    let mut out = Vec::new();
    for (slot, j) in jobs.iter().enumerate() {
        let Some(machine) = mine.get_mut(&j.exec_machine) else {
            continue;
        };
        let mut charges: Vec<ResourceUsage> = Vec::new();
        let mut ship_nanos = None;
        let edge = plan.edge(j.edge);
        let t0 = Instant::now();
        let result = if j.ship_machine.is_some() {
            let (ship_res, nanos) = ships[slot]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .unwrap_or_else(|| {
                    let unshipped = "cross-machine copy was not shipped in phase A";
                    (Err(SmileError::Internal(unshipped.into())), 0)
                });
            ship_nanos = Some(nanos);
            match ship_res {
                Ok(ship) => {
                    // The NIC time was spent whether or not the batch lands.
                    charges.push(ship.usage);
                    if j.faults.drop_delta {
                        Err(SmileError::Transient {
                            detail: format!(
                                "delta batch for vertex {} lost in transit",
                                plan.vertex(edge.output).id
                            ),
                        })
                    } else {
                        push::land_copy(
                            machine,
                            plan,
                            edge,
                            j.from,
                            j.to,
                            ship.bytes,
                            ship.arrive,
                            model,
                            j.faults.ack_lost,
                            &mut charges,
                        )
                    }
                }
                Err(e) => Err(e),
            }
        } else {
            push::run_local(
                machine,
                plan,
                edge,
                j.from,
                j.to,
                j.snapshot_at,
                j.submit,
                model,
                j.faults.ack_lost,
                &mut charges,
            )
        };
        let exec_nanos = host_nanos(t0);
        // Host-nanos shard: per-worker cells merged in shard-index order at
        // snapshot time, so recording here never contends with other
        // workers and never perturbs the deterministic merge.
        if let Some(nanos) = ship_nanos {
            shard.record(nanos);
        }
        shard.record(exec_nanos);
        out.push(JobOutcome {
            job: j.job,
            charges,
            result,
            ship_nanos,
            exec_nanos,
        });
    }
    out
}

// Everything a worker closure captures must cross threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Plan>();
    assert_send_sync::<TimeCostModel>();
    assert_send_sync::<ShipOutput>();
    fn assert_send<T: Send>() {}
    assert_send::<JobOutcome>();
    assert_send::<&mut Machine>();
};
