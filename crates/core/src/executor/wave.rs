//! Wave execution for push batches.
//!
//! The executor plans a *batch* of push requests into edge jobs, assigns
//! each job a topological **wave** (every job's dependencies live in
//! strictly earlier waves), and hands one wave at a time to [`run_wave`],
//! which runs it on the calling thread. The machines' concurrency is
//! reproduced in *simulated* time — each [`Machine`]'s CPU/NIC FIFO — so
//! the host needs no threads to get the paper's schedule.
//!
//! A cross-machine `CopyDelta` is the one job that spans two machines: a
//! ship half on the source (encode + NIC reservation) and a land half on the
//! destination. A wave ships all its copies first, in canonical (job-index)
//! order, and only then lands them and runs the local operators, again in
//! job order. So every ship reads its source log exactly as the previous
//! wave left it, whatever its job index, and each machine's NIC FIFO sees
//! the wave's ships, its CPU FIFO the wave's lands and local operators, in
//! one fixed submission sequence.
//!
//! Every decision that consumes shared state is the coordinator's
//! (`Executor::execute_batch`): fault-stream draws happen before dispatch in
//! job order ([`JobFaults`] carries the outcomes in), and ledger charges,
//! timestamp advances, event pushes and retry decisions happen when the
//! [`JobOutcome`]s merge back, in job order. This routine only mutates the
//! machines a job names.
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
use smile_telemetry::Histogram;
use smile_types::{Result, SmileError, Timestamp};
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
    /// For a cross-machine copy: the source machine's index (the ship half).
    pub ship_machine: Option<usize>,
    /// The machine index the job's output lives on; for a cross-machine
    /// copy this is the destination (the land half).
    pub exec_machine: usize,
}

/// What one job did, reported back to the coordinator.
#[derive(Debug)]
pub(crate) struct JobOutcome {
    /// Resource usages to charge, in the order they were incurred.
    pub charges: Vec<ResourceUsage>,
    /// The edge result (success, transient fault, or hard error).
    pub result: Result<EdgeRun>,
    /// Host nanoseconds the ship half cost, for a cross-machine copy —
    /// observability only, never fed back into the simulation.
    pub ship_nanos: Option<u64>,
    /// Host nanoseconds of the land half / local operator.
    pub exec_nanos: u64,
}

/// Host nanoseconds since `t0`, saturating.
fn host_nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn machine(machines: &mut [Machine], index: usize) -> Result<&mut Machine> {
    machines
        .get_mut(index)
        .ok_or_else(|| SmileError::Internal(format!("job routed to unknown machine {index}")))
}

/// Executes one wave of jobs over the fleet and returns one outcome per
/// job, in the order of `jobs`. Every host-side job time is also recorded
/// into `host_job_nanos`.
pub(crate) fn run_wave(
    machines: &mut [Machine],
    plan: &Plan,
    model: &TimeCostModel,
    jobs: &[WaveJob],
    host_job_nanos: &Histogram,
) -> Vec<JobOutcome> {
    // Ship: encode + NIC-reserve every outbound batch on its source machine.
    let ships: Vec<Option<(Result<ShipOutput>, u64)>> = jobs
        .iter()
        .map(|j| {
            let source = j.ship_machine?;
            let t0 = Instant::now();
            let shipped = machine(machines, source).and_then(|src| {
                push::ship_copy(src, plan, plan.edge(j.edge), j.from, j.to, j.submit)
            });
            Some((shipped, host_nanos(t0)))
        })
        .collect();

    // Land the copies / run the local operators on the output machines.
    jobs.iter()
        .zip(ships)
        .map(|(j, ship)| {
            let mut charges: Vec<ResourceUsage> = Vec::new();
            let edge = plan.edge(j.edge);
            let t0 = Instant::now();
            let (shipped, ship_nanos) = ship.unzip();
            let result = machine(machines, j.exec_machine).and_then(|dst| {
                let mut job = push::Job {
                    machine: dst,
                    plan,
                    edge,
                    from: j.from,
                    to: j.to,
                    start: j.submit,
                    model,
                    ack_lost: j.faults.ack_lost,
                    charges: &mut charges,
                };
                match shipped {
                    Some(Ok(ship)) => {
                        // The NIC time was spent whether or not the batch lands.
                        job.charges.push(ship.usage);
                        if j.faults.drop_delta {
                            return Err(SmileError::Transient {
                                detail: format!(
                                    "delta batch for vertex {} lost in transit",
                                    edge.output
                                ),
                            });
                        }
                        job.start = ship.arrive;
                        push::land_copy(job, ship.bytes)
                    }
                    Some(Err(e)) => Err(e),
                    None => push::run_local(job, j.snapshot_at),
                }
            });
            let exec_nanos = host_nanos(t0);
            if let Some(nanos) = ship_nanos {
                host_job_nanos.record(nanos);
            }
            host_job_nanos.record(exec_nanos);
            JobOutcome {
                charges,
                result,
                ship_nanos,
                exec_nanos,
            }
        })
        .collect()
}
