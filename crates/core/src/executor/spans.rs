//! Span records of the push lifecycle. Every span is built coordinator-side
//! from simulation state in canonical job order, so ids and content repeat
//! run to run.

use super::batch::{BatchJob, BatchRequest, Dispatch};
use super::migrate::MigrationRt;
use super::{push, Executor};
use crate::plan::dag::EdgeOp;
use smile_telemetry::{SpanKind, SpanRecord};
use smile_types::{MachineId, Result, Timestamp};

/// Simulated instant as microseconds since time zero — the only clock that
/// appears in span timing fields, so traces carry no host time.
pub(super) fn us(t: Timestamp) -> u64 {
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

impl Executor {
    /// A span over `[start, end]` under the next span id.
    pub(super) fn span(
        &self,
        parent: Option<u64>,
        kind: SpanKind,
        start: Timestamp,
        end: Timestamp,
    ) -> SpanRecord {
        SpanRecord::new(
            self.telemetry.next_span_id(),
            parent,
            kind,
            us(start),
            us(end),
        )
    }

    /// Records an edge job the coordinator never dispatched as a
    /// zero-length span: its executing machine was `down` at submission, or
    /// (`None`) a job it depends on failed.
    pub(super) fn record_undispatched_job(
        &self,
        tick_span: u64,
        now: Timestamp,
        job: &BatchJob,
        req: &BatchRequest,
        down: Option<MachineId>,
    ) {
        let span = self
            .span(Some(tick_span), SpanKind::EdgeJob, now, now)
            .for_sharing(req.sharing.0)
            .with("vertex", job.vertex);
        self.telemetry.record_span(match down {
            Some(m) => span.on_machine(m.0).with("outcome", "blocked_machine_down"),
            None => span.with("outcome", "skipped_dependency"),
        });
    }

    /// Records one edge job's span (plus ship/land child spans for a
    /// cross-machine copy) under its wave. Every field is derived from
    /// coordinator-side simulation state.
    pub(super) fn record_job_span(
        &self,
        wave_span: u64,
        d: &Dispatch<'_>,
        result: &Result<push::EdgeRun>,
    ) {
        let (job, req) = (d.job, d.req);
        let edge = self.global.plan.edge(job.edge);
        let bid = push::batch_id(edge.output, job.from, job.to);
        let kind = if job.vertex == req.mv {
            SpanKind::MvApply
        } else {
            SpanKind::EdgeJob
        };
        let error;
        let (end, outcome, tuples) = match result {
            Ok(run) if run.deduped => (run.end, "deduped", run.tuples),
            Ok(run) => (run.end, "ok", run.tuples),
            Err(e) => {
                error = format!("error: {e}");
                (d.submit, error.as_str(), 0)
            }
        };
        let span = self
            .span(Some(wave_span), kind, d.submit, end)
            .on_machine(d.exec_machine.0)
            .for_sharing(req.sharing.0)
            .moving_batch(bid)
            .with("vertex", job.vertex)
            .with("op", op_name(&edge.op))
            .with("attempt", req.attempt)
            .with("tuples", tuples)
            .with("outcome", outcome);
        let id = span.id;
        self.telemetry.record_span(span);
        if let (Ok(run), Some(sm)) = (result, d.ship_machine) {
            if let Some(arrive) = run.ship_arrive {
                for (kind, start, end, machine) in [
                    (SpanKind::Ship, d.submit, arrive, sm),
                    (SpanKind::Land, arrive, run.end, d.exec_machine),
                ] {
                    self.telemetry.record_span(
                        self.span(Some(id), kind, start, end)
                            .on_machine(machine.0)
                            .for_sharing(req.sharing.0)
                            .moving_batch(bid),
                    );
                }
            }
        }
    }

    /// Records the retry decision for a transiently-failed push: a span
    /// from `now` to the retry's due time (zero-length when the push is
    /// abandoned instead).
    pub(super) fn record_retry_span(
        &self,
        tick_span: u64,
        req: &BatchRequest,
        now: Timestamp,
        due: Timestamp,
        outcome: &str,
    ) {
        self.telemetry.record_span(
            self.span(Some(tick_span), SpanKind::Retry, now, due)
                .for_sharing(req.sharing.0)
                .with("attempt", req.attempt)
                .with("outcome", outcome),
        );
    }

    /// One span covering the whole migration window, recorded at settle
    /// time from coordinator-side state only.
    pub(super) fn record_migration_span(&self, mig: &MigrationRt, now: Timestamp, outcome: &str) {
        if !self.telemetry.enabled() {
            return;
        }
        self.telemetry.record_span(
            self.span(None, SpanKind::Migration, mig.started, now)
                .on_machine(mig.to.0)
                .for_sharing(mig.id.0)
                .with("from", format!("m{}", mig.from.0))
                .with("to", format!("m{}", mig.to.0))
                .with("outcome", outcome),
        );
    }
}
