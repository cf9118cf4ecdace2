//! What the executor learns between ticks and what it owes from earlier
//! ones: heartbeats the agents send over the mailbox, completion events of
//! its own pushes, and the queue of pushes waiting out a retry backoff.

use super::batch::BatchRequest;
use super::spans::us;
use super::{Executor, PushRecord};
use smile_sim::Cluster;
use smile_types::{Result, SharingId, SimDuration, Timestamp, VertexId};
use std::cmp::Reverse;

/// Heartbeat publication period.
const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_secs(1);

/// An agent's periodic report (paper §8.1) of a base relation vertex's
/// last-modification timestamp, as stamped by its machine's (possibly
/// skewed) clock. It travels the mailbox with its delivery latency and
/// faults, so the executor's knowledge of remote timestamps lags reality as
/// it would in the deployed system.
#[derive(Clone, Copy, Debug)]
pub(super) struct Heartbeat {
    vertex: VertexId,
    ts: Timestamp,
}

/// A push attempt scheduled for re-execution after a transient fault.
/// Field order doubles as the min-heap key: `(due, sharing)` first, so
/// draining in heap order is draining in `(due, sharing)` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct PendingRetry {
    /// When the retry fires.
    pub due: Timestamp,
    /// The sharing to push.
    pub sharing: SharingId,
    /// The original push target (unchanged across retries).
    pub target: Timestamp,
    /// Attempt number this retry will be (1-based).
    pub attempt: u32,
}

/// A completion the executor scheduled for itself.
#[derive(Clone, Copy, Debug)]
pub(super) enum ExecEvent {
    /// A vertex's new timestamp becomes visible (its operation completed).
    Commit { vertex: VertexId, ts: Timestamp },
    /// A sharing's push, issued as `req` at `issued`, fully completed.
    PushDone {
        req: BatchRequest,
        issued: Timestamp,
        tuples: u64,
    },
}

impl Executor {
    /// Drains every retry whose backoff expired, in due order (ties by
    /// sharing id). A sharing has at most one pending retry: a sharing
    /// waiting out a retry is in flight, so neither the calendar nor a
    /// second push can give it another. A retry dies with its sharing
    /// (`Executor::remove_sharing`), as the storage its push would run over
    /// does.
    pub(super) fn collect_due_retries(&mut self, now: Timestamp) -> Vec<(SharingId, Timestamp, u32)> {
        // Early return without allocating on the overwhelmingly common
        // no-retries-due tick.
        match self.pending_retries.peek() {
            Some(r) if r.0.due <= now => {}
            _ => return Vec::new(),
        }
        let mut out: Vec<(SharingId, Timestamp, u32)> = Vec::new();
        while let Some(&Reverse(r)) = self.pending_retries.peek() {
            if r.due > now {
                break;
            }
            self.pending_retries.pop();
            debug_assert!(
                out.iter().all(|e| e.0 != r.sharing),
                "sharing {} had two pending retries",
                r.sharing
            );
            out.push((r.sharing, r.target, r.attempt));
        }
        out
    }

    pub(super) fn drain_events(&mut self, now: Timestamp) {
        while let Some((at, ev)) = self.events.pop_due(now) {
            match ev {
                ExecEvent::Commit { vertex, ts } => {
                    let slot = &mut self.visible_ts[vertex.index()];
                    if ts > *slot {
                        *slot = ts;
                    }
                }
                ExecEvent::PushDone {
                    req,
                    issued,
                    tuples,
                } => {
                    // Everything below reads the request, not the
                    // sharing's record: a sharing retired while its push
                    // was in flight has none, and its push completes all
                    // the same.
                    let (id, sla, target, staleness_before) =
                        (req.sharing, req.sla, req.target, req.staleness_before);
                    // The push no longer owns the sharing, and events drain
                    // before planning, so the guard chain re-evaluates it on
                    // this very tick.
                    self.cal.wake_now(id);
                    let actual = at - issued;
                    if self.config.feedback {
                        self.model.observe(req.predicted, actual);
                    }
                    // `issued − staleness_before` is the MV timestamp the
                    // push started from, so the advance is the target minus
                    // that.
                    let advanced = target - (issued - staleness_before);
                    let after = at - target;
                    self.push_records.push(PushRecord {
                        sharing: id,
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
                    // per-sharing attribution goes through the sharing's
                    // summary, not a per-sharing instrument family.
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
                    if let Some(rt) = self.sharings.get_mut(&id) {
                        rt.summary.record(headroom, missed, us(at));
                    }
                    // The monitor and flight recorder are observability
                    // surfaces, not accounting: quiet mode keeps their
                    // windows provably empty.
                    if self.telemetry.enabled() {
                        self.monitor
                            .record_push(sla.as_micros(), id.0, headroom, missed, us(at));
                        if missed {
                            self.telemetry.capture_incident(id.0, us(at), "sla_miss");
                        }
                    }
                }
            }
        }
    }

    /// Agents publish heartbeats for every base relation vertex. A crashed
    /// machine's agent publishes nothing, and every heartbeat rides the
    /// fault-prone bus (loss, duplication, latency spikes).
    pub(super) fn heartbeat_round(&mut self, cluster: &mut Cluster, now: Timestamp) -> Result<()> {
        if self
            .last_heartbeat
            .is_some_and(|t| now - t < HEARTBEAT_PERIOD)
        {
            return Ok(());
        }
        self.last_heartbeat = Some(now);
        for &(machine, vertex) in &self.base_beats {
            if cluster.faults.machine_down(machine, now) {
                continue;
            }
            // A base relation is consistent with itself as of the moment
            // the agent reads it: report the machine clock, which a push
            // window may end at, so the machine ingests past it from now on.
            let ts = cluster.clock.read(machine, now);
            cluster.machine_mut(machine)?.db.vouch(ts);
            self.bus
                .publish_faulty(now, Heartbeat { vertex, ts }, &mut cluster.faults);
        }
        Ok(())
    }

    pub(super) fn poll_bus(&mut self, now: Timestamp) {
        while let Some(Heartbeat { vertex, ts }) = self.bus.pop_due(now) {
            // Late and duplicate deliveries never move the cache back.
            let seen = &mut self.heartbeats[vertex.index()];
            if seen.is_none_or(|seen| ts > seen) {
                *seen = Some(ts);
            }
        }
    }
}
