//! Time cost model of the four edge operators.
//!
//! The paper measures the time to push `n` tuples through each edge type and
//! finds it linear in `n` with operator-specific slopes (Figure 5). The
//! model here carries one linear fit per operator, plus the network terms
//! (`bytes/bandwidth + latency`) for `CopyDelta`.
//!
//! Two instances of the model exist at run time: the *ground truth* used by
//! the simulator to assign service times, and the executor's *calibrated*
//! copy whose [`TimeCostModel::observe`] feedback loop tracks realized push
//! durations (including queueing) so the critical-path estimates stay honest
//! when machines get loaded (paper §8.2, Figure 14).

use crate::plan::dag::EdgeOp;
use smile_types::SimDuration;

/// `duration(n) = fixed + per_tuple * n`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearModel {
    /// Per-invocation overhead.
    pub fixed: SimDuration,
    /// Marginal cost per tuple.
    pub per_tuple: SimDuration,
}

impl LinearModel {
    /// Evaluates the model at `n` tuples.
    pub fn duration(&self, n: f64) -> SimDuration {
        self.fixed + SimDuration::from_secs_f64(self.per_tuple.as_secs_f64() * n.max(0.0))
    }
}

/// Index order of the per-operator models.
const OP_DELTA_TO_REL: usize = 0;
const OP_COPY_DELTA: usize = 1;
const OP_JOIN: usize = 2;
const OP_UNION: usize = 3;

/// The learned inflation's ceiling; the push calendar relies on no feedback
/// passing it.
pub const MAX_INFLATION: f64 = 50.0;

/// Linear time model per operator plus network parameters and the feedback
/// inflation factor.
#[derive(Clone, Debug)]
pub struct TimeCostModel {
    ops: [LinearModel; 4],
    /// Network bandwidth assumed for `CopyDelta` wire time (bytes/second).
    pub net_bandwidth: f64,
    /// One-way network latency per `CopyDelta`.
    pub net_latency: SimDuration,
    /// Multiplicative correction learned from observed push durations
    /// (≥ 1 when machines are loaded and pushes queue).
    inflation: f64,
    /// EWMA smoothing weight for `observe`.
    alpha: f64,
}

impl TimeCostModel {
    /// Default calibration of this reproduction's embedded engine. The
    /// paper's Figure 5 measured PostgreSQL-backed operators at
    /// DeltaToRel ≈ 0.55 ms/tuple, CopyDelta ≈ 25 µs/tuple, Join ≈ 0.5
    /// ms/output tuple, Union ≈ 70 µs/tuple; the in-memory engine here is
    /// about an order of magnitude faster, so the defaults keep the same
    /// *ordering and linearity* at one tenth the slopes (the Figure 5
    /// harness re-measures them).
    pub fn paper_defaults() -> Self {
        let us = SimDuration::from_micros;
        Self {
            ops: [
                LinearModel {
                    fixed: us(2_000),
                    per_tuple: us(55),
                },
                LinearModel {
                    fixed: us(1_000),
                    per_tuple: us(3),
                },
                LinearModel {
                    fixed: us(2_000),
                    per_tuple: us(50),
                },
                LinearModel {
                    fixed: us(1_000),
                    per_tuple: us(7),
                },
            ],
            net_bandwidth: 125e6,
            net_latency: SimDuration::from_millis(1),
            inflation: 1.0,
            alpha: 0.2,
        }
    }

    fn op_index(op: &EdgeOp) -> usize {
        match op {
            EdgeOp::DeltaToRel => OP_DELTA_TO_REL,
            EdgeOp::CopyDelta => OP_COPY_DELTA,
            EdgeOp::Join { .. } => OP_JOIN,
            EdgeOp::Union => OP_UNION,
        }
    }

    /// The linear model for an operator.
    pub fn op_model(&self, op: &EdgeOp) -> &LinearModel {
        &self.ops[Self::op_index(op)]
    }

    /// CPU service time of moving `n` tuples through an edge (no queueing,
    /// no network), as the simulator charges it.
    pub fn edge_service(&self, op: &EdgeOp, n: f64, _tuple_bytes: f64) -> SimDuration {
        self.ops[Self::op_index(op)].duration(n)
    }

    /// Estimated wall time of an edge processing `n` tuples including
    /// network terms and the learned inflation — the weight used by
    /// critical-path computation.
    pub fn edge_estimate(&self, op: &EdgeOp, n: f64, tuple_bytes: f64) -> SimDuration {
        let mut d = self.ops[Self::op_index(op)].duration(n);
        if matches!(op, EdgeOp::CopyDelta) {
            let wire = (n.max(0.0) * tuple_bytes) / self.net_bandwidth;
            d += SimDuration::from_secs_f64(wire) + self.net_latency;
        }
        d.mul_f64(self.inflation)
    }

    /// Feedback: records that an edge predicted to take `predicted`
    /// actually took `actual` (queueing included). The inflation factor
    /// follows the ratio with EWMA smoothing, clamped to `[1, MAX_INFLATION]`
    /// — the model never assumes machines are faster than calibration, and
    /// a runaway ratio (one stalled push) must not poison future estimates.
    pub fn observe(&mut self, predicted: SimDuration, actual: SimDuration) {
        let p = predicted.as_secs_f64().max(1e-6);
        let ratio = (actual.as_secs_f64() / p).clamp(0.02, 50.0);
        // The observed duration already includes the current inflation;
        // normalize so the EWMA tracks the raw correction.
        let raw = ratio * self.inflation;
        self.inflation += self.alpha * (raw - self.inflation);
        self.inflation = self.inflation.clamp(1.0, MAX_INFLATION);
    }

    /// Current inflation factor.
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    /// The largest per-tuple service time across operators — the `1/µ` of
    /// the M/M/1 SLA-penalty model ("the most time consuming operator").
    pub fn slowest_per_tuple(&self) -> SimDuration {
        self.ops
            .iter()
            .map(|m| m.per_tuple)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

impl Default for TimeCostModel {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smile_storage::join::JoinOn;
    use smile_storage::Predicate;

    fn join_op() -> EdgeOp {
        EdgeOp::Join {
            on: JoinOn::on(0, 0),
            delta_side: crate::plan::dag::DeltaSide::Left,
            snapshot_filter: Predicate::True,
        }
    }

    #[test]
    fn durations_are_linear() {
        let m = TimeCostModel::paper_defaults();
        let d0 = m.edge_service(&EdgeOp::Union, 0.0, 24.0);
        let d100 = m.edge_service(&EdgeOp::Union, 100.0, 24.0);
        let d200 = m.edge_service(&EdgeOp::Union, 200.0, 24.0);
        assert_eq!(d200 - d100, d100 - d0);
        assert!(d100 > d0);
    }

    #[test]
    fn copy_estimate_includes_network() {
        let m = TimeCostModel::paper_defaults();
        let cpu = m.edge_service(&EdgeOp::CopyDelta, 1000.0, 100.0);
        let est = m.edge_estimate(&EdgeOp::CopyDelta, 1000.0, 100.0);
        assert!(est > cpu + m.net_latency - SimDuration::from_micros(1));
    }

    #[test]
    fn operators_have_distinct_slopes() {
        let m = TimeCostModel::paper_defaults();
        let join = m.edge_service(&join_op(), 1000.0, 24.0);
        let copy = m.edge_service(&EdgeOp::CopyDelta, 1000.0, 24.0);
        assert!(join > copy * 5);
    }

    #[test]
    fn feedback_inflates_under_load_and_recovers() {
        let mut m = TimeCostModel::paper_defaults();
        let pred = SimDuration::from_millis(100);
        for _ in 0..50 {
            m.observe(pred, SimDuration::from_millis(300));
        }
        assert!(m.inflation() > 2.5, "inflation = {}", m.inflation());
        let inflated_est = m.edge_estimate(&EdgeOp::Union, 100.0, 24.0);
        assert!(inflated_est > m.edge_service(&EdgeOp::Union, 100.0, 24.0) * 2);
        // Load clears: observed durations match the *uninflated* prediction.
        for _ in 0..100 {
            let predicted = pred.mul_f64(m.inflation());
            m.observe(predicted, pred);
        }
        assert!(m.inflation() < 1.3, "inflation = {}", m.inflation());
    }

    #[test]
    fn inflation_never_drops_below_one() {
        let mut m = TimeCostModel::paper_defaults();
        for _ in 0..100 {
            m.observe(SimDuration::from_millis(100), SimDuration::from_millis(1));
        }
        assert!((m.inflation() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slowest_per_tuple_is_the_apply_slope() {
        let m = TimeCostModel::paper_defaults();
        assert_eq!(m.slowest_per_tuple(), SimDuration::from_micros(55));
    }
}
