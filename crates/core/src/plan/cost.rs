//! Critical time path and dollar cost of sharing plans (paper §5.1–5.2).

use crate::plan::dag::{Edge, EdgeOp, Plan, Vertex, VertexKind};
use crate::plan::timecost::TimeCostModel;
use smile_sim::PriceSheet;
use smile_types::{SharingId, SimDuration};
use std::collections::HashMap;

/// Scope restriction for plan metrics: the whole (global) plan, or only the
/// subgraph serving one sharing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Every vertex and every edge that still produces its output.
    All,
    /// Only vertices/edges whose `SHR` set contains the sharing.
    Sharing(SharingId),
}

impl Scope {
    fn includes(&self, sharings: &std::collections::BTreeSet<SharingId>) -> bool {
        match self {
            Scope::All => true,
            Scope::Sharing(s) => sharings.contains(s),
        }
    }
}

/// `CP(p, x)`: the critical time path — the longest transformation path, in
/// wall time, for moving `x` seconds worth of updates from the base
/// relations to the MV(s) in scope.
///
/// Edge weight = the time model's estimate at `n = rate · x` tuples. The
/// plan is a DAG, so the longest path is a single topological sweep.
pub fn critical_path(plan: &Plan, scope: Scope, x_secs: f64, model: &TimeCostModel) -> SimDuration {
    let order = match plan.topo_order() {
        Ok(o) => o,
        Err(_) => return SimDuration::from_secs(u64::MAX / 2_000_000),
    };
    let mut dist: Vec<SimDuration> = vec![SimDuration::ZERO; plan.vertex_count()];
    let mut best = SimDuration::ZERO;
    for v in order {
        let Some(edge) = plan.producer(v) else {
            continue;
        };
        let out = plan.vertex(v);
        if !scope.includes(&out.sharings) {
            continue;
        }
        let n = out.est_rate * x_secs;
        let w = model.edge_estimate(&edge.op, n, out.est_tuple_bytes);
        let arrive = edge
            .inputs
            .iter()
            .map(|i| dist[i.index()])
            .max()
            .unwrap_or(SimDuration::ZERO);
        dist[v.index()] = arrive + w;
        if dist[v.index()] > best {
            best = dist[v.index()];
        }
    }
    best
}

/// Steady-state resource consumption of the plan in scope, as *rates*.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceRates {
    /// CPU operator-seconds per second (summed over machines).
    pub cpu_util: f64,
    /// Network bytes per second.
    pub net_bytes_per_sec: f64,
    /// Bytes held on disk by materialized vertices.
    pub stored_bytes: f64,
}

/// `resCost` inputs: sums each edge's CPU utilization (service seconds per
/// second of updates), each `CopyDelta`'s byte rate, and each materialized
/// vertex's storage footprint, each counted whole however many sharings it
/// serves.
pub fn resource_rates(plan: &Plan, scope: Scope, model: &TimeCostModel) -> ResourceRates {
    let includes = |v: &Vertex| scope.includes(&v.sharings);
    resource_rates_in(plan, plan.vertices().iter(), includes, model)
}

/// [`resource_rates`] over the vertices `includes` admits, and every edge
/// that still produces an admitted output, with the storage footprint summed
/// over `vertices` in the order given. Float addition is not associative, so
/// a caller that must reproduce to the bit what a *renumbered* plan would
/// report (hill climbing costs a candidate before collecting it) passes the
/// vertices in that plan's id order.
pub fn resource_rates_in<'p>(
    plan: &'p Plan,
    vertices: impl Iterator<Item = &'p Vertex>,
    includes: impl Fn(&Vertex) -> bool,
    model: &TimeCostModel,
) -> ResourceRates {
    let mut r = ResourceRates::default();
    for e in plan.edges() {
        let out = plan.vertex(e.output);
        if e.shr(plan).is_none() || !includes(out) {
            continue;
        }
        // CPU seconds consumed per second: marginal service time at the
        // steady arrival rate (fixed overheads amortize over batching and
        // are charged by the simulator, not the steady-state estimate).
        let per_tuple = model.op_model(&e.op).per_tuple.as_secs_f64();
        r.cpu_util += per_tuple * out.est_rate;
        if matches!(e.op, EdgeOp::CopyDelta) {
            r.net_bytes_per_sec += out.est_rate * out.est_tuple_bytes;
        }
    }
    for v in vertices {
        if v.is_base || v.kind != VertexKind::Relation || !includes(v) {
            continue;
        }
        r.stored_bytes += v.est_card * v.est_tuple_bytes;
    }
    r
}

/// `resCost(p)` in dollars per second.
pub fn res_cost(plan: &Plan, scope: Scope, model: &TimeCostModel, prices: &PriceSheet) -> f64 {
    let r = resource_rates(plan, scope, model);
    prices.dollars_per_sec(r.cpu_util, r.net_bytes_per_sec, r.stored_bytes)
}

/// Fraction of tuples whose M/M/1 sojourn time exceeds the staleness SLA
/// `s`: `P(t > s) = e^{(λ−µ)s}` (paper §5.2). Saturated queues (λ ≥ µ)
/// miss the SLA with probability one.
pub fn mm1_late_fraction(lambda: f64, mu: f64, s_secs: f64) -> f64 {
    if mu <= lambda {
        return 1.0;
    }
    (-(mu - lambda) * s_secs).exp()
}

/// The full plan cost of Eq. 1:
///
/// ```text
/// COST(p) = resCost(p) · (1 + CP(p)/s) + e^{(λ−µ)s} · λ · pens
/// ```
///
/// * the `CP/s` term over-provisions resources inversely to the slack
///   between the critical path and the SLA;
/// * the penalty term estimates dollars/second of late-tuple penalties from
///   the M/M/1 tail, where `λ` is the MV's tuple arrival rate and `µ` the
///   service rate of the most time-consuming operator. (The paper's formula
///   multiplies `pens` by the late *fraction*; we additionally multiply by
///   `λ` so the term has dollars-per-second units consistent with
///   `resCost` — documented substitution.)
pub fn plan_cost(
    plan: &Plan,
    scope: Scope,
    model: &TimeCostModel,
    prices: &PriceSheet,
    sla: SimDuration,
    penalty_per_tuple: f64,
    mv_rate: f64,
) -> f64 {
    let s = sla.as_secs_f64().max(1e-6);
    let rescost = res_cost(plan, scope, model, prices);
    let cp = critical_path(plan, scope, 1.0, model).as_secs_f64();
    let mu = 1.0 / model.slowest_per_tuple().as_secs_f64().max(1e-9);
    let late = mm1_late_fraction(mv_rate, mu, s);
    rescost * (1.0 + cp / s) + late * mv_rate * penalty_per_tuple
}

/// Per-machine CPU utilization of the plan in scope (operator-seconds per
/// second), for capacity accounting.
pub fn machine_utilization(
    plan: &Plan,
    scope: Scope,
    model: &TimeCostModel,
) -> HashMap<smile_types::MachineId, f64> {
    let in_scope = |e: &&Edge| e.shr(plan).is_some_and(|shr| scope.includes(shr));
    edge_utilization(plan, plan.edges().iter().filter(in_scope), model)
}

/// [`machine_utilization`] over a caller-chosen set of `plan`'s edges (the
/// running platform sums the edges the executor holds live).
pub fn edge_utilization<'a>(
    plan: &Plan,
    edges: impl Iterator<Item = &'a Edge>,
    model: &TimeCostModel,
) -> HashMap<smile_types::MachineId, f64> {
    let mut load: HashMap<smile_types::MachineId, f64> = HashMap::new();
    for e in edges {
        let per_tuple = model.op_model(&e.op).per_tuple.as_secs_f64();
        let rate = plan.vertex(e.output).est_rate;
        *load.entry(e.runs_on(plan)).or_default() += per_tuple * rate;
    }
    load
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::dag::{EdgeOp, Plan, VertexKind};
    use crate::plan::sig::ExprSig;
    use smile_storage::Predicate;
    use smile_types::{Column, ColumnType, MachineId, RelationId, Schema};

    fn schema() -> Schema {
        Schema::new(vec![Column::new("k", ColumnType::I64)], vec![0])
    }

    /// Builds base Δ on m0 → copy to m1 → apply to relation on m1.
    fn copy_plan(rate: f64) -> Plan {
        let mut p = Plan::new();
        let sig = ExprSig::base(RelationId::new(0));
        let d0 = p.add_vertex(
            VertexKind::Delta,
            sig.clone(),
            MachineId::new(0),
            schema(),
            true,
            rate,
            0.0,
            24.0,
        );
        let d1 = p.add_vertex(
            VertexKind::Delta,
            sig.clone(),
            MachineId::new(1),
            schema(),
            false,
            rate,
            0.0,
            24.0,
        );
        let r1 = p.add_vertex(
            VertexKind::Relation,
            sig,
            MachineId::new(1),
            schema(),
            false,
            rate,
            1000.0,
            24.0,
        );
        p.add_edge(EdgeOp::CopyDelta, vec![d0], d1, Predicate::True, None)
            .unwrap();
        p.add_edge(EdgeOp::DeltaToRel, vec![d1], r1, Predicate::True, None)
            .unwrap();
        // Everything off the base serves sharing 0.
        for v in [d1, r1] {
            p.vertex_mut(v).sharings.insert(SharingId::new(0));
        }
        p
    }

    #[test]
    fn cp_grows_with_window() {
        let p = copy_plan(100.0);
        let m = TimeCostModel::paper_defaults();
        let cp1 = critical_path(&p, Scope::All, 1.0, &m);
        let cp10 = critical_path(&p, Scope::All, 10.0, &m);
        assert!(cp10 > cp1);
        // Path = copy + apply of 100 tuples plus fixed overheads & wire.
        let expected = m.edge_estimate(&EdgeOp::CopyDelta, 100.0, 24.0)
            + m.edge_estimate(&EdgeOp::DeltaToRel, 100.0, 24.0);
        assert_eq!(cp1, expected);
    }

    #[test]
    fn scope_restricts_cp() {
        let p = copy_plan(100.0);
        let m = TimeCostModel::paper_defaults();
        let other = Scope::Sharing(SharingId::new(9));
        assert_eq!(critical_path(&p, other, 1.0, &m), SimDuration::ZERO);
        assert!(critical_path(&p, Scope::Sharing(SharingId::new(0)), 1.0, &m) > SimDuration::ZERO);
    }

    #[test]
    fn rescost_scales_with_rate() {
        let m = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_cross_zone();
        let slow = res_cost(&copy_plan(10.0), Scope::All, &m, &prices);
        let fast = res_cost(&copy_plan(1000.0), Scope::All, &m, &prices);
        assert!(fast > slow * 10.0);
    }

    #[test]
    fn mm1_tail_behaviour() {
        // Stable queue: tail decays with slack and with the SLA.
        let loose = mm1_late_fraction(10.0, 100.0, 1.0);
        let tight = mm1_late_fraction(90.0, 100.0, 1.0);
        assert!(loose < tight);
        assert!(mm1_late_fraction(10.0, 100.0, 2.0) < loose);
        // Saturated queue always misses.
        assert_eq!(mm1_late_fraction(100.0, 100.0, 1.0), 1.0);
        assert_eq!(mm1_late_fraction(200.0, 100.0, 5.0), 1.0);
    }

    #[test]
    fn plan_cost_increases_as_sla_tightens() {
        let p = copy_plan(100.0);
        let m = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_cross_zone();
        let loose = plan_cost(
            &p,
            Scope::All,
            &m,
            &prices,
            SimDuration::from_secs(60),
            0.001,
            100.0,
        );
        let tight = plan_cost(
            &p,
            Scope::All,
            &m,
            &prices,
            SimDuration::from_secs(1),
            0.001,
            100.0,
        );
        assert!(tight > loose);
    }

    #[test]
    fn utilization_lands_on_running_machines() {
        let p = copy_plan(100.0);
        let m = TimeCostModel::paper_defaults();
        let util = machine_utilization(&p, Scope::All, &m);
        // Both edges run on m1 (their outputs live there).
        assert!(util[&MachineId::new(1)] > 0.0);
        assert!(!util.contains_key(&MachineId::new(0)));
    }
}
