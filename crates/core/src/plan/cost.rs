//! Critical time path and dollar cost of sharing plans (paper §5.1–5.2):
//! read off a whole plan, or tallied as a plan is built ([`Tally`]).

use crate::plan::build::{Est, Form, Sink};
use crate::plan::dag::{Edge, EdgeOp, Plan, Vertex, VertexKind};
use crate::plan::sig::ExprSig;
use crate::plan::timecost::TimeCostModel;
use smile_sim::PriceSheet;
use smile_storage::join::JoinOn;
use smile_storage::{AggregateSpec, Predicate};
use smile_types::{MachineId, RelationId, Result, Schema, SimDuration, SmileError, VertexId};
use std::collections::HashMap;

/// The one scope plan metrics have: the whole plan. A sharing's share of it
/// is its MV's ancestors, read off [`path_lengths`] or walked from the MV
/// ([`Plan::upstream_mask`]). The name stays only because the frozen
/// `benchmark/` harness passes it to [`machine_utilization`]; drop it with
/// that argument in the next `benchmark` PR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Every vertex and every edge that still produces its output.
    All,
}

/// Per vertex, the longest transformation path from a plan source to it,
/// in wall time, for moving `x` seconds worth of updates; an error on a
/// cyclic plan. A sharing's critical path is its MV's entry: the subgraph
/// serving it is exactly the MV's ancestors, and a path only grows along
/// an edge, so none of them lies further out than the MV.
///
/// Edge weight = the time model's estimate at `n = rate · x` tuples. The
/// plan is a DAG, so this is a single topological sweep.
pub fn path_lengths(plan: &Plan, x_secs: f64, model: &TimeCostModel) -> Result<Vec<SimDuration>> {
    let mut dist: Vec<SimDuration> = vec![SimDuration::ZERO; plan.vertex_count()];
    for v in plan.topo_order()? {
        let Some(edge) = plan.producer(v) else { continue };
        let out = plan.vertex(v);
        let n = out.est_rate * x_secs;
        let w = model.edge_estimate(&edge.op, n, out.est_tuple_bytes);
        let arrive = edge.inputs.iter().map(|i| dist[i.index()]).max();
        dist[v.index()] = arrive.unwrap_or(SimDuration::ZERO) + w;
    }
    Ok(dist)
}

/// `CP(p, x)`: the critical time path — the longest of [`path_lengths`],
/// to whichever MV it ends at. A cyclic plan has none and reports an
/// unmeetable one.
pub fn critical_path(plan: &Plan, x_secs: f64, model: &TimeCostModel) -> SimDuration {
    match path_lengths(plan, x_secs, model) {
        Ok(dist) => dist.into_iter().max().unwrap_or(SimDuration::ZERO),
        Err(_) => SimDuration::from_secs(u64::MAX / 2_000_000),
    }
}

/// A test oracle for a sharing's critical path, independent of reading the
/// MV's entry off [`path_lengths`]: the sweep restricted to the vertices
/// the MV lies downstream of, its longest path taken.
#[cfg(test)]
pub(crate) fn restricted_cp(
    plan: &Plan,
    mv: smile_types::VertexId,
    x_secs: f64,
    model: &TimeCostModel,
) -> SimDuration {
    let mut dist = vec![SimDuration::ZERO; plan.vertex_count()];
    for v in plan.topo_order().unwrap() {
        let Some(edge) = plan.producer(v).filter(|_| plan.downstream(v).contains(&mv)) else {
            continue;
        };
        let out = plan.vertex(v);
        let w = model.edge_estimate(&edge.op, out.est_rate * x_secs, out.est_tuple_bytes);
        let arrive = edge.inputs.iter().map(|i| dist[i.index()]).max();
        dist[v.index()] = arrive.unwrap_or(SimDuration::ZERO) + w;
    }
    dist.into_iter().max().unwrap_or(SimDuration::ZERO)
}

/// Steady-state resource consumption of a plan, as *rates*.
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
/// serves — over the vertices `includes` admits and every edge that still
/// produces an admitted output, with the storage footprint summed over
/// `vertices` in the order given. Float addition is not associative, so a
/// caller that must reproduce to the bit what a *renumbered* plan would
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
        if !e.attached(plan) || !includes(out) {
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
pub fn res_cost(plan: &Plan, model: &TimeCostModel, prices: &PriceSheet) -> f64 {
    let r = resource_rates_in(plan, plan.vertices().iter(), |_| true, model);
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
    model: &TimeCostModel,
    prices: &PriceSheet,
    sla: SimDuration,
    penalty_per_tuple: f64,
    mv_rate: f64,
) -> f64 {
    let rates = resource_rates_in(plan, plan.vertices().iter(), |_| true, model);
    let cp = critical_path(plan, 1.0, model);
    eq1(&rates, cp, model, prices, (sla, penalty_per_tuple), mv_rate)
}

/// Eq. 1 ([`plan_cost`]) of a plan with resource rates `rates` and
/// critical path `cp`, for a sharing with `(SLA, penalty per tuple)`
/// `terms` whose MV receives `mv_rate` tuples per second.
fn eq1(
    rates: &ResourceRates,
    cp: SimDuration,
    model: &TimeCostModel,
    prices: &PriceSheet,
    (sla, penalty_per_tuple): (SimDuration, f64),
    mv_rate: f64,
) -> f64 {
    let s = sla.as_secs_f64().max(1e-6);
    let rescost = prices.dollars_per_sec(rates.cpu_util, rates.net_bytes_per_sec, rates.stored_bytes);
    let cp = cp.as_secs_f64();
    let mu = 1.0 / model.slowest_per_tuple().as_secs_f64().max(1e-9);
    let late = mm1_late_fraction(mv_rate, mu, s);
    rescost * (1.0 + cp / s) + late * mv_rate * penalty_per_tuple
}

/// Per-machine CPU utilization of the plan (operator-seconds per second),
/// for capacity accounting.
pub fn machine_utilization(
    plan: &Plan,
    _scope: Scope,
    model: &TimeCostModel,
) -> HashMap<smile_types::MachineId, f64> {
    let edges = plan.edges().iter().filter(|e| e.attached(plan));
    edge_utilization(HashMap::new(), plan, edges, model)
}

/// [`machine_utilization`] over a caller-chosen set of `plan`'s edges (the
/// executor's live ones), added onto `load` edge by edge in iteration order,
/// so a load grown with a plan is bit-equal to one sum over all its edges.
pub fn edge_utilization<'a>(
    mut load: HashMap<smile_types::MachineId, f64>,
    plan: &Plan,
    edges: impl Iterator<Item = &'a Edge>,
    model: &TimeCostModel,
) -> HashMap<smile_types::MachineId, f64> {
    for e in edges {
        let per_tuple = model.op_model(&e.op).per_tuple.as_secs_f64();
        let rate = plan.vertex(e.output).est_rate;
        *load.entry(e.runs_on(plan)).or_default() += per_tuple * rate;
    }
    load
}

/// What plan search keeps of a relation's structure (the [`Form`] a
/// [`Tally`] takes): its signature while it is one base relation or a
/// selection over one, and its arity. Those signatures are the only ones a
/// plan fragment can name twice — a query that names a base relation twice
/// reaches its vertex pair twice, and its replicas when both copies move to
/// one machine — so they are what [`Plan::add_vertex`] deduplicates. A
/// compound relation (a join, one of its halves, a projection or an
/// aggregate) covers more of the query at each join step than any relation
/// before it, so each is built once per fragment and carries no signature.
#[derive(Clone, Debug)]
pub struct Shape {
    sig: Option<ExprSig>,
    arity: usize,
}

impl Form for Shape {
    fn base(rel: RelationId, schema: &Schema) -> Self {
        Self {
            sig: Some(ExprSig::base(rel)),
            arity: schema.arity(),
        }
    }

    fn filtered(&self, pred: &Predicate) -> Self {
        Self {
            sig: self.sig.clone().map(|sig| ExprSig::filter(pred.clone(), sig)),
            arity: self.arity,
        }
    }

    fn joined(left: &Self, right: &Self, _on: &JoinOn) -> Self {
        Self {
            sig: None,
            arity: left.arity + right.arity,
        }
    }

    fn half(&self, _: &Self, _: &Self, _: &JoinOn, _: bool, _: (MachineId, MachineId)) -> Self {
        Self {
            sig: None,
            arity: self.arity,
        }
    }

    fn arity(&self) -> usize {
        self.arity
    }

    /// Infallible: whether an aggregate fits the relation's column types is
    /// a property of the query, not of the join order, and plan search
    /// checks it once.
    fn finished(
        self,
        projection: Option<&[usize]>,
        aggregate: Option<&AggregateSpec>,
    ) -> Result<Self> {
        let arity = match (aggregate, projection) {
            (Some(spec), _) => spec.group_cols.len() + 1 + spec.aggs.len(),
            (None, Some(cols)) => cols.len(),
            (None, None) => return Ok(self),
        };
        Ok(Self { sig: None, arity })
    }
}

/// A plan's cost, grown as the plan is built: the [`Sink`] plan search
/// costs its candidates in. It takes the vertices and edges a
/// [`PlanBuilder`](crate::plan::build::PlanBuilder) appends, in the same
/// order, and adds each one's terms of [`resource_rates_in`],
/// [`edge_utilization`] and [`path_lengths`] onto what its fragment has
/// summed so far. A candidate's plan is its sub-plan followed by what the
/// extension appends, so resuming the sub-plan's sums in append order
/// reproduces a walk over the whole candidate plan to the bit; a path
/// length is integer microseconds, added and maxed. It deduplicates a
/// vertex with a single-relation signature ([`Shape`]) and the edge into
/// one, and refuses a conflicting edge, as [`Plan`] does.
#[derive(Clone, Debug)]
pub struct Tally<'m> {
    model: &'m TimeCostModel,
    /// Vertices and edges the plan holds.
    size: (usize, usize),
    rates: ResourceRates,
    /// Per machine an edge runs on, in first-use order, its CPU load.
    load: Vec<(MachineId, f64)>,
    critical_path: SimDuration,
    /// The vertices a later step can name: every one with a signature, and
    /// those added since the last [`Tally::keep`].
    known: Vec<Known>,
}

/// One vertex a [`Tally`] can still be asked about.
#[derive(Clone, Debug)]
struct Known {
    id: VertexId,
    kind: VertexKind,
    /// Its [`Shape`]'s signature: set iff it can be met again.
    sig: Option<ExprSig>,
    machine: MachineId,
    est: Est,
    /// Its entry of [`path_lengths`] at one second of updates.
    dist: SimDuration,
    /// The edge producing it, kept for a vertex that can be met again.
    producer: Option<Edge>,
}

impl<'m> Tally<'m> {
    /// The tally of an empty plan.
    pub fn new(model: &'m TimeCostModel) -> Self {
        Self {
            model,
            size: (0, 0),
            rates: ResourceRates::default(),
            load: Vec::new(),
            critical_path: SimDuration::ZERO,
            known: Vec::new(),
        }
    }

    /// Forgets every vertex but those a later step can name: the ones with
    /// a signature and `keep` (the fragment's output pair).
    pub fn keep(&mut self, keep: [VertexId; 2]) {
        self.known.retain(|k| k.sig.is_some() || keep.contains(&k.id));
    }

    /// Vertices and edges of the plan tallied.
    pub fn size(&self) -> (usize, usize) {
        self.size
    }

    /// [`critical_path`] of the plan tallied, at one second of updates.
    pub fn critical_path(&self) -> SimDuration {
        self.critical_path
    }

    /// [`machine_utilization`] of the plan tallied, as `(machine, load)`.
    pub fn load(&self) -> impl Iterator<Item = (MachineId, f64)> + '_ {
        self.load.iter().copied()
    }

    /// [`plan_cost`] of the plan tallied.
    pub fn plan_cost(&self, prices: &PriceSheet, sla: SimDuration, penalty_per_tuple: f64, mv_rate: f64) -> f64 {
        let terms = (sla, penalty_per_tuple);
        eq1(&self.rates, self.critical_path, self.model, prices, terms, mv_rate)
    }
}

impl Sink for Tally<'_> {
    type Form = Shape;

    fn vertex(&mut self, kind: VertexKind, form: &Shape, machine: MachineId, is_base: bool, est: Est) -> VertexId {
        let same = |k: &&Known| k.kind == kind && k.machine == machine && k.sig == form.sig;
        if let Some(existing) = self.known.iter().filter(|_| form.sig.is_some()).find(same) {
            return existing.id;
        }
        let id = VertexId::new(self.size.0 as u32);
        self.size.0 += 1;
        if kind == VertexKind::Relation && !is_base {
            self.rates.stored_bytes += est.card * est.tuple_bytes;
        }
        let (sig, dist) = (form.sig.clone(), SimDuration::ZERO);
        self.known.push(Known { id, kind, sig, machine, est, dist, producer: None });
        id
    }

    fn edge(
        &mut self,
        op: EdgeOp,
        inputs: &[VertexId],
        output: VertexId,
        filter: &Predicate,
        projection: Option<&[usize]>,
        _aggregate: Option<&AggregateSpec>,
    ) -> Result<usize> {
        let dist = |v: VertexId| self.known.iter().rev().find(|k| k.id == v).map(|k| k.dist);
        let arrive = inputs.iter().map(|&i| dist(i)).max().flatten();
        let Some(out) = self.known.iter_mut().rev().find(|k| k.id == output) else {
            return Err(SmileError::InvalidPlan(format!("edge output {output} was never tallied")));
        };
        // `resource_rates_in` and `edge_utilization`'s term, then
        // `path_lengths`'s, each as those walks compute them: `x` is one
        // second, and a machine's load starts from a zero entry.
        let term = self.model.op_model(&op).per_tuple.as_secs_f64() * out.est.rate;
        let w = self.model.edge_estimate(&op, out.est.rate * 1.0, out.est.tuple_bytes);
        let copy = matches!(op, EdgeOp::CopyDelta);
        if out.sig.is_some() {
            let (inputs, filter, projection) = (inputs.to_vec(), filter.clone(), projection.map(<[usize]>::to_vec));
            let edge = Edge { id: self.size.1, op, inputs, output, filter, projection, aggregate: None };
            if let Some(existing) = &out.producer {
                return existing.dedup(&edge);
            }
            out.producer = Some(edge);
        }
        self.rates.cpu_util += term;
        match self.load.iter_mut().find(|(m, _)| *m == out.machine) {
            Some((_, load)) => *load += term,
            None => self.load.push((out.machine, 0.0 + term)),
        }
        if copy {
            self.rates.net_bytes_per_sec += out.est.rate * out.est.tuple_bytes;
        }
        out.dist = arrive.unwrap_or(SimDuration::ZERO) + w;
        self.critical_path = self.critical_path.max(out.dist);
        self.size.1 += 1;
        Ok(self.size.1 - 1)
    }
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
        p
    }

    #[test]
    fn cp_grows_with_window() {
        let p = copy_plan(100.0);
        let m = TimeCostModel::paper_defaults();
        let cp1 = critical_path(&p, 1.0, &m);
        let cp10 = critical_path(&p, 10.0, &m);
        assert!(cp10 > cp1);
        // Path = copy + apply of 100 tuples plus fixed overheads & wire.
        let expected = m.edge_estimate(&EdgeOp::CopyDelta, 100.0, 24.0)
            + m.edge_estimate(&EdgeOp::DeltaToRel, 100.0, 24.0);
        assert_eq!(cp1, expected);
    }

    /// Path lengths only grow along an edge, so the relation at the end of
    /// the copy-and-apply chain — the MV — carries the critical path.
    #[test]
    fn the_mv_ends_the_critical_path() {
        let p = copy_plan(100.0);
        let m = TimeCostModel::paper_defaults();
        let dist = path_lengths(&p, 1.0, &m).unwrap();
        let (d0, d1, r1) = (dist[0], dist[1], dist[2]);
        assert!(d0 == SimDuration::ZERO && d0 < d1 && d1 < r1, "{dist:?}");
        assert_eq!(r1, critical_path(&p, 1.0, &m));
    }

    #[test]
    fn rescost_scales_with_rate() {
        let m = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_cross_zone();
        let slow = res_cost(&copy_plan(10.0), &m, &prices);
        let fast = res_cost(&copy_plan(1000.0), &m, &prices);
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
        let loose = plan_cost(&p, &m, &prices, SimDuration::from_secs(60), 0.001, 100.0);
        let tight = plan_cost(&p, &m, &prices, SimDuration::from_secs(1), 0.001, 100.0);
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
