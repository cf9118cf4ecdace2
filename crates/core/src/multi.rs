//! Multi-sharing optimization: the global plan and plumbing (paper §7).
//!
//! The global plan `D` merges every admitted sharing's plan, discarding
//! duplicate vertices and edges (same signature, machine and producer).
//! Remaining commonality is exploited by **plumbing operations**:
//!
//! * **Copy plumbing** — a delta vertex whose contents already exist on
//!   another machine is re-fed by a single `CopyDelta`, and its private
//!   supply chain is discarded;
//! * **Join plumbing** — a half-join delta vertex is recomputed from an
//!   existing relation replica and an existing delta stream (one `Join`
//!   plus up to two `CopyDelta`s), replacing its private chain.
//!
//! A plumbing is feasible only if its **benefit** (global dollar-rate saved
//! minus the new edges' cost) is positive and no sharing's critical time
//! path grows beyond its SLA. The [`hill_climb`] pass applies the
//! best-benefit plumbing repeatedly until none remains — the `+HC` variants
//! of the evaluation (Figures 12–13). It scores and SLA-tests each candidate
//! on the global plan itself — rewire in place, cost what still reaches an
//! MV, test every SLA, undo — and clones and garbage-collects only the
//! plumbing it applies.

use crate::optimizer::PlannedSharing;
use crate::plan::cost::{path_lengths, res_cost, resource_rates_in};
use crate::plan::dag::{EdgeOp, Plan, Undo, VertexKind};
use crate::plan::sig::ExprSig;
use crate::plan::timecost::TimeCostModel;
use crate::sharing::Sharing;
use smile_sim::PriceSheet;
use smile_storage::Predicate;
use smile_types::{MachineId, Result, SharingId, SimDuration, SmileError, VertexId};
use std::collections::{BTreeMap, HashMap};

/// Per-sharing bookkeeping the global plan needs: where the MV is, and the
/// SLA constraints plumbing must respect. The MV is tracked by
/// (signature, machine) so it survives garbage collection's id remapping.
/// It is the one record of who is served: `SHR(v)`, the sharings a vertex
/// serves, is those whose MV is `v` or downstream of it
/// ([`Plan::upstream_mask`]).
#[derive(Clone, Debug)]
pub struct SharingMeta {
    /// MV content signature.
    pub mv_sig: ExprSig,
    /// MV host machine.
    pub mv_machine: MachineId,
    /// Staleness SLA.
    pub sla: SimDuration,
}

/// Vestigial and empty: dedup is `Plan::index`, and reuse is counted from
/// [`Plan::vertex_count`] around a merge. The type stays only because the
/// frozen `benchmark/` harness builds one to call
/// [`GlobalPlan::merge_indexed`]; drop both names in the next `benchmark` PR.
#[derive(Clone, Copy, Debug, Default)]
pub struct MergeCatalog;

impl MergeCatalog {
    /// The one value of the type.
    pub fn new() -> Self {
        Self
    }
}

/// The merged global plan `D` plus sharing metadata.
#[derive(Clone, Debug, Default)]
pub struct GlobalPlan {
    /// The merged DAG.
    pub plan: Plan,
    /// Metadata per admitted sharing, by id. A merge adds a sharing newer
    /// than every other, so the one a refused merge added is the last.
    pub sharings: BTreeMap<SharingId, SharingMeta>,
    /// Vestigial and never read: nothing stores `SHR`. Kept only because
    /// the frozen `benchmark/` harness assigns it; drop it together with
    /// that assignment in the next `benchmark` PR.
    pub indexed_shr: bool,
}

impl GlobalPlan {
    /// Empty global plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// The MV Relation vertex of a sharing.
    pub fn mv_vertex(&self, id: SharingId) -> Result<VertexId> {
        self.mv_of(id, self.sharings.get(&id).ok_or(SmileError::UnknownSharing(id))?)
    }

    /// Where sharing `id`'s MV, as `meta` records it, is in the plan.
    fn mv_of(&self, id: SharingId, meta: &SharingMeta) -> Result<VertexId> {
        self.plan
            .find_vertex(VertexKind::Relation, &meta.mv_sig, meta.mv_machine)
            .ok_or_else(|| SmileError::Internal(format!("MV vertex of {id} lost from global plan")))
    }

    /// Merges a planned sharing into the global plan and returns its MV
    /// vertex there. Identical vertices (kind, signature, machine) are
    /// reused; when a vertex already has a producer in the global plan, the
    /// existing supply chain serves the new sharing and the incoming
    /// duplicate chain is not added. A sharing no newer than every merged
    /// one is refused before anything is merged, so the meta a merge adds
    /// is the last.
    pub fn merge(&mut self, sharing: &Sharing, planned: &PlannedSharing) -> Result<VertexId> {
        if self.sharings.last_key_value().is_some_and(|(&id, _)| id >= sharing.id) {
            return Err(SmileError::Internal(format!("{} merged after a newer sharing", sharing.id)));
        }
        let mv = self.merge_shadow(planned)?;
        let meta = SharingMeta {
            mv_sig: planned.plan.vertex(planned.mv).sig.clone(),
            mv_machine: planned.mv_machine,
            sla: sharing.staleness_sla,
        };
        self.sharings.insert(sharing.id, meta);
        Ok(mv)
    }

    /// [`GlobalPlan::merge`] under the name and signature the frozen
    /// `benchmark/` harness calls; the catalog argument is ignored.
    pub fn merge_indexed(
        &mut self,
        sharing: &Sharing,
        planned: &PlannedSharing,
        _cat: &mut MergeCatalog,
    ) -> Result<()> {
        self.merge(sharing, planned).map(drop)
    }

    /// Merges a re-planned sharing's vertices into the global plan *without*
    /// registering the sharing: the shadow chain of a live migration, and
    /// the walk [`GlobalPlan::merge`] takes. Copies the planned vertices and
    /// producers, deduplicating on (kind, signature, machine) —
    /// `Plan::index` is the one record of what is already there, and how
    /// much was reused is what [`Plan::vertex_count`] did not grow by.
    /// Vertices unique to the new placement serve no sharing until cutover
    /// repoints the sharing's MV to them. Returns the MV's vertex in the
    /// global plan.
    pub fn merge_shadow(&mut self, planned: &PlannedSharing) -> Result<VertexId> {
        let src = &planned.plan;
        // The planned plan's ids are dense, and the walk covers every one of
        // them, inputs first.
        let mut remap = vec![VertexId::new(0); src.vertex_count()];
        for v in src.topo_order()? {
            // A planned sharing's vertices have no slot yet, so the copy
            // starts that way too.
            let nid = self.plan.add_vertex_copy(src.vertex(v));
            remap[v.index()] = nid;
            // Install the producer unless the global plan already has one.
            if self.plan.producer(nid).is_none() {
                if let Some(e) = src.producer(v) {
                    let inputs = e.inputs.iter().map(|i| remap[i.index()]).collect();
                    self.plan.add_edge_copy(e, inputs, nid)?;
                }
            }
        }
        Ok(remap[planned.mv.index()])
    }

    /// Atomically repoints sharing `id`'s MV to `(mv_sig, mv_machine)` —
    /// the cutover step of a live migration. From here on the new chain
    /// serves the sharing and the old chain's exclusive vertices do not.
    pub fn repoint_mv(
        &mut self,
        id: SharingId,
        mv_sig: ExprSig,
        mv_machine: MachineId,
    ) -> Result<()> {
        let meta = self.sharings.get_mut(&id).ok_or(SmileError::UnknownSharing(id))?;
        meta.mv_sig = mv_sig;
        meta.mv_machine = mv_machine;
        Ok(())
    }

    /// Removes one sharing's metadata: the vertices that served only it
    /// serve nothing from here on.
    pub fn retire(&mut self, id: SharingId) {
        self.sharings.remove(&id);
    }

    /// Every admitted sharing's MV vertex, in id (admission) order.
    pub fn mvs(&self) -> Result<Vec<VertexId>> {
        self.sharings.iter().map(|(&id, m)| self.mv_of(id, m)).collect()
    }

    /// `served[v]` iff `SHR(v)` is non-empty: `v` is an admitted sharing's
    /// MV or upstream of one.
    pub fn served(&self) -> Result<Vec<bool>> {
        Ok(self.plan.upstream_mask(self.mvs()?))
    }

    /// `|SHR(v)|` for each of `vertices`: how many admitted sharings' MVs
    /// it is or lies upstream of, counted by walking each MV (introspection).
    pub fn shr_counts(&self, vertices: &[VertexId]) -> Result<Vec<usize>> {
        let mut counts = vec![0; vertices.len()];
        for mv in self.mvs()? {
            let ancestors = self.plan.ancestors(mv);
            for (count, v) in counts.iter_mut().zip(vertices) {
                *count += usize::from(*v == mv || ancestors.contains(v));
            }
        }
        Ok(counts)
    }

    /// The provider's total steady-state dollar rate for running `D`.
    pub fn total_cost(&self, model: &TimeCostModel, prices: &PriceSheet) -> f64 {
        res_cost(&self.plan, model, prices)
    }

    /// True iff every sharing's CP fits its SLA, read off one sweep.
    pub fn all_slas_hold(&self, model: &TimeCostModel) -> bool {
        let Ok(dist) = path_lengths(&self.plan, 1.0, model) else {
            return self.sharings.is_empty();
        };
        let fits = |(&id, m): (&SharingId, &SharingMeta)| self.mv_of(id, m).is_ok_and(|mv| dist[mv.index()] <= m.sla);
        self.sharings.iter().all(fits)
    }
}

/// One plumbing operation candidate.
#[derive(Clone, Debug, PartialEq)]
pub enum Plumbing {
    /// Re-feed `dst` with a `CopyDelta` from `src` (same signature,
    /// different machine), discarding `dst`'s private supply chain.
    Copy {
        /// Supplying delta vertex.
        src: VertexId,
        /// Re-fed delta vertex.
        dst: VertexId,
    },
    /// Recompute half-join `dst` from relation `rel_src` (on `rel_src`'s
    /// machine) joined with delta stream `delta_src` (copied there if
    /// needed), shipping the result to `dst`'s machine.
    Join {
        /// The half-join delta vertex being re-fed.
        dst: VertexId,
        /// The delta-side source vertex.
        delta_src: VertexId,
        /// The relation-side source vertex.
        rel_src: VertexId,
    },
}

/// Result of one hill-climbing run.
#[derive(Clone, Debug)]
pub struct HillClimbReport {
    /// Applied plumbing operations in order.
    pub applied: Vec<Plumbing>,
    /// (vertices, edges, dollars/sec) after each iteration, index 0 being
    /// the initial state — the series of the paper's Figure 13.
    pub trajectory: Vec<(usize, usize, f64)>,
}

/// Enumerates candidate plumbing operations on the current global plan.
/// Signature peers — "where else does this expression already run?" — come
/// from postings lists built here over the plan being rewired.
///
/// Candidate order is load-bearing: hill climbing keeps the *first* found
/// among equal-benefit candidates. Destinations are walked in vertex-id
/// order and every postings list is filled in vertex-id order, so the
/// sequence is the same on every run and the resulting plans byte-equal.
/// A candidate may wire `dst` from its own descendant; `rewire`'s
/// topological walk refuses the cycle, as it refuses any other.
pub fn enumerate_plumbings(g: &GlobalPlan) -> Vec<Plumbing> {
    let mut postings: HashMap<(VertexKind, &ExprSig), Vec<VertexId>> = HashMap::new();
    for v in g.plan.vertices() {
        postings.entry((v.kind, &v.sig)).or_default().push(v.id);
    }
    let peers = |kind: VertexKind, sig| postings.get(&(kind, sig)).into_iter().flatten().copied();
    let mut out = Vec::new();
    // Copy plumbing: same sig on different machines, dst not already fed by
    // a CopyDelta (from anywhere) and not a base capture point. Nor an
    // aggregate: its delta is written against its own view's rows (delete
    // the old row, insert the new), so a copy read without that view in step
    // replays stale rows.
    for dst in g.plan.vertices() {
        let aggregate = matches!(dst.sig, ExprSig::Aggregate { .. });
        if dst.kind != VertexKind::Delta || dst.is_base || aggregate {
            continue;
        }
        let already_copy_fed = g
            .plan
            .producer(dst.id)
            .is_some_and(|e| matches!(e.op, EdgeOp::CopyDelta));
        if already_copy_fed {
            continue;
        }
        for src in peers(VertexKind::Delta, &dst.sig) {
            if src == dst.id || g.plan.vertex(src).machine == dst.machine {
                continue;
            }
            out.push(Plumbing::Copy { src, dst: dst.id });
        }
    }
    // Join plumbing: dst is a half-join delta; rebuild it from an existing
    // relation replica of the snapshot side and any delta stream of the
    // delta side.
    for dst in g.plan.vertices() {
        if dst.kind != VertexKind::Delta {
            continue;
        }
        let ExprSig::HalfJoin {
            left,
            right,
            delta_left,
            ..
        } = &dst.sig
        else {
            continue;
        };
        let (delta_sig, rel_sig) = if *delta_left {
            (left.as_ref(), right.as_ref())
        } else {
            (right.as_ref(), left.as_ref())
        };
        // The current producer already is a join co-located with some
        // relation; a re-plumb is interesting when the *relation* exists on
        // a different machine closer to an existing delta stream.
        for rel_v in peers(VertexKind::Relation, rel_sig) {
            let rel = g.plan.vertex(rel_v);
            if rel.machine == dst.machine {
                continue; // that is what the current producer already does
            }
            for delta_v in peers(VertexKind::Delta, delta_sig) {
                out.push(Plumbing::Join {
                    dst: dst.id,
                    delta_src: delta_v,
                    rel_src: rel_v,
                });
            }
        }
    }
    out
}

/// Applies a plumbing operation to a clone of the global plan, returning the
/// rewired, garbage-collected result: what the rewiring left unserved is
/// dropped and the result checked. Fails when the rewiring is structurally
/// impossible.
pub fn apply_plumbing(g: &GlobalPlan, p: &Plumbing) -> Result<GlobalPlan> {
    let mut out = g.clone();
    rewire(&mut out.plan, p)?;
    out.plan = out.plan.garbage_collect(&out.served()?)?;
    out.plan.validate()?;
    Ok(out)
}

/// Rewires `plan` in place: re-feeds the plumbing's destination, leaving the
/// replaced supply chain in place. Returns the record [`Plan::undo`] takes
/// the rewiring back with, and the rewired plan's topological order — the
/// order [`Plan::garbage_collect`] would renumber its vertices in. A refused
/// rewiring (a cycle, a producer conflict, a join plumbing onto a vertex no
/// join produces) undoes itself before it returns its error, so no caller
/// sees a half-rewired plan.
fn rewire(plan: &mut Plan, p: &Plumbing) -> Result<(Undo, Vec<VertexId>)> {
    let mut undo = plan.undo_point();
    let rewired = match *p {
        Plumbing::Copy { src, dst } => {
            plan.detach_producer(dst, &mut undo);
            plan.add_edge(EdgeOp::CopyDelta, vec![src], dst, Predicate::True, None).map(|_| ())
        }
        Plumbing::Join {
            dst,
            delta_src,
            rel_src,
        } => join_plumbing(plan, dst, delta_src, rel_src, &mut undo),
    };
    // Errors on any cycle the rewiring may have introduced.
    match rewired.and_then(|()| plan.topo_order()) {
        Ok(order) => Ok((undo, order)),
        Err(e) => {
            plan.undo(undo);
            Err(e)
        }
    }
}

/// The join half of [`rewire`]: computes half-join `dst` at `rel_src`'s
/// machine, from `rel_src` and `delta_src` copied there if needed, and ships
/// it to `dst`. Not the plan builder's steps: each guards on
/// `producer(..).is_none()` against a plan that may already hold the
/// vertex, downstream of `dst` included; the cycle wiring through such a
/// vertex closes is [`rewire`]'s to refuse.
fn join_plumbing(
    plan: &mut Plan,
    dst: VertexId,
    delta_src: VertexId,
    rel_src: VertexId,
    undo: &mut Undo,
) -> Result<()> {
    // Recover the join parameters from dst's current producer.
    let producer = plan
        .producer(dst)
        .ok_or_else(|| SmileError::InvalidPlan("join plumbing on source vertex".into()))?;
    let EdgeOp::Join {
        on,
        delta_side,
        snapshot_filter,
    } = producer.op.clone()
    else {
        return Err(SmileError::InvalidPlan(
            "join plumbing target is not produced by a Join".into(),
        ));
    };
    let old_filter = producer.filter.clone();
    let rel_machine = plan.vertex(rel_src).machine;
    // Delta vertex `like` on `rel_machine`: the one already there, if any.
    let delta_at_rel = |plan: &mut Plan, like: VertexId| {
        let v = plan.vertex(like);
        let (sig, schema) = (v.sig.clone(), v.schema.clone());
        let (rate, bytes) = (v.est_rate, v.est_tuple_bytes);
        plan.add_vertex(VertexKind::Delta, sig, rel_machine, schema, false, rate, 0.0, bytes)
    };
    // Bring the delta stream to the relation's machine.
    let local_delta = if plan.vertex(delta_src).machine == rel_machine {
        delta_src
    } else {
        let d = delta_at_rel(plan, delta_src);
        if plan.producer(d).is_none() {
            plan.add_edge(EdgeOp::CopyDelta, vec![delta_src], d, Predicate::True, None)?;
        }
        d
    };
    // Compute the half-join at the relation's machine.
    let half_at_rel = delta_at_rel(plan, dst);
    if plan.producer(half_at_rel).is_none() {
        let op = EdgeOp::Join {
            on,
            delta_side,
            snapshot_filter,
        };
        plan.add_edge(op, vec![local_delta, rel_src], half_at_rel, old_filter, None)?;
    }
    // Ship it to dst.
    plan.detach_producer(dst, undo);
    plan.add_edge(EdgeOp::CopyDelta, vec![half_at_rel], dst, Predicate::True, None)?;
    Ok(())
}

/// What [`GlobalPlan::total_cost`] will report once `g`'s rewired plan is
/// collected, to the bit: the same elements (those upstream of an MV in
/// `mvs`, which is what collection keeps) summed in the same order (edges in
/// edge order, stored bytes in the order collection renumbers vertices,
/// which is `order`).
fn served_cost(
    g: &GlobalPlan,
    mvs: &[VertexId],
    order: &[VertexId],
    model: &TimeCostModel,
    prices: &PriceSheet,
) -> f64 {
    let served = g.plan.upstream_mask(mvs.iter().copied());
    let vertices = order.iter().map(|&v| g.plan.vertex(v));
    let r = resource_rates_in(&g.plan, vertices, |v| served[v.id.index()], model);
    prices.dollars_per_sec(r.cpu_util, r.net_bytes_per_sec, r.stored_bytes)
}

/// Greedy hill climbing (paper §7.2): repeatedly applies the plumbing with
/// the largest positive benefit that keeps every sharing within its SLA,
/// until none qualifies.
pub fn hill_climb(
    g: &mut GlobalPlan,
    model: &TimeCostModel,
    prices: &PriceSheet,
    max_iterations: usize,
) -> HillClimbReport {
    hill_climb_filtered(g, model, prices, max_iterations, true)
}

/// [`hill_climb`] with join plumbing optionally disabled — the ablation
/// that isolates how much each plumbing kind contributes.
pub fn hill_climb_filtered(
    g: &mut GlobalPlan,
    model: &TimeCostModel,
    prices: &PriceSheet,
    max_iterations: usize,
    allow_join_plumbing: bool,
) -> HillClimbReport {
    let point = |g: &GlobalPlan| (g.plan.vertex_count(), g.plan.edge_count(), g.total_cost(model, prices));
    let (mut applied, mut trajectory) = (Vec::new(), vec![point(g)]);
    for _ in 0..max_iterations {
        let current_cost = g.total_cost(model, prices);
        // Rewiring appends only delta vertices: the MVs stay where they are
        // while candidates are scored.
        let Ok(mvs) = g.mvs() else { break };
        let mut best: Option<(f64, Plumbing)> = None;
        // Enumeration rebuilds its peer lists each iteration: plumbing and
        // garbage collection remap vertex ids.
        for cand in enumerate_plumbings(g) {
            if !allow_join_plumbing && matches!(cand, Plumbing::Join { .. }) {
                continue;
            }
            // A candidate is scored and SLA-tested on the plan itself and
            // taken back; only the iteration's winner is cloned, rewired
            // and collected.
            let Ok((undo, order)) = rewire(&mut g.plan, &cand) else {
                continue;
            };
            let benefit = current_cost - served_cost(g, &mvs, &order, model, prices);
            let improves = benefit > 1e-15 && best.as_ref().is_none_or(|(b, _)| benefit > *b);
            let wins = improves && g.all_slas_hold(model);
            g.plan.undo(undo);
            if wins {
                best = Some((benefit, cand));
            }
        }
        let Some((_, cand)) = best else { break };
        let Ok(next) = apply_plumbing(g, &cand) else { break };
        *g = next;
        applied.push(cand);
        trajectory.push(point(g));
    }
    HillClimbReport { applied, trajectory }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::catalog::{BaseStats, Catalog};
    use crate::optimizer::Optimizer;
    use crate::plan::cost::restricted_cp;
    use smile_storage::join::JoinOn;
    use smile_storage::SpjQuery;
    use smile_types::{Column, ColumnType, RelationId, Schema};
    use std::collections::BTreeSet;

    /// Three bases, users, tweets and socnet, homed on machines 0 to 2.
    pub(crate) fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mk = |n: u32| MachineId::new(n);
        c.register_base(
            "users",
            Schema::new(
                vec![
                    Column::new("uid", ColumnType::I64),
                    Column::new("name", ColumnType::Str),
                ],
                vec![0],
            ),
            mk(0),
            BaseStats {
                update_rate: 30.0,
                cardinality: 10_000.0,
                tuple_bytes: 40.0,
                distinct: vec![10_000.0, 9_000.0],
            },
        );
        c.register_base(
            "tweets",
            Schema::new(
                vec![
                    Column::new("tid", ColumnType::I64),
                    Column::new("uid", ColumnType::I64),
                ],
                vec![0],
            ),
            mk(1),
            BaseStats {
                update_rate: 100.0,
                cardinality: 100_000.0,
                tuple_bytes: 80.0,
                distinct: vec![100_000.0, 10_000.0],
            },
        );
        c.register_base(
            "socnet",
            Schema::new(
                vec![
                    Column::new("uid", ColumnType::I64),
                    Column::new("uid2", ColumnType::I64),
                ],
                vec![0, 1],
            ),
            mk(2),
            BaseStats {
                update_rate: 25.0,
                cardinality: 200_000.0,
                tuple_bytes: 16.0,
                distinct: vec![10_000.0, 10_000.0],
            },
        );
        c
    }

    fn sharing(id: u32, query: SpjQuery, sla: u64) -> Sharing {
        Sharing::new(
            SharingId::new(id),
            format!("S{id}"),
            query,
            SimDuration::from_secs(sla),
            0.001,
        )
    }

    fn setup() -> (GlobalPlan, TimeCostModel, PriceSheet) {
        let cat = catalog();
        let model = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_cross_zone();
        let machines: Vec<_> = (0..3).map(MachineId::new).collect();
        let opt = Optimizer::new(&cat, machines, &model, &prices);

        // Two sharings over the same join pair plus one different.
        let q1 = SpjQuery::scan(RelationId::new(0)).join(
            RelationId::new(1),
            JoinOn::on(0, 1),
            Predicate::True,
        );
        let q2 = q1.clone();
        let q3 = SpjQuery::scan(RelationId::new(0)).join(
            RelationId::new(2),
            JoinOn::on(0, 0),
            Predicate::True,
        );
        let mut g = GlobalPlan::new();
        for (id, q, sla) in [(1, q1, 45), (2, q2, 60), (3, q3, 45)] {
            let s = sharing(id, q, sla);
            let planned = opt.plan_admission(&s, HashMap::new(), None).unwrap();
            let mv = g.merge(&s, &planned).unwrap();
            assert_eq!(g.mv_vertex(s.id).unwrap(), mv);
        }
        (g, model, prices)
    }

    /// Richer than [`setup`]: both joins and the three-way join, each with
    /// its MV pinned on every machine, so supply chains cross and a vertex
    /// feeds several consumers.
    fn climb_fixture() -> (GlobalPlan, TimeCostModel, PriceSheet) {
        let cat = catalog();
        let model = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_cross_zone();
        let machines: Vec<_> = (0..3).map(MachineId::new).collect();
        let opt = Optimizer::new(&cat, machines.clone(), &model, &prices);
        let users = SpjQuery::scan(RelationId::new(0));
        let tweets = users.clone().join(RelationId::new(1), JoinOn::on(0, 1), Predicate::True);
        let socnet = users.join(RelationId::new(2), JoinOn::on(0, 0), Predicate::True);
        let both = tweets.clone().join(RelationId::new(2), JoinOn::on(0, 0), Predicate::True);
        let mut g = GlobalPlan::new();
        for (i, q) in [tweets, socnet, both].iter().enumerate() {
            for &m in &machines {
                let id = (3 * i) as u32 + m.index() as u32 + 1;
                let s = sharing(id, q.clone(), 45);
                let planned = opt.plan_admission(&s, HashMap::new(), Some(m)).unwrap();
                g.merge(&s, &planned).unwrap();
            }
        }
        (g, model, prices)
    }

    #[test]
    fn merge_dedups_identical_subplans() {
        let (g, _, _) = setup();
        g.plan.validate().unwrap();
        // Sharings 1 and 2 have identical queries: their entire supply chain
        // should be shared, i.e. some vertex serves both.
        let pair = BTreeSet::from([SharingId::new(1), SharingId::new(2)]);
        let both = (0..g.plan.vertex_count())
            .filter(|&v| shr_downstream(&g, VertexId::new(v as u32)).is_superset(&pair));
        assert!(both.count() > 0, "no vertex shared between S1 and S2");
        // The users base pair serves all three sharings.
        let users_delta = g
            .plan
            .find_vertex(
                VertexKind::Delta,
                &ExprSig::base(RelationId::new(0)),
                MachineId::new(0),
            )
            .unwrap();
        assert_eq!(shr_downstream(&g, users_delta).len(), 3);
    }

    #[test]
    fn mv_vertices_resolve() {
        let (g, _, _) = setup();
        for id in [1, 2, 3] {
            let mv = g.mv_vertex(SharingId::new(id)).unwrap();
            assert_eq!(g.plan.vertex(mv).kind, VertexKind::Relation);
        }
        assert!(g.mv_vertex(SharingId::new(99)).is_err());
    }

    /// Across merges, retirements and a merge taken back as
    /// `Executor::merge_or_undo` takes it back (`Plan::undo`, then the last
    /// meta popped), `mv_vertex` finds an MV for exactly the ids merged and
    /// not retired, and the metas are those ids. A merge no newer than the
    /// newest meta is refused and changes nothing.
    #[test]
    fn metas_follow_merges_retirements_and_undo() {
        let cat = catalog();
        let model = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_cross_zone();
        let opt = Optimizer::new(&cat, (0..3).map(MachineId::new).collect(), &model, &prices);
        let planned = |id: u32| {
            let (r, on) = if id.is_multiple_of(2) { (1, JoinOn::on(0, 1)) } else { (2, JoinOn::on(0, 0)) };
            let q = SpjQuery::scan(RelationId::new(0)).join(RelationId::new(r), on, Predicate::True);
            let s = sharing(id, q, 45);
            let planned = opt.plan_admission(&s, HashMap::new(), Some(MachineId::new(id % 3))).unwrap();
            (s, planned)
        };
        let check = |g: &GlobalPlan, held: &[u32]| {
            assert_eq!(g.sharings.keys().map(|id| id.index() as u32).collect::<Vec<_>>(), held);
            for id in 0..12 {
                assert_eq!(g.mv_vertex(SharingId::new(id)).is_ok(), held.contains(&id), "S{id}");
            }
        };
        let mut g = GlobalPlan::new();
        for id in 1..=6 {
            let (s, p) = planned(id);
            g.merge(&s, &p).unwrap();
        }
        check(&g, &[1, 2, 3, 4, 5, 6]);
        for id in [3, 1, 6, 9] {
            g.retire(SharingId::new(id));
        }
        check(&g, &[2, 4, 5]);
        let before = (g.plan.canonical_string(), format!("{:?}", g.sharings));
        let undo = g.plan.undo_point();
        let (s, p) = planned(7);
        g.merge(&s, &p).unwrap();
        g.plan.undo(undo);
        g.sharings.pop_last();
        assert_eq!((g.plan.canonical_string(), format!("{:?}", g.sharings)), before);
        let (s, p) = planned(5);
        assert!(g.merge(&s, &p).is_err(), "S5 merged behind S5");
        assert_eq!((g.plan.canonical_string(), format!("{:?}", g.sharings)), before);
        for id in [8, 10] {
            let (s, p) = planned(id);
            g.merge(&s, &p).unwrap();
        }
        check(&g, &[2, 4, 5, 8, 10]);
    }

    /// `SHR(v)` by a walk independent of the one the plan derives it with:
    /// the sharings whose MV `v` reaches downstream, along consumer lists.
    fn shr_downstream(g: &GlobalPlan, v: VertexId) -> BTreeSet<SharingId> {
        let seen = g.plan.downstream(v);
        let reached = |id: &&SharingId| seen.contains(&g.mv_vertex(**id).unwrap());
        g.sharings.keys().filter(reached).copied().collect()
    }

    /// The served mask and the `shr=` counts against the downstream walk,
    /// on the merged plans, after a retire, and on every rewired candidate
    /// before collection (the replaced chain still there, serving nothing).
    #[test]
    fn served_mask_and_shr_counts_match_a_downstream_walk() {
        let check = |g: &GlobalPlan, what: &str| {
            let all: Vec<_> = (0..g.plan.vertex_count()).map(|v| VertexId::new(v as u32)).collect();
            let walked: Vec<_> = all.iter().map(|&v| shr_downstream(g, v)).collect();
            let served: Vec<bool> = walked.iter().map(|shr| !shr.is_empty()).collect();
            let counts: Vec<usize> = walked.iter().map(BTreeSet::len).collect();
            assert_eq!(g.served().unwrap(), served, "{what}");
            assert_eq!(g.shr_counts(&all).unwrap(), counts, "{what}");
            counts.iter().any(|&n| n > 1) && served.contains(&false)
        };
        let (mut shared_and_idle, mut rewired) = (0, 0);
        for (mut g, _, _) in [setup(), climb_fixture()] {
            check(&g, "merged");
            for cand in enumerate_plumbings(&g) {
                let Ok((undo, _)) = rewire(&mut g.plan, &cand) else { continue };
                shared_and_idle += usize::from(check(&g, &format!("{cand:?}")));
                rewired += 1;
                g.plan.undo(undo);
            }
            g.retire(SharingId::new(2));
            check(&g, "after retiring sharing 2");
        }
        assert!(rewired > 0 && shared_and_idle > 0, "{rewired} rewired, {shared_and_idle} both");
    }

    #[test]
    fn plumbing_candidates_exist_and_apply_cleanly() {
        let (g, model, prices) = setup();
        let cands = enumerate_plumbings(&g);
        // There must be at least one candidate (the users delta is copied to
        // multiple machines by the different sharings).
        assert!(!cands.is_empty());
        for c in cands.iter().take(16) {
            if let Ok(next) = apply_plumbing(&g, c) {
                next.plan.validate().unwrap();
                // Every sharing's MV still resolves.
                for &id in next.sharings.keys() {
                    next.mv_vertex(id).unwrap();
                }
                // Cost stays finite.
                assert!(next.total_cost(&model, &prices).is_finite());
            }
        }
    }

    /// The hill climb scores and SLA-tests a candidate on the plan rewired
    /// in place, from the served mask, and clones and collects it only if
    /// it wins: the mask must be the downstream walk's, the score the
    /// collected plan's cost to the bit (it breaks ties between
    /// candidates), each sharing's critical path in the one sweep the
    /// restricted sweep's to the bit, and the SLA verdict on the
    /// uncollected plan the collected plan's.
    #[test]
    fn rewired_cost_and_sla_verdict_equal_the_collected_plans() {
        let (mut g, model, prices) = setup();
        let mvs = g.mvs().unwrap();
        let (mut checked, mut shrunk) = (0, 0);
        for cand in enumerate_plumbings(&g) {
            let Ok((undo, order)) = rewire(&mut g.plan, &cand) else {
                continue;
            };
            let served = g.plan.upstream_mask(mvs.iter().copied());
            let before = served_cost(&g, &mvs, &order, &model, &prices);
            let walked = (0..g.plan.vertex_count())
                .map(|v| !shr_downstream(&g, VertexId::new(v as u32)).is_empty());
            assert_eq!(served, walked.collect::<Vec<_>>(), "{cand:?}");
            let holds = g.all_slas_hold(&model);
            let dist = path_lengths(&g.plan, 1.0, &model).unwrap();
            let mut restricted_holds = true;
            for (&id, meta) in &g.sharings {
                let mv = g.mv_of(id, meta).unwrap();
                let cp = restricted_cp(&g.plan, mv, 1.0, &model);
                assert_eq!(dist[mv.index()], cp, "{cand:?}");
                restricted_holds &= cp <= meta.sla;
            }
            assert_eq!(holds, restricted_holds, "{cand:?}");
            let uncollected = g.plan.vertex_count();
            g.plan.undo(undo);
            let next = apply_plumbing(&g, &cand).unwrap();
            let after = next.total_cost(&model, &prices);
            assert_eq!(before.to_bits(), after.to_bits(), "{cand:?}: {before} vs {after}");
            assert_eq!(holds, next.all_slas_hold(&model), "{cand:?}");
            checked += 1;
            shrunk += usize::from(next.plan.vertex_count() < uncollected);
        }
        assert!(checked > 0 && shrunk > 0, "{checked} candidates, {shrunk} left garbage");
    }

    /// Everything of a plan a rewiring may touch and its undo must restore:
    /// the rendering, the topological order, every consumer list in order,
    /// the index entry of every vertex, and the counts.
    fn fingerprint(plan: &Plan) -> String {
        let vertices = plan.vertices().iter();
        let consumers: Vec<Vec<usize>> =
            vertices.clone().map(|v| plan.consumers(v.id).map(|e| e.id).collect()).collect();
        let indexed: Vec<_> =
            vertices.map(|v| plan.find_vertex(v.kind, &v.sig, v.machine)).collect();
        let order = plan.topo_order().unwrap();
        let counts = (plan.vertex_count(), plan.edge_count());
        format!("{};{order:?};{consumers:?};{indexed:?};{counts:?}", plan.canonical_string())
    }

    /// `rewire` then `undo` leaves the plan exactly as it was, for every
    /// candidate of every iteration of a climb, and a refused rewiring
    /// leaves it so by itself — a cyclic one, which only `rewire` refuses,
    /// included. Some detached producer stands before another consumer of
    /// one of its inputs, so putting it back at the end of the list would
    /// change the topological order.
    #[test]
    fn rewire_then_undo_leaves_the_plan_as_it_was() {
        let (mut g, model, prices) = climb_fixture();
        let (mut undone, mut refused, mut cycles, mut mid_list) = (0, 0, 0, 0);
        loop {
            for cand in enumerate_plumbings(&g) {
                let (before, count) = (fingerprint(&g.plan), g.plan.vertex_count());
                let (Plumbing::Copy { dst, .. } | Plumbing::Join { dst, .. }) = cand;
                let not_last = g.plan.producer(dst).is_some_and(|e| {
                    e.inputs.iter().any(|&i| {
                        let ids: Vec<usize> = g.plan.consumers(i).map(|c| c.id).collect();
                        ids.len() >= 2 && ids.last() != Some(&e.id)
                    })
                });
                match rewire(&mut g.plan, &cand) {
                    Ok((undo, _)) => {
                        let appended: Vec<_> = g.plan.vertices()[count..]
                            .iter()
                            .map(|v| (v.kind, v.sig.clone(), v.machine))
                            .collect();
                        g.plan.undo(undo);
                        for (kind, sig, machine) in &appended {
                            assert_eq!(g.plan.find_vertex(*kind, sig, *machine), None, "{cand:?}");
                        }
                        undone += 1;
                        mid_list += usize::from(not_last);
                    }
                    Err(e) => {
                        refused += 1;
                        cycles += usize::from(e.to_string().contains("cycle"));
                    }
                }
                assert!(fingerprint(&g.plan) == before, "{cand:?} changed the plan");
            }
            if hill_climb(&mut g, &model, &prices, 1).applied.is_empty() {
                break;
            }
        }
        assert!(
            undone > 0 && cycles > 0 && mid_list > 0,
            "{undone} undone, {refused} refused ({cycles} cyclic), {mid_list} detached mid-list"
        );
    }

    #[test]
    fn hill_climb_never_increases_cost_and_respects_slas() {
        let (mut g, model, prices) = setup();
        let before = g.total_cost(&model, &prices);
        let report = hill_climb(&mut g, &model, &prices, 32);
        let after = g.total_cost(&model, &prices);
        assert!(after <= before + 1e-12);
        assert!(g.all_slas_hold(&model));
        g.plan.validate().unwrap();
        // Trajectory is monotone in cost.
        for w in report.trajectory.windows(2) {
            assert!(w[1].2 <= w[0].2 + 1e-12);
        }
        // Trajectory starts at the initial state.
        assert!(report.trajectory[0].0 >= g.plan.vertex_count());
    }
}
