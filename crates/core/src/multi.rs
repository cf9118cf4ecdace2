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
//! of the evaluation (Figures 12–13). It scores each candidate on the global
//! plan itself — rewire in place, cost what still reaches an MV, undo — and
//! clones, SLA-tests and garbage-collects only a candidate about to become
//! the best so far.

use crate::optimizer::PlannedSharing;
use crate::plan::cost::{critical_path, res_cost, resource_rates_in, Scope};
use crate::plan::dag::{EdgeOp, Plan, Undo, VertexKind};
use crate::plan::sig::ExprSig;
use crate::plan::timecost::TimeCostModel;
use crate::sharing::Sharing;
use smile_sim::PriceSheet;
use smile_storage::Predicate;
use smile_types::{MachineId, Result, SharingId, SimDuration, SmileError, VertexId};
use std::collections::HashMap;

/// Per-sharing bookkeeping the global plan needs: where the MV is, and the
/// SLA constraints plumbing must respect. The MV is tracked by
/// (signature, machine) so it survives garbage collection's id remapping.
#[derive(Clone, Debug)]
pub struct SharingMeta {
    /// Sharing identity.
    pub id: SharingId,
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
    /// Metadata per admitted sharing.
    pub sharings: Vec<SharingMeta>,
    /// Vestigial and never read: SHR maintenance is always incremental.
    /// Kept only because the frozen `benchmark/` harness assigns it; drop
    /// it together with that assignment in the next `benchmark` PR.
    pub indexed_shr: bool,
}

impl GlobalPlan {
    /// Empty global plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// The MV Relation vertex of a sharing.
    pub fn mv_vertex(&self, id: SharingId) -> Result<VertexId> {
        let meta = self
            .sharings
            .iter()
            .find(|m| m.id == id)
            .ok_or(SmileError::UnknownSharing(id))?;
        self.mv_of(meta)
    }

    /// Where `meta`'s MV is in the plan.
    fn mv_of(&self, meta: &SharingMeta) -> Result<VertexId> {
        let id = meta.id;
        self.plan
            .find_vertex(VertexKind::Relation, &meta.mv_sig, meta.mv_machine)
            .ok_or_else(|| SmileError::Internal(format!("MV vertex of {id} lost from global plan")))
    }

    /// Every base Relation vertex with its machine, in plan order — the
    /// heartbeat roster the executor publishes each round. Cached by the
    /// executor and rebuilt on live submit; plan order preserves the
    /// publish order the per-vertex scan produced, keeping the fault-prone
    /// bus draws aligned.
    pub fn base_relation_vertices(&self) -> Vec<(MachineId, VertexId)> {
        self.plan
            .vertices()
            .iter()
            .filter(|v| v.is_base && v.kind == VertexKind::Relation)
            .map(|v| (v.machine, v.id))
            .collect()
    }

    /// Merges a planned sharing into the global plan. Identical vertices
    /// (kind, signature, machine) are reused; when a vertex already has a
    /// producer in the global plan, the existing supply chain serves the new
    /// sharing and the incoming duplicate chain is not added.
    ///
    /// The new sharing's `SHR` membership is installed on
    /// `ancestors(mv) ∪ {mv}` only. That equals a full
    /// [`GlobalPlan::recompute_shr`]: merging only *adds* vertices and
    /// edges and never rewires an existing producer, so no previously
    /// admitted sharing's ancestor set can change.
    pub fn merge(&mut self, sharing: &Sharing, planned: &PlannedSharing) -> Result<()> {
        let remap = self.merge_vertices(&planned.plan)?;
        self.sharings.push(SharingMeta {
            id: sharing.id,
            mv_sig: planned.plan.vertex(planned.mv).sig.clone(),
            mv_machine: planned.mv_machine,
            sla: sharing.staleness_sla,
        });
        self.serve(remap[&planned.mv], sharing.id);
        Ok(())
    }

    /// [`GlobalPlan::merge`] under the name and signature the frozen
    /// `benchmark/` harness calls; the catalog argument is ignored.
    pub fn merge_indexed(
        &mut self,
        sharing: &Sharing,
        planned: &PlannedSharing,
        _cat: &mut MergeCatalog,
    ) -> Result<()> {
        self.merge(sharing, planned)
    }

    /// Adds `id` to `SHR(v)` for the MV and every vertex upstream of it.
    fn serve(&mut self, mv: VertexId, id: SharingId) {
        let (verts, _) = self.plan.ancestors(mv);
        for v in verts.into_iter().chain([mv]) {
            self.plan.vertex_mut(v).sharings.insert(id);
        }
    }

    /// Merges a re-planned sharing's vertices into the global plan *without*
    /// registering the sharing on them: the shadow chain of a live
    /// migration. Dedup works exactly as in [`GlobalPlan::merge`], so any
    /// vertex the new placement shares with the existing plan is reused;
    /// vertices unique to the new placement are created with empty `SHR`
    /// sets (no sharing serves through them until cutover flips the
    /// sharing's MV coordinates and SHR is recomputed). Returns the
    /// old-plan → global-plan vertex remap so the caller can locate the
    /// shadow MV (`remap[&planned.mv]`).
    pub fn merge_shadow(
        &mut self,
        planned: &PlannedSharing,
    ) -> Result<HashMap<VertexId, VertexId>> {
        self.merge_vertices(&planned.plan)
    }

    /// Atomically repoints sharing `id`'s MV to `(mv_sig, mv_machine)` —
    /// the cutover step of a live migration — and recomputes every `SHR`
    /// set so the old chain's exclusive vertices drop out and the shadow
    /// chain's vertices gain the sharing.
    pub fn repoint_mv(
        &mut self,
        id: SharingId,
        mv_sig: ExprSig,
        mv_machine: MachineId,
    ) -> Result<()> {
        let meta = self
            .sharings
            .iter_mut()
            .find(|m| m.id == id)
            .ok_or(SmileError::UnknownSharing(id))?;
        meta.mv_sig = mv_sig;
        meta.mv_machine = mv_machine;
        self.recompute_shr()
    }

    /// Removes one sharing's metadata and strips it from every `SHR` set in
    /// place. Equals dropping the meta and calling
    /// [`GlobalPlan::recompute_shr`], because stripping an id never changes
    /// any *other* sharing's ancestor walk.
    pub fn strip_sharing(&mut self, id: SharingId) {
        self.sharings.retain(|m| m.id != id);
        for i in 0..self.plan.vertex_count() {
            self.plan
                .vertex_mut(VertexId::new(i as u32))
                .sharings
                .remove(&id);
        }
    }

    /// The topo-walk shared by sharing and shadow merges: copies `src`'s
    /// vertices and producers into the global plan, deduplicating on
    /// (kind, signature, machine) — `Plan::index` is the one record of what
    /// is already there. How much was reused is the difference between
    /// `src`'s vertex count and what [`Plan::vertex_count`] grew by.
    fn merge_vertices(&mut self, src: &Plan) -> Result<HashMap<VertexId, VertexId>> {
        let order = src.topo_order()?;
        let mut remap: HashMap<VertexId, VertexId> = HashMap::new();
        for v in order {
            // A planned sharing's vertices serve nothing and have no slot
            // yet, so the copy starts that way too.
            let nid = self.plan.add_vertex_copy(src.vertex(v));
            remap.insert(v, nid);
            // Install the producer unless the global plan already has one.
            if self.plan.producer(nid).is_none() {
                if let Some(e) = src.producer(v) {
                    let inputs = e.inputs.iter().map(|i| remap[i]).collect::<Vec<_>>();
                    self.plan.add_edge_copy(e, inputs, nid)?;
                }
            }
        }
        Ok(remap)
    }

    /// Recomputes every `SHR` set from first principles: a vertex serves
    /// sharing `s` iff it is the MV of `s` or an ancestor of it.
    pub fn recompute_shr(&mut self) -> Result<()> {
        for i in 0..self.plan.vertex_count() {
            self.plan
                .vertex_mut(VertexId::new(i as u32))
                .sharings
                .clear();
        }
        for i in 0..self.sharings.len() {
            let mv = self.mv_of(&self.sharings[i])?;
            self.serve(mv, self.sharings[i].id);
        }
        Ok(())
    }

    /// `served[v]` iff `v` is the MV in `mvs` or upstream of one: whether
    /// [`GlobalPlan::recompute_shr`] would leave `SHR(v)` non-empty, read
    /// without writing a set.
    fn served_mask(&self, mvs: &[VertexId]) -> Vec<bool> {
        let mut served = vec![false; self.plan.vertex_count()];
        let mut stack = mvs.to_vec();
        while let Some(v) = stack.pop() {
            if !std::mem::replace(&mut served[v.index()], true) {
                stack.extend(self.plan.producer(v).iter().flat_map(|e| &e.inputs));
            }
        }
        served
    }

    /// The provider's total steady-state dollar rate for running `D`.
    pub fn total_cost(&self, model: &TimeCostModel, prices: &PriceSheet) -> f64 {
        res_cost(&self.plan, Scope::All, model, prices)
    }

    /// Critical time path of one sharing within the global plan.
    pub fn sharing_cp(&self, id: SharingId, model: &TimeCostModel) -> SimDuration {
        critical_path(&self.plan, Scope::Sharing(id), 1.0, model)
    }

    /// True iff every sharing's CP fits its SLA.
    pub fn all_slas_hold(&self, model: &TimeCostModel) -> bool {
        self.sharings
            .iter()
            .all(|m| self.sharing_cp(m.id, model) <= m.sla)
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
            // Feeding dst from src must not create a cycle: src must not
            // be a descendant of dst.
            let (anc, _) = g.plan.ancestors(src);
            if anc.contains(&dst.id) {
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
            // Neither source may be downstream of dst.
            if g.plan.ancestors(rel_v).0.contains(&dst.id) {
                continue;
            }
            for delta_v in peers(VertexKind::Delta, delta_sig) {
                if delta_v == dst.id || g.plan.ancestors(delta_v).0.contains(&dst.id) {
                    continue;
                }
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
/// rewired (SHR-recomputed, garbage-collected) result. Fails when the
/// rewiring is structurally impossible.
pub fn apply_plumbing(g: &GlobalPlan, p: &Plumbing) -> Result<GlobalPlan> {
    materialize(rewired_clone(g, p)?)
}

/// A clone of `g` with `p` rewired in and every `SHR` set recomputed: the
/// replaced supply chain is still there, serving nothing.
fn rewired_clone(g: &GlobalPlan, p: &Plumbing) -> Result<GlobalPlan> {
    let mut out = g.clone();
    rewire(&mut out.plan, p)?;
    out.recompute_shr()?;
    Ok(out)
}

/// The last step of [`apply_plumbing`]: drops what the rewiring left
/// unserved and checks the result.
fn materialize(mut rewired: GlobalPlan) -> Result<GlobalPlan> {
    rewired.plan = rewired.plan.garbage_collect()?;
    rewired.plan.validate()?;
    Ok(rewired)
}

/// Rewires `plan` in place: re-feeds the plumbing's destination, leaving the
/// replaced supply chain in place and every `SHR` set as it was. Returns the
/// record [`Plan::undo`] takes the rewiring back with, and the rewired
/// plan's topological order — the order [`Plan::garbage_collect`] would
/// renumber its vertices in. A refused rewiring (a cycle, a producer
/// conflict, a join plumbing onto a vertex no join produces) undoes itself
/// before it returns its error, so no caller sees a half-rewired plan.
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
/// `producer(..).is_none()` and checks acyclicity against a plan that may
/// already hold the vertex.
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
    // Vertex creation dedups on (kind, sig, machine): an existing vertex may
    // sit *downstream* of `dst`, in which case wiring through it would close
    // a cycle — reject such candidates.
    let ensure_acyclic = |plan: &Plan, v: VertexId| {
        if plan.ancestors(v).0.contains(&dst) {
            Err(SmileError::InvalidPlan(
                "join plumbing would create a cycle".into(),
            ))
        } else {
            Ok(())
        }
    };
    // Bring the delta stream to the relation's machine.
    let local_delta = if plan.vertex(delta_src).machine == rel_machine {
        delta_src
    } else {
        let d = delta_at_rel(plan, delta_src);
        if plan.producer(d).is_none() {
            plan.add_edge(EdgeOp::CopyDelta, vec![delta_src], d, Predicate::True, None)?;
        }
        ensure_acyclic(plan, d)?;
        d
    };
    // Compute the half-join at the relation's machine.
    let half_at_rel = delta_at_rel(plan, dst);
    ensure_acyclic(plan, half_at_rel)?;
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

/// What [`GlobalPlan::total_cost`] will report once `g`'s rewired plan has
/// its `SHR` sets recomputed and is collected, to the bit: the same elements
/// (those upstream of an MV in `mvs`, which is what collection keeps) summed
/// in the same order (edges in edge order, stored bytes in the order
/// collection renumbers vertices, which is `order`).
fn served_cost(
    g: &GlobalPlan,
    mvs: &[VertexId],
    order: &[VertexId],
    model: &TimeCostModel,
    prices: &PriceSheet,
) -> f64 {
    let served = g.served_mask(mvs);
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
    let mut applied = Vec::new();
    let mut trajectory = vec![(
        g.plan.vertex_count(),
        g.plan.edge_count(),
        g.total_cost(model, prices),
    )];
    for _ in 0..max_iterations {
        let current_cost = g.total_cost(model, prices);
        // Rewiring appends only delta vertices: the MVs stay where they are
        // while candidates are scored.
        let mvs = g.sharings.iter().map(|m| g.mv_of(m));
        let Ok(mvs) = mvs.collect::<Result<Vec<_>>>() else { break };
        let mut best: Option<(f64, Plumbing, GlobalPlan)> = None;
        // Enumeration rebuilds its peer lists each iteration: plumbing and
        // garbage collection remap vertex ids.
        for cand in enumerate_plumbings(g) {
            if !allow_join_plumbing && matches!(cand, Plumbing::Join { .. }) {
                continue;
            }
            // A candidate is scored on the plan itself and taken back; only
            // one about to become the best so far is rewired on a clone,
            // SLA-tested and collected.
            let Ok((undo, order)) = rewire(&mut g.plan, &cand) else {
                continue;
            };
            let benefit = current_cost - served_cost(g, &mvs, &order, model, prices);
            g.plan.undo(undo);
            let improves = best.as_ref().is_none_or(|(b, _, _)| benefit > *b);
            if benefit <= 1e-15 || !improves {
                continue;
            }
            let Ok(next) = rewired_clone(g, &cand) else {
                continue;
            };
            if !next.all_slas_hold(model) {
                continue;
            }
            if let Ok(next) = materialize(next) {
                best = Some((benefit, cand, next));
            }
        }
        let Some((_, cand, next)) = best else { break };
        *g = next;
        applied.push(cand);
        trajectory.push((
            g.plan.vertex_count(),
            g.plan.edge_count(),
            g.total_cost(model, prices),
        ));
    }
    HillClimbReport {
        applied,
        trajectory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{BaseStats, Catalog};
    use crate::optimizer::Optimizer;
    use smile_storage::join::JoinOn;
    use smile_storage::SpjQuery;
    use smile_types::{Column, ColumnType, RelationId, Schema};

    fn catalog() -> Catalog {
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
            g.merge(&s, &planned).unwrap();
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
        let both: Vec<_> = g
            .plan
            .vertices()
            .iter()
            .filter(|v| {
                v.sharings.contains(&SharingId::new(1)) && v.sharings.contains(&SharingId::new(2))
            })
            .collect();
        assert!(!both.is_empty(), "no vertex shared between S1 and S2");
        // The users base pair serves all three sharings.
        let users_delta = g
            .plan
            .find_vertex(
                VertexKind::Delta,
                &ExprSig::base(RelationId::new(0)),
                MachineId::new(0),
            )
            .unwrap();
        assert_eq!(g.plan.vertex(users_delta).sharings.len(), 3);
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

    #[test]
    fn shr_rebuild_is_idempotent() {
        let (mut g, _, _) = setup();
        let before: Vec<_> = g
            .plan
            .vertices()
            .iter()
            .map(|v| v.sharings.clone())
            .collect();
        g.recompute_shr().unwrap();
        let after: Vec<_> = g
            .plan
            .vertices()
            .iter()
            .map(|v| v.sharings.clone())
            .collect();
        assert_eq!(before, after);
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
                for meta in &next.sharings {
                    next.mv_vertex(meta.id).unwrap();
                }
                // Cost stays finite.
                assert!(next.total_cost(&model, &prices).is_finite());
            }
        }
    }

    /// The hill climb scores a candidate on the plan rewired in place, from
    /// the served mask, and clones, SLA-tests and collects it only if it
    /// wins: the mask must be what `recompute_shr` would write, the score
    /// the collected plan's cost to the bit (it breaks ties between
    /// candidates), and the SLA verdict on the uncollected clone the
    /// collected plan's.
    #[test]
    fn rewired_cost_and_sla_verdict_equal_the_collected_plans() {
        let (mut g, model, prices) = setup();
        let mvs: Vec<_> = g.sharings.iter().map(|m| g.mv_of(m).unwrap()).collect();
        let (mut checked, mut shrunk) = (0, 0);
        for cand in enumerate_plumbings(&g) {
            let Ok((undo, order)) = rewire(&mut g.plan, &cand) else {
                continue;
            };
            let served = g.served_mask(&mvs);
            let before = served_cost(&g, &mvs, &order, &model, &prices);
            g.plan.undo(undo);
            let rewired = rewired_clone(&g, &cand).unwrap();
            let vertices = rewired.plan.vertices().iter();
            let shr: Vec<bool> = vertices.map(|v| !v.sharings.is_empty()).collect();
            assert_eq!(served, shr, "{cand:?}");
            let holds = rewired.all_slas_hold(&model);
            let uncollected = rewired.plan.vertex_count();
            let Ok(next) = materialize(rewired) else {
                continue;
            };
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
    /// leaves it so by itself. Some detached producer stands before another
    /// consumer of one of its inputs, so putting it back at the end of the
    /// list would change the topological order.
    #[test]
    fn rewire_then_undo_leaves_the_plan_as_it_was() {
        let (mut g, model, prices) = climb_fixture();
        let (mut undone, mut refused, mut mid_list) = (0, 0, 0);
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
                    Err(_) => refused += 1,
                }
                assert!(fingerprint(&g.plan) == before, "{cand:?} changed the plan");
            }
            if hill_climb(&mut g, &model, &prices, 1).applied.is_empty() {
                break;
            }
        }
        assert!(
            undone > 0 && refused > 0 && mid_list > 0,
            "{undone} undone, {refused} refused, {mid_list} detached mid-list"
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

    /// Incremental SHR maintenance (install on merge, strip on removal)
    /// equals the from-scratch rebuild, and reuse is what a merge did not
    /// grow the plan by.
    #[test]
    fn incremental_shr_matches_full_recompute() {
        let cat = catalog();
        let model = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_cross_zone();
        let machines: Vec<_> = (0..3).map(MachineId::new).collect();
        let opt = Optimizer::new(&cat, machines, &model, &prices);
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
        let rebuilt = |g: &GlobalPlan| {
            let mut fresh = g.clone();
            fresh.recompute_shr().unwrap();
            fresh.plan.canonical_string()
        };
        let mut plain = GlobalPlan::new();
        let (mut hits, mut misses) = (0, 0);
        for (id, q, sla) in [(1, q1, 45), (2, q2, 60), (3, q3, 45)] {
            let s = sharing(id, q, sla);
            let planned = opt.plan_admission(&s, HashMap::new(), None).unwrap();
            let before = plain.plan.vertex_count();
            plain.merge(&s, &planned).unwrap();
            let grew = plain.plan.vertex_count() - before;
            misses += grew;
            hits += planned.plan.vertex_count() - grew;
            assert_eq!(
                plain.plan.canonical_string(),
                rebuilt(&plain),
                "incremental SHR diverged from rebuild after sharing {id}"
            );
        }
        // Sharings 1 and 2 are identical: the second admission reused every
        // vertex, so its merge grew the plan by less than it brought.
        assert!(hits > 0, "duplicate sharing reused no vertex");
        assert_eq!(misses, plain.plan.vertex_count());

        plain.strip_sharing(SharingId::new(2));
        assert_eq!(plain.plan.canonical_string(), rebuilt(&plain));
    }
}
