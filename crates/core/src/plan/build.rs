//! Plan construction: wiring the four operators into join-step subplans.
//!
//! The optimizer composes plans from two primitives, mirroring §6.1 of the
//! paper:
//!
//! * [`PlanBuilder::replica`] — maintain a copy of a relation on another
//!   machine (one new vertex pair, a `CopyDelta` and a `DeltaToRel` edge);
//! * [`PlanBuilder::join_step`] — the in-place incremental join of Figure 2:
//!   ship each side's delta to the other side's machine, compute the two
//!   half-join delta streams `Δ(ΔL ⋈ R_old)` and `Δ(L_new ⋈ ΔR)`, copy
//!   them to the output machine, union, and apply.
//!
//! The four join placements of Figure 3 (in-place / copy left / copy right /
//! copy both) are expressed as `replica` calls followed by `join_step`.

use crate::catalog::Catalog;
use crate::plan::dag::{DeltaSide, EdgeOp, Plan, VertexKind};
use crate::plan::sig::ExprSig;
use smile_storage::join::JoinOn;
use smile_storage::{AggregateSpec, Predicate};
use smile_types::{MachineId, RelationId, Result, Schema, VertexId};

/// A relation available inside a plan under construction: its vertex pair,
/// placement, and the estimates the cost model needs.
#[derive(Clone, Debug)]
pub struct RelHandle {
    /// The Relation vertex.
    pub rel: VertexId,
    /// The Delta vertex.
    pub delta: VertexId,
    /// Effective content signature (filters already folded in).
    pub sig: ExprSig,
    /// Hosting machine.
    pub machine: MachineId,
    /// Schema of the (unprojected) contents.
    pub schema: Schema,
    /// Predicate that still has to be applied when this handle's *raw*
    /// storage is read (non-`True` only for base relations used in place;
    /// replicas and intermediates are materialized pre-filtered).
    pub pending_filter: Predicate,
    /// Update rate of the effective (filtered) relation, tuples/second.
    pub rate: f64,
    /// Cardinality of the effective relation.
    pub card: f64,
    /// Mean tuple payload bytes.
    pub tuple_bytes: f64,
    /// Per-column distinct estimates of the effective relation.
    pub distinct: Vec<f64>,
}

impl RelHandle {
    /// Distinct-value estimate over a set of columns (independence
    /// assumption, capped by the cardinality).
    pub fn distinct_of(&self, cols: &[usize]) -> f64 {
        let product: f64 = cols
            .iter()
            .map(|&c| self.distinct.get(c).copied().unwrap_or(self.card).max(1.0))
            .product();
        product.min(self.card.max(1.0))
    }

    /// Expected matches in this relation per probing tuple on `cols`.
    pub fn fanout(&self, cols: &[usize]) -> f64 {
        self.card.max(0.0) / self.distinct_of(cols)
    }
}

/// Builds plan fragments against a catalog.
pub struct PlanBuilder<'a> {
    catalog: &'a Catalog,
}

impl<'a> PlanBuilder<'a> {
    /// Builder over the given catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog }
    }

    /// Adds (or finds) the vertex pair of a base relation at its home
    /// machine, with `predicate` recorded as pending (applied downstream by
    /// the edges that move its tuples).
    pub fn base_handle(
        &self,
        plan: &mut Plan,
        rel: RelationId,
        predicate: Predicate,
    ) -> Result<RelHandle> {
        let base = self.catalog.base(rel)?;
        let sel = predicate.default_selectivity();
        let sig = ExprSig::base(rel);
        let rate = base.stats.update_rate;
        let card = base.stats.cardinality;
        let rel_v = plan.add_vertex(
            VertexKind::Relation,
            sig.clone(),
            base.machine,
            base.schema.clone(),
            true,
            rate,
            card,
            base.stats.tuple_bytes,
        );
        let delta_v = plan.add_vertex(
            VertexKind::Delta,
            sig.clone(),
            base.machine,
            base.schema.clone(),
            true,
            rate,
            0.0,
            base.stats.tuple_bytes,
        );
        let eff_card = card * sel;
        let distinct = (0..base.schema.arity())
            .map(|c| base.stats.distinct_of(c).min(eff_card.max(1.0)))
            .collect();
        Ok(RelHandle {
            rel: rel_v,
            delta: delta_v,
            sig: ExprSig::filter(predicate.clone(), sig),
            machine: base.machine,
            schema: base.schema.clone(),
            pending_filter: predicate,
            rate: rate * sel,
            card: eff_card,
            tuple_bytes: base.stats.tuple_bytes,
            distinct,
        })
    }

    /// Ensures a *delta stream* of `handle`'s effective contents exists on
    /// `machine`: either the handle's own delta (same machine — the pending
    /// filter is returned for the consumer to apply), or a filtered
    /// `CopyDelta` to a new delta vertex (pending filter consumed by the
    /// copy). Returns `(delta vertex, residual filter)`.
    fn local_delta(
        &self,
        plan: &mut Plan,
        handle: &RelHandle,
        machine: MachineId,
    ) -> Result<(VertexId, Predicate)> {
        if handle.machine == machine {
            return Ok((handle.delta, handle.pending_filter.clone()));
        }
        let dst = plan.add_vertex(
            VertexKind::Delta,
            handle.sig.clone(),
            machine,
            handle.schema.clone(),
            false,
            handle.rate,
            0.0,
            handle.tuple_bytes,
        );
        plan.add_edge(
            EdgeOp::CopyDelta,
            vec![handle.delta],
            dst,
            handle.pending_filter.clone(),
            None,
        )?;
        Ok((dst, Predicate::True))
    }

    /// Maintains a full replica of `handle` on `machine` (Figure 3 cases
    /// b–d): a filtered `CopyDelta` feeds a new delta vertex, a
    /// `DeltaToRel` applies it to a new materialized relation. Returns a
    /// handle to the replica (no pending filter — the copy filters).
    pub fn replica(
        &self,
        plan: &mut Plan,
        handle: &RelHandle,
        machine: MachineId,
    ) -> Result<RelHandle> {
        if handle.machine == machine {
            return Ok(handle.clone());
        }
        let (delta, residual) = self.local_delta(plan, handle, machine)?;
        debug_assert_eq!(residual, Predicate::True, "copy consumed the filter");
        let replica = RelHandle {
            rel: handle.rel, // replaced by `applied`
            delta,
            sig: handle.sig.clone(),
            machine,
            schema: handle.schema.clone(),
            pending_filter: Predicate::True,
            rate: handle.rate,
            card: handle.card,
            tuple_bytes: handle.tuple_bytes,
            distinct: handle.distinct.clone(),
        };
        applied(plan, replica)
    }

    /// The in-place incremental join of Figure 2: joins `left` and `right`
    /// (wherever they live), materializing the result on `out_machine`.
    ///
    /// `projection`/`aggregate` mark the final MV step (at most one of
    /// them); intermediates pass `None`.
    /// `on.left_cols` index `left.schema`, `on.right_cols` index
    /// `right.schema`.
    #[allow(clippy::too_many_arguments)]
    pub fn join_step(
        &self,
        plan: &mut Plan,
        left: &RelHandle,
        right: &RelHandle,
        on: &JoinOn,
        out_machine: MachineId,
        projection: Option<Vec<usize>>,
        aggregate: Option<AggregateSpec>,
    ) -> Result<RelHandle> {
        let fan_l2r = right.fanout(&on.right_cols);
        let fan_r2l = left.fanout(&on.left_cols);
        let rate1 = left.rate * fan_l2r; // Δ(ΔL ⋈ R)
        let rate2 = right.rate * fan_r2l; // Δ(L ⋈ ΔR)
        let out_card = (left.card * fan_l2r).max(0.0);
        let out_bytes = left.tuple_bytes + right.tuple_bytes;
        let out_schema = left.schema.join(&right.schema, "l", "r");

        // The half-joins, each computed at its snapshot side's machine:
        // Δ(ΔL ⋈ R@old) at right's, then Δ(L@new ⋈ ΔR) at left's.
        let pair = (left.machine, right.machine);
        let mut halves = Vec::with_capacity(2);
        for (delta, snapshot, delta_side, rate) in [
            (left, right, DeltaSide::Left, rate1),
            (right, left, DeltaSide::Right, rate2),
        ] {
            let (d_in, filter) = self.local_delta(plan, delta, snapshot.machine)?;
            let delta_left = delta_side == DeltaSide::Left;
            let (l, r) = (left.sig.clone(), right.sig.clone());
            let sig = ExprSig::half_join(l, r, on.clone(), delta_left, pair);
            let d_half = plan.add_vertex(
                VertexKind::Delta,
                sig.clone(),
                snapshot.machine,
                out_schema.clone(),
                false,
                rate,
                0.0,
                out_bytes,
            );
            let op = EdgeOp::Join {
                on: on.clone(),
                delta_side,
                snapshot_filter: snapshot.pending_filter.clone(),
            };
            let inputs = vec![d_in, snapshot.rel];
            plan.add_edge(op, inputs, d_half, filter, None)?;
            halves.push((d_half, sig, rate));
        }
        // Both streams move to the output machine once both exist.
        let mut moved = Vec::with_capacity(2);
        for (d_half, sig, rate) in &halves {
            moved.push(self.move_delta(plan, *d_half, sig, out_machine, *rate, out_bytes)?);
        }

        // Distinct estimates of the join output: concatenated, capped, and
        // remapped through the projection if one applies.
        let cap = out_card.max(1.0);
        let sides = left.distinct.iter().chain(&right.distinct);
        let full_distinct: Vec<f64> = sides.map(|&d| d.min(cap)).collect();
        let distinct_of = |c: &usize| full_distinct.get(*c).copied().unwrap_or(cap);
        // Aggregate views hold roughly one row per live group.
        let card = match &aggregate {
            Some(spec) => {
                let groups: f64 = spec.group_cols.iter().map(distinct_of).product();
                groups.min(cap)
            }
            None => out_card,
        };
        let distinct = match &projection {
            Some(cols) => cols.iter().map(distinct_of).collect(),
            None => full_distinct,
        };
        let joined = RelHandle {
            rel: left.rel, // both replaced by `mv_step`
            delta: left.delta,
            sig: ExprSig::join(left.sig.clone(), right.sig.clone(), on.clone()),
            machine: out_machine,
            schema: out_schema,
            pending_filter: Predicate::True,
            rate: rate1 + rate2,
            card,
            tuple_bytes: out_bytes,
            distinct,
        };
        let feed = (EdgeOp::Union, moved, Predicate::True);
        mv_step(plan, joined, feed, projection, aggregate)
    }

    /// Moves a delta vertex to `machine` with a `CopyDelta` when needed.
    fn move_delta(
        &self,
        plan: &mut Plan,
        delta: VertexId,
        sig: &ExprSig,
        machine: MachineId,
        rate: f64,
        bytes: f64,
    ) -> Result<VertexId> {
        if plan.vertex(delta).machine == machine {
            return Ok(delta);
        }
        let schema = plan.vertex(delta).schema.clone();
        let dst = plan.add_vertex(
            VertexKind::Delta,
            sig.clone(),
            machine,
            schema,
            false,
            rate,
            0.0,
            bytes,
        );
        plan.add_edge(EdgeOp::CopyDelta, vec![delta], dst, Predicate::True, None)?;
        Ok(dst)
    }

    /// A single-relation sharing (select/project/aggregate only): the MV is
    /// a maintained filtered copy of the base.
    pub fn scan_plan(
        &self,
        plan: &mut Plan,
        rel: RelationId,
        predicate: Predicate,
        projection: Option<Vec<usize>>,
        aggregate: Option<AggregateSpec>,
        out_machine: MachineId,
    ) -> Result<RelHandle> {
        let base = self.base_handle(plan, rel, predicate.clone())?;
        // An identity scan (no filter, projection or aggregation) hosted on
        // the base's own machine would have the base relation's exact
        // signature and dedup into it — a self-loop. Materialize it as an
        // explicit full projection instead (the consumer gets its own
        // replica with its own staleness).
        let projection = if predicate == Predicate::True
            && projection.is_none()
            && aggregate.is_none()
            && out_machine == base.machine
        {
            Some((0..base.schema.arity()).collect())
        } else {
            projection
        };
        let feed = (EdgeOp::CopyDelta, vec![base.delta], predicate);
        // The filtered base, re-homed: `mv_step` replaces its vertex pair.
        let scanned = RelHandle {
            machine: out_machine,
            pending_filter: Predicate::True,
            ..base
        };
        mv_step(plan, scanned, feed, projection, aggregate)
    }
}

/// The MV step, built once for every plan shape. `out` describes the
/// result before the final projection or aggregation (its vertex pair is
/// replaced here); `feed` is the edge — operator, inputs, filter — that
/// produces the MV's delta from what the caller built. Derives the MV's
/// schema, byte estimate and signature, adds the delta vertex and its
/// producing edge (the projection riding it, or the aggregate replacing
/// it), and hands over to [`applied`].
fn mv_step(
    plan: &mut Plan,
    mut out: RelHandle,
    feed: (EdgeOp, Vec<VertexId>, Predicate),
    projection: Option<Vec<usize>>,
    aggregate: Option<AggregateSpec>,
) -> Result<RelHandle> {
    if let Some(spec) = &aggregate {
        out.schema = spec.output_schema(&out.schema)?;
        out.tuple_bytes *= 0.5;
    } else if let Some(cols) = &projection {
        // Rough byte estimate: share of columns kept.
        out.tuple_bytes *= cols.len() as f64 / out.schema.arity().max(1) as f64;
        out.schema = out.schema.project(cols);
    }
    out.sig = ExprSig::aggregate(
        aggregate.clone(),
        ExprSig::project(projection.clone(), out.sig),
    );
    out.delta = plan.add_vertex(
        VertexKind::Delta,
        out.sig.clone(),
        out.machine,
        out.schema.clone(),
        false,
        out.rate,
        0.0,
        out.tuple_bytes,
    );
    let (op, inputs, filter) = feed;
    // An aggregate's group and value columns index the unprojected rows.
    let riding = if aggregate.is_some() {
        None
    } else {
        projection
    };
    let edge = plan.add_edge(op, inputs, out.delta, filter, riding)?;
    if let Some(spec) = aggregate {
        plan.set_edge_aggregate(edge, spec);
    }
    applied(plan, out)
}

/// The applied relation of `handle`'s delta: a `Relation` vertex beside it
/// and the `DeltaToRel` edge that maintains it, as `handle.rel`.
fn applied(plan: &mut Plan, mut handle: RelHandle) -> Result<RelHandle> {
    handle.rel = plan.add_vertex(
        VertexKind::Relation,
        handle.sig.clone(),
        handle.machine,
        handle.schema.clone(),
        false,
        handle.rate,
        handle.card,
        handle.tuple_bytes,
    );
    plan.add_edge(
        EdgeOp::DeltaToRel,
        vec![handle.delta],
        handle.rel,
        Predicate::True,
        None,
    )?;
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{BaseStats, Catalog};
    use smile_types::{Column, ColumnType};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_base(
            "users",
            Schema::new(
                vec![
                    Column::new("uid", ColumnType::I64),
                    Column::new("name", ColumnType::Str),
                ],
                vec![0],
            ),
            MachineId::new(0),
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
            MachineId::new(1),
            BaseStats {
                update_rate: 100.0,
                cardinality: 100_000.0,
                tuple_bytes: 80.0,
                distinct: vec![100_000.0, 10_000.0],
            },
        );
        c
    }

    #[test]
    fn in_place_two_way_join_has_figure2_shape() {
        let cat = catalog();
        let b = PlanBuilder::new(&cat);
        let mut plan = Plan::new();
        let users = b
            .base_handle(&mut plan, RelationId::new(0), Predicate::True)
            .unwrap();
        let tweets = b
            .base_handle(&mut plan, RelationId::new(1), Predicate::True)
            .unwrap();
        let mv = b
            .join_step(
                &mut plan,
                &users,
                &tweets,
                &JoinOn::on(0, 1),
                MachineId::new(2),
                None,
                None,
            )
            .unwrap();
        plan.validate().unwrap();
        // Figure 2: 12 vertices (4 base + Δ copies ×2 + half-joins ×2 +
        // their copies ×2 + Δout + MV), 10 edges.
        assert_eq!(plan.vertex_count(), 12);
        assert_eq!(plan.edge_count(), 8);
        assert_eq!(plan.vertex(mv.rel).machine, MachineId::new(2));
        assert_eq!(mv.schema.arity(), 4);
        // Output rate accounts for both half-streams.
        assert!(mv.rate > 0.0);
    }

    #[test]
    fn co_located_join_needs_no_copies() {
        let mut cat = Catalog::new();
        for name in ["a", "b"] {
            cat.register_base(
                name,
                Schema::new(vec![Column::new("k", ColumnType::I64)], vec![0]),
                MachineId::new(0),
                BaseStats {
                    update_rate: 10.0,
                    cardinality: 100.0,
                    tuple_bytes: 16.0,
                    distinct: vec![100.0],
                },
            );
        }
        let b = PlanBuilder::new(&cat);
        let mut plan = Plan::new();
        let ah = b
            .base_handle(&mut plan, RelationId::new(0), Predicate::True)
            .unwrap();
        let bh = b
            .base_handle(&mut plan, RelationId::new(1), Predicate::True)
            .unwrap();
        b.join_step(
            &mut plan,
            &ah,
            &bh,
            &JoinOn::on(0, 0),
            MachineId::new(0),
            None,
            None,
        )
        .unwrap();
        plan.validate().unwrap();
        let copies = plan
            .edges()
            .iter()
            .filter(|e| matches!(e.op, EdgeOp::CopyDelta))
            .count();
        assert_eq!(copies, 0);
    }

    #[test]
    fn replica_filters_at_the_copy() {
        let cat = catalog();
        let b = PlanBuilder::new(&cat);
        let mut plan = Plan::new();
        let pred = Predicate::eq(1, "ann");
        let users = b
            .base_handle(&mut plan, RelationId::new(0), pred.clone())
            .unwrap();
        assert_eq!(users.pending_filter, pred);
        let replica = b.replica(&mut plan, &users, MachineId::new(1)).unwrap();
        assert_eq!(replica.pending_filter, Predicate::True);
        assert_eq!(replica.machine, MachineId::new(1));
        // The copy edge carries the filter.
        let copy = plan
            .edges()
            .iter()
            .find(|e| matches!(e.op, EdgeOp::CopyDelta))
            .unwrap();
        assert_eq!(copy.filter, pred);
        // Selectivity reduced rate and cardinality.
        assert!(replica.rate < 30.0);
        assert!(replica.card < 10_000.0);
        plan.validate().unwrap();
    }

    #[test]
    fn replica_on_same_machine_is_identity() {
        let cat = catalog();
        let b = PlanBuilder::new(&cat);
        let mut plan = Plan::new();
        let users = b
            .base_handle(&mut plan, RelationId::new(0), Predicate::True)
            .unwrap();
        let same = b.replica(&mut plan, &users, MachineId::new(0)).unwrap();
        assert_eq!(same.rel, users.rel);
        assert_eq!(plan.edge_count(), 0);
    }

    #[test]
    fn scan_plan_builds_filtered_projected_mv() {
        let cat = catalog();
        let b = PlanBuilder::new(&cat);
        let mut plan = Plan::new();
        let mv = b
            .scan_plan(
                &mut plan,
                RelationId::new(0),
                Predicate::eq(1, "ann"),
                Some(vec![0]),
                None,
                MachineId::new(1),
            )
            .unwrap();
        plan.validate().unwrap();
        assert_eq!(mv.schema.arity(), 1);
        assert_eq!(plan.vertex(mv.rel).machine, MachineId::new(1));
        assert_eq!(plan.edge_count(), 2);
    }

    #[test]
    fn fanout_estimates_reflect_key_joins() {
        let cat = catalog();
        let b = PlanBuilder::new(&cat);
        let mut plan = Plan::new();
        let users = b
            .base_handle(&mut plan, RelationId::new(0), Predicate::True)
            .unwrap();
        let tweets = b
            .base_handle(&mut plan, RelationId::new(1), Predicate::True)
            .unwrap();
        // users.uid is a key: one match per probing tweet.
        assert!((users.fanout(&[0]) - 1.0).abs() < 1e-9);
        // tweets.uid is a foreign key: ~10 tweets per user.
        assert!((tweets.fanout(&[1]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn three_way_chain_composes() {
        let cat = catalog();
        let b = PlanBuilder::new(&cat);
        let mut plan = Plan::new();
        let users = b
            .base_handle(&mut plan, RelationId::new(0), Predicate::True)
            .unwrap();
        let tweets = b
            .base_handle(&mut plan, RelationId::new(1), Predicate::True)
            .unwrap();
        let ut = b
            .join_step(
                &mut plan,
                &users,
                &tweets,
                &JoinOn::on(0, 1),
                MachineId::new(2),
                None,
                None,
            )
            .unwrap();
        // Join the intermediate with users again (self-join shape, exercises
        // intermediate-as-left).
        let users2 = b
            .base_handle(&mut plan, RelationId::new(0), Predicate::True)
            .unwrap();
        let mv = b
            .join_step(
                &mut plan,
                &ut,
                &users2,
                &JoinOn::on(0, 0),
                MachineId::new(2),
                Some(vec![0, 2]),
                None,
            )
            .unwrap();
        plan.validate().unwrap();
        assert_eq!(mv.schema.arity(), 2);
        assert!(plan.vertex_count() > 12);
    }
}
