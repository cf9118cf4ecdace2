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
//!
//! The builder writes into a [`Sink`]: a [`Plan`], or a
//! [`Tally`](crate::plan::cost::Tally) that keeps only what plan search's
//! objective and capacity test read. Both receive the same vertices and
//! edges, in the same order, from the same code, so a search costs each
//! candidate exactly as it would cost the plan that candidate builds, and
//! builds only its winner.

use crate::catalog::Catalog;
use crate::plan::dag::{DeltaSide, EdgeOp, Plan, VertexKind};
use crate::plan::sig::ExprSig;
use smile_storage::join::JoinOn;
use smile_storage::{AggregateSpec, Predicate};
use smile_types::{MachineId, RelationId, Result, Schema, VertexId};

/// A relation available inside a plan under construction: its vertex pair,
/// placement, and the estimates the cost model needs. `F` is what the
/// handle knows of the relation's structure: its signature and schema
/// ([`Structure`]) when the sink is a plan.
#[derive(Clone, Debug)]
pub struct RelHandle<F = Structure> {
    /// The Relation vertex.
    pub rel: VertexId,
    /// The Delta vertex.
    pub delta: VertexId,
    /// Structure of the effective contents (filters already folded in).
    pub form: F,
    /// Hosting machine.
    pub machine: MachineId,
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

impl<F> RelHandle<F> {
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

/// What a [`RelHandle`] knows of its relation's structure, derived step by
/// step as the builder wires: the signature and schema a plan's vertices
/// carry ([`Structure`]), or only what plan search reads
/// ([`Shape`](crate::plan::cost::Shape)).
pub trait Form: Clone {
    /// A base relation as its vertex pair stores it.
    fn base(rel: RelationId, schema: &Schema) -> Self;
    /// This relation with `pred` applied.
    fn filtered(&self, pred: &Predicate) -> Self;
    /// The join of `left` and `right` on `on`.
    fn joined(left: &Self, right: &Self, on: &JoinOn) -> Self;
    /// One half of the join `self` of `left` and `right`: the stream with
    /// the delta on the left side if `delta_left`, its inputs read on the
    /// machines `pair`.
    fn half(
        &self,
        left: &Self,
        right: &Self,
        on: &JoinOn,
        delta_left: bool,
        pair: (MachineId, MachineId),
    ) -> Self;
    /// Number of columns.
    fn arity(&self) -> usize;
    /// The MV step's output: this relation projected to `projection` or
    /// aggregated by `aggregate` (at most one of them is given).
    fn finished(
        self,
        projection: Option<&[usize]>,
        aggregate: Option<&AggregateSpec>,
    ) -> Result<Self>;
}

/// A relation's signature and schema, as a plan's vertices store them.
#[derive(Clone, Debug)]
pub struct Structure {
    /// Content signature.
    pub sig: ExprSig,
    /// Schema of the (unprojected) contents.
    pub schema: Schema,
}

impl Form for Structure {
    fn base(rel: RelationId, schema: &Schema) -> Self {
        Self {
            sig: ExprSig::base(rel),
            schema: schema.clone(),
        }
    }

    fn filtered(&self, pred: &Predicate) -> Self {
        Self {
            sig: ExprSig::filter(pred.clone(), self.sig.clone()),
            schema: self.schema.clone(),
        }
    }

    fn joined(left: &Self, right: &Self, on: &JoinOn) -> Self {
        Self {
            sig: ExprSig::join(left.sig.clone(), right.sig.clone(), on.clone()),
            schema: left.schema.join(&right.schema, "l", "r"),
        }
    }

    fn half(
        &self,
        left: &Self,
        right: &Self,
        on: &JoinOn,
        delta_left: bool,
        pair: (MachineId, MachineId),
    ) -> Self {
        let (l, r) = (left.sig.clone(), right.sig.clone());
        Self {
            sig: ExprSig::half_join(l, r, on.clone(), delta_left, pair),
            schema: self.schema.clone(),
        }
    }

    fn arity(&self) -> usize {
        self.schema.arity()
    }

    fn finished(
        self,
        projection: Option<&[usize]>,
        aggregate: Option<&AggregateSpec>,
    ) -> Result<Self> {
        let schema = match (aggregate, projection) {
            (Some(spec), _) => spec.output_schema(&self.schema)?,
            (None, Some(cols)) => self.schema.project(cols),
            (None, None) => self.schema,
        };
        let projected = ExprSig::project(projection.map(<[usize]>::to_vec), self.sig);
        let sig = ExprSig::aggregate(aggregate.cloned(), projected);
        Ok(Self { sig, schema })
    }
}

/// A vertex's estimates: delta arrival rate, materialized cardinality and
/// mean tuple payload bytes.
#[derive(Clone, Copy, Debug)]
pub struct Est {
    /// Tuples per second through the vertex.
    pub rate: f64,
    /// Materialized cardinality (0 for a delta).
    pub card: f64,
    /// Mean tuple payload bytes.
    pub tuple_bytes: f64,
}

/// Where a [`PlanBuilder`] writes the vertices and edges it wires, in
/// order: a [`Plan`], or a [`Tally`](crate::plan::cost::Tally) of their
/// cost. A sink deduplicates and refuses exactly as [`Plan::add_vertex`]
/// and [`Plan::add_edge`] do.
pub trait Sink {
    /// What this sink's handles know of a relation's structure.
    type Form: Form;

    /// Adds a vertex, or returns the identical one already added.
    fn vertex(
        &mut self,
        kind: VertexKind,
        form: &Self::Form,
        machine: MachineId,
        is_base: bool,
        est: Est,
    ) -> VertexId;

    /// Adds the edge producing `output`, or returns the equal one that
    /// already does; an error if a different edge does.
    fn edge(
        &mut self,
        op: EdgeOp,
        inputs: &[VertexId],
        output: VertexId,
        filter: &Predicate,
        projection: Option<&[usize]>,
        aggregate: Option<&AggregateSpec>,
    ) -> Result<usize>;
}

impl Sink for Plan {
    type Form = Structure;

    fn vertex(
        &mut self,
        kind: VertexKind,
        form: &Structure,
        machine: MachineId,
        is_base: bool,
        est: Est,
    ) -> VertexId {
        let (sig, schema) = (form.sig.clone(), form.schema.clone());
        self.add_vertex(kind, sig, machine, schema, is_base, est.rate, est.card, est.tuple_bytes)
    }

    fn edge(
        &mut self,
        op: EdgeOp,
        inputs: &[VertexId],
        output: VertexId,
        filter: &Predicate,
        projection: Option<&[usize]>,
        aggregate: Option<&AggregateSpec>,
    ) -> Result<usize> {
        let projection = projection.map(<[usize]>::to_vec);
        let edge = self.add_edge(op, inputs.to_vec(), output, filter.clone(), projection)?;
        if let Some(spec) = aggregate {
            self.set_edge_aggregate(edge, spec.clone());
        }
        Ok(edge)
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
    pub fn base_handle<S: Sink>(
        &self,
        sink: &mut S,
        rel: RelationId,
        predicate: Predicate,
    ) -> Result<RelHandle<S::Form>> {
        let base = self.catalog.base(rel)?;
        let sel = predicate.default_selectivity();
        let pair = S::Form::base(rel, &base.schema);
        let (rate, card, tuple_bytes) = (base.stats.update_rate, base.stats.cardinality, base.stats.tuple_bytes);
        let rel_v = sink.vertex(VertexKind::Relation, &pair, base.machine, true, Est { rate, card, tuple_bytes });
        let delta_v = sink.vertex(VertexKind::Delta, &pair, base.machine, true, Est { rate, card: 0.0, tuple_bytes });
        let eff_card = card * sel;
        let distinct = (0..base.schema.arity())
            .map(|c| base.stats.distinct_of(c).min(eff_card.max(1.0)))
            .collect();
        Ok(RelHandle {
            rel: rel_v,
            delta: delta_v,
            form: pair.filtered(&predicate),
            machine: base.machine,
            pending_filter: predicate,
            rate: rate * sel,
            card: eff_card,
            tuple_bytes,
            distinct,
        })
    }

    /// Ensures a *delta stream* of `handle`'s effective contents exists on
    /// `machine`: either the handle's own delta (same machine — the pending
    /// filter is returned for the consumer to apply), or a filtered
    /// `CopyDelta` to a new delta vertex (pending filter consumed by the
    /// copy). Returns `(delta vertex, residual filter)`.
    fn local_delta<S: Sink>(
        &self,
        sink: &mut S,
        handle: &RelHandle<S::Form>,
        machine: MachineId,
    ) -> Result<(VertexId, Predicate)> {
        if handle.machine == machine {
            return Ok((handle.delta, handle.pending_filter.clone()));
        }
        let est = Est { rate: handle.rate, card: 0.0, tuple_bytes: handle.tuple_bytes };
        let dst = sink.vertex(VertexKind::Delta, &handle.form, machine, false, est);
        let filter = &handle.pending_filter;
        sink.edge(EdgeOp::CopyDelta, &[handle.delta], dst, filter, None, None)?;
        Ok((dst, Predicate::True))
    }

    /// Maintains a full replica of `handle` on `machine` (Figure 3 cases
    /// b–d): a filtered `CopyDelta` feeds a new delta vertex, a
    /// `DeltaToRel` applies it to a new materialized relation. Returns a
    /// handle to the replica (no pending filter — the copy filters).
    pub fn replica<S: Sink>(
        &self,
        sink: &mut S,
        handle: &RelHandle<S::Form>,
        machine: MachineId,
    ) -> Result<RelHandle<S::Form>> {
        if handle.machine == machine {
            return Ok(handle.clone());
        }
        let (delta, residual) = self.local_delta(sink, handle, machine)?;
        debug_assert_eq!(residual, Predicate::True, "copy consumed the filter");
        let replica = RelHandle {
            rel: handle.rel, // replaced by `applied`
            delta,
            form: handle.form.clone(),
            machine,
            pending_filter: Predicate::True,
            rate: handle.rate,
            card: handle.card,
            tuple_bytes: handle.tuple_bytes,
            distinct: handle.distinct.clone(),
        };
        applied(sink, replica)
    }

    /// The in-place incremental join of Figure 2: joins `left` and `right`
    /// (wherever they live), materializing the result on `out_machine`.
    ///
    /// `projection`/`aggregate` mark the final MV step (at most one of
    /// them); intermediates pass `None`.
    /// `on.left_cols` index `left`'s columns, `on.right_cols` `right`'s.
    #[allow(clippy::too_many_arguments)]
    pub fn join_step<S: Sink>(
        &self,
        sink: &mut S,
        left: &RelHandle<S::Form>,
        right: &RelHandle<S::Form>,
        on: &JoinOn,
        out_machine: MachineId,
        projection: Option<&[usize]>,
        aggregate: Option<&AggregateSpec>,
    ) -> Result<RelHandle<S::Form>> {
        let fan_l2r = right.fanout(&on.right_cols);
        let fan_r2l = left.fanout(&on.left_cols);
        let rate1 = left.rate * fan_l2r; // Δ(ΔL ⋈ R)
        let rate2 = right.rate * fan_r2l; // Δ(L ⋈ ΔR)
        let out_card = (left.card * fan_l2r).max(0.0);
        let out_bytes = left.tuple_bytes + right.tuple_bytes;
        let joined = S::Form::joined(&left.form, &right.form, on);

        // The half-joins, each computed at its snapshot side's machine:
        // Δ(ΔL ⋈ R@old) at right's, then Δ(L@new ⋈ ΔR) at left's.
        let pair = (left.machine, right.machine);
        let mut halves = Vec::with_capacity(2);
        for (delta, snapshot, delta_side, rate) in [
            (left, right, DeltaSide::Left, rate1),
            (right, left, DeltaSide::Right, rate2),
        ] {
            let (d_in, filter) = self.local_delta(sink, delta, snapshot.machine)?;
            let delta_left = delta_side == DeltaSide::Left;
            let form = joined.half(&left.form, &right.form, on, delta_left, pair);
            let est = Est { rate, card: 0.0, tuple_bytes: out_bytes };
            let d_half = sink.vertex(VertexKind::Delta, &form, snapshot.machine, false, est);
            let op = EdgeOp::Join {
                on: on.clone(),
                delta_side,
                snapshot_filter: snapshot.pending_filter.clone(),
            };
            sink.edge(op, &[d_in, snapshot.rel], d_half, &filter, None, None)?;
            halves.push(((d_half, snapshot.machine), form, est));
        }
        // Both streams move to the output machine once both exist.
        let mut moved = Vec::with_capacity(2);
        for (half, form, est) in &halves {
            moved.push(self.move_delta(sink, *half, form, out_machine, *est)?);
        }

        // Distinct estimates of the join output: concatenated, capped, and
        // remapped through the projection if one applies.
        let cap = out_card.max(1.0);
        let sides = left.distinct.iter().chain(&right.distinct);
        let full_distinct: Vec<f64> = sides.map(|&d| d.min(cap)).collect();
        let distinct_of = |c: &usize| full_distinct.get(*c).copied().unwrap_or(cap);
        // Aggregate views hold roughly one row per live group.
        let card = match aggregate {
            Some(spec) => {
                let groups: f64 = spec.group_cols.iter().map(distinct_of).product();
                groups.min(cap)
            }
            None => out_card,
        };
        let distinct = match projection {
            Some(cols) => cols.iter().map(distinct_of).collect(),
            None => full_distinct,
        };
        let out = RelHandle {
            rel: left.rel, // both replaced by `mv_step`
            delta: left.delta,
            form: joined,
            machine: out_machine,
            pending_filter: Predicate::True,
            rate: rate1 + rate2,
            card,
            tuple_bytes: out_bytes,
            distinct,
        };
        let feed = (EdgeOp::Union, &moved[..], Predicate::True);
        mv_step(sink, out, feed, projection, aggregate)
    }

    /// Moves the delta vertex `delta` (with its machine) to `machine` with a
    /// `CopyDelta` when needed.
    fn move_delta<S: Sink>(
        &self,
        sink: &mut S,
        (delta, at): (VertexId, MachineId),
        form: &S::Form,
        machine: MachineId,
        est: Est,
    ) -> Result<VertexId> {
        if at == machine {
            return Ok(delta);
        }
        let dst = sink.vertex(VertexKind::Delta, form, machine, false, est);
        sink.edge(EdgeOp::CopyDelta, &[delta], dst, &Predicate::True, None, None)?;
        Ok(dst)
    }

    /// A single-relation sharing (select/project/aggregate only): the MV is
    /// a maintained filtered copy of the base.
    pub fn scan_plan<S: Sink>(
        &self,
        sink: &mut S,
        rel: RelationId,
        predicate: Predicate,
        projection: Option<&[usize]>,
        aggregate: Option<&AggregateSpec>,
        out_machine: MachineId,
    ) -> Result<RelHandle<S::Form>> {
        let base = self.base_handle(sink, rel, predicate.clone())?;
        // An identity scan (no filter, projection or aggregation) hosted on
        // the base's own machine would have the base relation's exact
        // signature and dedup into it — a self-loop. Materialize it as an
        // explicit full projection instead (the consumer gets its own
        // replica with its own staleness).
        let identity: Vec<usize>;
        let projection = if predicate == Predicate::True
            && projection.is_none()
            && aggregate.is_none()
            && out_machine == base.machine
        {
            identity = (0..base.form.arity()).collect();
            Some(&identity[..])
        } else {
            projection
        };
        let inputs = [base.delta];
        let feed = (EdgeOp::CopyDelta, &inputs[..], predicate);
        // The filtered base, re-homed: `mv_step` replaces its vertex pair.
        let scanned = RelHandle {
            machine: out_machine,
            pending_filter: Predicate::True,
            ..base
        };
        mv_step(sink, scanned, feed, projection, aggregate)
    }
}

/// The MV step, built once for every plan shape. `out` describes the
/// result before the final projection or aggregation (its vertex pair is
/// replaced here); `feed` is the edge — operator, inputs, filter — that
/// produces the MV's delta from what the caller built. Derives the MV's
/// structure and byte estimate, adds the delta vertex and its producing
/// edge (the projection riding it, or the aggregate replacing it), and
/// hands over to [`applied`].
fn mv_step<S: Sink>(
    sink: &mut S,
    mut out: RelHandle<S::Form>,
    (op, inputs, filter): (EdgeOp, &[VertexId], Predicate),
    projection: Option<&[usize]>,
    aggregate: Option<&AggregateSpec>,
) -> Result<RelHandle<S::Form>> {
    if aggregate.is_some() {
        out.tuple_bytes *= 0.5;
    } else if let Some(cols) = projection {
        // Rough byte estimate: share of columns kept.
        out.tuple_bytes *= cols.len() as f64 / out.form.arity().max(1) as f64;
    }
    out.form = out.form.finished(projection, aggregate)?;
    let est = Est { rate: out.rate, card: 0.0, tuple_bytes: out.tuple_bytes };
    out.delta = sink.vertex(VertexKind::Delta, &out.form, out.machine, false, est);
    // An aggregate's group and value columns index the unprojected rows.
    let riding = if aggregate.is_some() { None } else { projection };
    sink.edge(op, inputs, out.delta, &filter, riding, aggregate)?;
    applied(sink, out)
}

/// The applied relation of `handle`'s delta: a `Relation` vertex beside it
/// and the `DeltaToRel` edge that maintains it, as `handle.rel`.
fn applied<S: Sink>(sink: &mut S, mut handle: RelHandle<S::Form>) -> Result<RelHandle<S::Form>> {
    let est = Est { rate: handle.rate, card: handle.card, tuple_bytes: handle.tuple_bytes };
    handle.rel = sink.vertex(VertexKind::Relation, &handle.form, handle.machine, false, est);
    sink.edge(EdgeOp::DeltaToRel, &[handle.delta], handle.rel, &Predicate::True, None, None)?;
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
        assert_eq!(mv.form.schema.arity(), 4);
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
                Some(&[0][..]),
                None,
                MachineId::new(1),
            )
            .unwrap();
        plan.validate().unwrap();
        assert_eq!(mv.form.schema.arity(), 1);
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
                Some(&[0, 2][..]),
                None,
            )
            .unwrap();
        plan.validate().unwrap();
        assert_eq!(mv.form.schema.arity(), 2);
        assert!(plan.vertex_count() > 12);
    }
}
