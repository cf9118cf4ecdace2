//! The sharing-plan DAG: vertices, edges, validation, traversal.

use crate::plan::sig::ExprSig;
use smile_storage::join::JoinOn;
use smile_storage::{IndexCols, Predicate, SlotIndex};
use smile_types::{FastMap, MachineId, RelationId, Result, Schema, SmileError, Value, VertexId};
use std::collections::hash_map::Entry;
use std::collections::HashSet;

/// Whether a vertex holds materialized relation contents or a delta log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VertexKind {
    /// Materialized relation contents (base relation, replica, intermediate
    /// join result, or the MV itself).
    Relation,
    /// The delta log `Δv` of the relation with the same signature/machine.
    Delta,
}

/// Which side of the join output the delta input occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeltaSide {
    /// Output tuples are `delta ++ snapshot`.
    Left,
    /// Output tuples are `snapshot ++ delta`.
    Right,
}

impl DeltaSide {
    /// `on`'s join columns on the delta side, then on the relation side.
    pub fn cols(self, on: &JoinOn) -> (&[usize], &[usize]) {
        match self {
            DeltaSide::Left => (&on.left_cols, &on.right_cols),
            DeltaSide::Right => (&on.right_cols, &on.left_cols),
        }
    }
}

/// Identity of one physical index: the machine hosting it, the relation
/// slot it belongs to and which of the slot's indexes it is.
pub type IndexId = (MachineId, RelationId, SlotIndex);

/// One plan vertex: a relation or delta pinned to a machine.
#[derive(Clone, Debug)]
pub struct Vertex {
    /// Identity within the plan.
    pub id: VertexId,
    /// Relation contents or delta log.
    pub kind: VertexKind,
    /// Content signature.
    pub sig: ExprSig,
    /// Hosting machine.
    pub machine: MachineId,
    /// Tuple schema of the contents.
    pub schema: Schema,
    /// True for base relations / base deltas: they are plan sources fed by
    /// delta capture, never pushed by the executor.
    pub is_base: bool,
    /// Storage slot on the machine (assigned at install time; `None` for
    /// candidate plans that were never instantiated). A Relation vertex and
    /// its Delta vertex share the slot.
    pub slot: Option<RelationId>,
    /// Estimated delta arrival rate through this vertex (tuples/second).
    pub est_rate: f64,
    /// Estimated materialized cardinality (Relation vertices).
    pub est_card: f64,
    /// Estimated mean tuple payload bytes.
    pub est_tuple_bytes: f64,
}

/// The operator an edge applies.
#[derive(Clone, Debug, PartialEq)]
pub enum EdgeOp {
    /// Ship the delta window from one machine to another.
    CopyDelta,
    /// Apply the pending delta window to the co-located relation.
    DeltaToRel,
    /// Join the delta window of `inputs[0]` against a snapshot of
    /// `inputs[1]` (a Relation vertex) as of the sibling half-join's
    /// coverage ([`Plan::half_join_anchors`]).
    Join {
        /// Equi-join condition, oriented left-to-right of the *output*
        /// schema.
        on: JoinOn,
        /// Which side of the output the delta occupies.
        delta_side: DeltaSide,
        /// Selection applied to the snapshot side before joining (the other
        /// base relation's pushed-down predicate).
        snapshot_filter: Predicate,
    },
    /// Merge several delta streams into one.
    Union,
}

impl EdgeOp {
    /// Stable operator name for statistics and display.
    pub fn name(&self) -> &'static str {
        match self {
            EdgeOp::CopyDelta => "CopyDelta",
            EdgeOp::DeltaToRel => "DeltaToRel",
            EdgeOp::Join { .. } => "Join",
            EdgeOp::Union => "Union",
        }
    }
}

/// One plan edge.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Index within the plan's edge list.
    pub id: usize,
    /// The operator.
    pub op: EdgeOp,
    /// Input vertices. `Join`: `[delta, relation]`; `Union`: all deltas;
    /// others: single input.
    pub inputs: Vec<VertexId>,
    /// Output vertex (every non-base vertex has exactly one producing edge).
    pub output: VertexId,
    /// Selection applied to tuples moved along this edge (pushdown).
    pub filter: Predicate,
    /// Projection applied to tuples moved along this edge (the MV's final
    /// projection rides the last Union / DeltaToRel).
    pub projection: Option<Vec<usize>>,
    /// Group-by aggregation applied where this edge writes the MV's delta
    /// (the §10 aggregate-operator extension): the raw window is folded
    /// into aggregate-space delete/insert entries against the MV's current
    /// rows.
    pub aggregate: Option<smile_storage::AggregateSpec>,
}

impl Edge {
    /// The machine this edge's work runs on. All operators run where their
    /// output lives; `CopyDelta` additionally occupies the input machine's
    /// NIC.
    pub fn runs_on(&self, plan: &Plan) -> MachineId {
        plan.vertex(self.output).machine
    }

    /// Whether this edge still produces its output. An edge serves what its
    /// output serves; one `Plan::detach_producer` took off its output
    /// serves nothing and awaits collection.
    pub fn attached(&self, plan: &Plan) -> bool {
        plan.producer[self.output.index()] == Some(self.id)
    }

    /// What adding `other` gives where `self` already produces its output:
    /// `self`'s id when `other` applies the same operator to the same
    /// inputs with the same filter and projection, else the conflict.
    pub(crate) fn dedup(&self, other: &Edge) -> Result<usize> {
        if self.op == other.op
            && self.inputs == other.inputs
            && self.filter == other.filter
            && self.projection == other.projection
        {
            return Ok(self.id);
        }
        Err(SmileError::InvalidPlan(format!(
            "vertex {} already produced by a different edge",
            other.output
        )))
    }
}

/// What [`Plan::undo`] needs to take back a rewiring: the plan's vertex and
/// edge counts before it, and the producer it detached.
#[derive(Debug)]
pub(crate) struct Undo {
    vertices: usize,
    edges: usize,
    detached: Option<Detached>,
}

/// A producer [`Plan::detach_producer`] took off its output: the edge, its
/// inputs, and each input with the position the edge held in its consumer
/// list.
#[derive(Debug)]
struct Detached {
    edge: usize,
    inputs: Vec<VertexId>,
    at: Vec<(VertexId, usize)>,
}

/// A sharing plan (or the merged global plan `D`).
#[derive(Clone, Debug, Default)]
pub struct Plan {
    vertices: Vec<Vertex>,
    edges: Vec<Edge>,
    /// Producing edge of each vertex (`None` for sources).
    producer: Vec<Option<usize>>,
    /// Consuming edges of each vertex.
    consumers: Vec<Vec<usize>>,
    /// Fast duplicate detection: (kind, sig, machine) → vertex. Only
    /// looked up, never iterated.
    index: FastMap<(VertexKind, ExprSig, MachineId), VertexId>,
}

impl Plan {
    /// Deterministic rendering of the plan's structure — vertices, edges and
    /// producer wiring — for byte-comparison in differential tests. `Debug`
    /// on the whole `Plan` is unsuitable for that: the signature index is a
    /// hash map, so two structurally identical plans can print differently.
    pub fn canonical_string(&self) -> String {
        format!("{:?};{:?};{:?}", self.vertices, self.edges, self.producer)
    }

    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All vertices.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Vertex by id (panics on stale id — plan ids are internal).
    pub fn vertex(&self, v: VertexId) -> &Vertex {
        &self.vertices[v.index()]
    }

    /// Mutable vertex access.
    pub fn vertex_mut(&mut self, v: VertexId) -> &mut Vertex {
        &mut self.vertices[v.index()]
    }

    /// Edge by index.
    pub fn edge(&self, e: usize) -> &Edge {
        &self.edges[e]
    }

    /// The edge producing `v`, if any.
    pub fn producer(&self, v: VertexId) -> Option<&Edge> {
        self.producer[v.index()].map(|e| &self.edges[e])
    }

    /// The arrangement join edge `e` probes — on the snapshot side's
    /// machine and relation slot, keyed by that side's join columns and
    /// partitioned by the `col = literal` conjuncts of the snapshot filter
    /// ([`Predicate::eq_literals`]) — and the literals naming the partition
    /// `e` reads. Edges that differ only by those literals share one
    /// arrangement. `None` for any other operator, or while the relation
    /// has no storage. What the push engine probes, and the first of
    /// [`Plan::reads`].
    pub fn probed_arrangement(&self, e: &Edge) -> Option<(MachineId, RelationId, IndexCols, Vec<Value>)> {
        let EdgeOp::Join { on, delta_side, snapshot_filter } = &e.op else {
            return None;
        };
        let (_, key) = delta_side.cols(on);
        let (partition, literals) = snapshot_filter
            .eq_literals()
            .into_iter()
            .map(|(col, value)| (col, value.clone()))
            .unzip();
        let rel = self.vertex(e.inputs[1]);
        let cols = IndexCols { partition, key: key.to_vec() };
        Some((rel.machine, rel.slot?, cols, literals))
    }

    /// Every index edge `e` reads through. A join's probed arrangement
    /// ([`Plan::probed_arrangement`]) comes first. Then, for every input
    /// log it filters by `col = literal` conjuncts
    /// ([`Predicate::eq_literals`]), that log's partition on their columns:
    /// the delta inputs of a copy, a union or a join under the edge filter.
    /// A join that probes an arrangement partition under no edge filter
    /// reads its delta log by join key instead, through the log's partition
    /// on its delta-side join columns (the small-side half-join, DESIGN
    /// §9a). Last comes a join's relation log, which its correction reads:
    /// under the snapshot filter, on the probed arrangement's partition
    /// columns; or, for a *literal-delta half-join* — an unpartitioned
    /// arrangement probed by a delta side that is a selection with
    /// `col = literal` conjuncts, under the edge filter or in the delta
    /// input's signature (a filtered copy) — on the arrangement's key
    /// columns, the join-key history each window entry reads its own key's
    /// log rows through. Nothing for `DeltaToRel` and nothing on inputs
    /// without storage. The one definition install, reconcile,
    /// introspection and the push engine's reads agree on.
    pub fn reads(&self, e: &Edge) -> Vec<IndexId> {
        let cols: Vec<usize> = e.filter.eq_literals().into_iter().map(|(c, _)| c).collect();
        let filtered = match &e.op {
            _ if cols.is_empty() => &[][..],
            EdgeOp::DeltaToRel => &[][..],
            EdgeOp::Join { .. } => &e.inputs[..1],
            EdgeOp::CopyDelta | EdgeOp::Union => &e.inputs[..],
        };
        let logs = filtered.iter().map(|&v| self.vertex(v));
        let logs = logs.filter_map(|v| Some((v.machine, v.slot?, SlotIndex::Log(cols.clone()))));
        let Some((machine, slot, on, _)) = self.probed_arrangement(e) else { return logs.collect() };
        let join_key = match &e.op {
            EdgeOp::Join { on: join, delta_side, .. }
                if !on.partition.is_empty() && e.filter == Predicate::True =>
            {
                let delta = self.vertex(e.inputs[0]);
                let cols = delta_side.cols(join).0.to_vec();
                delta.slot.map(|slot| (delta.machine, slot, SlotIndex::Log(cols)))
            }
            _ => None,
        };
        let literal_delta = !cols.is_empty()
            || matches!(&self.vertex(e.inputs[0]).sig, ExprSig::Filter { pred, .. } if !pred.eq_literals().is_empty());
        let rel_log = match (on.partition.is_empty(), literal_delta) {
            (false, _) => Some(on.partition.clone()),
            (true, true) => Some(on.key.clone()),
            (true, false) => None,
        };
        let rel_log = rel_log.map(|cols| (machine, slot, SlotIndex::Log(cols)));
        let arrangement = (machine, slot, SlotIndex::Arrangement(on));
        std::iter::once(arrangement).chain(logs).chain(join_key).chain(rel_log).collect()
    }

    /// Edges consuming `v`.
    pub fn consumers(&self, v: VertexId) -> impl Iterator<Item = &Edge> {
        self.consumers[v.index()].iter().map(|&e| &self.edges[e])
    }

    /// Finds a vertex by (kind, signature, machine).
    pub fn find_vertex(
        &self,
        kind: VertexKind,
        sig: &ExprSig,
        machine: MachineId,
    ) -> Option<VertexId> {
        self.index.get(&(kind, sig.clone(), machine)).copied()
    }

    /// Adds a vertex, deduplicating on (kind, sig, machine): if an identical
    /// vertex exists, its id is returned.
    #[allow(clippy::too_many_arguments)]
    pub fn add_vertex(
        &mut self,
        kind: VertexKind,
        sig: ExprSig,
        machine: MachineId,
        schema: Schema,
        is_base: bool,
        est_rate: f64,
        est_card: f64,
        est_tuple_bytes: f64,
    ) -> VertexId {
        let id = VertexId::new(self.vertices.len() as u32);
        let sig = match self.index.entry((kind, sig, machine)) {
            Entry::Occupied(existing) => return *existing.get(),
            Entry::Vacant(slot) => {
                let sig = slot.key().1.clone();
                slot.insert(id);
                sig
            }
        };
        self.push_vertex(Vertex {
            id,
            kind,
            sig,
            machine,
            schema,
            is_base,
            slot: None,
            est_rate,
            est_card,
            est_tuple_bytes,
        })
    }

    /// Adds a copy of `v` — a vertex of another plan — under this plan's
    /// next id, every other field carried over (the storage slot
    /// included). Deduplicates like [`Plan::add_vertex`]: an identical
    /// vertex already here is returned as it is.
    pub fn add_vertex_copy(&mut self, v: &Vertex) -> VertexId {
        let id = VertexId::new(self.vertices.len() as u32);
        match self.index.entry((v.kind, v.sig.clone(), v.machine)) {
            Entry::Occupied(existing) => return *existing.get(),
            Entry::Vacant(slot) => slot.insert(id),
        };
        self.push_vertex(Vertex { id, ..v.clone() })
    }

    /// The tail of both vertex adders: `v` is new and already indexed.
    fn push_vertex(&mut self, v: Vertex) -> VertexId {
        let id = v.id;
        self.vertices.push(v);
        self.producer.push(None);
        self.consumers.push(Vec::new());
        id
    }

    /// Adds an edge. If the output vertex already has a producer with the
    /// same operator and inputs, the edge is deduplicated.
    ///
    /// Returns an error if the output already has a *different* producer —
    /// a structural conflict the optimizer must resolve before merging.
    /// The edge's rate and tuple-size estimates are its output vertex's.
    pub fn add_edge(
        &mut self,
        op: EdgeOp,
        inputs: Vec<VertexId>,
        output: VertexId,
        filter: Predicate,
        projection: Option<Vec<usize>>,
    ) -> Result<usize> {
        self.attach(Edge {
            id: self.edges.len(),
            op,
            inputs,
            output,
            filter,
            projection,
            aggregate: None,
        })
    }

    /// Adds a copy of `e` — an edge of another plan — between `inputs` and
    /// `output` of this one, every other field carried over (the aggregate
    /// included). Deduplicates and conflicts like [`Plan::add_edge`].
    pub fn add_edge_copy(
        &mut self,
        e: &Edge,
        inputs: Vec<VertexId>,
        output: VertexId,
    ) -> Result<usize> {
        // Every field by name, so a field added to `Edge` fails to compile
        // here until the copy carries it.
        self.attach(Edge {
            id: self.edges.len(),
            op: e.op.clone(),
            inputs,
            output,
            filter: e.filter.clone(),
            projection: e.projection.clone(),
            aggregate: e.aggregate.clone(),
        })
    }

    /// The tail of both edge adders: `edge` becomes its output's producer
    /// unless an equal one already is.
    fn attach(&mut self, edge: Edge) -> Result<usize> {
        if let Some(existing) = self.producer[edge.output.index()] {
            return self.edges[existing].dedup(&edge);
        }
        let id = edge.id;
        for &input in &edge.inputs {
            self.consumers[input.index()].push(id);
        }
        self.producer[edge.output.index()] = Some(id);
        self.edges.push(edge);
        Ok(id)
    }

    /// Attaches an aggregation to an edge (set right after `add_edge` when
    /// building an aggregate MV's final edge).
    pub fn set_edge_aggregate(&mut self, edge: usize, spec: smile_storage::AggregateSpec) {
        self.edges[edge].aggregate = Some(spec);
    }

    /// Detaches the producing edge of `v`, leaving `v` source-like until a
    /// new producer is added. The detached edge becomes inert (no inputs,
    /// not [`Edge::attached`]) and is dropped by the next
    /// [`Plan::garbage_collect`]; `validate` must not be called before that
    /// collection happens. `undo` records the edge, its inputs and where it
    /// stood in each input's consumer list, for [`Plan::undo`]; one undo
    /// point takes back one detach.
    pub(crate) fn detach_producer(&mut self, v: VertexId, undo: &mut Undo) -> Option<usize> {
        let edge = self.producer[v.index()].take()?;
        let inputs = std::mem::take(&mut self.edges[edge].inputs);
        let at = inputs
            .iter()
            .filter_map(|&input| {
                let list = &mut self.consumers[input.index()];
                let pos = list.iter().position(|&c| c == edge)?;
                list.remove(pos);
                Some((input, pos))
            })
            .collect();
        undo.detached = Some(Detached { edge, inputs, at });
        Some(edge)
    }

    /// The point [`Plan::undo`] returns the plan to: its size now.
    pub(crate) fn undo_point(&self) -> Undo {
        Undo {
            vertices: self.vertices.len(),
            edges: self.edges.len(),
            detached: None,
        }
    }

    /// Takes the plan back to `undo`'s point, assuming it has since only
    /// appended vertices and edges and detached the one producer `undo`
    /// recorded. Each appended edge is the last entry of its inputs'
    /// consumer lists when popped newest first; the detached edge goes back
    /// to the position it held in each list, because [`Plan::topo_order`]
    /// walks consumers in list order; the appended vertices leave the index.
    pub(crate) fn undo(&mut self, undo: Undo) {
        for e in self.edges.drain(undo.edges..).rev() {
            for input in &e.inputs {
                self.consumers[input.index()].pop();
            }
            self.producer[e.output.index()] = None;
        }
        if let Some(Detached { edge, inputs, at }) = undo.detached {
            for (input, pos) in at.into_iter().rev() {
                self.consumers[input.index()].insert(pos, edge);
            }
            let e = &mut self.edges[edge];
            e.inputs = inputs;
            self.producer[e.output.index()] = Some(edge);
        }
        for v in self.vertices.drain(undo.vertices..) {
            self.index.remove(&(v.kind, v.sig, v.machine));
        }
        self.producer.truncate(undo.vertices);
        self.consumers.truncate(undo.vertices);
    }

    /// Topological order of vertices (sources first). Errors on cycles.
    pub fn topo_order(&self) -> Result<Vec<VertexId>> {
        let consumers = |v: VertexId| self.consumers[v.index()].iter().copied();
        self.kahn(self.vertices.len(), |i| VertexId::new(i as u32), VertexId::index, consumers)
    }

    /// `members`, a vertex set closed under inputs (a vertex and its
    /// ancestors), in the order [`Plan::topo_order`] lists them: the same
    /// FIFO Kahn walk, run over the members alone. A member's consumers
    /// inside the set are read off the members' own producers, sorted by
    /// (input, edge id), never off the consumer lists, which hold every
    /// chain ever merged onto a base. No vertex outside the set counts
    /// toward or enqueues a member, and a consumer list holds only attached
    /// edges in ascending id order, so FIFO keeps the members in their
    /// whole-plan relative order. Errors on a cycle among the members.
    pub fn topo_order_within(&self, members: impl IntoIterator<Item = VertexId>) -> Result<Vec<VertexId>> {
        let mut members: Vec<VertexId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        let producers = members.iter().filter_map(|&v| self.producer(v));
        let mut links: Vec<(VertexId, usize)> =
            producers.flat_map(|e| e.inputs.iter().map(move |&input| (input, e.id))).collect();
        links.sort_unstable();
        let consumers = |v: VertexId| {
            let from = links.partition_point(|&(input, _)| input < v);
            links[from..].iter().take_while(move |&&(input, _)| input == v).map(|&(_, e)| e)
        };
        self.kahn(members.len(), |i| members[i], |v| members.partition_point(|&m| m < v), consumers)
    }

    /// Kahn's FIFO walk over `count` vertices in ascending id order, the
    /// `i`th being `nth(i)` and `at` its inverse, where `consumers(v)` lists
    /// the edges consuming `v` among them in ascending id order. FIFO pops
    /// in the order it pushes, so the order is its own queue.
    fn kahn<C: Iterator<Item = usize>>(
        &self,
        count: usize,
        nth: impl Fn(usize) -> VertexId,
        at: impl Fn(VertexId) -> usize,
        consumers: impl Fn(VertexId) -> C,
    ) -> Result<Vec<VertexId>> {
        let mut indegree: Vec<usize> = (0..count).map(|i| self.producer(nth(i)).map_or(0, |e| e.inputs.len())).collect();
        let mut order = Vec::with_capacity(count);
        order.extend((0..count).filter(|&i| indegree[i] == 0).map(&nth));
        let mut next = 0;
        while let Some(&v) = order.get(next) {
            next += 1;
            for e in consumers(v) {
                let out = self.edges[e].output;
                let unordered = &mut indegree[at(out)];
                *unordered -= 1;
                if *unordered == 0 {
                    order.push(out);
                }
            }
        }
        if order.len() != count {
            return Err(SmileError::InvalidPlan("plan DAG contains a cycle".into()));
        }
        Ok(order)
    }

    /// Vertex → *wavefront* index over a vertex subset (the push engine's
    /// schedule): a vertex's wave is one past the maximum wave of its
    /// producer inputs inside the subset, so no two vertices in one wave
    /// depend on each other.
    /// Inputs outside the subset (base vertices, vertices already at the
    /// target timestamp) impose no ordering.
    ///
    /// `subset` must be topologically sorted (in the running plan, vertex
    /// ids are a topological order, so the executor sorts by id); an input
    /// listed after its consumer is treated as outside the subset.
    pub fn wavefronts(&self, subset: &[VertexId]) -> FastMap<VertexId, usize> {
        let mut wave_of = FastMap::with_capacity_and_hasher(subset.len(), Default::default());
        for &v in subset {
            let w = match self.producer(v) {
                Some(e) => e
                    .inputs
                    .iter()
                    .filter_map(|i| wave_of.get(i).map(|w| w + 1))
                    .max()
                    .unwrap_or(0),
                None => 0,
            };
            wave_of.insert(v, w);
        }
        wave_of
    }

    /// Pairs up the half-joins of every delta-join decomposition: for each
    /// `Union` vertex fed (possibly through `CopyDelta` chains) by exactly
    /// two `Join` edges, gives each join edge (indexed by edge id) the
    /// *sibling* join's output vertex; every other edge gets `None`.
    ///
    /// The sibling output is the snapshot **anchor** for incremental
    /// execution. A half-join `Δb ⋈ a@x` is only consistent when `x` is the
    /// timestamp through which the sibling `Δa ⋈ b@y` has already landed its
    /// delta coverage — the invariant is `MV = a@ta ⋈ b@tb` with `ta`/`tb`
    /// the two joins' coverages. The halves can advance unequally (a partial
    /// failure, a twin sharing pushing first), so the anchor follows the
    /// sibling's actual coverage or the cross-term `Δa ⋈ Δb` of the skewed
    /// window is double-counted (or dropped).
    ///
    /// `anchors`, indexed by edge id, covers the edges it was last extended
    /// over; this takes in the unions appended since, so extending it as the
    /// plan grows ends where one pass over the whole plan would. A half has
    /// one sibling by construction ([`ExprSig::HalfJoin`] carries its pair),
    /// so a union that pairs a join edge with a second sibling — one it is
    /// already anchored to, or one another appended union pairs it with — is
    /// a plan the executor cannot anchor, and is refused before anything is
    /// written: a refused extension leaves `anchors` as it was.
    pub fn half_join_anchors(&self, anchors: &mut Vec<Option<VertexId>>) -> Result<()> {
        // A union input resolved back through copy chains to the join edge
        // (if any) that produced it.
        let join_of = |mut v: VertexId| loop {
            match self.producer(v) {
                Some(e) if matches!(e.op, EdgeOp::CopyDelta) => v = e.inputs[0],
                Some(e) if matches!(e.op, EdgeOp::Join { .. }) => break Some(e),
                _ => break None,
            }
        };
        let mut pairs: Vec<(usize, VertexId)> = Vec::new();
        for union in self.edges[anchors.len()..].iter().filter(|e| matches!(e.op, EdgeOp::Union)) {
            let halves: Vec<&Edge> = union.inputs.iter().filter_map(|&v| join_of(v)).collect();
            if let [a, b] = halves[..] {
                pairs.extend([(a.id, b.output), (b.id, a.output)]);
            }
        }
        // Sorted and without repeats, an edge two appended unions pair
        // differently shows as two neighbours.
        pairs.sort_unstable();
        pairs.dedup();
        let anchored = |&(e, sibling): &(usize, VertexId)| {
            let other = anchors.get(e).copied().flatten();
            other.filter(|&other| other != sibling).map(|other| (e, other, sibling))
        };
        let between = pairs.windows(2).find(|w| w[0].0 == w[1].0).map(|w| (w[0].0, w[0].1, w[1].1));
        if let Some((e, other, sibling)) = between.or_else(|| pairs.iter().find_map(anchored)) {
            return Err(SmileError::InvalidPlan(format!(
                "join edge {e} is paired with two sibling halves, {other} and {sibling}"
            )));
        }
        anchors.resize(self.edges.len(), None);
        for (e, sibling) in pairs {
            anchors[e] = Some(sibling);
        }
        Ok(())
    }

    /// `mask[v]` iff `v` is one of `roots` or upstream of one. `SHR(v)` is
    /// the sharings whose MV is `v` or downstream of it, so from every
    /// admitted MV this is the *served* mask.
    pub fn upstream_mask(&self, roots: impl IntoIterator<Item = VertexId>) -> Vec<bool> {
        let mut mask = vec![false; self.vertex_count()];
        let mut stack: Vec<VertexId> = roots.into_iter().collect();
        while let Some(v) = stack.pop() {
            if !std::mem::replace(&mut mask[v.index()], true) {
                stack.extend(self.producer(v).iter().flat_map(|e| &e.inputs));
            }
        }
        mask
    }

    /// A test oracle independent of the walks over producers: `v` and every
    /// vertex downstream of it, along the consumer lists.
    #[cfg(test)]
    pub(crate) fn downstream(&self, v: VertexId) -> HashSet<VertexId> {
        let (mut seen, mut stack) = (HashSet::from([v]), vec![v]);
        while let Some(cur) = stack.pop() {
            stack.extend(self.consumers(cur).map(|e| e.output).filter(|&o| seen.insert(o)));
        }
        seen
    }

    /// `ANC(v)`: every vertex upstream of `v` (excluding `v` itself).
    pub fn ancestors(&self, v: VertexId) -> HashSet<VertexId> {
        let mut verts = HashSet::new();
        let mut stack = vec![v];
        while let Some(cur) = stack.pop() {
            if let Some(e) = self.producer[cur.index()] {
                for &input in &self.edges[e].inputs {
                    if verts.insert(input) {
                        stack.push(input);
                    }
                }
            }
        }
        verts
    }

    /// Validates the structural invariants of a plan:
    /// acyclicity; join/union/apply inputs co-located with outputs;
    /// copy-delta crossing machines; producer kinds consistent.
    pub fn validate(&self) -> Result<()> {
        self.topo_order()?;
        for e in &self.edges {
            let out = self.vertex(e.output);
            let err = |d: String| Err(SmileError::InvalidPlan(d));
            match &e.op {
                EdgeOp::CopyDelta => {
                    if e.inputs.len() != 1 {
                        return err(format!("CopyDelta edge {} needs 1 input", e.id));
                    }
                    let input = self.vertex(e.inputs[0]);
                    if input.kind != VertexKind::Delta || out.kind != VertexKind::Delta {
                        return err(format!("CopyDelta edge {} must link deltas", e.id));
                    }
                }
                EdgeOp::DeltaToRel => {
                    if e.inputs.len() != 1 {
                        return err(format!("DeltaToRel edge {} needs 1 input", e.id));
                    }
                    let input = self.vertex(e.inputs[0]);
                    if input.kind != VertexKind::Delta || out.kind != VertexKind::Relation {
                        return err(format!("DeltaToRel edge {} must apply a delta", e.id));
                    }
                    if input.machine != out.machine {
                        return err(format!("DeltaToRel edge {} crosses machines", e.id));
                    }
                }
                EdgeOp::Join { .. } => {
                    if e.inputs.len() != 2 {
                        return err(format!("Join edge {} needs [delta, relation]", e.id));
                    }
                    let d = self.vertex(e.inputs[0]);
                    let r = self.vertex(e.inputs[1]);
                    if d.kind != VertexKind::Delta || r.kind != VertexKind::Relation {
                        return err(format!("Join edge {} inputs must be delta+relation", e.id));
                    }
                    if d.machine != out.machine || r.machine != out.machine {
                        return err(format!(
                            "Join edge {} inputs must be co-located with its output",
                            e.id
                        ));
                    }
                    if out.kind != VertexKind::Delta {
                        return err(format!("Join edge {} must produce a delta", e.id));
                    }
                }
                EdgeOp::Union => {
                    if e.inputs.is_empty() {
                        return err(format!("Union edge {} needs inputs", e.id));
                    }
                    for &input in &e.inputs {
                        let iv = self.vertex(input);
                        if iv.kind != VertexKind::Delta || iv.machine != out.machine {
                            return err(format!(
                                "Union edge {} inputs must be co-located deltas",
                                e.id
                            ));
                        }
                    }
                    if out.kind != VertexKind::Delta {
                        return err(format!("Union edge {} must produce a delta", e.id));
                    }
                }
            }
        }
        Ok(())
    }

    /// Rebuilds the plan keeping only the base vertices, the `served` ones
    /// (see [`Plan::upstream_mask`]) and the edges that still produce a
    /// served vertex, remapping ids densely in topological order. Returns
    /// the new plan. Used by the plumbing pass after a rewiring left the
    /// replaced supply chain serving nothing; errors on a cyclic plan.
    pub fn garbage_collect(&self, served: &[bool]) -> Result<Plan> {
        let mut out = Plan::new();
        let mut remap: FastMap<VertexId, VertexId> = FastMap::default();
        for v in self.topo_order()? {
            let vert = self.vertex(v);
            if !served[v.index()] && !vert.is_base {
                continue;
            }
            let nid = out.add_vertex_copy(vert);
            remap.insert(v, nid);
        }
        for e in &self.edges {
            if !e.attached(self) || !served[e.output.index()] {
                continue;
            }
            let inputs: Option<Vec<VertexId>> =
                e.inputs.iter().map(|i| remap.get(i).copied()).collect();
            let (Some(inputs), Some(&output)) = (inputs, remap.get(&e.output)) else {
                continue;
            };
            // A kept vertex has one attached producer, so this never meets
            // a second edge for `output`; `add_edge` says so if it does.
            out.add_edge_copy(e, inputs, output)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smile_storage::predicate::CmpOp;
    use smile_types::{Column, ColumnType, SharingId};

    fn schema() -> Schema {
        Schema::new(vec![Column::new("k", ColumnType::I64)], vec![0])
    }

    fn base_pair(plan: &mut Plan, rel: u32, m: u32) -> (VertexId, VertexId) {
        let sig = ExprSig::base(RelationId::new(rel));
        let r = plan.add_vertex(
            VertexKind::Relation,
            sig.clone(),
            MachineId::new(m),
            schema(),
            true,
            10.0,
            100.0,
            24.0,
        );
        let d = plan.add_vertex(
            VertexKind::Delta,
            sig,
            MachineId::new(m),
            schema(),
            true,
            10.0,
            0.0,
            24.0,
        );
        (r, d)
    }

    /// The indexes each kind of edge reads, in order: a join's arrangement
    /// first, then the log partitions its literal filters read — or, for a
    /// join probing an arrangement partition under no edge filter, its
    /// delta log's partition on its delta-side join columns — the
    /// snapshot log last; nothing on a relation without a slot.
    #[test]
    fn reads_list_every_index_an_edge_reads_in_order() {
        let (m, mut p) = (MachineId::new(3), Plan::new());
        let mut vertex = |kind, n: u32, slot: Option<u32>| {
            let v = p.add_vertex(kind, ExprSig::base(RelationId::new(n)), m, schema(), false, 1.0, 1.0, 8.0);
            p.vertex_mut(v).slot = slot.map(RelationId::new);
            v
        };
        let [d0, d1] = [(0, 10), (1, 11)].map(|(n, s)| vertex(VertexKind::Delta, n, Some(s)));
        let [r2, r6] = [(2, Some(12)), (6, None)].map(|(n, s)| vertex(VertexKind::Relation, n, s));
        let outs: Vec<VertexId> = (20..30).map(|n| vertex(VertexKind::Delta, n, None)).collect();
        let join = |snapshot_filter| EdgeOp::Join { on: JoinOn::on(0, 1), delta_side: DeltaSide::Left, snapshot_filter };
        let right = EdgeOp::Join { on: JoinOn::on(0, 1), delta_side: DeltaSide::Right, snapshot_filter: Predicate::eq(2, 5i64) };
        let at_least = Predicate::cmp(2, CmpOp::Ge, 1i64);
        let (ann, by_name) = (Predicate::eq(2, "ann"), Predicate::eq(2, "ann").and(Predicate::eq(0, 7i64)));
        let edges = [
            (EdgeOp::CopyDelta, vec![d0], by_name.clone()),
            (EdgeOp::Union, vec![d0, d1], by_name.clone()),
            (join(Predicate::eq(1, 4i64)), vec![d0, r2], ann.clone()),
            (join(Predicate::True), vec![d1, r2], Predicate::True),
            (EdgeOp::DeltaToRel, vec![d0], by_name),
            (join(Predicate::eq(1, 4i64)), vec![d0, r6], ann.clone()),
            (join(Predicate::eq(1, 4i64)), vec![d1, r2], Predicate::True),
            (right, vec![d1, r2], Predicate::True),
            (join(Predicate::eq(1, 4i64)), vec![d1, r2], Predicate::eq(2, "bob")),
            (join(Predicate::eq(1, 4i64)), vec![d1, r2], at_least),
        ];
        let reads = edges.into_iter().zip(outs).map(|((op, inputs, filter), out)| {
            let e = p.add_edge(op, inputs, out, filter, None).unwrap();
            p.reads(p.edge(e))
        });
        let at = |slot: u32, index| (m, RelationId::new(slot), index);
        let log = |cols: &[usize]| SlotIndex::Log(cols.to_vec());
        let arr = |partition: Vec<usize>| SlotIndex::Arrangement(IndexCols { partition, key: vec![1] });
        let want = [
            vec![at(10, log(&[0, 2]))],
            vec![at(10, log(&[0, 2])), at(11, log(&[0, 2]))],
            vec![at(12, arr(vec![1])), at(10, log(&[2])), at(12, log(&[1]))],
            vec![at(12, arr(vec![]))],
            vec![],
            vec![at(10, log(&[2]))],
            vec![at(12, arr(vec![1])), at(11, log(&[0])), at(12, log(&[1]))],
            vec![at(12, SlotIndex::Arrangement(IndexCols { partition: vec![2], key: vec![0] })), at(11, log(&[1])), at(12, log(&[2]))],
            vec![at(12, arr(vec![1])), at(11, log(&[2])), at(12, log(&[1]))],
            vec![at(12, arr(vec![1])), at(12, log(&[1]))],
        ];
        assert_eq!(reads.collect::<Vec<_>>(), want);
    }

    /// A literal-delta half-join, `r0 ⋈ Δσ[#2 = k](r1)` on `r0.#1 = r1.#0`,
    /// also reads `r0`'s log on the arrangement's key column: the join-key
    /// history its correction reads by key, whether the literal is the
    /// edge filter or the signature of a filtered copy of `Δr1`. Its
    /// sibling `Δr0 ⋈ σ[#2 = k](r1)` (a partitioned arrangement), the
    /// unfiltered `r0 ⋈ Δr1` and a delta side filtered by a range alone
    /// read nothing new.
    #[test]
    fn reads_list_a_literal_half_joins_key_history() {
        let (m, mut p) = (MachineId::new(1), Plan::new());
        let mut vertex = |kind, sig, slot: u32| {
            let v = p.add_vertex(kind, sig, m, schema(), false, 1.0, 1.0, 8.0);
            p.vertex_mut(v).slot = Some(RelationId::new(slot));
            v
        };
        let base = |n: u32| ExprSig::base(RelationId::new(n));
        let (k, at_least) = (Predicate::eq(2, 7i64), Predicate::cmp(2, CmpOp::Ge, 7i64));
        let [d0, d1] = [(0, 10), (1, 11)].map(|(n, s)| vertex(VertexKind::Delta, base(n), s));
        let [r0, r1] = [(2, 12), (3, 13)].map(|(n, s)| vertex(VertexKind::Relation, base(n), s));
        let [literal_copy, range_copy] =
            [(k.clone(), 14), (at_least.clone(), 15)].map(|(pred, s)| vertex(VertexKind::Delta, ExprSig::filter(pred, base(1)), s));
        let outs: Vec<VertexId> = (20..26).map(|n| vertex(VertexKind::Delta, base(n), 30 + n)).collect();
        let half = |delta_side, snapshot_filter| EdgeOp::Join { on: JoinOn::on(1, 0), delta_side, snapshot_filter };
        let edges = [
            (half(DeltaSide::Right, Predicate::True), vec![d1, r0], k.clone()),
            (half(DeltaSide::Right, Predicate::True), vec![literal_copy, r0], Predicate::True),
            (half(DeltaSide::Left, k.clone()), vec![d0, r1], Predicate::True),
            (half(DeltaSide::Right, Predicate::True), vec![d1, r0], Predicate::True),
            (half(DeltaSide::Right, Predicate::True), vec![d1, r0], at_least),
            (half(DeltaSide::Right, Predicate::True), vec![range_copy, r0], Predicate::True),
        ];
        let reads = edges.into_iter().zip(outs).map(|((op, inputs, filter), out)| {
            let e = p.add_edge(op, inputs, out, filter, None).unwrap();
            p.reads(p.edge(e))
        });
        let at = |slot: u32, index| (m, RelationId::new(slot), index);
        let arr = |partition: Vec<usize>, key: usize| SlotIndex::Arrangement(IndexCols { partition, key: vec![key] });
        let log = |col: usize| SlotIndex::Log(vec![col]);
        let want = [
            vec![at(12, arr(vec![], 1)), at(11, log(2)), at(12, log(1))],
            vec![at(12, arr(vec![], 1)), at(12, log(1))],
            vec![at(13, arr(vec![2], 0)), at(10, log(1)), at(13, log(2))],
            vec![at(12, arr(vec![], 1))],
            vec![at(12, arr(vec![], 1))],
            vec![at(12, arr(vec![], 1))],
        ];
        assert_eq!(reads.collect::<Vec<_>>(), want);
    }

    #[test]
    fn dedup_on_add_vertex() {
        let mut p = Plan::new();
        let (r1, _) = base_pair(&mut p, 0, 0);
        p.vertex_mut(r1).slot = Some(RelationId::new(5));
        let sig = ExprSig::base(RelationId::new(0));
        let r2 = p.add_vertex(
            VertexKind::Relation,
            sig,
            MachineId::new(0),
            schema(),
            true,
            10.0,
            100.0,
            24.0,
        );
        assert_eq!(r1, r2);
        assert_eq!(p.vertex_count(), 2);
        assert_eq!(p.vertex(r1).slot, Some(RelationId::new(5)));
    }

    #[test]
    fn copy_then_apply_validates() {
        let mut p = Plan::new();
        let (_, d0) = base_pair(&mut p, 0, 0);
        let sig = ExprSig::base(RelationId::new(0));
        let d1 = p.add_vertex(
            VertexKind::Delta,
            sig.clone(),
            MachineId::new(1),
            schema(),
            false,
            10.0,
            0.0,
            24.0,
        );
        let r1 = p.add_vertex(
            VertexKind::Relation,
            sig,
            MachineId::new(1),
            schema(),
            false,
            10.0,
            100.0,
            24.0,
        );
        p.add_edge(EdgeOp::CopyDelta, vec![d0], d1, Predicate::True, None)
            .unwrap();
        p.add_edge(EdgeOp::DeltaToRel, vec![d1], r1, Predicate::True, None)
            .unwrap();
        p.validate().unwrap();
        assert!(p.producer(r1).is_some());
        assert_eq!(p.consumers(d1).count(), 1);
        let order = p.topo_order().unwrap();
        let pos = |v: VertexId| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(d0) < pos(d1));
        assert!(pos(d1) < pos(r1));
    }

    #[test]
    fn conflicting_producer_rejected() {
        let mut p = Plan::new();
        let (_, d0) = base_pair(&mut p, 0, 0);
        let (_, d1) = base_pair(&mut p, 1, 0);
        let out = p.add_vertex(
            VertexKind::Delta,
            ExprSig::base(RelationId::new(2)),
            MachineId::new(0),
            schema(),
            false,
            1.0,
            0.0,
            24.0,
        );
        p.add_edge(EdgeOp::Union, vec![d0], out, Predicate::True, None)
            .unwrap();
        // Same op, same inputs: dedup.
        let again = p.add_edge(EdgeOp::Union, vec![d0], out, Predicate::True, None);
        assert!(again.is_ok());
        assert_eq!(p.edge_count(), 1);
        // Different inputs: conflict.
        let conflict = p.add_edge(EdgeOp::Union, vec![d1], out, Predicate::True, None);
        assert!(conflict.is_err());
    }

    #[test]
    fn cross_machine_apply_rejected() {
        let mut p = Plan::new();
        let (_, d0) = base_pair(&mut p, 0, 0);
        let r1 = p.add_vertex(
            VertexKind::Relation,
            ExprSig::base(RelationId::new(0)),
            MachineId::new(1),
            schema(),
            false,
            10.0,
            100.0,
            24.0,
        );
        p.add_edge(EdgeOp::DeltaToRel, vec![d0], r1, Predicate::True, None)
            .unwrap();
        assert!(p.validate().is_err());
    }

    #[test]
    fn ancestors_collects_upstream() {
        let mut p = Plan::new();
        let (_, d0) = base_pair(&mut p, 0, 0);
        let sig = ExprSig::base(RelationId::new(0));
        let d1 = p.add_vertex(
            VertexKind::Delta,
            sig.clone(),
            MachineId::new(1),
            schema(),
            false,
            10.0,
            0.0,
            24.0,
        );
        let d2 = p.add_vertex(
            VertexKind::Delta,
            sig,
            MachineId::new(2),
            schema(),
            false,
            10.0,
            0.0,
            24.0,
        );
        p.add_edge(EdgeOp::CopyDelta, vec![d0], d1, Predicate::True, None)
            .unwrap();
        p.add_edge(EdgeOp::CopyDelta, vec![d1], d2, Predicate::True, None)
            .unwrap();
        let verts = p.ancestors(d2);
        assert_eq!(verts.len(), 2);
        assert!(verts.contains(&d0) && verts.contains(&d1));
    }

    /// Chain `Δbase → Δcopy → relation`: each derived vertex gets its own
    /// wave, and excluding the middle vertex from the subset lifts the
    /// ordering constraint on the tail.
    #[test]
    fn wavefronts_respect_chain_order_and_subset() {
        let mut p = Plan::new();
        let (_, d0) = base_pair(&mut p, 0, 0);
        let sig = ExprSig::base(RelationId::new(0));
        let d1 = p.add_vertex(
            VertexKind::Delta,
            sig.clone(),
            MachineId::new(1),
            schema(),
            false,
            10.0,
            0.0,
            24.0,
        );
        let r1 = p.add_vertex(
            VertexKind::Relation,
            sig,
            MachineId::new(1),
            schema(),
            false,
            10.0,
            100.0,
            24.0,
        );
        p.add_edge(EdgeOp::CopyDelta, vec![d0], d1, Predicate::True, None)
            .unwrap();
        p.add_edge(EdgeOp::DeltaToRel, vec![d1], r1, Predicate::True, None)
            .unwrap();
        assert_eq!(p.wavefronts(&[d1, r1]), FastMap::from_iter([(d1, 0), (r1, 1)]));
        // The base source is never constrained; with the middle vertex
        // outside the subset the tail runs in wave 0.
        assert_eq!(p.wavefronts(&[r1]), FastMap::from_iter([(r1, 0)]));
        assert!(p.wavefronts(&[]).is_empty());
    }

    /// Diamond: two copies fed by independent bases land in the same wave,
    /// their union one wave later.
    #[test]
    fn wavefronts_put_independent_vertices_in_one_wave() {
        let mut p = Plan::new();
        let (_, da) = base_pair(&mut p, 0, 0);
        let (_, db) = base_pair(&mut p, 1, 0);
        let ca = p.add_vertex(
            VertexKind::Delta,
            ExprSig::base(RelationId::new(0)),
            MachineId::new(1),
            schema(),
            false,
            1.0,
            0.0,
            24.0,
        );
        let cb = p.add_vertex(
            VertexKind::Delta,
            ExprSig::base(RelationId::new(1)),
            MachineId::new(1),
            schema(),
            false,
            1.0,
            0.0,
            24.0,
        );
        let u = p.add_vertex(
            VertexKind::Delta,
            ExprSig::base(RelationId::new(2)),
            MachineId::new(1),
            schema(),
            false,
            1.0,
            0.0,
            24.0,
        );
        for (src, dst) in [(da, ca), (db, cb)] {
            p.add_edge(EdgeOp::CopyDelta, vec![src], dst, Predicate::True, None)
                .unwrap();
        }
        p.add_edge(EdgeOp::Union, vec![ca, cb], u, Predicate::True, None)
            .unwrap();
        let waves = p.wavefronts(&[ca, cb, u]);
        assert_eq!(waves, FastMap::from_iter([(ca, 0), (cb, 0), (u, 1)]));
    }

    #[test]
    fn garbage_collect_drops_unshared() {
        let mut p = Plan::new();
        let (_, d0) = base_pair(&mut p, 0, 0);
        let sig = ExprSig::base(RelationId::new(0));
        let d1 = p.add_vertex(
            VertexKind::Delta,
            sig,
            MachineId::new(1),
            schema(),
            false,
            10.0,
            0.0,
            24.0,
        );
        p.add_edge(EdgeOp::CopyDelta, vec![d0], d1, Predicate::True, None)
            .unwrap();
        // The copy serves no sharing: GC should drop the derived vertex and
        // edge but keep the base pair.
        let gc = p.garbage_collect(&[false; 3]).unwrap();
        assert_eq!(gc.vertex_count(), 2);
        assert_eq!(gc.edge_count(), 0);
    }

    /// A detached edge is no longer its output's producer: it serves nothing
    /// whatever that vertex serves, the utilization does not charge it, and
    /// the next collection drops it.
    #[test]
    fn detached_edge_is_collected_and_never_charged() {
        use crate::plan::cost::{machine_utilization, Scope};
        let mut p = Plan::new();
        let (_, d0) = base_pair(&mut p, 0, 0);
        let (_, d1) = base_pair(&mut p, 1, 0);
        let sig = ExprSig::base(RelationId::new(2));
        let m1 = MachineId::new(1);
        let out = p.add_vertex(VertexKind::Delta, sig, m1, schema(), false, 10.0, 0.0, 24.0);
        let copy_from = |p: &mut Plan, src| {
            let (op, filter) = (EdgeOp::CopyDelta, Predicate::True);
            p.add_edge(op, vec![src], out, filter, None).unwrap()
        };
        let old = copy_from(&mut p, d0);
        assert!(p.edge(old).attached(&p));
        let model = crate::plan::timecost::TimeCostModel::paper_defaults();
        let one_copy = machine_utilization(&p, Scope::All, &model);

        // Re-feed `out` from the other base: same operator, same rate.
        assert_eq!(p.detach_producer(out, &mut p.undo_point()), Some(old));
        let new = copy_from(&mut p, d1);
        assert!(!p.edge(old).attached(&p), "a detached edge serves nothing");
        assert!(p.edge(new).attached(&p));
        let load = machine_utilization(&p, Scope::All, &model);
        assert_eq!(load, one_copy, "the detached edge is charged");
        let gc = p.garbage_collect(&p.upstream_mask([out])).unwrap();
        assert_eq!(gc.edge_count(), 1);
        assert_eq!(gc.edge(0).inputs, vec![d1]);
    }

    /// One join `a ⋈ b` planned twice and merged: in place for an MV at
    /// `a`'s home m0, and with `a` replicated beside an MV on a third
    /// machine m2. Returns the merged plan and each plan's halves as
    /// `(Δa ⋈ b, a ⋈ Δb)`. Both left-delta halves run at `b`'s home and
    /// compute the same expression, and both are shipped to their union.
    fn twin_join_plans() -> (Plan, Vec<(VertexId, VertexId)>) {
        use crate::catalog::{BaseStats, Catalog};
        use crate::optimizer::PlannedSharing;
        use crate::plan::build::PlanBuilder;
        use smile_storage::SpjQuery;
        let stats = BaseStats {
            update_rate: 10.0,
            cardinality: 100.0,
            tuple_bytes: 24.0,
            distinct: vec![100.0],
        };
        let mut catalog = Catalog::new();
        let a = catalog.register_base("a", schema(), MachineId::new(0), stats.clone());
        let b = catalog.register_base("b", schema(), MachineId::new(1), stats);
        let (builder, on) = (PlanBuilder::new(&catalog), JoinOn::on(0, 0));
        let query = SpjQuery::scan(a).join(b, on.clone(), Predicate::True);
        let (mut merged, mut pairs) = (crate::multi::GlobalPlan::new(), Vec::new());
        for (id, mv_machine) in [(1, MachineId::new(0)), (2, MachineId::new(2))] {
            let mut plan = Plan::new();
            let base = |plan: &mut Plan, rel| builder.base_handle(plan, rel, Predicate::True);
            let left = base(&mut plan, a).unwrap();
            let left = builder.replica(&mut plan, &left, mv_machine).unwrap();
            let right = base(&mut plan, b).unwrap();
            let mv = builder
                .join_step(&mut plan, &left, &right, &on, mv_machine, None, None)
                .unwrap();
            let sharing = crate::sharing::Sharing::new(
                SharingId::new(id),
                "twin",
                query.clone(),
                smile_types::SimDuration::from_secs(10),
                0.0,
            );
            let planned = PlannedSharing {
                plan,
                mv: mv.rel,
                mv_machine,
                columns: None,
                critical_path: smile_types::SimDuration::ZERO,
                dollar_cost: 0.0,
            };
            merged.merge(&sharing, &planned).unwrap();
            let half = |delta_left: bool, at: MachineId| {
                let (l, r) = (left.form.sig.clone(), right.form.sig.clone());
                let pair = (mv_machine, right.machine);
                let sig = ExprSig::half_join(l, r, on.clone(), delta_left, pair);
                let found = merged.plan.find_vertex(VertexKind::Delta, &sig, at);
                found.unwrap()
            };
            pairs.push((half(true, right.machine), half(false, mv_machine)));
        }
        merged.plan.validate().unwrap();
        (merged.plan, pairs)
    }

    /// A half-join snapshots against its own sibling, so the twins' halves
    /// at `b`'s home must stay two vertices, and every join edge anchors on
    /// the sibling it was built with — its *join output*, resolved through
    /// the copy that ships a remote half to its union.
    #[test]
    fn merged_twin_plans_keep_each_half_join_with_its_own_sibling() {
        let (p, pairs) = twin_join_plans();
        let mut anchors = Vec::new();
        p.half_join_anchors(&mut anchors).unwrap();
        let paired = (0..p.edge_count()).filter(|&e| anchors[e].is_some()).count();
        assert_eq!(paired, 4, "two pairs, no half shared between them");
        for (d1, d2) in pairs {
            assert_eq!(anchors[p.producer(d1).unwrap().id], Some(d2));
            assert_eq!(anchors[p.producer(d2).unwrap().id], Some(d1));
        }
    }

    /// A half-join feeding a second union with a different sibling cannot
    /// be anchored and is refused, naming the edge and both siblings —
    /// whether the halves serve a sharing or nothing at all — and a refused
    /// extension writes no anchor.
    #[test]
    fn a_half_join_with_two_siblings_is_refused() {
        let (mut p, pairs) = twin_join_plans();
        let ((d1, d2), (_, other_d2)) = (pairs[0], pairs[1]);
        let mut anchors = Vec::new();
        p.half_join_anchors(&mut anchors).unwrap();
        let before = anchors.clone();
        let stray = |p: &mut Plan, rel: u32, op: EdgeOp, inputs: Vec<VertexId>| {
            let sig = ExprSig::base(RelationId::new(rel));
            let m2 = MachineId::new(2);
            let v = p.add_vertex(VertexKind::Delta, sig, m2, schema(), false, 1.0, 0.0, 24.0);
            p.add_edge(op, inputs, v, Predicate::True, None).unwrap();
            v
        };
        let undo = p.undo_point();
        stray(&mut p, 9, EdgeOp::Union, vec![d1, other_d2]);
        let err = p.half_join_anchors(&mut anchors).unwrap_err();
        let err = err.to_string();
        let edge = format!("edge {} ", p.producer(d1).unwrap().id);
        for part in [edge, d2.to_string(), other_d2.to_string()] {
            assert!(err.contains(&part), "{err:?} does not name {part:?}");
        }
        assert_eq!(anchors, before, "the refused extension wrote anchors");
        p.undo(undo);
        // Three halves no sharing reads. One of them paired with two
        // siblings in one extension, and then in a later one with a sibling
        // other than its anchor: both refused, and neither writes.
        let join = EdgeOp::Join {
            on: JoinOn::on(0, 0),
            delta_side: DeltaSide::Left,
            snapshot_filter: Predicate::True,
        };
        let [x, y, z] = [10, 11, 12].map(|rel| stray(&mut p, rel, join.clone(), vec![d1, d2]));
        stray(&mut p, 13, EdgeOp::Union, vec![x, y]);
        let undo = p.undo_point();
        stray(&mut p, 14, EdgeOp::Union, vec![x, z]);
        assert!(p.half_join_anchors(&mut anchors).is_err(), "paired twice in one extension");
        assert_eq!(anchors, before, "the refused extension wrote anchors");
        p.undo(undo);
        p.half_join_anchors(&mut anchors).unwrap();
        let (anchored, e) = (anchors.clone(), p.producer(x).unwrap().id);
        assert_eq!(anchored[e], Some(y));
        stray(&mut p, 14, EdgeOp::Union, vec![x, z]);
        let err = p.half_join_anchors(&mut anchors).unwrap_err().to_string();
        assert!(err.contains(&format!("edge {e} ")), "{err:?}");
        assert_eq!(anchors, anchored, "the refused extension wrote anchors");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
        /// On the plans the executor runs — admissions merged into one global
        /// plan, the plan a hill climb collected, one a migration's shadow
        /// chain was merged into — vertex ids are a topological order, and
        /// the member walk over any vertex and its ancestors lists them as
        /// the whole plan's order does.
        #[test]
        fn the_member_walk_is_the_whole_order_restricted(
            admissions in prop::collection::vec((0usize..4, 0u32..4), 1..7),
            kind in 0usize..3,
            (moved, to) in (0usize..7, 0u32..3),
        ) {
            use crate::{multi::GlobalPlan, optimizer::Optimizer, sharing::Sharing};
            use smile_storage::SpjQuery;
            let (cat, machines) = (crate::multi::tests::catalog(), (0..3).map(MachineId::new).collect());
            let (model, prices) = (crate::plan::timecost::TimeCostModel::paper_defaults(), smile_sim::PriceSheet::ec2_cross_zone());
            let opt = Optimizer::new(&cat, machines, &model, &prices);
            let rel = RelationId::new;
            let tweets = SpjQuery::scan(rel(0)).join(rel(1), JoinOn::on(0, 1), Predicate::True);
            let socnet = SpjQuery::scan(rel(0)).join(rel(2), JoinOn::on(0, 0), Predicate::True);
            let both = tweets.clone().join(rel(2), JoinOn::on(0, 0), Predicate::True);
            let queries = [SpjQuery::scan(rel(1)), tweets, socnet, both];
            let sla = smile_types::SimDuration::from_secs(45);
            let sharing = |i: usize| Sharing::new(SharingId::new(i as u32 + 1), "s", queries[admissions[i].0].clone(), sla, 0.001);
            let plan = |i: usize, pin: u32| opt.plan_admission(&sharing(i), Default::default(), (pin < 3).then(|| MachineId::new(pin)));
            let mut g = GlobalPlan::new();
            for (i, &(_, pin)) in admissions.iter().enumerate() {
                g.merge(&sharing(i), &plan(i, pin).unwrap()).unwrap();
            }
            match kind {
                1 => drop(crate::multi::hill_climb(&mut g, &model, &prices, 8)),
                2 => {
                    g.merge_shadow(&plan(moved % admissions.len(), to).unwrap()).unwrap();
                }
                _ => {}
            }
            let p = &g.plan;
            prop_assert!(p.edges().iter().all(|e| !e.attached(p) || e.inputs.iter().all(|&i| i < e.output)));
            let order = p.topo_order().unwrap();
            for v in p.vertices().iter().map(|v| v.id) {
                let members: HashSet<VertexId> = p.ancestors(v).into_iter().chain([v]).collect();
                let want: Vec<VertexId> = order.iter().copied().filter(|u| members.contains(u)).collect();
                prop_assert_eq!(p.topo_order_within(members).unwrap(), want);
            }
        }
    }
}
