//! Merge catalog: a content-keyed index over a plan's vertices, for the
//! questions that `Plan`'s own dedup index cannot answer.
//!
//! Admission does *not* find commonality through it: merging dedups on
//! `Plan::index` (`(kind, signature, machine)` → vertex), and the catalog
//! the platform carries through `merge_indexed` is only written there — it
//! counts reuse (`hits` / `misses`, exported as `catalog.*`) and records
//! new vertices. Its two indexes have one reader each:
//!
//! * **fingerprints** — `(vertex kind, expression signature)` → vertex ids
//!   on *any* machine. [`MergeCatalog::peers_iter`] answers "where else
//!   does this expression already run?" for copy/join plumbing
//!   enumeration, which builds its own catalog over the plan it rewires.
//! * **probes** — `(snapshot-side signature, snapshot-side join columns)` →
//!   half-join vertices probing that arrangement. Only its key count is
//!   read, by one gauge and one line of `explain()`.
//!
//! All postings lists are `BTreeSet<VertexId>`, so every lookup yields
//! candidates in vertex-id order. That is the determinism argument:
//! plumbing enumeration sees the same candidate sequence on every run, so
//! greedy tie-breaks resolve identically and the resulting plans are
//! byte-equal.

use crate::plan::dag::{Plan, VertexKind};
use crate::plan::sig::ExprSig;
use smile_types::VertexId;
use std::collections::{BTreeSet, HashMap};

/// Indexed view of the global plan's shareable sub-structures.
#[derive(Clone, Debug, Default)]
pub struct MergeCatalog {
    /// (kind, signature) → vertices computing that expression.
    fingerprints: HashMap<(VertexKind, ExprSig), BTreeSet<VertexId>>,
    /// (snapshot-side signature, snapshot-side join cols) → half-join
    /// vertices probing that arrangement.
    probes: HashMap<(ExprSig, Vec<usize>), BTreeSet<VertexId>>,
    /// Admissions that reused an already-indexed structure.
    pub hits: u64,
    /// Admissions that introduced a brand-new structure.
    pub misses: u64,
}

impl MergeCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Catalog over an existing plan's vertices.
    pub fn from_plan(plan: &Plan) -> Self {
        let mut cat = Self::new();
        for v in plan.vertices() {
            cat.note_vertex(plan, v.id);
        }
        cat
    }

    /// Re-indexes from scratch, keeping lifetime hit/miss counters. Needed
    /// after garbage collection, which remaps vertex ids.
    pub fn rebuild(&mut self, plan: &Plan) {
        self.fingerprints.clear();
        self.probes.clear();
        for v in plan.vertices() {
            self.note_vertex(plan, v.id);
        }
    }

    /// Indexes one vertex under both key families.
    pub fn note_vertex(&mut self, plan: &Plan, v: VertexId) {
        let vert = plan.vertex(v);
        self.fingerprints
            .entry((vert.kind, vert.sig.clone()))
            .or_default()
            .insert(v);
        if let ExprSig::HalfJoin {
            left,
            right,
            on,
            delta_left,
            ..
        } = &vert.sig
        {
            let (rel_sig, rel_cols) = if *delta_left {
                (right.as_ref().clone(), on.right_cols.clone())
            } else {
                (left.as_ref().clone(), on.left_cols.clone())
            };
            self.probes.entry((rel_sig, rel_cols)).or_default().insert(v);
        }
    }

    /// Vertices computing exactly (kind, sig), in vertex-id order.
    pub fn peers_iter(
        &self,
        kind: VertexKind,
        sig: &ExprSig,
    ) -> impl Iterator<Item = VertexId> + '_ {
        self.fingerprints
            .get(&(kind, sig.clone()))
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Number of distinct fingerprint keys.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// True iff nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// Number of distinct arrangement-probe keys.
    pub fn probe_key_count(&self) -> usize {
        self.probes.len()
    }

    /// Drains the hit/miss counters (for periodic telemetry flushes).
    pub fn take_counters(&mut self) -> (u64, u64) {
        let out = (self.hits, self.misses);
        self.hits = 0;
        self.misses = 0;
        out
    }
}
