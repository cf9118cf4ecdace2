//! Content signatures of plan vertices.
//!
//! A signature canonically describes *what data* a vertex holds, independent
//! of where it is materialized. Two vertices with equal signatures on the
//! same machine are literal duplicates (merged when the global plan is
//! formed, §7); equal signatures on different machines are the raw material
//! of copy-plumbing.

use smile_storage::join::JoinOn;
use smile_storage::{AggregateSpec, Predicate};
use smile_types::{MachineId, RelationId};
use std::fmt;
use std::sync::Arc;

/// Canonical relational expression identifying a vertex's contents.
///
/// Signatures are immutable and their children shared: cloning one (per
/// vertex, per `Plan::index` key, per candidate plan) copies the top node
/// and bumps its children's reference counts. Equality and hashing are
/// structural, so separately built equal expressions still dedup.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ExprSig {
    /// A base relation.
    Base(RelationId),
    /// A selection over an input.
    Filter {
        /// The predicate.
        pred: Predicate,
        /// The filtered input.
        input: Arc<ExprSig>,
    },
    /// An equi-join of two inputs.
    Join {
        /// Left input.
        left: Arc<ExprSig>,
        /// Right input.
        right: Arc<ExprSig>,
        /// Join condition (left columns index the left input's schema).
        on: JoinOn,
    },
    /// A projection over an input (only MVs carry projections).
    Project {
        /// Retained column indexes.
        cols: Vec<usize>,
        /// The projected input.
        input: Arc<ExprSig>,
    },
    /// A group-by aggregation over an input (the §10 aggregate-operator
    /// extension).
    Aggregate {
        /// The aggregation.
        spec: AggregateSpec,
        /// The aggregated input.
        input: Arc<ExprSig>,
    },
    /// One half of an incremental join: the delta stream
    /// `Δleft ⋈ right@old` (side = left) or `left@new ⋈ Δright`
    /// (side = right). The two halves union into the full `Join` delta,
    /// and only together: each snapshots its relation side at the *other's*
    /// coverage, so a half's stream depends on which sibling it is paired
    /// with. `pair` names that pair, making it part of the vertex identity.
    HalfJoin {
        /// Left input.
        left: Arc<ExprSig>,
        /// Right input.
        right: Arc<ExprSig>,
        /// Join condition (boxed so the pair does not grow every `ExprSig`
        /// node past the `Join` variant's size).
        on: Box<JoinOn>,
        /// True when the delta flows on the left side.
        delta_left: bool,
        /// The machines the join's `(left, right)` inputs are read on — the
        /// left-delta half runs at `pair.1`, the right-delta half at
        /// `pair.0`. Two plans of one join that read an input on different
        /// machines build different pairs and must not share a half.
        pair: (MachineId, MachineId),
    },
}

impl ExprSig {
    /// Base-relation signature.
    pub fn base(rel: RelationId) -> Self {
        ExprSig::Base(rel)
    }

    /// Filter signature; `Filter(True, x)` canonicalizes to `x`.
    pub fn filter(pred: Predicate, input: ExprSig) -> Self {
        if pred == Predicate::True {
            input
        } else {
            ExprSig::Filter {
                pred,
                input: Arc::new(input),
            }
        }
    }

    /// Join signature.
    pub fn join(left: ExprSig, right: ExprSig, on: JoinOn) -> Self {
        ExprSig::Join {
            left: Arc::new(left),
            right: Arc::new(right),
            on,
        }
    }

    /// Half-join signature (one leg of the incremental join identity).
    pub fn half_join(
        left: ExprSig,
        right: ExprSig,
        on: JoinOn,
        delta_left: bool,
        pair: (MachineId, MachineId),
    ) -> Self {
        ExprSig::HalfJoin {
            left: Arc::new(left),
            right: Arc::new(right),
            on: Box::new(on),
            delta_left,
            pair,
        }
    }

    /// Projection signature; an empty/absent projection is the identity.
    pub fn project(cols: Option<Vec<usize>>, input: ExprSig) -> Self {
        match cols {
            Some(cols) => ExprSig::Project {
                cols,
                input: Arc::new(input),
            },
            None => input,
        }
    }

    /// Aggregation signature.
    pub fn aggregate(spec: Option<AggregateSpec>, input: ExprSig) -> Self {
        match spec {
            Some(spec) => ExprSig::Aggregate {
                spec,
                input: Arc::new(input),
            },
            None => input,
        }
    }

    /// Whether this expression's entries are a join's or an aggregate's
    /// output: a half-join stamps a cross-term with its delta side's
    /// timestamp, an aggregate a group's update with its last entry's, so
    /// only the end of a window it was pushed through is a state of the
    /// expression. Copies, filters and projections of a base stream are one
    /// at every instant.
    pub fn windowed(&self) -> bool {
        match self {
            ExprSig::Base(_) => false,
            ExprSig::Filter { input, .. } | ExprSig::Project { input, .. } => input.windowed(),
            _ => true,
        }
    }
}

impl fmt::Display for ExprSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprSig::Base(r) => write!(f, "{r}"),
            ExprSig::Filter { pred, input } => write!(f, "σ[{pred}]({input})"),
            ExprSig::Join { left, right, .. } => write!(f, "({left} ⋈ {right})"),
            ExprSig::HalfJoin {
                left,
                right,
                delta_left,
                ..
            } => {
                if *delta_left {
                    write!(f, "(Δ{left} ⋈ {right})")
                } else {
                    write!(f, "({left} ⋈ Δ{right})")
                }
            }
            ExprSig::Project { cols, input } => write!(f, "π{cols:?}({input})"),
            ExprSig::Aggregate { spec, input } => {
                write!(f, "γ{:?}({input})", spec.group_cols)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RelationId {
        RelationId::new(i)
    }

    #[test]
    fn filter_true_canonicalizes_away() {
        let s = ExprSig::filter(Predicate::True, ExprSig::base(r(1)));
        assert_eq!(s, ExprSig::Base(r(1)));
        let t = ExprSig::filter(Predicate::eq(0, 1i64), ExprSig::base(r(1)));
        assert!(matches!(t, ExprSig::Filter { .. }));
    }

    /// Children are shared by reference, identity stays structural: two
    /// expressions built separately are equal, hash equal and are one
    /// vertex to `Plan::index`, exactly like an expression and its clone.
    #[test]
    fn separately_built_expressions_hash_equal_and_dedup() {
        use crate::plan::dag::{Plan, VertexKind};
        use smile_types::{Column, ColumnType, Schema};
        let sig = || {
            ExprSig::half_join(
                ExprSig::base(r(0)),
                ExprSig::filter(Predicate::eq(1, "x"), ExprSig::base(r(1))),
                JoinOn::on(0, 0),
                true,
                (MachineId::new(0), MachineId::new(1)),
            )
        };
        let schema = || Schema::new(vec![Column::new("k", ColumnType::I64)], vec![0]);
        let (a, b) = (sig(), sig());
        assert_eq!(a, b);
        assert_eq!(schema(), schema());
        let set: smile_types::FastSet<_> = [(a.clone(), schema()), (a.clone(), schema())].into_iter().collect();
        assert!(set.len() == 1 && set.contains(&(b, schema())));

        let mut plan = Plan::new();
        let m = MachineId::new(1);
        let mut add = |sig| plan.add_vertex(VertexKind::Delta, sig, m, schema(), false, 1.0, 0.0, 8.0);
        let first = add(sig());
        assert_eq!(add(sig()), first);
        assert_eq!(add(a), first);
        assert_eq!(plan.vertex_count(), 1);
        assert_eq!(plan.find_vertex(VertexKind::Delta, &sig(), m), Some(first));
    }

    #[test]
    fn project_none_is_identity() {
        let s = ExprSig::project(None, ExprSig::base(r(3)));
        assert_eq!(s, ExprSig::Base(r(3)));
        let p = ExprSig::project(Some(vec![1, 0]), ExprSig::base(r(3)));
        assert!(matches!(p, ExprSig::Project { .. }));
    }

    #[test]
    fn display_renders_operators() {
        let s = ExprSig::join(ExprSig::base(r(0)), ExprSig::base(r(1)), JoinOn::on(0, 0));
        assert_eq!(s.to_string(), "(r0 ⋈ r1)");
    }
}
