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

/// Canonical relational expression identifying a vertex's contents.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ExprSig {
    /// A base relation.
    Base(RelationId),
    /// A selection over an input.
    Filter {
        /// The predicate.
        pred: Predicate,
        /// The filtered input.
        input: Box<ExprSig>,
    },
    /// An equi-join of two inputs.
    Join {
        /// Left input.
        left: Box<ExprSig>,
        /// Right input.
        right: Box<ExprSig>,
        /// Join condition (left columns index the left input's schema).
        on: JoinOn,
    },
    /// A projection over an input (only MVs carry projections).
    Project {
        /// Retained column indexes.
        cols: Vec<usize>,
        /// The projected input.
        input: Box<ExprSig>,
    },
    /// A group-by aggregation over an input (the §10 aggregate-operator
    /// extension).
    Aggregate {
        /// The aggregation.
        spec: AggregateSpec,
        /// The aggregated input.
        input: Box<ExprSig>,
    },
    /// One half of an incremental join: the delta stream
    /// `Δleft ⋈ right@old` (side = left) or `left@new ⋈ Δright`
    /// (side = right). The two halves union into the full `Join` delta,
    /// and only together: each snapshots its relation side at the *other's*
    /// coverage, so a half's stream depends on which sibling it is paired
    /// with. `pair` names that pair, making it part of the vertex identity.
    HalfJoin {
        /// Left input.
        left: Box<ExprSig>,
        /// Right input.
        right: Box<ExprSig>,
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
                input: Box::new(input),
            }
        }
    }

    /// Join signature.
    pub fn join(left: ExprSig, right: ExprSig, on: JoinOn) -> Self {
        ExprSig::Join {
            left: Box::new(left),
            right: Box::new(right),
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
            left: Box::new(left),
            right: Box::new(right),
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
                input: Box::new(input),
            },
            None => input,
        }
    }

    /// Aggregation signature.
    pub fn aggregate(spec: Option<AggregateSpec>, input: ExprSig) -> Self {
        match spec {
            Some(spec) => ExprSig::Aggregate {
                spec,
                input: Box::new(input),
            },
            None => input,
        }
    }

    /// Number of join operators in the expression (plan size heuristic).
    pub fn join_depth(&self) -> usize {
        match self {
            ExprSig::Base(_) => 0,
            ExprSig::Filter { input, .. }
            | ExprSig::Project { input, .. }
            | ExprSig::Aggregate { input, .. } => input.join_depth(),
            ExprSig::Join { left, right, .. } | ExprSig::HalfJoin { left, right, .. } => {
                1 + left.join_depth() + right.join_depth()
            }
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

    #[test]
    fn identical_expressions_hash_equal() {
        use std::collections::HashSet;
        let a = ExprSig::join(
            ExprSig::base(r(0)),
            ExprSig::filter(Predicate::eq(1, "x"), ExprSig::base(r(1))),
            JoinOn::on(0, 0),
        );
        let b = a.clone();
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn join_depth_counts_join_operators() {
        let s = ExprSig::join(
            ExprSig::join(ExprSig::base(r(2)), ExprSig::base(r(0)), JoinOn::on(0, 0)),
            ExprSig::base(r(1)),
            JoinOn::on(1, 0),
        );
        assert_eq!(s.join_depth(), 2);
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
