//! Hash equi-joins on z-sets and the incremental delta-join identity.
//!
//! The plan's `Join` edges never join two full relations; they join a small
//! delta window against a snapshot of the other side (§5, Figure 2). The
//! exactness of asynchronous maintenance comes from the bilinear identity
//!
//! ```text
//! A@t1 ⋈ B@t1  −  A@t0 ⋈ B@t0  =  ΔA ⋈ B@t0  +  A@t1 ⋈ ΔB
//! ```
//!
//! where `ΔA`/`ΔB` are the consolidated deltas over `(t0, t1]`. The left
//! term uses the *old* snapshot of the right side, and the right term uses
//! the *new* snapshot of the left side; this convention avoids double
//! counting tuples whose both sides changed within the window.

use crate::zset::ZSet;
use smile_types::{FastMap, Tuple};

/// Equi-join condition: pairs of column indexes that must be equal
/// (`left.0 == right.0 && left.1 == right.1 && ...`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JoinOn {
    /// Column indexes on the left input.
    pub left_cols: Vec<usize>,
    /// Column indexes on the right input, parallel to `left_cols`.
    pub right_cols: Vec<usize>,
}

impl JoinOn {
    /// Single-column equi-join.
    pub fn on(left: usize, right: usize) -> Self {
        Self {
            left_cols: vec![left],
            right_cols: vec![right],
        }
    }

    /// Multi-column equi-join.
    pub fn on_all(pairs: &[(usize, usize)]) -> Self {
        Self {
            left_cols: pairs.iter().map(|p| p.0).collect(),
            right_cols: pairs.iter().map(|p| p.1).collect(),
        }
    }
}

/// Joins two sets of rows — z-sets, or a table's rows read in place —
/// concatenating matched tuples; the weight of an output tuple is the
/// product of the input weights (the z-set join semantics that make
/// incremental maintenance exact under deletes).
pub fn join_zsets<'l, 'r, L, R>(left: L, right: R, on: &JoinOn) -> ZSet
where
    L: IntoIterator<Item = (&'l Tuple, i64)>,
    L::IntoIter: ExactSizeIterator,
    R: IntoIterator<Item = (&'r Tuple, i64)>,
    R::IntoIter: ExactSizeIterator,
{
    let (left, right) = (left.into_iter(), right.into_iter());
    // Build the hash table on the smaller side.
    if right.len() < left.len() {
        return join_inner(right, &on.right_cols, left, &on.left_cols, true);
    }
    join_inner(left, &on.left_cols, right, &on.right_cols, false)
}

/// `build` is hashed; `probe` streams. `swapped` says build is the *right*
/// join input, so output tuples must still be `left ++ right`.
fn join_inner<'b, 'p>(
    build: impl ExactSizeIterator<Item = (&'b Tuple, i64)>,
    build_cols: &[usize],
    probe: impl Iterator<Item = (&'p Tuple, i64)>,
    probe_cols: &[usize],
    swapped: bool,
) -> ZSet {
    let mut index: FastMap<Tuple, Vec<(&Tuple, i64)>> =
        FastMap::with_capacity_and_hasher(build.len(), Default::default());
    for (t, w) in build {
        index.entry(t.project(build_cols)).or_default().push((t, w));
    }
    let mut out = ZSet::new();
    for (pt, pw) in probe {
        let key = pt.project(probe_cols);
        if let Some(matches) = index.get(&key) {
            for (bt, bw) in matches {
                let joined = if swapped {
                    pt.concat(bt)
                } else {
                    bt.concat(pt)
                };
                out.add(joined, pw * bw);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smile_types::tuple;

    fn z(pairs: &[(i64, i64)]) -> ZSet {
        pairs.iter().map(|&(k, v)| (tuple![k, v], 1)).collect()
    }

    #[test]
    fn join_concatenates_matches() {
        let a = z(&[(1, 10), (2, 20)]);
        let b = z(&[(1, 100), (1, 101), (3, 300)]);
        let j = join_zsets(&a, &b, &JoinOn::on(0, 0));
        assert_eq!(j.len(), 2);
        assert_eq!(j.weight(&tuple![1i64, 10i64, 1i64, 100i64]), 1);
        assert_eq!(j.weight(&tuple![1i64, 10i64, 1i64, 101i64]), 1);
    }

    #[test]
    fn join_multiplies_weights() {
        let mut a = ZSet::new();
        a.add(tuple![1i64], 2);
        let mut b = ZSet::new();
        b.add(tuple![1i64], -3);
        let j = join_zsets(&a, &b, &JoinOn::on(0, 0));
        assert_eq!(j.weight(&tuple![1i64, 1i64]), -6);
    }

    #[test]
    fn multi_column_join() {
        let a = z(&[(1, 7), (1, 8)]);
        let b = z(&[(1, 7), (1, 9)]);
        let j = join_zsets(&a, &b, &JoinOn::on_all(&[(0, 0), (1, 1)]));
        assert_eq!(j.len(), 1);
        assert_eq!(j.weight(&tuple![1i64, 7i64, 1i64, 7i64]), 1);
    }

    #[test]
    fn join_output_order_is_left_then_right_regardless_of_build_side() {
        // Force both build-side choices by size asymmetry.
        let small = z(&[(1, 0)]);
        let large = z(&[(1, 1), (2, 2), (3, 3)]);
        let j1 = join_zsets(&small, &large, &JoinOn::on(0, 0));
        assert_eq!(j1.weight(&tuple![1i64, 0i64, 1i64, 1i64]), 1);
        let j2 = join_zsets(&large, &small, &JoinOn::on(0, 0));
        assert_eq!(j2.weight(&tuple![1i64, 1i64, 1i64, 0i64]), 1);
    }

    fn arb_rel() -> impl Strategy<Value = ZSet> {
        proptest::collection::vec(((0i64..6), (0i64..4)), 0..16)
            .prop_map(|v| ZSet::from_tuples(v.into_iter().map(|(k, x)| tuple![k, x])))
    }

    fn arb_delta() -> impl Strategy<Value = ZSet> {
        proptest::collection::vec(((0i64..6), (0i64..4), (-2i64..3)), 0..12).prop_map(|v| {
            v.into_iter()
                .map(|(k, x, w)| (tuple![k, x], w))
                .collect::<ZSet>()
        })
    }

    proptest! {
        /// The delta-join identity: joining the new states equals joining the
        /// old states plus the incremental delta.
        #[test]
        fn delta_join_is_exact(a_old in arb_rel(), da in arb_delta(),
                               b_old in arb_rel(), db in arb_delta()) {
            let on = JoinOn::on(0, 0);
            let mut a_new = a_old.clone();
            a_new.merge(&da);
            let mut b_new = b_old.clone();
            b_new.merge(&db);

            // Ground truth: J_new - J_old.
            let mut truth = join_zsets(&a_new, &b_new, &on);
            truth.merge_owned(join_zsets(&a_old, &b_old, &on).negated());

            // The plan's two `Join` edges plus the `Union`: ΔA ⋈ B_old + A_new ⋈ ΔB.
            let mut inc = join_zsets(&da, &b_old, &on);
            inc.merge_owned(join_zsets(&a_new, &db, &on));
            prop_assert_eq!(truth, inc);
        }

        /// Join distributes over z-set merge.
        #[test]
        fn join_is_bilinear(a in arb_delta(), b in arb_delta(), c in arb_rel()) {
            let on = JoinOn::on(0, 0);
            let mut ab = a.clone();
            ab.merge(&b);
            let lhs = join_zsets(&ab, &c, &on);
            let mut rhs = join_zsets(&a, &c, &on);
            rhs.merge_owned(join_zsets(&b, &c, &on));
            prop_assert_eq!(lhs, rhs);
        }
    }
}
