//! Z-sets: multisets with signed integer multiplicities.
//!
//! A z-set maps tuples to non-zero weights. Relations are z-sets whose
//! weights are all positive; deltas are arbitrary z-sets. The platform's
//! correctness rests on z-set algebra being a commutative group under
//! merge, with join distributing over it — property-tested in this module.

use smile_types::{FastMap, Tuple};

/// What one signed update did to the rows stored; a table's counters follow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowChange {
    /// The row was absent and is now stored.
    Appeared,
    /// The same rows are stored: one changed weight, or the update was zero.
    Reweighted,
    /// The row's weight cancelled to zero and it is no longer stored.
    Vanished,
}

/// A multiset of tuples with signed multiplicities. Entries with weight zero
/// are never stored.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ZSet {
    entries: FastMap<Tuple, i64>,
}

impl ZSet {
    /// The empty z-set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a z-set with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            entries: FastMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// Builds a z-set of unit-weight tuples (an ordinary relation).
    pub fn from_tuples<I: IntoIterator<Item = Tuple>>(tuples: I) -> Self {
        let mut z = ZSet::new();
        for t in tuples {
            z.add(t, 1);
        }
        z
    }

    /// Adds `weight` to the multiplicity of `tuple`, dropping the entry if it
    /// cancels to zero.
    pub fn add(&mut self, tuple: Tuple, weight: i64) -> RowChange {
        if weight == 0 {
            return RowChange::Reweighted;
        }
        use std::collections::hash_map::Entry;
        match self.entries.entry(tuple) {
            Entry::Occupied(mut e) => {
                let w = *e.get() + weight;
                if w == 0 {
                    e.remove();
                    return RowChange::Vanished;
                }
                *e.get_mut() = w;
                RowChange::Reweighted
            }
            Entry::Vacant(e) => {
                e.insert(weight);
                RowChange::Appeared
            }
        }
    }

    /// Multiplicity of `tuple` (zero if absent).
    pub fn weight(&self, tuple: &Tuple) -> i64 {
        self.entries.get(tuple).copied().unwrap_or(0)
    }

    /// Number of distinct tuples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no tuple has non-zero weight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of rows counting multiplicities (positive weights only);
    /// this is the cardinality an SQL `COUNT(*)` would report.
    pub fn cardinality(&self) -> i64 {
        self.entries.values().filter(|&&w| w > 0).sum()
    }

    /// Iterates over `(tuple, weight)` pairs in unspecified order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Tuple, i64)> {
        self.into_iter()
    }

    /// Consumes the z-set, yielding `(tuple, weight)` pairs.
    pub fn into_iter_entries(self) -> impl Iterator<Item = (Tuple, i64)> {
        self.entries.into_iter()
    }

    /// Merges `other` into `self` (group addition).
    ///
    /// Weight sums are deferred and cancelled entries swept once at the end
    /// ([`consolidate`]) rather than removed one by one.
    ///
    /// [`consolidate`]: ZSet::consolidate
    pub fn merge(&mut self, other: &ZSet) {
        self.entries.reserve(other.entries.len());
        for (t, &w) in &other.entries {
            match self.entries.get_mut(t) {
                Some(s) => *s += w,
                None => {
                    self.entries.insert(t.clone(), w);
                }
            }
        }
        self.consolidate();
    }

    /// Merges an owned z-set, reusing its allocations.
    pub fn merge_owned(&mut self, other: ZSet) {
        if self.entries.is_empty() {
            self.entries = other.entries;
            return;
        }
        self.extend_unconsolidated(other.entries);
        self.consolidate();
    }

    /// The group inverse, in place: every weight negated. No tuples are
    /// cloned and the set of stored entries is unchanged (negation cannot
    /// create zero weights).
    pub fn negate_in_place(&mut self) {
        for w in self.entries.values_mut() {
            *w = -*w;
        }
    }

    /// Consuming negation — [`negate_in_place`] for call chains.
    ///
    /// [`negate_in_place`]: ZSet::negate_in_place
    #[must_use]
    pub fn negated(mut self) -> ZSet {
        self.negate_in_place();
        self
    }

    /// Bulk-loads raw `(tuple, weight)` pairs **without** dropping entries
    /// whose weights cancel to zero — callers must [`consolidate`] before
    /// the z-set is observed. Summing first and sweeping once is cheaper
    /// than per-entry insert/remove churn on large batches.
    ///
    /// [`consolidate`]: ZSet::consolidate
    pub fn extend_unconsolidated<I: IntoIterator<Item = (Tuple, i64)>>(&mut self, pairs: I) {
        let pairs = pairs.into_iter();
        self.entries.reserve(pairs.size_hint().0);
        for (t, w) in pairs {
            *self.entries.entry(t).or_insert(0) += w;
        }
    }

    /// Restores the invariant that weight-zero entries are never stored, in
    /// place (single sweep, no clones).
    pub fn consolidate(&mut self) {
        self.entries.retain(|_, w| *w != 0);
    }

    /// Returns the entries as a sorted vector — deterministic order for
    /// tests and snapshots.
    pub fn sorted_entries(&self) -> Vec<(Tuple, i64)> {
        let mut v: Vec<_> = self.entries.iter().map(|(t, &w)| (t.clone(), w)).collect();
        v.sort();
        v
    }
}

impl FromIterator<(Tuple, i64)> for ZSet {
    fn from_iter<I: IntoIterator<Item = (Tuple, i64)>>(iter: I) -> Self {
        let mut z = ZSet::new();
        z.extend_unconsolidated(iter);
        z.consolidate();
        z
    }
}

/// Collects borrowed rows — a table's, read in place — cloning each tuple.
impl<'a> FromIterator<(&'a Tuple, i64)> for ZSet {
    fn from_iter<I: IntoIterator<Item = (&'a Tuple, i64)>>(iter: I) -> Self {
        iter.into_iter().map(|(t, w)| (t.clone(), w)).collect()
    }
}

/// Joins and aggregates take a `&ZSet` or a table's rows read in place alike.
impl<'a> IntoIterator for &'a ZSet {
    type Item = (&'a Tuple, i64);
    type IntoIter = std::iter::Map<
        std::collections::hash_map::Iter<'a, Tuple, i64>,
        fn((&'a Tuple, &'a i64)) -> (&'a Tuple, i64),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(t, &w)| (t, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smile_types::tuple;

    #[test]
    fn add_consolidates_and_cancels() {
        let mut z = ZSet::new();
        z.add(tuple![1i64], 2);
        z.add(tuple![1i64], -2);
        assert!(z.is_empty());
        z.add(tuple![2i64], 1);
        z.add(tuple![2i64], 1);
        assert_eq!(z.weight(&tuple![2i64]), 2);
        assert_eq!(z.len(), 1);
    }

    #[test]
    fn cardinality_counts_positive_multiplicities() {
        let mut z = ZSet::new();
        z.add(tuple![1i64], 3);
        z.add(tuple![2i64], -5);
        assert_eq!(z.cardinality(), 3);
    }

    #[test]
    fn merge_with_negation_is_identity() {
        let mut z = ZSet::from_tuples([tuple![1i64], tuple![2i64], tuple![2i64]]);
        let n = z.clone().negated();
        z.merge(&n);
        assert!(z.is_empty());
    }

    #[test]
    fn consolidation_drops_zero_weight_entries() {
        let mut z = ZSet::new();
        z.extend_unconsolidated([
            (tuple![1i64], 2),
            (tuple![1i64], -2),
            (tuple![2i64], 1),
            (tuple![3i64], 0),
        ]);
        z.consolidate();
        assert_eq!(z.len(), 1);
        assert_eq!(z.weight(&tuple![2i64]), 1);
        assert!(z.iter().all(|(_, w)| w != 0));
    }

    #[test]
    fn negate_in_place_flips_weights_without_resizing() {
        let mut z = ZSet::new();
        z.add(tuple![1i64], 3);
        z.add(tuple![2i64], -1);
        z.negate_in_place();
        assert_eq!(z.weight(&tuple![1i64]), -3);
        assert_eq!(z.weight(&tuple![2i64]), 1);
        assert_eq!(z.len(), 2);
    }

    fn arb_zset() -> impl Strategy<Value = ZSet> {
        proptest::collection::vec(((0i64..8), (-3i64..4)), 0..24).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(k, w)| (tuple![k], w))
                .collect::<ZSet>()
        })
    }

    proptest! {
        #[test]
        fn merge_is_commutative(a in arb_zset(), b in arb_zset()) {
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn merge_is_associative(a in arb_zset(), b in arb_zset(), c in arb_zset()) {
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }

        #[test]
        fn negate_is_inverse(a in arb_zset()) {
            let mut z = a.clone();
            z.merge(&a.clone().negated());
            prop_assert!(z.is_empty());
        }

        #[test]
        fn zero_weights_never_stored(a in arb_zset()) {
            prop_assert!(a.iter().all(|(_, w)| w != 0));
        }
    }
}
