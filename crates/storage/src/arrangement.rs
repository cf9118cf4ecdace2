//! Shared arrangements: persistent hash-indexed operator state.
//!
//! An [`Arrangement`] indexes a relation's current z-set by a projection of
//! its columns (the join key). It is built **once** when a join edge is
//! installed and from then on maintained **incrementally** from the delta
//! entries the table applies — no per-push rebuild, no full scan. It holds
//! every row, so a table's first arrangement is where its rows live
//! ([`Table`](crate::table::Table)). Every plan vertex that joins on the
//! same `(relation, key columns)` pair probes the same arrangement, which
//! is the storage-level half of the platform's plumbing story: merged
//! sharings pay for index maintenance once and share the state (cf.
//! "Shared Arrangements", McSherry et al., VLDB 2020).
//!
//! An arrangement may also be **partitioned** by further columns: the rows
//! are grouped by their values there first, then by join key. Join edges
//! whose snapshot filters differ only by a `col = literal` conjunct then
//! share one arrangement partitioned by `col`, and each reads only its
//! literal's partition instead of scanning every reader's rows for its own.
//! [`IndexCols`] — partition columns, then key columns — is the identity;
//! every row sits in exactly one partition, so it is indexed once either
//! way. An unpartitioned arrangement is the same structure with the single
//! empty partition.
//!
//! Probe-side statistics are kept in [`Cell`]s so read-only probes through
//! a `&Table` still count (the push engine is one thread, so nothing shares
//! an arrangement across threads); [`ArrangementCounters`] snapshots them
//! for the simulator's meter.

use crate::zset::{RowChange, ZSet};
use smile_types::{FastMap, Key, Tuple, Value};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::hash_map;

/// Snapshot of one arrangement's (or a fleet aggregate's) operational
/// counters: probe traffic, hit rate, and maintenance volume.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArrangementCounters {
    /// Index probes served: one per delta entry presented to the index,
    /// whichever side the join iterates — the window's entries, or the
    /// partition's keys looked up in the window
    /// ([`Partition::count_probes`]).
    pub probes: u64,
    /// Probes that found a non-empty bucket for the key.
    pub hits: u64,
    /// Probes that found no rows for the key.
    pub misses: u64,
    /// Delta entries folded into the index incrementally after the build.
    pub maintained: u64,
    /// Rows scanned by the one-time initial build.
    pub built_rows: u64,
}

impl ArrangementCounters {
    /// Accumulates `other` into `self` (fleet-wide aggregation).
    pub fn add(&mut self, other: &ArrangementCounters) {
        self.probes += other.probes;
        self.hits += other.hits;
        self.misses += other.misses;
        self.maintained += other.maintained;
        self.built_rows += other.built_rows;
    }

    /// Fraction of probes that hit a non-empty bucket (0.0 when unused).
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes as f64
        }
    }
}

/// Which arrangement: the columns its rows are partitioned by, then the
/// join-key columns each partition is indexed by. Two readers with equal
/// `IndexCols` on one relation share one arrangement.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexCols {
    /// Partition columns (empty: one partition holds every row).
    pub partition: Vec<usize>,
    /// Join-key columns.
    pub key: Vec<usize>,
}

impl IndexCols {
    /// The unpartitioned arrangement keyed by `key`.
    pub fn unpartitioned(key: &[usize]) -> Self {
        Self {
            partition: Vec::new(),
            key: key.to_vec(),
        }
    }
}

/// The rows of one key, with their z-set weights. Most keys hold one row,
/// so that row sits inline; a second row promotes the key to a map of its
/// own, and a delete that leaves one row demotes it back. A stored `One`
/// therefore holds a non-zero weight and a stored `Many` at least two rows;
/// only the shared bucket a missed probe returns is an empty `Many`. The
/// map's non-null control pointer leaves a niche for `One`, so a bucket is
/// no larger than the map alone (DESIGN §8).
#[derive(Clone, Debug)]
pub enum Bucket {
    /// The key's only row.
    One(Tuple, i64),
    /// Two or more rows.
    Many(FastMap<Tuple, i64>),
}

const _: () = assert!(std::mem::size_of::<Bucket>() == std::mem::size_of::<FastMap<Tuple, i64>>());
// The sizes DESIGN §8 counts in: a value, a row and a key; an index slot
// is a key and a bucket, 24 + 32 bytes.
const _: () = assert!(std::mem::size_of::<Value>() == 16);
const _: () = assert!(std::mem::size_of::<Tuple>() == 16);
const _: () = assert!(std::mem::size_of::<Key>() == 24);
const _: () = assert!(std::mem::size_of::<Bucket>() == 32);

impl Bucket {
    /// How many rows the key holds.
    pub fn len(&self) -> usize {
        match self {
            Bucket::One(..) => 1,
            Bucket::Many(rows) => rows.len(),
        }
    }

    /// True only for the bucket a missed probe returns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows with their weights, in unspecified order.
    #[inline]
    pub fn iter(&self) -> BucketIter<hash_map::Iter<'_, Tuple, i64>> {
        match self {
            Bucket::One(row, w) => BucketIter::One(Some((row, w))),
            Bucket::Many(rows) => BucketIter::Many(rows.iter()),
        }
    }
}

impl<'a> IntoIterator for &'a Bucket {
    type Item = (&'a Tuple, &'a i64);
    type IntoIter = BucketIter<hash_map::Iter<'a, Tuple, i64>>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for Bucket {
    type Item = (Tuple, i64);
    type IntoIter = BucketIter<hash_map::IntoIter<Tuple, i64>>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        match self {
            Bucket::One(row, w) => BucketIter::One(Some((row, w))),
            Bucket::Many(rows) => BucketIter::Many(rows.into_iter()),
        }
    }
}

/// A [`Bucket`]'s rows, by reference or by value: the inline row, or the
/// map's iterator `I`. It is generic, so a join loop in another crate
/// inlines its `next` (DESIGN §8).
#[derive(Debug)]
pub enum BucketIter<I: Iterator> {
    /// The inline row, until taken.
    One(Option<I::Item>),
    /// The map's rows.
    Many(I),
}

impl<I: Iterator> Iterator for BucketIter<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        match self {
            BucketIter::One(row) => row.take(),
            BucketIter::Many(rows) => rows.next(),
        }
    }
}

/// One partition: join key → bucket.
type Index = FastMap<Key, Bucket>;

/// A persistent hash index over a relation keyed by a column projection.
///
/// `partitions[p][key]` holds every current row whose projection onto the
/// partition columns equals `p` and onto the key columns equals `key`, with
/// its z-set weight. Weight-zero rows are never stored — updates
/// consolidate in place, and an emptied bucket or partition is removed — so
/// probing yields exactly the rows a scan of the consolidated relation
/// would.
#[derive(Clone, Debug)]
pub struct Arrangement {
    on: IndexCols,
    partitions: FastMap<Key, Index>,
    probes: Cell<u64>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    maintained: u64,
    built_rows: u64,
    /// Reusable buffer for [`update`]: the row's partition values then its
    /// key values are assembled here and looked up as `&[Value]` slices
    /// (via [`Key`]'s `Borrow<[Value]>`), so maintenance builds a key only
    /// when a previously unseen partition or key first appears — not once
    /// per delta entry — and a one-column key allocates nothing.
    ///
    /// [`update`]: Arrangement::update
    scratch: Vec<Value>,
}

impl Arrangement {
    /// An empty arrangement on `on`.
    pub fn new(on: IndexCols) -> Self {
        Self {
            on,
            partitions: FastMap::default(),
            probes: Cell::new(0),
            hits: Cell::new(0),
            misses: Cell::new(0),
            maintained: 0,
            built_rows: 0,
            scratch: Vec::new(),
        }
    }

    /// Builds an arrangement on `on` from a relation's current rows — the
    /// one-time cost paid at install; afterwards only [`update`] touches it.
    ///
    /// [`update`]: Arrangement::update
    pub fn build<'a>(on: IndexCols, rows: impl IntoIterator<Item = (&'a Tuple, i64)>) -> Self {
        Self::build_from(on, rows.into_iter().map(|(t, w)| (Cow::Borrowed(t), w)))
    }

    /// [`Arrangement::build`] from rows taken by value, which move in uncloned.
    pub fn build_owned(on: IndexCols, rows: ZSet) -> Self {
        Self::build_from(on, rows.into_iter_entries().map(|(t, w)| (Cow::Owned(t), w)))
    }

    fn build_from<'a>(on: IndexCols, rows: impl Iterator<Item = (Cow<'a, Tuple>, i64)>) -> Self {
        let mut arr = Arrangement::new(on);
        for (t, w) in rows {
            arr.fold(t, w);
            arr.built_rows += 1;
        }
        arr
    }

    /// The partition and key columns this arrangement indexes.
    pub fn on(&self) -> &IndexCols {
        &self.on
    }

    /// Every row indexed, with its weight, in unspecified order.
    pub fn rows(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        let buckets = self.partitions.values().flat_map(FastMap::values);
        buckets.flat_map(|bucket| bucket.iter().map(|(t, &w)| (t, w)))
    }

    /// Consumes the arrangement, yielding its rows by value.
    pub fn into_rows(self) -> impl Iterator<Item = (Tuple, i64)> {
        let buckets = self.partitions.into_values().flat_map(FastMap::into_values);
        buckets.flatten()
    }

    /// Folds one delta entry into the index, consolidating in place: the
    /// row's weight is adjusted and dropped from its bucket when it cancels
    /// to zero (empty buckets and partitions are removed so misses stay
    /// cheap). Reports what the update did to the rows indexed.
    pub fn update(&mut self, tuple: &Tuple, weight: i64) -> RowChange {
        if weight == 0 {
            return RowChange::Reweighted;
        }
        self.maintained += 1;
        self.fold(Cow::Borrowed(tuple), weight)
    }

    fn fold(&mut self, tuple: Cow<'_, Tuple>, weight: i64) -> RowChange {
        let mut values = std::mem::take(&mut self.scratch);
        values.clear();
        let cols = self.on.partition.iter().chain(&self.on.key);
        values.extend(cols.map(|&c| tuple.values()[c].clone()));
        let (part, key) = values.split_at(self.on.partition.len());
        let (change, emptied) = match self.partitions.get_mut(part) {
            Some(index) => (fold_into(index, key, tuple, weight), index.is_empty()),
            None => {
                let mut index = Index::default();
                let change = fold_into(&mut index, key, tuple, weight);
                self.partitions.insert(Key::from(part), index);
                (change, false)
            }
        };
        if emptied {
            self.partitions.remove(part);
        }
        self.scratch = values;
        change
    }

    /// The partition whose values at the partition columns are `values` (in
    /// [`IndexCols::partition`] order), for probing. An absent partition is
    /// an empty one.
    pub fn partition(&self, values: &[Value]) -> Partition<'_> {
        Partition {
            arr: self,
            index: self.partitions.get(values),
        }
    }

    /// Probes an unpartitioned arrangement: every current row whose key
    /// projection equals `key`, by reference. Counts the probe as a hit or
    /// miss.
    pub fn probe(&self, key: &Tuple) -> &Bucket {
        self.partition(&[]).probe(key.values())
    }

    /// Probes a whole delta's keys against an unpartitioned arrangement in
    /// one pass; [`Partition::probe_batch`] over the single partition.
    pub fn probe_batch(&self, keys_flat: &[Value], arity: usize, n: usize) -> Vec<&Bucket> {
        self.partition(&[]).probe_batch(keys_flat, arity, n)
    }

    /// True iff no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Drops all indexed rows but keeps the index columns and counters
    /// (used when a relation copy is re-seeded).
    pub fn clear(&mut self) {
        self.partitions.clear();
    }

    /// Snapshot of the probe/maintenance counters.
    pub fn counters(&self) -> ArrangementCounters {
        ArrangementCounters {
            probes: self.probes.get(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            maintained: self.maintained,
            built_rows: self.built_rows,
        }
    }

    /// Every (partition, key, row, weight) the arrangement holds, sorted.
    #[cfg(test)]
    pub(crate) fn contents(&self) -> Vec<(Key, Key, Tuple, i64)> {
        let mut out: Vec<_> = self
            .partitions
            .iter()
            .flat_map(|(p, index)| {
                index.iter().flat_map(move |(k, bucket)| {
                    bucket.iter().map(move |(row, &w)| (p.clone(), k.clone(), row.clone(), w))
                })
            })
            .collect();
        out.sort();
        out
    }
}

/// Folds `weight` of `tuple` into `key`'s bucket of one partition, removing
/// the row when it cancels and the bucket when it empties. A second row
/// promotes an inline bucket to a map, and a map left with one row is
/// demoted back. The tuple is cloned only if it is borrowed and new.
fn fold_into(index: &mut Index, key: &[Value], tuple: Cow<'_, Tuple>, weight: i64) -> RowChange {
    let Some(bucket) = index.get_mut(key) else {
        index.insert(Key::from(key), Bucket::One(tuple.into_owned(), weight));
        return RowChange::Appeared;
    };
    match bucket {
        Bucket::One(row, w) if row == tuple.as_ref() => {
            *w += weight;
            if *w != 0 {
                return RowChange::Reweighted;
            }
            index.remove(key);
            RowChange::Vanished
        }
        Bucket::One(row, w) => {
            let rows = [(row.clone(), *w), (tuple.into_owned(), weight)];
            *bucket = Bucket::Many(rows.into_iter().collect());
            RowChange::Appeared
        }
        Bucket::Many(rows) => match rows.get_mut(tuple.as_ref()) {
            None => {
                rows.insert(tuple.into_owned(), weight);
                RowChange::Appeared
            }
            Some(w) if *w + weight != 0 => {
                *w += weight;
                RowChange::Reweighted
            }
            Some(_) => {
                rows.remove(tuple.as_ref());
                if rows.len() == 1 {
                    if let Some((row, w)) = std::mem::take(rows).into_iter().next() {
                        *bucket = Bucket::One(row, w);
                    }
                }
                RowChange::Vanished
            }
        },
    }
}

/// One partition of an [`Arrangement`], looked up once and then probed by
/// join key. Probes count toward the arrangement's statistics; every probe
/// of an absent partition is a miss.
#[derive(Clone, Copy, Debug)]
pub struct Partition<'a> {
    arr: &'a Arrangement,
    index: Option<&'a Index>,
}

impl<'a> Partition<'a> {
    /// Every current row of the partition whose key projection equals
    /// `key`, by reference (an empty bucket on a miss) — driven by a
    /// borrowed value slice so callers can reuse one projection buffer
    /// across a whole delta window. Counts the probe as a hit or miss.
    pub fn probe(&self, key: &[Value]) -> &'a Bucket {
        static EMPTY: std::sync::OnceLock<Bucket> = std::sync::OnceLock::new();
        let arr = self.arr;
        arr.probes.set(arr.probes.get() + 1);
        match self.index.and_then(|index| index.get(key)) {
            Some(bucket) => {
                arr.hits.set(arr.hits.get() + 1);
                bucket
            }
            None => {
                arr.misses.set(arr.misses.get() + 1);
                EMPTY.get_or_init(|| Bucket::Many(FastMap::default()))
            }
        }
    }

    /// How many join keys the partition holds (none when it is absent).
    pub fn key_count(&self) -> usize {
        self.index.map_or(0, FastMap::len)
    }

    /// Every join key of the partition with its bucket, in unspecified
    /// order — for a join driven from the partition's side.
    pub fn buckets(&self) -> impl Iterator<Item = (&'a Key, &'a Bucket)> {
        self.index.into_iter().flatten()
    }

    /// Counts `n` probes of which `hits` found a key: what `n` calls to
    /// [`probe`] count, for a join that looked the partition's keys up in
    /// the delta instead of each delta entry's key up in the partition.
    ///
    /// [`probe`]: Partition::probe
    pub fn count_probes(&self, n: usize, hits: usize) {
        debug_assert!(hits <= n);
        let arr = self.arr;
        arr.probes.set(arr.probes.get() + n as u64);
        arr.hits.set(arr.hits.get() + hits as u64);
        arr.misses.set(arr.misses.get() + (n - hits) as u64);
    }

    /// Probes a whole delta's keys in one pass. `keys_flat` holds `n` keys
    /// of `arity` values each, laid out back to back (one contiguous buffer
    /// for the entire window — the batched-hashing layout the executor's
    /// join builds). Returns the matched bucket per key, in order; every key
    /// is counted as one probe, identical to `n` calls to [`probe`].
    ///
    /// [`probe`]: Partition::probe
    pub fn probe_batch(&self, keys_flat: &[Value], arity: usize, n: usize) -> Vec<&'a Bucket> {
        assert_eq!(keys_flat.len(), arity * n, "flattened key buffer mismatch");
        (0..n)
            .map(|i| self.probe(&keys_flat[i * arity..(i + 1) * arity]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smile_types::tuple;

    fn on(partition: &[usize], key: &[usize]) -> IndexCols {
        IndexCols {
            partition: partition.to_vec(),
            key: key.to_vec(),
        }
    }

    #[test]
    fn build_then_probe() {
        let rows = ZSet::from_tuples([tuple![1i64, "a"], tuple![1i64, "b"], tuple![2i64, "c"]]);
        let arr = Arrangement::build(IndexCols::unpartitioned(&[0]), &rows);
        assert_eq!(arr.probe(&tuple![1i64]).len(), 2);
        assert!(arr.probe(&tuple![9i64]).is_empty());
        let c = arr.counters();
        assert_eq!((c.probes, c.hits, c.misses, c.built_rows), (2, 1, 1, 3));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn update_consolidates_in_place() {
        let mut arr = Arrangement::new(IndexCols::unpartitioned(&[0]));
        arr.update(&tuple![1i64, "a"], 2);
        arr.update(&tuple![1i64, "a"], -2);
        // Cancelled to zero: row gone, bucket gone.
        assert!(arr.is_empty());
        assert_eq!(arr.counters().maintained, 2);
        arr.update(&tuple![1i64, "a"], -1);
        let rows: Vec<_> = arr.probe(&tuple![1i64]).iter().collect();
        assert_eq!(rows, [(&tuple![1i64, "a"], &-1)]);
    }

    #[test]
    fn slice_and_batch_probes_match_tuple_probes() {
        let rows = ZSet::from_tuples([tuple![1i64, "a"], tuple![1i64, "b"], tuple![2i64, "c"]]);
        let arr = Arrangement::build(IndexCols::unpartitioned(&[0]), &rows);
        // Slice probe sees the same bucket as the tuple probe.
        assert_eq!(
            arr.partition(&[]).probe(&[Value::I64(1)]).len(),
            arr.probe(&tuple![1i64]).len()
        );
        // Batched probe over a flattened key buffer: same buckets, and the
        // counters advance one probe per key.
        let before = arr.counters().probes;
        let keys = [Value::I64(1), Value::I64(2), Value::I64(9)];
        let buckets = arr.probe_batch(&keys, 1, 3);
        assert_eq!(
            buckets.iter().map(|b| b.len()).collect::<Vec<_>>(),
            vec![2, 1, 0]
        );
        assert_eq!(arr.counters().probes, before + 3);
    }

    #[test]
    fn multi_column_keys() {
        let mut arr = Arrangement::new(IndexCols::unpartitioned(&[0, 2]));
        arr.update(&tuple![1i64, "x", 7i64], 1);
        arr.update(&tuple![1i64, "y", 7i64], 1);
        arr.update(&tuple![1i64, "y", 8i64], 1);
        assert_eq!(arr.probe(&tuple![1i64, 7i64]).len(), 2);
        assert_eq!(arr.probe(&tuple![1i64, 8i64]).len(), 1);
    }

    /// A partition holds only its literal's rows; each row is indexed once.
    #[test]
    fn partitions_split_rows_by_their_values() {
        let rows = ZSet::from_tuples([tuple![1i64, "a"], tuple![1i64, "b"], tuple![2i64, "a"]]);
        let arr = Arrangement::build(on(&[1], &[0]), &rows);
        assert_eq!(arr.partitions.len(), 2);
        assert_eq!(arr.counters().built_rows, 3);
        let a = arr.partition(&[Value::str("a")]);
        let rows: Vec<_> = a.probe(&[Value::I64(1)]).iter().collect();
        assert_eq!(rows, [(&tuple![1i64, "a"], &1)]);
        assert_eq!(a.probe(&[Value::I64(2)]).len(), 1);
        assert_eq!(arr.partition(&[Value::str("b")]).probe(&[Value::I64(2)]).len(), 0);
    }

    /// A cancelled row drops its bucket, and the emptied partition goes
    /// with it; the other partition is untouched.
    #[test]
    fn cancelled_rows_drop_their_bucket_and_partition() {
        let mut arr = Arrangement::new(on(&[1], &[0]));
        arr.update(&tuple![1i64, "a"], 1);
        arr.update(&tuple![2i64, "a"], 1);
        arr.update(&tuple![1i64, "b"], 1);
        arr.update(&tuple![1i64, "a"], -1);
        assert_eq!(arr.partitions.len(), 2);
        let a = arr.partition(&[Value::str("a")]);
        assert!(a.probe(&[Value::I64(1)]).is_empty());
        assert_eq!(a.index.map(FastMap::len), Some(1), "key 1's bucket is gone");
        arr.update(&tuple![2i64, "a"], -1);
        assert_eq!(arr.partitions.len(), 1, "partition 'a' is gone");
        assert!(arr.partition(&[Value::str("a")]).index.is_none());
        assert_eq!(arr.partition(&[Value::str("b")]).probe(&[Value::I64(1)]).len(), 1);
    }

    #[test]
    fn clear_empties_every_partition() {
        let rows = ZSet::from_tuples([tuple![1i64, "a"], tuple![2i64, "b"]]);
        let mut arr = Arrangement::build(on(&[1], &[0]), &rows);
        arr.clear();
        assert!(arr.is_empty());
        assert_eq!(arr.partitions.len(), 0);
        assert!(arr.partition(&[Value::str("a")]).probe(&[Value::I64(1)]).is_empty());
        assert_eq!(arr.on(), &on(&[1], &[0]), "the index columns stay");
    }

    /// Probing a partition no row has counts one miss per key.
    #[test]
    fn probing_an_absent_partition_counts_misses() {
        let rows = ZSet::from_tuples([tuple![1i64, "a"]]);
        let arr = Arrangement::build(on(&[1], &[0]), &rows);
        let keys = [Value::I64(1), Value::I64(2)];
        let buckets = arr.partition(&[Value::str("zed")]).probe_batch(&keys, 1, 2);
        assert!(buckets.iter().all(|b| b.is_empty()));
        let c = arr.counters();
        assert_eq!((c.probes, c.hits, c.misses), (2, 0, 2));
    }

    /// Every stored bucket is in its shape: a one-row key inline with a
    /// non-zero weight, a map only for two or more non-zero rows; and no
    /// partition is empty.
    fn shaped(arr: &Arrangement) -> bool {
        let shaped = |bucket: &Bucket| match bucket {
            Bucket::One(_, w) => *w != 0,
            Bucket::Many(rows) => rows.len() >= 2 && rows.values().all(|&w| w != 0),
        };
        arr.partitions.values().all(|index| !index.is_empty() && index.values().all(shaped))
    }

    proptest! {
        /// Incremental maintenance equals a build from the consolidated
        /// rows after every step of any sequence of signed updates,
        /// partitioned or not: the same row change reported as a z-set's,
        /// the same rows under the same partitions and keys, every bucket
        /// [`shaped`], a probe of the updated row's key by borrowed slices
        /// the z-set's rows there, and the rows by value the same z-set.
        /// Rows are `(int, text, float)`; the key is the int, the float or
        /// both, and the partition the text, so one-column keys of every
        /// type and multi-column keys are all maintained and read. A key
        /// holds at most six rows (three per partition), so keys cross
        /// 0 ↔ 1 ↔ 2+ rows again and again.
        #[test]
        fn maintenance_matches_a_build_from_rows(
            updates in prop::collection::vec(
                (0i64..3, 0i64..2, 0i64..2, prop_oneof![Just(1i64), Just(-1i64), -2i64..3]),
                0..80,
            ),
            partitioned in prop::bool::ANY,
            key in prop_oneof![Just(vec![0]), Just(vec![2]), Just(vec![0, 2])],
        ) {
            let on = IndexCols { partition: if partitioned { vec![1] } else { vec![] }, key };
            let mut arr = Arrangement::new(on.clone());
            let mut rows = ZSet::new();
            for (a, b, c, w) in updates {
                let row = tuple![a, format!("t{b}").as_str(), c as f64 / 2.0];
                prop_assert_eq!(arr.update(&row, w), rows.add(row.clone(), w));
                prop_assert_eq!(arr.contents(), Arrangement::build(on.clone(), &rows).contents());
                prop_assert!(shaped(&arr));
                let (part, key) = (row.project(&on.partition), row.project(&on.key));
                let at = |t: &Tuple| t.project(&on.partition) == part && t.project(&on.key) == key;
                let mut probed: Vec<_> = arr.partition(part.values()).probe(key.values()).iter().collect();
                let mut want: Vec<_> = rows.iter().filter(|(t, _)| at(t)).collect();
                probed.sort();
                want.sort();
                prop_assert_eq!(probed.into_iter().map(|(t, &w)| (t, w)).collect::<Vec<_>>(), want);
            }
            prop_assert_eq!(arr.into_rows().collect::<ZSet>(), rows);
        }
    }
}
