//! Shared arrangements: persistent hash-indexed operator state.
//!
//! An [`Arrangement`] indexes a relation's current z-set by a projection of
//! its columns (the join key). It is built **once** when a join edge is
//! installed and from then on maintained **incrementally** from the same
//! delta entries that update the base rows — no per-push rebuild, no full
//! scan. Every plan vertex that joins on the same `(relation, key columns)`
//! pair probes the same arrangement, which is the storage-level half of the
//! platform's plumbing story: merged sharings pay for index maintenance once
//! and share the state (cf. "Shared Arrangements", McSherry et al., VLDB
//! 2020).
//!
//! Probe-side statistics are kept in [`Cell`]s so read-only probes through
//! a `&Table` still count (the push engine is one thread, so nothing shares
//! an arrangement across threads); [`ArrangementCounters`] snapshots them
//! for the simulator's meter.

use crate::zset::ZSet;
use smile_types::{FastMap, Tuple, Value};
use std::cell::Cell;

/// Snapshot of one arrangement's (or a fleet aggregate's) operational
/// counters: probe traffic, hit rate, and maintenance volume.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArrangementCounters {
    /// Index probes served (one per delta tuple on the probe side).
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

/// A persistent hash index over a relation keyed by a column projection.
///
/// `index[key]` holds every current row whose projection onto `cols` equals
/// `key`, with its z-set weight. Weight-zero rows are never stored — updates
/// consolidate in place — so probing yields exactly the rows a scan of the
/// consolidated relation would.
#[derive(Clone, Debug)]
pub struct Arrangement {
    cols: Vec<usize>,
    index: FastMap<Tuple, FastMap<Tuple, i64>>,
    probes: Cell<u64>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    maintained: u64,
    built_rows: u64,
    /// Reusable key buffer for [`update`]: the delta tuple's projection is
    /// assembled here and looked up as a `&[Value]` slice (via `Tuple`'s
    /// `Borrow<[Value]>`), so maintenance allocates a key `Tuple` only when
    /// a previously-unseen key first appears — not once per delta entry.
    ///
    /// [`update`]: Arrangement::update
    scratch: Vec<Value>,
}

impl Arrangement {
    /// An empty arrangement keyed by `cols`.
    pub fn new(cols: Vec<usize>) -> Self {
        Self {
            cols,
            index: FastMap::default(),
            probes: Cell::new(0),
            hits: Cell::new(0),
            misses: Cell::new(0),
            maintained: 0,
            built_rows: 0,
            scratch: Vec::new(),
        }
    }

    /// Builds an arrangement keyed by `cols` from a relation's current rows
    /// — the one-time cost paid at install; afterwards only [`update`]
    /// touches it.
    ///
    /// [`update`]: Arrangement::update
    pub fn build(cols: Vec<usize>, rows: &ZSet) -> Self {
        let mut arr = Arrangement::new(cols);
        for (t, w) in rows.iter() {
            arr.index
                .entry(t.project(&arr.cols))
                .or_default()
                .insert(t.clone(), w);
            arr.built_rows += 1;
        }
        arr
    }

    /// The key columns this arrangement indexes.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Folds one delta entry into the index, consolidating in place: the
    /// row's weight is adjusted and dropped from its bucket when it cancels
    /// to zero (empty buckets are removed so misses stay cheap).
    ///
    /// The key projection is assembled in a retained scratch buffer and
    /// looked up as a slice; a key `Tuple` is allocated only when a new key
    /// first enters the index.
    pub fn update(&mut self, tuple: &Tuple, weight: i64) {
        if weight == 0 {
            return;
        }
        self.maintained += 1;
        let mut key = std::mem::take(&mut self.scratch);
        key.clear();
        key.extend(self.cols.iter().map(|&c| tuple.values()[c].clone()));
        if let Some(bucket) = self.index.get_mut(key.as_slice()) {
            match bucket.get_mut(tuple) {
                Some(w) => {
                    *w += weight;
                    if *w == 0 {
                        bucket.remove(tuple);
                    }
                }
                None => {
                    bucket.insert(tuple.clone(), weight);
                }
            }
            if bucket.is_empty() {
                self.index.remove(key.as_slice());
            }
        } else {
            let mut bucket = FastMap::default();
            bucket.insert(tuple.clone(), weight);
            self.index.insert(Tuple::new(key.clone()), bucket);
        }
        self.scratch = key;
    }

    /// Probes the index: every current row whose key projection equals
    /// `key`, by reference. Counts the probe as a hit or miss.
    pub fn probe(&self, key: &Tuple) -> &FastMap<Tuple, i64> {
        self.probe_slice(key.values())
    }

    /// [`probe`] driven by a borrowed value slice — the hot-path variant
    /// that lets callers reuse one projection buffer across a whole delta
    /// window instead of allocating a key `Tuple` per probe. Counts exactly
    /// like [`probe`].
    ///
    /// [`probe`]: Arrangement::probe
    pub fn probe_slice(&self, key: &[Value]) -> &FastMap<Tuple, i64> {
        static EMPTY: std::sync::OnceLock<FastMap<Tuple, i64>> = std::sync::OnceLock::new();
        self.probes.set(self.probes.get() + 1);
        match self.index.get(key) {
            Some(bucket) => {
                self.hits.set(self.hits.get() + 1);
                bucket
            }
            None => {
                self.misses.set(self.misses.get() + 1);
                EMPTY.get_or_init(FastMap::default)
            }
        }
    }

    /// Probes a whole delta's keys in one pass. `keys_flat` holds `n` keys
    /// of `arity` values each, laid out back to back (one contiguous buffer
    /// for the entire window — the batched-hashing layout the executor's
    /// join builds). Returns the matched bucket per key, in order; every key
    /// is counted as one probe, identical to `n` calls to [`probe_slice`].
    ///
    /// [`probe_slice`]: Arrangement::probe_slice
    pub fn probe_batch(&self, keys_flat: &[Value], arity: usize, n: usize) -> Vec<&FastMap<Tuple, i64>> {
        assert_eq!(keys_flat.len(), arity * n, "flattened key buffer mismatch");
        (0..n)
            .map(|i| self.probe_slice(&keys_flat[i * arity..(i + 1) * arity]))
            .collect()
    }

    /// True iff no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Drops all indexed rows but keeps the key columns and counters (used
    /// when a relation copy is re-seeded).
    pub fn clear(&mut self) {
        self.index.clear();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use smile_types::tuple;

    #[test]
    fn build_then_probe() {
        let rows = ZSet::from_tuples([tuple![1i64, "a"], tuple![1i64, "b"], tuple![2i64, "c"]]);
        let arr = Arrangement::build(vec![0], &rows);
        assert_eq!(arr.probe(&tuple![1i64]).len(), 2);
        assert!(arr.probe(&tuple![9i64]).is_empty());
        let c = arr.counters();
        assert_eq!((c.probes, c.hits, c.misses, c.built_rows), (2, 1, 1, 3));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn update_consolidates_in_place() {
        let mut arr = Arrangement::new(vec![0]);
        arr.update(&tuple![1i64, "a"], 2);
        arr.update(&tuple![1i64, "a"], -2);
        // Cancelled to zero: row gone, bucket gone.
        assert!(arr.is_empty());
        assert_eq!(arr.counters().maintained, 2);
        arr.update(&tuple![1i64, "a"], -1);
        assert_eq!(arr.probe(&tuple![1i64]).get(&tuple![1i64, "a"]), Some(&-1));
    }

    #[test]
    fn slice_and_batch_probes_match_tuple_probes() {
        let rows = ZSet::from_tuples([tuple![1i64, "a"], tuple![1i64, "b"], tuple![2i64, "c"]]);
        let arr = Arrangement::build(vec![0], &rows);
        // Slice probe sees the same bucket as the tuple probe.
        assert_eq!(
            arr.probe_slice(&[Value::I64(1)]).len(),
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
        let mut arr = Arrangement::new(vec![0, 2]);
        arr.update(&tuple![1i64, "x", 7i64], 1);
        arr.update(&tuple![1i64, "y", 7i64], 1);
        arr.update(&tuple![1i64, "y", 8i64], 1);
        assert_eq!(arr.probe(&tuple![1i64, 7i64]).len(), 2);
        assert_eq!(arr.probe(&tuple![1i64, 8i64]).len(), 1);
    }
}
