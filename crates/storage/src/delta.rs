//! Timestamped signed deltas and per-relation delta tables.
//!
//! Every relation `R` in the platform has an associated delta relation `ΔR`
//! recording the modified tuples as updates are applied (paper §4.0.1). For
//! base relations the entries are produced by delta capture; for MVs they are
//! produced, moved and applied by the sharing executor. Deltas of an MV keep
//! both already-applied and not-yet-applied entries, which is what makes
//! compensation (rolling a relation to an arbitrary nearby timestamp)
//! possible.

use crate::zset::ZSet;
use smile_types::{Timestamp, Tuple};

/// One captured modification: `weight = +1` for an insert, `-1` for a
/// delete; an SQL UPDATE is captured as a delete of the old tuple followed by
/// an insert of the new one at the same timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaEntry {
    /// The modified tuple.
    pub tuple: Tuple,
    /// Signed multiplicity change.
    pub weight: i64,
    /// Commit timestamp of the modification (distributed-clock time).
    pub ts: Timestamp,
}

impl DeltaEntry {
    /// Insert entry.
    pub fn insert(tuple: Tuple, ts: Timestamp) -> Self {
        Self {
            tuple,
            weight: 1,
            ts,
        }
    }

    /// Delete entry.
    pub fn delete(tuple: Tuple, ts: Timestamp) -> Self {
        Self {
            tuple,
            weight: -1,
            ts,
        }
    }

    /// Payload bytes (for network metering).
    pub fn byte_size(&self) -> usize {
        self.tuple.byte_size() + 16
    }
}

/// A batch of delta entries moved together along a plan edge (the unit of a
/// `CopyDelta` transfer and of WAL encoding).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    /// Entries in non-decreasing timestamp order.
    pub entries: Vec<DeltaEntry>,
}

impl DeltaBatch {
    /// Empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Consolidates the batch into a z-set (timestamps dropped). Weights are
    /// summed first and cancelled entries swept once, not removed one by one.
    pub fn to_zset(&self) -> ZSet {
        let mut z = ZSet::with_capacity(self.entries.len());
        z.extend_unconsolidated(self.entries.iter().map(|e| (e.tuple.clone(), e.weight)));
        z.consolidate();
        z
    }

    /// Total payload bytes.
    pub fn byte_size(&self) -> usize {
        self.entries.iter().map(DeltaEntry::byte_size).sum()
    }
}

impl FromIterator<DeltaEntry> for DeltaBatch {
    fn from_iter<I: IntoIterator<Item = DeltaEntry>>(iter: I) -> Self {
        DeltaBatch {
            entries: iter.into_iter().collect(),
        }
    }
}

/// The delta relation `ΔR`: an append-mostly log of timestamped entries.
///
/// Entries are kept sorted by timestamp. Appends arrive in non-decreasing
/// timestamp order (the distributed clock is monotonic per machine, and
/// every push edge hands its output over sorted); what does arrive out of
/// order — a second producer landing an overlapping window in the same
/// log — is tolerated by sorted insertion.
#[derive(Clone, Debug, Default)]
pub struct DeltaTable {
    entries: Vec<DeltaEntry>,
    /// Everything strictly before this timestamp has been compacted away;
    /// rollbacks past the horizon are impossible.
    horizon: Timestamp,
}

impl DeltaTable {
    /// Empty delta table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one entry, keeping timestamp order.
    pub fn append(&mut self, entry: DeltaEntry) {
        debug_assert!(entry.ts >= self.horizon, "append below compaction horizon");
        if self.entries.last().is_some_and(|last| last.ts > entry.ts) {
            // Rare out-of-order arrival (see the type's doc): insert after
            // the last entry with ts <= entry.ts to restore sorted order.
            let pos = self.entries.partition_point(|e| e.ts <= entry.ts);
            self.entries.insert(pos, entry);
        } else {
            self.entries.push(entry);
        }
    }

    /// Appends a whole batch: one `extend` when the batch is sorted and
    /// starts at or after the newest entry (the delta-capture case), entry
    /// by entry through [`DeltaTable::append`] otherwise.
    pub fn append_batch(&mut self, batch: DeltaBatch) {
        let first = batch.entries.first().map_or(Timestamp::MAX, |e| e.ts);
        let sorted = batch.entries.windows(2).all(|w| w[0].ts <= w[1].ts);
        if sorted && self.last_ts().is_none_or(|last| last <= first) {
            debug_assert!(first >= self.horizon, "append below compaction horizon");
            self.entries.extend(batch.entries);
        } else {
            batch.entries.into_iter().for_each(|e| self.append(e));
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no stored entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Timestamp of the newest entry, if any.
    pub fn last_ts(&self) -> Option<Timestamp> {
        self.entries.last().map(|e| e.ts)
    }

    /// The compaction horizon: rollbacks to timestamps `>= horizon` are safe.
    pub fn horizon(&self) -> Timestamp {
        self.horizon
    }

    /// All entries with `lo < ts <= hi`, as a batch (the half-open window a
    /// push moves along an edge).
    pub fn window(&self, lo: Timestamp, hi: Timestamp) -> DeltaBatch {
        DeltaBatch {
            entries: self.window_ref(lo, hi).to_vec(),
        }
    }

    /// All entries with `lo < ts <= hi`, borrowed from the log — the
    /// zero-copy window read the hot path uses: ship-side WAL encoding and
    /// join probing iterate the slice in place instead of cloning every
    /// entry into a scratch batch.
    pub fn window_ref(&self, lo: Timestamp, hi: Timestamp) -> &[DeltaEntry] {
        let start = self.entries.partition_point(|e| e.ts <= lo);
        let end = self.entries.partition_point(|e| e.ts <= hi);
        &self.entries[start..end]
    }

    /// Number of entries with `lo < ts <= hi` without materializing them.
    pub fn count_window(&self, lo: Timestamp, hi: Timestamp) -> usize {
        let start = self.entries.partition_point(|e| e.ts <= lo);
        let end = self.entries.partition_point(|e| e.ts <= hi);
        end - start
    }

    /// Drops all entries with `ts <= before`, advancing the horizon. Returns
    /// the number of compacted entries. Called once downstream consumers can
    /// no longer request rollbacks past `before`.
    pub fn compact(&mut self, before: Timestamp) -> usize {
        let cut = self.entries.partition_point(|e| e.ts <= before);
        self.entries.drain(..cut);
        if before > self.horizon {
            self.horizon = before;
        }
        cut
    }

    /// Iterates all retained entries in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = &DeltaEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smile_types::tuple;

    fn e(k: i64, w: i64, ts: u64) -> DeltaEntry {
        DeltaEntry {
            tuple: tuple![k],
            weight: w,
            ts: Timestamp::from_secs(ts),
        }
    }

    #[test]
    fn window_is_half_open() {
        let mut d = DeltaTable::new();
        for i in 1..=5 {
            d.append(e(i, 1, i as u64));
        }
        let w = d.window(Timestamp::from_secs(2), Timestamp::from_secs(4));
        assert_eq!(w.len(), 2);
        assert_eq!(w.entries[0].tuple, tuple![3i64]);
        assert_eq!(w.entries[1].tuple, tuple![4i64]);
        assert_eq!(
            d.count_window(Timestamp::from_secs(2), Timestamp::from_secs(4)),
            2
        );
    }

    #[test]
    fn out_of_order_append_restores_sorted_order() {
        let mut d = DeltaTable::new();
        d.append(e(1, 1, 5));
        d.append(e(2, 1, 3));
        d.append(e(3, 1, 4));
        let ts: Vec<u64> = d.iter().map(|x| x.ts.0 / 1_000_000).collect();
        assert_eq!(ts, vec![3, 4, 5]);
    }

    /// A join hands over its probe run and then its correction run, each in
    /// timestamp order. Stably sorting the concatenation first lands the
    /// same log, entry for entry, as the sorted insertion the second run
    /// goes through when the batch is appended as it stands.
    #[test]
    fn stably_sorted_runs_land_like_sorted_insertion() {
        let mut log = DeltaTable::new();
        log.append_batch([e(0, 1, 1), e(0, 1, 2)].into_iter().collect());
        let probe = [e(1, 1, 3), e(2, 1, 3), e(3, 1, 5)];
        let correction = [e(4, -1, 3), e(5, -1, 4), e(6, -1, 5), e(7, -1, 5)];
        let runs: Vec<DeltaEntry> = probe.into_iter().chain(correction).collect();
        let (mut inserted, mut sorted) = (log.clone(), log);
        inserted.append_batch(DeltaBatch {
            entries: runs.clone(),
        });
        let mut entries = runs;
        entries.sort_by_key(|x| x.ts);
        sorted.append_batch(DeltaBatch { entries });
        assert_eq!(inserted.entries, sorted.entries);
        let keys: Vec<Tuple> = sorted.iter().map(|x| x.tuple.clone()).collect();
        assert_eq!(keys, [0i64, 0, 1, 2, 4, 5, 3, 6, 7].map(|k| tuple![k]));
    }

    #[test]
    fn compact_advances_horizon() {
        let mut d = DeltaTable::new();
        for i in 1..=4 {
            d.append(e(i, 1, i as u64));
        }
        assert_eq!(d.compact(Timestamp::from_secs(2)), 2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.horizon(), Timestamp::from_secs(2));
    }

    #[test]
    fn batch_stats() {
        let b: DeltaBatch = [e(1, 1, 1), e(2, -1, 7)].into_iter().collect();
        assert!(b.byte_size() > 0);
        assert_eq!(b.to_zset().weight(&tuple![2i64]), -1);
    }

    proptest! {
        /// window(a,b) ∪ window(b,c) == window(a,c) for a<=b<=c.
        #[test]
        fn windows_compose(
            raw in proptest::collection::vec((0i64..10, 0u64..50), 0..40),
            mut cuts in proptest::array::uniform3(0u64..50)
        ) {
            let mut d = DeltaTable::new();
            let mut sorted = raw.clone();
            sorted.sort_by_key(|&(_, ts)| ts);
            for (k, ts) in sorted {
                d.append(e(k, 1, ts));
            }
            cuts.sort_unstable();
            let [a, b, c] = cuts.map(Timestamp::from_secs);
            let mut left = d.window(a, b).to_zset();
            left.merge(&d.window(b, c).to_zset());
            prop_assert_eq!(left, d.window(a, c).to_zset());
        }
    }
}
