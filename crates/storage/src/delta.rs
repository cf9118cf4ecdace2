//! Timestamped signed deltas and per-relation delta tables.
//!
//! Every relation `R` in the platform has an associated delta relation `ΔR`
//! recording the modified tuples as updates are applied (paper §4.0.1). For
//! base relations the entries are produced by delta capture; for MVs they are
//! produced, moved and applied by the sharing executor. Deltas of an MV keep
//! both already-applied and not-yet-applied entries, which is what makes
//! compensation (rolling a relation to an arbitrary nearby timestamp)
//! possible.

use crate::predicate::Predicate;
use crate::zset::ZSet;
use smile_types::{FastMap, Key, Result, SmileError, Timestamp, Tuple, Value};
use std::ops::Range;

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

/// The delta relation `ΔR`: an append-only log of timestamped entries.
///
/// Entries are sorted by timestamp because the log only grows at its end
/// ([`DeltaTable::end`]): log order is capture order, as on the paper's
/// WAL tap (§4.0.1), and a reader that has consumed a window through `t`
/// never looks behind `t` again. Delta capture stamps each entry past what
/// readers have read ([`crate::engine::Database::ingest`]), every push edge
/// hands its output over sorted, and each log has one appender; a batch
/// that would reach behind the end is refused, not sorted in.
///
/// A log may carry **literal partitions**: for a list of columns, the
/// positions of every entry grouped by its values there. A reader whose
/// filter has `col = literal` conjuncts on exactly those columns visits
/// only its literal's entries ([`DeltaTable::window_where`]) instead of
/// scanning the whole window through the filter, and a join reader with a
/// partition on its join columns reads one key's entries of a window
/// ([`DeltaTable::positions_where`]). Positions count from the first
/// retained entry's, which compaction advances; a log holds a handful of
/// partitions, so they are found by a scan.
#[derive(Clone, Debug, Default)]
pub struct DeltaTable {
    entries: Vec<DeltaEntry>,
    /// Everything strictly before this timestamp has been compacted away;
    /// rollbacks past the horizon are impossible.
    horizon: Timestamp,
    /// The position of `entries[0]`. Positions wrap: a log never holds
    /// 2³² entries at once, so `position − base` is always the index.
    base: u32,
    partitions: Vec<LogPartition>,
}

/// One literal partition of a [`DeltaTable`]: each literal at `cols` (a
/// [`Key`], inline when `cols` is one column) with the positions of its
/// entries, ascending. A literal no retained entry carries has no list.
#[derive(Clone, Debug)]
struct LogPartition {
    cols: Vec<usize>,
    positions: FastMap<Key, Vec<u32>>,
}

impl LogPartition {
    /// Lists `entries`, the first at position `first`.
    fn list(&mut self, entries: &[DeltaEntry], first: u32) {
        let mut key: Vec<Value> = Vec::with_capacity(self.cols.len());
        for (i, e) in entries.iter().enumerate() {
            // A one-column literal is looked up in place; a wider one is
            // assembled in `key`.
            let literal: &[Value] = match self.cols[..] {
                [c] => std::slice::from_ref(&e.tuple.values()[c]),
                _ => {
                    key.clear();
                    key.extend(self.cols.iter().map(|&c| e.tuple.values()[c].clone()));
                    &key
                }
            };
            let at = first.wrapping_add(i as u32);
            match self.positions.get_mut(literal) {
                Some(list) => list.push(at),
                None => {
                    self.positions.insert(Key::from(literal), vec![at]);
                }
            }
        }
    }

    /// Forgets the positions of the first `cut` entries, which compaction
    /// dropped, where `base` is the position of index 0; a literal left
    /// with none is removed.
    fn forget(&mut self, base: u32, cut: usize) {
        if cut == 0 {
            return;
        }
        self.positions.retain(|_, list| {
            list.drain(..list.partition_point(|p| (p.wrapping_sub(base) as usize) < cut));
            !list.is_empty()
        });
    }
}

/// The offsets, within a window of a log, of one literal's entries,
/// ascending: what [`DeltaTable::positions_where`] returns.
#[derive(Clone, Debug)]
pub struct Positions<'a> {
    /// The position of the window's first entry.
    first: u32,
    positions: std::slice::Iter<'a, u32>,
}

impl Iterator for Positions<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        self.positions.next().map(|p| p.wrapping_sub(self.first) as usize)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.positions.size_hint()
    }
}

/// The entries of one literal in a log window, in log order: what
/// [`DeltaTable::window_where`] returns.
#[derive(Clone, Debug)]
pub struct WindowWhere<'a> {
    window: &'a [DeltaEntry],
    positions: Positions<'a>,
}

impl<'a> Iterator for WindowWhere<'a> {
    type Item = &'a DeltaEntry;

    #[inline]
    fn next(&mut self) -> Option<&'a DeltaEntry> {
        Some(&self.window[self.positions.next()?])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.positions.size_hint()
    }
}

/// A window read: through a literal partition, or the whole window.
enum WindowRead<'a> {
    Where(WindowWhere<'a>),
    Scan(std::slice::Iter<'a, DeltaEntry>),
}

impl<'a> Iterator for WindowRead<'a> {
    type Item = &'a DeltaEntry;

    #[inline]
    fn next(&mut self) -> Option<&'a DeltaEntry> {
        match self {
            WindowRead::Where(w) => w.next(),
            WindowRead::Scan(s) => s.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            WindowRead::Where(w) => w.size_hint(),
            WindowRead::Scan(s) => s.size_hint(),
        }
    }
}

impl DeltaTable {
    /// Empty delta table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a batch at the log's end ([`DeltaTable::end`]). A batch out
    /// of timestamp order, or reaching below the end, is refused whole with
    /// [`SmileError::OutOfOrder`] and changes nothing.
    pub fn append_batch(&mut self, batch: DeltaBatch) -> Result<()> {
        let mut end = self.end();
        for e in &batch.entries {
            if e.ts < end {
                return Err(SmileError::OutOfOrder { at: e.ts, end });
            }
            end = e.ts;
        }
        let listed = self.entries.len();
        self.entries.extend(batch.entries);
        let first = self.base.wrapping_add(listed as u32);
        for part in &mut self.partitions {
            part.list(&self.entries[listed..], first);
        }
        Ok(())
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no stored entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Where the log ends: the later of its newest entry's timestamp and
    /// the compaction horizon. Nothing is ever appended below it.
    pub fn end(&self) -> Timestamp {
        self.entries.last().map_or(self.horizon, |e| e.ts.max(self.horizon))
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

    /// The index range of `(lo, hi]` in the log (into
    /// [`DeltaTable::iter`]); empty when `hi <= lo`.
    pub fn window_range(&self, lo: Timestamp, hi: Timestamp) -> Range<usize> {
        if hi <= lo {
            return 0..0;
        }
        let start = self.entries.partition_point(|e| e.ts <= lo);
        start..self.entries.partition_point(|e| e.ts <= hi)
    }

    /// All entries with `lo < ts <= hi`, borrowed from the log — the
    /// zero-copy window read the hot path uses: ship-side WAL encoding and
    /// join probing iterate the slice in place instead of cloning every
    /// entry into a scratch batch. Empty when `hi <= lo`.
    pub fn window_ref(&self, lo: Timestamp, hi: Timestamp) -> &[DeltaEntry] {
        &self.entries[self.window_range(lo, hi)]
    }

    /// Number of entries with `lo < ts <= hi` without materializing them
    /// (0 when `hi <= lo`).
    pub fn count_window(&self, lo: Timestamp, hi: Timestamp) -> usize {
        self.window_range(lo, hi).len()
    }

    /// The offsets, within the window `range` of the log
    /// ([`DeltaTable::window_range`]), of the entries whose values at
    /// `cols` are `literals`, ascending, read through the partition on
    /// `cols`. `None` when no partition on `cols` is installed.
    pub fn positions_where(
        &self,
        range: &Range<usize>,
        cols: &[usize],
        literals: &[Value],
    ) -> Option<Positions<'_>> {
        let part = self.partitions.iter().find(|p| p.cols == cols)?;
        let positions = part.positions.get(literals).map_or(&[][..], Vec::as_slice);
        let index = |p: &u32| p.wrapping_sub(self.base) as usize;
        let start = positions.partition_point(|p| index(p) < range.start);
        let end = start + positions[start..].partition_point(|p| index(p) < range.end);
        let first = self.base.wrapping_add(range.start as u32);
        Some(Positions { first, positions: positions[start..end].iter() })
    }

    /// The entries with `lo < ts <= hi` whose values at `cols` are
    /// `literals`, in log order, read through the partition on `cols` —
    /// exactly [`DeltaTable::window_ref`] filtered on the literal. `None`
    /// when no partition on `cols` is installed; empty when `hi <= lo`.
    pub fn window_where(
        &self,
        lo: Timestamp,
        hi: Timestamp,
        cols: &[usize],
        literals: &[Value],
    ) -> Option<WindowWhere<'_>> {
        let range = self.window_range(lo, hi);
        let positions = self.positions_where(&range, cols, literals)?;
        Some(WindowWhere { window: &self.entries[range], positions })
    }

    /// The entries with `lo < ts <= hi` that pass `filter`, in log order —
    /// the read every edge that filters a log window makes. With a
    /// partition on the columns of the filter's `col = literal` conjuncts
    /// ([`Predicate::eq_literals`]) only that literal's entries are
    /// visited, otherwise the whole window is; either way the whole filter
    /// is evaluated on each.
    pub fn window_filtered<'a>(
        &'a self,
        lo: Timestamp,
        hi: Timestamp,
        filter: &'a Predicate,
    ) -> impl Iterator<Item = &'a DeltaEntry> + 'a {
        let (cols, literals): (Vec<usize>, Vec<Value>) =
            filter.eq_literals().into_iter().map(|(c, v)| (c, v.clone())).unzip();
        let read = match self.window_where(lo, hi, &cols, &literals) {
            Some(entries) => WindowRead::Where(entries),
            None => WindowRead::Scan(self.window_ref(lo, hi).iter()),
        };
        read.filter(move |e| filter.eval(&e.tuple))
    }

    /// Installs the partition on `cols`, listing every retained entry
    /// (idempotent: an installed one is kept).
    pub fn ensure_partition(&mut self, cols: &[usize]) {
        if self.partitions.iter().any(|p| p.cols == cols) {
            return;
        }
        let mut part = LogPartition { cols: cols.to_vec(), positions: FastMap::default() };
        part.list(&self.entries, self.base);
        self.partitions.push(part);
    }

    /// Removes the partition on `cols`; `true` when one was installed.
    pub fn drop_partition(&mut self, cols: &[usize]) -> bool {
        let before = self.partitions.len();
        self.partitions.retain(|p| p.cols != cols);
        self.partitions.len() < before
    }

    /// The columns of every installed partition.
    pub fn partitions(&self) -> impl Iterator<Item = &[usize]> {
        self.partitions.iter().map(|p| p.cols.as_slice())
    }

    /// Each literal of the partition on `cols` with the indices, into
    /// [`DeltaTable::iter`], of the entries it lists — for checking that a
    /// partition lists exactly the retained entries. `None` when no such
    /// partition is installed.
    pub fn partition_listing(&self, cols: &[usize]) -> Option<Vec<(&[Value], Vec<usize>)>> {
        let part = self.partitions.iter().find(|p| p.cols == cols)?;
        let index = |p: &u32| p.wrapping_sub(self.base) as usize;
        let listing = part.positions.iter().map(|(lit, list)| (lit.values(), list.iter().map(index).collect()));
        Some(listing.collect())
    }

    /// Drops all entries with `ts <= before`, advancing the horizon and
    /// the partitions' base. Returns the number of compacted entries.
    /// Called once downstream consumers can no longer request rollbacks
    /// past `before`.
    pub fn compact(&mut self, before: Timestamp) -> usize {
        let cut = self.entries.partition_point(|e| e.ts <= before);
        self.entries.drain(..cut);
        for part in &mut self.partitions {
            part.forget(self.base, cut);
        }
        self.base = self.base.wrapping_add(cut as u32);
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
        d.append_batch((1..=5).map(|i| e(i, 1, i as u64)).collect()).unwrap();
        let w = d.window(Timestamp::from_secs(2), Timestamp::from_secs(4));
        assert_eq!(w.len(), 2);
        assert_eq!(w.entries[0].tuple, tuple![3i64]);
        assert_eq!(w.entries[1].tuple, tuple![4i64]);
        assert_eq!(
            d.count_window(Timestamp::from_secs(2), Timestamp::from_secs(4)),
            2
        );
    }

    /// A window whose end is before its start is empty, whatever lies
    /// between the two, for every read.
    #[test]
    fn a_reversed_window_is_empty() {
        let mut d = DeltaTable::new();
        d.append_batch((1..=5).map(|i| e(i, 1, i as u64)).collect()).unwrap();
        d.ensure_partition(&[0]);
        let [lo, hi] = [4, 2].map(Timestamp::from_secs);
        assert!(d.window_ref(lo, hi).is_empty());
        assert_eq!(d.count_window(lo, hi), 0);
        assert!(d.window(lo, hi).is_empty());
        assert_eq!(d.window_where(lo, hi, &[0], &[Value::I64(3)]).unwrap().count(), 0);
        assert_eq!(d.window_filtered(lo, hi, &Predicate::True).count(), 0);
    }

    /// A log grows only at its end: a batch that reaches behind its newest
    /// entry or its horizon, or is out of order within itself, is refused
    /// whole, and the entries, every partition listing and the horizon are
    /// as they were (the log's `Debug` form shows all three). A join's probe run followed by its correction run is
    /// such a batch until `run_join` sorts it stably by timestamp; then it
    /// lands, each probe output ahead of the correction outputs of its
    /// instant.
    #[test]
    fn an_append_behind_the_end_is_refused() {
        let t = Timestamp::from_secs;
        let behind = |at, end| -> Result<()> { Err(SmileError::OutOfOrder { at: t(at), end: t(end) }) };
        let mut log = DeltaTable::new();
        log.ensure_partition(&[0]);
        log.append_batch([e(0, 1, 1), e(0, 1, 2)].into_iter().collect()).unwrap();
        let before = format!("{log:?}");
        assert_eq!(log.append_batch([e(9, 1, 1)].into_iter().collect()), behind(1, 2));
        assert_eq!(log.append_batch([e(9, 1, 4), e(9, 1, 3)].into_iter().collect()), behind(3, 4));
        let probe = [e(1, 1, 3), e(2, 1, 3), e(3, 1, 5)];
        let correction = [e(4, -1, 3), e(5, -1, 4), e(6, -1, 5), e(7, -1, 5)];
        let mut runs: Vec<DeltaEntry> = probe.into_iter().chain(correction).collect();
        assert_eq!(log.append_batch(DeltaBatch { entries: runs.clone() }), behind(3, 5));
        assert_eq!(format!("{log:?}"), before);
        runs.sort_by_key(|x| x.ts);
        log.append_batch(DeltaBatch { entries: runs }).unwrap();
        let keys: Vec<Tuple> = log.iter().map(|x| x.tuple.clone()).collect();
        assert_eq!(keys, [0i64, 0, 1, 2, 4, 5, 3, 6, 7].map(|k| tuple![k]));

        // Past its newest entry, the horizon is the end.
        log.compact(t(8));
        let before = format!("{log:?}");
        assert_eq!(log.append_batch([e(9, 1, 7)].into_iter().collect()), behind(7, 8));
        assert_eq!(format!("{log:?}"), before);
        log.append_batch([e(9, 1, 8)].into_iter().collect()).unwrap();
        assert_eq!(log.partition_listing(&[0]).unwrap(), [(&[Value::I64(9)][..], vec![0])]);
    }

    /// One key's positions in a window range are the offsets, within the
    /// range, of its entries there, ascending: for ranges that start and
    /// end between the key's entries, after compaction has advanced `base`,
    /// and with `base` just below `u32::MAX`, so that positions wrap inside
    /// the log and again after the compaction.
    #[test]
    fn positions_where_reads_one_key_of_a_window_range() {
        let keys = [1, 2, 1, 1, 3, 1, 2, 1, 1, 2];
        for base in [0, u32::MAX - 4] {
            let mut d = DeltaTable { base, ..DeltaTable::default() };
            d.ensure_partition(&[0]);
            let batch = keys.iter().enumerate().map(|(i, &k)| e(k, 1, i as u64 + 1));
            d.append_batch(batch.collect()).unwrap();
            let offsets = |d: &DeltaTable, range: Range<usize>, k: i64| -> Vec<usize> {
                d.positions_where(&range, &[0], &[Value::I64(k)]).unwrap().collect()
            };
            // Key 1 sits at indices 0, 2, 3, 5, 7 and 8; (2s, 6s] starts
            // after its first entry and ends before its fifth.
            let range = d.window_range(Timestamp::from_secs(2), Timestamp::from_secs(6));
            assert_eq!(range, 2..6);
            assert_eq!(offsets(&d, range.clone(), 1), [0, 1, 3]);
            assert_eq!(offsets(&d, range.clone(), 3), [2]);
            assert_eq!(offsets(&d, range, 9), [] as [usize; 0]);
            assert_eq!(offsets(&d, 3..3, 1), [] as [usize; 0]);
            assert!(d.positions_where(&(0..4), &[1], &[Value::I64(1)]).is_none());

            d.compact(Timestamp::from_secs(3));
            assert_eq!(d.base, base.wrapping_add(3));
            d.append_batch([e(1, 1, 11), e(3, 1, 12)].into_iter().collect()).unwrap();
            // After the cut key 1 sits at indices 0, 2, 4, 5 and 7.
            let range = d.window_range(Timestamp::from_secs(4), Timestamp::from_secs(11));
            assert_eq!(range, 1..8);
            assert_eq!(offsets(&d, range.clone(), 1), [1, 3, 4, 6]);
            for lo in 0..=13 {
                for hi in lo..=13 {
                    let [lo, hi] = [lo, hi].map(Timestamp::from_secs);
                    let range = d.window_range(lo, hi);
                    for k in 1..=3 {
                        let scan = d.window_ref(lo, hi).iter().enumerate();
                        let want: Vec<usize> = scan.filter(|(_, x)| x.tuple == tuple![k]).map(|(i, _)| i).collect();
                        assert_eq!(offsets(&d, range.clone(), k), want, "key {k} in {range:?}, base {base}");
                    }
                }
            }
        }
    }

    #[test]
    fn compact_advances_horizon() {
        let mut d = DeltaTable::new();
        d.append_batch((1..=4).map(|i| e(i, 1, i as u64)).collect()).unwrap();
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

    /// One step of [`partition_reads_equal_filtered_scans`].
    #[derive(Clone, Debug)]
    enum Op {
        /// A batch, sorted by timestamp, each stamp raised to the log's end.
        Batch(Vec<(i64, i64, u64)>),
        /// One entry, its stamp raised to the horizon: often behind the
        /// newest entry, and then refused.
        Single(i64, i64, u64),
        Compact(u64),
        Ensure(usize),
        Drop(usize),
    }

    /// The column lists a partition is drawn on.
    const COLS: [&[usize]; 3] = [&[1], &[2], &[1, 2]];

    fn arb_op() -> impl Strategy<Value = Op> {
        let row = (0i64..3, 0i64..3, 0u64..30);
        prop_oneof![
            prop::collection::vec(row.clone(), 0..8).prop_map(Op::Batch),
            row.prop_map(|(a, b, ts)| Op::Single(a, b, ts)),
            (0u64..30).prop_map(Op::Compact),
            (0usize..3).prop_map(Op::Ensure),
            (0usize..3).prop_map(Op::Drop),
        ]
    }

    /// Column `col`'s value `v`: an int, or with `typed` text in column 1
    /// and a float in column 2.
    fn value(col: usize, v: i64, typed: bool) -> Value {
        match (typed, col) {
            (true, 1) => Value::str(["", "ß", "t"][v as usize]),
            (true, _) => Value::F64([-0.0, 0.0, 1.5][v as usize]),
            (false, _) => Value::I64(v),
        }
    }

    fn entry(a: i64, b: i64, ts: u64, floor: Timestamp, typed: bool) -> DeltaEntry {
        let row = Tuple::new(vec![Value::I64(ts as i64), value(1, a, typed), value(2, b, typed)]);
        DeltaEntry::insert(row, Timestamp::from_secs(ts).max(floor))
    }

    proptest! {
        /// Whatever appends, compactions and installs came before, reading
        /// a window through a partition yields exactly the window's scan
        /// filtered on the literal, in the same order, and every partition
        /// lists each retained entry once, under its own literal. An entry
        /// behind the log's end is refused exactly when it is behind, and
        /// leaves the log as it was. The literal columns hold ints, or with
        /// `typed` text and floats (`-0.0` among them).
        #[test]
        fn partition_reads_equal_filtered_scans(
            ops in prop::collection::vec(arb_op(), 1..24),
            typed in prop::bool::ANY,
        ) {
            let mut d = DeltaTable::new();
            for op in ops {
                match op {
                    Op::Batch(mut rows) => {
                        rows.sort_by_key(|r| r.2);
                        let end = d.end();
                        let batch = rows.into_iter().map(|(a, b, ts)| entry(a, b, ts, end, typed));
                        prop_assert_eq!(d.append_batch(batch.collect()), Ok(()));
                    }
                    Op::Single(a, b, ts) => {
                        let (single, before) = (entry(a, b, ts, d.horizon(), typed), format!("{d:?}"));
                        let behind = single.ts < d.end();
                        let landed = d.append_batch(DeltaBatch { entries: vec![single] });
                        prop_assert_eq!(landed.is_err(), behind);
                        if behind {
                            prop_assert_eq!(format!("{d:?}"), before);
                        }
                    }
                    Op::Compact(ts) => {
                        d.compact(Timestamp::from_secs(ts));
                    }
                    Op::Ensure(i) => d.ensure_partition(COLS[i]),
                    Op::Drop(i) => {
                        d.drop_partition(COLS[i]);
                    }
                }
                let installed: Vec<Vec<usize>> = d.partitions().map(<[usize]>::to_vec).collect();
                for cols in &installed {
                    let at = |t: &Tuple| cols.iter().map(|&c| t.values()[c].clone()).collect::<Vec<_>>();
                    let mut listed = 0;
                    for (lit, indices) in d.partition_listing(cols).unwrap() {
                        prop_assert!(!indices.is_empty());
                        prop_assert!(indices.windows(2).all(|w| w[0] < w[1]));
                        for &i in &indices {
                            prop_assert!(i < d.len());
                            prop_assert_eq!(&at(&d.entries[i].tuple)[..], lit);
                        }
                        listed += indices.len();
                    }
                    prop_assert_eq!(listed, d.len());
                    let stamps = || (0u64..32).step_by(3).map(Timestamp::from_secs);
                    for (lo, hi) in stamps().flat_map(|lo| stamps().map(move |hi| (lo, hi))) {
                        for lit in (0i64..3).flat_map(|a| (0i64..3).map(move |b| [a, b])) {
                            let lit: Vec<Value> = cols.iter().zip(lit).map(|(&c, v)| value(c, v, typed)).collect();
                            let read: Vec<&DeltaEntry> = d.window_where(lo, hi, cols, &lit).unwrap().collect();
                            let scan: Vec<&DeltaEntry> =
                                d.window_ref(lo, hi).iter().filter(|e| at(&e.tuple) == lit).collect();
                            prop_assert_eq!(read, scan);
                        }
                    }
                }
            }
        }

        /// window(a,b) ∪ window(b,c) == window(a,c) for a<=b<=c.
        #[test]
        fn windows_compose(
            raw in proptest::collection::vec((0i64..10, 0u64..50), 0..40),
            mut cuts in proptest::array::uniform3(0u64..50)
        ) {
            let mut d = DeltaTable::new();
            let mut sorted = raw.clone();
            sorted.sort_by_key(|&(_, ts)| ts);
            d.append_batch(sorted.into_iter().map(|(k, ts)| e(k, 1, ts)).collect()).unwrap();
            cuts.sort_unstable();
            let [a, b, c] = cuts.map(Timestamp::from_secs);
            let mut left = d.window(a, b).to_zset();
            left.merge(&d.window(b, c).to_zset());
            prop_assert_eq!(left, d.window(a, c).to_zset());
        }
    }
}
