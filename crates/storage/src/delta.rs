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
use std::collections::{vec_deque, VecDeque};
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
/// Compaction is two steps. [`DeltaTable::compact`] **cuts**: it advances
/// the horizon, and from then on no read, length or listing sees the cut
/// prefix; it costs O(log n). [`DeltaTable::reclaim`] frees cut entries
/// later, oldest first, as many as its caller's budget allows, and an
/// append into a full ring frees what it needs before the ring grows. The
/// entries sit in a ring, so reclaiming never moves a retained entry, and
/// a window is at most two slices ([`Window`]).
///
/// A log may carry **literal partitions**: for a list of columns, the
/// positions of every entry grouped by its values there. A reader whose
/// filter has `col = literal` conjuncts on exactly those columns visits
/// only its literal's entries ([`DeltaTable::window_where`]) instead of
/// scanning the whole window through the filter, and a join reader with a
/// partition on its join columns reads one key's entries of a window
/// ([`DeltaTable::positions_where`]). A partition lists cut entries until
/// they are reclaimed; each reclaimed entry pops the front position of its
/// own literal. A log holds a handful of partitions, so they are found by
/// a scan.
#[derive(Clone, Debug, Default)]
pub struct DeltaTable {
    /// Every entry not yet reclaimed: the `cut` oldest lie behind the
    /// horizon, the rest are retained.
    entries: VecDeque<DeltaEntry>,
    /// How many entries at the front are cut and not yet reclaimed.
    cut: usize,
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
/// unreclaimed entries, ascending. A literal no such entry carries has no
/// list.
#[derive(Clone, Debug)]
struct LogPartition {
    cols: Vec<usize>,
    positions: FastMap<Key, VecDeque<u32>>,
    /// How many readers hold it ([`DeltaTable::ensure_partition`]).
    readers: u32,
}

/// `entry`'s values at `cols`: a one-column literal is borrowed in place, a
/// wider one is assembled in `scratch`.
#[inline]
fn literal<'e>(cols: &[usize], entry: &'e DeltaEntry, scratch: &'e mut Vec<Value>) -> &'e [Value] {
    match *cols {
        [c] => std::slice::from_ref(&entry.tuple.values()[c]),
        _ => {
            scratch.clear();
            scratch.extend(cols.iter().map(|&c| entry.tuple.values()[c].clone()));
            scratch
        }
    }
}

impl LogPartition {
    /// Lists `entries`, the first at position `first`.
    fn list<'a>(&mut self, entries: impl Iterator<Item = &'a DeltaEntry>, first: u32) {
        let mut scratch = Vec::with_capacity(self.cols.len());
        for (i, e) in entries.enumerate() {
            let at = first.wrapping_add(i as u32);
            let literal = literal(&self.cols, e, &mut scratch);
            match self.positions.get_mut(literal) {
                Some(list) => list.push_back(at),
                None => {
                    self.positions.insert(Key::from(literal), VecDeque::from([at]));
                }
            }
        }
    }

    /// Forgets `entry`, the oldest entry listed, at position `at`: pops the
    /// front position of its literal, and removes a literal left with none.
    fn forget(&mut self, entry: &DeltaEntry, at: u32, scratch: &mut Vec<Value>) {
        let literal = literal(&self.cols, entry, scratch);
        let Some(list) = self.positions.get_mut(literal) else {
            debug_assert!(false, "every unreclaimed entry is listed");
            return;
        };
        debug_assert_eq!(list.front(), Some(&at), "a literal's oldest position is reclaimed first");
        list.pop_front();
        if list.is_empty() {
            self.positions.remove(literal);
        }
    }
}

/// Entries of a log borrowed in place, in log order: the log is a ring, so
/// a window is at most two slices, `front` before `back`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window<'a> {
    front: &'a [DeltaEntry],
    back: &'a [DeltaEntry],
}

impl<'a> Window<'a> {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.front.len() + self.back.len()
    }

    /// True iff no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.front.is_empty() && self.back.is_empty()
    }

    /// The `i`-th entry, if the window has one.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&'a DeltaEntry> {
        match i.checked_sub(self.front.len()) {
            None => Some(&self.front[i]),
            Some(j) => self.back.get(j),
        }
    }

    /// The `i`-th entry; panics past the end.
    #[inline]
    pub fn entry(&self, i: usize) -> &'a DeltaEntry {
        match i.checked_sub(self.front.len()) {
            None => &self.front[i],
            Some(j) => &self.back[j],
        }
    }

    /// The entries in log order.
    #[inline]
    pub fn iter(&self) -> std::iter::Chain<std::slice::Iter<'a, DeltaEntry>, std::slice::Iter<'a, DeltaEntry>> {
        self.front.iter().chain(self.back)
    }

    /// The entries, cloned.
    pub fn to_vec(&self) -> Vec<DeltaEntry> {
        [self.front, self.back].concat()
    }
}

impl<'a> From<&'a [DeltaEntry]> for Window<'a> {
    fn from(front: &'a [DeltaEntry]) -> Self {
        Window { front, back: &[] }
    }
}

impl<'a> IntoIterator for Window<'a> {
    type Item = &'a DeltaEntry;
    type IntoIter = std::iter::Chain<std::slice::Iter<'a, DeltaEntry>, std::slice::Iter<'a, DeltaEntry>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The offsets, within a window of a log, of one literal's entries,
/// ascending: what [`DeltaTable::positions_where`] returns.
#[derive(Clone, Debug)]
pub struct Positions<'a> {
    /// The position of the window's first entry.
    first: u32,
    positions: vec_deque::Iter<'a, u32>,
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
    window: Window<'a>,
    positions: Positions<'a>,
}

impl<'a> Iterator for WindowWhere<'a> {
    type Item = &'a DeltaEntry;

    #[inline]
    fn next(&mut self) -> Option<&'a DeltaEntry> {
        self.window.get(self.positions.next()?)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.positions.size_hint()
    }
}

/// A window read: through a literal partition, or the whole window.
enum WindowRead<'a> {
    Where(WindowWhere<'a>),
    Scan(<Window<'a> as IntoIterator>::IntoIter),
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
        // A held cut never makes the ring grow: it is freed first. A ring
        // touches all of its capacity as it turns, where a `Vec` touches
        // only its longest length, so it grows by an eighth, not double.
        let more = batch.entries.len();
        self.reclaim((self.entries.len() + more).saturating_sub(self.entries.capacity()));
        if self.entries.len() + more > self.entries.capacity() {
            self.entries.reserve_exact(more.max(self.entries.len() / 8).max(8));
        }
        let listed = self.entries.len();
        self.entries.extend(batch.entries);
        let first = self.base.wrapping_add(listed as u32);
        for part in &mut self.partitions {
            part.list(self.entries.range(listed..), first);
        }
        Ok(())
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len() - self.cut
    }

    /// True iff no retained entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where the log ends: the later of its newest entry's timestamp and
    /// the compaction horizon. Nothing is ever appended below it.
    pub fn end(&self) -> Timestamp {
        self.entries.back().map_or(self.horizon, |e| e.ts.max(self.horizon))
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

    /// How many retained entries have `ts <= at`.
    fn retained_through(&self, at: Timestamp) -> usize {
        self.entries.partition_point(|e| e.ts <= at).max(self.cut) - self.cut
    }

    /// The index range of `(lo, hi]` in the log (into
    /// [`DeltaTable::iter`]); empty when `hi <= lo`.
    pub fn window_range(&self, lo: Timestamp, hi: Timestamp) -> Range<usize> {
        if hi <= lo {
            return 0..0;
        }
        self.retained_through(lo)..self.retained_through(hi)
    }

    /// All entries with `lo < ts <= hi`, borrowed from the log — the
    /// zero-copy window read the hot path uses: ship-side WAL encoding and
    /// join probing iterate the window in place instead of cloning every
    /// entry into a scratch batch. Empty when `hi <= lo`.
    pub fn window_ref(&self, lo: Timestamp, hi: Timestamp) -> Window<'_> {
        self.slice(self.window_range(lo, hi))
    }

    /// The retained entries at `range` (indices into [`DeltaTable::iter`]).
    fn slice(&self, range: Range<usize>) -> Window<'_> {
        let (a, b) = self.entries.as_slices();
        let (lo, hi) = (self.cut + range.start, self.cut + range.end);
        let split = a.len();
        Window {
            front: &a[lo.min(split)..hi.min(split)],
            back: &b[lo.saturating_sub(split)..hi.saturating_sub(split)],
        }
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
        // Indices into `entries`, cut entries included.
        let (lo, hi) = (self.cut + range.start, self.cut + range.end);
        let first = self.base.wrapping_add(lo as u32);
        let Some(positions) = part.positions.get(literals) else {
            return Some(Positions { first, positions: Default::default() });
        };
        let index = |p: &u32| p.wrapping_sub(self.base) as usize;
        let start = positions.partition_point(|p| index(p) < lo);
        let end = positions.partition_point(|p| index(p) < hi);
        Some(Positions { first, positions: positions.range(start..end) })
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
        Some(WindowWhere { window: self.slice(range), positions })
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
            None => WindowRead::Scan(self.window_ref(lo, hi).into_iter()),
        };
        read.filter(move |e| filter.eval(&e.tuple))
    }

    /// Takes one reader of the partition on `cols`. The first installs it,
    /// listing every unreclaimed entry; a later one shares it.
    pub fn ensure_partition(&mut self, cols: &[usize]) {
        if let Some(part) = self.partitions.iter_mut().find(|p| p.cols == cols) {
            part.readers += 1;
            return;
        }
        let mut part = LogPartition { cols: cols.to_vec(), positions: FastMap::default(), readers: 1 };
        part.list(self.entries.iter(), self.base);
        self.partitions.push(part);
    }

    /// Lets one reader of the partition on `cols` go; the last removes it.
    /// Returns whether it was removed; `None` when none is installed.
    pub fn release_partition(&mut self, cols: &[usize]) -> Option<bool> {
        let i = self.partitions.iter().position(|p| p.cols == cols)?;
        self.partitions[i].readers -= 1;
        if self.partitions[i].readers > 0 {
            return Some(false);
        }
        self.partitions.remove(i);
        Some(true)
    }

    /// The columns of every installed partition, with how many readers
    /// hold it.
    pub fn partitions(&self) -> impl Iterator<Item = (&[usize], u32)> {
        self.partitions.iter().map(|p| (p.cols.as_slice(), p.readers))
    }

    /// Each literal of the partition on `cols` with the indices, into
    /// [`DeltaTable::iter`], of the retained entries it lists — for
    /// checking that a partition lists exactly the retained entries. A
    /// literal only cut entries carry is left out. `None` when no such
    /// partition is installed.
    pub fn partition_listing(&self, cols: &[usize]) -> Option<Vec<(&[Value], Vec<usize>)>> {
        let part = self.partitions.iter().find(|p| p.cols == cols)?;
        let index = |p: &u32| p.wrapping_sub(self.base) as usize;
        let retained = |list: &VecDeque<u32>| -> Vec<usize> {
            list.iter().map(index).filter(|&i| i >= self.cut).map(|i| i - self.cut).collect()
        };
        let listing = part.positions.iter().map(|(lit, list)| (lit.values(), retained(list)));
        Some(listing.filter(|(_, indices)| !indices.is_empty()).collect())
    }

    /// Cuts all entries with `ts <= before`, advancing the horizon: no read
    /// sees them again. Returns the number of entries newly cut, which stay
    /// allocated until [`DeltaTable::reclaim`] frees them. Called once
    /// downstream consumers can no longer request rollbacks past `before`.
    /// O(1) when the oldest retained entry is already past `before`,
    /// O(log n) otherwise.
    pub fn compact(&mut self, before: Timestamp) -> usize {
        let cut = match self.entries.get(self.cut) {
            Some(oldest) if oldest.ts <= before => self.retained_through(before),
            _ => 0,
        };
        self.cut += cut;
        if before > self.horizon {
            self.horizon = before;
        }
        cut
    }

    /// Number of cut entries not yet reclaimed.
    pub fn reclaimable(&self) -> usize {
        self.cut
    }

    /// Frees up to `budget` of the oldest cut entries, and forgets each in
    /// every partition through its own literal. Retained entries do not
    /// move. Returns the number freed.
    pub fn reclaim(&mut self, budget: usize) -> usize {
        let n = budget.min(self.cut);
        let mut scratch = Vec::new();
        for _ in 0..n {
            let Some(entry) = self.entries.pop_front() else { break };
            for part in &mut self.partitions {
                part.forget(&entry, self.base, &mut scratch);
            }
            self.base = self.base.wrapping_add(1);
        }
        self.cut -= n;
        n
    }

    /// Iterates all retained entries in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = &DeltaEntry> {
        self.entries.range(self.cut..)
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
    /// end between the key's entries, after a cut, with the cut entries
    /// still held and once they are reclaimed (which advances `base`), and
    /// with `base` just below `u32::MAX`, so that positions wrap inside the
    /// log and again after the reclaim.
    #[test]
    fn positions_where_reads_one_key_of_a_window_range() {
        let keys = [1, 2, 1, 1, 3, 1, 2, 1, 1, 2];
        for (base, reclaim) in [0, u32::MAX - 4].into_iter().flat_map(|b| [(b, false), (b, true)]) {
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

            assert_eq!(d.compact(Timestamp::from_secs(3)), 3);
            assert_eq!((d.len(), d.reclaimable(), d.base), (7, 3, base));
            if reclaim {
                assert_eq!(d.reclaim(usize::MAX), 3);
                assert_eq!((d.reclaimable(), d.base), (0, base.wrapping_add(3)));
            }
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
                        let scan = d.window_ref(lo, hi).into_iter().enumerate();
                        let want: Vec<usize> = scan.filter(|(_, x)| x.tuple == tuple![k]).map(|(i, _)| i).collect();
                        assert_eq!(offsets(&d, range.clone(), k), want, "key {k} in {range:?}, base {base}");
                    }
                }
            }
        }
    }

    /// A cut hides its entries at once and a reclaim frees them, oldest
    /// first and no more than its budget, without moving the rest.
    #[test]
    fn a_cut_hides_and_a_reclaim_frees() {
        let mut d = DeltaTable::new();
        d.ensure_partition(&[0]);
        d.append_batch((1..=6).map(|i| e(i % 2, 1, i as u64)).collect()).unwrap();
        assert_eq!(d.compact(Timestamp::from_secs(4)), 4);
        assert_eq!((d.len(), d.reclaimable(), d.entries.len()), (2, 4, 6));
        assert_eq!(d.iter().map(|x| x.ts).collect::<Vec<_>>(), [5, 6].map(Timestamp::from_secs));
        assert_eq!(d.compact(Timestamp::from_secs(3)), 0, "a lower cut cuts nothing");
        assert_eq!(d.horizon(), Timestamp::from_secs(4));
        let retained: *const DeltaEntry = &d.entries[4];
        assert_eq!(d.reclaim(3), 3);
        assert_eq!((d.len(), d.reclaimable(), d.entries.len()), (2, 1, 3));
        assert_eq!(d.reclaim(9), 1);
        assert_eq!(d.reclaim(9), 0);
        assert!(std::ptr::eq(&d.entries[0], retained), "a retained entry is where it was");
        let mut listing = d.partition_listing(&[0]).unwrap();
        listing.sort();
        assert_eq!(listing, [(&[Value::I64(0)][..], vec![1]), (&[Value::I64(1)][..], vec![0])]);
    }

    /// An append into a full ring frees as many cut entries as it needs
    /// before it grows the ring, and a ring that must grow grows by an
    /// eighth, at least eight entries, or what the append brings, not by
    /// doubling.
    #[test]
    fn a_full_ring_frees_its_cut_before_it_grows() {
        let mut d = DeltaTable::new();
        d.ensure_partition(&[0]);
        d.append_batch((1..=8).map(|i| e(i % 3, 1, i as u64)).collect()).unwrap();
        assert_eq!(d.entries.capacity(), 8);
        assert_eq!(d.compact(Timestamp::from_secs(5)), 5);
        d.append_batch((9..=11).map(|i| e(i % 3, 1, i as u64)).collect()).unwrap();
        assert_eq!((d.entries.capacity(), d.reclaimable(), d.len()), (8, 2, 6));
        d.append_batch((12..=15).map(|i| e(i % 3, 1, i as u64)).collect()).unwrap();
        assert_eq!((d.entries.capacity(), d.reclaimable(), d.len()), (14, 0, 10));
        let listed: usize = d.partition_listing(&[0]).unwrap().iter().map(|(_, at)| at.len()).sum();
        assert_eq!(listed, 10);
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
        /// Frees up to this many cut entries.
        Reclaim(usize),
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
            (0usize..12).prop_map(Op::Reclaim),
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
        /// Whatever appends, cuts, reclaims and installs came before,
        /// reading a window through a partition yields exactly the window's
        /// scan filtered on the literal, in the same order, and every
        /// partition lists each retained entry once, under its own literal.
        /// A twin log that reclaims everything right after each cut reads
        /// the same at every step: every window, partition read and
        /// listing, the horizon, the end and the length; so how much of a
        /// cut is reclaimed shows in no read. An entry behind the log's end
        /// is refused exactly when it is behind, and leaves the log as it
        /// was. The literal columns hold ints, or with `typed` text and
        /// floats (`-0.0` among them).
        #[test]
        fn partition_reads_equal_filtered_scans(
            ops in prop::collection::vec(arb_op(), 1..24),
            typed in prop::bool::ANY,
        ) {
            let (mut d, mut twin) = (DeltaTable::new(), DeltaTable::new());
            for op in ops {
                match op {
                    Op::Batch(mut rows) => {
                        rows.sort_by_key(|r| r.2);
                        let end = d.end();
                        let batch: DeltaBatch = rows.into_iter().map(|(a, b, ts)| entry(a, b, ts, end, typed)).collect();
                        prop_assert_eq!(twin.append_batch(batch.clone()), Ok(()));
                        prop_assert_eq!(d.append_batch(batch), Ok(()));
                    }
                    Op::Single(a, b, ts) => {
                        let (single, before) = (entry(a, b, ts, d.horizon(), typed), format!("{d:?}"));
                        let behind = single.ts < d.end();
                        let batch = DeltaBatch { entries: vec![single] };
                        prop_assert_eq!(twin.append_batch(batch.clone()).is_err(), behind);
                        prop_assert_eq!(d.append_batch(batch).is_err(), behind);
                        if behind {
                            prop_assert_eq!(format!("{d:?}"), before);
                        }
                    }
                    Op::Compact(ts) => {
                        let ts = Timestamp::from_secs(ts);
                        prop_assert_eq!(d.compact(ts), twin.compact(ts));
                        twin.reclaim(usize::MAX);
                    }
                    Op::Reclaim(n) => {
                        let held = d.reclaimable();
                        prop_assert_eq!(d.reclaim(n), n.min(held));
                    }
                    Op::Ensure(i) => {
                        d.ensure_partition(COLS[i]);
                        twin.ensure_partition(COLS[i]);
                    }
                    Op::Drop(i) => {
                        prop_assert_eq!(d.release_partition(COLS[i]), twin.release_partition(COLS[i]));
                    }
                }
                prop_assert_eq!(twin.reclaimable(), 0);
                prop_assert_eq!((d.len(), d.end(), d.horizon()), (twin.len(), twin.end(), twin.horizon()));
                let retained: Vec<&DeltaEntry> = d.iter().collect();
                prop_assert_eq!(&retained, &twin.iter().collect::<Vec<_>>());
                prop_assert_eq!(retained.len(), d.len());
                let stamps = || (0u64..32).step_by(3).map(Timestamp::from_secs);
                let windows = || stamps().flat_map(|lo| stamps().map(move |hi| (lo, hi)));
                for (lo, hi) in windows() {
                    prop_assert_eq!(d.window_ref(lo, hi).to_vec(), twin.window_ref(lo, hi).to_vec());
                    prop_assert_eq!(d.window_range(lo, hi), twin.window_range(lo, hi));
                }
                let installed: Vec<Vec<usize>> = d.partitions().map(|(cols, _)| cols.to_vec()).collect();
                prop_assert_eq!(&installed, &twin.partitions().map(|(cols, _)| cols.to_vec()).collect::<Vec<_>>());
                for cols in &installed {
                    let at = |t: &Tuple| cols.iter().map(|&c| t.values()[c].clone()).collect::<Vec<_>>();
                    let mut listing = d.partition_listing(cols).unwrap();
                    let mut twin_listing = twin.partition_listing(cols).unwrap();
                    listing.sort();
                    twin_listing.sort();
                    prop_assert_eq!(&listing, &twin_listing);
                    let mut listed = 0;
                    for (lit, indices) in listing {
                        prop_assert!(!indices.is_empty());
                        prop_assert!(indices.windows(2).all(|w| w[0] < w[1]));
                        for &i in &indices {
                            prop_assert!(i < d.len());
                            prop_assert_eq!(&at(&retained[i].tuple)[..], lit);
                        }
                        listed += indices.len();
                    }
                    prop_assert_eq!(listed, d.len());
                    for (lo, hi) in windows() {
                        let range = d.window_range(lo, hi);
                        for lit in (0i64..3).flat_map(|a| (0i64..3).map(move |b| [a, b])) {
                            let lit: Vec<Value> = cols.iter().zip(lit).map(|(&c, v)| value(c, v, typed)).collect();
                            let read: Vec<&DeltaEntry> = d.window_where(lo, hi, cols, &lit).unwrap().collect();
                            let scan: Vec<&DeltaEntry> =
                                d.window_ref(lo, hi).into_iter().filter(|e| at(&e.tuple) == lit).collect();
                            prop_assert_eq!(&read, &scan);
                            let twin_read: Vec<&DeltaEntry> = twin.window_where(lo, hi, cols, &lit).unwrap().collect();
                            prop_assert_eq!(&read, &twin_read);
                            let offsets: Vec<usize> = d.positions_where(&range, cols, &lit).unwrap().collect();
                            let twin_offsets: Vec<usize> = twin.positions_where(&range, cols, &lit).unwrap().collect();
                            prop_assert_eq!(offsets, twin_offsets);
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
