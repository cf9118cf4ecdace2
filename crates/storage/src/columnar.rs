//! Columnar, arena-backed delta batches.
//!
//! The row-at-a-time representation ([`DeltaBatch`]: `Vec<DeltaEntry>`, one
//! `Arc<[Value]>` allocation per tuple) is what the engine's *logs* store,
//! but it is the wrong shape for the hot path: encoding a WAL frame, landing
//! one, or consolidating a window touches every tuple once and should not
//! pay one heap allocation + pointer chase per row. A [`ColumnarBatch`]
//! stores a whole batch as four parallel columns:
//!
//! ```text
//! arena:   [row0 bytes | row1 bytes | ...]     one contiguous Vec<u8>
//! offsets: [0, end0, end1, ...]                n+1 u32 bounds into arena
//! weights: [w0, w1, ...]                       i64 per row
//! tss:     [t0, t1, ...]                       u64 micros per row
//! ```
//!
//! Rows are encoded with the same tagged value codec the WAL uses (see the
//! constants below), which makes the encoding *injective*: two rows are
//! equal as value sequences iff their arena bytes are equal. Everything the
//! batch algebra needs — equality, ordering, hashing, consolidation — can
//! therefore run on raw byte slices without materializing a single `Value`.
//!
//! The same four columns are exactly the wire layout of a version-2 WAL
//! frame ([`crate::wal`]), so a shipped frame *is* a columnar batch and the
//! landing side can read it zero-copy.

use crate::delta::{DeltaBatch, DeltaEntry};
use crate::zset::ZSet;
use smile_types::{Result, SmileError, Timestamp, Tuple, Value};

/// Value tag bytes of the row codec; they coincide with `Value`'s ordering
/// rank.
pub(crate) const TAG_NULL: u8 = 0;
/// Tag byte for [`Value::I64`].
pub(crate) const TAG_I64: u8 = 1;
/// Tag byte for [`Value::F64`].
pub(crate) const TAG_F64: u8 = 2;
/// Tag byte for [`Value::Str`].
pub(crate) const TAG_STR: u8 = 3;

/// Appends one value's tagged encoding to `out`.
pub(crate) fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::I64(x) => {
            out.push(TAG_I64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn corrupt(detail: &str) -> SmileError {
    SmileError::WalCorrupt(detail.to_string())
}

/// The `N` bytes of `bytes` at `at`, as an array: a fixed-width field read
/// that cannot fail once the caller has checked `at + N <= bytes.len()`
/// (past the end it panics like any slice index).
pub(crate) fn bytes_at<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(&bytes[at..at + N]);
    out
}

/// Advances past the value starting at `pos`, validating tag, bounds and
/// UTF-8. Returns the start of the next value.
pub(crate) fn validate_value(row: &[u8], pos: usize) -> Result<usize> {
    let tag = *row.get(pos).ok_or_else(|| corrupt("truncated value tag"))?;
    match tag {
        TAG_NULL => Ok(pos + 1),
        TAG_I64 | TAG_F64 => {
            if row.len() < pos + 9 {
                return Err(corrupt(if tag == TAG_I64 {
                    "truncated i64"
                } else {
                    "truncated f64"
                }));
            }
            Ok(pos + 9)
        }
        TAG_STR => {
            if row.len() < pos + 5 {
                return Err(corrupt("truncated string length"));
            }
            let len = u32::from_le_bytes(bytes_at(row, pos + 1)) as usize;
            if row.len() < pos + 5 + len {
                return Err(corrupt("truncated string payload"));
            }
            std::str::from_utf8(&row[pos + 5..pos + 5 + len])
                .map_err(|_| corrupt("string payload is not UTF-8"))?;
            Ok(pos + 5 + len)
        }
        other => Err(SmileError::WalCorrupt(format!("unknown value tag {other}"))),
    }
}

/// Validates that `row` is a clean sequence of encoded values.
pub(crate) fn validate_row(row: &[u8]) -> Result<()> {
    let mut pos = 0;
    while pos < row.len() {
        pos = validate_value(row, pos)?;
    }
    Ok(())
}

/// Decodes a row back into values, appended to a caller-retained buffer, so
/// the land hot path can materialize one tuple per row with a single `Arc`
/// allocation (drain the scratch into the tuple) instead of a `Vec` per row.
pub(crate) fn decode_row_into(row: &[u8], values: &mut Vec<Value>) -> Result<()> {
    let mut pos = 0;
    while pos < row.len() {
        let tag = row[pos];
        match tag {
            TAG_NULL => {
                values.push(Value::Null);
                pos += 1;
            }
            TAG_I64 => {
                if row.len() < pos + 9 {
                    return Err(corrupt("truncated i64"));
                }
                values.push(Value::I64(i64::from_le_bytes(bytes_at(row, pos + 1))));
                pos += 9;
            }
            TAG_F64 => {
                if row.len() < pos + 9 {
                    return Err(corrupt("truncated f64"));
                }
                values.push(Value::F64(f64::from_le_bytes(bytes_at(row, pos + 1))));
                pos += 9;
            }
            TAG_STR => {
                if row.len() < pos + 5 {
                    return Err(corrupt("truncated string length"));
                }
                let len = u32::from_le_bytes(bytes_at(row, pos + 1)) as usize;
                if row.len() < pos + 5 + len {
                    return Err(corrupt("truncated string payload"));
                }
                let s = std::str::from_utf8(&row[pos + 5..pos + 5 + len])
                    .map_err(|_| corrupt("string payload is not UTF-8"))?;
                values.push(Value::str(s));
                pos += 5 + len;
            }
            other => return Err(SmileError::WalCorrupt(format!("unknown value tag {other}"))),
        }
    }
    Ok(())
}

/// Consolidation the merge path can only take when the batch decomposes into
/// at most this many already-sorted runs; beyond that a full index sort is
/// cheaper than the k-way scan.
const MAX_MERGE_RUNS: usize = 16;

/// What [`ColumnarBatch::consolidate_in_place`] did — exposed so tests can
/// pin that sorted inputs take the run-merge path instead of re-sorting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConsolidateStats {
    /// Rows before consolidation.
    pub rows_in: usize,
    /// Rows after merging duplicates and dropping cancelled weights.
    pub rows_out: usize,
    /// Number of maximal sorted runs detected in the input.
    pub runs: usize,
    /// True when the output order came from merging the detected runs;
    /// false when the batch fell back to a full index sort.
    pub merged_runs: bool,
}

/// A batch of weighted, timestamped rows in columnar arena form.
///
/// Invariants: `offsets.len() == weights.len() + 1 == tss.len() + 1`,
/// `offsets[0] == 0`, `offsets` is non-decreasing, and
/// `offsets[len] == arena.len()`.
#[derive(Clone, Debug, Default)]
pub struct ColumnarBatch {
    arena: Vec<u8>,
    offsets: Vec<u32>,
    weights: Vec<i64>,
    tss: Vec<u64>,
    /// Retained consolidation buffers: consolidate writes the compacted
    /// columns here and swaps, so steady-state consolidation reallocates
    /// nothing.
    scratch_arena: Vec<u8>,
    scratch_offsets: Vec<u32>,
    scratch_weights: Vec<i64>,
}

impl PartialEq for ColumnarBatch {
    fn eq(&self, other: &Self) -> bool {
        self.arena == other.arena
            && self.offsets == other.offsets
            && self.weights == other.weights
            && self.tss == other.tss
    }
}

impl Eq for ColumnarBatch {}

impl ColumnarBatch {
    /// Empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty batch with room for `rows` rows totalling `bytes` arena bytes.
    pub fn with_capacity(rows: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            arena: Vec::with_capacity(bytes),
            offsets,
            weights: Vec::with_capacity(rows),
            tss: Vec::with_capacity(rows),
            ..Self::default()
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True iff the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Arena bytes plus the fixed per-row columns — the batch's footprint.
    pub fn byte_size(&self) -> usize {
        self.arena.len() + self.len() * (4 + 8 + 8)
    }

    /// The value arena.
    pub fn arena(&self) -> &[u8] {
        &self.arena
    }

    /// Row bounds into the arena (`len + 1` entries, starting at 0).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Per-row signed weights.
    pub fn weights(&self) -> &[i64] {
        &self.weights
    }

    /// Per-row timestamps in raw microseconds.
    pub fn timestamps(&self) -> &[u64] {
        &self.tss
    }

    fn ensure_offsets(&mut self) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
    }

    /// Appends a row from a tuple, optionally projecting it onto `cols`
    /// during encoding (no intermediate `Tuple` is built).
    pub fn push_projected(
        &mut self,
        tuple: &Tuple,
        cols: Option<&[usize]>,
        weight: i64,
        ts: Timestamp,
    ) {
        self.ensure_offsets();
        match cols {
            Some(cols) => {
                for &c in cols {
                    encode_value(&tuple.values()[c], &mut self.arena);
                }
            }
            None => {
                for v in tuple.values() {
                    encode_value(v, &mut self.arena);
                }
            }
        }
        self.offsets.push(self.arena.len() as u32);
        self.weights.push(weight);
        self.tss.push(ts.0);
    }

    /// Appends a row from a tuple.
    pub fn push(&mut self, tuple: &Tuple, weight: i64, ts: Timestamp) {
        self.push_projected(tuple, None, weight, ts);
    }

    /// Builds a columnar batch from row-form delta entries.
    pub fn from_entries(entries: &[DeltaEntry]) -> Self {
        let mut cb = Self::with_capacity(entries.len(), entries.len() * 16);
        for e in entries {
            cb.push(&e.tuple, e.weight, e.ts);
        }
        cb
    }

    /// The encoded bytes of row `i`.
    pub fn row(&self, i: usize) -> &[u8] {
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Weight of row `i`.
    pub fn weight(&self, i: usize) -> i64 {
        self.weights[i]
    }

    /// Timestamp of row `i`.
    pub fn ts(&self, i: usize) -> Timestamp {
        Timestamp(self.tss[i])
    }

    /// Materializes row `i` as a tuple. Rows pushed into a batch always
    /// decode; the error is the WAL's for bytes that do not.
    pub fn tuple(&self, i: usize) -> Result<Tuple> {
        let mut values = Vec::new();
        decode_row_into(self.row(i), &mut values)?;
        Ok(Tuple::new(values))
    }

    /// Materializes the whole batch in row form.
    pub fn to_batch(&self) -> Result<DeltaBatch> {
        let entry = |i| {
            let (weight, ts) = (self.weight(i), self.ts(i));
            Ok(DeltaEntry { tuple: self.tuple(i)?, weight, ts })
        };
        (0..self.len()).map(entry).collect()
    }

    /// Consolidates into a z-set (timestamps dropped), materializing rows.
    pub fn to_zset(&self) -> Result<ZSet> {
        let mut z = ZSet::with_capacity(self.len());
        for i in 0..self.len() {
            z.add(self.tuple(i)?, self.weight(i));
        }
        Ok(z)
    }

    /// Detects the maximal non-descending runs of the row byte order:
    /// returns the start index of each run.
    fn detect_runs(&self) -> Vec<u32> {
        let mut runs = vec![0u32];
        for i in 1..self.len() {
            if self.row(i) < self.row(i - 1) {
                runs.push(i as u32);
            }
        }
        runs
    }

    /// Produces the visit order for consolidation by k-way merging the
    /// already-sorted runs — no re-sort of data that arrived sorted.
    fn merge_run_order(&self, runs: &[u32]) -> Vec<u32> {
        let n = self.len();
        let mut cursors: Vec<(usize, usize)> = runs
            .iter()
            .enumerate()
            .map(|(k, &start)| {
                let end = runs.get(k + 1).map_or(n, |&s| s as usize);
                (start as usize, end)
            })
            .collect();
        let mut order = Vec::with_capacity(n);
        loop {
            let mut best: Option<usize> = None;
            for (k, &(pos, end)) in cursors.iter().enumerate() {
                if pos == end {
                    continue;
                }
                best = match best {
                    None => Some(k),
                    Some(b) if self.row(pos) < self.row(cursors[b].0) => Some(k),
                    keep => keep,
                };
            }
            let Some(k) = best else { break };
            order.push(cursors[k].0 as u32);
            cursors[k].0 += 1;
        }
        order
    }

    fn compact_in_order(&mut self, order: &[u32]) {
        let mut out_arena = std::mem::take(&mut self.scratch_arena);
        let mut out_offsets = std::mem::take(&mut self.scratch_offsets);
        let mut out_weights = std::mem::take(&mut self.scratch_weights);
        out_arena.clear();
        out_offsets.clear();
        out_offsets.push(0);
        out_weights.clear();
        let mut i = 0;
        while i < order.len() {
            let first = order[i] as usize;
            let row = self.row(first);
            let mut w = self.weights[first];
            let mut j = i + 1;
            while j < order.len() && self.row(order[j] as usize) == row {
                w += self.weights[order[j] as usize];
                j += 1;
            }
            if w != 0 {
                out_arena.extend_from_slice(row);
                out_offsets.push(out_arena.len() as u32);
                out_weights.push(w);
            }
            i = j;
        }
        std::mem::swap(&mut self.arena, &mut out_arena);
        std::mem::swap(&mut self.offsets, &mut out_offsets);
        std::mem::swap(&mut self.weights, &mut out_weights);
        self.scratch_arena = out_arena;
        self.scratch_offsets = out_offsets;
        self.scratch_weights = out_weights;
        self.tss.clear();
    }

    /// Consolidates the batch as a z-set, **in place**: afterwards rows are
    /// strictly ascending in row-byte order, duplicate rows have their
    /// weights summed, weight-zero rows are dropped, and timestamps are
    /// cleared (consolidation is z-set algebra; cf. [`DeltaBatch::to_zset`]).
    ///
    /// Already-sorted input — the common case for log windows and merge
    /// outputs — is detected as sorted runs and *merged*, not re-sorted; only
    /// genuinely shuffled batches (more than [`MAX_MERGE_RUNS`] runs) pay a
    /// full index sort. Output is identical either way (weight addition is
    /// commutative), which [`ColumnarBatch::consolidate_naive`] pins in tests.
    /// The compacted columns are written into retained scratch buffers and
    /// swapped, so steady-state consolidation performs no allocation.
    pub fn consolidate_in_place(&mut self) -> ConsolidateStats {
        let rows_in = self.len();
        if rows_in == 0 {
            self.tss.clear();
            return ConsolidateStats {
                rows_in,
                rows_out: 0,
                runs: 0,
                merged_runs: false,
            };
        }
        let runs = self.detect_runs();
        let merged_runs = runs.len() <= MAX_MERGE_RUNS;
        let order: Vec<u32> = if merged_runs {
            self.merge_run_order(&runs)
        } else {
            let mut idx: Vec<u32> = (0..rows_in as u32).collect();
            idx.sort_by(|&a, &b| self.row(a as usize).cmp(self.row(b as usize)));
            idx
        };
        self.compact_in_order(&order);
        ConsolidateStats {
            rows_in,
            rows_out: self.len(),
            runs: runs.len(),
            merged_runs,
        }
    }

    /// Reference consolidation: unconditionally sorts every row index, then
    /// compacts. Same output as [`ColumnarBatch::consolidate_in_place`] by
    /// construction of the compaction pass; kept as the oracle the unit and
    /// property tests compare against.
    pub fn consolidate_naive(&mut self) -> ConsolidateStats {
        let rows_in = self.len();
        let mut idx: Vec<u32> = (0..rows_in as u32).collect();
        idx.sort_by(|&a, &b| self.row(a as usize).cmp(self.row(b as usize)));
        self.compact_in_order(&idx);
        ConsolidateStats {
            rows_in,
            rows_out: self.len(),
            runs: 0,
            merged_runs: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smile_types::tuple;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn round_trips_rows() {
        let mut cb = ColumnarBatch::new();
        let t = tuple![7i64, "abc", 2.5f64, Value::Null];
        cb.push(&t, -3, ts(9));
        assert_eq!(cb.len(), 1);
        assert_eq!(cb.tuple(0).unwrap(), t);
        assert_eq!(cb.weight(0), -3);
        assert_eq!(cb.ts(0), ts(9));
        validate_row(cb.row(0)).unwrap();
    }

    #[test]
    fn projection_during_encode_matches_tuple_project() {
        let t = tuple![1i64, "x", 3i64];
        let mut cb = ColumnarBatch::new();
        cb.push_projected(&t, Some(&[2, 0]), 1, ts(1));
        assert_eq!(cb.tuple(0).unwrap(), t.project(&[2, 0]));
    }

    #[test]
    fn consolidate_merges_duplicates_and_drops_zero_sums() {
        let mut cb = ColumnarBatch::new();
        cb.push(&tuple![1i64], 2, ts(1));
        cb.push(&tuple![2i64], 1, ts(2));
        cb.push(&tuple![1i64], -2, ts(3));
        cb.push(&tuple![3i64], -4, ts(4));
        let stats = cb.consolidate_in_place();
        assert_eq!(stats.rows_in, 4);
        assert_eq!(stats.rows_out, 2);
        assert_eq!(
            (0..cb.len()).map(|i| (cb.tuple(i).unwrap(), cb.weight(i))).collect::<Vec<_>>(),
            vec![(tuple![2i64], 1), (tuple![3i64], -4)]
        );
        assert!(cb.timestamps().is_empty(), "consolidation drops timestamps");
    }

    /// The satellite fix this module exists to carry: already-sorted input
    /// must be detected and merged, not re-sorted — and the output bytes
    /// must pin exactly to the naive sort-everything path.
    #[test]
    fn sorted_runs_are_merged_not_resorted_with_identical_bytes() {
        let mut sorted = ColumnarBatch::new();
        for k in 0..50i64 {
            sorted.push(&tuple![k], 1, ts(k as u64));
        }
        // Second sorted run appended after the first — two runs, still no sort.
        for k in 10..30i64 {
            sorted.push(&tuple![k], -1, ts(100 + k as u64));
        }
        let mut naive = sorted.clone();
        let stats = sorted.consolidate_in_place();
        assert!(stats.merged_runs, "sorted input must take the merge path");
        assert_eq!(stats.runs, 2);
        naive.consolidate_naive();
        assert_eq!(sorted.arena(), naive.arena(), "output bytes must pin");
        assert_eq!(sorted.offsets(), naive.offsets());
        assert_eq!(sorted.weights(), naive.weights());
        assert_eq!(sorted.len(), 30, "the overlap [10,30) cancelled");
    }

    #[test]
    fn shuffled_batches_fall_back_to_sort_with_same_result() {
        let mut cb = ColumnarBatch::new();
        // Strictly descending: every element starts a new run → > MAX_MERGE_RUNS.
        for k in (0..40i64).rev() {
            cb.push(&tuple![k], 1, ts(1));
        }
        let mut naive = cb.clone();
        let stats = cb.consolidate_in_place();
        assert!(!stats.merged_runs);
        assert_eq!(stats.runs, 40);
        naive.consolidate_naive();
        assert_eq!(cb, naive);
    }

    #[test]
    fn consolidation_reuses_scratch_capacity() {
        let mut cb = ColumnarBatch::new();
        for round in 0..3 {
            for k in 0..100i64 {
                cb.push(&tuple![k, "payload"], 1, ts(k as u64));
            }
            cb.consolidate_in_place();
            if round > 0 {
                // After warmup both buffers are sized; nothing reallocates.
                assert!(cb.scratch_arena.capacity() >= cb.arena.len());
            }
        }
    }

    #[test]
    fn to_zset_matches_row_path() {
        let entries = vec![
            DeltaEntry::insert(tuple![1i64, "a"], ts(1)),
            DeltaEntry::delete(tuple![1i64, "a"], ts(2)),
            DeltaEntry::insert(tuple![2i64, "b"], ts(3)),
        ];
        let cb = ColumnarBatch::from_entries(&entries);
        let batch = DeltaBatch { entries };
        assert_eq!(cb.to_zset().unwrap(), batch.to_zset());
        assert_eq!(cb.to_batch().unwrap(), batch);
    }
}
