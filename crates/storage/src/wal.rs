//! Write-ahead-log frames: the one wire format of delta batches.
//!
//! The paper's delta capture module poses as a PostgreSQL streaming
//! replication client, receives the WAL, and unpacks modified tuples. Our
//! engine is embedded, so the equivalent boundary is a compact binary
//! encoding of delta batches: the simulator's `CopyDelta` edges ship WAL
//! bytes between machines, and the byte counts feed the network-cost meter.
//!
//! This module is the only one that knows the frame. [`ColumnarBatch`]
//! writes it: four columns filled straight from a borrowed log window, the
//! edge's filter and projection applied on the way. [`Frame`] reads it
//! zero-copy out of the shipped `Arc`-backed [`Bytes`]: [`Frame::parse`]
//! checks the layout, and the row decoder behind [`Frame::to_batch`] is the
//! only code that validates a row.
//!
//! ```text
//! magic "SWAL" | version u8 (=2) | count u32
//! ts:      count     × u64   commit timestamps (micros)
//! weight:  count     × i64   signed multiplicities
//! offsets: count + 1 × u32   row bounds into the arena (starts at 0)
//! arena:   offsets[count] bytes of tagged values
//! per value: tag u8 (0=Null 1=I64 2=F64 3=Str) | payload (Str: len u32 | UTF-8)
//! ```
//!
//! All integers little-endian. A frame's total length is implied exactly by
//! `count` and `offsets[count]`; anything shorter or longer is rejected. The
//! row codec is injective — two rows are equal as value sequences iff their
//! bytes are — so consolidation sorts and merges raw row bytes.

use crate::delta::{DeltaBatch, DeltaEntry};
use bytes::{BufMut, BytesMut};
/// Encoded WAL bytes: a cheaply cloneable, immutable `Arc`-backed buffer —
/// the unit a push's ship half hands to its land half.
pub use bytes::Bytes;
use smile_types::{Result, SmileError, Timestamp, Value};
use std::cell::Cell;

const MAGIC: &[u8; 4] = b"SWAL";
const VERSION: u8 = 2;
/// Bytes before the fixed-width columns: magic + version + count.
const HEADER: usize = 9;

/// Value tag bytes of the row codec; they coincide with `Value`'s ordering
/// rank.
const TAG_NULL: u8 = 0;
const TAG_I64: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_STR: u8 = 3;

/// Plain snapshot of one database's WAL traffic (telemetry view).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalCounters {
    /// Delta batches encoded and shipped out of this database.
    pub batches_shipped: u64,
    /// WAL bytes encoded and shipped out of this database.
    pub bytes_shipped: u64,
    /// Delta batches decoded and landed into this database.
    pub batches_landed: u64,
    /// WAL bytes decoded and landed into this database.
    pub bytes_landed: u64,
}

impl WalCounters {
    /// Accumulates `other` into `self` (fleet-wide aggregation).
    pub fn add(&mut self, other: &WalCounters) {
        self.batches_shipped += other.batches_shipped;
        self.bytes_shipped += other.bytes_shipped;
        self.batches_landed += other.batches_landed;
        self.bytes_landed += other.bytes_landed;
    }
}

/// The cell backing [`WalCounters`], embedded in each database so the
/// ship/land halves of a push can note traffic through `&Database` (the
/// engine is one thread; `Arrangement` counts its probes the same way).
#[derive(Clone, Debug, Default)]
pub struct WalStats(Cell<WalCounters>);

impl WalStats {
    /// Notes one encoded batch of `bytes` leaving this database.
    pub fn note_shipped(&self, bytes: u64) {
        let mut c = self.0.get();
        c.batches_shipped += 1;
        c.bytes_shipped += bytes;
        self.0.set(c);
    }

    /// Notes one decoded batch of `bytes` landing in this database.
    pub fn note_landed(&self, bytes: u64) {
        let mut c = self.0.get();
        c.batches_landed += 1;
        c.bytes_landed += bytes;
        self.0.set(c);
    }

    /// Point-in-time copy of the counters.
    pub fn counters(&self) -> WalCounters {
        self.0.get()
    }
}

/// Appends one value's tagged encoding to `out`.
fn encode_value(v: &Value, out: &mut Vec<u8>) {
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
fn bytes_at<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(&bytes[at..at + N]);
    out
}

/// Decodes a row into values appended to a caller-retained buffer, so
/// landing materializes one tuple per row with a single `Arc` allocation
/// (drain the scratch into the tuple) instead of a `Vec` per row. The only
/// row validator: tags, bounds and UTF-8 are checked here and nowhere else.
fn decode_row_into(row: &[u8], values: &mut Vec<Value>) -> Result<()> {
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

/// The frame's writer: a batch of weighted, timestamped rows held as the
/// four wire columns, so [`ColumnarBatch::frame`] is a header plus four
/// copies.
///
/// Invariants: `offsets.len() == weights.len() + 1 == tss.len() + 1`,
/// `offsets[0] == 0`, `offsets` is non-decreasing, and
/// `offsets[len] == arena.len()`.
#[derive(Clone, Debug)]
pub struct ColumnarBatch {
    arena: Vec<u8>,
    offsets: Vec<u32>,
    weights: Vec<i64>,
    tss: Vec<u64>,
}

impl ColumnarBatch {
    fn with_capacity(rows: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            arena: Vec::with_capacity(bytes),
            offsets,
            weights: Vec::with_capacity(rows),
            tss: Vec::with_capacity(rows),
        }
    }

    /// Encodes `rows`, borrowed log entries a reader kept, each projected
    /// onto `projection` during encoding: one pass from the log to the
    /// columns, with no intermediate `DeltaBatch` and no per-row `Tuple`.
    pub fn from_rows<'a>(
        rows: impl Iterator<Item = &'a DeltaEntry>,
        projection: Option<&[usize]>,
    ) -> Self {
        let most = rows.size_hint().1.unwrap_or(0);
        let mut cb = Self::with_capacity(most, most * 16);
        for e in rows {
            let values = e.tuple.values();
            let mut encode = |v: &Value| encode_value(v, &mut cb.arena);
            match projection {
                Some(cols) => cols.iter().for_each(|&c| encode(&values[c])),
                None => values.iter().for_each(encode),
            }
            cb.close_row(e.weight, e.ts.0);
        }
        cb
    }

    /// Every entry of `entries`, unfiltered and unprojected.
    pub fn from_entries(entries: &[DeltaEntry]) -> Self {
        Self::from_rows(entries.iter(), None)
    }

    /// Ends the row whose values were just appended to the arena.
    fn close_row(&mut self, weight: i64, ts: u64) {
        self.offsets.push(self.arena.len() as u32);
        self.weights.push(weight);
        self.tss.push(ts);
    }

    fn len(&self) -> usize {
        self.weights.len()
    }

    fn row(&self, i: usize) -> &[u8] {
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Consolidates the batch as a z-set (cf. [`DeltaBatch::to_zset`]):
    /// afterwards rows are strictly ascending in row-byte order, duplicate
    /// rows have their weights summed, weight-zero rows are gone, and every
    /// timestamp is zero.
    pub fn consolidate_in_place(&mut self) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
        let mut out = Self::with_capacity(order.len(), self.arena.len());
        let mut rest = &order[..];
        while let Some(&first) = rest.first() {
            let row = self.row(first);
            let run = rest.iter().take_while(|&&i| self.row(i) == row).count();
            let weight: i64 = rest[..run].iter().map(|&i| self.weights[i]).sum();
            if weight != 0 {
                out.arena.extend_from_slice(row);
                out.close_row(weight, 0);
            }
            rest = &rest[run..];
        }
        *self = out;
    }

    /// The wire frame: the header, then the four columns.
    pub fn frame(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER + 20 * self.len() + 4 + self.arena.len());
        buf.put_slice(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u32_le(self.len() as u32);
        self.tss.iter().for_each(|&ts| buf.put_u64_le(ts));
        self.weights.iter().for_each(|&w| buf.put_i64_le(w));
        self.offsets.iter().for_each(|&off| buf.put_u32_le(off));
        buf.put_slice(&self.arena);
        buf.freeze()
    }
}

/// Encodes a delta batch into WAL bytes.
pub fn encode(batch: &DeltaBatch) -> Bytes {
    ColumnarBatch::from_entries(&batch.entries).frame()
}

/// A zero-copy view of one WAL frame whose layout checked out.
///
/// [`Frame::parse`] checks the layout once — header, column bounds, offset
/// monotonicity, exact length — after which the accessors read timestamps,
/// weights and row bytes directly out of the shared [`Bytes`] buffer. Row
/// bytes are checked only where they are read: [`Frame::to_batch`] decodes
/// every row before returning any.
#[derive(Clone, Debug)]
pub struct Frame {
    bytes: Bytes,
    count: usize,
}

impl Frame {
    /// Checks that `bytes` is laid out as a version-2 WAL frame.
    pub fn parse(bytes: Bytes) -> Result<Frame> {
        if bytes.len() < HEADER {
            return Err(corrupt("truncated header"));
        }
        if bytes[0..4] != MAGIC[..] {
            return Err(corrupt("bad magic"));
        }
        let version = bytes[4];
        if version != VERSION {
            return Err(SmileError::WalCorrupt(format!(
                "unsupported version {version}"
            )));
        }
        let count = u32::from_le_bytes(bytes_at(&bytes, 5)) as usize;
        let fixed = 16 * count + 4 * (count + 1);
        if bytes.len() < HEADER + fixed {
            return Err(corrupt("truncated entry table"));
        }
        let frame = Frame { bytes, count };
        if frame.offset(0) != 0 {
            return Err(corrupt("arena offsets must start at 0"));
        }
        for i in 0..count {
            if frame.offset(i) > frame.offset(i + 1) {
                return Err(corrupt("arena offsets not monotonic"));
            }
        }
        let arena_len = frame.offset(count) as usize;
        let expect = HEADER + fixed + arena_len;
        if frame.bytes.len() < expect {
            return Err(corrupt("truncated arena"));
        }
        if frame.bytes.len() > expect {
            return Err(corrupt("trailing garbage after arena"));
        }
        Ok(frame)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True iff the frame carries no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn offset(&self, i: usize) -> u32 {
        let base = HEADER + 16 * self.count + 4 * i;
        u32::from_le_bytes(bytes_at(&self.bytes, base))
    }

    /// Commit timestamp of entry `i`.
    pub fn ts(&self, i: usize) -> Timestamp {
        debug_assert!(i < self.count);
        let base = HEADER + 8 * i;
        Timestamp(u64::from_le_bytes(bytes_at(&self.bytes, base)))
    }

    /// Signed weight of entry `i`.
    pub fn weight(&self, i: usize) -> i64 {
        debug_assert!(i < self.count);
        let base = HEADER + 8 * self.count + 8 * i;
        i64::from_le_bytes(bytes_at(&self.bytes, base))
    }

    /// Encoded row bytes of entry `i`, borrowed from the shared buffer and
    /// not yet validated.
    pub fn row(&self, i: usize) -> &[u8] {
        let arena = HEADER + 16 * self.count + 4 * (self.count + 1);
        &self.bytes[arena + self.offset(i) as usize..arena + self.offset(i + 1) as usize]
    }

    /// Materializes the whole frame in row form, each row decoded through
    /// one scratch buffer and drained into the tuple's `Arc` payload (one
    /// allocation per row). A row that fails to decode is a typed error,
    /// and no row is returned: callers land all of a frame or none of it.
    pub fn to_batch(&self) -> Result<DeltaBatch> {
        let mut scratch = Vec::new();
        let entry = |i| {
            decode_row_into(self.row(i), &mut scratch)?;
            Ok(DeltaEntry {
                tuple: scratch.drain(..).collect(),
                weight: self.weight(i),
                ts: self.ts(i),
            })
        };
        (0..self.count).map(entry).collect()
    }
}

/// Decodes WAL bytes back into a delta batch: the layout, then every row.
pub fn decode(bytes: Bytes) -> Result<DeltaBatch> {
    Frame::parse(bytes)?.to_batch()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, Predicate};
    use proptest::prelude::*;
    use smile_types::{tuple, Tuple};

    fn sample_batch() -> DeltaBatch {
        DeltaBatch {
            entries: vec![
                DeltaEntry::insert(tuple![1i64, "ann", 2.5f64], Timestamp::from_secs(1)),
                DeltaEntry::delete(tuple![2i64, Value::Null, 0.0f64], Timestamp::from_secs(2)),
            ],
        }
    }

    #[test]
    fn round_trip() {
        let b = sample_batch();
        assert_eq!(decode(encode(&b)).unwrap(), b);
    }

    #[test]
    fn empty_batch_round_trips() {
        let b = DeltaBatch::new();
        assert_eq!(decode(encode(&b)).unwrap(), b);
    }

    #[test]
    fn frame_reads_without_materializing() {
        let b = sample_batch();
        let frame = Frame::parse(encode(&b)).unwrap();
        assert_eq!(frame.len(), 2);
        assert_eq!(frame.ts(0), Timestamp::from_secs(1));
        assert_eq!(frame.weight(1), -1);
        assert_eq!(frame.to_batch().unwrap(), b);
    }

    /// Filter and projection applied while encoding a window give the frame
    /// of the filtered, projected entries.
    #[test]
    fn a_window_encoded_with_filter_and_projection_round_trips() {
        let entries: Vec<DeltaEntry> = (0..10)
            .map(|k| DeltaEntry::insert(tuple![k, "x", 100 + k], Timestamp::from_secs(k as u64)))
            .collect();
        let filter = Predicate::cmp(0, CmpOp::Lt, 6i64);
        let kept = entries.iter().filter(|e| filter.eval(&e.tuple));
        let frame = ColumnarBatch::from_rows(kept, Some(&[2, 0])).frame();
        let expected: DeltaBatch = entries[..6]
            .iter()
            .map(|e| DeltaEntry {
                tuple: e.tuple.project(&[2, 0]),
                ..e.clone()
            })
            .collect();
        assert_eq!(decode(frame).unwrap(), expected);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = encode(&sample_batch()).to_vec();
        raw[0] = b'X';
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(SmileError::WalCorrupt(_))
        ));
    }

    #[test]
    fn rejects_old_version() {
        let mut raw = encode(&sample_batch()).to_vec();
        raw[4] = 1;
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(SmileError::WalCorrupt(_))
        ));
    }

    #[test]
    fn rejects_truncation_at_any_point() {
        let raw = encode(&sample_batch());
        for cut in 0..raw.len() {
            let sliced = raw.slice(..cut);
            assert!(
                decode(sliced).is_err(),
                "decode of {cut}-byte prefix unexpectedly succeeded"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut raw = encode(&sample_batch()).to_vec();
        raw.push(0);
        assert!(decode(Bytes::from(raw)).is_err());
    }

    /// The layout is sound, so `parse` passes; the decoder refuses the row.
    #[test]
    fn rejects_unknown_tag() {
        let b = DeltaBatch {
            entries: vec![DeltaEntry::insert(tuple![1i64], Timestamp::ZERO)],
        };
        let mut raw = encode(&b).to_vec();
        // First arena byte: header + ts column + weight column + 2 offsets.
        let tag_pos = HEADER + 8 + 8 + 4 * 2;
        raw[tag_pos] = 99;
        let frame = Frame::parse(Bytes::from(raw)).unwrap();
        assert!(matches!(frame.to_batch(), Err(SmileError::WalCorrupt(_))));
    }

    #[test]
    fn rejects_non_monotonic_offsets() {
        let b = DeltaBatch {
            entries: vec![
                DeltaEntry::insert(tuple![1i64], Timestamp::ZERO),
                DeltaEntry::insert(tuple![2i64], Timestamp::ZERO),
            ],
        };
        let mut raw = encode(&b).to_vec();
        // offsets column starts after header + 2×u64 ts + 2×i64 weight.
        let off_base = HEADER + 16 + 16;
        // Corrupt offsets[1] to exceed offsets[2].
        raw[off_base + 4..off_base + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(Bytes::from(raw)).is_err());
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::I64),
            any::<f64>().prop_map(Value::F64),
            "[a-z]{0,12}".prop_map(Value::str),
        ]
    }

    /// A small domain, so rows repeat: covers every tag and multi-byte UTF-8.
    fn arb_small_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (-3i64..4).prop_map(Value::I64),
            (-2i32..3).prop_map(|v| Value::F64(f64::from(v) * 0.5)),
            (0usize..4).prop_map(|i| Value::str(["", "a", "bb", "ß"][i])),
        ]
    }

    fn entries(rows: Vec<(Vec<Value>, i64, u64)>) -> Vec<DeltaEntry> {
        let entry = |(vals, weight, ts)| DeltaEntry {
            tuple: Tuple::new(vals),
            weight,
            ts: Timestamp(ts),
        };
        rows.into_iter().map(entry).collect()
    }

    proptest! {
        #[test]
        fn round_trip_arbitrary(
            rows in proptest::collection::vec(
                (proptest::collection::vec(arb_value(), 0..5), -3i64..4, 0u64..1000),
                0..20
            )
        ) {
            let batch = DeltaBatch { entries: entries(rows) };
            prop_assert_eq!(decode(encode(&batch)).unwrap(), batch);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Consolidation is z-set algebra on raw row bytes: its frame holds
        /// the batch's z-set, rows strictly ascending, no zero weight, every
        /// timestamp zero.
        #[test]
        fn consolidation_matches_the_zset_of_the_batch(
            rows in proptest::collection::vec(
                (proptest::collection::vec(arb_small_value(), 2..3), -3i64..4, 0u64..4),
                0..48
            )
        ) {
            let entries = entries(rows);
            let mut cb = ColumnarBatch::from_entries(&entries);
            cb.consolidate_in_place();
            let frame = Frame::parse(cb.frame()).unwrap();
            for i in 0..frame.len() {
                prop_assert!(frame.weight(i) != 0, "weight-zero row survived");
                prop_assert_eq!(frame.ts(i), Timestamp::ZERO);
                if i > 0 {
                    prop_assert!(frame.row(i - 1) < frame.row(i), "rows not strictly ascending");
                }
            }
            let zset = |b: DeltaBatch| b.to_zset().sorted_entries();
            prop_assert_eq!(zset(frame.to_batch().unwrap()), zset(DeltaBatch { entries }));
        }
    }
}
