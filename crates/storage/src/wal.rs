//! Write-ahead-log encoding of delta batches.
//!
//! The paper's delta capture module poses as a PostgreSQL streaming
//! replication client, receives the WAL, and unpacks modified tuples. Our
//! engine is embedded, so the equivalent boundary is a compact binary
//! encoding of delta batches: the simulator's `CopyDelta` edges ship WAL
//! bytes between machines, and the byte counts feed the network-cost meter.
//!
//! Format version 2 is **columnar** — the wire layout *is* the
//! [`ColumnarBatch`] layout, so the landing side can validate once and then
//! read timestamps, weights and row bytes straight out of the shipped
//! `Arc`-backed [`Bytes`] (see [`Frame`]):
//!
//! ```text
//! magic "SWAL" | version u8 (=2) | count u32
//! ts:      count     × u64   commit timestamps (micros)
//! weight:  count     × i64   signed multiplicities
//! offsets: count + 1 × u32   row bounds into the arena (starts at 0)
//! arena:   offsets[count] bytes of tagged values
//! per value: tag u8 (0=Null 1=I64 2=F64 3=Str) | payload
//! ```
//!
//! All integers little-endian. A frame's total length is implied exactly by
//! `count` and `offsets[count]`; anything shorter or longer is rejected.

use crate::columnar::{self, ColumnarBatch};
use crate::delta::{DeltaBatch, DeltaEntry};
use crate::predicate::Predicate;
use bytes::{BufMut, BytesMut};
/// Encoded WAL bytes: a cheaply cloneable, immutable `Arc`-backed buffer —
/// the unit a push's ship half hands to its land half.
pub use bytes::Bytes;
use smile_types::{Result, SmileError, Timestamp};
use std::cell::Cell;

const MAGIC: &[u8; 4] = b"SWAL";
const VERSION: u8 = 2;
/// Bytes before the fixed-width columns: magic + version + count.
const HEADER: usize = 9;

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

/// Assembles the wire frame for a columnar batch.
pub fn frame_bytes(cb: &ColumnarBatch) -> Bytes {
    let n = cb.len();
    let mut buf = BytesMut::with_capacity(HEADER + 20 * n + 4 + cb.arena().len());
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u32_le(n as u32);
    for &ts in cb.timestamps() {
        buf.put_u64_le(ts);
    }
    for &w in cb.weights() {
        buf.put_i64_le(w);
    }
    for &off in cb.offsets() {
        buf.put_u32_le(off);
    }
    if n == 0 {
        // An empty batch has no offsets pushed yet; emit the single 0 bound.
        if cb.offsets().is_empty() {
            buf.put_u32_le(0);
        }
    }
    buf.put_slice(cb.arena());
    buf.freeze()
}

/// Encodes a window of delta entries, applying the edge's filter and
/// projection *during* encoding — one pass from the log slice to wire bytes
/// with no intermediate `DeltaBatch` and no per-row `Tuple` allocation.
pub fn encode_filtered(
    entries: &[DeltaEntry],
    filter: &Predicate,
    projection: Option<&[usize]>,
) -> Bytes {
    let mut cb = ColumnarBatch::with_capacity(entries.len(), entries.len() * 16);
    for e in entries {
        if filter.eval(&e.tuple) {
            cb.push_projected(&e.tuple, projection, e.weight, e.ts);
        }
    }
    frame_bytes(&cb)
}

/// Encodes a delta batch into WAL bytes.
pub fn encode(batch: &DeltaBatch) -> Bytes {
    encode_filtered(&batch.entries, &Predicate::True, None)
}

fn corrupt(detail: &str) -> SmileError {
    SmileError::WalCorrupt(detail.to_string())
}

/// A validated, zero-copy view of one WAL frame.
///
/// [`Frame::parse`] checks the whole frame once — header, column bounds,
/// offset monotonicity, exact length, and every row's value encoding — after
/// which the accessors read timestamps, weights and row bytes directly out
/// of the shared [`Bytes`] buffer, and [`Frame::to_batch`] materializes the
/// rows (one allocation each) without re-serializing anything.
#[derive(Clone, Debug)]
pub struct Frame {
    bytes: Bytes,
    count: usize,
}

impl Frame {
    /// Validates `bytes` as a version-2 WAL frame.
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
        let count = u32::from_le_bytes(columnar::bytes_at(&bytes, 5)) as usize;
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
        for i in 0..count {
            columnar::validate_row(frame.row(i))?;
        }
        Ok(frame)
    }

    /// A frame over bytes `parse` never saw; only the header's count is read.
    #[cfg(test)]
    pub(crate) fn unvalidated(bytes: Bytes) -> Frame {
        let count = u32::from_le_bytes(columnar::bytes_at(&bytes, 5)) as usize;
        Frame { bytes, count }
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
        u32::from_le_bytes(columnar::bytes_at(&self.bytes, base))
    }

    /// Commit timestamp of entry `i`.
    pub fn ts(&self, i: usize) -> Timestamp {
        debug_assert!(i < self.count);
        let base = HEADER + 8 * i;
        Timestamp(u64::from_le_bytes(columnar::bytes_at(&self.bytes, base)))
    }

    /// Signed weight of entry `i`.
    pub fn weight(&self, i: usize) -> i64 {
        debug_assert!(i < self.count);
        let base = HEADER + 8 * self.count + 8 * i;
        i64::from_le_bytes(columnar::bytes_at(&self.bytes, base))
    }

    /// Encoded row bytes of entry `i`, borrowed from the shared buffer.
    pub fn row(&self, i: usize) -> &[u8] {
        let arena = HEADER + 16 * self.count + 4 * (self.count + 1);
        &self.bytes[arena + self.offset(i) as usize..arena + self.offset(i + 1) as usize]
    }

    /// Materializes the whole frame in row form, each row decoded through
    /// one scratch buffer and drained into the tuple's `Arc` payload (one
    /// allocation per row). The bytes crossed a machine boundary: a row
    /// that fails to decode is a typed error even after `parse` passed it.
    pub fn to_batch(&self) -> Result<DeltaBatch> {
        let mut scratch = Vec::new();
        let entry = |i| {
            columnar::decode_row_into(self.row(i), &mut scratch)?;
            Ok(DeltaEntry {
                tuple: scratch.drain(..).collect(),
                weight: self.weight(i),
                ts: self.ts(i),
            })
        };
        (0..self.count).map(entry).collect()
    }
}

/// Decodes WAL bytes back into a delta batch, validating structure.
pub fn decode(bytes: Bytes) -> Result<DeltaBatch> {
    Frame::parse(bytes)?.to_batch()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smile_types::{tuple, Tuple, Value};

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

    #[test]
    fn encode_filtered_matches_row_path() {
        let entries: Vec<DeltaEntry> = (0..10)
            .map(|k| DeltaEntry::insert(tuple![k, 100 + k], Timestamp::from_secs(k as u64)))
            .collect();
        // Filter + projection applied during encode must produce the exact
        // bytes of the materialize-then-encode path.
        let filter = Predicate::True;
        let projected: Vec<DeltaEntry> = entries
            .iter()
            .map(|e| DeltaEntry {
                tuple: e.tuple.project(&[1]),
                weight: e.weight,
                ts: e.ts,
            })
            .collect();
        let row_path = encode(&DeltaBatch { entries: projected });
        let columnar_path = encode_filtered(&entries, &filter, Some(&[1]));
        assert_eq!(row_path, columnar_path);
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

    #[test]
    fn rejects_unknown_tag() {
        let b = DeltaBatch {
            entries: vec![DeltaEntry::insert(tuple![1i64], Timestamp::ZERO)],
        };
        let mut raw = encode(&b).to_vec();
        // First arena byte: header + ts column + weight column + 2 offsets.
        let tag_pos = HEADER + 8 + 8 + 4 * 2;
        raw[tag_pos] = 99;
        assert!(decode(Bytes::from(raw)).is_err());
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

    proptest! {
        #[test]
        fn round_trip_arbitrary(
            rows in proptest::collection::vec(
                (proptest::collection::vec(arb_value(), 0..5), -3i64..4, 0u64..1000),
                0..20
            )
        ) {
            let batch = DeltaBatch {
                entries: rows
                    .into_iter()
                    .map(|(vals, w, ts)| DeltaEntry {
                        tuple: Tuple::new(vals),
                        weight: w,
                        ts: Timestamp(ts),
                    })
                    .collect(),
            };
            prop_assert_eq!(decode(encode(&batch)).unwrap(), batch);
        }
    }
}
