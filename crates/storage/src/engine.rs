//! Per-machine database instance.
//!
//! Each simulated machine runs exactly one [`Database`] (the paper runs one
//! PostgreSQL per machine). The database stores every relation vertex placed
//! on its machine — base relations, copies of remote relations, materialized
//! intermediates and MVs — each as a [`Table`] + [`DeltaTable`] pair, and
//! performs **delta capture**: application updates go through
//! [`Database::ingest`], which appends WAL-style delta entries and applies
//! them to the table atomically, exactly like the streaming-replication tap
//! of the paper's §4.0.1.

use crate::arrangement::IndexCols;
use crate::delta::{DeltaBatch, DeltaEntry, DeltaTable};
use crate::predicate::Predicate;
use crate::spj::RelationProvider;
use crate::table::Table;
use crate::zset::ZSet;
use smile_types::{FastMap, RelationId, Result, Schema, SimDuration, SmileError, Timestamp};

/// One relation slot: materialized contents plus the captured delta log.
#[derive(Clone, Debug)]
pub struct RelationSlot {
    /// Materialized contents.
    pub table: Table,
    /// Captured / shipped delta entries.
    pub delta: DeltaTable,
    /// Per-producer end of the highest window landed: what makes a retried
    /// push idempotent (see [`Database::append_delta_dedup`]).
    pub shipped_through: FastMap<u64, Timestamp>,
}

/// One index a relation slot keeps for its readers.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlotIndex {
    /// An arrangement of the table ([`Table::ensure_arrangement`]).
    Arrangement(IndexCols),
    /// A partition of the delta log on these columns
    /// ([`DeltaTable::ensure_partition`]).
    Log(Vec<usize>),
}

impl RelationSlot {
    /// Every index installed, with how many readers hold it: arrangements
    /// first, then log partitions, each in install order.
    pub fn indexes(&self) -> impl Iterator<Item = (SlotIndex, u32)> + '_ {
        let arrangements = self.table.arrangements().map(|a| (SlotIndex::Arrangement(a.on().clone()), a.readers()));
        let partitions = self.delta.partitions().map(|(cols, n)| (SlotIndex::Log(cols.to_vec()), n));
        arrangements.chain(partitions)
    }
}

/// A single machine's database instance.
#[derive(Clone, Debug, Default)]
pub struct Database {
    /// On the seedless hasher: a slot lookup sits on every ingest, ship,
    /// land and apply.
    relations: FastMap<RelationId, RelationSlot>,
    wal: crate::wal::WalStats,
    /// Just past the newest instant this machine's base relations were
    /// read as of ([`Database::vouch`]); no entry is ingested below it.
    read_floor: Timestamp,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty relation. Returns an error if it already exists.
    pub fn create_relation(&mut self, rel: RelationId, schema: Schema) -> Result<()> {
        if self.relations.contains_key(&rel) {
            return Err(SmileError::Internal(format!(
                "relation {rel} already exists on this machine"
            )));
        }
        self.relations.insert(
            rel,
            RelationSlot {
                table: Table::new(schema),
                delta: DeltaTable::new(),
                shipped_through: FastMap::default(),
            },
        );
        Ok(())
    }

    /// Drops a relation (used when plumbing removes plan vertices).
    pub fn drop_relation(&mut self, rel: RelationId) -> Result<()> {
        self.relations
            .remove(&rel)
            .map(|_| ())
            .ok_or(SmileError::UnknownRelation(rel))
    }

    /// True iff the relation exists here.
    pub fn has_relation(&self, rel: RelationId) -> bool {
        self.relations.contains_key(&rel)
    }

    fn slot(&self, rel: RelationId) -> Result<&RelationSlot> {
        self.relations
            .get(&rel)
            .ok_or(SmileError::UnknownRelation(rel))
    }

    fn slot_mut(&mut self, rel: RelationId) -> Result<&mut RelationSlot> {
        self.relations
            .get_mut(&rel)
            .ok_or(SmileError::UnknownRelation(rel))
    }

    /// Read access to a relation slot.
    pub fn relation(&self, rel: RelationId) -> Result<&RelationSlot> {
        self.slot(rel)
    }

    /// **Delta capture path**: applies an application update batch to a base
    /// relation, recording every entry in the delta log and applying it to
    /// the table. The log is capture order, so each entry is stamped no
    /// earlier than the log's end — the entry captured before it — and no
    /// earlier than just past the newest instant this machine's base
    /// relations were read as of ([`Database::vouch`]): an entry stamped
    /// behind what a reader has already consumed lands where every reader
    /// still sees it. An in-order stream keeps its stamps. The table's
    /// timestamp advances to the last stamp (base relations are always
    /// current on their home machine).
    pub fn ingest(&mut self, rel: RelationId, mut batch: DeltaBatch) -> Result<()> {
        let floor = self.read_floor;
        let slot = self.slot_mut(rel)?;
        let mut end = slot.delta.end().max(floor);
        for e in &mut batch.entries {
            e.ts = e.ts.max(end);
            end = e.ts;
        }
        let through = batch.entries.last().map_or(slot.table.ts(), |e| e.ts.max(slot.table.ts()));
        slot.table.apply(&batch, through).map_err(naming(rel))?;
        slot.delta.append_batch(batch)
    }

    /// Records that this machine's base relations were read as of `at` — by
    /// an agent's heartbeat, or by a seed's snapshot — so that
    /// [`Database::ingest`] stamps every later entry past it.
    pub fn vouch(&mut self, at: Timestamp) {
        self.read_floor = self.read_floor.max(at + SimDuration::from_micros(1));
    }

    /// **Executor path**: appends shipped delta entries to a relation's
    /// delta log *without* applying them (they are pending until a
    /// `DeltaToRel` push applies them). A batch that would reach behind the
    /// log's end is refused ([`DeltaTable::append_batch`]).
    pub fn append_delta(&mut self, rel: RelationId, batch: DeltaBatch) -> Result<()> {
        self.slot_mut(rel)?.delta.append_batch(batch)
    }

    /// **Executor path**: idempotent variant of [`Database::append_delta`]
    /// for retried pushes. `producer` is the push edge, `through` the end of
    /// the window it moved, and the slot keeps the highest end landed per
    /// producer. A window ending at or below that mark — a push that landed
    /// but lost its acknowledgement, or an older window after a wider one —
    /// is skipped outright; one that overlaps it (an abandoned push, then a
    /// wider one) has the landed prefix clipped, so retried pushes never
    /// double-apply z-set deltas. The mark moves only once the batch is in
    /// the log: a refused append moves neither. Returns `true` when
    /// anything was appended. `_batch_id` is not read — a repeated id
    /// repeats its `through` — and stays because the frozen harness passes
    /// it (ROADMAP item 3).
    pub fn append_delta_dedup(
        &mut self,
        rel: RelationId,
        mut batch: DeltaBatch,
        _batch_id: u64,
        producer: u64,
        through: Timestamp,
    ) -> Result<bool> {
        let slot = self.slot_mut(rel)?;
        let mark = slot.shipped_through.get(&producer).copied().unwrap_or_default();
        if through <= mark {
            return Ok(false);
        }
        if mark != Timestamp::ZERO {
            batch.entries.retain(|e| e.ts > mark);
        }
        slot.delta.append_batch(batch)?;
        slot.shipped_through.insert(producer, through);
        Ok(true)
    }

    /// [`Database::append_delta_dedup`] fed from a WAL [`Frame`]. Every row
    /// is decoded before the books move, so a row that fails to decode
    /// leaves the log and the watermark as they were.
    ///
    /// [`Frame`]: crate::wal::Frame
    pub fn append_frame_dedup(
        &mut self,
        rel: RelationId,
        frame: &crate::wal::Frame,
        batch_id: u64,
        producer: u64,
        through: Timestamp,
    ) -> Result<bool> {
        self.append_delta_dedup(rel, frame.to_batch()?, batch_id, producer, through)
    }

    /// **Executor path**: applies the pending delta window
    /// `(table.ts, through]` to the table (the `DeltaToRel` operator).
    /// Returns the number of entries applied.
    pub fn apply_pending(&mut self, rel: RelationId, through: Timestamp) -> Result<usize> {
        let slot = self.slot_mut(rel)?;
        let from = slot.table.ts();
        if through <= from {
            // Idempotent: the vertex is already at or past the target.
            return Ok(0);
        }
        // Disjoint field borrows: the table applies straight from the delta
        // log's borrowed window slice — no per-batch clone of the window.
        let window = slot.delta.window_ref(from, through);
        slot.table.apply_entries(window, through).map_err(naming(rel))?;
        Ok(window.len())
    }

    /// Seeds a relation's table with initial contents at `ts` (used when a
    /// plan vertex is materialized from a ground-truth evaluation). The
    /// delta log is not touched: the slot's delta vertex may have had it
    /// first, and its readers can be mid-window on entries at or below
    /// `ts`. Refused if the table has contents (a double seed) or the log
    /// is already cut past `ts` (the table could not catch up from it).
    pub fn seed_relation(&mut self, rel: RelationId, rows: ZSet, ts: Timestamp) -> Result<()> {
        let slot = self.slot_mut(rel)?;
        if !slot.table.is_empty() || ts < slot.delta.horizon() {
            return Err(SmileError::Internal(format!(
                "relation {rel} has contents or a log cut past {ts}; refusing to seed"
            )));
        }
        let batch: DeltaBatch = rows
            .into_iter_entries()
            .map(|(tuple, weight)| DeltaEntry { tuple, weight, ts })
            .collect();
        slot.table.apply(&batch, ts).map_err(naming(rel))
    }

    /// Empties a relation's table and keeps its delta log: the relation
    /// vertex gave the slot up, its delta twin still lands windows in it.
    pub fn clear_table(&mut self, rel: RelationId) -> Result<()> {
        self.slot_mut(rel)?.table.clear();
        Ok(())
    }

    /// Takes one reader of the unpartitioned arrangement keyed by `cols` on
    /// the relation ([`Database::ensure`]).
    pub fn ensure_index(&mut self, rel: RelationId, cols: &[usize]) -> Result<()> {
        self.ensure(rel, &SlotIndex::Arrangement(IndexCols::unpartitioned(cols)))
    }

    /// Takes one reader of `index` on the relation; the first installs it.
    /// [`Database::release`] lets the reader go.
    pub fn ensure(&mut self, rel: RelationId, index: &SlotIndex) -> Result<()> {
        let slot = self.slot_mut(rel)?;
        match index {
            SlotIndex::Arrangement(on) => slot.table.ensure_arrangement(on),
            SlotIndex::Log(cols) => slot.delta.ensure_partition(cols),
        }
        Ok(())
    }

    /// Lets one reader of `index` on the relation go; the last drops the
    /// index, reclaiming its memory. Returns whether it was dropped. An
    /// index not installed was never taken, which is an error.
    pub fn release(&mut self, rel: RelationId, index: &SlotIndex) -> Result<bool> {
        let slot = self.slot_mut(rel)?;
        let released = match index {
            SlotIndex::Arrangement(on) => slot.table.release_arrangement(on),
            SlotIndex::Log(cols) => slot.delta.release_partition(cols),
        };
        released.ok_or_else(|| SmileError::Internal(format!("{index:?} released on {rel}, not installed")))
    }

    /// Current timestamp `TS(v)` of a relation vertex.
    pub fn relation_ts(&self, rel: RelationId) -> Result<Timestamp> {
        Ok(self.slot(rel)?.table.ts())
    }

    /// Reads the delta window `(lo, hi]` of a relation (the `CopyDelta`
    /// read side).
    pub fn delta_window(
        &self,
        rel: RelationId,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Result<DeltaBatch> {
        Ok(self.slot(rel)?.delta.window(lo, hi))
    }

    /// The entries of the delta window `(lo, hi]` that pass `filter`,
    /// borrowed from the log in log order ([`DeltaTable::window_filtered`]:
    /// through the log partition on the filter's literals when one is
    /// installed).
    pub fn delta_window_filtered<'a>(
        &'a self,
        rel: RelationId,
        lo: Timestamp,
        hi: Timestamp,
        filter: &'a Predicate,
    ) -> Result<impl Iterator<Item = &'a DeltaEntry> + 'a> {
        Ok(self.slot(rel)?.delta.window_filtered(lo, hi, filter))
    }

    /// Ship-side fast path: encodes the delta window `(lo, hi]` as a WAL
    /// frame, applying the edge's filter and projection during encoding.
    /// One pass from the log to wire bytes — no intermediate `DeltaBatch`,
    /// no per-row `Tuple` allocation — that visits only the filter's
    /// literal's entries when the log is partitioned on its columns.
    /// Byte-identical to materializing the filtered window and calling
    /// [`crate::wal::encode`].
    pub fn delta_window_encode(
        &self,
        rel: RelationId,
        lo: Timestamp,
        hi: Timestamp,
        filter: &Predicate,
        projection: Option<&[usize]>,
    ) -> Result<crate::wal::Bytes> {
        let rows = self.delta_window_filtered(rel, lo, hi, filter)?;
        Ok(crate::wal::ColumnarBatch::from_rows(rows, projection).frame())
    }

    /// Every relation stored here, in unspecified order.
    pub fn relations(&self) -> impl Iterator<Item = (RelationId, &RelationSlot)> {
        self.relations.iter().map(|(&rel, slot)| (rel, slot))
    }

    /// Snapshot of a relation as of `at` (compensation read).
    pub fn snapshot_at(&self, rel: RelationId, at: Timestamp) -> Result<ZSet> {
        let slot = self.slot(rel)?;
        slot.table.snapshot_at(&slot.delta, at)
    }

    /// Cuts a relation's delta log through `before`
    /// ([`DeltaTable::compact`]); returns the entries newly cut, which
    /// [`DeltaTable::reclaim`] frees later.
    pub fn compact(&mut self, rel: RelationId, before: Timestamp) -> Result<usize> {
        Ok(self.slot_mut(rel)?.delta.compact(before))
    }

    /// A relation's delta log, for compaction to cut and reclaim it;
    /// `None` when the relation is not stored here.
    pub fn log_mut(&mut self, rel: RelationId) -> Option<&mut DeltaTable> {
        self.relations.get_mut(&rel).map(|slot| &mut slot.delta)
    }

    /// Sum of materialized bytes across all relations (disk metering).
    pub fn total_bytes(&self) -> usize {
        self.relations.values().map(|s| s.table.byte_size()).sum()
    }

    /// Number of arrangements installed across all relations.
    pub fn arrangement_count(&self) -> usize {
        self.relations
            .values()
            .map(|s| s.table.arrangements().count())
            .sum()
    }

    /// WAL traffic instrumentation cells: the executor's ship half notes
    /// encoded bytes leaving, the land half notes decoded bytes arriving.
    /// Interior cells, so both halves record through `&Database`.
    pub fn wal_stats(&self) -> &crate::wal::WalStats {
        &self.wal
    }

    /// Point-in-time copy of this database's WAL traffic counters.
    pub fn wal_counters(&self) -> crate::wal::WalCounters {
        self.wal.counters()
    }

    /// Summed arrangement probe/maintenance counters across all relations.
    pub fn arrangement_counters(&self) -> crate::arrangement::ArrangementCounters {
        let mut total = crate::arrangement::ArrangementCounters::default();
        for slot in self.relations.values() {
            total.add(&slot.table.arrangement_counters());
        }
        total
    }

    /// Total pending (not yet applied) delta entries across relations; used
    /// by the stability monitor of the scaling experiments (Figure 11).
    pub fn total_pending_entries(&self) -> usize {
        self.relations
            .values()
            .map(|s| {
                let from = s.table.ts();
                s.delta.count_window(from, Timestamp::MAX)
            })
            .sum()
    }
}

impl RelationProvider for Database {
    fn schema(&self, rel: RelationId) -> Result<Schema> {
        Ok(self.slot(rel)?.table.schema().clone())
    }

    fn rows(&self, rel: RelationId) -> Result<ZSet> {
        Ok(self.slot(rel)?.table.rows().collect())
    }
}

/// Names `rel` in a schema error its table raised (a table has no id).
fn naming(rel: RelationId) -> impl Fn(SmileError) -> SmileError {
    move |e| match e {
        SmileError::SchemaMismatch { detail, .. } => SmileError::SchemaMismatch { relation: rel, detail },
        e => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smile_types::{tuple, Column, ColumnType};

    const R: RelationId = RelationId(0);

    fn schema() -> Schema {
        Schema::new(
            vec![
                Column::new("uid", ColumnType::I64),
                Column::new("name", ColumnType::Str),
            ],
            vec![0],
        )
    }

    fn ins(k: i64, name: &str, ts: u64) -> DeltaEntry {
        DeltaEntry::insert(tuple![k, name], Timestamp::from_secs(ts))
    }

    fn db() -> Database {
        let mut d = Database::new();
        d.create_relation(R, schema()).unwrap();
        d
    }

    #[test]
    fn ingest_applies_and_captures() {
        let mut d = db();
        d.ingest(R, [ins(1, "ann", 5)].into_iter().collect())
            .unwrap();
        assert_eq!(d.relation_ts(R).unwrap(), Timestamp::from_secs(5));
        assert_eq!(d.relation(R).unwrap().table.len(), 1);
        assert_eq!(d.relation(R).unwrap().delta.len(), 1);
    }

    /// Ingest keeps an in-order stream's stamps, and stamps an entry behind
    /// the instant the base was read as of, or behind the entry before it,
    /// at the later of the two.
    #[test]
    fn ingest_stamps_past_what_was_read() {
        let (mut d, t) = (db(), Timestamp::from_secs);
        d.ingest(R, [ins(1, "ann", 2), ins(2, "bob", 4)].into_iter().collect()).unwrap();
        d.vouch(t(6));
        d.ingest(R, [ins(3, "cy", 1), ins(4, "di", 9), ins(5, "ed", 8)].into_iter().collect()).unwrap();
        let stamps: Vec<Timestamp> = d.relation(R).unwrap().delta.iter().map(|e| e.ts).collect();
        assert_eq!(stamps, [t(2), t(4), t(6) + SimDuration::from_micros(1), t(9), t(9)]);
        assert_eq!(d.relation_ts(R).unwrap(), t(9));
    }

    /// A batch with one row off the schema is refused whole, and the error
    /// names the relation: the table, its log and `TS` are as they were,
    /// so the table still matches its log. Seeding is refused the same way.
    #[test]
    fn a_refused_batch_changes_nothing() {
        let mut d = db();
        let short = || DeltaEntry::insert(tuple![2i64], Timestamp::from_secs(1));
        let refused = d.ingest(R, [ins(1, "ann", 1), short()].into_iter().collect());
        assert!(matches!(refused, Err(SmileError::SchemaMismatch { relation: R, .. })));
        let slot = d.relation(R).unwrap();
        assert!(slot.table.is_empty() && slot.table.rows().next().is_none());
        assert_eq!((slot.delta.len(), slot.table.ts()), (0, Timestamp::ZERO));

        let rows = ZSet::from_tuples([tuple![1i64, "ann"], tuple![2i64]]);
        let refused = d.seed_relation(R, rows, Timestamp::from_secs(5));
        assert!(matches!(refused, Err(SmileError::SchemaMismatch { relation: R, .. })));
        let slot = d.relation(R).unwrap();
        assert!(slot.table.is_empty() && slot.table.rows().next().is_none());
        assert_eq!((slot.delta.len(), slot.table.ts()), (0, Timestamp::ZERO));
    }

    /// A literal-filtered ship encodes the same bytes whether or not the
    /// log is partitioned on the literal's column, and both are the bytes
    /// of encoding the filtered, projected window.
    #[test]
    fn a_partitioned_ship_encodes_the_same_bytes() {
        use crate::predicate::CmpOp;
        let mut d = db();
        let names = ["ann", "bob", "cy"];
        let rows = (0..30).map(|i| ins(i, names[i as usize % 3], 1 + i as u64 / 4));
        d.append_delta(R, rows.collect()).unwrap();
        d.compact(R, Timestamp::from_secs(2)).unwrap();
        let bob = Predicate::eq(1, "bob").and(Predicate::cmp(0, CmpOp::Ge, 10i64));
        let (lo, hi) = (Timestamp::from_secs(3), Timestamp::from_secs(7));
        let scanned = d.delta_window_encode(R, lo, hi, &bob, Some(&[1, 0])).unwrap();
        d.ensure(R, &SlotIndex::Log(vec![1])).unwrap();
        let read = d.delta_window_encode(R, lo, hi, &bob, Some(&[1, 0])).unwrap();
        assert_eq!(read, scanned);
        let kept = d.delta_window(R, lo, hi).unwrap().entries.into_iter().filter(|e| bob.eval(&e.tuple));
        let projected = kept.map(|e| DeltaEntry { tuple: e.tuple.project(&[1, 0]), ..e });
        let expected = crate::wal::encode(&projected.collect());
        assert_eq!(read, expected);
        assert!(crate::wal::decode(read).unwrap().len() > 1);
    }

    #[test]
    fn append_then_apply_pending() {
        let mut d = db();
        d.append_delta(
            R,
            [ins(1, "ann", 3), ins(2, "bob", 6)].into_iter().collect(),
        )
        .unwrap();
        assert_eq!(d.relation(R).unwrap().table.len(), 0);
        let n = d.apply_pending(R, Timestamp::from_secs(4)).unwrap();
        assert_eq!(n, 1);
        assert_eq!(d.relation_ts(R).unwrap(), Timestamp::from_secs(4));
        let n2 = d.apply_pending(R, Timestamp::from_secs(10)).unwrap();
        assert_eq!(n2, 1);
        assert_eq!(d.relation(R).unwrap().table.len(), 2);
    }

    #[test]
    fn apply_pending_is_idempotent() {
        let mut d = db();
        d.append_delta(R, [ins(1, "ann", 3)].into_iter().collect())
            .unwrap();
        d.apply_pending(R, Timestamp::from_secs(5)).unwrap();
        assert_eq!(d.apply_pending(R, Timestamp::from_secs(5)).unwrap(), 0);
        assert_eq!(d.apply_pending(R, Timestamp::from_secs(2)).unwrap(), 0);
        assert_eq!(d.relation_ts(R).unwrap(), Timestamp::from_secs(5));
    }

    /// A row that fails to decode reaches the landing as a typed error —
    /// `Frame::parse` checks the layout only — and the slot's books are as
    /// they were before the call.
    #[test]
    fn a_frame_row_that_fails_to_decode_moves_no_book() {
        use crate::wal::{self, Frame};
        let (mut d, t) = (db(), Timestamp::from_secs);
        let good = [ins(1, "ann", 1)].into_iter().collect();
        assert!(d.append_delta_dedup(R, good, 0, 7, t(1)).unwrap());

        let batch = [ins(2, "bob", 2), ins(3, "cat", 3)].into_iter().collect();
        let mut raw = wal::encode(&batch).to_vec();
        let last_row_tag = raw.len() - (1 + 4 + 3);
        raw[last_row_tag] = 99; // the second row's string tag
        let frame = Frame::parse(wal::Bytes::from(raw)).unwrap();
        let landed = d.append_frame_dedup(R, &frame, 1, 7, t(3));
        assert!(matches!(landed, Err(SmileError::WalCorrupt(_))));
        let slot = d.relation(R).unwrap();
        assert_eq!(slot.delta.len(), 1, "the frame's first row must not land");
        assert_eq!(slot.shipped_through[&7], t(1));
        // So the producer's re-shipment of the same window lands whole.
        let frame = Frame::parse(wal::encode(&batch)).unwrap();
        assert!(d.append_frame_dedup(R, &frame, 1, 7, t(3)).unwrap());
        assert_eq!(d.relation(R).unwrap().delta.len(), 3);
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut d = db();
        assert!(d.create_relation(R, schema()).is_err());
    }

    #[test]
    fn drop_then_access_fails() {
        let mut d = db();
        d.drop_relation(R).unwrap();
        assert!(matches!(
            d.relation_ts(R),
            Err(SmileError::UnknownRelation(_))
        ));
        assert!(d.drop_relation(R).is_err());
    }

    #[test]
    fn snapshot_reads_through_provider() {
        let mut d = db();
        d.ingest(
            R,
            [ins(1, "ann", 1), ins(2, "bob", 2)].into_iter().collect(),
        )
        .unwrap();
        let snap = d.snapshot_at(R, Timestamp::from_secs(1)).unwrap();
        assert_eq!(snap.cardinality(), 1);
        let rows = d.rows(R).unwrap();
        assert_eq!(rows.cardinality(), 2);
        assert_eq!(d.schema(R).unwrap().arity(), 2);
    }

    #[test]
    fn seed_sets_contents_and_horizon() {
        let mut d = db();
        let rows = crate::zset::ZSet::from_tuples([tuple![1i64, "ann"], tuple![2i64, "bob"]]);
        d.seed_relation(R, rows, Timestamp::from_secs(5)).unwrap();
        // The creator of a slot starts its log at the seed time.
        d.compact(R, Timestamp::from_secs(5)).unwrap();
        assert_eq!(d.relation(R).unwrap().table.len(), 2);
        assert_eq!(d.relation_ts(R).unwrap(), Timestamp::from_secs(5));
        // Snapshots before the seed time are refused.
        assert!(d.snapshot_at(R, Timestamp::from_secs(1)).is_err());
        assert!(d.snapshot_at(R, Timestamp::from_secs(5)).is_ok());
        // Re-seeding a non-empty relation is refused.
        let again = crate::zset::ZSet::from_tuples([tuple![3i64, "cat"]]);
        assert!(d.seed_relation(R, again, Timestamp::from_secs(6)).is_err());
    }

    /// A relation vertex can adopt the slot its delta twin has been landing
    /// windows in: seeding the table must leave the log to its readers.
    #[test]
    fn seeding_keeps_log_entries_another_reader_has_not_consumed() {
        let (mut d, t) = (db(), Timestamp::from_secs);
        let log = [ins(1, "ann", 3), ins(2, "bob", 6)].into_iter().collect();
        d.append_delta(R, log).unwrap();
        let rows = crate::zset::ZSet::from_tuples([tuple![1i64, "ann"]]);
        d.seed_relation(R, rows.clone(), t(5)).unwrap();
        // The join reading this log is still at t=2: its next window is whole.
        assert_eq!(d.delta_window(R, t(2), t(6)).unwrap().len(), 2);
        assert_eq!(d.relation(R).unwrap().delta.horizon(), Timestamp::ZERO);
        // And the table applies only what lies past its seed.
        assert_eq!(d.apply_pending(R, t(6)).unwrap(), 1);
        assert_eq!(d.relation(R).unwrap().table.len(), 2);
        // The relation vertex gives the slot up: the rows go, the log stays.
        d.clear_table(R).unwrap();
        assert!(d.relation(R).unwrap().table.is_empty());
        assert_eq!(d.relation(R).unwrap().delta.len(), 2);
        // Its next seed must reach back to where the log has since been cut.
        d.compact(R, t(6)).unwrap();
        assert!(d.seed_relation(R, rows.clone(), t(5)).is_err());
        d.seed_relation(R, rows, t(6)).unwrap();
    }

    #[test]
    fn ensure_index_through_database() {
        let mut d = db();
        d.ingest(R, [ins(1, "ann", 1)].into_iter().collect())
            .unwrap();
        d.ensure_index(R, &[1]).unwrap();
        assert!(d.relation(R).unwrap().table.arrangement(&[1]).is_some());
        assert!(d.ensure_index(RelationId::new(9), &[0]).is_err());
        let by_name = SlotIndex::Arrangement(IndexCols { partition: vec![1], key: vec![0] });
        let (on_name, by_uid) = (SlotIndex::Arrangement(IndexCols::unpartitioned(&[1])), SlotIndex::Log(vec![0]));
        d.ensure(R, &by_uid).unwrap();
        d.ensure(R, &by_name).unwrap();
        d.ensure(R, &by_uid).unwrap();
        assert_eq!(d.arrangement_count(), 2, "partitioned is another arrangement");
        let listed: Vec<_> = d.relation(R).unwrap().indexes().collect();
        assert_eq!(listed, [(on_name, 1), (by_name.clone(), 1), (by_uid.clone(), 2)]);
        assert!(d.release(R, &by_name).unwrap() && !d.release(R, &by_uid).unwrap());
        assert!(d.release(R, &by_uid).unwrap());
        assert!(d.release(R, &by_name).is_err() && d.release(RelationId::new(9), &by_uid).is_err());
        assert!(d.relation(R).unwrap().table.arrangement(&[1]).is_some());
    }

    #[test]
    fn pending_entries_counted() {
        let mut d = db();
        d.append_delta(R, [ins(1, "a", 1), ins(2, "b", 2)].into_iter().collect())
            .unwrap();
        assert_eq!(d.total_pending_entries(), 2);
        d.apply_pending(R, Timestamp::from_secs(1)).unwrap();
        assert_eq!(d.total_pending_entries(), 1);
    }
}
