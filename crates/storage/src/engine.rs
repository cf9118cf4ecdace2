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
use crate::spj::RelationProvider;
use crate::table::Table;
use crate::zset::ZSet;
use smile_types::{RelationId, Result, Schema, SmileError, Timestamp};
use std::collections::HashMap;

/// One relation slot: materialized contents plus the captured delta log.
#[derive(Clone, Debug)]
pub struct RelationSlot {
    /// Materialized contents.
    pub table: Table,
    /// Captured / shipped delta entries.
    pub delta: DeltaTable,
    /// Per-producer end of the highest window landed: what makes a retried
    /// push idempotent (see [`Database::append_delta_dedup`]).
    pub shipped_through: HashMap<u64, Timestamp>,
}

/// A single machine's database instance.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: HashMap<RelationId, RelationSlot>,
    wal: crate::wal::WalStats,
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
                shipped_through: HashMap::new(),
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
    /// the table. The table's timestamp advances to the batch's max
    /// timestamp (base relations are always current on their home machine).
    pub fn ingest(&mut self, rel: RelationId, batch: DeltaBatch) -> Result<()> {
        self.ingest_above(rel, batch, Timestamp::ZERO)
    }

    /// [`Database::ingest`] with every stamp below `floor` raised to it (the
    /// platform's seed floor), in the same walk that finds the batch's max
    /// timestamp.
    pub fn ingest_above(
        &mut self,
        rel: RelationId,
        mut batch: DeltaBatch,
        floor: Timestamp,
    ) -> Result<()> {
        let slot = self.slot_mut(rel)?;
        let mut through = slot.table.ts();
        for e in &mut batch.entries {
            e.ts = e.ts.max(floor);
            through = through.max(e.ts);
        }
        slot.table.apply(&batch, through).map_err(naming(rel))?;
        slot.delta.append_batch(batch);
        Ok(())
    }

    /// **Executor path**: appends shipped delta entries to a relation's
    /// delta log *without* applying them (they are pending until a
    /// `DeltaToRel` push applies them).
    pub fn append_delta(&mut self, rel: RelationId, batch: DeltaBatch) -> Result<()> {
        self.slot_mut(rel)?.delta.append_batch(batch);
        Ok(())
    }

    /// **Executor path**: idempotent variant of [`Database::append_delta`]
    /// for retried pushes. `producer` is the push edge, `through` the end of
    /// the window it moved, and the slot keeps the highest end landed per
    /// producer. A window ending at or below that mark — a push that landed
    /// but lost its acknowledgement, or an older window after a wider one —
    /// is skipped outright; one that overlaps it (an abandoned push, then a
    /// wider one) has the landed prefix clipped, so retried pushes never
    /// double-apply z-set deltas. Returns `true` when anything was appended.
    /// `_batch_id` is not read — a repeated id repeats its `through` — and
    /// stays because the frozen harness passes it (ROADMAP item 3).
    pub fn append_delta_dedup(
        &mut self,
        rel: RelationId,
        mut batch: DeltaBatch,
        _batch_id: u64,
        producer: u64,
        through: Timestamp,
    ) -> Result<bool> {
        let slot = self.slot_mut(rel)?;
        let mark = slot.shipped_through.entry(producer).or_default();
        if through <= *mark {
            return Ok(false);
        }
        if *mark != Timestamp::ZERO {
            batch.entries.retain(|e| e.ts > *mark);
        }
        *mark = through;
        slot.delta.append_batch(batch);
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

    /// Ensures the unpartitioned arrangement keyed by `cols` exists for the
    /// relation.
    pub fn ensure_index(&mut self, rel: RelationId, cols: &[usize]) -> Result<()> {
        self.ensure_arrangement(rel, &IndexCols::unpartitioned(cols))
    }

    /// Ensures the arrangement `on` exists for the relation.
    pub fn ensure_arrangement(&mut self, rel: RelationId, on: &IndexCols) -> Result<()> {
        self.slot_mut(rel)?.table.ensure_arrangement(on);
        Ok(())
    }

    /// Drops the arrangement `on`, reclaiming its memory. Returns `true`
    /// when one existed. Unknown relations are fine (the whole relation may
    /// already have been dropped).
    pub fn drop_arrangement(&mut self, rel: RelationId, on: &IndexCols) -> bool {
        self.relations
            .get_mut(&rel)
            .is_some_and(|s| s.table.drop_arrangement(on))
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

    /// Borrows the delta window `(lo, hi]` straight from the log — the
    /// zero-copy read the columnar hot path uses instead of
    /// [`Database::delta_window`]'s per-entry clone.
    pub fn delta_window_entries(
        &self,
        rel: RelationId,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Result<&[DeltaEntry]> {
        Ok(self.slot(rel)?.delta.window_ref(lo, hi))
    }

    /// Ship-side fast path: encodes the delta window `(lo, hi]` as a WAL
    /// frame, applying the edge's filter and projection during encoding.
    /// One pass from the log slice to wire bytes — no intermediate
    /// `DeltaBatch`, no per-row `Tuple` allocation. Byte-identical to
    /// materializing the filtered window and calling [`crate::wal::encode`].
    pub fn delta_window_encode(
        &self,
        rel: RelationId,
        lo: Timestamp,
        hi: Timestamp,
        filter: &crate::predicate::Predicate,
        projection: Option<&[usize]>,
    ) -> Result<crate::wal::Bytes> {
        let window = self.slot(rel)?.delta.window_ref(lo, hi);
        Ok(crate::wal::ColumnarBatch::from_window(window, filter, projection).frame())
    }

    /// Snapshot of a relation as of `at` (compensation read).
    pub fn snapshot_at(&self, rel: RelationId, at: Timestamp) -> Result<ZSet> {
        let slot = self.slot(rel)?;
        slot.table.snapshot_at(&slot.delta, at)
    }

    /// Compacts a relation's delta log up to `before`; returns entries
    /// dropped.
    pub fn compact(&mut self, rel: RelationId, before: Timestamp) -> Result<usize> {
        Ok(self.slot_mut(rel)?.delta.compact(before))
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
        let by_name = IndexCols { partition: vec![1], key: vec![0] };
        d.ensure_arrangement(R, &by_name).unwrap();
        assert_eq!(d.arrangement_count(), 2, "partitioned is another arrangement");
        assert!(d.drop_arrangement(R, &by_name));
        assert!(!d.drop_arrangement(R, &by_name));
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
