//! Materialized relation storage.
//!
//! A [`Table`] stores the current contents of a relation (base relation,
//! intermediate join result, or MV) as a z-set whose weights are positive,
//! together with the timestamp the contents are consistent with. Paired with
//! its [`DeltaTable`] it supports **snapshot
//! reads** at nearby timestamps — the compensation primitive of asynchronous
//! view maintenance: subtract deltas newer than the requested snapshot, or
//! add not-yet-applied deltas to look forward.

use crate::arrangement::{Arrangement, ArrangementCounters, IndexCols};
use crate::delta::{DeltaBatch, DeltaEntry, DeltaTable};
use crate::zset::ZSet;
use smile_types::{FastMap, Schema, SmileError, Timestamp, Tuple, Value};
use std::borrow::Borrow;
use std::cell::OnceCell;

/// The materialized contents of a relation plus its applied-through
/// timestamp and the indexes its readers hold.
#[derive(Clone, Debug)]
pub struct Table {
    schema: Schema,
    rows: ZSet,
    /// PK → tuple index of a keyed set relation (weights exactly one). Its
    /// one reader is [`Table::get_by_key`], so it comes to exist on the
    /// first such read, built from `rows`, and is maintained per entry only
    /// from then on; a table nobody reads by key never pays for one. Not an
    /// arrangement: no plan edge installs or probes it.
    pk_index: OnceCell<FastMap<Tuple, Tuple>>,
    /// Shared arrangements, one per distinct [`IndexCols`], maintained
    /// incrementally; join edges declare the arrangement they probe at
    /// install time so pushes never scan the full relation, and every edge
    /// probing the same index columns shares one. A table holds a handful,
    /// so they are found by a scan.
    arrangements: Vec<Arrangement>,
    /// The contents are consistent with the sources as of this timestamp —
    /// `TS(v)` in the paper's notation.
    ts: Timestamp,
}

impl Table {
    /// Empty table with the given schema at timestamp zero.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            rows: ZSet::new(),
            pk_index: OnceCell::new(),
            arrangements: Vec::new(),
            ts: Timestamp::ZERO,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Applied-through timestamp `TS(v)`.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// Current contents as a z-set.
    pub fn rows(&self) -> &ZSet {
        &self.rows
    }

    /// Number of distinct rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Looks up the current row with the given primary key — a key `Tuple`
    /// or a borrowed slice of key values — if the schema is keyed and such a
    /// row exists. The first call builds the key index from the current rows.
    pub fn get_by_key<K: Borrow<[Value]> + ?Sized>(&self, key: &K) -> Option<&Tuple> {
        if self.schema.key().is_empty() {
            return None;
        }
        let index = self.pk_index.get_or_init(|| {
            let keyed = |(t, _): (&Tuple, i64)| (self.schema.key_of(t), t.clone());
            self.rows.iter().map(keyed).collect()
        });
        index.get(key.borrow())
    }

    /// Applies a batch of deltas, advancing the applied-through timestamp to
    /// at least `through` (callers pass the push target timestamp; batches
    /// may be empty when the window had no updates).
    ///
    /// Returns an error if a tuple does not match the schema.
    pub fn apply(&mut self, batch: &DeltaBatch, through: Timestamp) -> Result<(), SmileError> {
        self.apply_entries(&batch.entries, through)
    }

    /// [`apply`] driven by a borrowed entry slice — lets the engine apply a
    /// delta-log window in place without cloning it into a batch first.
    ///
    /// [`apply`]: Table::apply
    pub fn apply_entries(
        &mut self,
        entries: &[DeltaEntry],
        through: Timestamp,
    ) -> Result<(), SmileError> {
        // Reused across entries: the key a built `pk_index` is reached by.
        let mut key = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            if !self.schema.admits(&e.tuple) {
                return Err(SmileError::SchemaMismatch {
                    relation: smile_types::RelationId::new(u32::MAX),
                    detail: format!("tuple {:?} does not match schema {}", e.tuple, self.schema),
                });
            }
            if let Some(index) = self.pk_index.get_mut() {
                let cols = self.schema.key();
                // An update — a delete, then an insert of the same key, the
                // pair an aggregate emits for every surviving group — leaves
                // the delete nothing to do: its insert replaces the row.
                let updated_next = e.weight <= 0
                    && entries.get(i + 1).is_some_and(|n| {
                        n.weight > 0
                            && self.schema.admits(&n.tuple)
                            && cols.iter().all(|&c| n.tuple.get(c) == e.tuple.get(c))
                    });
                if !updated_next {
                    key.clear();
                    key.extend(cols.iter().map(|&c| e.tuple.get(c).clone()));
                    if e.weight <= 0 {
                        index.remove(key.as_slice());
                    } else if let Some(row) = index.get_mut(key.as_slice()) {
                        *row = e.tuple.clone();
                    } else {
                        index.insert(key.drain(..).collect(), e.tuple.clone());
                    }
                }
            }
            for arr in &mut self.arrangements {
                arr.update(&e.tuple, e.weight);
            }
            self.rows.add(e.tuple.clone(), e.weight);
        }
        if through > self.ts {
            self.ts = through;
        }
        Ok(())
    }

    /// Builds the arrangement `on` from the current contents (idempotent —
    /// an existing arrangement with the same index columns is shared, not
    /// rebuilt); subsequent applies maintain it incrementally.
    pub fn ensure_arrangement(&mut self, on: &IndexCols) {
        if self.arrangement_on(on).is_none() {
            self.arrangements.push(Arrangement::build(on.clone(), &self.rows));
        }
    }

    /// Probes the unpartitioned arrangement on `cols`: all current rows whose
    /// `cols` projection equals `key`. `None` when no such arrangement is
    /// installed. Counts toward the arrangement's hit/miss statistics.
    pub fn probe_index(&self, cols: &[usize], key: &Tuple) -> Option<&FastMap<Tuple, i64>> {
        Some(self.arrangement(cols)?.probe(key))
    }

    /// Drops the arrangement `on`, freeing its memory. Returns `true` when
    /// one existed. The reverse of [`Table::ensure_arrangement`], used when
    /// the last plan edge probing it is retired.
    pub fn drop_arrangement(&mut self, on: &IndexCols) -> bool {
        let before = self.arrangements.len();
        self.arrangements.retain(|a| a.on() != on);
        self.arrangements.len() < before
    }

    /// The arrangement `on`, if one was installed.
    pub fn arrangement_on(&self, on: &IndexCols) -> Option<&Arrangement> {
        self.arrangements.iter().find(|a| a.on() == on)
    }

    /// The unpartitioned arrangement keyed by exactly `cols`, if one was
    /// installed.
    pub fn arrangement(&self, cols: &[usize]) -> Option<&Arrangement> {
        let unpartitioned = |a: &&Arrangement| a.on().partition.is_empty() && a.on().key == cols;
        self.arrangements.iter().find(unpartitioned)
    }

    /// Iterates over every arrangement installed on this table.
    pub fn arrangements(&self) -> impl Iterator<Item = &Arrangement> {
        self.arrangements.iter()
    }

    /// Summed probe/maintenance counters across this table's arrangements.
    pub fn arrangement_counters(&self) -> ArrangementCounters {
        let mut total = ArrangementCounters::default();
        for arr in &self.arrangements {
            total.add(&arr.counters());
        }
        total
    }

    /// Snapshot of the contents as of timestamp `at`, reconstructed from the
    /// paired delta table. Works both backwards (compensate away newer
    /// deltas) and forwards (fold in not-yet-applied deltas), as long as the
    /// delta table still retains the needed window.
    pub fn snapshot_at(&self, delta: &DeltaTable, at: Timestamp) -> Result<ZSet, SmileError> {
        if at < delta.horizon() {
            return Err(SmileError::Internal(format!(
                "snapshot at {at} requested but delta table compacted through {}",
                delta.horizon()
            )));
        }
        let mut snap = self.rows.clone();
        if at < self.ts {
            // Roll back: remove the effect of entries in (at, ts].
            snap.merge_owned(delta.window(at, self.ts).to_zset().negated());
        } else if at > self.ts {
            // Roll forward: apply pending entries in (ts, at].
            snap.merge_owned(delta.window(self.ts, at).to_zset());
        }
        Ok(snap)
    }

    /// Clears all contents (used when re-seeding a copy). Arrangements stay
    /// installed (emptied) so the re-seed repopulates them incrementally.
    pub fn clear(&mut self) {
        self.rows = ZSet::new();
        self.pk_index.take();
        for arr in &mut self.arrangements {
            arr.clear();
        }
        self.ts = Timestamp::ZERO;
    }

    /// Total payload bytes of the current contents (disk metering).
    pub fn byte_size(&self) -> usize {
        self.rows.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smile_types::{tuple, Column, ColumnType};

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

    fn del(k: i64, name: &str, ts: u64) -> DeltaEntry {
        DeltaEntry::delete(tuple![k, name], Timestamp::from_secs(ts))
    }

    #[test]
    fn apply_maintains_rows_ts_and_pk() {
        let mut t = Table::new(schema());
        let batch: DeltaBatch = [ins(1, "ann", 1), ins(2, "bob", 2)].into_iter().collect();
        t.apply(&batch, Timestamp::from_secs(2)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.ts(), Timestamp::from_secs(2));
        assert_eq!(t.get_by_key(&tuple![1i64]), Some(&tuple![1i64, "ann"]));

        let upd: DeltaBatch = [del(1, "ann", 3), ins(1, "anna", 3)].into_iter().collect();
        t.apply(&upd, Timestamp::from_secs(3)).unwrap();
        assert_eq!(t.get_by_key(&tuple![1i64]), Some(&tuple![1i64, "anna"]));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn apply_rejects_schema_mismatch() {
        let mut t = Table::new(schema());
        let bad: DeltaBatch = [DeltaEntry::insert(tuple![1i64], Timestamp::ZERO)]
            .into_iter()
            .collect();
        assert!(t.apply(&bad, Timestamp::ZERO).is_err());
    }

    #[test]
    fn empty_batch_still_advances_ts() {
        let mut t = Table::new(schema());
        t.apply(&DeltaBatch::new(), Timestamp::from_secs(9))
            .unwrap();
        assert_eq!(t.ts(), Timestamp::from_secs(9));
    }

    #[test]
    fn snapshot_rolls_back_and_forward() {
        let mut t = Table::new(schema());
        let mut d = DeltaTable::new();
        for e in [ins(1, "ann", 1), ins(2, "bob", 2), ins(3, "cat", 3)] {
            d.append(e.clone());
        }
        // Apply only through ts=2 so entry at ts=3 is pending.
        t.apply(
            &d.window(Timestamp::ZERO, Timestamp::from_secs(2)),
            Timestamp::from_secs(2),
        )
        .unwrap();

        let back = t.snapshot_at(&d, Timestamp::from_secs(1)).unwrap();
        assert_eq!(back.cardinality(), 1);
        assert_eq!(back.weight(&tuple![1i64, "ann"]), 1);

        let fwd = t.snapshot_at(&d, Timestamp::from_secs(3)).unwrap();
        assert_eq!(fwd.cardinality(), 3);

        let now = t.snapshot_at(&d, Timestamp::from_secs(2)).unwrap();
        assert_eq!(&now, t.rows());
    }

    #[test]
    fn secondary_index_tracks_applies() {
        let mut t = Table::new(schema());
        t.ensure_arrangement(&IndexCols::unpartitioned(&[1]));
        t.apply(
            &[ins(1, "ann", 1), ins(2, "ann", 1), ins(3, "bob", 1)]
                .into_iter()
                .collect(),
            Timestamp::from_secs(1),
        )
        .unwrap();
        let anns = t.probe_index(&[1], &tuple!["ann"]).unwrap();
        assert_eq!(anns.len(), 2);
        t.apply(
            &[del(1, "ann", 2)].into_iter().collect(),
            Timestamp::from_secs(2),
        )
        .unwrap();
        let anns = t.probe_index(&[1], &tuple!["ann"]).unwrap();
        assert_eq!(anns.len(), 1);
        assert!(t.probe_index(&[1], &tuple!["zed"]).unwrap().is_empty());
        assert!(t.probe_index(&[0], &tuple![1i64]).is_none());
    }

    #[test]
    fn ensure_index_over_existing_rows() {
        let mut t = Table::new(schema());
        t.apply(
            &[ins(1, "ann", 1), ins(2, "ann", 1)].into_iter().collect(),
            Timestamp::from_secs(1),
        )
        .unwrap();
        t.ensure_arrangement(&IndexCols::unpartitioned(&[1]));
        assert_eq!(t.probe_index(&[1], &tuple!["ann"]).unwrap().len(), 2);
        // Idempotent.
        t.ensure_arrangement(&IndexCols::unpartitioned(&[1]));
        assert_eq!(t.probe_index(&[1], &tuple!["ann"]).unwrap().len(), 2);
    }

    /// Applies maintain a partitioned arrangement beside an unpartitioned
    /// one on the same key; the unpartitioned lookup never returns it.
    #[test]
    fn partitioned_arrangement_tracks_applies() {
        let mut t = Table::new(schema());
        let by_name = IndexCols { partition: vec![1], key: vec![0] };
        t.ensure_arrangement(&by_name);
        t.apply(
            &[ins(1, "ann", 1), ins(2, "bob", 1)].into_iter().collect(),
            Timestamp::from_secs(1),
        )
        .unwrap();
        assert!(t.arrangement(&[0]).is_none());
        t.ensure_arrangement(&IndexCols::unpartitioned(&[0]));
        assert_eq!(t.arrangements().count(), 2);
        let arr = t.arrangement_on(&by_name).unwrap();
        let ann = arr.partition(&[Value::str("ann")]);
        assert_eq!(ann.probe(&[Value::I64(1)]).len(), 1);
        assert!(ann.probe(&[Value::I64(2)]).is_empty());
        assert_eq!(t.probe_index(&[0], &tuple![2i64]).unwrap().len(), 1);
        assert!(t.drop_arrangement(&by_name));
        assert_eq!(t.arrangements().count(), 1);
    }

    #[test]
    fn snapshot_past_horizon_fails() {
        let mut t = Table::new(schema());
        let mut d = DeltaTable::new();
        d.append(ins(1, "ann", 1));
        t.apply(
            &d.window(Timestamp::ZERO, Timestamp::from_secs(1)),
            Timestamp::from_secs(1),
        )
        .unwrap();
        d.compact(Timestamp::from_secs(1));
        assert!(t.snapshot_at(&d, Timestamp::ZERO).is_err());
        assert!(t.snapshot_at(&d, Timestamp::from_secs(1)).is_ok());
    }
}
