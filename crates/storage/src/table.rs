//! Materialized relation storage.
//!
//! A [`Table`] stores the current contents of a relation (base relation,
//! intermediate join result, or MV), each row once: in a z-set while no
//! join probes the table, in its first [`Arrangement`] once one does (every
//! arrangement indexes every row once, so a z-set beside it would be a
//! second copy every applied entry pays for). Readers borrow the rows where
//! they live ([`Table::rows`]), and with the paired [`DeltaTable`] read them
//! **as of** nearby timestamps ([`Table::rows_at`]) — the compensation
//! primitive of asynchronous view maintenance: subtract deltas newer than
//! the requested instant, or add not-yet-applied ones to look forward.

use crate::arrangement::{Arrangement, ArrangementCounters, Bucket, IndexCols};
use crate::delta::{DeltaBatch, DeltaTable, Window};
use crate::zset::{RowChange, ZSet};
use smile_types::{FastMap, Key, RelationId, Schema, SmileError, Timestamp, Tuple, Value};
use std::borrow::Borrow;
use std::cell::OnceCell;

/// The materialized contents of a relation plus its applied-through
/// timestamp and the indexes its readers hold.
#[derive(Clone, Debug)]
pub struct Table {
    schema: Schema,
    /// The rows while no arrangement is installed. Empty while one is: the
    /// first arrangement holds them until the last is dropped.
    rows: ZSet,
    /// PK → tuple index of a keyed set relation (weights exactly one). Its
    /// one reader is [`Table::get_by_key`], so it comes to exist on the
    /// first such read, built from the rows, and is maintained per entry
    /// only from then on; a table nobody reads by key never pays for one.
    /// Not an arrangement: no plan edge installs or probes it.
    pk_index: OnceCell<FastMap<Key, Tuple>>,
    /// Shared arrangements, one per distinct [`IndexCols`], maintained
    /// incrementally; join edges declare the arrangement they probe at
    /// install time so pushes never scan the full relation, and every edge
    /// probing the same index columns shares one. A table holds a handful,
    /// so they are found by a scan.
    arrangements: Vec<Arrangement>,
    /// Distinct rows stored, and the sum of their `Tuple::byte_size` (the
    /// disk meter), kept from the [`RowChange`] each applied entry reports.
    len: usize,
    bytes: usize,
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
            len: 0,
            bytes: 0,
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

    /// The current rows with their weights, in unspecified order, borrowed
    /// from wherever they live.
    pub fn rows(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        let home = self.arrangements.first().into_iter().flat_map(Arrangement::rows);
        self.rows.iter().chain(home)
    }

    /// Number of distinct rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
            self.rows().map(keyed).collect()
        });
        index.get(key.borrow())
    }

    /// Applies a batch of deltas, advancing the applied-through timestamp to
    /// at least `through` (callers pass the push target timestamp; batches
    /// may be empty when the window had no updates).
    ///
    /// Returns an error if a tuple does not match the schema.
    pub fn apply(&mut self, batch: &DeltaBatch, through: Timestamp) -> Result<(), SmileError> {
        self.apply_entries(Window::from(&batch.entries[..]), through)
    }

    /// [`apply`] driven by borrowed entries — lets the engine apply a
    /// delta-log window in place without cloning it into a batch first. A
    /// refused batch changes nothing (the `Database` names the relation).
    ///
    /// [`apply`]: Table::apply
    pub fn apply_entries(
        &mut self,
        entries: Window<'_>,
        through: Timestamp,
    ) -> Result<(), SmileError> {
        if let Some(e) = entries.iter().find(|e| !self.schema.admits(&e.tuple)) {
            return Err(SmileError::SchemaMismatch {
                relation: RelationId::new(u32::MAX),
                detail: format!("tuple {:?} does not match schema {}", e.tuple, self.schema),
            });
        }
        // Reused across entries: the key a built `pk_index` is reached by.
        let mut key = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            if let Some(index) = self.pk_index.get_mut() {
                let cols = self.schema.key();
                // An update — a delete, then an insert of the same key, the
                // pair an aggregate emits for every surviving group — leaves
                // the delete nothing to do: its insert replaces the row.
                let updated_next = e.weight <= 0
                    && entries.get(i + 1).is_some_and(|n| {
                        n.weight > 0 && cols.iter().all(|&c| n.tuple.get(c) == e.tuple.get(c))
                    });
                if !updated_next {
                    key.clear();
                    key.extend(cols.iter().map(|&c| e.tuple.get(c).clone()));
                    if e.weight <= 0 {
                        index.remove(key.as_slice());
                    } else if let Some(row) = index.get_mut(key.as_slice()) {
                        *row = e.tuple.clone();
                    } else {
                        index.insert(self.schema.key_of(&e.tuple), e.tuple.clone());
                    }
                }
            }
            // Every arrangement holds every row, so each reports the same.
            let mut change = None;
            for arr in &mut self.arrangements {
                change = Some(arr.update(&e.tuple, e.weight));
            }
            match change.unwrap_or_else(|| self.rows.add(e.tuple.clone(), e.weight)) {
                RowChange::Appeared => {
                    self.len += 1;
                    self.bytes += e.tuple.byte_size();
                }
                RowChange::Vanished => {
                    self.len -= 1;
                    self.bytes -= e.tuple.byte_size();
                }
                RowChange::Reweighted => {}
            }
        }
        if through > self.ts {
            self.ts = through;
        }
        Ok(())
    }

    /// Takes one reader of the arrangement `on`. The first builds it from
    /// the current contents — a later one shares it, not rebuilt — and
    /// subsequent applies maintain it incrementally. The first arrangement
    /// takes the z-set's rows by value and becomes their home; a later one
    /// is built from the first.
    pub fn ensure_arrangement(&mut self, on: &IndexCols) {
        if let Some(arr) = self.arrangements.iter_mut().find(|a| a.on() == on) {
            arr.readers += 1;
            return;
        }
        let mut arr = match self.arrangements.first() {
            Some(home) => Arrangement::build(on.clone(), home.rows()),
            None => Arrangement::build_owned(on.clone(), std::mem::take(&mut self.rows)),
        };
        arr.readers = 1;
        self.arrangements.push(arr);
    }

    /// Probes the unpartitioned arrangement on `cols`: all current rows whose
    /// `cols` projection equals `key`. `None` when no such arrangement is
    /// installed. Counts toward the arrangement's hit/miss statistics.
    pub fn probe_index(&self, cols: &[usize], key: &Tuple) -> Option<&Bucket> {
        Some(self.arrangement(cols)?.probe(key))
    }

    /// Lets one reader of the arrangement `on` go: the reverse of
    /// [`Table::ensure_arrangement`]. The last reader drops it, freeing its
    /// memory, and the last arrangement to go hands the rows back to the
    /// z-set. Returns whether it was dropped; `None` when none is
    /// installed.
    pub fn release_arrangement(&mut self, on: &IndexCols) -> Option<bool> {
        let i = self.arrangements.iter().position(|a| a.on() == on)?;
        self.arrangements[i].readers -= 1;
        if self.arrangements[i].readers > 0 {
            return Some(false);
        }
        let dropped = self.arrangements.remove(i);
        if self.arrangements.is_empty() {
            self.rows = dropped.into_rows().collect();
        }
        Some(true)
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

    /// The rows as of `at`, each once, borrowed from the table and its
    /// paired delta table: every current row corrected by the log window
    /// between `TS(v)` and `at` netted per row (taken away rolling back,
    /// added rolling forward), then the window's rows the table lacks.
    pub fn rows_at<'a>(
        &'a self,
        delta: &'a DeltaTable,
        at: Timestamp,
    ) -> Result<Vec<(&'a Tuple, i64)>, SmileError> {
        if at < delta.horizon() {
            return Err(SmileError::Internal(format!(
                "snapshot at {at} requested but delta table compacted through {}",
                delta.horizon()
            )));
        }
        let (lo, hi, sign) = if at < self.ts { (at, self.ts, -1) } else { (self.ts, at, 1) };
        let mut net: FastMap<&Tuple, i64> = FastMap::default();
        for e in delta.window_ref(lo, hi) {
            *net.entry(&e.tuple).or_default() += sign * e.weight;
        }
        // Once every correction is taken, the remaining rows hash nothing.
        let mut correct = |t| if net.is_empty() { 0 } else { net.remove(t).unwrap_or(0) };
        let mut rows: Vec<_> = self.rows().map(|(t, w)| (t, w + correct(t))).collect();
        rows.extend(net);
        rows.retain(|&(_, w)| w != 0);
        Ok(rows)
    }

    /// [`Table::rows_at`] collected into a z-set, for callers that need one.
    pub fn snapshot_at(&self, delta: &DeltaTable, at: Timestamp) -> Result<ZSet, SmileError> {
        Ok(self.rows_at(delta, at)?.into_iter().collect())
    }

    /// Clears all contents (used when re-seeding a copy). Arrangements stay
    /// installed (emptied) so the re-seed repopulates them incrementally.
    pub fn clear(&mut self) {
        self.rows = ZSet::new();
        self.pk_index.take();
        for arr in &mut self.arrangements {
            arr.clear();
        }
        (self.len, self.bytes) = (0, 0);
        self.ts = Timestamp::ZERO;
    }

    /// Total payload bytes of the current contents (disk metering).
    pub fn byte_size(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaEntry;
    use proptest::prelude::*;
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
        d.append_batch([ins(1, "ann", 1), ins(2, "bob", 2), ins(3, "cat", 3)].into_iter().collect())
            .unwrap();
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
        assert_eq!(now, t.rows().collect::<ZSet>());
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
        let on = IndexCols::unpartitioned(&[1]);
        t.ensure_arrangement(&on);
        assert_eq!(t.probe_index(&[1], &tuple!["ann"]).unwrap().len(), 2);
        // A second reader shares it; it goes with the last.
        t.ensure_arrangement(&on);
        assert_eq!(t.probe_index(&[1], &tuple!["ann"]).unwrap().len(), 2);
        assert_eq!((t.arrangements().count(), t.arrangement_on(&on).unwrap().readers()), (1, 2));
        assert_eq!(t.release_arrangement(&on), Some(false));
        assert_eq!(t.release_arrangement(&on), Some(true));
        assert_eq!(t.release_arrangement(&on), None);
        assert_eq!(t.rows().count(), 2, "the rows came back");
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
        assert_eq!(t.release_arrangement(&by_name), Some(true));
        assert_eq!(t.arrangements().count(), 1);
    }

    #[test]
    fn snapshot_past_horizon_fails() {
        let mut t = Table::new(schema());
        let mut d = DeltaTable::new();
        d.append_batch([ins(1, "ann", 1)].into_iter().collect()).unwrap();
        t.apply(
            &d.window(Timestamp::ZERO, Timestamp::from_secs(1)),
            Timestamp::from_secs(1),
        )
        .unwrap();
        d.compact(Timestamp::from_secs(1));
        assert!(t.snapshot_at(&d, Timestamp::ZERO).is_err());
        assert!(t.snapshot_at(&d, Timestamp::from_secs(1)).is_ok());
    }

    /// One step of a table's life, for the one-copy property.
    #[derive(Clone, Debug)]
    enum Step {
        /// Signed entries logged at the next instant, then applied — unless
        /// `pending`, when the next applied step takes them along.
        Apply { entries: Vec<(i64, bool, i64)>, pending: bool },
        Ensure(usize),
        Drop(usize),
        Clear,
    }

    /// Applies four times in nine (one in five of them pending), ensures and
    /// drops twice each, a clear once; weights −1 to 2, zero included.
    fn arb_step() -> impl Strategy<Value = Step> {
        let entries = prop::collection::vec((0i64..3, prop::bool::ANY, -1i64..3), 1..5);
        (0u8..9, entries, 0u8..5, 0usize..3).prop_map(|(kind, entries, pending, i)| match kind {
            0..=3 => Step::Apply { entries, pending: pending == 0 },
            4 | 5 => Step::Ensure(i),
            6 | 7 => Step::Drop(i),
            _ => Step::Clear,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Wherever a table's rows live — its z-set, or its first arrangement
        /// once one is installed — the rows, the row and byte counters, every
        /// arrangement and every as-of read agree with a z-set fed the same
        /// log, and no second row map is kept beside an arrangement. Dropping
        /// the last arrangement hands the rows back; a clear starts over.
        #[test]
        fn one_copy_table_matches_a_zset_model(steps in prop::collection::vec(arb_step(), 1..24)) {
            let ons = [
                IndexCols::unpartitioned(&[0]),
                IndexCols { partition: vec![1], key: vec![0] },
                IndexCols::unpartitioned(&[1]),
            ];
            let (mut t, mut log, mut tick) = (Table::new(schema()), DeltaTable::new(), 0);
            for step in steps {
                match step {
                    Step::Apply { entries, pending } => {
                        tick += 1;
                        let at = Timestamp::from_secs(tick);
                        for (uid, ann, weight) in entries {
                            let tuple = tuple![uid, if ann { "ann" } else { "bob" }];
                            let entry = DeltaEntry { tuple, weight, ts: at };
                            log.append_batch(DeltaBatch { entries: vec![entry] }).unwrap();
                        }
                        if !pending {
                            t.apply_entries(log.window_ref(t.ts(), at), at).unwrap();
                        }
                    }
                    Step::Ensure(i) => t.ensure_arrangement(&ons[i]),
                    Step::Drop(i) => _ = t.release_arrangement(&ons[i]),
                    Step::Clear => {
                        t.clear();
                        log = DeltaTable::new();
                    }
                }
                // The model: the log's entries through an instant, consolidated.
                let model = |at: Timestamp| -> ZSet {
                    log.window_ref(Timestamp::ZERO, at).iter().map(|e| (e.tuple.clone(), e.weight)).collect()
                };
                let now = model(t.ts());
                prop_assert_eq!(t.rows().count(), now.len(), "each row once");
                prop_assert_eq!(t.rows().collect::<ZSet>(), now.clone());
                let bytes = now.iter().map(|(row, _)| row.byte_size()).sum::<usize>();
                prop_assert_eq!((t.len(), t.byte_size()), (now.len(), bytes));
                prop_assert!(t.arrangements.is_empty() || t.rows.is_empty(), "a second row map");
                for arr in t.arrangements() {
                    prop_assert_eq!(arr.contents(), Arrangement::build(arr.on().clone(), &now).contents());
                }
                for at in (0..=tick).map(Timestamp::from_secs) {
                    let rolled = t.rows_at(&log, at).unwrap();
                    prop_assert_eq!(rolled.len(), model(at).len(), "each row once as of {}", at);
                    prop_assert_eq!(rolled.into_iter().collect::<ZSet>(), model(at));
                }
            }
        }
    }
}
