//! Incrementally maintainable group-by aggregation.
//!
//! The paper's concluding remarks name aggregate operators as the first
//! platform extension. COUNT and SUM are *linear* in the z-set algebra — a
//! delta's contribution to a group is independent of the rest of the data —
//! so an aggregate view can be maintained from the same delta windows the
//! plan already moves: fold the window into per-group contributions, look
//! up each affected group's current row in the view, and emit
//! `delete(old) + insert(new)` entries.
//!
//! Aggregate views always expose an implicit `count` column right after the
//! group columns: it is what decides when a group disappears (count = 0),
//! and SQL's `COUNT(*)` comes for free.

use crate::delta::{DeltaBatch, DeltaEntry};
use crate::zset::ZSet;
use smile_types::{
    Column, ColumnType, FastMap, Result, Schema, SmileError, Timestamp, Tuple, Value,
};
use std::hash::{Hash, Hasher};

/// An aggregate function over the pre-aggregation schema.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Sum of an `I64` column.
    SumI64(usize),
    /// Sum of an `F64` column. The accumulator is exact over deltas
    /// (addition/subtraction of the same values), so insert-then-delete
    /// round-trips to the old sum up to float associativity.
    SumF64(usize),
}

impl AggFunc {
    fn source_col(&self) -> usize {
        match self {
            AggFunc::SumI64(c) | AggFunc::SumF64(c) => *c,
        }
    }
}

/// A group-by aggregation: `SELECT group_cols, COUNT(*), aggs... GROUP BY
/// group_cols`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AggregateSpec {
    /// Grouping columns (indexes into the pre-aggregation schema).
    pub group_cols: Vec<usize>,
    /// Additional aggregates after the implicit count.
    pub aggs: Vec<AggFunc>,
}

/// A row seen through its group columns: hashes and compares as the
/// projected key `Tuple` would (NULLs equal, `F64` by bit pattern), without
/// building one.
struct GroupKey<'a> {
    row: &'a [Value],
    cols: &'a [usize],
}

impl Hash for GroupKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.cols.iter().for_each(|&c| self.row[c].hash(state));
    }
}

impl PartialEq for GroupKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cols.iter().all(|&c| self.row[c] == other.row[c])
    }
}

impl Eq for GroupKey<'_> {}

/// One aggregate's running sum; the half its type does not use stays zero.
type Sum = (i64, f64);

/// Per-group contributions of a run of weighted rows. Groups are numbered
/// in first-seen order, so everything built from a fold is a function of
/// its input alone.
#[derive(Default)]
struct Fold<'a> {
    /// Each group's first row; its values at `group_cols` are the key.
    firsts: Vec<&'a [Value]>,
    counts: Vec<i64>,
    last_ts: Vec<Timestamp>,
    /// `aggs.len()` sums per group, back to back.
    sums: Vec<Sum>,
}

impl AggregateSpec {
    /// Count-only aggregation.
    pub fn count_by(group_cols: Vec<usize>) -> Self {
        Self {
            group_cols,
            aggs: Vec::new(),
        }
    }

    /// Output schema: group columns, `count`, then one column per
    /// aggregate. The group columns form the key.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema> {
        let mut columns = Vec::with_capacity(self.group_cols.len() + 1 + self.aggs.len());
        for &g in &self.group_cols {
            let c = input
                .columns()
                .get(g)
                .ok_or_else(|| SmileError::UnknownColumn(format!("group column {g}")))?;
            columns.push(c.clone());
        }
        columns.push(Column::new("count", ColumnType::I64));
        for (i, a) in self.aggs.iter().enumerate() {
            let src = input.columns().get(a.source_col()).ok_or_else(|| {
                SmileError::UnknownColumn(format!("agg column {}", a.source_col()))
            })?;
            let ty = match a {
                AggFunc::SumI64(_) => {
                    if src.ty != ColumnType::I64 {
                        return Err(SmileError::SchemaMismatch {
                            relation: smile_types::RelationId::new(u32::MAX),
                            detail: format!("SumI64 over non-I64 column {:?}", src.name),
                        });
                    }
                    ColumnType::I64
                }
                AggFunc::SumF64(_) => {
                    if src.ty != ColumnType::F64 {
                        return Err(SmileError::SchemaMismatch {
                            relation: smile_types::RelationId::new(u32::MAX),
                            detail: format!("SumF64 over non-F64 column {:?}", src.name),
                        });
                    }
                    ColumnType::F64
                }
            };
            columns.push(Column::new(format!("agg{i}_{}", src.name), ty));
        }
        let key = (0..self.group_cols.len()).collect();
        Ok(Schema::new(columns, key))
    }

    /// The one maintenance routine: folds weighted rows into per-group
    /// contributions. Groups are found by a borrowed view of each row's own
    /// group columns, so nothing is allocated per row.
    fn fold<'a>(&'a self, rows: impl Iterator<Item = (&'a [Value], i64, Timestamp)>) -> Fold<'a> {
        let (n, cols) = (self.aggs.len(), &self.group_cols[..]);
        let mut ids: FastMap<GroupKey<'a>, usize> = FastMap::default();
        let mut f = Fold::default();
        for (row, weight, ts) in rows {
            let g = *ids.entry(GroupKey { row, cols }).or_insert_with(|| {
                f.firsts.push(row);
                f.counts.push(0);
                f.last_ts.push(Timestamp::ZERO);
                f.sums.resize(f.sums.len() + n, (0, 0.0));
                f.firsts.len() - 1
            });
            f.counts[g] += weight;
            f.last_ts[g] = f.last_ts[g].max(ts);
            for (sum, a) in f.sums[g * n..].iter_mut().zip(&self.aggs) {
                match a {
                    AggFunc::SumI64(c) => sum.0 += weight * row[*c].as_i64().unwrap_or(0),
                    AggFunc::SumF64(c) => sum.1 += weight as f64 * row[*c].as_f64().unwrap_or(0.0),
                }
            }
        }
        f
    }

    /// A view row — group values, count, then one sum per aggregate —
    /// collected straight into the tuple's payload.
    fn row_of(&self, group: impl Iterator<Item = Value>, count: i64, sums: &[Sum]) -> Tuple {
        let sums = self.aggs.iter().zip(sums).map(|(a, &(i, f))| match a {
            AggFunc::SumI64(_) => Value::I64(i),
            AggFunc::SumF64(_) => Value::F64(f),
        });
        let count = std::iter::once(Value::I64(count));
        group.chain(count).chain(sums).collect()
    }

    /// Ground-truth evaluation: aggregates a full set of rows — a z-set, or
    /// a table's rows read in place — into the view's contents (unit
    /// weights, one row per live group).
    pub fn eval<'a>(&self, input: impl IntoIterator<Item = (&'a Tuple, i64)>) -> ZSet {
        let rows = input.into_iter();
        let fold = self.fold(rows.map(|(t, w)| (t.values(), w, Timestamp::ZERO)));
        let mut out = ZSet::new();
        for (g, first) in fold.firsts.iter().enumerate() {
            if fold.counts[g] != 0 {
                let group = self.group_cols.iter().map(|&c| first[c].clone());
                let sums = &fold.sums[g * self.aggs.len()..];
                out.add(self.row_of(group, fold.counts[g], sums), 1);
            }
        }
        out
    }

    /// The incremental step: turns a raw delta window into aggregate-space
    /// delete/insert entries, given a lookup of each group's *current* view
    /// row by its key values (`None` when the group is new).
    ///
    /// Output entries carry the max timestamp of the group's contributions,
    /// so they stay inside the push window downstream. Within a timestamp
    /// groups come out in first-seen order, a surviving group's delete
    /// directly before its insert (the pair `Table::apply` replaces in place).
    pub fn delta_transform<'a>(
        &self,
        window: &DeltaBatch,
        mut current: impl FnMut(&[Value]) -> Option<&'a Tuple>,
    ) -> Result<DeltaBatch> {
        let (n, base) = (self.aggs.len(), self.group_cols.len());
        let rows = window.entries.iter();
        let fold = self.fold(rows.map(|e| (e.tuple.values(), e.weight, e.ts)));
        let mut out = Vec::with_capacity(fold.firsts.len() * 2);
        // Reused across groups: the key the view is read by, and old + new sums.
        let (mut key, mut sums) = (Vec::new(), vec![(0, 0.0); n]);
        for (g, first) in fold.firsts.iter().enumerate() {
            let (add, ts) = (&fold.sums[g * n..][..n], fold.last_ts[g]);
            if fold.counts[g] == 0 && add.iter().all(|&(i, f)| i == 0 && f == 0.0) {
                continue; // the window cancelled itself out for this group
            }
            key.clear();
            key.extend(self.group_cols.iter().map(|&c| first[c].clone()));
            sums.fill((0, 0.0));
            let mut count = 0;
            if let Some(row) = current(&key) {
                count = row.get(base).as_i64().ok_or_else(|| {
                    SmileError::Internal("aggregate view row lost its count".into())
                })?;
                for (i, (sum, a)) in sums.iter_mut().zip(&self.aggs).enumerate() {
                    match a {
                        AggFunc::SumI64(_) => sum.0 = row.get(base + 1 + i).as_i64().unwrap_or(0),
                        AggFunc::SumF64(_) => sum.1 = row.get(base + 1 + i).as_f64().unwrap_or(0.0),
                    }
                }
                out.push(DeltaEntry::delete(row.clone(), ts));
            }
            count += fold.counts[g];
            if count < 0 {
                let group = Tuple::new(key);
                return Err(SmileError::Internal(format!(
                    "aggregate group {group:?} count went negative ({count})"
                )));
            }
            if count > 0 {
                for (sum, add) in sums.iter_mut().zip(add) {
                    *sum = (sum.0 + add.0, sum.1 + add.1);
                }
                let row = self.row_of(key.drain(..), count, &sums);
                out.push(DeltaEntry::insert(row, ts));
            }
        }
        // Keep timestamp order for the delta log (stable: pairs stay adjacent).
        out.sort_by_key(|e| e.ts);
        Ok(DeltaBatch { entries: out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use proptest::prelude::*;
    use smile_types::tuple;

    fn input_schema() -> Schema {
        Schema::new(
            vec![
                Column::new("k", ColumnType::Str),
                Column::new("v", ColumnType::I64),
            ],
            vec![],
        )
    }

    fn spec() -> AggregateSpec {
        AggregateSpec {
            group_cols: vec![0],
            aggs: vec![AggFunc::SumI64(1)],
        }
    }

    #[test]
    fn output_schema_has_group_count_sums() {
        let s = spec().output_schema(&input_schema()).unwrap();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.columns()[1].name, "count");
        assert_eq!(s.key(), &[0]);
    }

    #[test]
    fn type_mismatch_rejected() {
        let bad = AggregateSpec {
            group_cols: vec![0],
            aggs: vec![AggFunc::SumF64(1)],
        };
        assert!(bad.output_schema(&input_schema()).is_err());
        let oob = AggregateSpec::count_by(vec![7]);
        assert!(oob.output_schema(&input_schema()).is_err());
    }

    #[test]
    fn eval_counts_and_sums() {
        let z = ZSet::from_tuples([tuple!["a", 1i64], tuple!["a", 2i64], tuple!["b", 5i64]]);
        let out = spec().eval(&z);
        assert_eq!(out.weight(&tuple!["a", 2i64, 3i64]), 1);
        assert_eq!(out.weight(&tuple!["b", 1i64, 5i64]), 1);
    }

    #[test]
    fn delta_transform_updates_existing_groups() {
        // View currently: a -> (count 2, sum 3).
        let view_schema = spec().output_schema(&input_schema()).unwrap();
        let mut view = Table::new(view_schema);
        view.apply(
            &[DeltaEntry::insert(
                tuple!["a", 2i64, 3i64],
                Timestamp::from_secs(1),
            )]
            .into_iter()
            .collect(),
            Timestamp::from_secs(1),
        )
        .unwrap();

        // Window: +("a", 10), −("a", 1) and a brand-new group +("c", 7).
        let window: DeltaBatch = vec![
            DeltaEntry::insert(tuple!["a", 10i64], Timestamp::from_secs(2)),
            DeltaEntry::delete(tuple!["a", 1i64], Timestamp::from_secs(2)),
            DeltaEntry::insert(tuple!["c", 7i64], Timestamp::from_secs(2)),
        ]
        .into_iter()
        .collect();

        let out = spec()
            .delta_transform(&window, |g| view.get_by_key(g))
            .unwrap();
        let z = out.to_zset();
        // a: count 2+1−1=2, sum 3+10−1=12 — old row deleted, new inserted.
        assert_eq!(z.weight(&tuple!["a", 2i64, 3i64]), -1);
        assert_eq!(z.weight(&tuple!["a", 2i64, 12i64]), 1);
        assert_eq!(z.weight(&tuple!["c", 1i64, 7i64]), 1);
    }

    #[test]
    fn group_vanishes_at_count_zero() {
        let view_schema = spec().output_schema(&input_schema()).unwrap();
        let mut view = Table::new(view_schema);
        view.apply(
            &[DeltaEntry::insert(
                tuple!["a", 1i64, 5i64],
                Timestamp::from_secs(1),
            )]
            .into_iter()
            .collect(),
            Timestamp::from_secs(1),
        )
        .unwrap();
        let window: DeltaBatch = vec![DeltaEntry::delete(
            tuple!["a", 5i64],
            Timestamp::from_secs(2),
        )]
        .into_iter()
        .collect();
        let out = spec()
            .delta_transform(&window, |g| view.get_by_key(g))
            .unwrap();
        // Only the delete of the old row; no insert.
        assert_eq!(out.len(), 1);
        assert_eq!(out.entries[0].weight, -1);
    }

    #[test]
    fn negative_count_is_an_error() {
        let window: DeltaBatch = vec![DeltaEntry::delete(
            tuple!["ghost", 5i64],
            Timestamp::from_secs(2),
        )]
        .into_iter()
        .collect();
        assert!(spec().delta_transform(&window, |_| None).is_err());
    }

    /// An aggregate MV's delta log is a function of its input: the same
    /// window gives the same entries, groups in first-seen order.
    #[test]
    fn equal_timestamp_groups_come_out_in_first_seen_order() {
        let ts = Timestamp::from_secs(3);
        let order: Vec<i64> = (0..64).map(|i| (i * 37) % 64).collect();
        let window: DeltaBatch = order
            .iter()
            .chain(&order[..8])
            .map(|&k| DeltaEntry::insert(tuple![format!("g{k}").as_str(), k], ts))
            .collect();
        let out = spec().delta_transform(&window, |_| None).unwrap();
        let again = spec().delta_transform(&window, |_| None).unwrap();
        assert_eq!(out.entries, again.entries);
        let groups: Vec<Value> = out.entries.iter().map(|e| e.tuple.get(0).clone()).collect();
        let want: Vec<Value> = order.iter().map(|k| Value::str(format!("g{k}"))).collect();
        assert_eq!(groups, want);
    }

    proptest! {
        /// Incremental maintenance equals recomputation: applying the
        /// transform of every window to an (initially empty) view yields
        /// exactly eval() of the accumulated input.
        #[test]
        fn incremental_equals_eval(
            windows in proptest::collection::vec(
                proptest::collection::vec(((0u8..4), (0i64..5), prop::bool::ANY), 0..8),
                1..12,
            )
        ) {
            let spec = spec();
            let view_schema = spec.output_schema(&input_schema()).unwrap();
            let mut view = Table::new(view_schema);
            let mut accumulated = ZSet::new();
            let mut live: Vec<(u8, i64)> = Vec::new();
            for (step, ops) in windows.iter().enumerate() {
                let ts = Timestamp::from_secs(step as u64 + 1);
                let mut entries = Vec::new();
                for &(k, v, del) in ops {
                    let key = format!("g{k}");
                    if del {
                        if let Some(pos) = live.iter().position(|&(lk, _)| lk == k) {
                            let (lk, lv) = live.swap_remove(pos);
                            let t = tuple![format!("g{lk}").as_str(), lv];
                            accumulated.add(t.clone(), -1);
                            entries.push(DeltaEntry::delete(t, ts));
                        }
                    } else {
                        live.push((k, v));
                        let t = tuple![key.as_str(), v];
                        accumulated.add(t.clone(), 1);
                        entries.push(DeltaEntry::insert(t, ts));
                    }
                }
                let window = DeltaBatch { entries };
                let out = spec
                    .delta_transform(&window, |g| view.get_by_key(g))
                    .unwrap();
                view.apply(&out, ts).unwrap();
            }
            let want = spec.eval(&accumulated);
            prop_assert_eq!(view.rows().collect::<ZSet>(), want);
        }
    }
}
