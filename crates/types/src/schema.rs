//! Relation schemas.

use crate::key::Key;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Column data types supported by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit integer.
    I64,
    /// 64-bit float.
    F64,
    /// UTF-8 string.
    Str,
}

impl ColumnType {
    /// True iff `v` is NULL or inhabits this type.
    pub fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ColumnType::I64, Value::I64(_))
                | (ColumnType::F64, Value::F64(_))
                | (ColumnType::Str, Value::ShortStr(_) | Value::LongStr(_))
        )
    }
}

/// One column of a schema.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Column {
    /// Column name, unique within the schema.
    pub name: String,
    /// Data type.
    pub ty: ColumnType,
}

impl Column {
    /// Creates a column.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }
}

/// The schema of a relation: ordered columns plus the primary-key prefix.
///
/// The paper's transformations are Select-Project-Join queries where joins
/// combine base relations "using a common key"; the key columns recorded
/// here drive both the hash index of the storage engine and join-selectivity
/// estimation in the cost model.
///
/// A schema is immutable once built and both halves are shared: a clone
/// (one per plan vertex, per candidate plan the optimizer weighs) bumps two
/// reference counts and copies no column name. Equality, hashing and
/// `Debug` stay structural.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Schema {
    columns: Arc<[Column]>,
    /// Indexes of the primary-key columns (may be empty for keyless views).
    key: Arc<[usize]>,
}

impl Schema {
    /// Creates a schema from columns and the indexes of the key columns.
    ///
    /// # Panics
    /// Panics if a key index is out of range or column names collide, both of
    /// which are programming errors in catalog construction.
    pub fn new(columns: Vec<Column>, key: Vec<usize>) -> Self {
        for &k in &key {
            assert!(k < columns.len(), "key column {k} out of range");
        }
        for i in 0..columns.len() {
            for j in (i + 1)..columns.len() {
                assert_ne!(
                    columns[i].name, columns[j].name,
                    "duplicate column name {:?}",
                    columns[i].name
                );
            }
        }
        Self {
            columns: columns.into(),
            key: key.into(),
        }
    }

    /// The ordered columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Indexes of the primary-key columns.
    pub fn key(&self) -> &[usize] {
        &self.key
    }

    /// Finds a column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// True iff the tuple has the right arity and every value inhabits its
    /// column type.
    pub fn admits(&self, t: &Tuple) -> bool {
        t.arity() == self.arity()
            && t.values()
                .iter()
                .zip(self.columns.iter())
                .all(|(v, c)| c.ty.admits(v))
    }

    /// Extracts the key values of a tuple (used by PK indexes).
    pub fn key_of(&self, t: &Tuple) -> Key {
        Key::of(t, &self.key)
    }

    /// Schema of the concatenation `self ⋈ other`, prefixing column names on
    /// collision; the joined relation keeps the left relation's key.
    pub fn join(&self, other: &Schema, left_name: &str, right_name: &str) -> Schema {
        // A name is ambiguous if it appears on both sides; such columns are
        // prefixed with their relation name on both sides, like SQL would.
        let ambiguous =
            |name: &str| self.column_index(name).is_some() && other.column_index(name).is_some();
        let mut columns = Vec::with_capacity(self.arity() + other.arity());
        for c in self.columns.iter() {
            let name = if ambiguous(&c.name) {
                format!("{left_name}.{}", c.name)
            } else {
                c.name.clone()
            };
            columns.push(Column::new(name, c.ty));
        }
        for c in other.columns.iter() {
            let name = if ambiguous(&c.name) {
                format!("{right_name}.{}", c.name)
            } else {
                c.name.clone()
            };
            columns.push(Column::new(name, c.ty));
        }
        // Deep join chains can still collide after prefixing (two joins both
        // renaming a column to "l.tid"); names are cosmetic — all plan logic
        // is index-based — so disambiguate with a numeric suffix.
        for i in 0..columns.len() {
            let mut k = 1;
            while columns[..i].iter().any(|c| c.name == columns[i].name) {
                let base = columns[i]
                    .name
                    .split('#')
                    .next()
                    .unwrap_or(&columns[i].name)
                    .to_string();
                k += 1;
                columns[i].name = format!("{base}#{k}");
            }
        }
        Schema::new(columns, self.key.to_vec())
    }

    /// Schema of a projection onto the given column indexes; key columns that
    /// survive the projection are kept as the key (in projected order).
    pub fn project(&self, cols: &[usize]) -> Schema {
        let columns = cols.iter().map(|&c| self.columns[c].clone()).collect();
        let key = self
            .key
            .iter()
            .filter_map(|&k| cols.iter().position(|&c| c == k))
            .collect();
        Schema::new(columns, key)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let k = if self.key.contains(&i) { "*" } else { "" };
            write!(f, "{}{k}: {:?}", c.name, c.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn users() -> Schema {
        Schema::new(
            vec![
                Column::new("uid", ColumnType::I64),
                Column::new("name", ColumnType::Str),
            ],
            vec![0],
        )
    }

    fn locs() -> Schema {
        Schema::new(
            vec![
                Column::new("uid", ColumnType::I64),
                Column::new("lat", ColumnType::F64),
            ],
            vec![0],
        )
    }

    #[test]
    fn admits_checks_types_and_arity() {
        let s = users();
        assert!(s.admits(&tuple![1i64, "bob"]));
        assert!(s.admits(&tuple![1i64, Value::Null]));
        assert!(!s.admits(&tuple![1i64]));
        assert!(!s.admits(&tuple!["bob", 1i64]));
    }

    #[test]
    fn key_extraction() {
        let s = users();
        assert_eq!(s.key_of(&tuple![7i64, "ann"]).values(), [Value::I64(7)]);
    }

    #[test]
    fn join_disambiguates_colliding_names() {
        let j = users().join(&locs(), "users", "loc");
        let names: Vec<_> = j.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["users.uid", "name", "loc.uid", "lat"]);
        assert_eq!(j.key(), &[0]);
    }

    #[test]
    fn project_remaps_key() {
        let s = users();
        let p = s.project(&[1, 0]);
        assert_eq!(p.key(), &[1]);
        assert_eq!(p.columns()[0].name, "name");
    }

    /// A clone shares the columns it was cloned from; equality and hashing
    /// look through the sharing, so a schema built again from scratch is the
    /// same value.
    #[test]
    fn clones_share_storage_and_identity_stays_structural() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &Schema| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let (a, rebuilt) = (users(), users());
        let shared = a.clone();
        assert!(std::ptr::eq(a.columns(), shared.columns()));
        assert!(!std::ptr::eq(a.columns(), rebuilt.columns()));
        assert_eq!(a, rebuilt);
        assert_eq!(hash(&a), hash(&rebuilt));
        assert_ne!(a, locs());
        assert_eq!(format!("{a:?}"), format!("{rebuilt:?}"));
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_columns_rejected() {
        Schema::new(
            vec![
                Column::new("a", ColumnType::I64),
                Column::new("a", ColumnType::I64),
            ],
            vec![],
        );
    }

    use crate::value::Value;
}
