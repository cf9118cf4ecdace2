//! Tuples (rows) of scalar values.

use crate::value::Value;
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A row of values.
///
/// Tuples are immutable once constructed and cheaply cloneable: the platform
/// copies the same tuple through several plan vertices (delta capture →
/// CopyDelta → Join → Union → DeltaToRel), so the payload is a shared
/// `Arc<[Value]>` and a clone is a refcount bump.
///
/// **Layout.** A tuple is a 16-byte fat pointer to one block: the two
/// counts, then the values at 16 bytes each (a three-int row's payload is
/// 48 bytes). Building one is one allocation when the values come from an
/// iterator of known length ([`Tuple::project`], [`Tuple::concat`],
/// `collect`), plus two per text value that is new rather than shared.
/// [`Tuple::byte_size`] is the cost model's meter and does not follow the
/// layout.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Builds a tuple from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Self {
            values: values.into(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Column access; panics on out-of-range like slice indexing.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// All values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Projects the tuple onto the given column indexes (in order).
    pub fn project(&self, cols: &[usize]) -> Tuple {
        cols.iter().map(|&c| self.values[c].clone()).collect()
    }

    /// Concatenates two tuples (used by join to splice matched rows).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        self.values
            .iter()
            .chain(other.values.iter())
            .cloned()
            .collect()
    }

    /// Approximate footprint in bytes; feeds the network / disk resource
    /// meters of the cost model. A fixed model of a row, not its host
    /// layout, so that dollars stay the same whatever the layout.
    pub fn byte_size(&self) -> usize {
        self.values.iter().map(Value::byte_size).sum::<usize>() + 16
    }
}

/// Collects values straight into the shared `Arc<[Value]>` payload — with
/// an exact-size iterator (e.g. draining a scratch buffer) this is a single
/// allocation, which is what the WAL land path leans on to materialize one
/// tuple per frame row without an intermediate `Vec`.
impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Self {
            values: iter.into_iter().collect(),
        }
    }
}

/// Allows hash-map lookups keyed by `Tuple` to be driven by a borrowed
/// `&[Value]` scratch slice without allocating a `Tuple` per probe. Sound
/// because the derived `Hash`/`Eq` on `Tuple` delegate to `Arc<[Value]>`,
/// which hashes and compares exactly like the underlying `[Value]` slice.
impl Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.values
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Builds a tuple from a list of things convertible into [`Value`].
///
/// ```
/// use smile_types::{tuple, Value};
/// let t = tuple![1i64, 2.5f64, "home"];
/// assert_eq!(t.get(2), &Value::str("home"));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_reorders_columns() {
        let t = tuple![10i64, "a", 3.5f64];
        let p = t.project(&[2, 0]);
        assert_eq!(p, tuple![3.5f64, 10i64]);
    }

    #[test]
    fn concat_joins_payloads() {
        let a = tuple![1i64, "x"];
        let b = tuple![2i64];
        assert_eq!(a.concat(&b), tuple![1i64, "x", 2i64]);
        assert_eq!(a.concat(&b).arity(), 3);
    }

    #[test]
    fn clone_is_shallow() {
        let a = tuple![1i64, "hello world"];
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.values, &b.values));
    }

    #[test]
    fn debug_render() {
        assert_eq!(format!("{:?}", tuple![1i64, "u"]), "(1, 'u')");
    }
}
