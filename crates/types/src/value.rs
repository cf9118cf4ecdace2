//! Scalar values stored in tuples.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A scalar value in a tuple.
///
/// The Twitter-derived datasets of the paper only need integers (ids),
/// floats (latitude/longitude), short strings (urls, hashtags, place names)
/// and NULLs, so the engine supports exactly those. Strings are reference
/// counted because delta propagation copies tuples between machines freely
/// and the strings themselves are immutable.
///
/// **Layout.** A value is 16 bytes: a tag and an 8-byte payload. A string
/// is held through a thin pointer (`Arc<Box<str>>`: the `Arc` block holds
/// the counts and the `Box`'s pointer and length, the text lives in a
/// block of its own), so text costs two allocations and one more pointer
/// hop, while every row and index key costs 8 bytes less per value than
/// with a fat `Arc<str>`. Hash, equality, order and both printed forms
/// delegate to the `str`, so none of them depends on the layout.
/// [`Value::byte_size`] does not follow it either: it is the simulated
/// network and disk meter, and dollars are billed from it.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer (user ids, tweet ids, restaurant ids, ...).
    I64(i64),
    /// 64-bit float (latitude / longitude).
    F64(f64),
    /// Immutable UTF-8 string (urls, hashtags, place names, event types).
    Str(Arc<Box<str>>),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::new(Box::from(s.as_ref())))
    }

    /// Returns the integer payload, if this is an [`Value::I64`].
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload, if this is an [`Value::F64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True iff this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate in-memory footprint in bytes, used by the resource cost
    /// model to meter network transfer and disk usage of delta batches. A
    /// fixed model, not the host layout: it is what the simulator bills.
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::I64(_) | Value::F64(_) => 8,
            Value::Str(s) => s.len() + 8,
        }
    }

    /// Discriminant rank used to give `Value` a total order across variants.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::I64(_) => 1,
            Value::F64(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::I64(a), Value::I64(b)) => a == b,
            // Total equality on the bit pattern: NaN == NaN, so values can be
            // used as hash-join keys without surprises.
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::I64(a), Value::I64(b)) => a.cmp(b),
            (Value::F64(a), Value::F64(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::I64(v) => v.hash(state),
            Value::F64(v) => v.to_bits().hash(state),
            Value::Str(s) => str::hash(s, state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_distinguishes_variants() {
        assert_ne!(Value::I64(1), Value::F64(1.0));
        assert_ne!(Value::Null, Value::I64(0));
        assert_eq!(Value::str("a"), Value::from("a"));
    }

    #[test]
    fn nan_is_equal_to_itself_for_join_keys() {
        let nan = Value::F64(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }

    #[test]
    fn ordering_is_total_across_variants() {
        let mut vs = vec![
            Value::str("b"),
            Value::I64(3),
            Value::Null,
            Value::F64(2.5),
            Value::I64(-1),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::I64(-1),
                Value::I64(3),
                Value::F64(2.5),
                Value::str("b"),
            ]
        );
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::I64(42)), hash_of(&Value::I64(42)));
        assert_eq!(hash_of(&Value::str("x")), hash_of(&Value::from("x")));
    }

    #[test]
    fn byte_size_accounts_for_string_length() {
        assert_eq!(Value::Null.byte_size(), 1);
        assert_eq!(Value::I64(0).byte_size(), 8);
        assert_eq!(Value::str("abcd").byte_size(), 12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::I64(-7).to_string(), "-7");
        assert_eq!(Value::str("hi").to_string(), "'hi'");
    }
}
