//! Index keys: the values of a row at an index's key columns.

use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The key of a hash index (an arrangement partition or join key, a delta
/// log literal, a primary key), stored in the index's slot.
///
/// A one-column key — every key the synthetic workloads index — is the
/// value itself, inline in the slot: inserting it allocates nothing beyond
/// the value, and a lookup or rehash reads it without following a pointer.
/// Any other arity (the empty key of an unpartitioned arrangement's one
/// partition, a multi-column join key) is a shared [`Tuple`].
///
/// A key hashes, compares and orders exactly as its `[Value]` slice does,
/// whichever variant holds it, so maps keyed by `Key` are probed by a
/// borrowed slice (`Borrow<[Value]>`) without building a key. Hash and Eq
/// are written by hand for that reason: derived ones would hash the
/// variant's tag and break the `Borrow` contract.
#[derive(Clone)]
pub enum Key {
    /// A one-column key.
    One(Value),
    /// A key of any other arity.
    Many(Tuple),
}

impl Key {
    /// The key's values, in column order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match self {
            Key::One(v) => std::slice::from_ref(v),
            Key::Many(t) => t.values(),
        }
    }

    /// The key of `row` at `cols`, in their order.
    pub fn of(row: &Tuple, cols: &[usize]) -> Key {
        match cols {
            [c] => Key::One(row.get(*c).clone()),
            _ => Key::Many(row.project(cols)),
        }
    }
}

/// One allocation at most: none for one value, and a wider key's values
/// are collected straight into its tuple's payload.
impl From<&[Value]> for Key {
    fn from(values: &[Value]) -> Self {
        match values {
            [v] => Key::One(v.clone()),
            _ => Key::Many(values.iter().cloned().collect()),
        }
    }
}

impl Borrow<[Value]> for Key {
    #[inline]
    fn borrow(&self) -> &[Value] {
        self.values()
    }
}

impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The slice's hash: its length, then each value.
        match self {
            Key::One(v) => std::slice::from_ref(v).hash(state),
            Key::Many(t) => t.values().hash(state),
        }
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.values().cmp(other.values())
    }
}

/// Printed as the tuple of its values.
impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::One(v) => write!(f, "({v})"),
            Key::Many(t) => fmt::Debug::fmt(t, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{FastBuildHasher, FastMap};
    use proptest::prelude::*;
    use std::hash::BuildHasher;

    /// Values that stress equality and hashing: NULL, NaN, both zeros,
    /// empty and multibyte text, text of 14 bytes (the most held in place)
    /// and of 15 (the least shared), and a few plain ones.
    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            Just(Value::F64(f64::NAN)),
            Just(Value::F64(0.0)),
            Just(Value::F64(-0.0)),
            Just(Value::F64(1.5)),
            (-2i64..3).prop_map(Value::I64),
            Just(Value::str("")),
            Just(Value::str("ß")),
            Just(Value::str("日本")),
            Just(Value::str("a")),
            Just(Value::str("abcdefghijklmn")),
            Just(Value::str("abcdefghijklmno")),
            Just(Value::str("abcdefghijklmß")),
        ]
    }

    /// Keys of zero, one and several values.
    fn arb_slice() -> impl Strategy<Value = Vec<Value>> {
        prop::collection::vec(arb_value(), 0..4)
    }

    proptest! {
        /// A key, the equal tuple and the bare slice hash alike and compare
        /// equal, whichever variant holds the key; and a map keyed by `Key`
        /// answers a borrowed slice for each of its keys and misses its
        /// neighbours (one value more, one less, one changed).
        #[test]
        fn keys_hash_and_compare_as_their_slice(slices in prop::collection::vec(arb_slice(), 1..12)) {
            let hash = |x: &dyn Fn(&mut crate::FastHasher)| {
                let mut h = FastBuildHasher::default().build_hasher();
                x(&mut h);
                h.finish()
            };
            let mut map: FastMap<Key, usize> = FastMap::default();
            for (i, slice) in slices.iter().enumerate() {
                let key = Key::from(&slice[..]);
                let tuple = Tuple::new(slice.clone());
                prop_assert_eq!(matches!(key, Key::One(_)), slice.len() == 1);
                prop_assert_eq!(key.values(), &slice[..]);
                prop_assert_eq!(&key, &Key::Many(tuple.clone()));
                let by_slice = hash(&|h| slice[..].hash(h));
                prop_assert_eq!(hash(&|h| key.hash(h)), by_slice);
                prop_assert_eq!(hash(&|h| tuple.hash(h)), by_slice);
                prop_assert_eq!(format!("{key:?}"), format!("{tuple:?}"));
                map.entry(key).or_insert(i);
            }
            for slice in &slices {
                let first = slices.iter().position(|s| s == slice);
                prop_assert_eq!(map.get(&slice[..]).copied(), first);
                let mut longer = slice.clone();
                longer.push(Value::Null);
                let mut changed = slice.clone();
                if let Some(v) = changed.first_mut() {
                    *v = Value::I64(7);
                }
                let neighbours = [longer, slice[..slice.len().saturating_sub(1)].to_vec(), changed];
                for n in neighbours.iter().filter(|n| !slices.contains(n)) {
                    prop_assert!(!map.contains_key(&n[..]), "{:?} found for {:?}", n, slice);
                }
            }
        }
    }
}
