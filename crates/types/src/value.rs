//! Scalar values stored in tuples.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The most bytes of text a [`Value`] holds in place: a text value of up
/// to this many bytes is a [`Value::ShortStr`], a longer one a
/// [`Value::LongStr`].
pub const SHORT_STR_BYTES: usize = 14;

/// A scalar value in a tuple.
///
/// The Twitter-derived datasets of the paper only need integers (ids),
/// floats (latitude/longitude), short strings (urls, hashtags, place names)
/// and NULLs, so the engine supports exactly those.
///
/// **Layout.** A value is 16 bytes: a tag byte and up to 15 bytes of
/// payload. Text has two forms, and its length alone picks one:
/// [`Value::str`], the only way to make text, keeps up to
/// [`SHORT_STR_BYTES`] bytes in the value itself (a length byte and the
/// bytes), so a user name or hashtag costs no allocation, no pointer hop
/// and no reference count; longer text is shared behind a thin pointer
/// (`Arc<Box<str>>`: two allocations, and a clone bumps a count), because
/// delta propagation copies tuples freely and the text is immutable.
/// Hash, equality, order and both printed forms read the text's bytes
/// whatever the form (text hashes as its rank, then as `str::hash` would),
/// so none of them depends on the layout, and the forms never compare
/// equal because their lengths differ. [`Value::byte_size`] does not
/// follow the layout either: it is the simulated network and disk meter,
/// and dollars are billed from it.
#[derive(Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer (user ids, tweet ids, restaurant ids, ...).
    I64(i64),
    /// 64-bit float (latitude / longitude).
    F64(f64),
    /// Immutable UTF-8 text of at most [`SHORT_STR_BYTES`] bytes (user
    /// names, hashtags, place names, event types), held in place.
    ShortStr(ShortStr),
    /// Immutable UTF-8 text of more than [`SHORT_STR_BYTES`] bytes (urls),
    /// shared.
    LongStr(LongStr),
}

/// The payload of a [`Value::ShortStr`]: a length and the text's bytes,
/// zero past the length, so two equal texts are equal bytes. Made only by
/// [`Value::str`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ShortStr {
    len: u8,
    bytes: [u8; SHORT_STR_BYTES],
}

/// The payload of a [`Value::LongStr`]: shared text of more than
/// [`SHORT_STR_BYTES`] bytes. Made only by [`Value::str`].
#[derive(Clone)]
pub struct LongStr(Arc<Box<str>>);

impl ShortStr {
    /// The text's UTF-8 bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("short text holds the str it was made from")
    }
}

impl LongStr {
    /// The text's UTF-8 bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }

    fn as_str(&self) -> &str {
        &self.0
    }
}

/// Writes what `str::hash` writes: the bytes, then `0xff` (a byte no
/// UTF-8 text holds, so no text's hash is a prefix of another's).
fn hash_text<H: Hasher>(bytes: &[u8], state: &mut H) {
    state.write(bytes);
    state.write_u8(0xff);
}

impl Value {
    /// Makes a text value, in place if it is at most [`SHORT_STR_BYTES`]
    /// bytes long and shared otherwise.
    pub fn str(s: impl AsRef<str>) -> Self {
        let s = s.as_ref();
        if s.len() <= SHORT_STR_BYTES {
            let mut bytes = [0; SHORT_STR_BYTES];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Value::ShortStr(ShortStr {
                len: s.len() as u8,
                bytes,
            })
        } else {
            Value::LongStr(LongStr(Arc::new(Box::from(s))))
        }
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

    /// Returns the text, if this is a text value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::ShortStr(s) => Some(s.as_str()),
            Value::LongStr(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns the text's bytes, if this is a text value: what
    /// [`Value::as_str`] returns, without checking them again.
    fn str_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::ShortStr(s) => Some(s.as_bytes()),
            Value::LongStr(s) => Some(s.as_bytes()),
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
            Value::ShortStr(s) => s.as_bytes().len() + 8,
            Value::LongStr(s) => s.as_bytes().len() + 8,
        }
    }

    /// Discriminant rank used to give `Value` a total order across variants.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::I64(_) => 1,
            Value::F64(_) => 2,
            Value::ShortStr(_) | Value::LongStr(_) => 3,
        }
    }

    /// True iff text is in the form its length picks, with a short form's
    /// unused bytes zero: what equality and hashing rely on.
    fn is_canonical(&self) -> bool {
        match self {
            Value::ShortStr(s) => {
                let len = usize::from(s.len);
                len <= SHORT_STR_BYTES
                    && s.bytes[len..].iter().all(|&b| b == 0)
                    && std::str::from_utf8(s.as_bytes()).is_ok()
            }
            Value::LongStr(s) => s.as_bytes().len() > SHORT_STR_BYTES,
            _ => true,
        }
    }
}

const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        debug_assert!(self.is_canonical() && other.is_canonical());
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::I64(a), Value::I64(b)) => a == b,
            // Total equality on the bit pattern: NaN == NaN, so values can be
            // used as hash-join keys without surprises.
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            // Length and all the bytes, the zeros past the length included.
            (Value::ShortStr(a), Value::ShortStr(b)) => a == b,
            (Value::LongStr(a), Value::LongStr(b)) => a.0 == b.0,
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
            (Value::Null, Value::Null) => Ordering::Equal,
            // Text in either form orders as `str` does: by its bytes.
            _ => match (self.str_bytes(), other.str_bytes()) {
                (Some(a), Some(b)) => a.cmp(b),
                _ => self.rank().cmp(&other.rank()),
            },
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        debug_assert!(self.is_canonical());
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::I64(v) => v.hash(state),
            Value::F64(v) => v.to_bits().hash(state),
            Value::ShortStr(s) => hash_text(s.as_bytes(), state),
            Value::LongStr(s) => hash_text(s.as_bytes(), state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::ShortStr(s) => write!(f, "'{}'", s.as_str()),
            Value::LongStr(s) => write!(f, "'{}'", s.as_str()),
        }
    }
}

/// Text prints as `Str("…")` in either form.
impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("Null"),
            Value::I64(v) => f.debug_tuple("I64").field(v).finish(),
            Value::F64(v) => f.debug_tuple("F64").field(v).finish(),
            Value::ShortStr(s) => f.debug_tuple("Str").field(&s.as_str()).finish(),
            Value::LongStr(s) => f.debug_tuple("Str").field(&s.as_str()).finish(),
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
    use crate::hash::FastHasher;
    use proptest::prelude::*;
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
    fn text_form_is_a_function_of_byte_length() {
        let short = |s: &str| matches!(Value::str(s), Value::ShortStr(_));
        assert!(short(""));
        assert!(short(&"a".repeat(14)));
        assert!(!short(&"a".repeat(15)));
        // 13 chars in 14 bytes, then 14 chars in 15 bytes.
        assert!(short(&format!("{}ß", "a".repeat(12))));
        assert!(!short(&format!("{}ß", "a".repeat(13))));
        assert!(!short(&"日".repeat(5)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::I64(-7).to_string(), "-7");
        assert_eq!(Value::str("hi").to_string(), "'hi'");
    }

    /// Text of 0–24 bytes from one-, two-, three- and four-byte chars, NUL
    /// included (it sorts below every other byte).
    fn arb_text() -> impl Strategy<Value = String> {
        const CHARS: [char; 7] = ['\0', 'a', 'b', '~', 'ß', '日', '𝄞'];
        prop::collection::vec(0..CHARS.len(), 0..25).prop_map(|picks| {
            let mut s = String::new();
            for c in picks.into_iter().map(|i| CHARS[i]) {
                if s.len() + c.len_utf8() <= 24 {
                    s.push(c);
                }
            }
            s
        })
    }

    /// What a text value must hash as: its rank, then the `str`'s hash.
    fn text_hash<H: Hasher>(s: &str, mut h: H) -> u64 {
        3u8.hash(&mut h);
        s.hash(&mut h);
        h.finish()
    }

    fn value_hash<H: Hasher>(v: &Value, mut h: H) -> u64 {
        v.hash(&mut h);
        h.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// A text value reads back its text, hashes as its rank byte and
        /// then the `str` under both hashers the platform uses, compares and
        /// orders as the `str` does, and meters its length plus 8 bytes,
        /// whatever its length.
        #[test]
        fn text_behaves_as_its_str(a in arb_text(), b in arb_text(), cut in 0usize..25) {
            let va = Value::str(&a);
            prop_assert_eq!(va.as_str(), Some(a.as_str()));
            prop_assert_eq!(va.byte_size(), a.len() + 8);
            prop_assert_eq!(value_hash(&va, FastHasher::default()), text_hash(&a, FastHasher::default()));
            prop_assert_eq!(value_hash(&va, DefaultHasher::new()), text_hash(&a, DefaultHasher::new()));
            prop_assert_eq!(va.to_string(), format!("'{a}'"));
            prop_assert_eq!(format!("{va:?}"), format!("Str({a:?})"));
            // `b`, and `b` behind a prefix of `a`: pairs that share a
            // prefix and straddle the inline bound from either side.
            let prefixed: String = a.chars().take(cut).chain(b.chars()).collect();
            for other in [&b, &prefixed, &a] {
                let vo = Value::str(other);
                prop_assert_eq!(va == vo, a == *other);
                prop_assert_eq!(va.cmp(&vo), a.as_str().cmp(other.as_str()));
                prop_assert_eq!(vo.cmp(&va), other.as_str().cmp(a.as_str()));
            }
        }
    }
}
