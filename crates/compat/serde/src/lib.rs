//! In-workspace stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this crate provides
//! a small self-contained serialization framework with serde's spelling:
//! [`Serialize`] / [`Deserialize`] traits, `#[derive(Serialize,
//! Deserialize)]` (from the sibling `serde_derive` proc-macro crate), and a
//! [`de::DeserializeOwned`] alias. Unlike real serde it is not a streaming
//! framework: values serialize into a [`Value`] tree which `serde_json`
//! renders as text. Integers are kept exact up to 128 bits (registry offsets
//! and id salts exceed `f64`'s 53-bit integer range).
//!
//! JSON shapes match serde's external-tagging conventions, so documents
//! written by a real-serde build would parse identically: structs are maps,
//! unit enum variants are strings, and data-carrying variants are
//! single-entry maps keyed by the variant name.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// A self-describing serialized value (the JSON data model with exact
/// integers).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u128),
    /// A negative integer (always < 0; non-negative integers use `UInt`).
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object; insertion order is preserved.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Returns the entries if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the elements if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the string if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Short kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Seq(_) => "array",
            Value::Map(_) => "object",
        }
    }
}

/// Serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error from any displayable message (serde's
    /// `de::Error::custom`).
    pub fn custom<T: fmt::Display>(msg: T) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can serialize themselves into a [`Value`] tree.
pub trait Serialize {
    /// Produces the serialized form.
    fn serialize(&self) -> Value;
}

/// Types that can reconstruct themselves from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses the value.
    fn deserialize(v: &Value) -> Result<Self, Error>;

    /// Called when a struct field with this type is absent from the map.
    /// `Option` fields treat absence as `None`; everything else errors.
    fn deserialize_missing(field: &str) -> Result<Self, Error> {
        Err(Error::custom(format!("missing field `{field}`")))
    }
}

/// Deserializer-side re-exports, mirroring `serde::de`.
pub mod de {
    pub use crate::Error;

    /// Types deserializable without borrowing from the input (every type
    /// here — the value tree owns its data).
    pub trait DeserializeOwned: crate::Deserialize {}
    impl<T: crate::Deserialize> DeserializeOwned for T {}
}

/// Serializer-side re-exports, mirroring `serde::ser`.
pub mod ser {
    pub use crate::Error;
}

/// Looks up `key` in a struct map and deserializes it; absence is delegated
/// to [`Deserialize::deserialize_missing`]. Used by derived code.
#[doc(hidden)]
pub fn __field<T: Deserialize>(map: &[(String, Value)], key: &str) -> Result<T, Error> {
    match map.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::deserialize(v).map_err(|e| Error::custom(format!("field `{key}`: {e}"))),
        None => T::deserialize_missing(key),
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

// Identity impls: (de)serializing the dynamic tree itself, as real serde
// does for `serde_json::Value` — used by tests and generic plumbing that
// want the untyped representation.
impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::UInt(*self as u128)
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let n: u128 = match v {
                    Value::UInt(n) => *n,
                    Value::Int(n) if *n >= 0 => *n as u128,
                    other => {
                        return Err(Error::custom(format!(
                            "expected unsigned integer, got {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(format!("integer {n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, u128, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                if *self >= 0 {
                    Value::UInt(*self as u128)
                } else {
                    Value::Int(*self as i128)
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let n: i128 = match v {
                    Value::Int(n) => *n,
                    Value::UInt(n) => i128::try_from(*n).map_err(|_| {
                        Error::custom(format!("integer {n} out of range for {}", stringify!($t)))
                    })?,
                    other => {
                        return Err(Error::custom(format!(
                            "expected integer, got {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(format!("integer {n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, i128, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::UInt(n) => Ok(*n as $t),
                    Value::Int(n) => Ok(*n as $t),
                    other => Err(Error::custom(format!(
                        "expected number, got {}",
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}
impl_serde_float!(f32, f64);

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::custom(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }

    fn deserialize_missing(_field: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::deserialize).collect(),
            other => Err(Error::custom(format!(
                "expected array, got {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize(v)?;
        let got = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected array of {N} elements, got {got}")))
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.serialize()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::deserialize(v)?)))
                .collect(),
            other => Err(Error::custom(format!(
                "expected object, got {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self) -> Value {
                Value::Seq(vec![$(self.$idx.serialize()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                const ARITY: usize = [$($idx),+].len();
                let seq = v.as_seq().ok_or_else(|| {
                    Error::custom(format!("expected {ARITY}-tuple array, got {}", v.kind()))
                })?;
                if seq.len() != ARITY {
                    return Err(Error::custom(format!(
                        "expected {ARITY}-tuple, got {} elements",
                        seq.len()
                    )));
                }
                Ok(($($name::deserialize(&seq[$idx])?,)+))
            }
        }
    )*};
}
impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_exactly_at_64_bits() {
        let v = u64::MAX.serialize();
        assert_eq!(u64::deserialize(&v).unwrap(), u64::MAX);
        let v = i64::MIN.serialize();
        assert_eq!(i64::deserialize(&v).unwrap(), i64::MIN);
        assert!(u32::deserialize(&(1u128 << 40).serialize()).is_err());
    }

    #[test]
    fn option_absence_is_none() {
        let map: Vec<(String, Value)> = vec![];
        let missing: Option<u64> = __field(&map, "nope").unwrap();
        assert_eq!(missing, None);
        let present: Result<u64, _> = __field(&map, "nope");
        assert!(present.is_err());
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u64, 2u64), (3, 4)];
        assert_eq!(Vec::<(u64, u64)>::deserialize(&v.serialize()).unwrap(), v);
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u32);
        assert_eq!(
            BTreeMap::<String, u32>::deserialize(&m.serialize()).unwrap(),
            m
        );
    }
}
