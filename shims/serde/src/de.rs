//! Deserialization half of the serde data model.

use std::fmt::{self, Display};
use std::marker::PhantomData;

/// Errors produced while deserializing.
pub trait Error: Sized + std::error::Error {
    /// Build an error from any displayable message.
    fn custom<T: Display>(msg: T) -> Self;

    /// A struct field was expected but absent.
    fn missing_field(field: &'static str) -> Self {
        Self::custom(format_args!("missing field `{field}`"))
    }

    /// A field name did not match any known field.
    fn unknown_field(field: &str, expected: &'static [&'static str]) -> Self {
        Self::custom(format_args!(
            "unknown field `{field}`, expected one of {expected:?}"
        ))
    }

    /// A variant name/index did not match any known variant.
    fn unknown_variant(variant: &str, expected: &'static [&'static str]) -> Self {
        Self::custom(format_args!(
            "unknown variant `{variant}`, expected one of {expected:?}"
        ))
    }

    /// A field appeared twice.
    fn duplicate_field(field: &'static str) -> Self {
        Self::custom(format_args!("duplicate field `{field}`"))
    }

    /// The input contained a value of the wrong type.
    fn invalid_type(unexpected: &str, expected: &dyn Display) -> Self {
        Self::custom(format_args!(
            "invalid type: {unexpected}, expected {expected}"
        ))
    }

    /// A sequence or map had the wrong number of elements.
    fn invalid_length(len: usize, expected: &dyn Display) -> Self {
        Self::custom(format_args!("invalid length {len}, expected {expected}"))
    }
}

/// A type constructible from any serde data format.
pub trait Deserialize<'de>: Sized {
    /// Drive `deserializer` to build `Self`.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A [`Deserialize`] that borrows nothing from the input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// Stateful deserialization entry point; `PhantomData<T>` is the stateless
/// seed for any `T: Deserialize`.
pub trait DeserializeSeed<'de>: Sized {
    /// Value produced.
    type Value;
    /// Drive `deserializer` using the seed's state.
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<T, D::Error> {
        T::deserialize(deserializer)
    }
}

/// A data-format backend, driven by [`Deserialize`] implementations.
pub trait Deserializer<'de>: Sized {
    /// Error type.
    type Error: Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_identifier<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
}

macro_rules! visit_default {
    ($($name:ident: $ty:ty => $what:expr),* $(,)?) => {$(
        /// Visit one input value (errors by default).
        fn $name<E: Error>(self, v: $ty) -> Result<Self::Value, E> {
            let _ = v;
            Err(E::invalid_type($what, &self.wants()))
        }
    )*};
}

/// Receives values from a [`Deserializer`]; implementors override the
/// `visit_*` methods for the shapes they accept.
pub trait Visitor<'de>: Sized {
    /// Value produced by this visitor.
    type Value;

    /// Human-readable description of what the visitor expects.
    fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result;

    #[doc(hidden)]
    fn wants(&self) -> String {
        struct W<'a, V>(&'a V);
        impl<'de, V: Visitor<'de>> Display for W<'_, V> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.expecting(f)
            }
        }
        W(self).to_string()
    }

    visit_default! {
        visit_bool: bool => "a boolean",
        visit_i8: i8 => "an integer",
        visit_i16: i16 => "an integer",
        visit_i32: i32 => "an integer",
        visit_u8: u8 => "an integer",
        visit_u16: u16 => "an integer",
        visit_u32: u32 => "an integer",
        visit_f32: f32 => "a float",
    }

    /// Visit a 64-bit signed integer.
    fn visit_i64<E: Error>(self, v: i64) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::invalid_type("an integer", &self.wants()))
    }

    /// Visit a 128-bit signed integer.
    fn visit_i128<E: Error>(self, v: i128) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::invalid_type("an integer", &self.wants()))
    }

    /// Visit a 64-bit unsigned integer.
    fn visit_u64<E: Error>(self, v: u64) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::invalid_type("an integer", &self.wants()))
    }

    /// Visit a 128-bit unsigned integer.
    fn visit_u128<E: Error>(self, v: u128) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::invalid_type("an integer", &self.wants()))
    }

    /// Visit a 64-bit float.
    fn visit_f64<E: Error>(self, v: f64) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::invalid_type("a float", &self.wants()))
    }

    /// Visit a character (defaults to a one-char string).
    fn visit_char<E: Error>(self, v: char) -> Result<Self::Value, E> {
        self.visit_str(v.encode_utf8(&mut [0u8; 4]))
    }

    /// Visit a borrowed-for-this-call string.
    fn visit_str<E: Error>(self, v: &str) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::invalid_type("a string", &self.wants()))
    }

    /// Visit a string borrowed from the input itself.
    fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<Self::Value, E> {
        self.visit_str(v)
    }

    /// Visit an owned string.
    fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
        self.visit_str(&v)
    }

    /// Visit borrowed-for-this-call bytes.
    fn visit_bytes<E: Error>(self, v: &[u8]) -> Result<Self::Value, E> {
        let _ = v;
        Err(E::invalid_type("bytes", &self.wants()))
    }

    /// Visit bytes borrowed from the input itself.
    fn visit_borrowed_bytes<E: Error>(self, v: &'de [u8]) -> Result<Self::Value, E> {
        self.visit_bytes(v)
    }

    /// Visit an owned byte buffer.
    fn visit_byte_buf<E: Error>(self, v: Vec<u8>) -> Result<Self::Value, E> {
        self.visit_bytes(&v)
    }

    /// Visit an absent optional.
    fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
        Err(E::invalid_type("none", &self.wants()))
    }

    /// Visit a present optional.
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(Error::invalid_type("some", &self.wants()))
    }

    /// Visit a unit value.
    fn visit_unit<E: Error>(self) -> Result<Self::Value, E> {
        Err(E::invalid_type("unit", &self.wants()))
    }

    /// Visit a newtype struct's inner value.
    fn visit_newtype_struct<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(Error::invalid_type("newtype struct", &self.wants()))
    }

    /// Visit a sequence.
    fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error> {
        let _ = seq;
        Err(Error::invalid_type("a sequence", &self.wants()))
    }

    /// Visit a map.
    fn visit_map<A: MapAccess<'de>>(self, map: A) -> Result<Self::Value, A::Error> {
        let _ = map;
        Err(Error::invalid_type("a map", &self.wants()))
    }

    /// Visit an enum.
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
        let _ = data;
        Err(Error::invalid_type("an enum", &self.wants()))
    }
}

/// Iterator-like access to a serialized sequence.
pub trait SeqAccess<'de> {
    /// Error type.
    type Error: Error;

    /// Next element via an explicit seed.
    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error>;

    /// Next element of a known `Deserialize` type.
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error> {
        self.next_element_seed(PhantomData)
    }

    /// Remaining length, when known.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Iterator-like access to a serialized map.
pub trait MapAccess<'de> {
    /// Error type.
    type Error: Error;

    /// Next key via an explicit seed.
    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Self::Error>;

    /// Value for the key just returned, via an explicit seed.
    fn next_value_seed<V: DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, Self::Error>;

    /// Next key of a known `Deserialize` type.
    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error> {
        self.next_key_seed(PhantomData)
    }

    /// Next value of a known `Deserialize` type.
    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error> {
        self.next_value_seed(PhantomData)
    }

    /// Next full entry.
    fn next_entry<K: Deserialize<'de>, V: Deserialize<'de>>(
        &mut self,
    ) -> Result<Option<(K, V)>, Self::Error> {
        match self.next_key()? {
            Some(k) => Ok(Some((k, self.next_value()?))),
            None => Ok(None),
        }
    }

    /// Remaining length, when known.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Access to the variant tag of a serialized enum.
pub trait EnumAccess<'de>: Sized {
    /// Error type.
    type Error: Error;
    /// Accessor for the variant's payload.
    type Variant: VariantAccess<'de, Error = Self::Error>;

    /// Read the variant tag via an explicit seed.
    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), Self::Error>;

    /// Read the variant tag as a known `Deserialize` type.
    fn variant<V: Deserialize<'de>>(self) -> Result<(V, Self::Variant), Self::Error> {
        self.variant_seed(PhantomData)
    }
}

/// Access to the payload of one enum variant.
pub trait VariantAccess<'de>: Sized {
    /// Error type.
    type Error: Error;

    /// The variant carries no payload.
    fn unit_variant(self) -> Result<(), Self::Error>;

    /// The variant carries one value, via an explicit seed.
    fn newtype_variant_seed<T: DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, Self::Error>;

    /// The variant carries one value of a known type.
    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Self::Error> {
        self.newtype_variant_seed(PhantomData)
    }

    /// The variant carries a tuple payload.
    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;

    /// The variant carries named fields.
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
}

/// A value that accepts and discards any input shape (used to skip unknown
/// fields in self-describing formats).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IgnoredAny;

impl<'de> Visitor<'de> for IgnoredAny {
    type Value = IgnoredAny;

    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("anything")
    }

    fn visit_bool<E: Error>(self, _: bool) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_i64<E: Error>(self, _: i64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_i128<E: Error>(self, _: i128) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_u64<E: Error>(self, _: u64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_u128<E: Error>(self, _: u128) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_f64<E: Error>(self, _: f64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_str<E: Error>(self, _: &str) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_bytes<E: Error>(self, _: &[u8]) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_none<E: Error>(self) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<IgnoredAny, D::Error> {
        deserializer.deserialize_ignored_any(IgnoredAny)
    }
    fn visit_unit<E: Error>(self) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_newtype_struct<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> Result<IgnoredAny, D::Error> {
        deserializer.deserialize_ignored_any(IgnoredAny)
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<IgnoredAny, A::Error> {
        while seq.next_element::<IgnoredAny>()?.is_some() {}
        Ok(IgnoredAny)
    }
    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<IgnoredAny, A::Error> {
        while map.next_key::<IgnoredAny>()?.is_some() {
            map.next_value::<IgnoredAny>()?;
        }
        Ok(IgnoredAny)
    }
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<IgnoredAny, A::Error> {
        data.variant::<IgnoredAny>()?.1.newtype_variant()
    }
}

impl<'de> Deserialize<'de> for IgnoredAny {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<IgnoredAny, D::Error> {
        deserializer.deserialize_ignored_any(IgnoredAny)
    }
}

// ---------------------------------------------------------------------------
// Deserialize impls for std types
// ---------------------------------------------------------------------------

macro_rules! int_visitor {
    ($ty:ty, $deserialize:ident, $visitor:ident) => {
        struct $visitor;

        impl<'de> Visitor<'de> for $visitor {
            type Value = $ty;
            fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                f.write_str(stringify!($ty))
            }
            fn visit_i8<E: Error>(self, v: i8) -> Result<$ty, E> {
                <$ty>::try_from(v).map_err(|_| E::custom("integer out of range"))
            }
            fn visit_i16<E: Error>(self, v: i16) -> Result<$ty, E> {
                <$ty>::try_from(v).map_err(|_| E::custom("integer out of range"))
            }
            fn visit_i32<E: Error>(self, v: i32) -> Result<$ty, E> {
                <$ty>::try_from(v).map_err(|_| E::custom("integer out of range"))
            }
            fn visit_i64<E: Error>(self, v: i64) -> Result<$ty, E> {
                <$ty>::try_from(v).map_err(|_| E::custom("integer out of range"))
            }
            fn visit_i128<E: Error>(self, v: i128) -> Result<$ty, E> {
                <$ty>::try_from(v).map_err(|_| E::custom("integer out of range"))
            }
            fn visit_u8<E: Error>(self, v: u8) -> Result<$ty, E> {
                <$ty>::try_from(v).map_err(|_| E::custom("integer out of range"))
            }
            fn visit_u16<E: Error>(self, v: u16) -> Result<$ty, E> {
                <$ty>::try_from(v).map_err(|_| E::custom("integer out of range"))
            }
            fn visit_u32<E: Error>(self, v: u32) -> Result<$ty, E> {
                <$ty>::try_from(v).map_err(|_| E::custom("integer out of range"))
            }
            fn visit_u64<E: Error>(self, v: u64) -> Result<$ty, E> {
                <$ty>::try_from(v).map_err(|_| E::custom("integer out of range"))
            }
            fn visit_u128<E: Error>(self, v: u128) -> Result<$ty, E> {
                <$ty>::try_from(v).map_err(|_| E::custom("integer out of range"))
            }
        }

        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$ty, D::Error> {
                deserializer.$deserialize($visitor)
            }
        }
    };
}

int_visitor!(i8, deserialize_i8, I8Visitor);
int_visitor!(i16, deserialize_i16, I16Visitor);
int_visitor!(i32, deserialize_i32, I32Visitor);
int_visitor!(i64, deserialize_i64, I64Visitor);
int_visitor!(i128, deserialize_i128, I128Visitor);
int_visitor!(u8, deserialize_u8, U8Visitor);
int_visitor!(u16, deserialize_u16, U16Visitor);
int_visitor!(u32, deserialize_u32, U32Visitor);
int_visitor!(u64, deserialize_u64, U64Visitor);
int_visitor!(u128, deserialize_u128, U128Visitor);
int_visitor!(usize, deserialize_u64, UsizeVisitor);

struct BoolVisitor;
impl<'de> Visitor<'de> for BoolVisitor {
    type Value = bool;
    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a boolean")
    }
    fn visit_bool<E: Error>(self, v: bool) -> Result<bool, E> {
        Ok(v)
    }
}
impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<bool, D::Error> {
        deserializer.deserialize_bool(BoolVisitor)
    }
}

macro_rules! float_visitor {
    ($ty:ty, $deserialize:ident, $visitor:ident) => {
        struct $visitor;
        impl<'de> Visitor<'de> for $visitor {
            type Value = $ty;
            fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                f.write_str(stringify!($ty))
            }
            fn visit_f32<E: Error>(self, v: f32) -> Result<$ty, E> {
                Ok(v as $ty)
            }
            fn visit_f64<E: Error>(self, v: f64) -> Result<$ty, E> {
                Ok(v as $ty)
            }
            fn visit_i64<E: Error>(self, v: i64) -> Result<$ty, E> {
                Ok(v as $ty)
            }
            fn visit_u64<E: Error>(self, v: u64) -> Result<$ty, E> {
                Ok(v as $ty)
            }
        }
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$ty, D::Error> {
                deserializer.$deserialize($visitor)
            }
        }
    };
}

float_visitor!(f32, deserialize_f32, F32Visitor);
float_visitor!(f64, deserialize_f64, F64Visitor);

struct CharVisitor;
impl<'de> Visitor<'de> for CharVisitor {
    type Value = char;
    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a character")
    }
    fn visit_char<E: Error>(self, v: char) -> Result<char, E> {
        Ok(v)
    }
    fn visit_str<E: Error>(self, v: &str) -> Result<char, E> {
        let mut chars = v.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(E::custom("expected a single-character string")),
        }
    }
}
impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<char, D::Error> {
        deserializer.deserialize_char(CharVisitor)
    }
}

struct StringVisitor;
impl<'de> Visitor<'de> for StringVisitor {
    type Value = String;
    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a string")
    }
    fn visit_str<E: Error>(self, v: &str) -> Result<String, E> {
        Ok(v.to_owned())
    }
    fn visit_string<E: Error>(self, v: String) -> Result<String, E> {
        Ok(v)
    }
}
impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<String, D::Error> {
        deserializer.deserialize_string(StringVisitor)
    }
}

impl<'de> Deserialize<'de> for std::path::PathBuf {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(std::path::PathBuf::from(String::deserialize(deserializer)?))
    }
}

struct UnitVisitor;
impl<'de> Visitor<'de> for UnitVisitor {
    type Value = ();
    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("unit")
    }
    fn visit_unit<E: Error>(self) -> Result<(), E> {
        Ok(())
    }
}
impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<(), D::Error> {
        deserializer.deserialize_unit(UnitVisitor)
    }
}

struct OptionVisitor<T>(PhantomData<T>);
impl<'de, T: Deserialize<'de>> Visitor<'de> for OptionVisitor<T> {
    type Value = Option<T>;
    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("an optional value")
    }
    fn visit_none<E: Error>(self) -> Result<Option<T>, E> {
        Ok(None)
    }
    fn visit_unit<E: Error>(self) -> Result<Option<T>, E> {
        Ok(None)
    }
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<Option<T>, D::Error> {
        T::deserialize(deserializer).map(Some)
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Option<T>, D::Error> {
        deserializer.deserialize_option(OptionVisitor(PhantomData))
    }
}

struct VecVisitor<T>(PhantomData<T>);
impl<'de, T: Deserialize<'de>> Visitor<'de> for VecVisitor<T> {
    type Value = Vec<T>;
    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a sequence")
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Vec<T>, A::Error> {
        let mut out = Vec::with_capacity(seq.size_hint().unwrap_or(0).min(4096));
        while let Some(item) = seq.next_element()? {
            out.push(item);
        }
        Ok(out)
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Vec<T>, D::Error> {
        deserializer.deserialize_seq(VecVisitor(PhantomData))
    }
}

struct BTreeMapVisitor<K, V>(PhantomData<(K, V)>);
impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Visitor<'de> for BTreeMapVisitor<K, V> {
    type Value = std::collections::BTreeMap<K, V>;
    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.write_str("a map")
    }
    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
        let mut out = std::collections::BTreeMap::new();
        while let Some((k, v)) = map.next_entry()? {
            out.insert(k, v);
        }
        Ok(out)
    }
}
impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de>
    for std::collections::BTreeMap<K, V>
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_map(BTreeMapVisitor(PhantomData))
    }
}

macro_rules! deserialize_tuples {
    ($(($len:expr => $($t:ident),+))+) => {$(
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct TupleVisitor<$($t),+>(PhantomData<($($t,)+)>);
                impl<'de, $($t: Deserialize<'de>),+> Visitor<'de> for TupleVisitor<$($t),+> {
                    type Value = ($($t,)+);
                    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                        write!(f, "a tuple of length {}", $len)
                    }
                    #[allow(non_snake_case, unused_assignments)]
                    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                        let mut taken = 0usize;
                        $(
                            let $t: $t = match seq.next_element()? {
                                Some(v) => { taken += 1; v }
                                None => return Err(Error::invalid_length(
                                    taken,
                                    &format_args!("tuple of {}", $len),
                                )),
                            };
                        )+
                        Ok(($($t,)+))
                    }
                }
                deserializer.deserialize_tuple($len, TupleVisitor(PhantomData))
            }
        }
    )+};
}

deserialize_tuples! {
    (1 => T0)
    (2 => T0, T1)
    (3 => T0, T1, T2)
    (4 => T0, T1, T2, T3)
    (5 => T0, T1, T2, T3, T4)
    (6 => T0, T1, T2, T3, T4, T5)
    (7 => T0, T1, T2, T3, T4, T5, T6)
    (8 => T0, T1, T2, T3, T4, T5, T6, T7)
}

// ---------------------------------------------------------------------------
// value: trivial deserializers wrapping a single already-decoded value
// ---------------------------------------------------------------------------

/// Deserializers that replay one primitive value into a visitor.
pub mod value {
    use super::*;

    macro_rules! forward_all_to {
        ($visit:ident, $field:ident) => {
            fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
                visitor.$visit(self.$field)
            }
            fn deserialize_bool<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_i8<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_i16<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_i32<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_i64<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_i128<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_u8<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_u16<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_u32<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_u64<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_u128<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_f32<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_f64<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_char<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_str<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_string<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_bytes<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_byte_buf<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_option<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_unit<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_unit_struct<V: Visitor<'de>>(
                self,
                _n: &'static str,
                v: V,
            ) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_newtype_struct<V: Visitor<'de>>(
                self,
                _n: &'static str,
                v: V,
            ) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_seq<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_tuple<V: Visitor<'de>>(self, _l: usize, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_tuple_struct<V: Visitor<'de>>(
                self,
                _n: &'static str,
                _l: usize,
                v: V,
            ) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_map<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_struct<V: Visitor<'de>>(
                self,
                _n: &'static str,
                _f: &'static [&'static str],
                v: V,
            ) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_enum<V: Visitor<'de>>(
                self,
                _n: &'static str,
                _va: &'static [&'static str],
                v: V,
            ) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_identifier<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
            fn deserialize_ignored_any<V: Visitor<'de>>(self, v: V) -> Result<V::Value, E> {
                self.deserialize_any(v)
            }
        };
    }

    /// Replays one `u32` (e.g. an enum variant index) into any visitor.
    pub struct U32Deserializer<E> {
        value: u32,
        marker: PhantomData<E>,
    }

    impl<E> U32Deserializer<E> {
        /// Wrap a value.
        pub fn new(value: u32) -> Self {
            U32Deserializer {
                value,
                marker: PhantomData,
            }
        }
    }

    impl<'de, E: Error> Deserializer<'de> for U32Deserializer<E> {
        type Error = E;
        forward_all_to!(visit_u32, value);
    }

    /// Replays one borrowed string into any visitor.
    pub struct StrDeserializer<'a, E> {
        value: &'a str,
        marker: PhantomData<E>,
    }

    impl<'a, E> StrDeserializer<'a, E> {
        /// Wrap a value.
        pub fn new(value: &'a str) -> Self {
            StrDeserializer {
                value,
                marker: PhantomData,
            }
        }
    }

    impl<'de, 'a, E: Error> Deserializer<'de> for StrDeserializer<'a, E> {
        type Error = E;
        forward_all_to!(visit_str, value);
    }
}
