//! 128-bit identifiers for datasets.
//!
//! The paper (§II-C1) maps each dataset's full path to a UUID stored in a
//! dedicated database; all child container keys embed that UUID. We
//! implement a random (version-4-style) 16-byte identifier.

use rand::RngCore;
use std::fmt;

/// A 16-byte dataset identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uuid([u8; Uuid::LEN]);

impl Uuid {
    /// Size in bytes when embedded in keys: the leading key bytes by which
    /// bedrock partitions the container databases' tables.
    pub const LEN: usize = bedrock::DATASET_KEY_PREFIX_LEN;

    /// Generate a fresh random UUID (v4-style: random with version/variant
    /// bits set).
    pub fn generate() -> Uuid {
        let mut bytes = [0u8; Uuid::LEN];
        rand::thread_rng().fill_bytes(&mut bytes);
        bytes[6] = (bytes[6] & 0x0F) | 0x40;
        bytes[8] = (bytes[8] & 0x3F) | 0x80;
        Uuid(bytes)
    }

    /// Wrap raw bytes.
    pub const fn from_bytes(bytes: [u8; Uuid::LEN]) -> Uuid {
        Uuid(bytes)
    }

    /// Read from a slice; `None` if it is not exactly 16 bytes.
    pub fn from_slice(s: &[u8]) -> Option<Uuid> {
        let arr: [u8; Uuid::LEN] = s.try_into().ok()?;
        Some(Uuid(arr))
    }

    /// The raw bytes.
    pub const fn as_bytes(&self) -> &[u8; Uuid::LEN] {
        &self.0
    }
}

impl fmt::Debug for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uuid({self})")
    }
}

impl fmt::Display for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.0.iter().enumerate() {
            if matches!(i, 4 | 6 | 8 | 10) {
                write!(f, "-")?;
            }
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generate_is_unique_enough() {
        let set: HashSet<Uuid> = (0..1000).map(|_| Uuid::generate()).collect();
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn version_and_variant_bits() {
        let u = Uuid::generate();
        assert_eq!(u.as_bytes()[6] >> 4, 4);
        assert_eq!(u.as_bytes()[8] >> 6, 0b10);
    }

    #[test]
    fn slice_round_trip() {
        let u = Uuid::generate();
        assert_eq!(Uuid::from_slice(u.as_bytes()), Some(u));
        assert_eq!(Uuid::from_slice(&[0u8; 15]), None);
    }

    #[test]
    fn display_format() {
        let u = Uuid::from_bytes([0xAB; 16]);
        let s = u.to_string();
        assert_eq!(s.len(), 36);
        assert_eq!(s.matches('-').count(), 4);
        assert!(s.starts_with("abababab-"));
    }
}
