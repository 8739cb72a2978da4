//! The in-memory write buffer.

use std::collections::BTreeMap;
use std::ops::Bound;

/// A memtable value: either live bytes or a deletion tombstone. Tombstones
/// must be kept (not simply removed) so that a flushed table can shadow
/// older versions of the key living in lower levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Live data.
    Put(Vec<u8>),
    /// Deletion marker.
    Tombstone,
}

impl Value {
    /// The live bytes; `None` for a tombstone.
    pub fn live(&self) -> Option<&[u8]> {
        match self {
            Value::Put(v) => Some(v),
            Value::Tombstone => None,
        }
    }
}

/// A sorted in-memory buffer of recent writes.
///
/// RocksDB uses a concurrent skiplist; our databases are accessed through a
/// provider that serializes writes per database (the Mochi model maps each
/// database to one provider pool), so a `BTreeMap` behind the `Db` lock
/// gives the same semantics.
#[derive(Debug, Default)]
pub struct Memtable {
    map: BTreeMap<Vec<u8>, Value>,
    approx_bytes: usize,
}

impl Memtable {
    /// Create an empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or overwrite a key.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.insert(key.to_vec(), Value::Put(value.to_vec()));
    }

    /// Insert a tombstone for a key.
    pub fn delete(&mut self, key: &[u8]) {
        self.insert(key.to_vec(), Value::Tombstone);
    }

    fn insert(&mut self, key: Vec<u8>, value: Value) {
        let val_len = match &value {
            Value::Put(v) => v.len(),
            Value::Tombstone => 0,
        };
        let key_len = key.len();
        if let Some(old) = self.map.insert(key, value) {
            let old_len = match &old {
                Value::Put(v) => v.len(),
                Value::Tombstone => 0,
            };
            // Key bytes were already accounted for on first insertion.
            self.approx_bytes = self.approx_bytes.saturating_sub(old_len) + val_len;
        } else {
            self.approx_bytes += key_len + val_len;
        }
    }

    /// Look up a key. `Some(Value::Tombstone)` means "known deleted" and
    /// must short-circuit the read path.
    pub fn get(&self, key: &[u8]) -> Option<&Value> {
        self.map.get(key)
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate memory footprint used to trigger flushes.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Iterate entries with keys in `[lower, upper)` in sorted order.
    pub fn range<'a>(
        &'a self,
        lower: Bound<&'a [u8]>,
        upper: Bound<&'a [u8]>,
    ) -> impl Iterator<Item = (&'a [u8], &'a Value)> + 'a {
        self.map
            .range::<[u8], _>((lower, upper))
            .map(|(k, v)| (k.as_slice(), v))
    }

    /// Iterate all entries in sorted order (for flushing).
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &Value)> {
        self.map.iter().map(|(k, v)| (k.as_slice(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut m = Memtable::new();
        m.put(b"a", b"1");
        assert_eq!(m.get(b"a"), Some(&Value::Put(b"1".to_vec())));
        m.delete(b"a");
        assert_eq!(m.get(b"a"), Some(&Value::Tombstone));
        assert_eq!(m.get(b"b"), None);
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut m = Memtable::new();
        m.put(b"k", b"old");
        m.put(b"k", b"new");
        assert_eq!(m.get(b"k"), Some(&Value::Put(b"new".to_vec())));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn range_is_sorted() {
        let mut m = Memtable::new();
        for k in [&b"c"[..], b"a", b"e", b"b", b"d"] {
            m.put(k, b"x");
        }
        let keys: Vec<&[u8]> = m
            .range(Bound::Included(&b"b"[..]), Bound::Excluded(&b"e"[..]))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec![&b"b"[..], b"c", b"d"]);
    }

    #[test]
    fn approx_bytes_grows_and_tracks_overwrites() {
        let mut m = Memtable::new();
        m.put(b"key", &[0u8; 100]);
        let b1 = m.approx_bytes();
        assert!(b1 >= 103);
        m.put(b"key", &[0u8; 10]);
        assert!(m.approx_bytes() < b1 + 100);
    }

    #[test]
    fn tombstones_appear_in_iteration() {
        let mut m = Memtable::new();
        m.put(b"a", b"1");
        m.delete(b"b");
        let all: Vec<_> = m.iter().collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1], (&b"b"[..], &Value::Tombstone));
    }
}
