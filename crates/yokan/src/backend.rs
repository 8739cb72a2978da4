//! Storage backends.
//!
//! The paper runs HEPnOS with two Yokan backends (§IV-D): an in-memory
//! `std::map` and RocksDB writing to node-local SSD. [`MemBackend`] and
//! [`LsmBackend`] are their direct analogues.

use crate::error::YokanError;
use lsmdb::{Db, DbError, DbStats, Options, WriteBatch};
use mercurio::RpcError;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// An owned key/value pair.
pub type KeyValue = (Vec<u8>, Vec<u8>);

/// Operational counters a backend exposes for monitoring (all zero where a
/// backend has nothing to report).
#[derive(Debug, Clone, Default)]
pub struct BackendStats {
    /// Live entry count (memory backends only).
    pub entries: u64,
    /// Read-cache hits (LSM backends only).
    pub cache_hits: u64,
    /// Read-cache misses (LSM backends only).
    pub cache_misses: u64,
    /// Read-cache evictions (LSM backends only).
    pub cache_evictions: u64,
    /// Resident key+value payload bytes (memory backends with watermarks).
    pub mem_bytes: u64,
    /// Mutations that stalled at the soft memory watermark (for LSM
    /// backends: writes that stalled on L0 buildup).
    pub soft_stalls: u64,
    /// Mutations shed at the hard memory watermark (for LSM backends:
    /// writes rejected with `Busy` at the L0 stop trigger).
    pub hard_sheds: u64,
    /// Full LSM engine counters (LSM backends only): levels, compactions,
    /// WAL traffic, amplification inputs.
    pub lsm: Option<DbStats>,
}

/// Memory watermark policy for [`MemBackend`] — the RocksDB-style write
/// control split into a *soft* level (mutations stall for a bounded time,
/// throttling writers) and a *hard* level (mutations are shed with
/// [`RpcError::Busy`]), so backend memory stays bounded instead of growing
/// until the process is OOM-killed.
#[derive(Debug, Clone)]
pub struct WatermarkConfig {
    /// Byte level above which mutations stall (bounded wait) before
    /// applying.
    pub soft_bytes: usize,
    /// Byte level mutations may never push resident bytes past; a mutation
    /// that would is rejected whole with [`RpcError::Busy`].
    pub hard_bytes: usize,
    /// Maximum time one mutation waits at the soft watermark before
    /// proceeding anyway.
    pub max_stall: Duration,
    /// Backoff hint carried in hard-watermark [`RpcError::Busy`] rejections.
    pub retry_after_hint: Duration,
}

impl Default for WatermarkConfig {
    fn default() -> Self {
        WatermarkConfig {
            soft_bytes: 48 << 20,
            hard_bytes: 64 << 20,
            max_stall: Duration::from_millis(20),
            retry_after_hint: Duration::from_millis(5),
        }
    }
}

/// Key ordering note: backends must store keys in lexicographic byte order —
/// HEPnOS relies on big-endian number encoding + sorted iteration to walk
/// runs/subruns/events in ascending numeric order (paper §II-C3).
pub trait Backend: Send + Sync {
    /// Insert or overwrite one pair.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), YokanError>;

    /// Atomically insert `value` unless `key` already exists; returns the
    /// existing value when there is one (and writes nothing). Concurrent
    /// creators (e.g. two clients registering the same dataset) race on
    /// this, so implementations must make the check-and-insert atomic.
    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, YokanError>;

    /// Insert a batch; atomic per backend.
    fn put_multi(&self, pairs: &[KeyValue]) -> Result<(), YokanError> {
        for (k, v) in pairs {
            self.put(k, v)?;
        }
        Ok(())
    }

    /// Point lookup.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, YokanError>;

    /// Batched lookup, one result slot per key.
    fn get_multi(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>, YokanError> {
        keys.iter().map(|k| self.get(k)).collect()
    }

    /// Whether the key exists.
    fn exists(&self, key: &[u8]) -> Result<bool, YokanError> {
        Ok(self.get(key)?.is_some())
    }

    /// Batched existence check, one result slot per key.
    fn exists_multi(&self, keys: &[Vec<u8>]) -> Result<Vec<bool>, YokanError> {
        keys.iter().map(|k| self.exists(k)).collect()
    }

    /// Delete one key (idempotent).
    fn erase(&self, key: &[u8]) -> Result<(), YokanError>;

    /// Delete a batch of keys (idempotent).
    fn erase_multi(&self, keys: &[Vec<u8>]) -> Result<(), YokanError> {
        for k in keys {
            self.erase(k)?;
        }
        Ok(())
    }

    /// Hand the pairs whose keys are strictly greater than `from` and start
    /// with `prefix` to `visit`, in sorted key order, until it returns
    /// `false`. The exclusive lower bound lets callers resume iteration from
    /// the last key seen — HEPnOS's container iteration protocol. Key and
    /// value are lent for the call only: the listings below copy what they
    /// return, the service's range filter only what it keeps.
    fn scan(
        &self,
        from: &[u8],
        prefix: &[u8],
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<(), YokanError>;

    /// Keys strictly greater than `from` that start with `prefix`, in sorted
    /// order, up to `limit` (`0` = unlimited).
    fn list_keys(
        &self,
        from: &[u8],
        prefix: &[u8],
        limit: usize,
    ) -> Result<Vec<Vec<u8>>, YokanError> {
        let mut out = Vec::new();
        self.scan(from, prefix, &mut |k, _| {
            out.push(k.to_vec());
            limit == 0 || out.len() < limit
        })?;
        Ok(out)
    }

    /// Like [`Backend::list_keys`] but returning values too.
    fn list_keyvals(
        &self,
        from: &[u8],
        prefix: &[u8],
        limit: usize,
    ) -> Result<Vec<KeyValue>, YokanError> {
        let mut out = Vec::new();
        self.scan(from, prefix, &mut |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            limit == 0 || out.len() < limit
        })?;
        Ok(out)
    }

    /// Number of stored pairs (may require a scan for LSM backends).
    fn count(&self) -> Result<u64, YokanError>;

    /// Backend kind name ("map" or "lsm"), mirroring Bedrock config values.
    fn kind(&self) -> &'static str;

    /// Monitoring counters (entry count, cache hit rates).
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }
}

/// Smallest key strictly greater than every key starting with `prefix`
/// (`None` when the prefix is all-0xFF or empty, i.e. unbounded).
fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut upper = prefix.to_vec();
    while let Some(last) = upper.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(upper);
        }
        upper.pop();
    }
    None
}

/// In-memory ordered-map backend (`std::map` analogue).
///
/// One `BTreeMap` behind one `RwLock`: point reads share the lock, every
/// mutation (batches included) takes it exclusively, so `put_multi` /
/// `erase_multi` are atomic to concurrent readers and a listing is a
/// consistent cut. The map iterates in lexicographic key order — the
/// sorted-order contract HEPnOS relies on (big-endian keys iterate in
/// numeric event order).
pub struct MemBackend {
    map: RwLock<BTreeMap<Vec<u8>, Vec<u8>>>,
    /// Accounted resident key+value bytes. Reservation-style: a mutation
    /// reserves its incoming bytes *before* applying and rolls back on shed,
    /// so the accounted value never exceeds the hard watermark.
    mem_bytes: AtomicI64,
    watermarks: Option<WatermarkConfig>,
    soft_stalls: AtomicU64,
    hard_sheds: AtomicU64,
}

impl Default for MemBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl MemBackend {
    /// Create an empty backend.
    pub fn new() -> Self {
        MemBackend {
            map: RwLock::new(BTreeMap::new()),
            mem_bytes: AtomicI64::new(0),
            watermarks: None,
            soft_stalls: AtomicU64::new(0),
            hard_sheds: AtomicU64::new(0),
        }
    }

    /// Enable soft/hard memory watermarks on this backend.
    pub fn with_watermarks(mut self, cfg: WatermarkConfig) -> Self {
        assert!(
            cfg.soft_bytes <= cfg.hard_bytes,
            "soft watermark must not exceed the hard watermark"
        );
        self.watermarks = Some(cfg);
        self
    }

    /// Accounted resident key+value payload bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.mem_bytes.load(Ordering::Relaxed).max(0) as u64
    }

    fn charge(&self, delta: i64) {
        self.mem_bytes.fetch_add(delta, Ordering::AcqRel);
    }

    /// Reserve `incoming` bytes against the watermarks before a mutation is
    /// applied. Stalls (bounded by [`WatermarkConfig::max_stall`]) above the
    /// soft level; fails with [`RpcError::Busy`] — reserving nothing, so the
    /// mutation must not be applied at all — when the reservation would
    /// cross the hard level.
    fn reserve_bytes(&self, incoming: usize) -> Result<(), YokanError> {
        let Some(cfg) = &self.watermarks else {
            return Ok(());
        };
        let incoming = incoming as i64;
        let over_soft = |now: i64| -> bool { (now + incoming).max(0) as usize > cfg.soft_bytes };
        if over_soft(self.mem_bytes.load(Ordering::Acquire)) {
            // Soft watermark: throttle, don't reject. Waiting happens before
            // the map lock is taken, so stalled writers block nobody.
            self.soft_stalls.fetch_add(1, Ordering::Relaxed);
            let deadline = Instant::now() + cfg.max_stall;
            while over_soft(self.mem_bytes.load(Ordering::Acquire)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        let now = self.mem_bytes.fetch_add(incoming, Ordering::AcqRel) + incoming;
        if now.max(0) as usize > cfg.hard_bytes {
            self.mem_bytes.fetch_sub(incoming, Ordering::AcqRel);
            self.hard_sheds.fetch_add(1, Ordering::Relaxed);
            return Err(YokanError::Rpc(RpcError::Busy {
                retry_after: cfg.retry_after_hint,
            }));
        }
        Ok(())
    }
}

impl Backend for MemBackend {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), YokanError> {
        self.reserve_bytes(key.len() + value.len())?;
        let old = self.map.write().insert(key.to_vec(), value.to_vec());
        if let Some(old) = old {
            // Overwrite: the reservation charged a whole new pair, but only
            // the value delta actually grew — credit the replaced bytes.
            self.charge(-((key.len() + old.len()) as i64));
        }
        Ok(())
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, YokanError> {
        self.reserve_bytes(key.len() + value.len())?;
        // Holding the write lock across the check-and-insert keeps this
        // linearizable.
        let mut map = self.map.write();
        match map.get(key) {
            Some(existing) => {
                let existing = existing.clone();
                drop(map);
                self.charge(-((key.len() + value.len()) as i64));
                Ok(Some(existing))
            }
            None => {
                map.insert(key.to_vec(), value.to_vec());
                Ok(None)
            }
        }
    }

    fn put_multi(&self, pairs: &[(Vec<u8>, Vec<u8>)]) -> Result<(), YokanError> {
        // The reservation covers the whole batch and happens before the lock
        // is taken: a shed batch is rejected whole, never partially applied.
        self.reserve_bytes(pairs.iter().map(|(k, v)| k.len() + v.len()).sum())?;
        let mut map = self.map.write();
        let mut replaced = 0i64;
        for (k, v) in pairs {
            if let Some(old) = map.insert(k.clone(), v.clone()) {
                replaced += (k.len() + old.len()) as i64;
            }
        }
        drop(map);
        if replaced != 0 {
            self.charge(-replaced);
        }
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, YokanError> {
        Ok(self.map.read().get(key).cloned())
    }

    fn get_multi(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>, YokanError> {
        let map = self.map.read();
        Ok(keys.iter().map(|k| map.get(k).cloned()).collect())
    }

    fn exists(&self, key: &[u8]) -> Result<bool, YokanError> {
        Ok(self.map.read().contains_key(key))
    }

    fn exists_multi(&self, keys: &[Vec<u8>]) -> Result<Vec<bool>, YokanError> {
        let map = self.map.read();
        Ok(keys.iter().map(|k| map.contains_key(k)).collect())
    }

    fn erase(&self, key: &[u8]) -> Result<(), YokanError> {
        let old = self.map.write().remove(key);
        if let Some(old) = old {
            self.charge(-((key.len() + old.len()) as i64));
        }
        Ok(())
    }

    fn erase_multi(&self, keys: &[Vec<u8>]) -> Result<(), YokanError> {
        let mut map = self.map.write();
        let mut freed = 0i64;
        for k in keys {
            if let Some(old) = map.remove(k) {
                freed += (k.len() + old.len()) as i64;
            }
        }
        drop(map);
        if freed != 0 {
            self.charge(-freed);
        }
        Ok(())
    }

    fn scan(
        &self,
        from: &[u8],
        prefix: &[u8],
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<(), YokanError> {
        // Strictly greater than `from`; but when `from` is below the prefix
        // range entirely, a key equal to `prefix` itself must be included.
        let bound = if from >= prefix {
            std::ops::Bound::Excluded(from)
        } else {
            std::ops::Bound::Included(prefix)
        };
        // The prefixed keys are one contiguous run starting at or after
        // `bound`, so the first key outside the prefix ends the walk.
        let map = self.map.read();
        for (k, v) in map.range::<[u8], _>((bound, std::ops::Bound::Unbounded)) {
            if !k.starts_with(prefix) || !visit(k, v) {
                break;
            }
        }
        Ok(())
    }

    fn count(&self) -> Result<u64, YokanError> {
        Ok(self.map.read().len() as u64)
    }

    fn kind(&self) -> &'static str {
        "map"
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            entries: self.map.read().len() as u64,
            mem_bytes: self.resident_bytes(),
            soft_stalls: self.soft_stalls.load(Ordering::Relaxed),
            hard_sheds: self.hard_sheds.load(Ordering::Relaxed),
            ..BackendStats::default()
        }
    }
}

/// Persistent LSM backend (RocksDB analogue), writing to a directory that
/// models the node-local SSD of the paper's Theta runs.
pub struct LsmBackend {
    db: Db,
}

/// Translate engine errors into RPC-visible ones. `Busy` (the L0 write
/// gate) must surface as [`RpcError::Busy`] so clients back off and retry
/// exactly as they do for the in-memory hard watermark — the overload
/// contract is backend-independent.
fn lsm_err(e: DbError) -> YokanError {
    match e {
        DbError::Busy { retry_after } => YokanError::Rpc(RpcError::Busy { retry_after }),
        other => YokanError::Backend(other.to_string()),
    }
}

impl LsmBackend {
    /// Open (or create) a database under `dir`.
    pub fn open(dir: &Path) -> Result<LsmBackend, YokanError> {
        Self::open_with(dir, Options::default())
    }

    /// Open with explicit LSM options.
    pub fn open_with(dir: &Path, opts: Options) -> Result<LsmBackend, YokanError> {
        let db = Db::open(dir, opts).map_err(lsm_err)?;
        Ok(LsmBackend { db })
    }

    /// Access the underlying engine (stats, manual compaction).
    pub fn db(&self) -> &Db {
        &self.db
    }
}

impl Backend for LsmBackend {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), YokanError> {
        self.db.put(key, value).map_err(lsm_err)
    }

    fn put_multi(&self, pairs: &[(Vec<u8>, Vec<u8>)]) -> Result<(), YokanError> {
        let mut batch = WriteBatch::new();
        for (k, v) in pairs {
            batch.put(k, v);
        }
        self.db.write(&batch).map_err(lsm_err)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, YokanError> {
        self.db.get(key).map_err(lsm_err)
    }

    fn erase(&self, key: &[u8]) -> Result<(), YokanError> {
        self.db.delete(key).map_err(lsm_err)
    }

    fn erase_multi(&self, keys: &[Vec<u8>]) -> Result<(), YokanError> {
        let mut batch = WriteBatch::new();
        for k in keys {
            batch.delete(k);
        }
        self.db.write(&batch).map_err(lsm_err)
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, YokanError> {
        self.db.put_if_absent(key, value).map_err(lsm_err)
    }

    fn scan(
        &self,
        from: &[u8],
        prefix: &[u8],
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<(), YokanError> {
        // lsmdb scans are inclusive on the lower bound; the smallest key
        // strictly greater than `from` is `from ++ [0]`. When `from` is below
        // the prefix range, start inclusively at the prefix itself.
        let lower = if from >= prefix {
            let mut l = from.to_vec();
            l.push(0);
            l
        } else {
            prefix.to_vec()
        };
        let upper = prefix_upper_bound(prefix);
        self.db
            .scan_while(&lower, upper.as_deref(), |k, v| {
                !k.starts_with(prefix) || visit(k, v)
            })
            .map_err(lsm_err)
    }

    fn count(&self) -> Result<u64, YokanError> {
        self.db
            .count_range(b"", None)
            .map(|n| n as u64)
            .map_err(lsm_err)
    }

    fn kind(&self) -> &'static str {
        "lsm"
    }

    fn stats(&self) -> BackendStats {
        let cache = self.db.read_cache_stats();
        let lsm = self.db.stats();
        BackendStats {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            soft_stalls: lsm.write_stalls,
            hard_sheds: lsm.write_sheds,
            lsm: Some(lsm),
            ..BackendStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "yokan-backend-{}-{name}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn backends(name: &str) -> Vec<(Box<dyn Backend>, Option<std::path::PathBuf>)> {
        let d = tmpdir(name);
        vec![
            (Box::new(MemBackend::new()), None),
            (Box::new(LsmBackend::open(&d).unwrap()), Some(d)),
        ]
    }

    #[test]
    fn put_get_erase_both_backends() {
        for (b, dir) in backends("pge") {
            b.put(b"k", b"v").unwrap();
            assert_eq!(b.get(b"k").unwrap(), Some(b"v".to_vec()));
            assert!(b.exists(b"k").unwrap());
            b.erase(b"k").unwrap();
            assert_eq!(b.get(b"k").unwrap(), None);
            assert!(!b.exists(b"k").unwrap());
            if let Some(d) = dir {
                drop(b);
                std::fs::remove_dir_all(&d).ok();
            }
        }
    }

    #[test]
    fn put_multi_and_get_multi() {
        for (b, dir) in backends("multi") {
            let pairs: Vec<_> = (0..20u32)
                .map(|i| (format!("k{i:03}").into_bytes(), vec![i as u8]))
                .collect();
            b.put_multi(&pairs).unwrap();
            let keys: Vec<_> = (0..25u32)
                .map(|i| format!("k{i:03}").into_bytes())
                .collect();
            let got = b.get_multi(&keys).unwrap();
            for (i, g) in got.iter().enumerate() {
                if i < 20 {
                    assert_eq!(g.as_deref(), Some(&[i as u8][..]));
                } else {
                    assert!(g.is_none());
                }
            }
            assert_eq!(b.count().unwrap(), 20);
            if let Some(d) = dir {
                drop(b);
                std::fs::remove_dir_all(&d).ok();
            }
        }
    }

    #[test]
    fn list_keys_exclusive_lower_bound_and_prefix() {
        for (b, dir) in backends("list") {
            for run in 0..3u8 {
                for ev in 0..5u8 {
                    b.put(&[b'r', run, b'e', ev], b"x").unwrap();
                }
            }
            // All events of run 1:
            let keys = b.list_keys(&[b'r', 1], &[b'r', 1], 0).unwrap();
            assert_eq!(keys.len(), 5);
            assert!(keys.iter().all(|k| k.starts_with(&[b'r', 1])));
            // Resume after the 2nd event of run 1:
            let keys2 = b.list_keys(&[b'r', 1, b'e', 1], &[b'r', 1], 0).unwrap();
            assert_eq!(keys2.len(), 3);
            assert_eq!(keys2[0], vec![b'r', 1, b'e', 2]);
            // Limit:
            let keys3 = b.list_keys(&[b'r', 1], &[b'r', 1], 2).unwrap();
            assert_eq!(keys3.len(), 2);
            if let Some(d) = dir {
                drop(b);
                std::fs::remove_dir_all(&d).ok();
            }
        }
    }

    #[test]
    fn list_keyvals_returns_values() {
        for (b, dir) in backends("listkv") {
            b.put(b"a1", b"v1").unwrap();
            b.put(b"a2", b"v2").unwrap();
            b.put(b"b1", b"v3").unwrap();
            let kvs = b.list_keyvals(b"", b"a", 0).unwrap();
            assert_eq!(
                kvs,
                vec![
                    (b"a1".to_vec(), b"v1".to_vec()),
                    (b"a2".to_vec(), b"v2".to_vec())
                ]
            );
            if let Some(d) = dir {
                drop(b);
                std::fs::remove_dir_all(&d).ok();
            }
        }
    }

    #[test]
    fn list_with_exact_key_equal_to_from_is_excluded() {
        for (b, dir) in backends("exclusive") {
            b.put(b"k1", b"x").unwrap();
            b.put(b"k2", b"y").unwrap();
            let keys = b.list_keys(b"k1", b"k", 0).unwrap();
            assert_eq!(keys, vec![b"k2".to_vec()]);
            if let Some(d) = dir {
                drop(b);
                std::fs::remove_dir_all(&d).ok();
            }
        }
    }

    #[test]
    fn prefix_upper_bound_cases() {
        assert_eq!(prefix_upper_bound(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_upper_bound(&[0x01, 0xFF]), Some(vec![0x02]));
        assert_eq!(prefix_upper_bound(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_upper_bound(b""), None);
    }

    #[test]
    fn backends_agree_on_random_ops() {
        let d = tmpdir("agree");
        let mem = MemBackend::new();
        let lsm = LsmBackend::open(&d).unwrap();
        let mut seed = 0x12345u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _ in 0..500 {
            let k = format!("key{:02}", next() % 40).into_bytes();
            match next() % 3 {
                0 | 1 => {
                    let v = format!("val{}", next() % 1000).into_bytes();
                    mem.put(&k, &v).unwrap();
                    lsm.put(&k, &v).unwrap();
                }
                _ => {
                    mem.erase(&k).unwrap();
                    lsm.erase(&k).unwrap();
                }
            }
        }
        assert_eq!(mem.count().unwrap(), lsm.count().unwrap());
        let mk = mem.list_keyvals(b"", b"", 0).unwrap();
        let lk = lsm.list_keyvals(b"", b"", 0).unwrap();
        assert_eq!(mk, lk);
        drop(lsm);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn watermarks_account_resident_bytes() {
        let b = MemBackend::new().with_watermarks(WatermarkConfig {
            soft_bytes: 1 << 20,
            hard_bytes: 2 << 20,
            ..WatermarkConfig::default()
        });
        b.put(b"key", b"value").unwrap();
        assert_eq!(b.resident_bytes(), 8);
        b.put(b"key", b"v").unwrap(); // overwrite shrinks
        assert_eq!(b.resident_bytes(), 4);
        b.put_multi(&[
            (b"a".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), b"22".to_vec()),
        ])
        .unwrap();
        assert_eq!(b.resident_bytes(), 4 + 2 + 3);
        assert_eq!(b.put_if_absent(b"a", b"xyz").unwrap(), Some(b"1".to_vec()));
        assert_eq!(b.resident_bytes(), 9); // no growth on existing key
        b.erase(b"key").unwrap();
        b.erase_multi(&[b"a".to_vec(), b"b".to_vec()]).unwrap();
        assert_eq!(b.resident_bytes(), 0);
        assert_eq!(b.stats().mem_bytes, 0);
    }

    #[test]
    fn hard_watermark_sheds_whole_batch() {
        let b = MemBackend::new().with_watermarks(WatermarkConfig {
            soft_bytes: 64,
            hard_bytes: 64,
            max_stall: Duration::ZERO,
            retry_after_hint: Duration::from_millis(7),
        });
        let big: Vec<KeyValue> = (0..10u8).map(|i| (vec![i; 8], vec![i; 8])).collect();
        let err = b.put_multi(&big).unwrap_err();
        assert_eq!(
            err,
            YokanError::Rpc(RpcError::Busy {
                retry_after: Duration::from_millis(7)
            })
        );
        // Shed whole: nothing was applied, nothing stays reserved.
        assert_eq!(b.count().unwrap(), 0);
        assert_eq!(b.resident_bytes(), 0);
        assert_eq!(b.stats().hard_sheds, 1);
        // A batch that fits still lands.
        b.put_multi(&big[..2]).unwrap();
        assert_eq!(b.count().unwrap(), 2);
    }

    #[test]
    fn soft_watermark_stalls_but_applies() {
        let b = MemBackend::new().with_watermarks(WatermarkConfig {
            soft_bytes: 8,
            hard_bytes: 1 << 20,
            max_stall: Duration::from_millis(2),
            retry_after_hint: Duration::from_millis(1),
        });
        b.put(b"aaaa", b"bbbb").unwrap(); // fills to the soft level
        let t0 = Instant::now();
        b.put(b"cccc", b"dddd").unwrap(); // stalls, then applies anyway
        assert!(t0.elapsed() >= Duration::from_millis(2));
        assert_eq!(b.count().unwrap(), 2);
        assert_eq!(b.stats().soft_stalls, 1);
        assert_eq!(b.stats().hard_sheds, 0);
    }

    #[test]
    fn lsm_l0_stop_maps_to_rpc_busy() {
        let d = tmpdir("lsmbusy");
        let b = LsmBackend::open_with(
            &d,
            lsmdb::Options {
                memtable_bytes: 128,
                l0_compaction_trigger: 100, // compaction never keeps up
                l0_slowdown_trigger: 2,
                l0_stop_trigger: 3,
                max_stall: Duration::from_millis(1),
                retry_after_hint: Duration::from_millis(9),
                compaction: lsmdb::CompactionMode::Background,
                ..lsmdb::Options::default()
            },
        )
        .unwrap();
        b.db().pause_compaction(true);
        // Fill memtables until L0 hits the stop trigger and writes shed.
        let mut shed = None;
        for i in 0..400u32 {
            let k = format!("busy{i:05}").into_bytes();
            match b.put(&k, &[0u8; 64]) {
                Ok(()) => {}
                Err(e) => {
                    shed = Some(e);
                    break;
                }
            }
        }
        assert_eq!(
            shed.expect("L0 stop trigger should shed a write"),
            YokanError::Rpc(RpcError::Busy {
                retry_after: Duration::from_millis(9)
            })
        );
        let stats = b.stats();
        assert!(stats.hard_sheds >= 1, "shed must be counted");
        let lsm = stats.lsm.expect("lsm backend reports engine stats");
        assert!(lsm.l0_tables() >= 3);
        // Draining L0 lets the engine accept writes again.
        b.db().pause_compaction(false);
        b.db().compact_all().unwrap();
        b.put(b"after", b"ok").unwrap();
        assert_eq!(b.get(b"after").unwrap(), Some(b"ok".to_vec()));
        drop(b);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn kinds() {
        let d = tmpdir("kind");
        assert_eq!(MemBackend::new().kind(), "map");
        let l = LsmBackend::open(&d).unwrap();
        assert_eq!(l.kind(), "lsm");
        drop(l);
        std::fs::remove_dir_all(&d).ok();
    }
}
