//! Read cache for point lookups — the analogue of RocksDB's block cache.
//!
//! The cache holds recently-read values keyed by user key, bounded by an
//! approximate byte budget with LRU eviction. Writes and deletes invalidate
//! their keys; compaction does not (values are unchanged by it).
//!
//! The cache is **sharded**: the byte budget is split across N independent
//! LRU shards, each behind its own mutex, with keys routed by an FNV-1a hash.
//! `Db::get` runs under a read lock on the tree state, so many reader threads
//! reach the cache concurrently; a single mutex in front of the LRU turns
//! those readers back into a serial stream (every hit mutates LRU order, so a
//! read lock does not help). Sharding restores reader parallelism at the cost
//! of LRU ordering being per-shard rather than global — an accepted trade-off
//! that block caches (RocksDB's `LRUCache` included) make for the same
//! reason. Keys are stored as `Arc<[u8]>` shared between the hash map and the
//! recency index, so touching an entry on a hit updates the LRU order without
//! allocating.

use crate::bloom::fnv1a;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Aggregate counters of a sharded read cache.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the tables.
    pub misses: u64,
    /// Entries removed to make room (does not count invalidations).
    pub evictions: u64,
    /// Live entries across all shards.
    pub entries: usize,
    /// Approximate bytes held across all shards.
    pub used_bytes: usize,
    /// Total configured byte budget.
    pub capacity_bytes: usize,
    /// Live entry count per shard.
    pub shard_entries: Vec<usize>,
    /// Approximate bytes held per shard.
    pub shard_bytes: Vec<usize>,
}

/// Default shard count: `min(16, available parallelism)`, rounded up to a
/// power of two (for mask-based routing), capped at 16.
pub fn default_shard_count() -> usize {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cpus.min(16).next_power_of_two().min(16)
}

/// One LRU shard with its slice of the byte budget.
struct Shard {
    capacity_bytes: usize,
    used_bytes: usize,
    seq: u64,
    /// key -> (value, last-use sequence)
    map: HashMap<Arc<[u8]>, (Vec<u8>, u64)>,
    /// last-use sequence -> key (unique: sequences never repeat)
    order: BTreeMap<u64, Arc<[u8]>>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Shard {
    fn new(capacity_bytes: usize) -> Shard {
        Shard {
            capacity_bytes,
            used_bytes: 0,
            seq: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self, key: &[u8]) {
        if let Some((key_arc, &(_, old_seq))) = self.map.get_key_value(key) {
            let key_arc = Arc::clone(key_arc);
            self.order.remove(&old_seq);
            self.seq += 1;
            self.order.insert(self.seq, key_arc);
            self.map.get_mut(key).expect("key present").1 = self.seq;
        }
    }

    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        if self.map.contains_key(key) {
            self.touch(key);
            self.hits += 1;
            self.map.get(key).map(|(v, _)| v.clone())
        } else {
            self.misses += 1;
            None
        }
    }

    fn insert(&mut self, key: &[u8], value: &[u8]) {
        let entry_size = key.len() + value.len();
        if entry_size > self.capacity_bytes {
            return; // larger than the whole shard: skip
        }
        self.invalidate(key);
        self.seq += 1;
        let key_arc: Arc<[u8]> = Arc::from(key);
        self.map
            .insert(Arc::clone(&key_arc), (value.to_vec(), self.seq));
        self.order.insert(self.seq, key_arc);
        self.used_bytes += entry_size;
        while self.used_bytes > self.capacity_bytes {
            let Some((&oldest, _)) = self.order.iter().next() else {
                break;
            };
            let victim = self.order.remove(&oldest).expect("entry exists");
            if let Some((v, _)) = self.map.remove(&victim[..]) {
                self.used_bytes -= victim.len() + v.len();
                self.evictions += 1;
            }
        }
    }

    fn invalidate(&mut self, key: &[u8]) {
        if let Some((v, seq)) = self.map.remove(key) {
            self.order.remove(&seq);
            self.used_bytes -= key.len() + v.len();
        }
    }
}

/// An N-way sharded LRU value cache with a split byte budget.
pub struct ShardedReadCache {
    shards: Box<[Mutex<Shard>]>,
    mask: u64,
    capacity_bytes: usize,
}

impl ShardedReadCache {
    /// Create a cache with [`default_shard_count`] shards sharing
    /// `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> ShardedReadCache {
        Self::with_shards(capacity_bytes, default_shard_count())
    }

    /// Create a cache with an explicit shard count (rounded up to a power of
    /// two). Each shard gets `capacity_bytes / shards`.
    pub fn with_shards(capacity_bytes: usize, shards: usize) -> ShardedReadCache {
        let n = shards.max(1).next_power_of_two();
        let per_shard = capacity_bytes / n;
        let shards: Vec<Mutex<Shard>> = (0..n).map(|_| Mutex::new(Shard::new(per_shard))).collect();
        ShardedReadCache {
            shards: shards.into_boxed_slice(),
            mask: (n - 1) as u64,
            capacity_bytes,
        }
    }

    fn shard(&self, key: &[u8]) -> &Mutex<Shard> {
        &self.shards[(fnv1a(key, 0) & self.mask) as usize]
    }

    /// Look a key up, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.shard(key).lock().get(key)
    }

    /// Insert (or replace) a value. Entries larger than one shard's budget
    /// are skipped.
    pub fn insert(&self, key: &[u8], value: &[u8]) {
        self.shard(key).lock().insert(key, value)
    }

    /// Drop a key if cached (used by the write path).
    pub fn invalidate(&self, key: &[u8]) {
        self.shard(key).lock().invalidate(key)
    }

    /// Full per-shard and aggregate counters.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            capacity_bytes: self.capacity_bytes,
            ..CacheStats::default()
        };
        for s in self.shards.iter() {
            let s = s.lock();
            stats.hits += s.hits;
            stats.misses += s.misses;
            stats.evictions += s.evictions;
            stats.entries += s.map.len();
            stats.used_bytes += s.used_bytes;
            stats.shard_entries.push(s.map.len());
            stats.shard_bytes.push(s.used_bytes);
        }
        stats
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_invalidate() {
        let c = ShardedReadCache::with_shards(1024, 1);
        c.insert(b"a", b"1");
        assert_eq!(c.get(b"a"), Some(b"1".to_vec()));
        assert_eq!(c.get(b"b"), None);
        c.invalidate(b"a");
        assert_eq!(c.get(b"a"), None);
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn lru_evicts_oldest_first() {
        // Single shard for deterministic ordering; each entry is 2 bytes,
        // capacity 6 = three entries.
        let c = ShardedReadCache::with_shards(6, 1);
        c.insert(b"a", b"1");
        c.insert(b"b", b"2");
        c.insert(b"c", b"3");
        // Touch "a" so "b" becomes the LRU victim.
        assert!(c.get(b"a").is_some());
        c.insert(b"d", b"4");
        assert_eq!(c.get(b"b"), None, "b should have been evicted");
        assert!(c.get(b"a").is_some());
        assert!(c.get(b"c").is_some());
        assert!(c.get(b"d").is_some());
        assert_eq!(c.stats().entries, 3);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn overwrite_replaces_and_accounts_bytes() {
        let c = ShardedReadCache::with_shards(100, 1);
        c.insert(b"k", b"short");
        c.insert(b"k", b"a much longer value than before");
        assert_eq!(
            c.get(b"k"),
            Some(b"a much longer value than before".to_vec())
        );
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn oversized_entries_are_skipped() {
        let c = ShardedReadCache::with_shards(4, 1);
        c.insert(b"key", b"value-too-big");
        assert_eq!(c.get(b"key"), None);
    }

    #[test]
    fn sharded_budget_splits_across_shards() {
        let c = ShardedReadCache::with_shards(1 << 20, 8);
        assert_eq!(c.shard_count(), 8);
        for i in 0..1000u32 {
            let k = i.to_be_bytes();
            c.insert(&k, &[0u8; 32]);
        }
        let stats = c.stats();
        assert_eq!(stats.entries, 1000);
        assert_eq!(stats.shard_entries.len(), 8);
        assert_eq!(stats.shard_entries.iter().sum::<usize>(), 1000);
        // FNV spreads small integer keys: no shard should be empty.
        assert!(stats.shard_entries.iter().all(|&n| n > 0));
        for i in 0..1000u32 {
            assert!(c.get(&i.to_be_bytes()).is_some());
        }
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses), (1000, 0));
    }

    #[test]
    fn concurrent_mixed_access_is_safe_and_counted() {
        let c = Arc::new(ShardedReadCache::with_shards(1 << 20, 8));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..2000u32 {
                        let k = (i % 256).to_be_bytes();
                        match i % 3 {
                            0 => c.insert(&k, &[t as u8; 16]),
                            1 => {
                                let _ = c.get(&k);
                            }
                            _ => c.invalidate(&k),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = c.stats();
        // Each thread issues exactly 667 gets (i % 3 == 1 for i in 0..2000);
        // every one must be counted exactly once as a hit or a miss.
        assert_eq!(stats.hits + stats.misses, 8 * 667);
        assert!(stats.used_bytes <= stats.capacity_bytes);
    }

    #[test]
    fn default_shard_count_is_bounded_power_of_two() {
        let n = default_shard_count();
        assert!((1..=16).contains(&n));
        assert!(n.is_power_of_two());
    }
}
