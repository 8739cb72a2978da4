//! Placement of container and product keys onto databases (paper §II-C3).
//!
//! HEPnOS selects the database holding a key by *consistent hashing of the
//! parent's key*. Two consequences the paper calls out:
//!
//! 1. all direct children of a container land in one database, so iterating
//!    them needs a single database's sorted scan rather than a
//!    scatter/gather over every server;
//! 2. products of one container land in one database, so multiple products
//!    of the same event can be fetched in one batched RPC.
//!
//! Two strategies are provided: plain modulo hashing ([`ModuloPlacement`],
//! the default) and a consistent-hash ring with virtual nodes
//! ([`RingPlacement`]), which minimizes key movement when databases are
//! added or removed — the property the paper's storage-rescaling companion
//! work (Pufferscale) relies on.

/// 64-bit FNV-1a, the stable hash used for placement. Placement must be
/// identical across every client process, so we fix the algorithm rather
/// than using `DefaultHasher` (whose seeds vary per process).
pub fn stable_hash(data: &[u8]) -> u64 {
    stable_hash_extend(0xcbf2_9ce4_8422_2325, data)
}

/// Continue a [`stable_hash`] with `data`:
/// `stable_hash_extend(stable_hash(a), b) == stable_hash(a ++ b)`, so keys
/// sharing a head hash it once.
pub fn stable_hash_extend(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: a cheap, high-quality bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Strategy mapping a parent key to one of `n` databases, through the
/// parent key's [`stable_hash`].
pub trait Placement: Send + Sync {
    /// Index of the database responsible for children of a parent key
    /// whose [`stable_hash`] is `parent_hash`.
    fn place_hash(&self, parent_hash: u64, n_databases: usize) -> usize;

    /// Index of the database responsible for children of `parent_key`.
    fn place(&self, parent_key: &[u8], n_databases: usize) -> usize {
        self.place_hash(stable_hash(parent_key), n_databases)
    }
}

/// `hash(parent) % n` — what the HEPnOS implementation effectively does for
/// a fixed set of databases.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModuloPlacement;

impl Placement for ModuloPlacement {
    fn place_hash(&self, parent_hash: u64, n_databases: usize) -> usize {
        assert!(n_databases > 0, "placement needs at least one database");
        (parent_hash % n_databases as u64) as usize
    }
}

/// Cached, sorted ring points shared across lookups.
type RingPoints = std::sync::Arc<Vec<(u64, usize)>>;

/// A consistent-hash ring with `vnodes` virtual nodes per database.
///
/// Adding or removing one database moves only ~`1/n` of the keys, unlike
/// modulo placement which reshuffles almost everything. Ring points are
/// cached per database count.
#[derive(Debug)]
pub struct RingPlacement {
    vnodes: usize,
    cache: parking_lot::Mutex<std::collections::HashMap<usize, RingPoints>>,
}

impl Clone for RingPlacement {
    fn clone(&self) -> Self {
        RingPlacement::new(self.vnodes)
    }
}

impl RingPlacement {
    /// Create a ring with the given virtual-node count (64 is a good
    /// default: ±a few percent of balance).
    pub fn new(vnodes: usize) -> RingPlacement {
        assert!(vnodes > 0, "ring needs at least one virtual node");
        RingPlacement {
            vnodes,
            cache: parking_lot::Mutex::new(std::collections::HashMap::new()),
        }
    }

    fn ring_points(&self, n: usize) -> Vec<(u64, usize)> {
        let mut points = Vec::with_capacity(n * self.vnodes);
        for db in 0..n {
            for v in 0..self.vnodes {
                // FNV disperses poorly on short low-entropy inputs, so ring
                // points use a splitmix64 finalizer for uniform placement.
                let tag = (db as u64) << 32 | v as u64;
                points.push((splitmix64(tag), db));
            }
        }
        points.sort_unstable();
        points
    }
}

impl Default for RingPlacement {
    fn default() -> Self {
        RingPlacement::new(64)
    }
}

impl Placement for RingPlacement {
    fn place_hash(&self, parent_hash: u64, n_databases: usize) -> usize {
        assert!(n_databases > 0, "placement needs at least one database");
        let points = {
            let mut cache = self.cache.lock();
            std::sync::Arc::clone(
                cache
                    .entry(n_databases)
                    .or_insert_with(|| std::sync::Arc::new(self.ring_points(n_databases))),
            )
        };
        let h = splitmix64(parent_hash);
        match points.binary_search_by_key(&h, |&(p, _)| p) {
            Ok(i) => points[i].1,
            Err(i) if i == points.len() => points[0].1,
            Err(i) => points[i].1,
        }
    }
}

/// Resolve the ordered replica set responsible for children of
/// `parent_key` among a group of replica chains (one chain per logical
/// database, as built by [`yokan::build_chains`]). The placement strategy
/// picks the chain exactly as it picks a single database — placement is by
/// *logical* database, so turning replication on or off never re-places a
/// key — and the chain lists the replicas in chain order, head first.
pub fn place_replica_set<'a>(
    placement: &dyn Placement,
    parent_key: &[u8],
    chains: &'a [Vec<yokan::DbTarget>],
) -> &'a [yokan::DbTarget] {
    assert!(!chains.is_empty(), "placement needs at least one database");
    &chains[placement.place(parent_key, chains.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hash_is_stable() {
        // Fixed expectations guard against accidental algorithm changes,
        // which would silently re-place every key in an existing deployment.
        assert_eq!(stable_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash(b"hepnos"), stable_hash(b"hepnos"));
        assert_ne!(stable_hash(b"a"), stable_hash(b"b"));
    }

    #[test]
    fn modulo_is_deterministic_and_in_range() {
        let p = ModuloPlacement;
        for n in [1usize, 2, 7, 16] {
            for key in [b"".as_slice(), b"x", b"some longer parent key"] {
                let i = p.place(key, n);
                assert!(i < n);
                assert_eq!(i, p.place(key, n));
            }
        }
    }

    #[test]
    fn modulo_spreads_keys() {
        let p = ModuloPlacement;
        let n = 8;
        let mut counts = vec![0usize; n];
        for i in 0..8000u32 {
            counts[p.place(&i.to_be_bytes(), n)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn ring_is_deterministic_and_in_range() {
        let p = RingPlacement::default();
        for n in [1usize, 3, 8] {
            for key in [b"a".as_slice(), b"bb", b"ccc"] {
                let i = p.place(key, n);
                assert!(i < n);
                assert_eq!(i, p.place(key, n));
            }
        }
    }

    #[test]
    fn ring_spreads_keys_reasonably() {
        let p = RingPlacement::new(128);
        let n = 8;
        let mut counts = vec![0usize; n];
        for i in 0..8000u32 {
            counts[p.place(&i.to_be_bytes(), n)] += 1;
        }
        for &c in &counts {
            assert!((400..1800).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn ring_moves_few_keys_on_growth() {
        let p = RingPlacement::new(128);
        let keys: Vec<Vec<u8>> = (0..4000u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let before: Vec<usize> = keys.iter().map(|k| p.place(k, 8)).collect();
        let after: Vec<usize> = keys.iter().map(|k| p.place(k, 9)).collect();
        let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        // Ideal is 1/9 ≈ 11%; allow up to 25%. Modulo placement would move
        // ~8/9 ≈ 89%.
        assert!(
            moved < keys.len() / 4,
            "ring moved {moved}/{} keys",
            keys.len()
        );
        let modulo_moved = keys
            .iter()
            .filter(|k| ModuloPlacement.place(k, 8) != ModuloPlacement.place(k, 9))
            .count();
        assert!(modulo_moved > keys.len() / 2);
    }

    #[test]
    #[should_panic(expected = "at least one database")]
    fn zero_databases_panics() {
        ModuloPlacement.place(b"x", 0);
    }

    #[test]
    fn replica_set_agrees_with_single_database_placement() {
        // 4 logical databases, each a 2-member chain across two nodes.
        let chains: Vec<Vec<yokan::DbTarget>> = (0..4)
            .map(|db| {
                vec![
                    yokan::DbTarget::new("node0", db as u16, format!("events_{db}")),
                    yokan::DbTarget::new("node1", db as u16, format!("events_{db}")),
                ]
            })
            .collect();
        let p = ModuloPlacement;
        for key in [b"a".as_slice(), b"bb", b"some parent key"] {
            let set = place_replica_set(&p, key, &chains);
            assert_eq!(set.len(), 2);
            // Same logical index as unreplicated placement over the heads.
            assert_eq!(set[0], chains[p.place(key, chains.len())][0]);
            // Head first, and every member serves the same logical database.
            assert_eq!(set[0].db, set[1].db);
        }
    }
}
