//! Bloom filters for SSTables.
//!
//! One filter is built per table from all of its keys; a negative lookup
//! lets the read path skip the table without touching its blocks. This is
//! the standard RocksDB technique and matters for HEPnOS because product
//! `get`s for absent labels would otherwise scan every level.

/// A fixed-size bloom filter with `k` hash probes derived by double hashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
    k: u32,
}

/// FNV-1a over `data`, its offset basis xored with `seed`; seed 0 is plain
/// FNV-1a (the read cache routes keys to shards with it).
pub(crate) fn fnv1a(data: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl BloomFilter {
    /// Build a filter sized for `n_keys` keys at `bits_per_key` bits each.
    pub fn new(n_keys: usize, bits_per_key: usize) -> Self {
        let n_bits = (n_keys.max(1) * bits_per_key).max(64);
        // k = ln(2) * bits/key, clamped to a sane range.
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        BloomFilter {
            bits: vec![0u8; n_bits.div_ceil(8)],
            k,
        }
    }

    /// The two hashes a key's probe sequence is derived from. A table
    /// writer keeps these instead of the key until it sizes its filter.
    pub fn key_hashes(key: &[u8]) -> (u64, u64) {
        (fnv1a(key, 0), fnv1a(key, 0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Bit indices probed for the key hashing to `(h1, h2)`. Borrows
    /// nothing from `self`, so `insert_hashes` can set bits while it walks
    /// them.
    fn probes(&self, (h1, h2): (u64, u64)) -> impl Iterator<Item = usize> {
        let n_bits = (self.bits.len() * 8) as u64;
        (0..self.k as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % n_bits) as usize)
    }

    /// Insert a key.
    pub fn insert(&mut self, key: &[u8]) {
        self.insert_hashes(Self::key_hashes(key));
    }

    /// Insert the key whose [`BloomFilter::key_hashes`] are `hashes`.
    pub fn insert_hashes(&mut self, hashes: (u64, u64)) {
        for i in self.probes(hashes) {
            self.bits[i / 8] |= 1 << (i % 8);
        }
    }

    /// Whether the key *may* be present (no false negatives).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.probes(Self::key_hashes(key))
            .all(|i| self.bits[i / 8] & (1 << (i % 8)) != 0)
    }

    /// Serialize: `k` (4 bytes LE) followed by the bit array.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.bits.len());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.bits);
        out
    }

    /// Deserialize from [`BloomFilter::encode`] output.
    pub fn decode(data: &[u8]) -> Option<BloomFilter> {
        if data.len() < 4 {
            return None;
        }
        let k = u32::from_le_bytes(data[..4].try_into().ok()?);
        if k == 0 || k > 30 {
            return None;
        }
        Some(BloomFilter {
            bits: data[4..].to_vec(),
            k,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_keys_are_found() {
        let mut f = BloomFilter::new(1000, 10);
        for i in 0..1000u32 {
            f.insert(&i.to_be_bytes());
        }
        for i in 0..1000u32 {
            assert!(f.may_contain(&i.to_be_bytes()));
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::new(1000, 10);
        for i in 0..1000u32 {
            f.insert(&i.to_be_bytes());
        }
        let fp = (1000..11000u32)
            .filter(|i| f.may_contain(&i.to_be_bytes()))
            .count();
        // 10 bits/key should give ~1% FPR; allow generous slack.
        assert!(fp < 500, "false positive rate too high: {fp}/10000");
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut f = BloomFilter::new(100, 8);
        f.insert(b"alpha");
        f.insert(b"beta");
        let g = BloomFilter::decode(&f.encode()).unwrap();
        assert_eq!(f, g);
        assert!(g.may_contain(b"alpha"));
    }

    #[test]
    fn encoding_is_pinned() {
        // Golden bytes: the filter is part of the SST format, so the probe
        // sequence and the bit layout must never drift.
        const GOLDEN: &[u8] = &[5, 0, 0, 0, 36, 187, 132, 0, 104, 0, 129, 44, 64];
        let mut f = BloomFilter::new(9, 8);
        for k in [&b"alpha"[..], b"beta", b"gamma", b"delta"] {
            f.insert(k);
        }
        assert_eq!(f.encode(), GOLDEN);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BloomFilter::decode(b"").is_none());
        assert!(BloomFilter::decode(&[0, 0, 0, 0, 1]).is_none()); // k = 0
    }

    #[test]
    fn empty_filter_contains_nothing_much() {
        let f = BloomFilter::new(10, 10);
        let hits = (0..1000u32)
            .filter(|i| f.may_contain(&i.to_be_bytes()))
            .count();
        assert_eq!(hits, 0);
    }
}
