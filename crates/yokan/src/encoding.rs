//! Wire encoding helpers for Yokan RPC payloads.
//!
//! All integers are little-endian; byte strings are `u32`-length-prefixed.

use crate::error::YokanError;
use bytes::{Buf, BufMut, Bytes, BytesMut};

pub(crate) fn put_bytes(buf: &mut BytesMut, data: &[u8]) {
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data);
}

pub(crate) fn get_bytes(buf: &mut Bytes) -> Result<Bytes, YokanError> {
    if buf.remaining() < 4 {
        return Err(YokanError::Protocol("short length prefix".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(YokanError::Protocol("truncated byte string".into()));
    }
    Ok(buf.split_to(len))
}

pub(crate) fn get_u32(buf: &mut Bytes) -> Result<u32, YokanError> {
    if buf.remaining() < 4 {
        return Err(YokanError::Protocol("short u32".into()));
    }
    Ok(buf.get_u32_le())
}

pub(crate) fn get_u64(buf: &mut Bytes) -> Result<u64, YokanError> {
    if buf.remaining() < 8 {
        return Err(YokanError::Protocol("short u64".into()));
    }
    Ok(buf.get_u64_le())
}

pub(crate) fn get_u8(buf: &mut Bytes) -> Result<u8, YokanError> {
    if buf.remaining() < 1 {
        return Err(YokanError::Protocol("short u8".into()));
    }
    Ok(buf.get_u8())
}

/// Exact number of bytes [`encode_pairs_into`] will append for `pairs`.
/// Computing this up front lets callers reserve once and never reallocate
/// while encoding — the hot path of every batched ingest RPC.
pub(crate) fn pairs_encoded_len(pairs: &[crate::backend::KeyValue]) -> usize {
    4 + pairs
        .iter()
        .map(|(k, v)| 8 + k.len() + v.len())
        .sum::<usize>()
}

/// Append the encoded pair block to `buf`. Callers are expected to have
/// reserved [`pairs_encoded_len`] bytes already.
pub(crate) fn encode_pairs_into(buf: &mut BytesMut, pairs: &[crate::backend::KeyValue]) {
    buf.put_u32_le(pairs.len() as u32);
    for (k, v) in pairs {
        put_bytes(buf, k);
        put_bytes(buf, v);
    }
}

/// Encode a list of `(key, value)` pairs into one contiguous buffer.
pub(crate) fn encode_pairs(pairs: &[crate::backend::KeyValue]) -> Bytes {
    let mut buf = BytesMut::with_capacity(pairs_encoded_len(pairs));
    encode_pairs_into(&mut buf, pairs);
    buf.freeze()
}

pub(crate) fn decode_pairs(buf: &mut Bytes) -> Result<Vec<crate::backend::KeyValue>, YokanError> {
    let n = get_u32(buf)? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let k = get_bytes(buf)?.to_vec();
        let v = get_bytes(buf)?.to_vec();
        out.push((k, v));
    }
    Ok(out)
}

/// Exact number of bytes [`encode_keys_into`] will append for `keys`.
pub(crate) fn keys_encoded_len(keys: &[Vec<u8>]) -> usize {
    4 + keys.iter().map(|k| 4 + k.len()).sum::<usize>()
}

/// Append the encoded key block to `buf`; callers reserve
/// [`keys_encoded_len`] up front so encoding never reallocates.
pub(crate) fn encode_keys_into(buf: &mut BytesMut, keys: &[Vec<u8>]) {
    buf.put_u32_le(keys.len() as u32);
    for k in keys {
        put_bytes(buf, k);
    }
}

/// Encode a list of keys.
pub(crate) fn encode_keys(keys: &[Vec<u8>]) -> Bytes {
    let mut buf = BytesMut::with_capacity(keys_encoded_len(keys));
    encode_keys_into(&mut buf, keys);
    buf.freeze()
}

pub(crate) fn decode_keys(buf: &mut Bytes) -> Result<Vec<Vec<u8>>, YokanError> {
    let n = get_u32(buf)? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_bytes(buf)?.to_vec());
    }
    Ok(out)
}

/// The word of `s` at byte `at`, for comparing keys eight bytes at a time.
fn word(s: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(s[at..at + 8].try_into().expect("eight bytes"))
}

/// Length of the byte prefix `a` and `b` share.
fn shared_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n {
        let diff = word(a, i) ^ word(b, i);
        if diff != 0 {
            return i + (diff.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Length of the byte suffix `a` and `b` share.
fn shared_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n {
        let diff = word(a, a.len() - i - 8) ^ word(b, b.len() - i - 8);
        if diff != 0 {
            return i + (diff.leading_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[a.len() - 1 - i] == b[b.len() - 1 - i] {
        i += 1;
    }
    i
}

/// Encode a key batch with the shared prefix and suffix factored out —
/// sent once for the batch instead of once per key. Product keys of one
/// container run share the `<uuid><run><subrun>` head and the
/// `<label>#<type>` tail, so for big batches the per-key payload shrinks
/// to the event coordinates alone.
pub(crate) fn encode_keys_factored(keys: &[Vec<u8>]) -> Bytes {
    let mut block = KeyBlock::default();
    for k in keys {
        block.push(k);
    }
    let mut buf = BytesMut::with_capacity(block.encoded_len());
    block.encode_into(&mut buf);
    buf.freeze()
}

/// A key batch back to back in one buffer, for [`encode_keys_factored`]'s
/// block. The byte prefix and suffix all keys share are narrowed as each
/// key arrives, so a range filter collects its kept keys here without a
/// `Vec` per key.
#[derive(Debug, Default)]
pub(crate) struct KeyBlock {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    /// Bytes every key starts with.
    prefix: usize,
    /// Bytes every key ends with (may overlap `prefix` in a short key).
    suffix: usize,
    min_len: usize,
}

impl KeyBlock {
    /// Append one key.
    pub(crate) fn push(&mut self, key: &[u8]) {
        match self.ends.first() {
            None => (self.prefix, self.suffix, self.min_len) = (key.len(), key.len(), key.len()),
            Some(&end) => {
                let first = &self.bytes[..end];
                self.prefix = shared_prefix(&first[..self.prefix], key);
                self.suffix = shared_suffix(&first[first.len() - self.suffix..], key);
                self.min_len = self.min_len.min(key.len());
            }
        }
        self.bytes.extend_from_slice(key);
        self.ends.push(self.bytes.len());
    }

    /// Keys held.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The factored prefix and suffix lengths: the suffix is counted only
    /// once the prefix is set aside, so the two never overlap in any key.
    fn factored(&self) -> (usize, usize) {
        (self.prefix, self.suffix.min(self.min_len - self.prefix))
    }

    fn keys(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.ends.len()).map(|i| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            &self.bytes[start..self.ends[i]]
        })
    }

    /// Bytes [`KeyBlock::encode_into`] appends.
    pub(crate) fn encoded_len(&self) -> usize {
        let (p, s) = self.factored();
        12 + p + s + 4 * self.len() + self.bytes.len() - self.len() * (p + s)
    }

    /// Append the block: the shared prefix and suffix, the key count, then
    /// each key's middle.
    pub(crate) fn encode_into(&self, buf: &mut BytesMut) {
        let (p, s) = self.factored();
        let first = self.keys().next().unwrap_or_default();
        put_bytes(buf, &first[..p]);
        put_bytes(buf, &first[first.len() - s..]);
        buf.put_u32_le(self.len() as u32);
        for k in self.keys() {
            put_bytes(buf, &k[p..k.len() - s]);
        }
    }
}

/// Decode a batch produced by [`encode_keys_factored`], reassembling each
/// key as `prefix + middle + suffix`.
pub(crate) fn decode_keys_factored(buf: &mut Bytes) -> Result<Vec<Vec<u8>>, YokanError> {
    let prefix = get_bytes(buf)?;
    let suffix = get_bytes(buf)?;
    let n = get_u32(buf)? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let middle = get_bytes(buf)?;
        let mut key = Vec::with_capacity(prefix.len() + middle.len() + suffix.len());
        key.extend_from_slice(&prefix);
        key.extend_from_slice(&middle);
        key.extend_from_slice(&suffix);
        out.push(key);
    }
    Ok(out)
}

/// Encode a list of optional values (for `get_multi` responses).
pub(crate) fn encode_optionals(vals: &[Option<Vec<u8>>]) -> Bytes {
    let total: usize = vals
        .iter()
        .map(|v| 1 + v.as_ref().map_or(0, |v| 4 + v.len()))
        .sum();
    let mut buf = BytesMut::with_capacity(4 + total);
    buf.put_u32_le(vals.len() as u32);
    for v in vals {
        match v {
            Some(data) => {
                buf.put_u8(1);
                put_bytes(&mut buf, data);
            }
            None => buf.put_u8(0),
        }
    }
    buf.freeze()
}

/// Zero-copy twin of [`decode_optionals`]: each present value is a `Bytes`
/// slice sharing the response buffer instead of a fresh `Vec` copy. The
/// asynchronous read path hands these slices all the way to the analysis
/// callback, so a prefetched product is never copied after it leaves the
/// socket buffer.
pub(crate) fn decode_optionals_shared(buf: &mut Bytes) -> Result<Vec<Option<Bytes>>, YokanError> {
    let n = get_u32(buf)? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        match get_u8(buf)? {
            0 => out.push(None),
            1 => out.push(Some(get_bytes(buf)?)),
            t => return Err(YokanError::Protocol(format!("bad optional tag {t}"))),
        }
    }
    Ok(out)
}

pub(crate) fn decode_optionals(buf: &mut Bytes) -> Result<Vec<Option<Vec<u8>>>, YokanError> {
    let n = get_u32(buf)? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        match get_u8(buf)? {
            0 => out.push(None),
            1 => out.push(Some(get_bytes(buf)?.to_vec())),
            t => return Err(YokanError::Protocol(format!("bad optional tag {t}"))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip() {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, b"hello");
        put_bytes(&mut buf, b"");
        let mut b = buf.freeze();
        assert_eq!(&get_bytes(&mut b).unwrap()[..], b"hello");
        assert_eq!(&get_bytes(&mut b).unwrap()[..], b"");
        assert!(get_bytes(&mut b).is_err());
    }

    #[test]
    fn pairs_round_trip() {
        let pairs = vec![
            (b"k1".to_vec(), b"v1".to_vec()),
            (Vec::new(), vec![0u8; 100]),
        ];
        let mut enc = encode_pairs(&pairs);
        assert_eq!(decode_pairs(&mut enc).unwrap(), pairs);
    }

    #[test]
    fn keys_round_trip() {
        let keys = vec![b"a".to_vec(), b"bb".to_vec(), Vec::new()];
        let mut enc = encode_keys(&keys);
        assert_eq!(decode_keys(&mut enc).unwrap(), keys);
    }

    #[test]
    fn factored_keys_round_trip() {
        let cases: Vec<Vec<Vec<u8>>> = vec![
            vec![],
            vec![b"only".to_vec()],
            vec![b"aa".to_vec(), b"aa".to_vec(), b"aa".to_vec()],
            vec![b"aa".to_vec(), b"aaa".to_vec()],
            vec![b"head-1-tail".to_vec(), b"head-22-tail".to_vec()],
            vec![b"x".to_vec(), b"completely".to_vec(), b"different".to_vec()],
            vec![Vec::new(), b"nonempty".to_vec()],
        ];
        for keys in cases {
            let mut enc = encode_keys_factored(&keys);
            assert_eq!(
                decode_keys_factored(&mut enc).unwrap(),
                keys,
                "case {keys:?}"
            );
            assert!(!enc.has_remaining());
        }
    }

    #[test]
    fn factored_keys_shrink_shared_batches() {
        let keys: Vec<Vec<u8>> = (0..100u64)
            .map(|e| {
                let mut k = b"uuid+run+subrun:".to_vec();
                k.extend_from_slice(&e.to_be_bytes());
                k.extend_from_slice(b"rec.slc#nova::ColumnarSlices");
                k
            })
            .collect();
        let plain = encode_keys(&keys);
        let factored = encode_keys_factored(&keys);
        assert!(
            factored.len() * 3 < plain.len(),
            "factored {} vs plain {}",
            factored.len(),
            plain.len()
        );
    }

    /// The factored block byte by byte, as the handler built it before the
    /// flat key buffer: the longest common prefix, then the longest common
    /// suffix of what the prefix leaves, then each key's middle.
    fn reference_factored(keys: &[Vec<u8>]) -> Vec<u8> {
        let common = |len: usize, same: &dyn Fn(&[u8], usize) -> bool| {
            (0..=len)
                .take_while(|&i| keys.iter().all(|k| same(k, i)))
                .last()
                .unwrap_or(0)
        };
        let min = keys.iter().map(Vec::len).min().unwrap_or(0);
        let p = common(min, &|k, i| k[..i] == keys[0][..i]);
        let s = common(min - p, &|k, i| {
            k[k.len() - i..] == keys[0][keys[0].len() - i..]
        });
        let mut out = BytesMut::new();
        let first = keys.first().map_or(&[][..], |k| &k[..]);
        put_bytes(&mut out, &first[..p]);
        put_bytes(&mut out, &first[first.len() - s..]);
        out.put_u32_le(keys.len() as u32);
        for k in keys {
            put_bytes(&mut out, &k[p..k.len() - s]);
        }
        out.to_vec()
    }

    /// The flat-buffer block a range filter replies with, pinned to the
    /// bytes the handler sent before it.
    fn assert_block_matches(keys: &[Vec<u8>]) {
        let want = reference_factored(keys);
        let mut block = KeyBlock::default();
        for k in keys {
            block.push(k);
        }
        let mut flat = BytesMut::new();
        block.encode_into(&mut flat);
        assert_eq!(block.encoded_len(), want.len(), "length for {keys:?}");
        assert_eq!(&flat[..], &want[..], "bytes for {keys:?}");
        assert_eq!(&encode_keys_factored(keys)[..], &want[..], "{keys:?}");
    }

    #[test]
    fn key_block_bytes_equal_the_byte_wise_encoding() {
        let event = |n: u64, tail: &[u8]| {
            let mut k = b"0123456789abcdef-run-sub".to_vec();
            k.extend_from_slice(&n.to_be_bytes());
            k.extend_from_slice(tail);
            k
        };
        let cases: Vec<Vec<Vec<u8>>> = vec![
            // Zero keys, one key.
            vec![],
            vec![event(7, b"rec.slc#T")],
            // Only a prefix in common.
            vec![event(1, b"a"), event(2, b"bc"), event(3, b"def")],
            // A prefix and a suffix.
            vec![
                event(1, b"rec.slc#T"),
                event(300, b"rec.slc#T"),
                event(1 << 40, b"rec.slc#T"),
            ],
            // Unequal lengths, where prefix and suffix would overlap.
            vec![
                b"aa".to_vec(),
                b"aaa".to_vec(),
                b"aaaaaaaaaaaaaaaaaaa".to_vec(),
            ],
            vec![
                b"head-1-tail".to_vec(),
                b"head-22-tail".to_vec(),
                Vec::new(),
            ],
            vec![b"x".to_vec(), b"completely".to_vec(), b"different".to_vec()],
        ];
        for keys in &cases {
            assert_block_matches(keys);
        }
        // Differences at every offset of keys longer than a word.
        let base: Vec<u8> = (0u8..37).collect();
        for at in 0..base.len() {
            let mut other = base.clone();
            other[at] ^= 0x80;
            assert_block_matches(&[base.clone(), other.clone()]);
            assert_block_matches(&[base.clone(), base.clone(), other[..at].to_vec()]);
            assert_block_matches(&[base[at..].to_vec(), other[at..].to_vec()]);
        }
    }

    #[test]
    fn optionals_round_trip() {
        let vals = vec![Some(b"x".to_vec()), None, Some(Vec::new())];
        let mut enc = encode_optionals(&vals);
        assert_eq!(decode_optionals(&mut enc).unwrap(), vals);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let pairs = vec![(b"k".to_vec(), b"v".to_vec())];
        let enc = encode_pairs(&pairs);
        let mut cut = enc.slice(0..enc.len() - 1);
        assert!(decode_pairs(&mut cut).is_err());
    }
}
