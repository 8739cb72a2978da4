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

/// Length of the byte prefix shared by every key in `keys`.
fn common_prefix_len(keys: &[Vec<u8>]) -> usize {
    let Some(first) = keys.first() else { return 0 };
    let mut p = first.len();
    for k in &keys[1..] {
        p = p.min(k.len());
        let mut i = 0;
        while i < p && k[i] == first[i] {
            i += 1;
        }
        p = i;
    }
    p
}

/// Length of the byte suffix shared by every key once the first
/// `prefix_len` bytes are set aside (so prefix and suffix never overlap).
fn common_suffix_len(keys: &[Vec<u8>], prefix_len: usize) -> usize {
    let Some(first) = keys.first() else { return 0 };
    let mut s = first.len() - prefix_len;
    for k in &keys[1..] {
        s = s.min(k.len() - prefix_len);
        let mut i = 0;
        while i < s && k[k.len() - 1 - i] == first[first.len() - 1 - i] {
            i += 1;
        }
        s = i;
    }
    s
}

/// Encode a key batch with the shared prefix and suffix factored out —
/// sent once for the batch instead of once per key. Product keys of one
/// container run share the `<uuid><run><subrun>` head and the
/// `<label>#<type>` tail, so for big batches the per-key payload shrinks
/// to the event coordinates alone.
pub(crate) fn encode_keys_factored(keys: &[Vec<u8>]) -> Bytes {
    let p = common_prefix_len(keys);
    let s = common_suffix_len(keys, p);
    let middles: usize = keys.iter().map(|k| 4 + k.len() - p - s).sum();
    let mut buf = BytesMut::with_capacity(4 + p + 4 + s + 4 + middles);
    match keys.first() {
        Some(first) => {
            put_bytes(&mut buf, &first[..p]);
            put_bytes(&mut buf, &first[first.len() - s..]);
        }
        None => {
            put_bytes(&mut buf, b"");
            put_bytes(&mut buf, b"");
        }
    }
    buf.put_u32_le(keys.len() as u32);
    for k in keys {
        put_bytes(&mut buf, &k[p..k.len() - s]);
    }
    buf.freeze()
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
