//! The decoded form of one Yokan mutation.
//!
//! Every mutation the service applies — sent by a client, forwarded down a
//! replica chain, or dual-written during a live migration — is decoded here
//! exactly once, and the inline body that chain forwards and dual-writes
//! carry is encoded here. The body layout is the client's: the database
//! name, then the op's own fields.

use super::{MODE_INLINE, OP_ERASE, OP_ERASE_MULTI, OP_PUT, OP_PUT_IF_ABSENT, OP_PUT_MULTI};
use crate::backend::{Backend, KeyValue};
use crate::encoding::*;
use crate::error::YokanError;
use bytes::{BufMut, Bytes, BytesMut};

/// One mutation: the database it addresses and what it does there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Mutation {
    /// Database name. A dual-write re-addresses it to the destination's.
    pub(super) db: String,
    op: Op,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Put(Bytes, Bytes),
    PutIfAbsent(Bytes, Bytes),
    Erase(Bytes),
    EraseMulti(Vec<Vec<u8>>),
    PutMulti(Vec<KeyValue>),
}

impl Mutation {
    /// Decode the body of mutation RPC `op`, starting at the database name.
    /// A `put_multi` carries its pairs inline after a mode byte; any mode
    /// other than [`MODE_INLINE`] is rejected.
    pub(super) fn decode(op: u16, mut p: Bytes) -> Result<Mutation, YokanError> {
        let db = get_bytes(&mut p)?;
        let db = std::str::from_utf8(&db)
            .map_err(|_| YokanError::Protocol("db name not utf8".into()))?
            .to_string();
        let op = match op {
            OP_PUT => Op::Put(get_bytes(&mut p)?, get_bytes(&mut p)?),
            OP_PUT_IF_ABSENT => Op::PutIfAbsent(get_bytes(&mut p)?, get_bytes(&mut p)?),
            OP_ERASE => Op::Erase(get_bytes(&mut p)?),
            OP_ERASE_MULTI => Op::EraseMulti(decode_keys(&mut p)?),
            OP_PUT_MULTI => Op::PutMulti(match get_u8(&mut p)? {
                MODE_INLINE => decode_pairs(&mut p)?,
                m => return Err(YokanError::Protocol(format!("bad put mode {m}"))),
            }),
            other => return Err(YokanError::Protocol(format!("bad mutation op {other}"))),
        };
        Ok(Mutation { db, op })
    }

    /// The RPC id this mutation travels under.
    pub(super) fn rpc_op(&self) -> u16 {
        match self.op {
            Op::Put(..) => OP_PUT,
            Op::PutIfAbsent(..) => OP_PUT_IF_ABSENT,
            Op::Erase(_) => OP_ERASE,
            Op::EraseMulti(_) => OP_ERASE_MULTI,
            Op::PutMulti(_) => OP_PUT_MULTI,
        }
    }

    /// Exact number of bytes [`Mutation::encode_into`] appends.
    pub(super) fn encoded_len(&self) -> usize {
        4 + self.db.len()
            + match &self.op {
                Op::Put(k, v) | Op::PutIfAbsent(k, v) => 8 + k.len() + v.len(),
                Op::Erase(k) => 4 + k.len(),
                Op::EraseMulti(keys) => keys_encoded_len(keys),
                Op::PutMulti(pairs) => 1 + pairs_encoded_len(pairs),
            }
    }

    /// Append the inline body [`Mutation::decode`] reads back.
    pub(super) fn encode_into(&self, buf: &mut BytesMut) {
        put_bytes(buf, self.db.as_bytes());
        match &self.op {
            Op::Put(k, v) | Op::PutIfAbsent(k, v) => {
                put_bytes(buf, k);
                put_bytes(buf, v);
            }
            Op::Erase(k) => put_bytes(buf, k),
            Op::EraseMulti(keys) => encode_keys_into(buf, keys),
            Op::PutMulti(pairs) => {
                buf.put_u8(MODE_INLINE);
                encode_pairs_into(buf, pairs);
            }
        }
    }

    /// The keys this mutation touches, in body order.
    pub(super) fn keys(&self) -> Vec<&[u8]> {
        match &self.op {
            Op::Put(k, _) | Op::PutIfAbsent(k, _) | Op::Erase(k) => vec![k],
            Op::EraseMulti(keys) => keys.iter().map(Vec::as_slice).collect(),
            Op::PutMulti(pairs) => pairs.iter().map(|(k, _)| k.as_slice()).collect(),
        }
    }

    /// The same mutation restricted to the keys at `idxs` (positions in
    /// [`Mutation::keys`]).
    pub(super) fn subset(&self, idxs: &[usize]) -> Mutation {
        let op = match &self.op {
            Op::EraseMulti(keys) => Op::EraseMulti(idxs.iter().map(|&i| keys[i].clone()).collect()),
            Op::PutMulti(pairs) => Op::PutMulti(idxs.iter().map(|&i| pairs[i].clone()).collect()),
            // A single-key op is already exactly its one key's share.
            single => single.clone(),
        };
        Mutation {
            db: self.db.clone(),
            op,
        }
    }

    /// Apply to `backend`; returns the RPC's reply body.
    pub(super) fn apply(&self, backend: &dyn Backend) -> Result<Bytes, YokanError> {
        match &self.op {
            Op::Put(k, v) => backend.put(k, v)?,
            Op::PutIfAbsent(k, v) => return Ok(encode_optionals(&[backend.put_if_absent(k, v)?])),
            Op::Erase(k) => backend.erase(k)?,
            Op::EraseMulti(keys) => backend.erase_multi(keys)?,
            Op::PutMulti(pairs) => {
                backend.put_multi(pairs)?;
                return Ok(Bytes::copy_from_slice(&(pairs.len() as u32).to_le_bytes()));
            }
        }
        Ok(Bytes::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bytes() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..12)
    }

    fn mutation() -> impl Strategy<Value = Mutation> {
        let db = proptest::collection::vec(0u8..26, 0..10).prop_map(|v| {
            v.into_iter()
                .map(|c| (b'a' + c) as char)
                .collect::<String>()
        });
        let op = prop_oneof![
            (bytes(), bytes()).prop_map(|(k, v)| Op::Put(k.into(), v.into())),
            (bytes(), bytes()).prop_map(|(k, v)| Op::PutIfAbsent(k.into(), v.into())),
            bytes().prop_map(|k| Op::Erase(k.into())),
            proptest::collection::vec(bytes(), 0..5).prop_map(Op::EraseMulti),
            proptest::collection::vec((bytes(), bytes()), 0..5).prop_map(Op::PutMulti),
        ];
        (db, op).prop_map(|(db, op)| Mutation { db, op })
    }

    fn encode(m: &Mutation) -> Bytes {
        let mut buf = BytesMut::new();
        m.encode_into(&mut buf);
        assert_eq!(buf.len(), m.encoded_len(), "encoded_len is exact");
        buf.freeze()
    }

    /// The inline body of `m` laid out field by field, as the client
    /// builds it after its dedup stamp.
    fn client_body(m: &Mutation) -> Bytes {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, m.db.as_bytes());
        match &m.op {
            Op::Put(k, v) | Op::PutIfAbsent(k, v) => {
                put_bytes(&mut buf, k);
                put_bytes(&mut buf, v);
            }
            Op::Erase(k) => put_bytes(&mut buf, k),
            Op::EraseMulti(keys) => buf.put_slice(&encode_keys(keys)),
            Op::PutMulti(pairs) => {
                buf.put_u8(MODE_INLINE);
                buf.put_slice(&encode_pairs(pairs));
            }
        }
        buf.freeze()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn decode_inverts_encode(m in mutation()) {
            let back = Mutation::decode(m.rpc_op(), encode(&m)).unwrap();
            prop_assert_eq!(back, m);
        }

        #[test]
        fn reencoding_a_client_body_reproduces_its_bytes(m in mutation()) {
            let body = client_body(&m);
            let decoded = Mutation::decode(m.rpc_op(), body.clone()).unwrap();
            prop_assert_eq!(encode(&decoded), body);
        }
    }

    #[test]
    fn empty_keys_and_values_round_trip() {
        let e = Bytes::new;
        for op in [
            Op::Put(e(), e()),
            Op::PutIfAbsent(e(), e()),
            Op::Erase(e()),
            Op::EraseMulti(vec![Vec::new(), Vec::new()]),
            Op::EraseMulti(Vec::new()),
            Op::PutMulti(vec![(Vec::new(), Vec::new())]),
            Op::PutMulti(Vec::new()),
        ] {
            let m = Mutation {
                db: String::new(),
                op,
            };
            assert_eq!(Mutation::decode(m.rpc_op(), encode(&m)).unwrap(), m);
        }
    }

    #[test]
    fn put_multi_modes_other_than_inline_are_rejected() {
        for mode in [1u8, 2, 0xff] {
            let mut body = BytesMut::new();
            put_bytes(&mut body, b"db");
            body.put_u8(mode);
            body.put_slice(&encode_pairs(&[(b"k".to_vec(), b"v".to_vec())]));
            let err = Mutation::decode(OP_PUT_MULTI, body.freeze()).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("protocol error: bad put mode {mode}")
            );
        }
    }
}
