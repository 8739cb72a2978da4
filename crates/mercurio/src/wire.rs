//! Wire framing shared by all transports.
//!
//! Every message is a [`Frame`]: either a request (`req_id`, `rpc_id`,
//! `provider_id`, payload) or a response (`req_id`, status, payload). The
//! encoding is a fixed little-endian header followed by the payload; the TCP
//! transport additionally length-prefixes each frame.

use crate::error::RpcError;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Identifier of a registered RPC (Mercury registers RPCs by name and hashes
/// them to an id; we use explicit ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RpcId(pub u16);

const TAG_REQUEST: u8 = 1;
const TAG_RESPONSE_OK: u8 = 2;
const TAG_RESPONSE_ERR: u8 = 3;

/// A decoded wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Frame {
    Request {
        req_id: u64,
        rpc_id: RpcId,
        provider_id: u16,
        payload: Bytes,
    },
    Response {
        req_id: u64,
        result: Result<Bytes, (u8, String)>,
    },
}

impl Frame {
    /// Total encoded size in bytes (used by the network model for bandwidth
    /// accounting).
    pub(crate) fn encoded_len(&self) -> usize {
        match self {
            Frame::Request { payload, .. } => 1 + 8 + 2 + 2 + 4 + payload.len(),
            Frame::Response { result, .. } => match result {
                Ok(p) => 1 + 8 + 4 + p.len(),
                Err((_, detail)) => 1 + 8 + 1 + 4 + detail.len(),
            },
        }
    }

    pub(crate) fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        match self {
            Frame::Request {
                req_id,
                rpc_id,
                provider_id,
                payload,
            } => {
                buf.put_u8(TAG_REQUEST);
                buf.put_u64_le(*req_id);
                buf.put_u16_le(rpc_id.0);
                buf.put_u16_le(*provider_id);
                buf.put_u32_le(payload.len() as u32);
                buf.put_slice(payload);
            }
            Frame::Response { req_id, result } => match result {
                Ok(payload) => {
                    buf.put_u8(TAG_RESPONSE_OK);
                    buf.put_u64_le(*req_id);
                    buf.put_u32_le(payload.len() as u32);
                    buf.put_slice(payload);
                }
                Err((code, detail)) => {
                    buf.put_u8(TAG_RESPONSE_ERR);
                    buf.put_u64_le(*req_id);
                    buf.put_u8(*code);
                    buf.put_u32_le(detail.len() as u32);
                    buf.put_slice(detail.as_bytes());
                }
            },
        }
        buf.freeze()
    }

    pub(crate) fn decode(mut buf: Bytes) -> Result<Frame, RpcError> {
        let fail = |m: &str| RpcError::Protocol(m.to_string());
        if buf.remaining() < 1 {
            return Err(fail("empty frame"));
        }
        let tag = buf.get_u8();
        match tag {
            TAG_REQUEST => {
                if buf.remaining() < 8 + 2 + 2 + 4 {
                    return Err(fail("short request header"));
                }
                let req_id = buf.get_u64_le();
                let rpc_id = RpcId(buf.get_u16_le());
                let provider_id = buf.get_u16_le();
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    return Err(fail("truncated request payload"));
                }
                Ok(Frame::Request {
                    req_id,
                    rpc_id,
                    provider_id,
                    payload: buf.split_to(len),
                })
            }
            TAG_RESPONSE_OK => {
                if buf.remaining() < 8 + 4 {
                    return Err(fail("short response header"));
                }
                let req_id = buf.get_u64_le();
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    return Err(fail("truncated response payload"));
                }
                Ok(Frame::Response {
                    req_id,
                    result: Ok(buf.split_to(len)),
                })
            }
            TAG_RESPONSE_ERR => {
                if buf.remaining() < 8 + 1 + 4 {
                    return Err(fail("short error header"));
                }
                let req_id = buf.get_u64_le();
                let code = buf.get_u8();
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    return Err(fail("truncated error detail"));
                }
                let detail = String::from_utf8_lossy(&buf.split_to(len)).into_owned();
                Ok(Frame::Response {
                    req_id,
                    result: Err((code, detail)),
                })
            }
            other => Err(fail(&format!("unknown frame tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let f = Frame::Request {
            req_id: 77,
            rpc_id: RpcId(3),
            provider_id: 12,
            payload: Bytes::from_static(b"hello"),
        };
        let enc = f.encode();
        assert_eq!(enc.len(), f.encoded_len());
        assert_eq!(Frame::decode(enc).unwrap(), f);
    }

    #[test]
    fn response_ok_round_trip() {
        let f = Frame::Response {
            req_id: 1,
            result: Ok(Bytes::from_static(b"data")),
        };
        assert_eq!(Frame::decode(f.encode()).unwrap(), f);
    }

    #[test]
    fn response_err_round_trip() {
        let f = Frame::Response {
            req_id: 9,
            result: Err((3, "kaboom".to_string())),
        };
        assert_eq!(Frame::decode(f.encode()).unwrap(), f);
    }

    #[test]
    fn empty_payload_round_trip() {
        let f = Frame::Request {
            req_id: 0,
            rpc_id: RpcId(0),
            provider_id: 0,
            payload: Bytes::new(),
        };
        assert_eq!(Frame::decode(f.encode()).unwrap(), f);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Frame::decode(Bytes::from_static(b"")).is_err());
        assert!(Frame::decode(Bytes::from_static(b"\x09rest")).is_err());
        assert!(Frame::decode(Bytes::from_static(b"\x01\x01")).is_err());
    }

    #[test]
    fn decode_rejects_truncated_payload() {
        let f = Frame::Request {
            req_id: 5,
            rpc_id: RpcId(1),
            provider_id: 0,
            payload: Bytes::from_static(b"0123456789"),
        };
        let enc = f.encode();
        let cut = enc.slice(0..enc.len() - 3);
        assert!(Frame::decode(cut).is_err());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Decoding arbitrary bytes never panics — it returns a frame or a
        /// protocol error.
        #[test]
        fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Frame::decode(Bytes::from(data));
        }

        /// Any request round-trips exactly, and encoded_len is accurate.
        #[test]
        fn request_round_trips(
            req_id in any::<u64>(),
            rpc in any::<u16>(),
            provider in any::<u16>(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let f = Frame::Request {
                req_id,
                rpc_id: RpcId(rpc),
                provider_id: provider,
                payload: Bytes::from(payload),
            };
            let enc = f.encode();
            prop_assert_eq!(enc.len(), f.encoded_len());
            prop_assert_eq!(Frame::decode(enc).unwrap(), f);
        }

        /// Any response (ok or error) round-trips exactly.
        #[test]
        fn response_round_trips(
            req_id in any::<u64>(),
            ok in any::<bool>(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
            code in any::<u8>(),
            detail in ".{0,64}",
        ) {
            let f = if ok {
                Frame::Response { req_id, result: Ok(Bytes::from(payload)) }
            } else {
                Frame::Response { req_id, result: Err((code, detail)) }
            };
            let enc = f.encode();
            prop_assert_eq!(enc.len(), f.encoded_len());
            prop_assert_eq!(Frame::decode(enc).unwrap(), f);
        }

        /// Truncating an encoded frame always errors, never mis-decodes.
        #[test]
        fn truncation_always_errors(
            payload in proptest::collection::vec(any::<u8>(), 1..128),
            cut in 1usize..16,
        ) {
            let f = Frame::Request {
                req_id: 1,
                rpc_id: RpcId(2),
                provider_id: 3,
                payload: Bytes::from(payload),
            };
            let enc = f.encode();
            if enc.len() > cut {
                prop_assert!(Frame::decode(enc.slice(..enc.len() - cut)).is_err());
            }
        }
    }
}
