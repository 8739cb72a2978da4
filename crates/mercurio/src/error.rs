//! RPC error type.

use std::fmt;

/// Errors surfaced by RPC calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The target address is not registered on the fabric / reachable.
    NoSuchEndpoint(String),
    /// The target endpoint has no handler for the requested RPC id.
    NoSuchRpc(u16),
    /// The handler ran and returned an application-level error.
    Handler(String),
    /// The call did not complete within the configured timeout.
    Timeout,
    /// The sending NIC exceeded its injection bandwidth budget and the
    /// network model is configured to fail on saturation (the Aries failure
    /// mode from the paper's evaluation).
    NetworkSaturated,
    /// Transport-level failure (connection refused, reset, framing error...).
    Transport(String),
    /// A message could not be encoded or decoded.
    Protocol(String),
    /// The endpoint is shutting down.
    Shutdown,
    /// The service is overloaded and shed the request before executing it
    /// (admission queue full, deadline already passed, or a backend hard
    /// watermark tripped). The request was *not* applied; the caller should
    /// back off for at least `retry_after` and try again.
    Busy {
        /// Server-suggested minimum backoff before retrying.
        retry_after: std::time::Duration,
    },
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::NoSuchEndpoint(a) => write!(f, "no such endpoint: {a}"),
            RpcError::NoSuchRpc(id) => write!(f, "no handler registered for rpc id {id}"),
            RpcError::Handler(msg) => write!(f, "handler error: {msg}"),
            RpcError::Timeout => write!(f, "rpc timed out"),
            RpcError::NetworkSaturated => write!(f, "NIC injection bandwidth saturated"),
            RpcError::Transport(msg) => write!(f, "transport error: {msg}"),
            RpcError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            RpcError::Shutdown => write!(f, "endpoint is shut down"),
            RpcError::Busy { retry_after } => write!(
                f,
                "service overloaded, retry after {}ms",
                retry_after.as_millis()
            ),
        }
    }
}

impl std::error::Error for RpcError {}

/// Compact status codes used on the wire to carry errors back to callers.
impl RpcError {
    pub(crate) fn to_wire(&self) -> (u8, String) {
        match self {
            RpcError::NoSuchEndpoint(a) => (1, a.clone()),
            RpcError::NoSuchRpc(id) => (2, id.to_string()),
            RpcError::Handler(m) => (3, m.clone()),
            RpcError::Timeout => (4, String::new()),
            RpcError::NetworkSaturated => (5, String::new()),
            // 6 and 7 carried the retired bulk-region errors; they stay
            // unassigned so no code changes meaning across versions.
            RpcError::Transport(m) => (8, m.clone()),
            RpcError::Protocol(m) => (9, m.clone()),
            RpcError::Shutdown => (10, String::new()),
            RpcError::Busy { retry_after } => (11, retry_after.as_micros().to_string()),
        }
    }

    pub(crate) fn from_wire(code: u8, detail: &str) -> RpcError {
        match code {
            1 => RpcError::NoSuchEndpoint(detail.to_string()),
            2 => RpcError::NoSuchRpc(detail.parse().unwrap_or(0)),
            3 => RpcError::Handler(detail.to_string()),
            4 => RpcError::Timeout,
            5 => RpcError::NetworkSaturated,
            8 => RpcError::Transport(detail.to_string()),
            10 => RpcError::Shutdown,
            11 => RpcError::Busy {
                retry_after: std::time::Duration::from_micros(detail.parse().unwrap_or(0)),
            },
            _ => RpcError::Protocol(detail.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip() {
        let cases = vec![
            RpcError::NoSuchEndpoint("x".into()),
            RpcError::NoSuchRpc(9),
            RpcError::Handler("boom".into()),
            RpcError::Timeout,
            RpcError::NetworkSaturated,
            RpcError::Transport("reset".into()),
            RpcError::Protocol("bad frame".into()),
            RpcError::Shutdown,
            RpcError::Busy {
                retry_after: std::time::Duration::from_millis(25),
            },
            RpcError::Busy {
                retry_after: std::time::Duration::from_micros(1500),
            },
        ];
        for e in cases {
            let (code, detail) = e.to_wire();
            assert_eq!(RpcError::from_wire(code, &detail), e);
        }
    }

    #[test]
    fn display_is_informative() {
        let s = RpcError::Busy {
            retry_after: std::time::Duration::from_millis(25),
        }
        .to_string();
        assert!(s.contains("overloaded"));
        assert!(s.contains("25ms"));
    }
}
