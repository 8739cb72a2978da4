//! Client-side retry policy with deterministic backoff and retry counters.
//!
//! Transport-level failures (timeouts, transient disconnects, saturation)
//! are retried with exponential backoff; handler errors are not — they mean
//! the request *arrived* and the service rejected it, so retrying cannot
//! help. Retried mutations are made safe by the service-side dedup window
//! (see [`crate::YokanService`]): the client stamps every mutation with a
//! `(client id, sequence number)` pair that is reused verbatim across
//! retries of the same logical request, so a retry whose original actually
//! landed is recognized and answered from the cached response instead of
//! being applied twice.

use mercurio::RpcError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Retry policy for client RPCs.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts for one logical request (first try included).
    pub max_attempts: u32,
    /// Per-attempt deadline; an attempt exceeding it is abandoned (the
    /// transport's pending entry is cancelled) and retried.
    pub rpc_timeout: Duration,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Upper bound on the computed backoff.
    pub max_backoff: Duration,
    /// Seed for deterministic backoff jitter (no global randomness).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            rpc_timeout: Duration::from_secs(2),
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(250),
            jitter_seed: 0,
        }
    }
}

/// splitmix64 finalizer, used to derive deterministic jitter.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// Whether `err` is worth retrying. Transport-level failures are, and so
    /// is [`RpcError::Busy`] — explicit overload pushback meaning "not now",
    /// not "no" (the request was shed before being applied, so retrying
    /// after the server's hint is both safe and the intended reaction).
    /// Other handler errors (the service saw the request and said no) are
    /// not.
    pub fn is_retryable(err: &RpcError) -> bool {
        matches!(
            err,
            RpcError::Timeout
                | RpcError::NetworkSaturated
                | RpcError::Transport(_)
                | RpcError::Busy { .. }
        )
    }

    /// The server-provided backoff hint, when `err` carries one.
    pub fn retry_hint(err: &RpcError) -> Option<Duration> {
        match err {
            RpcError::Busy { retry_after } => Some(*retry_after),
            _ => None,
        }
    }

    /// Backoff before retry number `attempt` (1-based) of the logical
    /// request identified by `nonce`. Exponential with a deterministic
    /// jitter in the upper half: `[cap/2, cap]` where
    /// `cap = min(base * 2^(attempt-1), max)`.
    pub fn backoff(&self, attempt: u32, nonce: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let cap = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let half = cap / 2;
        let draw = mix(self.jitter_seed ^ mix(nonce ^ ((attempt as u64) << 48)));
        let frac = (draw >> 11) as f64 / (1u64 << 53) as f64;
        half + Duration::from_nanos((half.as_nanos() as f64 * frac) as u64)
    }
}

/// Counters describing the retry behaviour of a client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// RPC attempts issued (first tries and retries).
    pub attempts: u64,
    /// Logical requests that needed at least one retry.
    pub retried_rpcs: u64,
    /// Retries answered from the service's dedup window (the original
    /// request had already been applied).
    pub deduped_replays: u64,
    /// Logical requests that exhausted every attempt and failed.
    pub gave_up: u64,
    /// `Busy` pushback responses received (overload shedding by the server,
    /// distinct from transport failures).
    pub busy_pushbacks: u64,
    /// Mutations redirected to the next replica of their chain after the
    /// acting head was unreachable (see [`crate::replica`]). A per-target
    /// `gave_up` may precede a successful failover: the *target* was given
    /// up on, not the logical request.
    pub failovers: u64,
    /// Reads answered by a non-tail replica after the tail (or a replica
    /// closer to it) was unreachable.
    pub read_fallbacks: u64,
    /// Read result entries — values, flags, filter replies, listed keys —
    /// supplied by the *old* owner of a migrating database because the new
    /// owner had none yet (the dual-read window of a live rescale, see
    /// [`crate::YokanClient::install_dual_read`]).
    pub dual_reads: u64,
}

impl RetryStats {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &RetryStats) {
        self.attempts += other.attempts;
        self.retried_rpcs += other.retried_rpcs;
        self.deduped_replays += other.deduped_replays;
        self.gave_up += other.gave_up;
        self.busy_pushbacks += other.busy_pushbacks;
        self.failovers += other.failovers;
        self.read_fallbacks += other.read_fallbacks;
        self.dual_reads += other.dual_reads;
    }

    /// The change relative to an earlier snapshot (saturating).
    pub fn delta_since(&self, baseline: &RetryStats) -> RetryStats {
        RetryStats {
            attempts: self.attempts.saturating_sub(baseline.attempts),
            retried_rpcs: self.retried_rpcs.saturating_sub(baseline.retried_rpcs),
            deduped_replays: self
                .deduped_replays
                .saturating_sub(baseline.deduped_replays),
            gave_up: self.gave_up.saturating_sub(baseline.gave_up),
            busy_pushbacks: self.busy_pushbacks.saturating_sub(baseline.busy_pushbacks),
            failovers: self.failovers.saturating_sub(baseline.failovers),
            read_fallbacks: self.read_fallbacks.saturating_sub(baseline.read_fallbacks),
            dual_reads: self.dual_reads.saturating_sub(baseline.dual_reads),
        }
    }
}

/// Shared atomic counters behind [`RetryStats`].
#[derive(Default)]
pub(crate) struct RetryCounters {
    pub(crate) attempts: AtomicU64,
    pub(crate) retried_rpcs: AtomicU64,
    pub(crate) deduped_replays: AtomicU64,
    pub(crate) gave_up: AtomicU64,
    pub(crate) busy_pushbacks: AtomicU64,
    pub(crate) failovers: AtomicU64,
    pub(crate) read_fallbacks: AtomicU64,
    pub(crate) dual_reads: AtomicU64,
}

impl RetryCounters {
    pub(crate) fn snapshot(&self) -> RetryStats {
        RetryStats {
            attempts: self.attempts.load(Ordering::Relaxed),
            retried_rpcs: self.retried_rpcs.load(Ordering::Relaxed),
            deduped_replays: self.deduped_replays.load(Ordering::Relaxed),
            gave_up: self.gave_up.load(Ordering::Relaxed),
            busy_pushbacks: self.busy_pushbacks.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            read_fallbacks: self.read_fallbacks.load(Ordering::Relaxed),
            dual_reads: self.dual_reads.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(RetryPolicy::is_retryable(&RpcError::Timeout));
        assert!(RetryPolicy::is_retryable(&RpcError::NetworkSaturated));
        assert!(RetryPolicy::is_retryable(&RpcError::Transport(
            "rst".into()
        )));
        assert!(RetryPolicy::is_retryable(&RpcError::Busy {
            retry_after: Duration::from_millis(3)
        }));
        assert!(!RetryPolicy::is_retryable(&RpcError::Handler("no".into())));
        assert!(!RetryPolicy::is_retryable(&RpcError::NoSuchRpc(3)));
        assert!(!RetryPolicy::is_retryable(&RpcError::Shutdown));
        assert!(!RetryPolicy::is_retryable(&RpcError::Protocol(
            "bad".into()
        )));
    }

    #[test]
    fn busy_carries_its_hint() {
        assert_eq!(
            RetryPolicy::retry_hint(&RpcError::Busy {
                retry_after: Duration::from_millis(9)
            }),
            Some(Duration::from_millis(9))
        );
        assert_eq!(RetryPolicy::retry_hint(&RpcError::Timeout), None);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            ..Default::default()
        };
        let mut prev_cap = Duration::ZERO;
        for attempt in 1..=10 {
            let b = p.backoff(attempt, 7);
            // Within [cap/2, cap] for the attempt's cap.
            let cap = Duration::from_millis(2)
                .saturating_mul(1 << (attempt - 1).min(20))
                .min(Duration::from_millis(100));
            assert!(b >= cap / 2 && b <= cap, "attempt {attempt}: {b:?}");
            assert!(cap >= prev_cap);
            prev_cap = cap;
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let a = RetryPolicy {
            jitter_seed: 9,
            ..Default::default()
        };
        let b = RetryPolicy {
            jitter_seed: 9,
            ..Default::default()
        };
        let c = RetryPolicy {
            jitter_seed: 10,
            ..Default::default()
        };
        assert_eq!(a.backoff(2, 5), b.backoff(2, 5));
        let differs = (0..32u64).any(|n| a.backoff(2, n) != c.backoff(2, n));
        assert!(differs, "different seeds never changed the jitter");
    }

    #[test]
    fn stats_merge_and_delta() {
        let mut a = RetryStats {
            attempts: 10,
            retried_rpcs: 2,
            deduped_replays: 1,
            gave_up: 0,
            busy_pushbacks: 4,
            failovers: 2,
            read_fallbacks: 3,
            dual_reads: 2,
        };
        let b = RetryStats {
            attempts: 5,
            retried_rpcs: 1,
            deduped_replays: 0,
            gave_up: 1,
            busy_pushbacks: 1,
            failovers: 1,
            read_fallbacks: 0,
            dual_reads: 1,
        };
        a.merge(&b);
        assert_eq!(a.attempts, 15);
        assert_eq!(a.gave_up, 1);
        assert_eq!(a.busy_pushbacks, 5);
        assert_eq!(a.failovers, 3);
        assert_eq!(a.read_fallbacks, 3);
        assert_eq!(a.dual_reads, 3);
        let d = a.delta_since(&b);
        assert_eq!(d.attempts, 10);
        assert_eq!(d.retried_rpcs, 2);
        assert_eq!(d.busy_pushbacks, 4);
        assert_eq!(d.failovers, 2);
    }
}
