//! Per-database chain replication: replica-chain planning, the client-side
//! routing state, and resynchronisation of a repaired replica.
//!
//! A *chain* is an ordered list of same-named databases on distinct servers.
//! The first member is the chain **head**: clients send mutations to it, the
//! head applies them locally and forwards them down the chain (carrying the
//! original `(client id, seq)` dedup stamp) before acknowledging. Reads are
//! served **tail-first** — the tail is the commit point, so a value observed
//! by a read has been applied on every replica and is about to be (or has
//! been) acknowledged; a read can therefore never observe a mutation whose
//! ack the head still withholds. On a dead replica, clients fail over:
//! mutations promote the next chain member (re-issuing the *identical*
//! stamped payload, so the promoted member's dedup window suppresses
//! anything the old head already forwarded), reads fall back from the tail
//! toward the head.
//!
//! Chain membership is computed deterministically from the deployment's
//! database targets by [`build_chains`], so servers (wiring forward routes)
//! and clients (installing failover routes) agree without coordination.

use crate::client::{DbTarget, YokanClient};
use crate::error::YokanError;
use mercurio::RpcError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// FNV-1a over `bytes`; the same stable hash the placement layer uses, so
/// chain rotation is reproducible across processes and runs.
pub(crate) fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Group `targets` into replica chains of up to `factor` members.
///
/// Databases with the same name on different `(addr, provider)` pairs are
/// copies of one logical database. Each name's copies are sorted by
/// `(addr, provider_id)`, rotated by `stable_hash(name)` so heads (and
/// tails) spread across the deployment instead of piling on one node, and
/// truncated to `min(factor, copies)`. The result is sorted by head target,
/// so every participant computes the same chain order. With `factor == 1`
/// (or a single copy per name) every chain is a singleton and the topology
/// is byte-identical to the unreplicated layout.
pub fn build_chains(targets: &[DbTarget], factor: usize) -> Vec<Vec<DbTarget>> {
    let mut by_name: BTreeMap<String, Vec<DbTarget>> = BTreeMap::new();
    for t in targets {
        by_name.entry(t.db.clone()).or_default().push(t.clone());
    }
    let mut chains = Vec::with_capacity(by_name.len());
    for (name, mut copies) in by_name {
        copies.sort_by(|a, b| (&a.addr, a.provider_id).cmp(&(&b.addr, b.provider_id)));
        copies.dedup();
        let n = copies.len();
        let r = factor.clamp(1, n);
        let start = (stable_hash(name.as_bytes()) % n as u64) as usize;
        let chain: Vec<DbTarget> = (0..r).map(|k| copies[(start + k) % n].clone()).collect();
        chains.push(chain);
    }
    chains.sort_by(|a, b| a[0].cmp(&b[0]));
    chains
}

/// Shared per-chain failover state: the replica list in chain order plus
/// the index of the member currently acting as head. Clones of one client
/// share this, so a failover discovered by one writer thread redirects all
/// of them.
pub(crate) struct ChainState {
    pub(crate) replicas: Vec<DbTarget>,
    cursor: AtomicUsize,
}

impl ChainState {
    pub(crate) fn new(replicas: Vec<DbTarget>) -> ChainState {
        ChainState {
            replicas,
            cursor: AtomicUsize::new(0),
        }
    }

    /// Index of the member mutations currently go to.
    pub(crate) fn cursor(&self) -> usize {
        self.cursor.load(Ordering::Relaxed) % self.replicas.len()
    }

    /// Record that the member at `idx` accepted a mutation after the
    /// previous head failed.
    pub(crate) fn promote(&self, idx: usize) {
        self.cursor
            .store(idx % self.replicas.len(), Ordering::Relaxed);
    }
}

/// Whether `err` signals that the target *node* is unreachable or gone —
/// the failover triggers — rather than an application-level refusal.
/// `Busy` is excluded on purpose: an overloaded replica is alive, and
/// failing over a stamped mutation to its peer would just shift load while
/// the dedup window absorbs the duplicate anyway.
pub fn is_dead_node(err: &RpcError) -> bool {
    matches!(
        err,
        RpcError::Timeout
            | RpcError::NetworkSaturated
            | RpcError::Transport(_)
            | RpcError::NoSuchEndpoint(_)
            | RpcError::Shutdown
    )
}

/// Tuning for the service-side chain forwarding path.
#[derive(Debug, Clone)]
pub struct ForwardParams {
    /// Per-attempt deadline for one forward RPC down the chain.
    pub timeout: Duration,
    /// Attempts per successor before declaring it unreachable.
    pub attempts: u32,
    /// How long an unreachable successor is skipped (acks degrade to
    /// single-copy) before the next mutation probes it again.
    pub suspend: Duration,
}

impl Default for ForwardParams {
    fn default() -> Self {
        ForwardParams {
            timeout: Duration::from_millis(150),
            attempts: 2,
            suspend: Duration::from_millis(500),
        }
    }
}

/// Counters for the service-side forwarding path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwardStats {
    /// Mutations successfully handed to the next live chain member.
    pub forwards_sent: u64,
    /// Forwarded mutations applied on this replica.
    pub forwards_applied: u64,
    /// Mutations acknowledged without reaching a successor (it was
    /// unreachable after the configured attempts, or suspended): the chain
    /// ran degraded and the skipped replica needs a resync.
    pub forward_degraded: u64,
}

/// Outcome of one [`resync_replicas`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResyncStats {
    /// Pairs copied from the source replica.
    pub keys_copied: u64,
    /// Bytes (keys + values) copied.
    pub bytes_copied: u64,
    /// Stale keys erased from the destination (present there, absent on
    /// the source).
    pub keys_erased: u64,
}

/// Rebuild the replica `dst` from the authoritative replica `src`, page by
/// page, then erase keys `dst` holds that `src` does not. Used to restore
/// the replication factor after a failed member is replaced: the promoted
/// survivor is the source of truth, the fresh (or revived) member the
/// destination.
///
/// `client` must have **no replica routes installed** for these databases —
/// resync addresses physical replicas directly, and a routed client would
/// send both sides of the copy through the same chain head.
pub fn resync_replicas(
    client: &YokanClient,
    src: &DbTarget,
    dst: &DbTarget,
) -> Result<ResyncStats, YokanError> {
    const PAGE: usize = 1024;
    let mut stats = ResyncStats::default();
    let mut src_keys: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
    let mut from: Vec<u8> = Vec::new();
    loop {
        let page = client.list_keyvals(src, &from, &[], PAGE)?;
        if page.is_empty() {
            break;
        }
        from = page.last().expect("page non-empty").0.clone();
        stats.keys_copied += page.len() as u64;
        stats.bytes_copied += page
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum::<u64>();
        client.put_multi(dst, &page)?;
        src_keys.extend(page.into_iter().map(|(k, _)| k));
    }
    let mut from: Vec<u8> = Vec::new();
    loop {
        let page = client.list_keys(dst, &from, &[], PAGE)?;
        if page.is_empty() {
            break;
        }
        from = page.last().expect("page non-empty").clone();
        let stale: Vec<Vec<u8>> = page.into_iter().filter(|k| !src_keys.contains(k)).collect();
        if !stale.is_empty() {
            stats.keys_erased += stale.len() as u64;
            client.erase_multi(dst, &stale)?;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(addr: &str, pid: u16, db: &str) -> DbTarget {
        DbTarget::new(addr, pid, db)
    }

    #[test]
    fn chains_group_same_named_databases() {
        let targets = vec![
            t("node0", 4, "events_0"),
            t("node1", 4, "events_0"),
            t("node0", 5, "events_1"),
            t("node1", 5, "events_1"),
        ];
        let chains = build_chains(&targets, 2);
        assert_eq!(chains.len(), 2);
        for chain in &chains {
            assert_eq!(chain.len(), 2);
            assert_eq!(chain[0].db, chain[1].db);
            assert_ne!(chain[0].addr, chain[1].addr);
        }
    }

    #[test]
    fn factor_one_is_singleton_chains() {
        let targets = vec![t("node0", 4, "events_0"), t("node1", 4, "events_0")];
        let chains = build_chains(&targets, 1);
        // One chain per name; the surplus copy is not addressed.
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].len(), 1);
    }

    #[test]
    fn chains_are_deterministic_and_order_independent() {
        let mut targets = vec![
            t("node1", 4, "events_0"),
            t("node0", 4, "events_0"),
            t("node2", 4, "events_0"),
        ];
        let a = build_chains(&targets, 2);
        targets.reverse();
        let b = build_chains(&targets, 2);
        assert_eq!(a, b);
        assert_eq!(a[0].len(), 2);
    }

    #[test]
    fn rotation_spreads_heads_across_nodes() {
        let mut targets = Vec::new();
        for db in 0..8 {
            for node in 0..2 {
                targets.push(t(&format!("node{node}"), 4 + db, &format!("events_{db}")));
            }
        }
        let chains = build_chains(&targets, 2);
        let heads_on_node0 = chains.iter().filter(|c| c[0].addr == "node0").count();
        // FNV rotation must not send every head to the same node.
        assert!(heads_on_node0 > 0 && heads_on_node0 < chains.len());
    }

    #[test]
    fn dead_node_classification() {
        assert!(is_dead_node(&RpcError::Timeout));
        assert!(is_dead_node(&RpcError::Transport("rst".into())));
        assert!(is_dead_node(&RpcError::NoSuchEndpoint("x".into())));
        assert!(is_dead_node(&RpcError::Shutdown));
        assert!(!is_dead_node(&RpcError::Busy {
            retry_after: Duration::from_millis(1)
        }));
        assert!(!is_dead_node(&RpcError::Handler("no".into())));
    }
}
