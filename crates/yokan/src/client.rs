//! Client side: remote database handles.
//!
//! Every RPC of a [`YokanClient`] is one [`InFlight`] call: issued to the
//! first member of its route, re-sent under the retry policy, walked on to
//! the next replica on dead-node errors, and — for reads of a migrating
//! database — completed from the old owners by the dual-read step. The
//! blocking methods are that call issued and waited on at once; the
//! `*_async` methods hand it out as a typed `Pending*` handle.

use crate::backend::KeyValue;
use crate::encoding::*;
use crate::error::YokanError;
use crate::replica::{self, ChainState};
use crate::retry::{RetryCounters, RetryPolicy, RetryStats};
use crate::scan::{FilterReply, FilterView, ScanForm, ScanPage};
use crate::service::*;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mercurio::{Endpoint, PendingResponse, RpcError, RpcId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide client-id allocator, offset by a per-process base so ids
/// are unique *across* processes too: the service keys its at-most-once
/// dedup window by client id, and two CLI processes both counting from 1
/// would silently swallow each other's mutations as replays.
static NEXT_CLIENT_ID: AtomicU64 = AtomicU64::new(1);

fn client_id_base() -> u64 {
    use std::sync::OnceLock;
    static BASE: OnceLock<u64> = OnceLock::new();
    *BASE.get_or_init(|| {
        let pid = std::process::id() as u64;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // SplitMix64 finalizer: spread (pid, boot time) over the full u64
        // so bases from concurrently launched processes don't collide in
        // their low bits (ids within a process are base + small counter).
        let mut z = pid.rotate_left(32) ^ nanos;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

/// Per-client identity and retry bookkeeping, shared by clones of one
/// [`YokanClient`] so sequence numbers stay unique across them.
pub(crate) struct ClientSession {
    pub(crate) client_id: u64,
    pub(crate) next_seq: AtomicU64,
    /// Topology epoch stamped into mutation headers. 0 means unfenced —
    /// the service accepts the mutation regardless of its own epoch (raw
    /// tooling addressing physical replicas). Routed clients learn the
    /// deployment's epoch at connect time and are fenced from then on.
    pub(crate) epoch: AtomicU64,
    pub(crate) counters: RetryCounters,
}

impl ClientSession {
    fn new() -> Arc<ClientSession> {
        Arc::new(ClientSession {
            client_id: client_id_base()
                .wrapping_add(NEXT_CLIENT_ID.fetch_add(1, Ordering::Relaxed)),
            next_seq: AtomicU64::new(1),
            epoch: AtomicU64::new(0),
            counters: RetryCounters::default(),
        })
    }
}

/// Wait for `pending`, re-issuing the *same* payload (same sequence number,
/// for mutations) on retryable failures per `policy`. Without a policy this
/// is a plain unbounded wait, preserving the historical behaviour.
#[allow(clippy::too_many_arguments)]
pub(crate) fn wait_with_retry(
    endpoint: &Arc<dyn Endpoint>,
    policy: Option<&RetryPolicy>,
    counters: &RetryCounters,
    addr: &str,
    op: RpcId,
    provider_id: u16,
    payload: &Bytes,
    pending: PendingResponse,
) -> Result<Bytes, RpcError> {
    counters.attempts.fetch_add(1, Ordering::Relaxed);
    let Some(policy) = policy else {
        return pending.wait();
    };
    let nonce = ((op.0 as u64) << 32) ^ payload.len() as u64;
    let mut pending = pending;
    let mut attempt = 1u32;
    loop {
        match pending.wait_timeout(policy.rpc_timeout) {
            Ok(b) => return Ok(b),
            Err(e) if RetryPolicy::is_retryable(&e) && attempt < policy.max_attempts => {
                let hint = RetryPolicy::retry_hint(&e);
                if hint.is_some() {
                    counters.busy_pushbacks.fetch_add(1, Ordering::Relaxed);
                }
                if attempt == 1 {
                    counters.retried_rpcs.fetch_add(1, Ordering::Relaxed);
                }
                // An overloaded server's hint is a floor under the computed
                // backoff: never come back sooner than the server asked.
                let backoff = policy.backoff(attempt, nonce).max(hint.unwrap_or_default());
                std::thread::sleep(backoff);
                attempt += 1;
                counters.attempts.fetch_add(1, Ordering::Relaxed);
                pending = endpoint.call_async(addr, op, provider_id, payload.clone());
            }
            Err(e) => {
                if RetryPolicy::is_retryable(&e) {
                    if RetryPolicy::retry_hint(&e).is_some() {
                        counters.busy_pushbacks.fetch_add(1, Ordering::Relaxed);
                    }
                    counters.gave_up.fetch_add(1, Ordering::Relaxed);
                }
                return Err(e);
            }
        }
    }
}

/// Strip the one-byte replay marker from a mutation response, counting
/// cached replays (the service answered from its dedup window instead of
/// applying the mutation again).
fn strip_replay_marker(mut resp: Bytes, counters: &RetryCounters) -> Result<Bytes, YokanError> {
    if resp.is_empty() {
        return Err(YokanError::Protocol("missing replay marker".into()));
    }
    let marker = resp.get_u8();
    if marker == REPLAY_CACHED {
        counters.deduped_replays.fetch_add(1, Ordering::Relaxed);
    }
    Ok(resp)
}

/// Identifies one remote database: the server address, the provider id on
/// that server, and the database name within the provider.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DbTarget {
    /// Server endpoint address.
    pub addr: String,
    /// Provider id on that server.
    pub provider_id: u16,
    /// Database name within the provider.
    pub db: String,
}

impl DbTarget {
    /// Convenience constructor.
    pub fn new(addr: impl Into<String>, provider_id: u16, db: impl Into<String>) -> Self {
        DbTarget {
            addr: addr.into(),
            provider_id,
            db: db.into(),
        }
    }
}

/// The fixed part of a push-down range filter (see
/// [`YokanClient::filter_scan_async`]): the keys it walks, the ones it
/// keeps, and the predicate program run on every kept value. Successive
/// pages of one scan share it and differ only in where they resume.
#[derive(Debug, Clone, Copy)]
pub struct FilterScan<'a> {
    /// Program evaluated server-side on each kept value.
    pub program: &'a crate::filter::Program,
    /// Only keys starting with this prefix are walked.
    pub prefix: &'a [u8],
    /// A walked key is kept when its bytes from this offset on start with
    /// [`FilterScan::tag`].
    pub tag_offset: u32,
    /// The bytes a kept key holds at [`FilterScan::tag_offset`].
    pub tag: &'a [u8],
}

/// The fixed part of a value-returning range scan (see
/// [`YokanClient::value_scan_async`]): the keys it walks and the ones it
/// returns with their values. Successive pages of one scan share it.
#[derive(Debug, Clone, Copy)]
pub struct ValueScan<'a> {
    /// Only keys starting with this prefix are walked.
    pub prefix: &'a [u8],
    /// A walked key is kept when it ends with [`ValueScan::tag`] at this
    /// offset, i.e. it is exactly `tag_offset + tag.len()` bytes long.
    pub tag_offset: u32,
    /// The bytes a kept key ends with, from [`ValueScan::tag_offset`] on.
    pub tag: &'a [u8],
}

/// A Yokan client bound to a local endpoint.
///
/// Every request carries its data inline, batched writes included: neither
/// transport has one-sided RDMA, so Yokan's RDMA path for large batches
/// (paper §II-B) would only make the server call back for the bytes.
#[derive(Clone)]
pub struct YokanClient {
    endpoint: Arc<dyn Endpoint>,
    retry: Option<RetryPolicy>,
    session: Arc<ClientSession>,
    /// Replica-chain routes keyed by database name (chain members share
    /// one name across servers). Shared by clones, so a failover promoted
    /// by one thread redirects them all. Empty unless
    /// [`YokanClient::install_replica_routes`] ran — the unreplicated path
    /// is untouched.
    routes: Arc<RwLock<HashMap<String, Arc<ChainState>>>>,
    /// Dual-read fallbacks of a live migration, keyed by database name:
    /// a read of a migrating database that *misses* on the new owner falls
    /// back to these old-owner candidates until the migration is Done (the
    /// old owner stays complete — handed-off keys are dual-written — so a
    /// key acked before the rescale is always found on one side). Shared
    /// by clones; empty in steady state.
    dual: Arc<RwLock<HashMap<String, Vec<DbTarget>>>>,
}

impl YokanClient {
    /// Create a client issuing its calls through `endpoint`.
    pub fn new(endpoint: Arc<dyn Endpoint>) -> YokanClient {
        YokanClient {
            endpoint,
            retry: None,
            session: ClientSession::new(),
            routes: Arc::new(RwLock::new(HashMap::new())),
            dual: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    /// Install replica-chain routes (from [`crate::replica::build_chains`]).
    /// Any [`DbTarget`] naming a routed database is thereafter resolved
    /// through its chain: mutations go to the acting head and fail over to
    /// the next member on dead-node errors (re-issuing the identical
    /// stamped payload, so the promoted member's dedup window suppresses
    /// anything the old head already forwarded); reads go to the tail —
    /// the chain's commit point — falling back toward the head. Singleton
    /// chains are skipped: they behave exactly like direct targets.
    pub fn install_replica_routes(&self, chains: &[Vec<DbTarget>]) {
        let mut routes = self.routes.write();
        for chain in chains {
            if chain.len() < 2 {
                continue;
            }
            routes.insert(
                chain[0].db.clone(),
                Arc::new(ChainState::new(chain.clone())),
            );
        }
    }

    /// The replica chain a database name currently resolves through, if
    /// routes are installed for it (in chain order, head first).
    pub fn replica_chain(&self, db: &str) -> Option<Vec<DbTarget>> {
        self.routes.read().get(db).map(|c| c.replicas.clone())
    }

    fn route_for(&self, db: &str) -> Option<Arc<ChainState>> {
        let routes = self.routes.read();
        if routes.is_empty() {
            return None;
        }
        routes.get(db).cloned()
    }

    /// Stamp subsequent mutations with topology `epoch`. Services reject a
    /// non-zero epoch that does not match their own with
    /// [`YokanError::WrongEpoch`] — an explicit redirect to refresh
    /// routing. Epoch 0 (the default) is exempt from fencing.
    pub fn set_topology_epoch(&self, epoch: u64) {
        self.session.epoch.store(epoch, Ordering::Relaxed);
    }

    /// The topology epoch this client stamps into mutations (0 = unfenced).
    pub fn topology_epoch(&self) -> u64 {
        self.session.epoch.load(Ordering::Relaxed)
    }

    /// Read the topology epoch a service currently accepts.
    pub fn service_epoch(&self, addr: &str, provider_id: u16) -> Result<u64, YokanError> {
        let provider = DbTarget::new(addr, provider_id, "");
        let mut resp = self.invoke(&provider, OP_MIG_EPOCH_GET, Bytes::new())?;
        get_u64(&mut resp)
    }

    /// Advance a service's topology epoch (monotonic — the service keeps
    /// the max of its own and `epoch`). Returns the resulting epoch.
    pub fn advance_service_epoch(
        &self,
        addr: &str,
        provider_id: u16,
        epoch: u64,
    ) -> Result<u64, YokanError> {
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u64_le(epoch);
        let provider = DbTarget::new(addr, provider_id, "");
        let mut resp = self.invoke(&provider, OP_MIG_EPOCH_SET, buf.freeze())?;
        get_u64(&mut resp)
    }

    /// Freeze the key interval `[lo, hi]` of `target` (addressed as a
    /// physical replica, bypassing routes): mutations touching it are shed
    /// `Busy { retry_after }` until the interval is unfrozen or replaced.
    pub fn migration_freeze(
        &self,
        target: &DbTarget,
        lo: &[u8],
        hi: &[u8],
        retry_after: std::time::Duration,
    ) -> Result<(), YokanError> {
        let mut buf = Self::header(target, 12 + lo.len() + hi.len());
        put_bytes(&mut buf, lo);
        put_bytes(&mut buf, hi);
        buf.put_u32_le(retry_after.as_millis().min(u32::MAX as u128) as u32);
        self.invoke(target, OP_MIG_FREEZE, buf.freeze())?;
        Ok(())
    }

    /// Clear the frozen interval of `target` (the range moved to Handoff).
    pub fn migration_unfreeze(&self, target: &DbTarget) -> Result<(), YokanError> {
        self.migration_freeze(target, &[], &[], std::time::Duration::ZERO)
    }

    /// Install handoff state on `target` (a physical old-owner replica):
    /// each `(key, chain index)` entry maps a copied key to its
    /// destination chain in `chains`. Mutations touching such a key are
    /// thereafter applied locally *and* re-issued at the destination with
    /// the original dedup stamp, until [`YokanClient::migration_complete`].
    pub fn migration_handoff(
        &self,
        target: &DbTarget,
        chains: &[Vec<DbTarget>],
        entries: &[(Vec<u8>, usize)],
    ) -> Result<(), YokanError> {
        let chains_len: usize = chains
            .iter()
            .map(|c| {
                4 + c
                    .iter()
                    .map(|t| 12 + t.addr.len() + t.db.len())
                    .sum::<usize>()
            })
            .sum();
        let keys_len: usize = entries.iter().map(|(k, _)| 8 + k.len()).sum();
        let mut buf = Self::header(target, 8 + chains_len + keys_len);
        buf.put_u32_le(chains.len() as u32);
        for chain in chains {
            buf.put_u32_le(chain.len() as u32);
            for t in chain {
                put_bytes(&mut buf, t.addr.as_bytes());
                buf.put_u32_le(t.provider_id as u32);
                put_bytes(&mut buf, t.db.as_bytes());
            }
        }
        buf.put_u32_le(entries.len() as u32);
        for (key, idx) in entries {
            put_bytes(&mut buf, key);
            buf.put_u32_le(*idx as u32);
        }
        self.invoke(target, OP_MIG_HANDOFF, buf.freeze())?;
        Ok(())
    }

    /// Tear down all migration state (frozen interval and handoff map) of
    /// `target`'s database on the addressed replica: the range is Done.
    pub fn migration_complete(&self, target: &DbTarget) -> Result<(), YokanError> {
        self.invoke(target, OP_MIG_COMPLETE, Self::header(target, 0).freeze())?;
        Ok(())
    }

    /// Install dual-read fallbacks for a migrating database: a read of
    /// `db` that misses on its (new) owner falls back to `candidates` —
    /// the old-owner targets — until [`YokanClient::clear_dual_read`].
    /// Per-key reads (`get`, `get_multi`, `exists`, `exists_multi`,
    /// `filter`, and their async forms) fill the slots the new owner
    /// missed; listings merge both sides (deduplicated per call, newest
    /// owner winning on key collisions). Shared across clones of this
    /// client.
    pub fn install_dual_read(&self, db: &str, candidates: Vec<DbTarget>) {
        if candidates.is_empty() {
            self.dual.write().remove(db);
        } else {
            self.dual.write().insert(db.to_string(), candidates);
        }
    }

    /// Remove every dual-read fallback (the migration is Done everywhere).
    pub fn clear_dual_read(&self) {
        self.dual.write().clear();
    }

    /// The dual-read fallbacks installed for a database name, if any.
    pub fn dual_read_candidates(&self, db: &str) -> Option<Vec<DbTarget>> {
        let dual = self.dual.read();
        if dual.is_empty() {
            return None;
        }
        dual.get(db).cloned()
    }

    /// Enable transparent retries under `policy`. Each RPC attempt runs
    /// under the policy's per-attempt deadline; retryable transport failures
    /// are re-issued with the same payload (and, for mutations, the same
    /// sequence number — the service's dedup window makes the retry safe).
    pub fn with_retry(mut self, policy: RetryPolicy) -> YokanClient {
        self.retry = Some(policy);
        self
    }

    /// Snapshot of this client's retry counters (shared across clones).
    pub fn retry_stats(&self) -> RetryStats {
        self.session.counters.snapshot()
    }

    /// The local endpoint this client sends from.
    pub fn endpoint(&self) -> &Arc<dyn Endpoint> {
        &self.endpoint
    }

    fn header(target: &DbTarget, extra: usize) -> BytesMut {
        let mut buf = BytesMut::with_capacity(4 + target.db.len() + extra);
        put_bytes(&mut buf, target.db.as_bytes());
        buf
    }

    /// Header for mutation RPCs: the `(client id, sequence number,
    /// topology epoch)` stamp followed by the database name. Reused
    /// verbatim across retries of the same logical request — including the
    /// epoch, so a rescale completing mid-retry rejects every attempt of
    /// the stale request identically.
    fn mutation_header(&self, target: &DbTarget, extra: usize) -> BytesMut {
        let mut buf = BytesMut::with_capacity(24 + 4 + target.db.len() + extra);
        buf.put_u64_le(self.session.client_id);
        buf.put_u64_le(self.session.next_seq.fetch_add(1, Ordering::Relaxed));
        buf.put_u64_le(self.session.epoch.load(Ordering::Relaxed));
        put_bytes(&mut buf, target.db.as_bytes());
        buf
    }

    /// A read request for one key.
    fn key_request(target: &DbTarget, key: &[u8]) -> Bytes {
        let mut buf = Self::header(target, 4 + key.len());
        put_bytes(&mut buf, key);
        buf.freeze()
    }

    /// A read request for a batch of keys.
    fn keys_request(target: &DbTarget, keys: &[Vec<u8>]) -> Bytes {
        let mut buf = Self::header(target, keys_encoded_len(keys));
        encode_keys_into(&mut buf, keys);
        buf.freeze()
    }

    /// A listing request: keys after `from` matching `prefix`, up to `limit`.
    fn list_request(target: &DbTarget, from: &[u8], prefix: &[u8], limit: usize) -> Bytes {
        let mut buf = Self::header(target, 12 + from.len() + prefix.len());
        put_bytes(&mut buf, from);
        put_bytes(&mut buf, prefix);
        buf.put_u32_le(limit as u32);
        buf.freeze()
    }

    /// Issue a read of `target`'s database.
    fn read(&self, target: &DbTarget, op: u16, payload: Bytes) -> InFlight {
        InFlight::issue(self, target, Kind::Read, op, payload)
    }

    /// Issue a mutation of `target`'s database and wait for its ack.
    fn mutate(&self, target: &DbTarget, op: u16, payload: Bytes) -> Result<Bytes, YokanError> {
        InFlight::issue(self, target, Kind::Mutation, op, payload).wait()
    }

    /// Issue one RPC to exactly `target`, bypassing routes, and wait.
    fn invoke(&self, target: &DbTarget, op: u16, payload: Bytes) -> Result<Bytes, YokanError> {
        InFlight::issue(self, target, Kind::Physical, op, payload).wait()
    }

    /// Store one pair.
    pub fn put(&self, target: &DbTarget, key: &[u8], value: &[u8]) -> Result<(), YokanError> {
        let mut buf = self.mutation_header(target, 8 + key.len() + value.len());
        put_bytes(&mut buf, key);
        put_bytes(&mut buf, value);
        self.mutate(target, OP_PUT, buf.freeze())?;
        Ok(())
    }

    /// Store a batch of pairs in one RPC.
    pub fn put_multi(
        &self,
        target: &DbTarget,
        pairs: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(), YokanError> {
        self.put_multi_async(target, pairs)?.wait()
    }

    /// [`YokanClient::put_multi`] encoding through a caller-owned scratch
    /// buffer (see [`YokanClient::put_multi_async_with`]).
    pub fn put_multi_with(
        &self,
        target: &DbTarget,
        pairs: &[(Vec<u8>, Vec<u8>)],
        scratch: &mut BytesMut,
    ) -> Result<(), YokanError> {
        self.put_multi_async_with(target, pairs, scratch)?.wait()
    }

    /// Asynchronous [`YokanClient::put_multi`]; the returned handle must be
    /// waited on.
    pub fn put_multi_async(
        &self,
        target: &DbTarget,
        pairs: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<PendingPut, YokanError> {
        let mut scratch = BytesMut::new();
        self.put_multi_async_with(target, pairs, &mut scratch)
    }

    /// [`YokanClient::put_multi_async`] with zero-realloc encoding: the
    /// exact payload size is computed up front, reserved once in `scratch`,
    /// and the pairs are encoded straight into it — no intermediate block
    /// buffer, no growth reallocations. Long-lived writers (e.g. the
    /// `AsyncWriteBatch` flusher threads) keep one scratch buffer each and
    /// pass it to every flush.
    pub fn put_multi_async_with(
        &self,
        target: &DbTarget,
        pairs: &[(Vec<u8>, Vec<u8>)],
        scratch: &mut BytesMut,
    ) -> Result<PendingPut, YokanError> {
        let seq = self.session.next_seq.fetch_add(1, Ordering::Relaxed);
        let epoch = self.session.epoch.load(Ordering::Relaxed);
        // 24-byte dedup+epoch stamp + length-prefixed db name + mode byte.
        let len = 24 + 4 + target.db.len() + 1 + pairs_encoded_len(pairs);
        scratch.clear();
        scratch.reserve(len);
        scratch.put_u64_le(self.session.client_id);
        scratch.put_u64_le(seq);
        scratch.put_u64_le(epoch);
        put_bytes(scratch, target.db.as_bytes());
        scratch.put_u8(MODE_INLINE);
        encode_pairs_into(scratch, pairs);
        let payload = scratch.split_to(len).freeze();
        let inner = InFlight::issue(self, target, Kind::Mutation, OP_PUT_MULTI, payload);
        Ok(PendingPut { inner })
    }

    /// Fetch one value. During a live migration a miss falls back to the
    /// old-owner candidates (see [`YokanClient::install_dual_read`]) — a
    /// key acked before the rescale is found on one side or the other.
    pub fn get(&self, target: &DbTarget, key: &[u8]) -> Result<Option<Vec<u8>>, YokanError> {
        let vals: Vec<Option<Bytes>> = self
            .read(target, OP_GET, Self::key_request(target, key))
            .wait_read(1)?;
        Ok(vals.into_iter().next().flatten().map(|v| v.to_vec()))
    }

    /// Fetch a batch of values; one slot per requested key. Missing slots
    /// fall back to the dual-read candidates during a live migration.
    pub fn get_multi(
        &self,
        target: &DbTarget,
        keys: &[Vec<u8>],
    ) -> Result<Vec<Option<Vec<u8>>>, YokanError> {
        let vals: Vec<Option<Bytes>> = self
            .read(target, OP_GET_MULTI, Self::keys_request(target, keys))
            .wait_read(keys.len())?;
        Ok(vals.into_iter().map(|v| v.map(|v| v.to_vec())).collect())
    }

    /// Asynchronous [`YokanClient::list_keys`]: page the next batch of keys
    /// while the previous page is still being processed.
    pub fn list_keys_async(
        &self,
        target: &DbTarget,
        from: &[u8],
        prefix: &[u8],
        limit: usize,
    ) -> PendingListKeys {
        let payload = Self::list_request(target, from, prefix, limit);
        PendingPage {
            inner: self.read(target, OP_LIST_KEYS, payload),
            limit,
            decode: |inner, limit| Ok(inner.wait_read::<Page<Vec<u8>>>(limit)?.entries),
        }
    }

    /// Existence checks for a batch of keys in one round-trip. Absent keys
    /// fall back to the dual-read candidates during a live migration.
    pub fn exists_multi(
        &self,
        target: &DbTarget,
        keys: &[Vec<u8>],
    ) -> Result<Vec<bool>, YokanError> {
        self.read(target, OP_EXISTS_MULTI, Self::keys_request(target, keys))
            .wait_read(keys.len())
    }

    /// Run a serialized predicate [`crate::filter::Program`] server-side
    /// against the columnar page blobs stored under `keys`, in one
    /// round-trip. Only surviving row ids (plus a few counters) come back —
    /// the page bytes themselves never cross the wire. One reply per key;
    /// during a live migration a `Missing` key is re-filtered on the
    /// dual-read candidates.
    pub fn filter(
        &self,
        target: &DbTarget,
        program: &crate::filter::Program,
        keys: &[Vec<u8>],
    ) -> Result<Vec<FilterReply>, YokanError> {
        let prog_bytes = program.to_bytes();
        // Keys of one batch share container prefix and label/type suffix;
        // factor them out so the request scales with the per-key residue.
        let keys_block = encode_keys_factored(keys);
        let mut buf = Self::header(target, 4 + prog_bytes.len() + keys_block.len());
        put_bytes(&mut buf, &prog_bytes);
        buf.put_slice(&keys_block);
        self.read(target, OP_FILTER, buf.freeze())
            .wait_read(keys.len())
    }

    /// Push a predicate down over a key range instead of a key list: the
    /// server walks the keys after `from` under `scan.prefix`, keeps those
    /// holding `scan.tag` at `scan.tag_offset`, and answers each kept key
    /// with its [`FilterReply`], in key order. `limit` counts kept keys
    /// (`0` = no limit); resume from the last key returned. The scan reads
    /// the range in sequence and bypasses the server's read cache. During a
    /// live migration the page is merged with the dual-read candidates'
    /// pages like any listing: on a key both sides hold, the new owner's
    /// reply wins.
    pub fn filter_scan_async(
        &self,
        target: &DbTarget,
        scan: &FilterScan<'_>,
        from: &[u8],
        limit: usize,
    ) -> PendingPage<ScanPage> {
        let program = scan.program.to_bytes();
        let payload = Self::scan_request(
            target,
            &program,
            scan.prefix,
            scan.tag_offset,
            scan.tag,
            from,
            limit,
        );
        PendingPage {
            inner: self.read(target, OP_FILTER_SCAN, payload),
            limit,
            decode: |inner, limit| Ok(inner.wait_read::<Scan<false>>(limit)?.page),
        }
    }

    /// The range filter's value form: the server walks the keys after
    /// `from` under `scan.prefix` and answers every key that ends with
    /// `scan.tag` at `scan.tag_offset` with its value, in key order. The
    /// tag must end the key, so a tag `a#T` never returns a key `…a#Tx`.
    /// `limit` counts returned keys (`0` = no limit); resume from the last
    /// key returned. Like [`YokanClient::filter_scan_async`] it reads the
    /// range in sequence, bypasses the server's read cache, and merges the
    /// dual-read candidates' pages during a live migration (on a key both
    /// sides hold, the new owner's value wins).
    pub fn value_scan_async(
        &self,
        target: &DbTarget,
        scan: &ValueScan<'_>,
        from: &[u8],
        limit: usize,
    ) -> PendingPage<ScanPage> {
        // The empty program selects the value form of the same op.
        let payload = Self::scan_request(
            target,
            &[],
            scan.prefix,
            scan.tag_offset,
            scan.tag,
            from,
            limit,
        );
        PendingPage {
            inner: self.read(target, OP_FILTER_SCAN, payload),
            limit,
            decode: |inner, limit| Ok(inner.wait_read::<Scan<true>>(limit)?.page),
        }
    }

    /// An `OP_FILTER_SCAN` request; an empty `program` asks for the value
    /// form.
    fn scan_request(
        target: &DbTarget,
        program: &[u8],
        prefix: &[u8],
        tag_offset: u32,
        tag: &[u8],
        from: &[u8],
        limit: usize,
    ) -> Bytes {
        let mut buf = Self::header(
            target,
            24 + program.len() + from.len() + prefix.len() + tag.len(),
        );
        put_bytes(&mut buf, program);
        put_bytes(&mut buf, from);
        put_bytes(&mut buf, prefix);
        buf.put_u32_le(tag_offset);
        put_bytes(&mut buf, tag);
        buf.put_u32_le(limit as u32);
        buf.freeze()
    }

    /// Whether a key exists (with dual-read fallback during a migration).
    pub fn exists(&self, target: &DbTarget, key: &[u8]) -> Result<bool, YokanError> {
        let flags: Vec<bool> = self
            .read(target, OP_EXISTS, Self::key_request(target, key))
            .wait_read(1)?;
        Ok(flags[0])
    }

    /// Delete a key.
    pub fn erase(&self, target: &DbTarget, key: &[u8]) -> Result<(), YokanError> {
        let mut buf = self.mutation_header(target, 4 + key.len());
        put_bytes(&mut buf, key);
        self.mutate(target, OP_ERASE, buf.freeze())?;
        Ok(())
    }

    /// Atomically insert unless present; returns the existing value if the
    /// key was already set (the server performs the check-and-insert under
    /// its backend's lock).
    pub fn put_if_absent(
        &self,
        target: &DbTarget,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<Vec<u8>>, YokanError> {
        let mut buf = self.mutation_header(target, 8 + key.len() + value.len());
        put_bytes(&mut buf, key);
        put_bytes(&mut buf, value);
        let mut resp = self.mutate(target, OP_PUT_IF_ABSENT, buf.freeze())?;
        let mut vals = decode_optionals(&mut resp)?;
        vals.pop()
            .ok_or_else(|| YokanError::Protocol("empty put_if_absent response".into()))
    }

    /// Delete a batch of keys in one RPC.
    pub fn erase_multi(&self, target: &DbTarget, keys: &[Vec<u8>]) -> Result<(), YokanError> {
        let keys_block = encode_keys(keys);
        let mut buf = self.mutation_header(target, keys_block.len());
        buf.put_slice(&keys_block);
        self.mutate(target, OP_ERASE_MULTI, buf.freeze())?;
        Ok(())
    }

    /// Keys strictly greater than `from` matching `prefix`, up to `limit`
    /// (`0` = unlimited). During a live migration the page is merged with
    /// the dual-read candidates' pages (deduplicated, sorted), so a key
    /// acked before the rescale appears no matter which side holds it.
    pub fn list_keys(
        &self,
        target: &DbTarget,
        from: &[u8],
        prefix: &[u8],
        limit: usize,
    ) -> Result<Vec<Vec<u8>>, YokanError> {
        self.list_keys_async(target, from, prefix, limit).wait()
    }

    /// Like [`YokanClient::list_keys`] with values (dual-read pages merge
    /// the same way; on a key held by both sides the new owner wins).
    pub fn list_keyvals(
        &self,
        target: &DbTarget,
        from: &[u8],
        prefix: &[u8],
        limit: usize,
    ) -> Result<Vec<KeyValue>, YokanError> {
        let payload = Self::list_request(target, from, prefix, limit);
        let page: Page<KeyValue> = self
            .read(target, OP_LIST_KEYVALS, payload)
            .wait_read(limit)?;
        Ok(page.entries)
    }

    /// Number of pairs in the database.
    pub fn count(&self, target: &DbTarget) -> Result<u64, YokanError> {
        let payload = Self::header(target, 0).freeze();
        let mut resp = self.read(target, OP_COUNT, payload).wait()?;
        get_u64(&mut resp)
    }

    /// Database names served by a provider.
    pub fn list_databases(&self, addr: &str, provider_id: u16) -> Result<Vec<String>, YokanError> {
        let provider = DbTarget::new(addr, provider_id, "");
        let mut resp = self.invoke(&provider, OP_LIST_DBS, Bytes::new())?;
        let keys = decode_keys(&mut resp)?;
        keys.into_iter()
            .map(|k| {
                String::from_utf8(k).map_err(|_| YokanError::Protocol("db name not utf8".into()))
            })
            .collect()
    }
}

/// How an [`InFlight`] call resolves its members.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Exactly the addressed replica: migration control, epoch probes and
    /// provider-level calls bypass routes.
    Physical,
    /// A read: tail first through the database's replica chain.
    Read,
    /// A mutation: acting head first, wrapping around the chain; the
    /// response carries a replay marker.
    Mutation,
}

/// The ordered members one call may be answered by.
struct Route {
    /// The addressed database: the only member when unrouted, and the name
    /// dual-read fallbacks are looked up by.
    target: DbTarget,
    /// Its replica chain, when routed.
    chain: Option<Arc<ChainState>>,
    /// Mutation order (acting head first, wrapping) instead of read order
    /// (the tail — the chain's commit point — first, toward the head).
    mutation: bool,
    /// Chain index of the acting head when the call was issued.
    start: usize,
}

impl Route {
    fn len(&self) -> usize {
        self.chain.as_ref().map_or(1, |c| c.replicas.len())
    }

    /// Chain index of the `k`-th member to try.
    fn index(&self, k: usize) -> usize {
        let n = self.len();
        if self.mutation {
            (self.start + k) % n
        } else {
            n - 1 - k
        }
    }

    fn member(&self, k: usize) -> &DbTarget {
        match &self.chain {
            Some(c) => &c.replicas[self.index(k)],
            None => &self.target,
        }
    }

    /// Wait for `pending` (issued to the first member), riding the retry
    /// policy on each member and moving the identical payload on to the
    /// next member on every dead-node error. A later member answering
    /// counts a read fallback or, for a mutation, a failover that promotes
    /// it to acting head — so the promoted member's dedup window absorbs
    /// anything the old head already forwarded.
    fn walk(
        &self,
        client: &YokanClient,
        op: u16,
        payload: &Bytes,
        mut pending: PendingResponse,
    ) -> Result<Bytes, YokanError> {
        let counters = &client.session.counters;
        let mut k = 0;
        loop {
            let t = self.member(k);
            let result = wait_with_retry(
                &client.endpoint,
                client.retry.as_ref(),
                counters,
                &t.addr,
                RpcId(op),
                t.provider_id,
                payload,
                pending,
            );
            match result {
                Ok(resp) if k == 0 => return Ok(resp),
                Ok(resp) => {
                    if let (true, Some(chain)) = (self.mutation, &self.chain) {
                        chain.promote(self.index(k));
                        counters.failovers.fetch_add(1, Ordering::Relaxed);
                    } else {
                        counters.read_fallbacks.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(resp);
                }
                Err(e) if replica::is_dead_node(&e) && k + 1 < self.len() => {
                    k += 1;
                    let t = self.member(k);
                    pending = client.endpoint.call_async(
                        &t.addr,
                        RpcId(op),
                        t.provider_id,
                        payload.clone(),
                    );
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// One RPC of a [`YokanClient`] from issue to reply: its route, the
/// payload re-sent on retry and failover, and the in-flight response.
/// Reads finish through [`InFlight::wait_read`], which also runs the
/// dual-read step of a live migration.
struct InFlight {
    client: YokanClient,
    route: Route,
    op: u16,
    payload: Bytes,
    pending: PendingResponse,
}

impl InFlight {
    fn issue(
        client: &YokanClient,
        target: &DbTarget,
        kind: Kind,
        op: u16,
        payload: Bytes,
    ) -> InFlight {
        let chain = match kind {
            Kind::Physical => None,
            Kind::Read | Kind::Mutation => client.route_for(&target.db),
        };
        let mutation = kind == Kind::Mutation;
        let start = match &chain {
            Some(c) if mutation => c.cursor(),
            _ => 0,
        };
        let route = Route {
            target: target.clone(),
            chain,
            mutation,
            start,
        };
        let first = route.member(0);
        let pending =
            client
                .endpoint
                .call_async(&first.addr, RpcId(op), first.provider_id, payload.clone());
        InFlight {
            client: client.clone(),
            route,
            op,
            payload,
            pending,
        }
    }

    fn is_ready(&self) -> bool {
        self.pending.is_ready()
    }

    /// Wait for the raw reply (a mutation's replay marker stripped).
    fn wait(self) -> Result<Bytes, YokanError> {
        let resp = self
            .route
            .walk(&self.client, self.op, &self.payload, self.pending)?;
        if self.route.mutation {
            strip_replay_marker(resp, &self.client.session.counters)
        } else {
            Ok(resp)
        }
    }

    /// Wait for a read's decoded reply to a request for `n` keys (or a
    /// page limit of `n`), then apply the dual-read step: while the
    /// database has old-owner fallbacks installed, whatever the new owner
    /// could not answer is asked of each candidate in turn (see
    /// [`ReadReply`]). Candidate replies are taken as they are — never
    /// dual-read again.
    fn wait_read<R: ReadReply>(self, n: usize) -> Result<R, YokanError> {
        let resp = self
            .route
            .walk(&self.client, self.op, &self.payload, self.pending)?;
        let mut out = R::decode(resp, n)?;
        let target = &self.route.target;
        let Some(candidates) = self.client.dual_read_candidates(&target.db) else {
            return Ok(out);
        };
        let body = self.payload.slice(4 + target.db.len()..);
        let mut served = 0;
        for c in candidates.iter().filter(|c| *c != target) {
            let wanted = out.wanted();
            let (sub_body, sub_n) = match &wanted {
                Some(slots) if slots.is_empty() => break,
                Some(slots) => (subset_body(self.op, &body, slots)?, slots.len()),
                None => (body.clone(), n),
            };
            let mut buf = YokanClient::header(c, sub_body.len());
            buf.put_slice(&sub_body);
            let resp =
                InFlight::issue(&self.client, c, Kind::Read, self.op, buf.freeze()).wait()?;
            served += out.absorb(wanted.as_deref(), R::decode(resp, sub_n)?)?;
        }
        self.client
            .session
            .counters
            .dual_reads
            .fetch_add(served, Ordering::Relaxed);
        Ok(out)
    }
}

/// The body (request minus database header) of a per-key read that asks
/// only for the keys at `slots`.
fn subset_body(op: u16, body: &Bytes, slots: &[usize]) -> Result<Bytes, YokanError> {
    let mut rest = body.clone();
    let pick =
        |keys: Vec<Vec<u8>>| -> Vec<Vec<u8>> { slots.iter().map(|&i| keys[i].clone()).collect() };
    match op {
        OP_GET_MULTI | OP_EXISTS_MULTI => Ok(encode_keys(&pick(decode_keys(&mut rest)?))),
        OP_FILTER => {
            let program = get_bytes(&mut rest)?;
            let keys = encode_keys_factored(&pick(decode_keys_factored(&mut rest)?));
            let mut buf = BytesMut::with_capacity(4 + program.len() + keys.len());
            put_bytes(&mut buf, &program);
            buf.put_slice(&keys);
            Ok(buf.freeze())
        }
        // Single-key reads: the one slot is the whole request.
        _ => Ok(rest),
    }
}

/// A decoded read reply that the dual-read step of
/// [`InFlight::wait_read`] can complete from the old owners of a migrating
/// database. Per-key reads fill the slots the new owner missed; listings
/// merge the old owners' pages.
trait ReadReply: Sized {
    /// Decode a reply to a request for `n` keys (listings: page limit `n`).
    fn decode(resp: Bytes, n: usize) -> Result<Self, YokanError>;
    /// What to ask the old owners: the request slots still unanswered, or
    /// `None` for the whole request again.
    fn wanted(&self) -> Option<Vec<usize>>;
    /// Fold in an old owner's reply to the `wanted` request; returns how
    /// many result entries it supplied (the `dual_reads` count).
    fn absorb(&mut self, wanted: Option<&[usize]>, old: Self) -> Result<u64, YokanError>;
}

/// One slot of a per-key read reply.
trait Slot: Sized {
    fn decode_all(resp: Bytes) -> Result<Vec<Self>, YokanError>;
    fn is_miss(&self) -> bool;
}

impl<S: Slot> ReadReply for Vec<S> {
    fn decode(resp: Bytes, n: usize) -> Result<Self, YokanError> {
        let slots = S::decode_all(resp)?;
        if slots.len() != n {
            return Err(YokanError::Protocol(format!(
                "expected {n} replies, got {}",
                slots.len()
            )));
        }
        Ok(slots)
    }

    fn wanted(&self) -> Option<Vec<usize>> {
        Some(
            self.iter()
                .enumerate()
                .filter_map(|(i, s)| s.is_miss().then_some(i))
                .collect(),
        )
    }

    fn absorb(&mut self, wanted: Option<&[usize]>, old: Self) -> Result<u64, YokanError> {
        let mut filled = 0;
        for (&i, s) in wanted.unwrap_or_default().iter().zip(old) {
            if !s.is_miss() {
                self[i] = s;
                filled += 1;
            }
        }
        Ok(filled)
    }
}

impl Slot for Option<Bytes> {
    /// Present values are zero-copy slices of the response buffer.
    fn decode_all(mut resp: Bytes) -> Result<Vec<Self>, YokanError> {
        decode_optionals_shared(&mut resp)
    }

    fn is_miss(&self) -> bool {
        self.is_none()
    }
}

impl Slot for bool {
    fn decode_all(resp: Bytes) -> Result<Vec<Self>, YokanError> {
        Ok(resp.iter().map(|&b| b == 1).collect())
    }

    fn is_miss(&self) -> bool {
        !*self
    }
}

impl Slot for FilterReply {
    /// Each slot goes through the range filter's slot decoder.
    fn decode_all(mut resp: Bytes) -> Result<Vec<Self>, YokanError> {
        let n = get_u32(&mut resp)? as usize;
        let mut out = Vec::with_capacity(n.min(resp.len()));
        let mut at = 0;
        for _ in 0..n {
            let (view, len) = FilterView::parse(&resp[at..])?;
            out.push(view.into());
            at += len;
        }
        Ok(out)
    }

    fn is_miss(&self) -> bool {
        *self == FilterReply::Missing
    }
}

/// One entry of a listing page, ordered by its key.
trait Entry: Sized {
    fn decode_all(resp: Bytes) -> Result<Vec<Self>, YokanError>;
    fn key(&self) -> &[u8];
}

impl Entry for Vec<u8> {
    fn decode_all(mut resp: Bytes) -> Result<Vec<Self>, YokanError> {
        decode_keys(&mut resp)
    }

    fn key(&self) -> &[u8] {
        self
    }
}

impl Entry for KeyValue {
    fn decode_all(mut resp: Bytes) -> Result<Vec<Self>, YokanError> {
        decode_pairs(&mut resp)
    }

    fn key(&self) -> &[u8] {
        &self.0
    }
}

/// A listing page: sorted entries, at most `limit` of them (`0` = no
/// limit).
struct Page<E> {
    entries: Vec<E>,
    limit: usize,
}

impl<E: Entry> ReadReply for Page<E> {
    fn decode(resp: Bytes, limit: usize) -> Result<Self, YokanError> {
        Ok(Page {
            entries: E::decode_all(resp)?,
            limit,
        })
    }

    fn wanted(&self) -> Option<Vec<usize>> {
        None
    }

    fn absorb(&mut self, _: Option<&[usize]>, old: Self) -> Result<u64, YokanError> {
        let mine = std::mem::take(&mut self.entries);
        let (merged, supplied) = merge_pages(mine, old.entries, self.limit, E::key);
        self.entries = merged;
        Ok(supplied)
    }
}

/// Merge two listing pages into the first `limit` entries of their union
/// (`0` = no limit), returning how many of them came from `old`. On a key
/// both hold, the entry of `mine` (the new owner's) wins. Each source
/// listed its first `limit` keys after `from`, so the merged page is
/// exactly the union's first page.
fn merge_pages<E>(mine: Vec<E>, old: Vec<E>, limit: usize, key: fn(&E) -> &[u8]) -> (Vec<E>, u64) {
    let mine = mine.into_iter().map(|e| (e, false));
    let mut all: Vec<(E, bool)> = mine.chain(old.into_iter().map(|e| (e, true))).collect();
    // Stable: on equal keys the new owner's entry stays first and survives
    // the dedup.
    all.sort_by(|a, b| key(&a.0).cmp(key(&b.0)));
    all.dedup_by(|later, earlier| key(&later.0) == key(&earlier.0));
    if limit > 0 {
        all.truncate(limit);
    }
    let supplied = all.iter().filter(|(_, from_old)| *from_old).count();
    (all.into_iter().map(|(e, _)| e).collect(), supplied as u64)
}

/// A range-filter page (`VALUES`: a value-scan page) and its limit. The
/// rare dual-read merge rebuilds the page through its owned entries.
struct Scan<const VALUES: bool> {
    page: ScanPage,
    limit: usize,
}

impl<const VALUES: bool> Scan<VALUES> {
    const FORM: ScanForm = if VALUES {
        ScanForm::Values
    } else {
        ScanForm::Filter
    };
}

impl<const VALUES: bool> ReadReply for Scan<VALUES> {
    fn decode(resp: Bytes, limit: usize) -> Result<Self, YokanError> {
        let page = ScanPage::decode(resp, Self::FORM)?;
        Ok(Scan { page, limit })
    }

    fn wanted(&self) -> Option<Vec<usize>> {
        None
    }

    fn absorb(&mut self, _: Option<&[usize]>, old: Self) -> Result<u64, YokanError> {
        let (mine, old) = (self.page.to_owned_entries(), old.page.to_owned_entries());
        let (merged, supplied) = merge_pages(mine, old, self.limit, |e| &e.0);
        self.page = ScanPage::from_owned_entries(&merged, Self::FORM)?;
        Ok(supplied)
    }
}

/// One listing or scan page in flight: the key page of
/// [`YokanClient::list_keys_async`], or the [`ScanPage`] of
/// [`YokanClient::filter_scan_async`] or [`YokanClient::value_scan_async`].
pub struct PendingPage<T> {
    inner: InFlight,
    limit: usize,
    decode: fn(InFlight, usize) -> Result<T, YokanError>,
}

/// In-flight asynchronous `list_keys`: sorted keys.
pub type PendingListKeys = PendingPage<Vec<Vec<u8>>>;

impl<T> PendingPage<T> {
    /// Wait for the page (merged with the dual-read candidates' pages
    /// during a live migration).
    pub fn wait(self) -> Result<T, YokanError> {
        (self.decode)(self.inner, self.limit)
    }

    /// Whether the response arrived.
    pub fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }
}

/// In-flight asynchronous `put_multi`.
pub struct PendingPut {
    inner: InFlight,
}

impl PendingPut {
    /// Wait for the server to acknowledge the batch, retrying per the
    /// client's policy. On a replica chain, a dead head is failed over: the
    /// identical stamped payload is re-issued to the next chain member, and
    /// the member that accepts is promoted.
    pub fn wait(self) -> Result<(), YokanError> {
        self.inner.wait()?;
        Ok(())
    }

    /// Whether the acknowledgment arrived.
    pub fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }
}
