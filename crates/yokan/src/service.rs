//! Server side: the Yokan provider service.

use crate::backend::Backend;
use crate::client::DbTarget;
use crate::encoding::*;
use crate::error::YokanError;
use crate::filter::FilterScratch;
use crate::replica::{ForwardParams, ForwardStats};
use crate::retry::RetryPolicy;
use argos::Eventual;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use margo::MargoInstance;
use mercurio::{Endpoint, Request, RpcError, RpcId};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod mutation;
use mutation::Mutation;

/// Base RPC id of the Yokan protocol; ids `base..=base+20` are used.
pub const PROVIDER_RPC_BASE: u16 = 100;

pub(crate) const OP_PUT: u16 = PROVIDER_RPC_BASE;
pub(crate) const OP_PUT_MULTI: u16 = PROVIDER_RPC_BASE + 1;
pub(crate) const OP_GET: u16 = PROVIDER_RPC_BASE + 2;
pub(crate) const OP_GET_MULTI: u16 = PROVIDER_RPC_BASE + 3;
pub(crate) const OP_EXISTS: u16 = PROVIDER_RPC_BASE + 4;
pub(crate) const OP_ERASE: u16 = PROVIDER_RPC_BASE + 5;
pub(crate) const OP_LIST_KEYS: u16 = PROVIDER_RPC_BASE + 6;
pub(crate) const OP_LIST_KEYVALS: u16 = PROVIDER_RPC_BASE + 7;
pub(crate) const OP_COUNT: u16 = PROVIDER_RPC_BASE + 8;
pub(crate) const OP_LIST_DBS: u16 = PROVIDER_RPC_BASE + 9;
pub(crate) const OP_ERASE_MULTI: u16 = PROVIDER_RPC_BASE + 10;
pub(crate) const OP_PUT_IF_ABSENT: u16 = PROVIDER_RPC_BASE + 11;
pub(crate) const OP_EXISTS_MULTI: u16 = PROVIDER_RPC_BASE + 12;
pub(crate) const OP_FILTER: u16 = PROVIDER_RPC_BASE + 13;
/// A mutation forwarded down a replica chain. Payload after the (original
/// client's) dedup stamp: the remaining chain as `count` then per hop a
/// length-prefixed address and a `u32` provider id, the inner mutation op
/// as `u32`, then the inner payload starting at the database name, encoded
/// from the sender's decoded mutation.
pub(crate) const OP_REPL_FORWARD: u16 = PROVIDER_RPC_BASE + 14;
/// Read the service's current topology epoch (reply: `u64`).
pub(crate) const OP_MIG_EPOCH_GET: u16 = PROVIDER_RPC_BASE + 15;
/// Advance the topology epoch (monotonic max; reply: the resulting `u64`).
/// Idempotent — re-sending an already-installed epoch is a no-op.
pub(crate) const OP_MIG_EPOCH_SET: u16 = PROVIDER_RPC_BASE + 16;
/// Freeze one key interval of a migrating database: mutations touching
/// `[lo, hi]` are shed `Busy` while the migrator copies it. Empty `lo` and
/// `hi` clears the frozen interval (the range moved on to Handoff).
pub(crate) const OP_MIG_FREEZE: u16 = PROVIDER_RPC_BASE + 17;
/// Install handoff state for copied keys: each key maps to its destination
/// replica chain, and mutations touching it are applied locally *and*
/// re-issued at the destination (dual-write) until the migration completes.
pub(crate) const OP_MIG_HANDOFF: u16 = PROVIDER_RPC_BASE + 18;
/// Tear down all migration state for one database (the range is Done).
pub(crate) const OP_MIG_COMPLETE: u16 = PROVIDER_RPC_BASE + 19;
/// Range filter: walk the keys after `from` under `prefix`, keep those
/// whose bytes at `tag_offset` start with `tag`, and run the predicate
/// program on each kept value. Request: `db | program | from | prefix |
/// tag_offset u32 | tag | limit u32`; `limit` counts kept keys (`0` = no
/// limit). Reply: the kept keys as one [`encode_keys_factored`] block,
/// then the per-key replies exactly as [`OP_FILTER`] encodes them.
///
/// An empty program asks for the values instead: a kept key must then
/// *end* with `tag` (be exactly `tag_offset + tag.len()` bytes long), and
/// the replies are the kept values, each length-prefixed.
pub(crate) const OP_FILTER_SCAN: u16 = PROVIDER_RPC_BASE + 20;

/// Per-key reply tags for [`OP_FILTER`] and [`OP_FILTER_SCAN`].
pub(crate) const FILTER_MISSING: u8 = 0;
pub(crate) const FILTER_NOT_COLUMNAR: u8 = 1;
pub(crate) const FILTER_IDS: u8 = 2;

/// The one `put_multi` body mode: the pairs follow inline. Any other mode
/// byte is rejected.
pub(crate) const MODE_INLINE: u8 = 0;

/// Replay markers prefixed to every mutation response: whether the service
/// applied the mutation now or answered from its dedup window.
pub(crate) const REPLAY_FRESH: u8 = 0;
pub(crate) const REPLAY_CACHED: u8 = 1;

/// Default per-client dedup window: responses remembered per client so
/// retried mutations are applied at-most-once. Bounds service memory.
const DEFAULT_DEDUP_WINDOW: usize = 1024;

/// Prefix a mutation response with its replay marker.
fn mark_replay(flag: u8, resp: &Bytes) -> Bytes {
    let mut out = BytesMut::with_capacity(1 + resp.len());
    out.put_u8(flag);
    out.put_slice(resp);
    out.freeze()
}

/// The dedup stamp of a mutation re-issued on a client's behalf — a chain
/// forward or a migration dual-write: the original `(client id, seq)`, so
/// the receiver's dedup window sees the client's own mutation, and topology
/// epoch 0 — exempt from fencing, because the epoch was already validated
/// where the mutation entered the deployment.
fn stamp(client_id: u64, seq: u64, extra: usize) -> BytesMut {
    let mut buf = BytesMut::with_capacity(24 + extra);
    buf.put_u64_le(client_id);
    buf.put_u64_le(seq);
    buf.put_u64_le(0);
    buf
}

/// Encode an [`OP_REPL_FORWARD`] payload: the stamp, the remaining chain,
/// the inner op, and the inline body.
fn encode_forward(client_id: u64, seq: u64, remaining: &[(String, u16)], m: &Mutation) -> Bytes {
    let hops_len: usize = remaining.iter().map(|(a, _)| 8 + a.len()).sum();
    let mut buf = stamp(client_id, seq, 4 + hops_len + 4 + m.encoded_len());
    buf.put_u32_le(remaining.len() as u32);
    for (addr, pid) in remaining {
        put_bytes(&mut buf, addr.as_bytes());
        buf.put_u32_le(*pid as u32);
    }
    buf.put_u32_le(m.rpc_op() as u32);
    m.encode_into(&mut buf);
    buf.freeze()
}

/// Mutations carry the `(client id, seq)` dedup stamp and a replay-marked
/// response; reads are idempotent and skip the machinery entirely.
fn is_mutation(op: u16) -> bool {
    matches!(
        op,
        x if x == OP_PUT
            || x == OP_PUT_MULTI
            || x == OP_ERASE
            || x == OP_ERASE_MULTI
            || x == OP_PUT_IF_ABSENT
            || x == OP_REPL_FORWARD
    )
}

/// Append one per-key reply of the filter RPCs to `out`: what happened to
/// the stored value under that key. Corrupt columnar blobs fail the whole
/// RPC — they indicate storage damage, not a client mistake. `scratch` is
/// the request's, reused for every key.
fn put_filter_reply(
    out: &mut BytesMut,
    value: Option<&[u8]>,
    prog: &crate::filter::Program,
    scratch: &mut FilterScratch,
) -> Result<(), YokanError> {
    match value {
        None => out.put_u8(FILTER_MISSING),
        Some(v) if !crate::pages::is_columnar(v) => out.put_u8(FILTER_NOT_COLUMNAR),
        Some(v) => {
            let res = crate::filter::eval_program_with(v, prog, scratch)?;
            let counts = [
                res.rows_in,
                res.pages_scanned,
                res.pages_skipped,
                v.len() as u32,
            ];
            crate::scan::put_ids_slot(out, counts, &res.ids);
        }
    }
    Ok(())
}

struct ProviderState {
    databases: HashMap<String, Arc<dyn Backend>>,
}

/// One remembered mutation in a client's dedup window.
enum Slot {
    /// The mutation is being applied right now; duplicates wait on the
    /// eventual. `None` signals the apply failed (the slot is released and
    /// the waiting duplicate re-claims and re-applies).
    InFlight(Eventual<Option<Bytes>>),
    /// The mutation was applied; this is its cached response.
    Done(Bytes),
}

#[derive(Default)]
struct ClientWindow {
    /// Slots keyed by sequence number; BTreeMap so pruning evicts the
    /// oldest sequence first.
    slots: BTreeMap<u64, Slot>,
}

/// Successor routes per provider: database name → the other chain members
/// as `(address, provider)` pairs in circular order after this member.
type ForwardRoutes = HashMap<u16, HashMap<String, Vec<(String, u16)>>>;

/// One destination replica chain of a live migration, as
/// `(address, provider, database)` members in chain order.
type DestChain = Vec<(String, u16, String)>;

/// Live-migration state of one locally-served database, installed on the
/// *old* owner while a [`Migrator`](crate) walks its key ranges.
struct MigrationState {
    /// The interval `[lo, hi]` currently being copied: mutations touching
    /// it are shed `Busy` (bounded by the migrator's batch size) so the
    /// copy observes a stable snapshot. `None` outside the Copying phase.
    frozen: Option<(Vec<u8>, Vec<u8>)>,
    /// Backoff hint returned with the `Busy` shed.
    retry_after: Duration,
    /// Keys already copied out (Handoff): each maps to an index into
    /// `destinations`. Mutations touching one are applied locally *and*
    /// re-issued at the destination chain with the original dedup stamp,
    /// keeping both copies coherent until the migration completes.
    moved: HashMap<Vec<u8>, usize>,
    /// The destination replica chains moved keys re-home to.
    destinations: Vec<DestChain>,
}

/// Counters for the live-migration path on one service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Mutations re-issued at a new owner during Handoff (dual-writes).
    pub forwarded_writes: u64,
    /// Mutations shed `Busy` because they touched a frozen interval.
    pub frozen_rejects: u64,
    /// Mutations rejected with [`YokanError::WrongEpoch`].
    pub wrong_epoch_rejects: u64,
    /// Keys currently in Handoff across all migrating databases.
    pub handoff_keys: u64,
}

struct ServiceInner {
    endpoint: Arc<dyn Endpoint>,
    providers: RwLock<HashMap<u16, ProviderState>>,
    /// Per-client dedup windows for at-most-once mutations. The lock is
    /// held only to claim/publish slots, never across a backend apply.
    dedup: Mutex<HashMap<u64, ClientWindow>>,
    dedup_window: AtomicUsize,
    deduped_replays: AtomicU64,
    /// Chain-replication successor routes: for each locally-served
    /// `(provider, database)` that is part of a replica chain, the other
    /// chain members in circular order starting after this one. Empty (the
    /// common case) means mutations are applied single-copy, exactly as
    /// before replication existed.
    forward_routes: RwLock<ForwardRoutes>,
    forward_params: RwLock<ForwardParams>,
    /// Test hook: sleep this long after the local apply, *before*
    /// forwarding, so tests can observe the window in which the head has
    /// applied a mutation it has not yet acknowledged.
    forward_delay: RwLock<Duration>,
    /// Successors that recently failed a forward, mapped to the instant
    /// until which they are skipped (acks degrade to fewer copies) before
    /// being probed again.
    suspects: Mutex<HashMap<(String, u16), Instant>>,
    forwards_sent: AtomicU64,
    forwards_applied: AtomicU64,
    forward_degraded: AtomicU64,
    /// The topology epoch this service believes current. Starts at 1 so
    /// fencing is always armed; clients stamping epoch 0 are legacy/exempt
    /// (raw tooling, chain forwards, migration dual-writes).
    epoch: AtomicU64,
    /// Where the epoch is persisted across restarts (see
    /// [`YokanService::set_epoch_persistence`]); `None` keeps it
    /// memory-only. Also serializes persist operations.
    epoch_path: Mutex<Option<PathBuf>>,
    /// Live-migration state per locally-served `(provider, database)`.
    /// Empty in steady state — the mutation path checks emptiness before
    /// decoding anything.
    migrations: RwLock<HashMap<(u16, String), MigrationState>>,
    mig_forwarded: AtomicU64,
    mig_frozen_rejects: AtomicU64,
    wrong_epoch_rejects: AtomicU64,
}

/// The server-side Yokan service: owns the providers and their databases,
/// and answers the Yokan RPCs registered on a [`MargoInstance`].
///
/// One service is registered per Margo instance; multiple providers (each
/// with its own argos pool, per the paper's 16-providers-per-node layout)
/// are multiplexed by provider id.
#[derive(Clone)]
pub struct YokanService {
    inner: Arc<ServiceInner>,
}

impl YokanService {
    /// Create the service and register its RPC handlers on `margo`.
    pub fn register(margo: &MargoInstance) -> YokanService {
        let inner = Arc::new(ServiceInner {
            endpoint: Arc::clone(margo.endpoint()),
            providers: RwLock::new(HashMap::new()),
            dedup: Mutex::new(HashMap::new()),
            dedup_window: AtomicUsize::new(DEFAULT_DEDUP_WINDOW),
            deduped_replays: AtomicU64::new(0),
            forward_routes: RwLock::new(HashMap::new()),
            forward_params: RwLock::new(ForwardParams::default()),
            forward_delay: RwLock::new(Duration::ZERO),
            suspects: Mutex::new(HashMap::new()),
            forwards_sent: AtomicU64::new(0),
            forwards_applied: AtomicU64::new(0),
            forward_degraded: AtomicU64::new(0),
            epoch: AtomicU64::new(1),
            epoch_path: Mutex::new(None),
            migrations: RwLock::new(HashMap::new()),
            mig_forwarded: AtomicU64::new(0),
            mig_frozen_rejects: AtomicU64::new(0),
            wrong_epoch_rejects: AtomicU64::new(0),
        });
        let svc = YokanService { inner };
        for op in [
            OP_PUT,
            OP_PUT_MULTI,
            OP_GET,
            OP_GET_MULTI,
            OP_EXISTS,
            OP_ERASE,
            OP_LIST_KEYS,
            OP_LIST_KEYVALS,
            OP_COUNT,
            OP_LIST_DBS,
            OP_ERASE_MULTI,
            OP_PUT_IF_ABSENT,
            OP_EXISTS_MULTI,
            OP_FILTER,
            OP_FILTER_SCAN,
            OP_REPL_FORWARD,
            OP_MIG_EPOCH_GET,
            OP_MIG_EPOCH_SET,
            OP_MIG_FREEZE,
            OP_MIG_HANDOFF,
            OP_MIG_COMPLETE,
        ] {
            let svc2 = svc.clone();
            margo.register_rpc(
                RpcId(op),
                Arc::new(move |req: Request| svc2.handle(req).map_err(|e| e.to_rpc())),
            );
        }
        svc
    }

    /// Declare a provider (id must be fresh) and map it to an argos pool on
    /// the Margo instance.
    pub fn add_provider(
        &self,
        margo: &MargoInstance,
        provider_id: u16,
        pool: &str,
    ) -> Result<(), margo::MargoError> {
        margo.assign_provider_pool(provider_id, pool)?;
        self.inner
            .providers
            .write()
            .entry(provider_id)
            .or_insert_with(|| ProviderState {
                databases: HashMap::new(),
            });
        Ok(())
    }

    /// Attach a database to a provider.
    ///
    /// # Panics
    ///
    /// Panics if the provider was never added or the name is taken —
    /// misconfiguration that Bedrock-style bootstrap must surface loudly.
    pub fn add_database(&self, provider_id: u16, name: &str, backend: Arc<dyn Backend>) {
        let mut provs = self.inner.providers.write();
        let prov = provs
            .get_mut(&provider_id)
            .unwrap_or_else(|| panic!("provider {provider_id} not registered"));
        let prev = prov.databases.insert(name.to_string(), backend);
        assert!(
            prev.is_none(),
            "database {name} already exists on provider {provider_id}"
        );
    }

    /// Per-database storage counters across all providers, as
    /// `(provider_id, database name, stats)` sorted by provider then name.
    /// Used by benchmarks and operators to see entry counts and cache
    /// effectiveness.
    pub fn backend_stats(&self) -> Vec<(u16, String, crate::backend::BackendStats)> {
        let provs = self.inner.providers.read();
        let mut out = Vec::new();
        for (&pid, prov) in provs.iter() {
            for (name, db) in &prov.databases {
                out.push((pid, name.clone(), db.stats()));
            }
        }
        out.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        out
    }

    /// Mutations answered from the dedup window instead of being applied a
    /// second time (duplicated frames and retries whose original landed).
    pub fn deduped_replays(&self) -> u64 {
        self.inner.deduped_replays.load(Ordering::Relaxed)
    }

    /// Bound the per-client dedup window: at most `cap` remembered
    /// responses per client (oldest sequence numbers evicted first). A
    /// retry arriving after its slot was evicted re-applies the mutation,
    /// so `cap` should exceed a client's maximum in-flight requests.
    pub fn set_dedup_window(&self, cap: usize) {
        self.inner.dedup_window.store(cap.max(1), Ordering::Relaxed);
    }

    /// Install the chain-replication successors for one locally-served
    /// database: the other members of its replica chain, in circular order
    /// starting after this one. A mutation arriving directly from a client
    /// (not via a forward) is applied locally and then forwarded to the
    /// first live successor — which propagates it onward — before the ack.
    /// An empty list removes the route.
    pub fn set_forward_routes(&self, provider_id: u16, db: &str, successors: &[DbTarget]) {
        let mut routes = self.inner.forward_routes.write();
        if successors.is_empty() {
            if let Some(by_db) = routes.get_mut(&provider_id) {
                by_db.remove(db);
                if by_db.is_empty() {
                    routes.remove(&provider_id);
                }
            }
            return;
        }
        let hops: Vec<(String, u16)> = successors
            .iter()
            .map(|t| (t.addr.clone(), t.provider_id))
            .collect();
        routes
            .entry(provider_id)
            .or_default()
            .insert(db.to_string(), hops);
    }

    /// Tune the forwarding path (per-hop timeout, attempts, suspension).
    pub fn set_forward_params(&self, params: ForwardParams) {
        *self.inner.forward_params.write() = params;
    }

    /// Test hook: delay every chain forward by `delay` (after the local
    /// apply, before the successor sees the mutation). Lets tests pin the
    /// read-your-acked-writes property by reading a replica inside the
    /// apply-to-ack window.
    pub fn set_forward_delay(&self, delay: Duration) {
        *self.inner.forward_delay.write() = delay;
    }

    /// Counters for the chain-replication forwarding path.
    pub fn forward_stats(&self) -> ForwardStats {
        ForwardStats {
            forwards_sent: self.inner.forwards_sent.load(Ordering::Relaxed),
            forwards_applied: self.inner.forwards_applied.load(Ordering::Relaxed),
            forward_degraded: self.inner.forward_degraded.load(Ordering::Relaxed),
        }
    }

    /// The topology epoch this service currently accepts in mutation
    /// stamps (besides the always-exempt epoch 0).
    pub fn topology_epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Relaxed)
    }

    /// Advance the topology epoch (monotonic: the stored epoch never moves
    /// backwards). Returns the resulting epoch. Writers stamping the old
    /// epoch are rejected with [`YokanError::WrongEpoch`] from this point
    /// on. If persistence is armed ([`YokanService::set_epoch_persistence`])
    /// an actual advance is written out before returning.
    pub fn set_topology_epoch(&self, epoch: u64) -> u64 {
        let prev = self.inner.epoch.fetch_max(epoch, Ordering::Relaxed);
        let now = self.inner.epoch.load(Ordering::Relaxed);
        if now != prev {
            self.persist_epoch();
        }
        now
    }

    /// Persist the topology epoch at `path` and reload any epoch a previous
    /// incarnation stored there. Without this, a node restarted after a
    /// rescale comes back at epoch 1 and fences every current-epoch client
    /// with `WrongEpoch{current: 1}` until traffic re-teaches it.
    ///
    /// The file holds the epoch as decimal text, replaced atomically
    /// (tmp-write + rename). Persistence is best-effort: an unwritable
    /// path degrades to memory-only rather than failing the mutation path.
    pub fn set_epoch_persistence(&self, path: PathBuf) {
        let mut guard = self.inner.epoch_path.lock();
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(stored) = text.trim().parse::<u64>() {
                self.inner.epoch.fetch_max(stored, Ordering::Relaxed);
            }
        }
        *guard = Some(path);
        drop(guard);
        // Write the (possibly adopted) current value back so the file
        // exists from the first boot on.
        self.persist_epoch();
    }

    fn persist_epoch(&self) {
        let guard = self.inner.epoch_path.lock();
        let Some(path) = guard.as_ref() else { return };
        let cur = self.inner.epoch.load(Ordering::Relaxed);
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, format!("{cur}\n")).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }

    /// Counters for the live-migration path.
    pub fn migration_stats(&self) -> MigrationStats {
        let handoff_keys = self
            .inner
            .migrations
            .read()
            .values()
            .map(|m| m.moved.len() as u64)
            .sum();
        MigrationStats {
            forwarded_writes: self.inner.mig_forwarded.load(Ordering::Relaxed),
            frozen_rejects: self.inner.mig_frozen_rejects.load(Ordering::Relaxed),
            wrong_epoch_rejects: self.inner.wrong_epoch_rejects.load(Ordering::Relaxed),
            handoff_keys,
        }
    }

    /// Names of the databases attached to one provider, sorted.
    pub fn database_names(&self, provider_id: u16) -> Vec<String> {
        let provs = self.inner.providers.read();
        let mut names: Vec<String> = provs
            .get(&provider_id)
            .map(|p| p.databases.keys().cloned().collect())
            .unwrap_or_default();
        names.sort();
        names
    }

    fn db(&self, provider_id: u16, name: &[u8]) -> Result<Arc<dyn Backend>, YokanError> {
        let name = std::str::from_utf8(name)
            .map_err(|_| YokanError::Protocol("db name not utf8".into()))?;
        let provs = self.inner.providers.read();
        let prov = provs
            .get(&provider_id)
            .ok_or(YokanError::NoSuchProvider(provider_id))?;
        prov.databases
            .get(name)
            .cloned()
            .ok_or_else(|| YokanError::NoSuchDatabase(name.to_string()))
    }

    fn handle(&self, req: Request) -> Result<Bytes, YokanError> {
        if is_mutation(req.rpc_id.0) {
            let mut p = req.payload.clone();
            if p.remaining() < 24 {
                return Err(YokanError::Protocol("short mutation header".into()));
            }
            let client_id = p.get_u64_le();
            let seq = p.get_u64_le();
            // Epoch fence, *before* the dedup slot claim: a stale writer is
            // redirected with no side effect at all. Epoch 0 is exempt (raw
            // tooling, chain forwards, migration dual-writes — the epoch was
            // validated where the mutation entered the deployment, or the
            // caller deliberately addresses a physical replica).
            let epoch = p.get_u64_le();
            if epoch != 0 {
                let current = self.inner.epoch.load(Ordering::Relaxed);
                if epoch < current {
                    self.inner
                        .wrong_epoch_rejects
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(YokanError::WrongEpoch { current });
                }
                if epoch > current {
                    // A stamp ahead of us is proof the bump happened —
                    // clients only learn an epoch from a service that
                    // installed it. Adopt it instead of rejecting: this is
                    // the anti-entropy path that re-converges a node that
                    // restarted, or was unreachable, during finalize.
                    self.set_topology_epoch(epoch);
                }
            }
            return self.handle_mutation(&req, client_id, seq, p);
        }
        self.handle_read(req)
    }

    /// At-most-once wrapper around [`YokanService::apply_mutation`].
    ///
    /// Claims the `(client, seq)` slot, applies the mutation with the dedup
    /// lock *released*, then publishes the response. A duplicate arriving
    /// before the apply finishes waits on the in-flight slot; one arriving
    /// after is answered from the cached response. Failed applies release
    /// the slot so a retry re-applies.
    fn handle_mutation(
        &self,
        req: &Request,
        client_id: u64,
        seq: u64,
        payload: Bytes,
    ) -> Result<Bytes, YokanError> {
        loop {
            let in_flight;
            {
                let mut dedup = self.inner.dedup.lock();
                let win = dedup.entry(client_id).or_default();
                match win.slots.get(&seq) {
                    Some(Slot::Done(resp)) => {
                        self.inner.deduped_replays.fetch_add(1, Ordering::Relaxed);
                        return Ok(mark_replay(REPLAY_CACHED, resp));
                    }
                    Some(Slot::InFlight(ev)) => in_flight = ev.clone(),
                    None => {
                        win.slots.insert(seq, Slot::InFlight(Eventual::new()));
                        break;
                    }
                }
            }
            match in_flight.wait_cloned() {
                Some(resp) => {
                    self.inner.deduped_replays.fetch_add(1, Ordering::Relaxed);
                    return Ok(mark_replay(REPLAY_CACHED, &resp));
                }
                // The original apply failed and released the slot; loop to
                // re-claim and apply this duplicate as a fresh attempt.
                None => continue,
            }
        }
        let result = self.apply_mutation(req, client_id, seq, payload);
        let mut dedup = self.inner.dedup.lock();
        let win = dedup.entry(client_id).or_default();
        match result {
            Ok(resp) => {
                if let Some(Slot::InFlight(ev)) = win.slots.insert(seq, Slot::Done(resp.clone())) {
                    ev.set(Some(resp.clone()));
                }
                let cap = self.inner.dedup_window.load(Ordering::Relaxed);
                while win.slots.len() > cap {
                    let &oldest = win.slots.keys().next().expect("non-empty window");
                    if matches!(win.slots.get(&oldest), Some(Slot::InFlight(_))) {
                        // Never evict an in-flight slot: its waiters hold
                        // the eventual and the apply will publish through it.
                        break;
                    }
                    win.slots.remove(&oldest);
                }
                Ok(mark_replay(REPLAY_FRESH, &resp))
            }
            Err(e) => {
                if let Some(Slot::InFlight(ev)) = win.slots.remove(&seq) {
                    ev.set(None);
                }
                Err(e)
            }
        }
    }

    /// Apply one mutation RPC. `p` starts at the database name (the dedup
    /// stamp has been consumed by the caller) and is decoded here, once: a
    /// replay answered from the dedup window is never decoded, and a decode
    /// error releases the slot like any failed apply.
    fn apply_mutation(
        &self,
        req: &Request,
        client_id: u64,
        seq: u64,
        mut p: Bytes,
    ) -> Result<Bytes, YokanError> {
        if req.rpc_id.0 == OP_REPL_FORWARD {
            // A mutation forwarded from a chain predecessor: apply it under
            // this service's own dedup window — the caller already claimed
            // the `(client, seq)` slot, so a client that later fails over
            // here and replays the original op is answered from cache —
            // then pass it on to the remaining chain members.
            let n = get_u32(&mut p)? as usize;
            let mut remaining = Vec::with_capacity(n);
            for _ in 0..n {
                let addr = get_bytes(&mut p)?;
                let addr = std::str::from_utf8(&addr)
                    .map_err(|_| YokanError::Protocol("hop address not utf8".into()))?
                    .to_string();
                let pid = get_u32(&mut p)? as u16;
                remaining.push((addr, pid));
            }
            let inner_op = get_u32(&mut p)? as u16;
            let m = Mutation::decode(inner_op, p)?;
            let resp = self.apply_and_forward(req.provider_id, client_id, seq, &m, &remaining)?;
            self.inner.forwards_applied.fetch_add(1, Ordering::Relaxed);
            return Ok(resp);
        }
        let m = Mutation::decode(req.rpc_id.0, p)?;
        // Live-migration gate: mutations touching a frozen interval are
        // shed `Busy`; mutations touching keys already handed off are
        // dual-written to their destination chains below.
        let dests = self.migration_gate(req.provider_id, &m)?;
        let successors = self.successors_for(req.provider_id, &m.db);
        let resp = self.apply_and_forward(req.provider_id, client_id, seq, &m, &successors)?;
        if !dests.is_empty() {
            // Re-issue at the new owners *before* acknowledging: a failed
            // dual-write withholds the ack, the slot is released, and the
            // client's retry re-applies (idempotently) and re-forwards.
            self.migration_forward(client_id, seq, dests)?;
        }
        Ok(resp)
    }

    /// Apply `m` to the local backend, then forward it — carrying the
    /// client's original dedup stamp — down `successors`, the rest of the
    /// database's replica chain, before returning. The ack therefore
    /// implies chain-wide application, unless a successor was unreachable,
    /// which degrades the ack and is counted.
    fn apply_and_forward(
        &self,
        provider_id: u16,
        client_id: u64,
        seq: u64,
        m: &Mutation,
        successors: &[(String, u16)],
    ) -> Result<Bytes, YokanError> {
        let resp = m.apply(&*self.db(provider_id, m.db.as_bytes())?)?;
        if !successors.is_empty() {
            let delay = *self.inner.forward_delay.read();
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            self.forward_down(successors, client_id, seq, m);
        }
        Ok(resp)
    }

    /// Inspect one direct client mutation against the live-migration state
    /// of its target database. Returns, for every destination chain a
    /// touched handed-off key re-homes to, the mutation restricted to *that
    /// chain's* keys (sending the full batch would plant foreign keys in
    /// the destination database).
    ///
    /// Errors with `Busy` when a touched key lies in the frozen interval —
    /// the migrator is copying it right now; the shed is bounded by one
    /// batch and absorbed by the client's retry policy.
    fn migration_gate(
        &self,
        provider_id: u16,
        m: &Mutation,
    ) -> Result<Vec<(DestChain, Mutation)>, YokanError> {
        let migs = self.inner.migrations.read();
        if migs.is_empty() {
            return Ok(Vec::new());
        }
        let Some(state) = migs.get(&(provider_id, m.db.clone())) else {
            return Ok(Vec::new());
        };
        let keys = m.keys();
        if let Some((lo, hi)) = &state.frozen {
            if keys
                .iter()
                .any(|k| *k >= lo.as_slice() && *k <= hi.as_slice())
            {
                self.inner
                    .mig_frozen_rejects
                    .fetch_add(1, Ordering::Relaxed);
                return Err(YokanError::Rpc(RpcError::Busy {
                    retry_after: state.retry_after,
                }));
            }
        }
        let mut by_dest: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            if let Some(&d) = state.moved.get(*k) {
                by_dest.entry(d).or_default().push(i);
            }
        }
        Ok(by_dest
            .into_iter()
            .map(|(d, idxs)| (state.destinations[d].clone(), m.subset(&idxs)))
            .collect())
    }

    /// Dual-write one mutation at the destination chains of its handed-off
    /// keys: re-issue each chain's share with the original `(client, seq)`
    /// dedup stamp and the database name rewritten to the destination's,
    /// at the first live member of the chain (whose own forward routes
    /// propagate it down). A client retry after a partial failure
    /// re-forwards the identical stamp, so destinations that already
    /// applied answer from their dedup window.
    fn migration_forward(
        &self,
        client_id: u64,
        seq: u64,
        dests: Vec<(DestChain, Mutation)>,
    ) -> Result<(), YokanError> {
        let params = self.inner.forward_params.read().clone();
        let self_addr = self.inner.endpoint.address();
        for (chain, mut share) in dests {
            let mut delivered = false;
            let mut last_err = YokanError::Protocol("empty destination chain".into());
            for (addr, pid, dest_db) in &chain {
                share.db.clone_from(dest_db);
                if *addr == self_addr {
                    // The destination lives on this very service (grown
                    // in-place): apply directly instead of calling self —
                    // re-entering handle_mutation would deadlock on the
                    // in-flight dedup slot of the very mutation being
                    // dual-written. The destination database's chain
                    // successors still get the forward, exactly as a
                    // remote delivery would propagate it: without it the
                    // dual-write strands on this one member and tail or
                    // failover reads of the destination chain go stale.
                    let successors = self.successors_for(*pid, dest_db);
                    self.apply_and_forward(*pid, client_id, seq, &share, &successors)?;
                    delivered = true;
                    break;
                }
                let mut buf = stamp(client_id, seq, share.encoded_len());
                share.encode_into(&mut buf);
                let pending =
                    self.inner
                        .endpoint
                        .call_async(addr, RpcId(share.rpc_op()), *pid, buf.freeze());
                match pending.wait_timeout(params.timeout) {
                    Ok(_) => {
                        delivered = true;
                        break;
                    }
                    Err(e) if crate::replica::is_dead_node(&e) => {
                        last_err = YokanError::Rpc(e);
                        continue;
                    }
                    Err(e) => return Err(YokanError::from(e)),
                }
            }
            if !delivered {
                return Err(last_err);
            }
            self.inner.mig_forwarded.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The chain successors of one locally-served database (empty when it
    /// is not a replica-chain member).
    fn successors_for(&self, provider_id: u16, db: &str) -> Vec<(String, u16)> {
        let routes = self.inner.forward_routes.read();
        routes
            .get(&provider_id)
            .and_then(|by_db| by_db.get(db))
            .cloned()
            .unwrap_or_default()
    }

    /// Send a mutation to the first live member of `successors`, embedding
    /// the rest of the chain for it to propagate to. Unreachable members
    /// are skipped (counted as degraded acks) and suspended for
    /// [`ForwardParams::suspend`] so a dead replica does not tax every
    /// subsequent mutation with a full forward timeout.
    fn forward_down(&self, successors: &[(String, u16)], client_id: u64, seq: u64, m: &Mutation) {
        let params = self.inner.forward_params.read().clone();
        for (i, hop) in successors.iter().enumerate() {
            if self.hop_suspended(hop) {
                self.inner.forward_degraded.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let payload = encode_forward(client_id, seq, &successors[i + 1..], m);
            let mut delivered = false;
            for _ in 0..params.attempts.max(1) {
                let pending = self.inner.endpoint.call_async(
                    &hop.0,
                    RpcId(OP_REPL_FORWARD),
                    hop.1,
                    payload.clone(),
                );
                match pending.wait_timeout(params.timeout) {
                    Ok(_) => {
                        delivered = true;
                        break;
                    }
                    Err(e) => {
                        if !RetryPolicy::is_retryable(&e) {
                            break;
                        }
                        if let Some(hint) = RetryPolicy::retry_hint(&e) {
                            std::thread::sleep(hint.min(params.timeout));
                        }
                    }
                }
            }
            if delivered {
                self.inner.forwards_sent.fetch_add(1, Ordering::Relaxed);
                self.inner.suspects.lock().remove(hop);
                // The hop owns propagation to the rest of the chain.
                return;
            }
            self.inner
                .suspects
                .lock()
                .insert(hop.clone(), Instant::now() + params.suspend);
            self.inner.forward_degraded.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn hop_suspended(&self, hop: &(String, u16)) -> bool {
        let mut suspects = self.inner.suspects.lock();
        match suspects.get(hop) {
            Some(until) if Instant::now() < *until => true,
            Some(_) => {
                suspects.remove(hop);
                false
            }
            None => false,
        }
    }

    fn handle_read(&self, req: Request) -> Result<Bytes, YokanError> {
        let mut p = req.payload.clone();
        match req.rpc_id.0 {
            x if x == OP_LIST_DBS => {
                let names = self.database_names(req.provider_id);
                let keys: Vec<Vec<u8>> = names.into_iter().map(|n| n.into_bytes()).collect();
                Ok(encode_keys(&keys))
            }
            x if x == OP_GET => {
                let db = get_bytes(&mut p)?;
                let key = get_bytes(&mut p)?;
                let val = self.db(req.provider_id, &db)?.get(&key)?;
                Ok(encode_optionals(&[val]))
            }
            x if x == OP_GET_MULTI => {
                let db = get_bytes(&mut p)?;
                let keys = decode_keys(&mut p)?;
                let vals = self.db(req.provider_id, &db)?.get_multi(&keys)?;
                Ok(encode_optionals(&vals))
            }
            x if x == OP_EXISTS_MULTI => {
                let db = get_bytes(&mut p)?;
                let keys = decode_keys(&mut p)?;
                let found = self.db(req.provider_id, &db)?.exists_multi(&keys)?;
                let mut out = BytesMut::with_capacity(found.len());
                for e in found {
                    out.put_u8(e as u8);
                }
                Ok(out.freeze())
            }
            x if x == OP_EXISTS => {
                let db = get_bytes(&mut p)?;
                let key = get_bytes(&mut p)?;
                let e = self.db(req.provider_id, &db)?.exists(&key)?;
                Ok(Bytes::copy_from_slice(&[e as u8]))
            }
            x if x == OP_LIST_KEYS => {
                let db = get_bytes(&mut p)?;
                let from = get_bytes(&mut p)?;
                let prefix = get_bytes(&mut p)?;
                let limit = get_u32(&mut p)? as usize;
                let keys = self
                    .db(req.provider_id, &db)?
                    .list_keys(&from, &prefix, limit)?;
                Ok(encode_keys(&keys))
            }
            x if x == OP_LIST_KEYVALS => {
                let db = get_bytes(&mut p)?;
                let from = get_bytes(&mut p)?;
                let prefix = get_bytes(&mut p)?;
                let limit = get_u32(&mut p)? as usize;
                let kvs = self
                    .db(req.provider_id, &db)?
                    .list_keyvals(&from, &prefix, limit)?;
                Ok(encode_pairs(&kvs))
            }
            x if x == OP_FILTER => {
                let db = get_bytes(&mut p)?;
                let prog = crate::filter::Program::from_bytes(&get_bytes(&mut p)?)?;
                let keys = decode_keys_factored(&mut p)?;
                let vals = self.db(req.provider_id, &db)?.get_multi(&keys)?;
                let mut out = BytesMut::new();
                out.put_u32_le(vals.len() as u32);
                let mut scratch = FilterScratch::default();
                for v in &vals {
                    put_filter_reply(&mut out, v.as_deref(), &prog, &mut scratch)?;
                }
                Ok(out.freeze())
            }
            x if x == OP_FILTER_SCAN => {
                let db = get_bytes(&mut p)?;
                let program = get_bytes(&mut p)?;
                let prog = if program.is_empty() {
                    None
                } else {
                    Some(crate::filter::Program::from_bytes(&program)?)
                };
                let from = get_bytes(&mut p)?;
                let prefix = get_bytes(&mut p)?;
                let tag_offset = get_u32(&mut p)?;
                let tag = get_bytes(&mut p)?;
                let limit = get_u32(&mut p)? as usize;
                // Keys are `u32`-length-prefixed on the wire: a tag window
                // ending past `u32::MAX` lies beyond every key there can be.
                let tag_end = tag_offset
                    .checked_add(tag.len() as u32)
                    .ok_or_else(|| YokanError::Protocol("tag window past every key".into()))?;
                let window = tag_offset as usize..tag_end as usize;
                let backend = self.db(req.provider_id, &db)?;
                let mut keys = KeyBlock::default();
                let mut replies = BytesMut::new();
                let mut scratch = FilterScratch::default();
                let mut failed = Ok(());
                backend.scan(&from, &prefix, &mut |k, v| {
                    if k.get(window.clone()) != Some(&tag[..]) {
                        return true;
                    }
                    match &prog {
                        Some(prog) => {
                            failed = put_filter_reply(&mut replies, Some(v), prog, &mut scratch);
                            if failed.is_err() {
                                return false;
                            }
                        }
                        None if k.len() == window.end => put_bytes(&mut replies, v),
                        None => return true,
                    }
                    keys.push(k);
                    limit == 0 || keys.len() < limit
                })?;
                failed?;
                let mut out = BytesMut::with_capacity(keys.encoded_len() + 4 + replies.len());
                keys.encode_into(&mut out);
                out.put_u32_le(keys.len() as u32);
                out.put_slice(&replies);
                Ok(out.freeze())
            }
            x if x == OP_COUNT => {
                let db = get_bytes(&mut p)?;
                let n = self.db(req.provider_id, &db)?.count()?;
                let mut out = BytesMut::with_capacity(8);
                out.put_u64_le(n);
                Ok(out.freeze())
            }
            x if x == OP_MIG_EPOCH_GET => {
                let mut out = BytesMut::with_capacity(8);
                out.put_u64_le(self.inner.epoch.load(Ordering::Relaxed));
                Ok(out.freeze())
            }
            x if x == OP_MIG_EPOCH_SET => {
                let epoch = get_u64(&mut p)?;
                let mut out = BytesMut::with_capacity(8);
                out.put_u64_le(self.set_topology_epoch(epoch));
                Ok(out.freeze())
            }
            x if x == OP_MIG_FREEZE => {
                let db = get_bytes(&mut p)?;
                // Fail loudly if the database does not exist here.
                self.db(req.provider_id, &db)?;
                let name = std::str::from_utf8(&db)
                    .map_err(|_| YokanError::Protocol("db name not utf8".into()))?
                    .to_string();
                let lo = get_bytes(&mut p)?.to_vec();
                let hi = get_bytes(&mut p)?.to_vec();
                let retry_after = Duration::from_millis(get_u32(&mut p)? as u64);
                let mut migs = self.inner.migrations.write();
                let state = migs
                    .entry((req.provider_id, name))
                    .or_insert_with(|| MigrationState {
                        frozen: None,
                        retry_after,
                        moved: HashMap::new(),
                        destinations: Vec::new(),
                    });
                state.retry_after = retry_after;
                state.frozen = if lo.is_empty() && hi.is_empty() {
                    None
                } else {
                    Some((lo, hi))
                };
                Ok(Bytes::new())
            }
            x if x == OP_MIG_HANDOFF => {
                let db = get_bytes(&mut p)?;
                self.db(req.provider_id, &db)?;
                let name = std::str::from_utf8(&db)
                    .map_err(|_| YokanError::Protocol("db name not utf8".into()))?
                    .to_string();
                let nchains = get_u32(&mut p)? as usize;
                let mut chains = Vec::with_capacity(nchains);
                for _ in 0..nchains {
                    let nmembers = get_u32(&mut p)? as usize;
                    let mut chain = Vec::with_capacity(nmembers);
                    for _ in 0..nmembers {
                        let addr = get_bytes(&mut p)?;
                        let addr = std::str::from_utf8(&addr)
                            .map_err(|_| YokanError::Protocol("dest addr not utf8".into()))?
                            .to_string();
                        let pid = get_u32(&mut p)? as u16;
                        let dest_db = get_bytes(&mut p)?;
                        let dest_db = std::str::from_utf8(&dest_db)
                            .map_err(|_| YokanError::Protocol("dest db not utf8".into()))?
                            .to_string();
                        chain.push((addr, pid, dest_db));
                    }
                    chains.push(chain);
                }
                let nkeys = get_u32(&mut p)? as usize;
                let mut moved = Vec::with_capacity(nkeys);
                for _ in 0..nkeys {
                    let key = get_bytes(&mut p)?.to_vec();
                    let idx = get_u32(&mut p)? as usize;
                    if idx >= chains.len() {
                        return Err(YokanError::Protocol(format!(
                            "handoff chain index {idx} out of range"
                        )));
                    }
                    moved.push((key, idx));
                }
                let mut migs = self.inner.migrations.write();
                let state = migs
                    .entry((req.provider_id, name))
                    .or_insert_with(|| MigrationState {
                        frozen: None,
                        retry_after: Duration::from_millis(5),
                        moved: HashMap::new(),
                        destinations: Vec::new(),
                    });
                // Append this batch's chains; re-installed chains are
                // deduplicated so repeated handoffs stay bounded.
                let mut chain_idx = Vec::with_capacity(chains.len());
                for chain in chains {
                    match state.destinations.iter().position(|c| *c == chain) {
                        Some(i) => chain_idx.push(i),
                        None => {
                            state.destinations.push(chain);
                            chain_idx.push(state.destinations.len() - 1);
                        }
                    }
                }
                for (key, idx) in moved {
                    state.moved.insert(key, chain_idx[idx]);
                }
                Ok(Bytes::new())
            }
            x if x == OP_MIG_COMPLETE => {
                let db = get_bytes(&mut p)?;
                let name = std::str::from_utf8(&db)
                    .map_err(|_| YokanError::Protocol("db name not utf8".into()))?
                    .to_string();
                self.inner
                    .migrations
                    .write()
                    .remove(&(req.provider_id, name));
                Ok(Bytes::new())
            }
            other => Err(YokanError::Rpc(RpcError::NoSuchRpc(other))),
        }
    }
}
