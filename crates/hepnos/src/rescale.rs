//! Storage rescaling: redistributing keys after databases are added to or
//! removed from a deployment.
//!
//! The paper's related work (§V) cites Pufferscale (ref. 27), "a technique that
//! could further improve HEPnOS's potential by allowing users to add and
//! remove storage resources to it while HEP applications are using it".
//! This module implements the data-movement half of that idea as one live
//! pass, the [`Migrator`]; an offline rescale is the same pass run with no
//! traffic. It walks each old database in bounded key ranges. Each range
//! goes **Frozen → Copying → Handoff → Done**: the range is frozen on the
//! old owner (mutations touching it shed `Busy`, bounded by one batch),
//! copied to every member of its new replica chain, then registered for
//! handoff — from that point the old owner applies mutations locally *and*
//! re-issues them at the new owner with the original dedup stamp, so both
//! copies stay coherent and a client retry is deduplicated on either side.
//! [`Migrator::finalize`] bumps the deployment's topology epoch (fencing
//! stale writers with [`yokan::YokanError::WrongEpoch`]), runs an
//! idempotent convergence pass for keys that slipped in behind the copier,
//! erases the re-homed keys from their old owners, and tears the handoff
//! state down. Reads issued while a migration is in flight use the
//! client's dual-read fallback (new owner first, old owner on miss — see
//! [`yokan::YokanClient::install_dual_read`]).
//!
//! Keys are moved in batches (`put_multi` + `erase`), scanning each old
//! database with the same paging protocol the iterators use.

use crate::error::HepnosError;
use crate::keys;
use crate::placement::Placement;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use yokan::{DbTarget, YokanClient, YokanError};

/// Copied key/value pairs grouped by destination chain index.
type BatchByDest = std::collections::BTreeMap<usize, Vec<(Vec<u8>, Vec<u8>)>>;

/// Upper bound on back-to-back `Busy` retries of one range (or one
/// convergence batch) before the error is surfaced. Frozen windows are
/// bounded by one batch, so a persistent `Busy` past this many backoffs
/// means a leaked freeze or sustained overload — both worth failing on.
const MAX_BUSY_RETRIES: u32 = 100;

/// If `e` is an admission/freeze shed (`Busy`), the server's retry hint.
fn busy_backoff(e: &HepnosError) -> Option<Duration> {
    match e {
        HepnosError::Storage(YokanError::Rpc(mercurio::RpcError::Busy { retry_after })) => {
            Some(*retry_after)
        }
        _ => None,
    }
}

/// Run `op`, sleeping out bounded `Busy` sheds in place. Only safe where
/// the caller holds no freeze (anything frozen is unfrozen within one
/// batch, so the wait terminates unless the shed is pathological).
fn retry_busy<T>(mut op: impl FnMut() -> Result<T, YokanError>) -> Result<T, YokanError> {
    let mut attempts = 0u32;
    loop {
        match op() {
            Err(YokanError::Rpc(mercurio::RpcError::Busy { retry_after }))
                if attempts < MAX_BUSY_RETRIES =>
            {
                attempts += 1;
                std::thread::sleep(retry_after.max(Duration::from_millis(2)));
            }
            other => return other,
        }
    }
}

/// Outcome of one rescale pass over a database group.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RescaleStats {
    /// Keys examined in their old home database. Keys that arrived there
    /// from another database during the pass are not counted.
    pub keys_scanned: u64,
    /// Keys whose home database changed (moved).
    pub keys_moved: u64,
    /// Total bytes (keys + values) actually rewritten, counted once per
    /// chain member written — a key moved onto a 2-replica chain counts
    /// its bytes twice, and a member shared between the old and new chain
    /// (written in place) still counts.
    pub bytes_moved: u64,
    /// Key ranges migrated live (Frozen→Copying→Handoff batches).
    pub ranges_migrated: u64,
    /// Reads answered by the old owner through the dual-read fallback
    /// (client-side; filled in by the tools from their retry stats).
    pub dual_reads: u64,
    /// Mutations re-issued old→new owner during Handoff (service-side;
    /// filled in by the tools from the service's migration stats).
    pub forwarded_writes: u64,
    /// Re-homed keys whose old copy was retained by the convergence pass
    /// because the destination chain could not be verified at full
    /// strength (a member dead or disagreeing). Non-zero means the move
    /// is under-replicated until finalize is re-run with every member up.
    pub under_replicated: u64,
}

impl RescaleStats {
    /// Fraction of scanned keys that had to move.
    pub fn moved_fraction(&self) -> f64 {
        if self.keys_scanned == 0 {
            0.0
        } else {
            self.keys_moved as f64 / self.keys_scanned as f64
        }
    }
}

/// How to derive a key's placement input (its parent key) from the key
/// itself, per database group.
#[derive(Debug, Clone, Copy)]
pub enum PlacementInput {
    /// Container keys: the placement input is a fixed-length prefix
    /// (32 bytes for events — the subrun key; 24 for subruns; 16 for runs).
    Prefix(usize),
    /// Product keys: the container key is a 24/32/40-byte prefix followed
    /// by `label#type`. The true length is recovered by checking which
    /// candidate explains the key's current database under the old
    /// topology (the key *was* placed by its true parent), preferring the
    /// longest candidate on ties.
    Product,
}

/// The candidate parent (container) keys of a product key, longest
/// first: each container length the key exceeds whose remainder carries
/// [`keys::PRODUCT_SEP`].
fn parent_candidates(key: &[u8]) -> impl Iterator<Item = &[u8]> {
    [keys::EVENT_KEY_LEN, keys::SUBRUN_KEY_LEN, keys::RUN_KEY_LEN]
        .into_iter()
        .filter(move |&len| key.len() > len && key[len..].contains(&keys::PRODUCT_SEP))
        .map(move |len| &key[..len])
}

/// Recover the parent (container) key of a product key.
///
/// A product key is its container's key — 24 bytes for runs, 32 for
/// subruns, 40 for events — followed by `label`, [`keys::PRODUCT_SEP`] and
/// the product type name. Labels and type names may themselves contain the
/// separator byte, so several candidate prefix lengths can look plausible;
/// the candidates are tried longest first, and a candidate is accepted only
/// if placing it under the *old* topology (`n_old` databases) lands on
/// `current_db` — the database the key was actually found in. Because the
/// key really was placed by its true parent, the true candidate always
/// passes this check; the longest-first order breaks the rare ties where a
/// shorter (wrong) prefix would coincidentally place the same way.
pub fn product_parent<'k>(
    key: &'k [u8],
    current_db: usize,
    n_old: usize,
    placement: &dyn Placement,
) -> Option<&'k [u8]> {
    parent_candidates(key).find(|cand| placement.place(cand, n_old) == current_db)
}

/// Classify one key of old chain `old_idx`: `Some(new_idx)` for the new
/// chain the key belongs to, or `None` for keys to leave alone — foreign/
/// garbage keys, and keys that already *arrived* here because this chain
/// (also part of the new group, at index `new_self`) is their new home.
/// Arrivals exist whenever a pass observes its own earlier moves: the live
/// migrator walks chains under traffic, and a resumed pass re-scans chains
/// the interrupted one already copied into. A container key is a resident
/// only if its prefix places it here under the *old* topology.
///
/// For products both interpretations are checked per candidate parent,
/// longest first: "resident of this old database" (places here under the
/// *old* topology) wins over "arrived here as its new home" (places here
/// under the *new* topology), and the first candidate matching either
/// settles the key. Event-level products carry the longest (40-byte)
/// container, so an arrival is recognized by its true parent before any
/// shorter (wrong) candidate can claim it — misclassifying an arrival
/// as a resident would re-home it a second time and lose it.
fn classify(
    k: &[u8],
    old_idx: usize,
    n_old: usize,
    n_new: usize,
    new_self: Option<usize>,
    placement: &dyn Placement,
    input: PlacementInput,
) -> Option<usize> {
    match input {
        PlacementInput::Prefix(n) => {
            if k.len() < n || placement.place(&k[..n], n_old) != old_idx {
                return None;
            }
            Some(placement.place(&k[..n], n_new))
        }
        PlacementInput::Product => {
            for cand in parent_candidates(k) {
                if placement.place(cand, n_old) == old_idx {
                    return Some(placement.place(cand, n_new));
                }
                if new_self == Some(placement.place(cand, n_new)) {
                    return None;
                }
            }
            None
        }
    }
}

/// Fail when `client` has replica routes or dual-read fallbacks installed
/// for any database of the groups: rescaling addresses physical replicas
/// directly. A routed client would forward each write down the chain a
/// second time (and read scans through the chain tail instead of the
/// addressed member); a dual-reading one would merge old-owner keys into
/// its scans and answer the convergence audit of a destination replica
/// from the old owner's copy — the very copy whose erase the audit
/// decides.
fn guard_unrouted(
    client: &YokanClient,
    old: &[Vec<DbTarget>],
    new: &[Vec<DbTarget>],
) -> Result<(), HepnosError> {
    for chain in old.iter().chain(new.iter()) {
        for t in chain {
            let installed = if client.replica_chain(&t.db).is_some() {
                "replica routes are"
            } else if client.dual_read_candidates(&t.db).is_some() {
                "dual-read fallbacks are"
            } else {
                continue;
            };
            return Err(HepnosError::Topology(format!(
                "rescale requires a client addressing physical replicas, but \
                 {installed} installed for database {} — use a fresh YokanClient",
                t.db
            )));
        }
    }
    Ok(())
}

/// Tuning for the live [`Migrator`].
#[derive(Debug, Clone)]
pub struct MigratorConfig {
    /// Keys copied per range: the unit of freezing. Larger batches move
    /// data faster; smaller batches bound how long any one mutation can be
    /// shed `Busy`.
    pub batch_keys: usize,
    /// Old chains migrated concurrently (worker threads). Each worker owns
    /// one source chain at a time, so at most this many ranges are frozen
    /// deployment-wide at any instant.
    pub max_inflight_ranges: usize,
    /// The `Busy { retry_after }` hint returned to writers that touch a
    /// frozen range.
    pub freeze_retry_after: Duration,
    /// Pause between ranges of one source chain, yielding bandwidth back
    /// to foreground traffic.
    pub range_pause: Duration,
}

impl Default for MigratorConfig {
    fn default() -> Self {
        MigratorConfig {
            batch_keys: 256,
            max_inflight_ranges: 4,
            freeze_retry_after: Duration::from_millis(5),
            range_pause: Duration::ZERO,
        }
    }
}

#[derive(Default)]
struct MigratorProgress {
    keys_scanned: AtomicU64,
    keys_moved: AtomicU64,
    bytes_moved: AtomicU64,
    ranges_migrated: AtomicU64,
    under_replicated: AtomicU64,
}

/// Background live migration of one database group (see the module docs
/// for the range state machine). Construct with the *old* and *new* chain
/// groups, [`Migrator::run`] under traffic, then [`Migrator::finalize`]
/// once the copy pass is done.
///
/// `run` and `finalize` are both idempotent and crash-resumable: re-running
/// after a kill re-scans, re-copies (puts of identical pairs), and
/// re-installs handoff state, converging on the same end state.
pub struct Migrator {
    client: YokanClient,
    old: Vec<Vec<DbTarget>>,
    new: Vec<Vec<DbTarget>>,
    placement: Arc<dyn Placement>,
    input: PlacementInput,
    cfg: MigratorConfig,
    progress: Arc<MigratorProgress>,
    /// Keys handed off per old chain index, recorded as each range's
    /// handoff state is installed. The convergence pass uses this to tell
    /// keys the new owner already holds — dual-written until the handoff
    /// teardown, so the destination is authoritative and must never be
    /// overwritten with the old owner's (possibly stale) copy — from
    /// stragglers written behind the copier, which are copied if-absent.
    handed_off: Mutex<HashMap<usize, HashSet<Vec<u8>>>>,
}

impl Migrator {
    /// Create a migrator. `client` must have neither replica routes nor
    /// dual-read fallbacks for the groups (enforced by `guard_unrouted`):
    /// the migrator addresses physical replicas directly.
    pub fn new(
        client: YokanClient,
        old: Vec<Vec<DbTarget>>,
        new: Vec<Vec<DbTarget>>,
        placement: Arc<dyn Placement>,
        input: PlacementInput,
        cfg: MigratorConfig,
    ) -> Result<Migrator, HepnosError> {
        if old.is_empty()
            || new.is_empty()
            || old.iter().any(Vec::is_empty)
            || new.iter().any(Vec::is_empty)
        {
            return Err(HepnosError::Topology(
                "rescale needs non-empty old and new groups".into(),
            ));
        }
        guard_unrouted(&client, &old, &new)?;
        Ok(Migrator {
            client,
            old,
            new,
            placement,
            input,
            cfg,
            progress: Arc::new(MigratorProgress::default()),
            handed_off: Mutex::new(HashMap::new()),
        })
    }

    /// Live snapshot of the migration counters (readable from another
    /// thread while [`Migrator::run`] is in flight).
    pub fn progress(&self) -> RescaleStats {
        RescaleStats {
            keys_scanned: self.progress.keys_scanned.load(Ordering::Relaxed),
            keys_moved: self.progress.keys_moved.load(Ordering::Relaxed),
            bytes_moved: self.progress.bytes_moved.load(Ordering::Relaxed),
            ranges_migrated: self.progress.ranges_migrated.load(Ordering::Relaxed),
            dual_reads: 0,
            forwarded_writes: 0,
            under_replicated: self.progress.under_replicated.load(Ordering::Relaxed),
        }
    }

    /// Walk every old chain in bounded key ranges under traffic, copying
    /// re-homed keys to their new chains and installing handoff state on
    /// the old owners. Up to [`MigratorConfig::max_inflight_ranges`] source
    /// chains are walked concurrently. Safe to re-run after a crash or a
    /// kill — the pass converges.
    ///
    /// Dead replicas are tolerated: scans fail over to the next chain
    /// member, destination writes require at least one member of each new
    /// chain to accept, and freeze/handoff installs skip unreachable old
    /// members (at least one old member must accept, or the range fails).
    pub fn run(&self) -> Result<RescaleStats, HepnosError> {
        let queue: Mutex<Vec<usize>> = Mutex::new((0..self.old.len()).rev().collect());
        let workers = self.cfg.max_inflight_ranges.clamp(1, self.old.len());
        std::thread::scope(|scope| -> Result<(), HepnosError> {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                handles.push(scope.spawn(|| -> Result<(), HepnosError> {
                    loop {
                        let Some(old_idx) = queue.lock().expect("queue lock").pop() else {
                            return Ok(());
                        };
                        self.migrate_chain(old_idx)?;
                    }
                }));
            }
            let mut first_err = None;
            for h in handles {
                if let Err(e) = h.join().expect("migrator worker panicked") {
                    first_err.get_or_insert(e);
                }
            }
            match first_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        })?;
        Ok(self.progress())
    }

    /// Migrate one source chain, range by range.
    ///
    /// A destination write can itself be shed `Busy`: placement indices
    /// follow the chain order, so a grown topology may re-home keys from
    /// one *old* chain onto another old chain — one a concurrent worker has
    /// frozen. Holding our own freeze while waiting on theirs would
    /// deadlock two workers against each other, so on `Busy` the range is
    /// abandoned (own freeze released), backed off, and redone.
    fn migrate_chain(&self, old_idx: usize) -> Result<(), HepnosError> {
        let chain = &self.old[old_idx];
        let mut from: Vec<u8> = Vec::new();
        let mut busy_retries = 0u32;
        loop {
            // Bound the range without freezing: the page's [lo, hi] span.
            let keys = self.read_chain(chain, |t| {
                self.client.list_keys(t, &from, &[], self.cfg.batch_keys)
            })?;
            let Some(hi) = keys.last().cloned() else {
                return Ok(());
            };
            // Frozen: mutations touching [from, hi] shed Busy on every
            // reachable old member from here until the unfreeze. The full
            // scanned interval is frozen — not just the listed keys' span —
            // because the copy below re-lists from `from`: a key inserted
            // in (from, first-listed-key) after the bounding listing would
            // otherwise be copied and handed off with no shed protection,
            // so a concurrent update would land only on the old owner and
            // a concurrent erase would be resurrected by the convergence
            // pass. Re-freezing the already-migrated `from` boundary key
            // costs at most one bounded Busy shed.
            self.on_old_members(chain, |t| {
                self.client
                    .migration_freeze(t, &from, &hi, self.cfg.freeze_retry_after)
            })?;
            let outcome = self.copy_range(old_idx, &from, &hi);
            // Always unfreeze, even on a failed copy — an abandoned frozen
            // interval would shed writers forever.
            let unfreeze = self.on_old_members(chain, |t| self.client.migration_unfreeze(t));
            match outcome {
                Err(e) if busy_backoff(&e).is_some() && busy_retries < MAX_BUSY_RETRIES => {
                    unfreeze?;
                    busy_retries += 1;
                    let hint = busy_backoff(&e).expect("checked above");
                    std::thread::sleep(hint.max(Duration::from_millis(2)) * busy_retries.min(8));
                    continue; // redo the same range, freeze re-acquired
                }
                other => {
                    other?;
                    unfreeze?;
                }
            }
            busy_retries = 0;
            self.progress
                .ranges_migrated
                .fetch_add(1, Ordering::Relaxed);
            from = hi;
            if !self.cfg.range_pause.is_zero() {
                std::thread::sleep(self.cfg.range_pause);
            }
        }
    }

    /// Copying + Handoff for one frozen range `(from, hi]` of one source
    /// chain: list the stable snapshot, classify, copy re-homed pairs to
    /// every reachable member of their new chains, then register the moved
    /// keys for handoff on the old members.
    fn copy_range(&self, old_idx: usize, from: &[u8], hi: &[u8]) -> Result<(), HepnosError> {
        let chain = &self.old[old_idx];
        let new_self = self.new.iter().position(|c| c[0].db == chain[0].db);
        let mut by_dest: BatchByDest = std::collections::BTreeMap::new();
        let mut scanned = 0u64;
        // Re-list under the freeze, paging until past `hi`: the earlier key
        // listing only *bounded* the interval, and writers may have landed
        // more keys inside it in between — the frozen snapshot is the
        // authoritative content.
        let mut page_from = from.to_vec();
        'pages: loop {
            let page = self.read_chain(chain, |t| {
                self.client
                    .list_keyvals(t, &page_from, &[], self.cfg.batch_keys)
            })?;
            let Some(last) = page.last() else { break };
            page_from = last.0.clone();
            for (k, v) in page {
                if k.as_slice() > hi {
                    break 'pages;
                }
                let Some(new_idx) = classify(
                    &k,
                    old_idx,
                    self.old.len(),
                    self.new.len(),
                    new_self,
                    &*self.placement,
                    self.input,
                ) else {
                    continue;
                };
                scanned += 1;
                if self.new[new_idx] != *chain {
                    by_dest.entry(new_idx).or_default().push((k, v));
                }
            }
        }
        // Counted once the range is through: a range redone after a Busy
        // shed is counted once.
        let moved: u64 = by_dest.values().map(|batch| batch.len() as u64).sum();
        let count = || {
            let p = &self.progress;
            p.keys_scanned.fetch_add(scanned, Ordering::Relaxed);
            p.keys_moved.fetch_add(moved, Ordering::Relaxed);
        };
        if by_dest.is_empty() {
            count();
            return Ok(());
        }
        // Copying: write each destination's batch to every reachable
        // member of its chain; at least one member must accept.
        for (&to, batch) in &by_dest {
            let batch_bytes: u64 = batch.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
            let mut accepted = 0usize;
            let mut last_err: Option<YokanError> = None;
            for replica in &self.new[to] {
                match self.client.put_multi(replica, batch) {
                    Ok(()) => {
                        accepted += 1;
                        self.progress
                            .bytes_moved
                            .fetch_add(batch_bytes, Ordering::Relaxed);
                    }
                    Err(YokanError::Rpc(e)) if yokan::replica::is_dead_node(&e) => {
                        last_err = Some(YokanError::Rpc(e));
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            if accepted == 0 {
                return Err(last_err.expect("chain non-empty").into());
            }
        }
        // Handoff: register the moved keys (and their destination chains)
        // on the old members — from here mutations dual-write.
        let chains: Vec<Vec<DbTarget>> = by_dest.keys().map(|&to| self.new[to].clone()).collect();
        let entries: Vec<(Vec<u8>, usize)> = by_dest
            .values()
            .enumerate()
            .flat_map(|(ci, batch)| batch.iter().map(move |(k, _)| (k.clone(), ci)))
            .collect();
        self.on_old_members(chain, |t| {
            self.client.migration_handoff(t, &chains, &entries)
        })?;
        // From here the destination copy tracks client traffic (dual-write)
        // and the old copy can go stale — remember these keys so converge
        // never writes the old copy back over the new owner.
        let mut handed = self.handed_off.lock().expect("handed_off poisoned");
        let set = handed.entry(old_idx).or_default();
        for (k, _) in entries {
            set.insert(k);
        }
        count();
        Ok(())
    }

    /// Finalize the migration: advance the topology epoch on every node of
    /// the deployment (old and new groups) to `new_epoch` — from this
    /// instant stale writers are fenced with `WrongEpoch` — then tear down
    /// the handoff state and run an idempotent convergence pass (copying
    /// stragglers written behind the copier if-absent, auditing handed-off
    /// keys without ever overwriting the new owner, and erasing verified
    /// re-homed keys from old members that are not also members of the
    /// destination chain — see `Migrator::converge`). Handoff is torn
    /// down *before* the
    /// convergence erase: with dual-writes still live, the old owner would
    /// forward the erase itself to the new owner and delete the copy it is
    /// meant to preserve — and the epoch bump has already fenced every
    /// writer that still needs forwarding. Returns the epoch actually
    /// installed (the max across reachable nodes — monotonic under
    /// re-runs).
    ///
    /// The caller clears the client-side dual-read fallbacks *after* this
    /// returns: until the erase pass completes, the old owners remain a
    /// complete fallback.
    pub fn finalize(&self, new_epoch: u64) -> Result<u64, HepnosError> {
        // One epoch bump per node (the epoch is service-wide, not
        // per-provider); unreachable nodes are skipped — they are dead or
        // rejoining, and the monotonic set re-converges them later.
        let mut nodes: std::collections::BTreeMap<String, u16> = std::collections::BTreeMap::new();
        for chain in self.old.iter().chain(self.new.iter()) {
            for t in chain {
                nodes.entry(t.addr.clone()).or_insert(t.provider_id);
            }
        }
        let mut installed = new_epoch;
        for (addr, pid) in &nodes {
            match self.client.advance_service_epoch(addr, *pid, new_epoch) {
                Ok(e) => installed = installed.max(e),
                Err(YokanError::Rpc(e)) if yokan::replica::is_dead_node(&e) => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Handoff teardown first: see the doc comment — a live handoff
        // would forward the convergence erase to the destination chain.
        for chain in &self.old {
            self.on_old_members(chain, |t| self.client.migration_complete(t))?;
        }
        // Convergence: with stale writers fenced and fresh writers placing
        // by the new topology, one offline-style pass moves the stragglers
        // (keys created inside already-copied ranges before the bump) and
        // erases the re-homed keys from their old owners.
        self.converge()?;
        Ok(installed)
    }

    /// The convergence pass of [`Migrator::finalize`] — a re-scan of each
    /// old chain that finishes the move without ever overwriting the new
    /// owner. Idempotent; safe to re-run.
    ///
    /// Re-homed keys found on an old owner fall in two classes:
    ///
    /// * **Handed off** (recorded in `handed_off` during the copy): the
    ///   destination copy is authoritative — it tracked client traffic via
    ///   dual-writes until the handoff teardown and has taken fresh
    ///   epoch-N traffic directly since. The old copy may be stale, so it
    ///   is *never* written back (a fresh overwrite would be clobbered and
    ///   a fresh erase resurrected); it is only erased, and only once
    ///   every destination member reports a consistent view — all holding
    ///   the key, or all having seen it erased.
    /// * **Stragglers** (written behind the copier, never handed off): the
    ///   old copy is the only one, but a fresh writer placing by the new
    ///   topology may have already recreated the key on its new owner —
    ///   so the copy is `put_if_absent` per destination member, and the
    ///   old copy erased only when every member holds the key.
    ///
    /// Keys whose destination chain cannot be verified at full strength (a
    /// member dead or disagreeing) keep their old copy — still reachable
    /// through the dual-read fallback — and bump the `under_replicated`
    /// counter so operators can re-run finalize once the chain heals.
    fn converge(&self) -> Result<(), HepnosError> {
        let handed_all = self.handed_off.lock().expect("handed_off poisoned").clone();
        for (old_idx, chain) in self.old.iter().enumerate() {
            let handed = handed_all.get(&old_idx);
            let new_self = self.new.iter().position(|c| c[0].db == chain[0].db);
            let mut from: Vec<u8> = Vec::new();
            loop {
                let page = self.read_chain(chain, |t| {
                    self.client.list_keyvals(t, &from, &[], self.cfg.batch_keys)
                })?;
                let Some(last) = page.last() else { break };
                from = last.0.clone();
                let mut by_dest: BatchByDest = std::collections::BTreeMap::new();
                for (k, v) in page {
                    let Some(new_idx) = classify(
                        &k,
                        old_idx,
                        self.old.len(),
                        self.new.len(),
                        new_self,
                        &*self.placement,
                        self.input,
                    ) else {
                        continue;
                    };
                    if self.new[new_idx] != *chain {
                        by_dest.entry(new_idx).or_default().push((k, v));
                    }
                }
                for (&to, batch) in &by_dest {
                    let dest = &self.new[to];
                    let mut erasable: Vec<Vec<u8>> = Vec::new();
                    let mut retained = 0u64;
                    let (moved, stragglers): (Vec<_>, Vec<_>) = batch
                        .iter()
                        .partition(|kv| handed.is_some_and(|s| s.contains(&kv.0)));
                    // Handed-off keys: audit, never write. Every member
                    // must agree (all present, or all erased by fresh
                    // traffic) before the old copy goes.
                    if !moved.is_empty() {
                        let keys: Vec<Vec<u8>> = moved.iter().map(|kv| kv.0.clone()).collect();
                        let mut present = vec![0usize; keys.len()];
                        let mut live = 0usize;
                        let mut dead = false;
                        for replica in dest {
                            match self.client.exists_multi(replica, &keys) {
                                Ok(flags) => {
                                    live += 1;
                                    for (i, f) in flags.into_iter().enumerate() {
                                        if f {
                                            present[i] += 1;
                                        }
                                    }
                                }
                                Err(YokanError::Rpc(e)) if yokan::replica::is_dead_node(&e) => {
                                    dead = true;
                                }
                                Err(e) => return Err(e.into()),
                            }
                        }
                        for (i, k) in keys.into_iter().enumerate() {
                            if !dead && live > 0 && (present[i] == live || present[i] == 0) {
                                erasable.push(k);
                            } else {
                                retained += 1;
                            }
                        }
                    }
                    // Stragglers: copy if-absent — a fresh epoch-N write
                    // already routed to the new owner wins over the old
                    // copy. Converge holds no freeze of its own, so
                    // waiting out another worker's bounded `Busy` window
                    // in place cannot deadlock.
                    if !stragglers.is_empty() {
                        let mut ok = vec![0usize; stragglers.len()];
                        for replica in dest {
                            for (i, (k, v)) in stragglers.iter().enumerate() {
                                match retry_busy(|| self.client.put_if_absent(replica, k, v)) {
                                    Ok(prior) => {
                                        if prior.is_none() {
                                            self.progress.bytes_moved.fetch_add(
                                                (k.len() + v.len()) as u64,
                                                Ordering::Relaxed,
                                            );
                                        }
                                        ok[i] += 1;
                                    }
                                    Err(YokanError::Rpc(e)) if yokan::replica::is_dead_node(&e) => {
                                    }
                                    Err(e) => return Err(e.into()),
                                }
                            }
                        }
                        for (i, kv) in stragglers.iter().enumerate() {
                            if ok[i] == dest.len() {
                                erasable.push(kv.0.clone());
                            } else {
                                retained += 1;
                            }
                        }
                    }
                    // Erase the fully-verified keys from the old members
                    // that are not also members of the new chain.
                    if !erasable.is_empty() {
                        for replica in chain {
                            if dest.contains(replica) {
                                continue;
                            }
                            match retry_busy(|| self.client.erase_multi(replica, &erasable)) {
                                Ok(()) => {}
                                Err(YokanError::Rpc(e)) if yokan::replica::is_dead_node(&e) => {}
                                Err(e) => return Err(e.into()),
                            }
                        }
                    }
                    if retained > 0 {
                        self.progress
                            .under_replicated
                            .fetch_add(retained, Ordering::Relaxed);
                    }
                }
            }
        }
        Ok(())
    }

    /// Run `op` against the members of `chain` in order, returning the
    /// first success and failing over past dead members.
    fn read_chain<T>(
        &self,
        chain: &[DbTarget],
        op: impl Fn(&DbTarget) -> Result<T, YokanError>,
    ) -> Result<T, HepnosError> {
        let mut last: Option<YokanError> = None;
        for t in chain {
            match op(t) {
                Ok(v) => return Ok(v),
                Err(YokanError::Rpc(e)) if yokan::replica::is_dead_node(&e) => {
                    last = Some(YokanError::Rpc(e));
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(last.expect("chain non-empty").into())
    }

    /// Run `op` against every member of `chain`, skipping dead members; at
    /// least one member must accept.
    fn on_old_members(
        &self,
        chain: &[DbTarget],
        op: impl Fn(&DbTarget) -> Result<(), YokanError>,
    ) -> Result<(), HepnosError> {
        let mut accepted = 0usize;
        let mut last: Option<YokanError> = None;
        for t in chain {
            match op(t) {
                Ok(()) => accepted += 1,
                Err(YokanError::Rpc(e)) if yokan::replica::is_dead_node(&e) => {
                    last = Some(YokanError::Rpc(e));
                }
                Err(e) => return Err(e.into()),
            }
        }
        if accepted == 0 {
            return Err(last.expect("chain non-empty").into());
        }
        Ok(())
    }
}
