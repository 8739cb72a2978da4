//! The client-facing object store API: [`DataStore`], [`DataSet`], [`Run`],
//! [`SubRun`], [`Event`] and typed products.
//!
//! The API shape follows the paper's Listing 1: navigating the hierarchy
//! looks like indexing C++ containers, products are stored/loaded by label
//! with the concrete type recorded in the key, and every container kind is
//! iterable in sorted order.

use crate::binser;
use crate::error::HepnosError;
use crate::keys::{self, DatasetPath, EventNumber, RunNumber, SubRunNumber};
use crate::pep::EventDescriptor;
use crate::placement::{stable_hash, stable_hash_extend, ModuloPlacement, Placement};
use crate::uuid::Uuid;
use bedrock::{ConnectionDescriptor, DbGroup};
use mercurio::Endpoint;
use parking_lot::RwLock;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use yokan::{DbTarget, FilterView, PendingPage, ScanPage, YokanClient, YokanError};

/// Entries per listing RPC: container listings page their one database
/// this many keys at a time, and the multi-database listings
/// ([`DataSet::events`], [`Run::events`],
/// [`DataSet::filter_event_products`]) keep one such page in flight per
/// database.
pub const LIST_PAGE: usize = 1024;

/// Entries a multi-database listing merges between two polls of its pages
/// in flight.
const POLL_EVERY: usize = 64;

/// A validated product label (must not contain `#`, the label/type
/// separator in product keys).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProductLabel(String);

impl ProductLabel {
    /// Create a label. Errors if the label contains `#` — the character is
    /// reserved by the key format (paper §II-C2). A bad label is a client
    /// mistake, so it surfaces as a client-side [`HepnosError`] rather than
    /// a panic on a service thread.
    pub fn new(label: impl Into<String>) -> Result<ProductLabel, HepnosError> {
        let label = label.into();
        if label.contains('#') {
            return Err(HepnosError::InvalidLabel(label));
        }
        Ok(ProductLabel(label))
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ProductLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The five database groups of a HEPnOS deployment, each sorted identically
/// on every client so placement agrees everywhere.
///
/// When any server advertises replication, same-named databases on
/// different servers are *copies* of one logical database: each group then
/// holds one chain-head target per logical database (placement indexes
/// logical databases, not physical copies) and `chains` carries the full
/// replica sets the client routes through.
#[derive(Debug, Clone)]
pub(crate) struct Topology {
    pub(crate) dataset_dbs: Vec<DbTarget>,
    pub(crate) run_dbs: Vec<DbTarget>,
    pub(crate) subrun_dbs: Vec<DbTarget>,
    pub(crate) event_dbs: Vec<DbTarget>,
    pub(crate) product_dbs: Vec<DbTarget>,
    /// Replica chains (empty when the deployment is unreplicated).
    pub(crate) chains: Vec<Vec<DbTarget>>,
    /// Advertised replication factor (1 = single-copy).
    pub(crate) replication_factor: usize,
}

impl Topology {
    fn classify(descriptors: &[ConnectionDescriptor]) -> Result<Topology, HepnosError> {
        let mut topo = Topology {
            dataset_dbs: Vec::new(),
            run_dbs: Vec::new(),
            subrun_dbs: Vec::new(),
            event_dbs: Vec::new(),
            product_dbs: Vec::new(),
            chains: Vec::new(),
            replication_factor: 1,
        };
        topo.replication_factor = descriptors
            .iter()
            .filter_map(|d| d.replication.as_ref().map(|r| r.factor))
            .max()
            .unwrap_or(1)
            .max(1);
        // One addressable target per *logical* database: every physical
        // target when unreplicated, each chain's head when replicated (the
        // routed client fans reads/mutations over the rest of the chain).
        let mut targets: Vec<DbTarget> = Vec::new();
        if topo.replication_factor > 1 {
            topo.chains = bedrock::deployment_chains(descriptors);
            targets.extend(topo.chains.iter().map(|c| c[0].clone()));
        } else {
            for server in descriptors {
                for prov in &server.providers {
                    for db in &prov.databases {
                        targets.push(DbTarget::new(server.address.clone(), prov.provider_id, db));
                    }
                }
            }
        }
        for target in targets {
            // Unknown databases are simply not part of the HEPnOS
            // namespace; ignore them.
            if let Some(group) = DbGroup::of(&target.db) {
                topo.group_mut(group).push(target);
            }
        }
        for group in DbGroup::ALL {
            let dbs = topo.group_mut(group);
            // A deterministic global order: every client must agree on the
            // index of each database or placement breaks.
            dbs.sort();
            if dbs.is_empty() {
                return Err(HepnosError::Topology(format!(
                    "deployment has no {} databases",
                    group.label()
                )));
            }
        }
        Ok(topo)
    }

    fn group_mut(&mut self, group: DbGroup) -> &mut Vec<DbTarget> {
        match group {
            DbGroup::Datasets => &mut self.dataset_dbs,
            DbGroup::Runs => &mut self.run_dbs,
            DbGroup::Subruns => &mut self.subrun_dbs,
            DbGroup::Events => &mut self.event_dbs,
            DbGroup::Products => &mut self.product_dbs,
        }
    }
}

pub(crate) struct DataStoreInner {
    pub(crate) client: YokanClient,
    pub(crate) topo: Topology,
    pub(crate) placement: Box<dyn Placement>,
    uuid_cache: RwLock<HashMap<String, Uuid>>,
}

impl DataStoreInner {
    pub(crate) fn dataset_db(&self, parent_full: &str) -> &DbTarget {
        let idx = self.placement.place(
            &keys::dataset_parent_bytes(parent_full),
            self.topo.dataset_dbs.len(),
        );
        &self.topo.dataset_dbs[idx]
    }

    pub(crate) fn run_db(&self, dataset: &Uuid) -> &DbTarget {
        let idx = self
            .placement
            .place(dataset.as_bytes(), self.topo.run_dbs.len());
        &self.topo.run_dbs[idx]
    }

    pub(crate) fn subrun_db(&self, run_key: &[u8]) -> &DbTarget {
        let idx = self.placement.place(run_key, self.topo.subrun_dbs.len());
        &self.topo.subrun_dbs[idx]
    }

    pub(crate) fn event_db(&self, subrun_key: &[u8]) -> &DbTarget {
        let idx = self.placement.place(subrun_key, self.topo.event_dbs.len());
        &self.topo.event_dbs[idx]
    }

    pub(crate) fn product_db(&self, container_key: &[u8]) -> &DbTarget {
        let idx = self
            .placement
            .place(container_key, self.topo.product_dbs.len());
        &self.topo.product_dbs[idx]
    }

    /// Whether `key`, listed from database `db_idx` of `dbs`, is homed
    /// there: its parent container's key (its first `parent_len` bytes) is
    /// placed on that database. During a live migration a listing page also
    /// carries the old owners' keys (dual-read merge); keeping only the
    /// homed ones yields each key once across the group. Keys too short to
    /// place are kept for the key parser to reject.
    pub(crate) fn is_homed(
        &self,
        dbs: &[DbTarget],
        db_idx: usize,
        parent_len: usize,
        key: &[u8],
        hash: &mut ParentHash,
    ) -> bool {
        key.get(..parent_len)
            .is_none_or(|parent| self.placement.place_hash(hash.of(parent), dbs.len()) == db_idx)
    }

    /// Page through `db`'s entries after `from` under `prefix`, mapping each
    /// through `visit` in key order. The walk ends at the first entry
    /// `visit` maps to `None`, or after a page shorter than [`LIST_PAGE`].
    fn list<E: Listed, T>(
        &self,
        db: &DbTarget,
        prefix: &[u8],
        mut from: Vec<u8>,
        mut visit: impl FnMut(E) -> Result<Option<T>, HepnosError>,
    ) -> Result<Vec<T>, HepnosError> {
        let mut out = Vec::new();
        loop {
            let page = E::list(&self.client, db, &from, prefix)?;
            let next = (page.len() == LIST_PAGE).then(|| page[LIST_PAGE - 1].key().to_vec());
            for entry in page {
                let Some(item) = visit(entry)? else {
                    return Ok(out);
                };
                out.push(item);
            }
            let Some(next) = next else { return Ok(out) };
            from = next;
        }
    }

    /// Walk every database of `dbs` at once, starting after `from`, and
    /// hand each entry to `visit(page, index, key)` in key order.
    /// `issue(db, from, limit)` puts a page of `limit` entries in flight;
    /// each database keeps one page in flight at all times: a full page
    /// puts the next one in flight as soon as it arrives, and a short one
    /// ends that database's walk. The per-database streams are merged as
    /// their pages arrive; the merge waits only on a database that has no
    /// entry left to show. Entries not homed on the database that listed
    /// them (see [`Self::is_homed`]) are skipped.
    fn pump<G: KeyPage>(
        &self,
        dbs: &[DbTarget],
        parent_len: usize,
        from: &[u8],
        limit: usize,
        issue: impl Fn(&DbTarget, &[u8], usize) -> PendingPage<G>,
        mut visit: impl FnMut(&G, usize, &[u8]) -> Result<(), HepnosError>,
    ) -> Result<(), HepnosError> {
        debug_assert!(limit > 0, "a pump page needs a limit");
        let mut walks: Vec<_> = (dbs.iter())
            .map(|db| {
                let pending = Some(issue(db, from, limit));
                (pending, Cursor::default(), ParentHash::default())
            })
            .collect();
        let mut resume = Vec::new();
        let mut visits = 0usize;
        loop {
            // Polling a page in flight costs a lock, so the walks are polled
            // every few entries, not at each.
            let poll = visits.is_multiple_of(POLL_EVERY);
            visits = visits.wrapping_add(1);
            for (db_idx, (pending, cursor, hash)) in walks.iter_mut().enumerate() {
                let mut homed = |key: &[u8]| self.is_homed(dbs, db_idx, parent_len, key, hash);
                let mut arrived = poll && pending.as_ref().is_some_and(PendingPage::is_ready);
                while arrived || (!cursor.settle(&mut homed) && pending.is_some()) {
                    let page = pending.take().expect("a page is in flight").wait()?;
                    // The raw page decides the walk, before the homing check.
                    if page.len() == limit {
                        page.key_into(limit - 1, &mut resume);
                        *pending = Some(issue(&dbs[db_idx], &resume, limit));
                    }
                    cursor.push(page);
                    arrived = false;
                }
            }
            let smallest = (walks.iter().enumerate())
                .filter_map(|(i, (_, cursor, _))| Some((i, cursor.head()?.2)))
                .min_by(|a, b| a.1.cmp(b.1))
                .map(|(i, _)| i);
            let Some(i) = smallest else { return Ok(()) };
            let cursor = &mut walks[i].1;
            let (page, at, key) = cursor.head().expect("the smallest head exists");
            visit(page, at, key)?;
            cursor.advance();
        }
    }
}

/// A page of a listing or range scan: entries in key order.
pub(crate) trait KeyPage {
    fn len(&self) -> usize;
    /// Entry `i`'s key into `key`, replacing what it held.
    fn key_into(&self, i: usize, key: &mut Vec<u8>);
}

impl KeyPage for Vec<Vec<u8>> {
    fn len(&self) -> usize {
        self.len()
    }

    fn key_into(&self, i: usize, key: &mut Vec<u8>) {
        key.clear();
        key.extend_from_slice(&self[i]);
    }
}

impl KeyPage for ScanPage {
    fn len(&self) -> usize {
        self.len()
    }

    fn key_into(&self, i: usize, key: &mut Vec<u8>) {
        self.key_into(i, key);
    }
}

/// The [`stable_hash`] of the parent keys of one walk, met in key order.
/// Consecutive keys share the head of their parent key (all of it but the
/// last eight bytes: a run key under a subrun key, a subrun key under an
/// event key), so the head's hash is kept and each key hashes only the
/// rest.
pub(crate) struct ParentHash {
    head: Vec<u8>,
    state: u64,
}

impl Default for ParentHash {
    fn default() -> Self {
        ParentHash {
            head: Vec::new(),
            state: stable_hash(&[]),
        }
    }
}

impl ParentHash {
    /// `stable_hash(parent)`.
    pub(crate) fn of(&mut self, parent: &[u8]) -> u64 {
        let (head, tail) = parent.split_at(parent.len().saturating_sub(8));
        if head != self.head {
            self.head.clear();
            self.head.extend_from_slice(head);
            self.state = stable_hash(head);
        }
        stable_hash_extend(self.state, tail)
    }
}

/// The entries of a paged walk that have arrived and are not consumed
/// yet, read in place: the pages in key order and a position in the first.
/// [`Cursor::settle`] moves the position to an entry worth visiting and
/// copies its key into one reused buffer.
pub(crate) struct Cursor<G> {
    pages: VecDeque<G>,
    at: usize,
    key: Vec<u8>,
    /// Whether `key` is the key of the entry at `at`.
    settled: bool,
}

impl<G> Default for Cursor<G> {
    fn default() -> Self {
        Cursor {
            pages: VecDeque::new(),
            at: 0,
            key: Vec::new(),
            settled: false,
        }
    }
}

impl<G: KeyPage> Cursor<G> {
    /// Append an arrived page.
    pub(crate) fn push(&mut self, page: G) {
        self.pages.push_back(page);
    }

    /// Move to the first entry from here on that `keep` accepts; returns
    /// whether the arrived pages hold one.
    pub(crate) fn settle(&mut self, mut keep: impl FnMut(&[u8]) -> bool) -> bool {
        while !self.settled {
            let Some(page) = self.pages.front() else {
                return false;
            };
            if self.at == page.len() {
                self.pages.pop_front();
                self.at = 0;
                continue;
            }
            page.key_into(self.at, &mut self.key);
            self.settled = keep(&self.key);
            if !self.settled {
                self.at += 1;
            }
        }
        true
    }

    /// The settled entry: its page, index and key.
    pub(crate) fn head(&self) -> Option<(&G, usize, &[u8])> {
        let page = self.pages.front().filter(|_| self.settled)?;
        Some((page, self.at, &self.key))
    }

    /// Step past the settled entry.
    pub(crate) fn advance(&mut self) {
        debug_assert!(self.settled, "advance past an unsettled entry");
        self.at += 1;
        self.settled = false;
    }
}

/// One listing page, as the client returns it.
type Page<E> = Result<Vec<E>, YokanError>;

/// A listed key with its value.
type KeyValue = (Vec<u8>, Vec<u8>);

/// One entry of a listing, ordered by its key.
trait Keyed {
    fn key(&self) -> &[u8];
}

impl Keyed for Vec<u8> {
    fn key(&self) -> &[u8] {
        self
    }
}

impl<T> Keyed for (Vec<u8>, T) {
    fn key(&self) -> &[u8] {
        &self.0
    }
}

/// An entry [`DataStoreInner::list`] pages through: a key alone, or a key
/// with its value.
trait Listed: Keyed + Sized {
    fn list(client: &YokanClient, db: &DbTarget, from: &[u8], prefix: &[u8]) -> Page<Self>;
}

impl Listed for Vec<u8> {
    fn list(client: &YokanClient, db: &DbTarget, from: &[u8], prefix: &[u8]) -> Page<Self> {
        client.list_keys(db, from, prefix, LIST_PAGE)
    }
}

impl Listed for KeyValue {
    fn list(client: &YokanClient, db: &DbTarget, from: &[u8], prefix: &[u8]) -> Page<Self> {
        client.list_keyvals(db, from, prefix, LIST_PAGE)
    }
}

/// Decode `key`, as listed by a server, with `decode`. These checks guard
/// the client against data from the server: a key `decode` rejects is a
/// protocol error.
fn parse_key<'k, T>(
    key: &'k [u8],
    kind: &str,
    decode: impl FnOnce(&'k [u8]) -> Option<T>,
) -> Result<T, HepnosError> {
    decode(key)
        .ok_or_else(|| HepnosError::Storage(YokanError::Protocol(format!("malformed {kind} key"))))
}

/// Decode a listed event key.
pub(crate) fn parse_event_key(key: &[u8]) -> Result<EventDescriptor, HepnosError> {
    let (dataset, run, subrun, event) = parse_key(key, "event", keys::parse_event_key)?;
    Ok(EventDescriptor {
        dataset,
        run,
        subrun,
        event,
    })
}

/// Decode a dataset entry's value, the dataset's UUID.
fn dataset_uuid(value: &[u8]) -> Result<Uuid, HepnosError> {
    Uuid::from_slice(value).ok_or_else(|| {
        HepnosError::Storage(YokanError::Protocol("dataset value is not a UUID".into()))
    })
}

/// Every event under `prefix` (a dataset UUID or a run key), in key order:
/// one listing pumped out of every event database at once.
fn events_under(store: &Arc<DataStoreInner>, prefix: &[u8]) -> Result<Vec<Event>, HepnosError> {
    let mut events = Vec::new();
    store.pump(
        &store.topo.event_dbs,
        keys::SUBRUN_KEY_LEN,
        prefix,
        LIST_PAGE,
        |db, from, limit| store.client.list_keys_async(db, from, prefix, limit),
        |_, _, key| {
            events.push(Event::listed(store, key.to_vec())?);
            Ok(())
        },
    )?;
    Ok(events)
}

/// A handle to a HEPnOS deployment: the analogue of
/// `hepnos::DataStore::connect("config.json")`.
///
/// Cloning is cheap (shared `Arc`).
#[derive(Clone)]
pub struct DataStore {
    pub(crate) inner: Arc<DataStoreInner>,
}

impl DataStore {
    /// Connect through `endpoint` to the servers described by
    /// `descriptors` (one [`ConnectionDescriptor`] per server node, as
    /// produced by [`bedrock::BedrockServer::descriptor`]).
    pub fn connect(
        endpoint: Arc<dyn Endpoint>,
        descriptors: &[ConnectionDescriptor],
    ) -> Result<DataStore, HepnosError> {
        Self::connect_with_placement(endpoint, descriptors, Box::new(ModuloPlacement))
    }

    /// Connect from a connection file's JSON contents — the direct analogue
    /// of the paper's `DataStore::connect("config.json")` (Listing 1). The
    /// file holds the JSON array of per-server descriptors a deployment
    /// script gathers at server startup.
    pub fn connect_from_json(
        endpoint: Arc<dyn Endpoint>,
        json: &str,
    ) -> Result<DataStore, HepnosError> {
        let descriptors = ConnectionDescriptor::parse_deployment(json)
            .map_err(|e| HepnosError::Topology(e.to_string()))?;
        Self::connect(endpoint, &descriptors)
    }

    /// Connect with an explicit placement strategy (see [`crate::placement`]).
    pub fn connect_with_placement(
        endpoint: Arc<dyn Endpoint>,
        descriptors: &[ConnectionDescriptor],
        placement: Box<dyn Placement>,
    ) -> Result<DataStore, HepnosError> {
        Self::connect_full(endpoint, descriptors, placement, None)
    }

    /// [`DataStore::connect`] with a [`yokan::RetryPolicy`]: every RPC runs
    /// under the policy's per-attempt deadline and transient transport
    /// failures (timeouts, disconnects, saturation) are retried with
    /// deterministic backoff. Retried mutations are applied at-most-once by
    /// the service's dedup window, so a flaky transport cannot duplicate
    /// ingested data.
    pub fn connect_with_retry(
        endpoint: Arc<dyn Endpoint>,
        descriptors: &[ConnectionDescriptor],
        policy: yokan::RetryPolicy,
    ) -> Result<DataStore, HepnosError> {
        Self::connect_full(
            endpoint,
            descriptors,
            Box::new(ModuloPlacement),
            Some(policy),
        )
    }

    fn connect_full(
        endpoint: Arc<dyn Endpoint>,
        descriptors: &[ConnectionDescriptor],
        placement: Box<dyn Placement>,
        retry: Option<yokan::RetryPolicy>,
    ) -> Result<DataStore, HepnosError> {
        let topo = Topology::classify(descriptors)?;
        let mut client = YokanClient::new(endpoint);
        if let Some(policy) = retry {
            client = client.with_retry(policy);
        }
        // Replicated deployments: route every chained database through its
        // replica set (tail-first reads, head mutations, failover). A no-op
        // when `chains` is empty.
        client.install_replica_routes(&topo.chains);
        let store = DataStore {
            inner: Arc::new(DataStoreInner {
                client,
                topo,
                placement,
                uuid_cache: RwLock::new(HashMap::new()),
            }),
        };
        // Learn the deployment's topology epoch so every mutation this
        // store issues is fenced: a rescale that completes behind our back
        // bumps the service epoch and our stale writes are rejected with
        // `WrongEpoch` instead of landing on the wrong owner. A failed
        // fetch leaves the client unfenced (epoch 0) — the pre-rescale
        // behaviour — so connecting to old servers still works.
        let _ = store.refresh_topology_epoch();
        Ok(store)
    }

    /// The topology epoch this store stamps into its mutations (0 =
    /// unfenced; see [`yokan::YokanError::WrongEpoch`]).
    pub fn topology_epoch(&self) -> u64 {
        self.inner.client.topology_epoch()
    }

    /// Re-fetch the topology epoch from the deployment and adopt the
    /// maximum across every reachable node. Probing all nodes — not just
    /// the first — matters after a rescale with casualties: a node that
    /// restarted or was skipped by finalize may still answer a stale
    /// epoch, and adopting it would get this store fenced by the rest of
    /// the deployment. Errors only if *no* node answers; the max is
    /// adopted and returned otherwise.
    pub fn refresh_topology_epoch(&self) -> Result<u64, HepnosError> {
        let topo = &self.inner.topo;
        let mut nodes: std::collections::BTreeMap<String, u16> = std::collections::BTreeMap::new();
        for t in topo
            .dataset_dbs
            .iter()
            .chain(topo.run_dbs.iter())
            .chain(topo.subrun_dbs.iter())
            .chain(topo.event_dbs.iter())
            .chain(topo.product_dbs.iter())
        {
            nodes.entry(t.addr.clone()).or_insert(t.provider_id);
        }
        if nodes.is_empty() {
            return Err(HepnosError::Topology("deployment has no databases".into()));
        }
        let mut best: Option<u64> = None;
        let mut last_err: Option<HepnosError> = None;
        for (addr, pid) in &nodes {
            match self.inner.client.service_epoch(addr, *pid) {
                Ok(e) => best = Some(best.map_or(e, |b| b.max(e))),
                Err(e) => last_err = Some(e.into()),
            }
        }
        let Some(epoch) = best else {
            return Err(last_err.expect("at least one node probed"));
        };
        self.inner.client.set_topology_epoch(epoch);
        Ok(epoch)
    }

    /// Install a dual-read fallback for `db`: point reads and listings that
    /// miss on the current owner also consult `candidates` (the database's
    /// *old* replica chain) while a live rescale is in flight. An empty
    /// `candidates` removes the fallback; see
    /// [`yokan::YokanClient::install_dual_read`].
    pub fn install_dual_read(&self, db: &str, candidates: Vec<DbTarget>) {
        self.inner.client.install_dual_read(db, candidates);
    }

    /// Drop every dual-read fallback (the migration finished).
    pub fn clear_dual_read(&self) {
        self.inner.client.clear_dual_read();
    }

    /// Retry counters of this store's client: attempts issued, logical
    /// requests that retried, replays answered from the service dedup
    /// window, and requests that gave up. All zero unless the store was
    /// connected with [`DataStore::connect_with_retry`].
    pub fn retry_stats(&self) -> yokan::RetryStats {
        self.inner.client.retry_stats()
    }

    /// The virtual root dataset (it always exists and holds the top-level
    /// datasets).
    pub fn root(&self) -> DataSet {
        DataSet {
            store: Arc::clone(&self.inner),
            path: None,
            uuid: None,
        }
    }

    /// Open an existing dataset by full path — `datastore["path/to/ds"]` in
    /// the paper's Listing 1.
    pub fn dataset(&self, path: &str) -> Result<DataSet, HepnosError> {
        let path = DatasetPath::parse(path)?;
        let uuid = self.resolve(&path)?;
        Ok(DataSet {
            store: Arc::clone(&self.inner),
            path: Some(path),
            uuid: Some(uuid),
        })
    }

    /// Number of event databases in the deployment (drives the default
    /// reader count of the [`crate::ParallelEventProcessor`]).
    pub fn num_event_databases(&self) -> usize {
        self.inner.topo.event_dbs.len()
    }

    /// Network counters of this client's endpoint (requests sent, bytes
    /// moved) — the monitoring surface used to verify batching behaviour.
    pub fn endpoint_stats(&self) -> mercurio::EndpointStats {
        self.inner.client.endpoint().stats()
    }

    /// Number of product databases in the deployment.
    pub fn num_product_databases(&self) -> usize {
        self.inner.topo.product_dbs.len()
    }

    /// Advertised replication factor (1 when the deployment is
    /// single-copy).
    pub fn replication_factor(&self) -> usize {
        self.inner.topo.replication_factor
    }

    /// The deployment's replica chains, head first (empty when
    /// unreplicated). The ordered replica set of a given container's
    /// database is recovered with
    /// [`crate::placement::place_replica_set`].
    pub fn replica_chains(&self) -> &[Vec<DbTarget>] {
        &self.inner.topo.chains
    }

    /// Resolve a dataset path to its UUID, using the client-side cache.
    fn resolve(&self, path: &DatasetPath) -> Result<Uuid, HepnosError> {
        if let Some(u) = self.inner.uuid_cache.read().get(&path.full()) {
            return Ok(*u);
        }
        let parent_full = path.parent().map(|p| p.full()).unwrap_or_default();
        let key = keys::dataset_key(&parent_full, path.name());
        let db = self.inner.dataset_db(&parent_full);
        let value = self
            .inner
            .client
            .get(db, &key)?
            .ok_or_else(|| HepnosError::NoSuchDataset(path.full()))?;
        let uuid = dataset_uuid(&value)?;
        self.inner.uuid_cache.write().insert(path.full(), uuid);
        Ok(uuid)
    }
}

impl std::fmt::Debug for DataStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataStore")
            .field("event_dbs", &self.inner.topo.event_dbs.len())
            .field("product_dbs", &self.inner.topo.product_dbs.len())
            .finish()
    }
}

/// Serialize a typed product and name its type: the one encode behind
/// every typed `store`, direct or batched.
pub(crate) fn encode_product<T: Serialize>(value: &T) -> Result<(String, Vec<u8>), HepnosError> {
    let bytes = binser::to_bytes(value).map_err(|e| HepnosError::Serialization(e.to_string()))?;
    Ok((keys::short_type_name::<T>(), bytes))
}

/// Shared implementation of typed product storage for any container.
fn store_product<T: Serialize>(
    store: &DataStoreInner,
    container_key: &[u8],
    label: &ProductLabel,
    value: &T,
) -> Result<(), HepnosError> {
    let (type_name, bytes) = encode_product(value)?;
    let pk = keys::product_key(container_key, label.as_str(), &type_name);
    let db = store.product_db(container_key);
    store.client.put(db, &pk, &bytes)?;
    Ok(())
}

fn load_product<T: DeserializeOwned>(
    store: &DataStoreInner,
    container_key: &[u8],
    label: &ProductLabel,
) -> Result<Option<T>, HepnosError> {
    let type_name = keys::short_type_name::<T>();
    let pk = keys::product_key(container_key, label.as_str(), &type_name);
    let db = store.product_db(container_key);
    match store.client.get(db, &pk)? {
        None => Ok(None),
        Some(bytes) => {
            let v = binser::from_bytes(&bytes)
                .map_err(|e| HepnosError::Serialization(e.to_string()))?;
            Ok(Some(v))
        }
    }
}

/// Every subrun key of dataset `uuid`, in key order: one listing pumped out
/// of every subrun database at once. The work items of the
/// [`crate::ParallelEventProcessor`].
pub(crate) fn subruns_under(
    store: &DataStoreInner,
    uuid: &Uuid,
) -> Result<Vec<Vec<u8>>, HepnosError> {
    let prefix = uuid.as_bytes();
    let mut subruns = Vec::new();
    store.pump(
        &store.topo.subrun_dbs,
        keys::RUN_KEY_LEN,
        prefix,
        LIST_PAGE,
        |db, from, limit| store.client.list_keys_async(db, from, prefix, limit),
        |_, _, key| {
            parse_key(key, "subrun", |k| {
                (k.len() == keys::SUBRUN_KEY_LEN).then_some(())
            })?;
            subruns.push(key.to_vec());
            Ok(())
        },
    )?;
    Ok(subruns)
}

/// A dataset: a named container of datasets and runs.
#[derive(Clone)]
pub struct DataSet {
    store: Arc<DataStoreInner>,
    /// `None` for the virtual root.
    path: Option<DatasetPath>,
    uuid: Option<Uuid>,
}

impl DataSet {
    /// This dataset's full path (`""` for the root).
    pub fn full_path(&self) -> String {
        self.path.as_ref().map(|p| p.full()).unwrap_or_default()
    }

    /// This dataset's name (`""` for the root).
    pub fn name(&self) -> String {
        self.path
            .as_ref()
            .map(|p| p.name().to_string())
            .unwrap_or_default()
    }

    /// The dataset's UUID (`None` for the root, which needs none).
    pub fn uuid(&self) -> Option<Uuid> {
        self.uuid
    }

    /// Create a child dataset (`mkdir -p` semantics: missing intermediate
    /// datasets are created, existing ones are reused).
    pub fn create_dataset(&self, rel_path: &str) -> Result<DataSet, HepnosError> {
        let rel = DatasetPath::parse(rel_path)?;
        let mut current_full = self.full_path();
        let mut current_uuid = self.uuid;
        let mut current_path = self.path.clone();
        for comp in rel.components() {
            let key = keys::dataset_key(&current_full, comp);
            let db = self.store.dataset_db(&current_full).clone();
            // Concurrent creators race on the UUID registration: the
            // server-side put-if-absent makes exactly one of them win and
            // hands the winning UUID to everyone else (a plain get-then-put
            // would orphan the loser's children under a dangling UUID).
            let fresh = Uuid::generate();
            let uuid = match self
                .store
                .client
                .put_if_absent(&db, &key, fresh.as_bytes())?
            {
                None => fresh,
                Some(v) => dataset_uuid(&v)?,
            };
            current_path = Some(match &current_path {
                Some(p) => p.child(comp)?,
                None => DatasetPath::parse(comp)?,
            });
            current_full = current_path.as_ref().expect("path was just set").full();
            self.store
                .uuid_cache
                .write()
                .insert(current_full.clone(), uuid);
            current_uuid = Some(uuid);
        }
        Ok(DataSet {
            store: Arc::clone(&self.store),
            path: current_path,
            uuid: current_uuid,
        })
    }

    /// Open an existing child dataset; errors if it does not exist.
    pub fn dataset(&self, rel_path: &str) -> Result<DataSet, HepnosError> {
        let rel = DatasetPath::parse(rel_path)?;
        let full = match &self.path {
            Some(p) => {
                let mut c = p.components().to_vec();
                c.extend(rel.components().iter().cloned());
                DatasetPath::from_components(c)?
            }
            None => rel,
        };
        let ds = DataStore {
            inner: Arc::clone(&self.store),
        };
        ds.dataset(&full.full())
    }

    /// List the names of direct child datasets, sorted.
    pub fn datasets(&self) -> Result<Vec<DataSet>, HepnosError> {
        let full = self.full_path();
        let prefix = keys::dataset_children_prefix(&full);
        let db = self.store.dataset_db(&full);
        self.store
            .list(db, &prefix, prefix.clone(), |(key, value): KeyValue| {
                let name = parse_key(&key, "dataset", keys::dataset_key_name)?;
                let child_path = match &self.path {
                    Some(p) => p.child(name)?,
                    None => DatasetPath::parse(name)?,
                };
                Ok(Some(DataSet {
                    store: Arc::clone(&self.store),
                    path: Some(child_path),
                    uuid: Some(dataset_uuid(&value)?),
                }))
            })
    }

    /// All events of this dataset, across every run and subrun, in key
    /// order (dataset UUID, then run/subrun/event numerically).
    ///
    /// This is the sequential counterpart of the
    /// [`crate::ParallelEventProcessor`]: each event database is paged with
    /// the dataset-UUID prefix and the per-database results are merged.
    pub fn events(&self) -> Result<Vec<Event>, HepnosError> {
        events_under(&self.store, self.require_uuid()?.as_bytes())
    }

    /// Push `program` down to every event-level `label` product of this
    /// dataset, whatever its type, without enumerating the events: each
    /// product database scans the dataset's key range (prefix: the dataset
    /// UUID) and evaluates the program on each product whose label sits
    /// right after an event key, one page of [`LIST_PAGE`] replies in
    /// flight per database at all times. Each database keeps only the
    /// products homed on it, so a live migration repeats none, and the
    /// per-database streams are merged by key as their pages arrive:
    /// `visit` receives each reply in [`DataSet::events`] order. An event
    /// with `label` products of several types has one adjacent reply per
    /// type, in type-name order; an event with none has no reply. The scan
    /// reads each product range in sequence and bypasses the servers' read
    /// cache.
    ///
    /// Each reply names its event by a plain [`EventDescriptor`]
    /// ([`Event::from_descriptor`] builds a handle where one is needed) and
    /// is a view of the page it arrived in. The first error `visit` returns
    /// ends the walk.
    pub fn filter_event_products(
        &self,
        label: &ProductLabel,
        program: &yokan::Program,
        visit: impl FnMut(EventDescriptor, FilterView<'_>) -> Result<(), HepnosError>,
    ) -> Result<(), HepnosError> {
        self.filter_event_products_paged(label, program, LIST_PAGE, visit)
    }

    /// [`DataSet::filter_event_products`] in pages of `limit` replies.
    fn filter_event_products_paged(
        &self,
        label: &ProductLabel,
        program: &yokan::Program,
        limit: usize,
        mut visit: impl FnMut(EventDescriptor, FilterView<'_>) -> Result<(), HepnosError>,
    ) -> Result<(), HepnosError> {
        let uuid = self.require_uuid()?;
        let mut tag = label.as_str().as_bytes().to_vec();
        tag.push(keys::PRODUCT_SEP);
        let scan = yokan::FilterScan {
            program,
            prefix: uuid.as_bytes(),
            tag_offset: keys::EVENT_KEY_LEN as u32,
            tag: &tag,
        };
        let store = &self.store;
        store.pump(
            &store.topo.product_dbs,
            keys::EVENT_KEY_LEN,
            uuid.as_bytes(),
            limit,
            |db, from, limit| store.client.filter_scan_async(db, &scan, from, limit),
            |page, i, key| {
                let event = &key[..key.len().min(keys::EVENT_KEY_LEN)];
                visit(parse_event_key(event)?, page.reply(i))
            },
        )
    }

    fn require_uuid(&self) -> Result<Uuid, HepnosError> {
        self.uuid
            .ok_or_else(|| HepnosError::InvalidPath("the root dataset cannot hold runs".into()))
    }

    /// Create run `number` (idempotent).
    pub fn create_run(&self, number: RunNumber) -> Result<Run, HepnosError> {
        let uuid = self.require_uuid()?;
        let key = keys::run_key(&uuid, number);
        let db = self.store.run_db(&uuid).clone();
        self.store.client.put(&db, &key, &[])?;
        Ok(Run {
            store: Arc::clone(&self.store),
            dataset: uuid,
            number,
            key,
        })
    }

    /// Open run `number`; errors if absent.
    pub fn run(&self, number: RunNumber) -> Result<Run, HepnosError> {
        let uuid = self.require_uuid()?;
        let key = keys::run_key(&uuid, number);
        let db = self.store.run_db(&uuid).clone();
        if !self.store.client.exists(&db, &key)? {
            return Err(HepnosError::NoSuchContainer(format!(
                "run {number} in {}",
                self.full_path()
            )));
        }
        Ok(Run {
            store: Arc::clone(&self.store),
            dataset: uuid,
            number,
            key,
        })
    }

    /// Iterate all runs in ascending number order.
    pub fn runs(&self) -> Result<Vec<Run>, HepnosError> {
        let uuid = self.require_uuid()?;
        let db = self.store.run_db(&uuid);
        self.store.list(
            db,
            uuid.as_bytes(),
            uuid.as_bytes().to_vec(),
            |key: Vec<u8>| {
                Ok(Some(Run {
                    store: Arc::clone(&self.store),
                    dataset: uuid,
                    number: parse_key(&key, "run", keys::trailing_number)?,
                    key,
                }))
            },
        )
    }

    pub(crate) fn store_inner(&self) -> &Arc<DataStoreInner> {
        &self.store
    }
}

impl std::fmt::Debug for DataSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DataSet({})", self.full_path())
    }
}

/// A run within a dataset.
#[derive(Clone)]
pub struct Run {
    store: Arc<DataStoreInner>,
    dataset: Uuid,
    number: RunNumber,
    key: Vec<u8>,
}

impl Run {
    /// The run number.
    pub fn number(&self) -> RunNumber {
        self.number
    }

    /// The owning dataset's UUID.
    pub fn dataset_uuid(&self) -> Uuid {
        self.dataset
    }

    /// Create subrun `number` (idempotent).
    pub fn create_subrun(&self, number: SubRunNumber) -> Result<SubRun, HepnosError> {
        let key = keys::subrun_key(&self.dataset, self.number, number);
        let db = self.store.subrun_db(&self.key).clone();
        self.store.client.put(&db, &key, &[])?;
        Ok(SubRun {
            store: Arc::clone(&self.store),
            dataset: self.dataset,
            run: self.number,
            number,
            key,
        })
    }

    /// Open subrun `number`; errors if absent.
    pub fn subrun(&self, number: SubRunNumber) -> Result<SubRun, HepnosError> {
        let key = keys::subrun_key(&self.dataset, self.number, number);
        let db = self.store.subrun_db(&self.key).clone();
        if !self.store.client.exists(&db, &key)? {
            return Err(HepnosError::NoSuchContainer(format!(
                "subrun {number} in run {}",
                self.number
            )));
        }
        Ok(SubRun {
            store: Arc::clone(&self.store),
            dataset: self.dataset,
            run: self.number,
            number,
            key,
        })
    }

    /// Iterate all subruns in ascending number order.
    pub fn subruns(&self) -> Result<Vec<SubRun>, HepnosError> {
        let db = self.store.subrun_db(&self.key);
        self.store
            .list(db, &self.key, self.key.clone(), |key: Vec<u8>| {
                Ok(Some(SubRun {
                    store: Arc::clone(&self.store),
                    dataset: self.dataset,
                    run: self.number,
                    number: parse_key(&key, "subrun", keys::trailing_number)?,
                    key,
                }))
            })
    }

    /// All events of this run across every subrun, in (subrun, event)
    /// order. Subruns hash to different event databases, so each database
    /// is scanned with the run's 24-byte key prefix and the results merged.
    pub fn events(&self) -> Result<Vec<Event>, HepnosError> {
        events_under(&self.store, &self.key)
    }

    /// Store a typed product on this run.
    pub fn store<T: Serialize>(&self, label: &ProductLabel, value: &T) -> Result<(), HepnosError> {
        store_product(&self.store, &self.key, label, value)
    }

    /// Load a typed product from this run.
    pub fn load<T: DeserializeOwned>(
        &self,
        label: &ProductLabel,
    ) -> Result<Option<T>, HepnosError> {
        load_product(&self.store, &self.key, label)
    }

    /// The run's full storage key.
    pub fn key(&self) -> &[u8] {
        &self.key
    }
}

impl std::fmt::Debug for Run {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Run({})", self.number)
    }
}

/// A subrun within a run.
#[derive(Clone)]
pub struct SubRun {
    store: Arc<DataStoreInner>,
    dataset: Uuid,
    run: RunNumber,
    number: SubRunNumber,
    key: Vec<u8>,
}

impl SubRun {
    /// The subrun number.
    pub fn number(&self) -> SubRunNumber {
        self.number
    }

    /// The owning run number.
    pub fn run_number(&self) -> RunNumber {
        self.run
    }

    /// Create event `number` (idempotent).
    pub fn create_event(&self, number: EventNumber) -> Result<Event, HepnosError> {
        let key = keys::event_key(&self.dataset, self.run, self.number, number);
        let db = self.store.event_db(&self.key).clone();
        self.store.client.put(&db, &key, &[])?;
        Ok(Event {
            store: Arc::clone(&self.store),
            dataset: self.dataset,
            run: self.run,
            subrun: self.number,
            number,
            key,
        })
    }

    /// Open event `number`; errors if absent.
    pub fn event(&self, number: EventNumber) -> Result<Event, HepnosError> {
        let key = keys::event_key(&self.dataset, self.run, self.number, number);
        let db = self.store.event_db(&self.key).clone();
        if !self.store.client.exists(&db, &key)? {
            return Err(HepnosError::NoSuchContainer(format!(
                "event {number} in subrun {}",
                self.number
            )));
        }
        Ok(Event {
            store: Arc::clone(&self.store),
            dataset: self.dataset,
            run: self.run,
            subrun: self.number,
            number,
            key,
        })
    }

    /// Iterate all events in ascending number order.
    pub fn events(&self) -> Result<Vec<Event>, HepnosError> {
        let db = self.store.event_db(&self.key);
        self.store.list(db, &self.key, self.key.clone(), |key| {
            Event::listed(&self.store, key).map(Some)
        })
    }

    /// Events with numbers in `[lo, hi)`, in ascending order — a ranged
    /// variant of [`SubRun::events`] exploiting the big-endian key order
    /// (a single bounded scan on one database).
    pub fn events_range(
        &self,
        lo: EventNumber,
        hi: EventNumber,
    ) -> Result<Vec<Event>, HepnosError> {
        if hi <= lo {
            return Ok(Vec::new());
        }
        // list_keys' lower bound is exclusive: starting from event `lo-1`'s
        // key admits `lo` itself (even across gaps); for `lo == 0` the
        // subrun prefix sorts below every event key.
        let from = if lo == 0 {
            self.key.clone()
        } else {
            keys::event_key(&self.dataset, self.run, self.number, lo - 1)
        };
        let db = self.store.event_db(&self.key);
        self.store.list(db, &self.key, from, |key| {
            let event = Event::listed(&self.store, key)?;
            Ok((event.number < hi).then_some(event))
        })
    }

    /// Store a typed product on this subrun.
    pub fn store<T: Serialize>(&self, label: &ProductLabel, value: &T) -> Result<(), HepnosError> {
        store_product(&self.store, &self.key, label, value)
    }

    /// Load a typed product from this subrun.
    pub fn load<T: DeserializeOwned>(
        &self,
        label: &ProductLabel,
    ) -> Result<Option<T>, HepnosError> {
        load_product(&self.store, &self.key, label)
    }

    /// The subrun's full storage key.
    pub fn key(&self) -> &[u8] {
        &self.key
    }
}

impl std::fmt::Debug for SubRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SubRun({}/{})", self.run, self.number)
    }
}

/// An event: the natural atomic unit of HEP data (paper §I).
#[derive(Clone)]
pub struct Event {
    store: Arc<DataStoreInner>,
    dataset: Uuid,
    run: RunNumber,
    subrun: SubRunNumber,
    number: EventNumber,
    key: Vec<u8>,
}

impl Event {
    /// The event number.
    pub fn number(&self) -> EventNumber {
        self.number
    }

    /// The owning (run, subrun) numbers.
    pub fn coordinates(&self) -> (RunNumber, SubRunNumber, EventNumber) {
        (self.run, self.subrun, self.number)
    }

    /// Store a typed product (`ev.store(vp1)` in Listing 1, with an explicit
    /// label).
    pub fn store<T: Serialize>(&self, label: &ProductLabel, value: &T) -> Result<(), HepnosError> {
        store_product(&self.store, &self.key, label, value)
    }

    /// Load a typed product (`ev.load(vp2)` in Listing 1).
    pub fn load<T: DeserializeOwned>(
        &self,
        label: &ProductLabel,
    ) -> Result<Option<T>, HepnosError> {
        load_product(&self.store, &self.key, label)
    }

    /// Store pre-serialized bytes under an explicit type name (used by the
    /// batched writers).
    pub fn store_raw(
        &self,
        label: &ProductLabel,
        type_name: &str,
        bytes: &[u8],
    ) -> Result<(), HepnosError> {
        let pk = keys::product_key(&self.key, label.as_str(), type_name);
        let db = self.store.product_db(&self.key);
        self.store.client.put(db, &pk, bytes)?;
        Ok(())
    }

    /// Load raw product bytes under an explicit type name.
    pub fn load_raw(
        &self,
        label: &ProductLabel,
        type_name: &str,
    ) -> Result<Option<Vec<u8>>, HepnosError> {
        let pk = keys::product_key(&self.key, label.as_str(), type_name);
        let db = self.store.product_db(&self.key);
        Ok(self.store.client.get(db, &pk)?)
    }

    /// The event's full storage key.
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// A plain-data descriptor for queueing (see
    /// [`crate::ParallelEventProcessor`]).
    pub fn descriptor(&self) -> crate::pep::EventDescriptor {
        crate::pep::EventDescriptor {
            dataset: self.dataset,
            run: self.run,
            subrun: self.subrun,
            event: self.number,
        }
    }

    /// Rebuild an event handle from a descriptor (no RPC).
    pub fn from_descriptor(store: &DataStore, d: &crate::pep::EventDescriptor) -> Event {
        Event {
            store: Arc::clone(&store.inner),
            dataset: d.dataset,
            run: d.run,
            subrun: d.subrun,
            number: d.event,
            key: keys::event_key(&d.dataset, d.run, d.subrun, d.event),
        }
    }

    /// The handle of an event key listed by a server.
    fn listed(store: &Arc<DataStoreInner>, key: Vec<u8>) -> Result<Event, HepnosError> {
        let d = parse_event_key(&key)?;
        Ok(Event {
            store: Arc::clone(store),
            dataset: d.dataset,
            run: d.run,
            subrun: d.subrun,
            number: d.event,
            key,
        })
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Event({}/{}/{})", self.run, self.subrun, self.number)
    }
}

impl Run {
    /// Build a handle without an existence check (used by [`crate::WriteBatch`],
    /// which has the creation queued).
    pub(crate) fn unchecked(store: Arc<DataStoreInner>, dataset: Uuid, number: RunNumber) -> Run {
        let key = keys::run_key(&dataset, number);
        Run {
            store,
            dataset,
            number,
            key,
        }
    }
}

impl SubRun {
    pub(crate) fn unchecked(run: &Run, number: SubRunNumber) -> SubRun {
        SubRun {
            store: Arc::clone(&run.store),
            dataset: run.dataset,
            run: run.number,
            number,
            key: keys::subrun_key(&run.dataset, run.number, number),
        }
    }
}

impl Event {
    pub(crate) fn unchecked(subrun: &SubRun, number: EventNumber) -> Event {
        Event {
            store: Arc::clone(&subrun.store),
            dataset: subrun.dataset,
            run: subrun.run,
            subrun: subrun.number,
            number,
            key: keys::event_key(&subrun.dataset, subrun.run, subrun.number, number),
        }
    }
}

/// Maximum product keys per push-down filter RPC; bounds the work one
/// request pins on a provider's handler.
const FILTER_BATCH: usize = 1024;

impl DataStore {
    /// Push a serialized predicate [`yokan::Program`] down to the product
    /// databases holding `(label, type_name)` products of the given
    /// container keys, one reply per key in input order.
    ///
    /// Keys are grouped by their product database (same placement walk as
    /// the prefetching reader) and each group is filtered in bounded
    /// batches, so one RPC per `(database, batch)` crosses the wire instead
    /// of one product blob per event. The servers point-read every key.
    /// Push-down select no longer uses this: it scans each product
    /// database's key range through [`DataSet::filter_event_products`] and
    /// needs no key list.
    pub fn filter_products(
        &self,
        container_keys: &[Vec<u8>],
        label: &ProductLabel,
        type_name: &str,
        program: &yokan::Program,
    ) -> Result<Vec<yokan::FilterReply>, HepnosError> {
        let mut grouped: HashMap<DbTarget, (Vec<usize>, Vec<Vec<u8>>)> = HashMap::new();
        for (slot, ck) in container_keys.iter().enumerate() {
            let db = self.inner.product_db(ck).clone();
            let pk = keys::product_key(ck, label.as_str(), type_name);
            let entry = grouped.entry(db).or_default();
            entry.0.push(slot);
            entry.1.push(pk);
        }
        let mut out: Vec<Option<yokan::FilterReply>> = vec![None; container_keys.len()];
        for (db, (slots, pks)) in grouped {
            for (slot_chunk, pk_chunk) in slots.chunks(FILTER_BATCH).zip(pks.chunks(FILTER_BATCH)) {
                let replies = self.inner.client.filter(&db, program, pk_chunk)?;
                for (&slot, reply) in slot_chunk.iter().zip(replies) {
                    out[slot] = Some(reply);
                }
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every key was grouped into exactly one batch"))
            .collect())
    }
}

/// Internal access for the batching layer: each write target is the
/// database and key of one queued pair.
impl DataStore {
    pub(crate) fn write_target_for_run(
        &self,
        dataset: &Uuid,
        run: RunNumber,
    ) -> (DbTarget, Vec<u8>) {
        let key = keys::run_key(dataset, run);
        (self.inner.run_db(dataset).clone(), key)
    }

    pub(crate) fn write_target_for_subrun(
        &self,
        dataset: &Uuid,
        run: RunNumber,
        subrun: SubRunNumber,
    ) -> (DbTarget, Vec<u8>) {
        let run_key = keys::run_key(dataset, run);
        let key = keys::subrun_key(dataset, run, subrun);
        (self.inner.subrun_db(&run_key).clone(), key)
    }

    pub(crate) fn write_target_for_event(
        &self,
        dataset: &Uuid,
        run: RunNumber,
        subrun: SubRunNumber,
        event: EventNumber,
    ) -> (DbTarget, Vec<u8>) {
        let subrun_key = keys::subrun_key(dataset, run, subrun);
        let key = keys::event_key(dataset, run, subrun, event);
        (self.inner.event_db(&subrun_key).clone(), key)
    }

    pub(crate) fn write_target_for_product(
        &self,
        container_key: &[u8],
        label: &ProductLabel,
        type_name: &str,
    ) -> (DbTarget, Vec<u8>) {
        let key = keys::product_key(container_key, label.as_str(), type_name);
        (self.inner.product_db(container_key).clone(), key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::local_deployment;
    use yokan::pages::{encode_columns, Column};
    use yokan::{FilterReply, Program};

    /// The streamed pump against collect-then-merge: every product
    /// database holds a stale copy of every product (as a rescale leaves
    /// them until it erases its old copies), with ids that differ from the
    /// home copy's. At page limits of 1, 4 and [`LIST_PAGE`] the pump must
    /// visit exactly the home copies, in key order, each event once, as
    /// collecting every database's whole walk and merging it would.
    #[test]
    fn streamed_pump_equals_collect_then_merge() {
        let counts = bedrock::DbCounts {
            products: 3,
            ..bedrock::DbCounts::default()
        };
        let dep = local_deployment(1, counts);
        let store = dep.datastore();
        let ds = store.root().create_dataset("pump").unwrap();
        let uuid = ds.uuid().unwrap();
        let label = ProductLabel::new("slc").unwrap();
        let blob = |ids: Vec<u64>| encode_columns(&[Column::U64(ids)], 4);
        let inner = &store.inner;
        let mut n_events = 0u64;
        for r in 0..2u64 {
            let run = ds.create_run(r).unwrap();
            for s in 0..3u64 {
                let sr = run.create_subrun(s).unwrap();
                // Every fifth event has no product; the others a home copy.
                for e in (0..40u64).filter(|e| e % 5 != 4) {
                    let ek = keys::event_key(&uuid, r, s, e);
                    let pk = keys::product_key(&ek, label.as_str(), "Cols");
                    let id = (r << 32) | (s << 16) | e;
                    for db in &inner.topo.product_dbs {
                        inner
                            .client
                            .put(db, &pk, &blob(vec![id, u64::MAX]))
                            .unwrap();
                    }
                    let ev = sr.create_event(e).unwrap();
                    ev.store_raw(&label, "Cols", &blob(vec![id])).unwrap();
                    n_events += 1;
                }
            }
        }
        let program = Program {
            id_column: 0,
            predicates: Vec::new(),
        };
        for limit in [1, 4, LIST_PAGE] {
            let mut streamed = Vec::new();
            ds.filter_event_products_paged(&label, &program, limit, |event, reply| {
                streamed.push((event, FilterReply::from(reply)));
                Ok(())
            })
            .unwrap();
            let collected = collect_then_merge(&ds, &label, &program, limit);
            assert_eq!(streamed.len() as u64, n_events, "limit {limit}");
            assert!(
                streamed == collected,
                "limit {limit}: streamed != collected"
            );
            assert!(
                streamed.windows(2).all(|w| {
                    let at = |d: &EventDescriptor| (d.run, d.subrun, d.event);
                    at(&w[0].0) < at(&w[1].0)
                }),
                "limit {limit}: an event repeated or out of order"
            );
            for (event, reply) in &streamed {
                let id = (event.run << 32) | (event.subrun << 16) | event.event;
                assert!(
                    matches!(reply, FilterReply::Ids { ids, .. } if ids == &[id]),
                    "limit {limit}: {event:?} answered {reply:?}"
                );
            }
        }
        dep.shutdown();
    }

    /// The pass as the pump ran it before it streamed: every database's
    /// walk collected page by page, the unhomed entries dropped, then the
    /// streams merged by key.
    fn collect_then_merge(
        ds: &DataSet,
        label: &ProductLabel,
        program: &Program,
        limit: usize,
    ) -> Vec<(EventDescriptor, FilterReply)> {
        let store = &ds.store;
        let uuid = ds.uuid().unwrap();
        let tag = [label.as_str().as_bytes(), &[keys::PRODUCT_SEP]].concat();
        let scan = yokan::FilterScan {
            program,
            prefix: uuid.as_bytes(),
            tag_offset: keys::EVENT_KEY_LEN as u32,
            tag: &tag,
        };
        let dbs = &store.topo.product_dbs;
        let mut all = Vec::new();
        for (db_idx, db) in dbs.iter().enumerate() {
            let mut from = uuid.as_bytes().to_vec();
            loop {
                let page = (store.client.filter_scan_async(db, &scan, &from, limit))
                    .wait()
                    .unwrap();
                for i in 0..page.len() {
                    let key = page.key(i);
                    let hash = &mut ParentHash::default();
                    if store.is_homed(dbs, db_idx, keys::EVENT_KEY_LEN, &key, hash) {
                        all.push((key, FilterReply::from(page.reply(i))));
                    }
                }
                if page.len() < limit {
                    break;
                }
                from = page.key(page.len() - 1);
            }
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        (all.into_iter())
            .map(|(k, r)| (parse_event_key(&k[..keys::EVENT_KEY_LEN]).unwrap(), r))
            .collect()
    }
}
