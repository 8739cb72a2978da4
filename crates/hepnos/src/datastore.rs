//! The client-facing object store API: [`DataStore`], [`DataSet`], [`Run`],
//! [`SubRun`], [`Event`] and typed products.
//!
//! The API shape follows the paper's Listing 1: navigating the hierarchy
//! looks like indexing C++ containers, products are stored/loaded by label
//! with the concrete type recorded in the key, and every container kind is
//! iterable in sorted order.

use crate::batch::WriteTarget;
use crate::binser;
use crate::error::HepnosError;
use crate::keys::{self, DatasetPath, EventNumber, RunNumber, SubRunNumber};
use crate::pep::EventDescriptor;
use crate::placement::{ModuloPlacement, Placement};
use crate::uuid::Uuid;
use bedrock::ConnectionDescriptor;
use mercurio::Endpoint;
use parking_lot::RwLock;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;
use yokan::{DbTarget, YokanClient, YokanError};

/// Entries per listing RPC: container listings page their one database
/// this many keys at a time, and the multi-database listings
/// ([`DataSet::events`], [`Run::events`],
/// [`DataSet::filter_event_products`]) keep one such page in flight per
/// database.
pub const LIST_PAGE: usize = 1024;

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
            let db = &target.db;
            if db.starts_with("datasets") {
                topo.dataset_dbs.push(target);
            } else if db.starts_with("runs") {
                topo.run_dbs.push(target);
            } else if db.starts_with("subruns") {
                topo.subrun_dbs.push(target);
            } else if db.starts_with("events") {
                topo.event_dbs.push(target);
            } else if db.starts_with("products") {
                topo.product_dbs.push(target);
            }
            // Unknown databases are simply not part of the HEPnOS
            // namespace; ignore them.
        }
        // A deterministic global order: every client must agree on the index
        // of each database or placement breaks.
        for group in [
            &mut topo.dataset_dbs,
            &mut topo.run_dbs,
            &mut topo.subrun_dbs,
            &mut topo.event_dbs,
            &mut topo.product_dbs,
        ] {
            group.sort();
        }
        for (name, group) in [
            ("datasets", &topo.dataset_dbs),
            ("runs", &topo.run_dbs),
            ("subruns", &topo.subrun_dbs),
            ("events", &topo.event_dbs),
            ("products", &topo.product_dbs),
        ] {
            if group.is_empty() {
                return Err(HepnosError::Topology(format!(
                    "deployment has no {name} databases"
                )));
            }
        }
        Ok(topo)
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
        &self.topo.product_dbs[self.product_db_index(container_key)]
    }

    /// Index of the product database owning `container_key`'s products.
    /// The PEP readers group per-page prefetch batches in a `Vec` indexed by
    /// this value, avoiding a fresh `HashMap<DbTarget, _>` per page.
    pub(crate) fn product_db_index(&self, container_key: &[u8]) -> usize {
        self.placement
            .place(container_key, self.topo.product_dbs.len())
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
    ) -> bool {
        key.get(..parent_len)
            .is_none_or(|parent| self.placement.place(parent, dbs.len()) == db_idx)
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

    /// Walk every database of `dbs` at once, starting after `from`:
    /// `issue(db, from)` puts one page in flight per database and `wait`
    /// collects it. A full page resumes from its last key at once; a short
    /// one ends that database's walk. Entries not homed on the database
    /// that listed them (see [`Self::is_homed`]) are dropped, and the
    /// per-database streams are merged by key.
    fn pump<P, E: Keyed>(
        &self,
        dbs: &[DbTarget],
        parent_len: usize,
        from: &[u8],
        issue: impl Fn(&DbTarget, &[u8]) -> P,
        wait: fn(P) -> Page<E>,
    ) -> Result<Vec<E>, HepnosError> {
        let mut pending: Vec<Option<P>> = dbs.iter().map(|db| Some(issue(db, from))).collect();
        let mut streams: Vec<Vec<E>> = dbs.iter().map(|_| Vec::new()).collect();
        while pending.iter().any(Option::is_some) {
            for (db_idx, (slot, stream)) in pending.iter_mut().zip(&mut streams).enumerate() {
                let Some(page) = slot.take() else { continue };
                let mut page = wait(page)?;
                // The raw page decides the walk, before the homing filter.
                if page.len() == LIST_PAGE {
                    *slot = Some(issue(&dbs[db_idx], page[LIST_PAGE - 1].key()));
                }
                page.retain(|e| self.is_homed(dbs, db_idx, parent_len, e.key()));
                stream.extend(page);
            }
        }
        Ok(merge_by_key(streams))
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
    let keys = store.pump(
        &store.topo.event_dbs,
        keys::SUBRUN_KEY_LEN,
        prefix,
        |db, from| store.client.list_keys_async(db, from, prefix, LIST_PAGE),
        yokan::PendingListKeys::wait,
    )?;
    keys.into_iter().map(|k| Event::listed(store, k)).collect()
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

/// Shared implementation of typed product storage for any container.
fn store_product<T: Serialize>(
    store: &DataStoreInner,
    container_key: &[u8],
    label: &ProductLabel,
    value: &T,
) -> Result<(), HepnosError> {
    let bytes = binser::to_bytes(value).map_err(|e| HepnosError::Serialization(e.to_string()))?;
    let type_name = keys::short_type_name::<T>();
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
    /// flight per database at once. Each database keeps only the products
    /// homed on it, so a live migration repeats none, and the per-database
    /// streams are merged by key: replies come in [`DataSet::events`]
    /// order. An event with `label` products of several types has one
    /// adjacent reply per type, in type-name order; an event with none has
    /// no reply. The scan reads each product range in sequence and
    /// bypasses the servers' read cache.
    pub fn filter_event_products(
        &self,
        label: &ProductLabel,
        program: &yokan::Program,
    ) -> Result<Vec<(Event, yokan::FilterReply)>, HepnosError> {
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
        let replies = store.pump(
            &store.topo.product_dbs,
            keys::EVENT_KEY_LEN,
            uuid.as_bytes(),
            |db, from| store.client.filter_scan_async(db, &scan, from, LIST_PAGE),
            yokan::PendingFilterScan::wait,
        )?;
        replies
            .into_iter()
            .map(|(mut key, reply)| {
                key.truncate(keys::EVENT_KEY_LEN);
                Ok((Event::listed(store, key)?, reply))
            })
            .collect()
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

/// Merge streams that are each sorted by key into one sorted stream (a
/// k-way merge; the streams are few, so the smallest head is found by a
/// linear pass).
fn merge_by_key<E: Keyed>(streams: Vec<Vec<E>>) -> Vec<E> {
    let mut out = Vec::with_capacity(streams.iter().map(Vec::len).sum());
    let mut heads: Vec<_> = streams
        .into_iter()
        .map(|s| s.into_iter().peekable())
        .collect();
    loop {
        let smallest = heads
            .iter_mut()
            .enumerate()
            .filter_map(|(i, h)| h.peek().map(|e| (i, e.key())))
            .min_by(|a, b| a.1.cmp(b.1))
            .map(|(i, _)| i);
        let Some(i) = smallest else { return out };
        out.extend(heads[i].next());
    }
}

/// Maximum product keys per push-down filter RPC; bounds the work one
/// request pins on a provider (the fan-out path parallelizes within it).
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

/// Internal access for the batching layer.
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
    ) -> WriteTarget {
        let key = keys::product_key(container_key, label.as_str(), type_name);
        WriteTarget {
            db: self.inner.product_db(container_key).clone(),
            key,
        }
    }
}
