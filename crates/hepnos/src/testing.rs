//! In-process deployments for tests, examples and benchmarks.
//!
//! A [`LocalDeployment`] stands in for the paper's Theta allocation: `n`
//! server "nodes" (Bedrock-bootstrapped endpoints on one shared local
//! fabric) plus a client endpoint, with a configurable network model and
//! backend.

use crate::datastore::DataStore;
use bedrock::{BackendKind, BedrockServer, ConnectionDescriptor, DbCounts, ServiceConfig};
use mercurio::local::Fabric;
use mercurio::NetworkModel;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DEPLOYMENT_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A running in-process HEPnOS deployment.
///
/// Server slots are individually killable ([`LocalDeployment::kill_server`])
/// so chaos tests can take a node down mid-workload and replaceable
/// ([`LocalDeployment::replace_server`]) so they can restore the
/// replication factor afterwards.
pub struct LocalDeployment {
    fabric: Fabric,
    servers: Vec<Option<BedrockServer>>,
    datastore: DataStore,
    descriptors: Vec<ConnectionDescriptor>,
}

/// Start `n_nodes` in-memory server nodes on an ideal network.
pub fn local_deployment(n_nodes: usize, counts: DbCounts) -> LocalDeployment {
    local_deployment_with(
        n_nodes,
        counts,
        BackendKind::Map,
        None,
        NetworkModel::default(),
    )
}

/// Start `n_nodes` in-memory nodes with chain replication: every node
/// serves the same database names, which replication groups into chains of
/// `factor` replicas (forward routes wired, clients routed).
pub fn local_deployment_replicated(
    n_nodes: usize,
    counts: DbCounts,
    factor: usize,
) -> LocalDeployment {
    local_deployment_tuned(
        n_nodes,
        counts,
        BackendKind::Map,
        None,
        NetworkModel::default(),
        |cfg| {
            cfg.replication = Some(bedrock::ReplicationConfig {
                factor,
                ..Default::default()
            });
        },
    )
}

/// Start a deployment with explicit backend, data directory (for
/// [`BackendKind::Lsm`]) and network model.
pub fn local_deployment_with(
    n_nodes: usize,
    counts: DbCounts,
    backend: BackendKind,
    data_dir: Option<PathBuf>,
    model: NetworkModel,
) -> LocalDeployment {
    local_deployment_tuned(n_nodes, counts, backend, data_dir, model, |_| {})
}

/// [`local_deployment_with`] plus a hook to adjust each node's
/// [`ServiceConfig`] before launch — how overload tests install tiny
/// admission queues and watermarks on an otherwise standard topology.
pub fn local_deployment_tuned(
    n_nodes: usize,
    counts: DbCounts,
    backend: BackendKind,
    data_dir: Option<PathBuf>,
    model: NetworkModel,
    tune: impl Fn(&mut ServiceConfig),
) -> LocalDeployment {
    assert!(n_nodes > 0, "deployment needs at least one server node");
    let id = DEPLOYMENT_COUNTER.fetch_add(1, Ordering::Relaxed);
    let fabric = Fabric::new(model);
    let mut servers = Vec::with_capacity(n_nodes);
    let mut descriptors = Vec::with_capacity(n_nodes);
    for node in 0..n_nodes {
        let node_dir = data_dir.as_ref().map(|d| d.join(format!("node{node}")));
        let mut cfg = ServiceConfig::hepnos_topology(counts, backend, node_dir);
        tune(&mut cfg);
        let server = bedrock::launch(fabric.endpoint(&format!("server{id}-{node}")), &cfg)
            .expect("deployment bootstrap failed");
        descriptors.push(server.descriptor().clone());
        servers.push(Some(server));
    }
    // Replicated deployments need their chain-forward routes wired once
    // every server's descriptor is known.
    if descriptors.iter().any(|d| d.replication.is_some()) {
        let refs: Vec<&BedrockServer> = servers.iter().flatten().collect();
        bedrock::wire_replication(&refs);
    }
    let client_ep = fabric.endpoint(&format!("client{id}"));
    let datastore = DataStore::connect(client_ep, &descriptors).expect("datastore connect failed");
    LocalDeployment {
        fabric,
        servers,
        datastore,
        descriptors,
    }
}

impl LocalDeployment {
    /// A handle to the datastore (cheap clone).
    pub fn datastore(&self) -> DataStore {
        self.datastore.clone()
    }

    /// The shared fabric, for creating extra client endpoints.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Connection descriptors of all server nodes.
    pub fn descriptors(&self) -> &[ConnectionDescriptor] {
        &self.descriptors
    }

    /// Number of server nodes (slots, including killed ones).
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// A live server by node index; `None` after [`LocalDeployment::kill_server`].
    pub fn server(&self, node: usize) -> Option<&BedrockServer> {
        self.servers[node].as_ref()
    }

    /// Kill server `node`: its endpoint stops answering (in-flight and
    /// future RPCs fail with dead-node errors), exactly what clients of a
    /// crashed provider observe. Panics if the node was already killed.
    pub fn kill_server(&mut self, node: usize) {
        let server = self.servers[node]
            .take()
            .expect("server was already killed");
        server.shutdown();
    }

    /// Fill a killed server slot with a fresh node launched from `cfg` on a
    /// new endpoint. Its databases start empty — resynchronise them from
    /// the surviving replicas (e.g. [`yokan::resync_replicas`]) and rewire
    /// with [`bedrock::wire_replication`] before routing clients at it. The
    /// replacement's descriptor replaces the dead node's in
    /// [`LocalDeployment::descriptors`]; returns the new descriptor.
    pub fn replace_server(&mut self, node: usize, cfg: &ServiceConfig) -> ConnectionDescriptor {
        assert!(self.servers[node].is_none(), "slot {node} is still live");
        let name = format!("replacement-{node}-{}", self.descriptors.len());
        let server = bedrock::launch(self.fabric.endpoint(&name), cfg)
            .expect("replacement bootstrap failed");
        let descriptor = server.descriptor().clone();
        self.descriptors[node] = descriptor.clone();
        self.servers[node] = Some(server);
        descriptor
    }

    /// Re-wire chain-forward routes on every live server from the current
    /// descriptors (after [`LocalDeployment::replace_server`]).
    pub fn rewire_replication(&self) {
        let refs: Vec<&BedrockServer> = self.servers.iter().flatten().collect();
        for s in &refs {
            bedrock::wire_replication_node(s, &self.descriptors);
        }
    }

    /// Grow the deployment: launch a fresh server node from `cfg` on a new
    /// endpoint and append its descriptor. The new node serves empty
    /// databases — it joins the *topology*, not the data; run a
    /// [`crate::rescale::Migrator`] to move keys onto it. Returns the new
    /// descriptor.
    pub fn add_server(&mut self, cfg: &ServiceConfig) -> ConnectionDescriptor {
        let node = self.servers.len();
        let name = format!("joined-{node}-{}", self.descriptors.len());
        let server =
            bedrock::launch(self.fabric.endpoint(&name), cfg).expect("join bootstrap failed");
        let descriptor = server.descriptor().clone();
        self.descriptors.push(descriptor.clone());
        self.servers.push(Some(server));
        descriptor
    }

    /// Connect an additional, independent client (its own endpoint).
    pub fn connect_client(&self, name: &str) -> DataStore {
        DataStore::connect(self.fabric.endpoint(name), &self.descriptors)
            .expect("datastore connect failed")
    }

    /// [`LocalDeployment::connect_client`] with a retry policy — the client
    /// used by chaos tests that inject faults into the fabric.
    pub fn connect_client_with_retry(&self, name: &str, policy: yokan::RetryPolicy) -> DataStore {
        DataStore::connect_with_retry(self.fabric.endpoint(name), &self.descriptors, policy)
            .expect("datastore connect failed")
    }

    /// Storage counters of every database on every node, labeled
    /// `node{n}/provider{p}/{db}` — entry counts and cache hit rates for
    /// benchmark logging.
    pub fn backend_stats(&self) -> Vec<(String, yokan::BackendStats)> {
        let mut out = Vec::new();
        for (n, server) in self.servers.iter().enumerate() {
            let Some(server) = server else { continue };
            for (pid, name, stats) in server.yokan().backend_stats() {
                out.push((format!("node{n}/provider{pid}/{name}"), stats));
            }
        }
        out
    }

    /// Admission-control counters aggregated across every server node
    /// (all zero unless the deployment was tuned with an `overload`
    /// section).
    pub fn overload_stats(&self) -> margo::OverloadStats {
        let mut total = margo::OverloadStats::default();
        for server in self.servers.iter().flatten() {
            total.merge(&server.overload_stats());
        }
        total
    }

    /// Tear everything down.
    pub fn shutdown(self) {
        for s in self.servers.into_iter().flatten() {
            s.shutdown();
        }
        self.fabric.stop();
    }
}
