//! `bedrock` — JSON-driven bootstrap for Mochi-style services.
//!
//! The paper (§II-B) describes Bedrock as the component that "takes a JSON
//! configuration describing the service and spins up the components
//! according to this configuration": Argobots execution streams and pools,
//! Mercury settings, and the list of providers with their databases and
//! pool mappings. That configurability is what let the authors tune HEPnOS
//! (by hand and with ML-based autotuning) into the §IV-D deployment: 16
//! providers per node, each on its own execution stream, serving 8 event
//! and 8 product databases.
//!
//! This crate reproduces that layer:
//!
//! * [`ServiceConfig`] — the JSON schema (serde);
//! * [`launch`] — build the [`argos::Runtime`], wrap the endpoint in a
//!   [`margo::MargoInstance`], register a [`yokan::YokanService`], create
//!   the backends, and return a running [`BedrockServer`];
//! * [`ServiceConfig::hepnos_topology`] — generator for the paper's
//!   per-node topology;
//! * [`ConnectionDescriptor`] — the address book handed to clients (the
//!   paper's `connect("config.json")`).
//!
//! # Example
//!
//! ```
//! use mercurio::local::Fabric;
//!
//! let fabric = Fabric::new(Default::default());
//! let counts = bedrock::DbCounts { datasets: 0, runs: 0, subruns: 0, events: 2, products: 2 };
//! let cfg = bedrock::ServiceConfig::hepnos_topology(counts, bedrock::BackendKind::Map, None);
//! let server = bedrock::launch(fabric.endpoint("node0"), &cfg).unwrap();
//! assert_eq!(server.descriptor().providers.len(), 4);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

use argos::Runtime;
use margo::MargoInstance;
use mercurio::Endpoint;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use yokan::{LsmBackend, MemBackend, YokanService};

/// Which storage backend a database uses (Bedrock's `type` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum BackendKind {
    /// In-memory ordered map (`std::map` analogue).
    Map,
    /// Persistent LSM engine (RocksDB analogue).
    Lsm,
}

/// One pool declaration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoolConfig {
    /// Pool name, unique within the instance.
    pub name: String,
    /// Scheduler kind: `fifo`, `fifo_wait`, `basic` or `basic_wait`. Every
    /// pool is FIFO; the names mirror Argobots' and any other is rejected.
    #[serde(default = "default_kind")]
    pub kind: String,
}

fn default_kind() -> String {
    "fifo_wait".to_string()
}

/// One execution-stream declaration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XstreamConfig {
    /// Xstream name.
    pub name: String,
    /// Pools drained by this xstream, in round-robin order.
    pub pools: Vec<String>,
}

/// The `argobots` section.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArgobotsConfig {
    /// Declared pools.
    pub pools: Vec<PoolConfig>,
    /// Declared execution streams.
    pub xstreams: Vec<XstreamConfig>,
}

/// The `margo` section.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MargoConfig {
    /// Argobots resources.
    pub argobots: ArgobotsConfig,
    /// Pool handling RPCs whose provider has no dedicated pool.
    #[serde(default = "default_rpc_pool")]
    pub rpc_pool: String,
}

fn default_rpc_pool() -> String {
    "default".to_string()
}

/// One database served by a provider.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatabaseConfig {
    /// Database name, unique within its provider.
    pub name: String,
    /// Backend kind.
    #[serde(rename = "type")]
    pub kind: BackendKind,
    /// Directory for persistent backends (required for `lsm`).
    #[serde(default)]
    pub path: Option<PathBuf>,
}

/// One provider declaration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProviderConfig {
    /// Human-readable name.
    pub name: String,
    /// Provider id clients address.
    pub provider_id: u16,
    /// Pool RPCs for this provider run in.
    pub pool: String,
    /// Databases served.
    pub databases: Vec<DatabaseConfig>,
}

/// The optional `overload` section: admission control and memory
/// watermarks. Absent from a config, the service accepts everything and
/// bounds nothing (the pre-overload-protection behaviour); present, every
/// knob has a serde default so handwritten configs can set only what they
/// care about.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Maximum queued-or-executing RPCs per provider before new requests
    /// are shed with `Busy`.
    #[serde(default = "default_max_queued")]
    pub max_queued_per_provider: usize,
    /// Maximum milliseconds a request may wait in its pool before being
    /// shed at the front (0 disables the queue-delay deadline).
    #[serde(default)]
    pub max_queue_delay_ms: u64,
    /// Backoff hint (milliseconds) returned to shed clients.
    #[serde(default = "default_retry_after_ms")]
    pub retry_after_ms: u64,
    /// Soft memory watermark per `map` database in bytes: mutations stall
    /// briefly above it (0 means "same as hard").
    #[serde(default)]
    pub soft_watermark_bytes: usize,
    /// Hard memory watermark per `map` database in bytes: mutations that
    /// would exceed it are shed with `Busy` (0 disables watermarks).
    #[serde(default)]
    pub hard_watermark_bytes: usize,
    /// Longest a mutation stalls at the soft watermark (milliseconds)
    /// before being applied anyway.
    #[serde(default = "default_max_stall_ms")]
    pub max_stall_ms: u64,
}

fn default_max_queued() -> usize {
    1024
}

fn default_retry_after_ms() -> u64 {
    5
}

fn default_max_stall_ms() -> u64 {
    20
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            max_queued_per_provider: default_max_queued(),
            max_queue_delay_ms: 0,
            retry_after_ms: default_retry_after_ms(),
            soft_watermark_bytes: 0,
            hard_watermark_bytes: 0,
            max_stall_ms: default_max_stall_ms(),
        }
    }
}

impl OverloadConfig {
    fn admission(&self) -> margo::AdmissionConfig {
        margo::AdmissionConfig {
            max_queued_per_provider: self.max_queued_per_provider,
            max_queue_delay: (self.max_queue_delay_ms > 0)
                .then(|| std::time::Duration::from_millis(self.max_queue_delay_ms)),
            retry_after_hint: std::time::Duration::from_millis(self.retry_after_ms),
        }
    }

    fn watermarks(&self) -> Option<yokan::WatermarkConfig> {
        if self.hard_watermark_bytes == 0 {
            return None;
        }
        let soft = if self.soft_watermark_bytes == 0 {
            self.hard_watermark_bytes
        } else {
            self.soft_watermark_bytes.min(self.hard_watermark_bytes)
        };
        Some(yokan::WatermarkConfig {
            soft_bytes: soft,
            hard_bytes: self.hard_watermark_bytes,
            max_stall: std::time::Duration::from_millis(self.max_stall_ms),
            retry_after_hint: std::time::Duration::from_millis(self.retry_after_ms),
        })
    }
}

/// The optional `lsm` section: tuning for every `lsm` database in the
/// config. Absent, databases open with [`lsmdb::Options::default`]; present,
/// every knob has the engine's default, so handwritten configs set only
/// what they care about.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LsmConfig {
    /// Memtable size before it freezes and flushes (bytes).
    #[serde(default = "d_memtable_bytes")]
    pub memtable_bytes: usize,
    /// L0 flush count that triggers a compaction into L1.
    #[serde(default = "d_l0_compaction_trigger")]
    pub l0_compaction_trigger: usize,
    /// L0 flush count above which writes stall briefly.
    #[serde(default = "d_l0_slowdown_trigger")]
    pub l0_slowdown_trigger: usize,
    /// L0 flush count at which writes are shed with `Busy`.
    #[serde(default = "d_l0_stop_trigger")]
    pub l0_stop_trigger: usize,
    /// Number of levels in the tree (L0 plus the sorted runs).
    #[serde(default = "d_max_levels")]
    pub max_levels: usize,
    /// Target size of L1 (bytes); each deeper level is `level_multiplier`×
    /// larger.
    #[serde(default = "d_level_base_bytes")]
    pub level_base_bytes: u64,
    /// Growth factor between consecutive level size targets.
    #[serde(default = "d_level_multiplier")]
    pub level_multiplier: u64,
    /// Target size for one output table of a compaction (bytes).
    #[serde(default = "d_table_target_bytes")]
    pub table_target_bytes: usize,
    /// Grandparent-overlap limit at which compaction output tables are cut
    /// early (bytes).
    #[serde(default = "d_grandparent_limit_bytes")]
    pub grandparent_limit_bytes: u64,
    /// Bloom filter bits per key (0 disables bloom filters).
    #[serde(default = "d_bloom_bits_per_key")]
    pub bloom_bits_per_key: usize,
    /// Read cache capacity (bytes, 0 disables the cache).
    #[serde(default = "d_read_cache_bytes")]
    pub read_cache_bytes: usize,
    /// WAL durability mode: `"always"`, `"group"`, or `"none"`.
    #[serde(default = "d_wal_sync")]
    pub wal_sync: String,
    /// Longest one write stalls at the L0 slowdown trigger (milliseconds).
    #[serde(default = "d_max_stall_ms")]
    pub max_stall_ms: u64,
    /// Backoff hint carried in L0-stop `Busy` rejections (milliseconds).
    #[serde(default = "d_retry_after_ms")]
    pub retry_after_ms: u64,
}

fn d_memtable_bytes() -> usize {
    lsmdb::Options::default().memtable_bytes
}
fn d_l0_compaction_trigger() -> usize {
    lsmdb::Options::default().l0_compaction_trigger
}
fn d_l0_slowdown_trigger() -> usize {
    lsmdb::Options::default().l0_slowdown_trigger
}
fn d_l0_stop_trigger() -> usize {
    lsmdb::Options::default().l0_stop_trigger
}
fn d_max_levels() -> usize {
    lsmdb::Options::default().max_levels
}
fn d_level_base_bytes() -> u64 {
    lsmdb::Options::default().level_base_bytes
}
fn d_level_multiplier() -> u64 {
    lsmdb::Options::default().level_multiplier
}
fn d_table_target_bytes() -> usize {
    lsmdb::Options::default().table_target_bytes
}
fn d_grandparent_limit_bytes() -> u64 {
    lsmdb::Options::default().grandparent_limit_bytes
}
fn d_bloom_bits_per_key() -> usize {
    lsmdb::Options::default().bloom_bits_per_key
}
fn d_read_cache_bytes() -> usize {
    lsmdb::Options::default().read_cache_bytes
}
fn d_wal_sync() -> String {
    "none".into()
}
fn d_max_stall_ms() -> u64 {
    lsmdb::Options::default().max_stall.as_millis() as u64
}
fn d_retry_after_ms() -> u64 {
    lsmdb::Options::default().retry_after_hint.as_millis() as u64
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_bytes: d_memtable_bytes(),
            l0_compaction_trigger: d_l0_compaction_trigger(),
            l0_slowdown_trigger: d_l0_slowdown_trigger(),
            l0_stop_trigger: d_l0_stop_trigger(),
            max_levels: d_max_levels(),
            level_base_bytes: d_level_base_bytes(),
            level_multiplier: d_level_multiplier(),
            table_target_bytes: d_table_target_bytes(),
            grandparent_limit_bytes: d_grandparent_limit_bytes(),
            bloom_bits_per_key: d_bloom_bits_per_key(),
            read_cache_bytes: d_read_cache_bytes(),
            wal_sync: d_wal_sync(),
            max_stall_ms: d_max_stall_ms(),
            retry_after_ms: d_retry_after_ms(),
        }
    }
}

impl LsmConfig {
    /// Convert to engine options; rejects unknown `wal_sync` values.
    pub fn options(&self) -> Result<lsmdb::Options, BedrockError> {
        let wal_sync = lsmdb::WalSync::parse(&self.wal_sync)
            .ok_or_else(|| BedrockError::Invalid(format!("unknown wal_sync: {}", self.wal_sync)))?;
        Ok(lsmdb::Options {
            memtable_bytes: self.memtable_bytes,
            l0_compaction_trigger: self.l0_compaction_trigger,
            l0_slowdown_trigger: self.l0_slowdown_trigger,
            l0_stop_trigger: self.l0_stop_trigger,
            max_levels: self.max_levels,
            level_base_bytes: self.level_base_bytes,
            level_multiplier: self.level_multiplier,
            table_target_bytes: self.table_target_bytes,
            grandparent_limit_bytes: self.grandparent_limit_bytes,
            bloom_bits_per_key: self.bloom_bits_per_key,
            read_cache_bytes: self.read_cache_bytes,
            wal_sync,
            compaction: lsmdb::CompactionMode::Background,
            max_stall: std::time::Duration::from_millis(self.max_stall_ms),
            retry_after_hint: std::time::Duration::from_millis(self.retry_after_ms),
            // Set per database by `launch`, from the database's group.
            partition_prefix_len: 0,
        })
    }
}

/// The optional `replication` section: per-database chain replication
/// across servers. Absent, every database is single-copy and nothing
/// forwards (the pre-replication behaviour); present, every knob has a
/// serde default so handwritten configs set only what they care about.
/// The section is advertised in the [`ConnectionDescriptor`] so clients
/// and [`wire_replication`] compute the same chains.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicationConfig {
    /// Replicas per logical database (clamped to the copies available);
    /// `1` disables replication.
    #[serde(default = "d_replication_factor")]
    pub factor: usize,
    /// Per-attempt deadline (milliseconds) for one chain-forward RPC.
    #[serde(default = "d_forward_timeout_ms")]
    pub forward_timeout_ms: u64,
    /// Attempts per successor before a forward degrades to single-copy.
    #[serde(default = "d_forward_attempts")]
    pub forward_attempts: u32,
    /// How long (milliseconds) an unreachable successor is skipped before
    /// the next mutation probes it again.
    #[serde(default = "d_suspend_ms")]
    pub suspend_ms: u64,
}

fn d_replication_factor() -> usize {
    2
}
fn d_forward_timeout_ms() -> u64 {
    yokan::ForwardParams::default().timeout.as_millis() as u64
}
fn d_forward_attempts() -> u32 {
    yokan::ForwardParams::default().attempts
}
fn d_suspend_ms() -> u64 {
    yokan::ForwardParams::default().suspend.as_millis() as u64
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            factor: d_replication_factor(),
            forward_timeout_ms: d_forward_timeout_ms(),
            forward_attempts: d_forward_attempts(),
            suspend_ms: d_suspend_ms(),
        }
    }
}

impl ReplicationConfig {
    /// Convert to the service-side forwarding parameters.
    pub fn forward_params(&self) -> yokan::ForwardParams {
        yokan::ForwardParams {
            timeout: std::time::Duration::from_millis(self.forward_timeout_ms),
            attempts: self.forward_attempts.max(1),
            suspend: std::time::Duration::from_millis(self.suspend_ms),
        }
    }
}

/// A full Bedrock service configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Margo/Argobots resources.
    pub margo: MargoConfig,
    /// Yokan providers.
    pub providers: Vec<ProviderConfig>,
    /// Overload protection; `None` (the default) disables admission
    /// control and watermarks, keeping older configs valid.
    #[serde(default)]
    pub overload: Option<OverloadConfig>,
    /// LSM engine tuning for `lsm` databases; `None` uses engine defaults.
    #[serde(default)]
    pub lsm: Option<LsmConfig>,
    /// Chain replication; `None` (the default) keeps every database
    /// single-copy.
    #[serde(default)]
    pub replication: Option<ReplicationConfig>,
}

/// Errors raised during bootstrap.
#[derive(Debug)]
pub enum BedrockError {
    /// Config could not be parsed.
    Parse(String),
    /// Runtime construction failed (duplicate names, unknown pools...).
    Runtime(argos::RuntimeError),
    /// Margo wiring failed.
    Margo(margo::MargoError),
    /// A database backend could not be created.
    Backend(String),
    /// The configuration is structurally invalid.
    Invalid(String),
}

impl fmt::Display for BedrockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BedrockError::Parse(m) => write!(f, "config parse error: {m}"),
            BedrockError::Runtime(e) => write!(f, "runtime error: {e}"),
            BedrockError::Margo(e) => write!(f, "margo error: {e}"),
            BedrockError::Backend(m) => write!(f, "backend error: {m}"),
            BedrockError::Invalid(m) => write!(f, "invalid config: {m}"),
        }
    }
}

impl std::error::Error for BedrockError {}

impl ServiceConfig {
    /// Parse from JSON text.
    pub fn from_json(text: &str) -> Result<ServiceConfig, BedrockError> {
        serde_json::from_str(text).map_err(|e| BedrockError::Parse(e.to_string()))
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serialization cannot fail")
    }
}

/// The container kind a HEPnOS database serves, named by the prefix of its
/// name (`datasets_0`, `events_3`, ...). Clients place keys by it, and
/// [`launch`] tunes each LSM database by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbGroup {
    /// Dataset databases (paths → UUIDs).
    Datasets,
    /// Run databases.
    Runs,
    /// Subrun databases.
    Subruns,
    /// Event databases.
    Events,
    /// Product databases.
    Products,
}

/// Length of the dataset UUID that begins every key of the runs,
/// subruns, events and products databases (paper §II-C).
pub const DATASET_KEY_PREFIX_LEN: usize = 16;

impl DbGroup {
    /// Every group, in deployment order.
    pub const ALL: [DbGroup; 5] = [
        DbGroup::Datasets,
        DbGroup::Runs,
        DbGroup::Subruns,
        DbGroup::Events,
        DbGroup::Products,
    ];

    /// The name prefix of the group's databases.
    pub fn label(self) -> &'static str {
        match self {
            DbGroup::Datasets => "datasets",
            DbGroup::Runs => "runs",
            DbGroup::Subruns => "subruns",
            DbGroup::Events => "events",
            DbGroup::Products => "products",
        }
    }

    /// The group of the database named `db_name`; `None` for a database
    /// outside the HEPnOS namespace.
    pub fn of(db_name: &str) -> Option<DbGroup> {
        DbGroup::ALL
            .into_iter()
            .find(|g| db_name.starts_with(g.label()))
    }
}

/// The engine options of the LSM database named `db_name`: `base`, with
/// the tables of a runs, subruns, events or products database partitioned
/// by the dataset UUID that begins every key. Dataset keys are paths, so
/// the datasets databases, like any other, are not partitioned.
fn db_lsm_options(db_name: &str, base: &lsmdb::Options) -> lsmdb::Options {
    let container = DbGroup::of(db_name).is_some_and(|g| g != DbGroup::Datasets);
    lsmdb::Options {
        partition_prefix_len: if container { DATASET_KEY_PREFIX_LEN } else { 0 },
        ..base.clone()
    }
}

/// How many databases of each container kind a HEPnOS deployment uses
/// (paper §II-C1: "The number of databases for each type of container is
/// independently configurable").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DbCounts {
    /// Dataset databases (paths → UUIDs).
    pub datasets: usize,
    /// Run databases.
    pub runs: usize,
    /// Subrun databases.
    pub subruns: usize,
    /// Event databases.
    pub events: usize,
    /// Product databases.
    pub products: usize,
}

impl Default for DbCounts {
    /// The paper's per-node layout: 8 event + 8 product databases, one of
    /// each container-metadata database.
    fn default() -> Self {
        DbCounts {
            datasets: 1,
            runs: 1,
            subruns: 1,
            events: 8,
            products: 8,
        }
    }
}

impl ServiceConfig {
    /// Generate a full HEPnOS server node: one provider per database, each
    /// with a dedicated pool and execution stream, covering all five
    /// container kinds.
    pub fn hepnos_topology(
        counts: DbCounts,
        backend: BackendKind,
        data_dir: Option<PathBuf>,
    ) -> ServiceConfig {
        let mut cfg = ServiceConfig {
            margo: MargoConfig {
                argobots: ArgobotsConfig {
                    pools: vec![PoolConfig {
                        name: "default".into(),
                        kind: "fifo_wait".into(),
                    }],
                    xstreams: vec![XstreamConfig {
                        name: "es_rpc".into(),
                        pools: vec!["default".into()],
                    }],
                },
                rpc_pool: "default".into(),
            },
            providers: Vec::new(),
            overload: None,
            lsm: None,
            replication: None,
        };
        let mut provider_id = 0u16;
        let per_group = [
            counts.datasets,
            counts.runs,
            counts.subruns,
            counts.events,
            counts.products,
        ];
        for (group, n) in DbGroup::ALL.into_iter().zip(per_group) {
            let label = group.label();
            for i in 0..n {
                let pool_name = format!("pool_{label}_{i}");
                cfg.margo.argobots.pools.push(PoolConfig {
                    name: pool_name.clone(),
                    kind: "fifo_wait".into(),
                });
                cfg.margo.argobots.xstreams.push(XstreamConfig {
                    name: format!("es_{label}_{i}"),
                    pools: vec![pool_name.clone(), "default".into()],
                });
                let db_name = format!("{label}_{i}");
                cfg.providers.push(ProviderConfig {
                    name: format!("yokan_{label}_{i}"),
                    provider_id,
                    pool: pool_name,
                    databases: vec![DatabaseConfig {
                        name: db_name.clone(),
                        kind: backend,
                        path: data_dir.as_ref().map(|d| d.join(&db_name)),
                    }],
                });
                provider_id += 1;
            }
        }
        cfg
    }
}

/// What a client needs to reach one provider.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct ProviderDescriptor {
    /// Provider id.
    pub provider_id: u16,
    /// Databases served, sorted.
    pub databases: Vec<String>,
}

/// Replication parameters a server advertises to clients so both sides
/// compute identical chains.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct ReplicationDescriptor {
    /// Replicas per logical database.
    pub factor: usize,
}

/// What a client needs to reach one server — the paper's
/// `connect("config.json")` payload for a single node.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct ConnectionDescriptor {
    /// Routable endpoint address.
    pub address: String,
    /// Providers on this server.
    pub providers: Vec<ProviderDescriptor>,
    /// Replication advertisement; absent (older descriptors) means
    /// single-copy.
    #[serde(default)]
    pub replication: Option<ReplicationDescriptor>,
}

impl ConnectionDescriptor {
    /// Parse a deployment-wide connection file: a JSON array of per-server
    /// descriptors (what a job script aggregates from every server's
    /// [`BedrockServer::descriptor`]). This is the payload behind the
    /// paper's `DataStore::connect("config.json")`.
    pub fn parse_deployment(json: &str) -> Result<Vec<ConnectionDescriptor>, BedrockError> {
        serde_json::from_str(json).map_err(|e| BedrockError::Parse(e.to_string()))
    }

    /// Serialize a deployment's descriptors to the connection-file JSON.
    pub fn deployment_to_json(descriptors: &[ConnectionDescriptor]) -> String {
        serde_json::to_string_pretty(descriptors).expect("descriptor serialization cannot fail")
    }
}

/// A running Bedrock-bootstrapped server.
pub struct BedrockServer {
    margo: MargoInstance,
    yokan: YokanService,
    descriptor: ConnectionDescriptor,
}

impl fmt::Debug for BedrockServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BedrockServer")
            .field("descriptor", &self.descriptor)
            .finish()
    }
}

impl BedrockServer {
    /// The Margo instance (address, runtime, forward).
    pub fn margo(&self) -> &MargoInstance {
        &self.margo
    }

    /// The Yokan service (databases).
    pub fn yokan(&self) -> &YokanService {
        &self.yokan
    }

    /// This server's routable address.
    pub fn address(&self) -> String {
        self.margo.address()
    }

    /// The connection descriptor clients use to find providers/databases.
    pub fn descriptor(&self) -> &ConnectionDescriptor {
        &self.descriptor
    }

    /// Admission-control counters (all zero when the config had no
    /// `overload` section).
    pub fn overload_stats(&self) -> margo::OverloadStats {
        self.margo.overload_stats()
    }

    /// Graceful teardown: stop serving, drain pools, join xstreams.
    pub fn shutdown(self) {
        self.margo.finalize();
    }
}

/// Bootstrap a server on `endpoint` from `config`.
pub fn launch(
    endpoint: Arc<dyn Endpoint>,
    config: &ServiceConfig,
) -> Result<BedrockServer, BedrockError> {
    // Build the argos runtime.
    let mut rb = Runtime::builder();
    for p in &config.margo.argobots.pools {
        let kind = p.kind.as_str();
        if !matches!(kind, "fifo" | "fifo_wait" | "basic" | "basic_wait") {
            let msg = format!("unknown scheduler kind: {kind}");
            return Err(BedrockError::Invalid(msg));
        }
        rb = rb.pool(&p.name);
    }
    for x in &config.margo.argobots.xstreams {
        let pool_refs: Vec<&str> = x.pools.iter().map(|s| s.as_str()).collect();
        rb = rb.xstream(&x.name, &pool_refs);
    }
    let runtime = rb.build().map_err(BedrockError::Runtime)?;
    let margo = MargoInstance::new(endpoint, runtime, &config.margo.rpc_pool)
        .map_err(BedrockError::Margo)?;
    if let Some(ov) = &config.overload {
        margo.enable_admission(ov.admission());
    }
    let watermarks = config.overload.as_ref().and_then(|ov| ov.watermarks());
    let lsm_opts = match &config.lsm {
        Some(c) => c.options()?,
        None => lsmdb::Options::default(),
    };
    let yokan = YokanService::register(&margo);
    let mut providers = Vec::new();
    for p in &config.providers {
        yokan
            .add_provider(&margo, p.provider_id, &p.pool)
            .map_err(BedrockError::Margo)?;
        let mut names = Vec::new();
        for db in &p.databases {
            let backend: Arc<dyn yokan::Backend> = match db.kind {
                BackendKind::Map => match &watermarks {
                    Some(w) => Arc::new(MemBackend::new().with_watermarks(w.clone())),
                    None => Arc::new(MemBackend::new()),
                },
                BackendKind::Lsm => {
                    let path = db.path.as_ref().ok_or_else(|| {
                        BedrockError::Invalid(format!("database {} needs a path", db.name))
                    })?;
                    Arc::new(
                        LsmBackend::open_with(path, db_lsm_options(&db.name, &lsm_opts))
                            .map_err(|e| BedrockError::Backend(e.to_string()))?,
                    )
                }
            };
            yokan.add_database(p.provider_id, &db.name, backend);
            names.push(db.name.clone());
        }
        names.sort();
        providers.push(ProviderDescriptor {
            provider_id: p.provider_id,
            databases: names,
        });
    }
    providers.sort_by_key(|p| p.provider_id);
    // Persist the topology epoch beside the durable databases: a node
    // relaunched on the same data directory resumes at the epoch it had
    // installed, instead of coming back at epoch 1 and fencing every
    // current-epoch client until traffic re-teaches it.
    if let Some(dir) = config
        .providers
        .iter()
        .flat_map(|p| p.databases.iter())
        .filter_map(|db| db.path.as_ref().and_then(|path| path.parent()))
        .next()
    {
        let _ = std::fs::create_dir_all(dir);
        yokan.set_epoch_persistence(dir.join("topology_epoch"));
    }
    let replication = match &config.replication {
        Some(r) if r.factor > 1 => {
            yokan.set_forward_params(r.forward_params());
            Some(ReplicationDescriptor { factor: r.factor })
        }
        Some(_) | None => None,
    };
    let descriptor = ConnectionDescriptor {
        address: margo.address(),
        providers,
        replication,
    };
    Ok(BedrockServer {
        margo,
        yokan,
        descriptor,
    })
}

/// Every `(address, provider, database)` target a deployment serves.
pub fn deployment_targets(descriptors: &[ConnectionDescriptor]) -> Vec<yokan::DbTarget> {
    let mut targets = Vec::new();
    for d in descriptors {
        for p in &d.providers {
            for db in &p.databases {
                targets.push(yokan::DbTarget::new(d.address.clone(), p.provider_id, db));
            }
        }
    }
    targets
}

/// The deployment's replica chains: every database target grouped by name
/// and chained with the largest advertised replication factor (1 — i.e.
/// singleton chains — when no server advertises replication). Servers and
/// clients both derive their routing from this, so they agree without
/// coordination.
pub fn deployment_chains(descriptors: &[ConnectionDescriptor]) -> Vec<Vec<yokan::DbTarget>> {
    let factor = descriptors
        .iter()
        .filter_map(|d| d.replication.as_ref().map(|r| r.factor))
        .max()
        .unwrap_or(1);
    yokan::build_chains(&deployment_targets(descriptors), factor)
}

/// Install chain-forward routes on one server from the deployment's
/// descriptors. For every chain member hosted here, the successors are the
/// rest of the chain in circular order (so a promoted backup keeps
/// forwarding — degraded — toward the replaced head). Call it on every
/// server after all descriptors are known; re-calling with a changed
/// deployment replaces the routes.
pub fn wire_replication_node(server: &BedrockServer, descriptors: &[ConnectionDescriptor]) {
    let here = server.address();
    for chain in deployment_chains(descriptors) {
        if chain.len() < 2 {
            continue;
        }
        let n = chain.len();
        for (i, member) in chain.iter().enumerate() {
            if member.addr != here {
                continue;
            }
            let successors: Vec<yokan::DbTarget> =
                (1..n).map(|k| chain[(i + k) % n].clone()).collect();
            server
                .yokan()
                .set_forward_routes(member.provider_id, &member.db, &successors);
        }
    }
}

/// Wire chain-forward routes across a set of co-hosted servers (the
/// single-process deployment used by tests and benchmarks). Equivalent to
/// collecting every descriptor and calling [`wire_replication_node`] on
/// each server.
pub fn wire_replication(servers: &[&BedrockServer]) {
    let descriptors: Vec<ConnectionDescriptor> =
        servers.iter().map(|s| s.descriptor().clone()).collect();
    for s in servers {
        wire_replication_node(s, &descriptors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercurio::local::Fabric;
    use yokan::{DbTarget, YokanClient};

    /// A node serving only `events` event and `products` product
    /// databases: provider 0 is `events_0`.
    fn node(
        events: usize,
        products: usize,
        backend: BackendKind,
        data_dir: Option<PathBuf>,
    ) -> ServiceConfig {
        let counts = DbCounts {
            datasets: 0,
            runs: 0,
            subruns: 0,
            events,
            products,
        };
        ServiceConfig::hepnos_topology(counts, backend, data_dir)
    }

    #[test]
    fn hepnos_topology_matches_paper_shape() {
        let cfg = node(8, 8, BackendKind::Map, None);
        assert_eq!(cfg.providers.len(), 16);
        // one pool per provider + default
        assert_eq!(cfg.margo.argobots.pools.len(), 17);
        // one xstream per provider, each on its own pool then the shared
        // RPC pool, plus `es_rpc` on the RPC pool alone
        let xs = &cfg.margo.argobots.xstreams;
        assert_eq!(xs.len(), 17);
        assert_eq!(xs[0].name, "es_rpc");
        assert_eq!(xs[0].pools, ["default"]);
        for (x, p) in xs[1..].iter().zip(&cfg.providers) {
            assert_eq!(x.pools, [p.pool.as_str(), "default"]);
        }
        let event_dbs: Vec<_> = cfg
            .providers
            .iter()
            .flat_map(|p| &p.databases)
            .filter(|d| d.name.starts_with("events"))
            .collect();
        assert_eq!(event_dbs.len(), 8);
    }

    #[test]
    fn json_round_trip() {
        let cfg = node(2, 2, BackendKind::Map, None);
        let text = cfg.to_json();
        let parsed = ServiceConfig::from_json(&text).unwrap();
        assert_eq!(parsed.providers.len(), 4);
        assert_eq!(parsed.margo.rpc_pool, "default");
    }

    #[test]
    fn parse_handwritten_config() {
        let text = r#"{
            "margo": {
                "argobots": {
                    "pools": [{"name": "default", "kind": "fifo_wait"}],
                    "xstreams": [{"name": "es0", "pools": ["default"]}]
                },
                "rpc_pool": "default"
            },
            "providers": [{
                "name": "kv",
                "provider_id": 3,
                "pool": "default",
                "databases": [{"name": "events_0", "type": "map"}]
            }]
        }"#;
        let cfg = ServiceConfig::from_json(text).unwrap();
        assert_eq!(cfg.providers[0].provider_id, 3);
        assert_eq!(cfg.providers[0].databases[0].kind, BackendKind::Map);
    }

    /// Configs written when the schema had a `migration` section (with a
    /// nested `autoscale`) still parse, launch and serve: the section is
    /// skipped as an unknown field.
    #[test]
    fn config_with_migration_section_still_launches() {
        let text = r#"{
            "margo": {
                "argobots": {
                    "pools": [{"name": "default", "kind": "fifo_wait"}],
                    "xstreams": [{"name": "es0", "pools": ["default"]}]
                },
                "rpc_pool": "default"
            },
            "providers": [{
                "name": "kv",
                "provider_id": 0,
                "pool": "default",
                "databases": [{"name": "events_0", "type": "map"}]
            }],
            "migration": {
                "batch_keys": 64,
                "max_inflight_ranges": 2,
                "freeze_retry_ms": 10,
                "range_pause_ms": 1,
                "autoscale": {
                    "queue_hwm_trigger": 16,
                    "shed_rate_trigger": 0.05,
                    "stall_trigger": 8,
                    "sustain_intervals": 2,
                    "cooldown_secs": 30,
                    "drain_idle_secs": 120,
                    "min_nodes": 1
                }
            }
        }"#;
        let cfg = ServiceConfig::from_json(text).unwrap();
        assert_eq!(cfg.providers.len(), 1);
        let fabric = Fabric::new(Default::default());
        let server = launch(fabric.endpoint("node0"), &cfg).unwrap();
        let client = YokanClient::new(fabric.endpoint("client"));
        let t = DbTarget::new(server.address(), 0, "events_0");
        client.put(&t, b"k", b"v").unwrap();
        assert_eq!(client.get(&t, b"k").unwrap(), Some(b"v".to_vec()));
        server.shutdown();
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ServiceConfig::from_json("{not json").is_err());
        assert!(ServiceConfig::from_json("{}").is_err());
    }

    #[test]
    fn launch_and_serve() {
        let fabric = Fabric::new(Default::default());
        let cfg = node(2, 2, BackendKind::Map, None);
        let server = launch(fabric.endpoint("node0"), &cfg).unwrap();
        let desc = server.descriptor().clone();
        assert_eq!(desc.providers.len(), 4);
        assert_eq!(desc.address, server.address());
        let client = YokanClient::new(fabric.endpoint("client"));
        let t = DbTarget::new(desc.address.clone(), 0, "events_0");
        client.put(&t, b"k", b"v").unwrap();
        assert_eq!(client.get(&t, b"k").unwrap(), Some(b"v".to_vec()));
        // Database list matches the descriptor.
        let dbs = client.list_databases(&desc.address, 0).unwrap();
        assert_eq!(dbs, desc.providers[0].databases);
        server.shutdown();
    }

    #[test]
    fn launch_lsm_requires_path() {
        let fabric = Fabric::new(Default::default());
        let mut cfg = node(1, 0, BackendKind::Lsm, None);
        cfg.providers[0].databases[0].path = None;
        let err = launch(fabric.endpoint("n"), &cfg).unwrap_err();
        assert!(matches!(err, BedrockError::Invalid(_)));
    }

    #[test]
    fn launch_lsm_with_path_persists() {
        let dir = std::env::temp_dir().join(format!("bedrock-lsm-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let fabric = Fabric::new(Default::default());
        let cfg = node(1, 1, BackendKind::Lsm, Some(dir.clone()));
        let server = launch(fabric.endpoint("n"), &cfg).unwrap();
        let client = YokanClient::new(fabric.endpoint("c"));
        let t = DbTarget::new(server.address(), 0, "events_0");
        client.put(&t, b"persist", b"yes").unwrap();
        server.shutdown();
        let has_wal = std::fs::read_dir(dir.join("events_0"))
            .unwrap()
            .any(|e| e.unwrap().file_name().to_string_lossy().starts_with("wal-"));
        assert!(dir.join("events_0").join("MANIFEST").exists() || has_wal);
        // Relaunch on the same directory: the value must still be there.
        let server = launch(fabric.endpoint("n2"), &cfg).unwrap();
        let t = DbTarget::new(server.address(), 0, "events_0");
        assert_eq!(client.get(&t, b"persist").unwrap(), Some(b"yes".to_vec()));
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lsm_section_parses_tunes_and_rejects_bad_wal_sync() {
        let text = r#"{
            "margo": {
                "argobots": {
                    "pools": [{"name": "default", "kind": "fifo_wait"}],
                    "xstreams": [{"name": "es0", "pools": ["default"]}]
                }
            },
            "providers": [],
            "lsm": {"memtable_bytes": 4096, "wal_sync": "group"}
        }"#;
        let cfg = ServiceConfig::from_json(text).unwrap();
        let lsm = cfg.lsm.as_ref().unwrap();
        assert_eq!(lsm.memtable_bytes, 4096);
        let opts = lsm.options().unwrap();
        assert_eq!(opts.memtable_bytes, 4096);
        assert_eq!(opts.wal_sync, lsmdb::WalSync::Group);
        // Unset knobs keep engine defaults.
        assert_eq!(opts.max_levels, lsmdb::Options::default().max_levels);
        // Unknown wal_sync values are a config error, not a silent default.
        let bad = LsmConfig {
            wal_sync: "sometimes".into(),
            ..LsmConfig::default()
        };
        assert!(matches!(bad.options(), Err(BedrockError::Invalid(_))));
        // Configs without the section still parse (backward compatible).
        let old = node(1, 1, BackendKind::Map, None).to_json();
        assert!(ServiceConfig::from_json(&old).unwrap().lsm.is_none());
    }

    #[test]
    fn container_databases_open_partitioned_by_the_dataset_uuid() {
        let counts = DbCounts::default();
        let cfg = ServiceConfig::hepnos_topology(counts, BackendKind::Lsm, Some("/data".into()));
        let base = LsmConfig::default().options().unwrap();
        let mut partitioned = Vec::new();
        let mut unpartitioned = Vec::new();
        for db in cfg.providers.iter().flat_map(|p| &p.databases) {
            match db_lsm_options(&db.name, &base).partition_prefix_len {
                0 => unpartitioned.push(db.name.as_str()),
                DATASET_KEY_PREFIX_LEN => partitioned.push(db.name.as_str()),
                n => panic!("{} opens with a {n}-byte prefix", db.name),
            }
        }
        assert_eq!(unpartitioned, ["datasets_0"]);
        let groups: Vec<_> = partitioned
            .iter()
            .map(|n| DbGroup::of(n).unwrap())
            .collect();
        assert_eq!(partitioned.len(), 1 + 1 + 8 + 8, "{partitioned:?}");
        for g in &DbGroup::ALL[1..] {
            assert!(groups.contains(g), "{g:?} missing from {partitioned:?}");
        }
        // The rest of the tuning is the base's.
        let events = db_lsm_options("events_3", &base);
        assert_eq!(events.memtable_bytes, base.memtable_bytes);
        assert_eq!(DbGroup::of("subruns_0"), Some(DbGroup::Subruns));
        assert_eq!(DbGroup::of("runs_0"), Some(DbGroup::Runs));
        assert_eq!(DbGroup::of("catalog"), None);
        assert_eq!(db_lsm_options("catalog", &base).partition_prefix_len, 0);
    }

    #[test]
    fn launch_applies_lsm_tuning() {
        let dir = std::env::temp_dir().join(format!("bedrock-lsmtune-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let fabric = Fabric::new(Default::default());
        let mut cfg = node(1, 0, BackendKind::Lsm, Some(dir.clone()));
        cfg.lsm = Some(LsmConfig {
            memtable_bytes: 256, // tiny: a handful of puts forces flushes
            ..LsmConfig::default()
        });
        let server = launch(fabric.endpoint("n"), &cfg).unwrap();
        let client = YokanClient::new(fabric.endpoint("c"));
        let t = DbTarget::new(server.address(), 0, "events_0");
        for i in 0..50u32 {
            client
                .put(&t, format!("k{i:03}").as_bytes(), &[7u8; 32])
                .unwrap();
        }
        // The tiny memtable must have flushed — visible through stats once
        // the background worker has caught up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let all = server.yokan().backend_stats();
            let (_, _, stats) = all
                .iter()
                .find(|(pid, name, _)| *pid == 0 && name == "events_0")
                .expect("events_0 stats present");
            let lsm = stats.lsm.as_ref().expect("lsm stats present");
            if lsm.flushes > 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "tuned memtable size was not applied"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn descriptor_serializes_for_clients() {
        let fabric = Fabric::new(Default::default());
        let cfg = node(1, 1, BackendKind::Map, None);
        let server = launch(fabric.endpoint("node0"), &cfg).unwrap();
        let json = serde_json::to_string(server.descriptor()).unwrap();
        let parsed: ConnectionDescriptor = serde_json::from_str(&json).unwrap();
        assert_eq!(&parsed, server.descriptor());
        server.shutdown();
    }

    #[test]
    fn overload_section_parses_with_defaults() {
        let text = r#"{
            "margo": {
                "argobots": {
                    "pools": [{"name": "default", "kind": "fifo_wait"}],
                    "xstreams": [{"name": "es0", "pools": ["default"]}]
                }
            },
            "providers": [{
                "name": "kv",
                "provider_id": 0,
                "pool": "default",
                "databases": [{"name": "events_0", "type": "map"}]
            }],
            "overload": {"max_queued_per_provider": 4}
        }"#;
        let cfg = ServiceConfig::from_json(text).unwrap();
        let ov = cfg.overload.as_ref().unwrap();
        assert_eq!(ov.max_queued_per_provider, 4);
        assert_eq!(ov.retry_after_ms, 5);
        assert!(ov.watermarks().is_none(), "hard watermark defaults to off");
        // Configs without the section still parse (backward compatible).
        let old = node(1, 1, BackendKind::Map, None).to_json();
        assert!(ServiceConfig::from_json(&old).unwrap().overload.is_none());
    }

    #[test]
    fn overload_zero_queue_sheds_everything() {
        let fabric = Fabric::new(Default::default());
        let mut cfg = node(1, 0, BackendKind::Map, None);
        cfg.overload = Some(OverloadConfig {
            max_queued_per_provider: 0,
            ..Default::default()
        });
        let server = launch(fabric.endpoint("node0"), &cfg).unwrap();
        let client = YokanClient::new(fabric.endpoint("client"));
        let t = DbTarget::new(server.address(), 0, "events_0");
        let err = client.put(&t, b"k", b"v").unwrap_err();
        assert!(
            matches!(
                &err,
                yokan::YokanError::Rpc(mercurio::RpcError::Busy { .. })
            ),
            "expected Busy pushback, got {err:?}"
        );
        let stats = server.overload_stats();
        assert!(stats.shed_queue_full >= 1);
        assert_eq!(stats.admitted, 0);
        server.shutdown();
    }

    #[test]
    fn overload_watermarks_reach_backends() {
        let fabric = Fabric::new(Default::default());
        let mut cfg = node(1, 0, BackendKind::Map, None);
        cfg.overload = Some(OverloadConfig {
            hard_watermark_bytes: 64,
            ..Default::default()
        });
        let server = launch(fabric.endpoint("node0"), &cfg).unwrap();
        let client = YokanClient::new(fabric.endpoint("client"));
        let t = DbTarget::new(server.address(), 0, "events_0");
        client.put(&t, b"small", b"fits").unwrap();
        let err = client.put(&t, b"big", &[0u8; 256]).unwrap_err();
        assert!(
            matches!(
                &err,
                yokan::YokanError::Rpc(mercurio::RpcError::Busy { .. })
            ),
            "expected hard-watermark shed, got {err:?}"
        );
        server.shutdown();
    }

    #[test]
    fn replication_section_parses_with_defaults() {
        let text = r#"{
            "margo": {
                "argobots": {
                    "pools": [{"name": "default", "kind": "fifo_wait"}],
                    "xstreams": [{"name": "es0", "pools": ["default"]}]
                }
            },
            "providers": [],
            "replication": {}
        }"#;
        let cfg = ServiceConfig::from_json(text).unwrap();
        let r = cfg.replication.as_ref().unwrap();
        assert_eq!(r.factor, 2);
        assert_eq!(
            r.forward_params().timeout,
            yokan::ForwardParams::default().timeout
        );
        // Configs without the section still parse (backward compatible).
        let old = node(1, 1, BackendKind::Map, None).to_json();
        assert!(ServiceConfig::from_json(&old)
            .unwrap()
            .replication
            .is_none());
        // ...and so do descriptors that never heard of replication.
        let desc: ConnectionDescriptor =
            serde_json::from_str(r#"{"address": "n0", "providers": []}"#).unwrap();
        assert!(desc.replication.is_none());
    }

    #[test]
    fn launch_advertises_replication_factor() {
        let fabric = Fabric::new(Default::default());
        let mut cfg = node(1, 0, BackendKind::Map, None);
        cfg.replication = Some(ReplicationConfig::default());
        let server = launch(fabric.endpoint("node0"), &cfg).unwrap();
        assert_eq!(server.descriptor().replication.as_ref().unwrap().factor, 2);
        // factor 1 is not an advertisement.
        cfg.replication = Some(ReplicationConfig {
            factor: 1,
            ..Default::default()
        });
        let single = launch(fabric.endpoint("node1"), &cfg).unwrap();
        assert!(single.descriptor().replication.is_none());
        server.shutdown();
        single.shutdown();
    }

    #[test]
    fn wire_replication_forwards_mutations_to_both_replicas() {
        let fabric = Fabric::new(Default::default());
        let mut cfg = node(2, 0, BackendKind::Map, None);
        cfg.replication = Some(ReplicationConfig::default());
        let s0 = launch(fabric.endpoint("node0"), &cfg).unwrap();
        let s1 = launch(fabric.endpoint("node1"), &cfg).unwrap();
        wire_replication(&[&s0, &s1]);
        let descriptors = vec![s0.descriptor().clone(), s1.descriptor().clone()];
        let chains = deployment_chains(&descriptors);
        assert_eq!(chains.len(), 2, "one chain per logical database");
        for c in &chains {
            assert_eq!(c.len(), 2);
        }
        // A routed client writes through the chain head...
        let client = YokanClient::new(fabric.endpoint("client"));
        client.install_replica_routes(&chains);
        let head = chains[0][0].clone();
        client.put(&head, b"k", b"v").unwrap();
        // ...and a raw (un-routed) client sees the value on every replica.
        let raw = YokanClient::new(fabric.endpoint("raw"));
        for replica in &chains[0] {
            assert_eq!(
                raw.get(replica, b"k").unwrap(),
                Some(b"v".to_vec()),
                "replica {replica:?} missing the forwarded value"
            );
        }
        let fwd = s0.yokan().forward_stats();
        let fwd1 = s1.yokan().forward_stats();
        assert_eq!(
            fwd.forwards_sent + fwd1.forwards_sent,
            1,
            "exactly one chain hop for one mutation"
        );
        s0.shutdown();
        s1.shutdown();
    }

    #[test]
    fn invalid_scheduler_kind_rejected() {
        let fabric = Fabric::new(Default::default());
        for kind in ["quantum", "prio_wait"] {
            let mut cfg = node(1, 0, BackendKind::Map, None);
            cfg.margo.argobots.pools[0].kind = kind.into();
            let err = launch(fabric.endpoint(&format!("x-{kind}")), &cfg).unwrap_err();
            assert!(matches!(err, BedrockError::Invalid(_)), "{kind}");
        }
    }

    #[test]
    fn every_fifo_scheduler_kind_launches() {
        let fabric = Fabric::new(Default::default());
        for kind in ["fifo", "fifo_wait", "basic", "basic_wait"] {
            let mut cfg = node(1, 0, BackendKind::Map, None);
            for p in &mut cfg.margo.argobots.pools {
                p.kind = kind.into();
            }
            let server = launch(fabric.endpoint(&format!("fifo-{kind}")), &cfg).unwrap();
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod topology_tests {
    use super::*;
    use mercurio::local::Fabric;

    #[test]
    fn hepnos_topology_covers_all_kinds() {
        let counts = DbCounts::default();
        let cfg = ServiceConfig::hepnos_topology(counts, BackendKind::Map, None);
        assert_eq!(cfg.providers.len(), 1 + 1 + 1 + 8 + 8);
        let names: Vec<&str> = cfg
            .providers
            .iter()
            .flat_map(|p| &p.databases)
            .map(|d| d.name.as_str())
            .collect();
        assert!(names.contains(&"datasets_0"));
        assert!(names.contains(&"runs_0"));
        assert!(names.contains(&"subruns_0"));
        assert!(names.contains(&"events_7"));
        assert!(names.contains(&"products_7"));
    }

    #[test]
    fn hepnos_topology_launches() {
        let fabric = Fabric::new(Default::default());
        let counts = DbCounts {
            datasets: 1,
            runs: 1,
            subruns: 1,
            events: 2,
            products: 2,
        };
        let cfg = ServiceConfig::hepnos_topology(counts, BackendKind::Map, None);
        let server = launch(fabric.endpoint("node0"), &cfg).unwrap();
        assert_eq!(server.descriptor().providers.len(), 7);
        server.shutdown();
    }
}
