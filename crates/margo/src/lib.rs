//! `margo` — the glue combining [`argos`] tasking with [`mercurio`] RPC,
//! modeled after Mochi's Margo library.
//!
//! Margo's job in the Mochi stack is small but central: every incoming RPC
//! is pushed into the Argobots pool associated with the *provider* it
//! targets, so that the compute resources executing an RPC (an execution
//! stream) are decoupled from the data resources the RPC touches (a
//! database owned by the provider). HEPnOS relies on this to map its 16
//! Yokan providers to 16 dedicated execution streams per server node
//! (paper §IV-D).
//!
//! [`MargoInstance`] owns a mercurio endpoint and an argos runtime, installs
//! an executor that routes `(rpc_id, provider_id)` to the right pool, and
//! tears everything down in order on [`MargoInstance::finalize`].
//!
//! # Example
//!
//! ```
//! use margo::MargoInstance;
//! use mercurio::{local::Fabric, Endpoint, RpcId};
//! use bytes::Bytes;
//! use std::sync::Arc;
//!
//! let fabric = Fabric::new(Default::default());
//! let rt = argos::Runtime::builder()
//!     .pool("default")
//!     .pool("db")
//!     .xstream("es0", &["default", "db"])
//!     .build()
//!     .unwrap();
//! let server = MargoInstance::new(fabric.endpoint("server"), rt, "default").unwrap();
//! server.assign_provider_pool(1, "db").unwrap();
//! server.register_rpc(RpcId(10), Arc::new(|req: mercurio::Request| {
//!     Ok(req.payload)
//! }));
//!
//! let client = fabric.endpoint("client");
//! let out = client
//!     .call(&server.address(), RpcId(10), 1, Bytes::from_static(b"hi"))
//!     .unwrap();
//! assert_eq!(&out[..], b"hi");
//! server.finalize();
//! ```

#![warn(missing_docs)]

use argos::{Pool, Runtime};
use bytes::Bytes;
use mercurio::{
    Admission, AdmissionControl, Endpoint, PendingResponse, RpcError, RpcHandler, RpcId,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Errors raised while configuring a [`MargoInstance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MargoError {
    /// The named pool does not exist in the runtime.
    UnknownPool(String),
    /// A provider id was assigned twice.
    ProviderExists(u16),
}

impl fmt::Display for MargoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MargoError::UnknownPool(p) => write!(f, "unknown pool: {p}"),
            MargoError::ProviderExists(id) => write!(f, "provider {id} already assigned"),
        }
    }
}

impl std::error::Error for MargoError {}

struct Routes {
    by_provider: HashMap<u16, Pool>,
    default: Pool,
}

/// Overload-protection policy of a [`MargoInstance`] (see
/// [`MargoInstance::enable_admission`]).
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Bound on admitted-but-unfinished requests per provider; request
    /// number `bound + 1` is shed with [`RpcError::Busy`] instead of being
    /// queued.
    pub max_queued_per_provider: usize,
    /// Maximum time a request may wait in its pool before execution; a
    /// request starting later than this is shed instead of executed
    /// (deadline-aware shedding). `None` disables the check.
    pub max_queue_delay: Option<Duration>,
    /// Backoff hint carried in every [`RpcError::Busy`] this instance emits.
    pub retry_after_hint: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_queued_per_provider: 1024,
            max_queue_delay: None,
            retry_after_hint: Duration::from_millis(5),
        }
    }
}

/// Overload counters of a [`MargoInstance`] with admission control enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Requests admitted past the queue bound check.
    pub admitted: u64,
    /// Requests shed because their provider's admission queue was full.
    pub shed_queue_full: u64,
    /// Requests shed at the front of the pool because they queued past the
    /// configured delay bound.
    pub shed_deadline: u64,
    /// High-water mark of any single provider's admission-queue depth.
    pub queue_depth_hwm: u64,
}

impl OverloadStats {
    /// Total requests shed (queue-full + deadline).
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline
    }

    /// Fold another instance's counters into this one (counters add, the
    /// high-water mark takes the max).
    pub fn merge(&mut self, other: &OverloadStats) {
        self.admitted += other.admitted;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_deadline += other.shed_deadline;
        self.queue_depth_hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
    }
}

#[derive(Default)]
struct ProviderGate {
    inflight: AtomicI64,
}

/// [`AdmissionControl`] implementation backing
/// [`MargoInstance::enable_admission`]: a bounded admission queue per
/// provider plus an optional queue-delay deadline.
struct MargoAdmission {
    cfg: AdmissionConfig,
    gates: RwLock<HashMap<u16, Arc<ProviderGate>>>,
    admitted: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_deadline: AtomicU64,
    queue_depth_hwm: AtomicU64,
}

impl MargoAdmission {
    fn new(cfg: AdmissionConfig) -> MargoAdmission {
        MargoAdmission {
            cfg,
            gates: RwLock::new(HashMap::new()),
            admitted: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            queue_depth_hwm: AtomicU64::new(0),
        }
    }

    fn gate(&self, provider_id: u16) -> Arc<ProviderGate> {
        if let Some(g) = self.gates.read().get(&provider_id) {
            return Arc::clone(g);
        }
        Arc::clone(self.gates.write().entry(provider_id).or_default())
    }

    fn snapshot(&self) -> OverloadStats {
        OverloadStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            queue_depth_hwm: self.queue_depth_hwm.load(Ordering::Relaxed),
        }
    }
}

impl AdmissionControl for MargoAdmission {
    fn admit(&self, _rpc_id: RpcId, provider_id: u16) -> Admission {
        let gate = self.gate(provider_id);
        let depth = gate.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        if depth as usize > self.cfg.max_queued_per_provider {
            gate.inflight.fetch_sub(1, Ordering::AcqRel);
            self.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            return Admission::Shed {
                retry_after: self.cfg.retry_after_hint,
            };
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth_hwm
            .fetch_max(depth as u64, Ordering::Relaxed);
        Admission::Admit
    }

    fn begin(&self, _rpc_id: RpcId, _provider_id: u16, queued: Duration) -> Admission {
        if self.cfg.max_queue_delay.is_some_and(|max| queued > max) {
            self.shed_deadline.fetch_add(1, Ordering::Relaxed);
            return Admission::Shed {
                retry_after: self.cfg.retry_after_hint,
            };
        }
        Admission::Admit
    }

    fn complete(&self, _rpc_id: RpcId, provider_id: u16) {
        let prev = self
            .gate(provider_id)
            .inflight
            .fetch_sub(1, Ordering::AcqRel);
        // Exactly-once accounting: a release without a matching admit means
        // a transport answered (or dropped) one request twice.
        debug_assert!(
            prev > 0,
            "admission slot of provider {provider_id} released twice"
        );
    }
}

/// Accumulated service time of one RPC id.
#[derive(Debug, Clone, Copy, Default)]
pub struct RpcTiming {
    /// Invocations handled.
    pub count: u64,
    /// Summed handler execution time.
    pub total: std::time::Duration,
    /// Worst single invocation.
    pub max: std::time::Duration,
}

impl RpcTiming {
    /// Mean handler time per invocation.
    pub fn mean(&self) -> std::time::Duration {
        if self.count == 0 {
            std::time::Duration::ZERO
        } else {
            self.total / self.count as u32
        }
    }
}

type TimingTable = Arc<RwLock<HashMap<u16, RpcTiming>>>;

/// A Margo instance: one endpoint + one runtime + the routing table between
/// them.
pub struct MargoInstance {
    endpoint: Arc<dyn Endpoint>,
    runtime: Runtime,
    routes: Arc<RwLock<Routes>>,
    timings: TimingTable,
    admission: RwLock<Option<Arc<MargoAdmission>>>,
}

impl fmt::Debug for MargoInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MargoInstance")
            .field("address", &self.endpoint.address())
            .field("runtime", &self.runtime)
            .finish()
    }
}

impl MargoInstance {
    /// Wrap `endpoint` and `runtime`, dispatching RPCs of unassigned
    /// providers into `default_pool`.
    pub fn new(
        endpoint: Arc<dyn Endpoint>,
        runtime: Runtime,
        default_pool: &str,
    ) -> Result<MargoInstance, MargoError> {
        let default = runtime
            .pool(default_pool)
            .ok_or_else(|| MargoError::UnknownPool(default_pool.to_string()))?;
        let routes = Arc::new(RwLock::new(Routes {
            by_provider: HashMap::new(),
            default,
        }));
        let timings: TimingTable = Arc::new(RwLock::new(HashMap::new()));
        let r2 = Arc::clone(&routes);
        let t2 = Arc::clone(&timings);
        endpoint.set_executor(Arc::new(move |rpc_id, provider_id, job| {
            // Time every handler execution, keyed by RPC id — the per-RPC
            // breakdown SymbioMon-style monitoring exposes.
            let t3 = Arc::clone(&t2);
            let timed_job: Box<dyn FnOnce() + Send> = Box::new(move || {
                let start = std::time::Instant::now();
                job();
                let elapsed = start.elapsed();
                let mut table = t3.write();
                let entry = table.entry(rpc_id.0).or_default();
                entry.count += 1;
                entry.total += elapsed;
                entry.max = entry.max.max(elapsed);
            });
            let routes = r2.read();
            let pool = routes
                .by_provider
                .get(&provider_id)
                .unwrap_or(&routes.default);
            if pool.is_closed() {
                // Finalizing: run inline rather than panic on a closed pool;
                // the handler will observe shutdown state itself.
                drop(routes);
                timed_job();
            } else {
                pool.push(timed_job);
            }
        }));
        Ok(MargoInstance {
            endpoint,
            runtime,
            routes,
            timings,
            admission: RwLock::new(None),
        })
    }

    /// Turn on overload protection: bounded per-provider admission queues
    /// with deadline-aware shedding. Over-bound or overdue requests are
    /// answered [`RpcError::Busy`] (carrying
    /// [`AdmissionConfig::retry_after_hint`]) instead of queueing without
    /// bound. Replaces any previously installed policy.
    pub fn enable_admission(&self, cfg: AdmissionConfig) {
        let ctrl = Arc::new(MargoAdmission::new(cfg));
        self.endpoint.set_admission(Some(Arc::clone(&ctrl) as _));
        *self.admission.write() = Some(ctrl);
    }

    /// Overload counters; all-zero when admission control is disabled.
    pub fn overload_stats(&self) -> OverloadStats {
        self.admission
            .read()
            .as_ref()
            .map(|a| a.snapshot())
            .unwrap_or_default()
    }

    /// Route RPCs targeting `provider_id` into the named pool. This is the
    /// Bedrock `provider → pool` mapping.
    pub fn assign_provider_pool(&self, provider_id: u16, pool: &str) -> Result<(), MargoError> {
        let p = self
            .runtime
            .pool(pool)
            .ok_or_else(|| MargoError::UnknownPool(pool.to_string()))?;
        let mut routes = self.routes.write();
        if routes.by_provider.contains_key(&provider_id) {
            return Err(MargoError::ProviderExists(provider_id));
        }
        routes.by_provider.insert(provider_id, p);
        Ok(())
    }

    /// Register an RPC handler on the underlying endpoint.
    pub fn register_rpc(&self, id: RpcId, handler: Arc<dyn RpcHandler>) {
        self.endpoint.register(id, handler);
    }

    /// This instance's routable address.
    pub fn address(&self) -> String {
        self.endpoint.address()
    }

    /// The underlying endpoint (for calls and traffic counters).
    pub fn endpoint(&self) -> &Arc<dyn Endpoint> {
        &self.endpoint
    }

    /// The underlying runtime (for spawning background tasks).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Issue a blocking call (`margo_forward` analogue).
    pub fn forward(
        &self,
        target: &str,
        id: RpcId,
        provider_id: u16,
        payload: Bytes,
    ) -> Result<Bytes, RpcError> {
        self.endpoint.call(target, id, provider_id, payload)
    }

    /// Issue an asynchronous call (`margo_iforward` analogue).
    pub fn iforward(
        &self,
        target: &str,
        id: RpcId,
        provider_id: u16,
        payload: Bytes,
    ) -> PendingResponse {
        self.endpoint.call_async(target, id, provider_id, payload)
    }

    /// Shut down the endpoint, drain the pools, and join all xstreams.
    pub fn finalize(self) {
        self.endpoint.shutdown();
        self.runtime.shutdown();
    }

    /// A monitoring snapshot of this instance — network traffic and pool
    /// activity. The paper's ecosystem does this with the SymbioMon
    /// component [Ramesh et al., HiPC'21], which the authors credit for
    /// diagnosing the performance problems that led to HEPnOS's batching
    /// and parallel-event-processing optimizations (§V).
    pub fn stats(&self) -> InstanceStats {
        let mut pools = Vec::new();
        for name in self.runtime.pool_names() {
            if let Some(p) = self.runtime.pool(&name) {
                pools.push((name, p.stats()));
            }
        }
        InstanceStats {
            endpoint: self.endpoint.stats(),
            pools,
            overload: self.overload_stats(),
        }
    }

    /// Per-RPC-id service timings (count, total, max), sorted by id.
    pub fn rpc_timings(&self) -> Vec<(RpcId, RpcTiming)> {
        let mut v: Vec<(RpcId, RpcTiming)> = self
            .timings
            .read()
            .iter()
            .map(|(&id, &t)| (RpcId(id), t))
            .collect();
        v.sort_by_key(|(id, _)| id.0);
        v
    }
}

/// Monitoring snapshot of a [`MargoInstance`].
#[derive(Debug, Clone)]
pub struct InstanceStats {
    /// Network-level counters of the underlying endpoint.
    pub endpoint: mercurio::EndpointStats,
    /// `(pool name, counters)` for every pool, sorted by name.
    pub pools: Vec<(String, argos::PoolStats)>,
    /// Overload counters (all-zero when admission control is disabled).
    pub overload: OverloadStats,
}

impl InstanceStats {
    /// Total tasks executed across all pools.
    pub fn total_tasks(&self) -> u64 {
        self.pools.iter().map(|(_, s)| s.popped).sum()
    }

    /// The busiest pool by executed tasks, if any.
    pub fn busiest_pool(&self) -> Option<&str> {
        self.pools
            .iter()
            .max_by_key(|(_, s)| s.popped)
            .map(|(n, _)| n.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercurio::local::Fabric;
    use mercurio::Request;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn rt_two_pools() -> Runtime {
        Runtime::builder()
            .pool("default")
            .pool("db")
            .xstream("es0", &["default"])
            .xstream("es1", &["db"])
            .build()
            .unwrap()
    }

    #[test]
    fn dispatches_into_provider_pool() {
        let fabric = Fabric::new(Default::default());
        let rt = rt_two_pools();
        let db_pool = rt.pool("db").unwrap();
        let inst = MargoInstance::new(fabric.endpoint("s"), rt, "default").unwrap();
        inst.assign_provider_pool(7, "db").unwrap();
        inst.register_rpc(
            RpcId(1),
            Arc::new(|_req: Request| Ok(Bytes::from_static(b"done"))),
        );
        let client = fabric.endpoint("c");
        let out = client
            .call(&inst.address(), RpcId(1), 7, Bytes::new())
            .unwrap();
        assert_eq!(&out[..], b"done");
        // The db pool saw the work; the default pool did not.
        assert_eq!(db_pool.stats().popped, 1);
        inst.finalize();
    }

    #[test]
    fn unassigned_provider_uses_default_pool() {
        let fabric = Fabric::new(Default::default());
        let rt = rt_two_pools();
        let default_pool = rt.pool("default").unwrap();
        let inst = MargoInstance::new(fabric.endpoint("s"), rt, "default").unwrap();
        inst.register_rpc(RpcId(1), Arc::new(|req: Request| Ok(req.payload)));
        let client = fabric.endpoint("c");
        client
            .call(&inst.address(), RpcId(1), 99, Bytes::new())
            .unwrap();
        assert_eq!(default_pool.stats().popped, 1);
        inst.finalize();
    }

    #[test]
    fn rejects_unknown_pool() {
        let fabric = Fabric::new(Default::default());
        let rt = rt_two_pools();
        assert_eq!(
            MargoInstance::new(fabric.endpoint("x"), rt.clone(), "nope").unwrap_err(),
            MargoError::UnknownPool("nope".into())
        );
        let inst = MargoInstance::new(fabric.endpoint("s"), rt, "default").unwrap();
        assert_eq!(
            inst.assign_provider_pool(1, "missing").unwrap_err(),
            MargoError::UnknownPool("missing".into())
        );
        inst.finalize();
    }

    #[test]
    fn rejects_duplicate_provider() {
        let fabric = Fabric::new(Default::default());
        let inst = MargoInstance::new(fabric.endpoint("s"), rt_two_pools(), "default").unwrap();
        inst.assign_provider_pool(1, "db").unwrap();
        assert_eq!(
            inst.assign_provider_pool(1, "db").unwrap_err(),
            MargoError::ProviderExists(1)
        );
        inst.finalize();
    }

    #[test]
    fn concurrent_rpcs_across_providers() {
        let fabric = Fabric::new(Default::default());
        let rt = Runtime::builder()
            .pool("default")
            .pool("p0")
            .pool("p1")
            .xstream("e0", &["p0", "default"])
            .xstream("e1", &["p1", "default"])
            .build()
            .unwrap();
        let inst = MargoInstance::new(fabric.endpoint("s"), rt, "default").unwrap();
        inst.assign_provider_pool(0, "p0").unwrap();
        inst.assign_provider_pool(1, "p1").unwrap();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        inst.register_rpc(
            RpcId(1),
            Arc::new(move |_req: Request| {
                c2.fetch_add(1, Ordering::SeqCst);
                Ok(Bytes::new())
            }),
        );
        let client = fabric.endpoint("c");
        let pending: Vec<_> = (0..40)
            .map(|i| client.call_async(&inst.address(), RpcId(1), (i % 2) as u16, Bytes::new()))
            .collect();
        for p in pending {
            p.wait().unwrap();
        }
        assert_eq!(count.load(Ordering::SeqCst), 40);
        inst.finalize();
    }

    #[test]
    fn admission_queue_bound_sheds_excess() {
        let fabric = Fabric::new(Default::default());
        let inst = MargoInstance::new(fabric.endpoint("s"), rt_two_pools(), "default").unwrap();
        inst.enable_admission(AdmissionConfig {
            max_queued_per_provider: 1,
            retry_after_hint: Duration::from_millis(4),
            ..Default::default()
        });
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let r2 = Arc::clone(&release);
        inst.register_rpc(
            RpcId(1),
            Arc::new(move |_req: Request| {
                while !r2.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(100));
                }
                Ok(Bytes::new())
            }),
        );
        let client = fabric.endpoint("c");
        // First call occupies the single admission slot (the handler holds
        // it until released)...
        let first = client.call_async(&inst.address(), RpcId(1), 0, Bytes::new());
        // ...so the second is shed at the door with the configured hint.
        let err = client
            .call(&inst.address(), RpcId(1), 0, Bytes::new())
            .unwrap_err();
        assert_eq!(
            err,
            mercurio::RpcError::Busy {
                retry_after: Duration::from_millis(4)
            }
        );
        release.store(true, Ordering::SeqCst);
        first.wait().unwrap();
        let stats = inst.overload_stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.shed_queue_full, 1);
        assert_eq!(stats.shed(), 1);
        assert_eq!(stats.queue_depth_hwm, 1);
        // The slot was released: the next call is admitted again.
        client
            .call(&inst.address(), RpcId(1), 0, Bytes::new())
            .unwrap();
        assert_eq!(inst.overload_stats().admitted, 2);
        assert_eq!(inst.stats().overload.shed(), 1);
        inst.finalize();
    }

    #[test]
    fn admission_deadline_sheds_stale_requests() {
        let fabric = Fabric::new(Default::default());
        let inst = MargoInstance::new(fabric.endpoint("s"), rt_two_pools(), "default").unwrap();
        inst.enable_admission(AdmissionConfig {
            max_queue_delay: Some(Duration::ZERO),
            retry_after_hint: Duration::from_millis(2),
            ..Default::default()
        });
        inst.register_rpc(RpcId(1), Arc::new(|req: Request| Ok(req.payload)));
        let client = fabric.endpoint("c");
        // Any measurable queue delay exceeds a zero deadline: the request is
        // admitted but shed at the pool front, through the normal reply path.
        let err = client
            .call(&inst.address(), RpcId(1), 0, Bytes::new())
            .unwrap_err();
        assert_eq!(
            err,
            mercurio::RpcError::Busy {
                retry_after: Duration::from_millis(2)
            }
        );
        let stats = inst.overload_stats();
        assert_eq!(stats.shed_deadline, 1);
        assert_eq!(stats.admitted, 1);
        inst.finalize();
    }

    #[test]
    fn rpc_timings_record_per_id_service_time() {
        let fabric = Fabric::new(Default::default());
        let inst = MargoInstance::new(fabric.endpoint("s"), Runtime::simple(1), "default").unwrap();
        inst.register_rpc(RpcId(1), Arc::new(|req: Request| Ok(req.payload)));
        inst.register_rpc(
            RpcId(2),
            Arc::new(|_req: Request| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                Ok(Bytes::new())
            }),
        );
        let client = fabric.endpoint("c");
        for _ in 0..3 {
            client
                .call(&inst.address(), RpcId(1), 0, Bytes::new())
                .unwrap();
        }
        client
            .call(&inst.address(), RpcId(2), 0, Bytes::new())
            .unwrap();
        // Timing entries are written after the response is delivered; give
        // the pool thread a moment to finish the bookkeeping.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while std::time::Instant::now() < deadline {
            let t = inst.rpc_timings();
            if t.len() == 2 && t[0].1.count == 3 {
                break;
            }
            std::thread::yield_now();
        }
        let timings = inst.rpc_timings();
        assert_eq!(timings.len(), 2);
        let (id1, t1) = timings[0];
        let (id2, t2) = timings[1];
        assert_eq!((id1, id2), (RpcId(1), RpcId(2)));
        assert_eq!(t1.count, 3);
        assert_eq!(t2.count, 1);
        assert!(t2.mean() >= std::time::Duration::from_millis(5));
        assert!(t2.max >= t2.mean());
        inst.finalize();
    }

    #[test]
    fn stats_expose_traffic_and_pool_activity() {
        let fabric = Fabric::new(Default::default());
        let rt = rt_two_pools();
        let inst = MargoInstance::new(fabric.endpoint("s"), rt, "default").unwrap();
        inst.assign_provider_pool(1, "db").unwrap();
        inst.register_rpc(RpcId(1), Arc::new(|req: Request| Ok(req.payload)));
        let client = fabric.endpoint("c");
        for _ in 0..5 {
            client
                .call(&inst.address(), RpcId(1), 1, Bytes::from_static(b"x"))
                .unwrap();
        }
        let stats = inst.stats();
        assert_eq!(stats.endpoint.requests_received, 5);
        assert_eq!(stats.total_tasks(), 5);
        assert_eq!(stats.busiest_pool(), Some("db"));
        inst.finalize();
    }

    #[test]
    fn forward_and_iforward() {
        let fabric = Fabric::new(Default::default());
        let s = MargoInstance::new(fabric.endpoint("s"), Runtime::simple(1), "default").unwrap();
        s.register_rpc(RpcId(1), Arc::new(|req: Request| Ok(req.payload)));
        let c = MargoInstance::new(fabric.endpoint("c"), Runtime::simple(1), "default").unwrap();
        let out = c
            .forward(&s.address(), RpcId(1), 0, Bytes::from_static(b"a"))
            .unwrap();
        assert_eq!(&out[..], b"a");
        let p = c.iforward(&s.address(), RpcId(1), 0, Bytes::from_static(b"b"));
        assert_eq!(&p.wait().unwrap()[..], b"b");
        c.finalize();
        s.finalize();
    }
}
