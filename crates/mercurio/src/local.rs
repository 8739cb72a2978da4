//! In-process transport: endpoints routed through a shared [`Fabric`] under
//! a configurable [`NetworkModel`].
//!
//! This is the substitute for Mercury-over-uGNI on the Cray Aries fabric:
//! every "node" of a simulated deployment creates one endpoint on a common
//! fabric, and the model injects per-message latency and per-NIC
//! injection-bandwidth accounting (optionally failing on saturation, as the
//! Aries NIC did in the paper's runs).
//!
//! There is one send path: every frame is charged to the sending
//! endpoint's injection gauge, counted, and delivered — inline on an ideal
//! fabric, through the fabric's delay line when the model has latency.

use crate::core::{FaultSlot, Link, RpcCore};
use crate::endpoint::{
    AdmissionControl, Endpoint, EndpointStats, Executor, PendingResponse, RpcHandler,
};
use crate::error::RpcError;
use crate::fault::FaultPlan;
use crate::model::{InjectionGauge, NetworkModel};
use crate::wire::{Frame, RpcId};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Address scheme prefix for the local transport.
pub const SCHEME: &str = "local://";

type DeliveryFn = Box<dyn FnOnce() + Send + 'static>;

struct DelayItem {
    due: Instant,
    seq: u64,
    run: DeliveryFn,
}

impl PartialEq for DelayItem {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for DelayItem {}
impl PartialOrd for DelayItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DelayItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by due time (BinaryHeap is a max-heap).
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct DelayLine {
    queue: Mutex<BinaryHeap<DelayItem>>,
    cond: Condvar,
    stop: AtomicBool,
    seq: AtomicU64,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl DelayLine {
    fn start() -> Arc<DelayLine> {
        let line = Arc::new(DelayLine {
            queue: Mutex::new(BinaryHeap::new()),
            cond: Condvar::new(),
            stop: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            handle: Mutex::new(None),
        });
        let l2 = Arc::clone(&line);
        let h = std::thread::Builder::new()
            .name("mercurio-delay".into())
            .spawn(move || l2.run())
            .expect("failed to spawn delay-line thread");
        *line.handle.lock() = Some(h);
        line
    }

    /// Run `run` after `delay` — or now, inline, once the line is stopped,
    /// so a frame sent during teardown is delivered instead of stranded.
    fn schedule(&self, delay: Duration, run: DeliveryFn) {
        let mut q = self.queue.lock();
        if self.stop.load(Ordering::Acquire) {
            drop(q);
            run();
            return;
        }
        q.push(DelayItem {
            due: Instant::now() + delay,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            run,
        });
        drop(q);
        self.cond.notify_one();
    }

    fn run(&self) {
        let mut q = self.queue.lock();
        loop {
            let now = Instant::now();
            while q.peek().is_some_and(|i| i.due <= now) {
                let item = q.pop().expect("peeked item must pop");
                drop(q);
                (item.run)();
                q = self.queue.lock();
            }
            if self.stop.load(Ordering::Acquire) && q.is_empty() {
                return;
            }
            match q.peek().map(|i| i.due) {
                Some(due) => {
                    self.cond.wait_until(&mut q, due);
                }
                None => {
                    self.cond.wait_for(&mut q, Duration::from_millis(50));
                }
            }
        }
    }

    fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.cond.notify_all();
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }
}

struct EndpointInner {
    core: Arc<RpcCore>,
    gauge: InjectionGauge,
}

/// The fabric route from one endpoint to another: frames leave through
/// `from`'s NIC and are received by `to`.
#[derive(Clone)]
struct LocalLink {
    from: Arc<EndpointInner>,
    to: Arc<EndpointInner>,
    fabric: Arc<FabricInner>,
}

impl Link for LocalLink {
    fn peer(&self) -> &str {
        &self.to.core.addr
    }

    fn send(&self, frame: Frame) -> Result<(), RpcError> {
        // The local transport hands frames over without encoding them, but
        // charges and counts them at their encoded size.
        let len = frame.encoded_len();
        let ok = self.from.gauge.inject(len);
        let counters = &self.from.core.counters;
        counters.frames_sent.fetch_add(1, Ordering::Relaxed);
        counters.wire_writes.fetch_add(1, Ordering::Relaxed);
        if !ok && self.fabric.model.fail_on_saturation {
            // A frame the NIC cannot send fails the call it belongs to: the
            // sender's own for a request, the peer's for a response.
            let (waiter, req_id) = match &frame {
                Frame::Request { req_id, .. } => (&self.from.core, *req_id),
                Frame::Response { req_id, .. } => (&self.to.core, *req_id),
            };
            waiter.complete(req_id, Err(RpcError::NetworkSaturated));
            return Ok(());
        }
        let back = LocalLink {
            from: Arc::clone(&self.to),
            to: Arc::clone(&self.from),
            fabric: Arc::clone(&self.fabric),
        };
        self.fabric
            .deliver(Box::new(move || back.from.core.receive(frame, len, &back)));
        Ok(())
    }
}

struct FabricInner {
    model: NetworkModel,
    endpoints: RwLock<HashMap<String, Arc<EndpointInner>>>,
    delay: Option<Arc<DelayLine>>,
    fault: FaultSlot,
}

/// An in-process network shared by a set of [`LocalEndpoint`]s.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl Fabric {
    /// Create a fabric with the given network model. [`NetworkModel::default`]
    /// gives an ideal network with synchronous delivery.
    pub fn new(model: NetworkModel) -> Fabric {
        let delay = if model.is_ideal() {
            None
        } else {
            Some(DelayLine::start())
        };
        Fabric {
            inner: Arc::new(FabricInner {
                model,
                endpoints: RwLock::new(HashMap::new()),
                delay,
                fault: FaultSlot::default(),
            }),
        }
    }

    /// The fabric's network model.
    pub fn model(&self) -> &NetworkModel {
        &self.inner.model
    }

    /// Create and register an endpoint named `name` (address
    /// `local://<name>`).
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken — endpoint identity must be
    /// unambiguous on a fabric.
    pub fn endpoint(&self, name: &str) -> Arc<LocalEndpoint> {
        let addr = format!("{SCHEME}{name}");
        let inner = Arc::new(EndpointInner {
            core: RpcCore::new(addr.clone(), Arc::clone(&self.inner.fault)),
            gauge: InjectionGauge::new(&self.inner.model),
        });
        let mut eps = self.inner.endpoints.write();
        assert!(
            !eps.contains_key(&addr),
            "endpoint name already registered: {addr}"
        );
        eps.insert(addr, Arc::clone(&inner));
        drop(eps);
        Arc::new(LocalEndpoint {
            inner,
            fabric: Arc::clone(&self.inner),
        })
    }

    /// Addresses of all registered endpoints.
    pub fn addresses(&self) -> Vec<String> {
        let mut v: Vec<_> = self.inner.endpoints.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Stop the delay-line thread (if any); frames sent afterwards are
    /// delivered inline, without latency. Normally called at teardown.
    pub fn stop(&self) {
        if let Some(d) = &self.inner.delay {
            d.stop();
        }
    }

    /// Whether an endpoint with this address is currently registered.
    pub fn is_registered(&self, addr: &str) -> bool {
        self.inner.endpoints.read().contains_key(addr)
    }

    /// Install a [`FaultPlan`] applied to every RPC frame crossing this
    /// fabric (requests and responses). Replaces any previously installed
    /// plan.
    pub fn install_fault_plan(&self, plan: Arc<FaultPlan>) {
        *self.inner.fault.write() = Some(plan);
    }

    /// Remove the installed [`FaultPlan`], restoring fault-free delivery.
    pub fn clear_fault_plan(&self) {
        *self.inner.fault.write() = None;
    }
}

impl FabricInner {
    /// Run a delivery after the model's latency: inline on an ideal
    /// fabric, on the delay line otherwise.
    fn deliver(&self, run: DeliveryFn) {
        match &self.delay {
            None => run(),
            Some(line) => line.schedule(self.model.latency, run),
        }
    }
}

/// One endpoint on a local [`Fabric`].
pub struct LocalEndpoint {
    inner: Arc<EndpointInner>,
    fabric: Arc<FabricInner>,
}

impl LocalEndpoint {
    /// Number of sends that exceeded the injection budget.
    pub fn saturation_events(&self) -> u64 {
        self.inner.gauge.saturation_events()
    }

    /// Calls currently awaiting a response. A timed-out (cancelled) call is
    /// removed immediately, so this exposes pending-entry leaks to tests.
    pub fn pending_calls(&self) -> usize {
        self.inner.core.pending_calls()
    }
}

impl Endpoint for LocalEndpoint {
    fn address(&self) -> String {
        self.inner.core.addr.clone()
    }

    fn register(&self, id: RpcId, handler: Arc<dyn RpcHandler>) {
        self.inner.core.register(id, handler);
    }

    fn set_executor(&self, exec: Executor) {
        self.inner.core.set_executor(exec);
    }

    fn set_admission(&self, ctrl: Option<Arc<dyn AdmissionControl>>) {
        self.inner.core.set_admission(ctrl);
    }

    fn call_async(
        &self,
        target: &str,
        id: RpcId,
        provider_id: u16,
        payload: Bytes,
    ) -> PendingResponse {
        self.inner.core.call_async(id, provider_id, payload, || {
            match self.fabric.endpoints.read().get(target) {
                Some(to) if !to.core.is_down() => Ok(LocalLink {
                    from: Arc::clone(&self.inner),
                    to: Arc::clone(to),
                    fabric: Arc::clone(&self.fabric),
                }),
                _ => Err(RpcError::NoSuchEndpoint(target.to_string())),
            }
        })
    }

    fn stats(&self) -> EndpointStats {
        self.inner.core.stats()
    }

    fn shutdown(&self) {
        self.inner.core.shutdown();
        self.fabric.endpoints.write().remove(&self.inner.core.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Request;
    use std::time::Instant;

    fn echo_handler() -> Arc<dyn RpcHandler> {
        Arc::new(|req: Request| Ok(req.payload))
    }

    #[test]
    fn unknown_or_shut_down_endpoint_errors() {
        let fabric = Fabric::new(NetworkModel::default());
        let s = fabric.endpoint("s");
        let c = fabric.endpoint("c");
        let err = c
            .call("local://ghost", RpcId(1), 0, Bytes::new())
            .unwrap_err();
        assert!(matches!(err, RpcError::NoSuchEndpoint(_)));
        s.register(RpcId(1), echo_handler());
        s.shutdown();
        let err = c.call(&s.address(), RpcId(1), 0, Bytes::new()).unwrap_err();
        assert!(matches!(err, RpcError::NoSuchEndpoint(_)));
        assert!(!fabric.is_registered(&s.address()));
    }

    #[test]
    fn latency_is_applied_both_ways() {
        let fabric = Fabric::new(NetworkModel {
            latency: Duration::from_millis(10),
            ..Default::default()
        });
        let s = fabric.endpoint("s");
        let c = fabric.endpoint("c");
        s.register(RpcId(1), echo_handler());
        let t0 = Instant::now();
        c.call(&s.address(), RpcId(1), 0, Bytes::new()).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20));
        fabric.stop();
        // A stopped delay line delivers inline rather than stranding frames.
        c.call(&s.address(), RpcId(1), 0, Bytes::new()).unwrap();
        assert_eq!(c.pending_calls(), 0);
    }

    #[test]
    fn saturation_fails_calls_when_configured() {
        let fabric = Fabric::new(NetworkModel {
            injection_bandwidth: 64.0, // 64 B/s x 1 s window = 64-byte budget
            injection_window: Duration::from_secs(1),
            fail_on_saturation: true,
            ..Default::default()
        });
        let s = fabric.endpoint("s");
        let c = fabric.endpoint("c");
        s.register(RpcId(1), echo_handler());
        let payload = Bytes::from(vec![0u8; 128]);
        let err = c.call(&s.address(), RpcId(1), 0, payload).unwrap_err();
        assert_eq!(err, RpcError::NetworkSaturated);
        assert_eq!(c.saturation_events(), 1);
    }

    #[test]
    fn pipelined_calls_on_a_latency_fabric_all_complete() {
        let fabric = Fabric::new(NetworkModel {
            latency: Duration::from_millis(2),
            ..Default::default()
        });
        let s = fabric.endpoint("s");
        let c = fabric.endpoint("c");
        s.register(RpcId(1), echo_handler());
        let pending: Vec<_> = (0..32u8)
            .map(|i| c.call_async(&s.address(), RpcId(1), 0, Bytes::copy_from_slice(&[i])))
            .collect();
        for (i, p) in pending.into_iter().enumerate() {
            assert_eq!(p.wait().unwrap()[0] as usize, i);
        }
        let st = c.stats();
        assert_eq!(st.frames_sent, 32);
        assert_eq!(st.wire_writes, 32);
        assert_eq!(c.pending_calls(), 0);
        fabric.stop();
    }

    #[test]
    fn saturation_on_a_latency_fabric_fails_the_call_and_recovers() {
        let window = Duration::from_millis(100);
        let fabric = Fabric::new(NetworkModel {
            latency: Duration::from_millis(5),
            injection_bandwidth: 2000.0, // 2000 B/s x 100 ms = 200-byte budget
            injection_window: window,
            fail_on_saturation: true,
        });
        let s = fabric.endpoint("s");
        let c = fabric.endpoint("c");
        s.register(RpcId(1), echo_handler());
        // A small request answered with more than the server's budget.
        s.register(
            RpcId(2),
            Arc::new(|_req: Request| Ok(Bytes::from(vec![0u8; 512]))),
        );
        // Request side: the caller's own NIC refuses the frame.
        let big = Bytes::from(vec![0u8; 512]);
        let err = c.call(&s.address(), RpcId(1), 0, big).unwrap_err();
        assert_eq!(err, RpcError::NetworkSaturated);
        assert_eq!(c.saturation_events(), 1);
        assert_eq!(c.pending_calls(), 0);
        // Response side: the server's NIC refuses the reply, failing the
        // caller's pending call from the delay line.
        std::thread::sleep(window + Duration::from_millis(20));
        let err = c.call(&s.address(), RpcId(2), 0, Bytes::new()).unwrap_err();
        assert_eq!(err, RpcError::NetworkSaturated);
        assert_eq!(s.saturation_events(), 1);
        assert_eq!(c.pending_calls(), 0);
        // Once the window has passed, a call that fits the budget succeeds.
        std::thread::sleep(window + Duration::from_millis(20));
        let reply = c
            .call(&s.address(), RpcId(1), 0, Bytes::from_static(b"ok"))
            .unwrap();
        assert_eq!(&reply[..], b"ok");
        assert_eq!(c.pending_calls(), 0);
        fabric.stop();
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_endpoint_name_panics() {
        let fabric = Fabric::new(NetworkModel::default());
        let _a = fabric.endpoint("same");
        let _b = fabric.endpoint("same");
    }
}
