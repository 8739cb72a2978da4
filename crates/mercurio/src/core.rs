//! The transport-independent RPC core.
//!
//! Both transports speak the same protocol, and this module is its only
//! copy: the handler table with its executor and admission slots, request
//! ids and the pending-call map, traffic counters, fault injection, the
//! caller's send skeleton, the callee's admit → begin → handler → complete
//! sequence and shutdown's drain of the pending map. A transport supplies a
//! [`Link`] (its way of putting one [`Frame`] on the wire towards one peer)
//! and feeds every frame it receives to [`RpcCore::receive`].

use crate::endpoint::{
    Admission, AdmissionControl, EndpointStats, Executor, PendingResponse, Request, RpcHandler,
};
use crate::error::RpcError;
use crate::fault::{FaultDecision, FaultPlan, FrameDirection};
use crate::wire::{Frame, RpcId};
use argos::Eventual;
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A transport's send path to one peer.
pub(crate) trait Link: Clone + Send + 'static {
    /// Address of the peer this link sends to.
    fn peer(&self) -> &str;

    /// Put one frame on the wire towards the peer.
    fn send(&self, frame: Frame) -> Result<(), RpcError>;
}

/// Where fault plans live: every endpoint of a local fabric shares the
/// fabric's slot, a TCP endpoint owns its own.
pub(crate) type FaultSlot = Arc<RwLock<Option<Arc<FaultPlan>>>>;

#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) requests_sent: AtomicU64,
    pub(crate) requests_received: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
    pub(crate) frames_sent: AtomicU64,
    pub(crate) wire_writes: AtomicU64,
    pub(crate) send_stalls: AtomicU64,
}

/// A pending call: the peer it was sent to and where its outcome goes.
type PendingCall = (String, Eventual<Result<Bytes, RpcError>>);

/// The protocol state of one endpoint.
pub(crate) struct RpcCore {
    pub(crate) addr: String,
    handlers: RwLock<HashMap<RpcId, Arc<dyn RpcHandler>>>,
    executor: RwLock<Executor>,
    admission: RwLock<Option<Arc<dyn AdmissionControl>>>,
    /// In-flight calls tagged with the peer they were sent to, so a lost
    /// connection fails exactly the calls routed through it.
    pending: Mutex<HashMap<u64, PendingCall>>,
    next_req: AtomicU64,
    pub(crate) counters: Counters,
    pub(crate) fault: FaultSlot,
    down: AtomicBool,
}

impl RpcCore {
    pub(crate) fn new(addr: String, fault: FaultSlot) -> Arc<RpcCore> {
        Arc::new(RpcCore {
            addr,
            handlers: RwLock::new(HashMap::new()),
            executor: RwLock::new(Arc::new(|_, _, f: Box<dyn FnOnce() + Send>| f())),
            admission: RwLock::new(None),
            pending: Mutex::new(HashMap::new()),
            next_req: AtomicU64::new(1),
            counters: Counters::default(),
            fault,
            down: AtomicBool::new(false),
        })
    }

    pub(crate) fn register(&self, id: RpcId, handler: Arc<dyn RpcHandler>) {
        self.handlers.write().insert(id, handler);
    }

    pub(crate) fn set_executor(&self, exec: Executor) {
        *self.executor.write() = exec;
    }

    pub(crate) fn set_admission(&self, ctrl: Option<Arc<dyn AdmissionControl>>) {
        *self.admission.write() = ctrl;
    }

    pub(crate) fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    pub(crate) fn pending_calls(&self) -> usize {
        self.pending.lock().len()
    }

    pub(crate) fn stats(&self) -> EndpointStats {
        let c = &self.counters;
        EndpointStats {
            requests_sent: c.requests_sent.load(Ordering::Relaxed),
            requests_received: c.requests_received.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
            bytes_received: c.bytes_received.load(Ordering::Relaxed),
            bulk_bytes_served: 0,
            frames_sent: c.frames_sent.load(Ordering::Relaxed),
            wire_writes: c.wire_writes.load(Ordering::Relaxed),
            send_stalls: c.send_stalls.load(Ordering::Relaxed),
        }
    }

    fn fault_decision(&self, dir: FrameDirection, rpc_id: RpcId, req_id: u64) -> FaultDecision {
        match &*self.fault.read() {
            Some(plan) => plan.decide(dir, rpc_id, req_id),
            None => FaultDecision::default(),
        }
    }

    /// Issue a call over the link `connect` opens (called only once this
    /// endpoint is known to be up).
    pub(crate) fn call_async<L: Link>(
        self: &Arc<Self>,
        rpc_id: RpcId,
        provider_id: u16,
        payload: Bytes,
        connect: impl FnOnce() -> Result<L, RpcError>,
    ) -> PendingResponse {
        if self.is_down() {
            return PendingResponse::failed(RpcError::Shutdown);
        }
        let link = match connect() {
            Ok(link) => link,
            Err(e) => return PendingResponse::failed(e),
        };
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let fd = self.fault_decision(FrameDirection::Request, rpc_id, req_id);
        if fd.disconnect {
            return PendingResponse::failed(RpcError::Transport(
                "injected transient disconnect".into(),
            ));
        }
        let frame = Frame::Request {
            req_id,
            rpc_id,
            provider_id,
            payload,
        };
        let ev = Eventual::new();
        self.pending
            .lock()
            .insert(req_id, (link.peer().to_string(), ev.clone()));
        self.counters.requests_sent.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_sent
            .fetch_add(frame.encoded_len() as u64, Ordering::Relaxed);
        // Abandoning the call (deadline) removes the pending entry so a
        // dropped frame cannot leak state; a late response then no-ops.
        let core = Arc::clone(self);
        let pending = PendingResponse::with_cancel(
            ev,
            Box::new(move || {
                core.pending.lock().remove(&req_id);
            }),
        );
        if let Some(t) = fd.delay {
            std::thread::sleep(t);
        }
        if fd.drop {
            // The request frame is lost in transit; the caller's deadline
            // fires and retries.
            return pending;
        }
        let duplicate = fd.duplicate.then(|| frame.clone());
        if let Err(e) = link.send(frame) {
            self.pending.lock().remove(&req_id);
            return PendingResponse::failed(e);
        }
        if let Some(frame) = duplicate {
            let _ = link.send(frame);
        }
        pending
    }

    /// Handle one frame of `len` encoded bytes that arrived over `link`.
    pub(crate) fn receive<L: Link>(self: &Arc<Self>, frame: Frame, len: usize, link: &L) {
        self.counters
            .bytes_received
            .fetch_add(len as u64, Ordering::Relaxed);
        match frame {
            Frame::Request {
                req_id,
                rpc_id,
                provider_id,
                payload,
            } => self.dispatch(link, req_id, rpc_id, provider_id, payload),
            Frame::Response { req_id, result } => {
                self.complete(req_id, result.map_err(|(c, d)| RpcError::from_wire(c, &d)))
            }
        }
    }

    fn dispatch<L: Link>(
        self: &Arc<Self>,
        link: &L,
        req_id: u64,
        rpc_id: RpcId,
        provider_id: u16,
        payload: Bytes,
    ) {
        self.counters
            .requests_received
            .fetch_add(1, Ordering::Relaxed);
        // Admission check on the delivery thread. A shed request is
        // answered Busy right here, bypassing the executor — rejected,
        // never silently dropped.
        let admission = self.admission.read().clone();
        if let Some(ctrl) = &admission {
            if let Admission::Shed { retry_after } = ctrl.admit(rpc_id, provider_id) {
                self.respond(link, rpc_id, req_id, Err(RpcError::Busy { retry_after }));
                return;
            }
        }
        let handler = self.handlers.read().get(&rpc_id).cloned();
        let exec = self.executor.read().clone();
        let core = Arc::clone(self);
        let link = link.clone();
        let queued_at = Instant::now();
        let job: Box<dyn FnOnce() + Send> = Box::new(move || {
            // Deadline-aware shed at the front of the pool: a request that
            // queued past the controller's bound is answered Busy instead of
            // doing work its caller has likely abandoned.
            let shed_late = admission.as_ref().and_then(|ctrl| {
                match ctrl.begin(rpc_id, provider_id, queued_at.elapsed()) {
                    Admission::Admit => None,
                    Admission::Shed { retry_after } => Some(retry_after),
                }
            });
            let result = match (shed_late, handler) {
                (Some(retry_after), _) => Err(RpcError::Busy { retry_after }),
                (None, None) => Err(RpcError::NoSuchRpc(rpc_id.0)),
                (None, Some(_)) if core.is_down() => Err(RpcError::Shutdown),
                (None, Some(h)) => h.handle(Request {
                    source: link.peer().to_string(),
                    rpc_id,
                    provider_id,
                    payload,
                }),
            };
            // Release the admission slot exactly once per admitted request,
            // before the (possibly faulted) response send.
            if let Some(ctrl) = &admission {
                ctrl.complete(rpc_id, provider_id);
            }
            core.respond(&link, rpc_id, req_id, result);
        });
        exec(rpc_id, provider_id, job);
    }

    fn respond<L: Link>(
        &self,
        link: &L,
        rpc_id: RpcId,
        req_id: u64,
        result: Result<Bytes, RpcError>,
    ) {
        let fd = self.fault_decision(FrameDirection::Response, rpc_id, req_id);
        if let Some(t) = fd.delay {
            std::thread::sleep(t);
        }
        if fd.drop || fd.disconnect {
            // Response lost: the caller's deadline fires.
            return;
        }
        let frame = Frame::Response {
            req_id,
            result: result.map_err(|e| e.to_wire()),
        };
        self.counters
            .bytes_sent
            .fetch_add(frame.encoded_len() as u64, Ordering::Relaxed);
        if fd.duplicate {
            // Harmless to the caller: the first delivery removes the
            // pending entry, the second no-ops.
            let _ = link.send(frame.clone());
        }
        let _ = link.send(frame);
    }

    /// Deliver the outcome of call `req_id`, if it is still pending.
    pub(crate) fn complete(&self, req_id: u64, result: Result<Bytes, RpcError>) {
        if let Some((_, ev)) = self.pending.lock().remove(&req_id) {
            ev.set(result);
        }
    }

    /// Fail every pending call that was routed to `peer`.
    pub(crate) fn fail_peer(&self, peer: &str) {
        self.pending.lock().retain(|_, (p, ev)| {
            if p != peer {
                return true;
            }
            ev.set(Err(RpcError::Transport(format!(
                "connection to {peer} lost"
            ))));
            false
        });
    }

    /// Stop serving: new calls and handlers not yet started fail with
    /// [`RpcError::Shutdown`], and so does every pending call.
    pub(crate) fn shutdown(&self) {
        self.down.store(true, Ordering::Release);
        for (_, (_, ev)) in self.pending.lock().drain() {
            ev.set(Err(RpcError::Shutdown));
        }
    }
}
