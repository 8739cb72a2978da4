//! The transport-independent endpoint API.

use crate::error::RpcError;
use crate::wire::RpcId;
use argos::Eventual;
use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;

/// An incoming RPC as seen by a handler.
#[derive(Debug, Clone)]
pub struct Request {
    /// Address of the calling endpoint.
    pub source: String,
    /// The RPC id that was invoked.
    pub rpc_id: RpcId,
    /// Provider id the caller targeted (Mochi multiplexes several providers
    /// behind one endpoint).
    pub provider_id: u16,
    /// The inlined payload.
    pub payload: Bytes,
}

/// A registered RPC handler. Closures `Fn(Request) -> Result<Bytes, RpcError>`
/// implement this automatically.
pub trait RpcHandler: Send + Sync {
    /// Handle one request, producing the response payload.
    fn handle(&self, req: Request) -> Result<Bytes, RpcError>;
}

impl<F> RpcHandler for F
where
    F: Fn(Request) -> Result<Bytes, RpcError> + Send + Sync,
{
    fn handle(&self, req: Request) -> Result<Bytes, RpcError> {
        self(req)
    }
}

/// Decides *where* a handler invocation runs.
///
/// The default executor runs handlers inline on the transport's delivery
/// thread (Mercury without Margo). Margo installs an executor that pushes
/// the closure into the argos pool configured for `(rpc_id, provider_id)`.
pub type Executor =
    Arc<dyn Fn(RpcId, u16, Box<dyn FnOnce() + Send + 'static>) + Send + Sync + 'static>;

/// Verdict of an [`AdmissionControl`] check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Execute the request.
    Admit,
    /// Reject the request with [`RpcError::Busy`] carrying `retry_after`;
    /// the handler is never invoked.
    Shed {
        /// Backoff hint returned to the caller.
        retry_after: Duration,
    },
}

/// Per-endpoint overload policy, consulted by the transport for every
/// incoming request.
///
/// The contract is exactly-once accounting: a request whose [`admit`] returns
/// [`Admission::Admit`] holds one admission slot until [`complete`] is called
/// for it, which the transport guarantees happens exactly once — whether the
/// handler ran, the request was shed at [`begin`], or the response was lost.
/// A request shed at [`admit`] never held a slot and gets no [`complete`].
///
/// [`admit`]: AdmissionControl::admit
/// [`begin`]: AdmissionControl::begin
/// [`complete`]: AdmissionControl::complete
pub trait AdmissionControl: Send + Sync {
    /// Called on the transport's delivery thread *before* the request is
    /// handed to the executor. [`Admission::Shed`] makes the transport
    /// answer [`RpcError::Busy`] immediately, bypassing the execution pools
    /// — the request is rejected, never silently dropped.
    fn admit(&self, rpc_id: RpcId, provider_id: u16) -> Admission;

    /// Called when an admitted request reaches the front of its execution
    /// pool, with the time it spent queued. [`Admission::Shed`] here turns
    /// into a [`RpcError::Busy`] response through the normal reply path
    /// (deadline-aware shedding: a request that waited too long is answered
    /// cheaply instead of doing work whose caller already gave up).
    fn begin(&self, rpc_id: RpcId, provider_id: u16, queued: Duration) -> Admission;

    /// Called exactly once per admitted request after its handler finished
    /// or it was shed at [`AdmissionControl::begin`], releasing the slot.
    fn complete(&self, rpc_id: RpcId, provider_id: u16);
}

/// The in-flight result of an asynchronous call.
pub struct PendingResponse {
    pub(crate) ev: Eventual<Result<Bytes, RpcError>>,
    /// Removes the transport's pending-map entry when the caller abandons
    /// the call on timeout, so a deadline never leaks state. A late response
    /// for a cancelled call is dropped by the transport.
    pub(crate) cancel: Option<Box<dyn FnOnce() + Send>>,
}

impl PendingResponse {
    pub(crate) fn with_cancel(
        ev: Eventual<Result<Bytes, RpcError>>,
        cancel: Box<dyn FnOnce() + Send>,
    ) -> Self {
        PendingResponse {
            ev,
            cancel: Some(cancel),
        }
    }

    /// An already-failed response (e.g. the send itself failed).
    pub(crate) fn failed(err: RpcError) -> Self {
        let ev = Eventual::new();
        ev.set(Err(err));
        PendingResponse { ev, cancel: None }
    }

    /// Block until the response arrives.
    pub fn wait(self) -> Result<Bytes, RpcError> {
        self.ev.wait()
    }

    /// Block with a timeout. On timeout the call is cancelled: the
    /// transport's pending entry is removed and [`RpcError::Timeout`] is
    /// returned, so an abandoned call cannot leak.
    pub fn wait_timeout(self, dur: Duration) -> Result<Bytes, RpcError> {
        let PendingResponse { ev, cancel } = self;
        match ev.wait_timeout(dur) {
            Ok(r) => r,
            Err(_) => {
                if let Some(cancel) = cancel {
                    cancel();
                }
                Err(RpcError::Timeout)
            }
        }
    }

    /// Whether the response has arrived.
    pub fn is_ready(&self) -> bool {
        self.ev.is_set()
    }
}

/// Traffic counters for one endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Requests sent by this endpoint.
    pub requests_sent: u64,
    /// Requests received (and dispatched to handlers).
    pub requests_received: u64,
    /// Total bytes sent (headers + payloads).
    pub bytes_sent: u64,
    /// Total bytes received.
    pub bytes_received: u64,
    /// Always 0: every payload travels inline in its RPC frame, so no peer
    /// pulls bytes from this endpoint. The field stays so code that builds
    /// or reads the struct field by field keeps compiling.
    pub bulk_bytes_served: u64,
    /// Frames handed to the send path (requests and responses).
    pub frames_sent: u64,
    /// Physical writes performed by the send path; with coalescing one
    /// write can carry many frames, so `frames_sent / wire_writes` is the
    /// achieved coalescing factor.
    pub wire_writes: u64,
    /// Times a sender blocked because the outbound queue was full
    /// (transport backpressure propagated to the caller).
    pub send_stalls: u64,
}

/// The common endpoint API implemented by [`crate::local::LocalEndpoint`] and
/// [`crate::tcp::TcpEndpoint`].
pub trait Endpoint: Send + Sync {
    /// This endpoint's address, routable by peers on the same transport.
    fn address(&self) -> String;

    /// Register (or replace) the handler for an RPC id.
    fn register(&self, id: RpcId, handler: Arc<dyn RpcHandler>);

    /// Install the executor deciding where handlers run.
    fn set_executor(&self, exec: Executor);

    /// Install (or clear) the admission controller consulted for incoming
    /// requests. Default: no admission control, every request is executed.
    fn set_admission(&self, ctrl: Option<Arc<dyn AdmissionControl>>);

    /// Issue an asynchronous call; the response is delivered through the
    /// returned [`PendingResponse`].
    fn call_async(
        &self,
        target: &str,
        id: RpcId,
        provider_id: u16,
        payload: Bytes,
    ) -> PendingResponse;

    /// Issue a blocking call.
    fn call(
        &self,
        target: &str,
        id: RpcId,
        provider_id: u16,
        payload: Bytes,
    ) -> Result<Bytes, RpcError> {
        self.call_async(target, id, provider_id, payload).wait()
    }

    /// Issue a blocking call with a deadline. Returns [`RpcError::Timeout`]
    /// if no response arrives in time; the abandoned call is cancelled so
    /// no pending entry is leaked.
    fn call_with_deadline(
        &self,
        target: &str,
        id: RpcId,
        provider_id: u16,
        payload: Bytes,
        deadline: Duration,
    ) -> Result<Bytes, RpcError> {
        self.call_async(target, id, provider_id, payload)
            .wait_timeout(deadline)
    }

    /// Traffic counters.
    fn stats(&self) -> EndpointStats;

    /// Stop serving; in-flight calls fail with [`RpcError::Shutdown`].
    fn shutdown(&self);
}
