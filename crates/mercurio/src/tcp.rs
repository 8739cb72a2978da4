//! TCP transport: real sockets with length-prefixed frames.
//!
//! Used for multi-process deployments (the paper runs servers and clients as
//! separate `aprun`-launched MPI programs; our analogue is separate OS
//! processes connected over TCP). Each endpoint owns a listener; connections
//! are established lazily, carry a one-frame handshake announcing the
//! dialer's canonical address, and are then used bidirectionally. The pool
//! holds at most one connection per peer: concurrent first calls to a peer
//! share one dial.
//!
//! Sending is pipelined: every connection owns a writer thread draining a
//! bounded outbound queue. All frames queued at drain time are coalesced
//! into one buffered write (one syscall for N frames), which is what lets
//! many concurrent ingest writers share a connection without serializing on
//! per-frame `write`/`flush` pairs. A full queue blocks the sender — that
//! transport backpressure is counted in [`EndpointStats::send_stalls`].

use crate::core::{FaultSlot, Link, RpcCore};
use crate::endpoint::{
    AdmissionControl, Endpoint, EndpointStats, Executor, PendingResponse, RpcHandler,
};
use crate::error::RpcError;
use crate::fault::FaultPlan;
use crate::wire::{Frame, RpcId};
use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Address scheme prefix for the TCP transport.
pub const SCHEME: &str = "tcp://";

/// Maximum number of frames the writer thread coalesces into one physical
/// write.
const MAX_COALESCE_FRAMES: usize = 64;

/// Tuning knobs for the outbound send path of a [`TcpEndpoint`].
#[derive(Debug, Clone)]
pub struct TcpSendConfig {
    /// Bound of the per-connection outbound queue; a sender hitting a full
    /// queue blocks until the writer thread drains it.
    pub max_queued_frames: usize,
}

impl Default for TcpSendConfig {
    fn default() -> Self {
        TcpSendConfig {
            max_queued_frames: 256,
        }
    }
}

fn read_frame(mut stream: &TcpStream) -> std::io::Result<Bytes> {
    let mut hdr = [0u8; 4];
    stream.read_exact(&mut hdr)?;
    let len = u32::from_le_bytes(hdr) as usize;
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    Ok(Bytes::from(buf))
}

struct SendState {
    queue: VecDeque<Bytes>,
    closed: bool,
}

/// One established connection to `peer`: a bounded outbound frame queue
/// drained by a dedicated writer thread, and the socket its reader thread
/// reads.
struct Conn {
    peer: String,
    state: Mutex<SendState>,
    not_empty: Condvar,
    not_full: Condvar,
    cfg: TcpSendConfig,
    core: Arc<RpcCore>,
    /// Read by the reader thread; shutting it down unblocks both the
    /// reader and the writer threads.
    socket: TcpStream,
}

impl Conn {
    /// Wrap `socket` and start its writer thread.
    fn spawn(socket: TcpStream, peer: String, ep: &TcpInner) -> std::io::Result<Arc<Conn>> {
        let stream = socket.try_clone()?;
        let conn = Arc::new(Conn {
            peer,
            state: Mutex::new(SendState {
                queue: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cfg: ep.send_cfg.clone(),
            core: Arc::clone(&ep.core),
            socket,
        });
        let c2 = Arc::clone(&conn);
        std::thread::Builder::new()
            .name("mercurio-tcp-tx".into())
            .spawn(move || writer_loop(c2, stream))?;
        Ok(conn)
    }

    /// Enqueue one frame for transmission; blocks when the outbound queue
    /// is full (backpressure) and fails once the connection is closed.
    fn enqueue(&self, frame: Bytes) -> Result<(), RpcError> {
        let mut st = self.state.lock();
        if st.queue.len() >= self.cfg.max_queued_frames && !st.closed {
            self.core
                .counters
                .send_stalls
                .fetch_add(1, Ordering::Relaxed);
            while st.queue.len() >= self.cfg.max_queued_frames && !st.closed {
                self.not_full.wait(&mut st);
            }
        }
        if st.closed {
            return Err(RpcError::Transport("connection closed".into()));
        }
        st.queue.push_back(frame);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Stop the writer thread; queued-but-unwritten frames are dropped
    /// (their requests are failed through the pending map by the caller).
    fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Close the queue and the socket (kills the peer's reader too).
    fn close_hard(&self) {
        self.close();
        let _ = self.socket.shutdown(std::net::Shutdown::Both);
    }
}

impl Link for Arc<Conn> {
    fn peer(&self) -> &str {
        &self.peer
    }

    fn send(&self, frame: Frame) -> Result<(), RpcError> {
        self.enqueue(frame.encode())
    }
}

/// Drain the connection's outbound queue, coalescing every frame available
/// at drain time (bounded by `MAX_COALESCE_FRAMES`) into one vectored
/// buffered write: one syscall carries N frames.
fn writer_loop(conn: Arc<Conn>, mut stream: TcpStream) {
    let mut wire = BytesMut::new();
    let mut batch: Vec<Bytes> = Vec::new();
    loop {
        {
            let mut st = conn.state.lock();
            while st.queue.is_empty() {
                if st.closed {
                    return;
                }
                conn.not_empty.wait(&mut st);
            }
            let n = st.queue.len().min(MAX_COALESCE_FRAMES);
            batch.extend(st.queue.drain(..n));
        }
        conn.not_full.notify_all();
        let total: usize = batch.iter().map(|f| 4 + f.len()).sum();
        wire.clear();
        wire.reserve(total);
        for f in &batch {
            wire.put_u32_le(f.len() as u32);
            wire.put_slice(f);
        }
        let counters = &conn.core.counters;
        counters
            .frames_sent
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        counters.wire_writes.fetch_add(1, Ordering::Relaxed);
        batch.clear();
        if stream
            .write_all(&wire)
            .and_then(|_| stream.flush())
            .is_err()
        {
            // The socket is gone: closing it hard makes the reader loop
            // exit, which fails this peer's pending requests.
            conn.close_hard();
            return;
        }
    }
}

struct TcpInner {
    core: Arc<RpcCore>,
    /// The connection pool: at most one connection per peer.
    conns: Mutex<HashMap<String, Arc<Conn>>>,
    /// Per-peer dial locks, so concurrent first calls dial a peer once.
    dials: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    send_cfg: TcpSendConfig,
}

impl TcpInner {
    /// Serve frames arriving on `conn` until it dies.
    fn read_loop(&self, conn: Arc<Conn>) {
        while let Ok(raw) = read_frame(&conn.socket) {
            let len = raw.len();
            match Frame::decode(raw) {
                Ok(frame) => self.core.receive(frame, len, &conn),
                Err(_) => break,
            }
        }
        // Connection lost: stop its writer, drop it from the pool (unless a
        // newer connection replaced it there) so a future call re-dials,
        // and fail the requests that were awaiting this peer — a killed
        // service must surface as an error, not a hang.
        conn.close();
        let mut conns = self.conns.lock();
        if conns.get(&conn.peer).is_some_and(|c| Arc::ptr_eq(c, &conn)) {
            conns.remove(&conn.peer);
        }
        drop(conns);
        self.core.fail_peer(&conn.peer);
    }
}

/// A TCP endpoint: a listener plus a lazily-populated connection pool.
pub struct TcpEndpoint {
    inner: Arc<TcpInner>,
    listener_port: u16,
}

impl TcpEndpoint {
    /// Bind to `127.0.0.1:port` (`port` 0 picks a free port) and start the
    /// accept loop, with the default send-path configuration.
    pub fn bind(port: u16) -> std::io::Result<Arc<TcpEndpoint>> {
        Self::bind_with(port, TcpSendConfig::default())
    }

    /// [`TcpEndpoint::bind`] with explicit send-path tuning.
    pub fn bind_with(port: u16, send_cfg: TcpSendConfig) -> std::io::Result<Arc<TcpEndpoint>> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let actual = listener.local_addr()?.port();
        let addr = format!("{SCHEME}127.0.0.1:{actual}");
        let inner = Arc::new(TcpInner {
            core: RpcCore::new(addr, FaultSlot::default()),
            conns: Mutex::new(HashMap::new()),
            dials: Mutex::new(HashMap::new()),
            send_cfg,
        });
        let accept_inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name(format!("mercurio-accept-{actual}"))
            .spawn(move || accept_loop(listener, accept_inner))?;
        Ok(Arc::new(TcpEndpoint {
            inner,
            listener_port: actual,
        }))
    }

    /// The local listener port.
    pub fn port(&self) -> u16 {
        self.listener_port
    }

    /// Install a [`FaultPlan`] applied to RPC frames this endpoint sends
    /// (requests) and answers (responses). Handshake frames are never
    /// faulted. Replaces any previously installed plan.
    pub fn install_fault_plan(&self, plan: Arc<FaultPlan>) {
        *self.inner.core.fault.write() = Some(plan);
    }

    /// Remove the installed [`FaultPlan`], restoring fault-free delivery.
    pub fn clear_fault_plan(&self) {
        *self.inner.core.fault.write() = None;
    }

    /// Calls currently awaiting a response. A timed-out (cancelled) call is
    /// removed immediately, so this exposes pending-entry leaks to tests.
    pub fn pending_calls(&self) -> usize {
        self.inner.core.pending_calls()
    }

    /// The pooled connection to `target`, dialed if there is none yet.
    fn connect(&self, target: &str) -> Result<Arc<Conn>, RpcError> {
        let pooled = || self.inner.conns.lock().get(target).cloned();
        if let Some(c) = pooled() {
            return Ok(c);
        }
        let gate = Arc::clone(
            self.inner
                .dials
                .lock()
                .entry(target.to_string())
                .or_default(),
        );
        let _dialing = gate.lock();
        if let Some(c) = pooled() {
            return Ok(c);
        }
        let hostport = target
            .strip_prefix(SCHEME)
            .ok_or_else(|| RpcError::NoSuchEndpoint(target.to_string()))?;
        let stream = TcpStream::connect(hostport)
            .map_err(|e| RpcError::NoSuchEndpoint(format!("{target}: {e}")))?;
        stream.set_nodelay(true).ok();
        let io_err = |e: std::io::Error| RpcError::Transport(e.to_string());
        let conn = Conn::spawn(stream, target.to_string(), &self.inner).map_err(io_err)?;
        {
            let mut conns = self.inner.conns.lock();
            if let Some(winner) = conns.get(target) {
                // The peer dialed us meanwhile: use its connection and drop
                // ours before it is announced.
                conn.close_hard();
                return Ok(Arc::clone(winner));
            }
            // Handshake: announce our canonical address so the peer can
            // route responses and future requests back. Queued before the
            // connection is pooled, so it is the first frame on the wire.
            conn.enqueue(Bytes::copy_from_slice(self.inner.core.addr.as_bytes()))?;
            conns.insert(target.to_string(), Arc::clone(&conn));
        }
        let (inner, c2) = (Arc::clone(&self.inner), Arc::clone(&conn));
        if let Err(e) = std::thread::Builder::new()
            .name("mercurio-tcp-rx".into())
            .spawn(move || inner.read_loop(c2))
        {
            conn.close_hard();
            self.inner.conns.lock().remove(target);
            return Err(io_err(e));
        }
        Ok(conn)
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<TcpInner>) {
    while let Ok((stream, _)) = listener.accept() {
        if inner.core.is_down() {
            return;
        }
        let inner = Arc::clone(&inner);
        // The handshake is read on the connection's own thread: a dialer
        // that never sends one stalls only that thread, never later
        // accepts. A connection that cannot get its threads is dropped.
        let _ = std::thread::Builder::new()
            .name("mercurio-tcp-rx".into())
            .spawn(move || {
                let Ok(hello) = read_frame(&stream) else {
                    return;
                };
                let peer = String::from_utf8_lossy(&hello).into_owned();
                stream.set_nodelay(true).ok();
                let Ok(conn) = Conn::spawn(stream, peer.clone(), &inner) else {
                    return;
                };
                inner.conns.lock().insert(peer, Arc::clone(&conn));
                inner.read_loop(conn);
            });
    }
}

impl Endpoint for TcpEndpoint {
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
        self.inner
            .core
            .call_async(id, provider_id, payload, || self.connect(target))
    }

    fn stats(&self) -> EndpointStats {
        self.inner.core.stats()
    }

    fn shutdown(&self) {
        self.inner.core.shutdown();
        // Unblock the accept loop by dialing ourselves once.
        let _ = TcpStream::connect(("127.0.0.1", self.listener_port));
        for (_, conn) in self.inner.conns.lock().drain() {
            conn.close_hard();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Request;
    use std::sync::Barrier;
    use std::time::Duration;

    fn echo() -> Arc<dyn RpcHandler> {
        Arc::new(|req: Request| Ok(req.payload))
    }

    #[test]
    fn large_payload_round_trip() {
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        s.register(RpcId(1), echo());
        let big: Vec<u8> = (0..1_000_000u32).map(|i| i as u8).collect();
        let out = c
            .call(&s.address(), RpcId(1), 0, Bytes::from(big.clone()))
            .unwrap();
        assert_eq!(&out[..], &big[..]);
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn coalescing_batches_frames_per_write() {
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        s.register(RpcId(1), echo());
        let addr = s.address();
        // Fire a burst of async calls: the writer thread drains whatever is
        // queued per wakeup, so wire writes must not exceed frames sent and
        // should generally be far fewer under a burst.
        let pending: Vec<_> = (0..200u8)
            .map(|i| c.call_async(&addr, RpcId(1), 0, Bytes::copy_from_slice(&[i])))
            .collect();
        for p in pending {
            p.wait().unwrap();
        }
        let st = c.stats();
        // 200 requests + 1 handshake frame.
        assert_eq!(st.frames_sent, 201);
        assert!(st.wire_writes >= 1);
        assert!(
            st.wire_writes <= st.frames_sent,
            "writes {} > frames {}",
            st.wire_writes,
            st.frames_sent
        );
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn full_queue_counts_backpressure_stalls() {
        let cfg = TcpSendConfig {
            max_queued_frames: 2,
        };
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind_with(0, cfg).unwrap();
        s.register(RpcId(1), echo());
        let addr = s.address();
        // A tiny queue with a burst of medium frames forces senders to wait
        // on the writer thread at least occasionally.
        let payload = Bytes::from(vec![7u8; 64 << 10]);
        let pending: Vec<_> = (0..64)
            .map(|_| c.call_async(&addr, RpcId(1), 0, payload.clone()))
            .collect();
        for p in pending {
            p.wait().unwrap();
        }
        let st = c.stats();
        assert_eq!(st.requests_sent, 64);
        // Not guaranteed on every scheduling, but with queue depth 2 and 64
        // large frames the writer cannot stay ahead of the caller.
        assert!(st.send_stalls > 0, "expected at least one send stall");
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn dead_endpoint_is_unreachable() {
        let s = TcpEndpoint::bind(0).unwrap();
        let addr = s.address();
        s.shutdown();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let c = TcpEndpoint::bind(0).unwrap();
        // Either the connect fails outright, or a pending call dies with the
        // connection; both surface as an error rather than a hang.
        let res = c
            .call_async(&addr, RpcId(1), 0, Bytes::new())
            .wait_timeout(std::time::Duration::from_secs(2));
        assert!(res.is_err());
        c.shutdown();
    }

    #[test]
    fn lost_connection_fails_pending_calls() {
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        // A handler that never answers quickly: the response would only
        // arrive after the server dies.
        s.register(
            RpcId(1),
            Arc::new(|_req: Request| {
                std::thread::sleep(std::time::Duration::from_secs(10));
                Ok(Bytes::new())
            }),
        );
        s.set_executor(Arc::new(|_rpc, _prov, job| {
            std::thread::spawn(job);
        }));
        let pending = c.call_async(&s.address(), RpcId(1), 0, Bytes::new());
        std::thread::sleep(std::time::Duration::from_millis(50));
        s.shutdown();
        // The client's reader loop notices the closed socket and fails the
        // in-flight request — no 10-second hang, no silent loss.
        let err = pending
            .wait_timeout(std::time::Duration::from_secs(2))
            .unwrap_err();
        assert!(
            matches!(err, RpcError::Transport(_) | RpcError::Shutdown),
            "unexpected error: {err}"
        );
        c.shutdown();
    }

    #[test]
    fn silent_dialer_does_not_block_accepts() {
        let s = TcpEndpoint::bind(0).unwrap();
        let c = TcpEndpoint::bind(0).unwrap();
        s.register(RpcId(1), echo());
        // Connects and never sends its handshake.
        let _silent = TcpStream::connect(("127.0.0.1", s.port())).unwrap();
        let out = c
            .call_with_deadline(
                &s.address(),
                RpcId(1),
                0,
                Bytes::from_static(b"after"),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(&out[..], b"after");
        s.shutdown();
        c.shutdown();
    }

    #[test]
    fn concurrent_first_calls_dial_once() {
        const CALLERS: usize = 8;
        for _ in 0..10 {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let target = format!("{SCHEME}{}", listener.local_addr().unwrap());
            let ep = TcpEndpoint::bind(0).unwrap();
            let gate = Barrier::new(CALLERS);
            std::thread::scope(|scope| {
                for _ in 0..CALLERS {
                    scope.spawn(|| {
                        gate.wait();
                        ep.connect(&target).unwrap();
                    });
                }
            });
            // Every completed dial is in the listener's backlog by now.
            listener.set_nonblocking(true).unwrap();
            let mut accepted = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                accepted.push(stream);
            }
            assert_eq!(accepted.len(), 1, "concurrent first calls dialed twice");
            assert_eq!(ep.inner.conns.lock().len(), 1);
            ep.shutdown();
        }
    }
}
