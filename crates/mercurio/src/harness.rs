//! The protocol test harness: every test here runs once per transport, from
//! one body, against a server/client [`Pair`].

use crate::endpoint::{Admission, AdmissionControl, Endpoint, Request, RpcHandler};
use crate::error::RpcError;
use crate::fault::{FaultConfig, FaultPlan};
use crate::local::Fabric;
use crate::model::NetworkModel;
use crate::tcp::TcpEndpoint;
use crate::wire::RpcId;
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scriptable admission controller recording how often each hook fired, so
/// tests can pin the exactly-once accounting contract.
#[derive(Default)]
struct TestAdmission {
    shed_at_admit: bool,
    shed_at_begin: bool,
    admits: AtomicUsize,
    begins: AtomicUsize,
    completes: AtomicUsize,
}

impl AdmissionControl for TestAdmission {
    fn admit(&self, _rpc_id: RpcId, _provider_id: u16) -> Admission {
        self.admits.fetch_add(1, Ordering::SeqCst);
        if self.shed_at_admit {
            Admission::Shed {
                retry_after: Duration::from_millis(7),
            }
        } else {
            Admission::Admit
        }
    }

    fn begin(&self, _rpc_id: RpcId, _provider_id: u16, _queued: Duration) -> Admission {
        self.begins.fetch_add(1, Ordering::SeqCst);
        if self.shed_at_begin {
            Admission::Shed {
                retry_after: Duration::from_millis(3),
            }
        } else {
            Admission::Admit
        }
    }

    fn complete(&self, _rpc_id: RpcId, _provider_id: u16) {
        self.completes.fetch_add(1, Ordering::SeqCst);
    }
}

impl TestAdmission {
    fn counts(&self) -> [usize; 3] {
        [&self.admits, &self.begins, &self.completes].map(|n| n.load(Ordering::SeqCst))
    }
}

/// A server endpoint `s` and a client endpoint `c` on one transport, with
/// the client's pending-call probe and the transport's fault-plan installer.
struct Pair {
    s: Arc<dyn Endpoint>,
    c: Arc<dyn Endpoint>,
    pending: Box<dyn Fn() -> usize>,
    faults: Box<dyn Fn(Option<Arc<FaultPlan>>)>,
}

impl Pair {
    /// Two endpoints on an ideal local fabric; the plan is the fabric's.
    fn local() -> Pair {
        let fabric = Fabric::new(NetworkModel::default());
        let (s, c) = (fabric.endpoint("s"), fabric.endpoint("c"));
        let probe = Arc::clone(&c);
        Pair {
            s,
            c,
            pending: Box::new(move || probe.pending_calls()),
            faults: Box::new(move |plan| match plan {
                Some(plan) => fabric.install_fault_plan(plan),
                None => fabric.clear_fault_plan(),
            }),
        }
    }

    /// Two TCP endpoints; the same plan goes on both.
    fn tcp() -> Pair {
        let (s, c) = (TcpEndpoint::bind(0).unwrap(), TcpEndpoint::bind(0).unwrap());
        let probe = Arc::clone(&c);
        let both = [Arc::clone(&s), Arc::clone(&c)];
        Pair {
            s,
            c,
            pending: Box::new(move || probe.pending_calls()),
            faults: Box::new(move |plan| {
                for ep in &both {
                    match &plan {
                        Some(plan) => ep.install_fault_plan(Arc::clone(plan)),
                        None => ep.clear_fault_plan(),
                    }
                }
            }),
        }
    }

    fn pending_calls(&self) -> usize {
        (self.pending)()
    }

    fn install_faults(&self, cfg: Option<FaultConfig>) {
        (self.faults)(cfg.map(|cfg| Arc::new(FaultPlan::new(cfg))));
    }

    fn call(&self, id: u16, provider_id: u16, payload: &'static [u8]) -> Result<Bytes, RpcError> {
        self.c.call(
            &self.s.address(),
            RpcId(id),
            provider_id,
            Bytes::from_static(payload),
        )
    }

    fn admission(&self, ctl: TestAdmission) -> Arc<TestAdmission> {
        let ctl = Arc::new(ctl);
        self.s
            .set_admission(Some(Arc::clone(&ctl) as Arc<dyn AdmissionControl>));
        ctl
    }
}

impl Drop for Pair {
    fn drop(&mut self) {
        self.s.shutdown();
        self.c.shutdown();
    }
}

fn echo() -> Arc<dyn RpcHandler> {
    Arc::new(|req: Request| Ok(req.payload))
}

/// Runs handlers on their own threads, so a stalled handler cannot block
/// the delivery path.
fn spawn_per_job(ep: &dyn Endpoint) {
    ep.set_executor(Arc::new(|_rpc, _prov, job| {
        std::thread::spawn(job);
    }));
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(5), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Generates, for each named test body, a module with one `#[test]` per
/// transport.
macro_rules! on_both_transports {
    ($($name:ident),* $(,)?) => {$(
        mod $name {
            #[test]
            fn local() {
                super::$name(&super::Pair::local());
            }

            #[test]
            fn tcp() {
                super::$name(&super::Pair::tcp());
            }
        }
    )*};
}

on_both_transports!(
    call_round_trips,
    unknown_rpc_errors,
    handler_error_propagates,
    provider_id_reaches_handler,
    custom_executor_receives_all_requests,
    stats_count_encoded_frames,
    admit_shed_answers_busy_without_leaking,
    begin_shed_releases_slot_exactly_once,
    admitted_calls_balance_admission_accounting,
    deadline_against_stalled_handler_leaves_no_pending_entry,
    dropped_request_times_out_and_cancels,
    dropped_response_times_out_and_cancels,
    duplicated_request_delivers_once_to_caller,
    many_concurrent_callers,
    shutdown_fails_new_and_pending_calls,
    shut_down_endpoint_runs_no_queued_handler,
);

fn call_round_trips(p: &Pair) {
    p.s.register(RpcId(1), echo());
    assert_eq!(&p.call(1, 0, b"ping").unwrap()[..], b"ping");
    let big: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
    let out =
        p.c.call(&p.s.address(), RpcId(1), 0, Bytes::from(big.clone()))
            .unwrap();
    assert_eq!(&out[..], &big[..]);
}

fn unknown_rpc_errors(p: &Pair) {
    assert_eq!(p.call(9, 0, b"").unwrap_err(), RpcError::NoSuchRpc(9));
}

fn handler_error_propagates(p: &Pair) {
    p.s.register(
        RpcId(2),
        Arc::new(|_req: Request| Err(RpcError::Handler("remote boom".into()))),
    );
    assert_eq!(
        p.call(2, 0, b"").unwrap_err(),
        RpcError::Handler("remote boom".into())
    );
}

fn provider_id_reaches_handler(p: &Pair) {
    p.s.register(
        RpcId(1),
        Arc::new(|req: Request| Ok(Bytes::copy_from_slice(&req.provider_id.to_le_bytes()))),
    );
    let out = p.call(1, 42, b"").unwrap();
    assert_eq!(u16::from_le_bytes([out[0], out[1]]), 42);
}

fn custom_executor_receives_all_requests(p: &Pair) {
    p.s.register(RpcId(1), echo());
    let hits = Arc::new(AtomicUsize::new(0));
    let hits2 = Arc::clone(&hits);
    p.s.set_executor(Arc::new(move |_rpc, _prov, f| {
        hits2.fetch_add(1, Ordering::SeqCst);
        f();
    }));
    for _ in 0..5 {
        p.call(1, 0, b"").unwrap();
    }
    assert_eq!(hits.load(Ordering::SeqCst), 5);
}

/// Both transports count every frame at its encoded size: one echo of
/// "xyz" is a 20-byte request (17-byte header) and a 16-byte response
/// (13-byte header), the same on both sides of the call.
fn stats_count_encoded_frames(p: &Pair) {
    p.s.register(RpcId(1), echo());
    p.call(1, 0, b"xyz").unwrap();
    let (cs, ss) = (p.c.stats(), p.s.stats());
    assert_eq!((cs.requests_sent, ss.requests_received), (1, 1));
    assert_eq!((cs.bytes_sent, ss.bytes_received), (20, 20));
    assert_eq!((ss.bytes_sent, cs.bytes_received), (16, 16));
    // Every payload travels inline: nothing is ever pulled from an endpoint.
    assert_eq!((cs.bulk_bytes_served, ss.bulk_bytes_served), (0, 0));
}

fn admit_shed_answers_busy_without_leaking(p: &Pair) {
    p.s.register(RpcId(1), echo());
    let ctl = p.admission(TestAdmission {
        shed_at_admit: true,
        ..Default::default()
    });
    assert_eq!(
        p.call(1, 0, b"x").unwrap_err(),
        RpcError::Busy {
            retry_after: Duration::from_millis(7)
        }
    );
    // The one-response-per-request invariant: a shed call still got its
    // answer, so the client's pending map is empty.
    assert_eq!(p.pending_calls(), 0);
    // Admit-shed bypasses the pools and holds no slot.
    assert_eq!(ctl.counts(), [1, 0, 0]);
    // Clearing the controller restores normal service.
    p.s.set_admission(None);
    assert_eq!(&p.call(1, 0, b"y").unwrap()[..], b"y");
}

fn begin_shed_releases_slot_exactly_once(p: &Pair) {
    p.s.register(RpcId(1), echo());
    let ctl = p.admission(TestAdmission {
        shed_at_begin: true,
        ..Default::default()
    });
    assert_eq!(
        p.call(1, 0, b"x").unwrap_err(),
        RpcError::Busy {
            retry_after: Duration::from_millis(3)
        }
    );
    assert_eq!(p.pending_calls(), 0);
    assert_eq!(ctl.counts(), [1, 1, 1]);
}

fn admitted_calls_balance_admission_accounting(p: &Pair) {
    p.s.register(RpcId(1), echo());
    let ctl = p.admission(TestAdmission::default());
    for i in 0..8u8 {
        let out =
            p.c.call(&p.s.address(), RpcId(1), 3, Bytes::from(vec![i]))
                .unwrap();
        assert_eq!(&out[..], &[i]);
    }
    assert_eq!(ctl.counts(), [8, 8, 8]);
    assert_eq!(p.pending_calls(), 0);
}

fn deadline_against_stalled_handler_leaves_no_pending_entry(p: &Pair) {
    let release = Arc::new(AtomicBool::new(false));
    let release2 = Arc::clone(&release);
    p.s.register(
        RpcId(1),
        Arc::new(move |_req: Request| {
            while !release2.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(Bytes::new())
        }),
    );
    spawn_per_job(&*p.s);
    let err =
        p.c.call_with_deadline(
            &p.s.address(),
            RpcId(1),
            0,
            Bytes::new(),
            Duration::from_millis(20),
        )
        .unwrap_err();
    assert_eq!(err, RpcError::Timeout);
    // The abandoned call must not leak a pending entry.
    assert_eq!(p.pending_calls(), 0);
    // Unstick the handler; its late response must be dropped harmlessly
    // and a patient caller still gets its answer.
    release.store(true, Ordering::Release);
    let ok =
        p.c.call_async(&p.s.address(), RpcId(1), 0, Bytes::from_static(b"ok"))
            .wait_timeout(Duration::from_secs(5));
    assert!(ok.is_ok());
    assert_eq!(p.pending_calls(), 0);
}

fn dropped_request_times_out_and_cancels(p: &Pair) {
    p.s.register(RpcId(1), echo());
    let mut cfg = FaultConfig::new(77);
    cfg.drop_request = 1.0;
    p.install_faults(Some(cfg));
    let err =
        p.c.call_with_deadline(
            &p.s.address(),
            RpcId(1),
            0,
            Bytes::from_static(b"x"),
            Duration::from_millis(20),
        )
        .unwrap_err();
    assert_eq!(err, RpcError::Timeout);
    assert_eq!(p.pending_calls(), 0);
    assert_eq!(p.s.stats().requests_received, 0);
    // Clearing the plan restores delivery.
    p.install_faults(None);
    assert_eq!(&p.call(1, 0, b"y").unwrap()[..], b"y");
}

fn dropped_response_times_out_and_cancels(p: &Pair) {
    p.s.register(RpcId(1), echo());
    let mut cfg = FaultConfig::new(13);
    cfg.drop_response = 1.0;
    p.install_faults(Some(cfg));
    let err =
        p.c.call_with_deadline(
            &p.s.address(),
            RpcId(1),
            0,
            Bytes::from_static(b"x"),
            Duration::from_millis(50),
        )
        .unwrap_err();
    assert_eq!(err, RpcError::Timeout);
    assert_eq!(p.pending_calls(), 0);
    // The request itself did arrive — only the response was lost.
    assert_eq!(p.s.stats().requests_received, 1);
    p.install_faults(None);
    assert_eq!(&p.call(1, 0, b"y").unwrap()[..], b"y");
}

fn duplicated_request_delivers_once_to_caller(p: &Pair) {
    let hits = Arc::new(AtomicUsize::new(0));
    let hits2 = Arc::clone(&hits);
    p.s.register(
        RpcId(1),
        Arc::new(move |req: Request| {
            hits2.fetch_add(1, Ordering::SeqCst);
            Ok(req.payload)
        }),
    );
    let mut cfg = FaultConfig::new(5);
    cfg.duplicate_request = 1.0;
    p.install_faults(Some(cfg));
    assert_eq!(&p.call(1, 0, b"dup").unwrap()[..], b"dup");
    // The handler runs twice (at-most-once is the service layer's job),
    // but the caller sees exactly one response.
    wait_until("the duplicate to run", || hits.load(Ordering::SeqCst) == 2);
    assert_eq!(p.pending_calls(), 0);
}

fn many_concurrent_callers(p: &Pair) {
    p.s.register(
        RpcId(1),
        Arc::new(|req: Request| {
            let n = u64::from_le_bytes(req.payload[..8].try_into().unwrap());
            Ok(Bytes::copy_from_slice(&(n + 1).to_le_bytes()))
        }),
    );
    let (c, addr) = (&p.c, &p.s.address());
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(move || {
                for i in 0..100u64 {
                    let out = c
                        .call(addr, RpcId(1), 0, Bytes::copy_from_slice(&i.to_le_bytes()))
                        .unwrap();
                    assert_eq!(u64::from_le_bytes(out[..8].try_into().unwrap()), i + 1);
                }
            });
        }
    });
    // Asynchronous calls in flight together complete out of band, each
    // with its own answer.
    let pending: Vec<_> = (0..50u64)
        .map(|i| c.call_async(addr, RpcId(1), 0, Bytes::copy_from_slice(&i.to_le_bytes())))
        .collect();
    for (i, call) in pending.into_iter().enumerate() {
        let out = call.wait().unwrap();
        assert_eq!(
            u64::from_le_bytes(out[..8].try_into().unwrap()),
            i as u64 + 1
        );
    }
    assert_eq!(p.s.stats().requests_received, 850);
    assert_eq!(p.pending_calls(), 0);
}

fn shutdown_fails_new_and_pending_calls(p: &Pair) {
    p.s.register(
        RpcId(1),
        Arc::new(|_req: Request| {
            std::thread::sleep(Duration::from_secs(10));
            Ok(Bytes::new())
        }),
    );
    spawn_per_job(&*p.s);
    let pending = p.c.call_async(&p.s.address(), RpcId(1), 0, Bytes::new());
    p.c.shutdown();
    assert_eq!(
        pending.wait_timeout(Duration::from_secs(2)).unwrap_err(),
        RpcError::Shutdown
    );
    assert_eq!(p.pending_calls(), 0);
    assert_eq!(p.call(1, 0, b"").unwrap_err(), RpcError::Shutdown);
}

/// A handler still queued when its endpoint shuts down never runs.
fn shut_down_endpoint_runs_no_queued_handler(p: &Pair) {
    let hits = Arc::new(AtomicUsize::new(0));
    let hits2 = Arc::clone(&hits);
    p.s.register(
        RpcId(1),
        Arc::new(move |req: Request| {
            hits2.fetch_add(1, Ordering::SeqCst);
            Ok(req.payload)
        }),
    );
    type Job = Box<dyn FnOnce() + Send>;
    let queued: Arc<Mutex<Vec<Job>>> = Arc::default();
    let queue = Arc::clone(&queued);
    p.s.set_executor(Arc::new(move |_rpc, _prov, job| queue.lock().push(job)));
    let pending = p.c.call_async(&p.s.address(), RpcId(1), 0, Bytes::new());
    wait_until("the request to queue", || queued.lock().len() == 1);
    p.s.shutdown();
    let jobs = std::mem::take(&mut *queued.lock());
    for job in jobs {
        job();
    }
    assert_eq!(hits.load(Ordering::SeqCst), 0);
    assert!(pending.wait_timeout(Duration::from_secs(2)).is_err());
}
