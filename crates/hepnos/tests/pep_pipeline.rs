//! Tests for the pipelined asynchronous PEP read path: exactly-once
//! delivery under fault injection, work stealing under a slow callback,
//! results byte-identical to independent per-event point reads, and honest
//! partial-progress reporting on the error path.

use bedrock::DbCounts;
use hepnos::testing::local_deployment;
use hepnos::{
    DataSet, DataStore, ParallelEventProcessor, PepOptions, ProductLabel, RetryPolicy, WriteBatch,
};
use mercurio::{FaultConfig, FaultPlan};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
struct Hit {
    channel: u32,
    adc: u16,
}

fn counts() -> DbCounts {
    DbCounts {
        datasets: 1,
        runs: 1,
        subruns: 2,
        events: 4,
        products: 4,
    }
}

fn hit_label() -> ProductLabel {
    ProductLabel::new("hits").unwrap()
}

fn hit_type() -> String {
    hepnos::keys::short_type_name::<Vec<Hit>>()
}

/// The deterministic `Vec<Hit>` product of event `(r, s, e)`, whose shape
/// depends on the coordinates.
fn hits(r: u64, s: u64, e: u64) -> Vec<Hit> {
    (0..(e % 7 + 1))
        .map(|i| Hit {
            channel: (r * 1000 + s * 100 + e + i) as u32,
            adc: (e * 31 + i) as u16,
        })
        .collect()
}

/// Seeded, structured workload: `n_subruns * n_events` events across two
/// runs, each carrying its [`hits`] product.
fn ingest(store: &DataStore, name: &str, n_subruns: u64, n_events: u64) -> DataSet {
    let ds = store.root().create_dataset(name).unwrap();
    let uuid = ds.uuid().unwrap();
    let label = hit_label();
    for r in 0..2u64 {
        let run = ds.create_run(r).unwrap();
        for s in 0..n_subruns {
            let sr = run.create_subrun(s).unwrap();
            let mut batch = WriteBatch::new(store);
            for e in 0..n_events {
                let ev = batch.create_event(&sr, &uuid, e).unwrap();
                batch.store(&ev, &label, &hits(r, s, e)).unwrap();
            }
        }
    }
    ds
}

/// Per-event raw product bytes keyed by coordinates, as observed by the
/// PEP callbacks — the unit of the byte-identity comparisons.
type Digest = BTreeMap<(u64, u64, u64), Option<Vec<u8>>>;

fn run_pep(store: &DataStore, ds: &DataSet, opts: PepOptions) -> (Digest, hepnos::PepStatistics) {
    let label = hit_label();
    let ty = hit_type();
    let digest: Mutex<Digest> = Mutex::new(BTreeMap::new());
    let pep = ParallelEventProcessor::new(store.clone(), opts);
    let stats = pep
        .process(ds, |_w, pe| {
            let bytes = pe.load_raw(&label, &ty).unwrap().map(|b| b.to_vec());
            let prev = digest.lock().insert(pe.event().coordinates(), bytes);
            assert!(prev.is_none(), "an event was delivered twice");
        })
        .unwrap();
    (digest.into_inner(), stats)
}

fn pipeline_opts(num_workers: usize) -> PepOptions {
    PepOptions {
        load_batch_size: 64,
        dispatch_batch_size: 8,
        num_workers,
        prefetch: vec![(hit_label(), hit_type())],
        read_ahead_pages: 3,
        ..Default::default()
    }
}

/// Retry aggressively enough that a plan's worst-case streak of drops
/// cannot exhaust the budget; `rpc_timeout` stays far above `delay_max` so
/// injected delays never masquerade as lost frames.
fn retry_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        rpc_timeout: Duration::from_millis(250),
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        jitter_seed: seed,
    }
}

fn fault_config(seed: u64) -> FaultConfig {
    let mut cfg = FaultConfig::new(seed);
    cfg.drop_request = 0.03;
    cfg.drop_response = 0.02;
    cfg.duplicate_request = 0.02;
    cfg.duplicate_response = 0.02;
    cfg.delay_probability = 0.10;
    cfg.delay_min = Duration::from_millis(1);
    cfg.delay_max = Duration::from_millis(10);
    cfg.disconnect_probability = 0.01;
    cfg
}

/// 8 workers over 4 event databases with an active fault plan on every
/// read RPC: each event's callback must run exactly once and the observed
/// product bytes must match a fault-free run, with no RPC giving up.
#[test]
fn pipelined_read_is_exactly_once_under_faults() {
    let dep = local_deployment(2, counts());
    let ds = ingest(&dep.datastore(), "faulty", 3, 30);
    let (clean, _) = run_pep(&dep.datastore(), &ds, pipeline_opts(8));
    assert_eq!(clean.len(), 2 * 3 * 30);

    for seed in [7u64, 1042] {
        let store = dep.connect_client_with_retry(&format!("retry-{seed}"), retry_policy(seed));
        let plan = Arc::new(FaultPlan::new(fault_config(seed)));
        dep.fabric().install_fault_plan(plan.clone());
        let (faulty, stats) = run_pep(&store, &ds, pipeline_opts(8));
        dep.fabric().clear_fault_plan();
        let retry = store.retry_stats();
        assert_eq!(
            retry.gave_up, 0,
            "seed {seed}: {} read RPC(s) exhausted their retry budget ({retry:?})",
            retry.gave_up
        );
        assert_eq!(
            faulty,
            clean,
            "seed {seed}: results diverged under faults (injected: {:?})",
            plan.counts()
        );
        assert_eq!(stats.total_events, stats.events_loaded);
    }
    dep.shutdown();
}

/// One worker sleeps in its callback while the rest are fast: the fast
/// workers must steal the slow worker's backlog, keeping delivery
/// exactly-once and the slow worker's share well under round-robin's 1/N.
#[test]
fn work_stealing_rescues_a_slow_worker() {
    let dep = local_deployment(1, counts());
    let store = dep.datastore();
    let ds = ingest(&store, "steal", 4, 60);
    let total = 2 * 4 * 60u64;
    let seen = Mutex::new(HashSet::new());
    let pep = ParallelEventProcessor::new(
        store.clone(),
        PepOptions {
            load_batch_size: 64,
            dispatch_batch_size: 4,
            num_workers: 4,
            ..Default::default()
        },
    );
    let stats = pep
        .process(&ds, |worker, pe| {
            assert!(
                seen.lock().insert(pe.event().coordinates()),
                "an event was delivered twice"
            );
            if worker == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
        })
        .unwrap();
    assert_eq!(stats.total_events, total);
    assert_eq!(seen.into_inner().len(), total as usize);
    assert!(
        stats.total_steals() > 0,
        "no batches were stolen despite a slow worker"
    );
    // Round-robin alone would leave worker 0 with 1/4 of the events; with
    // stealing the fast workers drain its deque instead.
    let slow = stats.workers[0].events_processed;
    assert!(
        slow < total / 4,
        "slow worker processed {slow} of {total} events — its backlog was not stolen \
         (per-worker: {:?})",
        stats
            .workers
            .iter()
            .map(|w| w.events_processed)
            .collect::<Vec<_>>()
    );
    dep.shutdown();
}

/// The PEP must deliver every ingested event with the bytes an independent
/// per-event point read returns, decoding to the product `ingest` wrote,
/// and actually pipeline (read-ahead observed). The oracle shares no code
/// with the PEP reader: it walks the known coordinates, not key listings.
/// One reader spanning every event database and a run without prefetch
/// (products loaded inside the callback) must match it too.
#[test]
fn pipelined_matches_point_reads_byte_for_byte() {
    let dep = local_deployment(2, counts());
    let store = dep.datastore();
    let (n_subruns, n_events) = (3, 50);
    let ds = ingest(&store, "ab", n_subruns, n_events);

    let (label, ty) = (hit_label(), hit_type());
    let mut point_reads = Digest::new();
    for r in 0..2u64 {
        let run = ds.run(r).unwrap();
        for s in 0..n_subruns {
            let sr = run.subrun(s).unwrap();
            for e in 0..n_events {
                let bytes = sr.event(e).unwrap().load_raw(&label, &ty).unwrap();
                let stored = bytes.as_deref().expect("ingested product missing");
                let decoded: Vec<Hit> = hepnos::binser::from_bytes(stored).unwrap();
                assert_eq!(
                    decoded,
                    hits(r, s, e),
                    "event ({r}, {s}, {e}) decoded wrong"
                );
                point_reads.insert((r, s, e), bytes);
            }
        }
    }
    assert_eq!(point_reads.len(), 2 * 3 * 50);

    let one_reader = PepOptions {
        num_readers: 1,
        ..pipeline_opts(4)
    };
    let no_prefetch = PepOptions {
        prefetch: Vec::new(),
        ..pipeline_opts(4)
    };
    for (name, opts) in [
        ("default", pipeline_opts(4)),
        ("one reader", one_reader),
        ("no prefetch", no_prefetch),
    ] {
        let (pipelined, stats) = run_pep(&store, &ds, opts);
        assert_eq!(
            pipelined, point_reads,
            "{name}: PEP products diverged from per-event point reads"
        );
        assert_eq!(stats.total_events, point_reads.len() as u64);
        assert_eq!(stats.events_loaded, stats.total_events);
        assert!(
            stats.read_ahead_hwm() >= 1,
            "{name}: pipelined run never had a page in flight"
        );
    }
    dep.shutdown();
}

/// Mid-run failure: a fault plan dropping every frame is installed after
/// the first callback, with a small retry budget. `process_partial` must
/// return the error *and* honest statistics — every dispatched event's
/// callback ran exactly once, and events loaded before the failure are
/// reported even though some were never dispatched.
#[test]
fn error_path_reports_partial_progress() {
    let dep = local_deployment(1, counts());
    let policy = RetryPolicy {
        max_attempts: 2,
        rpc_timeout: Duration::from_millis(50),
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        jitter_seed: 1,
    };
    let store = dep.connect_client_with_retry("partial", policy);
    let ds = ingest(&store, "partial", 2, 100);
    let total = 2 * 2 * 100u64;

    let blackout = {
        let mut cfg = FaultConfig::new(99);
        cfg.drop_request = 1.0;
        cfg
    };
    let tripped = std::sync::atomic::AtomicBool::new(false);
    let calls = Mutex::new(HashSet::new());
    let pep = ParallelEventProcessor::new(
        store.clone(),
        PepOptions {
            load_batch_size: 16,
            dispatch_batch_size: 4,
            num_workers: 2,
            read_ahead_pages: 2,
            ..Default::default()
        },
    );
    let (stats, err) = pep.process_partial(&ds, |_w, pe| {
        if !tripped.swap(true, std::sync::atomic::Ordering::SeqCst) {
            dep.fabric()
                .install_fault_plan(Arc::new(FaultPlan::new(blackout.clone())));
        }
        assert!(
            calls.lock().insert(pe.event().coordinates()),
            "an event was delivered twice on the error path"
        );
    });
    dep.fabric().clear_fault_plan();

    assert!(err.is_some(), "blackout did not surface as an error");
    let processed = calls.into_inner().len() as u64;
    assert_eq!(
        stats.total_events, processed,
        "statistics disagree with the callbacks that actually ran"
    );
    assert!(
        stats.total_events < total,
        "blackout struck too late to interrupt the run"
    );
    assert!(
        stats.events_loaded >= stats.total_events,
        "loaded {} < processed {}",
        stats.events_loaded,
        stats.total_events
    );
    assert_eq!(stats.workers.len(), 2, "worker stats lost on error path");
    dep.shutdown();
}

/// A second product type under the same label whose name the first type's
/// name begins.
#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
struct HitList {
    hits: Vec<u32>,
}

/// One label stored under two types, `Hit` and `HitList` (whose name `Hit`
/// begins), on some events one type only, and under both types on every
/// run and subrun too: a PEP prefetching one type must deliver exactly that
/// type's bytes, `None` where the event holds only the other type, and
/// equal per-event point reads — also when a load batch is smaller than a
/// subrun, so the event and product pages of one subrun end at different
/// events.
#[test]
fn prefetch_delivers_the_exact_type_only() {
    let dep = local_deployment(2, counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("exact").unwrap();
    let uuid = ds.uuid().unwrap();
    let label = hit_label();
    let (hit_ty, list_ty) = ("Hit".to_string(), "HitList".to_string());
    assert_eq!(hepnos::keys::short_type_name::<Hit>(), hit_ty);
    assert_eq!(hepnos::keys::short_type_name::<HitList>(), list_ty);
    let hit = |r: u64, s: u64, e: u64| Hit {
        channel: (r * 1000 + s * 100 + e) as u32,
        adc: e as u16,
    };
    let list = |e: u64| HitList {
        hits: (0..e % 5).map(|i| i as u32).collect(),
    };
    let n_events = 40u64;
    for r in 0..2u64 {
        let run = ds.create_run(r).unwrap();
        run.store(&label, &hit(r, 99, 99)).unwrap();
        run.store(&label, &list(99)).unwrap();
        for s in 0..2u64 {
            let sr = run.create_subrun(s).unwrap();
            sr.store(&label, &hit(r, s, 98)).unwrap();
            sr.store(&label, &list(98)).unwrap();
            let mut batch = WriteBatch::new(&store);
            for e in 0..n_events {
                let ev = batch.create_event(&sr, &uuid, e).unwrap();
                // Events 0, 3, 6, … hold only `HitList`; 1, 4, 7, … only
                // `Hit`; the rest both.
                if e % 3 != 0 {
                    batch.store(&ev, &label, &hit(r, s, e)).unwrap();
                }
                if e % 3 != 1 {
                    batch.store(&ev, &label, &list(e)).unwrap();
                }
            }
        }
    }

    type Typed = BTreeMap<(u64, u64, u64), (Option<Vec<u8>>, Option<Vec<u8>>)>;
    let mut point_reads = Typed::new();
    for r in 0..2u64 {
        for s in 0..2u64 {
            let sr = ds.run(r).unwrap().subrun(s).unwrap();
            for e in 0..n_events {
                let ev = sr.event(e).unwrap();
                let typed = (
                    ev.load_raw(&label, &hit_ty).unwrap(),
                    ev.load_raw(&label, &list_ty).unwrap(),
                );
                assert_eq!(typed.0.is_some(), e % 3 != 0);
                assert_eq!(typed.1.is_some(), e % 3 != 1);
                point_reads.insert((r, s, e), typed);
            }
        }
    }

    for load_batch_size in [3, 7, 64, 0] {
        for prefetch in [vec![hit_ty.clone()], vec![list_ty.clone(), hit_ty.clone()]] {
            let opts = PepOptions {
                load_batch_size,
                dispatch_batch_size: 4,
                num_workers: 3,
                read_ahead_pages: 2,
                prefetch: prefetch
                    .iter()
                    .map(|t| (label.clone(), t.clone()))
                    .collect(),
                ..Default::default()
            };
            let seen = Mutex::new(Typed::new());
            let pep = ParallelEventProcessor::new(store.clone(), opts);
            pep.process(&ds, |_, pe| {
                let raw = |ty: &str| pe.load_raw(&label, ty).unwrap().map(|b| b.to_vec());
                let typed = (raw(&hit_ty), raw(&list_ty));
                if let Some(bytes) = &typed.0 {
                    let decoded: Hit = hepnos::binser::from_bytes(bytes).unwrap();
                    let (r, s, e) = pe.event().coordinates();
                    assert_eq!(decoded, hit(r, s, e));
                }
                let prev = seen.lock().insert(pe.event().coordinates(), typed);
                assert!(prev.is_none(), "an event was delivered twice");
            })
            .unwrap();
            assert_eq!(
                seen.into_inner(),
                point_reads,
                "load batch {load_batch_size}, prefetch {prefetch:?}: PEP diverged from point reads"
            );
        }
    }
    dep.shutdown();
}

/// Products the PEP must not deliver, interleaved with the ones it must:
/// stale copies of every product on every product database (as a rescale
/// leaves them until it erases its old copies), and products of events
/// that were never created, so the product walks lag the event walk when
/// a load batch is smaller than a subrun. Each listed event must get the
/// product of the database it is placed on, equal to a per-event point
/// read.
#[test]
fn prefetch_joins_each_listed_event_with_its_home_product() {
    let dep = local_deployment(1, counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("homed").unwrap();
    let uuid = ds.uuid().unwrap();
    let (label, ty) = (hit_label(), hit_type());
    let raw = yokan::YokanClient::new(dep.fabric().endpoint("stale-writer"));
    let product_dbs: Vec<yokan::DbTarget> = (dep.descriptors().iter())
        .flat_map(|d| {
            d.providers.iter().flat_map(move |p| {
                (p.databases.iter())
                    .filter(|n| n.starts_with("products"))
                    .map(move |n| yokan::DbTarget::new(d.address.clone(), p.provider_id, n))
            })
        })
        .collect();
    assert_eq!(product_dbs.len(), 4);
    let mut point_reads = Digest::new();
    for r in 0..2u64 {
        let run = ds.create_run(r).unwrap();
        for s in 0..2u64 {
            let sr = run.create_subrun(s).unwrap();
            for e in 0..60u64 {
                let ek = hepnos::keys::event_key(&uuid, r, s, e);
                let pk = hepnos::keys::product_key(&ek, label.as_str(), &ty);
                for db in &product_dbs {
                    raw.put(db, &pk, b"stale").unwrap();
                }
                // Odd events are never created; even ones get their home
                // copy written again through the store.
                if e % 2 == 0 {
                    let ev = sr.create_event(e).unwrap();
                    ev.store(&label, &hits(r, s, e)).unwrap();
                    point_reads.insert((r, s, e), ev.load_raw(&label, &ty).unwrap());
                }
            }
        }
    }
    assert!(point_reads
        .values()
        .all(|v| v.as_deref() != Some(&b"stale"[..])));
    for load_batch_size in [4, 64] {
        let opts = PepOptions {
            load_batch_size,
            ..pipeline_opts(2)
        };
        let (pipelined, _) = run_pep(&store, &ds, opts);
        assert_eq!(
            pipelined, point_reads,
            "load batch {load_batch_size}: the PEP joined a product that is not the event's home copy"
        );
    }
    dep.shutdown();
}
