//! Tests for batched writes and the ParallelEventProcessor.

use bedrock::DbCounts;
use hepnos::testing::local_deployment;
use hepnos::{AsyncWriteBatch, ParallelEventProcessor, PepOptions, ProductLabel, WriteBatch};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;

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

#[test]
fn write_batch_groups_by_database_and_flushes_on_drop() {
    let dep = local_deployment(1, counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("batched").unwrap();
    let run = ds.create_run(1).unwrap();
    let sr = run.create_subrun(0).unwrap();
    let uuid = ds.uuid().unwrap();
    let label = ProductLabel::new("hits").unwrap();
    {
        let mut batch = WriteBatch::new(&store);
        for e in 0..100u64 {
            let ev = batch.create_event(&sr, &uuid, e).unwrap();
            batch
                .store(
                    &ev,
                    &label,
                    &vec![Hit {
                        channel: e as u32,
                        adc: 7,
                    }],
                )
                .unwrap();
        }
        assert!(batch.queued() > 0);
        // Dropped here: must flush everything.
    }
    let evs = sr.events().unwrap();
    assert_eq!(evs.len(), 100);
    for ev in &evs {
        let hits: Vec<Hit> = ev.load(&label).unwrap().unwrap();
        assert_eq!(hits[0].channel, ev.number() as u32);
    }
    dep.shutdown();
}

#[test]
fn write_batch_uses_fewer_rpcs_than_direct_writes() {
    let dep = local_deployment(1, counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("rpccount").unwrap();
    let sr = ds.create_run(1).unwrap().create_subrun(0).unwrap();
    let uuid = ds.uuid().unwrap();
    let mut batch = WriteBatch::new(&store);
    for e in 0..1000u64 {
        batch.create_event(&sr, &uuid, e).unwrap();
    }
    batch.flush().unwrap();
    // 1000 creations over 4 event dbs; but one subrun maps to ONE db, so a
    // single put_multi must have carried all 1000 keys.
    assert_eq!(batch.flush_rpcs(), 1);
    assert_eq!(batch.flushed_pairs(), 1000);
    dep.shutdown();
}

#[test]
fn write_batch_eager_flush_at_limit() {
    let dep = local_deployment(1, counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("eager").unwrap();
    let sr = ds.create_run(1).unwrap().create_subrun(0).unwrap();
    let uuid = ds.uuid().unwrap();
    let mut batch = WriteBatch::new(&store).with_per_db_limit(64);
    for e in 0..256u64 {
        batch.create_event(&sr, &uuid, e).unwrap();
    }
    assert_eq!(batch.flush_rpcs(), 4); // 256 / 64
    assert_eq!(batch.queued(), 0);
    dep.shutdown();
}

#[test]
fn async_write_batch_overlaps_and_completes() {
    let dep = local_deployment(1, counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("async").unwrap();
    let sr = ds.create_run(1).unwrap().create_subrun(0).unwrap();
    let uuid = ds.uuid().unwrap();
    let rt = argos::Runtime::simple(2);
    let label = ProductLabel::new("hits").unwrap();
    {
        let mut batch =
            AsyncWriteBatch::new(&store, rt.default_pool().unwrap()).with_per_db_limit(32);
        for e in 0..200u64 {
            let ev = batch.create_event(&sr, &uuid, e).unwrap();
            batch
                .store(
                    &ev,
                    &label,
                    &vec![Hit {
                        channel: 1,
                        adc: e as u16,
                    }],
                )
                .unwrap();
        }
        batch.wait().unwrap();
        assert_eq!(batch.flushed_pairs(), 400);
    }
    assert_eq!(sr.events().unwrap().len(), 200);
    rt.shutdown();
    dep.shutdown();
}

#[test]
fn pep_processes_every_event_exactly_once() {
    let dep = local_deployment(2, counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("pep").unwrap();
    let mut expected = HashSet::new();
    for r in 0..3u64 {
        let run = ds.create_run(r).unwrap();
        for s in 0..5u64 {
            let sr = run.create_subrun(s).unwrap();
            let mut batch = WriteBatch::new(&store);
            for e in 0..40u64 {
                batch.create_event(&sr, &ds.uuid().unwrap(), e).unwrap();
                expected.insert((r, s, e));
            }
        }
    }
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    let pep = ParallelEventProcessor::new(
        store.clone(),
        PepOptions {
            load_batch_size: 64,
            dispatch_batch_size: 8,
            num_workers: 4,
            ..Default::default()
        },
    );
    let stats = pep
        .process(&ds, move |_wid, pe| {
            seen2.lock().push(pe.event().coordinates());
        })
        .unwrap();
    let seen = seen.lock();
    assert_eq!(seen.len(), expected.len());
    let seen_set: HashSet<_> = seen.iter().cloned().collect();
    assert_eq!(seen_set.len(), seen.len(), "an event was processed twice");
    assert_eq!(seen_set, expected.iter().cloned().collect::<HashSet<_>>());
    assert_eq!(stats.total_events, 600);
    assert_eq!(stats.workers.len(), 4);
    dep.shutdown();
}

#[test]
fn pep_load_balances_across_workers() {
    let dep = local_deployment(1, counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("balance").unwrap();
    let run = ds.create_run(1).unwrap();
    for s in 0..8u64 {
        let sr = run.create_subrun(s).unwrap();
        let mut batch = WriteBatch::new(&store);
        for e in 0..250u64 {
            batch.create_event(&sr, &ds.uuid().unwrap(), e).unwrap();
        }
    }
    let pep = ParallelEventProcessor::new(
        store.clone(),
        PepOptions {
            load_batch_size: 128,
            dispatch_batch_size: 16,
            num_workers: 4,
            ..Default::default()
        },
    );
    let stats = pep
        .process(&ds, |_wid, _pe| {
            // A realistic per-event cost (~20us) so that queue draining is
            // not over before the last worker thread even starts.
            let t = std::time::Instant::now();
            while t.elapsed() < std::time::Duration::from_micros(20) {
                std::hint::black_box(0u64);
            }
        })
        .unwrap();
    assert_eq!(stats.total_events, 2000);
    // With 2000 events in batches of 16 over 4 workers, no worker should
    // hog the queue.
    assert!(
        stats.load_imbalance() < 1.5,
        "imbalance {} too high; per-worker: {:?}",
        stats.load_imbalance(),
        stats
            .workers
            .iter()
            .map(|w| w.events_processed)
            .collect::<Vec<_>>()
    );
    dep.shutdown();
}

#[test]
fn pep_prefetches_products() {
    let dep = local_deployment(1, counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("prefetch").unwrap();
    let sr = ds.create_run(1).unwrap().create_subrun(0).unwrap();
    let label = ProductLabel::new("hits").unwrap();
    let mut batch = WriteBatch::new(&store);
    for e in 0..100u64 {
        let ev = batch.create_event(&sr, &ds.uuid().unwrap(), e).unwrap();
        // Every 10th event has no product: its prefetched slot loads as
        // `None`.
        if e % 10 == 0 {
            continue;
        }
        batch
            .store(
                &ev,
                &label,
                &vec![Hit {
                    channel: e as u32,
                    adc: 1,
                }],
            )
            .unwrap();
    }
    batch.flush().unwrap();
    let type_name = "Vec<Hit>";
    let pep = ParallelEventProcessor::new(
        store.clone(),
        PepOptions {
            prefetch: vec![(label.clone(), type_name.to_string())],
            num_workers: 2,
            ..Default::default()
        },
    );
    let loaded = Arc::new(Mutex::new(0usize));
    let missing = Arc::new(Mutex::new(0usize));
    let loaded2 = Arc::clone(&loaded);
    let missing2 = Arc::clone(&missing);
    let label2 = label.clone();
    let stats = pep
        .process(&ds, move |_wid, pe| {
            let hits: Option<Vec<Hit>> = pe.load(&label2).unwrap();
            let number = pe.event().number();
            if number % 10 == 0 {
                assert_eq!(hits, None, "event {number} has no product");
                *missing2.lock() += 1;
            } else {
                assert_eq!(hits.unwrap()[0].channel, number as u32);
            }
            *loaded2.lock() += 1;
        })
        .unwrap();
    assert_eq!(*loaded.lock(), 100);
    assert_eq!(*missing.lock(), 10);
    assert_eq!(stats.total_events, 100);
    // Readers did the product fetching (prefetch), so reader load_time > 0.
    assert!(stats.readers.iter().any(|r| r.events_loaded > 0));
    dep.shutdown();
}

#[test]
fn pep_on_empty_dataset_is_a_noop() {
    let dep = local_deployment(1, counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("empty").unwrap();
    let pep = ParallelEventProcessor::new(store.clone(), PepOptions::default());
    let stats = pep
        .process(&ds, |_w, _e| panic!("no events expected"))
        .unwrap();
    assert_eq!(stats.total_events, 0);
    dep.shutdown();
}

#[test]
fn pep_respects_reader_count() {
    let dep = local_deployment(1, counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("readers").unwrap();
    let run = ds.create_run(1).unwrap();
    for s in 0..4u64 {
        let sr = run.create_subrun(s).unwrap();
        for e in 0..10u64 {
            sr.create_event(e).unwrap();
        }
    }
    let pep = ParallelEventProcessor::new(
        store.clone(),
        PepOptions {
            num_readers: 2,
            num_workers: 2,
            ..Default::default()
        },
    );
    let stats = pep.process(&ds, |_w, _e| {}).unwrap();
    assert_eq!(stats.readers.len(), 2);
    assert_eq!(stats.total_events, 40);
    dep.shutdown();
}
