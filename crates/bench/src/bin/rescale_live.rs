//! Live-rescaling macro-bench: what an online migration costs the
//! foreground workload.
//!
//! One in-process node serves a 4+4-database topology of which clients
//! initially use 2+2. Eight writers stream acked product overwrites and
//! reads while a background [`hepnos::rescale::Migrator`] walks the event
//! and product groups onto the full topology; the run is split into three
//! windows — **before** (steady state), **during** (copy + handoff under
//! traffic) and **after** (finalized, clients re-homed onto the full
//! topology) — and put/get latency percentiles are reported per window,
//! alongside the migration's own throughput. The headline number is the
//! p99 dilation during the copy pass: frozen ranges shed `Busy` with a
//! bounded retry hint, so the foreground pays a bounded, not unbounded,
//! stall.
//!
//! Run: `cargo run --release -p hepnos-bench --bin rescale_live`
//! (`--smoke` for a quick CI-sized pass). Results land in
//! `BENCH_rescale.json`.

use bedrock::{ConnectionDescriptor, DbCounts};
use hepnos::placement::ModuloPlacement;
use hepnos::rescale::{Migrator, MigratorConfig, PlacementInput};
use hepnos::testing::local_deployment;
use hepnos::{DataStore, ProductLabel, WriteBatch};
use hepnos_bench::percentile;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use yokan::{DbTarget, YokanClient};

const WRITERS: usize = 8;

// Workload phases, advanced by the main thread only.
const BEFORE: u8 = 0;
const DURING: u8 = 1;
const QUIESCE: u8 = 2;
const AFTER: u8 = 3;
const STOP: u8 = 4;

fn counts_full() -> DbCounts {
    DbCounts {
        datasets: 1,
        runs: 1,
        subruns: 1,
        events: 4,
        products: 4,
    }
}

/// Restrict descriptors to the databases the pre-rescale clients use.
fn shrink_descriptors(
    full: &[ConnectionDescriptor],
    max_events: usize,
    max_products: usize,
) -> Vec<ConnectionDescriptor> {
    full.iter()
        .map(|d| {
            let mut d = d.clone();
            for p in &mut d.providers {
                p.databases.retain(|name| {
                    let keep = |prefix: &str, max: usize| {
                        name.strip_prefix(prefix)
                            .and_then(|s| s.strip_prefix('_'))
                            .and_then(|s| s.parse::<usize>().ok())
                            .map(|i| i < max)
                    };
                    if name.starts_with("events") {
                        keep("events", max_events).unwrap_or(false)
                    } else if name.starts_with("products") {
                        keep("products", max_products).unwrap_or(false)
                    } else {
                        true
                    }
                });
            }
            d.providers.retain(|p| !p.databases.is_empty());
            d
        })
        .collect()
}

/// Every `DbTarget` of one group, sorted — the single-copy chain heads.
fn group_targets(descriptors: &[ConnectionDescriptor], prefix: &str) -> Vec<DbTarget> {
    let mut v: Vec<DbTarget> = descriptors
        .iter()
        .flat_map(|d| {
            d.providers.iter().flat_map(|p| {
                p.databases
                    .iter()
                    .filter(|n| n.starts_with(prefix))
                    .map(|n| DbTarget::new(d.address.clone(), p.provider_id, n))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    v.sort();
    v
}

fn writer_retry_policy() -> yokan::RetryPolicy {
    yokan::RetryPolicy {
        max_attempts: 16,
        rpc_timeout: Duration::from_millis(300),
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
        jitter_seed: 1,
    }
}

/// Per-phase latency samples of one writer (indexed by phase constant).
#[derive(Default)]
struct Samples {
    puts: [Vec<Duration>; 4],
    gets: [Vec<Duration>; 4],
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mode = if smoke { "smoke" } else { "full" };
    let events_per_subrun: u64 = if smoke { 30 } else { 120 };
    let payload_len = if smoke { 256 } else { 512 };
    let window = Duration::from_millis(if smoke { 200 } else { 600 });
    println!(
        "# Live rescale under {WRITERS} writers ({mode}): 2+2 -> 4+4 databases, \
         {events_per_subrun} events/subrun x 4 subruns"
    );

    let dep = local_deployment(1, counts_full());
    let full = dep.descriptors().to_vec();
    let small = shrink_descriptors(&full, 2, 2);
    let store_small = DataStore::connect_with_retry(
        dep.fabric().endpoint("bench-small"),
        &small,
        writer_retry_policy(),
    )
    .expect("connect small");
    let label = ProductLabel::new("payload").expect("label");
    let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();

    // Populate through the pre-rescale topology.
    let ds = store_small.root().create_dataset("bench").expect("dataset");
    let uuid = ds.uuid().expect("uuid");
    let run = ds.create_run(1).expect("run");
    for s in 0..4u64 {
        let sr = run.create_subrun(s).expect("subrun");
        let mut batch = WriteBatch::new(&store_small);
        for e in 0..events_per_subrun {
            let ev = batch.create_event(&sr, &uuid, e).expect("event");
            batch.store(&ev, &label, &payload).expect("store");
        }
        batch.flush().expect("flush");
    }

    let phase = Arc::new(AtomicU8::new(BEFORE));
    let store_full_cell: Arc<OnceLock<DataStore>> = Arc::new(OnceLock::new());
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let phase = phase.clone();
        let store_small = store_small.clone();
        let store_full_cell = store_full_cell.clone();
        let label = label.clone();
        let payload = payload.clone();
        handles.push(std::thread::spawn(move || -> Samples {
            let shard_events = |store: &DataStore| {
                let run = store
                    .dataset("bench")
                    .expect("dataset")
                    .run(1)
                    .expect("run");
                let mut evs = Vec::new();
                let mut i = 0usize;
                for sr in run.subruns().expect("subruns") {
                    for ev in sr.events().expect("events") {
                        if i % WRITERS == w {
                            evs.push(ev);
                        }
                        i += 1;
                    }
                }
                evs
            };
            let old_events = shard_events(&store_small);
            let mut new_events: Option<Vec<hepnos::Event>> = None;
            let mut out = Samples::default();
            let mut i = 0usize;
            loop {
                let p = phase.load(Ordering::SeqCst);
                match p {
                    STOP => return out,
                    QUIESCE => {
                        std::thread::sleep(Duration::from_micros(200));
                        continue;
                    }
                    AFTER if new_events.is_none() => {
                        let store = store_full_cell.get().expect("full store published");
                        new_events = Some(shard_events(store));
                    }
                    _ => {}
                }
                let evs = match p {
                    AFTER => new_events.as_ref().expect("fetched above"),
                    _ => &old_events,
                };
                let ev = &evs[i % evs.len()];
                i += 1;
                let t = Instant::now();
                ev.store(&label, &payload).expect("acked put");
                out.puts[p as usize].push(t.elapsed());
                let t = Instant::now();
                let got: Option<Vec<u8>> = ev.load(&label).expect("get");
                out.gets[p as usize].push(t.elapsed());
                assert!(got.is_some(), "acked product missing");
            }
        }));
    }

    std::thread::sleep(window); // the BEFORE window

    // The background migration: events then products, under traffic.
    let mig_cfg = MigratorConfig {
        batch_keys: 16,
        max_inflight_ranges: 2,
        freeze_retry_after: Duration::from_millis(1),
        range_pause: Duration::from_millis(if smoke { 1 } else { 2 }),
    };
    let to_chains = |ts: Vec<DbTarget>| ts.into_iter().map(|t| vec![t]).collect::<Vec<_>>();
    let ev_mig = Migrator::new(
        YokanClient::new(dep.fabric().endpoint("bench-mig-ev")),
        to_chains(group_targets(&small, "events")),
        to_chains(group_targets(&full, "events")),
        Arc::new(ModuloPlacement),
        PlacementInput::Prefix(32),
        mig_cfg.clone(),
    )
    .expect("events migrator");
    let pr_mig = Migrator::new(
        YokanClient::new(dep.fabric().endpoint("bench-mig-pr")),
        to_chains(group_targets(&small, "products")),
        to_chains(group_targets(&full, "products")),
        Arc::new(ModuloPlacement),
        PlacementInput::Product,
        mig_cfg,
    )
    .expect("products migrator");
    phase.store(DURING, Ordering::SeqCst);
    let t_mig = Instant::now();
    let ev_stats = ev_mig.run().expect("events migration");
    let pr_stats = pr_mig.run().expect("products migration");
    let mig_elapsed = t_mig.elapsed();

    // Quiesce the epoch-1 writers, then fence them for good and re-home
    // the clients onto the full topology.
    phase.store(QUIESCE, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(ev_mig.finalize(2).expect("finalize events"), 2);
    assert_eq!(pr_mig.finalize(2).expect("finalize products"), 2);
    let store_full =
        DataStore::connect(dep.fabric().endpoint("bench-full"), &full).expect("connect full");
    assert_eq!(store_full.topology_epoch(), 2);
    assert!(
        store_full_cell.set(store_full).is_ok(),
        "publish full store once"
    );
    phase.store(AFTER, Ordering::SeqCst);
    std::thread::sleep(window); // the AFTER window
    phase.store(STOP, Ordering::SeqCst);

    let mut merged = Samples::default();
    for h in handles {
        let s = h.join().expect("writer panicked");
        for p in [BEFORE, DURING, AFTER] {
            merged.puts[p as usize].extend(s.puts[p as usize].iter());
            merged.gets[p as usize].extend(s.gets[p as usize].iter());
        }
    }
    dep.shutdown();

    let mut lines = Vec::new();
    let mut p99s = [[Duration::ZERO; 2]; 4];
    for (pi, name) in [(BEFORE, "before"), (DURING, "during"), (AFTER, "after")] {
        for (oi, (op, samples)) in [
            ("put", &mut merged.puts[pi as usize]),
            ("get", &mut merged.gets[pi as usize]),
        ]
        .into_iter()
        .enumerate()
        {
            assert!(!samples.is_empty(), "no {op} samples in the {name} window");
            samples.sort();
            let (p50, p99) = (percentile(samples, 0.50), percentile(samples, 0.99));
            p99s[pi as usize][oi] = p99;
            lines.push(format!(
                "{{ \"case\": \"latency\", \"phase\": \"{name}\", \"op\": \"{op}\", \
                 \"n\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {} }}",
                samples.len(),
                p50.as_micros(),
                p99.as_micros(),
                samples.last().expect("non-empty").as_micros()
            ));
        }
    }
    let keys = ev_stats.keys_moved + pr_stats.keys_moved;
    let bytes = ev_stats.bytes_moved + pr_stats.bytes_moved;
    lines.push(format!(
        "{{ \"case\": \"migration\", \"elapsed_ms\": {}, \"keys_moved\": {keys}, \
         \"bytes_moved\": {bytes}, \"ranges\": {}, \"keys_per_s\": {:.0}, \
         \"bytes_per_s\": {:.0} }}",
        mig_elapsed.as_millis(),
        ev_stats.ranges_migrated + pr_stats.ranges_migrated,
        keys as f64 / mig_elapsed.as_secs_f64(),
        bytes as f64 / mig_elapsed.as_secs_f64()
    ));
    let ratio = |oi: usize| {
        let before = p99s[BEFORE as usize][oi].as_secs_f64();
        if before > 0.0 {
            p99s[DURING as usize][oi].as_secs_f64() / before
        } else {
            f64::NAN
        }
    };
    lines.push(format!(
        "{{ \"case\": \"dilation\", \"put_p99_during_over_before\": {:.2}, \
         \"get_p99_during_over_before\": {:.2} }}",
        ratio(0),
        ratio(1)
    ));
    for line in &lines {
        println!("{line}");
    }
    std::fs::write("BENCH_rescale.json", lines.join("\n") + "\n")
        .expect("write BENCH_rescale.json");
}
