//! Live-rescaling chaos suite: online shard migration under concurrent
//! faulted ingest, over real TCP sockets.
//!
//! For each fixed seed: a 2-node replicated deployment (R=2) serves a
//! 4+4-database topology of which clients initially use only 2+2. While
//! 8 concurrent writers ingest a seeded nova workload through the small
//! topology — behind a fault plan injecting drops, duplicates and delays —
//! a background [`hepnos::rescale::Migrator`] walks the event and product
//! groups onto the full topology, and one node is killed outright
//! mid-migration. The suite then requires:
//!
//! - **zero lost acks**: every writer completes without error and a client
//!   of the *new* topology reads contents byte-identical to a fault-free
//!   run;
//! - **zero double-applies**: duplicated mutation frames are absorbed by
//!   the dedup window, not re-applied (and the digest equality would
//!   expose any slip);
//! - **completes or cleanly resumes**: if the kill failed the migration
//!   pass, re-running the same pass converges;
//! - **handoff dual-writes**: overwrites of already-moved keys through the
//!   old topology are forwarded to the new owners;
//! - **epoch fencing**: once the rescale is finalized, a writer still
//!   stamping the old topology epoch is rejected, not silently accepted.
//!
//! Two in-process companions pin the read side: reads through the new
//! topology during Handoff (dual-read with old-owner fallback) — blocking
//! scans and pipelined PEP passes alike — must never miss an acked key,
//! and a fenced writer recovers by refreshing its epoch.

use bedrock::{BackendKind, BedrockServer, ConnectionDescriptor, DbCounts, ServiceConfig};
use hepnos::placement::{ModuloPlacement, Placement};
use hepnos::rescale::{Migrator, MigratorConfig, PlacementInput};
use hepnos::testing::local_deployment;
use hepnos::{
    DataStore, Event, HepnosError, ParallelEventProcessor, PepOptions, ProductLabel, WriteBatch,
};
use mercurio::fault::{FaultConfig, FaultPlan};
use mercurio::tcp::TcpEndpoint;
use nova::loader::{slice_label, summary_label, DataLoader};
use nova::{EventRecord, NovaGenerator};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use yokan::{DbTarget, YokanClient};

/// The fixed seeds the suite replays; CI runs exactly these.
const SEEDS: [u64; 3] = [7, 21, 1042];
const WRITERS: usize = 8;

/// The deployment's physical capacity: the topology the rescale grows into.
fn counts_full() -> DbCounts {
    DbCounts {
        datasets: 1,
        runs: 1,
        subruns: 1,
        events: 4,
        products: 4,
    }
}

/// The pre-rescale client view (2 event + 2 product databases).
fn counts_small() -> DbCounts {
    DbCounts {
        datasets: 1,
        runs: 1,
        subruns: 1,
        events: 2,
        products: 2,
    }
}

fn replicated_config() -> ServiceConfig {
    let mut cfg = ServiceConfig::hepnos_topology(counts_full(), BackendKind::Map, None);
    cfg.replication = Some(bedrock::ReplicationConfig {
        factor: 2,
        forward_timeout_ms: 50,
        forward_attempts: 1,
        suspend_ms: 2_000,
    });
    cfg
}

/// Restrict descriptors to the databases the pre-rescale deployment used.
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

/// The replica chains of one database group (`events` / `products`).
fn group_chains(descriptors: &[ConnectionDescriptor], prefix: &str) -> Vec<Vec<DbTarget>> {
    bedrock::deployment_chains(descriptors)
        .into_iter()
        .filter(|c| c[0].db.starts_with(prefix))
        .collect()
}

/// Every `DbTarget` of one group, for single-copy (in-process) topologies.
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

fn workload(seed: u64) -> Vec<EventRecord> {
    let gen = NovaGenerator::new(seed);
    let mut events = Vec::new();
    for run in 0..2u64 {
        for subrun in 0..2u64 {
            for event in 0..12u64 {
                events.push(gen.generate(run, subrun, event));
            }
        }
    }
    events
}

/// A deep per-target budget: writers must ride out injected drops (300 ms
/// timeouts), `Busy` sheds from frozen ranges, and the failover after the
/// kill — losing an ack to an exhausted budget would void the suite.
fn writer_retry_policy(seed: u64) -> yokan::RetryPolicy {
    yokan::RetryPolicy {
        max_attempts: 16,
        rpc_timeout: Duration::from_millis(300),
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        jitter_seed: seed,
    }
}

/// Everything the workload wrote, in deterministic order.
type Digest = Vec<(u64, u64, u64, Option<Vec<u8>>, Option<Vec<u8>>)>;

fn digest(store: &DataStore, dataset_name: &str) -> Digest {
    let ds = store
        .root()
        .dataset(dataset_name)
        .expect("dataset lookup failed");
    let slice = slice_label();
    let slice_ty = nova::loader::slice_type_name();
    let summary = summary_label();
    let summary_ty = nova::loader::summary_type_name();
    let mut out = Digest::new();
    for run in ds.runs().expect("list runs") {
        for sr in run.subruns().expect("list subruns") {
            for ev in sr.events().expect("list events") {
                let (r, s, e) = ev.coordinates();
                let slices = ev.load_raw(&slice, &slice_ty).expect("load slices");
                let sum = ev.load_raw(&summary, &summary_ty).expect("load summary");
                out.push((r, s, e, slices, sum));
            }
        }
    }
    out
}

/// Fault-free reference run (in-process fabric, pre-rescale topology — the
/// digest depends only on the data, not on transport or placement).
fn baseline_digest(seed: u64) -> Digest {
    let dep = local_deployment(1, counts_small());
    let store = dep.datastore();
    let ds = store.root().create_dataset("nova").expect("create dataset");
    DataLoader::new(store.clone(), ds)
        .ingest_events(&workload(seed))
        .expect("baseline ingest failed");
    let d = digest(&store, "nova");
    dep.shutdown();
    d
}

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Drops, duplicates and delays on every frame the writers' endpoint
/// sends or receives, derived deterministically from the seed.
fn fault_config(seed: u64) -> FaultConfig {
    let mut cfg = FaultConfig::new(seed);
    cfg.drop_request = 0.04;
    cfg.drop_response = 0.04;
    cfg.duplicate_request = 0.04;
    cfg.delay_probability = 0.15;
    cfg.delay_min = Duration::from_millis(1);
    cfg.delay_max = Duration::from_millis(6);
    cfg
}

fn live_migrator_config() -> MigratorConfig {
    MigratorConfig {
        batch_keys: 8,
        max_inflight_ranges: 2,
        freeze_retry_after: Duration::from_millis(2),
        range_pause: Duration::from_millis(25),
    }
}

#[test]
fn live_rescale_under_faulted_ingest_survives_node_kill() {
    for seed in SEEDS {
        let want = baseline_digest(seed);
        let cfg = replicated_config();
        let mut servers: Vec<Option<BedrockServer>> = (0..2)
            .map(|_| {
                Some(
                    bedrock::launch(TcpEndpoint::bind(0).expect("bind"), &cfg)
                        .expect("server bootstrap"),
                )
            })
            .collect();
        let descriptors: Vec<ConnectionDescriptor> = servers
            .iter()
            .map(|s| s.as_ref().unwrap().descriptor().clone())
            .collect();
        {
            let refs: Vec<&BedrockServer> = servers.iter().flatten().collect();
            bedrock::wire_replication(&refs);
        }
        let small = shrink_descriptors(&descriptors, 2, 2);
        let (old_events, new_events) = (
            group_chains(&small, "events"),
            group_chains(&descriptors, "events"),
        );
        let (old_products, new_products) = (
            group_chains(&small, "products"),
            group_chains(&descriptors, "products"),
        );
        assert_eq!(old_events.len(), 2);
        assert_eq!(new_events.len(), 4);

        // Writers use the pre-rescale topology behind a fault plan.
        let client_ep = TcpEndpoint::bind(0).expect("bind client");
        let store =
            DataStore::connect_with_retry(client_ep.clone(), &small, writer_retry_policy(seed))
                .expect("datastore connect");
        assert_eq!(store.replication_factor(), 2);
        assert_eq!(store.topology_epoch(), 1, "client must learn the epoch");
        store.root().create_dataset("nova").expect("create dataset");

        // The node that will die: the head of the first old events chain.
        let victim = (0..2)
            .find(|&i| {
                servers[i]
                    .as_ref()
                    .is_some_and(|s| s.address() == old_events[0][0].addr)
            })
            .expect("victim node index");

        // 8 writers, each ingesting an interleaved shard of the workload.
        // A barrier splits each shard: the first half runs fault-free, the
        // second half runs against faults, a live migration and the kill.
        let events = workload(seed);
        let gate = Arc::new(Barrier::new(WRITERS + 1));
        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let shard: Vec<EventRecord> = events.iter().skip(w).step_by(WRITERS).cloned().collect();
            let store = store.clone();
            let gate = gate.clone();
            handles.push(std::thread::spawn(move || {
                let ds = store.root().dataset("nova").expect("dataset");
                let loader = DataLoader::new(store, ds);
                let mid = shard.len() / 2;
                loader
                    .ingest_events(&shard[..mid])
                    .expect("fault-free first half failed");
                gate.wait();
                loader.ingest_events(&shard[mid..])
            }));
        }
        gate.wait();
        client_ep.install_fault_plan(Arc::new(FaultPlan::new(fault_config(seed))));

        // The background migration: events then products, while writers run.
        let ev_mig = Arc::new(
            Migrator::new(
                YokanClient::new(TcpEndpoint::bind(0).expect("bind mig")),
                old_events.clone(),
                new_events.clone(),
                Arc::new(ModuloPlacement),
                PlacementInput::Prefix(32),
                live_migrator_config(),
            )
            .expect("events migrator"),
        );
        let pr_mig = Arc::new(
            Migrator::new(
                YokanClient::new(TcpEndpoint::bind(0).expect("bind mig2")),
                old_products.clone(),
                new_products.clone(),
                Arc::new(ModuloPlacement),
                PlacementInput::Product,
                live_migrator_config(),
            )
            .expect("products migrator"),
        );
        let mig_thread = {
            let (ev, pr) = (ev_mig.clone(), pr_mig.clone());
            std::thread::spawn(move || (ev.run(), pr.run()))
        };

        // Kill one node outright once the migration is demonstrably in
        // flight: at least one range frozen, copied and handed off.
        {
            let ev = ev_mig.clone();
            wait_until(
                "the migration to move a range",
                Duration::from_secs(30),
                || ev.progress().ranges_migrated >= 1,
            );
        }
        servers[victim].take().unwrap().shutdown();

        // Zero lost acks: every writer completes despite faults, frozen
        // ranges and the kill.
        for h in handles {
            h.join()
                .expect("writer panicked")
                .expect("acked ingest failed under live rescale — lost acks");
        }

        // The migration completes, or cleanly resumes after the kill: the
        // pass is idempotent, so re-running the failed group converges.
        let (ev_res, pr_res) = mig_thread.join().expect("migrator panicked");
        if ev_res.is_err() {
            ev_mig.run().expect("events migration failed to resume");
        }
        if pr_res.is_err() {
            pr_mig.run().expect("products migration failed to resume");
        }
        client_ep.clear_fault_plan();

        // Handoff dual-writes: overwriting already-moved products through
        // the *old* topology (identical bytes, so the digest is untouched)
        // must be forwarded to the new owners by the old ones.
        let replayable = {
            let ds = store.root().dataset("nova").expect("dataset");
            let slice = slice_label();
            let slice_ty = nova::loader::slice_type_name();
            let mut first = None;
            for run in ds.runs().expect("runs") {
                for sr in run.subruns().expect("subruns") {
                    for ev in sr.events().expect("events") {
                        let bytes = ev
                            .load_raw(&slice, &slice_ty)
                            .expect("load slices")
                            .expect("acked product missing");
                        ev.store_raw(&slice, &slice_ty, &bytes).expect("re-store");
                        first.get_or_insert((ev, bytes));
                    }
                }
            }
            first.expect("workload has events")
        };
        let forwarded: u64 = servers
            .iter()
            .flatten()
            .map(|s| s.yokan().migration_stats().forwarded_writes)
            .sum();
        assert!(
            forwarded > 0,
            "seed {seed}: no handed-off overwrite was dual-written to a new owner"
        );
        // Zero double-applies, deterministically: replay one overwrite with
        // every request frame duplicated — the copy must be answered from
        // the dedup window, not re-applied (a re-apply would also break the
        // digest equality below).
        {
            let (ev, bytes) = &replayable;
            let mut dup = FaultConfig::new(seed);
            dup.duplicate_request = 1.0;
            client_ep.install_fault_plan(Arc::new(FaultPlan::new(dup)));
            ev.store_raw(&slice_label(), &nova::loader::slice_type_name(), bytes)
                .expect("replayed re-store");
            client_ep.clear_fault_plan();
        }
        wait_until(
            "a duplicated frame to be absorbed by the dedup window",
            Duration::from_secs(10),
            || {
                servers
                    .iter()
                    .flatten()
                    .map(|s| s.yokan().deduped_replays())
                    .sum::<u64>()
                    > 0
            },
        );

        // Finalize: converge stragglers, bump the topology epoch on every
        // reachable node, retire the handoff state.
        assert_eq!(ev_mig.finalize(2).expect("finalize events"), 2);
        assert_eq!(pr_mig.finalize(2).expect("finalize products"), 2);

        // Epoch fencing: the writers' store still stamps epoch 1 — its next
        // mutation must be rejected, not silently accepted.
        let err = store
            .root()
            .create_dataset("stale-after-rescale")
            .expect_err("stale-epoch writer was silently accepted");
        assert!(
            matches!(
                err,
                HepnosError::Storage(yokan::YokanError::WrongEpoch { .. })
            ),
            "seed {seed}: expected WrongEpoch, got {err:?}"
        );

        // Byte-identical read-back through the *new* topology (reads fall
        // back from the dead chain members transparently).
        let fresh = DataStore::connect(TcpEndpoint::bind(0).expect("bind fresh"), &descriptors)
            .expect("fresh connect");
        assert_eq!(
            digest(&fresh, "nova"),
            want,
            "seed {seed}: contents diverged after live rescale + kill \
             (retries: {:?})",
            store.retry_stats()
        );
        for s in servers.into_iter().flatten() {
            s.shutdown();
        }
    }
}

/// Dual-read pin: a client of the new topology, reading concurrently with
/// the copy pass, must never miss an acked key — including keys written
/// *behind* the copier mid-migration — and must observe handed-off
/// overwrites; a PEP pass over it must deliver every event exactly once
/// with its prefetched product. After finalize, a fresh client needs no
/// fallback at all.
#[test]
fn dual_reads_never_miss_acked_keys_during_handoff() {
    let dep = local_deployment(1, counts_full());
    let full = dep.descriptors().to_vec();
    let small = shrink_descriptors(&full, 2, 2);
    let store_small = DataStore::connect_with_retry(
        dep.fabric().endpoint("pin-small"),
        &small,
        writer_retry_policy(7),
    )
    .unwrap();
    let label = ProductLabel::new("payload").unwrap();
    let v1 = |s: u64, e: u64| vec![(s * 1000 + e) as u32; 3];
    let v2 = |s: u64, e: u64| vec![(s * 1000 + e) as u32 + 500_000; 3];

    // Populate through the pre-rescale topology.
    let ds = store_small.root().create_dataset("pin").unwrap();
    let uuid = ds.uuid().unwrap();
    let run = ds.create_run(1).unwrap();
    for s in 0..4u64 {
        let sr = run.create_subrun(s).unwrap();
        let mut batch = WriteBatch::new(&store_small);
        for e in 0..40u64 {
            let ev = batch.create_event(&sr, &uuid, e).unwrap();
            batch.store(&ev, &label, &v1(s, e)).unwrap();
        }
        batch.flush().unwrap();
    }

    // A client of the NEW topology, with dual-read fallbacks to the old
    // owners of both migrating groups.
    let store_full = DataStore::connect(dep.fabric().endpoint("pin-full"), &full).unwrap();
    for t in group_targets(&full, "events") {
        store_full.install_dual_read(&t.db, group_targets(&small, "events"));
    }
    for t in group_targets(&full, "products") {
        store_full.install_dual_read(&t.db, group_targets(&small, "products"));
    }
    // Every scan also runs a PEP pass: its pipelined listing and product
    // prefetch must deliver exactly the events the blocking scan saw, each
    // once, with the same payloads.
    let pep = ParallelEventProcessor::new(
        store_full.clone(),
        PepOptions {
            num_workers: 2,
            load_batch_size: 16,
            dispatch_batch_size: 8,
            prefetch: vec![(label.clone(), "Vec<u32>".to_string())],
            ..Default::default()
        },
    );
    // Any program will do: the stored blobs are not columnar, so every
    // scanned product answers one reply without being filtered.
    let program = yokan::Program {
        id_column: 0,
        predicates: Vec::new(),
    };
    let scan = |expected: &[(u64, usize)], value: &dyn Fn(u64, u64) -> Vec<u32>| {
        let ds = store_full.dataset("pin").unwrap();
        let run = ds.run(1).unwrap();
        let mut seen: Vec<(u64, usize)> = Vec::new();
        let mut scanned: Vec<(u64, u64, Option<Vec<u32>>)> = Vec::new();
        let mut listed: Vec<(u64, u64, u64)> = Vec::new();
        for sr in run.subruns().unwrap() {
            let events = sr.events().unwrap();
            listed.extend(events.iter().map(Event::coordinates));
            for ev in &events {
                let got: Vec<u32> = ev
                    .load(&label)
                    .expect("product read failed during handoff")
                    .expect("acked product missing during handoff");
                assert_eq!(got, value(sr.number(), ev.number()));
                scanned.push((sr.number(), ev.number(), Some(got)));
            }
            seen.push((sr.number(), events.len()));
        }
        assert_eq!(seen, expected, "a scan during handoff missed acked keys");

        // The multi-database listings see each of those events once, in
        // the same order as the concatenated per-subrun listings.
        let coords = |events: Vec<Event>| events.iter().map(Event::coordinates).collect::<Vec<_>>();
        assert_eq!(
            coords(ds.events().unwrap()),
            listed,
            "DataSet::events during handoff"
        );
        assert_eq!(
            coords(run.events().unwrap()),
            listed,
            "Run::events during handoff"
        );
        let mut replied = Vec::new();
        ds.filter_event_products(&label, &program, |ev, _| {
            replied.push((ev.run, ev.subrun, ev.event));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            replied, listed,
            "push-down scan during handoff missed or repeated events"
        );

        let delivered = Mutex::new(Vec::new());
        pep.process(&ds, |_, pe| {
            let (_, s, e) = pe.event().coordinates();
            let payload: Option<Vec<u32>> = pe.load(&label).ok().flatten();
            delivered.lock().unwrap().push((s, e, payload));
        })
        .expect("PEP pass failed during handoff");
        let mut delivered = delivered.into_inner().unwrap();
        delivered.sort();
        scanned.sort();
        assert_eq!(
            delivered, scanned,
            "a PEP pass during handoff missed, repeated or misread events"
        );
    };
    // Before any copying the new owners are empty: everything is served by
    // the old-owner fallback.
    let all_40: Vec<(u64, usize)> = (0..4u64).map(|s| (s, 40)).collect();
    scan(&all_40, &v1);
    assert!(
        store_full.retry_stats().dual_reads > 0,
        "pre-copy scans must have used the old-owner fallback"
    );

    // Copy pass in the background, deliberately slowed.
    let mig_cfg = MigratorConfig {
        batch_keys: 8,
        max_inflight_ranges: 2,
        freeze_retry_after: Duration::from_millis(2),
        range_pause: Duration::from_millis(10),
    };
    let to_chains = |ts: Vec<DbTarget>| ts.into_iter().map(|t| vec![t]).collect::<Vec<_>>();
    let ev_mig = Arc::new(
        Migrator::new(
            YokanClient::new(dep.fabric().endpoint("pin-mig-ev")),
            to_chains(group_targets(&small, "events")),
            to_chains(group_targets(&full, "events")),
            Arc::new(ModuloPlacement),
            PlacementInput::Prefix(32),
            mig_cfg.clone(),
        )
        .unwrap(),
    );
    let pr_mig = Arc::new(
        Migrator::new(
            YokanClient::new(dep.fabric().endpoint("pin-mig-pr")),
            to_chains(group_targets(&small, "products")),
            to_chains(group_targets(&full, "products")),
            Arc::new(ModuloPlacement),
            PlacementInput::Product,
            mig_cfg,
        )
        .unwrap(),
    );
    let done = Arc::new(AtomicBool::new(false));
    let mig_thread = {
        let (ev, pr, done) = (ev_mig.clone(), pr_mig.clone(), done.clone());
        std::thread::spawn(move || {
            let r = (ev.run(), pr.run());
            done.store(true, Ordering::SeqCst);
            r
        })
    };

    // Mid-migration, ack five late events *behind* the copier into subrun
    // 0 — from then on every scan must see 45 there.
    let sr0 = run.subruns().unwrap().remove(0);
    for i in 0..5u64 {
        let ev = sr0.create_event(1000 + i).unwrap();
        ev.store(&label, &v1(0, 1000 + i)).unwrap();
    }
    let with_late: Vec<(u64, usize)> = (0..4u64)
        .map(|s| (s, 40 + usize::from(s == 0) * 5))
        .collect();
    while !done.load(Ordering::SeqCst) {
        scan(&with_late, &v1);
    }
    let (ev_res, pr_res) = mig_thread.join().expect("migrator panicked");
    ev_res.expect("events migration failed");
    pr_res.expect("products migration failed");

    // Handoff: overwrite every product through the OLD topology; moved
    // keys are dual-written to the new owners, so the new-topology client
    // observes the update immediately.
    for sr in run.subruns().unwrap() {
        for ev in sr.events().unwrap() {
            let (_, s, e) = ev.coordinates();
            ev.store(&label, &v2(s, e)).unwrap();
        }
    }
    scan(&with_late, &v2);
    let mig_stats = dep.server(0).unwrap().yokan().migration_stats();
    assert!(
        mig_stats.forwarded_writes > 0,
        "handed-off overwrites were never dual-written: {mig_stats:?}"
    );

    // Finalize: stragglers (the late events) converge to their new homes,
    // the epoch advances, handoff state retires. A fresh client of the new
    // topology then needs no fallback at all.
    assert_eq!(ev_mig.finalize(2).unwrap(), 2);
    assert_eq!(pr_mig.finalize(2).unwrap(), 2);
    store_full.clear_dual_read();
    scan(&with_late, &v2);
    let fresh = DataStore::connect(dep.fabric().endpoint("pin-fresh"), &full).unwrap();
    assert_eq!(fresh.topology_epoch(), 2);
    let run_f = fresh.dataset("pin").unwrap().run(1).unwrap();
    let mut n = 0usize;
    for sr in run_f.subruns().unwrap() {
        n += sr.events().unwrap().len();
    }
    assert_eq!(n, 165, "post-finalize topology lost keys");
    assert_eq!(
        fresh.retry_stats().dual_reads,
        0,
        "a finalized rescale must not need old-owner fallbacks"
    );

    // Epoch fencing, all three writer flavours: the stale store is
    // rejected; a raw client stamping the old epoch is rejected with the
    // current epoch in the redirect; an epoch-0 (exempt) client passes.
    let err = store_small.root().create_dataset("stale").unwrap_err();
    assert!(matches!(
        err,
        HepnosError::Storage(yokan::YokanError::WrongEpoch { .. })
    ));
    let target = group_targets(&full, "events").remove(0);
    let stale = YokanClient::new(dep.fabric().endpoint("pin-stale"));
    stale.set_topology_epoch(1);
    match stale.put(&target, b"__stale_probe", b"x") {
        Err(yokan::YokanError::WrongEpoch { current }) => assert_eq!(current, 2),
        other => panic!("stale raw writer must be redirected, got {other:?}"),
    }
    let exempt = YokanClient::new(dep.fabric().endpoint("pin-exempt"));
    exempt.put(&target, b"__exempt_probe", b"x").unwrap();
    exempt.erase(&target, b"__exempt_probe").unwrap();
    dep.shutdown();
}

/// The teardown→converge window inside finalize: once `migration_complete`
/// stops the dual-writes, fresh clients own the destination copy outright.
/// A convergence pass that blindly re-copied the old owner's values would
/// clobber a fresh overwrite and resurrect a fresh erase — so converge must
/// treat handed-off keys as destination-authoritative (audit and erase the
/// old copy, never write it back) while still moving stragglers written
/// behind the copier, if-absent.
#[test]
fn finalize_window_preserves_fresh_writes_and_erases() {
    let dep = local_deployment(1, counts_full());
    let full = dep.descriptors().to_vec();
    let small = shrink_descriptors(&full, 2, 2);
    let old_ev = group_targets(&small, "events");
    let new_ev = group_targets(&full, "events");
    let place = ModuloPlacement;
    let raw = YokanClient::new(dep.fabric().endpoint("fin-raw"));

    // Synthetic event-style keys: a unique 32-byte prefix (the placement
    // input under `PlacementInput::Prefix(32)`) plus a short suffix. The
    // racing keys are picked to re-home onto a *brand-new* database
    // (index >= 2), so the post-teardown mutations below hit services with
    // no residual migration state of their own.
    let key = |i: usize| -> Vec<u8> {
        let mut k = format!("{i:032}").into_bytes();
        k.extend_from_slice(b"/p");
        k
    };
    let v1 = |i: usize| format!("v1-{i:04}").into_bytes();
    let homes = |k: &[u8]| {
        (
            place.place(&k[..32], old_ev.len()),
            place.place(&k[..32], new_ev.len()),
        )
    };
    const N: usize = 64;
    let mut fresh_keys: Vec<usize> = (0..N).filter(|&i| homes(&key(i)).1 >= 2).collect();
    let overwrite = fresh_keys.pop().expect("a re-homed key to overwrite");
    let erased = fresh_keys.pop().expect("a re-homed key to erase");
    let straggler = fresh_keys.pop().expect("a re-homed straggler key");
    let resident = (0..N)
        .find(|&i| {
            let (o, n) = homes(&key(i));
            new_ev[n].db == old_ev[o].db
        })
        .expect("a key that stays put");

    // Populate everything except the straggler, each key on its correct
    // old owner.
    for i in 0..N {
        if i == straggler {
            continue;
        }
        let k = key(i);
        let (o, _) = homes(&k);
        raw.put(&old_ev[o], &k, &v1(i)).unwrap();
    }

    let to_chains = |ts: Vec<DbTarget>| ts.into_iter().map(|t| vec![t]).collect::<Vec<_>>();
    let mig = Migrator::new(
        YokanClient::new(dep.fabric().endpoint("fin-mig")),
        to_chains(old_ev.clone()),
        to_chains(new_ev.clone()),
        Arc::new(ModuloPlacement),
        PlacementInput::Prefix(32),
        live_migrator_config(),
    )
    .unwrap();
    mig.run().unwrap();

    // Reproduce the window finalize itself opens: handoff torn down (the
    // dual-writes stop), convergence not yet run — and a fresh client
    // mutates re-homed keys on their new owners while a straggler lands
    // behind the copier on an old owner.
    for t in &old_ev {
        raw.migration_complete(t).unwrap();
    }
    let (k_ow, (o_ow, n_ow)) = (key(overwrite), homes(&key(overwrite)));
    let (k_er, (o_er, n_er)) = (key(erased), homes(&key(erased)));
    let (k_st, (o_st, n_st)) = (key(straggler), homes(&key(straggler)));
    raw.put(&new_ev[n_ow], &k_ow, b"fresh-v2").unwrap();
    raw.erase(&new_ev[n_er], &k_er).unwrap();
    raw.put(&old_ev[o_st], &k_st, &v1(straggler)).unwrap();

    assert_eq!(mig.finalize(2).unwrap(), 2);
    assert_eq!(
        mig.progress().under_replicated,
        0,
        "single-copy chains, all members up: nothing may be retained"
    );

    // The fresh overwrite survives converge and its old copy is gone.
    assert_eq!(
        raw.get(&new_ev[n_ow], &k_ow).unwrap().as_deref(),
        Some(&b"fresh-v2"[..]),
        "converge clobbered a fresh post-teardown overwrite"
    );
    assert_eq!(raw.get(&old_ev[o_ow], &k_ow).unwrap(), None);
    // The fresh erase stays erased — converge must not resurrect it from
    // the old owner's stale copy, and the stale copy itself is retired.
    assert_eq!(
        raw.get(&new_ev[n_er], &k_er).unwrap(),
        None,
        "converge resurrected a fresh post-teardown erase"
    );
    assert_eq!(raw.get(&old_ev[o_er], &k_er).unwrap(), None);
    // The straggler reached its new home and left the old one.
    assert_eq!(
        raw.get(&new_ev[n_st], &k_st).unwrap().as_deref(),
        Some(v1(straggler).as_slice()),
        "converge lost a straggler written behind the copier"
    );
    assert_eq!(raw.get(&old_ev[o_st], &k_st).unwrap(), None);
    // Bystanders: the resident never moved, and every other re-homed key
    // serves its original value from its new owner.
    let (o_rs, _) = homes(&key(resident));
    assert_eq!(
        raw.get(&old_ev[o_rs], &key(resident)).unwrap().as_deref(),
        Some(v1(resident).as_slice())
    );
    for i in fresh_keys {
        let k = key(i);
        let (_, n) = homes(&k);
        assert_eq!(
            raw.get(&new_ev[n], &k).unwrap().as_deref(),
            Some(v1(i).as_slice()),
            "re-homed key {i} lost in the finalize window"
        );
    }
    dep.shutdown();
}

/// A node that missed the finalize epoch bump (dead, partitioned, or
/// restarted since) re-converges from traffic: a mutation stamped with a
/// *newer* epoch than the node's own is proof the bump happened — clients
/// only learn epochs from services that installed them — so the node
/// adopts it instead of fencing the writer. And a recovering client must
/// learn the deployment's *max* epoch, not whatever the first node it
/// probes happens to believe.
#[test]
fn lagging_node_adopts_newer_epoch_from_traffic() {
    let dep = local_deployment(2, counts_small());
    let store = dep.datastore();
    assert_eq!(store.topology_epoch(), 1);

    // A finalize node 0 never saw: node 1 installs epoch 4.
    dep.server(1).unwrap().yokan().set_topology_epoch(4);

    // The refresh probes every node and adopts the max — probing only
    // node 0 would adopt the stale epoch 1 and get fenced by node 1.
    assert_eq!(store.refresh_topology_epoch().unwrap(), 4);

    // A stamped mutation at the lagging node is accepted and teaches it.
    let addr0 = dep.server(0).unwrap().address();
    let d0 = dep
        .descriptors()
        .iter()
        .find(|d| d.address == addr0)
        .expect("node 0 descriptor");
    let t0 = DbTarget::new(
        d0.address.clone(),
        d0.providers[0].provider_id,
        &d0.providers[0].databases[0],
    );
    let writer = YokanClient::new(dep.fabric().endpoint("adopt"));
    writer.set_topology_epoch(4);
    writer.put(&t0, b"__adopt_probe", b"x").unwrap();
    assert_eq!(
        dep.server(0).unwrap().yokan().topology_epoch(),
        4,
        "the lagging node must adopt the newer epoch it was shown"
    );
    writer.erase(&t0, b"__adopt_probe").unwrap();

    // Genuinely stale writers stay fenced — with the adopted epoch.
    let stale = YokanClient::new(dep.fabric().endpoint("adopt-stale"));
    stale.set_topology_epoch(2);
    match stale.put(&t0, b"__stale_probe", b"x") {
        Err(yokan::YokanError::WrongEpoch { current }) => assert_eq!(current, 4),
        other => panic!("stale writer must be fenced, got {other:?}"),
    }
    // The refreshed store keeps working against either node.
    store.root().create_dataset("post-adopt").unwrap();
    dep.shutdown();
}

/// A fenced writer is redirected, not stranded: after the epoch moves, a
/// refresh re-arms the client with the current epoch and its writes pass.
#[test]
fn stale_epoch_writer_is_fenced_and_recovers_after_refresh() {
    let dep = local_deployment(1, counts_small());
    let store = dep.datastore();
    assert_eq!(store.topology_epoch(), 1);
    store.root().create_dataset("before").unwrap();

    // Some other actor finalizes a rescale: the service epoch advances.
    dep.server(0).unwrap().yokan().set_topology_epoch(5);
    let err = store.root().create_dataset("during").unwrap_err();
    assert!(matches!(
        err,
        HepnosError::Storage(yokan::YokanError::WrongEpoch { current: 5 })
    ));

    // The redirect carries the cure: refresh, then retry.
    assert_eq!(store.refresh_topology_epoch().unwrap(), 5);
    store.root().create_dataset("after").unwrap();
    dep.shutdown();
}
