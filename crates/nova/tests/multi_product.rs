//! Multi-product events: each ingested event carries two products of
//! different types (`Vec<SliceQuantities>` and `EventSummary`) under
//! different labels — and the ParallelEventProcessor can prefetch both.
//! The loader's synchronous, overlapped and file-parallel paths store the
//! same bytes, and a dead service is an error on each of them.

use bedrock::DbCounts;
use hepnos::testing::local_deployment;
use hepnos::{Event, ParallelEventProcessor, PepOptions};
use nova::columnar::columnar_type_name;
use nova::loader::{
    parallel_ingest, slice_label, slice_type_name, summary_label, summary_type_name, DataLoader,
};
use nova::{files, EventRecord, IngestStats, NovaGenerator, SliceQuantities};
use parking_lot::Mutex;

#[test]
fn ingest_stores_both_products() {
    let dep = local_deployment(1, DbCounts::default());
    let store = dep.datastore();
    let ds = store.root().create_dataset("multi").unwrap();
    let gen = NovaGenerator::new(21);
    let events = files::generate_file_events(&gen, 0, 40);
    DataLoader::new(store.clone(), ds.clone())
        .ingest_events(&events)
        .unwrap();
    let sr = ds.run(0).unwrap().subrun(0).unwrap();
    for (handle, rec) in sr.events().unwrap().iter().zip(&events) {
        let slices: Vec<SliceQuantities> = handle.load(&slice_label()).unwrap().unwrap();
        assert_eq!(&slices, &rec.slices);
        let summary: nova::EventSummary = handle.load(&summary_label()).unwrap().unwrap();
        assert_eq!(summary, rec.summary());
        assert_eq!(summary.n_slices as usize, rec.slices.len());
    }
    dep.shutdown();
}

#[test]
fn pep_prefetches_multiple_labels() {
    let dep = local_deployment(1, DbCounts::default());
    let store = dep.datastore();
    let ds = store.root().create_dataset("multi-prefetch").unwrap();
    let gen = NovaGenerator::new(22);
    let events = files::generate_file_events(&gen, 0, 60);
    DataLoader::new(store.clone(), ds.clone())
        .ingest_events(&events)
        .unwrap();
    let pep = ParallelEventProcessor::new(
        store.clone(),
        PepOptions {
            num_workers: 2,
            prefetch: vec![
                (slice_label(), slice_type_name()),
                (summary_label(), summary_type_name()),
            ],
            ..Default::default()
        },
    );
    let checked = Mutex::new(0usize);
    let stats = pep
        .process(&ds, |_w, pe| {
            let slices: Vec<SliceQuantities> = pe.load(&slice_label()).unwrap().unwrap_or_default();
            let summary: nova::EventSummary = pe.load(&summary_label()).unwrap().unwrap();
            // Cross-check the two prefetched products against each other.
            assert_eq!(summary.n_slices as usize, slices.len());
            let (run, subrun, event) = pe.event().coordinates();
            let rec = EventRecord {
                run,
                subrun,
                event,
                slices,
            };
            assert_eq!(rec.summary(), summary);
            *checked.lock() += 1;
        })
        .unwrap();
    assert_eq!(stats.total_events as usize, *checked.lock());
    assert!(*checked.lock() > 0);
    dep.shutdown();
}

#[test]
fn summary_type_name_is_stable() {
    assert_eq!(summary_type_name(), "EventSummary");
}

/// The synchronous and the overlapped ingest store the same bytes: the
/// same event listing and, per event, the same product under every slice
/// representation's type name and the summary's, for blob and columnar
/// slices alike. Overlapped plus columnar is the benchmark's push-down
/// setup.
#[test]
fn overlapped_ingest_matches_synchronous() {
    let dep = local_deployment(1, DbCounts::default());
    let store = dep.datastore();
    let gen = NovaGenerator::new(77);
    let events = files::generate_file_events(&gen, 3, 80);
    let rt = argos::Runtime::simple(2);
    let (run_n, subrun_n) = files::file_coordinates(3);
    let products = [
        (slice_label(), slice_type_name()),
        (slice_label(), columnar_type_name()),
        (summary_label(), summary_type_name()),
    ];
    for (repr, columnar) in [("blob", None), ("columnar", Some(64))] {
        let ingest = |overlapped: bool| {
            let ds = store
                .root()
                .create_dataset(&format!("{repr}-overlapped-{overlapped}"))
                .unwrap();
            let mut loader = DataLoader::new(store.clone(), ds.clone());
            if let Some(rows) = columnar {
                loader = loader.with_columnar(rows);
            }
            let stats = if overlapped {
                loader.ingest_events_overlapped(&events, rt.default_pool().unwrap())
            } else {
                loader.ingest_events(&events)
            };
            let stored = ds.run(run_n).unwrap().subrun(subrun_n).unwrap();
            (stats.unwrap(), stored.events().unwrap())
        };
        let (sync_stats, sync_events) = ingest(false);
        let (over_stats, over_events) = ingest(true);
        assert_eq!(sync_stats.events, events.len() as u64);
        assert_eq!(sync_stats.batch, None);
        assert!(over_stats.batch.is_some());
        assert_eq!(
            IngestStats {
                batch: None,
                ..over_stats
            },
            sync_stats,
            "{repr}"
        );
        let coordinates = |evs: &[Event]| evs.iter().map(Event::coordinates).collect::<Vec<_>>();
        assert_eq!(
            coordinates(&sync_events),
            coordinates(&over_events),
            "{repr}"
        );
        assert_eq!(sync_events.len(), events.len());
        for ((sync_ev, over_ev), rec) in sync_events.iter().zip(&over_events).zip(&events) {
            for (label, type_name) in &products {
                assert_eq!(
                    sync_ev.load_raw(label, type_name).unwrap(),
                    over_ev.load_raw(label, type_name).unwrap(),
                    "{repr}: {label:?} {type_name} of {:?}",
                    sync_ev.coordinates()
                );
            }
            // ... and what both stored is the input record.
            let slices = nova::loader::load_slices(over_ev).unwrap();
            assert_eq!(slices.as_ref(), Some(&rec.slices));
            let summary: nova::EventSummary = over_ev.load(&summary_label()).unwrap().unwrap();
            assert_eq!(summary, rec.summary());
        }
    }
    rt.shutdown();
    dep.shutdown();
}

/// Regression: an ingest hitting a dead service must come back as `Err`
/// from both ingest paths, not as a loader panic. 6000 events of one
/// subrun take the event database's group past the per-database limit
/// (4096), so a flush fails in the middle of the loop while both batches
/// still hold queued pairs: the loader has to drain both before they drop,
/// since their destructors panic on unreported failures.
#[test]
fn dead_service_is_an_error_on_both_ingest_paths() {
    let dep = local_deployment(1, DbCounts::default());
    let store = dep.datastore();
    let ds = store.root().create_dataset("doomed").unwrap();
    let gen = NovaGenerator::new(78);
    let events = files::generate_file_events(&gen, 0, 6000);
    let rt = argos::Runtime::simple(2);
    dep.shutdown();
    let loader = DataLoader::new(store.clone(), ds.clone());
    assert!(
        loader.ingest_events(&events).is_err(),
        "a dead service must yield Err from the synchronous ingest"
    );
    assert!(
        loader
            .ingest_events_overlapped(&events, rt.default_pool().unwrap())
            .is_err(),
        "a dead service must yield Err from the overlapped ingest"
    );
    rt.shutdown();
}

/// The file-parallel driver, synchronous and overlapped, with one loader
/// and with several: the stored events equal the files' regardless of
/// which loader ingested which file, and the pipeline counters exist
/// exactly when a pool is given and balance after a clean ingest.
#[test]
fn parallel_ingest_matches_files() {
    let dir = std::env::temp_dir().join(format!("nova-par-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gen = NovaGenerator::new(79);
    let paths = files::write_dataset(&dir.join("data"), &gen, 6, 25).unwrap();
    let dep = local_deployment(1, DbCounts::default());
    let store = dep.datastore();
    let rt = argos::Runtime::simple(2);
    for overlapped in [false, true] {
        for loaders in [1, 3] {
            let ds = store
                .root()
                .create_dataset(&format!("par-{overlapped}-{loaders}"))
                .unwrap();
            let pool = overlapped.then(|| rt.default_pool().unwrap());
            let stats = parallel_ingest(&store, &ds, &paths, loaders, None, pool).unwrap();
            assert_eq!(stats.files, 6);
            let mut total = 0u64;
            for (f, path) in paths.iter().enumerate() {
                let file_events = files::read_file(path).unwrap();
                let (r, s) = files::file_coordinates(f as u64);
                let sr = ds.run(r).unwrap().subrun(s).unwrap();
                assert_eq!(sr.events().unwrap().len(), file_events.len());
                total += file_events.len() as u64;
            }
            assert_eq!(stats.events, total);
            assert_eq!(stats.batch.is_some(), overlapped, "{stats:?}");
            if let Some(batch) = stats.batch {
                assert_eq!(batch.acked_pairs, batch.shipped_pairs);
                assert_eq!(batch.acked_rpcs, batch.flush_rpcs);
                assert_eq!(batch.shipped_pairs, 2 * total);
            }
        }
    }
    rt.shutdown();
    dep.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cosmic_sample_flows_through_the_pipeline() {
    // The 12x-rate cosmic sample (§III-A) must flow through files and
    // ingestion exactly like beam data.
    let dir = std::env::temp_dir().join(format!("nova-cosmic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gen = nova::NovaGenerator::with_config(5, nova::GeneratorConfig::cosmic());
    let path = dir.join("cosmic.hepf");
    let (events, slices) = files::write_file(&path, &gen, 0, 50).unwrap();
    assert_eq!(events, 50);
    assert!(
        slices > 50 * 30,
        "cosmic file should be dense: {slices} slices for {events} events"
    );
    let dep = local_deployment(1, DbCounts::default());
    let store = dep.datastore();
    let ds = store.root().create_dataset("cosmic").unwrap();
    let stats = DataLoader::new(store.clone(), ds.clone())
        .ingest_file(&path)
        .unwrap();
    assert_eq!(stats.slices, slices);
    // Selection still rejects nearly everything (cosmics are background).
    let cuts = nova::SelectionCuts::default();
    let mut accepted = 0usize;
    for ev in ds.run(0).unwrap().subrun(0).unwrap().events().unwrap() {
        let sl: Vec<SliceQuantities> = ev.load(&slice_label()).unwrap().unwrap();
        let (run, subrun, event) = ev.coordinates();
        let rec = EventRecord {
            run,
            subrun,
            event,
            slices: sl,
        };
        accepted += nova::select_slices(&rec, &cuts).len();
    }
    assert!(
        (accepted as f64) < slices as f64 * 0.01,
        "cosmic acceptance too high: {accepted}/{slices}"
    );
    dep.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
