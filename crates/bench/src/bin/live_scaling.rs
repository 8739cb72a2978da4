//! Live (real threads, real storage path) miniature of Figures 2/3: the
//! file-based and HEPnOS workflows run the *actual* implementations in this
//! workspace over a laptop-scale dataset, sweeping the worker count.
//!
//! The crossover the paper reports appears live: once workers outnumber
//! files, the file-based workflow stops scaling while HEPnOS (event
//! granularity) keeps gaining. Both workflows run the same selection and
//! their accepted-slice sets are compared, as in §IV.
//!
//! Run: `cargo run --release -p hepnos-bench --bin live_scaling`

use bedrock::DbCounts;
use hepfile::{run_file_workflow, PfsConfig, SimPfs};
use hepnos::testing::local_deployment;
use hepnos::{ParallelEventProcessor, PepOptions};
use nova::loader::{slice_label, slice_type_name, DataLoader};
use nova::{files, select_slices, NovaGenerator, SelectionCuts};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::time::Instant;

const N_FILES: u64 = 12;
const EVENTS_PER_FILE: u64 = 400;
const SEED: u64 = 2023;
/// Per-slice compute cost added to both workflows, standing in for the real
/// CAFAna selection's cost on KNL cores (the synthetic cuts alone are
/// nanoseconds; the paper's workloads are compute-heavy). The cost is paid
/// by *sleeping*, not spinning, so that worker "cores" overlap even when
/// the host machine has fewer physical cores than workers — each worker
/// thread then behaves like a dedicated (slow) core.
const WORK_PER_SLICE: std::time::Duration = std::time::Duration::from_micros(50);

fn spin(per_slice: std::time::Duration, n_slices: usize) {
    std::thread::sleep(per_slice * n_slices as u32);
}

fn main() {
    let dir = std::env::temp_dir().join(format!("hepnos-live-{}", std::process::id()));
    let gen = NovaGenerator::new(SEED);
    let cuts = SelectionCuts::default();
    println!(
        "# Live mini-scaling: {N_FILES} files x {EVENTS_PER_FILE} events, real implementations"
    );
    let paths =
        files::write_dataset(&dir, &gen, N_FILES, EVENTS_PER_FILE).expect("dataset write failed");
    let total_slices: u64 = paths
        .iter()
        .map(|p| {
            files::read_file(p)
                .unwrap()
                .iter()
                .map(|e| e.slices.len() as u64)
                .sum::<u64>()
        })
        .sum();
    println!("# total slices: {total_slices}");

    // HEPnOS deployment, ingested once (the paper measures read throughput
    // on an already-prepared service).
    let dep = local_deployment(1, DbCounts::default());
    let store = dep.datastore();
    let ds = store.root().create_dataset("nova").unwrap();
    let loader = DataLoader::new(store.clone(), ds.clone());
    let ingest = loader.ingest_files(&paths).expect("ingest failed");
    println!(
        "# ingested: {} files, {} events, {} slices",
        ingest.files, ingest.events, ingest.slices
    );

    println!(
        "\n{:>8} {:>20} {:>20} {:>14}",
        "workers", "file-based (sl/s)", "hepnos-mem (sl/s)", "same result"
    );
    for workers in [2usize, 4, 8, 16, 32] {
        // ---------------- file-based ----------------
        let pfs = SimPfs::new(PfsConfig {
            aggregate_bandwidth: 2.0e9,
            metadata_latency: std::time::Duration::from_millis(2),
            time_scale: 1.0,
        });
        let accepted_file: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
        let t = Instant::now();
        run_file_workflow(paths.len(), workers, |i| {
            pfs.open();
            pfs.read(std::fs::metadata(&paths[i]).map(|m| m.len()).unwrap_or(0));
            let events = files::read_file(&paths[i]).expect("file read failed");
            let mut acc = Vec::new();
            for ev in &events {
                spin(WORK_PER_SLICE, ev.slices.len());
                acc.extend(select_slices(ev, &cuts));
            }
            accepted_file.lock().extend(acc);
        });
        let file_tp = total_slices as f64 / t.elapsed().as_secs_f64();

        // ---------------- HEPnOS ----------------
        let accepted_hepnos: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
        let pep = ParallelEventProcessor::new(
            store.clone(),
            PepOptions {
                num_workers: workers,
                load_batch_size: 2048,
                dispatch_batch_size: 64,
                prefetch: vec![(slice_label(), slice_type_name())],
                ..Default::default()
            },
        );
        let t = Instant::now();
        let cuts2 = cuts.clone();
        let stats = pep
            .process(&ds, |_wid, pe| {
                let slices: Vec<nova::SliceQuantities> =
                    pe.load(&slice_label()).unwrap().unwrap_or_default();
                let (run, subrun, event) = pe.event().coordinates();
                let rec = nova::EventRecord {
                    run,
                    subrun,
                    event,
                    slices,
                };
                spin(WORK_PER_SLICE, rec.slices.len());
                accepted_hepnos.lock().extend(select_slices(&rec, &cuts2));
            })
            .expect("pep failed");
        let hepnos_tp = total_slices as f64 / t.elapsed().as_secs_f64();
        let same = *accepted_file.lock() == *accepted_hepnos.lock();
        println!(
            "{:>8} {:>20.0} {:>20.0} {:>14}",
            workers,
            file_tp,
            hepnos_tp,
            if same { "YES" } else { "NO!" }
        );
        assert_eq!(stats.total_events as u64, ingest.events);
    }
    println!("\n# note: with {N_FILES} files, the file-based rows stop improving");
    println!("# once workers > files; HEPnOS keeps scaling with workers.");
    println!("\n# storage-tier stats after the sweep (entries, cache hits/misses/evictions):");
    for (label, s) in dep.backend_stats() {
        println!(
            "#   {label}: {} entries, cache {}h/{}m/{}e",
            s.entries, s.cache_hits, s.cache_misses, s.cache_evictions,
        );
    }
    dep.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
