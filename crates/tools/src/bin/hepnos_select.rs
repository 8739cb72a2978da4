//! `hepnos-select` — the candidate-selection client (the paper's HEPnOS
//! workflow, §IV-B) as a command-line program.
//!
//! ```text
//! hepnos-select --connect descriptors.json --dataset path/to/ds
//!               [--workers N] [--load-batch N] [--dispatch-batch N]
//!               [--spectrum] [--pushdown]
//! ```
//!
//! Runs the ParallelEventProcessor over the dataset, applies the ν_e
//! selection to every slice, prints the accepted count, throughput and
//! load-balance statistics, and optionally the energy spectrum. Slice
//! products stored as columnar page blobs (`hepnos-ingest --columnar`)
//! are decoded transparently. With `--pushdown`, the selection is instead
//! compiled to a predicate program and evaluated server-side against the
//! column pages — only surviving slice ids cross the wire (events without
//! columnar products fall back to fetch-and-cut automatically).
//!
//! `--load-batch` caps each page a PEP reader fetches: the event keys of a
//! subrun, and the slice products one product database scans out of the
//! subrun's key range (default 16384).

use hepnos::{ParallelEventProcessor, PepOptions};
use hepnos_tools::{connect, Args};
use nova::loader::{slice_label, slice_type_name};
use nova::{EventRecord, SelectionCuts, SliceQuantities, Spectrum};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::path::Path;

const USAGE: &str = "hepnos-select --connect descriptors.json --dataset PATH \
                     [--workers N] [--load-batch N] [--dispatch-batch N] \
                     [--spectrum] [--pushdown]";

fn main() {
    let args = Args::from_env();
    let file = args.require("connect", USAGE);
    let dataset_path = args.require("dataset", USAGE);
    let workers: usize = args.parsed("workers", USAGE).unwrap_or(4);
    let load_batch_size: usize = args.parsed("load-batch", USAGE).unwrap_or(16384);
    let dispatch_batch_size: usize = args.parsed("dispatch-batch", USAGE).unwrap_or(64);
    let store = connect(Path::new(&file));
    let ds = store.dataset(&dataset_path).unwrap_or_else(|e| {
        eprintln!("cannot open dataset: {e}");
        std::process::exit(1);
    });
    let cuts = SelectionCuts::default();
    if args.get("pushdown").is_some() {
        if args.get("spectrum").is_some() {
            eprintln!("--spectrum needs slice payloads; it is unavailable with --pushdown");
            std::process::exit(2);
        }
        let t = std::time::Instant::now();
        let (ids, stats) = nova::select_dataset_pushdown(&store, &ds, &cuts).unwrap_or_else(|e| {
            eprintln!("processing failed: {e}");
            std::process::exit(1);
        });
        let dt = t.elapsed();
        println!(
            "processed {} events / {} slices in {dt:.2?} ({:.0} slices/s, push-down)",
            stats.events,
            stats.rows_in,
            stats.rows_in as f64 / dt.as_secs_f64(),
        );
        println!(
            "accepted {} candidate slices (rejection ratio {:.1e})",
            ids.len(),
            stats.rows_in as f64 / ids.len().max(1) as f64
        );
        println!(
            "pushdown: {} pages scanned/{} skipped, {} stored bytes filtered in place, \
             {} fallback events",
            stats.pages_scanned, stats.pages_skipped, stats.bytes_stored, stats.fallback_events
        );
        return;
    }
    let accepted: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
    let spectrum: Mutex<Spectrum> = Mutex::new(Spectrum::nue_energy());
    let slices_seen = Mutex::new(0u64);
    let pep = ParallelEventProcessor::new(
        store.clone(),
        PepOptions {
            num_workers: workers,
            load_batch_size,
            dispatch_batch_size,
            // Prefetch both representations: opaque blobs and columnar pages.
            prefetch: vec![
                (slice_label(), slice_type_name()),
                (slice_label(), nova::columnar::columnar_type_name()),
            ],
            ..Default::default()
        },
    );
    let stats = pep
        .process(&ds, |_w, pe| {
            let slices: Vec<SliceQuantities> = nova::loader::load_slices_prefetched(pe)
                .unwrap()
                .unwrap_or_default();
            let (run, subrun, event) = pe.event().coordinates();
            let rec = EventRecord {
                run,
                subrun,
                event,
                slices,
            };
            *slices_seen.lock() += rec.slices.len() as u64;
            let mut spec = spectrum.lock();
            spec.add_exposure(1.0);
            for s in rec.slices.iter().filter(|s| cuts.passes(s)) {
                spec.fill_slice(s);
            }
            drop(spec);
            accepted.lock().extend(nova::select_slices(&rec, &cuts));
        })
        .unwrap_or_else(|e| {
            eprintln!("processing failed: {e}");
            std::process::exit(1);
        });
    let accepted = accepted.into_inner();
    let slices_seen = slices_seen.into_inner();
    println!(
        "processed {} events / {} slices in {:.2?} ({:.0} slices/s, {workers} workers, \
         load imbalance {:.2})",
        stats.total_events,
        slices_seen,
        stats.wall_time,
        slices_seen as f64 / stats.wall_time.as_secs_f64(),
        stats.load_imbalance()
    );
    println!(
        "pipeline: overlap ratio {:.2} ({:.1?} blocked on storage), subruns in flight hwm {}, \
         {} dispatch batches stolen",
        stats.overlap_ratio(),
        stats.blocked_time(),
        stats.read_ahead_hwm(),
        stats.total_steals()
    );
    println!(
        "accepted {} candidate slices (rejection ratio {:.1e})",
        accepted.len(),
        slices_seen as f64 / accepted.len().max(1) as f64
    );
    let r = store.retry_stats();
    if r.failovers > 0 || r.read_fallbacks > 0 {
        println!(
            "replication: {} failovers, {} read fallbacks",
            r.failovers, r.read_fallbacks
        );
    }
    if args.get("spectrum").is_some() {
        print!("{}", spectrum.into_inner().ascii());
    }
}
