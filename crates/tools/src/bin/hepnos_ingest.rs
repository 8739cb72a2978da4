//! `hepnos-ingest` — the HDF2HEPnOS DataLoader as a command-line client.
//!
//! ```text
//! hepnos-ingest --connect descriptors.json --dataset path/to/ds
//!               --input DIR [--loaders N] [--generate FILESxEVENTS --seed S]
//!               [--overlap [--xstreams N]]
//! ```
//!
//! Ingests every `*.hepf` file under `--input` into the target dataset,
//! file-parallel across `--loaders` ranks. With `--generate`, a synthetic
//! NOvA-layout dataset is produced into `--input` first (useful for
//! demos on a fresh deployment). With `--overlap`, product payloads ship
//! through the asynchronous write pipeline (bounded in-flight flushes on
//! an `--xstreams`-wide pool) and the pipeline counters are reported.

use hepnos_tools::{connect, Args};
use nova::loader::parallel_ingest;
use nova::NovaGenerator;
use std::path::{Path, PathBuf};

const USAGE: &str = "hepnos-ingest --connect descriptors.json --dataset PATH --input DIR \
                     [--loaders N] [--generate FILESxEVENTS --seed S] \
                     [--overlap [--xstreams N]] [--columnar [PAGE_ROWS]]";

fn main() {
    let args = Args::from_env();
    let file = args.require("connect", USAGE);
    let dataset_path = args.require("dataset", USAGE);
    let input = PathBuf::from(args.require("input", USAGE));
    let loaders: usize = args.parsed("loaders", USAGE).unwrap_or(4);
    let overlap = args.get("overlap").is_some();
    let xstreams: usize = args.parsed("xstreams", USAGE).unwrap_or(2);
    // `--columnar` alone uses the default page size; `--columnar N` sets it.
    let columnar: Option<u32> = match args.get("columnar") {
        Some("true") => Some(nova::columnar::DEFAULT_PAGE_ROWS),
        _ => args.parsed("columnar", USAGE),
    };
    if let Some(spec) = args.get("generate") {
        let (files, events) = spec
            .split_once('x')
            .and_then(|(f, e)| Some((f.parse().ok()?, e.parse().ok()?)))
            .unwrap_or_else(|| {
                eprintln!("bad --generate (want FILESxEVENTS, e.g. 16x500)");
                std::process::exit(2);
            });
        let seed: u64 = args.parsed("seed", USAGE).unwrap_or(1);
        let gen = NovaGenerator::new(seed);
        nova::files::write_dataset(&input, &gen, files, events).unwrap_or_else(|e| {
            eprintln!("generation failed: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "generated {files} files x {events} events under {}",
            input.display()
        );
    }
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&input)
        .unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", input.display());
            std::process::exit(2);
        })
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "hepf"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("no .hepf files under {}", input.display());
        std::process::exit(2);
    }
    let store = connect(Path::new(&file));
    let ds = store
        .root()
        .create_dataset(&dataset_path)
        .unwrap_or_else(|e| {
            eprintln!("cannot create dataset: {e}");
            std::process::exit(1);
        });
    let t = std::time::Instant::now();
    let rt = overlap.then(|| argos::Runtime::simple(xstreams.max(1)));
    let pool = rt
        .as_ref()
        .map(|rt| rt.default_pool().expect("runtime pool"));
    let result = parallel_ingest(&store, &ds, &paths, loaders, columnar, pool);
    if let Some(rt) = rt {
        rt.shutdown();
    }
    let stats = result.unwrap_or_else(|e| {
        eprintln!("ingest failed: {e}");
        std::process::exit(1);
    });
    let dt = t.elapsed();
    let repr = match columnar {
        Some(rows) => format!(", columnar pages of {rows} rows"),
        None => String::new(),
    };
    println!(
        "ingested {} files / {} events / {} slices into '{dataset_path}' \
         with {loaders} loaders in {dt:.2?} ({:.0} events/s{repr})",
        stats.files,
        stats.events,
        stats.slices,
        stats.events as f64 / dt.as_secs_f64()
    );
    if let Some(b) = stats.batch {
        println!(
            "pipeline: {} pairs acked/{} shipped in {} flush rpcs, \
             inflight hwm {}, {} backpressure stalls ({:.2?} stalled)",
            b.acked_pairs,
            b.shipped_pairs,
            b.acked_rpcs,
            b.inflight_hwm,
            b.backpressure_stalls,
            b.stall_time
        );
        if b.retry.busy_pushbacks > 0 || b.window_shrinks > 0 {
            println!(
                "overload: {} busy pushbacks, window {} shrinks/{} grows \
                 (min {}, final {})",
                b.retry.busy_pushbacks,
                b.window_shrinks,
                b.window_grows,
                b.window_min,
                b.window_final
            );
        }
        if b.retry.failovers > 0 || b.retry.deduped_replays > 0 {
            println!(
                "replication: {} failovers, {} replays suppressed by the dedup window",
                b.retry.failovers, b.retry.deduped_replays
            );
        }
    }
    let r = store.retry_stats();
    if r.failovers > 0 || r.read_fallbacks > 0 {
        println!(
            "replication (store client): {} failovers, {} read fallbacks",
            r.failovers, r.read_fallbacks
        );
    }
    if r.dual_reads > 0 || store.topology_epoch() > 1 {
        println!(
            "migration: {} dual reads (old-owner fallbacks), topology epoch {}",
            r.dual_reads,
            store.topology_epoch()
        );
    }
}
