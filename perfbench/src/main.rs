//! End-to-end benchmark of a two-node HEPnOS deployment over loopback TCP.
//!
//! ```text
//! perfbench --workload ingest|analysis|pushdown|point_mix --seed N
//!           --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! One invocation boots the deployment (each server a child process of
//! this binary), loads what the workload reads, runs the workload for `S`
//! seconds from one client process, checks its outputs and prints its
//! metrics; the last line of standard output is one JSON object. With
//! `--trace 1` it records spans at its calls into each layer and prints the
//! per-layer metrics instead. `--tiny` shrinks the inputs for smoke tests.
//! Everything it writes lives under `.bench_data/` in the working directory.

mod analysis;
mod deploy;
mod ingest;
mod point;
mod pushdown;
mod report;
mod server;
mod stats;
mod trace;
mod workloads;

use deploy::Deployment;
use report::Measured;
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Bench, Ctx, Phase, Workload, SETUP_BUDGET_S, SETUP_REPS, SETUP_REPS_MAX};

const USAGE: &str = "usage: perfbench --workload ingest|analysis|pushdown|point_mix \
                     --seed N --seconds S --trace 0|1 [--tiny]";

/// Directory, relative to the working directory, for server data, span
/// files and the recent untraced throughputs of each workload.
const DATA_DIR: &str = ".bench_data";

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut tiny = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                tiny = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Opts {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            tiny,
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(server::SERVE_ARG) {
        if let Err(e) = server::main(&args[1..]) {
            eprintln!("perfbench server: {e}");
            std::process::exit(1);
        }
        return;
    }
    let opts = Opts::parse(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let run_dir = Path::new(DATA_DIR).join(format!("run-{}", std::process::id()));
    let result = match opts.workload {
        Workload::Ingest => run::<ingest::Ingest>(&opts, &run_dir),
        Workload::Analysis => run::<analysis::Analysis>(&opts, &run_dir),
        Workload::Pushdown => run::<pushdown::Pushdown>(&opts, &run_dir),
        Workload::PointMix => run::<point::PointMix>(&opts, &run_dir),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Run one workload end to end and print its report. Returns whether its
/// outputs were correct.
fn run<B: Bench>(opts: &Opts, run_dir: &Path) -> Result<bool, String> {
    let layout = opts.workload.layout(opts.tiny);
    let inputs = layout.generate(opts.seed);
    let runtime = argos::Runtime::simple(1);
    let pool = runtime
        .default_pool()
        .expect("a simple runtime has a default pool");
    let quiet = Tracer::new(false);
    let tracer = Tracer::new(opts.trace);
    macro_rules! ctx {
        ($dep:expr, $tracer:expr) => {
            Ctx {
                dep: $dep,
                pool: &pool,
                tracer: $tracer,
                layout,
                inputs: &inputs,
                seed: opts.seed,
                run_for: Duration::from_secs(opts.seconds),
            }
        };
    }

    // Set up several times; the last deployment is the one measured.
    let mut setups: Vec<f64> = Vec::new();
    let (mut dep, mut bench) = loop {
        let start = Instant::now();
        let dep = Deployment::boot(&run_dir.join(format!("setup-{}", setups.len())))?;
        let bench = B::setup(&ctx!(&dep, &quiet))?;
        setups.push(start.elapsed().as_secs_f64());
        let spent: f64 = setups.iter().sum();
        if setups.len() >= SETUP_REPS_MAX
            || (setups.len() >= SETUP_REPS && spent >= SETUP_BUDGET_S)
        {
            break (dep, bench);
        }
        drop(bench);
        dep.shutdown()?;
    };
    bench.warm_up(&ctx!(&dep, &quiet))?;

    let servers_before = dep.snapshot()?;
    let (retry0, ep0) = (dep.store.retry_stats(), dep.store.endpoint_stats());
    let cpu0 = server::proc_self().0;
    let mut phase: Phase = bench.timed(&ctx!(&dep, &tracer))?;
    let client_cpu_s = server::proc_self().0 - cpu0;
    let (retry1, ep1) = (dep.store.retry_stats(), dep.store.endpoint_stats());
    let servers_after = dep.snapshot()?;
    bench.verify(&ctx!(&dep, &quiet), &mut phase)?;
    drop(bench);
    dep.shutdown()?;
    runtime.shutdown();

    let deltas: Vec<_> = servers_before
        .iter()
        .zip(&servers_after)
        .map(|(b, a)| stats::delta(b, a))
        .collect();
    let trace = tracer.finish();
    let measured = Measured {
        workload: opts.workload,
        phase: &phase,
        setups: &setups,
        servers: stats::sum(&deltas),
        servers_after: &servers_after,
        client_cpu_s,
        client_peak_rss_mb: server::proc_self().1,
        retry: retry1.delta_since(&retry0),
        endpoint: endpoint_delta(&ep0, &ep1),
        spans: trace.totals(),
    };
    println!(
        "# perfbench {} seed {} for {} s: {} server processes over loopback TCP, \
         LSM backend, R={} chains, wal_sync {}, memtable {} KiB, read cache {} KiB x {} dbs, \
         {} client threads, {} events generated",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        deploy::NODES,
        server::REPLICATION,
        server::WAL_SYNC,
        server::MEMTABLE_BYTES >> 10,
        server::READ_CACHE_BYTES >> 10,
        server::dbs_per_node() * deploy::NODES,
        workloads::CLIENT_THREADS,
        inputs.len(),
    );
    print_deployment_facts(&measured, &inputs);
    for line in measured.headline() {
        println!("{line}");
    }
    let correct = phase.errors.is_empty();
    for e in &phase.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    let untraced_path = Path::new(DATA_DIR).join(format!("untraced-{}.txt", opts.workload.name()));
    let metrics = if opts.trace {
        print_trace_report(opts, &measured, &trace, &untraced_path)?;
        measured.per_layer()
    } else {
        remember_untraced(&untraced_path, measured.throughput());
        measured.end_to_end()
    };
    println!(
        "{}",
        report::json_line(correct, phase.attempted.max(1), phase.failed, &metrics)
    );
    Ok(correct)
}

/// Untraced throughputs remembered per workload for the tracing-overhead
/// line of a later traced run.
const UNTRACED_KEPT: usize = 10;

fn read_untraced(path: &Path) -> Vec<f64> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.trim().parse().ok())
        .collect()
}

fn remember_untraced(path: &Path, throughput: f64) {
    let mut past = read_untraced(path);
    past.push(throughput);
    let text: String = past[past.len().saturating_sub(UNTRACED_KEPT)..]
        .iter()
        .map(|v| format!("{v}\n"))
        .collect();
    // Only the tracing-overhead line depends on it.
    let _ = std::fs::create_dir_all(DATA_DIR);
    let _ = std::fs::write(path, text);
}

fn endpoint_delta(
    a: &mercurio::EndpointStats,
    b: &mercurio::EndpointStats,
) -> mercurio::EndpointStats {
    mercurio::EndpointStats {
        requests_sent: b.requests_sent - a.requests_sent,
        requests_received: b.requests_received - a.requests_received,
        bytes_sent: b.bytes_sent - a.bytes_sent,
        bytes_received: b.bytes_received - a.bytes_received,
        bulk_bytes_served: b.bulk_bytes_served - a.bulk_bytes_served,
        frames_sent: b.frames_sent - a.frames_sent,
        wire_writes: b.wire_writes - a.wire_writes,
        send_stalls: b.send_stalls - a.send_stalls,
    }
}

/// Facts about the deployment state the workload ran against: LSM
/// activity per product database and the working set against the cache.
fn print_deployment_facts(m: &Measured, inputs: &[nova::EventRecord]) {
    let product_bytes: usize = inputs
        .iter()
        .map(|ev| {
            let slices = hepnos::binser::to_bytes(&ev.slices).map_or(0, |b| b.len());
            let summary = hepnos::binser::to_bytes(&ev.summary()).map_or(0, |b| b.len());
            slices + summary
        })
        .sum();
    let cache = server::READ_CACHE_BYTES * server::dbs_per_node() * deploy::NODES;
    println!(
        "# inputs: {:.2} MiB of products = {:.1}x the deployment's {:.2} MiB of read cache",
        product_bytes as f64 / (1 << 20) as f64,
        product_bytes as f64 / cache as f64,
        cache as f64 / (1 << 20) as f64
    );
    let min = |k: &str| {
        m.servers_after
            .iter()
            .filter_map(|s| s.get(k))
            .fold(f64::INFINITY, |a, &b| a.min(b))
    };
    println!(
        "# lsm at the end of the phase: every product db flushed >= {} and compacted >= {} times",
        min("lsm.min_product_flushes"),
        min("lsm.min_product_compactions")
    );
}

/// The traced run's extra lines: per-layer self time, reconciliation
/// against the phase's wall time, tracing overhead, and the span file.
fn print_trace_report(
    opts: &Opts,
    m: &Measured,
    trace: &trace::Trace,
    untraced_path: &Path,
) -> Result<(), String> {
    let wall = m.phase.elapsed_s;
    let full = trace::self_times(&trace.complete());
    for (name, (count, total_s)) in &m.spans {
        let f = full.get(name).copied().unwrap_or_default();
        println!(
            "layer {name}: {count} spans, {total_s:.4} s; in the operations traced in full \
             {:.4} s, of which {:.4} s self",
            f.total_s, f.self_s
        );
    }
    // Roots run on the client threads, except PEP passes, which the main
    // thread issues one at a time.
    let threads = match opts.workload {
        Workload::Analysis => 1,
        _ => workloads::CLIENT_THREADS,
    };
    let r = trace.reconcile();
    println!(
        "reconcile: over the {} of {} operations traced in full, client-span self times sum to \
         {:.4} s against their {:.4} s of wall time ({:.3}; above 1 where child spans run in \
         parallel inside one root, as PEP callbacks do); all {} roots cover {:.4} s = {:.3} of \
         the {wall:.4} s timed phase x {threads} root thread(s)",
        r.full_roots,
        r.roots,
        r.self_s,
        r.full_roots_s,
        stats::ratio(r.self_s, r.full_roots_s),
        r.roots,
        r.roots_s,
        stats::ratio(r.roots_s, wall * threads as f64),
    );
    if trace.dropped_count() > 0 {
        println!(
            "spans beyond the in-memory cap: {} child spans counted in layer totals but not \
             kept; self times cover the operations traced in full",
            trace.dropped_count()
        );
    }
    let untraced = read_untraced(untraced_path);
    match untraced.len() {
        0 => println!(
            "tracing overhead: unknown, no untraced run of {} in {DATA_DIR} yet",
            opts.workload.name()
        ),
        n => {
            let base = stats::median(&untraced);
            println!(
                "tracing overhead: throughput {:.1}/s traced vs {base:.1}/s, the median of the \
                 last {n} untraced runs of {}: {:+.2}%",
                m.throughput(),
                opts.workload.name(),
                100.0 * (m.throughput() / base - 1.0)
            )
        }
    }
    println!(
        "absent on {}: {}",
        opts.workload.name(),
        report::absent_on(opts.workload)
    );
    let path = Path::new(DATA_DIR).join(format!("trace-{}.tsv", opts.workload.name()));
    trace::write_spans(&path, &trace.spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", trace.spans.len(), path.display());
    Ok(())
}
