//! `hepnos-serve` — run one HEPnOS server node as a real process.
//!
//! ```text
//! hepnos-serve [--config bedrock.json] [--port 0] [--backend map|lsm]
//!              [--data-dir DIR] [--wal-sync none|group|always]
//!              [--events N] [--products N] [--replication R]
//!              [--wire-from FILE] [--join [EPOCH]]
//!              --descriptor-out FILE [--run-seconds N]
//! ```
//!
//! Bootstraps a Bedrock service on a TCP socket, writes the node's
//! connection descriptor (JSON) to `--descriptor-out` (clients concatenate
//! the descriptors of all nodes into one array), and serves until killed
//! (or for `--run-seconds`, for scripted tests). With `--backend lsm` the
//! node persists to `--data-dir` and survives restarts; `--wal-sync`
//! selects the WAL durability mode, and per-database LSM counters (levels,
//! compactions, stall/shed totals) are printed at exit.
//!
//! `--replication R` turns on chain replication: same-named databases on
//! different nodes become R-replica chains. After every node has written
//! its descriptor, point each node at the aggregated deployment file with
//! `--wire-from`: the server polls for the file and installs its
//! chain-forward routes once it parses.
//!
//! `--config FILE` takes the whole topology from a Bedrock JSON file, so
//! `--backend`, `--data-dir`, `--wal-sync`, `--events`, `--products` and
//! `--replication` are refused beside it (exit 2) instead of ignored.
//!
//! `--join EPOCH` marks the node as joining an already-running deployment
//! mid-rescale: the node adopts the given topology epoch (stale writers
//! fenced from the first request) and prints the epoch it joined at.

use bedrock::{BackendKind, ConnectionDescriptor, DbCounts, LsmConfig, ServiceConfig};
use hepnos_tools::Args;
use mercurio::tcp::TcpEndpoint;
use std::path::PathBuf;

const USAGE: &str = "hepnos-serve [--config bedrock.json] [--port N] [--backend map|lsm] \
                     [--data-dir DIR] [--wal-sync none|group|always] \
                     [--events N] [--products N] [--replication R] [--wire-from FILE] \
                     [--join [EPOCH]] --descriptor-out FILE [--run-seconds N]";

/// Options that shape the topology `--config` spells out in full.
const TOPOLOGY_OPTIONS: [&str; 6] = [
    "backend",
    "data-dir",
    "wal-sync",
    "events",
    "products",
    "replication",
];

fn main() {
    let args = Args::from_env();
    let port: u16 = args.parsed("port", USAGE).unwrap_or(0);
    // Bare `--join` keeps the node's own epoch; `--join EPOCH` sets it.
    let join_epoch: Option<u64> = match args.get("join") {
        Some("true") => None,
        _ => args.parsed("join", USAGE),
    };
    let run_seconds: Option<u64> = args.parsed("run-seconds", USAGE);
    let config = match args.get("config") {
        Some(path) => {
            if let Some(key) = TOPOLOGY_OPTIONS.iter().find(|k| args.get(k).is_some()) {
                eprintln!("--{key} cannot be combined with --config\nusage: {USAGE}");
                std::process::exit(2);
            }
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read config {path}: {e}");
                std::process::exit(2);
            });
            ServiceConfig::from_json(&text).unwrap_or_else(|e| {
                eprintln!("bad config {path}: {e}");
                std::process::exit(2);
            })
        }
        None => {
            let backend = match args.get_or("backend", "map") {
                "map" => BackendKind::Map,
                "lsm" => BackendKind::Lsm,
                other => {
                    eprintln!("unknown backend {other}\nusage: {USAGE}");
                    std::process::exit(2);
                }
            };
            let data_dir = args.get("data-dir").map(PathBuf::from);
            if backend == BackendKind::Lsm && data_dir.is_none() {
                eprintln!("--backend lsm requires --data-dir");
                std::process::exit(2);
            }
            let counts = DbCounts {
                datasets: 1,
                runs: 1,
                subruns: 1,
                events: args.parsed("events", USAGE).unwrap_or(8),
                products: args.parsed("products", USAGE).unwrap_or(8),
            };
            let mut cfg = ServiceConfig::hepnos_topology(counts, backend, data_dir);
            if let Some(mode) = args.get("wal-sync") {
                if lsmdb::WalSync::parse(mode).is_none() {
                    eprintln!("unknown --wal-sync {mode} (want none|group|always)");
                    std::process::exit(2);
                }
                cfg.lsm = Some(LsmConfig {
                    wal_sync: mode.to_string(),
                    ..LsmConfig::default()
                });
            }
            if let Some(factor) = args.parsed("replication", USAGE) {
                cfg.replication = Some(bedrock::ReplicationConfig {
                    factor,
                    ..Default::default()
                });
            }
            cfg
        }
    };
    let out = args.require("descriptor-out", USAGE);
    let endpoint = TcpEndpoint::bind(port).unwrap_or_else(|e| {
        eprintln!("cannot bind port {port}: {e}");
        std::process::exit(1);
    });
    let server = bedrock::launch(endpoint, &config).unwrap_or_else(|e| {
        eprintln!("bootstrap failed: {e}");
        std::process::exit(1);
    });
    let descriptor_json =
        serde_json::to_string_pretty(server.descriptor()).expect("descriptor serializes");
    std::fs::write(&out, &descriptor_json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "hepnos-serve: listening at {} ({} providers), descriptor written to {out}",
        server.address(),
        server.descriptor().providers.len()
    );
    // Replication needs the whole deployment's descriptors before forward
    // routes can be installed; poll for the aggregated file a job script
    // assembles from every node's --descriptor-out.
    if let Some(wire) = args.get("wire-from") {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            if let Ok(text) = std::fs::read_to_string(wire) {
                if let Ok(descriptors) = ConnectionDescriptor::parse_deployment(&text) {
                    bedrock::wire_replication_node(&server, &descriptors);
                    eprintln!(
                        "hepnos-serve: chain-forward routes wired from {wire} ({} nodes)",
                        descriptors.len()
                    );
                    break;
                }
            }
            if std::time::Instant::now() >= deadline {
                eprintln!("hepnos-serve: gave up waiting for {wire}; serving unreplicated");
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(200));
        }
    }
    // A node joining a live deployment mid-rescale adopts the deployment's
    // topology epoch up front, so a writer still stamping the pre-rescale
    // epoch is fenced from this node's very first request.
    if let Some(epoch) = join_epoch {
        server.yokan().set_topology_epoch(epoch);
    }
    if args.get("join").is_some() {
        eprintln!(
            "hepnos-serve: joined topology at epoch {}",
            server.yokan().topology_epoch()
        );
    }
    match run_seconds {
        Some(secs) => {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            let ov = server.overload_stats();
            print_lsm_stats(&server);
            let fwd = server.yokan().forward_stats();
            if fwd.forwards_sent > 0 || fwd.forwards_applied > 0 || fwd.forward_degraded > 0 {
                eprintln!(
                    "hepnos-serve: replication: {} forwards sent, {} applied here, {} degraded",
                    fwd.forwards_sent, fwd.forwards_applied, fwd.forward_degraded
                );
            }
            let mig = server.yokan().migration_stats();
            if mig != Default::default() {
                eprintln!(
                    "hepnos-serve: migration: {} forwarded writes, {} handoff keys, \
                     {} frozen rejects, {} stale-epoch rejects",
                    mig.forwarded_writes,
                    mig.handoff_keys,
                    mig.frozen_rejects,
                    mig.wrong_epoch_rejects
                );
            }
            server.shutdown();
            eprintln!(
                "hepnos-serve: done after {secs}s \
                 (admitted {}, shed {} [{} queue-full, {} deadline], queue hwm {})",
                ov.admitted,
                ov.shed(),
                ov.shed_queue_full,
                ov.shed_deadline,
                ov.queue_depth_hwm
            );
        }
        None => {
            // Serve until the process is killed.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
}

/// One line of engine counters per `lsm` database, so a scripted run can
/// see levels, amplification inputs and stall/shed totals without
/// attaching a client.
fn print_lsm_stats(server: &bedrock::BedrockServer) {
    for (pid, name, stats) in server.yokan().backend_stats() {
        let Some(lsm) = stats.lsm else { continue };
        eprintln!(
            "hepnos-serve: lsm provider{pid}/{name}: levels {:?} ({} tables, {} disk bytes), \
             {} flushes, {} compactions (+{} trivial), wal {} bytes / {} syncs, \
             {} stalls ({} us), {} sheds",
            lsm.level_bytes,
            lsm.total_tables(),
            lsm.disk_bytes(),
            lsm.flushes,
            lsm.compactions,
            lsm.trivial_moves,
            lsm.wal_bytes,
            lsm.wal_syncs,
            lsm.write_stalls,
            lsm.stall_micros,
            lsm.write_sheds
        );
    }
}
