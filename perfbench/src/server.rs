//! Server mode: one HEPnOS node in its own process.
//!
//! The benchmark re-launches its own binary with [`SERVE_ARG`] once per
//! node. The child bootstraps the node with `bedrock::launch` on a TCP
//! endpoint, prints its connection descriptor, and then answers commands
//! on stdin, one per line, each with one line on stdout:
//!
//! - `wire <deployment json>` installs the chain-replication routes
//!   (`wired`);
//! - `stats` reports every counter of the node (`stats name=value ...`);
//! - `quit` (or end of input) shuts the node down and exits.

use crate::stats::{encode_snapshot, Snapshot};
use bedrock::{
    BackendKind, BedrockServer, ConnectionDescriptor, DbCounts, LsmConfig, ReplicationConfig,
    ServiceConfig,
};
use mercurio::tcp::TcpEndpoint;
use std::io::{BufRead, Write};
use std::path::Path;

/// First argument that selects server mode.
pub const SERVE_ARG: &str = "--serve";

/// Databases per node. Same-named databases on the two nodes form the
/// R=2 chains, so the client sees 2 event and 2 product databases.
pub const DB_COUNTS: DbCounts = DbCounts {
    datasets: 1,
    runs: 1,
    subruns: 1,
    events: 2,
    products: 2,
};

/// Memtable size: small, so `ingest` flushes and compacts every product
/// database many times within one run.
pub const MEMTABLE_BYTES: usize = 256 << 10;

/// Read cache per database; the `analysis` dataset is several times the
/// deployment's total, the `point_mix` hot set fits in it.
pub const READ_CACHE_BYTES: usize = 128 << 10;

/// Replicas per database (chain replication across the two nodes).
pub const REPLICATION: usize = 2;

/// WAL durability mode.
pub const WAL_SYNC: &str = "group";

/// Databases each node serves.
pub fn dbs_per_node() -> usize {
    DB_COUNTS.datasets + DB_COUNTS.runs + DB_COUNTS.subruns + DB_COUNTS.events + DB_COUNTS.products
}

/// The node configuration every server of the deployment runs.
pub fn config(data_dir: &Path) -> ServiceConfig {
    let mut cfg =
        ServiceConfig::hepnos_topology(DB_COUNTS, BackendKind::Lsm, Some(data_dir.to_path_buf()));
    cfg.lsm = Some(LsmConfig {
        memtable_bytes: MEMTABLE_BYTES,
        read_cache_bytes: READ_CACHE_BYTES,
        wal_sync: WAL_SYNC.to_string(),
        ..LsmConfig::default()
    });
    cfg.replication = Some(ReplicationConfig {
        factor: REPLICATION,
        ..ReplicationConfig::default()
    });
    cfg
}

/// Entry point of a server child: `--serve <data dir>`.
pub fn main(args: &[String]) -> Result<(), String> {
    let [dir] = args else {
        return Err(format!("usage: {SERVE_ARG} <data dir>"));
    };
    let endpoint = TcpEndpoint::bind(0).map_err(|e| format!("cannot bind: {e}"))?;
    let server = bedrock::launch(endpoint, &config(Path::new(dir)))
        .map_err(|e| format!("bootstrap failed: {e}"))?;
    let mut out = std::io::stdout().lock();
    let descriptor = serde_json::to_string(server.descriptor()).map_err(|e| e.to_string())?;
    reply(&mut out, &format!("descriptor {descriptor}"))?;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let (cmd, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        match cmd {
            "wire" => {
                let descriptors =
                    ConnectionDescriptor::parse_deployment(rest).map_err(|e| e.to_string())?;
                bedrock::wire_replication_node(&server, &descriptors);
                reply(&mut out, "wired")?;
            }
            "stats" => reply(
                &mut out,
                &format!("stats {}", encode_snapshot(&snapshot(&server))),
            )?,
            "quit" => break,
            other => return Err(format!("unknown command {other:?}")),
        }
    }
    server.shutdown();
    Ok(())
}

fn reply(out: &mut impl Write, line: &str) -> Result<(), String> {
    writeln!(out, "{line}")
        .and_then(|_| out.flush())
        .map_err(|e| format!("stdout: {e}"))
}

/// Every counter of this node under one flat namespace: margo per-RPC
/// handler timings, endpoint and pool counters, chain-forward counters,
/// lsmdb counters summed over the node's databases, and the process's CPU
/// time and peak RSS.
pub fn snapshot(server: &BedrockServer) -> Snapshot {
    let mut s = Snapshot::new();
    let mut put = |k: &str, v: f64| {
        *s.entry(k.to_string()).or_insert(0.0) += v;
    };
    for (id, t) in server.margo().rpc_timings() {
        put(&format!("rpc.{}.count", id.0), t.count as f64);
        put(&format!("rpc.{}.total_s", id.0), t.total.as_secs_f64());
        put(&format!("rpc.{}.max_s", id.0), t.max.as_secs_f64());
    }
    let inst = server.margo().stats();
    let ep = inst.endpoint;
    put("ep.requests_sent", ep.requests_sent as f64);
    put("ep.requests_received", ep.requests_received as f64);
    put("ep.bytes_sent", ep.bytes_sent as f64);
    put("ep.bytes_received", ep.bytes_received as f64);
    put("ep.frames_sent", ep.frames_sent as f64);
    put("ep.wire_writes", ep.wire_writes as f64);
    put("ep.send_stalls", ep.send_stalls as f64);
    for (_, p) in &inst.pools {
        put("pool.pushed", p.pushed as f64);
        put("pool.popped", p.popped as f64);
    }
    let fwd = server.yokan().forward_stats();
    put("fwd.sent", fwd.forwards_sent as f64);
    put("fwd.applied", fwd.forwards_applied as f64);
    put("fwd.degraded", fwd.forward_degraded as f64);
    let mut min_product = (f64::INFINITY, f64::INFINITY);
    for (_, name, b) in server.yokan().backend_stats() {
        put("db.cache_hits", b.cache_hits as f64);
        put("db.cache_misses", b.cache_misses as f64);
        put("db.cache_evictions", b.cache_evictions as f64);
        let Some(l) = b.lsm else { continue };
        if name.starts_with("products") {
            min_product.0 = min_product.0.min(l.flushes as f64);
            min_product.1 = min_product.1.min(l.compactions as f64);
        }
        put("lsm.flushes", l.flushes as f64);
        put("lsm.compactions", l.compactions as f64);
        put("lsm.trivial_moves", l.trivial_moves as f64);
        put("lsm.wal_syncs", l.wal_syncs as f64);
        put("lsm.wal_bytes", l.wal_bytes as f64);
        put("lsm.write_stalls", l.write_stalls as f64);
        put("lsm.write_sheds", l.write_sheds as f64);
        put("lsm.stall_s", l.stall_micros as f64 * 1e-6);
        put("lsm.bloom_checks", l.bloom_checks as f64);
        put("lsm.bloom_negatives", l.bloom_negatives as f64);
        put("lsm.sst_point_reads", l.sst_point_reads as f64);
        put("lsm.flush_write_bytes", l.flush_write_bytes as f64);
        put(
            "lsm.compaction_write_bytes",
            l.compaction_write_bytes as f64,
        );
        put("lsm.disk_bytes", l.disk_bytes() as f64);
    }
    if min_product.0.is_finite() {
        put("lsm.min_product_flushes", min_product.0);
        put("lsm.min_product_compactions", min_product.1);
    }
    let (cpu_s, hwm_mb) = proc_self();
    put("proc.cpu_s", cpu_s);
    put("proc.hwm_mb", hwm_mb);
    s
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed at
/// 100 on Linux).
const USER_HZ: f64 = 100.0;

/// This process's CPU time (user + system, seconds) and peak resident set
/// (`VmHWM`, MiB), from `/proc/self`. Zeros where `/proc` is unavailable.
pub fn proc_self() -> (f64, f64) {
    let cpu = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesized command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = &stat[stat.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(0.0);
    let hwm = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0);
    (cpu, hwm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_self_reads_cpu_and_rss() {
        // Burn a little CPU so the tick counter moves past zero.
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let (cpu, hwm) = proc_self();
        assert!(cpu > 0.0, "cpu {cpu}");
        assert!(hwm > 0.0, "hwm {hwm}");
    }
}
