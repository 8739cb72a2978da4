//! Replication macro-bench: what chain replication costs and what it buys.
//!
//! Three measurements over in-process deployments of 2 nodes:
//!
//! - **acked-put latency** (p50/p99) at R=1 vs R=2 — the price of the
//!   chain forward sitting between apply and ack;
//! - **read throughput** against one replicated database, all readers on
//!   the primary vs readers spread across the replicas (the
//!   read-from-replica policy multiplying provider pools);
//! - **failover blackout**: a writer streams acked puts while the chain
//!   head is killed mid-stream; the blackout is the longest gap between
//!   consecutive acks — the window in which the timeout fired and the
//!   client promoted the backup.
//!
//! Run: `cargo run --release -p hepnos-bench --bin repl_failover`
//! (`--smoke` for a quick CI-sized pass). Results land in
//! `BENCH_repl.json`.

use bedrock::DbCounts;
use hepnos::testing::{local_deployment_replicated, LocalDeployment};
use hepnos_bench::percentile;
use std::time::{Duration, Instant};
use yokan::{DbTarget, YokanClient};

fn counts() -> DbCounts {
    DbCounts {
        datasets: 1,
        runs: 1,
        subruns: 1,
        events: 2,
        products: 2,
    }
}

/// The first events chain of a deployment (singleton at R=1).
fn events_chain(dep: &LocalDeployment) -> Vec<DbTarget> {
    bedrock::deployment_chains(dep.descriptors())
        .into_iter()
        .find(|c| c[0].db.starts_with("events"))
        .expect("an events chain")
}

fn routed_client(dep: &LocalDeployment, name: &str) -> YokanClient {
    let client = YokanClient::new(dep.fabric().endpoint(name));
    client.install_replica_routes(&bedrock::deployment_chains(dep.descriptors()));
    client
}

/// Sequential acked puts through the chain head; returns (p50, p99).
fn put_latency(factor: usize, n_puts: usize) -> (Duration, Duration) {
    let dep = local_deployment_replicated(2, counts(), factor);
    let chain = events_chain(&dep);
    assert_eq!(chain.len(), factor.max(1));
    let client = routed_client(&dep, "put-bench");
    let value = vec![7u8; 512];
    let mut lat = Vec::with_capacity(n_puts);
    for i in 0..n_puts {
        let key = format!("key-{i:08}").into_bytes();
        let t = Instant::now();
        client.put(&chain[0], &key, &value).expect("acked put");
        lat.push(t.elapsed());
    }
    dep.shutdown();
    lat.sort();
    (percentile(&lat, 0.50), percentile(&lat, 0.99))
}

/// Aggregate read throughput of `threads` readers over one replicated
/// database: all on the primary, or spread across the replicas.
fn read_throughput(spread: bool, threads: usize, gets_per_thread: usize) -> f64 {
    let dep = local_deployment_replicated(2, counts(), 2);
    let chain = events_chain(&dep);
    let writer = routed_client(&dep, "read-bench-writer");
    const KEYS: usize = 512;
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..KEYS)
        .map(|i| (format!("key-{i:06}").into_bytes(), vec![i as u8; 256]))
        .collect();
    writer.put_multi(&chain[0], &pairs).expect("populate");
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for w in 0..threads {
        let target = chain[if spread { w % chain.len() } else { 0 }].clone();
        let reader = YokanClient::new(dep.fabric().endpoint(&format!("reader-{w}")));
        handles.push(std::thread::spawn(move || {
            for g in 0..gets_per_thread {
                let key = format!("key-{:06}", (g * 31 + w) % KEYS).into_bytes();
                reader.get(&target, &key).expect("read").expect("present");
            }
        }));
    }
    for h in handles {
        h.join().expect("reader panicked");
    }
    let elapsed = t0.elapsed();
    dep.shutdown();
    (threads * gets_per_thread) as f64 / elapsed.as_secs_f64()
}

struct Blackout {
    blackout: Duration,
    pre_kill_p99: Duration,
    acked: usize,
}

/// Stream acked puts while the chain head dies; the blackout is the
/// longest inter-ack gap (timeout + failover + promoted retry).
fn failover_blackout(n_puts: usize) -> Blackout {
    let mut dep = local_deployment_replicated(2, counts(), 2);
    let chain = events_chain(&dep);
    let head_node = (0..dep.num_servers())
        .find(|&n| dep.server(n).is_some_and(|s| s.address() == chain[0].addr))
        .expect("head node");
    // Short forward probes: after the kill the survivor's degraded acks
    // must stay inside the writer's 50 ms per-target budget.
    for n in 0..dep.num_servers() {
        dep.server(n)
            .unwrap()
            .yokan()
            .set_forward_params(yokan::ForwardParams {
                timeout: Duration::from_millis(25),
                attempts: 1,
                suspend: Duration::from_secs(10),
            });
    }
    let client =
        YokanClient::new(dep.fabric().endpoint("blackout-writer")).with_retry(yokan::RetryPolicy {
            max_attempts: 2,
            rpc_timeout: Duration::from_millis(50),
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            jitter_seed: 1,
        });
    client.install_replica_routes(&bedrock::deployment_chains(dep.descriptors()));
    let target = chain[0].clone();
    let value = vec![3u8; 256];
    let kill_at = n_puts / 2;
    let mut acks: Vec<Instant> = Vec::with_capacity(n_puts);
    for i in 0..n_puts {
        if i == kill_at {
            dep.kill_server(head_node);
        }
        let key = format!("key-{i:08}").into_bytes();
        client.put(&target, &key, &value).expect("acked put");
        acks.push(Instant::now());
    }
    assert_eq!(client.retry_stats().failovers, 1, "no failover happened");
    dep.shutdown();
    let mut pre: Vec<Duration> = acks[..kill_at].windows(2).map(|w| w[1] - w[0]).collect();
    pre.sort();
    let blackout = acks
        .windows(2)
        .map(|w| w[1] - w[0])
        .max()
        .expect("at least two acks");
    Blackout {
        blackout,
        pre_kill_p99: percentile(&pre, 0.99),
        acked: acks.len(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_puts = if smoke { 500 } else { 4_000 };
    let n_gets = if smoke { 2_000 } else { 20_000 };
    let mode = if smoke { "smoke" } else { "full" };
    println!("# Replication cost/benefit ({mode}): chain forward vs single copy, 2 nodes");
    let mut lines = Vec::new();
    for factor in [1usize, 2] {
        let (p50, p99) = put_latency(factor, n_puts);
        lines.push(format!(
            "{{ \"case\": \"acked_put\", \"replication\": {factor}, \"puts\": {n_puts}, \
             \"p50_us\": {}, \"p99_us\": {} }}",
            p50.as_micros(),
            p99.as_micros()
        ));
    }
    for spread in [false, true] {
        let policy = if spread {
            "read_from_replica"
        } else {
            "primary_only"
        };
        let per_s = read_throughput(spread, 4, n_gets / 4);
        lines.push(format!(
            "{{ \"case\": \"read_throughput\", \"policy\": \"{policy}\", \"readers\": 4, \
             \"gets\": {n_gets}, \"gets_per_s\": {per_s:.0} }}"
        ));
    }
    let b = failover_blackout(n_puts);
    lines.push(format!(
        "{{ \"case\": \"failover\", \"blackout_ms\": {}, \"pre_kill_p99_us\": {}, \
         \"acked_puts\": {}, \"lost_acks\": 0 }}",
        b.blackout.as_millis(),
        b.pre_kill_p99.as_micros(),
        b.acked
    ));
    for line in &lines {
        println!("{line}");
    }
    std::fs::write("BENCH_repl.json", lines.join("\n") + "\n").expect("write BENCH_repl.json");
}
