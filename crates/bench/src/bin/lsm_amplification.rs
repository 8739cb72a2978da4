//! LSM write/read/space amplification and ingest stall time across level
//! configurations and compaction modes.
//!
//! Each case ingests the same keyspace-churning workload (overwrites +
//! deletes force multi-level merge work) into a fresh `lsmdb::Db`, then
//! runs a point-read phase. Reported per case:
//!
//! * **write amplification** — (WAL + flush + compaction bytes written) /
//!   user payload bytes;
//! * **space amplification** — SST bytes on disk / live payload bytes;
//! * **read amplification** — SST point reads per `get` (bloom filters
//!   absorb the rest);
//! * **ingest latency** — per-put p50/p99/max as the client sees it,
//!   including retry loops on `Busy`, plus the engine's own stall/shed
//!   counters.
//!
//! The inline-vs-background comparison at the same level config is the
//! point of the exercise: moving compaction off the write path must cut
//! the ingest p99 while the amplification totals stay in the same regime.
//!
//! Run: `cargo run --release -p hepnos-bench --bin lsm_amplification`
//! (`--smoke` for a quick CI-sized pass). Results land in
//! `BENCH_lsm.json`.

use hepnos_bench::percentile;
use lsmdb::{CompactionMode, Db, DbError, Options, WalSync};
use std::time::{Duration, Instant};

struct Case {
    name: &'static str,
    max_levels: usize,
    level_multiplier: u64,
    compaction: CompactionMode,
    wal_sync: WalSync,
    /// Inter-put spacing in microseconds; 0 = unthrottled (saturating).
    /// Paced cases model a real ingest client running below the engine's
    /// sustainable rate, which is where write-path latency (not
    /// backpressure) is the observable.
    pace_us: u64,
}

const CASES: &[Case] = &[
    Case {
        name: "L3_background",
        max_levels: 3,
        level_multiplier: 4,
        compaction: CompactionMode::Background,
        wal_sync: WalSync::None,
        pace_us: 0,
    },
    Case {
        name: "L5_background",
        max_levels: 5,
        level_multiplier: 4,
        compaction: CompactionMode::Background,
        wal_sync: WalSync::None,
        pace_us: 0,
    },
    Case {
        name: "L5_inline",
        max_levels: 5,
        level_multiplier: 4,
        compaction: CompactionMode::Inline,
        wal_sync: WalSync::None,
        pace_us: 0,
    },
    Case {
        name: "L5_background_group_wal",
        max_levels: 5,
        level_multiplier: 4,
        compaction: CompactionMode::Background,
        wal_sync: WalSync::Group,
        pace_us: 0,
    },
    Case {
        name: "L5_inline_paced",
        max_levels: 5,
        level_multiplier: 4,
        compaction: CompactionMode::Inline,
        wal_sync: WalSync::None,
        pace_us: 150,
    },
    Case {
        name: "L5_background_paced",
        max_levels: 5,
        level_multiplier: 4,
        compaction: CompactionMode::Background,
        wal_sync: WalSync::None,
        pace_us: 150,
    },
];

fn opts(case: &Case) -> Options {
    Options {
        memtable_bytes: 16 << 10,
        l0_compaction_trigger: 4,
        l0_slowdown_trigger: 24,
        l0_stop_trigger: 48,
        max_levels: case.max_levels,
        level_base_bytes: 256 << 10,
        level_multiplier: case.level_multiplier,
        table_target_bytes: 64 << 10,
        grandparent_limit_bytes: 640 << 10,
        compaction: case.compaction,
        wal_sync: case.wal_sync,
        max_stall: Duration::from_millis(5),
        retry_after_hint: Duration::from_millis(2),
        ..Options::default()
    }
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_puts: u64 = if smoke { 4_000 } else { 60_000 };
    let key_space: u64 = n_puts / 2; // every key written ~2x: real churn
    let n_gets: u64 = if smoke { 1_000 } else { 10_000 };
    let value_len: usize = 200;

    for case in CASES {
        let dir = std::env::temp_dir().join(format!(
            "lsm-amp-{}-{}-{}",
            std::process::id(),
            case.name,
            if smoke { "smoke" } else { "full" }
        ));
        std::fs::remove_dir_all(&dir).ok();
        let db = Db::open(&dir, opts(case)).unwrap();

        let mut rng = Lcg(0x5eed ^ n_puts);
        let mut user_bytes = 0u64;
        let mut lat_us: Vec<u64> = Vec::with_capacity(n_puts as usize);
        let mut client_retries = 0u64;
        let ingest_t0 = Instant::now();
        for i in 0..n_puts {
            let k = format!("key{:012}", rng.next() % key_space).into_bytes();
            let v = vec![(i % 251) as u8; value_len];
            if case.pace_us > 0 {
                let target = Duration::from_micros(i * case.pace_us);
                let elapsed = ingest_t0.elapsed();
                if elapsed < target {
                    std::thread::sleep(target - elapsed);
                }
            }
            let t0 = Instant::now();
            loop {
                match db.put(&k, &v) {
                    Ok(()) => break,
                    Err(DbError::Busy { retry_after }) => {
                        client_retries += 1;
                        std::thread::sleep(retry_after);
                    }
                    Err(e) => panic!("put failed: {e}"),
                }
            }
            lat_us.push(t0.elapsed().as_micros() as u64);
            user_bytes += (k.len() + v.len()) as u64;
        }
        let ingest_elapsed = ingest_t0.elapsed();
        db.wait_idle().unwrap();

        // Live payload for space amplification: what a perfect store would
        // keep (every unique key once, at its final value size).
        let live = db.scan(b"", None, 0).unwrap();
        let live_bytes: u64 = live.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();

        // Point-read phase over the same key distribution (some keys were
        // never written: bloom filters should absorb most of those).
        let before = db.stats();
        let mut rng = Lcg(0xbeef);
        let mut hits = 0u64;
        let read_t0 = Instant::now();
        for _ in 0..n_gets {
            let k = format!("key{:012}", rng.next() % (key_space * 2)).into_bytes();
            if db.get(&k).unwrap().is_some() {
                hits += 1;
            }
        }
        let read_elapsed = read_t0.elapsed();
        let stats = db.stats();
        let sst_reads = stats.sst_point_reads - before.sst_point_reads;
        let bloom_negatives = stats.bloom_negatives - before.bloom_negatives;

        let mut sorted = lat_us.clone();
        sorted.sort_unstable();
        let write_amp = stats.storage_write_bytes() as f64 / user_bytes as f64;
        let space_amp = stats.disk_bytes() as f64 / live_bytes.max(1) as f64;
        let read_amp = sst_reads as f64 / n_gets as f64;

        println!(
            "{{\"case\":\"{}\",\"levels\":{},\"mode\":\"{}\",\"wal_sync\":\"{:?}\",\
             \"puts\":{},\"pace_us\":{},\"ingest_ops_per_s\":{:.0},\"put_p50_us\":{},\"put_p99_us\":{},\
             \"put_p999_us\":{},\"put_max_us\":{},\"client_busy_retries\":{},\"write_amp\":{:.2},\
             \"space_amp\":{:.2},\"read_amp_sst_reads_per_get\":{:.2},\"bloom_negatives\":{},\
             \"read_hit_rate\":{:.2},\"gets_per_s\":{:.0},\"flushes\":{},\"compactions\":{},\
             \"trivial_moves\":{},\"tombstones_dropped\":{},\"write_stalls\":{},\
             \"stall_ms\":{},\"write_sheds\":{},\"wal_syncs\":{},\"level_tables\":{:?},\
             \"disk_bytes\":{}}}",
            case.name,
            case.max_levels,
            match case.compaction {
                CompactionMode::Inline => "inline",
                CompactionMode::Background => "background",
            },
            case.wal_sync,
            n_puts,
            case.pace_us,
            n_puts as f64 / ingest_elapsed.as_secs_f64(),
            percentile(&sorted, 0.50),
            percentile(&sorted, 0.99),
            percentile(&sorted, 0.999),
            sorted.last().copied().unwrap_or(0),
            client_retries,
            write_amp,
            space_amp,
            read_amp,
            bloom_negatives,
            hits as f64 / n_gets as f64,
            n_gets as f64 / read_elapsed.as_secs_f64(),
            stats.flushes,
            stats.compactions,
            stats.trivial_moves,
            stats.tombstones_dropped,
            stats.write_stalls,
            stats.stall_micros / 1000,
            stats.write_sheds,
            stats.wal_syncs,
            stats.level_tables,
            stats.disk_bytes(),
        );

        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}
