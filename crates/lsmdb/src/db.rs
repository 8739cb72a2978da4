//! The LSM database: WAL + memtables + N leveled SSTable runs.
//!
//! Structure (RocksDB cost model at HEPnOS scales):
//!
//! * **memtable** — the active write buffer, mirrored to a numbered WAL;
//! * **imm** — frozen memtables queued for flush, each still owning its WAL
//!   file until the flushed tables are in the manifest;
//! * **L0** — tables flushed from memtables (one per key partition); may
//!   overlap, read newest-first;
//! * **L1..Lmax** — sorted non-overlapping runs with exponentially growing
//!   byte targets (`level_base_bytes * level_multiplier^(i-1)`).
//!
//! Flushes and compactions run on one background worker thread, a pending
//! flush always ahead of a pending compaction, so the write path never
//! merges tables inside a lock. When L0 builds up faster than compaction
//! drains it, writers first soft-stall (bounded wait) and then shed with
//! [`DbError::Busy`], mirroring the service-level watermark machinery so
//! overload degrades gracefully end to end.
//!
//! Durability protocol: SSTs are built at `<id>.sst.tmp` and renamed into
//! place (parent dir fsynced); the plain-text `MANIFEST` is written to a
//! temp file, fsynced and replaced via atomic rename; WAL files are deleted
//! only after the tables covering them are in the manifest. `open` replays
//! surviving WALs in id order and removes `*.tmp` files and unreferenced
//! tables left by a crash; it refuses a manifest without its `NEXT` line
//! rather than treat every table as unreferenced.

use crate::cache::{CacheStats, ShardedReadCache};
use crate::levels::{find_in, key_span, Levels};
use crate::memtable::{Memtable, Value};
use crate::sstable::{SstError, SstRangeIter, SstReader, SstWriter};
use crate::wal::{parse_wal_file_name, wal_file_name, Wal, WalRecord};
use parking_lot::{Condvar, Mutex, RwLock};
use std::io::Write;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When to fsync the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSync {
    /// fsync on every commit (maximum durability, slowest).
    Always,
    /// Group commit: concurrent writers share one fsync — a leader syncs
    /// the log once for every commit sequenced before it.
    Group,
    /// Never fsync from the write path; data reaches the OS on every
    /// commit and the disk on flush/close. Survives process crashes but
    /// not power loss.
    None,
}

impl WalSync {
    /// Parse from config strings.
    pub fn parse(s: &str) -> Option<WalSync> {
        match s {
            "always" => Some(WalSync::Always),
            "group" => Some(WalSync::Group),
            "none" => Some(WalSync::None),
            _ => None,
        }
    }
}

/// Where compaction work runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionMode {
    /// Flush + compact synchronously on the writing thread after a commit
    /// crosses a trigger (the pre-leveling behavior; useful as a bench
    /// baseline and for deterministic tests).
    Inline,
    /// Flush + compact on the background worker; the write path only
    /// freezes memtables and enqueues work.
    Background,
}

/// Tuning knobs for a [`Db`].
#[derive(Debug, Clone)]
pub struct Options {
    /// Memtable size that freezes it for flushing.
    pub memtable_bytes: usize,
    /// L0 flush count at which compaction score reaches 1.0. L0 is counted
    /// in flushes, not tables: the tables of one flush are disjoint.
    pub l0_compaction_trigger: usize,
    /// L0 flush count at which writers soft-stall (bounded wait).
    pub l0_slowdown_trigger: usize,
    /// L0 flush count at which writers shed with [`DbError::Busy`].
    pub l0_stop_trigger: usize,
    /// Longest a writer will soft-stall before proceeding anyway.
    pub max_stall: Duration,
    /// Retry hint carried by [`DbError::Busy`].
    pub retry_after_hint: Duration,
    /// Number of levels (L0 plus `max_levels - 1` sorted runs).
    pub max_levels: usize,
    /// Byte target of L1; deeper levels multiply by `level_multiplier`.
    pub level_base_bytes: u64,
    /// Growth factor between consecutive level targets.
    pub level_multiplier: u64,
    /// Target size of each compaction output table (key-range partition).
    pub table_target_bytes: usize,
    /// Output tables are also cut when their grandparent-level overlap
    /// exceeds this, bounding future compaction fan-in; single-table
    /// inputs under this limit with no parent overlap move down trivially.
    pub grandparent_limit_bytes: u64,
    /// WAL fsync policy.
    pub wal_sync: WalSync,
    /// Inline or background compaction.
    pub compaction: CompactionMode,
    /// Bloom filter density.
    pub bloom_bits_per_key: usize,
    /// Byte budget of the read (value) cache; `0` disables it.
    pub read_cache_bytes: usize,
    /// Length of the key prefix that partitions the tables: flushes and
    /// compactions cut their outputs wherever a key's first
    /// `partition_prefix_len` bytes change, so no table spans two prefixes
    /// (a shorter key is its own prefix). A prefix written in one burst
    /// then sits in tables of its own, which move down the levels without
    /// being merged with other prefixes' tables. `0` never cuts. HEPnOS
    /// sets it to the dataset UUID length for its container databases.
    /// The table count then grows with the number of prefixes, while the
    /// open table files stay within [`crate::OPEN_TABLE_FILE_LIMIT`].
    pub partition_prefix_len: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            memtable_bytes: 4 << 20,
            l0_compaction_trigger: 4,
            l0_slowdown_trigger: 8,
            l0_stop_trigger: 16,
            max_stall: Duration::from_millis(50),
            retry_after_hint: Duration::from_millis(10),
            max_levels: 5,
            level_base_bytes: 16 << 20,
            level_multiplier: 10,
            table_target_bytes: 4 << 20,
            grandparent_limit_bytes: 40 << 20,
            wal_sync: WalSync::None,
            compaction: CompactionMode::Background,
            bloom_bits_per_key: 10,
            read_cache_bytes: 0,
            partition_prefix_len: 0,
        }
    }
}

impl Options {
    /// The partition of `key`: its first `partition_prefix_len` bytes.
    fn partition<'k>(&self, key: &'k [u8]) -> &'k [u8] {
        &key[..self.partition_prefix_len.min(key.len())]
    }
}

/// Errors from database operations.
#[derive(Debug)]
pub enum DbError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// An SSTable was corrupt or unreadable.
    Sst(SstError),
    /// The manifest references a missing file or is malformed.
    Manifest(String),
    /// Write shed: L0 is at the stop trigger and compaction has not caught
    /// up. The client should back off for `retry_after` and retry — this is
    /// the storage-level twin of the service watermark `Busy`.
    Busy {
        /// Suggested backoff before retrying.
        retry_after: Duration,
    },
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "db io error: {e}"),
            DbError::Sst(e) => write!(f, "db sstable error: {e}"),
            DbError::Manifest(m) => write!(f, "db manifest error: {m}"),
            DbError::Busy { retry_after } => {
                write!(f, "db busy (L0 full): retry after {retry_after:?}")
            }
        }
    }
}

impl std::error::Error for DbError {}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

impl From<SstError> for DbError {
    fn from(e: SstError) -> Self {
        DbError::Sst(e)
    }
}

/// An owned key/value pair as returned by scans.
pub type KeyValue = (Vec<u8>, Vec<u8>);

/// A batch of writes applied atomically (single lock acquisition, single WAL
/// flush). This is what Yokan's `put_multi` maps onto.
#[derive(Debug, Default, Clone)]
pub struct WriteBatch {
    ops: Vec<WalRecord>,
}

impl WriteBatch {
    /// Create an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue an insertion.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.ops.push(WalRecord::Put(key.to_vec(), value.to_vec()));
        self
    }

    /// Queue a deletion.
    pub fn delete(&mut self, key: &[u8]) -> &mut Self {
        self.ops.push(WalRecord::Delete(key.to_vec()));
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Operational counters.
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Merging compactions performed.
    pub compactions: u64,
    /// Compactions satisfied by relinking a table down a level (no I/O).
    pub trivial_moves: u64,
    /// Entries currently in the active memtable.
    pub memtable_entries: usize,
    /// Frozen memtables waiting to flush.
    pub imm_memtables: usize,
    /// Live table count per level (index 0 = L0).
    pub level_tables: Vec<usize>,
    /// Live bytes per level.
    pub level_bytes: Vec<u64>,
    /// WAL fsyncs performed (all logs, lifetime of this open).
    pub wal_syncs: u64,
    /// Bytes appended to WALs (lifetime of this open).
    pub wal_bytes: u64,
    /// Writers that soft-stalled on L0 buildup.
    pub write_stalls: u64,
    /// Writers shed with `Busy` at the stop trigger.
    pub write_sheds: u64,
    /// Total time writers spent soft-stalled, in microseconds.
    pub stall_micros: u64,
    /// Per-table filter consultations on the point-read path.
    pub bloom_checks: u64,
    /// Consultations that skipped the table (range or bloom negative).
    pub bloom_negatives: u64,
    /// Tables actually searched on disk by point reads.
    pub sst_point_reads: u64,
    /// Bytes written by memtable flushes.
    pub flush_write_bytes: u64,
    /// Bytes read by merging compactions.
    pub compaction_read_bytes: u64,
    /// Bytes written by merging compactions.
    pub compaction_write_bytes: u64,
    /// Tombstones dropped at the bottom of the tree.
    pub tombstones_dropped: u64,
}

impl DbStats {
    /// Live L0 table count.
    pub fn l0_tables(&self) -> usize {
        self.level_tables.first().copied().unwrap_or(0)
    }

    /// Total live tables across all levels.
    pub fn total_tables(&self) -> usize {
        self.level_tables.iter().sum()
    }

    /// Total live bytes on disk (tables only).
    pub fn disk_bytes(&self) -> u64 {
        self.level_bytes.iter().sum()
    }
}

/// Deterministic crash injection for recovery tests.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failpoint {
    /// Fail a flush after its tables are renamed into place but before the
    /// manifest records them; the flush deletes them again, and the frozen
    /// memtable and its WAL stay.
    FlushBeforeInstall,
    /// Abort a compaction midway through writing outputs (leaves a
    /// dangling `.sst.tmp` plus completed orphan outputs).
    CompactionMidOutput,
    /// Abort a compaction after all outputs are durable but before the
    /// manifest swap (leaves orphaned `.sst` files; inputs stay live).
    CompactionBeforeInstall,
}

fn injected() -> DbError {
    DbError::Io(std::io::Error::other("injected failpoint"))
}

/// A frozen memtable and the WAL file that covers it.
struct ImmEntry {
    mem: Arc<Memtable>,
    wal_id: u64,
}

struct State {
    memtable: Memtable,
    wal: Wal,
    wal_id: u64,
    /// Commit sequence number (group-commit ordering).
    wal_seq: u64,
    /// Frozen memtables, oldest first.
    imm: Vec<ImmEntry>,
    levels: Levels,
    next_file: u64,
    /// WAL byte/sync counters accumulated from rotated-out logs.
    wal_bytes_rotated: u64,
    wal_syncs_rotated: u64,
}

struct GroupState {
    synced_seq: u64,
    leader_active: bool,
}

/// Soft-stall threshold on the frozen-memtable queue.
const IMM_SLOWDOWN: usize = 2;

struct DbInner {
    dir: PathBuf,
    opts: Options,
    state: RwLock<State>,
    cache: Option<ShardedReadCache>,
    /// Serializes flush/compaction executors (background worker vs the
    /// inline `flush`/`compact`/`wait_idle` paths).
    work: Mutex<()>,
    /// Work requested of the background worker, woken through `bg_cv`.
    bg: Mutex<BgRequests>,
    bg_cv: Condvar,
    compaction_paused: AtomicBool,
    stall_lock: Mutex<()>,
    stall_cv: Condvar,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    bg_error: Mutex<Option<String>>,
    failpoint: Mutex<Option<Failpoint>>,
    // Counters.
    flushes: AtomicU64,
    compactions: AtomicU64,
    trivial_moves: AtomicU64,
    write_stalls: AtomicU64,
    write_sheds: AtomicU64,
    stall_micros: AtomicU64,
    bloom_checks: AtomicU64,
    bloom_negatives: AtomicU64,
    sst_point_reads: AtomicU64,
    flush_write_bytes: AtomicU64,
    compaction_read_bytes: AtomicU64,
    compaction_write_bytes: AtomicU64,
    tombstones_dropped: AtomicU64,
}

/// An LSM-tree key-value database rooted at a directory.
pub struct Db {
    inner: Arc<DbInner>,
    worker: Option<std::thread::JoinHandle<()>>,
}

/// The background worker's job flags. A flag set again before the worker
/// takes it is still one job.
#[derive(Default)]
struct BgRequests {
    flush: bool,
    compact: bool,
    /// Set by `Drop`: later requests are ignored, pending ones still run.
    closed: bool,
}

impl Db {
    /// Open (creating if needed) a database in `dir`, replaying WALs,
    /// loading the manifest, and removing temp files and orphaned tables
    /// left by a crash.
    pub fn open(dir: &Path, opts: Options) -> Result<Db, DbError> {
        std::fs::create_dir_all(dir)?;
        let manifest = dir.join("MANIFEST");
        let mut entries: Vec<(usize, String, Option<u64>)> = Vec::new();
        let mut next_file = 1u64;
        if manifest.exists() {
            let text = std::fs::read_to_string(&manifest)?;
            let mut has_next = false;
            for line in text.lines() {
                let mut parts = line.split_whitespace();
                match (parts.next(), parts.next()) {
                    (Some("NEXT"), Some(n)) => {
                        has_next = true;
                        next_file = n
                            .parse()
                            .map_err(|_| DbError::Manifest(format!("bad NEXT line: {line}")))?;
                    }
                    (Some(tag), Some(name)) if tag.starts_with('L') => {
                        let level: usize = tag[1..]
                            .parse()
                            .map_err(|_| DbError::Manifest(format!("bad level tag: {line}")))?;
                        // An L0 table's flush, when the line names one.
                        let flush = parts
                            .next()
                            .map(str::parse)
                            .transpose()
                            .map_err(|_| DbError::Manifest(format!("bad flush: {line}")))?;
                        entries.push((level, name.to_string(), flush));
                    }
                    (None, _) => {}
                    _ => return Err(DbError::Manifest(format!("bad line: {line}"))),
                }
            }
            // Every manifest written has a `NEXT` line. One without it is
            // torn: the tables it should name must stay, not be swept up
            // below as unreferenced.
            if !has_next {
                return Err(DbError::Manifest("no NEXT line".into()));
            }
        }
        // Remove temp files and tables the manifest does not reference —
        // debris from a crash mid-flush or mid-compaction.
        let mut wal_ids: Vec<u64> = Vec::new();
        let mut max_sst_id = 0u64;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") || name == "wal.new" {
                std::fs::remove_file(entry.path()).ok();
            } else if let Some(stem) = name.strip_suffix(".sst") {
                if !entries.iter().any(|(_, n, _)| n == &name) {
                    std::fs::remove_file(entry.path()).ok();
                } else if let Ok(id) = stem.parse::<u64>() {
                    max_sst_id = max_sst_id.max(id);
                }
            } else if let Some(id) = parse_wal_file_name(&name) {
                wal_ids.push(id);
            }
        }
        next_file = next_file.max(max_sst_id + 1);
        let mut loaded = Vec::with_capacity(entries.len());
        for (level, name, flush) in entries {
            loaded.push((level, Arc::new(SstReader::open(&dir.join(name))?), flush));
        }
        let levels = Levels::from_manifest(opts.max_levels, loaded);
        // Replay surviving WALs in id order (legacy single-log layout
        // first), funnel everything into one fresh memtable + log, then
        // retire the old logs.
        wal_ids.sort_unstable();
        let mut replayed: Vec<WalRecord> = Vec::new();
        let legacy = dir.join("wal.log");
        if legacy.exists() {
            replayed.extend(Wal::replay(&legacy)?);
        }
        for id in &wal_ids {
            replayed.extend(Wal::replay(&dir.join(wal_file_name(*id)))?);
        }
        let new_wal_id = wal_ids.last().copied().unwrap_or(0) + 1;
        let mut memtable = Memtable::new();
        let mut wal = Wal::create(&dir.join(wal_file_name(new_wal_id)))?;
        for rec in &replayed {
            wal.append(rec)?;
            match rec {
                WalRecord::Put(k, v) => memtable.put(k, v),
                WalRecord::Delete(k) => memtable.delete(k),
            }
        }
        wal.sync()?;
        if legacy.exists() {
            std::fs::remove_file(&legacy).ok();
        }
        for id in &wal_ids {
            std::fs::remove_file(dir.join(wal_file_name(*id))).ok();
        }
        let cache = if opts.read_cache_bytes > 0 {
            Some(ShardedReadCache::new(opts.read_cache_bytes))
        } else {
            None
        };
        let background = opts.compaction == CompactionMode::Background;
        let inner = Arc::new(DbInner {
            dir: dir.to_path_buf(),
            opts,
            state: RwLock::new(State {
                memtable,
                wal,
                wal_id: new_wal_id,
                wal_seq: 0,
                imm: Vec::new(),
                levels,
                next_file,
                wal_bytes_rotated: 0,
                wal_syncs_rotated: 0,
            }),
            cache,
            work: Mutex::new(()),
            bg: Mutex::new(BgRequests::default()),
            bg_cv: Condvar::new(),
            compaction_paused: AtomicBool::new(false),
            stall_lock: Mutex::new(()),
            stall_cv: Condvar::new(),
            group: Mutex::new(GroupState {
                synced_seq: 0,
                leader_active: false,
            }),
            group_cv: Condvar::new(),
            bg_error: Mutex::new(None),
            failpoint: Mutex::new(None),
            flushes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            trivial_moves: AtomicU64::new(0),
            write_stalls: AtomicU64::new(0),
            write_sheds: AtomicU64::new(0),
            stall_micros: AtomicU64::new(0),
            bloom_checks: AtomicU64::new(0),
            bloom_negatives: AtomicU64::new(0),
            sst_point_reads: AtomicU64::new(0),
            flush_write_bytes: AtomicU64::new(0),
            compaction_read_bytes: AtomicU64::new(0),
            compaction_write_bytes: AtomicU64::new(0),
            tombstones_dropped: AtomicU64::new(0),
        });
        let worker = if background {
            let db = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("lsm-worker".into())
                    .spawn(move || db.bg_loop())?,
            )
        } else {
            None
        };
        // A reopened database may already be over its triggers.
        if background && inner.state.read().levels.max_score(&inner.opts) >= 1.0 {
            inner.request(|r| &mut r.compact);
        }
        Ok(Db { inner, worker })
    }

    /// Insert or overwrite a key.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), DbError> {
        self.inner
            .commit(&[WalRecord::Put(key.to_vec(), value.to_vec())])
    }

    /// Delete a key (idempotent).
    pub fn delete(&self, key: &[u8]) -> Result<(), DbError> {
        self.inner.commit(&[WalRecord::Delete(key.to_vec())])
    }

    /// Apply a batch atomically.
    pub fn write(&self, batch: &WriteBatch) -> Result<(), DbError> {
        if batch.ops.is_empty() {
            return Ok(());
        }
        self.inner.commit(&batch.ops)
    }

    /// Atomically insert `value` unless `key` already exists; returns the
    /// existing value if there is one (and writes nothing). Concurrent
    /// creators race on this, so the check and insert share one write lock.
    pub fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        self.inner.put_if_absent(key, value)
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        self.inner.get(key)
    }

    /// Whether the key exists.
    pub fn contains(&self, key: &[u8]) -> Result<bool, DbError> {
        Ok(self.inner.get(key)?.is_some())
    }

    /// Collect up to `limit` live entries with key `>= lower` and
    /// (optionally) `< upper`, in sorted key order. `limit = 0` means
    /// unlimited.
    pub fn scan(
        &self,
        lower: &[u8],
        upper: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<KeyValue>, DbError> {
        let mut out = Vec::new();
        self.inner.scan_while(lower, upper, &mut |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            limit == 0 || out.len() < limit
        })?;
        Ok(out)
    }

    /// Hand live entries with key `>= lower` and (optionally) `< upper` to
    /// `visit` in sorted key order until it returns `false`. Table entries
    /// stream in, in read-ahead chunks, as they are visited, and bypass the
    /// read cache: a caller that stops early does not read the rest of the
    /// range. Key and value are lent from the merge for the call only, so a
    /// visitor copies just the entries it keeps. This is the primitive
    /// behind Yokan's listings and its range filter.
    pub fn scan_while(
        &self,
        lower: &[u8],
        upper: Option<&[u8]>,
        mut visit: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<(), DbError> {
        self.inner.scan_while(lower, upper, &mut visit)
    }

    /// Count live entries in `[lower, upper)` (full scan; use sparingly).
    pub fn count_range(&self, lower: &[u8], upper: Option<&[u8]>) -> Result<usize, DbError> {
        let mut n = 0;
        self.inner.scan_while(lower, upper, &mut |_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }

    /// Freeze the memtable (if non-empty) and flush every frozen memtable
    /// to L0 before returning.
    pub fn flush(&self) -> Result<(), DbError> {
        self.inner.flush_sync()
    }

    /// Targeted major compaction: flush, then repeatedly compact the
    /// neediest level until every compaction score is below 1.0. Leveling
    /// is preserved — this does **not** collapse the tree.
    pub fn compact(&self) -> Result<(), DbError> {
        self.inner.flush_sync()?;
        let _g = self.inner.work.lock();
        while self.inner.compact_once(None)? {}
        Ok(())
    }

    /// Compact one round of `level` into `level + 1` regardless of score
    /// (no-op on an empty or bottom level).
    pub fn compact_level(&self, level: usize) -> Result<(), DbError> {
        let _g = self.inner.work.lock();
        self.inner.compact_once(Some(level))?;
        Ok(())
    }

    /// Escape hatch for tests and benchmarks: flush, then push **every**
    /// table down until all data sits in a single sorted bottom-level run
    /// (tombstones fully dropped).
    pub fn compact_all(&self) -> Result<(), DbError> {
        self.inner.flush_sync()?;
        let _g = self.inner.work.lock();
        let n = {
            let st = self.inner.state.read();
            st.levels.num_levels()
        };
        for level in 0..n.saturating_sub(1) {
            loop {
                let empty = {
                    let st = self.inner.state.read();
                    st.levels.is_empty(level)
                };
                if empty {
                    break;
                }
                self.inner.compact_once(Some(level))?;
            }
        }
        Ok(())
    }

    /// Drain all pending flush and compaction work synchronously; returns
    /// once every frozen memtable is flushed and every level scores below
    /// 1.0. Background errors recorded by the worker surface here.
    pub fn wait_idle(&self) -> Result<(), DbError> {
        loop {
            {
                let _g = self.inner.work.lock();
                while self.inner.flush_one()? {}
                while self.inner.compact_once(None)? {}
            }
            if let Some(msg) = self.inner.bg_error.lock().take() {
                return Err(DbError::Io(std::io::Error::other(msg)));
            }
            let st = self.inner.state.read();
            if st.imm.is_empty()
                && (self.inner.compaction_paused.load(Ordering::SeqCst)
                    || st.levels.max_score(&self.inner.opts) < 1.0)
            {
                return Ok(());
            }
        }
    }

    /// Operational counters.
    pub fn stats(&self) -> DbStats {
        self.inner.stats()
    }

    /// Full per-shard read-cache counters (all zeros when the cache is
    /// disabled).
    pub fn read_cache_stats(&self) -> CacheStats {
        match &self.inner.cache {
            Some(c) => c.stats(),
            None => CacheStats::default(),
        }
    }

    #[doc(hidden)]
    pub fn set_failpoint(&self, fp: Failpoint) {
        *self.inner.failpoint.lock() = Some(fp);
    }

    #[doc(hidden)]
    pub fn pause_compaction(&self, paused: bool) {
        self.inner.compaction_paused.store(paused, Ordering::SeqCst);
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        self.inner.bg.lock().closed = true;
        self.inner.bg_cv.notify_one();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
        // Push the WAL tail toward the disk on clean shutdown.
        let mut st = self.inner.state.write();
        let _ = match self.inner.opts.wal_sync {
            WalSync::Always | WalSync::Group => st.wal.sync(),
            WalSync::None => st.wal.flush(),
        };
    }
}

impl DbInner {
    fn sst_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id:08}.sst"))
    }

    fn tmp_sst_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id:08}.sst.tmp"))
    }

    fn wal_path(&self, id: u64) -> PathBuf {
        self.dir.join(wal_file_name(id))
    }

    fn take_failpoint(&self, fp: Failpoint) -> bool {
        let mut g = self.failpoint.lock();
        if *g == Some(fp) {
            *g = None;
            true
        } else {
            false
        }
    }

    fn background(&self) -> bool {
        self.opts.compaction == CompactionMode::Background
    }

    // ---- write path -----------------------------------------------------

    fn commit(&self, ops: &[WalRecord]) -> Result<(), DbError> {
        self.gate()?;
        let seq = {
            let mut st = self.state.write();
            self.apply_locked(&mut st, ops)?
        };
        self.after_commit(seq)
    }

    fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        self.gate()?;
        let seq = {
            let mut st = self.state.write();
            if let Some(v) = self.lookup_no_cache(&st, key)? {
                return Ok(Some(v));
            }
            self.apply_locked(&mut st, &[WalRecord::Put(key.to_vec(), value.to_vec())])?
        };
        self.after_commit(seq)?;
        Ok(None)
    }

    /// Append + apply one commit under the held write lock; returns its
    /// sequence number for group commit.
    fn apply_locked(&self, st: &mut State, ops: &[WalRecord]) -> Result<u64, DbError> {
        for op in ops {
            st.wal.append(op)?;
        }
        match self.opts.wal_sync {
            WalSync::Always => st.wal.sync()?,
            WalSync::None => st.wal.flush()?,
            WalSync::Group => {}
        }
        for op in ops {
            match op {
                WalRecord::Put(k, v) => st.memtable.put(k, v),
                WalRecord::Delete(k) => st.memtable.delete(k),
            }
            if let Some(c) = &self.cache {
                let key = match op {
                    WalRecord::Put(k, _) | WalRecord::Delete(k) => k,
                };
                c.invalidate(key);
            }
        }
        st.wal_seq += 1;
        let seq = st.wal_seq;
        if st.memtable.approx_bytes() >= self.opts.memtable_bytes {
            self.freeze(st)?;
        }
        Ok(seq)
    }

    fn after_commit(&self, seq: u64) -> Result<(), DbError> {
        if self.opts.wal_sync == WalSync::Group {
            self.group_commit(seq)?;
        }
        if !self.background() {
            let pending = {
                let st = self.state.read();
                !st.imm.is_empty() || st.levels.max_score(&self.opts) >= 1.0
            };
            if pending {
                let _g = self.work.lock();
                while self.flush_one()? {}
                if !self.compaction_paused.load(Ordering::SeqCst) {
                    while self.compact_once(None)? {}
                }
            }
        }
        Ok(())
    }

    /// Admission gate for writers: shed at the L0 stop trigger, bounded
    /// soft-stall at the slowdown trigger or when flushes fall behind.
    /// Inline mode skips it — the writer is about to do the compaction
    /// itself.
    fn gate(&self) -> Result<(), DbError> {
        if !self.background() {
            return Ok(());
        }
        let (l0, imm) = {
            let st = self.state.read();
            (st.levels.l0_flushes(), st.imm.len())
        };
        if l0 >= self.opts.l0_stop_trigger {
            self.write_sheds.fetch_add(1, Ordering::Relaxed);
            return Err(DbError::Busy {
                retry_after: self.opts.retry_after_hint,
            });
        }
        if l0 < self.opts.l0_slowdown_trigger && imm < IMM_SLOWDOWN {
            return Ok(());
        }
        // Soft stall: wait (bounded) for background progress.
        self.write_stalls.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        {
            let mut g = self.stall_lock.lock();
            while t0.elapsed() < self.opts.max_stall {
                let (l0, imm) = {
                    let st = self.state.read();
                    (st.levels.l0_flushes(), st.imm.len())
                };
                if l0 < self.opts.l0_slowdown_trigger && imm < IMM_SLOWDOWN {
                    break;
                }
                let remaining = self.opts.max_stall.saturating_sub(t0.elapsed());
                self.stall_cv.wait_for(&mut g, remaining);
            }
        }
        self.stall_micros
            .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        // Re-check the hard limit after the stall.
        let l0 = self.state.read().levels.l0_flushes();
        if l0 >= self.opts.l0_stop_trigger {
            self.write_sheds.fetch_add(1, Ordering::Relaxed);
            return Err(DbError::Busy {
                retry_after: self.opts.retry_after_hint,
            });
        }
        Ok(())
    }

    /// Rotate the active memtable into the frozen queue with a fresh WAL.
    /// Caller holds the state write lock.
    fn freeze(&self, st: &mut State) -> Result<(), DbError> {
        if st.memtable.is_empty() {
            return Ok(());
        }
        // The outgoing log must be fully on disk (or at the OS) before its
        // memtable leaves the write path.
        match self.opts.wal_sync {
            WalSync::Group => {
                st.wal.sync()?;
                let synced = st.wal_seq;
                let mut g = self.group.lock();
                g.synced_seq = g.synced_seq.max(synced);
                drop(g);
                self.group_cv.notify_all();
            }
            WalSync::Always => {}
            WalSync::None => st.wal.flush()?,
        }
        st.wal_bytes_rotated += st.wal.bytes_written();
        st.wal_syncs_rotated += st.wal.syncs();
        let old_wal_id = st.wal_id;
        let frozen = std::mem::replace(&mut st.memtable, Memtable::new());
        st.imm.push(ImmEntry {
            mem: Arc::new(frozen),
            wal_id: old_wal_id,
        });
        st.wal_id += 1;
        st.wal = Wal::create(&self.wal_path(st.wal_id))?;
        if self.background() {
            self.request(|r| &mut r.flush);
        }
        Ok(())
    }

    /// Group commit: wait until an fsync covering `my_seq` has happened,
    /// electing ourselves leader if nobody is syncing.
    fn group_commit(&self, my_seq: u64) -> Result<(), DbError> {
        let mut g = self.group.lock();
        loop {
            if g.synced_seq >= my_seq {
                return Ok(());
            }
            if !g.leader_active {
                g.leader_active = true;
                drop(g);
                // Leader: one fsync covers every commit sequenced so far.
                // The group mutex is NOT held here, so the state lock is
                // safe to take (no lock-order cycle with `freeze`).
                let result: Result<u64, DbError> = (|| {
                    let mut st = self.state.write();
                    let covered = st.wal_seq;
                    st.wal.sync()?;
                    Ok(covered)
                })();
                g = self.group.lock();
                g.leader_active = false;
                match result {
                    Ok(covered) => {
                        g.synced_seq = g.synced_seq.max(covered);
                        drop(g);
                        self.group_cv.notify_all();
                        return Ok(());
                    }
                    Err(e) => {
                        drop(g);
                        self.group_cv.notify_all();
                        return Err(e);
                    }
                }
            }
            self.group_cv.wait(&mut g);
        }
    }

    // ---- background worker ----------------------------------------------

    /// Ask the background worker for the job `pick` flags. Ignored once
    /// `Drop` has closed the loop.
    fn request(&self, pick: fn(&mut BgRequests) -> &mut bool) {
        let mut r = self.bg.lock();
        if !r.closed {
            *pick(&mut r) = true;
            self.bg_cv.notify_one();
        }
    }

    /// The worker thread: takes a pending flush before a pending
    /// compaction, clearing its flag as it does, and exits once `Drop` has
    /// closed the loop and no requested job is left.
    fn bg_loop(&self) {
        loop {
            let flush = {
                let mut r = self.bg.lock();
                loop {
                    if std::mem::take(&mut r.flush) {
                        break true;
                    }
                    if std::mem::take(&mut r.compact) {
                        break false;
                    }
                    if r.closed {
                        return;
                    }
                    self.bg_cv.wait(&mut r);
                }
            };
            // A flush drains every frozen memtable; a compaction runs until
            // nothing is picked. An error is recorded before `work` is
            // released, so a `wait_idle` that runs next sees it, and skips
            // the follow-up compaction.
            let work = self.work.lock();
            let result = (|| -> Result<(), DbError> {
                if flush {
                    while self.flush_one()? {}
                } else {
                    while self.compact_once(None)? {}
                }
                Ok(())
            })();
            if let Err(e) = result {
                *self.bg_error.lock() = Some(e.to_string());
                continue;
            }
            drop(work);
            if flush && self.state.read().levels.max_score(&self.opts) >= 1.0 {
                self.request(|r| &mut r.compact);
            }
        }
    }

    /// Flush + drain used by `Db::flush` and the inline paths.
    fn flush_sync(&self) -> Result<(), DbError> {
        {
            let mut st = self.state.write();
            self.freeze(&mut st)?;
        }
        let _g = self.work.lock();
        while self.flush_one()? {}
        Ok(())
    }

    // ---- flush / compaction executors (caller holds `work`) -------------

    /// Allocate the next table file id.
    fn next_file_id(&self) -> u64 {
        let mut st = self.state.write();
        st.next_file += 1;
        st.next_file - 1
    }

    /// Flush the oldest frozen memtable to L0, one table per key partition,
    /// all installed by one manifest write; `Ok(false)` when none. A failed
    /// flush deletes the tables it wrote.
    fn flush_one(&self) -> Result<bool, DbError> {
        let (mem, wal_id) = {
            let st = self.state.read();
            let Some(entry) = st.imm.first() else {
                return Ok(false);
            };
            (Arc::clone(&entry.mem), entry.wal_id)
        };
        // Build the tables off-lock: the frozen memtable is immutable.
        let mut outs = Outputs::new(self);
        let built = (|| {
            for (k, v) in mem.iter() {
                if outs.crosses_partition(k) {
                    outs.cut()?;
                }
                outs.add(k, v.live())?;
            }
            outs.cut()?;
            if self.take_failpoint(Failpoint::FlushBeforeInstall) {
                return Err(injected());
            }
            Ok(())
        })();
        if let Err(e) = built {
            outs.discard();
            return Err(e);
        }
        let tables = outs.tables;
        let bytes: u64 = tables.iter().map(|t| t.file_size()).sum();
        self.flush_write_bytes.fetch_add(bytes, Ordering::Relaxed);
        {
            let mut st = self.state.write();
            st.levels.push_l0(tables);
            st.imm.remove(0);
            self.write_manifest(&st)?;
        }
        // The WAL covering this memtable is no longer needed.
        std::fs::remove_file(self.wal_path(wal_id)).ok();
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.notify_progress();
        Ok(true)
    }

    /// Run one compaction: the neediest level (score ≥ 1.0), or `forced`
    /// regardless of score. `Ok(false)` when there is nothing to do.
    fn compact_once(&self, forced: Option<usize>) -> Result<bool, DbError> {
        if forced.is_none() && self.compaction_paused.load(Ordering::SeqCst) {
            return Ok(false);
        }
        let pick = {
            let st = self.state.read();
            match forced {
                Some(level) => {
                    if level + 1 >= st.levels.num_levels() || st.levels.is_empty(level) {
                        None
                    } else {
                        Some(st.levels.pick_level(level, &self.opts))
                    }
                }
                None => st.levels.pick(&self.opts),
            }
        };
        let Some(pick) = pick else {
            return Ok(false);
        };
        let target = pick.from + 1;
        let (_, in_max) = key_span(pick.input_tables());
        if pick.trivial {
            // Relink the table one level down — no I/O beyond the manifest.
            let moved = Arc::clone(&pick.inputs[0][0]);
            let mut st = self.state.write();
            st.levels.remove(pick.from, pick.input_tables());
            st.levels.insert_sorted(target, vec![moved]);
            if pick.from >= 1 {
                st.levels.advance_cursor(pick.from, &in_max);
            }
            self.write_manifest(&st)?;
            drop(st);
            self.trivial_moves.fetch_add(1, Ordering::Relaxed);
            self.notify_progress();
            return Ok(true);
        }
        let read_bytes: u64 = pick
            .input_tables()
            .chain(&pick.overlaps)
            .map(|t| t.file_size())
            .sum();
        self.compaction_read_bytes
            .fetch_add(read_bytes, Ordering::Relaxed);
        // Snapshot the grandparent tables for output cutting, over the
        // span of inputs and overlaps together. Only the executor mutates
        // levels ≥ 1, so this stays valid off-lock.
        let (min, max) = key_span(pick.input_tables().chain(&pick.overlaps));
        let grandparents: Vec<(Vec<u8>, Vec<u8>, u64)> = {
            let st = self.state.read();
            st.levels
                .overlapping(target + 1, &min, &max)
                .iter()
                .map(|t| (t.min_key().to_vec(), t.max_key().to_vec(), t.file_size()))
                .collect()
        };
        // Merge the input runs (newest first for L0 precedence) with the
        // overlapped target tables, read as one run.
        let whole = |tables: Vec<Arc<SstReader>>| Source::Tables(TableRun::new(tables, &[], None));
        let mut sources: Vec<Source> = pick.inputs.iter().rev().cloned().map(whole).collect();
        sources.push(whole(pick.overlaps.clone()));
        let mut merged = Merge::new(sources);
        let mut outs = Outputs::new(self);
        let mut gp_idx = 0usize;
        let mut gp_acc = 0u64;
        let untouched = &pick.untouched;
        let mut ut_idx = 0usize;
        loop {
            match merged.advance() {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    // A damaged input: leave the inputs installed and drop
                    // the outputs written so far.
                    outs.discard();
                    return Err(e.into());
                }
            }
            let (k, v) = (merged.key(), merged.value());
            // No merged key falls inside an untouched table, so ending the
            // output before its min key keeps the target level disjoint.
            let seen = ut_idx;
            while ut_idx < untouched.len() && untouched[ut_idx].as_slice() <= k {
                ut_idx += 1;
            }
            if ut_idx > seen {
                self.finish_output(&mut outs)?;
                // The grandparents wholly below `k` lie under the skipped
                // range and do not overlap the next output; the one holding
                // `k`, if any, is charged below like any other.
                while gp_idx < grandparents.len() && grandparents[gp_idx].1.as_slice() < k {
                    gp_idx += 1;
                }
                gp_acc = 0;
            }
            if pick.drop_tombstones && v.is_none() {
                self.tombstones_dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if outs.crosses_partition(k) {
                self.finish_output(&mut outs)?;
                gp_acc = 0;
            }
            outs.add(k, v)?;
            while gp_idx < grandparents.len() && grandparents[gp_idx].0.as_slice() <= k {
                gp_acc += grandparents[gp_idx].2;
                gp_idx += 1;
            }
            if outs.open_bytes() >= self.opts.table_target_bytes as u64
                || gp_acc > self.opts.grandparent_limit_bytes
            {
                self.finish_output(&mut outs)?;
                gp_acc = 0;
            }
        }
        outs.cut()?;
        let outputs = outs.tables;
        let write_bytes: u64 = outputs.iter().map(|t| t.file_size()).sum();
        if self.take_failpoint(Failpoint::CompactionBeforeInstall) {
            return Err(injected());
        }
        {
            let mut st = self.state.write();
            st.levels.remove(pick.from, pick.input_tables());
            st.levels.remove(target, &pick.overlaps);
            st.levels.insert_sorted(target, outputs);
            if pick.from >= 1 {
                st.levels.advance_cursor(pick.from, &in_max);
            }
            self.write_manifest(&st)?;
        }
        // A scan may still read a replaced table; its file goes with the
        // last reference.
        for t in pick.input_tables().chain(&pick.overlaps) {
            t.delete_when_unused();
        }
        self.compaction_write_bytes
            .fetch_add(write_bytes, Ordering::Relaxed);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.notify_progress();
        Ok(true)
    }

    /// Finish the open compaction output, if any.
    fn finish_output(&self, outs: &mut Outputs) -> Result<(), DbError> {
        if outs.cut()? && self.take_failpoint(Failpoint::CompactionMidOutput) {
            // Simulate dying with a half-written next output.
            std::fs::write(self.tmp_sst_path(self.next_file_id()), b"partial garbage")?;
            return Err(injected());
        }
        Ok(())
    }

    fn notify_progress(&self) {
        let _g = self.stall_lock.lock();
        self.stall_cv.notify_all();
    }

    fn write_manifest(&self, st: &State) -> Result<(), DbError> {
        let mut text = format!("NEXT {}\n", st.next_file);
        let name = |t: &SstReader| {
            t.path()
                .file_name()
                .and_then(|n| n.to_str())
                .map(str::to_owned)
                .ok_or_else(|| DbError::Manifest("bad sst filename".into()))
        };
        // L0 lines also name their table's flush.
        for (flush, run) in st.levels.l0().iter().enumerate() {
            for t in run {
                text.push_str(&format!("L0 {} {flush}\n", name(t)?));
            }
        }
        for level in 1..st.levels.num_levels() {
            for t in st.levels.level(level) {
                text.push_str(&format!("L{level} {}\n", name(t)?));
            }
        }
        // The new manifest must be on disk before it replaces the old one:
        // a torn one would lose every table it names.
        let tmp = self.dir.join("MANIFEST.tmp");
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, self.dir.join("MANIFEST"))?;
        crate::sstable::sync_dir(&self.dir.join("MANIFEST"))?;
        Ok(())
    }

    // ---- read path ------------------------------------------------------

    /// Memtable + frozen-memtable lookup (newest first).
    fn mem_lookup(st: &State, key: &[u8]) -> Option<Value> {
        if let Some(v) = st.memtable.get(key) {
            return Some(v.clone());
        }
        for entry in st.imm.iter().rev() {
            if let Some(v) = entry.mem.get(key) {
                return Some(v.clone());
            }
        }
        None
    }

    /// Table lookup across every run, bloom-gated, newest-first: at most
    /// one table per L0 flush and per deeper level holds the key.
    fn table_lookup(&self, st: &State, key: &[u8]) -> Result<Option<Value>, DbError> {
        for run in st.levels.runs() {
            let Some(sst) = find_in(run, key) else {
                continue;
            };
            self.bloom_checks.fetch_add(1, Ordering::Relaxed);
            if !sst.may_contain(key) {
                self.bloom_negatives.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.sst_point_reads.fetch_add(1, Ordering::Relaxed);
            if let Some(v) = sst.get(key)? {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    /// Full lookup without read-cache involvement (used under write locks).
    fn lookup_no_cache(&self, st: &State, key: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        if let Some(v) = Self::mem_lookup(st, key) {
            return Ok(match v {
                Value::Put(data) => Some(data),
                Value::Tombstone => None,
            });
        }
        Ok(match self.table_lookup(st, key)? {
            Some(Value::Put(data)) => Some(data),
            _ => None,
        })
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        let st = self.state.read();
        if let Some(v) = Self::mem_lookup(&st, key) {
            return Ok(match v {
                Value::Put(data) => Some(data),
                Value::Tombstone => None,
            });
        }
        // Not in a write buffer: the read cache may serve it without
        // touching any table.
        if let Some(c) = &self.cache {
            if let Some(v) = c.get(key) {
                return Ok(Some(v));
            }
        }
        match self.table_lookup(&st, key)? {
            Some(Value::Put(data)) => {
                if let Some(c) = &self.cache {
                    c.insert(key, &data);
                }
                Ok(Some(data))
            }
            _ => Ok(None),
        }
    }

    fn scan_while(
        &self,
        lower: &[u8],
        upper: Option<&[u8]>,
        visit: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<(), DbError> {
        if upper.is_some_and(|u| u <= lower) {
            return Ok(());
        }
        let st = self.state.read();
        // Sources in precedence order: memtable, frozen memtables newest
        // first, then one source per run: L0 flushes newest first, then
        // each deeper level (shallower runs shadow deeper ones).
        let snapshot = |mem: &Memtable| Source::Mem {
            entries: mem
                .range(
                    Bound::Included(lower),
                    upper.map_or(Bound::Unbounded, Bound::Excluded),
                )
                .map(|(k, v)| (k.to_vec(), v.clone()))
                .collect::<Vec<_>>()
                .into_iter(),
            cur: None,
        };
        let in_range = |t: &&Arc<SstReader>| {
            t.entry_count() > 0 && t.max_key() >= lower && upper.is_none_or(|u| t.min_key() < u)
        };
        let mut sources = vec![snapshot(&st.memtable)];
        sources.extend(st.imm.iter().rev().map(|entry| snapshot(&entry.mem)));
        for run in st.levels.runs() {
            let tables: Vec<_> = run.iter().filter(in_range).cloned().collect();
            if !tables.is_empty() {
                sources.push(Source::Tables(TableRun::new(tables, lower, upper)));
            }
        }
        drop(st);
        let mut merged = Merge::new(sources);
        while merged.advance()? {
            if let Some(v) = merged.value() {
                if !visit(merged.key(), v) {
                    break;
                }
            }
        }
        Ok(())
    }

    fn stats(&self) -> DbStats {
        let st = self.state.read();
        let n = st.levels.num_levels();
        DbStats {
            flushes: self.flushes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            trivial_moves: self.trivial_moves.load(Ordering::Relaxed),
            memtable_entries: st.memtable.len(),
            imm_memtables: st.imm.len(),
            level_tables: (0..n).map(|i| st.levels.table_count(i)).collect(),
            level_bytes: (0..n).map(|i| st.levels.level_bytes(i)).collect(),
            wal_syncs: st.wal_syncs_rotated + st.wal.syncs(),
            wal_bytes: st.wal_bytes_rotated + st.wal.bytes_written(),
            write_stalls: self.write_stalls.load(Ordering::Relaxed),
            write_sheds: self.write_sheds.load(Ordering::Relaxed),
            stall_micros: self.stall_micros.load(Ordering::Relaxed),
            bloom_checks: self.bloom_checks.load(Ordering::Relaxed),
            bloom_negatives: self.bloom_negatives.load(Ordering::Relaxed),
            sst_point_reads: self.sst_point_reads.load(Ordering::Relaxed),
            flush_write_bytes: self.flush_write_bytes.load(Ordering::Relaxed),
            compaction_read_bytes: self.compaction_read_bytes.load(Ordering::Relaxed),
            compaction_write_bytes: self.compaction_write_bytes.load(Ordering::Relaxed),
            tombstones_dropped: self.tombstones_dropped.load(Ordering::Relaxed),
        }
    }
}

/// The tables one flush or compaction writes, in key order. A new table
/// opens on the first key added after a cut; until they are installed the
/// tables belong to the job alone.
struct Outputs<'a> {
    db: &'a DbInner,
    /// Finished tables.
    tables: Vec<Arc<SstReader>>,
    /// The open table and its file id.
    open: Option<(SstWriter, u64)>,
    /// Key partition of the open table.
    part: Vec<u8>,
}

impl<'a> Outputs<'a> {
    fn new(db: &'a DbInner) -> Outputs<'a> {
        Outputs {
            db,
            tables: Vec::new(),
            open: None,
            part: Vec::new(),
        }
    }

    /// Whether `key` lies in another partition than the open table's.
    fn crosses_partition(&self, key: &[u8]) -> bool {
        self.open.is_some() && self.db.opts.partition(key) != self.part.as_slice()
    }

    /// Append an entry (`None` is a tombstone), opening a table if none is.
    fn add(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<(), DbError> {
        let (w, _) = match &mut self.open {
            Some(open) => open,
            None => {
                let id = self.db.next_file_id();
                let w =
                    SstWriter::create(&self.db.tmp_sst_path(id), self.db.opts.bloom_bits_per_key)?;
                self.part.clear();
                self.part.extend_from_slice(self.db.opts.partition(key));
                self.open.insert((w, id))
            }
        };
        w.add(key, value)?;
        Ok(())
    }

    /// Data bytes in the open table.
    fn open_bytes(&self) -> u64 {
        self.open.as_ref().map_or(0, |(w, _)| w.data_bytes())
    }

    /// Finish the open table into place; `Ok(false)` when none is open.
    fn cut(&mut self) -> Result<bool, DbError> {
        let Some((w, id)) = self.open.take() else {
            return Ok(false);
        };
        let path = self.db.sst_path(id);
        match w.finish_to(&path) {
            Ok(t) => self.tables.push(Arc::new(t)),
            Err(e) => {
                std::fs::remove_file(self.db.tmp_sst_path(id)).ok();
                std::fs::remove_file(&path).ok();
                return Err(e.into());
            }
        }
        Ok(true)
    }

    /// Delete every table written so far, the open one included.
    fn discard(self) {
        for t in &self.tables {
            t.delete_when_unused();
        }
        if let Some((_, id)) = self.open {
            std::fs::remove_file(self.db.tmp_sst_path(id)).ok();
        }
    }
}

/// Cursor over a run of key-disjoint tables in key order: one L0 flush, or
/// the tables of one sorted level. It opens each table only once the one
/// before it is used up.
struct TableRun {
    tables: std::vec::IntoIter<Arc<SstReader>>,
    cur: Option<SstRangeIter>,
    lower: Vec<u8>,
    upper: Option<Vec<u8>>,
}

impl TableRun {
    /// A run over the entries of `tables` with keys in `[lower, upper)`.
    fn new(tables: Vec<Arc<SstReader>>, lower: &[u8], upper: Option<&[u8]>) -> TableRun {
        TableRun {
            tables: tables.into_iter(),
            cur: None,
            lower: lower.to_vec(),
            upper: upper.map(<[u8]>::to_vec),
        }
    }

    fn advance(&mut self) -> Result<bool, SstError> {
        loop {
            if let Some(it) = &mut self.cur {
                if it.advance()? {
                    return Ok(true);
                }
            }
            let Some(t) = self.tables.next() else {
                return Ok(false);
            };
            self.cur = Some(t.iter_range(&self.lower, self.upper.as_deref()));
        }
    }

    fn table(&self) -> &SstRangeIter {
        self.cur.as_ref().expect("run is on an entry")
    }
}

/// One input of a [`Merge`]. It lends out its current entry until its next
/// `advance`; a `None` value is a tombstone.
enum Source {
    Tables(TableRun),
    /// A scan's copy of one memtable's range, taken under the state lock.
    Mem {
        entries: std::vec::IntoIter<(Vec<u8>, Value)>,
        cur: Option<(Vec<u8>, Value)>,
    },
}

impl Source {
    fn advance(&mut self) -> Result<bool, SstError> {
        match self {
            Source::Tables(run) => run.advance(),
            Source::Mem { entries, cur } => {
                *cur = entries.next();
                Ok(cur.is_some())
            }
        }
    }

    fn key(&self) -> &[u8] {
        match self {
            Source::Tables(run) => run.table().key(),
            Source::Mem { cur, .. } => &cur.as_ref().expect("memtable is on an entry").0,
        }
    }

    fn value(&self) -> Option<&[u8]> {
        match self {
            Source::Tables(run) => run.table().value(),
            Source::Mem { cur, .. } => cur.as_ref().expect("memtable is on an entry").1.live(),
        }
    }
}

/// K-way merge over precedence-ordered sources, each sorted with unique
/// keys. On equal keys the earlier source wins, and every source on that
/// key steps past it together. The winner's entry is lent out until the
/// next `advance`; nothing is copied or allocated per entry.
struct Merge {
    /// The sources not yet used up, in precedence order.
    sources: Vec<Source>,
    /// The sources on the current key in precedence order, the winner
    /// first; before the first `advance`, every source.
    on_key: Vec<usize>,
}

impl Merge {
    fn new(sources: Vec<Source>) -> Merge {
        let on_key = (0..sources.len()).collect();
        Merge { sources, on_key }
    }

    /// Step to the next key; `Ok(false)` once every source is used up. The
    /// first error any source hits is returned.
    fn advance(&mut self) -> Result<bool, SstError> {
        use std::cmp::Ordering as KeyOrder;
        // Highest index first, so a removal leaves the rest in place.
        for &i in self.on_key.iter().rev() {
            if !self.sources[i].advance()? {
                self.sources.remove(i);
            }
        }
        self.on_key.clear();
        for i in 0..self.sources.len() {
            let order = self
                .on_key
                .first()
                .map(|&w| self.sources[i].key().cmp(self.sources[w].key()));
            match order {
                None | Some(KeyOrder::Less) => {
                    self.on_key.clear();
                    self.on_key.push(i);
                }
                Some(KeyOrder::Equal) => self.on_key.push(i),
                Some(KeyOrder::Greater) => {}
            }
        }
        Ok(!self.on_key.is_empty())
    }

    /// Key of the current entry. Valid after `advance` returned `true`.
    fn key(&self) -> &[u8] {
        self.sources[self.on_key[0]].key()
    }

    /// Value of the winning source on the current key; `None` for a
    /// tombstone.
    fn value(&self) -> Option<&[u8]> {
        self.sources[self.on_key[0]].value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "lsmdb-db-{}-{name}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn small_opts() -> Options {
        Options {
            memtable_bytes: 1024,
            l0_compaction_trigger: 3,
            l0_slowdown_trigger: 6,
            l0_stop_trigger: 12,
            max_levels: 4,
            level_base_bytes: 4096,
            level_multiplier: 4,
            table_target_bytes: 4096,
            grandparent_limit_bytes: 16384,
            compaction: CompactionMode::Inline,
            ..Options::default()
        }
    }

    fn bg_opts() -> Options {
        Options {
            compaction: CompactionMode::Background,
            ..small_opts()
        }
    }

    #[test]
    fn put_get_delete_basic() {
        let d = tmpdir("basic");
        let db = Db::open(&d, Options::default()).unwrap();
        db.put(b"k1", b"v1").unwrap();
        assert_eq!(db.get(b"k1").unwrap(), Some(b"v1".to_vec()));
        assert!(db.contains(b"k1").unwrap());
        db.delete(b"k1").unwrap();
        assert_eq!(db.get(b"k1").unwrap(), None);
        assert!(!db.contains(b"k1").unwrap());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn survives_flush_and_compaction() {
        let d = tmpdir("flushcompact");
        let db = Db::open(&d, small_opts()).unwrap();
        let mut model = BTreeMap::new();
        for i in 0..2000u32 {
            let k = format!("key{:06}", i % 700);
            let v = format!("value-{i}");
            db.put(k.as_bytes(), v.as_bytes()).unwrap();
            model.insert(k, v);
        }
        let stats = db.stats();
        assert!(stats.flushes > 0, "expected flushes, got {stats:?}");
        assert!(
            stats.compactions + stats.trivial_moves > 0,
            "expected compactions, got {stats:?}"
        );
        for (k, v) in &model {
            assert_eq!(
                db.get(k.as_bytes()).unwrap(),
                Some(v.clone().into_bytes()),
                "key {k}"
            );
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn background_compaction_catches_up() {
        let d = tmpdir("bg");
        let db = Db::open(&d, bg_opts()).unwrap();
        let mut model = BTreeMap::new();
        for i in 0..2000u32 {
            let k = format!("key{:06}", i % 700);
            let v = format!("value-{i}");
            db.put(k.as_bytes(), v.as_bytes()).unwrap();
            model.insert(k, v);
        }
        db.wait_idle().unwrap();
        let stats = db.stats();
        assert!(stats.flushes > 0, "expected flushes, got {stats:?}");
        assert!(
            stats.compactions + stats.trivial_moves > 0,
            "expected background compactions, got {stats:?}"
        );
        assert!(
            stats.l0_tables() < small_opts().l0_slowdown_trigger,
            "L0 should be drained, got {stats:?}"
        );
        for (k, v) in &model {
            assert_eq!(
                db.get(k.as_bytes()).unwrap(),
                Some(v.clone().into_bytes()),
                "key {k}"
            );
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn data_spreads_over_multiple_levels() {
        let d = tmpdir("deep");
        let opts = Options {
            level_base_bytes: 2048,
            level_multiplier: 2,
            ..small_opts()
        };
        let db = Db::open(&d, opts).unwrap();
        for i in 0..4000u32 {
            db.put(format!("key{i:06}").as_bytes(), &[3u8; 48]).unwrap();
        }
        let stats = db.stats();
        let deep_tables: usize = stats.level_tables.iter().skip(2).sum();
        assert!(
            deep_tables > 0,
            "expected tables below L1, got {:?}",
            stats.level_tables
        );
        for i in (0..4000u32).step_by(37) {
            assert!(
                db.get(format!("key{i:06}").as_bytes()).unwrap().is_some(),
                "key{i:06}"
            );
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn l0_stop_trigger_sheds_with_busy() {
        let d = tmpdir("busy");
        let opts = Options {
            l0_slowdown_trigger: 2,
            l0_stop_trigger: 3,
            max_stall: Duration::from_millis(1),
            ..bg_opts()
        };
        let db = Db::open(&d, opts).unwrap();
        db.pause_compaction(true);
        // Build L0 past the stop trigger via forced flushes (flush_one is
        // not paused, compaction is).
        for round in 0..3 {
            db.put(format!("k{round}").as_bytes(), &[0u8; 64]).unwrap();
            db.flush().unwrap();
        }
        let err = db.put(b"overflow", b"x").unwrap_err();
        match err {
            DbError::Busy { retry_after } => assert!(retry_after > Duration::ZERO),
            other => panic!("expected Busy, got {other:?}"),
        }
        let stats = db.stats();
        assert!(stats.write_sheds > 0, "{stats:?}");
        // Resume compaction: the same write must eventually succeed.
        db.pause_compaction(false);
        db.wait_idle().unwrap();
        db.put(b"overflow", b"x").unwrap();
        assert_eq!(db.get(b"overflow").unwrap(), Some(b"x".to_vec()));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let d = tmpdir("group");
        let opts = Options {
            wal_sync: WalSync::Group,
            ..Options::default()
        };
        let db = Arc::new(Db::open(&d, opts).unwrap());
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        db.put(format!("w{w}-{i:04}").as_bytes(), &[9u8; 32])
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in writers {
            t.join().unwrap();
        }
        let stats = db.stats();
        assert!(stats.wal_syncs > 0, "{stats:?}");
        assert!(
            stats.wal_syncs < 400,
            "group commit should batch fsyncs: {} syncs for 400 commits",
            stats.wal_syncs
        );
        drop(db);
        let db = Db::open(&d, Options::default()).unwrap();
        for w in 0..4 {
            for i in 0..100u32 {
                assert!(
                    db.get(format!("w{w}-{i:04}").as_bytes()).unwrap().is_some(),
                    "w{w}-{i:04}"
                );
            }
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn wal_sync_always_counts_every_commit() {
        let d = tmpdir("always");
        let opts = Options {
            wal_sync: WalSync::Always,
            ..Options::default()
        };
        let db = Db::open(&d, opts).unwrap();
        for i in 0..10u32 {
            db.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        let stats = db.stats();
        assert!(stats.wal_syncs >= 10, "{stats:?}");
        assert!(stats.wal_bytes > 0, "{stats:?}");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn deletes_survive_compaction() {
        let d = tmpdir("delcompact");
        let db = Db::open(&d, small_opts()).unwrap();
        for i in 0..500u32 {
            db.put(format!("k{i:04}").as_bytes(), &[0u8; 16]).unwrap();
        }
        for i in (0..500u32).step_by(2) {
            db.delete(format!("k{i:04}").as_bytes()).unwrap();
        }
        db.compact().unwrap();
        for i in 0..500u32 {
            let got = db.get(format!("k{i:04}").as_bytes()).unwrap();
            if i % 2 == 0 {
                assert_eq!(got, None, "k{i:04} should be deleted");
            } else {
                assert!(got.is_some(), "k{i:04} should exist");
            }
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn compact_all_collapses_to_bottom_level() {
        let d = tmpdir("compactall");
        let db = Db::open(&d, small_opts()).unwrap();
        for i in 0..800u32 {
            db.put(format!("k{i:05}").as_bytes(), &[1u8; 32]).unwrap();
        }
        for i in (0..800u32).step_by(3) {
            db.delete(format!("k{i:05}").as_bytes()).unwrap();
        }
        db.compact_all().unwrap();
        let stats = db.stats();
        let n = stats.level_tables.len();
        for (level, count) in stats.level_tables.iter().enumerate().take(n - 1) {
            assert_eq!(*count, 0, "level {level} should be empty: {stats:?}");
        }
        assert!(stats.level_tables[n - 1] > 0, "{stats:?}");
        assert!(stats.tombstones_dropped > 0, "{stats:?}");
        for i in 0..800u32 {
            let got = db.get(format!("k{i:05}").as_bytes()).unwrap();
            assert_eq!(got.is_some(), i % 3 != 0, "k{i:05}");
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn compaction_keeps_inputs_when_an_input_is_corrupt() {
        use std::os::unix::fs::FileExt;
        let opts = Options {
            compaction: CompactionMode::Inline,
            l0_compaction_trigger: 100,
            l0_slowdown_trigger: 200,
            l0_stop_trigger: 300,
            ..Options::default()
        };
        // Entries are 9 + 6 + 32 = 47 bytes.
        let key = |p: char, i: u32| format!("{p}{i:05}").into_bytes();
        // The damaged input is the older of two overlapping L0 tables, then
        // the last of three merged L1 tables, which the merge opens only
        // after reading the two before it.
        for damaged_l1 in [false, true] {
            let d = tmpdir(&format!("corruptinput-{damaged_l1}"));
            let db = Db::open(&d, opts.clone()).unwrap();
            let manifest = || std::fs::read_to_string(d.join("MANIFEST")).unwrap();
            let prefixes = if damaged_l1 {
                vec!['a', 'b', 'c']
            } else {
                vec!['k']
            };
            for &p in &prefixes {
                for i in 0..200 {
                    db.put(&key(p, i), &[1u8; 32]).unwrap();
                }
                db.flush().unwrap();
                if damaged_l1 {
                    db.compact_level(0).unwrap();
                }
            }
            let (level, inputs) = if damaged_l1 { ("L1 ", 4) } else { ("L0 ", 2) };
            let damaged = manifest()
                .lines()
                .filter_map(|l| l.strip_prefix(level)?.split_whitespace().next())
                .next_back()
                .unwrap()
                .to_string();
            // One more L0 table over every table so far makes the
            // compaction a real merge of all of them.
            for &p in &prefixes {
                for i in (0..200).step_by(2) {
                    db.put(&key(p, i), &[2u8; 32]).unwrap();
                }
            }
            db.flush().unwrap();
            let tables = db.stats().level_tables;
            assert_eq!(tables[..2], if damaged_l1 { [1, 3] } else { [2, 0] });
            let before = manifest();
            // Flip the kind byte of entry 100, leaving the footer valid.
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(d.join(&damaged))
                .unwrap();
            f.write_all_at(&[0x7F], 100 * 47 + 4).unwrap();

            assert!(db.compact_level(0).is_err());
            assert_eq!(manifest(), before);
            assert_eq!(db.stats().level_tables, tables);
            let ssts = std::fs::read_dir(&d)
                .unwrap()
                .filter(|e| {
                    let name = e.as_ref().unwrap().file_name();
                    let name = name.to_string_lossy();
                    name.ends_with(".sst") || name.ends_with(".tmp")
                })
                .count();
            assert_eq!(ssts, inputs, "partial compaction outputs left behind");
            for &p in &prefixes {
                for i in 0..100 {
                    let want = if i % 2 == 0 { 2 } else { 1 };
                    assert_eq!(db.get(&key(p, i)).unwrap(), Some(vec![want; 32]), "{p}{i}");
                }
            }
            assert!(db.scan(b"", None, 0).is_err());
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn l0_compaction_leaves_untouched_l1_tables_in_place() {
        let d = tmpdir("untouched");
        let opts = Options {
            compaction: CompactionMode::Inline,
            l0_compaction_trigger: 100,
            l0_slowdown_trigger: 200,
            l0_stop_trigger: 300,
            grandparent_limit_bytes: 4096,
            ..Options::default()
        };
        let db = Db::open(&d, opts).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let put = |db: &Db, model: &mut BTreeMap<Vec<u8>, Vec<u8>>, k: String, v: u8| {
            db.put(k.as_bytes(), &[v; 24]).unwrap();
            model.insert(k.into_bytes(), vec![v; 24]);
        };
        // L2: four tables between "b" and "m", over the grandparent limit
        // together, so that the output after the cut is not charged for them.
        for prefix in ["c", "d", "e", "f"] {
            for i in 0..50 {
                put(&db, &mut model, format!("{prefix}{i:03}"), 0);
            }
            db.flush().unwrap();
            db.compact_level(0).unwrap();
            db.compact_level(1).unwrap();
        }
        assert_eq!(db.stats().level_tables[2], 4);
        // L1: one table under "b" and one under "m", each moved down alone.
        for prefix in ["b", "m"] {
            for i in 0..50 {
                put(&db, &mut model, format!("{prefix}{i:03}"), 1);
            }
            db.flush().unwrap();
            db.compact_level(0).unwrap();
        }
        let l1 = |d: &PathBuf| -> Vec<String> {
            std::fs::read_to_string(d.join("MANIFEST"))
                .unwrap()
                .lines()
                .filter_map(|l| l.strip_prefix("L1 "))
                .map(str::to_string)
                .collect()
        };
        let before = l1(&d);
        assert_eq!(before.len(), 2);
        // Two L0 tables whose hull spans the "m" table but neither meets it:
        // one reaches into "b", the other lies above "m".
        for i in 0..20 {
            put(&db, &mut model, format!("a{i:03}"), 2);
        }
        put(&db, &mut model, "b010".into(), 2);
        db.delete(b"b020").unwrap();
        model.remove(&b"b020"[..]);
        db.flush().unwrap();
        for i in 0..20 {
            put(&db, &mut model, format!("z{i:03}"), 3);
        }
        db.flush().unwrap();
        db.compact_level(0).unwrap();

        let after = l1(&d);
        assert!(after.contains(&before[1]), "{before:?} -> {after:?}");
        assert!(!after.contains(&before[0]), "{before:?} -> {after:?}");
        assert_eq!(after.len(), 3, "{after:?}");
        assert_eq!(db.stats().level_tables[0], 0);
        for k in model.keys().chain([&b"b020".to_vec(), &b"n000".to_vec()]) {
            assert_eq!(db.get(k).unwrap(), model.get(k).cloned(), "{k:?}");
        }
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(db.scan(b"", None, 0).unwrap(), expected);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn grandparent_cuts_cover_the_merged_overlaps() {
        let d = tmpdir("gpspan");
        let opts = Options {
            compaction: CompactionMode::Inline,
            l0_compaction_trigger: 100,
            l0_slowdown_trigger: 200,
            l0_stop_trigger: 300,
            ..Options::default()
        };
        let key = |p: &str, i: u32| format!("{p}{i:03}").into_bytes();
        let db = Db::open(&d, opts.clone()).unwrap();
        // L2: the even keys under "c".."f", one table each.
        for p in ["c", "d", "e", "f"] {
            for i in (0..100).step_by(2) {
                db.put(&key(p, i), &[0; 24]).unwrap();
            }
            db.flush().unwrap();
            db.compact_level(0).unwrap();
            db.compact_level(1).unwrap();
        }
        // L1: one table from "b" over the odd keys of "c".."f".
        for p in ["b", "c", "d", "e", "f"] {
            for i in (1..100).step_by(2) {
                db.put(&key(p, i), &[1; 24]).unwrap();
            }
        }
        db.flush().unwrap();
        db.compact_level(0).unwrap();
        assert_eq!(db.stats().level_tables[1..3], [1, 4]);
        drop(db);
        // An input inside "b" merges that table; its outputs must still be
        // cut where they cross the grandparents beyond the input.
        let db = Db::open(
            &d,
            Options {
                grandparent_limit_bytes: 1,
                ..opts
            },
        )
        .unwrap();
        db.put(&key("b", 11), &[2; 24]).unwrap();
        db.flush().unwrap();
        db.compact_level(0).unwrap();
        assert!(db.stats().level_tables[1] > 1, "{:?}", db.stats());
        assert_eq!(db.get(&key("b", 11)).unwrap(), Some(vec![2; 24]));
        assert_eq!(db.scan(b"", None, 0).unwrap().len(), 50 + 4 * 100);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn cut_at_untouched_table_charges_the_grandparent_holding_the_next_key() {
        let d = tmpdir("gpnext");
        let opts = Options {
            compaction: CompactionMode::Inline,
            l0_compaction_trigger: 100,
            l0_slowdown_trigger: 200,
            l0_stop_trigger: 300,
            ..Options::default()
        };
        let key = |p: &str, i: u32| format!("{p}{i:03}").into_bytes();
        let db = Db::open(&d, opts.clone()).unwrap();
        // L2: the even keys under "c" and under "d", one table each.
        for p in ["c", "d"] {
            for i in (0..100).step_by(2) {
                db.put(&key(p, i), &[0; 24]).unwrap();
            }
            db.flush().unwrap();
            db.compact_level(0).unwrap();
            db.compact_level(1).unwrap();
        }
        // L1: one table under "b".
        for i in 0..50 {
            db.put(&key("b", i), &[1; 24]).unwrap();
        }
        db.flush().unwrap();
        db.compact_level(0).unwrap();
        assert_eq!(db.stats().level_tables[1..3], [1, 2]);
        drop(db);
        // Two L0 inputs on either side of the "b" table, the upper one
        // inside the "c" grandparent. The output after the cut at "b" must
        // be charged for that grandparent and cut after its first key.
        let db = Db::open(
            &d,
            Options {
                grandparent_limit_bytes: 1,
                ..opts
            },
        )
        .unwrap();
        for i in 0..10 {
            db.put(&key("a", i), &[2; 24]).unwrap();
        }
        db.flush().unwrap();
        for i in [1, 3, 5] {
            db.put(&key("c", i), &[3; 24]).unwrap();
        }
        db.flush().unwrap();
        db.compact_level(0).unwrap();
        // "a" keys, the untouched "b" table, c001, then c003 and c005.
        assert_eq!(db.stats().level_tables[..3], [0, 4, 2], "{:?}", db.stats());
        assert_eq!(db.get(&key("c", 3)).unwrap(), Some(vec![3; 24]));
        assert_eq!(db.scan(b"", None, 0).unwrap().len(), 10 + 50 + 3 + 100);
        std::fs::remove_dir_all(&d).ok();
    }

    /// A 4-byte key prefix per key, as HEPnOS keys begin with a dataset
    /// UUID.
    fn prefixed(prefix: u32, i: u32) -> Vec<u8> {
        [prefix.to_be_bytes(), i.to_be_bytes()].concat()
    }

    /// Whether some table of `db` holds keys of two 4-byte prefixes.
    fn some_table_spans_two_prefixes(db: &Db) -> bool {
        let st = db.inner.state.read();
        let spans = st
            .levels
            .runs()
            .flatten()
            .any(|t| t.min_key()[..4] != t.max_key()[..4]);
        spans
    }

    #[test]
    fn partitioned_outputs_never_span_two_prefixes() {
        // Writes interleaved over eight prefixes, so every memtable and
        // every compaction's inputs hold several of them.
        for partition_prefix_len in [4, 0] {
            let d = tmpdir(&format!("partitioned-{partition_prefix_len}"));
            let opts = Options {
                partition_prefix_len,
                ..small_opts()
            };
            let db = Db::open(&d, opts).unwrap();
            let mut model = BTreeMap::new();
            let mut x = 7u64;
            let mut spanned = false;
            for i in 0..3000u32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let k = prefixed((x >> 61) as u32 * 1000 + 500, (x >> 20) as u32 % 150);
                if i % 7 == 0 {
                    db.delete(&k).unwrap();
                    model.remove(&k);
                } else {
                    db.put(&k, &i.to_be_bytes()).unwrap();
                    model.insert(k, i.to_be_bytes().to_vec());
                }
                spanned |= some_table_spans_two_prefixes(&db);
            }
            db.compact_all().unwrap();
            spanned |= some_table_spans_two_prefixes(&db);
            let stats = db.stats();
            assert!(stats.flushes > 10 && stats.compactions > 10, "{stats:?}");
            // Unpartitioned, the same load does write tables that span.
            assert_eq!(spanned, partition_prefix_len == 0);
            let expected: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
            assert_eq!(db.scan(b"", None, 0).unwrap(), expected);
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn l0_triggers_count_flushes_not_tables() {
        let d = tmpdir("l0flushes");
        let opts = Options {
            partition_prefix_len: 4,
            l0_compaction_trigger: 100,
            l0_slowdown_trigger: 3,
            l0_stop_trigger: 3,
            ..bg_opts()
        };
        let db = Db::open(&d, opts.clone()).unwrap();
        // One memtable over 20 prefixes flushes into 20 L0 tables, which
        // are still one flush: writers neither stall nor shed.
        for p in 0..20 {
            db.put(&prefixed(p, 0), b"v").unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.stats().level_tables[0], 20);
        db.put(&prefixed(0, 1), b"v").unwrap();
        // The manifest keeps the flush across a reopen.
        drop(db);
        let db = Db::open(&d, opts).unwrap();
        db.put(&prefixed(0, 2), b"v").unwrap();
        db.flush().unwrap();
        db.put(&prefixed(0, 3), b"v").unwrap();
        let stats = db.stats();
        assert_eq!(stats.level_tables[0], 21, "{stats:?}");
        assert_eq!((stats.write_stalls, stats.write_sheds), (0, 0), "{stats:?}");
        // A third flush reaches the stop trigger.
        db.flush().unwrap();
        assert!(matches!(db.put(b"x", b"v"), Err(DbError::Busy { .. })));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn point_reads_probe_one_table_per_l0_flush() {
        let d = tmpdir("l0probes");
        let opts = Options {
            partition_prefix_len: 4,
            compaction: CompactionMode::Inline,
            l0_compaction_trigger: 100,
            l0_slowdown_trigger: 200,
            l0_stop_trigger: 300,
            ..Options::default()
        };
        let db = Db::open(&d, opts).unwrap();
        // Three flushes over 20 prefixes each: 60 L0 tables, and every key
        // lies in the range of one table per flush.
        for round in 0..3u8 {
            for p in 0..20 {
                for i in [0, 2, 4, 6] {
                    db.put(&prefixed(p, i), &[round]).unwrap();
                }
            }
            db.flush().unwrap();
        }
        assert_eq!(db.stats().level_tables[0], 60);
        let before = db.stats();
        // A key of the newest flush: one probe.
        assert_eq!(db.get(&prefixed(7, 4)).unwrap(), Some(vec![2]));
        // An absent key inside prefix 7's tables: one probe per flush.
        assert_eq!(db.get(&prefixed(7, 3)).unwrap(), None);
        // A key outside every table: none.
        assert_eq!(db.get(&prefixed(99, 0)).unwrap(), None);
        let after = db.stats();
        assert_eq!(after.bloom_checks - before.bloom_checks, 1 + 3, "{after:?}");
        // A scan merges one run per flush, the newest value winning.
        let rows = db.scan(&prefixed(3, 0), Some(&prefixed(5, 0)), 0).unwrap();
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|(_, v)| v == &[2]));
        std::fs::remove_dir_all(&d).ok();
    }

    fn sst_files(d: &Path) -> usize {
        std::fs::read_dir(d)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension() == Some("sst".as_ref()))
            .count()
    }

    #[test]
    fn a_scan_outlives_the_compaction_that_replaces_its_tables() {
        let d = tmpdir("scanreplaced");
        let opts = Options {
            partition_prefix_len: 4,
            compaction: CompactionMode::Inline,
            l0_compaction_trigger: 100,
            l0_slowdown_trigger: 200,
            l0_stop_trigger: 300,
            ..Options::default()
        };
        let db = Db::open(&d, opts).unwrap();
        // One flush into more tables than the process keeps open, so the
        // scan below must open most of them again.
        let n = crate::OPEN_TABLE_FILE_LIMIT as u32 + 40;
        for p in 0..n {
            db.put(&prefixed(p, 0), &p.to_be_bytes()).unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.stats().level_tables[0], n as usize);
        let mut seen = 0u32;
        db.scan_while(b"", None, |k, v| {
            if seen == 0 {
                // Replace every table the scan is reading.
                db.compact_all().unwrap();
                assert_eq!(sst_files(&d), 2 * n as usize);
            }
            assert_eq!((k, v), (&prefixed(seen, 0)[..], &seen.to_be_bytes()[..]));
            seen += 1;
            true
        })
        .unwrap();
        assert_eq!(seen, n);
        assert!(crate::open_table_files() <= crate::OPEN_TABLE_FILE_LIMIT);
        // The replaced tables went with the scan.
        assert_eq!(sst_files(&d), n as usize);
        for p in (0..n).step_by(37) {
            assert_eq!(
                db.get(&prefixed(p, 0)).unwrap(),
                Some(p.to_be_bytes().to_vec())
            );
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn new_prefix_between_compacted_prefixes_moves_down_trivially() {
        let (a, b, c) = (0x1000, 0x2000, 0x3000);
        for partition_prefix_len in [4, 0] {
            let d = tmpdir(&format!("trivialprefix-{partition_prefix_len}"));
            let opts = Options {
                partition_prefix_len,
                compaction: CompactionMode::Inline,
                l0_compaction_trigger: 100,
                l0_slowdown_trigger: 200,
                l0_stop_trigger: 300,
                ..Options::default()
            };
            let db = Db::open(&d, opts).unwrap();
            // Two older prefixes, written together and compacted to the
            // bottom level.
            for i in 0..200 {
                db.put(&prefixed(a, i), &[1; 24]).unwrap();
                db.put(&prefixed(c, i), &[1; 24]).unwrap();
            }
            db.compact_all().unwrap();
            let before = db.stats();
            let levels = before.level_tables.len();
            // A new prefix between them, flushed and pushed down level by
            // level.
            for i in 0..200 {
                db.put(&prefixed(b, i), &[2; 24]).unwrap();
            }
            db.flush().unwrap();
            for level in 0..levels - 1 {
                db.compact_level(level).unwrap();
            }
            let after = db.stats();
            assert_eq!(after.level_tables[..levels - 1], vec![0; levels - 1]);
            if partition_prefix_len > 0 {
                assert_eq!(after.compaction_write_bytes, before.compaction_write_bytes);
                assert_eq!(
                    after.trivial_moves,
                    before.trivial_moves + levels as u64 - 1
                );
                assert_eq!(after.level_tables[levels - 1], 3, "{after:?}");
            } else {
                // One table spans both older prefixes: the last step merges.
                assert!(after.compaction_write_bytes > before.compaction_write_bytes);
            }
            assert_eq!(db.scan(b"", None, 0).unwrap().len(), 600);
            assert_eq!(db.get(&prefixed(b, 7)).unwrap(), Some(vec![2; 24]));
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn scan_is_sorted_and_bounded() {
        let d = tmpdir("scan");
        let db = Db::open(&d, small_opts()).unwrap();
        for i in (0..100u32).rev() {
            db.put(format!("k{i:04}").as_bytes(), format!("{i}").as_bytes())
                .unwrap();
        }
        let all = db.scan(b"", None, 0).unwrap();
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        let bounded = db.scan(b"k0010", Some(b"k0020"), 0).unwrap();
        assert_eq!(bounded.len(), 10);
        assert_eq!(bounded[0].0, b"k0010".to_vec());
        let limited = db.scan(b"", None, 7).unwrap();
        assert_eq!(limited.len(), 7);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn scan_sees_through_levels_with_correct_precedence() {
        let d = tmpdir("scanlevels");
        let db = Db::open(&d, small_opts()).unwrap();
        db.put(b"a", b"old").unwrap();
        db.flush().unwrap();
        db.put(b"a", b"mid").unwrap();
        db.flush().unwrap();
        db.put(b"a", b"new").unwrap(); // memtable
        db.put(b"b", b"1").unwrap();
        db.delete(b"b").unwrap();
        let got = db.scan(b"", None, 0).unwrap();
        assert_eq!(got, vec![(b"a".to_vec(), b"new".to_vec())]);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn scan_across_a_levels_tables_matches_oracle() {
        let d = tmpdir("scanrun");
        let opts = Options {
            compaction: CompactionMode::Inline,
            l0_compaction_trigger: 100,
            l0_slowdown_trigger: 200,
            l0_stop_trigger: 300,
            ..Options::default()
        };
        let db = Db::open(&d, opts).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let key = |p: &str, i: u32| format!("{p}{i:03}").into_bytes();
        let mut put = |db: &Db, k: Vec<u8>, v: &[u8]| {
            db.put(&k, v).unwrap();
            model.insert(k, v.to_vec());
        };
        // Four disjoint L1 tables, each moved down alone.
        for p in ["b", "d", "f", "h"] {
            for i in 0..60 {
                put(&db, key(p, i), format!("{p}-{i}").as_bytes());
            }
            db.flush().unwrap();
            db.compact_level(0).unwrap();
        }
        // L0: an overwrite and a tombstone inside the "d" table, and a key
        // between the L1 tables.
        put(&db, key("d", 10), b"l0");
        db.delete(&key("d", 20)).unwrap();
        put(&db, key("e", 0), b"l0");
        db.flush().unwrap();
        // Memtable: overwrites on the L0 overwrite and in the "f" table.
        put(&db, key("d", 10), b"mem");
        put(&db, key("f", 30), b"mem");
        assert_eq!(db.stats().level_tables[..2], [1, 4], "{:?}", db.stats());
        model.remove(&key("d", 20));
        for (lower, upper) in [
            (key("b", 15), Some(key("h", 45))),
            (key("b", 59), Some(key("d", 11))),
            (key("d", 20), Some(key("d", 21))),
            (key("c", 0), Some(key("g", 0))),
            (key("f", 31), None),
            (Vec::new(), None),
        ] {
            let want: Vec<(Vec<u8>, Vec<u8>)> = model
                .range::<[u8], _>((
                    Bound::Included(lower.as_slice()),
                    upper.as_deref().map_or(Bound::Unbounded, Bound::Excluded),
                ))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            let got = db.scan(&lower, upper.as_deref(), 0).unwrap();
            assert_eq!(got, want, "[{lower:?}, {upper:?})");
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn write_batch_is_atomic_and_visible() {
        let d = tmpdir("batch");
        let db = Db::open(&d, Options::default()).unwrap();
        let mut batch = WriteBatch::new();
        batch.put(b"x", b"1").put(b"y", b"2").delete(b"x");
        assert_eq!(batch.len(), 3);
        db.write(&batch).unwrap();
        assert_eq!(db.get(b"x").unwrap(), None);
        assert_eq!(db.get(b"y").unwrap(), Some(b"2".to_vec()));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn reopen_recovers_from_wal() {
        let d = tmpdir("walrecover");
        {
            let db = Db::open(&d, Options::default()).unwrap();
            db.put(b"persist", b"me").unwrap();
            db.delete(b"gone").unwrap();
            // Dropped without flush: data only in WAL.
        }
        let db = Db::open(&d, Options::default()).unwrap();
        assert_eq!(db.get(b"persist").unwrap(), Some(b"me".to_vec()));
        assert_eq!(db.get(b"gone").unwrap(), None);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn reopen_recovers_ssts_and_wal_together() {
        let d = tmpdir("fullrecover");
        {
            let db = Db::open(&d, small_opts()).unwrap();
            for i in 0..300u32 {
                db.put(format!("k{i:05}").as_bytes(), &[7u8; 32]).unwrap();
            }
            db.put(b"late", b"write").unwrap();
        }
        let db = Db::open(&d, small_opts()).unwrap();
        for i in 0..300u32 {
            assert!(db.get(format!("k{i:05}").as_bytes()).unwrap().is_some());
        }
        assert_eq!(db.get(b"late").unwrap(), Some(b"write".to_vec()));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn frozen_memtables_survive_crash_via_numbered_wals() {
        let d = tmpdir("immwal");
        {
            // Large trigger thresholds + paused worker: freeze happens but
            // nothing flushes, so data lives only in numbered WALs.
            let opts = Options {
                memtable_bytes: 256,
                max_stall: Duration::from_millis(1),
                ..bg_opts()
            };
            let db = Db::open(&d, opts).unwrap();
            db.pause_compaction(true);
            let _work = db.inner.work.lock(); // block the flush executor
            for i in 0..40u32 {
                db.put(format!("k{i:04}").as_bytes(), &[5u8; 64]).unwrap();
            }
            let stats = db.stats();
            assert!(stats.imm_memtables > 0, "{stats:?}");
            // Simulate a crash: leak the Db so no clean shutdown runs.
            drop(_work);
            std::mem::forget(db);
        }
        let db = Db::open(&d, small_opts()).unwrap();
        for i in 0..40u32 {
            assert!(
                db.get(format!("k{i:04}").as_bytes()).unwrap().is_some(),
                "k{i:04} lost"
            );
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn overwrite_across_reopen() {
        let d = tmpdir("overwrite");
        {
            let db = Db::open(&d, small_opts()).unwrap();
            db.put(b"k", b"v1").unwrap();
            db.flush().unwrap();
            db.put(b"k", b"v2").unwrap();
        }
        let db = Db::open(&d, small_opts()).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn count_range() {
        let d = tmpdir("count");
        let db = Db::open(&d, Options::default()).unwrap();
        for i in 0..50u32 {
            db.put(format!("p{i:03}").as_bytes(), b"x").unwrap();
        }
        assert_eq!(db.count_range(b"p", None).unwrap(), 50);
        assert_eq!(db.count_range(b"p010", Some(b"p020")).unwrap(), 10);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn concurrent_readers_during_background_writes() {
        let d = tmpdir("concurrent");
        let db = Arc::new(Db::open(&d, bg_opts()).unwrap());
        let writer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..1000u32 {
                    loop {
                        match db.put(format!("k{i:06}").as_bytes(), &[1u8; 64]) {
                            Ok(()) => break,
                            Err(DbError::Busy { retry_after }) => std::thread::sleep(retry_after),
                            Err(e) => panic!("{e}"),
                        }
                    }
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..1000u32 {
                        // Reads may or may not find the key; they must not
                        // error or return torn data.
                        if let Some(v) = db.get(format!("k{i:06}").as_bytes()).unwrap() {
                            assert_eq!(v, vec![1u8; 64]);
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        db.wait_idle().unwrap();
        for i in 0..1000u32 {
            assert!(db.get(format!("k{i:06}").as_bytes()).unwrap().is_some());
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn background_flush_error_surfaces_in_wait_idle() {
        let d = tmpdir("bgerr");
        let db = Db::open(&d, bg_opts()).unwrap();
        db.set_failpoint(Failpoint::FlushBeforeInstall);
        // Write until a memtable freezes: the flush it requests fails, so
        // the frozen memtable stays queued.
        let mut acked = Vec::new();
        while db.stats().imm_memtables == 0 {
            assert!(acked.len() < 10_000, "no memtable froze");
            let k = format!("k{:06}", acked.len());
            db.put(k.as_bytes(), &[5u8; 48]).unwrap();
            acked.push(k);
        }
        // Once the worker has taken the failpoint, it holds the executor
        // until its error is recorded, so the error is the worker's.
        let deadline = Instant::now() + Duration::from_secs(10);
        while db.inner.failpoint.lock().is_some() {
            assert!(Instant::now() < deadline, "the worker never flushed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(db.stats().flushes, 0);
        let err = db.wait_idle().unwrap_err();
        assert!(err.to_string().contains("injected failpoint"), "{err}");
        for _ in 0..500 {
            let k = format!("k{:06}", acked.len());
            db.put(k.as_bytes(), &[5u8; 48]).unwrap();
            acked.push(k);
        }
        db.wait_idle().unwrap();
        let stats = db.stats();
        assert!(stats.flushes > 0, "{stats:?}");
        assert_eq!(stats.imm_memtables, 0, "{stats:?}");
        for k in &acked {
            assert_eq!(db.get(k.as_bytes()).unwrap(), Some(vec![5u8; 48]), "{k}");
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn empty_db_operations() {
        let d = tmpdir("empty");
        let db = Db::open(&d, Options::default()).unwrap();
        assert_eq!(db.get(b"nothing").unwrap(), None);
        assert!(db.scan(b"", None, 0).unwrap().is_empty());
        db.flush().unwrap();
        db.compact().unwrap();
        db.compact_all().unwrap();
        db.wait_idle().unwrap();
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn bloom_counters_move_on_point_reads() {
        let d = tmpdir("bloomctr");
        let db = Db::open(&d, small_opts()).unwrap();
        for i in 0..600u32 {
            db.put(format!("k{i:05}").as_bytes(), &[2u8; 32]).unwrap();
        }
        db.flush().unwrap();
        // Absent keys inside the tables' key range: a key outside every
        // table's range is turned away before any bloom probe.
        for i in 0..50u32 {
            assert_eq!(db.get(format!("k{i:05}x").as_bytes()).unwrap(), None);
        }
        let stats = db.stats();
        assert!(stats.bloom_checks > 0, "{stats:?}");
        assert!(stats.bloom_negatives > 0, "{stats:?}");
        std::fs::remove_dir_all(&d).ok();
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lsmdb-cache-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn cached_opts() -> Options {
        Options {
            memtable_bytes: 512,
            read_cache_bytes: 1 << 20,
            compaction: CompactionMode::Inline,
            ..Options::default()
        }
    }

    #[test]
    fn repeated_sst_reads_hit_the_cache() {
        let d = tmpdir("hits");
        let db = Db::open(&d, cached_opts()).unwrap();
        for i in 0..200u64 {
            db.put(&i.to_be_bytes(), &[7u8; 64]).unwrap();
        }
        db.flush().unwrap(); // everything on "disk"
        assert_eq!(db.get(&42u64.to_be_bytes()).unwrap(), Some(vec![7u8; 64]));
        let before = db.read_cache_stats();
        assert_eq!(db.get(&42u64.to_be_bytes()).unwrap(), Some(vec![7u8; 64]));
        let after = db.read_cache_stats();
        assert_eq!(after.hits, before.hits + 1, "second read should hit");
        assert_eq!(after.misses, before.misses);
        drop(db);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn writes_invalidate_cached_values() {
        let d = tmpdir("invalidate");
        let db = Db::open(&d, cached_opts()).unwrap();
        db.put(b"k", b"v1").unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v1".to_vec())); // fills cache
        db.put(b"k", b"v2").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
        db.flush().unwrap();
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
        drop(db);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn batch_writes_invalidate_too() {
        let d = tmpdir("batch");
        let db = Db::open(&d, cached_opts()).unwrap();
        db.put(b"a", b"old").unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"old".to_vec()));
        let mut wb = WriteBatch::new();
        wb.put(b"a", b"new").delete(b"b");
        db.write(&wb).unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"new".to_vec()));
        drop(db);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn disabled_cache_reports_zeros() {
        let d = tmpdir("disabled");
        let db = Db::open(&d, Options::default()).unwrap();
        db.put(b"x", b"y").unwrap();
        db.flush().unwrap();
        db.get(b"x").unwrap();
        db.get(b"x").unwrap();
        let stats = db.read_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        drop(db);
        std::fs::remove_dir_all(&d).ok();
    }
}
