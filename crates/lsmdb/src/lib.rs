//! `lsmdb` — a log-structured merge-tree storage engine.
//!
//! This crate is the reproduction's substitute for **RocksDB**, which the
//! paper uses (through Yokan) as HEPnOS's persistent backend writing to
//! node-local SSDs (§IV-D). The evaluation's in-memory-vs-RocksDB gap at
//! high node counts (Fig. 2) comes from the LSM cost structure — WAL
//! appends, memtable flushes, SST read paths and compaction — so the
//! substitute implements a faithful LSM rather than wrapping a hash map in
//! a file:
//!
//! * [`wal`] — a checksummed write-ahead log replayed on open;
//! * a sorted in-memory *memtable* with tombstones;
//! * [`sstable`] — immutable sorted-string tables with a sparse index and a
//!   [`bloom`] filter per table, read through a process-wide set of at
//!   most [`OPEN_TABLE_FILE_LIMIT`] open table files;
//! * [`levels`](crate) — N sorted runs with exponential size targets,
//!   compaction-score prioritization, trivial moves, and outputs cut by
//!   size, by grandparent overlap and, optionally, wherever a fixed-length
//!   key prefix changes; tombstones drop only at the bottom of the tree;
//! * background flush/compaction on one dedicated worker thread (flushes
//!   ahead of compactions), with L0-buildup write stalls surfacing as
//!   [`DbError::Busy`] so overload degrades gracefully;
//! * a `MANIFEST` recording the set of live tables (atomic-rename updates),
//!   replayed on open alongside the numbered WALs.
//!
//! The public entry point is [`Db`].
//!
//! # Example
//!
//! ```
//! let dir = std::env::temp_dir().join(format!("lsmdb-doc-{}", std::process::id()));
//! let db = lsmdb::Db::open(&dir, lsmdb::Options::default()).unwrap();
//! db.put(b"run/0001", b"payload").unwrap();
//! assert_eq!(db.get(b"run/0001").unwrap().as_deref(), Some(&b"payload"[..]));
//! db.delete(b"run/0001").unwrap();
//! assert_eq!(db.get(b"run/0001").unwrap(), None);
//! # drop(db); std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

pub mod bloom;
pub mod cache;
mod crc32;
mod db;
mod levels;
mod memtable;
pub mod sstable;
mod table_files;
pub mod wal;

pub use cache::{CacheStats, ShardedReadCache};
pub use db::{CompactionMode, Db, DbError, DbStats, Failpoint, Options, WalSync, WriteBatch};
pub use memtable::Value;
pub use table_files::{open_table_files, OPEN_TABLE_FILE_LIMIT};
