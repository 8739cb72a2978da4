//! The open table files of the process, bounded like RocksDB's table cache.
//!
//! A reader keeps its table's index and bloom filter in memory but not its
//! file: it borrows a handle from this set on each read, and the set opens
//! the file again after evicting it. Every database in the process shares
//! the one set, so the number of open table files stays at most
//! [`OPEN_TABLE_FILE_LIMIT`] however many databases and tables there are
//! (cursors in flight hold theirs a little longer). With key-partitioned
//! tables the table count grows with the number of datasets, and one
//! descriptor per table would pass the common 1,024 soft limit.
//!
//! The set is sharded by table like [`crate::cache`]: each shard is an LRU
//! of its share of the limit behind its own mutex. Handles are opened
//! outside the lock.
//!
//! A table's file is deleted only when its reader and every cursor over it
//! are gone (`SstReader::delete_when_unused`), so a scan that began
//! before a compaction replaced the table can still reopen it.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

/// Most table files the process keeps open between reads.
pub const OPEN_TABLE_FILE_LIMIT: usize = 512;

const SHARDS: usize = 8;

/// Table files currently open between reads, across every database of the
/// process; at most [`OPEN_TABLE_FILE_LIMIT`].
pub fn open_table_files() -> usize {
    FILES.shards.iter().map(|s| s.lock().open.len()).sum()
}

#[derive(Default)]
struct Shard {
    /// Open handles by table id, each with the tick of its last use.
    open: HashMap<u64, (Arc<File>, u64)>,
    tick: u64,
}

struct Files {
    shards: [Mutex<Shard>; SHARDS],
}

static FILES: LazyLock<Files> = LazyLock::new(|| Files {
    shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
});

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

impl Files {
    fn shard(&self, id: u64) -> &Mutex<Shard> {
        &self.shards[id as usize % SHARDS]
    }

    fn get(&self, id: u64) -> Option<Arc<File>> {
        let mut s = self.shard(id).lock();
        s.tick += 1;
        let tick = s.tick;
        s.open.get_mut(&id).map(|(f, used)| {
            *used = tick;
            Arc::clone(f)
        })
    }

    /// Keep `file` open as table `id`'s handle, evicting the shard's least
    /// recently used handle when the shard is full. A handle another
    /// thread put in first wins.
    fn insert(&self, id: u64, file: Arc<File>) -> Arc<File> {
        let mut s = self.shard(id).lock();
        s.tick += 1;
        let tick = s.tick;
        if let Some((f, used)) = s.open.get_mut(&id) {
            *used = tick;
            return Arc::clone(f);
        }
        if s.open.len() >= OPEN_TABLE_FILE_LIMIT / SHARDS {
            let oldest = s
                .open
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k);
            if let Some(k) = oldest {
                s.open.remove(&k);
            }
        }
        s.open.insert(id, (Arc::clone(&file), tick));
        file
    }

    fn forget(&self, id: u64) {
        self.shard(id).lock().open.remove(&id);
    }
}

/// One table's file: its path and its slot in the process's open files.
pub(crate) struct TableFile {
    id: u64,
    path: PathBuf,
    obsolete: AtomicBool,
}

impl TableFile {
    /// Register `file`, just opened at `path`, as an open table file.
    pub(crate) fn new(path: &Path, file: File) -> TableFile {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        FILES.insert(id, Arc::new(file));
        TableFile {
            id,
            path: path.to_path_buf(),
            obsolete: AtomicBool::new(false),
        }
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// A handle on the file, opening it again if it was evicted.
    pub(crate) fn handle(&self) -> std::io::Result<Arc<File>> {
        if let Some(f) = FILES.get(self.id) {
            return Ok(f);
        }
        let f = File::open(&self.path)?;
        Ok(FILES.insert(self.id, Arc::new(f)))
    }

    /// Delete the file once the table's reader and cursors are all gone.
    pub(crate) fn delete_when_unused(&self) {
        self.obsolete.store(true, Ordering::Relaxed);
    }
}

impl Drop for TableFile {
    fn drop(&mut self) {
        FILES.forget(self.id);
        if self.obsolete.load(Ordering::Relaxed) {
            std::fs::remove_file(&self.path).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicted_files_reopen_and_the_open_count_stays_bounded() {
        let d = std::env::temp_dir().join(format!("lsmdb-files-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        let n = OPEN_TABLE_FILE_LIMIT + SHARDS * 3;
        let tables: Vec<TableFile> = (0..n)
            .map(|i| {
                let p = d.join(format!("{i}.sst"));
                std::fs::write(&p, i.to_string()).unwrap();
                TableFile::new(&p, File::open(&p).unwrap())
            })
            .collect();
        assert!(open_table_files() <= OPEN_TABLE_FILE_LIMIT);
        for (i, t) in tables.iter().enumerate() {
            let mut s = String::new();
            std::io::Read::read_to_string(&mut &*t.handle().unwrap(), &mut s).unwrap();
            assert_eq!(s, i.to_string());
        }
        assert!(open_table_files() <= OPEN_TABLE_FILE_LIMIT);
        tables[0].delete_when_unused();
        drop(tables);
        assert!(!d.join("0.sst").exists());
        assert!(d.join("1.sst").exists());
        std::fs::remove_dir_all(&d).ok();
    }
}
