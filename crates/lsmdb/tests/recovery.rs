//! Crash-recovery tests: kill the engine at the nastiest points of the
//! flush/compaction protocol (via failpoints), reopen, and require
//! byte-identical scans plus a debris-free directory.
//!
//! The durability protocol under test: SSTs are written to `<id>.sst.tmp`,
//! fsynced, renamed into place; the `MANIFEST` is swapped by atomic rename;
//! WAL files are only deleted once the manifest covers their data. So a
//! crash at *any* point leaves either (a) temp files, (b) renamed-but-
//! unreferenced tables, or (c) stale WALs — all of which `open` must sweep
//! up without losing a byte.

use lsmdb::{CompactionMode, Db, DbError, Failpoint, Options};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "lsmdb-recovery-{}-{name}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn opts() -> Options {
    Options {
        memtable_bytes: 512,
        l0_compaction_trigger: 2,
        max_levels: 4,
        level_base_bytes: 2048,
        level_multiplier: 4,
        table_target_bytes: 2048,
        grandparent_limit_bytes: 8192,
        compaction: CompactionMode::Inline, // failpoints fire deterministically
        ..Options::default()
    }
}

/// Every live `(key, value)` pair via a full scan.
fn full_scan(db: &Db) -> BTreeMap<Vec<u8>, Vec<u8>> {
    db.scan(b"", None, 0).unwrap().into_iter().collect()
}

/// Directory invariants after recovery: no temp files, and every `.sst`
/// on disk is referenced by the manifest.
fn assert_no_debris(dir: &Path) {
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap_or_default();
    let referenced: Vec<&str> = manifest
        .lines()
        .filter_map(|l| l.split_whitespace().nth(1))
        .collect();
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            !name.ends_with(".tmp"),
            "temp file left after recovery: {name}"
        );
        if name.ends_with(".sst") {
            assert!(
                referenced.contains(&name.as_str()),
                "orphaned table left after recovery: {name}"
            );
        }
    }
}

/// Load enough data to build several levels, with deletes mixed in.
fn seed_db(db: &Db, n: u32) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut model = BTreeMap::new();
    for i in 0..n {
        let k = format!("key{:05}", i % (n / 2)).into_bytes();
        let v = format!("value-{i}-{}", "x".repeat((i % 13) as usize)).into_bytes();
        db.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    for i in (0..n).step_by(5) {
        let k = format!("key{:05}", i % (n / 2)).into_bytes();
        db.delete(&k).unwrap();
        model.remove(&k);
    }
    model
}

#[test]
fn crash_before_compaction_install_leaves_no_orphans() {
    let d = fresh_dir("preinstall");
    let model;
    {
        let db = Db::open(&d, opts()).unwrap();
        db.pause_compaction(true); // let L0 pile up so the merge is real
        model = seed_db(&db, 600);
        db.flush().unwrap();
        // Arm: the next compaction writes all outputs, then "crashes"
        // before the manifest swap — outputs become orphaned .sst files.
        db.set_failpoint(Failpoint::CompactionBeforeInstall);
        let err = db.compact_level(0).unwrap_err();
        assert!(matches!(err, DbError::Io(_)), "unexpected error: {err}");
        std::mem::forget(db); // crash: no clean shutdown
    }
    // Orphans exist before recovery (outputs were renamed into place).
    let orphan_count = {
        let manifest = std::fs::read_to_string(d.join("MANIFEST")).unwrap();
        std::fs::read_dir(&d)
            .unwrap()
            .filter(|e| {
                let n = e
                    .as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .into_owned();
                n.ends_with(".sst") && !manifest.contains(&n)
            })
            .count()
    };
    assert!(orphan_count > 0, "failpoint should leave orphaned tables");
    let db = Db::open(&d, opts()).unwrap();
    assert_eq!(full_scan(&db), model, "scan differs after recovery");
    assert_no_debris(&d);
    // The engine keeps working: the interrupted compaction can rerun.
    db.compact().unwrap();
    assert_eq!(full_scan(&db), model);
    drop(db);
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn crash_mid_compaction_output_leaves_no_temp_files() {
    let d = fresh_dir("midoutput");
    let model;
    {
        let db = Db::open(&d, opts()).unwrap();
        db.pause_compaction(true); // let L0 pile up so the merge is real
        model = seed_db(&db, 900);
        db.flush().unwrap();
        db.set_failpoint(Failpoint::CompactionMidOutput);
        // The failpoint only fires if the compaction cuts more than one
        // output; with 900 keys over a 2 KiB table target it always does.
        let err = db.compact_level(0).unwrap_err();
        assert!(matches!(err, DbError::Io(_)), "unexpected error: {err}");
        std::mem::forget(db);
    }
    assert!(
        std::fs::read_dir(&d).unwrap().any(|e| e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")),
        "failpoint should leave a dangling .sst.tmp"
    );
    let db = Db::open(&d, opts()).unwrap();
    assert_eq!(full_scan(&db), model, "scan differs after recovery");
    assert_no_debris(&d);
    drop(db);
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn crash_before_flush_install_replays_the_wal() {
    let d = fresh_dir("flushcrash");
    let model;
    {
        let db = Db::open(&d, opts()).unwrap();
        model = seed_db(&db, 200);
        db.set_failpoint(Failpoint::FlushBeforeInstall);
        let err = db.flush().unwrap_err();
        assert!(matches!(err, DbError::Io(_)), "unexpected error: {err}");
        std::mem::forget(db);
    }
    // The failed flush deleted its table; its WAL survives, so recovery
    // must rebuild the same state from the log.
    let db = Db::open(&d, opts()).unwrap();
    assert_eq!(full_scan(&db), model, "scan differs after recovery");
    assert_no_debris(&d);
    drop(db);
    std::fs::remove_dir_all(&d).ok();
}

/// The `.sst` files in `dir`, sorted.
fn tables(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".sst"))
        .collect();
    names.sort();
    names
}

#[test]
fn failed_flush_deletes_its_tables() {
    let d = fresh_dir("flushfail");
    let partitioned = Options {
        memtable_bytes: 1 << 20,
        partition_prefix_len: 4,
        ..opts()
    };
    let key = |prefix: &[u8; 4], i: u32| [&prefix[..], &i.to_be_bytes()].concat();
    let mut model = BTreeMap::new();
    let installed;
    {
        let db = Db::open(&d, partitioned.clone()).unwrap();
        for (round, prefixes) in [[b"dsA0", b"dsB0"].as_slice(), &[b"dsA0", b"dsB0", b"dsC0"]]
            .into_iter()
            .enumerate()
        {
            for i in 0..40 {
                for p in prefixes {
                    let v = format!("{round}-{i}").into_bytes();
                    db.put(&key(p, i), &v).unwrap();
                    model.insert(key(p, i), v);
                }
            }
            if round == 0 {
                db.flush().unwrap();
            }
        }
        installed = tables(&d);
        assert_eq!(installed.len(), 2, "one table per prefix: {installed:?}");
        // The memtable spans three prefixes: the flush writes three tables
        // before it fails, and must delete all of them.
        db.set_failpoint(Failpoint::FlushBeforeInstall);
        let err = db.flush().unwrap_err();
        assert!(matches!(err, DbError::Io(_)), "unexpected error: {err}");
        assert_eq!(tables(&d), installed, "the failed flush left tables");
        assert_no_debris(&d);
        std::mem::forget(db);
    }
    let db = Db::open(&d, partitioned).unwrap();
    assert_eq!(full_scan(&db), model, "scan differs after recovery");
    assert_eq!(tables(&d), installed);
    assert_no_debris(&d);
    // The WAL still covers the memtable: it flushes into three tables.
    db.flush().unwrap();
    assert_eq!(tables(&d).len(), 5);
    assert_eq!(full_scan(&db), model);
    drop(db);
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn a_manifest_without_next_keeps_every_table() {
    let d = fresh_dir("tornmanifest");
    let model;
    {
        let db = Db::open(&d, opts()).unwrap();
        model = seed_db(&db, 600);
        db.compact().unwrap();
    }
    let before = tables(&d);
    assert!(before.len() > 1, "{before:?}");
    let manifest = std::fs::read(d.join("MANIFEST")).unwrap();
    // A torn manifest: open must refuse it rather than sweep every table
    // as unreferenced.
    std::fs::write(d.join("MANIFEST"), b"").unwrap();
    match Db::open(&d, opts()) {
        Err(DbError::Manifest(_)) => {}
        Err(e) => panic!("unexpected error: {e}"),
        Ok(_) => panic!("opened with an empty manifest"),
    }
    assert_eq!(tables(&d), before, "tables deleted");
    // With the manifest back, nothing was lost.
    std::fs::write(d.join("MANIFEST"), manifest).unwrap();
    let db = Db::open(&d, opts()).unwrap();
    assert_eq!(full_scan(&db), model);
    drop(db);
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn repeated_crashes_converge() {
    let d = fresh_dir("repeat");
    let mut model = BTreeMap::new();
    for round in 0..4u32 {
        let db = Db::open(&d, opts()).unwrap();
        assert_eq!(full_scan(&db), model, "round {round}: state lost");
        db.pause_compaction(true);
        for i in 0..150u32 {
            let k = format!("r{round}k{i:04}").into_bytes();
            let v = format!("val{round}-{i}").into_bytes();
            db.put(&k, &v).unwrap();
            model.insert(k, v);
        }
        db.flush().unwrap();
        db.set_failpoint(Failpoint::CompactionBeforeInstall);
        let _ = db.compact_level(0); // crashes mid-merge unless L0 is trivial
        std::mem::forget(db);
    }
    let db = Db::open(&d, opts()).unwrap();
    assert_eq!(full_scan(&db), model);
    assert_no_debris(&d);
    drop(db);
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn torn_wal_tail_loses_only_the_torn_suffix() {
    let d = fresh_dir("tornwal");
    {
        let db = Db::open(&d, opts()).unwrap();
        db.put(b"intact", b"yes").unwrap();
        db.put(b"torn", b"missing-half").unwrap();
        std::mem::forget(db);
    }
    // Chop bytes off the newest WAL to simulate a torn final write.
    let wal = std::fs::read_dir(&d)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .max()
        .expect("a wal file exists");
    let data = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &data[..data.len() - 4]).unwrap();
    let db = Db::open(&d, opts()).unwrap();
    assert_eq!(db.get(b"intact").unwrap(), Some(b"yes".to_vec()));
    assert_eq!(
        db.get(b"torn").unwrap(),
        None,
        "torn record must not surface"
    );
    drop(db);
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn background_mode_recovers_after_ungraceful_drop() {
    let d = fresh_dir("bgcrash");
    let model;
    {
        let db = Db::open(
            &d,
            Options {
                compaction: CompactionMode::Background,
                // Never shed: the point is crash recovery, not overload.
                l0_stop_trigger: 10_000,
                l0_slowdown_trigger: 10_000,
                ..opts()
            },
        )
        .unwrap();
        model = seed_db(&db, 500);
        // Quiesce the worker (mem::forget leaks it, and a live worker
        // writing into the dir after reopen would be cross-instance
        // interference no real crash exhibits), then skip the clean
        // shutdown: no final WAL sync, no final memtable flush — the tail
        // of the data exists only in un-fsynced WALs.
        db.wait_idle().unwrap();
        std::mem::forget(db);
    }
    let db = Db::open(&d, opts()).unwrap();
    assert_eq!(full_scan(&db), model, "scan differs after recovery");
    assert_no_debris(&d);
    drop(db);
    std::fs::remove_dir_all(&d).ok();
}
