//! N-level structural property tests.
//!
//! `model.rs` checks that the engine *behaves* like a `BTreeMap`; this suite
//! checks that the *leveling machinery itself* preserves that equivalence
//! while it is stressed directly: targeted per-level compactions, the
//! `compact_all` escape hatch, background workers racing foreground writes,
//! and tombstone lifetimes (a delete must shadow older versions on every
//! deeper level until it reaches the bottom of the tree, and must never
//! resurrect a key once dropped). Each property runs without key
//! partitions and with them, against the same oracle; partitioned, every
//! table on disk must also hold keys of one partition only.

use lsmdb::sstable::SstReader;
use lsmdb::{CompactionMode, Db, Options};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Flush,
    CompactLevel(usize),
    CompactAll,
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Narrow key space: heavy overwrite + delete churn across levels.
    (0u32..48).prop_map(|i| format!("k{i:03}").into_bytes())
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (key_strategy(), proptest::collection::vec(any::<u8>(), 1..96))
            .prop_map(|(k, v)| Op::Put(k, v)),
        3 => key_strategy().prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => (0usize..5).prop_map(Op::CompactLevel),
        1 => Just(Op::CompactAll),
    ]
}

/// Partition prefix lengths the `k000`..`k047` keys run under: none, and
/// their first three bytes (five partitions).
const KEY_PARTITIONS: [usize; 2] = [0, 3];

/// Deeper and narrower than model.rs: 6 levels, small multiplier, so data
/// actually reaches L3+ within a test case.
fn deep_opts(mode: CompactionMode, partition_prefix_len: usize) -> Options {
    Options {
        partition_prefix_len,
        memtable_bytes: 192,
        l0_compaction_trigger: 2,
        l0_slowdown_trigger: 6,
        l0_stop_trigger: 10_000, // never shed in the property test
        max_levels: 6,
        level_base_bytes: 512,
        level_multiplier: 2,
        table_target_bytes: 512,
        grandparent_limit_bytes: 2048,
        bloom_bits_per_key: 8,
        compaction: mode,
        max_stall: std::time::Duration::from_millis(1),
        ..Options::default()
    }
}

fn fresh_dir(tag: &str, case: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "lsmdb-levels-{tag}-{}-{case}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Every table in `dir` holds keys of a single `len`-byte partition.
fn check_partitions(dir: &Path, len: usize) -> Result<(), TestCaseError> {
    if len == 0 {
        return Ok(());
    }
    let partition = |k: &[u8]| k[..len.min(k.len())].to_vec();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "sst") {
            let t = SstReader::open(&path).unwrap();
            prop_assert_eq!(
                (&path, partition(t.min_key())),
                (&path, partition(t.max_key()))
            );
        }
    }
    Ok(())
}

/// Apply `ops` to `db` and return the oracle's state after them.
fn apply(db: &Db, ops: &[Op]) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut model = BTreeMap::new();
    for op in ops {
        match op {
            Op::Put(k, v) => {
                db.put(k, v).unwrap();
                model.insert(k.clone(), v.clone());
            }
            Op::Delete(k) => {
                db.delete(k).unwrap();
                model.remove(k);
            }
            Op::Flush => db.flush().unwrap(),
            Op::CompactLevel(l) => db.compact_level(*l).unwrap(),
            Op::CompactAll => db.compact_all().unwrap(),
        }
    }
    model
}

fn check_against_model(db: &Db, model: &BTreeMap<Vec<u8>, Vec<u8>>) -> Result<(), TestCaseError> {
    for i in 0u32..48 {
        let k = format!("k{i:03}").into_bytes();
        prop_assert_eq!(db.get(&k).unwrap(), model.get(&k).cloned());
    }
    let scanned = db.scan(b"", None, 0).unwrap();
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    prop_assert_eq!(scanned, expected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Inline mode: deterministic interleaving of writes with targeted
    /// per-level compactions and the escape hatch.
    #[test]
    fn n_level_precedence_matches_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..150),
        seed in any::<u64>(),
    ) {
        for prefix_len in KEY_PARTITIONS {
            let dir = fresh_dir(&format!("inline{prefix_len}"), seed);
            let db = Db::open(&dir, deep_opts(CompactionMode::Inline, prefix_len)).unwrap();
            let model = apply(&db, &ops);
            check_against_model(&db, &model)?;

            // After compact_all every key lives at the bottom and all
            // shadowed versions/tombstones are gone: another full pass must
            // be a no-op for visible state.
            db.compact_all().unwrap();
            check_against_model(&db, &model)?;
            let stats = db.stats();
            for (lvl, n) in stats.level_tables.iter().enumerate() {
                if lvl + 1 < stats.level_tables.len() {
                    prop_assert_eq!((lvl, *n), (lvl, 0));
                }
            }
            check_partitions(&dir, prefix_len)?;
            drop(db);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Background mode: the worker flushes/compacts concurrently with the
    /// write stream; after `wait_idle` the result must still match the
    /// oracle, and tombstones must have been dropped only via bottom-level
    /// compactions (never resurrecting a deleted key).
    #[test]
    fn background_compaction_matches_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..150),
        seed in any::<u64>(),
    ) {
        for prefix_len in KEY_PARTITIONS {
            let dir = fresh_dir(&format!("bg{prefix_len}"), seed);
            let db = Db::open(&dir, deep_opts(CompactionMode::Background, prefix_len)).unwrap();
            let model = apply(&db, &ops);
            db.wait_idle().unwrap();
            check_against_model(&db, &model)?;
            check_partitions(&dir, prefix_len)?;

            // Reopen: durability of the background-maintained tree.
            drop(db);
            let db = Db::open(&dir, deep_opts(CompactionMode::Inline, prefix_len)).unwrap();
            check_against_model(&db, &model)?;
            drop(db);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Dataset-like write bursts: each lands under one of a few random 4-byte
/// prefixes (as HEPnOS keys start with a dataset UUID), so L0 tables from
/// consecutive bursts straddle L1 tables that no input touches.
#[derive(Debug, Clone)]
enum Burst {
    Write {
        ds: usize,
        start: u32,
        len: u32,
        tag: u8,
    },
    Erase {
        ds: usize,
        start: u32,
        len: u32,
    },
    Flush,
    CompactLevel(usize),
}

fn burst_strategy() -> impl Strategy<Value = Burst> {
    prop_oneof![
        8 => (0usize..6, 0u32..64, 1u32..24, any::<u8>())
            .prop_map(|(ds, start, len, tag)| Burst::Write { ds, start, len, tag }),
        2 => (0usize..6, 0u32..64, 1u32..8)
            .prop_map(|(ds, start, len)| Burst::Erase { ds, start, len }),
        1 => Just(Burst::Flush),
        1 => (0usize..3).prop_map(Burst::CompactLevel),
    ]
}

/// A wider L1 than `deep_opts`, so tables of older bursts stay there while
/// later L0 compactions straddle them.
fn dataset_opts(partition_prefix_len: usize) -> Options {
    Options {
        level_base_bytes: 4096,
        ..deep_opts(CompactionMode::Inline, partition_prefix_len)
    }
}

fn dataset_key(prefix: &[u8; 4], i: u32) -> Vec<u8> {
    let mut k = prefix.to_vec();
    k.extend_from_slice(&i.to_be_bytes());
    k
}

fn check_datasets(
    db: &Db,
    prefixes: &[[u8; 4]],
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
) -> Result<(), TestCaseError> {
    for p in prefixes {
        for i in 0u32..88 {
            let k = dataset_key(p, i);
            prop_assert_eq!(db.get(&k).unwrap(), model.get(&k).cloned());
        }
    }
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    prop_assert_eq!(db.scan(b"", None, 0).unwrap(), expected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// L0→L1 compactions whose inputs straddle untouched L1 tables keep
    /// every level disjoint (checked by the level guard in debug builds)
    /// and the visible state equal to the oracle, also across a reopen.
    #[test]
    fn dataset_bursts_match_oracle(
        prefixes in proptest::collection::vec(any::<[u8; 4]>(), 6),
        bursts in proptest::collection::vec(burst_strategy(), 1..80),
        seed in any::<u64>(),
    ) {
        // Unpartitioned, and cut at the 4-byte dataset prefix.
        for prefix_len in [0, 4] {
            let dir = fresh_dir(&format!("bursts{prefix_len}"), seed);
            let db = Db::open(&dir, dataset_opts(prefix_len)).unwrap();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for b in &bursts {
                match *b {
                    Burst::Write { ds, start, len, tag } => {
                        for i in start..start + len {
                            let k = dataset_key(&prefixes[ds], i);
                            let v = vec![tag; 8 + (i % 16) as usize];
                            db.put(&k, &v).unwrap();
                            model.insert(k, v);
                        }
                    }
                    Burst::Erase { ds, start, len } => {
                        for i in start..start + len {
                            let k = dataset_key(&prefixes[ds], i);
                            db.delete(&k).unwrap();
                            model.remove(&k);
                        }
                    }
                    Burst::Flush => db.flush().unwrap(),
                    Burst::CompactLevel(l) => db.compact_level(l).unwrap(),
                }
                // Every burst: a misplaced table may be compacted away again
                // before the end of the case.
                check_datasets(&db, &prefixes, &model)?;
            }
            check_partitions(&dir, prefix_len)?;
            drop(db);
            let db = Db::open(&dir, dataset_opts(prefix_len)).unwrap();
            check_datasets(&db, &prefixes, &model)?;
            drop(db);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Deterministic (non-proptest) check of the tombstone lifetime rule:
/// a delete whose tombstone is compacted into a *middle* level must keep
/// shadowing an older value that still lives at the bottom.
#[test]
fn tombstones_survive_until_bottom_level() {
    let dir = fresh_dir("tomb", 0);
    let db = Db::open(&dir, deep_opts(CompactionMode::Inline, 0)).unwrap();

    // Install old values and push them to the bottom of the tree.
    for i in 0..48u32 {
        db.put(format!("k{i:03}").as_bytes(), b"old-value").unwrap();
    }
    db.compact_all().unwrap();
    let depth = db.stats().level_tables.len();
    assert!(
        db.stats().level_tables[depth - 1] > 0,
        "setup: bottom level must hold the old values"
    );

    // Delete half the keys; flush the tombstones and compact them exactly
    // one hop (L0 -> L1), which must NOT drop them: the bottom still holds
    // shadowed values.
    for i in (0..48u32).step_by(2) {
        db.delete(format!("k{i:03}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
    let before = db.stats().tombstones_dropped;
    db.compact_level(0).unwrap();
    let stats = db.stats();
    assert_eq!(
        stats.tombstones_dropped, before,
        "tombstones were dropped above the bottom level"
    );
    for i in 0..48u32 {
        let k = format!("k{i:03}");
        let expect = if i % 2 == 0 {
            None
        } else {
            Some(b"old-value".to_vec())
        };
        assert_eq!(
            db.get(k.as_bytes()).unwrap(),
            expect,
            "key {k} after mid-level compaction"
        );
    }

    // Now drive the tombstones all the way down: they must be dropped (no
    // tombstone bytes retained at the bottom) and the keys must stay gone.
    db.compact_all().unwrap();
    assert!(
        db.stats().tombstones_dropped > before,
        "bottom-level compaction should finally drop the tombstones"
    );
    for i in (0..48u32).step_by(2) {
        let k = format!("k{i:03}");
        assert_eq!(db.get(k.as_bytes()).unwrap(), None, "key {k} resurrected");
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
