//! Open table files stay bounded while the table count grows with the
//! number of datasets.
//!
//! The LSM backend cuts the container databases' tables at the dataset
//! UUID, so every dataset adds about one table per database. lsmdb reads
//! them through a bounded set of open files (`lsmdb::OPEN_TABLE_FILE_LIMIT`
//! for the whole process), so a server that holds more tables than the
//! common 1,024-descriptor soft limit still stays well under it. This file
//! holds one test, so the descriptors it counts are its own.

use bedrock::{BackendKind, DbCounts, LsmConfig};
use hepnos::testing::local_deployment_tuned;
use mercurio::NetworkModel;
use nova::loader::DataLoader;
use nova::{files, NovaGenerator};
use std::path::Path;

const DATASETS: usize = 400;
const EVENTS: u64 = 4;

fn sst_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| match p.is_dir() {
            true => sst_files(&p),
            false => usize::from(p.extension() == Some("sst".as_ref())),
        })
        .sum()
}

/// Descriptors the process holds: all of them, and those on tables.
fn open_descriptors() -> (usize, usize) {
    let links: Vec<_> = std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
        .collect();
    let tables = links
        .iter()
        .filter(|l| l.extension() == Some("sst".as_ref()))
        .count();
    (links.len(), tables)
}

#[test]
fn more_tables_than_the_default_descriptor_limit_stay_readable() {
    let base = std::env::temp_dir().join(format!("hepnos-openfiles-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let data_dir = base.join("data");
    let gen = NovaGenerator::new(11);
    let paths = files::write_dataset(&base.join("files"), &gen, 1, EVENTS).unwrap();
    // Small memtables flush every few datasets, one table per dataset.
    let tune = LsmConfig {
        memtable_bytes: 4 << 10,
        ..LsmConfig::default()
    };
    let counts = DbCounts {
        datasets: 1,
        runs: 1,
        subruns: 1,
        events: 1,
        products: 1,
    };
    let dep = local_deployment_tuned(
        2,
        counts,
        BackendKind::Lsm,
        Some(data_dir.clone()),
        NetworkModel::default(),
        move |cfg| cfg.lsm = Some(tune.clone()),
    );
    let store = dep.datastore();
    for i in 0..DATASETS {
        let ds = store.root().create_dataset(&format!("ds{i:03}")).unwrap();
        DataLoader::new(store.clone(), ds)
            .ingest_files(&paths)
            .unwrap();
    }
    // Every dataset reads back, through tables evicted from the open set.
    for i in 0..DATASETS {
        let ds = store.root().dataset(&format!("ds{i:03}")).unwrap();
        let events: usize = ds
            .runs()
            .unwrap()
            .iter()
            .flat_map(|run| run.subruns().unwrap())
            .map(|subrun| subrun.events().unwrap().len())
            .sum();
        assert_eq!(events as u64, EVENTS, "dataset {i}");
    }
    let tables = sst_files(&data_dir);
    let (fds, table_fds) = open_descriptors();
    assert!(tables > 1024, "only {tables} tables: the check needs more");
    assert!(
        table_fds <= lsmdb::OPEN_TABLE_FILE_LIMIT,
        "{table_fds} table files open"
    );
    assert!(fds < 1024, "{fds} descriptors open over {tables} tables");
    dep.shutdown();
    std::fs::remove_dir_all(&base).ok();
}
