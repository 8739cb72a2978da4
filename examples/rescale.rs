//! Storage rescaling (the Pufferscale extension the paper cites as future
//! potential, §V): grow a running deployment from 3 to 4 event/product
//! databases, migrate the keys with the live `Migrator` (here with no
//! traffic), and keep reading — comparing how much data modulo vs
//! consistent-hash-ring placement has to move when a single database is
//! added.
//!
//! Run: `cargo run --example rescale`

use bedrock::{ConnectionDescriptor, DbCounts};
use hepnos::placement::{ModuloPlacement, Placement, RingPlacement};
use hepnos::rescale::{Migrator, PlacementInput, RescaleStats};
use hepnos::testing::local_deployment;
use hepnos::{DataStore, ProductLabel, WriteBatch};
use std::sync::Arc;
use yokan::{DbTarget, YokanClient};

fn filter_dbs(full: &[ConnectionDescriptor], max: usize) -> Vec<ConnectionDescriptor> {
    full.iter()
        .map(|d| {
            let mut d = d.clone();
            for p in &mut d.providers {
                p.databases.retain(|name| {
                    match name
                        .rsplit('_')
                        .next()
                        .and_then(|s| s.parse::<usize>().ok())
                    {
                        Some(i) if name.starts_with("events") || name.starts_with("products") => {
                            i < max
                        }
                        _ => true,
                    }
                });
            }
            d.providers.retain(|p| !p.databases.is_empty());
            d
        })
        .collect()
}

fn chains(descriptors: &[ConnectionDescriptor], prefix: &str) -> Vec<Vec<DbTarget>> {
    let mut v: Vec<DbTarget> = descriptors
        .iter()
        .flat_map(|d| {
            d.providers.iter().flat_map(|p| {
                p.databases
                    .iter()
                    .filter(|n| n.starts_with(prefix))
                    .map(|n| DbTarget::new(d.address.clone(), p.provider_id, n))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    v.sort();
    v.into_iter().map(|t| vec![t]).collect()
}

/// Move one group from the `small` to the `full` topology: a migration
/// pass, then `finalize` to fence the old topology and erase moved keys.
fn migrate(
    client: &YokanClient,
    small: &[ConnectionDescriptor],
    full: &[ConnectionDescriptor],
    prefix: &str,
    placement: Box<dyn Placement>,
    input: PlacementInput,
) -> RescaleStats {
    let mig = Migrator::new(
        client.clone(),
        chains(small, prefix),
        chains(full, prefix),
        Arc::from(placement),
        input,
        Default::default(),
    )
    .unwrap();
    let stats = mig.run().unwrap();
    mig.finalize(2).unwrap();
    stats
}

fn demo(make_placement: fn() -> Box<dyn Placement>, name: &str) {
    let dep = local_deployment(
        1,
        DbCounts {
            datasets: 1,
            runs: 1,
            subruns: 1,
            events: 4,
            products: 4,
        },
    );
    let full = dep.descriptors().to_vec();
    let small = filter_dbs(&full, 3);
    let store = DataStore::connect_with_placement(
        dep.fabric().endpoint("writer"),
        &small,
        make_placement(),
    )
    .unwrap();
    let ds = store.root().create_dataset("grow").unwrap();
    let uuid = ds.uuid().unwrap();
    let run = ds.create_run(1).unwrap();
    let label = ProductLabel::new("p").unwrap();
    for s in 0..64u64 {
        let sr = run.create_subrun(s).unwrap();
        let mut batch = WriteBatch::new(&store);
        for e in 0..16u64 {
            let ev = batch.create_event(&sr, &uuid, e).unwrap();
            batch.store(&ev, &label, &(s * 16 + e)).unwrap();
        }
        batch.flush().unwrap();
    }
    let client = YokanClient::new(dep.fabric().endpoint("migrator"));
    let ev_stats = migrate(
        &client,
        &small,
        &full,
        "events",
        make_placement(),
        PlacementInput::Prefix(32),
    );
    let pr_stats = migrate(
        &client,
        &small,
        &full,
        "products",
        make_placement(),
        PlacementInput::Product,
    );
    println!(
        "{name:>7}: events moved {:>4}/{} ({:>4.1}%), products moved {:>4}/{} ({:>4.1}%)",
        ev_stats.keys_moved,
        ev_stats.keys_scanned,
        ev_stats.moved_fraction() * 100.0,
        pr_stats.keys_moved,
        pr_stats.keys_scanned,
        pr_stats.moved_fraction() * 100.0
    );
    // Verify reads through the grown topology.
    let store2 =
        DataStore::connect_with_placement(dep.fabric().endpoint("reader"), &full, make_placement())
            .unwrap();
    let run2 = store2.dataset("grow").unwrap().run(1).unwrap();
    let mut n = 0u64;
    for sr in run2.subruns().unwrap() {
        for ev in sr.events().unwrap() {
            let v: u64 = ev.load(&label).unwrap().expect("survived migration");
            assert_eq!(v, sr.number() * 16 + ev.number());
            n += 1;
        }
    }
    assert_eq!(n, 1024);
    dep.shutdown();
}

fn main() {
    println!("growing 3 -> 4 event/product databases, migrating 1024 events + products:\n");
    demo(|| Box::new(ModuloPlacement), "modulo");
    demo(|| Box::new(RingPlacement::new(128)), "ring");
    println!("\nadding one database: the ring moves ~1/n of the keys, while modulo");
    println!("placement reshuffles most of them — the property Pufferscale needs");
}
