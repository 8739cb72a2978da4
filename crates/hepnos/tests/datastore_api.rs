//! End-to-end tests of the HEPnOS client API over in-process deployments.

use bedrock::DbCounts;
use hepnos::keys;
use hepnos::placement::{ModuloPlacement, Placement};
use hepnos::testing::local_deployment;
use hepnos::{HepnosError, ProductLabel, WriteBatch};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
struct Particle {
    x: f32,
    y: f32,
    z: f32,
}

fn small_counts() -> DbCounts {
    DbCounts {
        datasets: 2,
        runs: 2,
        subruns: 2,
        events: 4,
        products: 4,
    }
}

#[test]
fn listing1_full_flow() {
    // The paper's Listing 1, line by line.
    let dep = local_deployment(1, small_counts());
    let datastore = dep.datastore();
    let _ds = datastore.root().create_dataset("path/to/dataset").unwrap();
    let ds = datastore.dataset("path/to/dataset").unwrap().full_path();
    assert_eq!(ds, "path/to/dataset");
    let ds = datastore.dataset("path/to/dataset").unwrap();
    let run = ds.create_run(43).unwrap();
    let subrun = run.create_subrun(56).unwrap();
    let ev = subrun.create_event(25).unwrap();
    let vp1 = vec![
        Particle {
            x: 1.0,
            y: 2.0,
            z: 3.0,
        },
        Particle {
            x: 4.0,
            y: 5.0,
            z: 6.0,
        },
    ];
    ev.store(&ProductLabel::new("vp").unwrap(), &vp1).unwrap();
    let vp2: Vec<Particle> = ev.load(&ProductLabel::new("vp").unwrap()).unwrap().unwrap();
    assert_eq!(vp1, vp2);
    // "iterate over the subruns in a run"
    let numbers: Vec<u64> = run.subruns().unwrap().iter().map(|s| s.number()).collect();
    assert_eq!(numbers, vec![56]);
    dep.shutdown();
}

#[test]
fn nested_datasets_and_listing() {
    let dep = local_deployment(2, small_counts());
    let store = dep.datastore();
    let root = store.root();
    root.create_dataset("fermilab/nova").unwrap();
    root.create_dataset("fermilab/dune").unwrap();
    root.create_dataset("cern/atlas").unwrap();
    let top: Vec<String> = root.datasets().unwrap().iter().map(|d| d.name()).collect();
    assert_eq!(top, vec!["cern", "fermilab"]);
    let fermilab = store.dataset("fermilab").unwrap();
    let subs: Vec<String> = fermilab
        .datasets()
        .unwrap()
        .iter()
        .map(|d| d.name())
        .collect();
    assert_eq!(subs, vec!["dune", "nova"]);
    // Nested datasets do not leak into the parent's listing.
    store
        .dataset("fermilab/nova")
        .unwrap()
        .create_dataset("mc")
        .unwrap();
    assert_eq!(root.datasets().unwrap().len(), 2);
    dep.shutdown();
}

#[test]
fn open_missing_containers_errors() {
    let dep = local_deployment(1, small_counts());
    let store = dep.datastore();
    assert!(matches!(
        store.dataset("ghost"),
        Err(HepnosError::NoSuchDataset(_))
    ));
    let ds = store.root().create_dataset("d").unwrap();
    assert!(matches!(ds.run(5), Err(HepnosError::NoSuchContainer(_))));
    let run = ds.create_run(5).unwrap();
    assert!(matches!(
        run.subrun(1),
        Err(HepnosError::NoSuchContainer(_))
    ));
    let sr = run.create_subrun(1).unwrap();
    assert!(matches!(sr.event(0), Err(HepnosError::NoSuchContainer(_))));
    dep.shutdown();
}

#[test]
fn create_is_idempotent() {
    let dep = local_deployment(1, small_counts());
    let store = dep.datastore();
    let d1 = store.root().create_dataset("a/b").unwrap();
    let d2 = store.root().create_dataset("a/b").unwrap();
    assert_eq!(d1.uuid(), d2.uuid());
    let ds = store.dataset("a/b").unwrap();
    ds.create_run(1).unwrap();
    ds.create_run(1).unwrap();
    assert_eq!(ds.runs().unwrap().len(), 1);
    dep.shutdown();
}

#[test]
fn runs_iterate_in_numeric_order_across_magnitudes() {
    let dep = local_deployment(2, small_counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("ordered").unwrap();
    for n in [300u64, 2, 1000, 0, 255, 256, 65536] {
        ds.create_run(n).unwrap();
    }
    let numbers: Vec<u64> = ds.runs().unwrap().iter().map(|r| r.number()).collect();
    assert_eq!(numbers, vec![0, 2, 255, 256, 300, 1000, 65536]);
    dep.shutdown();
}

#[test]
fn events_iterate_in_order_and_are_isolated_per_subrun() {
    let dep = local_deployment(2, small_counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("d").unwrap();
    let run = ds.create_run(1).unwrap();
    let sr1 = run.create_subrun(1).unwrap();
    let sr2 = run.create_subrun(2).unwrap();
    for e in (0..20u64).rev() {
        sr1.create_event(e).unwrap();
    }
    sr2.create_event(100).unwrap();
    let evs: Vec<u64> = sr1.events().unwrap().iter().map(|e| e.number()).collect();
    assert_eq!(evs, (0..20).collect::<Vec<_>>());
    assert_eq!(sr2.events().unwrap().len(), 1);
    dep.shutdown();
}

#[test]
fn products_on_all_container_levels() {
    let dep = local_deployment(1, small_counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("d").unwrap();
    let run = ds.create_run(1).unwrap();
    let sr = run.create_subrun(2).unwrap();
    let ev = sr.create_event(3).unwrap();
    let label = ProductLabel::new("calib").unwrap();
    run.store(&label, &vec![1u32, 2]).unwrap();
    sr.store(&label, &vec![3u32]).unwrap();
    ev.store(&label, &vec![4u32, 5, 6]).unwrap();
    assert_eq!(run.load::<Vec<u32>>(&label).unwrap().unwrap(), vec![1, 2]);
    assert_eq!(sr.load::<Vec<u32>>(&label).unwrap().unwrap(), vec![3]);
    assert_eq!(ev.load::<Vec<u32>>(&label).unwrap().unwrap(), vec![4, 5, 6]);
    dep.shutdown();
}

#[test]
fn products_are_type_and_label_keyed() {
    let dep = local_deployment(1, small_counts());
    let store = dep.datastore();
    let ev = store
        .root()
        .create_dataset("d")
        .unwrap()
        .create_run(1)
        .unwrap()
        .create_subrun(1)
        .unwrap()
        .create_event(1)
        .unwrap();
    let l1 = ProductLabel::new("a").unwrap();
    let l2 = ProductLabel::new("b").unwrap();
    ev.store(&l1, &42u64).unwrap();
    ev.store(&l2, &43u64).unwrap();
    ev.store(&l1, &String::from("same label, different type"))
        .unwrap();
    assert_eq!(ev.load::<u64>(&l1).unwrap(), Some(42));
    assert_eq!(ev.load::<u64>(&l2).unwrap(), Some(43));
    assert_eq!(
        ev.load::<String>(&l1).unwrap().as_deref(),
        Some("same label, different type")
    );
    // Absent (label, type) pairs come back as None, not an error.
    assert_eq!(ev.load::<f64>(&l1).unwrap(), None);
    assert_eq!(
        ev.load::<u64>(&ProductLabel::new("ghost").unwrap())
            .unwrap(),
        None
    );
    dep.shutdown();
}

#[test]
fn two_clients_see_each_others_writes() {
    let dep = local_deployment(2, small_counts());
    let store_a = dep.datastore();
    let store_b = dep.connect_client("second-client");
    let ds = store_a.root().create_dataset("shared").unwrap();
    let ev = ds
        .create_run(7)
        .unwrap()
        .create_subrun(0)
        .unwrap()
        .create_event(99)
        .unwrap();
    ev.store(&ProductLabel::new("p").unwrap(), &vec![1.5f64])
        .unwrap();
    // Client B navigates independently (placement must agree).
    let ds_b = store_b.dataset("shared").unwrap();
    assert_eq!(ds_b.uuid(), ds.uuid());
    let ev_b = ds_b.run(7).unwrap().subrun(0).unwrap().event(99).unwrap();
    assert_eq!(
        ev_b.load::<Vec<f64>>(&ProductLabel::new("p").unwrap())
            .unwrap()
            .unwrap(),
        vec![1.5]
    );
    dep.shutdown();
}

#[test]
fn events_spread_across_databases_but_subrun_stays_in_one() {
    // Placement invariant (§II-C3): all events of one subrun are in one
    // database; different subruns spread across databases.
    let dep = local_deployment(2, small_counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("spread").unwrap();
    let run = ds.create_run(1).unwrap();
    for sr in 0..32u64 {
        let subrun = run.create_subrun(sr).unwrap();
        for e in 0..4u64 {
            subrun.create_event(e).unwrap();
        }
    }
    // Every subrun iterates its own 4 events (single-db scans).
    for sr in run.subruns().unwrap() {
        assert_eq!(sr.events().unwrap().len(), 4);
    }
    dep.shutdown();
}

#[test]
fn dataset_events_covers_all_runs_and_subruns_in_order() {
    let dep = local_deployment(2, small_counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("allevents").unwrap();
    let mut expected = Vec::new();
    for r in [1u64, 3] {
        let run = ds.create_run(r).unwrap();
        for s in [0u64, 2, 7] {
            let sr = run.create_subrun(s).unwrap();
            for e in 0..5u64 {
                sr.create_event(e).unwrap();
                expected.push((r, s, e));
            }
        }
    }
    expected.sort();
    let got: Vec<_> = ds
        .events()
        .unwrap()
        .iter()
        .map(|e| e.coordinates())
        .collect();
    assert_eq!(got, expected);
    // Another dataset's events do not leak in.
    let other = store.root().create_dataset("other").unwrap();
    other
        .create_run(1)
        .unwrap()
        .create_subrun(0)
        .unwrap()
        .create_event(99)
        .unwrap();
    assert_eq!(ds.events().unwrap().len(), expected.len());
    dep.shutdown();
}

#[test]
fn root_cannot_hold_runs() {
    let dep = local_deployment(1, small_counts());
    let store = dep.datastore();
    assert!(store.root().create_run(1).is_err());
    dep.shutdown();
}

#[test]
fn large_products_round_trip() {
    let dep = local_deployment(1, small_counts());
    let store = dep.datastore();
    let ev = store
        .root()
        .create_dataset("big")
        .unwrap()
        .create_run(1)
        .unwrap()
        .create_subrun(1)
        .unwrap()
        .create_event(1)
        .unwrap();
    // "a few megabytes" — the upper end of the paper's product sizes.
    let big: Vec<f64> = (0..400_000).map(|i| i as f64 * 0.5).collect();
    ev.store(&ProductLabel::new("waveform").unwrap(), &big)
        .unwrap();
    let back: Vec<f64> = ev
        .load(&ProductLabel::new("waveform").unwrap())
        .unwrap()
        .unwrap();
    assert_eq!(back.len(), big.len());
    assert_eq!(back[399_999], big[399_999]);
    dep.shutdown();
}

#[test]
fn connect_from_json_config_file() {
    use bedrock::ConnectionDescriptor;
    // The paper's Listing-1 entry point: connect("config.json"). Write the
    // deployment descriptors to a file, read it back, connect.
    let dep = local_deployment(2, small_counts());
    let json = ConnectionDescriptor::deployment_to_json(dep.descriptors());
    let path = std::env::temp_dir().join(format!("hepnos-config-{}.json", std::process::id()));
    std::fs::write(&path, &json).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let store =
        hepnos::DataStore::connect_from_json(dep.fabric().endpoint("json-client"), &text).unwrap();
    let ds = store.root().create_dataset("from-config").unwrap();
    ds.create_run(1).unwrap();
    assert_eq!(
        store.dataset("from-config").unwrap().runs().unwrap().len(),
        1
    );

    // Garbage config errors cleanly.
    assert!(hepnos::DataStore::connect_from_json(
        dep.fabric().endpoint("json-client2"),
        "{not json",
    )
    .is_err());
    std::fs::remove_file(&path).ok();
    dep.shutdown();
}

#[test]
fn topology_without_required_database_kinds_is_rejected() {
    use bedrock::ConnectionDescriptor;
    let dep = local_deployment(1, small_counts());
    // Strip all product databases from the descriptors.
    let crippled: Vec<ConnectionDescriptor> = dep
        .descriptors()
        .iter()
        .map(|d| {
            let mut d = d.clone();
            for p in &mut d.providers {
                p.databases.retain(|n| !n.starts_with("products"));
            }
            d
        })
        .collect();
    let err = hepnos::DataStore::connect(dep.fabric().endpoint("crippled"), &crippled).unwrap_err();
    assert!(matches!(err, HepnosError::Topology(_)), "{err}");
    assert!(err.to_string().contains("products"));
    dep.shutdown();
}

#[test]
fn events_range_is_a_bounded_scan() {
    let dep = local_deployment(1, small_counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("ranged").unwrap();
    let sr = ds.create_run(1).unwrap().create_subrun(0).unwrap();
    // Sparse event numbers to exercise gaps.
    for e in [0u64, 3, 4, 7, 10, 100, 101, 5000] {
        sr.create_event(e).unwrap();
    }
    let nums = |lo, hi| -> Vec<u64> {
        sr.events_range(lo, hi)
            .unwrap()
            .iter()
            .map(|e| e.number())
            .collect()
    };
    assert_eq!(nums(0, 5), vec![0, 3, 4]);
    assert_eq!(nums(3, 11), vec![3, 4, 7, 10]);
    assert_eq!(nums(4, 4), Vec::<u64>::new());
    assert_eq!(nums(8, 8), Vec::<u64>::new());
    assert_eq!(nums(101, u64::MAX), vec![101, 5000]);
    assert_eq!(nums(0, u64::MAX), vec![0, 3, 4, 7, 10, 100, 101, 5000]);
    // Reading a bounded range never touches other subruns.
    let sr2 = ds.run(1).unwrap().create_subrun(1).unwrap();
    sr2.create_event(2).unwrap();
    assert_eq!(nums(0, 5), vec![0, 3, 4]);
    dep.shutdown();
}

#[test]
fn run_events_spans_subruns_in_order() {
    let dep = local_deployment(2, small_counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("runevents").unwrap();
    let run = ds.create_run(5).unwrap();
    let mut expected = Vec::new();
    for s in [0u64, 3, 9] {
        let sr = run.create_subrun(s).unwrap();
        for e in 0..4u64 {
            sr.create_event(e).unwrap();
            expected.push((5u64, s, e));
        }
    }
    // Another run's events must not appear.
    ds.create_run(6)
        .unwrap()
        .create_subrun(0)
        .unwrap()
        .create_event(77)
        .unwrap();
    let got: Vec<_> = run
        .events()
        .unwrap()
        .iter()
        .map(|e| e.coordinates())
        .collect();
    assert_eq!(got, expected);
    dep.shutdown();
}

// Listings page their databases `LIST_PAGE` keys at a time. The cases
// below put page ends where a walk can go wrong: a last page that is
// exactly full, a short one, range bounds inside a later page, and
// several event databases whose pages must interleave by key.

#[test]
fn subrun_event_listings_cross_page_boundaries() {
    let page = hepnos::LIST_PAGE as u64;
    let dep = local_deployment(1, small_counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("paged").unwrap();
    let run = ds.create_run(1).unwrap();
    let sizes = [2 * page, 2 * page + 37];
    let mut batch = WriteBatch::new(&store);
    for (s, &n) in sizes.iter().enumerate() {
        let sr = batch.create_subrun(&run, s as u64).unwrap();
        for e in 0..n {
            batch.create_event(&sr, &ds.uuid().unwrap(), e).unwrap();
        }
    }
    batch.flush().unwrap();
    let subruns = run.subruns().unwrap();
    assert_eq!(subruns.len(), sizes.len());
    for (sr, n) in subruns.iter().zip(sizes) {
        let nums: Vec<u64> = sr.events().unwrap().iter().map(|e| e.number()).collect();
        assert_eq!(nums, (0..n).collect::<Vec<_>>(), "subrun {}", sr.number());
    }

    let sr = &subruns[1];
    let nums = |lo, hi| -> Vec<u64> {
        sr.events_range(lo, hi)
            .unwrap()
            .iter()
            .map(|e| e.number())
            .collect()
    };
    assert_eq!(
        nums(page + 5, page + 900),
        (page + 5..page + 900).collect::<Vec<_>>()
    );
    assert_eq!(
        nums(page, 3 * page),
        (page..2 * page + 37).collect::<Vec<_>>()
    );
    assert_eq!(nums(0, 2 * page + 1), (0..2 * page + 1).collect::<Vec<_>>());
    // A range that ends inside the first page it lists costs one RPC.
    let before = store.endpoint_stats().requests_sent;
    assert_eq!(nums(page + 1, page + 2), vec![page + 1]);
    assert_eq!(store.endpoint_stats().requests_sent - before, 1);
    dep.shutdown();
}

#[test]
fn runs_and_datasets_list_past_one_page() {
    let page = hepnos::LIST_PAGE as u64;
    let dep = local_deployment(1, small_counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("manyruns").unwrap();
    let mut batch = WriteBatch::new(&store);
    for r in 0..2 * page {
        batch.create_run(&ds, r).unwrap();
    }
    batch.flush().unwrap();
    let runs: Vec<u64> = ds.runs().unwrap().iter().map(|r| r.number()).collect();
    assert_eq!(runs, (0..2 * page).collect::<Vec<_>>());

    let parent = store.root().create_dataset("many").unwrap();
    let names: Vec<String> = (0..page + 10).map(|i| format!("d{i:05}")).collect();
    for name in &names {
        parent.create_dataset(name).unwrap();
    }
    let listed = parent.datasets().unwrap();
    let listed_names: Vec<String> = listed.iter().map(|d| d.name()).collect();
    assert_eq!(listed_names, names);
    for d in [
        &listed[0],
        &listed[page as usize],
        &listed[listed.len() - 1],
    ] {
        let opened = store.dataset(&d.full_path()).unwrap();
        assert_eq!(opened.uuid(), d.uuid());
    }
    dep.shutdown();
}

#[test]
fn multi_database_event_listings_cross_page_boundaries() {
    let page = hepnos::LIST_PAGE;
    let dep = local_deployment(1, small_counts());
    let store = dep.datastore();
    let ds = store.root().create_dataset("paged-multi").unwrap();
    let uuid = ds.uuid().unwrap();
    let mut written = BTreeSet::new();
    let mut per_db = vec![0usize; store.num_event_databases()];
    let mut batch = WriteBatch::new(&store);
    for r in [1u64, 2] {
        let run = batch.create_run(&ds, r).unwrap();
        for s in 0..8u64 {
            let sr = batch.create_subrun(&run, s).unwrap();
            let n = page as u64 / 2 + 7 * s;
            for e in 0..n {
                batch.create_event(&sr, &uuid, e).unwrap();
                written.insert((r, s, e));
            }
            let db = ModuloPlacement.place(&keys::subrun_key(&uuid, r, s), per_db.len());
            per_db[db] += n as usize;
        }
    }
    batch.flush().unwrap();
    // Another dataset's events stay out of both listings.
    let other = store.root().create_dataset("paged-other").unwrap();
    let sr = other.create_run(1).unwrap().create_subrun(0).unwrap();
    sr.create_event(0).unwrap();
    assert!(
        per_db.iter().all(|&n| n > 2 * page),
        "events per database {per_db:?} fit in two pages"
    );

    let coords = |events: Vec<hepnos::Event>| -> Vec<(u64, u64, u64)> {
        events.iter().map(|e| e.coordinates()).collect()
    };
    let expected: Vec<_> = written.iter().copied().collect();
    assert_eq!(coords(ds.events().unwrap()), expected);
    let run1: Vec<_> = written.iter().copied().filter(|c| c.0 == 1).collect();
    assert_eq!(coords(ds.run(1).unwrap().events().unwrap()), run1);
    dep.shutdown();
}
