//! Tests for storage rescaling (the Pufferscale-style extension), run as a
//! live `Migrator` pass with no traffic followed by `finalize`: after
//! growing or shrinking the event/product database groups, every key must
//! be reachable at its new home, and ring placement must move only a small
//! fraction of keys.

use bedrock::{ConnectionDescriptor, DbCounts};
use hepnos::placement::{ModuloPlacement, Placement, RingPlacement};
use hepnos::rescale::{Migrator, MigratorConfig, PlacementInput, RescaleStats};
use hepnos::testing::local_deployment;
use hepnos::{DataStore, ProductLabel, WriteBatch};
use std::sync::Arc;
use yokan::{DbTarget, YokanClient};

/// Rescale one group from the `old` to the `new` chains with no traffic:
/// a `Migrator` pass over one source chain at a time, then `finalize`.
fn migrate(
    client: YokanClient,
    old: Vec<Vec<DbTarget>>,
    new: Vec<Vec<DbTarget>>,
    placement: Arc<dyn Placement>,
    input: PlacementInput,
) -> RescaleStats {
    let cfg = MigratorConfig {
        max_inflight_ranges: 1,
        ..Default::default()
    };
    let mig = Migrator::new(client, old, new, placement, input, cfg).unwrap();
    let stats = mig.run().unwrap();
    mig.finalize(2).unwrap();
    stats
}

/// One single-member chain per target.
fn chains(targets: Vec<DbTarget>) -> Vec<Vec<DbTarget>> {
    targets.into_iter().map(|t| vec![t]).collect()
}

/// Restrict descriptors to the databases a "smaller" deployment would see:
/// only events_/products_ indices below the given bounds.
fn shrink_descriptors(
    full: &[ConnectionDescriptor],
    max_events: usize,
    max_products: usize,
) -> Vec<ConnectionDescriptor> {
    full.iter()
        .map(|d| {
            let mut d = d.clone();
            for p in &mut d.providers {
                p.databases.retain(|name| {
                    let keep = |prefix: &str, max: usize| {
                        name.strip_prefix(prefix)
                            .and_then(|s| s.strip_prefix('_'))
                            .and_then(|s| s.parse::<usize>().ok())
                            .map(|i| i < max)
                    };
                    if name.starts_with("events") {
                        keep("events", max_events).unwrap_or(false)
                    } else if name.starts_with("products") {
                        keep("products", max_products).unwrap_or(false)
                    } else {
                        true
                    }
                });
            }
            d.providers.retain(|p| !p.databases.is_empty());
            d
        })
        .collect()
}

fn event_targets(descriptors: &[ConnectionDescriptor], prefix: &str) -> Vec<DbTarget> {
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
    v
}

#[test]
fn growth_keeps_every_event_and_product_reachable() {
    // Deploy with 4 event + 4 product dbs, but initially *use* only 2+2.
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
    let small = shrink_descriptors(&full, 2, 2);
    let store_small = DataStore::connect(dep.fabric().endpoint("small-client"), &small).unwrap();
    assert_eq!(store_small.num_event_databases(), 2);

    // Populate through the small topology.
    let ds = store_small.root().create_dataset("rescale").unwrap();
    let uuid = ds.uuid().unwrap();
    let label = ProductLabel::new("payload").unwrap();
    let run = ds.create_run(1).unwrap();
    for s in 0..10u64 {
        let sr = run.create_subrun(s).unwrap();
        let mut batch = WriteBatch::new(&store_small);
        for e in 0..30u64 {
            let ev = batch.create_event(&sr, &uuid, e).unwrap();
            batch
                .store(&ev, &label, &vec![(s * 100 + e) as u32; 4])
                .unwrap();
        }
        batch.flush().unwrap();
    }

    // Grow to the full 4+4 topology and migrate.
    let client = YokanClient::new(dep.fabric().endpoint("rescale-client"));
    let ev_stats = migrate(
        client.clone(),
        chains(event_targets(&small, "events")),
        chains(event_targets(&full, "events")),
        Arc::new(ModuloPlacement),
        PlacementInput::Prefix(32),
    );
    let pr_stats = migrate(
        client,
        chains(event_targets(&small, "products")),
        chains(event_targets(&full, "products")),
        Arc::new(ModuloPlacement),
        PlacementInput::Product,
    );
    assert_eq!(ev_stats.keys_scanned, 300);
    assert!(
        ev_stats.keys_moved > 0,
        "growth moved nothing: {ev_stats:?}"
    );
    assert_eq!(pr_stats.keys_scanned, 300);
    assert!(pr_stats.keys_moved > 0);

    // A client of the NEW topology must see everything in the right place.
    let store_full = DataStore::connect(dep.fabric().endpoint("full-client"), &full).unwrap();
    let ds2 = store_full.dataset("rescale").unwrap();
    let run2 = ds2.run(1).unwrap();
    let mut total = 0u64;
    for sr in run2.subruns().unwrap() {
        let events = sr.events().unwrap();
        assert_eq!(events.len(), 30, "subrun {} lost events", sr.number());
        for ev in events {
            let v: Vec<u32> = ev.load(&label).unwrap().expect("product survived");
            assert_eq!(v, vec![(sr.number() * 100 + ev.number()) as u32; 4]);
            total += 1;
        }
    }
    assert_eq!(total, 300);
    dep.shutdown();
}

#[test]
fn shrink_consolidates_back() {
    let dep = local_deployment(
        1,
        DbCounts {
            datasets: 1,
            runs: 1,
            subruns: 1,
            events: 3,
            products: 1,
        },
    );
    let full = dep.descriptors().to_vec();
    let small = shrink_descriptors(&full, 1, 1);
    let store_full = dep.datastore();
    let ds = store_full.root().create_dataset("shrink").unwrap();
    let run = ds.create_run(1).unwrap();
    for s in 0..9u64 {
        run.create_subrun(s).unwrap().create_event(0).unwrap();
    }
    let client = YokanClient::new(dep.fabric().endpoint("shrink-client"));
    let stats = migrate(
        client,
        chains(event_targets(&full, "events")),
        chains(event_targets(&small, "events")),
        Arc::new(ModuloPlacement),
        PlacementInput::Prefix(32),
    );
    assert_eq!(stats.keys_scanned, 9);
    // Everything now lives in the single surviving db.
    let store_small = DataStore::connect(dep.fabric().endpoint("small-client"), &small).unwrap();
    let run2 = store_small.dataset("shrink").unwrap().run(1).unwrap();
    let mut n = 0;
    for sr in run2.subruns().unwrap() {
        n += sr.events().unwrap().len();
    }
    assert_eq!(n, 9);
    dep.shutdown();
}

#[test]
fn ring_placement_moves_fewer_keys_than_modulo() {
    // The Pufferscale motivation: under consistent hashing, growth by one
    // database moves ~1/n of the keys; modulo reshuffles most of them.
    for (name, fraction_limit, use_ring) in [("ring", 0.55, true), ("modulo", 1.0, false)] {
        let dep = local_deployment(
            1,
            DbCounts {
                datasets: 1,
                runs: 1,
                subruns: 1,
                events: 8,
                products: 1,
            },
        );
        let full = dep.descriptors().to_vec();
        let small = shrink_descriptors(&full, 7, 1);
        let placement: Arc<dyn Placement> = if use_ring {
            Arc::new(RingPlacement::new(128))
        } else {
            Arc::new(ModuloPlacement)
        };
        let store_small = DataStore::connect_with_placement(
            dep.fabric().endpoint("client-a"),
            &small,
            if use_ring {
                Box::new(RingPlacement::new(128))
            } else {
                Box::new(ModuloPlacement)
            },
        )
        .unwrap();
        let ds = store_small.root().create_dataset("frac").unwrap();
        let run = ds.create_run(1).unwrap();
        for s in 0..200u64 {
            run.create_subrun(s).unwrap().create_event(0).unwrap();
        }
        let client = YokanClient::new(dep.fabric().endpoint("client-b"));
        let stats = migrate(
            client,
            chains(event_targets(&small, "events")),
            chains(event_targets(&full, "events")),
            placement,
            PlacementInput::Prefix(32),
        );
        assert_eq!(stats.keys_scanned, 200);
        let frac = stats.moved_fraction();
        assert!(
            frac <= fraction_limit,
            "{name} moved {frac:.2} of keys (limit {fraction_limit})"
        );
        if use_ring {
            assert!(
                frac < 0.45,
                "ring should move ~1/8 of keys, moved {frac:.2}"
            );
        } else {
            assert!(
                frac > 0.5,
                "modulo should reshuffle most keys, moved {frac:.2}"
            );
        }
        dep.shutdown();
    }
}

/// Replica-chain rescaling: growing a *replicated* event group must move
/// every copy of a re-homed key — each new chain ends byte-identical
/// across its members (replication factor preserved) and no stale copy
/// survives on the old chains.
#[test]
fn replicated_rescale_preserves_replication_factor() {
    use hepnos::testing::local_deployment_replicated;

    let dep = local_deployment_replicated(
        2,
        DbCounts {
            datasets: 1,
            runs: 1,
            subruns: 1,
            events: 4,
            products: 1,
        },
        2,
    );
    let full = dep.descriptors().to_vec();
    let small = shrink_descriptors(&full, 2, 1);
    let event_chains = |descriptors: &[ConnectionDescriptor]| -> Vec<Vec<DbTarget>> {
        bedrock::deployment_chains(descriptors)
            .into_iter()
            .filter(|c| c[0].db.starts_with("events"))
            .collect()
    };
    let (old_chains, new_chains) = (event_chains(&small), event_chains(&full));
    assert_eq!(old_chains.len(), 2);
    assert_eq!(new_chains.len(), 4);
    assert!(new_chains.iter().all(|c| c.len() == 2));

    // Populate through the small replicated topology: every write lands on
    // both members of its chain via chain forwarding.
    let store_small = DataStore::connect(dep.fabric().endpoint("repl-small"), &small).unwrap();
    assert_eq!(store_small.replication_factor(), 2);
    let ds = store_small.root().create_dataset("repl-rescale").unwrap();
    let run = ds.create_run(1).unwrap();
    for s in 0..12u64 {
        let sr = run.create_subrun(s).unwrap();
        for e in 0..25u64 {
            sr.create_event(e).unwrap();
        }
    }

    // Rescale with a raw (un-routed) client, as the API requires.
    let client = YokanClient::new(dep.fabric().endpoint("repl-rescale-client"));
    let stats = migrate(
        client.clone(),
        old_chains,
        new_chains.clone(),
        Arc::new(ModuloPlacement),
        PlacementInput::Prefix(32),
    );
    assert_eq!(stats.keys_scanned, 300);
    assert!(stats.keys_moved > 0, "growth moved nothing: {stats:?}");
    // bytes_moved counts bytes per chain member actually written: with
    // factor-2 destination chains every batch lands twice, so the total is
    // even and at least twice the payload of any single moved key.
    assert!(stats.bytes_moved > 0);
    assert_eq!(
        stats.bytes_moved % 2,
        0,
        "2-replica chains must count every byte twice: {stats:?}"
    );

    // Replication factor preserved: each chain's members are byte-identical
    // (a move that wrote one replica, or an erase that missed one, shows up
    // here), and chain totals sum to the full population (a stale copy
    // surviving on *both* members of an old chain would inflate this).
    let mut total = 0usize;
    let mut populated = 0usize;
    for chain in &new_chains {
        let a = client.list_keyvals(&chain[0], &[], &[], 0).unwrap();
        let b = client.list_keyvals(&chain[1], &[], &[], 0).unwrap();
        assert_eq!(a, b, "replicas of {} diverged after rescale", chain[0].db);
        total += a.len();
        populated += usize::from(!a.is_empty());
    }
    assert_eq!(total, 300, "stale or missing copies after rescale");
    assert_eq!(populated, 4, "rescale left a grown chain empty");

    // A client of the grown replicated topology reads everything back.
    let store_full = DataStore::connect(dep.fabric().endpoint("repl-full"), &full).unwrap();
    let run2 = store_full.dataset("repl-rescale").unwrap().run(1).unwrap();
    let mut n = 0;
    for sr in run2.subruns().unwrap() {
        n += sr.events().unwrap().len();
    }
    assert_eq!(n, 300);
    dep.shutdown();
}

/// A client with replica routes installed must be rejected: it would
/// forward every rescale write down the chain a second time and scan
/// through tails instead of the addressed member.
#[test]
fn routed_client_is_rejected() {
    use hepnos::testing::local_deployment_replicated;

    let dep = local_deployment_replicated(
        2,
        DbCounts {
            datasets: 1,
            runs: 1,
            subruns: 1,
            events: 4,
            products: 1,
        },
        2,
    );
    let full = dep.descriptors().to_vec();
    let small = shrink_descriptors(&full, 2, 1);
    let event_chains = |descriptors: &[ConnectionDescriptor]| -> Vec<Vec<DbTarget>> {
        bedrock::deployment_chains(descriptors)
            .into_iter()
            .filter(|c| c[0].db.starts_with("events"))
            .collect()
    };
    let (old_chains, new_chains) = (event_chains(&small), event_chains(&full));

    // The Migrator rejects such a client at construction, and also one
    // with dual-read fallbacks for the groups: its convergence audit must
    // see exactly what each destination holds.
    let routed = YokanClient::new(dep.fabric().endpoint("routed-client"));
    routed.install_replica_routes(&bedrock::deployment_chains(&full));
    let dual = YokanClient::new(dep.fabric().endpoint("dual-read-client"));
    dual.install_dual_read(&new_chains[3][0].db, old_chains[0].clone());
    for (what, client) in [("routed", routed), ("dual-reading", dual)] {
        let err = Migrator::new(
            client,
            old_chains.clone(),
            new_chains.clone(),
            Arc::new(ModuloPlacement),
            PlacementInput::Prefix(32),
            Default::default(),
        )
        .err()
        .unwrap_or_else(|| panic!("Migrator must reject a {what} client"));
        assert!(
            matches!(err, hepnos::HepnosError::Topology(_)),
            "{what} client must fail with Topology, got {err:?}"
        );
    }
    dep.shutdown();
}
