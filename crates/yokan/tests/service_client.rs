//! End-to-end tests: YokanClient against a YokanService over the local
//! fabric, through Margo pools — the full Mochi server shape.

use argos::Runtime;
use margo::MargoInstance;
use mercurio::local::Fabric;
use mercurio::{Endpoint, NetworkModel};
use std::sync::Arc;
use yokan::{DbTarget, LsmBackend, MemBackend, YokanClient, YokanError, YokanService};

struct TestServer {
    fabric: Fabric,
    server: MargoInstance,
    svc: YokanService,
}

fn setup(model: NetworkModel) -> TestServer {
    let fabric = Fabric::new(model);
    let rt = Runtime::builder()
        .pool("default")
        .pool("db0")
        .pool("db1")
        .xstream("es0", &["db0", "default"])
        .xstream("es1", &["db1", "default"])
        .build()
        .unwrap();
    let server = MargoInstance::new(fabric.endpoint("server"), rt, "default").unwrap();
    let svc = YokanService::register(&server);
    svc.add_provider(&server, 0, "db0").unwrap();
    svc.add_provider(&server, 1, "db1").unwrap();
    svc.add_database(0, "events", Arc::new(MemBackend::new()));
    svc.add_database(0, "products", Arc::new(MemBackend::new()));
    svc.add_database(1, "events", Arc::new(MemBackend::new()));
    TestServer {
        fabric,
        server,
        svc,
    }
}

#[test]
fn put_get_roundtrip_through_service() {
    let ts = setup(NetworkModel::default());
    let client = YokanClient::new(ts.fabric.endpoint("client"));
    let t = DbTarget::new(ts.server.address(), 0, "events");
    client.put(&t, b"key", b"value").unwrap();
    assert_eq!(client.get(&t, b"key").unwrap(), Some(b"value".to_vec()));
    assert!(client.exists(&t, b"key").unwrap());
    client.erase(&t, b"key").unwrap();
    assert_eq!(client.get(&t, b"key").unwrap(), None);
    ts.server.finalize();
}

#[test]
fn providers_are_isolated() {
    let ts = setup(NetworkModel::default());
    let client = YokanClient::new(ts.fabric.endpoint("client"));
    let t0 = DbTarget::new(ts.server.address(), 0, "events");
    let t1 = DbTarget::new(ts.server.address(), 1, "events");
    client.put(&t0, b"k", b"provider0").unwrap();
    assert_eq!(client.get(&t1, b"k").unwrap(), None);
    assert_eq!(client.get(&t0, b"k").unwrap(), Some(b"provider0".to_vec()));
    ts.server.finalize();
}

#[test]
fn missing_database_and_provider_errors() {
    let ts = setup(NetworkModel::default());
    let client = YokanClient::new(ts.fabric.endpoint("client"));
    let bad_db = DbTarget::new(ts.server.address(), 0, "nope");
    assert_eq!(
        client.get(&bad_db, b"k").unwrap_err(),
        YokanError::NoSuchDatabase("nope".into())
    );
    let bad_prov = DbTarget::new(ts.server.address(), 9, "events");
    assert_eq!(
        client.get(&bad_prov, b"k").unwrap_err(),
        YokanError::NoSuchProvider(9)
    );
    ts.server.finalize();
}

#[test]
fn put_multi_inline_and_bulk() {
    let ts = setup(NetworkModel::default());
    let ep = ts.fabric.endpoint("client");
    let client = YokanClient::new(Arc::clone(&ep) as Arc<dyn Endpoint>);
    let t = DbTarget::new(ts.server.address(), 0, "products");
    let small: Vec<_> = (0..3u8).map(|i| (vec![b's', i], vec![i; 4])).collect();
    client.put_multi(&t, &small).unwrap();
    // A batch of ~70 KB, far above the 8 KiB that once switched a batch
    // to a bulk pull, travels inline in its one request like the small one.
    let large: Vec<_> = (0..1000u16)
        .map(|i| (i.to_be_bytes().to_vec(), vec![i as u8; 64]))
        .collect();
    let large_bytes: usize = large.iter().map(|(k, v)| k.len() + v.len()).sum();
    assert!(large_bytes > 64 << 10);
    let before = ep.stats();
    client.put_multi(&t, &large).unwrap();
    let after = ep.stats();
    assert_eq!(after.requests_sent - before.requests_sent, 1);
    assert!(after.bytes_sent - before.bytes_sent > large_bytes as u64);
    assert_eq!(client.count(&t).unwrap(), 1003);
    for (k, v) in &large {
        assert_eq!(client.get(&t, k).unwrap().as_ref(), Some(v));
    }
    ts.server.finalize();
}

#[test]
fn get_multi_preserves_order_and_misses() {
    let ts = setup(NetworkModel::default());
    let client = YokanClient::new(ts.fabric.endpoint("client"));
    let t = DbTarget::new(ts.server.address(), 0, "events");
    client.put(&t, b"a", b"1").unwrap();
    client.put(&t, b"c", b"3").unwrap();
    let got = client
        .get_multi(&t, &[b"a".to_vec(), b"b".to_vec(), b"c".to_vec()])
        .unwrap();
    assert_eq!(got, vec![Some(b"1".to_vec()), None, Some(b"3".to_vec())]);
    ts.server.finalize();
}

#[test]
fn list_keys_pagination_protocol() {
    let ts = setup(NetworkModel::default());
    let client = YokanClient::new(ts.fabric.endpoint("client"));
    let t = DbTarget::new(ts.server.address(), 0, "events");
    for i in 0..25u8 {
        client.put(&t, &[b'e', i], b"x").unwrap();
    }
    // Page through with limit 10, resuming from the last key of each page —
    // exactly how HEPnOS iterates a container.
    let mut seen = Vec::new();
    let mut from = vec![b'e'];
    loop {
        let page = client.list_keys(&t, &from, b"e", 10).unwrap();
        if page.is_empty() {
            break;
        }
        from = page.last().unwrap().clone();
        seen.extend(page);
    }
    assert_eq!(seen.len(), 25);
    assert!(seen.windows(2).all(|w| w[0] < w[1]));
    ts.server.finalize();
}

#[test]
fn list_keyvals_and_databases() {
    let ts = setup(NetworkModel::default());
    let client = YokanClient::new(ts.fabric.endpoint("client"));
    let t = DbTarget::new(ts.server.address(), 0, "events");
    client.put(&t, b"p1", b"v1").unwrap();
    let kvs = client.list_keyvals(&t, b"", b"p", 0).unwrap();
    assert_eq!(kvs, vec![(b"p1".to_vec(), b"v1".to_vec())]);
    let dbs = client.list_databases(&ts.server.address(), 0).unwrap();
    assert_eq!(dbs, vec!["events".to_string(), "products".to_string()]);
    ts.server.finalize();
}

#[test]
fn works_with_lsm_backend_and_persists() {
    let dir = std::env::temp_dir().join(format!("yokan-e2e-lsm-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let fabric = Fabric::new(NetworkModel::default());
        let server =
            MargoInstance::new(fabric.endpoint("server"), Runtime::simple(2), "default").unwrap();
        let svc = YokanService::register(&server);
        svc.add_provider(&server, 0, "default").unwrap();
        svc.add_database(0, "events", Arc::new(LsmBackend::open(&dir).unwrap()));
        let client = YokanClient::new(fabric.endpoint("client"));
        let t = DbTarget::new(server.address(), 0, "events");
        for i in 0..200u32 {
            client
                .put(&t, format!("k{i:05}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        server.finalize();
    }
    // Reopen the backend directly: the data survived the service shutdown.
    let backend = LsmBackend::open(&dir).unwrap();
    use yokan::Backend;
    assert_eq!(backend.count().unwrap(), 200);
    assert_eq!(
        backend.get(b"k00042").unwrap(),
        Some(42u32.to_le_bytes().to_vec())
    );
    drop(backend);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_clients_hammer_one_provider() {
    let ts = setup(NetworkModel::default());
    let addr = ts.server.address();
    let mut threads = Vec::new();
    for c in 0..4u32 {
        let fabric = ts.fabric.clone();
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let client = YokanClient::new(fabric.endpoint(&format!("client{c}")));
            let t = DbTarget::new(addr, 0, "events");
            for i in 0..100u32 {
                let key = format!("c{c}-k{i}");
                client.put(&t, key.as_bytes(), &i.to_le_bytes()).unwrap();
            }
            for i in 0..100u32 {
                let key = format!("c{c}-k{i}");
                assert_eq!(
                    client.get(&t, key.as_bytes()).unwrap(),
                    Some(i.to_le_bytes().to_vec())
                );
            }
        }));
    }
    for th in threads {
        th.join().unwrap();
    }
    let client = YokanClient::new(ts.fabric.endpoint("verifier"));
    let t = DbTarget::new(ts.server.address(), 0, "events");
    assert_eq!(client.count(&t).unwrap(), 400);
    drop(ts.svc);
    ts.server.finalize();
}

#[test]
fn latency_model_applies_to_yokan_calls() {
    let ts = setup(NetworkModel {
        latency: std::time::Duration::from_millis(5),
        ..Default::default()
    });
    let client = YokanClient::new(ts.fabric.endpoint("client"));
    let t = DbTarget::new(ts.server.address(), 0, "events");
    let t0 = std::time::Instant::now();
    client.put(&t, b"k", b"v").unwrap();
    assert!(t0.elapsed() >= std::time::Duration::from_millis(10));
    ts.server.finalize();
    ts.fabric.stop();
}

#[test]
fn erase_multi_removes_batch() {
    let ts = setup(NetworkModel::default());
    let client = YokanClient::new(ts.fabric.endpoint("client"));
    let t = DbTarget::new(ts.server.address(), 0, "events");
    let keys: Vec<Vec<u8>> = (0..20u8).map(|i| vec![b'e', i]).collect();
    for k in &keys {
        client.put(&t, k, b"x").unwrap();
    }
    // Erase even keys plus one that never existed (idempotent).
    let mut to_erase: Vec<Vec<u8>> = keys.iter().step_by(2).cloned().collect();
    to_erase.push(b"ghost".to_vec());
    client.erase_multi(&t, &to_erase).unwrap();
    assert_eq!(client.count(&t).unwrap(), 10);
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(client.exists(&t, k).unwrap(), i % 2 == 1);
    }
    ts.server.finalize();
}

#[test]
fn exists_multi_and_large_get_multi() {
    let ts = setup(NetworkModel::default());
    let client = YokanClient::new(ts.fabric.endpoint("client"));
    let t = DbTarget::new(ts.server.address(), 0, "events");
    // 100 stored keys plus two absent ones, read in one batch each way.
    let mut pairs = Vec::new();
    for i in 0..100u32 {
        let k = i.to_be_bytes().to_vec();
        pairs.push((k, vec![i as u8; 8]));
    }
    client.put_multi(&t, &pairs).unwrap();
    let mut keys: Vec<Vec<u8>> = pairs.iter().map(|(k, _)| k.clone()).collect();
    keys.push(b"missing-1".to_vec());
    keys.push(b"missing-2".to_vec());
    let got = client.get_multi(&t, &keys).unwrap();
    assert_eq!(got.len(), 102);
    for (i, v) in got.iter().take(100).enumerate() {
        assert_eq!(v.as_deref(), Some(&[i as u8; 8][..]), "key {i}");
    }
    assert_eq!(got[100], None);
    assert_eq!(got[101], None);
    let found = client.exists_multi(&t, &keys).unwrap();
    assert_eq!(found.len(), 102);
    assert!(found[..100].iter().all(|&e| e));
    assert!(!found[100] && !found[101]);
    // A sub-batch answers the same as its slice of the large one.
    let small = client.exists_multi(&t, &keys[98..102]).unwrap();
    assert_eq!(small, vec![true, true, false, false]);
    ts.server.finalize();
}

/// Dual-read through every read entry point: a client reading database
/// "new" (provider 0) with database "old" (provider 1) installed as its
/// migration fallback. A key only on old is filled (or merged) from it and
/// counted once; a key on both sides reads the new owner's value and
/// counts nothing; a key on neither stays missing. Values are columnar
/// blobs so `filter` runs through the same table: an old-only key must
/// come back as `Ids`, not `Missing`.
#[test]
fn dual_read_fills_and_merges_on_every_read_entry_point() {
    use yokan::pages::{encode_columns, Column};
    use yokan::{FilterReply, Program};

    let ts = setup(NetworkModel::default());
    ts.svc.add_database(0, "new", Arc::new(MemBackend::new()));
    ts.svc.add_database(1, "old", Arc::new(MemBackend::new()));
    let new = DbTarget::new(ts.server.address(), 0, "new");
    let old = DbTarget::new(ts.server.address(), 1, "old");
    let client = YokanClient::new(ts.fabric.endpoint("client"));
    let blob = |ids: Vec<u64>| encode_columns(&[Column::U64(ids)], 8);
    let (new_blob, old_blob) = (blob(vec![1, 2]), blob(vec![10, 20]));
    client.put(&old, b"k-old", &old_blob).unwrap();
    client.put(&old, b"k-both", &old_blob).unwrap();
    client.put(&new, b"k-both", &new_blob).unwrap();
    client.install_dual_read("new", vec![old.clone()]);

    // Each entry point reports which side answered for `key`: "new" or
    // "old" for value-bearing reads, "present" for existence and key
    // listings, `None` for a miss.
    let side = |v: &[u8]| -> String {
        if v == new_blob.as_slice() {
            "new".into()
        } else if v == old_blob.as_slice() {
            "old".into()
        } else {
            format!("unexpected value {v:?}")
        }
    };
    let program = Program {
        id_column: 0,
        predicates: Vec::new(),
    };
    type Read<'a> = Box<dyn Fn(&[u8]) -> Option<String> + 'a>;
    let present = |found: bool| found.then(|| "present".to_string());
    let entry_points: Vec<(&str, Read)> = vec![
        (
            "get",
            Box::new(|k| client.get(&new, k).unwrap().map(|v| side(&v))),
        ),
        (
            "get_multi",
            Box::new(|k| {
                let mut vals = client.get_multi(&new, &[k.to_vec()]).unwrap();
                vals.pop().unwrap().map(|v| side(&v))
            }),
        ),
        (
            "exists",
            Box::new(|k| present(client.exists(&new, k).unwrap())),
        ),
        (
            "exists_multi",
            Box::new(|k| present(client.exists_multi(&new, &[k.to_vec()]).unwrap()[0])),
        ),
        (
            "list_keys",
            Box::new(|k| present(client.list_keys(&new, b"", k, 0).unwrap() == [k.to_vec()])),
        ),
        (
            "list_keys_async",
            Box::new(|k| {
                let page = client.list_keys_async(&new, b"", k, 0).wait().unwrap();
                present(page == [k.to_vec()])
            }),
        ),
        (
            "list_keyvals",
            Box::new(|k| {
                let page = client.list_keyvals(&new, b"", k, 0).unwrap();
                assert!(page.len() <= 1, "merged page repeats a key: {page:?}");
                page.first().map(|(_, v)| side(v))
            }),
        ),
        (
            "filter",
            Box::new(|k| {
                match client
                    .filter(&new, &program, &[k.to_vec()])
                    .unwrap()
                    .remove(0)
                {
                    FilterReply::Missing => None,
                    FilterReply::Ids { ids, .. } if ids == [1, 2] => Some("new".into()),
                    FilterReply::Ids { ids, .. } if ids == [10, 20] => Some("old".into()),
                    other => Some(format!("unexpected reply {other:?}")),
                }
            }),
        ),
    ];
    for (name, read) in &entry_points {
        let presence_only = name.starts_with("exists") || name.starts_with("list_keys");
        let found =
            |value_side: &str| Some(if presence_only { "present" } else { value_side }.to_string());
        let cases: [(&[u8], Option<String>, u64); 3] = [
            (b"k-old", found("old"), 1),
            (b"k-both", found("new"), 0),
            (b"k-none", None, 0),
        ];
        for (key, want, want_dual) in cases {
            let before = client.retry_stats().dual_reads;
            let got = read(key);
            let dual = client.retry_stats().dual_reads - before;
            let key = String::from_utf8_lossy(key);
            assert_eq!(got, want, "{name} of {key}");
            assert_eq!(dual, want_dual, "{name} of {key}: dual_reads delta");
        }
    }

    // Paging a merged listing: each page is the first `limit` keys of the
    // union after `from`, so interleaved sides page through in order.
    for (k, t) in [
        (b"p-a", &new),
        (b"p-b", &old),
        (b"p-c", &new),
        (b"p-d", &old),
    ] {
        client.put(t, k, b"x").unwrap();
    }
    let first = client.list_keys(&new, b"", b"p-", 2).unwrap();
    assert_eq!(first, [b"p-a".to_vec(), b"p-b".to_vec()]);
    let second = client.list_keys(&new, &first[1], b"p-", 2).unwrap();
    assert_eq!(second, [b"p-c".to_vec(), b"p-d".to_vec()]);
    assert!(client
        .list_keys(&new, &second[1], b"p-", 2)
        .unwrap()
        .is_empty());
    ts.server.finalize();
}

#[test]
fn put_if_absent_is_atomic_under_contention() {
    let ts = setup(NetworkModel::default());
    let addr = ts.server.address();
    // Many clients race to register the same key with distinct values;
    // exactly one value must win and every client must learn the winner.
    let winners: Vec<Option<Vec<u8>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8u8)
            .map(|c| {
                let fabric = ts.fabric.clone();
                let addr = addr.clone();
                scope.spawn(move || {
                    let client = YokanClient::new(fabric.endpoint(&format!("pia-{c}")));
                    let t = DbTarget::new(addr, 0, "events");
                    client.put_if_absent(&t, b"contended", &[c]).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let client = YokanClient::new(ts.fabric.endpoint("pia-check"));
    let t = DbTarget::new(ts.server.address(), 0, "events");
    let stored = client.get(&t, b"contended").unwrap().unwrap();
    // Exactly one caller inserted (saw None); all others saw the winner.
    let inserted = winners.iter().filter(|w| w.is_none()).count();
    assert_eq!(inserted, 1, "winners: {winners:?}");
    for w in winners.iter().flatten() {
        assert_eq!(w, &stored);
    }
    ts.server.finalize();
}

/// One mutation op of the mutation-path table, as a client issues it.
#[derive(Clone, Copy, Debug)]
enum MutCase {
    Put,
    PutIfAbsent,
    Erase,
    EraseMulti,
    PutMultiInline,
}

/// The live-migration state the source database is in when the op lands.
#[derive(Clone, Copy, Debug, PartialEq)]
enum MigState {
    /// No migration: the op is applied locally only.
    Steady,
    /// Every touched key lies in the frozen interval: shed `Busy`.
    Frozen,
    /// Some touched keys are handed off to a database on another node.
    RemoteHandoff,
    /// Some touched keys are handed off to a database on the same service,
    /// which has a chain successor on another node.
    ColocatedHandoff,
}

type Model = std::collections::BTreeMap<Vec<u8>, Vec<u8>>;

impl MutCase {
    const ALL: [MutCase; 5] = [
        MutCase::Put,
        MutCase::PutIfAbsent,
        MutCase::Erase,
        MutCase::EraseMulti,
        MutCase::PutMultiInline,
    ];

    fn multi(self) -> bool {
        matches!(self, MutCase::EraseMulti | MutCase::PutMultiInline)
    }

    /// Erases need something to erase; puts start from absent keys.
    fn seeds(self) -> bool {
        matches!(self, MutCase::Erase | MutCase::EraseMulti)
    }

    fn value(key: &[u8]) -> Vec<u8> {
        [key, b"=new"].concat()
    }

    /// Issue the op on `keys` through `client`.
    fn issue(self, client: &YokanClient, t: &DbTarget, keys: &[Vec<u8>]) -> Result<(), YokanError> {
        let pairs: Vec<_> = keys.iter().map(|k| (k.clone(), Self::value(k))).collect();
        match self {
            MutCase::Put => client.put(t, &keys[0], &Self::value(&keys[0])),
            MutCase::PutIfAbsent => {
                let prev = client.put_if_absent(t, &keys[0], &Self::value(&keys[0]))?;
                assert_eq!(prev, None, "put_if_absent on an absent key");
                Ok(())
            }
            MutCase::Erase => client.erase(t, &keys[0]),
            MutCase::EraseMulti => client.erase_multi(t, keys),
            MutCase::PutMultiInline => client.put_multi(t, &pairs),
        }
    }

    /// What the op does to a database holding `model`, restricted to `keys`.
    fn apply(self, model: &mut Model, keys: &[Vec<u8>]) {
        for k in keys {
            match self {
                MutCase::Erase | MutCase::EraseMulti => {
                    model.remove(k);
                }
                MutCase::PutIfAbsent => {
                    model.entry(k.clone()).or_insert_with(|| Self::value(k));
                }
                _ => {
                    model.insert(k.clone(), Self::value(k));
                }
            }
        }
    }
}

#[test]
fn mutation_path_table_every_op_in_every_migration_state() {
    use std::time::Duration;
    let fabric = Fabric::new(NetworkModel::default());
    let node = |name: &str| {
        let server =
            MargoInstance::new(fabric.endpoint(name), Runtime::simple(2), "default").unwrap();
        let svc = YokanService::register(&server);
        svc.add_provider(&server, 0, "default").unwrap();
        svc.add_provider(&server, 1, "default").unwrap();
        (server, svc)
    };
    // `src` serves the migrating database `data` (provider 0) and a
    // co-located destination `dest` (provider 1) whose chain successor is
    // `remote`'s provider 1; `remote`'s provider 0 is a plain remote
    // destination.
    let (src, src_svc) = node("src");
    let (remote, remote_svc) = node("remote");
    src_svc.add_database(0, "data", Arc::new(MemBackend::new()));
    src_svc.add_database(1, "dest", Arc::new(MemBackend::new()));
    remote_svc.add_database(0, "dest", Arc::new(MemBackend::new()));
    remote_svc.add_database(1, "dest", Arc::new(MemBackend::new()));
    let data = DbTarget::new(src.address(), 0, "data");
    let coloc = DbTarget::new(src.address(), 1, "dest");
    let rdest = DbTarget::new(remote.address(), 0, "dest");
    let succ = DbTarget::new(remote.address(), 1, "dest");
    src_svc.set_forward_routes(1, "dest", std::slice::from_ref(&succ));

    let client = YokanClient::new(fabric.endpoint("table-client"));
    let states = [
        MigState::Steady,
        MigState::Frozen,
        MigState::RemoteHandoff,
        MigState::ColocatedHandoff,
    ];
    for op in MutCase::ALL {
        for state in states {
            let prefix = format!("{op:?}/{state:?}/").into_bytes();
            let key = |s: &[u8]| [prefix.as_slice(), s].concat();
            let keys = if op.multi() {
                vec![key(b"a"), key(b"b"), key(b"c")]
            } else {
                vec![key(b"a")]
            };
            // For a batch, only some keys are handed off: the destination
            // must receive exactly that share, not foreign keys.
            let handed: Vec<Vec<u8>> = keys.iter().step_by(2).cloned().collect();
            let dbs = [&data, &coloc, &rdest, &succ];
            let mut seed = Model::new();
            if op.seeds() {
                for k in &keys {
                    seed.insert(k.clone(), b"old".to_vec());
                }
                for t in dbs {
                    for (k, v) in &seed {
                        client.put(t, k, v).unwrap();
                    }
                }
            }
            match state {
                MigState::Steady => {}
                MigState::Frozen => client
                    .migration_freeze(&data, &key(b""), &key(b"\xff"), Duration::from_millis(1))
                    .unwrap(),
                MigState::RemoteHandoff | MigState::ColocatedHandoff => {
                    let dest = if state == MigState::RemoteHandoff {
                        &rdest
                    } else {
                        &coloc
                    };
                    let entries: Vec<_> = handed.iter().map(|k| (k.clone(), 0)).collect();
                    client
                        .migration_handoff(&data, &[vec![dest.clone()]], &entries)
                        .unwrap();
                }
            }
            let before = src_svc.migration_stats();
            let res = op.issue(&client, &data, &keys);
            let after = src_svc.migration_stats();
            client.migration_complete(&data).unwrap();

            let mut full = seed.clone();
            op.apply(&mut full, &keys);
            let mut share = seed.clone();
            op.apply(&mut share, &handed);
            let expect: [&Model; 4] = match state {
                MigState::Steady => [&full, &seed, &seed, &seed],
                MigState::Frozen => [&seed, &seed, &seed, &seed],
                MigState::RemoteHandoff => [&full, &seed, &share, &seed],
                MigState::ColocatedHandoff => [&full, &share, &seed, &share],
            };
            let ctx = format!("{op:?} in state {state:?}");
            if state == MigState::Frozen {
                assert!(
                    matches!(res, Err(YokanError::Rpc(mercurio::RpcError::Busy { .. }))),
                    "{ctx}: expected a Busy shed, got {res:?}"
                );
                assert_eq!(after.frozen_rejects, before.frozen_rejects + 1, "{ctx}");
            } else {
                res.unwrap_or_else(|e| panic!("{ctx}: {e}"));
            }
            let dual_writes = after.forwarded_writes - before.forwarded_writes;
            let expect_dual =
                matches!(state, MigState::RemoteHandoff | MigState::ColocatedHandoff) as u64;
            assert_eq!(dual_writes, expect_dual, "{ctx}: dual-writes");
            for (t, want) in dbs.iter().zip(expect) {
                let show = |kvs: Vec<(Vec<u8>, Vec<u8>)>| -> Vec<String> {
                    kvs.iter()
                        .map(|(k, v)| format!("{}={}", k.escape_ascii(), v.escape_ascii()))
                        .collect()
                };
                let got = show(client.list_keyvals(t, b"", &prefix, 0).unwrap());
                let want = show(want.clone().into_iter().collect());
                assert_eq!(got, want, "{ctx}: {}@{}/{}", t.db, t.addr, t.provider_id);
            }
        }
    }
    src.finalize();
    remote.finalize();
}

#[test]
fn malformed_mutations_fail_and_release_their_dedup_slot() {
    use bytes::{BufMut, BytesMut};
    use mercurio::RpcId;
    use std::time::Duration;
    use yokan::PROVIDER_RPC_BASE;
    const PUT: u16 = PROVIDER_RPC_BASE;
    const PUT_MULTI: u16 = PROVIDER_RPC_BASE + 1;
    const GET: u16 = PROVIDER_RPC_BASE + 2;
    const REPL_FORWARD: u16 = PROVIDER_RPC_BASE + 14;
    const CLIENT: u64 = 0xBAD_F00D;

    fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
        buf.put_u32_le(b.len() as u32);
        buf.put_slice(b);
    }
    fn stamp(seq: u64) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_u64_le(CLIENT);
        buf.put_u64_le(seq);
        buf.put_u64_le(0);
        buf
    }
    /// A forward envelope with no remaining hops around `inner_op`.
    fn forward(seq: u64, inner_op: u16) -> BytesMut {
        let mut buf = stamp(seq);
        buf.put_u32_le(0);
        buf.put_u32_le(inner_op as u32);
        buf
    }

    let ts = setup(NetworkModel::default());
    let addr = ts.server.address();
    let ep = ts.fabric.endpoint("raw");
    let client = YokanClient::new(ts.fabric.endpoint("malformed-check"));
    let t = DbTarget::new(addr.clone(), 0, "events");
    let mut block = BytesMut::new();
    block.put_u32_le(1);
    put_bytes(&mut block, b"k");
    put_bytes(&mut block, b"v");
    let block = block.freeze();

    let mut cases: Vec<(&str, u16, BytesMut)> = Vec::new();
    let mut short = stamp(1);
    short.truncate(20);
    cases.push(("stamp shorter than 24 bytes", PUT, short));
    let mut bad_mode = stamp(2);
    put_bytes(&mut bad_mode, b"events");
    bad_mode.put_u8(7);
    bad_mode.put_slice(&block);
    cases.push(("unknown put mode", PUT_MULTI, bad_mode));
    // Mode 1 was the retired bulk mode. It is rejected for its mode byte
    // alone: the well-formed pair block after it is never read.
    let mut old_bulk = stamp(3);
    put_bytes(&mut old_bulk, b"events");
    old_bulk.put_u8(1);
    old_bulk.put_slice(&block);
    cases.push(("retired bulk mode from a client", PUT_MULTI, old_bulk));
    let mut fwd_bulk = forward(4, PUT_MULTI);
    put_bytes(&mut fwd_bulk, b"events");
    fwd_bulk.put_u8(1);
    fwd_bulk.put_slice(&block);
    cases.push(("retired bulk mode inside a forward", REPL_FORWARD, fwd_bulk));
    let mut nested = forward(5, REPL_FORWARD);
    nested.put_u32_le(0);
    nested.put_u32_le(PUT as u32);
    put_bytes(&mut nested, b"events");
    put_bytes(&mut nested, b"k");
    put_bytes(&mut nested, b"v");
    cases.push(("nested forward", REPL_FORWARD, nested));
    let mut read = forward(6, GET);
    put_bytes(&mut read, b"events");
    put_bytes(&mut read, b"k");
    cases.push(("non-mutation inner op", REPL_FORWARD, read));
    let mut bad_name = stamp(7);
    put_bytes(&mut bad_name, &[0xff, 0xfe]);
    put_bytes(&mut bad_name, b"k");
    put_bytes(&mut bad_name, b"v");
    cases.push(("non-UTF-8 database name", PUT, bad_name));
    let mut cut = stamp(8);
    put_bytes(&mut cut, b"events");
    cut.put_u8(0);
    cut.put_slice(&block[..block.len() - 1]);
    cases.push(("truncated pair block", PUT_MULTI, cut));

    for (seq, (what, op, payload)) in (1u64..).zip(cases) {
        let res = ep
            .call_async(&addr, RpcId(op), 0, payload.freeze())
            .wait_timeout(Duration::from_secs(10));
        assert!(res.is_err(), "{what}: accepted as {res:?}");
        assert_eq!(
            client.count(&t).unwrap(),
            seq - 1,
            "{what}: backend changed"
        );
        // The same stamp with a well-formed body is applied fresh: the
        // failed attempt released its dedup slot instead of caching it.
        let mut good = stamp(seq);
        put_bytes(&mut good, b"events");
        put_bytes(&mut good, &seq.to_le_bytes());
        put_bytes(&mut good, b"v");
        let resp = ep
            .call_async(&addr, RpcId(PUT), 0, good.freeze())
            .wait_timeout(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("{what}: well-formed resend failed: {e}"));
        assert_eq!(resp[0], 0, "{what}: resend not applied fresh");
        assert_eq!(client.count(&t).unwrap(), seq, "{what}");
    }
    ts.server.finalize();
}

/// A range-filter page's entries, owned.
fn filter_entries(page: &yokan::ScanPage) -> Vec<(Vec<u8>, yokan::FilterReply)> {
    (0..page.len())
        .map(|i| (page.key(i), page.reply(i).into()))
        .collect()
}

/// A value-scan page's entries, owned.
fn value_entries(page: &yokan::ScanPage) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..page.len())
        .map(|i| (page.key(i), page.value(i).to_vec()))
        .collect()
}

/// One range-filter scan paged `limit` kept keys at a time, resuming from
/// the last key of each page, until a short page ends the range.
fn filter_scan_all(
    client: &YokanClient,
    target: &DbTarget,
    scan: &yokan::FilterScan<'_>,
    limit: usize,
) -> Vec<(Vec<u8>, yokan::FilterReply)> {
    let mut out = Vec::new();
    let mut from = scan.prefix.to_vec();
    loop {
        let page = filter_entries(
            &client
                .filter_scan_async(target, scan, &from, limit)
                .wait()
                .unwrap(),
        );
        assert!(limit == 0 || page.len() <= limit, "page over its limit");
        let done = limit == 0 || page.len() < limit;
        if let Some((last, _)) = page.last() {
            from.clone_from(last);
        }
        out.extend(page);
        if done {
            return out;
        }
    }
}

#[test]
fn filter_scan_across_a_dual_read_split_equals_one_owner() {
    use yokan::pages::{encode_columns, Column};
    use yokan::{FilterReply, FilterScan, Program};

    let ts = setup(NetworkModel::default());
    ts.svc.add_database(0, "base", Arc::new(MemBackend::new()));
    ts.svc.add_database(0, "new", Arc::new(MemBackend::new()));
    ts.svc.add_database(1, "old", Arc::new(MemBackend::new()));
    let addr = ts.server.address();
    let (base, new, old) = (
        DbTarget::new(addr.clone(), 0, "base"),
        DbTarget::new(addr.clone(), 0, "new"),
        DbTarget::new(addr, 1, "old"),
    );
    let client = YokanClient::new(ts.fabric.endpoint("client"));
    let blob = |ids: Vec<u64>| encode_columns(&[Column::U64(ids)], 8);
    // Kept keys `ds/NNNNslc#…` interleaved with unkept `ds/NNNNsum#…`
    // keys and keys outside the prefix. Even keys live on the new owner,
    // odd ones on the old; key 5 is on both, stale on the old side.
    for i in 0..23u64 {
        let kept = format!("ds/{i:04}slc#col").into_bytes();
        let value = if i == 7 {
            b"opaque".to_vec()
        } else {
            blob(vec![i, 100 + i])
        };
        let owner = if i % 2 == 0 { &new } else { &old };
        for t in [&base, owner] {
            client.put(t, &kept, &value).unwrap();
            client
                .put(t, format!("ds/{i:04}sum#x").as_bytes(), b"-")
                .unwrap();
            client
                .put(t, format!("dt/{i:04}slc#col").as_bytes(), &value)
                .unwrap();
        }
    }
    client
        .put(&new, b"ds/0005slc#col", &blob(vec![5, 105]))
        .unwrap();
    client
        .put(&old, b"ds/0005slc#col", &blob(vec![0xdead]))
        .unwrap();
    client.install_dual_read("new", vec![old.clone()]);

    let program = Program {
        id_column: 0,
        predicates: Vec::new(),
    };
    let scan = FilterScan {
        program: &program,
        prefix: b"ds/",
        tag_offset: 7,
        tag: b"slc#",
    };
    let baseline = filter_scan_all(&client, &base, &scan, 0);
    assert_eq!(baseline.len(), 23);
    assert_eq!(baseline[7].1, FilterReply::NotColumnar);
    match &baseline[5].1 {
        FilterReply::Ids { ids, .. } => assert_eq!(ids, &[5, 105]),
        other => panic!("key 5 answered {other:?}"),
    }
    for limit in [0, 1, 4, 5, 23, 64] {
        let before = client.retry_stats().dual_reads;
        let split = filter_scan_all(&client, &new, &scan, limit);
        assert!(split == baseline, "limit {limit}: split scan differs");
        assert!(
            client.retry_stats().dual_reads > before,
            "limit {limit}: the old owner answered nothing"
        );
    }
    ts.server.finalize();
}

#[test]
fn malformed_filter_scans_fail_and_the_provider_keeps_serving() {
    use bytes::{BufMut, BytesMut};
    use mercurio::RpcId;
    use std::time::Duration;
    use yokan::pages::{encode_columns, Column};
    use yokan::{FilterScan, Program, PROVIDER_RPC_BASE};
    const FILTER_SCAN: u16 = PROVIDER_RPC_BASE + 20;

    fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
        buf.put_u32_le(b.len() as u32);
        buf.put_slice(b);
    }
    fn request(program: &[u8], tag_offset: u32, tag: &[u8]) -> BytesMut {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, b"products");
        put_bytes(&mut buf, program);
        put_bytes(&mut buf, b"");
        put_bytes(&mut buf, b"k");
        buf.put_u32_le(tag_offset);
        put_bytes(&mut buf, tag);
        buf.put_u32_le(0);
        buf
    }

    let ts = setup(NetworkModel::default());
    let addr = ts.server.address();
    let ep = ts.fabric.endpoint("raw");
    let client = YokanClient::new(ts.fabric.endpoint("scan-check"));
    let t = DbTarget::new(addr.clone(), 0, "products");
    let blob = encode_columns(&[Column::U64(vec![1, 2, 3])], 8);
    client.put(&t, b"k1#a", &blob).unwrap();
    client.put(&t, b"k2#b", &blob).unwrap();
    let program = Program {
        id_column: 0,
        predicates: Vec::new(),
    };
    let program_bytes = program.to_bytes();

    let mut truncated = request(&program_bytes, 2, b"#");
    truncated.truncate(truncated.len() - 2);
    let cases = [
        ("truncated request", truncated),
        ("bad program", request(&program_bytes[..3], 2, b"#")),
        (
            "tag past every key",
            request(&program_bytes, u32::MAX, b"#"),
        ),
    ];
    let scan = FilterScan {
        program: &program,
        prefix: b"k",
        tag_offset: 2,
        tag: b"#",
    };
    for (what, payload) in cases {
        let res = ep
            .call_async(&addr, RpcId(FILTER_SCAN), 0, payload.freeze())
            .wait_timeout(Duration::from_secs(10));
        match res.map_err(YokanError::from) {
            Err(YokanError::Protocol(_)) => {}
            other => panic!("{what}: answered {other:?}, expected a protocol error"),
        }
        // The provider keeps serving: a well-formed scan still answers.
        let page = client.filter_scan_async(&t, &scan, b"", 0).wait().unwrap();
        assert_eq!(page.len(), 2, "{what}: provider stopped serving");
    }
    // A tag window past every *stored* key is well formed; it keeps nothing.
    let past = FilterScan {
        tag_offset: 1 << 20,
        ..scan
    };
    assert!(client
        .filter_scan_async(&t, &past, b"", 0)
        .wait()
        .unwrap()
        .is_empty());
    ts.server.finalize();
}

/// A stored value under a kept key that is a columnar blob in name only —
/// its header states more rows than its bytes can hold — fails the filter
/// RPCs that read it with a protocol error, sizes nothing from the stated
/// counts, and leaves the provider serving.
#[test]
fn malformed_columnar_values_fail_filters_and_the_provider_keeps_serving() {
    use yokan::pages::{encode_columns, Column, PAGE_MAGIC};
    use yokan::{FilterReply, FilterScan, Program};

    // One u64 column; `n_rows` rows in pages of `page_rows`, and when
    // `body` is set one first page whose body is that one byte.
    let stating = |n_rows: u32, page_rows: u32, body: Option<u8>| {
        let mut b = PAGE_MAGIC.to_vec();
        b.extend_from_slice(&1u16.to_le_bytes());
        b.extend_from_slice(&n_rows.to_le_bytes());
        b.extend_from_slice(&page_rows.to_le_bytes());
        b.push(0);
        if let Some(byte) = body {
            b.extend_from_slice(&[0u8; 17]);
            b.extend_from_slice(&1u32.to_le_bytes());
            b.push(byte);
        }
        b
    };
    let malformed = [
        stating(u32::MAX, 1, None),
        stating(u32::MAX, u32::MAX, Some(0)),
    ];
    assert_eq!((malformed[0].len(), malformed[1].len()), (15, 37));

    let ts = setup(NetworkModel::default());
    let client = YokanClient::new(ts.fabric.endpoint("client"));
    let t = DbTarget::new(ts.server.address(), 0, "products");
    let good = encode_columns(&[Column::U64(vec![1, 2, 3])], 8);
    client.put(&t, b"a1#c", &good).unwrap();
    client.put(&t, b"a2#c", &good).unwrap();
    let program = Program {
        id_column: 0,
        predicates: Vec::new(),
    };
    let scan = |prefix| FilterScan {
        program: &program,
        prefix,
        tag_offset: 2,
        tag: b"#",
    };
    for value in &malformed {
        client.put(&t, b"b1#c", value).unwrap();
        match client.filter_scan_async(&t, &scan(b""), b"", 0).wait() {
            Err(YokanError::Protocol(_)) => {}
            other => panic!("range filter answered {other:?}, expected a protocol error"),
        }
        match client.filter(&t, &program, &[b"b1#c".to_vec()]) {
            Err(YokanError::Protocol(_)) => {}
            other => panic!("per-key filter answered {other:?}, expected a protocol error"),
        }
        // The provider keeps serving the well-formed values.
        let page = client
            .filter_scan_async(&t, &scan(b"a"), b"", 0)
            .wait()
            .unwrap();
        assert_eq!(page.len(), 2);
        assert!(filter_entries(&page)
            .iter()
            .all(|(_, r)| matches!(r, FilterReply::Ids { ids, .. } if ids == &[1, 2, 3])));
    }
    client.erase(&t, b"b1#c").unwrap();
    assert_eq!(
        client
            .filter_scan_async(&t, &scan(b""), b"", 0)
            .wait()
            .unwrap()
            .len(),
        2
    );
    ts.server.finalize();
}

/// One value scan paged `limit` kept keys at a time, resuming from the
/// last key of each page, until a short page ends the range.
fn value_scan_all(
    client: &YokanClient,
    target: &DbTarget,
    scan: &yokan::ValueScan<'_>,
    limit: usize,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    let mut from = scan.prefix.to_vec();
    loop {
        let page = value_entries(
            &client
                .value_scan_async(target, scan, &from, limit)
                .wait()
                .unwrap(),
        );
        assert!(limit == 0 || page.len() <= limit, "page over its limit");
        let done = limit == 0 || page.len() < limit;
        if let Some((last, _)) = page.last() {
            from.clone_from(last);
        }
        out.extend(page);
        if done {
            return out;
        }
    }
}

/// Kept keys `ds/NNNNslc#col` among keys the scan walks past: a longer
/// type name the tag only begins (`slc#colx`), another label (`sum#x`),
/// and keys outside the prefix.
fn value_scan_keys(i: u64) -> [(String, bool); 4] {
    [
        (format!("ds/{i:04}slc#col"), true),
        (format!("ds/{i:04}slc#colx"), false),
        (format!("ds/{i:04}sum#x"), false),
        (format!("dt/{i:04}slc#col"), false),
    ]
}

#[test]
fn value_scan_across_a_dual_read_split_equals_one_owner() {
    use yokan::ValueScan;

    let ts = setup(NetworkModel::default());
    ts.svc.add_database(0, "base", Arc::new(MemBackend::new()));
    ts.svc.add_database(0, "new", Arc::new(MemBackend::new()));
    ts.svc.add_database(1, "old", Arc::new(MemBackend::new()));
    let addr = ts.server.address();
    let (base, new, old) = (
        DbTarget::new(addr.clone(), 0, "base"),
        DbTarget::new(addr.clone(), 0, "new"),
        DbTarget::new(addr, 1, "old"),
    );
    let client = YokanClient::new(ts.fabric.endpoint("client"));
    // Even keys live on the new owner, odd ones on the old; key 5 is on
    // both, stale on the old side.
    for i in 0..23u64 {
        let owner = if i % 2 == 0 { &new } else { &old };
        for (key, _) in value_scan_keys(i) {
            let value = format!("{key}={i}").into_bytes();
            for t in [&base, owner] {
                client.put(t, key.as_bytes(), &value).unwrap();
            }
        }
    }
    client
        .put(&new, b"ds/0005slc#col", b"ds/0005slc#col=5")
        .unwrap();
    client.put(&old, b"ds/0005slc#col", b"stale").unwrap();
    client.install_dual_read("new", vec![old.clone()]);

    let scan = ValueScan {
        prefix: b"ds/",
        tag_offset: 7,
        tag: b"slc#col",
    };
    let baseline = value_scan_all(&client, &base, &scan, 0);
    let want: Vec<(Vec<u8>, Vec<u8>)> = (0..23u64)
        .map(|i| {
            let key = format!("ds/{i:04}slc#col");
            let value = format!("{key}={i}").into_bytes();
            (key.into_bytes(), value)
        })
        .collect();
    assert_eq!(baseline, want, "one owner returned other keys or values");
    for limit in [0, 1, 4, 23] {
        let before = client.retry_stats().dual_reads;
        let split = value_scan_all(&client, &new, &scan, limit);
        assert!(split == baseline, "limit {limit}: split scan differs");
        assert!(
            client.retry_stats().dual_reads > before,
            "limit {limit}: the old owner answered nothing"
        );
    }
    ts.server.finalize();
}

#[test]
fn value_scan_pages_resume_from_the_last_key_returned() {
    use yokan::ValueScan;

    let ts = setup(NetworkModel::default());
    let t = DbTarget::new(ts.server.address(), 0, "products");
    let client = YokanClient::new(ts.fabric.endpoint("client"));
    for i in 0..10u64 {
        for (key, _) in value_scan_keys(i) {
            client.put(&t, key.as_bytes(), &i.to_le_bytes()).unwrap();
        }
    }
    let scan = ValueScan {
        prefix: b"ds/",
        tag_offset: 7,
        tag: b"slc#col",
    };
    let page = |from: &[u8]| -> Vec<(String, u64)> {
        let page = client.value_scan_async(&t, &scan, from, 4).wait().unwrap();
        (value_entries(&page).into_iter())
            .map(|(k, v)| {
                let v = u64::from_le_bytes(v[..].try_into().unwrap());
                (String::from_utf8(k).unwrap(), v)
            })
            .collect()
    };
    let kept = |range: std::ops::Range<u64>| -> Vec<(String, u64)> {
        range.map(|i| (format!("ds/{i:04}slc#col"), i)).collect()
    };
    assert_eq!(page(b"ds/"), kept(0..4));
    // Resuming from the last key returned skips the walked-past keys
    // between it and the next kept one.
    assert_eq!(page(b"ds/0003slc#col"), kept(4..8));
    assert_eq!(page(b"ds/0007slc#col"), kept(8..10));
    // Resuming from a key the scan walked past, not one it returned.
    assert_eq!(page(b"ds/0004slc#colx"), kept(5..9));
    assert!(page(b"ds/0009slc#col").is_empty());
    ts.server.finalize();
}

#[test]
fn value_scan_with_a_bad_program_fails_and_the_provider_keeps_serving() {
    use bytes::{BufMut, BytesMut};
    use mercurio::RpcId;
    use std::time::Duration;
    use yokan::{ValueScan, PROVIDER_RPC_BASE};
    const FILTER_SCAN: u16 = PROVIDER_RPC_BASE + 20;

    fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
        buf.put_u32_le(b.len() as u32);
        buf.put_slice(b);
    }

    let ts = setup(NetworkModel::default());
    let addr = ts.server.address();
    let ep = ts.fabric.endpoint("raw");
    let client = YokanClient::new(ts.fabric.endpoint("scan-check"));
    let t = DbTarget::new(addr.clone(), 0, "products");
    client.put(&t, b"k1#a", b"one").unwrap();
    client.put(&t, b"k2#a", b"two").unwrap();
    client.put(&t, b"k3#ab", b"three").unwrap();
    let scan = ValueScan {
        prefix: b"k",
        tag_offset: 2,
        tag: b"#a",
    };
    // Non-empty programs no decoder accepts: one byte, and three.
    for program in [&b"\x01"[..], b"\x00\x00\x00"] {
        let mut payload = BytesMut::new();
        put_bytes(&mut payload, b"products");
        put_bytes(&mut payload, program);
        put_bytes(&mut payload, b"");
        put_bytes(&mut payload, scan.prefix);
        payload.put_u32_le(scan.tag_offset);
        put_bytes(&mut payload, scan.tag);
        payload.put_u32_le(0);
        let res = ep
            .call_async(&addr, RpcId(FILTER_SCAN), 0, payload.freeze())
            .wait_timeout(Duration::from_secs(10));
        match res.map_err(YokanError::from) {
            Err(YokanError::Protocol(_)) => {}
            other => panic!("program {program:?}: answered {other:?}, expected a protocol error"),
        }
        // The provider keeps serving the value form.
        let page = client.value_scan_async(&t, &scan, b"", 0).wait().unwrap();
        assert_eq!(
            value_entries(&page),
            vec![
                (b"k1#a".to_vec(), b"one".to_vec()),
                (b"k2#a".to_vec(), b"two".to_vec())
            ],
            "program {program:?}: provider stopped serving"
        );
    }
    ts.server.finalize();
}
