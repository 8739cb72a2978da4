//! HEPnOS over the TCP transport: the multi-process deployment path works
//! end to end through real sockets, including descriptor exchange as JSON
//! and batched writes (each batch inline in one `put_multi` request).

use bedrock::{BackendKind, ConnectionDescriptor, DbCounts, ServiceConfig};
use hepnos::{DataStore, ProductLabel, WriteBatch};
use mercurio::tcp::TcpEndpoint;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Blob {
    payload: Vec<u8>,
}

fn tcp_counts() -> DbCounts {
    DbCounts {
        datasets: 1,
        runs: 1,
        subruns: 1,
        events: 2,
        products: 2,
    }
}

#[test]
fn full_flow_over_tcp_sockets() {
    let server_ep = TcpEndpoint::bind(0).unwrap();
    let cfg = ServiceConfig::hepnos_topology(tcp_counts(), BackendKind::Map, None);
    let server = bedrock::launch(server_ep, &cfg).unwrap();
    // Descriptor crosses "process" boundary as JSON.
    let json = serde_json::to_string(server.descriptor()).unwrap();
    let descriptor: ConnectionDescriptor = serde_json::from_str(&json).unwrap();

    let client_ep = TcpEndpoint::bind(0).unwrap();
    let store = DataStore::connect(client_ep, &[descriptor]).unwrap();
    let ds = store.root().create_dataset("tcp").unwrap();
    let sr = ds.create_run(9).unwrap().create_subrun(1).unwrap();
    let label = ProductLabel::new("blob").unwrap();
    // Large product: exercises the socket path with a ~1 MB payload.
    let big = Blob {
        payload: (0..1_000_000u32).map(|i| i as u8).collect(),
    };
    let ev = sr.create_event(5).unwrap();
    ev.store(&label, &big).unwrap();
    let back: Blob = ev.load(&label).unwrap().unwrap();
    assert_eq!(back, big);
    // Batched creation: whole batches inline over TCP.
    let uuid = ds.uuid().unwrap();
    let mut batch = WriteBatch::new(&store);
    for e in 100..400u64 {
        let ev = batch.create_event(&sr, &uuid, e).unwrap();
        batch
            .store(
                &ev,
                &label,
                &Blob {
                    payload: vec![e as u8; 128],
                },
            )
            .unwrap();
    }
    batch.flush().unwrap();
    assert_eq!(sr.events().unwrap().len(), 301);
    // Spot-check a batched product.
    let ev = sr.event(250).unwrap();
    let b: Blob = ev.load(&label).unwrap().unwrap();
    assert_eq!(b.payload, vec![250u8; 128]);
    server.shutdown();
}

#[test]
fn two_tcp_server_nodes() {
    let cfg = ServiceConfig::hepnos_topology(tcp_counts(), BackendKind::Map, None);
    let s1 = bedrock::launch(TcpEndpoint::bind(0).unwrap(), &cfg).unwrap();
    let s2 = bedrock::launch(TcpEndpoint::bind(0).unwrap(), &cfg).unwrap();
    let descriptors = vec![s1.descriptor().clone(), s2.descriptor().clone()];
    let store = DataStore::connect(TcpEndpoint::bind(0).unwrap(), &descriptors).unwrap();
    assert_eq!(store.num_event_databases(), 4);
    let ds = store.root().create_dataset("two-node").unwrap();
    let run = ds.create_run(1).unwrap();
    for s in 0..12u64 {
        run.create_subrun(s).unwrap().create_event(0).unwrap();
    }
    // A second, fresh client sees everything (placement agreement over TCP).
    let store2 = DataStore::connect(TcpEndpoint::bind(0).unwrap(), &descriptors).unwrap();
    let run2 = store2.dataset("two-node").unwrap().run(1).unwrap();
    assert_eq!(run2.subruns().unwrap().len(), 12);
    s1.shutdown();
    s2.shutdown();
}

#[test]
fn parallel_event_processor_over_tcp() {
    use hepnos::{ParallelEventProcessor, PepOptions, WriteBatch};
    let cfg = ServiceConfig::hepnos_topology(tcp_counts(), BackendKind::Map, None);
    let server = bedrock::launch(TcpEndpoint::bind(0).unwrap(), &cfg).unwrap();
    let descriptors = vec![server.descriptor().clone()];
    let store = DataStore::connect(TcpEndpoint::bind(0).unwrap(), &descriptors).unwrap();
    let ds = store.root().create_dataset("pep-tcp").unwrap();
    let uuid = ds.uuid().unwrap();
    let label = ProductLabel::new("payload").unwrap();
    let run = ds.create_run(1).unwrap();
    for s in 0..4u64 {
        let sr = run.create_subrun(s).unwrap();
        let mut batch = WriteBatch::new(&store);
        for e in 0..50u64 {
            let ev = batch.create_event(&sr, &uuid, e).unwrap();
            batch.store(&ev, &label, &vec![e as u32; 4]).unwrap();
        }
        batch.flush().unwrap();
    }
    let pep = ParallelEventProcessor::new(
        store.clone(),
        PepOptions {
            num_workers: 3,
            load_batch_size: 64,
            dispatch_batch_size: 16,
            prefetch: vec![(label.clone(), "Vec<u32>".to_string())],
            ..Default::default()
        },
    );
    let processed = parking_lot::Mutex::new(0u64);
    let stats = pep
        .process(&ds, |_w, pe| {
            let v: Vec<u32> = pe.load(&label).unwrap().unwrap();
            assert_eq!(v, vec![pe.event().number() as u32; 4]);
            *processed.lock() += 1;
        })
        .unwrap();
    assert_eq!(stats.total_events, 200);
    assert_eq!(*processed.lock(), 200);
    server.shutdown();
}
