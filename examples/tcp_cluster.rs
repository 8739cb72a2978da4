//! HEPnOS over real TCP sockets: the multi-process deployment path.
//!
//! The paper runs servers and clients as separate MPI programs; the Rust
//! reproduction's equivalent is endpoints on the TCP transport. This
//! example boots a server on a real socket and talks to it through a
//! separate TCP endpoint — the same code works across actual processes or
//! hosts by exchanging the connection descriptor as JSON.
//!
//! Run: `cargo run --example tcp_cluster`

use bedrock::{BackendKind, DbCounts, ServiceConfig};
use hepnos::{DataStore, ProductLabel};
use mercurio::tcp::TcpEndpoint;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Hit {
    plane: u16,
    cell: u16,
    adc: u32,
}

fn main() {
    // --- server side (would be its own process in production) ---
    let server_ep = TcpEndpoint::bind(0).expect("bind server socket");
    let counts = DbCounts {
        datasets: 1,
        runs: 1,
        subruns: 1,
        events: 2,
        products: 2,
    };
    let config = ServiceConfig::hepnos_topology(counts, BackendKind::Map, None);
    let server = bedrock::launch(server_ep, &config).expect("server bootstrap");
    // The descriptor is plain JSON — this is what a job script would write
    // to a shared file for the clients.
    let descriptor_json = serde_json::to_string_pretty(server.descriptor()).unwrap();
    println!(
        "server up at {}\ndescriptor:\n{descriptor_json}\n",
        server.address()
    );

    // --- client side ---
    let client_ep = TcpEndpoint::bind(0).expect("bind client socket");
    let descriptor = serde_json::from_str(&descriptor_json).expect("descriptor parses");
    let store = DataStore::connect(client_ep, &[descriptor]).expect("connect over tcp");

    let ds = store.root().create_dataset("tcp/demo").unwrap();
    let ev = ds
        .create_run(1)
        .unwrap()
        .create_subrun(2)
        .unwrap()
        .create_event(3)
        .unwrap();
    let hits = vec![
        Hit {
            plane: 1,
            cell: 10,
            adc: 512,
        },
        Hit {
            plane: 2,
            cell: 20,
            adc: 760,
        },
    ];
    let label = ProductLabel::new("hits").unwrap();
    ev.store(&label, &hits).unwrap();
    let back: Vec<Hit> = ev.load(&label).unwrap().unwrap();
    assert_eq!(back, hits);
    println!("stored and loaded {} hits over TCP sockets", back.len());

    // Batched writes also cross the socket, each batch inline in one RPC.
    let sr = ds.run(1).unwrap().subrun(2).unwrap();
    let uuid = ds.uuid().unwrap();
    let mut batch = hepnos::WriteBatch::new(&store);
    for e in 10..110u64 {
        let ev = batch.create_event(&sr, &uuid, e).unwrap();
        batch
            .store(
                &ev,
                &label,
                &vec![
                    Hit {
                        plane: 0,
                        cell: e as u16,
                        adc: 1
                    };
                    4
                ],
            )
            .unwrap();
    }
    batch.flush().unwrap();
    println!(
        "batched 100 events + products in {} RPCs",
        batch.flush_rpcs()
    );
    assert_eq!(sr.events().unwrap().len(), 101);

    server.shutdown();
    println!("done");
}
