//! `hepnos` — the High Energy Physics new Object Store.
//!
//! This crate is a from-scratch Rust reproduction of the system described in
//! *"HEPnOS: a Specialized Data Service for High Energy Physics Analysis"*
//! (IPPS 2023). HEPnOS lets HEP workflows share a dataset at **event**
//! granularity instead of **file** granularity: data lives in a distributed
//! set of key-value databases (our [`yokan`] substitute over [`mercurio`]
//! RPC), organized as a hierarchy of *datasets*, *runs*, *subruns* and
//! *events*, each of which can carry typed *products* (serialized objects).
//!
//! The key design points carried over from the paper (§II):
//!
//! * **Key encoding** — dataset paths map to UUIDs in dedicated databases;
//!   runs/subruns/events are identified by big-endian numbers appended to
//!   their parent's key, so lexicographic database order equals numeric
//!   order ([`keys`]).
//! * **Placement** — a container's key lives on the database selected by
//!   hashing its *parent's* key, so iterating a container's children touches
//!   exactly one database; products are placed by their parent container's
//!   key, enabling batched product reads ([`placement`]).
//! * **Batching** — [`WriteBatch`] accumulates updates grouped per target
//!   database and flushes them as `put_multi` RPCs; [`AsyncWriteBatch`]
//!   issues the flushes in the background via [`argos`] tasks (§II-D).
//! * **Parallel event processing** — [`ParallelEventProcessor`] gives a
//!   group of workers load-balanced, prefetched iteration over the events of
//!   a dataset: designated readers pull event batches (default 16384) from
//!   each event database and feed a shared queue drained in small dispatch
//!   batches (default 64) (§II-D, §IV-D).
//!
//! # Quickstart
//!
//! ```
//! use hepnos::{DataStore, ProductLabel};
//! use serde::{Serialize, Deserialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct Particle { x: f32, y: f32, z: f32 }
//!
//! // An in-process deployment: 1 server node, in-memory backends.
//! let deployment = hepnos::testing::local_deployment(1, Default::default());
//! let datastore = deployment.datastore();
//!
//! let ds = datastore.root().create_dataset("fermilab/nova").unwrap();
//! let run = ds.create_run(43).unwrap();
//! let subrun = run.create_subrun(56).unwrap();
//! let event = subrun.create_event(25).unwrap();
//!
//! let vp = vec![Particle { x: 1.0, y: 2.0, z: 3.0 }];
//! event.store(&ProductLabel::new("mylabel").unwrap(), &vp).unwrap();
//! let loaded: Vec<Particle> = event.load(&ProductLabel::new("mylabel").unwrap()).unwrap().unwrap();
//! assert_eq!(loaded, vp);
//!
//! for subrun in run.subruns().unwrap() {
//!     assert_eq!(subrun.number(), 56);
//! }
//! # deployment.shutdown();
//! ```

#![warn(missing_docs)]

mod batch;
pub mod binser;
mod datastore;
mod error;
pub mod keys;
mod pep;
pub mod placement;
pub mod rescale;
pub mod testing;
mod uuid;

pub use batch::{AsyncWriteBatch, BatchStats, WriteBatch};
pub use datastore::{DataSet, DataStore, Event, ProductLabel, Run, SubRun, LIST_PAGE};
pub use error::HepnosError;
pub use keys::{EventNumber, RunNumber, SubRunNumber};
pub use pep::{
    EventDescriptor, ParallelEventProcessor, PepOptions, PepStatistics, PrefetchedEvent,
    ReaderStats, WorkerStats,
};
pub use uuid::Uuid;
pub use yokan::{RetryPolicy, RetryStats};
