//! `yokan` — a remotely-accessible, single-node key-value storage component,
//! modeled after Mochi's [Yokan].
//!
//! Yokan is the storage heart of HEPnOS (paper §II-B): each server node runs
//! a set of Yokan *providers*, each serving one or more *databases* backed
//! either by memory (`std::map`) or by a persistent engine (RocksDB). The
//! original moves large batches by RDMA; here every request, batches
//! included, carries its data inline in the RPC. Keys are sorted, and
//! iteration primitives (`list_keys` / `list_keyvals` with a lower bound and
//! prefix) are what HEPnOS builds its container hierarchy on.
//!
//! This crate provides:
//!
//! * [`Backend`] — the storage abstraction, with [`MemBackend`]
//!   (`std::map` analogue) and [`LsmBackend`] (RocksDB analogue, backed by
//!   our [`lsmdb`] engine);
//! * [`YokanService`] — the server side: registers the RPC handlers on a
//!   [`margo::MargoInstance`] and routes `(provider_id, db_name)` to
//!   backends;
//! * [`YokanClient`] / [`DbTarget`] — the client side, offering single and
//!   batched operations.
//!
//! [Yokan]: https://mochi.readthedocs.io/en/latest/yokan.html

#![warn(missing_docs)]

mod backend;
mod client;
mod encoding;
mod error;
pub mod filter;
pub mod pages;
pub mod replica;
mod retry;
mod scan;
mod service;

pub use backend::{Backend, BackendStats, LsmBackend, MemBackend, WatermarkConfig};
pub use client::{
    DbTarget, FilterScan, PendingListKeys, PendingPage, PendingPut, ValueScan, YokanClient,
};
pub use error::YokanError;
pub use filter::{FilterOutput, Predicate, Program};
pub use pages::{Column, PageReader};
pub use replica::{build_chains, resync_replicas, ForwardParams, ForwardStats, ResyncStats};
pub use retry::{RetryPolicy, RetryStats};
pub use scan::{FilterReply, FilterView, ScanPage, SurvivorIds};
pub use service::{MigrationStats, YokanService, PROVIDER_RPC_BASE};
