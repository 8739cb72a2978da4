//! `mercurio` — an RPC framework modeled after [Mercury].
//!
//! Mercury provides the communication layer of the Mochi stack: registered
//! RPCs addressed by id, small payloads inlined in the RPC message, and
//! *bulk* handles through which large payloads are pulled over RDMA. Neither
//! transport here has one-sided RDMA, so this crate has no bulk handles:
//! every payload, batches included, travels inline in its RPC frame, and a
//! server never calls back into its client to fetch a request's data.
//!
//! This crate rebuilds that layer in safe Rust (the paper's stack has no Rust
//! bindings):
//!
//! * [`Endpoint`] — the common API: register handlers, issue blocking or
//!   asynchronous calls.
//! * One transport-independent RPC core behind every endpoint: handlers,
//!   executor and admission control, request ids and pending calls with
//!   deadlines, traffic counters and [`fault`] injection.
//!   A transport only moves frames between endpoints.
//! * [`local`] — an in-process transport routed through a shared
//!   [`local::Fabric`], governed by a configurable [`NetworkModel`]
//!   (per-message latency and a per-NIC *injection bandwidth* token bucket
//!   that can be configured to fail when oversaturated — reproducing the
//!   Cray Aries NIC failure mode reported in the paper's evaluation §IV-E).
//! * [`tcp`] — a real TCP transport (length-prefixed frames) for
//!   multi-process deployments.
//!
//! Handlers run wherever the installed [`Executor`] puts them; Margo installs
//! an executor that pushes each request into the argos pool of the target
//! provider, reproducing Mochi's decoupling of RPC execution resources from
//! the data resources the RPC touches.
//!
//! [Mercury]: https://mercury-hpc.github.io
//!
//! # Example
//!
//! ```
//! use mercurio::{local::Fabric, Endpoint, RpcId};
//! use bytes::Bytes;
//!
//! let fabric = Fabric::new(Default::default());
//! let server = fabric.endpoint("server");
//! let client = fabric.endpoint("client");
//! server.register(RpcId(7), std::sync::Arc::new(|req: mercurio::Request| {
//!     let n = u64::from_le_bytes(req.payload[..8].try_into().unwrap());
//!     Ok(bytes::Bytes::copy_from_slice(&(n * 2).to_le_bytes()))
//! }));
//! let reply = client
//!     .call(&server.address(), RpcId(7), 0, bytes::Bytes::copy_from_slice(&21u64.to_le_bytes()))
//!     .unwrap();
//! assert_eq!(u64::from_le_bytes(reply[..8].try_into().unwrap()), 42);
//! ```

#![warn(missing_docs)]

mod core;
mod endpoint;
mod error;
pub mod fault;
#[cfg(test)]
mod harness;
pub mod local;
mod model;
pub mod tcp;
mod wire;

pub use endpoint::{
    Admission, AdmissionControl, Endpoint, EndpointStats, Executor, PendingResponse, Request,
    RpcHandler,
};
pub use error::RpcError;
pub use fault::{FaultAction, FaultConfig, FaultDecision, FaultEvent, FaultPlan, FrameDirection};
pub use model::NetworkModel;
pub use wire::RpcId;
