//! `argos` — a user-level tasking runtime modeled after [Argobots].
//!
//! The HEPnOS paper builds on Argobots for threading and tasking: *execution
//! streams* (OS-level threads, "xstreams") run *schedulers* over *pools* of
//! *user-level threads/tasks* (ULTs), and higher layers (Margo, Yokan
//! providers) are mapped onto specific pools to decouple the compute
//! resources that execute an RPC from the data resources the RPC acts on.
//!
//! This crate reproduces that programming model in safe Rust:
//!
//! * [`Pool`] — a thread-safe FIFO work queue; pools are how work is
//!   *placed*, not ordered.
//! * [`ExecutionStream`] — an OS thread running a scheduler loop over one or
//!   more pools.
//! * [`Eventual`] — a one-shot, thread-safe future used for task completion
//!   and RPC responses (the analogue of `ABT_eventual`).
//! * [`Runtime`] — owns named pools and xstreams and tears them down in
//!   order, the analogue of `ABT_init`/`ABT_finalize`.
//!
//! **Substitution note** (see `DESIGN.md`): Argobots ULTs are stackful
//! coroutines that can suspend mid-execution. Our tasks are run-to-completion
//! closures executed on xstream threads; blocking on an [`Eventual`] parks
//! the underlying OS thread. Because HEPnOS configures roughly one xstream
//! per provider and uses pools primarily for *placement* (which resources
//! execute which RPC), this preserves the observable scheduling behaviour
//! while remaining entirely safe Rust.
//!
//! [Argobots]: https://www.argobots.org
//!
//! # Example
//!
//! ```
//! use argos::Runtime;
//!
//! let rt = Runtime::builder()
//!     .pool("work")
//!     .xstream("es0", &["work"])
//!     .build()
//!     .unwrap();
//! let pool = rt.pool("work").unwrap();
//! let h = pool.spawn(|| 21 * 2);
//! assert_eq!(h.join(), 42);
//! rt.shutdown();
//! ```

#![warn(missing_docs)]

mod eventual;
mod pool;
mod runtime;
mod xstream;

pub use eventual::Eventual;
pub use pool::{JoinHandle, Pool, PoolStats, Task};
pub use runtime::{Runtime, RuntimeBuilder, RuntimeError};
pub use xstream::{ExecutionStream, XstreamStats};

/// Cooperatively yield the current task.
///
/// In Argobots, `ABT_thread_yield` lets other ULTs in the same pool run. In
/// our run-to-completion model the closest analogue is yielding the OS
/// thread's timeslice, which gives other xstreams (and the progress loop) a
/// chance to run.
pub fn yield_now() {
    std::thread::yield_now();
}
