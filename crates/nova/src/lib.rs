//! `nova` — the reproduction's stand-in for the NOvA experiment data and
//! the CAFAna candidate-selection code (paper §III).
//!
//! The paper's evaluation could not be shipped with this reproduction: the
//! NOvA files are restricted experimental data and CAFAna's selection is a
//! large C++ framework. Per the substitution plan in `DESIGN.md`, this
//! crate provides synthetic equivalents that exercise the same code paths:
//!
//! * [`SliceQuantities`] / [`EventRecord`] — a representative subset of the
//!   ~600 derived physics quantities NOvA reconstructs per slice;
//! * [`generator`] — a deterministic, seeded generator reproducing the
//!   paper's *statistics*: ~4.1 candidate slices per beam event
//!   (17,878,347 slices / 4,359,414 events), rare signal-like slices, and
//!   heavy-tailed per-file event counts;
//! * [`selection`] — a cut-based electron-neutrino candidate selection in
//!   the style of NOvA's ν_e appearance cuts (containment + PID + cosmic
//!   rejection), with a strong down-selection ratio. Both the file-based
//!   and HEPnOS-based workflows call this exact function, mirroring the
//!   paper's equal-results check;
//! * [`files`] — writers/readers putting events into [`hepfile`] columnar
//!   files with the NOvA HDF5 layout;
//! * [`loader`] — the HDF2HEPnOS analogue: schema inspection, Rust code
//!   generation for the stored class, and one file-parallel driver,
//!   [`loader::parallel_ingest`], ingesting into a [`hepnos::DataStore`]
//!   through synchronous or overlapped write batches.

#![warn(missing_docs)]

pub mod columnar;
pub mod files;
pub mod generator;
pub mod loader;
pub mod pushdown;
pub mod selection;
pub mod spectrum;

mod data;

pub use data::{EventRecord, EventSummary, SliceQuantities};
pub use generator::{GeneratorConfig, NovaGenerator};
pub use loader::{DataLoader, IngestStats};
pub use pushdown::{select_dataset_blob, select_dataset_pushdown, SelectStats};
pub use selection::{select_slices, select_slices_into, SelectScratch, SelectionCuts};
pub use spectrum::Spectrum;
