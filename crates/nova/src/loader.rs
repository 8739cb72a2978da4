//! The HDF2HEPnOS analogue (paper §IV-B).
//!
//! The paper's `HDF2HEPnOS` tool (1) analyzes the structure of an HDF5
//! file, (2) deduces the stored class and generates C++ code for it along
//! with load/store functions, and (3) provides a `DataLoader` that is run
//! in parallel to ingest files — "the only step whose scalability is
//! constrained by the number of files".
//!
//! This module reproduces all three: [`generate_class_code`] emits Rust
//! source from a table schema, [`DataLoader`] ingests files (or
//! pre-generated events) into a [`hepnos::DataStore`] through batched
//! writes, and [`parallel_ingest`] runs loaders file-parallel. Every ingest
//! runs one event loop: containers go to a [`hepnos::WriteBatch`], products
//! to a second batch, synchronous or an [`hepnos::AsyncWriteBatch`].

use crate::data::EventRecord;

use crate::files;
use hepfile::table::{GroupSchema, TableError};
use hepnos::{AsyncWriteBatch, DataSet, DataStore, Event, HepnosError, ProductLabel, WriteBatch};
use std::path::Path;

/// The product label under which slice vectors are stored.
pub fn slice_label() -> ProductLabel {
    ProductLabel::new("rec.slc").expect("static label is valid")
}

/// The product type name of the stored slice vectors, as recorded in
/// product keys (needed for [`hepnos::PepOptions::prefetch`]).
pub fn slice_type_name() -> String {
    hepnos::keys::short_type_name::<Vec<crate::data::SliceQuantities>>()
}

/// The product label under which event summaries are stored.
pub fn summary_label() -> ProductLabel {
    ProductLabel::new("rec.summary").expect("static label is valid")
}

/// The product type name of stored event summaries.
pub fn summary_type_name() -> String {
    hepnos::keys::short_type_name::<crate::data::EventSummary>()
}

/// Load an event's slices regardless of stored representation: the
/// columnar page blob when present, the opaque serialized vector
/// otherwise. Returns `None` when the event has no slice product at all.
pub fn load_slices(
    event: &hepnos::Event,
) -> Result<Option<Vec<crate::data::SliceQuantities>>, HepnosError> {
    if let Some(blob) = event.load_raw(&slice_label(), &crate::columnar::columnar_type_name())? {
        return crate::columnar::decode_slices(&blob).map(Some);
    }
    event.load(&slice_label())
}

/// The [`load_slices`] twin for PEP callbacks: serves from the prefetched
/// bytes when the columnar/opaque slice labels were in
/// [`hepnos::PepOptions::prefetch`] — zero-copy for the columnar blob —
/// and falls back to a storage read otherwise.
pub fn load_slices_prefetched(
    pe: &hepnos::PrefetchedEvent,
) -> Result<Option<Vec<crate::data::SliceQuantities>>, HepnosError> {
    if let Some(blob) = pe.load_raw(&slice_label(), &crate::columnar::columnar_type_name())? {
        return crate::columnar::decode_slices(&blob).map(Some);
    }
    pe.load(&slice_label())
}

/// Generate Rust source for the class stored in `schema` — the codegen
/// half of HDF2HEPnOS. Index columns (`run`, `subrun`, `event`) identify
/// the owning event and are not members.
pub fn generate_class_code(schema: &GroupSchema) -> String {
    let struct_name = schema
        .name
        .rsplit('.')
        .next()
        .unwrap_or(&schema.name)
        .to_string();
    let struct_name = {
        let mut c = struct_name.chars();
        match c.next() {
            Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
            None => struct_name,
        }
    };
    let mut out = String::new();
    out.push_str(&format!(
        "/// Generated from table group `{}` by hdf2hepnos.\n",
        schema.name
    ));
    out.push_str("#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]\n");
    out.push_str(&format!("pub struct {struct_name} {{\n"));
    for col in &schema.columns {
        if matches!(col.name.as_str(), "run" | "subrun" | "event") {
            continue;
        }
        out.push_str(&format!("    pub {}: {},\n", col.name, col.ty.rust_type()));
    }
    out.push_str("}\n");
    out
}

/// Ingestion statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Files ingested.
    pub files: u64,
    /// Events created.
    pub events: u64,
    /// Slices stored (rows).
    pub slices: u64,
    /// Write-pipeline counters of the product batch, when the overlapped
    /// (async) path was used.
    pub batch: Option<hepnos::BatchStats>,
}

impl IngestStats {
    /// Fold another loader's statistics into this one (batch counters
    /// aggregate per [`hepnos::BatchStats::merge`]).
    pub fn merge(&mut self, other: &IngestStats) {
        self.files += other.files;
        self.events += other.events;
        self.slices += other.slices;
        if let Some(b) = &other.batch {
            self.batch.get_or_insert_with(Default::default).merge(b);
        }
    }
}

/// Errors from ingestion.
#[derive(Debug)]
pub enum LoaderError {
    /// File could not be read.
    Table(TableError),
    /// The datastore rejected a write.
    Hepnos(HepnosError),
}

impl std::fmt::Display for LoaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoaderError::Table(e) => write!(f, "loader table error: {e}"),
            LoaderError::Hepnos(e) => write!(f, "loader hepnos error: {e}"),
        }
    }
}

impl std::error::Error for LoaderError {}

impl From<TableError> for LoaderError {
    fn from(e: TableError) -> Self {
        LoaderError::Table(e)
    }
}

impl From<HepnosError> for LoaderError {
    fn from(e: HepnosError) -> Self {
        LoaderError::Hepnos(e)
    }
}

/// Ingests NOvA-layout files into HEPnOS.
pub struct DataLoader {
    store: DataStore,
    dataset: DataSet,
    /// When set, slice products are stored as columnar page blobs with this
    /// many rows per page (under the same `rec.slc` label, but the columnar
    /// type name) instead of opaque serialized vectors.
    columnar_page_rows: Option<u32>,
}

impl DataLoader {
    /// Create a loader targeting `dataset` (blob-path storage).
    pub fn new(store: DataStore, dataset: DataSet) -> DataLoader {
        DataLoader {
            store,
            dataset,
            columnar_page_rows: None,
        }
    }

    /// Store slice products through the columnar encoder
    /// ([`crate::columnar::encode_event`]) so selections can be pushed down
    /// to the storage tier. `page_rows` is the page granularity of zone-map
    /// pruning; [`crate::columnar::DEFAULT_PAGE_ROWS`] is a good default.
    pub fn with_columnar(mut self, page_rows: u32) -> DataLoader {
        self.columnar_page_rows = Some(page_rows.max(1));
        self
    }

    /// Ingest one file.
    pub fn ingest_file(&self, path: &Path) -> Result<IngestStats, LoaderError> {
        let events = files::read_file(path)?;
        let mut stats = self.ingest_events(&events)?;
        stats.files = 1;
        Ok(stats)
    }

    /// Ingest pre-generated events (used by simulated-scale benchmarks to
    /// skip the disk round trip).
    pub fn ingest_events(&self, events: &[EventRecord]) -> Result<IngestStats, LoaderError> {
        let mut products = WriteBatch::new(&self.store);
        let filled = self.fill(events, |e, l, t, b| products.store_raw(e, l, t, b));
        let flushed = products.flush();
        let stats = filled?;
        flushed?;
        Ok(stats)
    }

    /// Like [`DataLoader::ingest_events`] but overlapping the batched
    /// writes with event generation using an [`hepnos::AsyncWriteBatch`]
    /// flushing on `pool` — "the loader MPI ranks fetch products in bulk
    /// ... and also send these products to the worker MPI ranks in bulk"
    /// (§IV-D); overlap hides the send latency behind the parse.
    pub fn ingest_events_overlapped(
        &self,
        events: &[EventRecord],
        pool: argos::Pool,
    ) -> Result<IngestStats, LoaderError> {
        let mut products = AsyncWriteBatch::new(&self.store, pool);
        let filled = self.fill(events, |e, l, t, b| products.store_raw(e, l, t, b));
        let waited = products.wait();
        let mut stats = filled?;
        waited?;
        stats.batch = Some(products.stats());
        Ok(stats)
    }

    /// The one ingest loop. Containers go through a synchronous batch of
    /// its own (they are tiny, and their children's keys do not depend on
    /// their completion); the product payloads go to `store_product`, the
    /// caller's product batch. Both batches are drained whatever happens:
    /// their destructors panic on an unreported flush failure, so an early
    /// error must not reach a `Drop` unconsumed. This drains the container
    /// batch; the caller drains its product batch before returning.
    fn fill(
        &self,
        events: &[EventRecord],
        mut store_product: impl FnMut(&Event, &ProductLabel, &str, Vec<u8>) -> Result<(), HepnosError>,
    ) -> Result<IngestStats, LoaderError> {
        let uuid = self
            .dataset
            .uuid()
            .ok_or_else(|| HepnosError::InvalidPath("cannot ingest into the root".into()))?;
        let (slice_label, summary_label, summary_type) =
            (slice_label(), summary_label(), summary_type_name());
        let mut stats = IngestStats::default();
        let mut containers = WriteBatch::new(&self.store);
        let mut body = || -> Result<(), HepnosError> {
            // Events in one file share (run, subrun); create the containers
            // once per change.
            let mut current: Option<(u64, u64, hepnos::SubRun)> = None;
            for ev in events {
                let subrun = match &current {
                    Some((r, s, sr)) if (*r, *s) == (ev.run, ev.subrun) => sr.clone(),
                    _ => {
                        let run = containers.create_run(&self.dataset, ev.run)?;
                        let sr = containers.create_subrun(&run, ev.subrun)?;
                        current = Some((ev.run, ev.subrun, sr.clone()));
                        sr
                    }
                };
                let event = containers.create_event(&subrun, &uuid, ev.event)?;
                let (slice_type, slices) = match self.columnar_page_rows {
                    Some(rows) => (
                        crate::columnar::columnar_type_name(),
                        crate::columnar::encode_event(ev, rows),
                    ),
                    None => (slice_type_name(), encode(&ev.slices)?),
                };
                store_product(&event, &slice_label, &slice_type, slices)?;
                store_product(
                    &event,
                    &summary_label,
                    &summary_type,
                    encode(&ev.summary())?,
                )?;
                stats.events += 1;
                stats.slices += ev.slices.len() as u64;
            }
            Ok(())
        };
        let filled = body();
        let flushed = containers.flush();
        filled?;
        flushed?;
        Ok(stats)
    }

    /// Ingest many files; returns aggregate statistics. The paper runs this
    /// step file-parallel across loader ranks — see
    /// [`parallel_ingest`] for the multi-loader version.
    pub fn ingest_files(&self, paths: &[std::path::PathBuf]) -> Result<IngestStats, LoaderError> {
        let mut total = IngestStats::default();
        for p in paths {
            total.merge(&self.ingest_file(p)?);
        }
        Ok(total)
    }
}

/// A product's stored bytes: the same encoding a typed `store` writes.
fn encode<T: serde::Serialize>(value: &T) -> Result<Vec<u8>, HepnosError> {
    hepnos::binser::to_bytes(value).map_err(|e| HepnosError::Serialization(e.to_string()))
}

/// Ingest `paths` with `n_loaders` parallel loader "ranks" (threads), each
/// pulling files from a shared queue — the paper's parallel DataLoader,
/// "the first step of an HEPnOS-based HEP workflow, and the only step whose
/// scalability is constrained by the number of files" (§IV-B).
///
/// `columnar: Some(rows)` stores slice products as column pages of `rows`
/// rows (see [`crate::columnar`]); `None` keeps the opaque-blob
/// representation. With a `pool`, each loader ships product payloads
/// through an [`hepnos::AsyncWriteBatch`] flushing on it — the paper's
/// batching + async combination (§IV-C) — and [`IngestStats::batch`]
/// aggregates the per-loader pipeline counters; without one every write
/// is synchronous and `batch` is `None`.
pub fn parallel_ingest(
    store: &DataStore,
    dataset: &DataSet,
    paths: &[std::path::PathBuf],
    n_loaders: usize,
    columnar: Option<u32>,
    pool: Option<argos::Pool>,
) -> Result<IngestStats, LoaderError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let results: Vec<Result<IngestStats, LoaderError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_loaders.max(1))
            .map(|_| {
                let (next, pool) = (&next, pool.clone());
                let mut loader = DataLoader::new(store.clone(), dataset.clone());
                if let Some(rows) = columnar {
                    loader = loader.with_columnar(rows);
                }
                scope.spawn(move || {
                    let mut total = IngestStats::default();
                    while let Some(path) = paths.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let events = files::read_file(path)?;
                        let mut s = match &pool {
                            Some(pool) => loader.ingest_events_overlapped(&events, pool.clone())?,
                            None => loader.ingest_events(&events)?,
                        };
                        s.files = 1;
                        total.merge(&s);
                    }
                    Ok(total)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loader thread panicked"))
            .collect()
    });
    let mut total = IngestStats::default();
    for r in results {
        total.merge(&r?);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::NovaGenerator;
    use bedrock::DbCounts;
    use hepfile::table::TableFileReader;
    use hepnos::testing::local_deployment;

    #[test]
    fn generated_code_matches_schema() {
        let d = std::env::temp_dir().join(format!("nova-loader-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join("gen.hepf");
        files::write_file(&p, &NovaGenerator::new(1), 0, 5).unwrap();
        let r = TableFileReader::open(&p).unwrap();
        let code = generate_class_code(&r.schema()[0]);
        assert!(code.contains("pub struct Slc {"), "{code}");
        assert!(code.contains("pub cvn_nue: f32,"));
        assert!(code.contains("pub time_ns: f64,"));
        assert!(code.contains("pub nhit: u32,"));
        // Index columns are not members.
        assert!(!code.contains("pub run:"));
        assert!(code.contains("serde::Serialize"));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn ingest_round_trips_through_hepnos() {
        let d = std::env::temp_dir().join(format!("nova-ingest-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let g = NovaGenerator::new(7);
        let paths = files::write_dataset(&d.join("data"), &g, 3, 12).unwrap();

        let dep = local_deployment(1, DbCounts::default());
        let store = dep.datastore();
        let ds = store.root().create_dataset("nova").unwrap();
        let loader = DataLoader::new(store.clone(), ds.clone());
        let stats = loader.ingest_files(&paths).unwrap();
        assert_eq!(stats.files, 3);
        assert!(stats.events > 0 && stats.slices > 0);

        // Navigate and compare against the file contents.
        for (f, path) in paths.iter().enumerate() {
            let file_events = files::read_file(path).unwrap();
            let (run_n, subrun_n) = files::file_coordinates(f as u64);
            let sr = ds.run(run_n).unwrap().subrun(subrun_n).unwrap();
            let stored = sr.events().unwrap();
            assert_eq!(stored.len(), file_events.len());
            for (ev_handle, ev_rec) in stored.iter().zip(&file_events) {
                assert_eq!(ev_handle.number(), ev_rec.event);
                let slices: Vec<crate::data::SliceQuantities> =
                    ev_handle.load(&slice_label()).unwrap().unwrap();
                assert_eq!(slices, ev_rec.slices);
            }
        }
        dep.shutdown();
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn slice_type_name_is_stable() {
        assert_eq!(slice_type_name(), "Vec<SliceQuantities>");
    }
}
