//! Push-down execution of the selection workload: the client half of the
//! columnar product path.
//!
//! [`select_dataset_pushdown`] compiles the cuts once and ships the
//! predicate program to the product databases, which scan the dataset's
//! key range and evaluate it on every event's `rec.slc` product
//! ([`hepnos::DataSet::filter_event_products`]); the client never lists the
//! events. It accumulates the surviving global slice ids the servers
//! return. Events whose slice product is stored as an opaque blob fall back
//! to fetching the product and running the local vectorized kernel, so
//! mixed datasets (or readers that predate the columnar encoder) still
//! produce complete results.
//!
//! [`select_dataset_blob`] is the paper's original workload shape — fetch
//! every product, cut client-side — kept as the reference the push-down
//! results are checked against.

use crate::columnar;
use crate::data::EventRecord;
use crate::loader;
use crate::selection::{select_slices_into, SelectScratch, SelectionCuts};
use hepnos::{DataSet, DataStore, HepnosError};
use yokan::FilterReply;

/// Statistics of one selection pass over a dataset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectStats {
    /// Events visited. [`select_dataset_blob`] visits every event of the
    /// dataset; [`select_dataset_pushdown`] never lists events and counts
    /// those holding a `rec.slc` product (an event with none selects
    /// nothing on either path).
    pub events: u64,
    /// Slices stored in the visited events.
    pub rows_in: u64,
    /// Slices accepted by the selection.
    pub rows_out: u64,
    /// Column pages decoded and evaluated server-side.
    pub pages_scanned: u64,
    /// Column pages skipped server-side via zone maps.
    pub pages_skipped: u64,
    /// Stored bytes of the columnar blobs filtered server-side — payload
    /// that did *not* cross the wire thanks to push-down.
    pub bytes_stored: u64,
    /// Events answered through the blob fallback (slice product stored as
    /// an opaque blob rather than columnar pages).
    pub fallback_events: u64,
}

impl SelectStats {
    /// Fold another pass's statistics into this one.
    pub fn merge(&mut self, other: &SelectStats) {
        self.events += other.events;
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.pages_scanned += other.pages_scanned;
        self.pages_skipped += other.pages_skipped;
        self.bytes_stored += other.bytes_stored;
        self.fallback_events += other.fallback_events;
    }
}

/// Run the selection over every event of `dataset` with server-side
/// predicate push-down, returning accepted global slice ids in event order
/// (byte-identical to the blob path / scalar loop over the same events).
///
/// An event holding both representations is answered once, by its
/// columnar reply — the one [`loader::load_slices`] would read.
pub fn select_dataset_pushdown(
    store: &DataStore,
    dataset: &DataSet,
    cuts: &SelectionCuts,
) -> Result<(Vec<u64>, SelectStats), HepnosError> {
    let _ = store;
    let program = columnar::compile_cuts(cuts);
    let mut replies = dataset
        .filter_event_products(&loader::slice_label(), &program)?
        .into_iter()
        .peekable();
    let mut ids = Vec::new();
    let mut stats = SelectStats::default();
    let mut scratch = SelectScratch::new();
    while let Some((event, mut reply)) = replies.next() {
        // One event's replies are adjacent: keep a columnar one if any.
        while let Some((_, next)) = replies.next_if(|(e, _)| e.key() == event.key()) {
            if matches!(next, FilterReply::Ids { .. }) {
                reply = next;
            }
        }
        stats.events += 1;
        match reply {
            FilterReply::Ids {
                ids: survivors,
                rows_in,
                pages_scanned,
                pages_skipped,
                stored_bytes,
            } => {
                stats.rows_in += rows_in as u64;
                stats.rows_out += survivors.len() as u64;
                stats.pages_scanned += pages_scanned as u64;
                stats.pages_skipped += pages_skipped as u64;
                stats.bytes_stored += stored_bytes as u64;
                ids.extend(survivors);
            }
            FilterReply::Missing | FilterReply::NotColumnar => {
                stats.fallback_events += 1;
                let Some(slices) = loader::load_slices(&event)? else {
                    continue;
                };
                let (run, subrun, number) = event.coordinates();
                let rec = EventRecord {
                    run,
                    subrun,
                    event: number,
                    slices,
                };
                stats.rows_in += rec.slices.len() as u64;
                let before = ids.len();
                select_slices_into(&rec, cuts, &mut scratch, &mut ids);
                stats.rows_out += (ids.len() - before) as u64;
            }
        }
    }
    Ok((ids, stats))
}

/// The baseline workload: fetch every event's slice product and run the
/// selection client-side (works against both representations). Every
/// product's full bytes cross the wire.
pub fn select_dataset_blob(
    store: &DataStore,
    dataset: &DataSet,
    cuts: &SelectionCuts,
) -> Result<(Vec<u64>, SelectStats), HepnosError> {
    let _ = store;
    let events = dataset.events()?;
    let mut ids = Vec::new();
    let mut stats = SelectStats::default();
    let mut scratch = SelectScratch::new();
    for event in &events {
        stats.events += 1;
        let Some(slices) = loader::load_slices(event)? else {
            continue;
        };
        let (run, subrun, number) = event.coordinates();
        let rec = EventRecord {
            run,
            subrun,
            event: number,
            slices,
        };
        stats.rows_in += rec.slices.len() as u64;
        let before = ids.len();
        select_slices_into(&rec, cuts, &mut scratch, &mut ids);
        stats.rows_out += (ids.len() - before) as u64;
    }
    Ok((ids, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::NovaGenerator;
    use crate::loader::DataLoader;
    use bedrock::DbCounts;
    use hepnos::placement::Placement;
    use hepnos::testing::local_deployment;

    fn gen_events(seed: u64, n: u64) -> Vec<EventRecord> {
        let g = NovaGenerator::new(seed);
        (0..n).map(|e| g.generate(1, 0, e)).collect()
    }

    #[test]
    fn pushdown_matches_blob_path() {
        let dep = local_deployment(1, DbCounts::default());
        let store = dep.datastore();
        let events = gen_events(3, 120);

        let ds_col = store.root().create_dataset("pd/columnar").unwrap();
        DataLoader::new(store.clone(), ds_col.clone())
            .with_columnar(64)
            .ingest_events(&events)
            .unwrap();
        let ds_blob = store.root().create_dataset("pd/blob").unwrap();
        DataLoader::new(store.clone(), ds_blob.clone())
            .ingest_events(&events)
            .unwrap();

        let cuts = SelectionCuts::default();
        let (pushed, pstats) = select_dataset_pushdown(&store, &ds_col, &cuts).unwrap();
        let (baseline, bstats) = select_dataset_blob(&store, &ds_blob, &cuts).unwrap();
        assert_eq!(pushed, baseline);
        assert_eq!(pstats.rows_in, bstats.rows_in);
        assert_eq!(pstats.rows_out, pushed.len() as u64);
        assert_eq!(pstats.fallback_events, 0);
        assert!(pstats.pages_skipped > 0, "zone maps never pruned a page");
        assert!(pstats.bytes_stored > 0);
        dep.shutdown();
    }

    #[test]
    fn pushdown_falls_back_on_blob_products() {
        let dep = local_deployment(1, DbCounts::default());
        let store = dep.datastore();
        let events = gen_events(17, 40);
        // Blob-path dataset queried through the push-down API: every event
        // must take the fallback and results must still match.
        let ds = store.root().create_dataset("pd/fallback").unwrap();
        DataLoader::new(store.clone(), ds.clone())
            .ingest_events(&events)
            .unwrap();
        let cuts = SelectionCuts::default();
        let (pushed, stats) = select_dataset_pushdown(&store, &ds, &cuts).unwrap();
        let (baseline, _) = select_dataset_blob(&store, &ds, &cuts).unwrap();
        assert_eq!(pushed, baseline);
        assert_eq!(stats.fallback_events, stats.events);
        dep.shutdown();
    }

    #[test]
    fn mixed_dataset_is_complete() {
        let dep = local_deployment(1, DbCounts::default());
        let store = dep.datastore();
        let events = gen_events(29, 30);
        let ds = store.root().create_dataset("pd/mixed").unwrap();
        let (a, b) = events.split_at(15);
        DataLoader::new(store.clone(), ds.clone())
            .with_columnar(32)
            .ingest_events(a)
            .unwrap();
        DataLoader::new(store.clone(), ds.clone())
            .ingest_events(b)
            .unwrap();
        let cuts = SelectionCuts::default();
        let (pushed, stats) = select_dataset_pushdown(&store, &ds, &cuts).unwrap();
        let (baseline, _) = select_dataset_blob(&store, &ds, &cuts).unwrap();
        assert_eq!(pushed, baseline);
        assert_eq!(stats.events, 30);
        assert!(stats.fallback_events > 0 && stats.fallback_events < 30);
        dep.shutdown();
    }

    /// Events of the equivalence dataset, spread over two runs and three
    /// subruns; each product database gets more than two scan pages.
    const EQ_EVENTS: u64 = 6000;

    /// What event `i` of the equivalence dataset stores under `rec.slc`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Slices {
        Columnar,
        Blob,
        /// Columnar pages and, under the other type name, an opaque blob of
        /// *different* slices: the columnar copy is the one that counts.
        Both,
        None,
    }

    fn slices_of(i: u64) -> Slices {
        match i % 10 {
            0 => Slices::Blob,
            1 => Slices::Both,
            2 => Slices::None,
            _ => Slices::Columnar,
        }
    }

    fn eq_coordinates(i: u64) -> (u64, u64, u64) {
        (1 + i % 2, i % 3, i)
    }

    /// Cuts that accept most slices, so the order of the selected ids is
    /// checked on thousands of them (the default cuts accept few).
    fn loose_cuts() -> SelectionCuts {
        SelectionCuts {
            min_cvn_nue: 0.0,
            max_cosmic_score: 1.0,
            fiducial_margin: 0.0,
            nhit_range: (0, u32::MAX),
            energy_range: (0.0, f32::MAX),
            max_remid: 1.0,
            ..SelectionCuts::default()
        }
    }

    /// Push-down select over a mixed dataset equals the blob path, in the
    /// same order, on every backend: blob-only, both-representation and
    /// product-less events, run- and subrun-level `rec.slc` products that
    /// must not be selected, a sibling dataset that must not leak in, and
    /// an empty dataset.
    fn pushdown_equals_blob_path_on(backend: bedrock::BackendKind) {
        let dir =
            std::env::temp_dir().join(format!("nova-pd-eq-{backend:?}-{}", std::process::id()));
        let counts = DbCounts {
            events: 2,
            products: 2,
            ..DbCounts::default()
        };
        let dep = hepnos::testing::local_deployment_with(
            1,
            counts,
            backend,
            Some(dir.clone()),
            mercurio::NetworkModel::default(),
        );
        let store = dep.datastore();
        let columnar = NovaGenerator::new(41);
        let other = NovaGenerator::new(43);
        let record = |g: &NovaGenerator, i: u64| {
            let (run, subrun, event) = eq_coordinates(i);
            g.generate(run, subrun, event)
        };
        // Loaders expect one (run, subrun) stretch at a time.
        let sorted = |mut evs: Vec<EventRecord>| {
            evs.sort_by_key(|e| (e.run, e.subrun, e.event));
            evs
        };
        let of_kind = |g: &NovaGenerator, kinds: &[Slices]| {
            sorted(
                (0..EQ_EVENTS)
                    .filter(|&i| kinds.contains(&slices_of(i)))
                    .map(|i| record(g, i))
                    .collect(),
            )
        };

        let ds = store.root().create_dataset("eq/main").unwrap();
        DataLoader::new(store.clone(), ds.clone())
            .with_columnar(64)
            .ingest_events(&of_kind(&columnar, &[Slices::Columnar, Slices::Both]))
            .unwrap();
        DataLoader::new(store.clone(), ds.clone())
            .ingest_events(&of_kind(&columnar, &[Slices::Blob]))
            .unwrap();
        DataLoader::new(store.clone(), ds.clone())
            .ingest_events(&of_kind(&other, &[Slices::Both]))
            .unwrap();
        for i in (0..EQ_EVENTS).filter(|&i| slices_of(i) == Slices::None) {
            let (run, subrun, event) = eq_coordinates(i);
            let ev = ds.create_run(run).unwrap().create_subrun(subrun).unwrap();
            let ev = ev.create_event(event).unwrap();
            ev.store(&loader::summary_label(), &record(&columnar, i).summary())
                .unwrap();
        }
        // Container-level slice products sit under the dataset's key prefix
        // in the same product databases, but belong to no event.
        let stray = record(&other, EQ_EVENTS).slices;
        let run = ds.run(1).unwrap();
        run.store(&loader::slice_label(), &stray).unwrap();
        run.subrun(0)
            .unwrap()
            .store(&loader::slice_label(), &stray)
            .unwrap();
        let sibling = store.root().create_dataset("eq/sibling").unwrap();
        DataLoader::new(store.clone(), sibling.clone())
            .with_columnar(64)
            .ingest_events(&sorted((0..200).map(|i| record(&other, i)).collect()))
            .unwrap();

        // Every product database must hold more than two full scan pages
        // of the dataset's slice products.
        let mut per_db = vec![0usize; store.num_product_databases()];
        for i in (0..EQ_EVENTS).filter(|&i| slices_of(i) != Slices::None) {
            let (run, subrun, event) = eq_coordinates(i);
            let key = hepnos::keys::event_key(&ds.uuid().unwrap(), run, subrun, event);
            let db = hepnos::placement::ModuloPlacement.place(&key, per_db.len());
            per_db[db] += if slices_of(i) == Slices::Both { 2 } else { 1 };
        }
        assert!(per_db.len() >= 2);
        assert!(
            per_db.iter().all(|&n| n > 2 * hepnos::LIST_PAGE),
            "products per database {per_db:?} fit in two scan pages"
        );

        let count = |k: Slices| (0..EQ_EVENTS).filter(|&i| slices_of(i) == k).count() as u64;
        for (cuts, at_least) in [
            (SelectionCuts::default(), 0),
            (loose_cuts(), EQ_EVENTS as usize),
        ] {
            let (pushed, pstats) = select_dataset_pushdown(&store, &ds, &cuts).unwrap();
            let (baseline, bstats) = select_dataset_blob(&store, &ds, &cuts).unwrap();
            assert!(baseline.len() >= at_least, "the cuts accept too little");
            assert_eq!(pushed.len(), baseline.len());
            assert!(
                pushed == baseline,
                "push-down ids differ from the blob path"
            );
            assert_eq!(pstats.rows_in, bstats.rows_in);
            assert_eq!(pstats.rows_out, bstats.rows_out);
            assert_eq!(bstats.events, EQ_EVENTS);
            assert_eq!(pstats.events, EQ_EVENTS - count(Slices::None));
            assert_eq!(pstats.fallback_events, count(Slices::Blob));
        }
        let cuts = loose_cuts();
        let (sib_pushed, _) = select_dataset_pushdown(&store, &sibling, &cuts).unwrap();
        let (sib_baseline, _) = select_dataset_blob(&store, &sibling, &cuts).unwrap();
        assert_eq!(sib_pushed, sib_baseline);

        let empty = store.root().create_dataset("eq/empty").unwrap();
        let (ids, stats) = select_dataset_pushdown(&store, &empty, &cuts).unwrap();
        assert!(ids.is_empty());
        assert_eq!(stats, SelectStats::default());
        dep.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pushdown_equals_blob_path_on_map() {
        pushdown_equals_blob_path_on(bedrock::BackendKind::Map);
    }

    #[test]
    fn pushdown_equals_blob_path_on_lsm() {
        pushdown_equals_blob_path_on(bedrock::BackendKind::Lsm);
    }
}
