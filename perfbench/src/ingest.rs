//! `ingest`: two loaders push the generated NOvA files through
//! `DataLoader::ingest_events_overlapped` into an empty deployment, round
//! after round (each round a new dataset) until the run time is up.

use crate::trace::Tracer;
use crate::workloads::{closed_loop, Bench, Ctx, Phase, Rng};
use hepnos::{AsyncWriteBatch, BatchStats, DataSet, DataStore, HepnosError, WriteBatch};
use nova::loader::{slice_label, summary_label};
use nova::{DataLoader, EventRecord, EventSummary, SliceQuantities};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Events read back and compared with the inputs after the phase.
const SAMPLED_EVENTS: usize = 64;

pub struct Ingest {
    /// One dataset per round over the generated files.
    datasets: Mutex<Vec<DataSet>>,
    /// `(round, file)` of every file acknowledged by its loader.
    done: Mutex<Vec<(usize, usize)>>,
}

impl Ingest {
    fn dataset(&self, store: &DataStore, round: usize) -> Result<DataSet, HepnosError> {
        let mut sets = self.datasets.lock().expect("a loader panicked");
        while sets.len() <= round {
            let name = format!("ingest/round-{}", sets.len());
            sets.push(store.root().create_dataset(&name)?);
        }
        Ok(sets[round].clone())
    }
}

#[derive(Default)]
struct Loader {
    events: u64,
    failed: u64,
    lat_us: Vec<f64>,
    batch: BatchStats,
    errors: Vec<String>,
}

impl Bench for Ingest {
    fn setup(_: &Ctx) -> Result<Ingest, String> {
        Ok(Ingest {
            datasets: Mutex::new(Vec::new()),
            done: Mutex::new(Vec::new()),
        })
    }

    fn timed(&mut self, ctx: &Ctx) -> Result<Phase, String> {
        let files: Vec<&[EventRecord]> = ctx.inputs.chunks(ctx.layout.per_file as usize).collect();
        let next = AtomicUsize::new(0);
        let (loaders, elapsed_s) = closed_loop(
            ctx.run_for,
            |_| Loader::default(),
            |l, _, _| {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let (round, f) = (i / files.len(), i % files.len());
                let t = Instant::now();
                let result = ctx.tracer.span("bench.ingest_file", 0, i as u32, |id| {
                    let ds = self
                        .dataset(ctx.store(), round)
                        .map_err(|e| e.to_string())?;
                    if ctx.tracer.enabled() {
                        ingest_traced(ctx.store(), &ds, files[f], ctx.pool, ctx.tracer, id, i)
                            .map_err(|e| e.to_string())
                    } else {
                        DataLoader::new(ctx.store().clone(), ds)
                            .ingest_events_overlapped(files[f], ctx.pool.clone())
                            .map(|s| s.batch.unwrap_or_default())
                            .map_err(|e| e.to_string())
                    }
                });
                l.lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                match result {
                    Ok(stats) => {
                        l.events += files[f].len() as u64;
                        l.batch.merge(&stats);
                        self.done
                            .lock()
                            .expect("a loader panicked")
                            .push((round, f));
                    }
                    Err(e) => {
                        l.failed += files[f].len() as u64;
                        l.errors.push(format!("file {i}: {e}"));
                    }
                }
            },
        );
        let mut phase = Phase {
            elapsed_s,
            ..Phase::default()
        };
        let mut batch = BatchStats::default();
        let mut files_done = 0.0;
        for l in loaders {
            phase.items += l.events as f64;
            phase.attempted += l.events + l.failed;
            phase.failed += l.failed;
            files_done += l.lat_us.len() as f64;
            phase.op_us.extend(l.lat_us);
            phase.errors.extend(l.errors);
            batch.merge(&l.batch);
        }
        phase.events = phase.items;
        // Per event: the event key and two products; per file: its run and
        // subrun containers.
        phase.pairs_written = 3.0 * phase.items + 2.0 * files_done;
        phase.client_layers = vec![
            ("hepnos.batch.stall_s", batch.stall_time.as_secs_f64()),
            (
                "hepnos.batch.pairs_per_rpc",
                crate::stats::ratio(batch.shipped_pairs as f64, batch.flush_rpcs as f64),
            ),
            ("hepnos.batch.window_shrinks", batch.window_shrinks as f64),
        ];
        if batch.acked_pairs != batch.shipped_pairs {
            phase.errors.push(format!(
                "write pipeline acked {} of {} shipped pairs",
                batch.acked_pairs, batch.shipped_pairs
            ));
        }
        Ok(phase)
    }

    fn verify(&mut self, ctx: &Ctx, phase: &mut Phase) -> Result<(), String> {
        let per_file = ctx.layout.per_file as usize;
        let sets = self.datasets.lock().expect("a loader panicked").clone();
        let done = self.done.lock().expect("a loader panicked").clone();
        for (round, ds) in sets.iter().enumerate() {
            let want = done.iter().filter(|(r, _)| *r == round).count() * per_file;
            let got = ds
                .events()
                .map_err(|e| format!("listing events: {e}"))?
                .len();
            if got != want {
                phase.errors.push(format!(
                    "round {round}: {got} events stored, {want} ingested"
                ));
            }
        }
        let mut rng = Rng::new(ctx.seed ^ 0x1D6E57);
        for _ in 0..SAMPLED_EVENTS.min(done.len() * per_file) {
            let (round, f) = done[rng.below(done.len())];
            let i = f * per_file + rng.below(per_file);
            let want = &ctx.inputs[i];
            let event = ctx.layout.event(ctx.store(), &sets[round], i);
            let slices: Option<Vec<SliceQuantities>> =
                event.load(&slice_label()).map_err(|e| e.to_string())?;
            let summary: Option<EventSummary> =
                event.load(&summary_label()).map_err(|e| e.to_string())?;
            if slices.as_ref() != Some(&want.slices) || summary != Some(want.summary()) {
                phase.errors.push(format!(
                    "round {round}: event {:?} reads back different products",
                    event.coordinates()
                ));
            }
        }
        Ok(())
    }
}

/// `DataLoader::ingest_events_overlapped` opened up at its two phases, so
/// the traced run can time them: filling the batches (event creation plus
/// product stores, including any backpressure stall) and waiting for every
/// batch to be acknowledged.
fn ingest_traced(
    store: &DataStore,
    dataset: &DataSet,
    events: &[EventRecord],
    pool: &argos::Pool,
    tracer: &Tracer,
    parent: u32,
    op: usize,
) -> Result<BatchStats, HepnosError> {
    let uuid = dataset
        .uuid()
        .ok_or_else(|| HepnosError::InvalidPath("cannot ingest into the root".into()))?;
    let mut containers = WriteBatch::new(store);
    let mut products = AsyncWriteBatch::new(store, pool.clone());
    let filled = tracer.span("hepnos.batch.store", parent, op as u32, |_| {
        let mut current: Option<(u64, u64, hepnos::SubRun)> = None;
        for ev in events {
            let subrun = match &current {
                Some((r, s, sr)) if (*r, *s) == (ev.run, ev.subrun) => sr.clone(),
                _ => {
                    let run = containers.create_run(dataset, ev.run)?;
                    let sr = containers.create_subrun(&run, ev.subrun)?;
                    current = Some((ev.run, ev.subrun, sr.clone()));
                    sr
                }
            };
            let event = containers.create_event(&subrun, &uuid, ev.event)?;
            products.store(&event, &slice_label(), &ev.slices)?;
            products.store(&event, &summary_label(), &ev.summary())?;
        }
        Ok::<(), HepnosError>(())
    });
    // Both batches are drained whatever happened: their destructors panic on
    // an unreported flush failure.
    let (flushed, waited) = tracer.span("hepnos.batch.wait", parent, op as u32, |_| {
        (containers.flush(), products.wait())
    });
    filled?;
    flushed?;
    waited?;
    Ok(products.stats())
}
