//! `analysis`: repeated ParallelEventProcessor passes with `rec.slc`
//! prefetch and two workers, running the CAFAna selection per event over
//! a blob dataset several times larger than the deployment's read cache.

use crate::trace::Tracer;
use crate::workloads::{load, Bench, Ctx, Phase, CLIENT_THREADS};
use hepnos::{DataSet, ParallelEventProcessor, PepOptions, PepStatistics};
use nova::loader::{slice_label, slice_type_name};
use nova::{select_slices, EventRecord, SelectionCuts, SliceQuantities};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

pub struct Analysis {
    dataset: DataSet,
    /// Slice ids `select_slices` accepts in each generated event.
    expected: Vec<Vec<u64>>,
    cuts: SelectionCuts,
}

/// Callback deliveries and selection mismatches of one pass.
struct PassCheck {
    seen: Vec<AtomicU32>,
    mismatched: AtomicU64,
    unreadable: AtomicU64,
}

impl Analysis {
    /// One PEP pass; every callback checks its event's selected ids.
    fn pass(
        &self,
        ctx: &Ctx,
        tracer: &Tracer,
        op: u32,
        check: &PassCheck,
    ) -> Result<PepStatistics, String> {
        let pep = ParallelEventProcessor::new(
            ctx.store().clone(),
            PepOptions {
                num_workers: CLIENT_THREADS,
                prefetch: vec![(slice_label(), slice_type_name())],
                ..PepOptions::default()
            },
        );
        let label = slice_label();
        tracer.span("hepnos.pep.process", 0, op, |parent| {
            pep.process(&self.dataset, |_, pe| {
                let (run, subrun, event) = pe.event().coordinates();
                let Some(i) = ctx.layout.index(run, subrun, event) else {
                    check.unreadable.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                check.seen[i].fetch_add(1, Ordering::Relaxed);
                let slices = tracer.span("nova.decode", parent, op, |_| {
                    pe.load::<Vec<SliceQuantities>>(&label)
                });
                let Ok(Some(slices)) = slices else {
                    check.unreadable.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let record = EventRecord {
                    run,
                    subrun,
                    event,
                    slices,
                };
                let ids = tracer.span("nova.select", parent, op, |_| {
                    select_slices(&record, &self.cuts)
                });
                if ids != self.expected[i] {
                    check.mismatched.fetch_add(1, Ordering::Relaxed);
                }
            })
            .map_err(|e| format!("PEP pass failed: {e}"))
        })
    }

    /// Run a pass and fold its checks into `errors`: every event delivered
    /// exactly once, every selection identical to the reference.
    fn checked_pass(
        &self,
        ctx: &Ctx,
        tracer: &Tracer,
        op: u32,
        errors: &mut Vec<String>,
    ) -> Result<(PepStatistics, u64), String> {
        let check = PassCheck {
            seen: (0..ctx.layout.len()).map(|_| AtomicU32::new(0)).collect(),
            mismatched: AtomicU64::new(0),
            unreadable: AtomicU64::new(0),
        };
        let stats = self.pass(ctx, tracer, op, &check)?;
        let wrong_count = check
            .seen
            .iter()
            .filter(|n| n.load(Ordering::Relaxed) != 1)
            .count();
        if wrong_count > 0 {
            errors.push(format!(
                "pass {op}: {wrong_count} events not delivered exactly once"
            ));
        }
        let mismatched = check.mismatched.into_inner();
        if mismatched > 0 {
            errors.push(format!(
                "pass {op}: {mismatched} events selected other slice ids"
            ));
        }
        Ok((stats, check.unreadable.into_inner()))
    }
}

impl Bench for Analysis {
    fn setup(ctx: &Ctx) -> Result<Analysis, String> {
        let dataset = ctx
            .store()
            .root()
            .create_dataset("analysis/blob")
            .map_err(|e| e.to_string())?;
        load(
            ctx.store(),
            &dataset,
            ctx.inputs,
            ctx.layout,
            None,
            ctx.pool,
        )?;
        let cuts = SelectionCuts::default();
        let expected = ctx
            .inputs
            .iter()
            .map(|ev| select_slices(ev, &cuts))
            .collect();
        Ok(Analysis {
            dataset,
            expected,
            cuts,
        })
    }

    fn warm_up(&mut self, ctx: &Ctx) -> Result<(), String> {
        let mut errors = Vec::new();
        self.checked_pass(ctx, &Tracer::new(false), 0, &mut errors)?;
        errors.first().map_or(Ok(()), |e| Err(e.clone()))
    }

    fn timed(&mut self, ctx: &Ctx) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let mut total = PepTotals::default();
        let start = Instant::now();
        let mut op = 1;
        while start.elapsed() < ctx.run_for {
            let t = Instant::now();
            let (stats, unreadable) = self.checked_pass(ctx, ctx.tracer, op, &mut phase.errors)?;
            phase.op_us.push(t.elapsed().as_secs_f64() * 1e6);
            phase.items += stats.total_events as f64;
            phase.attempted += ctx.layout.len() as u64;
            phase.failed +=
                unreadable + (ctx.layout.len() as u64).saturating_sub(stats.total_events);
            total.add(&stats);
            op += 1;
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase.events = phase.items;
        phase.client_layers = total.layers();
        Ok(phase)
    }
}

/// PEP statistics summed over passes.
#[derive(Default)]
struct PepTotals {
    passes: f64,
    list_wait: f64,
    prefetch_wait: f64,
    dispatch_stall: f64,
    rpc: f64,
    worker_wait: f64,
    callback: f64,
    steals: f64,
    imbalance: f64,
}

impl PepTotals {
    fn add(&mut self, s: &PepStatistics) {
        self.passes += 1.0;
        for r in &s.readers {
            self.list_wait += r.list_wait.as_secs_f64();
            self.prefetch_wait += r.prefetch_wait.as_secs_f64();
            self.dispatch_stall += r.dispatch_stall.as_secs_f64();
            self.rpc += r.rpc_time.as_secs_f64();
        }
        for w in &s.workers {
            self.worker_wait += w.waiting_time.as_secs_f64();
            self.callback += w.processing_time.as_secs_f64();
        }
        self.steals += s.total_steals() as f64;
        self.imbalance += s.load_imbalance();
    }

    fn layers(&self) -> Vec<(&'static str, f64)> {
        let blocked = self.list_wait + self.prefetch_wait;
        vec![
            ("hepnos.pep.list_wait_s", self.list_wait),
            ("hepnos.pep.prefetch_wait_s", self.prefetch_wait),
            ("hepnos.pep.dispatch_stall_s", self.dispatch_stall),
            ("hepnos.pep.rpc_s", self.rpc),
            (
                "hepnos.pep.overlap_ratio",
                if self.rpc > 0.0 {
                    (1.0 - blocked / self.rpc).max(0.0)
                } else {
                    0.0
                },
            ),
            ("hepnos.pep.worker_wait_s", self.worker_wait),
            ("hepnos.pep.callback_s", self.callback),
            ("hepnos.pep.steals", self.steals),
            (
                "hepnos.pep.load_imbalance",
                crate::stats::ratio(self.imbalance, self.passes),
            ),
        ]
    }
}
