//! `pushdown`: the same selection over a columnar copy of the dataset,
//! with the predicate evaluated by the servers' yokan filter
//! (`select_dataset_pushdown`), pass after pass from two clients.

use crate::workloads::{closed_loop, load, Bench, Ctx, Phase};
use hepnos::{DataSet, DataStore, HepnosError};
use nova::columnar::{columnar_type_name, compile_cuts, DEFAULT_PAGE_ROWS};
use nova::loader::slice_label;
use nova::{select_dataset_pushdown, select_slices, SelectStats, SelectionCuts};
use std::time::Instant;
use yokan::FilterReply;

pub struct Pushdown {
    dataset: DataSet,
    /// Accepted slice ids of the generated events, in the order the
    /// dataset enumerates its events.
    expected: Vec<u64>,
    cuts: SelectionCuts,
}

impl Bench for Pushdown {
    fn setup(ctx: &Ctx) -> Result<Pushdown, String> {
        let store = ctx.store();
        let dataset = store
            .root()
            .create_dataset("pushdown/columnar")
            .map_err(|e| e.to_string())?;
        load(
            store,
            &dataset,
            ctx.inputs,
            ctx.layout,
            Some(DEFAULT_PAGE_ROWS),
            ctx.pool,
        )?;
        let cuts = SelectionCuts::default();
        let mut expected = Vec::new();
        for event in dataset.events().map_err(|e| e.to_string())? {
            let (run, subrun, number) = event.coordinates();
            let i = ctx.layout.index(run, subrun, number).ok_or_else(|| {
                format!("dataset holds an event {run}/{subrun}/{number} never generated")
            })?;
            expected.extend(select_slices(&ctx.inputs[i], &cuts));
        }
        Ok(Pushdown {
            dataset,
            expected,
            cuts,
        })
    }

    fn warm_up(&mut self, ctx: &Ctx) -> Result<(), String> {
        select_dataset_pushdown(ctx.store(), &self.dataset, &self.cuts)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    /// Two clients each run passes back to back, as two analysts would.
    fn timed(&mut self, ctx: &Ctx) -> Result<Phase, String> {
        let n = ctx.layout.len() as u64;
        let this = &*self;
        let (clients, elapsed_s) = closed_loop(
            ctx.run_for,
            |_| Client::default(),
            |c, t, seq| {
                let op = ((t as u32) << 24) | seq as u32;
                let t0 = Instant::now();
                let result = ctx.tracer.span("bench.pushdown_pass", 0, op, |parent| {
                    if ctx.tracer.enabled() {
                        pushdown_traced(ctx, &this.dataset, &this.cuts, parent, op)
                    } else {
                        select_dataset_pushdown(ctx.store(), &this.dataset, &this.cuts)
                    }
                });
                let lat_us = t0.elapsed().as_secs_f64() * 1e6;
                c.attempted += n;
                let (ids, stats) = match result {
                    Ok(r) => r,
                    Err(e) => {
                        c.failed += n;
                        c.errors.push(format!("pass {op:#x} failed: {e}"));
                        return;
                    }
                };
                c.lat_us.push(lat_us);
                if ids != this.expected {
                    c.errors.push(format!(
                        "pass {op:#x}: {} slice ids selected, {} expected, or in another order",
                        ids.len(),
                        this.expected.len()
                    ));
                }
                if stats.events != n || stats.fallback_events != 0 {
                    c.errors.push(format!(
                        "pass {op:#x}: {} of {n} events visited, {} fell back to the blob path",
                        stats.events, stats.fallback_events
                    ));
                }
                c.failed += n.saturating_sub(stats.events);
                c.total.merge(&stats);
            },
        );
        let mut phase = Phase {
            elapsed_s,
            ..Phase::default()
        };
        let mut total = SelectStats::default();
        for c in clients {
            phase.attempted += c.attempted;
            phase.failed += c.failed;
            phase.op_us.extend(c.lat_us);
            phase.errors.extend(c.errors);
            total.merge(&c.total);
        }
        phase.items = total.rows_in as f64;
        phase.events = total.events as f64;
        let pages = (total.pages_scanned + total.pages_skipped) as f64;
        phase.client_layers = vec![
            (
                "yokan.filter.pages_skipped_ratio",
                crate::stats::ratio(total.pages_skipped as f64, pages),
            ),
            ("yokan.filter.bytes_filtered", total.bytes_stored as f64),
        ];
        Ok(phase)
    }
}

#[derive(Default)]
struct Client {
    attempted: u64,
    failed: u64,
    lat_us: Vec<f64>,
    errors: Vec<String>,
    total: SelectStats,
}

/// `select_dataset_pushdown` opened up at its two layer calls, so the
/// traced run can time event enumeration (`DataSet::events`) apart from
/// the servers' filtering (`DataStore::filter_products`). Columnar inputs
/// never take the blob fallback, which this version counts instead of
/// serving.
fn pushdown_traced(
    ctx: &Ctx,
    dataset: &DataSet,
    cuts: &SelectionCuts,
    parent: u32,
    op: u32,
) -> Result<(Vec<u64>, SelectStats), HepnosError> {
    let store: &DataStore = ctx.store();
    let events = ctx
        .tracer
        .span("hepnos.enumerate", parent, op, |_| dataset.events())?;
    let keys: Vec<Vec<u8>> = events.iter().map(|e| e.key().to_vec()).collect();
    let program = compile_cuts(cuts);
    let replies = ctx.tracer.span("hepnos.filter", parent, op, |_| {
        store.filter_products(&keys, &slice_label(), &columnar_type_name(), &program)
    })?;
    let mut ids = Vec::new();
    let mut stats = SelectStats::default();
    for reply in replies {
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
            FilterReply::Missing | FilterReply::NotColumnar => stats.fallback_events += 1,
        }
    }
    Ok((ids, stats))
}
