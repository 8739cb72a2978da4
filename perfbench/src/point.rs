//! `point_mix`: a closed loop of two client threads, each issuing
//! synchronous `Event::load` of `rec.slc` (90%) and `Event::store` of a
//! small product (10%) on events drawn mostly from a hot set that fits in
//! the read cache.

use crate::workloads::{closed_loop, load, Bench, Ctx, Phase, Rng, CLIENT_THREADS};
use hepnos::{DataSet, Event, ProductLabel};
use nova::loader::slice_label;
use nova::SliceQuantities;
use std::collections::HashMap;
use std::time::Instant;

/// Share of operations that are loads; the rest are stores.
const LOAD_SHARE: f64 = 0.9;
/// Share of operations aimed at the hot set.
const HOT_SHARE: f64 = 0.9;

pub struct PointMix {
    events: Vec<Event>,
    /// Hot events; thread `t` stores only to events `i` with
    /// `i % CLIENT_THREADS == t`, so each key has one writer.
    hot: Vec<usize>,
    tag: ProductLabel,
    /// Last acknowledged store of each key, per thread.
    last: Vec<HashMap<usize, u64>>,
}

/// One event in this many is hot: 250 of the 4000 events, whose `rec.slc`
/// products (about 80 KiB) fit in the read cache.
const HOT_EVERY: usize = 16;

impl PointMix {
    /// An event index from the skewed distribution, restricted to the
    /// thread's own partition when `owner` is given.
    fn pick(&self, rng: &mut Rng, owner: Option<usize>) -> usize {
        let n = self.events.len();
        loop {
            let i = if rng.chance(HOT_SHARE) {
                self.hot[rng.below(self.hot.len())]
            } else {
                rng.below(n)
            };
            if owner.is_none_or(|t| i % CLIENT_THREADS == t) {
                return i;
            }
        }
    }
}

#[derive(Default)]
struct Client {
    get_us: Vec<f64>,
    put_us: Vec<f64>,
    failed: u64,
    wrong: u64,
    last: HashMap<usize, u64>,
}

impl Bench for PointMix {
    fn setup(ctx: &Ctx) -> Result<PointMix, String> {
        let store = ctx.store();
        let dataset: DataSet = store
            .root()
            .create_dataset("point/blob")
            .map_err(|e| e.to_string())?;
        load(store, &dataset, ctx.inputs, ctx.layout, None, ctx.pool)?;
        let events = (0..ctx.layout.len())
            .map(|i| ctx.layout.event(store, &dataset, i))
            .collect();
        // A seeded partial shuffle picks the hot set.
        let mut order: Vec<usize> = (0..ctx.layout.len()).collect();
        let mut rng = Rng::new(ctx.seed ^ 0x407);
        let hot_n = (order.len() / HOT_EVERY).max(1);
        for k in 0..hot_n {
            let j = k + rng.below(order.len() - k);
            order.swap(k, j);
        }
        order.truncate(hot_n);
        Ok(PointMix {
            events,
            hot: order,
            tag: ProductLabel::new("bench.tag").expect("static label is valid"),
            last: Vec::new(),
        })
    }

    /// Read the hot set twice so the cache holds it before timing.
    fn warm_up(&mut self, ctx: &Ctx) -> Result<(), String> {
        let label = slice_label();
        for _ in 0..2 {
            for &i in &self.hot {
                let got: Option<Vec<SliceQuantities>> =
                    self.events[i].load(&label).map_err(|e| e.to_string())?;
                if got.as_ref() != Some(&ctx.inputs[i].slices) {
                    return Err(format!("warm-up read of event {i} returned other slices"));
                }
            }
        }
        Ok(())
    }

    fn timed(&mut self, ctx: &Ctx) -> Result<Phase, String> {
        let label = slice_label();
        let this = &*self;
        let (clients, elapsed_s) = closed_loop(
            ctx.run_for,
            |t| {
                (
                    Rng::new(ctx.seed.wrapping_mul(31).wrapping_add(t as u64)),
                    Client::default(),
                )
            },
            |(rng, c), t, seq| {
                let op = ((t as u32) << 24) | seq as u32;
                let t0 = Instant::now();
                if rng.chance(LOAD_SHARE) {
                    let i = this.pick(rng, None);
                    let got = ctx.tracer.span("hepnos.event.load", 0, op, |_| {
                        this.events[i].load::<Vec<SliceQuantities>>(&label)
                    });
                    c.get_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    match got {
                        Ok(Some(slices)) if slices == ctx.inputs[i].slices => {}
                        Ok(_) => c.wrong += 1,
                        Err(_) => c.failed += 1,
                    }
                } else {
                    let i = this.pick(rng, Some(t));
                    let value = ((t as u64) << 48) | seq;
                    let stored = ctx.tracer.span("hepnos.event.store", 0, op, |_| {
                        this.events[i].store(&this.tag, &value)
                    });
                    c.put_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    match stored {
                        Ok(()) => {
                            c.last.insert(i, value);
                        }
                        Err(_) => c.failed += 1,
                    }
                }
            },
        );
        let mut phase = Phase {
            elapsed_s,
            ..Phase::default()
        };
        let mut wrong = 0;
        for (_, c) in clients {
            let ops = (c.get_us.len() + c.put_us.len()) as u64;
            phase.attempted += ops;
            phase.failed += c.failed;
            wrong += c.wrong;
            phase.pairs_written += c.put_us.len() as f64;
            phase.op_us.extend(&c.get_us);
            phase.op_us.extend(&c.put_us);
            phase.get_us.extend(c.get_us);
            phase.put_us.extend(c.put_us);
            self.last.push(c.last);
        }
        phase.items = phase.attempted as f64;
        phase.events = phase.items;
        if wrong > 0 {
            phase.errors.push(format!(
                "{wrong} loads returned other slices than generated"
            ));
        }
        Ok(phase)
    }

    /// Each thread reads back the last value it stored under every key.
    fn verify(&mut self, _ctx: &Ctx, phase: &mut Phase) -> Result<(), String> {
        let mut stale = 0;
        for (&i, &want) in self.last.iter().flatten() {
            let got: Option<u64> = self.events[i].load(&self.tag).map_err(|e| e.to_string())?;
            if got != Some(want) {
                stale += 1;
            }
        }
        if stale > 0 {
            phase.errors.push(format!(
                "{stale} keys do not read back their last acked store"
            ));
        }
        Ok(())
    }
}
