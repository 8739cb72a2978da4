//! Shared utilities for the benchmark harness: cost calibration against the
//! real implementation and table formatting for the figure binaries.
//!
//! See `EXPERIMENTS.md` at the workspace root for the experiment index and
//! recorded results.

#![warn(missing_docs)]

use bedrock::DbCounts;
use hepnos::testing::{local_deployment, LocalDeployment};
use hepnos::{ProductLabel, WriteBatch};
use nova::{select_slices, NovaGenerator, SelectionCuts};
use std::time::Instant;

/// Measure the real per-slice selection cost (seconds/slice) on this
/// machine by running the actual `nova::select_slices` over generated data.
pub fn calibrate_slice_cost() -> f64 {
    let gen = NovaGenerator::new(0xCA11B);
    let cuts = SelectionCuts::default();
    let events: Vec<_> = (0..2000u64).map(|e| gen.generate(1, 0, e)).collect();
    let n_slices: usize = events.iter().map(|e| e.slices.len()).sum();
    // Warm up, then measure.
    for ev in events.iter().take(100) {
        std::hint::black_box(select_slices(ev, &cuts));
    }
    let t = Instant::now();
    for ev in &events {
        std::hint::black_box(select_slices(ev, &cuts));
    }
    t.elapsed().as_secs_f64() / n_slices as f64
}

/// Measure real Yokan service costs on this machine: returns
/// `(per_event_seconds, per_batch_seconds)` for in-memory event listing,
/// solved from a two-point linear fit over small and large page sizes.
pub fn calibrate_kv_costs() -> (f64, f64) {
    use yokan::{DbTarget, YokanClient};
    let dep = local_deployment(1, DbCounts::default());
    let store = dep.datastore();
    let ds = store.root().create_dataset("calib").unwrap();
    let sr = ds.create_run(1).unwrap().create_subrun(0).unwrap();
    let uuid = ds.uuid().unwrap();
    let n_events = 20_000u64;
    let mut batch = WriteBatch::new(&store);
    for e in 0..n_events {
        batch.create_event(&sr, &uuid, e).unwrap();
    }
    batch.flush().unwrap();
    // Page all events of the dataset out of every event database with a
    // given page size, timing the whole sweep.
    let client = YokanClient::new(dep.fabric().endpoint("calib-kv"));
    let targets: Vec<DbTarget> = dep
        .descriptors()
        .iter()
        .flat_map(|d| {
            d.providers.iter().flat_map(|p| {
                p.databases
                    .iter()
                    .filter(|n| n.starts_with("events"))
                    .map(|n| DbTarget::new(d.address.clone(), p.provider_id, n))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let prefix: Vec<u8> = uuid.as_bytes().to_vec();
    let sweep = |page: usize| -> (f64, u64) {
        let t = Instant::now();
        let mut total = 0u64;
        let mut batches = 0u64;
        for db in &targets {
            let mut from = prefix.clone();
            loop {
                let keys = client.list_keys(db, &from, &prefix, page).unwrap();
                batches += 1;
                if keys.is_empty() {
                    break;
                }
                total += keys.len() as u64;
                from = keys.last().unwrap().clone();
            }
        }
        assert_eq!(total, n_events);
        (t.elapsed().as_secs_f64(), batches)
    };
    sweep(4096); // warm-up
    let (t_small, b_small) = sweep(64);
    let (t_large, b_large) = sweep(16384);
    dep.shutdown();
    // t = per_batch * batches + per_event * n_events, two equations.
    let per_batch = ((t_small - t_large) / (b_small as f64 - b_large as f64)).max(0.0);
    let per_event = ((t_large - per_batch * b_large as f64) / n_events as f64).max(0.0);
    (per_event, per_batch)
}

/// Build a small in-process deployment pre-loaded with synthetic events;
/// returns the deployment, the dataset path, and the slice count.
pub fn loaded_deployment(
    n_nodes: usize,
    counts: DbCounts,
    n_subruns: u64,
    events_per_subrun: u64,
) -> (LocalDeployment, String, u64) {
    let dep = local_deployment(n_nodes, counts);
    let store = dep.datastore();
    let ds = store.root().create_dataset("bench/nova").unwrap();
    let gen = NovaGenerator::new(7);
    let label = ProductLabel::new("rec.slc").unwrap();
    let uuid = ds.uuid().unwrap();
    let mut slices = 0u64;
    let run = ds.create_run(1).unwrap();
    for s in 0..n_subruns {
        let sr = run.create_subrun(s).unwrap();
        let mut batch = WriteBatch::new(&store);
        for e in 0..events_per_subrun {
            let rec = gen.generate(1, s, e);
            let ev = batch.create_event(&sr, &uuid, e).unwrap();
            batch.store(&ev, &label, &rec.slices).unwrap();
            slices += rec.slices.len() as u64;
        }
        batch.flush().unwrap();
    }
    (dep, "bench/nova".to_string(), slices)
}

/// The `p`-quantile (`0.0..=1.0`) of an ascending, non-empty sample:
/// the element at rank `round((len - 1) * p)`.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Right-align a float with thousands separators for table output.
pub fn fmt_throughput(v: f64) -> String {
    let n = v.round() as u64;
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_returns_sane_costs() {
        let c = calibrate_slice_cost();
        assert!(c > 0.0 && c < 1e-3, "slice cost {c}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.5), 51);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7u64], 0.999), 7);
    }

    #[test]
    fn fmt_throughput_groups_digits() {
        assert_eq!(fmt_throughput(1234567.0), "1,234,567");
        assert_eq!(fmt_throughput(999.4), "999");
        assert_eq!(fmt_throughput(0.0), "0");
    }

    #[test]
    fn loaded_deployment_counts_slices() {
        let (dep, path, slices) = loaded_deployment(1, DbCounts::default(), 2, 20);
        assert!(slices > 0);
        let ds = dep.datastore().dataset(&path).unwrap();
        let run = ds.run(1).unwrap();
        assert_eq!(run.subruns().unwrap().len(), 2);
        dep.shutdown();
    }
}

#[cfg(test)]
mod kv_calibration_tests {
    use super::*;

    #[test]
    fn kv_calibration_returns_nonnegative_costs() {
        let (per_event, per_batch) = calibrate_kv_costs();
        assert!((0.0..1e-3).contains(&per_event), "per_event {per_event}");
        assert!((0.0..1.0).contains(&per_batch), "per_batch {per_batch}");
    }
}
