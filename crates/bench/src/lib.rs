//! Shared utilities for the benchmark harness: cost calibration against the
//! real implementation and table formatting for the figure binaries.
//!
//! See `EXPERIMENTS.md` at the workspace root for the experiment index and
//! recorded results.

#![warn(missing_docs)]

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
    fn fmt_throughput_groups_digits() {
        assert_eq!(fmt_throughput(1234567.0), "1,234,567");
        assert_eq!(fmt_throughput(999.4), "999");
        assert_eq!(fmt_throughput(0.0), "0");
    }
}
