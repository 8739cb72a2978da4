//! Latency summaries and the flat counter snapshots servers report.

use std::collections::BTreeMap;

/// Percentile levels tried, highest first, when picking the tail to report.
const TAIL_LEVELS: [f64; 3] = [0.999, 0.99, 0.9];

/// A tail percentile is reported only when at least this many samples lie
/// beyond it, so that it is not one outlier.
pub const MIN_BEYOND: usize = 10;

/// Median and tail of one latency sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// Percentile level of `tail` (0.5 when no higher level has enough
    /// samples beyond it).
    pub tail_level: f64,
    /// Value at `tail_level`.
    pub tail: f64,
}

/// Nearest-rank percentile of sorted samples: the smallest value with at
/// least `level * n` samples at or below it. Returns the value and how many
/// samples lie strictly beyond its rank.
fn nearest_rank(sorted: &[f64], level: f64) -> (f64, usize) {
    let n = sorted.len();
    // The epsilon keeps `0.9 * 150` from rounding up to rank 136.
    let rank = ((level * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// Summarize a sample: the median plus the highest of p99.9, p99 and p90
/// that has at least [`MIN_BEYOND`] samples beyond it (the median itself
/// when none has). `None` for an empty sample.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (p50, _) = nearest_rank(&sorted, 0.5);
    let (tail_level, tail) = TAIL_LEVELS
        .iter()
        .map(|&q| (q, nearest_rank(&sorted, q)))
        .find(|(_, (_, beyond))| *beyond >= MIN_BEYOND)
        .map(|(q, (v, _))| (q, v))
        .unwrap_or((0.5, p50));
    Some(Summary {
        n: sorted.len(),
        p50,
        tail_level,
        tail,
    })
}

/// Value at a fixed percentile level, provided at least [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn percentile(samples: &[f64], level: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (v, beyond) = nearest_rank(&sorted, level);
    (beyond >= MIN_BEYOND).then_some(v)
}

/// Median of a sample (nearest rank); `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5).0
}

/// A flat `name -> value` map of one server's counters, as carried on the
/// stats channel (`name=value` tokens on one line).
pub type Snapshot = BTreeMap<String, f64>;

/// Encode a snapshot as space-separated `name=value` tokens.
pub fn encode_snapshot(snap: &Snapshot) -> String {
    snap.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Decode [`encode_snapshot`] output.
pub fn decode_snapshot(line: &str) -> Result<Snapshot, String> {
    line.split_whitespace()
        .map(|tok| {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("bad stats token {tok:?}"))?;
            let v: f64 = v.parse().map_err(|_| format!("bad stats value {tok:?}"))?;
            Ok((k.to_string(), v))
        })
        .collect()
}

/// `after - before` for every counter in `after` (a counter absent before
/// counts from zero).
pub fn delta(before: &Snapshot, after: &Snapshot) -> Snapshot {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// Sum several servers' snapshots name by name.
pub fn sum(snaps: &[Snapshot]) -> Snapshot {
    let mut out = Snapshot::new();
    for s in snaps {
        for (k, v) in s {
            *out.entry(k.clone()).or_insert(0.0) += v;
        }
    }
    out
}

/// `a / b`, or `0.0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so the helper has to sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn median_and_highest_supported_tail() {
        // 2000 samples: p99.9 has only 2 beyond it, p99 has 20.
        let s = summarize(&ramp(2000)).unwrap();
        assert_eq!(s.n, 2000);
        assert_eq!(s.p50, 1000.0);
        assert_eq!(s.tail_level, 0.99);
        assert_eq!(s.tail, 1980.0);

        // 20_000 samples support p99.9 (20 beyond).
        let s = summarize(&ramp(20_000)).unwrap();
        assert_eq!(s.tail_level, 0.999);
        assert_eq!(s.tail, 19_980.0);
    }

    #[test]
    fn tail_falls_back_to_lower_levels() {
        // 150 samples: p99 has 1 beyond, p90 has 15.
        let s = summarize(&ramp(150)).unwrap();
        assert_eq!(s.tail_level, 0.9);
        assert_eq!(s.tail, 135.0);
        // 30 samples: p90 has 3 beyond, so only the median is reported.
        let s = summarize(&ramp(30)).unwrap();
        assert_eq!(s.tail_level, 0.5);
        assert_eq!(s.tail, s.p50);
        assert_eq!(s.p50, 15.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn fixed_percentile_needs_ten_beyond() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
    }

    #[test]
    fn snapshot_round_trips_and_diffs() {
        let mut a = Snapshot::new();
        a.insert("x.count".into(), 3.0);
        a.insert("y".into(), 0.25);
        let line = encode_snapshot(&a);
        assert_eq!(decode_snapshot(&line).unwrap(), a);
        let mut b = a.clone();
        b.insert("x.count".into(), 10.0);
        b.insert("z".into(), 1.0);
        let d = delta(&a, &b);
        assert_eq!(d["x.count"], 7.0);
        assert_eq!(d["y"], 0.0);
        assert_eq!(d["z"], 1.0);
        assert_eq!(sum(&[a, b])["x.count"], 13.0);
        assert!(decode_snapshot("novalue").is_err());
    }
}
