//! Metrics: the end-to-end set (untraced runs) and the per-layer set
//! (traced runs), computed from the phase, the client's counters and the
//! servers' snapshot deltas.

use crate::stats::{median, percentile, ratio, summarize, Snapshot};
use crate::workloads::{Phase, Workload};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("client_peak_rss_mb", "MB"),
    ("server_peak_rss_mb", "MB"),
];

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Yokan RPCs whose handler time margo reports, by offset from
/// `yokan::PROVIDER_RPC_BASE` (the protocol's op numbering).
pub const RPC_OPS: [(&str, u16); 7] = [
    ("put", 0),
    ("put_multi", 1),
    ("get", 2),
    ("get_multi", 3),
    ("list_keys", 6),
    ("filter", 13),
    ("repl_forward", 14),
];

/// Everything measured in one run.
pub struct Measured<'a> {
    pub workload: Workload,
    pub phase: &'a Phase,
    /// Durations of every set-up of the run (seconds).
    pub setups: &'a [f64],
    /// Server counters over the timed phase, summed over both servers.
    pub servers: Snapshot,
    /// Server counters at the end of the phase, one snapshot per server.
    pub servers_after: &'a [Snapshot],
    pub client_cpu_s: f64,
    pub client_peak_rss_mb: f64,
    pub retry: yokan::RetryStats,
    pub endpoint: mercurio::EndpointStats,
    /// Per-span-name count and seconds of a traced run (empty when
    /// untraced).
    pub spans: BTreeMap<&'static str, (u64, f64)>,
}

impl Measured<'_> {
    fn server(&self, name: &str) -> f64 {
        self.servers.get(name).copied().unwrap_or(0.0)
    }

    fn server_after(&self, name: &str) -> f64 {
        self.servers_after.iter().filter_map(|s| s.get(name)).sum()
    }

    fn span_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |t| t.1)
    }

    fn rpc_id(op_offset: u16) -> u16 {
        yokan::PROVIDER_RPC_BASE + op_offset
    }

    /// Mean server handler time of one RPC op over the phase (µs).
    fn handler_mean_us(&self, op_offset: u16) -> f64 {
        let id = Self::rpc_id(op_offset);
        1e6 * ratio(
            self.server(&format!("rpc.{id}.total_s")),
            self.server(&format!("rpc.{id}.count")),
        )
    }

    /// Work completed per second of the timed phase.
    pub fn throughput(&self) -> f64 {
        ratio(self.phase.items, self.phase.elapsed_s)
    }

    fn server_peak_rss_mb(&self) -> f64 {
        self.server_after("proc.hwm_mb")
    }

    /// The end-to-end metrics: name, value, unit.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let values = [
            median(self.setups),
            self.throughput(),
            summarize(&self.phase.op_us).map_or(0.0, |s| s.p50),
            self.client_peak_rss_mb,
            self.server_peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    }

    /// The per-layer metrics: name, value, unit.
    pub fn per_layer(&self) -> Vec<Metric> {
        let p = self.phase;
        let client: BTreeMap<&str, f64> = p.client_layers.iter().copied().collect();
        let from_client = |n: &str| client.get(n).copied().unwrap_or(0.0);
        let ops = p.attempted as f64;
        let wal = self.server("lsm.wal_bytes");
        let storage_writes =
            wal + self.server("lsm.flush_write_bytes") + self.server("lsm.compaction_write_bytes");
        let lookups = self.server("db.cache_hits") + self.server("db.cache_misses");
        // Client-observed mean latency minus the servers' mean handler time.
        let outside = |lat_us: &[f64], op_offset: u16| {
            if lat_us.is_empty() {
                0.0
            } else {
                lat_us.iter().sum::<f64>() / lat_us.len() as f64 - self.handler_mean_us(op_offset)
            }
        };
        let server_cpu = self.server("proc.cpu_s");
        let ep = &self.endpoint;
        let mut out: Vec<Metric> = Vec::new();
        let mut put = |name: &str, value: f64, unit: &'static str| {
            out.push((name.to_string(), value, unit));
        };
        put("nova.decode_s", self.span_s("nova.decode"), "s");
        put("nova.select_s", self.span_s("nova.select"), "s");
        put(
            "hepnos.batch.store_s",
            self.span_s("hepnos.batch.store"),
            "s",
        );
        put("hepnos.batch.wait_s", self.span_s("hepnos.batch.wait"), "s");
        for (name, unit) in [
            ("hepnos.batch.stall_s", "s"),
            ("hepnos.batch.pairs_per_rpc", "pairs/rpc"),
            ("hepnos.batch.window_shrinks", "count"),
            ("hepnos.pep.list_wait_s", "s"),
            ("hepnos.pep.prefetch_wait_s", "s"),
            ("hepnos.pep.dispatch_stall_s", "s"),
            ("hepnos.pep.rpc_s", "s"),
            ("hepnos.pep.overlap_ratio", "ratio"),
            ("hepnos.pep.worker_wait_s", "s"),
            ("hepnos.pep.callback_s", "s"),
            ("hepnos.pep.steals", "count"),
            ("hepnos.pep.load_imbalance", "ratio"),
        ] {
            put(name, from_client(name), unit);
        }
        put("hepnos.enumerate_s", self.span_s("hepnos.enumerate"), "s");
        put("hepnos.filter_s", self.span_s("hepnos.filter"), "s");
        let r = &self.retry;
        put("yokan.client.attempts", r.attempts as f64, "count");
        put("yokan.client.retried_rpcs", r.retried_rpcs as f64, "count");
        put(
            "yokan.client.busy_pushbacks",
            r.busy_pushbacks as f64,
            "count",
        );
        put("yokan.client.gave_up", r.gave_up as f64, "count");
        put(
            "mercurio.client.bytes_per_event",
            ratio((ep.bytes_sent + ep.bytes_received) as f64, p.events),
            "B/event",
        );
        put(
            "mercurio.client.frames_per_write",
            ratio(ep.frames_sent as f64, ep.wire_writes as f64),
            "frames/write",
        );
        put(
            "mercurio.client.send_stalls",
            ep.send_stalls as f64,
            "count",
        );
        put(
            "mercurio.server.frames_per_write",
            ratio(self.server("ep.frames_sent"), self.server("ep.wire_writes")),
            "frames/write",
        );
        put(
            "mercurio.server.bytes_sent",
            self.server("ep.bytes_sent"),
            "B",
        );
        put(
            "mercurio.get_outside_handler_us",
            outside(&p.get_us, 2),
            "us",
        );
        put(
            "mercurio.put_outside_handler_us",
            outside(&p.put_us, 0),
            "us",
        );
        for (op, off) in RPC_OPS {
            let id = Self::rpc_id(off);
            let max_s = self
                .servers_after
                .iter()
                .filter_map(|s| s.get(&format!("rpc.{id}.max_s")))
                .fold(0.0, |a: f64, &b| a.max(b));
            put(
                &format!("margo.handler_s.{op}"),
                self.server(&format!("rpc.{id}.total_s")),
                "s",
            );
            put(
                &format!("margo.calls.{op}"),
                self.server(&format!("rpc.{id}.count")),
                "count",
            );
            put(&format!("margo.handler_max_ms.{op}"), max_s * 1e3, "ms");
        }
        put(
            "argos.tasks_per_op",
            ratio(self.server("pool.popped"), ops),
            "tasks/op",
        );
        put("yokan.forward.sent", self.server("fwd.sent"), "count");
        put(
            "yokan.forward.degraded",
            self.server("fwd.degraded"),
            "count",
        );
        for (name, unit) in [
            ("yokan.filter.pages_skipped_ratio", "ratio"),
            ("yokan.filter.bytes_filtered", "B"),
        ] {
            put(name, from_client(name), unit);
        }
        for (name, key, unit) in [
            ("lsmdb.flushes", "lsm.flushes", "count"),
            ("lsmdb.compactions", "lsm.compactions", "count"),
            ("lsmdb.trivial_moves", "lsm.trivial_moves", "count"),
        ] {
            put(name, self.server(key), unit);
        }
        put("lsmdb.write_amp", ratio(storage_writes, wal), "ratio");
        put("lsmdb.wal_syncs", self.server("lsm.wal_syncs"), "count");
        put(
            "lsmdb.pairs_per_wal_sync",
            ratio(
                p.pairs_written * crate::server::REPLICATION as f64,
                self.server("lsm.wal_syncs"),
            ),
            "pairs/sync",
        );
        for (name, key, unit) in [
            ("lsmdb.write_stalls", "lsm.write_stalls", "count"),
            ("lsmdb.stall_s", "lsm.stall_s", "s"),
            ("lsmdb.write_sheds", "lsm.write_sheds", "count"),
        ] {
            put(name, self.server(key), unit);
        }
        put(
            "lsmdb.sst_reads_per_get",
            ratio(self.server("lsm.sst_point_reads"), lookups),
            "reads/get",
        );
        put(
            "lsmdb.bloom_negative_ratio",
            ratio(
                self.server("lsm.bloom_negatives"),
                self.server("lsm.bloom_checks"),
            ),
            "ratio",
        );
        put(
            "lsmdb.cache_hit_ratio",
            ratio(self.server("db.cache_hits"), lookups),
            "ratio",
        );
        put(
            "lsmdb.cache_evictions",
            self.server("db.cache_evictions"),
            "count",
        );
        put(
            "lsmdb.space_amp",
            ratio(
                self.server_after("lsm.disk_bytes"),
                self.server_after("lsm.wal_bytes"),
            ),
            "ratio",
        );
        put("proc.client_cpu_s", self.client_cpu_s, "s");
        put("proc.server_cpu_s", server_cpu, "s");
        put(
            "proc.cpu_us_per_op",
            1e6 * ratio(self.client_cpu_s + server_cpu, ops),
            "us/op",
        );
        put(
            "bench.op_tail_us",
            summarize(&p.op_us).map_or(0.0, |s| s.tail),
            "us",
        );
        for (name, samples, level) in [
            ("point.get_p50_us", &p.get_us, 0.5),
            ("point.get_p99_us", &p.get_us, 0.99),
            ("point.put_p50_us", &p.put_us, 0.5),
            ("point.put_p99_us", &p.put_us, 0.99),
        ] {
            put(name, percentile(samples, level).unwrap_or(0.0), "us");
        }
        put("failed_ops_frac", ratio(p.failed as f64, ops), "ratio");
        out
    }

    /// Human-readable lines naming each end-to-end number the way a user
    /// of this workload reads it, with sample counts.
    pub fn headline(&self) -> Vec<String> {
        let p = self.phase;
        let mut lines = Vec::new();
        let setups: Vec<String> = self.setups.iter().map(|s| format!("{s:.3}")).collect();
        lines.push(format!(
            "metric setup_s {:.4} s (median of {} set-ups: {})",
            median(self.setups),
            self.setups.len(),
            setups.join(" ")
        ));
        let (name, unit) = match self.workload {
            Workload::Ingest => ("ingest_events_per_s", "events/s"),
            Workload::Analysis => ("analysis_events_per_s", "events/s"),
            Workload::Pushdown => ("pushdown_slices_per_s", "slices/s"),
            Workload::PointMix => ("point_ops_per_s", "ops/s"),
        };
        lines.push(format!(
            "metric {name} {:.1} {unit} ({} in {:.3} s)",
            self.throughput(),
            p.items,
            p.elapsed_s
        ));
        let unit_of_work = match self.workload {
            Workload::Ingest => "file ingest",
            Workload::Analysis | Workload::Pushdown => "pass over the dataset",
            Workload::PointMix => "point op",
        };
        if let Some(s) = summarize(&p.op_us) {
            lines.push(format!(
                "metric op_latency_us p50 {:.1} p{} {:.1} (n={}, unit of work: {unit_of_work})",
                s.p50,
                s.tail_level * 100.0,
                s.tail,
                s.n
            ));
        }
        for (kind, samples) in [("get", &p.get_us), ("put", &p.put_us)] {
            if samples.is_empty() {
                continue;
            }
            let p50 = percentile(samples, 0.5).unwrap_or(f64::NAN);
            let p99 =
                percentile(samples, 0.99).map_or("n/a (<10 beyond)".into(), |v| format!("{v:.1}"));
            lines.push(format!(
                "metric {kind}_p50_us {p50:.1} us; {kind}_p99_us {p99} us (n={})",
                samples.len()
            ));
        }
        lines.push(format!(
            "metric client_peak_rss_mb {:.1} MB; server_peak_rss_mb {:.1} MB (sum of both servers)",
            self.client_peak_rss_mb,
            self.server_peak_rss_mb()
        ));
        lines.push(format!(
            "metric failed_ops_frac {} ratio ({} failed or given up of {} attempted)",
            ratio(p.failed as f64, p.attempted as f64),
            p.failed,
            p.attempted
        ));
        lines
    }
}

/// Per-layer metrics a workload does not exercise, with the reason.
pub fn absent_on(workload: Workload) -> &'static str {
    match workload {
        Workload::Ingest => {
            "nova.*, hepnos.pep.*, hepnos.enumerate_s/filter_s, yokan.filter.*, point.*: \
             no PEP pass, push-down or point op runs"
        }
        Workload::Analysis => {
            "hepnos.batch.*, hepnos.enumerate_s/filter_s, yokan.filter.*, point.*: \
             read-only PEP passes"
        }
        Workload::Pushdown => {
            "nova.*, hepnos.batch.*, hepnos.pep.*, point.*: the selection runs in the \
             servers' filter"
        }
        Workload::PointMix => {
            "nova.*, hepnos.batch.*, hepnos.pep.*, hepnos.enumerate_s/filter_s, \
             yokan.filter.*: single synchronous loads and stores"
        }
    }
}

/// The result line: the last line of standard output.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let phase = Phase::default();
        let m = Measured {
            workload: Workload::Analysis,
            phase: &phase,
            setups: &[],
            servers: Snapshot::new(),
            servers_after: &[],
            client_cpu_s: 0.0,
            client_peak_rss_mb: 0.0,
            retry: Default::default(),
            endpoint: Default::default(),
            spans: BTreeMap::new(),
        };
        let (e2e, layers) = (m.end_to_end(), m.per_layer());
        assert_eq!(e2e.len(), END_TO_END.len());
        assert!(layers.len() <= 128);
        let mut seen = std::collections::HashSet::new();
        for (n, v, u) in e2e.iter().chain(&layers) {
            assert!(seen.insert(n.clone()), "duplicate metric {n}");
            assert!(v.is_finite(), "{n} is {v}");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {n}"
            );
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {u}"
            );
        }
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let line = json_line(true, 5, 0, &[("a_s".into(), 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \
             \"metrics\": {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
