//! A tiny run of every workload, untraced and traced, must pass its own
//! correctness checks and print every metric `BENCHMARK.json` declares.

use std::path::PathBuf;
use std::process::Command;

/// Metric names of one section of `BENCHMARK.json` (`end_to_end` or
/// `per_layer`), read as text: every `"name": "..."` in the section.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the package");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("tiny-runs");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .current_dir(&dir)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_prints_every_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 5);
    assert!(per_layer.len() > 70);
    for (workload, headline) in [
        ("ingest", "ingest_events_per_s"),
        ("analysis", "analysis_events_per_s"),
        ("pushdown", "pushdown_slices_per_s"),
        ("point_mix", "point_ops_per_s"),
    ] {
        for trace in ["0", "1"] {
            let out = run(workload, trace);
            let last = out.lines().last().unwrap();
            assert!(last.starts_with("{\"correct\": true, "), "{last}");
            assert!(last.contains("\"failed\": 0, "), "{last}");
            let names = if trace == "0" {
                &end_to_end
            } else {
                &per_layer
            };
            for name in names {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} --trace {trace} lacks {name}: {last}"
                );
            }
            // The metrics a user reads, by the names they know them by.
            let mut named = vec![
                "setup_s",
                headline,
                "client_peak_rss_mb",
                "server_peak_rss_mb",
                "failed_ops_frac",
            ];
            if workload == "point_mix" {
                named.extend(["get_p50_us", "get_p99_us", "put_p50_us", "put_p99_us"]);
            }
            for name in named {
                assert!(
                    out.lines()
                        .any(|l| l.starts_with("metric ") && l.contains(name)),
                    "{workload} prints no {name} line:\n{out}"
                );
            }
            if trace == "1" {
                for line in ["reconcile: ", "tracing overhead: ", "spans: "] {
                    assert!(out.contains(line), "{workload} lacks {line:?}:\n{out}");
                }
            }
        }
    }
}
