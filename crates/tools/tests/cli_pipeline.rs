//! End-to-end multi-process test: the `hepnos-*` binaries run as real OS
//! processes talking over real TCP sockets — the closest this reproduction
//! gets to the paper's separately-launched server and client programs.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// A fresh scratch directory per test: the tests of this file run in
/// parallel in one process, so the name must not depend on the pid alone.
fn workdir(test: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hepnos-cli-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn serve_ingest_ls_select_pipeline() {
    let dir = workdir("pipeline");
    let descriptor = dir.join("node0.json");
    // 1. Server as a real child process (runs for up to 120 s, killed at
    //    the end of the test).
    let mut server = Command::new(env!("CARGO_BIN_EXE_hepnos-serve"))
        .args([
            "--events",
            "2",
            "--products",
            "2",
            "--descriptor-out",
            descriptor.to_str().unwrap(),
            "--run-seconds",
            "120",
        ])
        .spawn()
        .expect("spawn hepnos-serve");
    // Wait for the descriptor file to appear.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !descriptor.exists() {
        assert!(
            Instant::now() < deadline,
            "server never wrote its descriptor"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // The client tools expect a deployment array; wrap the single node.
    let one = std::fs::read_to_string(&descriptor).unwrap();
    let deployment = dir.join("deployment.json");
    std::fs::write(&deployment, format!("[{one}]")).unwrap();

    // 2. Generate + ingest through the CLI.
    let input = dir.join("files");
    let out = Command::new(env!("CARGO_BIN_EXE_hepnos-ingest"))
        .args([
            "--connect",
            deployment.to_str().unwrap(),
            "--dataset",
            "cli/nova",
            "--input",
            input.to_str().unwrap(),
            "--loaders",
            "2",
            "--generate",
            "4x100",
            "--seed",
            "11",
        ])
        .output()
        .expect("run hepnos-ingest");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ingest failed: {stdout} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("ingested 4 files"), "{stdout}");
    // Events with zero slices are not representable in the columnar layout
    // (as in the HDF5 original), so the ingested count may be slightly
    // below 4x100; capture it for the select step's cross-check.
    let ingested_events: u64 = stdout
        .split('/')
        .nth(1)
        .and_then(|seg| seg.trim().split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("cannot parse event count from: {stdout}"));
    assert!(
        ingested_events > 350 && ingested_events <= 400,
        "{ingested_events}"
    );

    // 3. Inspect with hepnos-ls.
    let out = Command::new(env!("CARGO_BIN_EXE_hepnos-ls"))
        .args(["--connect", deployment.to_str().unwrap(), "cli/nova"])
        .output()
        .expect("run hepnos-ls");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("dataset cli/nova"), "{stdout}");
    assert!(stdout.contains("run      0: 4 subruns"), "{stdout}");

    // 4. Run the selection with hepnos-select.
    let out = Command::new(env!("CARGO_BIN_EXE_hepnos-select"))
        .args([
            "--connect",
            deployment.to_str().unwrap(),
            "--dataset",
            "cli/nova",
            "--workers",
            "2",
            "--load-batch",
            "128",
        ])
        .output()
        .expect("run hepnos-select");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "select failed: {stdout} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(&format!("processed {ingested_events} events")),
        "select saw a different event count than ingest reported: {stdout}"
    );
    assert!(stdout.contains("accepted"), "{stdout}");

    server.kill().ok();
    server.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ls_on_empty_deployment() {
    let dir = workdir("empty");
    let descriptor = dir.join("node.json");
    let mut server = Command::new(env!("CARGO_BIN_EXE_hepnos-serve"))
        .args([
            "--events",
            "1",
            "--products",
            "1",
            "--descriptor-out",
            descriptor.to_str().unwrap(),
            "--run-seconds",
            "60",
        ])
        .spawn()
        .expect("spawn hepnos-serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !descriptor.exists() {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(50));
    }
    let one = std::fs::read_to_string(&descriptor).unwrap();
    let deployment = dir.join("deployment.json");
    std::fs::write(&deployment, format!("[{one}]")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hepnos-ls"))
        .args(["--connect", deployment.to_str().unwrap()])
        .output()
        .expect("run hepnos-ls");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("(no datasets)"));
    server.kill().ok();
    server.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A numeric option that does not parse is a usage error (exit 2), never a
/// silent fall-back to the option's default; the server fails before it
/// binds, so no descriptor is written.
#[test]
fn unparsable_numeric_options_exit_with_usage() {
    let dir = workdir("badnum");
    let descriptor = dir.join("node.json");
    let out = Command::new(env!("CARGO_BIN_EXE_hepnos-serve"))
        .args([
            "--events",
            "eight",
            "--descriptor-out",
            descriptor.to_str().unwrap(),
            "--run-seconds",
            "1",
        ])
        .output()
        .expect("run hepnos-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("bad --events eight"), "{stderr}");
    assert!(stderr.contains("usage: hepnos-serve"), "{stderr}");
    assert!(!descriptor.exists(), "server wrote a descriptor");

    let input = dir.join("files");
    std::fs::create_dir_all(&input).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hepnos-ingest"))
        .args([
            "--connect",
            dir.join("deployment.json").to_str().unwrap(),
            "--dataset",
            "cli/bad",
            "--input",
            input.to_str().unwrap(),
            "--loaders",
            "four",
        ])
        .output()
        .expect("run hepnos-ingest");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("bad --loaders four"), "{stderr}");
    assert!(stderr.contains("usage: hepnos-ingest"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--config` spells out the whole topology, so each option that would
/// also shape it is refused (exit 2, before binding, no descriptor)
/// instead of silently ignored. `--config` beside `--port` still serves.
#[test]
fn config_rejects_topology_options() {
    let dir = workdir("config-conflict");
    let cfg = dir.join("bedrock.json");
    std::fs::write(
        &cfg,
        r#"{
            "margo": {
                "argobots": {
                    "pools": [{"name": "default", "kind": "fifo_wait"}],
                    "xstreams": [{"name": "es0", "pools": ["default"]}]
                },
                "rpc_pool": "default"
            },
            "providers": [{
                "name": "kv",
                "provider_id": 0,
                "pool": "default",
                "databases": [{"name": "events_0", "type": "map"}]
            }]
        }"#,
    )
    .unwrap();
    let data_dir = dir.join("data");
    let cases = [
        ("backend", "lsm"),
        ("data-dir", data_dir.to_str().unwrap()),
        ("wal-sync", "group"),
        ("events", "3"),
        ("products", "3"),
        ("replication", "2"),
        ("port", "0"),
    ];
    let serve = |key: &str, value: &str| {
        let descriptor = dir.join(format!("{key}.json"));
        let child = Command::new(env!("CARGO_BIN_EXE_hepnos-serve"))
            .args([
                "--config",
                cfg.to_str().unwrap(),
                &format!("--{key}"),
                value,
            ])
            .args(["--descriptor-out", descriptor.to_str().unwrap()])
            .args(["--run-seconds", "1"])
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("run hepnos-serve");
        (key.to_string(), descriptor, child)
    };
    let runs: Vec<_> = cases.iter().map(|(k, v)| serve(k, v)).collect();
    for (key, descriptor, child) in runs {
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        if key == "port" {
            assert!(out.status.success(), "--config with --port: {stderr}");
            assert!(
                descriptor.exists(),
                "--config with --port wrote no descriptor"
            );
            continue;
        }
        assert_eq!(out.status.code(), Some(2), "--{key}: {stderr}");
        assert!(
            stderr.contains(&format!("--{key} cannot be combined with --config")),
            "{stderr}"
        );
        assert!(stderr.contains("usage: hepnos-serve"), "{stderr}");
        assert!(!descriptor.exists(), "--{key}: server wrote a descriptor");
    }
    std::fs::remove_dir_all(&dir).ok();
}
