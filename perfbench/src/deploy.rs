//! The two-node deployment as seen from the benchmark's client process: server
//! children over loopback TCP, one `DataStore` connected to both.

use crate::server::SERVE_ARG;
use crate::stats::{decode_snapshot, Snapshot};
use bedrock::ConnectionDescriptor;
use hepnos::DataStore;
use mercurio::tcp::TcpEndpoint;
use mercurio::Endpoint;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// Server processes in the deployment.
pub const NODES: usize = 2;

/// The client's retry policy: `Busy` pushback from an lsmdb write stall or
/// an admission queue is retried (and counted in `retry_stats`) rather than
/// failing the run.
pub fn retry_policy() -> hepnos::RetryPolicy {
    hepnos::RetryPolicy {
        max_attempts: 64,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(50),
        ..Default::default()
    }
}

struct Node {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Node {
    fn spawn(data_dir: &Path) -> Result<Node, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg(SERVE_ARG)
            .arg(data_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn server: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Node {
            child,
            stdin,
            stdout,
        })
    }

    /// Read one reply line and strip its expected leading word.
    fn expect(&mut self, word: &str) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("server stdout: {e}"))?;
        if n == 0 {
            return Err(format!(
                "server exited while the client waited for {word:?}"
            ));
        }
        let line = line.trim_end();
        match line.split_once(' ') {
            Some((w, rest)) if w == word => Ok(rest.to_string()),
            None if line == word => Ok(String::new()),
            _ => Err(format!("server answered {line:?}, expected {word:?}")),
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.stdin, "{line}")
            .and_then(|_| self.stdin.flush())
            .map_err(|e| format!("server stdin: {e}"))
    }
}

/// A running deployment. Dropping it kills any server still running and
/// removes its data directory; [`Deployment::shutdown`] stops the servers
/// cleanly and reports failures.
pub struct Deployment {
    nodes: Vec<Node>,
    endpoint: Arc<TcpEndpoint>,
    pub store: DataStore,
    dir: PathBuf,
}

impl Deployment {
    /// Launch the servers under `dir`, wire their replica chains, and
    /// connect one `DataStore` through one client endpoint.
    pub fn boot(dir: &Path) -> Result<Deployment, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut nodes = Vec::with_capacity(NODES);
        for i in 0..NODES {
            nodes.push(Node::spawn(&dir.join(format!("node{i}")))?);
        }
        let mut descriptors = Vec::with_capacity(NODES);
        for n in &mut nodes {
            let json = n.expect("descriptor")?;
            let d: ConnectionDescriptor =
                serde_json::from_str(&json).map_err(|e| format!("bad descriptor: {e}"))?;
            descriptors.push(d);
        }
        let deployment = serde_json::to_string(&descriptors).map_err(|e| e.to_string())?;
        for n in &mut nodes {
            n.send(&format!("wire {deployment}"))?;
        }
        for n in &mut nodes {
            n.expect("wired")?;
        }
        let endpoint = TcpEndpoint::bind(0).map_err(|e| format!("cannot bind client: {e}"))?;
        let store = DataStore::connect_with_retry(
            Arc::clone(&endpoint) as Arc<dyn Endpoint>,
            &descriptors,
            retry_policy(),
        )
        .map_err(|e| format!("cannot connect: {e}"))?;
        Ok(Deployment {
            nodes,
            endpoint,
            store,
            dir: dir.to_path_buf(),
        })
    }

    /// One counter snapshot per server.
    pub fn snapshot(&mut self) -> Result<Vec<Snapshot>, String> {
        for n in &mut self.nodes {
            n.send("stats")?;
        }
        self.nodes
            .iter_mut()
            .map(|n| decode_snapshot(&n.expect("stats")?))
            .collect()
    }

    /// Close the client, stop every server and wait for it, then remove
    /// the data directory.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.endpoint.shutdown();
        let mut result = Ok(());
        for mut n in self.nodes.drain(..) {
            let sent = n.send("quit");
            let status = n.child.wait().map_err(|e| format!("wait: {e}"));
            match (sent, status) {
                (Ok(()), Ok(s)) if s.success() => {}
                (Err(e), _) | (_, Err(e)) => result = result.and(Err(e)),
                (_, Ok(s)) => result = result.and(Err(format!("server exited with {s}"))),
            }
        }
        result
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        for n in &mut self.nodes {
            let _ = n.child.kill();
            let _ = n.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
