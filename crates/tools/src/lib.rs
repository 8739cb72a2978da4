//! Shared plumbing for the `hepnos-*` command-line tools: a tiny argument
//! parser (no external dependency) and descriptor-file helpers.
//!
//! The tools turn this workspace into a deployable system: `hepnos-serve`
//! runs a Bedrock-bootstrapped server as a real process on a TCP socket and
//! writes its connection descriptor to a file; `hepnos-ingest`,
//! `hepnos-ls` and `hepnos-select` are clients that read that file — the
//! same division of roles as the paper's `aprun`-launched server and client
//! programs (§IV-D).

#![warn(missing_docs)]

use bedrock::ConnectionDescriptor;
use hepnos::DataStore;
use mercurio::tcp::TcpEndpoint;
use std::collections::HashMap;
use std::path::Path;
use std::str::FromStr;

/// Minimal `--key value` / `--flag` argument parser.
#[derive(Debug, Default)]
pub struct Args {
    named: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    /// Parse from `std::env::args` (skipping the program name).
    pub fn from_env() -> Args {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator.
    pub fn parse(items: impl Iterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut items = items.peekable();
        while let Some(item) = items.next() {
            if let Some(key) = item.strip_prefix("--") {
                let value = match items.peek() {
                    Some(v) if !v.starts_with("--") => items.next().expect("peeked"),
                    _ => String::from("true"),
                };
                args.named.insert(key.to_string(), value);
            } else {
                args.positional.push(item);
            }
        }
        args
    }

    /// Named option value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.named.get(key).map(|s| s.as_str())
    }

    /// Named option with default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Named option parsed as `T`; `None` when absent. A value that does
    /// not parse exits 2 with `bad --KEY VALUE` and the usage line instead
    /// of falling back to a default the caller did not ask for.
    pub fn parsed<T: FromStr>(&self, key: &str, usage: &str) -> Option<T> {
        let value = self.get(key)?;
        match value.parse() {
            Ok(v) => Some(v),
            Err(_) => {
                eprintln!("bad --{key} {value}\nusage: {usage}");
                std::process::exit(2);
            }
        }
    }

    /// Required named option; exits with a usage message if absent.
    pub fn require(&self, key: &str, usage: &str) -> String {
        match self.get(key) {
            Some(v) => v.to_string(),
            None => {
                eprintln!("missing required option --{key}\nusage: {usage}");
                std::process::exit(2);
            }
        }
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

/// Read a deployment descriptor file (JSON array of per-server
/// descriptors, as written by `hepnos-serve`).
pub fn read_descriptors(path: &Path) -> Vec<ConnectionDescriptor> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read descriptor file {}: {e}", path.display());
        std::process::exit(2);
    });
    ConnectionDescriptor::parse_deployment(&text).unwrap_or_else(|e| {
        eprintln!("bad descriptor file {}: {e}", path.display());
        std::process::exit(2);
    })
}

/// Connect a DataStore over TCP using a descriptor file.
///
/// CLI clients retry transient failures — including `Busy` pushback from
/// an admission-controlled service — with a budget deep enough to ride
/// out overload bursts, so shedding degrades throughput instead of
/// failing the run.
pub fn connect(path: &Path) -> DataStore {
    let descriptors = read_descriptors(path);
    let ep = TcpEndpoint::bind(0).unwrap_or_else(|e| {
        eprintln!("cannot bind client socket: {e}");
        std::process::exit(2);
    });
    let retry = hepnos::RetryPolicy {
        max_attempts: 64,
        base_backoff: std::time::Duration::from_millis(1),
        max_backoff: std::time::Duration::from_millis(50),
        ..Default::default()
    };
    DataStore::connect_with_retry(ep, &descriptors, retry).unwrap_or_else(|e| {
        eprintln!("cannot connect: {e}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(|x| x.to_string()))
    }

    #[test]
    fn named_and_positional() {
        let a = parse("--port 9000 input.json --verbose --name demo out");
        assert_eq!(a.get("port"), Some("9000"));
        assert_eq!(a.get("verbose"), Some("true"));
        assert_eq!(a.get("name"), Some("demo"));
        assert_eq!(
            a.positional(),
            &["input.json".to_string(), "out".to_string()]
        );
        assert_eq!(a.get("absent"), None);
        assert_eq!(a.get_or("absent", "d"), "d");
        assert_eq!(a.parsed::<u16>("port", "usage"), Some(9000));
        assert_eq!(a.parsed::<u16>("absent", "usage"), None);
    }

    #[test]
    fn flag_followed_by_flag() {
        let a = parse("--a --b value");
        assert_eq!(a.get("a"), Some("true"));
        assert_eq!(a.get("b"), Some("value"));
    }
}
