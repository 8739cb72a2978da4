//! Runtime: named pools + xstreams with ordered teardown
//! (`ABT_init`/`ABT_finalize` analogue).

use crate::pool::Pool;
use crate::xstream::ExecutionStream;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Errors raised while building or using a [`Runtime`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Two pools or two xstreams were declared with the same name.
    DuplicateName(String),
    /// An xstream referenced a pool that was never declared.
    UnknownPool(String),
    /// An xstream was declared with no pools.
    EmptyXstream(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::DuplicateName(n) => write!(f, "duplicate name: {n}"),
            RuntimeError::UnknownPool(n) => write!(f, "unknown pool: {n}"),
            RuntimeError::EmptyXstream(n) => write!(f, "xstream {n} has no pools"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Declarative builder for a [`Runtime`] — the programmatic equivalent of a
/// Bedrock "argobots" configuration section.
#[derive(Default)]
pub struct RuntimeBuilder {
    pools: Vec<String>,
    xstreams: Vec<(String, Vec<String>)>,
}

impl RuntimeBuilder {
    /// Declare a FIFO pool.
    pub fn pool(mut self, name: &str) -> Self {
        self.pools.push(name.to_string());
        self
    }

    /// Declare an xstream draining the named pools, in round-robin order.
    pub fn xstream(mut self, name: &str, pools: &[&str]) -> Self {
        self.xstreams.push((
            name.to_string(),
            pools.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Validate the declaration and start all xstream threads.
    pub fn build(self) -> Result<Runtime, RuntimeError> {
        let mut pools: HashMap<String, Pool> = HashMap::with_capacity(self.pools.len());
        for name in self.pools {
            if pools.contains_key(&name) {
                return Err(RuntimeError::DuplicateName(name));
            }
            pools.insert(name.clone(), Pool::new(name));
        }
        let mut seen = std::collections::HashSet::new();
        let mut xstreams = Vec::with_capacity(self.xstreams.len());
        for (name, pool_names) in self.xstreams {
            if !seen.insert(name.clone()) {
                return Err(RuntimeError::DuplicateName(name));
            }
            if pool_names.is_empty() {
                return Err(RuntimeError::EmptyXstream(name));
            }
            let mut ps = Vec::with_capacity(pool_names.len());
            for pn in &pool_names {
                ps.push(
                    pools
                        .get(pn)
                        .cloned()
                        .ok_or_else(|| RuntimeError::UnknownPool(pn.clone()))?,
                );
            }
            xstreams.push(ExecutionStream::spawn(name, ps));
        }
        Ok(Runtime {
            inner: Arc::new(RuntimeInner {
                pools,
                xstreams: Mutex::new(xstreams),
            }),
        })
    }
}

struct RuntimeInner {
    pools: HashMap<String, Pool>,
    xstreams: Mutex<Vec<ExecutionStream>>,
}

/// Owns a set of named pools and the execution streams draining them.
///
/// Cloning yields another handle to the same runtime. [`Runtime::shutdown`]
/// closes every pool (letting queued work drain) and joins every xstream.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RuntimeInner>,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("pools", &self.pool_names())
            .field("xstreams", &self.num_xstreams())
            .finish()
    }
}

impl Runtime {
    /// Start building a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Convenience: one FIFO pool named `"default"` drained by `n` xstreams.
    pub fn simple(n_xstreams: usize) -> Runtime {
        let mut b = Runtime::builder().pool("default");
        for i in 0..n_xstreams.max(1) {
            b = b.xstream(&format!("es{i}"), &["default"]);
        }
        b.build().expect("simple runtime construction cannot fail")
    }

    /// Look up a pool by name.
    pub fn pool(&self, name: &str) -> Option<Pool> {
        self.inner.pools.get(name).cloned()
    }

    /// The `"default"` pool, if declared.
    pub fn default_pool(&self) -> Option<Pool> {
        self.pool("default")
    }

    /// Names of all pools.
    pub fn pool_names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.inner.pools.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of running xstreams.
    pub fn num_xstreams(&self) -> usize {
        self.inner.xstreams.lock().len()
    }

    /// Close every pool, drain queued tasks, and join every xstream.
    /// Idempotent.
    pub fn shutdown(&self) {
        for pool in self.inner.pools.values() {
            if !pool.is_closed() {
                pool.close();
            }
        }
        let mut xs = self.inner.xstreams.lock();
        for x in xs.drain(..) {
            x.join();
        }
    }
}

impl Drop for RuntimeInner {
    fn drop(&mut self) {
        for pool in self.pools.values() {
            if !pool.is_closed() {
                pool.close();
            }
        }
        // ExecutionStream::drop joins each thread.
        self.xstreams.get_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn builder_validates_duplicate_pool() {
        let err = Runtime::builder().pool("a").pool("a").build().unwrap_err();
        assert_eq!(err, RuntimeError::DuplicateName("a".into()));
    }

    #[test]
    fn builder_validates_unknown_pool() {
        let err = Runtime::builder()
            .pool("a")
            .xstream("es", &["nope"])
            .build()
            .unwrap_err();
        assert_eq!(err, RuntimeError::UnknownPool("nope".into()));
    }

    #[test]
    fn builder_validates_empty_xstream() {
        let err = Runtime::builder()
            .pool("a")
            .xstream("es", &[])
            .build()
            .unwrap_err();
        assert_eq!(err, RuntimeError::EmptyXstream("es".into()));
    }

    #[test]
    fn simple_runtime_runs_work() {
        let rt = Runtime::simple(2);
        let pool = rt.default_pool().unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..64)
            .map(|_| {
                let c = Arc::clone(&counter);
                pool.spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        rt.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let rt = Runtime::simple(1);
        rt.shutdown();
        rt.shutdown();
    }

    #[test]
    fn multi_pool_topology() {
        // The HEPnOS server shape: dedicated pool per provider plus a shared
        // RPC pool.
        let rt = Runtime::builder()
            .pool("rpc")
            .pool("db0")
            .pool("db1")
            .xstream("es-rpc", &["rpc"])
            .xstream("es-db0", &["db0", "rpc"])
            .xstream("es-db1", &["db1", "rpc"])
            .build()
            .unwrap();
        assert_eq!(rt.num_xstreams(), 3);
        assert_eq!(rt.pool_names(), vec!["db0", "db1", "rpc"]);
        let h = rt.pool("db1").unwrap().spawn(|| "ok");
        assert_eq!(h.join(), "ok");
        rt.shutdown();
        assert_eq!(rt.num_xstreams(), 0);
    }
}
