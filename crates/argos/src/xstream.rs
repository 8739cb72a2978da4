//! Execution streams (`ABT_xstream` analogue).

use crate::pool::Pool;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle as ThreadHandle;
use std::time::Duration;

/// How long an idle xstream waits on one pool before moving to the next.
const POLL_QUANTUM: Duration = Duration::from_millis(2);

struct Shared {
    stop: AtomicBool,
    executed: AtomicU64,
}

/// An execution stream: an OS thread running a scheduler loop over one or
/// more [`Pool`]s in round-robin order.
///
/// In Argobots terms this is an `ABT_xstream` with a basic scheduler
/// attached. The pool list is fixed at creation, mirroring Bedrock's static
/// mapping of schedulers to pools.
pub struct ExecutionStream {
    name: String,
    shared: Arc<Shared>,
    handle: Option<ThreadHandle<()>>,
}

/// Counters for a running execution stream.
#[derive(Debug, Clone, Copy)]
pub struct XstreamStats {
    /// Total number of tasks this xstream has executed.
    pub tasks_executed: u64,
}

impl ExecutionStream {
    /// Spawn an execution stream draining `pools` (round-robin among them).
    ///
    /// # Panics
    ///
    /// Panics if `pools` is empty.
    pub fn spawn(name: impl Into<String>, pools: Vec<Pool>) -> Self {
        assert!(!pools.is_empty(), "xstream needs at least one pool");
        let name = name.into();
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            executed: AtomicU64::new(0),
        });
        let sh = Arc::clone(&shared);
        let tname = name.clone();
        let handle = std::thread::Builder::new()
            .name(format!("argos-xs-{tname}"))
            .spawn(move || scheduler_loop(&pools, &sh))
            .expect("failed to spawn xstream thread");
        ExecutionStream {
            name,
            shared,
            handle: Some(handle),
        }
    }

    /// The xstream's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Snapshot of execution counters.
    pub fn stats(&self) -> XstreamStats {
        XstreamStats {
            tasks_executed: self.shared.executed.load(Ordering::Relaxed),
        }
    }

    /// Request the scheduler loop to stop once its pools stop yielding work,
    /// then join the thread. Called automatically on drop.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ExecutionStream {
    fn drop(&mut self) {
        self.join_inner();
    }
}

fn scheduler_loop(pools: &[Pool], shared: &Shared) {
    loop {
        let mut ran = false;
        for pool in pools {
            // Drain eagerly: popping without blocking while work is
            // available keeps hot pools hot.
            while let Some(task) = pool.try_pop() {
                task();
                shared.executed.fetch_add(1, Ordering::Relaxed);
                ran = true;
            }
        }
        if ran {
            continue;
        }
        if shared.stop.load(Ordering::Acquire) {
            // Final sweep: a task may have been pushed between the drain and
            // the stop check.
            let leftover = pools.iter().any(|p| !p.is_empty());
            if !leftover {
                return;
            }
            continue;
        }
        // Idle: block briefly on the first pool. close() wakes us.
        if let Some(task) = pools[0].pop_timeout(POLL_QUANTUM) {
            task();
            shared.executed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executes_submitted_tasks() {
        let pool = Pool::new("p");
        let xs = ExecutionStream::spawn("es", vec![pool.clone()]);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..100)
            .map(|_| {
                let c = Arc::clone(&counter);
                pool.spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert!(xs.stats().tasks_executed >= 100);
        pool.close();
        xs.join();
    }

    #[test]
    fn drains_before_stopping() {
        let pool = Pool::new("p");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.push(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let xs = ExecutionStream::spawn("es", vec![pool.clone()]);
        pool.close();
        xs.join();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn round_robin_over_multiple_pools() {
        let p1 = Pool::new("a");
        let p2 = Pool::new("b");
        let xs = ExecutionStream::spawn("es", vec![p1.clone(), p2.clone()]);
        let h1 = p1.spawn(|| 1);
        let h2 = p2.spawn(|| 2);
        assert_eq!(h1.join() + h2.join(), 3);
        p1.close();
        p2.close();
        xs.join();
    }

    #[test]
    fn multiple_xstreams_share_a_pool() {
        let pool = Pool::new("p");
        let xs: Vec<_> = (0..4)
            .map(|i| ExecutionStream::spawn(format!("es{i}"), vec![pool.clone()]))
            .collect();
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..400)
            .map(|_| {
                let c = Arc::clone(&counter);
                pool.spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 400);
        pool.close();
        for x in xs {
            x.join();
        }
    }
}
