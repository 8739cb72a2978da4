//! FIFO work pools (`ABT_pool` analogue).

use crate::eventual::Eventual;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A unit of work pushed into a [`Pool`]: a boxed closure run to completion
/// by whichever execution stream pops it.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

struct PoolInner {
    queue: Mutex<VecDeque<Task>>,
    cond: Condvar,
    closed: Mutex<bool>,
    pushed: AtomicU64,
    popped: AtomicU64,
    name: String,
}

/// A thread-safe FIFO work queue shared between producers (RPC dispatch,
/// client code) and consumer execution streams.
///
/// Pools are the placement mechanism of the Mochi stack: a provider is mapped
/// to a pool, and the xstreams draining that pool are the compute resources
/// that execute the provider's RPCs.
#[derive(Clone)]
pub struct Pool {
    inner: Arc<PoolInner>,
}

/// Counters describing pool traffic, for monitoring and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks pushed since creation.
    pub pushed: u64,
    /// Tasks popped since creation.
    pub popped: u64,
    /// Tasks currently queued.
    pub queued: usize,
}

impl Pool {
    /// Create a new pool with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Pool {
            inner: Arc::new(PoolInner {
                queue: Mutex::new(VecDeque::new()),
                cond: Condvar::new(),
                closed: Mutex::new(false),
                pushed: AtomicU64::new(0),
                popped: AtomicU64::new(0),
                name: name.into(),
            }),
        }
    }

    /// The pool's name (unique within a [`crate::Runtime`]).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Push a raw task at the back of the queue.
    ///
    /// # Panics
    ///
    /// Panics if the pool is closed: submitting work during teardown is a
    /// lifecycle bug in the caller.
    pub fn push(&self, task: Task) {
        assert!(!*self.inner.closed.lock(), "push into closed pool");
        let mut q = self.inner.queue.lock();
        q.push_back(task);
        self.inner.pushed.fetch_add(1, Ordering::Relaxed);
        drop(q);
        self.inner.cond.notify_one();
    }

    /// Spawn a closure returning a value; the result is retrieved through the
    /// returned [`JoinHandle`].
    pub fn spawn<T, F>(&self, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let ev = Eventual::new();
        let ev2 = ev.clone();
        self.push(Box::new(move || ev2.set(f())));
        JoinHandle { ev }
    }

    /// Pop a task, blocking up to `timeout`. Returns `None` on timeout or if
    /// the pool is closed and empty.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<Task> {
        let deadline = std::time::Instant::now() + timeout;
        let mut q = self.inner.queue.lock();
        loop {
            if let Some(t) = q.pop_front() {
                self.inner.popped.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
            if *self.inner.closed.lock() {
                return None;
            }
            if self.inner.cond.wait_until(&mut q, deadline).timed_out() {
                let t = q.pop_front();
                if t.is_some() {
                    self.inner.popped.fetch_add(1, Ordering::Relaxed);
                }
                return t;
            }
        }
    }

    /// Pop without blocking.
    pub fn try_pop(&self) -> Option<Task> {
        let t = self.inner.queue.lock().pop_front();
        if t.is_some() {
            self.inner.popped.fetch_add(1, Ordering::Relaxed);
        }
        t
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mark the pool closed and wake all waiting consumers. Queued tasks are
    /// still drained; new pushes panic.
    pub fn close(&self) {
        *self.inner.closed.lock() = true;
        self.inner.cond.notify_all();
    }

    /// Whether [`Pool::close`] has been called.
    pub fn is_closed(&self) -> bool {
        *self.inner.closed.lock()
    }

    /// Snapshot of traffic counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            pushed: self.inner.pushed.load(Ordering::Relaxed),
            popped: self.inner.popped.load(Ordering::Relaxed),
            queued: self.len(),
        }
    }
}

/// Handle to a spawned task's result.
pub struct JoinHandle<T> {
    ev: Eventual<T>,
}

impl<T> JoinHandle<T> {
    /// Block until the task completes and return its result.
    pub fn join(self) -> T {
        self.ev.wait()
    }

    /// Block with a timeout; `Err(self)` on timeout.
    pub fn join_timeout(self, dur: Duration) -> Result<T, Self> {
        self.ev.wait_timeout(dur).map_err(|ev| JoinHandle { ev })
    }

    /// Whether the task has finished.
    pub fn is_finished(&self) -> bool {
        self.ev.is_set()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn drain(pool: &Pool) -> usize {
        let mut n = 0;
        while let Some(t) = pool.try_pop() {
            t();
            n += 1;
        }
        n
    }

    #[test]
    fn fifo_order() {
        let pool = Pool::new("p");
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5 {
            let log = Arc::clone(&log);
            pool.push(Box::new(move || log.lock().push(i)));
        }
        assert_eq!(drain(&pool), 5);
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn spawn_join() {
        let pool = Pool::new("p");
        let h = pool.spawn(|| 10);
        let t = pool.try_pop().unwrap();
        t();
        assert!(h.is_finished());
        assert_eq!(h.join(), 10);
    }

    #[test]
    fn stats_track_traffic() {
        let pool = Pool::new("p");
        pool.push(Box::new(|| ()));
        pool.push(Box::new(|| ()));
        assert_eq!(
            pool.stats(),
            PoolStats {
                pushed: 2,
                popped: 0,
                queued: 2
            }
        );
        pool.try_pop().unwrap()();
        assert_eq!(
            pool.stats(),
            PoolStats {
                pushed: 2,
                popped: 1,
                queued: 1
            }
        );
    }

    #[test]
    fn pop_timeout_returns_none_when_empty() {
        let pool = Pool::new("p");
        assert!(pool.pop_timeout(Duration::from_millis(5)).is_none());
    }

    #[test]
    fn close_wakes_poppers() {
        let pool = Pool::new("p");
        let p2 = pool.clone();
        let t = std::thread::spawn(move || p2.pop_timeout(Duration::from_secs(30)).is_none());
        std::thread::sleep(Duration::from_millis(10));
        pool.close();
        assert!(t.join().unwrap());
    }

    #[test]
    fn close_still_drains_queued_tasks() {
        let pool = Pool::new("p");
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        pool.push(Box::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        }));
        pool.close();
        pool.pop_timeout(Duration::from_millis(10)).unwrap()();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "closed pool")]
    fn push_after_close_panics() {
        let pool = Pool::new("p");
        pool.close();
        pool.push(Box::new(|| ()));
    }
}
