//! Batched and asynchronous writes (paper §II-D).
//!
//! Storing millions of small products one RPC at a time is dominated by
//! per-RPC overhead. Both batches queue container creations and product
//! stores in one per-database queue, *grouped by target database* (since
//! not all updates target the same database), and send a group as one
//! `put_multi` RPC once it reaches the per-database limit and on flush (or
//! drop). They differ only in how a group is sent: a [`WriteBatch`] sends
//! it with a blocking RPC, an [`AsyncWriteBatch`] overlaps the RPCs with
//! the caller by issuing them from an [`argos::Pool`] and joins them in
//! its destructor.

use crate::datastore::{encode_product, DataSet, DataStore, Event, ProductLabel, Run, SubRun};
use crate::error::HepnosError;
use crate::keys::{EventNumber, RunNumber, SubRunNumber};
use argos::Pool;
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;
use yokan::DbTarget;

/// Default number of queued pairs per database that triggers an eager flush.
const DEFAULT_PER_DB_LIMIT: usize = 4096;

/// One database's group of queued key/value pairs.
type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

/// The queue under both batches: resolves each write's database and key,
/// buffers the pairs per database, and reports the database whose group
/// has just reached the per-database limit, for the owning batch to send.
struct DbQueue {
    store: DataStore,
    buffers: HashMap<DbTarget, Pairs>,
    per_db_limit: usize,
    queued: usize,
}

impl DbQueue {
    fn new(store: &DataStore) -> DbQueue {
        DbQueue {
            store: store.clone(),
            buffers: HashMap::new(),
            per_db_limit: DEFAULT_PER_DB_LIMIT,
            queued: 0,
        }
    }

    /// Queue one pair; returns its database when that group is full.
    fn push(&mut self, (db, key): (DbTarget, Vec<u8>), value: Vec<u8>) -> Option<DbTarget> {
        let buf = self.buffers.entry(db.clone()).or_default();
        buf.push((key, value));
        self.queued += 1;
        (buf.len() >= self.per_db_limit).then_some(db)
    }

    // The container handles below are optimistic: built without an
    // existence check, since their keys are queued, not yet visible.

    fn run(
        &mut self,
        dataset: &DataSet,
        number: RunNumber,
    ) -> Result<(Run, Option<DbTarget>), HepnosError> {
        let uuid = dataset
            .uuid()
            .ok_or_else(|| HepnosError::InvalidPath("the root dataset cannot hold runs".into()))?;
        let full = self.push(self.store.write_target_for_run(&uuid, number), Vec::new());
        let run = Run::unchecked(dataset.store_inner().clone(), uuid, number);
        Ok((run, full))
    }

    fn subrun(&mut self, run: &Run, number: SubRunNumber) -> (SubRun, Option<DbTarget>) {
        let target = self
            .store
            .write_target_for_subrun(&run.dataset_uuid(), run.number(), number);
        (
            SubRun::unchecked(run, number),
            self.push(target, Vec::new()),
        )
    }

    fn event(
        &mut self,
        subrun: &SubRun,
        dataset: &crate::Uuid,
        number: EventNumber,
    ) -> (Event, Option<DbTarget>) {
        let target = self.store.write_target_for_event(
            dataset,
            subrun.run_number(),
            subrun.number(),
            number,
        );
        (
            Event::unchecked(subrun, number),
            self.push(target, Vec::new()),
        )
    }

    fn product(
        &mut self,
        event: &Event,
        label: &ProductLabel,
        type_name: &str,
        bytes: Vec<u8>,
    ) -> Option<DbTarget> {
        let target = self
            .store
            .write_target_for_product(event.key(), label, type_name);
        self.push(target, bytes)
    }

    /// Whether any pair is queued for `db`.
    fn has_group(&self, db: &DbTarget) -> bool {
        self.buffers.get(db).is_some_and(|b| !b.is_empty())
    }

    /// Take `db`'s group out of the queue, leaving `spare` in its place.
    fn take(&mut self, db: &DbTarget, spare: Pairs) -> Pairs {
        let buf = self.buffers.get_mut(db).expect("queued database");
        let pairs = std::mem::replace(buf, spare);
        self.queued -= pairs.len();
        pairs
    }

    /// Every database the queue has held a group for.
    fn dbs(&self) -> Vec<DbTarget> {
        self.buffers.keys().cloned().collect()
    }
}

/// A synchronous write batch: updates are buffered per target database and
/// flushed together.
pub struct WriteBatch {
    queue: DbQueue,
    flushed_pairs: u64,
    flush_rpcs: u64,
}

impl WriteBatch {
    /// Create a batch writing through `store`.
    pub fn new(store: &DataStore) -> WriteBatch {
        WriteBatch {
            queue: DbQueue::new(store),
            flushed_pairs: 0,
            flush_rpcs: 0,
        }
    }

    /// Override the per-database eager-flush limit.
    pub fn with_per_db_limit(mut self, limit: usize) -> WriteBatch {
        self.queue.per_db_limit = limit.max(1);
        self
    }

    /// Number of currently buffered pairs.
    pub fn queued(&self) -> usize {
        self.queue.queued
    }

    /// Total pairs flushed so far.
    pub fn flushed_pairs(&self) -> u64 {
        self.flushed_pairs
    }

    /// Total `put_multi` RPCs issued so far.
    pub fn flush_rpcs(&self) -> u64 {
        self.flush_rpcs
    }

    /// Send `db`'s group, if any, with one blocking `put_multi`.
    fn flush_db(&mut self, db: &DbTarget) -> Result<(), HepnosError> {
        if !self.queue.has_group(db) {
            return Ok(());
        }
        let pairs = self.queue.take(db, Vec::new());
        self.queue.store.inner.client.put_multi(db, &pairs)?;
        // Counted only after the server acknowledged: a failed flush must
        // not report its pairs as flushed.
        self.flushed_pairs += pairs.len() as u64;
        self.flush_rpcs += 1;
        Ok(())
    }

    fn send_full(&mut self, full: Option<DbTarget>) -> Result<(), HepnosError> {
        full.map_or(Ok(()), |db| self.flush_db(&db))
    }

    /// Queue creation of a run; the returned handle is usable immediately
    /// for queueing children into the same batch.
    pub fn create_run(&mut self, dataset: &DataSet, number: RunNumber) -> Result<Run, HepnosError> {
        let (run, full) = self.queue.run(dataset, number)?;
        self.send_full(full)?;
        Ok(run)
    }

    /// Queue creation of a subrun.
    pub fn create_subrun(
        &mut self,
        run: &Run,
        number: SubRunNumber,
    ) -> Result<SubRun, HepnosError> {
        let (subrun, full) = self.queue.subrun(run, number);
        self.send_full(full)?;
        Ok(subrun)
    }

    /// Queue creation of an event.
    pub fn create_event(
        &mut self,
        subrun: &SubRun,
        dataset: &crate::Uuid,
        number: EventNumber,
    ) -> Result<Event, HepnosError> {
        let (event, full) = self.queue.event(subrun, dataset, number);
        self.send_full(full)?;
        Ok(event)
    }

    /// Queue a typed product store on an event.
    pub fn store<T: Serialize>(
        &mut self,
        event: &Event,
        label: &ProductLabel,
        value: &T,
    ) -> Result<(), HepnosError> {
        let (type_name, bytes) = encode_product(value)?;
        self.store_raw(event, label, &type_name, bytes)
    }

    /// Queue pre-serialized product bytes.
    pub fn store_raw(
        &mut self,
        event: &Event,
        label: &ProductLabel,
        type_name: &str,
        bytes: Vec<u8>,
    ) -> Result<(), HepnosError> {
        let full = self.queue.product(event, label, type_name, bytes);
        self.send_full(full)
    }

    /// Flush every buffered group (one `put_multi` per database).
    ///
    /// Every database is attempted even when one fails, and the first
    /// error is returned with the batch fully drained — so an error here
    /// never leaves queued pairs behind to re-fail (and panic) in `Drop`.
    pub fn flush(&mut self) -> Result<(), HepnosError> {
        let mut first_err = None;
        for db in self.queue.dbs() {
            if let Err(e) = self.flush_db(&db) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

impl Drop for WriteBatch {
    /// Flushes remaining updates, matching the C++ semantics of sending
    /// "batch updates upon destruction".
    ///
    /// # Panics
    ///
    /// Panics if the final flush fails (data would be silently lost
    /// otherwise); call [`WriteBatch::flush`] first to handle errors.
    fn drop(&mut self) {
        if self.queue.queued > 0 && !std::thread::panicking() {
            self.flush().expect("WriteBatch final flush failed");
        }
    }
}

/// Default bound on concurrently in-flight background flushes: roughly 4×
/// the width of a typical two-xstream flush pool, enough to keep every
/// executor busy while bounding queued-handle memory.
const DEFAULT_INFLIGHT_WINDOW: usize = 8;

/// Counters describing an [`AsyncWriteBatch`]'s pipeline behaviour.
///
/// `shipped_*` counts work handed to the background pool; `acked_*` counts
/// work the server actually acknowledged. The two only converge after
/// [`AsyncWriteBatch::wait`], and diverge permanently when flushes fail —
/// reporting both is what keeps the stats honest under errors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Pairs handed to background flush tasks.
    pub shipped_pairs: u64,
    /// Pairs acknowledged by the storage service.
    pub acked_pairs: u64,
    /// `put_multi` RPCs shipped to the background pool.
    pub flush_rpcs: u64,
    /// `put_multi` RPCs acknowledged by the storage service.
    pub acked_rpcs: u64,
    /// High-water mark of concurrently in-flight flushes; bounded by the
    /// configured window.
    pub inflight_hwm: usize,
    /// Times `ship()` blocked because the in-flight window was full.
    pub backpressure_stalls: u64,
    /// Total time spent blocked on a full window.
    pub stall_time: std::time::Duration,
    /// Times the adaptive window halved after `Busy` pushback from the
    /// service (AIMD multiplicative decrease).
    pub window_shrinks: u64,
    /// Times the adaptive window re-grew by one after a cleanly
    /// acknowledged flush (AIMD additive increase).
    pub window_grows: u64,
    /// Smallest in-flight window reached during the batch's lifetime
    /// (equals the configured window when no pushback occurred; 0 only in
    /// a default-constructed snapshot).
    pub window_min: usize,
    /// In-flight window at the moment the snapshot was taken.
    pub window_final: usize,
    /// Retry behaviour of the flush RPCs issued during this batch's
    /// lifetime (all zero unless the store was connected with
    /// [`crate::DataStore::connect_with_retry`]).
    pub retry: yokan::RetryStats,
}

impl BatchStats {
    /// Fold another batch's counters into this one — used to aggregate the
    /// per-loader pipelines of a file-parallel ingest. Counters add;
    /// `inflight_hwm` takes the maximum (windows are per batch).
    pub fn merge(&mut self, other: &BatchStats) {
        self.shipped_pairs += other.shipped_pairs;
        self.acked_pairs += other.acked_pairs;
        self.flush_rpcs += other.flush_rpcs;
        self.acked_rpcs += other.acked_rpcs;
        self.inflight_hwm = self.inflight_hwm.max(other.inflight_hwm);
        self.backpressure_stalls += other.backpressure_stalls;
        self.stall_time += other.stall_time;
        self.window_shrinks += other.window_shrinks;
        self.window_grows += other.window_grows;
        // 0 means "unset" (default snapshot); a real trajectory never
        // reaches a zero window, so it must not win the minimum.
        self.window_min = match (self.window_min, other.window_min) {
            (0, w) | (w, 0) => w,
            (a, b) => a.min(b),
        };
        self.window_final = self.window_final.max(other.window_final);
        self.retry.merge(&other.retry);
    }
}

/// Recycled pair buffers and encode scratch shared with flush tasks, so a
/// long ingest reuses a bounded set of allocations instead of reallocating
/// per shipped group.
type BufferPool = Arc<Mutex<Vec<Vec<(Vec<u8>, Vec<u8>)>>>>;
type ScratchPool = Arc<Mutex<Vec<bytes::BytesMut>>>;

/// An asynchronous write batch: flushes run on an [`argos::Pool`] in the
/// background, bounded by an in-flight *window*. [`AsyncWriteBatch::store_raw`]
/// reaps completed flushes opportunistically and blocks (helping the pool)
/// when the window is full, so memory stays bounded for arbitrarily long
/// ingests and a slow service backpressures the producer instead of
/// accumulating unbounded queued work. [`AsyncWriteBatch::wait`] (or drop)
/// joins the remainder and reports the first error.
pub struct AsyncWriteBatch {
    queue: DbQueue,
    shipped_pairs: u64,
    shipped_rpcs: u64,
    pool: Pool,
    /// Configured (maximum) in-flight window: the AIMD ceiling.
    max_window: usize,
    /// Current adaptive window: halved on `Busy` pushback (floor 1), grown
    /// by one per cleanly acknowledged flush, never above `max_window`.
    cur_window: usize,
    /// `busy_pushbacks` counter value already accounted for, so each
    /// pushback shrinks the window exactly once.
    busy_seen: u64,
    window_shrinks: u64,
    window_grows: u64,
    window_min: usize,
    pending: std::collections::VecDeque<argos::JoinHandle<Result<(), HepnosError>>>,
    acked_pairs: Arc<std::sync::atomic::AtomicU64>,
    acked_rpcs: Arc<std::sync::atomic::AtomicU64>,
    first_error: Option<HepnosError>,
    pair_pool: BufferPool,
    scratch_pool: ScratchPool,
    inflight_hwm: usize,
    backpressure_stalls: u64,
    stall_time: std::time::Duration,
    /// Client retry counters at batch creation; `stats()` reports the delta
    /// so the batch's `retry` reflects only this batch's flushes.
    retry_baseline: yokan::RetryStats,
}

impl AsyncWriteBatch {
    /// Create an asynchronous batch flushing through `pool`.
    pub fn new(store: &DataStore, pool: Pool) -> AsyncWriteBatch {
        let retry_baseline = store.retry_stats();
        AsyncWriteBatch {
            queue: DbQueue::new(store),
            shipped_pairs: 0,
            shipped_rpcs: 0,
            pool,
            max_window: DEFAULT_INFLIGHT_WINDOW,
            cur_window: DEFAULT_INFLIGHT_WINDOW,
            busy_seen: retry_baseline.busy_pushbacks,
            window_shrinks: 0,
            window_grows: 0,
            window_min: DEFAULT_INFLIGHT_WINDOW,
            pending: std::collections::VecDeque::new(),
            acked_pairs: Arc::new(std::sync::atomic::AtomicU64::new(0)),
            acked_rpcs: Arc::new(std::sync::atomic::AtomicU64::new(0)),
            first_error: None,
            pair_pool: Arc::new(Mutex::new(Vec::new())),
            scratch_pool: Arc::new(Mutex::new(Vec::new())),
            inflight_hwm: 0,
            backpressure_stalls: 0,
            stall_time: std::time::Duration::ZERO,
            retry_baseline,
        }
    }

    /// Override the per-database eager-flush limit.
    pub fn with_per_db_limit(mut self, limit: usize) -> AsyncWriteBatch {
        self.queue.per_db_limit = limit.max(1);
        self
    }

    /// Override the in-flight flush window (minimum 1). This sets the AIMD
    /// ceiling; the effective window shrinks under overload pushback and
    /// re-grows toward this value on clean acknowledgements.
    pub fn with_inflight_window(mut self, window: usize) -> AsyncWriteBatch {
        self.max_window = window.max(1);
        self.cur_window = self.max_window;
        self.window_min = self.max_window;
        self
    }

    /// Queue a typed product store (see [`WriteBatch::store`]).
    pub fn store<T: Serialize>(
        &mut self,
        event: &Event,
        label: &ProductLabel,
        value: &T,
    ) -> Result<(), HepnosError> {
        let (type_name, bytes) = encode_product(value)?;
        self.store_raw(event, label, &type_name, bytes)
    }

    /// Queue pre-serialized product bytes; full groups are shipped in the
    /// background immediately.
    pub fn store_raw(
        &mut self,
        event: &Event,
        label: &ProductLabel,
        type_name: &str,
        bytes: Vec<u8>,
    ) -> Result<(), HepnosError> {
        if let Some(db) = self.queue.product(event, label, type_name, bytes) {
            self.ship(db);
        }
        Ok(())
    }

    /// Queue creation of an event.
    pub fn create_event(
        &mut self,
        subrun: &SubRun,
        dataset: &crate::Uuid,
        number: EventNumber,
    ) -> Result<Event, HepnosError> {
        let (event, full) = self.queue.event(subrun, dataset, number);
        if let Some(db) = full {
            self.ship(db);
        }
        Ok(event)
    }

    /// Record one completed flush's outcome and adapt the in-flight window
    /// (AIMD): any `Busy` pushback observed since the last completion halves
    /// it (multiplicative decrease, floor 1); a clean acknowledgement with
    /// no pushback grows it by one toward the configured ceiling (additive
    /// increase).
    fn absorb(&mut self, res: Result<(), HepnosError>) {
        let busy_now = self.queue.store.retry_stats().busy_pushbacks;
        if busy_now > self.busy_seen {
            self.busy_seen = busy_now;
            let shrunk = (self.cur_window / 2).max(1);
            if shrunk < self.cur_window {
                self.cur_window = shrunk;
                self.window_shrinks += 1;
            }
            self.window_min = self.window_min.min(self.cur_window);
        } else if res.is_ok() && self.cur_window < self.max_window {
            self.cur_window += 1;
            self.window_grows += 1;
        }
        if let Err(e) = res {
            if self.first_error.is_none() {
                self.first_error = Some(e);
            }
        }
    }

    /// Reap every already-completed flush without blocking.
    fn reap_completed(&mut self) {
        for _ in 0..self.pending.len() {
            let h = self.pending.pop_front().expect("len checked");
            if h.is_finished() {
                self.absorb(h.join());
            } else {
                self.pending.push_back(h);
            }
        }
    }

    /// Block until the window has room, running queued pool tasks while
    /// waiting so a pool without dedicated executors still makes progress.
    fn stall_until_window_open(&mut self) {
        if self.pending.len() < self.cur_window {
            return;
        }
        self.backpressure_stalls += 1;
        let t0 = std::time::Instant::now();
        while self.pending.len() >= self.cur_window {
            self.reap_completed();
            if self.pending.len() < self.cur_window {
                break;
            }
            if let Some(task) = self.pool.try_pop() {
                task();
                continue;
            }
            let h = self.pending.pop_front().expect("window is full");
            match h.join_timeout(std::time::Duration::from_millis(1)) {
                Ok(res) => self.absorb(res),
                Err(h) => self.pending.push_front(h),
            }
        }
        self.stall_time += t0.elapsed();
    }

    /// Send `db`'s group, if any, to the pool.
    fn ship(&mut self, db: DbTarget) {
        if !self.queue.has_group(&db) {
            return;
        }
        // Reap finished flushes opportunistically on every ship, and block
        // only when the in-flight window is genuinely full.
        self.reap_completed();
        self.stall_until_window_open();
        // Taken after the stall, so the buffer left in the group's place
        // is one a just-finished flush returned.
        let recycled = self.pair_pool.lock().pop().unwrap_or_default();
        let pairs = self.queue.take(&db, recycled);
        self.shipped_pairs += pairs.len() as u64;
        self.shipped_rpcs += 1;
        let client = self.queue.store.inner.client.clone();
        let acked_pairs = Arc::clone(&self.acked_pairs);
        let acked_rpcs = Arc::clone(&self.acked_rpcs);
        let pair_pool = Arc::clone(&self.pair_pool);
        let scratch_pool = Arc::clone(&self.scratch_pool);
        let handle = self.pool.spawn(move || {
            let n = pairs.len() as u64;
            // A panicking task would never set its join Eventual and hang
            // wait() forever; catch it and surface it as an error instead.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut scratch = scratch_pool.lock().pop().unwrap_or_default();
                let res = client.put_multi_with(&db, &pairs, &mut scratch);
                scratch_pool.lock().push(scratch);
                res
            }));
            let res = match outcome {
                Ok(Ok(())) => {
                    acked_pairs.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
                    acked_rpcs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    Ok(())
                }
                Ok(Err(e)) => Err(HepnosError::from(e)),
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    Err(HepnosError::Storage(yokan::YokanError::Backend(format!(
                        "background flush panicked: {msg}"
                    ))))
                }
            };
            let mut pairs = pairs;
            pairs.clear();
            pair_pool.lock().push(pairs);
            res
        });
        self.pending.push_back(handle);
        self.inflight_hwm = self.inflight_hwm.max(self.pending.len());
    }

    /// Ship every buffered group and wait for all background flushes;
    /// returns the first error encountered (including pool-side panics).
    /// Idempotent: a second call after an error returns `Ok`.
    pub fn wait(&mut self) -> Result<(), HepnosError> {
        for db in self.queue.dbs() {
            self.ship(db);
        }
        while let Some(h) = self.pending.pop_front() {
            match h.join_timeout(std::time::Duration::from_millis(1)) {
                Ok(res) => self.absorb(res),
                Err(h) => {
                    self.pending.push_front(h);
                    // Help the pool drain while the oldest flush runs.
                    if let Some(task) = self.pool.try_pop() {
                        task();
                    }
                }
            }
        }
        match self.first_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Pairs shipped to the background pool so far (see
    /// [`BatchStats::acked_pairs`] for what the service acknowledged).
    pub fn flushed_pairs(&self) -> u64 {
        self.shipped_pairs
    }

    /// Number of background `put_multi` RPCs shipped.
    pub fn flush_rpcs(&self) -> u64 {
        self.shipped_rpcs
    }

    /// Snapshot of the pipeline counters.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            shipped_pairs: self.shipped_pairs,
            acked_pairs: self.acked_pairs.load(std::sync::atomic::Ordering::Relaxed),
            flush_rpcs: self.shipped_rpcs,
            acked_rpcs: self.acked_rpcs.load(std::sync::atomic::Ordering::Relaxed),
            inflight_hwm: self.inflight_hwm,
            backpressure_stalls: self.backpressure_stalls,
            stall_time: self.stall_time,
            window_shrinks: self.window_shrinks,
            window_grows: self.window_grows,
            window_min: self.window_min,
            window_final: self.cur_window,
            retry: self
                .queue
                .store
                .retry_stats()
                .delta_since(&self.retry_baseline),
        }
    }
}

impl Drop for AsyncWriteBatch {
    /// Ensures "all the updates are completed when its destructor is
    /// called" (paper §II-D).
    ///
    /// # Panics
    ///
    /// Panics if a background flush failed; call [`AsyncWriteBatch::wait`]
    /// first to handle errors.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.wait().expect("AsyncWriteBatch final wait failed");
        }
    }
}
