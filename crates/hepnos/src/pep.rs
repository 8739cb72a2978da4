//! The `ParallelEventProcessor` (paper §II-D, §IV-B, §IV-D).
//!
//! A group of workers iterates over all events of a dataset in parallel and
//! load-balanced fashion:
//!
//! * one listing of the dataset's subruns (every subrun database at once,
//!   each keeping only the subruns placed on it) splits the work: a subrun
//!   is one work item;
//! * **readers** — by default one per event database — take subruns from a
//!   shared cursor, up to `read_ahead_pages` at a time. Of each, a reader
//!   pages the event keys out of the subrun's event database in *load
//!   batches* (default 16384; "fewer RPCs but with a large data transfer
//!   payload");
//! * to **prefetch** products, the reader also runs one value scan per
//!   prefetched label on every product database over the subrun's key
//!   range: the server walks the range in sequence and returns the values
//!   of the keys `<event key><label>#<type>`, bypassing its read cache,
//!   instead of answering one point lookup per event;
//! * the reader merge-joins products to events by event key (an event with
//!   no product gets `None`) and hands events to workers in small
//!   *dispatch batches* (default 64; "fine-grain load-balancing once events
//!   are loaded into worker memory");
//! * every worker invokes the user callback on each event it receives.
//!
//! Every walk of every subrun in a reader's window has its page in flight
//! at once, and an event is dispatched as soon as every product walk of its
//! subrun has passed it, so reader wall-time tracks the slowest walk, not
//! the sum of the RPCs.
//!
//! Each event is delivered exactly once, also during a live migration: a
//! subrun is taken from the cursor by one reader, the listing of its one
//! event database merges the old owner's page with the new one's without
//! repeats, and a product page keeps only the products placed on the
//! database that listed them.
//!
//! Dispatch uses one FIFO deque per worker with work stealing: readers
//! push batches round-robin, each worker drains its own deque first and
//! steals from the others when empty, so a slow callback on one worker
//! never serializes the rest. No batch is pushed before every worker has
//! started. Delivery is exactly-once — a batch is popped (or stolen) by
//! exactly one worker.
//!
//! The paper's implementation spreads ranks over MPI; this reproduction
//! spreads workers over threads sharing the dispatch deques — the
//! scheduling structure (readers → distributed queue → workers) is
//! identical.

use crate::binser;
use crate::datastore::{
    parse_event_key, subruns_under, Cursor, DataSet, DataStore, DataStoreInner, Event, KeyPage,
    ParentHash, ProductLabel,
};
use crate::error::HepnosError;
use crate::keys::{self, EventNumber, RunNumber, SubRunNumber};
use crate::uuid::Uuid;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use serde::de::DeserializeOwned;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use yokan::{PendingPage, ScanPage, ValueScan};

/// Plain-data identification of one event, cheap to queue and ship.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventDescriptor {
    /// Owning dataset.
    pub dataset: Uuid,
    /// Run number.
    pub run: RunNumber,
    /// Subrun number.
    pub subrun: SubRunNumber,
    /// Event number.
    pub event: EventNumber,
}

/// Options mirroring the paper's tuned deployment (§IV-D).
#[derive(Debug, Clone)]
pub struct PepOptions {
    /// Most entries per page of a reader's event listing or product scan
    /// (paper: 16384 events per load); `0` means no cap.
    pub load_batch_size: usize,
    /// Events handed to a worker at a time (paper: 64).
    pub dispatch_batch_size: usize,
    /// Reader threads; `0` means one per event database (the paper's
    /// "typically as many readers as databases to read from"). Never more
    /// than the dataset has subruns.
    pub num_readers: usize,
    /// Worker threads invoking the callback.
    pub num_workers: usize,
    /// Products to prefetch alongside events: `(label, type name)` pairs,
    /// each read by one value scan per product database and subrun. Only
    /// the exact type is prefetched (`Hit` never matches `HitList`).
    pub prefetch: Vec<(ProductLabel, String)>,
    /// Capacity of the dispatch queue, in dispatch batches (shared across
    /// all per-worker deques; readers block when the total is reached).
    pub queue_capacity: usize,
    /// Subruns each reader reads at once, with the event listing and
    /// product scans of all of them in flight together; `0` is treated as
    /// `1`.
    pub read_ahead_pages: usize,
}

impl Default for PepOptions {
    fn default() -> Self {
        PepOptions {
            load_batch_size: 16384,
            dispatch_batch_size: 64,
            num_readers: 0,
            num_workers: 4,
            prefetch: Vec::new(),
            queue_capacity: 1024,
            read_ahead_pages: 4,
        }
    }
}

/// Per-worker timing statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Events this worker processed.
    pub events_processed: u64,
    /// Time spent inside the user callback.
    pub processing_time: Duration,
    /// Time spent waiting on the dispatch queue.
    pub waiting_time: Duration,
    /// Dispatch batches this worker stole from another worker's deque.
    pub steals: u64,
}

/// Per-reader timing statistics.
///
/// `list_wait + prefetch_wait` is the time the reader was actually blocked
/// on storage; `rpc_time` is the sum of issue-to-completion latencies of
/// every read RPC it issued. The gap between the two is latency hidden by
/// the pipeline — see [`ReaderStats::overlap_ratio`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReaderStats {
    /// Events this reader loaded (listed from event key pages).
    pub events_loaded: u64,
    /// Event key pages this reader fetched.
    pub pages: u64,
    /// Time blocked waiting for event `list_keys` responses.
    pub list_wait: Duration,
    /// Time blocked waiting for product value scan responses.
    pub prefetch_wait: Duration,
    /// Time blocked pushing dispatch batches (queue backpressure).
    pub dispatch_stall: Duration,
    /// Sum of issue-to-completion latencies across all read RPCs.
    pub rpc_time: Duration,
    /// Most subruns read at once.
    pub read_ahead_hwm: u64,
}

impl ReaderStats {
    /// Total time this reader spent blocked on storage RPCs.
    pub fn blocked_time(&self) -> Duration {
        self.list_wait + self.prefetch_wait
    }

    /// Fraction of RPC latency hidden behind other pipeline work:
    /// `1 - blocked / rpc_time`. `0.0` for an idle reader; a reader
    /// that waits out every RPC scores near `0.0`, a perfectly overlapped
    /// one approaches `1.0`.
    pub fn overlap_ratio(&self) -> f64 {
        let rpc = self.rpc_time.as_secs_f64();
        if rpc <= 0.0 {
            return 0.0;
        }
        (1.0 - self.blocked_time().as_secs_f64() / rpc).max(0.0)
    }
}

/// Aggregate statistics of one `process` call.
#[derive(Debug, Clone, Default)]
pub struct PepStatistics {
    /// Total events processed by worker callbacks (exactly once each).
    pub total_events: u64,
    /// Total events loaded by readers. Equals `total_events` on success;
    /// on the error path loaded-but-undispatched events make it larger,
    /// reporting partial progress honestly.
    pub events_loaded: u64,
    /// Wall-clock duration of the whole call.
    pub wall_time: Duration,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerStats>,
    /// Per-reader breakdown.
    pub readers: Vec<ReaderStats>,
}

impl PepStatistics {
    /// Ratio of the busiest worker's event count to the mean — 1.0 is
    /// perfectly balanced. This is the quantity the paper's load-balancing
    /// argument is about.
    pub fn load_imbalance(&self) -> f64 {
        if self.workers.is_empty() || self.total_events == 0 {
            return 1.0;
        }
        let max = self
            .workers
            .iter()
            .map(|w| w.events_processed)
            .max()
            .unwrap_or(0) as f64;
        let mean = self.total_events as f64 / self.workers.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Events per second of wall time.
    pub fn throughput(&self) -> f64 {
        if self.wall_time.is_zero() {
            0.0
        } else {
            self.total_events as f64 / self.wall_time.as_secs_f64()
        }
    }

    /// Aggregate overlap ratio across readers: fraction of total RPC
    /// latency hidden behind pipeline work (`1 - blocked / rpc_time`).
    pub fn overlap_ratio(&self) -> f64 {
        let rpc: f64 = self.readers.iter().map(|r| r.rpc_time.as_secs_f64()).sum();
        if rpc <= 0.0 {
            return 0.0;
        }
        let blocked: f64 = self
            .readers
            .iter()
            .map(|r| r.blocked_time().as_secs_f64())
            .sum();
        (1.0 - blocked / rpc).max(0.0)
    }

    /// Total time readers spent blocked on storage RPCs.
    pub fn blocked_time(&self) -> Duration {
        self.readers.iter().map(|r| r.blocked_time()).sum()
    }

    /// Total dispatch batches stolen across workers.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Largest read-ahead window observed by any reader.
    pub fn read_ahead_hwm(&self) -> u64 {
        self.readers
            .iter()
            .map(|r| r.read_ahead_hwm)
            .max()
            .unwrap_or(0)
    }
}

/// One event as delivered to the callback, with any prefetched products.
pub struct PrefetchedEvent {
    event: Event,
    /// Prefetched raw product bytes, aligned with `PepOptions::prefetch`.
    /// `Bytes` slices share the RPC response buffer — handing one out is a
    /// refcount bump, never a copy.
    products: Vec<Option<Bytes>>,
    labels: Arc<Vec<(ProductLabel, String)>>,
}

impl PrefetchedEvent {
    /// The event handle.
    pub fn event(&self) -> &Event {
        &self.event
    }

    /// Load a product: served from the prefetched bytes when the
    /// `(label, type)` pair was in [`PepOptions::prefetch`], otherwise a
    /// direct storage read.
    pub fn load<T: DeserializeOwned>(
        &self,
        label: &ProductLabel,
    ) -> Result<Option<T>, HepnosError> {
        if let Some(idx) = self
            .labels
            .iter()
            .position(|(l, t)| l == label && keys::is_short_type_name::<T>(t))
        {
            return match &self.products[idx] {
                None => Ok(None),
                Some(bytes) => binser::from_bytes(bytes)
                    .map(Some)
                    .map_err(|e| HepnosError::Serialization(e.to_string())),
            };
        }
        self.event.load(label)
    }

    /// Load a product's raw bytes under an explicit type name: served from
    /// the prefetched bytes when the `(label, type)` pair was in
    /// [`PepOptions::prefetch`], otherwise a direct storage read. The raw
    /// twin of [`Self::load`], for self-describing representations (e.g.
    /// columnar page blobs) whose decoder is chosen by type name. Serving
    /// from prefetched bytes is zero-copy (shared `Bytes` slice).
    pub fn load_raw(
        &self,
        label: &ProductLabel,
        type_name: &str,
    ) -> Result<Option<Bytes>, HepnosError> {
        if let Some(idx) = self
            .labels
            .iter()
            .position(|(l, t)| l == label && t == type_name)
        {
            return Ok(self.products[idx].clone());
        }
        Ok(self.event.load_raw(label, type_name)?.map(Bytes::from))
    }
}

type DispatchBatch = Vec<(EventDescriptor, Vec<Option<Bytes>>)>;

// ---------------------------------------------------------------- dispatch

/// Bounded work-stealing dispatch: one FIFO deque per worker, all under one
/// mutex, plus a condvar pair for blocking and backpressure.
///
/// Invariants: a batch lives in exactly one deque and is popped by exactly
/// one worker; `queued` is the total across all deques; workers sleep on
/// `not_empty` only while `queued == 0` and readers are still active, so
/// the final `reader_done` broadcast wakes everyone for shutdown.
struct DispatchQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

struct QueueState {
    deques: Vec<VecDeque<DispatchBatch>>,
    queued: usize,
    readers_active: usize,
    workers_started: usize,
}

impl DispatchQueue {
    fn new(n_workers: usize, n_readers: usize, capacity: usize) -> DispatchQueue {
        DispatchQueue {
            state: Mutex::new(QueueState {
                deques: (0..n_workers).map(|_| VecDeque::new()).collect(),
                queued: 0,
                readers_active: n_readers,
                workers_started: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Push a batch onto worker `target`'s deque, blocking until every
    /// worker has started (so no early worker drains the first batches
    /// alone) and while the total queued count is at capacity.
    fn push(&self, target: usize, batch: DispatchBatch) {
        let mut state = self.state.lock();
        while state.workers_started < state.deques.len() || state.queued >= self.capacity {
            self.not_full.wait(&mut state);
        }
        let n = state.deques.len();
        state.deques[target % n].push_back(batch);
        state.queued += 1;
        drop(state);
        self.not_empty.notify_one();
    }

    /// Pop the next batch for `worker`: own deque first, then steal from
    /// the others. Returns `None` only when all readers have finished and
    /// every deque is drained. The `bool` is `true` for a stolen batch.
    fn pop(&self, worker: usize) -> Option<(DispatchBatch, bool)> {
        let mut state = self.state.lock();
        while state.queued == 0 {
            if state.readers_active == 0 {
                return None;
            }
            self.not_empty.wait(&mut state);
        }
        let n = state.deques.len();
        let (idx, batch) = (0..n)
            .map(|i| (worker + i) % n)
            .find_map(|idx| Some((idx, state.deques[idx].pop_front()?)))
            .expect("queued counts a batch in some deque");
        state.queued -= 1;
        drop(state);
        self.not_full.notify_one();
        Some((batch, idx != worker % n))
    }

    /// A worker is running; the last one to start lets the readers push.
    fn worker_started(&self) {
        let mut state = self.state.lock();
        state.workers_started += 1;
        let all = state.workers_started == state.deques.len();
        drop(state);
        if all {
            self.not_full.notify_all();
        }
    }

    /// A reader finished (or aborted); the last one wakes all workers so
    /// they can observe shutdown.
    fn reader_done(&self) {
        let mut state = self.state.lock();
        state.readers_active -= 1;
        let last = state.readers_active == 0;
        drop(state);
        if last {
            self.not_empty.notify_all();
        }
    }
}

// ---------------------------------------------------------------- reader

/// Issues the page of a walk that starts after a key.
type Resume<'a, G> = Box<dyn Fn(&[u8]) -> PendingPage<G> + 'a>;

/// One paged walk over a subrun's key range: the page in flight, how to
/// resume after a full page, the entries received and not yet joined, and
/// the last key walked.
struct Stream<'a, G> {
    pending: Option<(PendingPage<G>, Instant)>,
    resume: Resume<'a, G>,
    limit: usize,
    entries: Cursor<G>,
    /// Every entry up to this key has arrived.
    walked: Vec<u8>,
    /// Hashes the entries' parent keys for the homing check.
    parent_hash: ParentHash,
}

impl<'a, G: KeyPage> Stream<'a, G> {
    /// Start the walk after `from`; a page is full at `limit` entries.
    fn new(from: &[u8], limit: usize, resume: impl Fn(&[u8]) -> PendingPage<G> + 'a) -> Self {
        Stream {
            pending: Some((resume(from), Instant::now())),
            resume: Box::new(resume),
            limit,
            entries: Cursor::default(),
            walked: Vec::new(),
            parent_hash: ParentHash::default(),
        }
    }

    /// Take the page in flight into the walk's entries, once it has
    /// arrived (or at once when `block`), returning its length. A full
    /// page puts the next one in flight; a short one ends the walk.
    fn take(
        &mut self,
        block: bool,
        wait: &mut Duration,
        rpc_time: &mut Duration,
    ) -> Result<Option<usize>, HepnosError> {
        let ready = self.pending.as_ref().is_some_and(|(p, _)| p.is_ready());
        if !ready && !block {
            return Ok(None);
        }
        let Some((pending, issued)) = self.pending.take() else {
            return Ok(None);
        };
        let wait_start = Instant::now();
        let page = pending.wait()?;
        let now = Instant::now();
        if !ready {
            *wait += now - wait_start;
        }
        *rpc_time += now - issued;
        let len = page.len();
        if len > 0 {
            page.key_into(len - 1, &mut self.walked);
        }
        if self.limit != 0 && len == self.limit {
            self.pending = Some(((self.resume)(&self.walked), Instant::now()));
        }
        self.entries.push(page);
        Ok(Some(len))
    }

    /// Whether the walk has passed `event ++ tag`: the walk is over, or
    /// its last key is not below that.
    fn passed(&self, event: &[u8], tag: &[u8]) -> bool {
        if self.pending.is_none() {
            return true;
        }
        let (head, tail) = self.walked.split_at(self.walked.len().min(event.len()));
        match head.cmp(event) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => tail >= tag,
        }
    }
}

/// One subrun being read: its event keys, and one value scan per
/// (prefetched label, product database), label-major.
struct SubrunRead<'a> {
    events: Stream<'a, Vec<Vec<u8>>>,
    products: Vec<Stream<'a, ScanPage>>,
}

impl SubrunRead<'_> {
    fn finished(&mut self) -> bool {
        self.events.pending.is_none() && !self.events.entries.settle(|_| true)
    }

    /// Merge-join the events every product walk has passed with their
    /// products, appending them to `out`. An event without a product of a
    /// label gets `None`; a product of no listed event is dropped, and so
    /// is one not homed on the database that listed it, so each is joined
    /// once during a live migration.
    fn join(
        &mut self,
        store: &DataStoreInner,
        tags: &[Vec<u8>],
        out: &mut DispatchBatch,
    ) -> Result<(), HepnosError> {
        let dbs = &store.topo.product_dbs;
        while self.events.entries.settle(|_| true) {
            let (_, _, event) = self.events.entries.head().expect("settled");
            let passed = (self.products.iter().enumerate())
                .all(|(i, s)| s.passed(event, &tags[i / dbs.len()]));
            if !passed {
                return Ok(());
            }
            let mut products = vec![None; tags.len()];
            for (i, stream) in self.products.iter_mut().enumerate() {
                let hash = &mut stream.parent_hash;
                let mut homed =
                    |k: &[u8]| store.is_homed(dbs, i % dbs.len(), keys::EVENT_KEY_LEN, k, hash);
                while stream.entries.settle(&mut homed) {
                    let (page, at, key) = stream.entries.head().expect("settled");
                    let owner = key.get(..keys::EVENT_KEY_LEN).cmp(&Some(event));
                    if owner.is_eq() {
                        products[i / dbs.len()] = Some(page.value(at));
                    }
                    if owner.is_gt() {
                        break;
                    }
                    stream.entries.advance();
                    if owner.is_eq() {
                        break;
                    }
                }
            }
            out.push((parse_event_key(event)?, products));
            self.events.entries.advance();
        }
        Ok(())
    }
}

/// Everything a reader thread needs, bundled to keep signatures sane.
struct ReaderCtx<'a> {
    store: &'a DataStoreInner,
    opts: &'a PepOptions,
    /// `<label>#<type>` of each prefetched product, in
    /// [`PepOptions::prefetch`] order.
    tags: &'a [Vec<u8>],
    queue: &'a DispatchQueue,
    abort: &'a AtomicBool,
    /// Round-robin cursor over worker deques.
    next_worker: usize,
}

impl<'a> ReaderCtx<'a> {
    /// Put the first page of every walk of `subrun` in flight: its event
    /// keys, as [`crate::SubRun::events`] lists them, and the values of
    /// each product database's `<subrun><event><tag>` keys.
    fn start(&self, subrun: &'a [u8]) -> SubrunRead<'a> {
        let (store, limit) = (self.store, self.opts.load_batch_size);
        let db = store.event_db(subrun);
        let events = Stream::new(subrun, limit, move |from| {
            store.client.list_keys_async(db, from, subrun, limit)
        });
        let products = (self.tags.iter())
            .flat_map(|tag| store.topo.product_dbs.iter().map(move |db| (db, tag)))
            .map(|(db, tag)| {
                let scan = ValueScan {
                    prefix: subrun,
                    tag_offset: keys::EVENT_KEY_LEN as u32,
                    tag,
                };
                Stream::new(subrun, limit, move |from| {
                    store.client.value_scan_async(db, &scan, from, limit)
                })
            })
            .collect();
        SubrunRead { events, products }
    }

    /// Take the pages of `read` that have arrived; with `block`, wait for
    /// one page instead. Returns whether any page was taken.
    fn receive(
        &self,
        read: &mut SubrunRead,
        block: bool,
        stats: &mut ReaderStats,
    ) -> Result<bool, HepnosError> {
        let events = &mut read.events;
        let mut taken = false;
        if let Some(len) = events.take(block, &mut stats.list_wait, &mut stats.rpc_time)? {
            stats.pages += 1;
            stats.events_loaded += len as u64;
            if block {
                return Ok(true);
            }
            taken = true;
        }
        for stream in &mut read.products {
            let wait = &mut stats.prefetch_wait;
            if stream.take(block, wait, &mut stats.rpc_time)?.is_none() {
                continue;
            }
            taken = true;
            if block {
                break;
            }
        }
        Ok(taken)
    }

    fn dispatch(&mut self, batch: DispatchBatch, stats: &mut ReaderStats) {
        let t = Instant::now();
        self.queue.push(self.next_worker, batch);
        stats.dispatch_stall += t.elapsed();
        self.next_worker = self.next_worker.wrapping_add(1);
    }

    /// Read subruns taken from `cursor` until none is left, up to
    /// `read_ahead_pages` at once, dispatching each event as soon as every
    /// product walk of its subrun has passed it.
    fn run(
        &mut self,
        subruns: &'a [Vec<u8>],
        cursor: &AtomicUsize,
        stats: &mut ReaderStats,
    ) -> Result<(), HepnosError> {
        let read_ahead = self.opts.read_ahead_pages.max(1);
        let batch_size = self.opts.dispatch_batch_size.max(1);
        let mut window: Vec<SubrunRead> = Vec::with_capacity(read_ahead);
        let mut ready: DispatchBatch = Vec::new();
        // On error or abort the window is dropped: its events stay
        // loaded-but-unprocessed, which `PepStatistics` reports via
        // `events_loaded` vs `total_events`.
        while !self.abort.load(Ordering::Relaxed) {
            while window.len() < read_ahead {
                let Some(subrun) = subruns.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                    break;
                };
                window.push(self.start(subrun));
            }
            stats.read_ahead_hwm = stats.read_ahead_hwm.max(window.len() as u64);
            if window.is_empty() {
                break;
            }
            // Take whatever has arrived; if nothing has, wait on the oldest
            // subrun.
            let mut taken = false;
            for read in &mut window {
                taken |= self.receive(read, false, stats)?;
            }
            if !taken {
                self.receive(&mut window[0], true, stats)?;
            }
            for read in &mut window {
                read.join(self.store, self.tags, &mut ready)?;
            }
            window.retain_mut(|read| !read.finished());
            let mut events = ready.drain(..);
            loop {
                let batch: DispatchBatch = events.by_ref().take(batch_size).collect();
                if batch.is_empty() {
                    break;
                }
                self.dispatch(batch, stats);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- processor

/// The parallel, load-balanced event iterator.
pub struct ParallelEventProcessor {
    datastore: DataStore,
    options: PepOptions,
}

impl ParallelEventProcessor {
    /// Create a processor over `datastore`.
    pub fn new(datastore: DataStore, options: PepOptions) -> ParallelEventProcessor {
        ParallelEventProcessor { datastore, options }
    }

    /// Iterate every event in `dataset`, invoking `callback(worker_id,
    /// prefetched_event)` exactly once per event, and return the timing
    /// statistics. Fails with the first reader error; use
    /// [`Self::process_partial`] to also observe the partial progress made
    /// before a failure.
    pub fn process<F>(&self, dataset: &DataSet, callback: F) -> Result<PepStatistics, HepnosError>
    where
        F: Fn(usize, &PrefetchedEvent) + Send + Sync,
    {
        let (stats, err) = self.process_partial(dataset, callback);
        match err {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }

    /// Like [`Self::process`], but always returns the statistics, paired
    /// with the first error if any. On the error path all readers stop
    /// loading new pages, workers deterministically drain every batch that
    /// was dispatched (each such event's callback still runs exactly
    /// once), and the statistics report `events_loaded >= total_events` —
    /// the gap is events that were loaded but never dispatched.
    pub fn process_partial<F>(
        &self,
        dataset: &DataSet,
        callback: F,
    ) -> (PepStatistics, Option<HepnosError>)
    where
        F: Fn(usize, &PrefetchedEvent) + Send + Sync,
    {
        let Some(uuid) = dataset.uuid() else {
            return (
                PepStatistics::default(),
                Some(HepnosError::InvalidPath(
                    "cannot process the root dataset".into(),
                )),
            );
        };
        let opts = &self.options;
        let first_error: Mutex<Option<HepnosError>> = Mutex::new(None);
        // The work items: a failed listing leaves none, and is the error.
        let subruns = subruns_under(&self.datastore.inner, &uuid).unwrap_or_else(|e| {
            *first_error.lock() = Some(e);
            Vec::new()
        });
        let requested = match opts.num_readers {
            0 => self.datastore.num_event_databases(),
            n => n,
        };
        let n_readers = requested.min(subruns.len()).max(1);
        let n_workers = opts.num_workers.max(1);
        let labels = Arc::new(opts.prefetch.clone());
        let tags: Vec<Vec<u8>> = (labels.iter())
            .map(|(label, ty)| keys::product_key(&[], label.as_str(), ty))
            .collect();
        let queue = DispatchQueue::new(n_workers, n_readers, opts.queue_capacity);
        let queue = &queue;
        let reader_stats: Mutex<Vec<ReaderStats>> =
            Mutex::new(vec![ReaderStats::default(); n_readers]);
        let worker_stats: Mutex<Vec<WorkerStats>> =
            Mutex::new(vec![WorkerStats::default(); n_workers]);
        let abort = AtomicBool::new(false);
        let cursor = AtomicUsize::new(0);
        let t0 = Instant::now();
        let callback = &callback;

        std::thread::scope(|scope| {
            // ------------------------------------------------ readers
            for reader_id in 0..n_readers {
                let (reader_stats, first_error) = (&reader_stats, &first_error);
                let (abort, cursor, subruns, tags) = (&abort, &cursor, &subruns, &tags);
                scope.spawn(move || {
                    let mut ctx = ReaderCtx {
                        store: &self.datastore.inner,
                        opts,
                        tags,
                        queue,
                        abort,
                        next_worker: reader_id,
                    };
                    let mut stats = ReaderStats::default();
                    if let Err(e) = ctx.run(subruns, cursor, &mut stats) {
                        first_error.lock().get_or_insert(e);
                        abort.store(true, Ordering::Relaxed);
                    }
                    reader_stats.lock()[reader_id] = stats;
                    queue.reader_done();
                });
            }

            // ------------------------------------------------ workers
            for worker_id in 0..n_workers {
                let datastore = self.datastore.clone();
                let labels = Arc::clone(&labels);
                let worker_stats = &worker_stats;
                scope.spawn(move || {
                    queue.worker_started();
                    let mut stats = WorkerStats::default();
                    loop {
                        let wait_start = Instant::now();
                        let Some((batch, stolen)) = queue.pop(worker_id) else {
                            stats.waiting_time += wait_start.elapsed();
                            break; // all readers done, deques drained
                        };
                        stats.waiting_time += wait_start.elapsed();
                        if stolen {
                            stats.steals += 1;
                        }
                        let work_start = Instant::now();
                        for (desc, products) in batch {
                            let ev = Event::from_descriptor(&datastore, &desc);
                            let pe = PrefetchedEvent {
                                event: ev,
                                products,
                                labels: Arc::clone(&labels),
                            };
                            callback(worker_id, &pe);
                            stats.events_processed += 1;
                        }
                        stats.processing_time += work_start.elapsed();
                    }
                    worker_stats.lock()[worker_id] = stats;
                });
            }
        });

        let workers = worker_stats.into_inner();
        let readers = reader_stats.into_inner();
        let stats = PepStatistics {
            total_events: workers.iter().map(|w| w.events_processed).sum(),
            events_loaded: readers.iter().map(|r| r.events_loaded).sum(),
            wall_time: t0.elapsed(),
            workers,
            readers,
        };
        (stats, first_error.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A one-event batch numbered `seq` by reader `reader`, aimed at deque
    /// `target` (kept in the descriptor so a worker can tell where it
    /// came from).
    fn numbered(reader: u64, seq: u64, target: u64) -> DispatchBatch {
        let desc = EventDescriptor {
            dataset: Uuid::from_bytes([0; 16]),
            run: target,
            subrun: reader,
            event: seq,
        };
        vec![(desc, Vec::new())]
    }

    fn number(batch: &DispatchBatch) -> (u64, u64, u64) {
        let d = batch[0].0;
        (d.subrun, d.event, d.run)
    }

    #[test]
    fn dispatch_queue_pops_own_deque_first_then_steals_in_order() {
        let queue = DispatchQueue::new(3, 1, 8);
        for _ in 0..3 {
            queue.worker_started();
        }
        queue.push(0, numbered(0, 0, 0));
        queue.push(1, numbered(0, 1, 1));
        queue.push(5, numbered(0, 2, 2));
        queue.push(2, numbered(0, 3, 2));
        let pop = |worker| {
            let (batch, stolen) = queue.pop(worker).unwrap();
            (number(&batch).1, stolen)
        };
        // Own deque in FIFO order, then the next deque after its own.
        assert_eq!(pop(2), (2, false));
        assert_eq!(pop(2), (3, false));
        assert_eq!(pop(2), (0, true));
        assert_eq!(pop(1), (1, false));
        queue.reader_done();
        assert!(queue.pop(0).is_none());
    }

    #[test]
    fn dispatch_queue_delivers_each_batch_once_under_concurrency() {
        const READERS: u64 = 3;
        const WORKERS: usize = 4;
        const PER_READER: u64 = 200;
        const CAPACITY: usize = 5;
        let queue = DispatchQueue::new(WORKERS, READERS as usize, CAPACITY);
        // Counted just before each call into the queue, so a push that
        // returns before every worker started, or a `None` before the last
        // reader finished, sees a short count.
        let started = AtomicUsize::new(0);
        let readers_done = AtomicUsize::new(0);
        // Threads record violations instead of panicking: a reader that
        // never calls `reader_done` would leave the workers waiting.
        let violations = Mutex::new(Vec::<String>::new());
        let check = |ok: bool, what: String| {
            if !ok {
                violations.lock().push(what);
            }
        };
        let popped = std::thread::scope(|s| {
            for reader in 0..READERS {
                let (queue, started, readers_done, check) =
                    (&queue, &started, &readers_done, &check);
                s.spawn(move || {
                    for seq in 0..PER_READER {
                        let target = (reader + seq) % WORKERS as u64;
                        queue.push(target as usize, numbered(reader, seq, target));
                        let n = started.load(Ordering::SeqCst);
                        check(n == WORKERS, format!("push returned with {n} workers"));
                        let state = queue.state.lock();
                        let held: usize = state.deques.iter().map(VecDeque::len).sum();
                        check(state.queued <= CAPACITY, format!("{} queued", state.queued));
                        check(held == state.queued, format!("{held} held"));
                    }
                    readers_done.fetch_add(1, Ordering::SeqCst);
                    queue.reader_done();
                });
            }
            let workers: Vec<_> = (0..WORKERS)
                .map(|worker| {
                    let (queue, started, readers_done, check) =
                        (&queue, &started, &readers_done, &check);
                    s.spawn(move || {
                        // Start late, so the readers reach `push` first. The
                        // sleeps only make a broken queue likely to show; a
                        // correct one passes under any interleaving.
                        std::thread::sleep(Duration::from_millis(20));
                        started.fetch_add(1, Ordering::SeqCst);
                        queue.worker_started();
                        let mut got = Vec::new();
                        while let Some((batch, stolen)) = queue.pop(worker) {
                            let (reader, seq, target) = number(&batch);
                            let own = target as usize == worker;
                            check(stolen != own, format!("{reader}/{seq} stolen {stolen}"));
                            got.push((reader, seq));
                            // Worker 0 is slow, so the others steal from it
                            // and the readers meet the capacity bound.
                            let pause = if worker == 0 { 200 } else { 20 };
                            std::thread::sleep(Duration::from_micros(pause));
                        }
                        let done = readers_done.load(Ordering::SeqCst);
                        check(
                            done == READERS as usize,
                            format!("None after {done} readers"),
                        );
                        let state = queue.state.lock();
                        let empty = state.deques.iter().all(VecDeque::is_empty);
                        check(
                            state.queued == 0 && empty,
                            "None with batches queued".into(),
                        );
                        got
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(violations.into_inner(), Vec::<String>::new());
        let unique: HashSet<_> = popped.iter().copied().collect();
        assert_eq!(popped.len(), (READERS * PER_READER) as usize);
        assert_eq!(unique.len(), popped.len(), "a batch was popped twice");
    }
}
