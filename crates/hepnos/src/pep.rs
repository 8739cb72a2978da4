//! The `ParallelEventProcessor` (paper §II-D, §IV-B, §IV-D).
//!
//! A group of workers iterates over all events of a dataset in parallel and
//! load-balanced fashion:
//!
//! * a subset of participants act as **readers** — by default one per event
//!   database — which page event keys out of their database in large *load
//!   batches* (default 16384; "fewer RPCs but with a large data transfer
//!   payload");
//! * readers optionally **prefetch** the products associated with each
//!   loaded event (batched `get_multi` per product database);
//! * loaded events are handed to workers in small *dispatch batches*
//!   (default 64; "fine-grain load-balancing once events are loaded into
//!   worker memory");
//! * every worker invokes the user callback on each event it receives.
//!
//! The read path is an **overlapped pipeline** (the read-side twin of
//! `AsyncWriteBatch`): each reader keeps a bounded window of in-flight
//! pages. The next `list_keys` RPC is issued as soon as the current page is
//! decoded — while that page's product prefetch is still outstanding — and
//! the per-page prefetch fans out across *all* product databases
//! concurrently instead of looping database by database. Reader wall-time
//! thus tracks the *max* of the in-flight RPC latencies instead of their
//! sum.
//!
//! Dispatch uses one injector deque per worker with work stealing: readers
//! push batches round-robin, each worker drains its own deque first and
//! steals from the others when empty, so a slow callback on one worker
//! never serializes the rest. Delivery is exactly-once — a batch is popped
//! (or stolen) by exactly one worker.
//!
//! The paper's implementation spreads ranks over MPI; this reproduction
//! spreads workers over threads sharing the dispatch deques — the
//! scheduling structure (readers → distributed queue → workers) is
//! identical.

use crate::binser;
use crate::datastore::{DataSet, DataStore, Event, ProductLabel};
use crate::error::HepnosError;
use crate::keys::{self, EventNumber, RunNumber, SubRunNumber};
use crate::uuid::Uuid;
use bytes::Bytes;
use crossbeam::deque::{Injector, Steal};
use parking_lot::{Condvar, Mutex};
use serde::de::DeserializeOwned;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use yokan::{PendingGetMulti, PendingListKeys};

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
    /// Events loaded from a database per `list_keys` RPC (paper: 16384).
    pub load_batch_size: usize,
    /// Events handed to a worker at a time (paper: 64).
    pub dispatch_batch_size: usize,
    /// Reader threads; `0` means one per event database (the paper's
    /// "typically as many readers as databases to read from").
    pub num_readers: usize,
    /// Worker threads invoking the callback.
    pub num_workers: usize,
    /// Products to prefetch alongside events: `(label, type name)` pairs.
    pub prefetch: Vec<(ProductLabel, String)>,
    /// Capacity of the dispatch queue, in dispatch batches (shared across
    /// all per-worker deques; readers block when the total is reached).
    pub queue_capacity: usize,
    /// Maximum pages per reader with their product prefetch in flight
    /// while the next `list_keys` is already outstanding. `1` still
    /// overlaps listing with prefetching; `0` is treated as `1`.
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
    /// Events this reader loaded (decoded from key pages).
    pub events_loaded: u64,
    /// Key pages this reader fetched.
    pub pages: u64,
    /// Time blocked waiting for `list_keys` responses.
    pub list_wait: Duration,
    /// Time blocked waiting for product `get_multi` responses.
    pub prefetch_wait: Duration,
    /// Time blocked pushing dispatch batches (queue backpressure).
    pub dispatch_stall: Duration,
    /// Sum of issue-to-completion latencies across all read RPCs.
    pub rpc_time: Duration,
    /// Most pages simultaneously in flight (listed but not yet dispatched).
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
    /// Build a prefetched event from parts (used by the PEP readers and the
    /// standalone [`crate::prefetch::Prefetcher`]).
    pub(crate) fn assemble(
        event: Event,
        products: Vec<Option<Bytes>>,
        labels: Arc<Vec<(ProductLabel, String)>>,
    ) -> PrefetchedEvent {
        PrefetchedEvent {
            event,
            products,
            labels,
        }
    }

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
        let type_name = keys::short_type_name::<T>();
        if let Some(idx) = self
            .labels
            .iter()
            .position(|(l, t)| l == label && *t == type_name)
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

/// Bounded work-stealing dispatch: one injector deque per worker, plus a
/// shared counter/condvar pair for blocking and backpressure.
///
/// Invariants: a batch lives in exactly one deque and is popped by exactly
/// one worker (the deques are atomic pop); `queued` counts batches across
/// all deques and is only mutated under `state`; workers sleep on
/// `not_empty` only while `queued == 0` and readers are still active, so
/// the final `reader_done` broadcast wakes everyone for shutdown.
struct DispatchQueue {
    deques: Vec<Injector<DispatchBatch>>,
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

struct QueueState {
    queued: usize,
    readers_active: usize,
}

impl DispatchQueue {
    fn new(n_workers: usize, n_readers: usize, capacity: usize) -> DispatchQueue {
        DispatchQueue {
            deques: (0..n_workers).map(|_| Injector::new()).collect(),
            state: Mutex::new(QueueState {
                queued: 0,
                readers_active: n_readers,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Push a batch onto worker `target`'s deque, blocking while the total
    /// queued count is at capacity.
    fn push(&self, target: usize, batch: DispatchBatch) {
        let mut state = self.state.lock();
        while state.queued >= self.capacity {
            self.not_full.wait(&mut state);
        }
        self.deques[target % self.deques.len()].push(batch);
        state.queued += 1;
        drop(state);
        self.not_empty.notify_one();
    }

    /// Pop the next batch for `worker`: own deque first, then steal from
    /// the others. Returns `None` only when all readers have finished and
    /// every deque is drained. The `bool` is `true` for a stolen batch.
    fn pop(&self, worker: usize) -> Option<(DispatchBatch, bool)> {
        let n = self.deques.len();
        let mut state = self.state.lock();
        loop {
            if state.queued > 0 {
                for i in 0..n {
                    let idx = (worker + i) % n;
                    if let Steal::Success(batch) = self.deques[idx].steal() {
                        state.queued -= 1;
                        drop(state);
                        self.not_full.notify_one();
                        return Some((batch, idx != worker % n));
                    }
                }
                // `queued > 0` but nothing found can only be a transient
                // Retry from a concurrent steal; loop and rescan.
                continue;
            }
            if state.readers_active == 0 {
                return None;
            }
            self.not_empty.wait(&mut state);
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

/// `(event index in page, prefetch slot index)` pairs mapping a fetch's
/// values back into the page's product matrix.
type SlotVec = Vec<(usize, usize)>;
/// Encoded product keys for one database's `get_multi` batch.
type KeyVec = Vec<Vec<u8>>;

/// Reusable per-reader buffers: the per-product-database grouping table and
/// free lists for the slot/key vectors it hands to in-flight fetches. A
/// steady-state reader builds every page's prefetch batches without a
/// single fresh allocation.
struct ReaderScratch {
    /// Indexed by product database index: `(slots, keys)` being built for
    /// the current page.
    per_db: Vec<(SlotVec, KeyVec)>,
    slot_pool: Vec<SlotVec>,
    keyvec_pool: Vec<KeyVec>,
    keybuf_pool: Vec<Vec<u8>>,
    products_pool: Vec<Vec<Vec<Option<Bytes>>>>,
}

impl ReaderScratch {
    fn new(n_product_dbs: usize) -> ReaderScratch {
        ReaderScratch {
            per_db: (0..n_product_dbs)
                .map(|_| (Vec::new(), Vec::new()))
                .collect(),
            slot_pool: Vec::new(),
            keyvec_pool: Vec::new(),
            keybuf_pool: Vec::new(),
            products_pool: Vec::new(),
        }
    }

    fn take_keybuf(&mut self) -> Vec<u8> {
        self.keybuf_pool.pop().unwrap_or_default()
    }

    /// Return a fetch's slot vector to the pool after its values have been
    /// scattered.
    fn recycle_slots(&mut self, mut slots: Vec<(usize, usize)>) {
        slots.clear();
        self.slot_pool.push(slots);
    }

    /// Return a fetch's key buffers (already copied into the RPC payload)
    /// to the pools.
    fn recycle_keys(&mut self, mut keys: Vec<Vec<u8>>) {
        for mut k in keys.drain(..) {
            k.clear();
            self.keybuf_pool.push(k);
        }
        self.keyvec_pool.push(keys);
    }

    fn take_products(&mut self, n_events: usize, n_labels: usize) -> Vec<Vec<Option<Bytes>>> {
        let mut m = self.products_pool.pop().unwrap_or_default();
        m.clear();
        m.resize_with(n_events, || vec![None; n_labels]);
        m
    }

    /// Return a page's (row-drained) product matrix to the pool.
    fn recycle_products(&mut self, mut matrix: Vec<Vec<Option<Bytes>>>) {
        matrix.clear();
        self.products_pool.push(matrix);
    }
}

/// One product `get_multi` in flight for a page.
struct InFlightFetch {
    pending: PendingGetMulti,
    /// `(event_idx, label_idx)` destination of each requested key, in
    /// request order.
    slots: Vec<(usize, usize)>,
    issued: Instant,
}

/// One key page moving through a reader's pipeline: descriptors decoded,
/// product fetches possibly still in flight.
struct PageState {
    descriptors: Vec<EventDescriptor>,
    fetches: Vec<InFlightFetch>,
    products: Vec<Vec<Option<Bytes>>>,
}

impl PageState {
    fn all_ready(&self) -> bool {
        self.fetches.iter().all(|f| f.pending.is_ready())
    }
}

/// Everything a reader thread needs, bundled to keep signatures sane.
struct ReaderCtx<'a> {
    datastore: &'a DataStore,
    dataset: Uuid,
    opts: &'a PepOptions,
    labels: &'a Arc<Vec<(ProductLabel, String)>>,
    queue: &'a DispatchQueue,
    abort: &'a AtomicBool,
    /// Round-robin cursor over worker deques.
    next_worker: usize,
}

impl ReaderCtx<'_> {
    /// Decode a key page into descriptors.
    fn parse_page(&self, page: &[Vec<u8>]) -> Result<Vec<EventDescriptor>, HepnosError> {
        let mut descriptors = Vec::with_capacity(page.len());
        for key in page {
            let (u, r, s, e) = keys::parse_event_key(key).ok_or_else(|| {
                HepnosError::Storage(yokan::YokanError::Protocol("malformed event key".into()))
            })?;
            descriptors.push(EventDescriptor {
                dataset: u,
                run: r,
                subrun: s,
                event: e,
            });
        }
        Ok(descriptors)
    }

    /// Drop listed event keys whose home under the store's topology is not
    /// event database `db_idx`. During a live migration a listing page also
    /// carries the old owners' keys (dual-read merge), which belong to
    /// whichever new database their subrun places them in; keeping only
    /// the ones homed here delivers each event exactly once across readers.
    /// Keys too short to place are kept for `parse_page` to reject.
    fn keep_homed(&self, db_idx: usize, page: &mut Vec<Vec<u8>>) {
        let store = &self.datastore.inner;
        page.retain(|k| {
            k.get(..32)
                .is_none_or(|s| store.event_db_index(s) == db_idx)
        });
    }

    /// Group the page's product keys by product database (reusing
    /// `scratch`) and issue one concurrent `get_multi_async` per database.
    fn issue_prefetch(&self, page: &[Vec<u8>], scratch: &mut ReaderScratch) -> Vec<InFlightFetch> {
        let store = &self.datastore.inner;
        for (ev_idx, ev_key) in page.iter().enumerate() {
            let db_idx = store.product_db_index(ev_key);
            for (l_idx, (label, type_name)) in self.labels.iter().enumerate() {
                let mut buf = scratch.take_keybuf();
                keys::product_key_into(&mut buf, ev_key, label.as_str(), type_name);
                let (slots, keyvecs) = &mut scratch.per_db[db_idx];
                if slots.is_empty() {
                    // First key for this db this page: give it pooled vecs.
                    if let Some(s) = scratch.slot_pool.pop() {
                        *slots = s;
                    }
                    if let Some(k) = scratch.keyvec_pool.pop() {
                        *keyvecs = k;
                    }
                }
                slots.push((ev_idx, l_idx));
                keyvecs.push(buf);
            }
        }
        let mut fetches = Vec::new();
        for db_idx in 0..scratch.per_db.len() {
            if scratch.per_db[db_idx].0.is_empty() {
                continue;
            }
            let (slots, keyvecs) = std::mem::take(&mut scratch.per_db[db_idx]);
            let target = &store.topo.product_dbs[db_idx];
            let pending = store.client.get_multi_async(target, &keyvecs);
            // Keys are fully copied into the RPC payload at issue time;
            // hand the buffers straight back to the pools.
            scratch.recycle_keys(keyvecs);
            fetches.push(InFlightFetch {
                pending,
                slots,
                issued: Instant::now(),
            });
        }
        fetches
    }

    /// Wait out a page's product fetches, scatter the values, and dispatch
    /// the page in batches. Recycles all scratch buffers.
    fn complete_page(
        &mut self,
        mut page: PageState,
        scratch: &mut ReaderScratch,
        stats: &mut ReaderStats,
    ) -> Result<(), HepnosError> {
        for fetch in page.fetches.drain(..) {
            let wait_start = Instant::now();
            let ready = fetch.pending.is_ready();
            let values = fetch.pending.wait()?;
            let now = Instant::now();
            if !ready {
                stats.prefetch_wait += now - wait_start;
            }
            stats.rpc_time += now - fetch.issued;
            for (&(ev_idx, l_idx), value) in fetch.slots.iter().zip(values) {
                page.products[ev_idx][l_idx] = value;
            }
            scratch.recycle_slots(fetch.slots);
        }
        let mut batch: DispatchBatch = Vec::with_capacity(self.opts.dispatch_batch_size);
        for (desc, prods) in page.descriptors.drain(..).zip(page.products.drain(..)) {
            batch.push((desc, prods));
            if batch.len() >= self.opts.dispatch_batch_size {
                self.dispatch(std::mem::take(&mut batch), stats);
                batch = Vec::with_capacity(self.opts.dispatch_batch_size);
            }
        }
        if !batch.is_empty() {
            self.dispatch(batch, stats);
        }
        scratch.recycle_products(page.products);
        Ok(())
    }

    fn dispatch(&mut self, batch: DispatchBatch, stats: &mut ReaderStats) {
        let t = Instant::now();
        self.queue.push(self.next_worker, batch);
        stats.dispatch_stall += t.elapsed();
        self.next_worker = self.next_worker.wrapping_add(1);
    }

    /// Pipelined read of one event database: the next `list_keys` is in
    /// flight while up to `read_ahead_pages` pages' prefetches are
    /// outstanding; completed pages are drained front-first (FIFO order
    /// per database is preserved).
    fn read_database(
        &mut self,
        db_idx: usize,
        scratch: &mut ReaderScratch,
        stats: &mut ReaderStats,
    ) -> Result<(), HepnosError> {
        let db = self.datastore.inner.topo.event_dbs[db_idx].clone();
        let prefix: Vec<u8> = self.dataset.as_bytes().to_vec();
        let read_ahead = self.opts.read_ahead_pages.max(1);
        let client = &self.datastore.inner.client;
        let mut window: VecDeque<PageState> = VecDeque::with_capacity(read_ahead + 1);

        let mut pending_list: Option<(PendingListKeys, Instant)> = Some((
            client.list_keys_async(&db, &prefix, &prefix, self.opts.load_batch_size),
            Instant::now(),
        ));
        let res = 'pages: loop {
            let Some((pending, issued)) = pending_list.take() else {
                break Ok(());
            };
            let wait_start = Instant::now();
            let ready = pending.is_ready();
            let mut page = match pending.wait() {
                Ok(p) => p,
                Err(e) => break Err(HepnosError::from(e)),
            };
            let now = Instant::now();
            if !ready {
                stats.list_wait += now - wait_start;
            }
            stats.rpc_time += now - issued;
            stats.pages += 1;
            if page.is_empty() || self.abort.load(Ordering::Relaxed) {
                break Ok(());
            }
            // Issue the next list immediately: it overlaps with this
            // page's prefetch fan-out and any page completion below.
            let from = page.last().expect("page is non-empty").clone();
            pending_list = Some((
                client.list_keys_async(&db, &from, &prefix, self.opts.load_batch_size),
                Instant::now(),
            ));
            self.keep_homed(db_idx, &mut page);
            let descriptors = match self.parse_page(&page) {
                Ok(d) => d,
                Err(e) => break Err(e),
            };
            stats.events_loaded += descriptors.len() as u64;
            let fetches = if self.labels.is_empty() {
                Vec::new()
            } else {
                self.issue_prefetch(&page, scratch)
            };
            let products = scratch.take_products(descriptors.len(), self.labels.len());
            window.push_back(PageState {
                descriptors,
                fetches,
                products,
            });
            stats.read_ahead_hwm = stats.read_ahead_hwm.max(window.len() as u64);
            // Drain: anything beyond the window must complete; anything at
            // the front that is already fully ready completes for free.
            while window.len() > read_ahead || window.front().is_some_and(|p| p.all_ready()) {
                let page = window.pop_front().expect("window is non-empty");
                if let Err(e) = self.complete_page(page, scratch, stats) {
                    break 'pages Err(e);
                }
            }
            if self.abort.load(Ordering::Relaxed) {
                break Ok(());
            }
        };
        // On success drain the remaining window; on error or abort discard
        // it — those events stay loaded-but-unprocessed, which
        // `PepStatistics` reports via `events_loaded` vs `total_events`.
        if res.is_ok() && !self.abort.load(Ordering::Relaxed) {
            while let Some(page) = window.pop_front() {
                self.complete_page(page, scratch, stats)?;
            }
        }
        res
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
        let n_dbs = self.datastore.num_event_databases();
        let n_readers = if opts.num_readers == 0 {
            n_dbs
        } else {
            opts.num_readers.min(n_dbs).max(1)
        };
        let n_workers = opts.num_workers.max(1);
        let labels = Arc::new(opts.prefetch.clone());
        let queue = DispatchQueue::new(n_workers, n_readers, opts.queue_capacity);
        let queue = &queue;
        let reader_stats: Mutex<Vec<ReaderStats>> =
            Mutex::new(vec![ReaderStats::default(); n_readers]);
        let worker_stats: Mutex<Vec<WorkerStats>> =
            Mutex::new(vec![WorkerStats::default(); n_workers]);
        let first_error: Mutex<Option<HepnosError>> = Mutex::new(None);
        let abort = AtomicBool::new(false);
        let t0 = Instant::now();
        let callback = &callback;
        let n_product_dbs = self.datastore.inner.topo.product_dbs.len();

        std::thread::scope(|scope| {
            // ------------------------------------------------ readers
            for reader_id in 0..n_readers {
                let datastore = self.datastore.clone();
                let labels = Arc::clone(&labels);
                let reader_stats = &reader_stats;
                let first_error = &first_error;
                let abort = &abort;
                scope.spawn(move || {
                    // Round-robin assignment of event databases to readers.
                    let my_dbs: Vec<usize> = (0..n_dbs)
                        .filter(|db| db % n_readers == reader_id)
                        .collect();
                    let mut ctx = ReaderCtx {
                        datastore: &datastore,
                        dataset: uuid,
                        opts,
                        labels: &labels,
                        queue,
                        abort,
                        next_worker: reader_id,
                    };
                    let mut scratch = ReaderScratch::new(n_product_dbs);
                    let mut stats = ReaderStats::default();
                    for db_idx in my_dbs {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Err(e) = ctx.read_database(db_idx, &mut scratch, &mut stats) {
                            let mut slot = first_error.lock();
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
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
