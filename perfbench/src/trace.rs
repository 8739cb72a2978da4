//! Spans recorded at the benchmark's call sites into each layer.
//!
//! A span is a name, a start and end time, the id of the span that caused
//! it and the id of the operation it belongs to. Spans stay in memory and
//! are written out when the run ends. Each thread buffers its own spans
//! and takes span ids in blocks, so PEP workers recording a span per event
//! share no lock or counter on that path. A layer's self time is its
//! spans' durations minus the part of each interval that child spans
//! cover; children may run on other threads and overlap each other, so
//! covered time is the union of the children's intervals.
//!
//! The span store is per process: one enabled [`Tracer`] at a time.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept in memory at most. Beyond it, child spans are folded into
/// per-name totals and dropped; roots are always kept, and a root that
/// lost children is left out of self-time accounting.
const MAX_SPANS: usize = 1_000_000;
/// Spans a thread buffers before handing them to the shared store.
const CHUNK: usize = 1 << 14;
/// Span ids a thread takes from the shared counter at a time.
const ID_BLOCK: u32 = 1 << 12;

static STORE: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());
static KEPT: AtomicUsize = AtomicUsize::new(0);
/// Child spans dropped beyond the cap.
static DROPPED: Mutex<Dropped> = Mutex::new(Dropped {
    per_name: BTreeMap::new(),
    parents: BTreeSet::new(),
});
/// Next unallocated id block; id 0 means "no parent".
static NEXT_ID: AtomicU32 = AtomicU32::new(1);

/// One recorded span. Times are nanoseconds since the tracer was created;
/// `parent == 0` marks a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A thread's span buffer and id block; flushed to [`STORE`] when full and
/// when the thread exits.
#[derive(Default)]
struct Local {
    chunk: Vec<Span>,
    next_id: u32,
    id_end: u32,
}

impl Local {
    fn id(&mut self) -> u32 {
        if self.next_id == self.id_end {
            self.next_id = NEXT_ID.fetch_add(ID_BLOCK, Ordering::Relaxed);
            self.id_end = self.next_id + ID_BLOCK;
        }
        self.next_id += 1;
        self.next_id - 1
    }

    fn push(&mut self, span: Span) {
        if self.chunk.capacity() == 0 {
            self.chunk.reserve_exact(CHUNK);
        }
        self.chunk.push(span);
        if self.chunk.len() == CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let chunk = std::mem::take(&mut self.chunk);
        if chunk.is_empty() {
            return;
        }
        let chunk = if KEPT.fetch_add(chunk.len(), Ordering::Relaxed) >= MAX_SPANS {
            let (roots, children): (Vec<Span>, Vec<Span>) =
                chunk.into_iter().partition(|s| s.parent == 0);
            let mut dropped = DROPPED.lock().unwrap_or_else(|e| e.into_inner());
            for s in children {
                let (n, ns) = dropped.per_name.entry(s.name).or_default();
                *n += 1;
                *ns += s.end_ns.saturating_sub(s.start_ns);
                dropped.parents.insert(s.parent);
            }
            roots
        } else {
            chunk
        };
        // A poisoned lock only means another thread panicked mid-push;
        // the chunks it holds are whole.
        STORE.lock().unwrap_or_else(|e| e.into_inner()).push(chunk);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so it
    /// can parent spans it causes. Returns `f`'s result.
    pub fn span<R>(&self, name: &'static str, parent: u32, op: u32, f: impl FnOnce(u32) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = LOCAL.with(|l| l.borrow_mut().id());
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        LOCAL.with(|l| {
            l.borrow_mut().push(Span {
                name,
                id,
                parent,
                op,
                start_ns,
                end_ns,
            })
        });
        out
    }

    /// Every span kept, ordered by start time, plus what was dropped beyond
    /// the in-memory cap. Threads that recorded spans must have exited (or
    /// be the caller).
    pub fn finish(&self) -> Trace {
        LOCAL.with(|l| l.borrow_mut().flush());
        let chunks = std::mem::take(&mut *STORE.lock().unwrap_or_else(|e| e.into_inner()));
        let mut spans: Vec<Span> = chunks.into_iter().flatten().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let dropped = std::mem::take(&mut *DROPPED.lock().unwrap_or_else(|e| e.into_inner()));
        Trace { spans, dropped }
    }
}

/// Child spans dropped beyond the cap: count and summed duration (ns) per
/// name, and the ids of the spans that lost children.
#[derive(Debug, Default)]
pub struct Dropped {
    pub per_name: BTreeMap<&'static str, (u64, u64)>,
    pub parents: BTreeSet<u32>,
}

/// What a traced run recorded.
pub struct Trace {
    pub spans: Vec<Span>,
    pub dropped: Dropped,
}

impl Trace {
    pub fn dropped_count(&self) -> u64 {
        self.dropped.per_name.values().map(|(n, _)| n).sum()
    }

    /// Kept spans whose whole tree was kept: no ancestor lost a child.
    pub fn complete(&self) -> Vec<Span> {
        let parent: HashMap<u32, u32> = self.spans.iter().map(|s| (s.id, s.parent)).collect();
        let intact = |mut id: u32| loop {
            if self.dropped.parents.contains(&id) {
                return false;
            }
            match parent.get(&id) {
                Some(&p) if p != 0 => id = p,
                _ => return true,
            }
        };
        self.spans
            .iter()
            .filter(|s| intact(s.id))
            .copied()
            .collect()
    }

    /// Per-name span count and summed duration (seconds) over every span,
    /// dropped ones included.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.0 += 1;
            t.1 += s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9;
        }
        for (name, &(n, ns)) in &self.dropped.per_name {
            let t = out.entry(name).or_default();
            t.0 += n;
            t.1 += ns as f64 * 1e-9;
        }
        out
    }

    /// Sums over the root operations, and over those traced in full.
    pub fn reconcile(&self) -> Reconcile {
        let complete = self.complete();
        let roots = |spans: &[Span]| {
            spans
                .iter()
                .filter(|s| s.parent == 0)
                .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
                .collect::<Vec<_>>()
        };
        let (full, all) = (roots(&complete), roots(&self.spans));
        Reconcile {
            self_s: self_times(&complete).values().map(|t| t.self_s).sum(),
            full_roots: full.len(),
            full_roots_s: full.iter().sum(),
            roots: all.len(),
            roots_s: all.iter().sum(),
        }
    }
}

/// See [`Trace::reconcile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconcile {
    /// Self time of every span of the operations traced in full.
    pub self_s: f64,
    /// Operations traced in full and their roots' summed wall time.
    pub full_roots: usize,
    pub full_roots_s: f64,
    /// All root operations and their summed wall time.
    pub roots: usize,
    pub roots_s: f64,
}

/// Per-name totals: span count, summed duration and summed self time, in
/// seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals within it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = dur - covered(kids, s.start_ns, s.end_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += dur as f64 * 1e-9;
        t.self_s += own as f64 * 1e-9;
    }
    out
}

/// Write spans as tab-separated `id parent op name start_ns end_ns` lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 1,
            start_ns,
            end_ns,
        }
    }

    fn assert_ns(seconds: f64, ns: u64) {
        assert!(
            (seconds - ns as f64 * 1e-9).abs() < 1e-15,
            "{seconds} s is not {ns} ns"
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0, 100) has two overlapping children on different threads,
        // [10, 40) and [30, 60), plus [90, 120) that runs past its end.
        // Child "a" [10, 40) has a grandchild [15, 25).
        let spans = [
            span("root", 1, 0, 0, 100),
            span("a", 2, 1, 10, 40),
            span("b", 3, 1, 30, 60),
            span("b", 4, 1, 90, 120),
            span("leaf", 5, 2, 15, 25),
        ];
        let t = self_times(&spans);
        // Covered: [10, 60) and [90, 100) = 60 ns.
        assert_ns(t["root"].self_s, 40);
        assert_ns(t["root"].total_s, 100);
        assert_ns(t["a"].self_s, 20);
        assert_eq!(t["b"].count, 2);
        assert_ns(t["b"].self_s, 60);
        assert_ns(t["leaf"].self_s, 10);
    }

    #[test]
    fn disjoint_children_tile_their_parent() {
        let spans = [
            span("root", 1, 0, 0, 50),
            span("c", 2, 1, 0, 20),
            span("c", 3, 1, 20, 50),
        ];
        let t = self_times(&spans);
        assert_ns(t["root"].self_s, 0);
        assert_ns(t.values().map(|l| l.self_s).sum(), 50);
    }

    #[test]
    fn operations_that_lost_children_leave_self_time_accounting() {
        let trace = Trace {
            spans: vec![
                span("root", 1, 0, 0, 100),
                span("c", 2, 1, 0, 40),
                span("root", 3, 0, 100, 200),
                span("c", 4, 3, 100, 150),
            ],
            dropped: Dropped {
                per_name: [("c", (1, 30))].into_iter().collect(),
                parents: [3].into_iter().collect(),
            },
        };
        let totals = trace.totals();
        assert_eq!(totals["c"].0, 3);
        assert_ns(totals["c"].1, 120);
        assert_ns(totals["root"].1, 200);
        // Only root 1's tree is whole.
        let t = self_times(&trace.complete());
        assert_ns(t["c"].self_s, 40);
        assert_ns(t["root"].self_s, 60);
        let r = trace.reconcile();
        assert_eq!((r.full_roots, r.roots), (1, 2));
        assert_ns(r.self_s, 100);
        assert_ns(r.full_roots_s, 100);
        assert_ns(r.roots_s, 200);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, 0, |id| id + 7), 7);
        assert!(t.finish().spans.is_empty());
        let t = Tracer::new(true);
        let child = t.span("outer", 0, 9, |id| t.span("inner", id, 9, |_| id));
        let trace = t.finish();
        assert_eq!(trace.dropped_count(), 0);
        let spans = trace.spans;
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, child);
        assert!(spans.iter().all(|s| s.op == 9 && s.end_ns >= s.start_ns));
    }
}
