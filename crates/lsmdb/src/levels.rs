//! Level metadata and the compaction picker.
//!
//! The table set is organised RocksDB-style:
//!
//! * **L0** — one sorted run per memtable flush, oldest first. The tables
//!   of one flush are disjoint (one per key partition), but flushes may
//!   overlap each other, so reads consult them newest-first, one binary
//!   search per flush, and compaction takes all of them together, merging
//!   one run per flush. L0 is counted in flushes, not tables;
//! * **L1..Lmax** — one sorted run each: tables within a level are ordered
//!   by `min_key` and non-overlapping, so a point read touches at most one
//!   table per level.
//!
//! Each level has a dynamic byte target: `target(L1) = level_base_bytes`,
//! `target(Li) = target(Li-1) * level_multiplier`. A level's *compaction
//! score* is `bytes / target` (for L0: `flushes / l0_compaction_trigger`);
//! any score ≥ 1.0 makes the level eligible, and the picker always selects
//! the neediest level so background work goes where it relieves the most
//! pressure.
//!
//! An L0 compaction takes every L0 table but merges only the L1 tables
//! that some input's `[min, max]` meets, not every table under the hull of
//! all inputs. HEPnOS prefixes each dataset's keys with a random UUID, so
//! a round of ingest writes a narrow window of each database; the L0
//! tables at a round boundary sit on either side of older datasets' L1
//! tables, which stay installed. The picker lists their min keys
//! (`Pick::untouched`) and the executor cuts its outputs before each;
//! no merged key falls inside one, so L1 stays sorted and disjoint
//! (`insert_sorted` asserts it in debug builds).
//!
//! With `Options::partition_prefix_len` set, the flush and the compaction
//! executor also cut their outputs wherever a key's prefix changes, so
//! every table holds one prefix (for HEPnOS, one dataset's UUID). The
//! picker needs no other change for it: a finished dataset's table meets
//! no table of another dataset below, so it moves down as a trivial move
//! instead of being merged, and a round-boundary L0 table no longer spans
//! the gap where older datasets' L1 tables lie.
//!
//! For L1+ the picker round-robins through the level's key space with a
//! per-level cursor (the max key of the last compacted input), which
//! spreads write amplification instead of hammering one hot range. When the
//! chosen input has no overlap in the next level and limited overlap in the
//! grandparent level, the compaction degenerates to a *trivial move*: the
//! table is relinked one level down with no I/O at all.

use crate::db::Options;
use crate::sstable::SstReader;
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

/// Whether key ranges `[amin, amax]` and `[bmin, bmax]` intersect.
fn ranges_overlap(amin: &[u8], amax: &[u8], bmin: &[u8], bmax: &[u8]) -> bool {
    amin <= bmax && bmin <= amax
}

/// A sorted run: tables ordered by `min_key` with disjoint key ranges.
pub(crate) type Run = Vec<Arc<SstReader>>;

/// The table in a sorted run that may contain `key`.
pub(crate) fn find_in<'a>(run: &'a [Arc<SstReader>], key: &[u8]) -> Option<&'a Arc<SstReader>> {
    let idx = run.partition_point(|t| t.max_key() < key);
    run.get(idx).filter(|t| t.min_key() <= key)
}

/// A compaction selected by the picker. `inputs` come from `from` level,
/// `overlaps` from `from + 1` (the output level). When `trivial` is set the
/// input table can be relinked down without rewriting.
pub(crate) struct Pick {
    pub from: usize,
    /// L0: every flush, oldest first; L1+: one run of a single table.
    pub inputs: Vec<Run>,
    pub overlaps: Vec<Arc<SstReader>>,
    /// Min keys of the target tables under the inputs' span that no input
    /// meets (L0 only); the outputs are cut before each.
    pub untouched: Vec<Vec<u8>>,
    pub drop_tombstones: bool,
    pub trivial: bool,
}

impl Pick {
    /// Every input table.
    pub fn input_tables(&self) -> impl Iterator<Item = &Arc<SstReader>> {
        self.inputs.iter().flatten()
    }
}

/// The leveled table set plus per-level compaction cursors.
pub(crate) struct Levels {
    /// L0: one run per flush, oldest first. Runs may overlap each other.
    l0: Vec<Run>,
    /// `sorted[i - 1]` is level `i >= 1`, a single run.
    sorted: Vec<Run>,
    /// Round-robin cursor per level: max key of the last compacted input.
    cursors: Vec<Vec<u8>>,
}

impl Levels {
    pub fn new(max_levels: usize) -> Levels {
        let n = max_levels.max(2);
        Levels {
            l0: Vec::new(),
            sorted: vec![Vec::new(); n - 1],
            cursors: vec![Vec::new(); n],
        }
    }

    /// Rebuild from manifest entries `(level, table, flush)`. Levels ≥ 1
    /// are sorted by min key; L0 keeps manifest order (flushes by age,
    /// each flush's tables by key), and adjacent L0 tables that name the
    /// same flush stay one flush (a table that names none is a flush of
    /// its own). Entries at levels beyond
    /// `max_levels` are clamped into the bottom level.
    pub fn from_manifest(
        max_levels: usize,
        entries: Vec<(usize, Arc<SstReader>, Option<u64>)>,
    ) -> Levels {
        let mut lv = Levels::new(max_levels);
        let bottom = lv.sorted.len();
        let mut prev = None;
        for (level, t, flush) in entries {
            match level.min(bottom) {
                0 => {
                    match lv.l0.last_mut() {
                        Some(run) if flush.is_some() && flush == prev => run.push(t),
                        _ => lv.l0.push(vec![t]),
                    }
                    prev = flush;
                }
                level => lv.sorted[level - 1].push(t),
            }
        }
        for level in &mut lv.sorted {
            level.sort_by(|a, b| a.min_key().cmp(b.min_key()));
        }
        lv
    }

    pub fn num_levels(&self) -> usize {
        self.sorted.len() + 1
    }

    /// L0's flushes, oldest first.
    pub fn l0(&self) -> &[Run] {
        &self.l0
    }

    /// The run of a sorted level (≥ 1).
    pub fn level(&self, i: usize) -> &[Arc<SstReader>] {
        debug_assert!(i >= 1);
        &self.sorted[i - 1]
    }

    /// Every run, in read precedence: L0 newest first, then L1 down.
    pub fn runs(&self) -> impl Iterator<Item = &[Arc<SstReader>]> {
        let l0 = self.l0.iter().rev();
        l0.chain(&self.sorted).map(Vec::as_slice)
    }

    /// The tables of level `i`.
    fn tables(&self, i: usize) -> impl Iterator<Item = &Arc<SstReader>> {
        let l0 = if i == 0 { &self.l0[..] } else { &[] };
        let sorted = (i >= 1).then(|| &self.sorted[i - 1]);
        l0.iter().flatten().chain(sorted.into_iter().flatten())
    }

    pub fn table_count(&self, i: usize) -> usize {
        self.tables(i).count()
    }

    /// Add the tables of one flush to L0, as its newest flush.
    pub fn push_l0(&mut self, flush: Run) {
        if !flush.is_empty() {
            self.l0.push(flush);
        }
    }

    /// Flushes in L0: its read amplification, and what its triggers count.
    pub fn l0_flushes(&self) -> usize {
        self.l0.len()
    }

    pub fn level_bytes(&self, i: usize) -> u64 {
        self.tables(i).map(|t| t.file_size()).sum()
    }

    /// Byte target for level `i >= 1`.
    pub fn target_bytes(i: usize, opts: &Options) -> u64 {
        let mult = opts.level_multiplier.max(2);
        opts.level_base_bytes
            .max(1)
            .saturating_mul(mult.saturating_pow(i.saturating_sub(1) as u32))
    }

    /// Compaction score of level `i`; ≥ 1.0 means eligible. The bottom
    /// level never compacts further down, so it scores 0.
    pub fn score(&self, i: usize, opts: &Options) -> f64 {
        if i + 1 >= self.num_levels() {
            return 0.0;
        }
        if i == 0 {
            self.l0_flushes() as f64 / opts.l0_compaction_trigger.max(1) as f64
        } else {
            self.level_bytes(i) as f64 / Self::target_bytes(i, opts) as f64
        }
    }

    /// Score of the neediest level (the max over all levels).
    pub fn max_score(&self, opts: &Options) -> f64 {
        (0..self.num_levels())
            .map(|i| self.score(i, opts))
            .fold(0.0, f64::max)
    }

    /// Tables in sorted `level` overlapping `[min, max]`, in level order.
    pub fn overlapping(&self, level: usize, min: &[u8], max: &[u8]) -> Vec<Arc<SstReader>> {
        if level >= self.num_levels() {
            return Vec::new();
        }
        self.level(level)
            .iter()
            .filter(|t| t.entry_count() > 0 && ranges_overlap(t.min_key(), t.max_key(), min, max))
            .cloned()
            .collect()
    }

    /// Total bytes of tables in `level` overlapping `[min, max]`.
    pub fn overlap_bytes(&self, level: usize, min: &[u8], max: &[u8]) -> u64 {
        self.overlapping(level, min, max)
            .iter()
            .map(|t| t.file_size())
            .sum()
    }

    pub fn is_empty(&self, level: usize) -> bool {
        self.tables(level).next().is_none()
    }

    /// Whether every level strictly deeper than `level` is empty (the
    /// tombstone-drop condition for a compaction writing into `level`).
    pub fn empty_below(&self, level: usize) -> bool {
        self.sorted.iter().skip(level).all(|ts| ts.is_empty())
    }

    /// Pick the neediest compaction, or `None` when all scores are < 1.0.
    pub fn pick(&self, opts: &Options) -> Option<Pick> {
        let (level, score) = (0..self.num_levels())
            .map(|i| (i, self.score(i, opts)))
            .max_by(|a, b| a.1.total_cmp(&b.1))?;
        if score < 1.0 {
            return None;
        }
        Some(self.pick_level(level, opts))
    }

    /// Build the compaction job for `level` (assumed eligible): inputs,
    /// next-level overlaps, and the trivial-move / tombstone-drop verdicts.
    pub fn pick_level(&self, level: usize, opts: &Options) -> Pick {
        let target = level + 1;
        let inputs: Vec<Run> = if level == 0 {
            // L0 flushes overlap arbitrarily; take them all, oldest first.
            self.l0.clone()
        } else {
            vec![vec![self.cursor_candidate(level)]]
        };
        let (min, max) = key_span(inputs.iter().flatten());
        // Merge only the target tables some input actually meets. For L0
        // the inputs' hull can span next-level tables that no input
        // touches; those stay installed and the outputs are cut around
        // them. (L1+ has a single input, so this is its plain overlap.)
        let (overlaps, untouched): (Vec<Arc<SstReader>>, Vec<Arc<SstReader>>) = self
            .overlapping(target, &min, &max)
            .into_iter()
            .partition(|t| {
                inputs.iter().flatten().any(|i| {
                    i.entry_count() > 0
                        && ranges_overlap(i.min_key(), i.max_key(), t.min_key(), t.max_key())
                })
            });
        // A single input with nothing to merge below and bounded grandparent
        // overlap can be relinked down without any I/O. (For L0 the single
        // table is necessarily the oldest, so moving it below newer L0
        // tables preserves precedence.)
        let trivial = inputs.iter().flatten().count() == 1
            && overlaps.is_empty()
            && self.overlap_bytes(target + 1, &min, &max) <= opts.grandparent_limit_bytes;
        Pick {
            from: level,
            inputs,
            overlaps,
            untouched: untouched.iter().map(|t| t.min_key().to_vec()).collect(),
            drop_tombstones: self.empty_below(target),
            trivial,
        }
    }

    /// The round-robin input for a sorted level: the first table whose max
    /// key is strictly past the level cursor, wrapping to the first table.
    fn cursor_candidate(&self, level: usize) -> Arc<SstReader> {
        let ts = self.level(level);
        debug_assert!(!ts.is_empty());
        let cur = &self.cursors[level];
        ts.iter()
            .find(|t| t.max_key() > cur.as_slice())
            .unwrap_or(&ts[0])
            .clone()
    }

    /// Advance the round-robin cursor of `level` past `max_key`.
    pub fn advance_cursor(&mut self, level: usize, max_key: &[u8]) {
        self.cursors[level] = max_key.to_vec();
    }

    /// Remove `victims` (matched by path) from `level`; an L0 flush left
    /// without tables is gone.
    pub fn remove<'a>(
        &mut self,
        level: usize,
        victims: impl IntoIterator<Item = &'a Arc<SstReader>>,
    ) {
        let victims: HashSet<&Path> = victims.into_iter().map(|t| t.path()).collect();
        let kept = |t: &Arc<SstReader>| !victims.contains(t.path());
        if level == 0 {
            for run in &mut self.l0 {
                run.retain(kept);
            }
            self.l0.retain(|run| !run.is_empty());
        } else {
            self.sorted[level - 1].retain(kept);
        }
    }

    /// Insert tables into a sorted level (≥ 1), keeping min-key order.
    pub fn insert_sorted(&mut self, level: usize, new_tables: Vec<Arc<SstReader>>) {
        debug_assert!(level >= 1);
        let run = &mut self.sorted[level - 1];
        run.extend(new_tables);
        run.sort_by(|a, b| a.min_key().cmp(b.min_key()));
        // `find_in` relies on the level being a sorted, disjoint run.
        debug_assert!(
            run.windows(2).all(|w| w[0].max_key() < w[1].min_key()),
            "L{level} tables overlap after insert"
        );
    }
}

/// Combined key span of a non-empty table set.
pub(crate) fn key_span<'a>(
    tables: impl IntoIterator<Item = &'a Arc<SstReader>>,
) -> (Vec<u8>, Vec<u8>) {
    let mut min: Option<&[u8]> = None;
    let mut max: Option<&[u8]> = None;
    for t in tables {
        if t.entry_count() == 0 {
            continue;
        }
        if min.is_none_or(|m| t.min_key() < m) {
            min = Some(t.min_key());
        }
        if max.is_none_or(|m| t.max_key() > m) {
            max = Some(t.max_key());
        }
    }
    (
        min.unwrap_or_default().to_vec(),
        max.unwrap_or_default().to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::SstWriter;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lsmdb-levels-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn table(dir: &std::path::Path, name: &str, keys: &[&str]) -> Arc<SstReader> {
        let mut w = SstWriter::create(&dir.join(name), 10).unwrap();
        for k in keys {
            w.add(k.as_bytes(), Some(&[0u8; 64])).unwrap();
        }
        Arc::new(w.finish().unwrap())
    }

    fn test_opts() -> Options {
        Options {
            l0_compaction_trigger: 4,
            level_base_bytes: 1000,
            level_multiplier: 10,
            ..Options::default()
        }
    }

    #[test]
    fn targets_follow_the_multiplier() {
        let opts = test_opts();
        assert_eq!(Levels::target_bytes(1, &opts), 1000);
        assert_eq!(Levels::target_bytes(2, &opts), 10_000);
        assert_eq!(Levels::target_bytes(3, &opts), 100_000);
    }

    #[test]
    fn l0_score_counts_tables() {
        let d = tmpdir("l0score");
        let opts = test_opts();
        let mut lv = Levels::new(3);
        assert_eq!(lv.score(0, &opts), 0.0);
        for i in 0..4 {
            lv.push_l0(vec![table(&d, &format!("{i}.sst"), &["a", "z"])]);
        }
        assert!(lv.score(0, &opts) >= 1.0);
        assert_eq!(lv.score(2, &opts), 0.0, "bottom level never scores");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn l0_counts_flushes() {
        let d = tmpdir("l0flushes");
        let opts = test_opts();
        let t = |name: &str, keys: &[&str]| table(&d, name, keys);
        let mut lv = Levels::new(3);
        lv.push_l0(vec![t("a.sst", &["a", "b"]), t("c.sst", &["c", "d"])]);
        lv.push_l0(vec![t("e.sst", &["a", "z"])]);
        lv.push_l0(vec![t("f.sst", &["f", "g"]), t("h.sst", &["h", "i"])]);
        assert_eq!((lv.table_count(0), lv.l0_flushes()), (5, 3));
        assert_eq!(lv.score(0, &opts), 3.0 / 4.0);
        // Compaction takes the oldest two flushes.
        let taken: Vec<_> = lv.l0()[..2].iter().flatten().cloned().collect();
        lv.remove(0, &taken);
        assert_eq!((lv.table_count(0), lv.l0_flushes()), (2, 1));
        lv.push_l0(vec![t("j.sst", &["j", "k"])]);
        assert_eq!(lv.l0_flushes(), 2);
        // From a manifest: adjacent tables naming one flush stay one, and
        // a table naming none is its own.
        let entries = [Some(7), Some(7), None, None, Some(9), Some(7)]
            .into_iter()
            .enumerate()
            .map(|(i, f)| (0, t(&format!("m{i}.sst"), &["a", "b"]), f))
            .collect();
        let lv = Levels::from_manifest(3, entries);
        assert_eq!((lv.table_count(0), lv.l0_flushes()), (6, 5));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn picker_prefers_neediest_level() {
        let d = tmpdir("pick");
        let opts = test_opts();
        let mut lv = Levels::new(4);
        // L1 barely over target, L0 far over trigger: L0 must win.
        lv.insert_sorted(1, vec![table(&d, "l1.sst", &["m", "n"])]);
        for i in 0..12 {
            lv.push_l0(vec![table(&d, &format!("{i}.sst"), &["a", "z"])]);
        }
        let pick = lv.pick(&opts).unwrap();
        assert_eq!(pick.from, 0);
        assert_eq!(pick.inputs.len(), 12);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn overlap_queries() {
        let d = tmpdir("overlap");
        let mut lv = Levels::new(3);
        lv.insert_sorted(1, vec![table(&d, "a.sst", &["a", "f"])]);
        lv.insert_sorted(1, vec![table(&d, "g.sst", &["g", "m"])]);
        lv.insert_sorted(1, vec![table(&d, "n.sst", &["n", "z"])]);
        assert_eq!(lv.overlapping(1, b"b", b"c").len(), 1);
        assert_eq!(lv.overlapping(1, b"f", b"g").len(), 2);
        assert_eq!(lv.overlapping(1, b"aa", b"zz").len(), 3);
        assert!(lv.overlapping(2, b"a", b"z").is_empty());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn l0_pick_merges_only_what_some_input_meets() {
        let d = tmpdir("perinput");
        let opts = test_opts();
        let mut lv = Levels::new(4);
        lv.insert_sorted(1, vec![table(&d, "a.sst", &["a", "c"])]);
        lv.insert_sorted(1, vec![table(&d, "g.sst", &["g", "i"])]);
        lv.insert_sorted(1, vec![table(&d, "n.sst", &["n", "p"])]);
        // The inputs' hull [b, q] spans all three; "g..i" meets neither.
        lv.push_l0(vec![table(&d, "l0a.sst", &["b", "d"])]);
        lv.push_l0(vec![table(&d, "l0b.sst", &["o", "q"])]);
        let pick = lv.pick_level(0, &opts);
        let mins: Vec<&[u8]> = pick.overlaps.iter().map(|t| t.min_key()).collect();
        assert_eq!(mins, [&b"a"[..], b"n"]);
        assert_eq!(pick.untouched, [b"g".to_vec()]);
        assert_eq!(pick.inputs.len(), 2);
        assert!(!pick.trivial);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn trivial_move_detection() {
        let d = tmpdir("trivial");
        let opts = test_opts();
        let mut lv = Levels::new(4);
        // One L1 table, no L2 overlap → trivial.
        lv.insert_sorted(1, vec![table(&d, "solo.sst", &["a", "f"])]);
        let pick = lv.pick_level(1, &opts);
        assert!(pick.trivial);
        // Now give L2 an overlapping table → not trivial.
        lv.insert_sorted(2, vec![table(&d, "l2.sst", &["c", "d"])]);
        let pick = lv.pick_level(1, &opts);
        assert!(!pick.trivial);
        assert_eq!(pick.overlaps.len(), 1);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn tombstone_drop_only_when_nothing_deeper() {
        let d = tmpdir("tomb");
        let opts = test_opts();
        let mut lv = Levels::new(4);
        lv.push_l0(vec![table(&d, "l0.sst", &["a", "z"])]);
        // Writing into L1 with empty L2/L3 → may drop tombstones.
        assert!(lv.pick_level(0, &opts).drop_tombstones);
        lv.insert_sorted(3, vec![table(&d, "deep.sst", &["q", "r"])]);
        assert!(!lv.pick_level(0, &opts).drop_tombstones);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn cursor_round_robins_across_the_level() {
        let d = tmpdir("cursor");
        let mut lv = Levels::new(3);
        lv.insert_sorted(1, vec![table(&d, "a.sst", &["a", "c"])]);
        lv.insert_sorted(1, vec![table(&d, "d.sst", &["d", "f"])]);
        lv.insert_sorted(1, vec![table(&d, "g.sst", &["g", "i"])]);
        let first = lv.cursor_candidate(1);
        assert_eq!(first.min_key(), b"a");
        lv.advance_cursor(1, first.max_key());
        let second = lv.cursor_candidate(1);
        assert_eq!(second.min_key(), b"d");
        lv.advance_cursor(1, second.max_key());
        lv.advance_cursor(1, b"z"); // past the end → wraps
        assert_eq!(lv.cursor_candidate(1).min_key(), b"a");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn remove_and_insert_keep_sorted_order() {
        let d = tmpdir("edit");
        let mut lv = Levels::new(3);
        let a = table(&d, "a.sst", &["a", "c"]);
        let g = table(&d, "g.sst", &["g", "i"]);
        lv.insert_sorted(1, vec![g.clone(), a.clone()]);
        assert_eq!(lv.level(1)[0].min_key(), b"a");
        lv.remove(1, std::slice::from_ref(&a));
        assert_eq!(lv.level(1).len(), 1);
        assert_eq!(find_in(lv.level(1), b"h").unwrap().path(), g.path());
        assert!(find_in(lv.level(1), b"b").is_none());
        std::fs::remove_dir_all(&d).ok();
    }
}
