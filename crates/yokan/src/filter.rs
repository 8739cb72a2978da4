//! Server-side predicate evaluation over columnar pages — the push-down
//! half of the columnar product path.
//!
//! A client compiles its selection into a tiny [`Program`] (a conjunction
//! of per-column predicates), serializes it into the `filter` RPC, and the
//! service evaluates it against stored [`crate::pages`] blobs: pages whose
//! zone map proves no row can pass are skipped without decoding, the rest
//! are evaluated over a selection vector of live rows (one predicate at a
//! time, reading only live rows' float lanes), and only the id-column
//! values of surviving rows are returned. The ~99% of rows a HEP selection
//! rejects never cross the wire.
//!
//! Predicate semantics mirror the scalar cut style they compile from, NaN
//! included: `NotGt(b)` passes NaN (because `NaN > b` is false, so the
//! scalar code does not reject), while `InRange` fails NaN (because
//! `NaN >= lo` is false). Equality with the scalar loop is pinned by
//! property tests in `nova`.

use crate::error::YokanError;
use crate::pages::{for_each_int, lane_f32, lane_f64, PageColumn, PageReader, ZoneMap};

/// One predicate over one column. All predicates *pass* rows; the program
/// is their conjunction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// Pass iff `!(|v| > bound)` — fiducial containment; NaN passes.
    AbsNotGt {
        /// Column index.
        col: u16,
        /// Bound (compared in f64, exact for f32 columns).
        bound: f64,
    },
    /// Pass iff `!(v < bound)`; NaN passes.
    NotLt {
        /// Column index.
        col: u16,
        /// Bound.
        bound: f64,
    },
    /// Pass iff `!(v > bound)`; NaN passes.
    NotGt {
        /// Column index.
        col: u16,
        /// Bound.
        bound: f64,
    },
    /// Pass iff `v >= lo && v <= hi`; NaN fails.
    InRange {
        /// Column index.
        col: u16,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// Pass iff `lo <= v <= hi` on an integer column.
    UIntInRange {
        /// Column index.
        col: u16,
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
}

impl Predicate {
    fn col(&self) -> u16 {
        match *self {
            Predicate::AbsNotGt { col, .. }
            | Predicate::NotLt { col, .. }
            | Predicate::NotGt { col, .. }
            | Predicate::InRange { col, .. }
            | Predicate::UIntInRange { col, .. } => col,
        }
    }

    /// Evaluate over one f64-widened value (exact for f32 columns since the
    /// widening conversion preserves order, value and NaN-ness).
    ///
    /// The negated comparisons are load-bearing, not a style accident: NaN
    /// must PASS the `Not*` predicates (`!(NaN > b)` is true while
    /// `NaN <= b` is false), exactly mirroring the scalar cuts that reject
    /// via `>` / `<`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn pass_f64(&self, v: f64) -> bool {
        match *self {
            Predicate::AbsNotGt { bound, .. } => !(v.abs() > bound),
            Predicate::NotLt { bound, .. } => !(v < bound),
            Predicate::NotGt { bound, .. } => !(v > bound),
            Predicate::InRange { lo, hi, .. } => v >= lo && v <= hi,
            Predicate::UIntInRange { .. } => false,
        }
    }

    fn pass_u64(&self, v: u64) -> bool {
        match *self {
            Predicate::UIntInRange { lo, hi, .. } => v >= lo && v <= hi,
            // Float predicates over integer columns widen the value.
            _ => self.pass_f64(v as f64),
        }
    }

    /// Can any row of a page with this zone map pass? `false` means the
    /// whole page is provably rejected and need not be decoded.
    fn page_may_pass(&self, z: &ZoneMap, ty: u8) -> bool {
        let int = ty <= 1;
        match *self {
            // NaN passes these three, so a NaN-bearing page always may pass.
            Predicate::AbsNotGt { bound, .. } => {
                if z.has_nan {
                    return true;
                }
                // All-fail iff every |v| > bound: min > bound or max < -bound.
                !(z.min > bound || z.max < -bound)
            }
            Predicate::NotLt { bound, .. } => {
                if z.has_nan {
                    return true;
                }
                // min/max are NaN-free here (all-NaN pages set has_nan).
                z.max >= bound
            }
            Predicate::NotGt { bound, .. } => {
                if z.has_nan {
                    return true;
                }
                // min/max are NaN-free here (all-NaN pages set has_nan).
                z.min <= bound
            }
            // NaN fails InRange, so NaN cannot rescue a page. An all-NaN
            // float page has min=+inf/max=-inf which correctly fails.
            Predicate::InRange { lo, hi, .. } => !(z.max < lo || z.min > hi),
            Predicate::UIntInRange { lo, hi, .. } => {
                if int {
                    !(z.max_bits < lo || z.min_bits > hi)
                } else {
                    // Program/column mismatch; let row evaluation reject.
                    true
                }
            }
        }
    }

    /// Can every row of the page pass? `true` lets evaluation skip the
    /// column decode for this predicate entirely.
    fn page_all_pass(&self, z: &ZoneMap, ty: u8) -> bool {
        let int = ty <= 1;
        match *self {
            // NaN passes, so only the non-NaN extrema matter.
            Predicate::AbsNotGt { bound, .. } => z.max <= bound && z.min >= -bound,
            Predicate::NotLt { bound, .. } => z.min >= bound,
            Predicate::NotGt { bound, .. } => z.max <= bound,
            Predicate::InRange { lo, hi, .. } => {
                !z.has_nan && z.min >= lo && z.max <= hi && z.min <= z.max
            }
            Predicate::UIntInRange { lo, hi, .. } => int && z.min_bits >= lo && z.max_bits <= hi,
        }
    }
}

/// A conjunction of predicates plus the index of the id column whose
/// surviving values the filter returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Column whose values identify surviving rows (must be u64).
    pub id_column: u16,
    /// Predicates; a row survives iff all pass.
    pub predicates: Vec<Predicate>,
}

const OPC_ABS_NOT_GT: u8 = 0;
const OPC_NOT_LT: u8 = 1;
const OPC_NOT_GT: u8 = 2;
const OPC_IN_RANGE: u8 = 3;
const OPC_UINT_IN_RANGE: u8 = 4;

impl Program {
    /// Serialize to the wire format carried inside the filter RPC.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.predicates.len() * 19);
        out.extend_from_slice(&self.id_column.to_le_bytes());
        out.extend_from_slice(&(self.predicates.len() as u16).to_le_bytes());
        for p in &self.predicates {
            match *p {
                Predicate::AbsNotGt { col, bound } => {
                    out.push(OPC_ABS_NOT_GT);
                    out.extend_from_slice(&col.to_le_bytes());
                    out.extend_from_slice(&bound.to_le_bytes());
                    out.extend_from_slice(&0f64.to_le_bytes());
                }
                Predicate::NotLt { col, bound } => {
                    out.push(OPC_NOT_LT);
                    out.extend_from_slice(&col.to_le_bytes());
                    out.extend_from_slice(&bound.to_le_bytes());
                    out.extend_from_slice(&0f64.to_le_bytes());
                }
                Predicate::NotGt { col, bound } => {
                    out.push(OPC_NOT_GT);
                    out.extend_from_slice(&col.to_le_bytes());
                    out.extend_from_slice(&bound.to_le_bytes());
                    out.extend_from_slice(&0f64.to_le_bytes());
                }
                Predicate::InRange { col, lo, hi } => {
                    out.push(OPC_IN_RANGE);
                    out.extend_from_slice(&col.to_le_bytes());
                    out.extend_from_slice(&lo.to_le_bytes());
                    out.extend_from_slice(&hi.to_le_bytes());
                }
                Predicate::UIntInRange { col, lo, hi } => {
                    out.push(OPC_UINT_IN_RANGE);
                    out.extend_from_slice(&col.to_le_bytes());
                    out.extend_from_slice(&lo.to_le_bytes());
                    out.extend_from_slice(&hi.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parse the wire format; rejects unknown opcodes and truncation.
    pub fn from_bytes(data: &[u8]) -> Result<Program, YokanError> {
        let short = || YokanError::Protocol("truncated filter program".into());
        if data.len() < 4 {
            return Err(short());
        }
        let id_column = u16::from_le_bytes([data[0], data[1]]);
        let n = u16::from_le_bytes([data[2], data[3]]) as usize;
        let mut pos = 4usize;
        let mut predicates = Vec::with_capacity(n);
        for _ in 0..n {
            let opc = *data.get(pos).ok_or_else(short)?;
            pos += 1;
            let col_b = data.get(pos..pos + 2).ok_or_else(short)?;
            let col = u16::from_le_bytes([col_b[0], col_b[1]]);
            pos += 2;
            let a = data.get(pos..pos + 8).ok_or_else(short)?;
            let a = u64::from_le_bytes([a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]]);
            pos += 8;
            let b = data.get(pos..pos + 8).ok_or_else(short)?;
            let b = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
            pos += 8;
            predicates.push(match opc {
                OPC_ABS_NOT_GT => Predicate::AbsNotGt {
                    col,
                    bound: f64::from_bits(a),
                },
                OPC_NOT_LT => Predicate::NotLt {
                    col,
                    bound: f64::from_bits(a),
                },
                OPC_NOT_GT => Predicate::NotGt {
                    col,
                    bound: f64::from_bits(a),
                },
                OPC_IN_RANGE => Predicate::InRange {
                    col,
                    lo: f64::from_bits(a),
                    hi: f64::from_bits(b),
                },
                OPC_UINT_IN_RANGE => Predicate::UIntInRange { col, lo: a, hi: b },
                other => {
                    return Err(YokanError::Protocol(format!(
                        "unknown filter opcode {other}"
                    )))
                }
            });
        }
        if pos != data.len() {
            return Err(YokanError::Protocol(
                "trailing bytes in filter program".into(),
            ));
        }
        Ok(Program {
            id_column,
            predicates,
        })
    }
}

/// Outcome of evaluating one program against one columnar blob.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FilterOutput {
    /// Id-column values of surviving rows, in row order.
    pub ids: Vec<u64>,
    /// Rows in the blob.
    pub rows_in: u32,
    /// Pages whose columns were decoded and evaluated.
    pub pages_scanned: u32,
    /// Pages skipped entirely via zone maps.
    pub pages_skipped: u32,
}

/// What the kernel reuses from blob to blob: the column headers of the
/// page under evaluation, its live rows, and the output. One per request
/// lets a handler filter any number of blobs without allocating per blob.
#[derive(Debug, Default)]
pub(crate) struct FilterScratch {
    cols: Vec<PageColumn>,
    live: Vec<u32>,
    out: FilterOutput,
}

/// Evaluate `program` over an encoded columnar blob: zone-map pruning per
/// page, then a selection-vector pass over the surviving pages.
pub fn eval_program(blob: &[u8], program: &Program) -> Result<FilterOutput, YokanError> {
    let mut scratch = FilterScratch::default();
    eval_program_with(blob, program, &mut scratch)?;
    Ok(scratch.out)
}

/// The filter kernel. It walks the blob in place one page at a time:
/// a page some predicate's zone map rejects is skipped; otherwise the live
/// rows start as the whole page and each predicate the zone map cannot
/// settle keeps only the live rows it passes, reading float lanes of live
/// rows alone; once no row is live the page is done. The id column is
/// decoded only for a page with survivors, and only their ids are kept.
/// The output is overwritten in `scratch`, reusing its `ids` buffer.
pub(crate) fn eval_program_with<'s>(
    blob: &[u8],
    program: &Program,
    scratch: &'s mut FilterScratch,
) -> Result<&'s FilterOutput, YokanError> {
    let reader = PageReader::open(blob)?;
    let n_cols = reader.n_columns();
    let id_col = program.id_column as usize;
    if id_col >= n_cols {
        return Err(YokanError::Protocol("id column out of range".into()));
    }
    for p in &program.predicates {
        if p.col() as usize >= n_cols {
            return Err(YokanError::Protocol("predicate column out of range".into()));
        }
    }
    let FilterScratch { cols, live, out } = scratch;
    out.ids.clear();
    out.rows_in = reader.n_rows();
    out.pages_scanned = 0;
    out.pages_skipped = 0;
    let mut pages = reader.pages();
    while let Some(rows) = pages.next_page(cols)? {
        let zone_rejects = program.predicates.iter().any(|p| {
            let c = &cols[p.col() as usize];
            !p.page_may_pass(&c.zone(), c.ty)
        });
        if zone_rejects {
            out.pages_skipped += 1;
            continue;
        }
        out.pages_scanned += 1;
        live.clear();
        live.extend(0..rows as u32);
        for p in &program.predicates {
            let c = &cols[p.col() as usize];
            if !p.page_all_pass(&c.zone(), c.ty) {
                retain_passing(p, c.ty, reader.body(c), rows, live)?;
                if live.is_empty() {
                    break;
                }
            }
        }
        if live.is_empty() {
            continue;
        }
        let c = &cols[id_col];
        if c.ty != 0 {
            return Err(YokanError::Protocol("id column is not u64".into()));
        }
        let mut next = live.iter().copied().peekable();
        for_each_int(reader.body(c), rows, c.ty, |row, id| {
            if next.next_if_eq(&(row as u32)).is_some() {
                out.ids.push(id);
            }
        })?;
    }
    Ok(out)
}

/// Keep the `live` rows (ascending) of an `n`-row page body that pass `p`.
fn retain_passing(
    p: &Predicate,
    ty: u8,
    body: &[u8],
    n: usize,
    live: &mut Vec<u32>,
) -> Result<(), YokanError> {
    match ty {
        2 => live.retain(|&row| p.pass_f64(lane_f32(body, n, row as usize) as f64)),
        3 => live.retain(|&row| p.pass_f64(lane_f64(body, n, row as usize))),
        _ => {
            let (mut next, mut kept) = (0, 0);
            for_each_int(body, n, ty, |row, v| {
                if live.get(next) == Some(&(row as u32)) {
                    if p.pass_u64(v) {
                        live[kept] = row as u32;
                        kept += 1;
                    }
                    next += 1;
                }
            })?;
            live.truncate(kept);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::{encode_columns, oversized_blobs, Column};
    use proptest::prelude::*;

    fn blob() -> Vec<u8> {
        // ids, score(f32), count(u32)
        encode_columns(
            &[
                Column::U64(vec![100, 101, 102, 103, 104, 105]),
                Column::F32(vec![0.1, 0.9, f32::NAN, 0.95, 0.2, 0.99]),
                Column::U32(vec![5, 50, 60, 70, 2, 80]),
            ],
            2,
        )
    }

    #[test]
    fn program_round_trips() {
        let prog = Program {
            id_column: 0,
            predicates: vec![
                Predicate::AbsNotGt { col: 1, bound: 3.5 },
                Predicate::NotLt {
                    col: 1,
                    bound: 0.84,
                },
                Predicate::NotGt { col: 1, bound: 0.5 },
                Predicate::InRange {
                    col: 1,
                    lo: 1.0,
                    hi: 4.5,
                },
                Predicate::UIntInRange {
                    col: 2,
                    lo: 30,
                    hi: 500,
                },
            ],
        };
        let bytes = prog.to_bytes();
        assert_eq!(Program::from_bytes(&bytes).unwrap(), prog);
        assert!(Program::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(Program::from_bytes(&[9u8; 23]).is_err());
    }

    #[test]
    fn filter_selects_matching_ids() {
        let prog = Program {
            id_column: 0,
            predicates: vec![
                Predicate::NotLt {
                    col: 1,
                    bound: 0.84,
                }, // NaN passes
                Predicate::UIntInRange {
                    col: 2,
                    lo: 30,
                    hi: 500,
                },
            ],
        };
        let out = eval_program(&blob(), &prog).unwrap();
        // Rows: (0.1,5) fail both; (0.9,50) pass; (NaN,60) pass (NaN passes
        // NotLt); (0.95,70) pass; (0.2,2) fail; (0.99,80) pass.
        assert_eq!(out.ids, vec![101, 102, 103, 105]);
        assert_eq!(out.rows_in, 6);
        assert_eq!(out.pages_scanned + out.pages_skipped, 3);
    }

    #[test]
    fn zone_maps_skip_hopeless_pages() {
        // Page 0 rows (0.1, 0.9): max 0.9 < 10 → all fail NotLt(10)?  No:
        // use a bound far above every value so min/max prove all-fail.
        let prog = Program {
            id_column: 0,
            predicates: vec![Predicate::NotLt {
                col: 1,
                bound: 100.0,
            }],
        };
        let out = eval_program(&blob(), &prog).unwrap();
        // Page 1 holds a NaN (passes NotLt) → must be scanned; pages 0 and 2
        // are provably hopeless and skipped.
        assert_eq!(out.pages_skipped, 2);
        assert_eq!(out.pages_scanned, 1);
        assert_eq!(out.ids, vec![102]);
    }

    #[test]
    fn all_pass_pages_skip_column_decodes() {
        let prog = Program {
            id_column: 0,
            predicates: vec![Predicate::NotGt { col: 2, bound: 1e9 }],
        };
        let out = eval_program(&blob(), &prog).unwrap();
        assert_eq!(out.ids, vec![100, 101, 102, 103, 104, 105]);
    }

    #[test]
    fn bad_program_is_rejected() {
        let prog = Program {
            id_column: 9,
            predicates: vec![],
        };
        assert!(eval_program(&blob(), &prog).is_err());
        let prog = Program {
            id_column: 0,
            predicates: vec![Predicate::NotGt { col: 7, bound: 0.0 }],
        };
        assert!(eval_program(&blob(), &prog).is_err());
        assert!(eval_program(
            b"not a page blob",
            &Program {
                id_column: 0,
                predicates: vec![],
            }
        )
        .is_err());
    }

    #[test]
    fn oversized_counts_are_protocol_errors() {
        let prog = Program {
            id_column: 0,
            predicates: vec![Predicate::NotGt { col: 0, bound: 1.0 }],
        };
        for blob in oversized_blobs() {
            assert!(matches!(
                eval_program(&blob, &prog),
                Err(YokanError::Protocol(_))
            ));
        }
    }

    /// The kernel's result the slow way: decode every column of the blob,
    /// then evaluate every predicate on every row of each page no zone map
    /// rejects.
    fn reference(blob: &[u8], program: &Program) -> Result<FilterOutput, YokanError> {
        let reader = PageReader::open(blob)?;
        let n_cols = reader.n_columns();
        let id_col = program.id_column as usize;
        if id_col >= n_cols
            || program
                .predicates
                .iter()
                .any(|p| p.col() as usize >= n_cols)
        {
            return Err(YokanError::Protocol("column out of range".into()));
        }
        let columns = reader.decode_columns()?;
        let passes = |p: &Predicate, row: usize| match &columns[p.col() as usize] {
            Column::U64(v) => p.pass_u64(v[row]),
            Column::U32(v) => p.pass_u64(v[row] as u64),
            Column::F32(v) => p.pass_f64(v[row] as f64),
            Column::F64(v) => p.pass_f64(v[row]),
        };
        let mut out = FilterOutput {
            rows_in: reader.n_rows(),
            ..FilterOutput::default()
        };
        let (mut pages, mut headers, mut first_row) = (reader.pages(), Vec::new(), 0);
        while let Some(rows) = pages.next_page(&mut headers)? {
            let page = first_row..first_row + rows;
            first_row += rows;
            if program.predicates.iter().any(|p| {
                let c = &headers[p.col() as usize];
                !p.page_may_pass(&c.zone(), c.ty)
            }) {
                out.pages_skipped += 1;
                continue;
            }
            out.pages_scanned += 1;
            for row in page {
                if program.predicates.iter().all(|p| passes(p, row)) {
                    match &columns[id_col] {
                        Column::U64(ids) => out.ids.push(ids[row]),
                        _ => return Err(YokanError::Protocol("id column is not u64".into())),
                    }
                }
            }
        }
        Ok(out)
    }

    /// Columns u64, u32, f32, f64 of `n` rows; floats from a narrow range
    /// with NaN mixed in, so predicates and zone maps cut both ways.
    fn columns() -> impl Strategy<Value = (Vec<Column>, u32)> {
        let float = || prop_oneof![4 => -3.0f64..3.0, 1 => Just(f64::NAN)];
        (0usize..40, 1u32..9).prop_flat_map(move |(n, page_rows)| {
            (
                proptest::collection::vec(0u64..1000, n),
                proptest::collection::vec(0u32..100, n),
                proptest::collection::vec(float(), n),
                proptest::collection::vec(float(), n),
            )
                .prop_map(move |(a, b, c, d)| {
                    let cols = vec![
                        Column::U64(a),
                        Column::U32(b),
                        Column::F32(c.into_iter().map(|x| x as f32).collect()),
                        Column::F64(d),
                    ];
                    (cols, page_rows)
                })
        })
    }

    fn predicate() -> impl Strategy<Value = Predicate> {
        (
            0u16..4,
            0u8..5,
            -3.0f64..3.0,
            0.0f64..3.0,
            0u64..100,
            0u64..60,
        )
            .prop_map(|(col, kind, x, width, lo, span)| match kind {
                0 => Predicate::AbsNotGt { col, bound: width },
                1 => Predicate::NotLt { col, bound: x },
                2 => Predicate::NotGt { col, bound: x },
                3 => Predicate::InRange {
                    col,
                    lo: x,
                    hi: x + width,
                },
                _ => Predicate::UIntInRange {
                    col,
                    lo,
                    hi: lo + span,
                },
            })
    }

    fn program() -> impl Strategy<Value = Program> {
        // Mostly the u64 column as ids; sometimes the u32 one, which must
        // fail once a row survives.
        let id = prop_oneof![6 => Just(0u16), 1 => Just(1u16)];
        (id, proptest::collection::vec(predicate(), 0..4)).prop_map(|(id_column, predicates)| {
            Program {
                id_column,
                predicates,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

        #[test]
        fn kernel_equals_decode_every_column_reference(
            (cols, page_rows) in columns(),
            prog in program(),
        ) {
            let blob = encode_columns(&cols, page_rows);
            let want = reference(&blob, &prog);
            // One scratch across two blobs, as a handler reuses it.
            let mut scratch = FilterScratch::default();
            for _ in 0..2 {
                let got = eval_program_with(&blob, &prog, &mut scratch).ok().cloned();
                prop_assert_eq!(&got, &want.as_ref().ok().cloned());
            }
        }
    }

    #[test]
    fn the_property_reaches_every_page_outcome() {
        // The generators above must produce zone skips, all-pass pages,
        // scanned pages with and without survivors, and zero-row blobs.
        let (mut skipped, mut all_pass, mut empty, mut id_errors) = (0, 0, 0, 0);
        let (cols_s, prog_s) = (columns(), program());
        for case in 0..1024 {
            let mut rng = proptest::case_rng(case);
            let (cols, page_rows) = cols_s.sample(&mut rng);
            let prog = prog_s.sample(&mut rng);
            let blob = encode_columns(&cols, page_rows);
            match reference(&blob, &prog) {
                Ok(out) => {
                    skipped += out.pages_skipped;
                    empty += (out.rows_in == 0) as u32;
                    all_pass += (out.rows_in > 0 && out.ids.len() == out.rows_in as usize) as u32;
                }
                Err(_) => id_errors += 1,
            }
        }
        assert!(skipped > 0 && all_pass > 0 && empty > 0 && id_errors > 0);
    }

    #[test]
    fn zero_row_blobs_and_non_u64_ids() {
        let zero = encode_columns(&[Column::U64(Vec::new()), Column::F32(Vec::new())], 4);
        let prog = Program {
            id_column: 0,
            predicates: vec![Predicate::NotLt { col: 1, bound: 0.0 }],
        };
        assert_eq!(eval_program(&zero, &prog).unwrap(), FilterOutput::default());
        let prog = Program {
            id_column: 2,
            predicates: vec![],
        };
        assert!(matches!(
            eval_program(&blob(), &prog),
            Err(YokanError::Protocol(_))
        ));
    }
}
