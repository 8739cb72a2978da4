//! Compressed columnar value pages.
//!
//! HEP products were historically stored as opaque serialized blobs, which
//! forces every selection workload to ship the full product across the wire
//! before cutting ~99% of rows client-side. This module defines a
//! *self-describing columnar page container* the storage tier itself can
//! understand: a batch of rows encoded as per-column pages with lightweight
//! compression and per-page min/max zone maps, so a server-side predicate
//! (see [`crate::filter`]) can skip whole pages and return only surviving
//! rows.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "CPG1" | n_columns u16 | n_rows u32 | page_rows u32
//! per column:  type u8 (0=u64, 1=u32, 2=f32, 3=f64)
//! per page (ceil(n_rows / page_rows) of them):
//!   per column: min f64|u64 (8) | max (8) | flags u8 | enc_len u32 | enc
//! ```
//!
//! Codecs:
//! * `u64` / `u32` columns — zigzag delta + varint (ids and counts are
//!   near-sorted or small, so deltas are tiny);
//! * `f32` / `f64` columns — byte shuffle (transpose the bytes of the lane
//!   so same-significance bytes are adjacent). Both are exact: every column
//!   round-trips bit-identically, NaN included.

use crate::error::YokanError;

/// Magic bytes identifying a columnar page container.
pub const PAGE_MAGIC: [u8; 4] = *b"CPG1";

/// Default rows per page. Small enough that zone maps prune aggressively on
/// the rare-signal HEP selection, large enough to amortize page headers.
pub const DEFAULT_PAGE_ROWS: u32 = 1024;

/// Page flag: the page holds at least one NaN (float columns only). Zone
/// pruning must be conservative for predicates NaN passes.
const FLAG_HAS_NAN: u8 = 1;

/// One decoded column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Unsigned 64-bit values (ids).
    U64(Vec<u64>),
    /// Unsigned 32-bit values (counts).
    U32(Vec<u32>),
    /// 32-bit floats (scores, energies).
    F32(Vec<f32>),
    /// 64-bit floats (times).
    F64(Vec<f64>),
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::U64(v) => v.len(),
            Column::U32(v) => v.len(),
            Column::F32(v) => v.len(),
            Column::F64(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn type_tag(&self) -> u8 {
        match self {
            Column::U64(_) => 0,
            Column::U32(_) => 1,
            Column::F32(_) => 2,
            Column::F64(_) => 3,
        }
    }
}

/// Zone map of one column within one page: min/max over the page's values
/// (floats: over non-NaN values; `has_nan` records the rest).
#[derive(Debug, Clone, Copy)]
pub struct ZoneMap {
    /// Minimum value, widened to f64 (u64 columns: exact only up to 2^53,
    /// which covers ids/counts; the raw bits are also kept).
    pub min: f64,
    /// Maximum value, widened like `min`.
    pub max: f64,
    /// Raw minimum bits for integer columns.
    pub min_bits: u64,
    /// Raw maximum bits for integer columns.
    pub max_bits: u64,
    /// Whether the page holds at least one NaN.
    pub has_nan: bool,
}

// ---------------------------------------------------------------- varint

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, YokanError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data
            .get(*pos)
            .ok_or_else(|| YokanError::Protocol("truncated varint".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(YokanError::Protocol("varint overflow".into()));
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------- codecs

/// Delta + zigzag + varint over a u64 slice.
fn encode_delta_varint(values: &[u64], out: &mut Vec<u8>) {
    let mut prev = 0u64;
    for &v in values {
        put_varint(out, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
}

/// Byte-shuffle `width`-byte lanes: all first bytes, then all second bytes,
/// ... Same-significance bytes (exponents, sign bits) cluster, which is what
/// a downstream general-purpose compressor or the wire itself benefits from,
/// and the transform is free to reverse.
fn shuffle_bytes(raw: &[u8], width: usize, out: &mut Vec<u8>) {
    let n = raw.len() / width;
    for byte in 0..width {
        for row in 0..n {
            out.push(raw[row * width + byte]);
        }
    }
}

// ---------------------------------------------------------------- encode

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_page_column(col: &Column, lo: usize, hi: usize, out: &mut Vec<u8>) {
    // Zone map first.
    let (min_bits, max_bits, has_nan) = match col {
        Column::U64(v) => {
            let s = &v[lo..hi];
            let min = s.iter().copied().min().unwrap_or(0);
            let max = s.iter().copied().max().unwrap_or(0);
            (min, max, false)
        }
        Column::U32(v) => {
            let s = &v[lo..hi];
            let min = s.iter().copied().min().unwrap_or(0) as u64;
            let max = s.iter().copied().max().unwrap_or(0) as u64;
            (min, max, false)
        }
        Column::F32(v) => {
            let s = &v[lo..hi];
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut nan = false;
            for &x in s {
                if x.is_nan() {
                    nan = true;
                } else {
                    min = min.min(x as f64);
                    max = max.max(x as f64);
                }
            }
            (min.to_bits(), max.to_bits(), nan)
        }
        Column::F64(v) => {
            let s = &v[lo..hi];
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut nan = false;
            for &x in s {
                if x.is_nan() {
                    nan = true;
                } else {
                    min = min.min(x);
                    max = max.max(x);
                }
            }
            (min.to_bits(), max.to_bits(), nan)
        }
    };
    put_u64(out, min_bits);
    put_u64(out, max_bits);
    out.push(if has_nan { FLAG_HAS_NAN } else { 0 });
    // Encoded body.
    let mut body = Vec::new();
    match col {
        Column::U64(v) => encode_delta_varint(&v[lo..hi], &mut body),
        Column::U32(v) => {
            // Widen through a scratch; counts are tiny so the varint wins.
            let widened: Vec<u64> = v[lo..hi].iter().map(|&x| x as u64).collect();
            encode_delta_varint(&widened, &mut body);
        }
        Column::F32(v) => {
            let mut raw = Vec::with_capacity((hi - lo) * 4);
            for &x in &v[lo..hi] {
                raw.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            shuffle_bytes(&raw, 4, &mut body);
        }
        Column::F64(v) => {
            let mut raw = Vec::with_capacity((hi - lo) * 8);
            for &x in &v[lo..hi] {
                raw.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            shuffle_bytes(&raw, 8, &mut body);
        }
    }
    put_u32(out, body.len() as u32);
    out.extend_from_slice(&body);
}

/// Encode `columns` (all the same length) into one self-describing blob
/// with `page_rows` rows per page.
///
/// # Panics
///
/// Panics if the columns disagree on length or `page_rows` is zero —
/// programming errors at the encoding site, not data errors.
pub fn encode_columns(columns: &[Column], page_rows: u32) -> Vec<u8> {
    assert!(page_rows > 0, "page_rows must be positive");
    assert!(!columns.is_empty(), "need at least one column");
    let n_rows = columns[0].len();
    for c in columns {
        assert_eq!(c.len(), n_rows, "columns must agree on row count");
    }
    let mut out = Vec::with_capacity(64 + n_rows * columns.len() * 4);
    out.extend_from_slice(&PAGE_MAGIC);
    put_u16(&mut out, columns.len() as u16);
    put_u32(&mut out, n_rows as u32);
    put_u32(&mut out, page_rows);
    for c in columns {
        out.push(c.type_tag());
    }
    let mut lo = 0usize;
    while lo < n_rows {
        let hi = (lo + page_rows as usize).min(n_rows);
        for c in columns {
            encode_page_column(c, lo, hi, &mut out);
        }
        lo = hi;
    }
    out
}

// ---------------------------------------------------------------- decode

/// Bytes one column header of one page takes: min, max, flags, body length.
const COLUMN_HEADER_LEN: usize = 8 + 8 + 1 + 4;

/// A columnar blob opened in place: the header is parsed and checked, the
/// pages are not. `PageReader::pages` walks them one at a time into
/// caller-owned scratch, so reading a blob builds no page directory and
/// sizes nothing from a count the blob states before bytes back it.
#[derive(Debug, Clone, Copy)]
pub struct PageReader<'a> {
    data: &'a [u8],
    types: &'a [u8],
    n_rows: u32,
    page_rows: u32,
    first_page: usize,
}

/// One column of one page, as [`Pages::next_page`] parses it: the type,
/// the raw zone map and where the body lies in the blob. The body's length
/// is already checked against the page's rows: at least one byte a row for
/// a varint column, exactly 4 or 8 for an f32 or f64 one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageColumn {
    /// Type tag (0=u64, 1=u32, 2=f32, 3=f64).
    pub(crate) ty: u8,
    has_nan: bool,
    min_bits: u64,
    max_bits: u64,
    start: usize,
    end: usize,
}

impl PageColumn {
    /// Zone map over the page's values of this column.
    pub(crate) fn zone(&self) -> ZoneMap {
        let (min, max) = match self.ty {
            0 | 1 => (self.min_bits as f64, self.max_bits as f64),
            _ => (f64::from_bits(self.min_bits), f64::from_bits(self.max_bits)),
        };
        ZoneMap {
            min,
            max,
            min_bits: self.min_bits,
            max_bits: self.max_bits,
            has_nan: self.has_nan,
        }
    }
}

/// A walk over the pages of a [`PageReader`], one page header at a time.
pub(crate) struct Pages<'a> {
    reader: PageReader<'a>,
    pos: usize,
    /// Rows in the pages already walked.
    row: u32,
}

fn get_u16_at(data: &[u8], pos: &mut usize) -> Result<u16, YokanError> {
    let b = data
        .get(*pos..*pos + 2)
        .ok_or_else(|| YokanError::Protocol("truncated page header".into()))?;
    *pos += 2;
    Ok(u16::from_le_bytes([b[0], b[1]]))
}

fn get_u32_at(data: &[u8], pos: &mut usize) -> Result<u32, YokanError> {
    let b = data
        .get(*pos..*pos + 4)
        .ok_or_else(|| YokanError::Protocol("truncated page header".into()))?;
    *pos += 4;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Whether a value blob looks like a columnar page container.
pub fn is_columnar(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[0..4] == PAGE_MAGIC
}

impl<'a> PageReader<'a> {
    /// Parse and check the blob's header: magic, geometry and column types.
    /// The pages are checked as they are walked.
    pub fn open(data: &'a [u8]) -> Result<PageReader<'a>, YokanError> {
        if !is_columnar(data) {
            return Err(YokanError::Protocol("not a columnar page blob".into()));
        }
        let mut pos = 4usize;
        let n_columns = get_u16_at(data, &mut pos)? as usize;
        let n_rows = get_u32_at(data, &mut pos)?;
        let page_rows = get_u32_at(data, &mut pos)?;
        if n_columns == 0 || page_rows == 0 {
            return Err(YokanError::Protocol("empty column/page geometry".into()));
        }
        let types = data
            .get(pos..pos + n_columns)
            .ok_or_else(|| YokanError::Protocol("truncated column types".into()))?;
        if types.iter().any(|&t| t > 3) {
            return Err(YokanError::Protocol("unknown column type".into()));
        }
        Ok(PageReader {
            data,
            types,
            n_rows,
            page_rows,
            first_page: pos + n_columns,
        })
    }

    /// Total rows across all pages.
    pub fn n_rows(&self) -> u32 {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_columns(&self) -> usize {
        self.types.len()
    }

    /// Walk the pages from the first.
    pub(crate) fn pages(&self) -> Pages<'a> {
        Pages {
            reader: *self,
            pos: self.first_page,
            row: 0,
        }
    }

    /// The encoded body of a column parsed from this blob.
    pub(crate) fn body(&self, column: &PageColumn) -> &'a [u8] {
        &self.data[column.start..column.end]
    }

    /// Decode every column across all pages, in one walk.
    pub fn decode_columns(&self) -> Result<Vec<Column>, YokanError> {
        let mut out: Vec<Column> = self
            .types
            .iter()
            .map(|&ty| match ty {
                0 => Column::U64(Vec::new()),
                1 => Column::U32(Vec::new()),
                2 => Column::F32(Vec::new()),
                _ => Column::F64(Vec::new()),
            })
            .collect();
        let mut cols = Vec::with_capacity(self.types.len());
        let mut pages = self.pages();
        while let Some(n) = pages.next_page(&mut cols)? {
            for (c, col) in cols.iter().zip(&mut out) {
                let body = self.body(c);
                match col {
                    Column::U64(v) => for_each_int(body, n, c.ty, |_, x| v.push(x))?,
                    Column::U32(v) => for_each_int(body, n, c.ty, |_, x| v.push(x as u32))?,
                    Column::F32(v) => v.extend((0..n).map(|row| lane_f32(body, n, row))),
                    Column::F64(v) => v.extend((0..n).map(|row| lane_f64(body, n, row))),
                }
            }
        }
        Ok(out)
    }
}

impl Pages<'_> {
    /// Parse the next page's column headers into `cols` (cleared first) and
    /// return its row count; `None` once every page is walked and no byte
    /// trails the last one. Each header and body must lie inside the blob,
    /// and each body's length must fit the page's rows.
    pub(crate) fn next_page(
        &mut self,
        cols: &mut Vec<PageColumn>,
    ) -> Result<Option<usize>, YokanError> {
        let r = self.reader;
        let data = r.data;
        cols.clear();
        if self.row == r.n_rows {
            if self.pos != data.len() {
                return Err(YokanError::Protocol("trailing bytes after pages".into()));
            }
            return Ok(None);
        }
        let rows = (r.n_rows - self.row).min(r.page_rows);
        let n = rows as usize;
        let mut pos = self.pos;
        for &ty in r.types {
            let h = data
                .get(pos..pos + COLUMN_HEADER_LEN)
                .ok_or_else(|| YokanError::Protocol("truncated page header".into()))?;
            let word = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().expect("8 bytes"));
            let len = u32::from_le_bytes(h[17..21].try_into().expect("4 bytes")) as usize;
            pos += COLUMN_HEADER_LEN;
            if data.len() - pos < len {
                return Err(YokanError::Protocol("truncated page body".into()));
            }
            let fits = match ty {
                0 | 1 => len >= n,
                2 => n.checked_mul(4) == Some(len),
                _ => n.checked_mul(8) == Some(len),
            };
            if !fits {
                return Err(YokanError::Protocol(format!(
                    "{len}-byte type-{ty} page body for {n} rows"
                )));
            }
            cols.push(PageColumn {
                ty,
                has_nan: h[16] & FLAG_HAS_NAN != 0,
                min_bits: word(0),
                max_bits: word(8),
                start: pos,
                end: pos + len,
            });
            pos += len;
        }
        self.pos = pos;
        self.row += rows;
        Ok(Some(n))
    }
}

/// Visit the `n` values of an integer page body in row order. Checks what
/// a full decode checks, whichever rows the caller wants: no truncated or
/// overlong varint, no byte after the last one, and for a u32 column (type
/// 1) no value past `u32::MAX`.
pub(crate) fn for_each_int(
    body: &[u8],
    n: usize,
    ty: u8,
    mut visit: impl FnMut(usize, u64),
) -> Result<(), YokanError> {
    let mut pos = 0usize;
    let mut value = 0u64;
    for row in 0..n {
        value = value.wrapping_add(unzigzag(get_varint(body, &mut pos)?) as u64);
        if ty == 1 && value > u32::MAX as u64 {
            return Err(YokanError::Protocol("u32 column value out of range".into()));
        }
        visit(row, value);
    }
    if pos != body.len() {
        return Err(YokanError::Protocol("trailing bytes in varint page".into()));
    }
    Ok(())
}

/// Row `row` of a shuffled f32 body of `n` rows: its bytes lie `n` apart.
pub(crate) fn lane_f32(body: &[u8], n: usize, row: usize) -> f32 {
    f32::from_bits(u32::from_le_bytes(std::array::from_fn(|b| {
        body[b * n + row]
    })))
}

/// Row `row` of a shuffled f64 body of `n` rows: its bytes lie `n` apart.
pub(crate) fn lane_f64(body: &[u8], n: usize, row: usize) -> f64 {
    f64::from_bits(u64::from_le_bytes(std::array::from_fn(|b| {
        body[b * n + row]
    })))
}

/// A 15-byte value announcing `u32::MAX` one-row pages of one u64
/// column, and a 37-byte one announcing one `u32::MAX`-row page with a
/// 1-byte body: neither may be trusted for a size.
#[cfg(test)]
pub(crate) fn oversized_blobs() -> [Vec<u8>; 2] {
    let header = |n_rows: u32, page_rows: u32| {
        let mut b = PAGE_MAGIC.to_vec();
        b.extend_from_slice(&1u16.to_le_bytes());
        b.extend_from_slice(&n_rows.to_le_bytes());
        b.extend_from_slice(&page_rows.to_le_bytes());
        b.push(0);
        b
    };
    let many_pages = header(u32::MAX, 1);
    let mut huge_page = header(u32::MAX, u32::MAX);
    huge_page.extend_from_slice(&[0u8; 17]);
    huge_page.extend_from_slice(&1u32.to_le_bytes());
    huge_page.push(0);
    assert_eq!((many_pages.len(), huge_page.len()), (15, 37));
    [many_pages, huge_page]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let cols = vec![
            Column::U64(vec![5, 6, 7, 100, 3]),
            Column::U32(vec![10, 0, u32::MAX, 7, 8]),
            Column::F32(vec![1.5, -0.0, f32::NAN, f32::INFINITY, 3.25]),
            Column::F64(vec![1e300, -2.5, f64::NAN, 0.0, 218_000.0]),
        ];
        for page_rows in [1u32, 2, 4, 1024] {
            let blob = encode_columns(&cols, page_rows);
            let r = PageReader::open(&blob).unwrap();
            assert_eq!(r.n_rows(), 5);
            assert_eq!(r.n_columns(), 4);
            for (got, c) in r.decode_columns().unwrap().iter().zip(&cols) {
                // NaN != NaN, so compare bits.
                match (got, c) {
                    (Column::F32(a), Column::F32(b)) => {
                        let a: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
                        let b: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(a, b);
                    }
                    (Column::F64(a), Column::F64(b)) => {
                        let a: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
                        let b: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(a, b);
                    }
                    (a, b) => assert_eq!(a, b),
                }
            }
        }
    }

    #[test]
    fn zero_rows_round_trip() {
        let cols = vec![Column::U64(Vec::new()), Column::F32(Vec::new())];
        let blob = encode_columns(&cols, 64);
        let r = PageReader::open(&blob).unwrap();
        assert_eq!(r.n_rows(), 0);
        assert_eq!(r.pages().next_page(&mut Vec::new()).unwrap(), None);
        assert_eq!(
            r.decode_columns().unwrap(),
            vec![Column::U64(Vec::new()), Column::F32(Vec::new())]
        );
    }

    #[test]
    fn zone_maps_cover_pages() {
        let cols = vec![Column::F32(vec![1.0, 5.0, -3.0, f32::NAN, 2.0, 9.0])];
        let blob = encode_columns(&cols, 3);
        let r = PageReader::open(&blob).unwrap();
        let mut pages = r.pages();
        let mut cols = Vec::new();
        assert_eq!(pages.next_page(&mut cols).unwrap(), Some(3));
        let z0 = cols[0].zone();
        assert_eq!((z0.min, z0.max, z0.has_nan), (-3.0, 5.0, false));
        assert_eq!(pages.next_page(&mut cols).unwrap(), Some(3));
        let z1 = cols[0].zone();
        assert_eq!((z1.min, z1.max, z1.has_nan), (2.0, 9.0, true));
        assert_eq!(pages.next_page(&mut cols).unwrap(), None);
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let cols = vec![Column::U64(vec![1, 2, 3])];
        let blob = encode_columns(&cols, 2);
        for cut in [3usize, 8, blob.len() - 1] {
            let opened = PageReader::open(&blob[..cut]);
            assert!(opened.and_then(|r| r.decode_columns()).is_err());
        }
        let mut long = blob.clone();
        long.push(0);
        let r = PageReader::open(&long).unwrap();
        assert!(r.decode_columns().is_err(), "a trailing byte was accepted");
        assert!(!is_columnar(b"blob"));
        assert!(is_columnar(&blob));
    }

    #[test]
    fn delta_varint_compresses_sorted_ids() {
        let ids: Vec<u64> = (0..4096u64).map(|i| 1_000_000 + i).collect();
        let blob = encode_columns(&[Column::U64(ids)], 1024);
        // 4096 near-sequential u64s should land far below 8 bytes each.
        assert!(blob.len() < 4096 * 2, "blob {} bytes", blob.len());
    }

    #[test]
    fn stated_counts_never_size_a_decode() {
        for blob in oversized_blobs() {
            let r = PageReader::open(&blob).unwrap();
            assert!(matches!(r.decode_columns(), Err(YokanError::Protocol(_))));
        }
    }

    #[test]
    fn body_lengths_must_fit_the_rows() {
        // One f32 column of 2 rows: the body must be exactly 8 bytes.
        let blob = encode_columns(&[Column::F32(vec![1.0, 2.0])], 2);
        let len_at = blob.len() - 8 - 4;
        let mut short = blob[..blob.len() - 1].to_vec();
        short[len_at..len_at + 4].copy_from_slice(&7u32.to_le_bytes());
        let r = PageReader::open(&short).unwrap();
        assert!(r.decode_columns().is_err());
    }
}
