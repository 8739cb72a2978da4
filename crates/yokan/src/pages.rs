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

fn decode_delta_varint(data: &[u8], n: usize, out: &mut Vec<u64>) -> Result<(), YokanError> {
    let mut pos = 0usize;
    let mut prev = 0u64;
    for _ in 0..n {
        let d = unzigzag(get_varint(data, &mut pos)?);
        prev = prev.wrapping_add(d as u64);
        out.push(prev);
    }
    if pos != data.len() {
        return Err(YokanError::Protocol("trailing bytes in varint page".into()));
    }
    Ok(())
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

fn unshuffle_bytes(data: &[u8], width: usize) -> Vec<u8> {
    let n = data.len() / width;
    let mut out = vec![0u8; data.len()];
    for byte in 0..width {
        for row in 0..n {
            out[row * width + byte] = data[byte * n + row];
        }
    }
    out
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

/// A lazily-decodable view over an encoded blob: header parsed, page
/// directory resolved, column bytes untouched until asked for.
pub struct PageReader<'a> {
    data: &'a [u8],
    types: Vec<u8>,
    n_rows: u32,
    page_rows: u32,
    /// Per page, per column: (zone map, body offset, body length).
    directory: Vec<Vec<(ZoneMap, usize, usize)>>,
    /// Per page: starting row.
    page_starts: Vec<u32>,
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

fn get_u64_at(data: &[u8], pos: &mut usize) -> Result<u64, YokanError> {
    let b = data
        .get(*pos..*pos + 8)
        .ok_or_else(|| YokanError::Protocol("truncated page header".into()))?;
    *pos += 8;
    Ok(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// Whether a value blob looks like a columnar page container.
pub fn is_columnar(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[0..4] == PAGE_MAGIC
}

impl<'a> PageReader<'a> {
    /// Parse the header and page directory of an encoded blob.
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
            .ok_or_else(|| YokanError::Protocol("truncated column types".into()))?
            .to_vec();
        pos += n_columns;
        if types.iter().any(|&t| t > 3) {
            return Err(YokanError::Protocol("unknown column type".into()));
        }
        let n_pages = (n_rows as usize).div_ceil(page_rows as usize);
        let mut directory = Vec::with_capacity(n_pages);
        let mut page_starts = Vec::with_capacity(n_pages);
        for page in 0..n_pages {
            page_starts.push(page as u32 * page_rows);
            let mut cols = Vec::with_capacity(n_columns);
            for &ty in &types {
                let min_bits = get_u64_at(data, &mut pos)?;
                let max_bits = get_u64_at(data, &mut pos)?;
                let flags = *data
                    .get(pos)
                    .ok_or_else(|| YokanError::Protocol("truncated page flags".into()))?;
                pos += 1;
                let len = get_u32_at(data, &mut pos)? as usize;
                if data.len() < pos + len {
                    return Err(YokanError::Protocol("truncated page body".into()));
                }
                let (min, max) = match ty {
                    0 | 1 => (min_bits as f64, max_bits as f64),
                    _ => (f64::from_bits(min_bits), f64::from_bits(max_bits)),
                };
                cols.push((
                    ZoneMap {
                        min,
                        max,
                        min_bits,
                        max_bits,
                        has_nan: flags & FLAG_HAS_NAN != 0,
                    },
                    pos,
                    len,
                ));
                pos += len;
            }
            directory.push(cols);
        }
        if pos != data.len() {
            return Err(YokanError::Protocol("trailing bytes after pages".into()));
        }
        Ok(PageReader {
            data,
            types,
            n_rows,
            page_rows,
            directory,
            page_starts,
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

    /// Number of pages.
    pub fn n_pages(&self) -> usize {
        self.directory.len()
    }

    /// Rows in page `page`.
    pub fn page_len(&self, page: usize) -> usize {
        let start = self.page_starts[page] as usize;
        ((start + self.page_rows as usize).min(self.n_rows as usize)) - start
    }

    /// Zone map of `column` within `page`.
    pub fn zone(&self, page: usize, column: usize) -> &ZoneMap {
        &self.directory[page][column].0
    }

    /// Type tag of `column` (0=u64, 1=u32, 2=f32, 3=f64).
    pub fn column_type(&self, column: usize) -> u8 {
        self.types[column]
    }

    /// Decode `column` of `page` into a freshly allocated [`Column`].
    pub fn decode_page_column(&self, page: usize, column: usize) -> Result<Column, YokanError> {
        let (_, off, len) = self.directory[page][column];
        let body = &self.data[off..off + len];
        let n = self.page_len(page);
        match self.types[column] {
            0 => {
                let mut out = Vec::with_capacity(n);
                decode_delta_varint(body, n, &mut out)?;
                Ok(Column::U64(out))
            }
            1 => {
                let mut wide = Vec::with_capacity(n);
                decode_delta_varint(body, n, &mut wide)?;
                let mut out = Vec::with_capacity(n);
                for v in wide {
                    out.push(u32::try_from(v).map_err(|_| {
                        YokanError::Protocol("u32 column value out of range".into())
                    })?);
                }
                Ok(Column::U32(out))
            }
            2 => {
                if body.len() != n * 4 {
                    return Err(YokanError::Protocol("bad f32 page length".into()));
                }
                let raw = unshuffle_bytes(body, 4);
                let out = raw
                    .chunks_exact(4)
                    .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
                    .collect();
                Ok(Column::F32(out))
            }
            3 => {
                if body.len() != n * 8 {
                    return Err(YokanError::Protocol("bad f64 page length".into()));
                }
                let raw = unshuffle_bytes(body, 8);
                let out = raw
                    .chunks_exact(8)
                    .map(|c| {
                        f64::from_bits(u64::from_le_bytes([
                            c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                        ]))
                    })
                    .collect();
                Ok(Column::F64(out))
            }
            t => Err(YokanError::Protocol(format!("unknown column type {t}"))),
        }
    }

    /// Decode a whole column across all pages.
    pub fn decode_column(&self, column: usize) -> Result<Column, YokanError> {
        let mut acc: Option<Column> = None;
        for page in 0..self.n_pages() {
            let part = self.decode_page_column(page, column)?;
            acc = Some(match (acc, part) {
                (None, p) => p,
                (Some(Column::U64(mut a)), Column::U64(b)) => {
                    a.extend(b);
                    Column::U64(a)
                }
                (Some(Column::U32(mut a)), Column::U32(b)) => {
                    a.extend(b);
                    Column::U32(a)
                }
                (Some(Column::F32(mut a)), Column::F32(b)) => {
                    a.extend(b);
                    Column::F32(a)
                }
                (Some(Column::F64(mut a)), Column::F64(b)) => {
                    a.extend(b);
                    Column::F64(a)
                }
                _ => unreachable!("column type is fixed per column"),
            });
        }
        acc.ok_or_else(|| YokanError::Protocol("blob has no pages".into()))
            .or_else(|e| {
                // Zero-row blobs have no pages but a valid empty column.
                if self.n_rows == 0 {
                    Ok(match self.types[column] {
                        0 => Column::U64(Vec::new()),
                        1 => Column::U32(Vec::new()),
                        2 => Column::F32(Vec::new()),
                        _ => Column::F64(Vec::new()),
                    })
                } else {
                    Err(e)
                }
            })
    }
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
            for (i, c) in cols.iter().enumerate() {
                let got = r.decode_column(i).unwrap();
                // NaN != NaN, so compare bits.
                match (&got, c) {
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
        assert_eq!(r.n_pages(), 0);
        assert_eq!(r.decode_column(0).unwrap(), Column::U64(Vec::new()));
        assert_eq!(r.decode_column(1).unwrap(), Column::F32(Vec::new()));
    }

    #[test]
    fn zone_maps_cover_pages() {
        let cols = vec![Column::F32(vec![1.0, 5.0, -3.0, f32::NAN, 2.0, 9.0])];
        let blob = encode_columns(&cols, 3);
        let r = PageReader::open(&blob).unwrap();
        assert_eq!(r.n_pages(), 2);
        let z0 = r.zone(0, 0);
        assert_eq!((z0.min, z0.max, z0.has_nan), (-3.0, 5.0, false));
        let z1 = r.zone(1, 0);
        assert_eq!((z1.min, z1.max, z1.has_nan), (2.0, 9.0, true));
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let cols = vec![Column::U64(vec![1, 2, 3])];
        let blob = encode_columns(&cols, 2);
        for cut in [3usize, 8, blob.len() - 1] {
            assert!(PageReader::open(&blob[..cut]).is_err());
        }
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
}
