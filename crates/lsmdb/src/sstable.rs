//! Sorted-string tables: immutable on-disk runs of sorted key/value entries.
//!
//! Layout:
//!
//! ```text
//! [ entries... ][ sparse index ][ bloom filter ][ footer ]
//! ```
//!
//! * entries — `key_len u32 | kind u8 | val_len u32 | key | value`, sorted
//!   by key, possibly containing tombstones;
//! * sparse index — every `INDEX_INTERVAL`-th key with its file offset, for
//!   binary search;
//! * bloom filter — all keys, consulted before any disk access;
//! * footer — offsets/lengths of the two metadata sections, entry count,
//!   min/max keys, and a magic number, all checksummed.
//!
//! Readers keep the index and bloom filter in memory. A point lookup that
//! passes the bloom filter binary-searches the sparse index for the one
//! span of at most `INDEX_INTERVAL` entries that can hold the key, fetches
//! that span with a single positioned read (`pread`), parses the entries in
//! place and copies out only the matching value. Range cursors, which
//! serve scans and compaction, stream the data section through the same
//! shared file handle in 8 KiB positioned reads, decode each entry in
//! place and lend out its key and value without copying them. No reader
//! holds a file cursor, so lookups and cursors on one table run
//! concurrently. The handle comes from the process's bounded set of open
//! table files ([`crate::OPEN_TABLE_FILE_LIMIT`]), not from the reader.
//! This is the RocksDB cost structure: index and filter pinned, data read
//! from disk by offset through a table cache, with an index span in the
//! role of a data block.

use crate::bloom::BloomFilter;
use crate::crc32::crc32;
use crate::memtable::Value;
use crate::table_files::TableFile;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: u64 = 0x4845_504E_4F53_5354; // "HEPNOSST"
const INDEX_INTERVAL: usize = 16;
const KIND_PUT: u8 = 1;
const KIND_TOMBSTONE: u8 = 2;

/// Errors from SSTable I/O.
#[derive(Debug)]
pub enum SstError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid SSTable (bad magic, checksum, or framing).
    Corrupt(String),
    /// Keys were added out of order.
    OutOfOrder,
}

impl std::fmt::Display for SstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SstError::Io(e) => write!(f, "sstable io error: {e}"),
            SstError::Corrupt(m) => write!(f, "corrupt sstable: {m}"),
            SstError::OutOfOrder => write!(f, "keys added out of sorted order"),
        }
    }
}

impl std::error::Error for SstError {}

impl From<std::io::Error> for SstError {
    fn from(e: std::io::Error) -> Self {
        SstError::Io(e)
    }
}

/// Fixed entry header: `key_len u32 | kind u8 | val_len u32`.
const ENTRY_HEADER: usize = 9;

/// Encoded length of the entry at the start of `buf`, or `None` while `buf`
/// is shorter than the header. Rejects an unknown kind byte.
fn entry_len(buf: &[u8]) -> Result<Option<usize>, SstError> {
    let Some(hdr) = buf.get(..ENTRY_HEADER) else {
        return Ok(None);
    };
    let key_len = u32::from_le_bytes(hdr[..4].try_into().unwrap()) as usize;
    let val_len = match hdr[4] {
        KIND_PUT => u32::from_le_bytes(hdr[5..9].try_into().unwrap()) as usize,
        KIND_TOMBSTONE => 0,
        k => return Err(SstError::Corrupt(format!("bad entry kind {k}"))),
    };
    Ok(Some(ENTRY_HEADER + key_len + val_len))
}

/// One entry decoded in place from a read buffer.
struct EntryRef<'a> {
    key: &'a [u8],
    /// Value bytes; `None` for a tombstone.
    value: Option<&'a [u8]>,
    /// Encoded length, header included.
    len: usize,
}

impl EntryRef<'_> {
    fn to_value(&self) -> Value {
        self.value
            .map_or(Value::Tombstone, |v| Value::Put(v.to_vec()))
    }
}

/// Decode the entry at the start of `buf`, which must hold all of it.
fn decode_entry(buf: &[u8]) -> Result<EntryRef<'_>, SstError> {
    let len = entry_len(buf)?
        .filter(|&n| n <= buf.len())
        .ok_or_else(|| SstError::Corrupt("truncated entry".into()))?;
    let key_end = ENTRY_HEADER + u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    Ok(EntryRef {
        key: &buf[ENTRY_HEADER..key_end],
        value: (buf[4] == KIND_PUT).then(|| &buf[key_end..len]),
        len,
    })
}

/// Fill `buf` from `offset` with one positioned read; a file that ends
/// early is corrupt.
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> Result<(), SstError> {
    file.read_exact_at(buf, offset).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SstError::Corrupt(format!(
                "short read of {} bytes at offset {offset}",
                buf.len()
            ))
        } else {
            e.into()
        }
    })
}

/// Builds an SSTable; keys must be added in strictly increasing order.
/// Entries go straight into the file buffer; the writer keeps the sparse
/// index keys, the last key in one reused buffer and each key's two bloom
/// hashes, not a copy of every key.
pub struct SstWriter {
    path: PathBuf,
    file: BufWriter<File>,
    offset: u64,
    /// Every `INDEX_INTERVAL`-th key with its offset; the first is the
    /// table's min key.
    index: Vec<(Vec<u8>, u64)>,
    hashes: Vec<(u64, u64)>,
    /// Valid once `count > 0`.
    last_key: Vec<u8>,
    count: usize,
    bits_per_key: usize,
}

impl SstWriter {
    /// Start writing a table at `path`.
    pub fn create(path: &Path, bits_per_key: usize) -> Result<SstWriter, SstError> {
        let file = BufWriter::new(File::create(path)?);
        Ok(SstWriter {
            path: path.to_path_buf(),
            file,
            offset: 0,
            index: Vec::new(),
            hashes: Vec::new(),
            last_key: Vec::new(),
            count: 0,
            bits_per_key,
        })
    }

    /// Append one entry; `value = None` writes a tombstone.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<(), SstError> {
        if self.count > 0 && key <= self.last_key.as_slice() {
            return Err(SstError::OutOfOrder);
        }
        if self.count.is_multiple_of(INDEX_INTERVAL) {
            self.index.push((key.to_vec(), self.offset));
        }
        let (kind, val) = match value {
            Some(v) => (KIND_PUT, v),
            None => (KIND_TOMBSTONE, &[][..]),
        };
        let mut header = [0u8; ENTRY_HEADER];
        header[..4].copy_from_slice(&(key.len() as u32).to_le_bytes());
        header[4] = kind;
        header[5..].copy_from_slice(&(val.len() as u32).to_le_bytes());
        self.file.write_all(&header)?;
        self.file.write_all(key)?;
        self.file.write_all(val)?;
        self.offset += (ENTRY_HEADER + key.len() + val.len()) as u64;
        self.hashes.push(BloomFilter::key_hashes(key));
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.count += 1;
        Ok(())
    }

    /// Bytes of entry data written so far (metadata sections excluded).
    pub fn data_bytes(&self) -> u64 {
        self.offset
    }

    /// Number of entries added so far.
    pub fn entry_count(&self) -> usize {
        self.count
    }

    /// Write metadata sections and the footer; returns a reader over the
    /// finished table.
    pub fn finish(mut self) -> Result<SstReader, SstError> {
        self.write_trailer()?;
        let path = self.path;
        SstReader::open(&path)
    }

    /// Finish the table, then atomically rename it to `final_path` (fsyncing
    /// the parent directory) before opening the reader. This is the
    /// crash-safe publication path: the table is built at a temporary path
    /// and only becomes visible under its real name once fully durable.
    pub fn finish_to(mut self, final_path: &Path) -> Result<SstReader, SstError> {
        self.write_trailer()?;
        std::fs::rename(&self.path, final_path)?;
        sync_dir(final_path)?;
        SstReader::open(final_path)
    }

    fn write_trailer(&mut self) -> Result<(), SstError> {
        // Index section.
        let index_offset = self.offset;
        let mut index_buf = Vec::new();
        index_buf.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for (key, off) in &self.index {
            index_buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
            index_buf.extend_from_slice(key);
            index_buf.extend_from_slice(&off.to_le_bytes());
        }
        self.file.write_all(&index_buf)?;
        // Bloom section.
        let bloom_offset = index_offset + index_buf.len() as u64;
        let mut bloom = BloomFilter::new(self.hashes.len(), self.bits_per_key);
        for &h in &self.hashes {
            bloom.insert_hashes(h);
        }
        let bloom_buf = bloom.encode();
        self.file.write_all(&bloom_buf)?;
        // Footer: min/max keys then fixed trailer.
        let min_key = self.index.first().map_or(&[][..], |(k, _)| k);
        let max_key = &self.last_key;
        let mut footer = Vec::new();
        footer.extend_from_slice(&(min_key.len() as u32).to_le_bytes());
        footer.extend_from_slice(min_key);
        footer.extend_from_slice(&(max_key.len() as u32).to_le_bytes());
        footer.extend_from_slice(max_key);
        footer.extend_from_slice(&index_offset.to_le_bytes());
        footer.extend_from_slice(&(index_buf.len() as u64).to_le_bytes());
        footer.extend_from_slice(&bloom_offset.to_le_bytes());
        footer.extend_from_slice(&(bloom_buf.len() as u64).to_le_bytes());
        footer.extend_from_slice(&(self.count as u64).to_le_bytes());
        let crc = crc32(&footer);
        self.file.write_all(&footer)?;
        self.file.write_all(&crc.to_le_bytes())?;
        self.file.write_all(&(footer.len() as u32).to_le_bytes())?;
        self.file.write_all(&MAGIC.to_le_bytes())?;
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        Ok(())
    }
}

/// fsync the parent directory of `path` so a just-performed rename survives
/// a crash. Best-effort no-op on platforms where directories cannot be
/// opened.
pub(crate) fn sync_dir(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            dir.sync_all()?;
        }
    }
    Ok(())
}

struct IndexEntry {
    key: Vec<u8>,
    offset: u64,
}

/// A reader over one finished SSTable. Index and bloom filter are held in
/// memory; entry data is read from disk on demand with positioned reads on
/// one shared handle, so lookups and iterators run concurrently.
pub struct SstReader {
    file: Arc<TableFile>,
    index: Vec<IndexEntry>,
    bloom: BloomFilter,
    min_key: Vec<u8>,
    max_key: Vec<u8>,
    count: u64,
    data_end: u64,
    file_size: u64,
}

impl SstReader {
    /// Open and validate a table.
    pub fn open(path: &Path) -> Result<SstReader, SstError> {
        let f = File::open(path)?;
        let file_size = f.metadata()?.len();
        if file_size < 16 {
            return Err(SstError::Corrupt("file too small".into()));
        }
        // Trailer: crc u32 | footer_len u32 | magic u64.
        let mut tail = [0u8; 16];
        read_at(&f, &mut tail, file_size - 16)?;
        let crc_stored = u32::from_le_bytes(tail[..4].try_into().unwrap());
        let footer_len = u32::from_le_bytes(tail[4..8].try_into().unwrap()) as u64;
        let magic = u64::from_le_bytes(tail[8..].try_into().unwrap());
        if magic != MAGIC {
            return Err(SstError::Corrupt("bad magic".into()));
        }
        if footer_len + 16 > file_size {
            return Err(SstError::Corrupt("bad footer length".into()));
        }
        let mut footer = vec![0u8; footer_len as usize];
        read_at(&f, &mut footer, file_size - 16 - footer_len)?;
        if crc32(&footer) != crc_stored {
            return Err(SstError::Corrupt("footer checksum mismatch".into()));
        }
        let mut pos = 0usize;
        let take_u32 = |pos: &mut usize| -> Result<u32, SstError> {
            let v = footer
                .get(*pos..*pos + 4)
                .ok_or_else(|| SstError::Corrupt("short footer".into()))?;
            *pos += 4;
            Ok(u32::from_le_bytes(v.try_into().unwrap()))
        };
        let min_len = take_u32(&mut pos)? as usize;
        let min_key = footer
            .get(pos..pos + min_len)
            .ok_or_else(|| SstError::Corrupt("short footer".into()))?
            .to_vec();
        pos += min_len;
        let max_len = take_u32(&mut pos)? as usize;
        let max_key = footer
            .get(pos..pos + max_len)
            .ok_or_else(|| SstError::Corrupt("short footer".into()))?
            .to_vec();
        pos += max_len;
        let take_u64 = |pos: &mut usize| -> Result<u64, SstError> {
            let v = footer
                .get(*pos..*pos + 8)
                .ok_or_else(|| SstError::Corrupt("short footer".into()))?;
            *pos += 8;
            Ok(u64::from_le_bytes(v.try_into().unwrap()))
        };
        let index_offset = take_u64(&mut pos)?;
        let index_len = take_u64(&mut pos)?;
        let bloom_offset = take_u64(&mut pos)?;
        let bloom_len = take_u64(&mut pos)?;
        let count = take_u64(&mut pos)?;
        // Load index.
        let mut index_buf = vec![0u8; index_len as usize];
        read_at(&f, &mut index_buf, index_offset)?;
        let mut index = Vec::new();
        let mut ip = 0usize;
        if index_buf.len() < 4 {
            return Err(SstError::Corrupt("short index".into()));
        }
        let n_index = u32::from_le_bytes(index_buf[..4].try_into().unwrap()) as usize;
        ip += 4;
        for _ in 0..n_index {
            let klen = u32::from_le_bytes(
                index_buf
                    .get(ip..ip + 4)
                    .ok_or_else(|| SstError::Corrupt("short index".into()))?
                    .try_into()
                    .unwrap(),
            ) as usize;
            ip += 4;
            let key = index_buf
                .get(ip..ip + klen)
                .ok_or_else(|| SstError::Corrupt("short index".into()))?
                .to_vec();
            ip += klen;
            let offset = u64::from_le_bytes(
                index_buf
                    .get(ip..ip + 8)
                    .ok_or_else(|| SstError::Corrupt("short index".into()))?
                    .try_into()
                    .unwrap(),
            );
            ip += 8;
            index.push(IndexEntry { key, offset });
        }
        // Point lookups read `[index[i].offset, index[i + 1].offset)`, so
        // the offsets must ascend within the data section.
        if index.windows(2).any(|w| w[0].offset > w[1].offset)
            || index.last().is_some_and(|e| e.offset > index_offset)
        {
            return Err(SstError::Corrupt("index offsets out of order".into()));
        }
        // Load bloom.
        let mut bloom_buf = vec![0u8; bloom_len as usize];
        read_at(&f, &mut bloom_buf, bloom_offset)?;
        let bloom = BloomFilter::decode(&bloom_buf)
            .ok_or_else(|| SstError::Corrupt("bad bloom filter".into()))?;
        Ok(SstReader {
            file: Arc::new(TableFile::new(path, f)),
            index,
            bloom,
            min_key,
            max_key,
            count,
            data_end: index_offset,
            file_size,
        })
    }

    /// Number of entries (including tombstones).
    pub fn entry_count(&self) -> u64 {
        self.count
    }

    /// Smallest key in the table.
    pub fn min_key(&self) -> &[u8] {
        &self.min_key
    }

    /// Largest key in the table.
    pub fn max_key(&self) -> &[u8] {
        &self.max_key
    }

    /// On-disk size in bytes.
    pub fn file_size(&self) -> u64 {
        self.file_size
    }

    /// The table's path.
    pub fn path(&self) -> &Path {
        self.file.path()
    }

    /// Delete the table's file once this reader and every cursor over the
    /// table are gone.
    pub fn delete_when_unused(&self) {
        self.file.delete_when_unused();
    }

    /// Whether the key may be present, per the bloom filter and key range.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        if self.count == 0 {
            return false;
        }
        key >= self.min_key.as_slice()
            && key <= self.max_key.as_slice()
            && self.bloom.may_contain(key)
    }

    /// Point lookup: one positioned read of the index span that can hold
    /// `key` (at most `INDEX_INTERVAL` entries), parsed in place; only the
    /// matching value is copied out.
    pub fn get(&self, key: &[u8]) -> Result<Option<Value>, SstError> {
        if !self.may_contain(key) {
            return Ok(None);
        }
        let Some(i) = self.span_of(key) else {
            return Ok(None);
        };
        let start = self.index[i].offset;
        let end = self.index.get(i + 1).map_or(self.data_end, |e| e.offset);
        let mut span = vec![0u8; (end - start) as usize];
        let file = self.file.handle()?;
        read_at(&file, &mut span, start)?;
        let mut rest = span.as_slice();
        while !rest.is_empty() {
            let entry = decode_entry(rest)?;
            match entry.key.cmp(key) {
                std::cmp::Ordering::Less => rest = &rest[entry.len..],
                std::cmp::Ordering::Equal => return Ok(Some(entry.to_value())),
                std::cmp::Ordering::Greater => return Ok(None),
            }
        }
        Ok(None)
    }

    /// The last index span whose first key is `<= key`, if any.
    fn span_of(&self, key: &[u8]) -> Option<usize> {
        match self.index.binary_search_by(|e| e.key.as_slice().cmp(key)) {
            Ok(i) => Some(i),
            Err(i) => i.checked_sub(1),
        }
    }

    /// A cursor over the entries with keys in `[lower, upper)`; `upper =
    /// None` means unbounded. It starts at the index span that can hold
    /// `lower`.
    pub fn iter_range(&self, lower: &[u8], upper: Option<&[u8]>) -> SstRangeIter {
        let start = self.span_of(lower).map_or(0, |i| self.index[i].offset);
        SstRangeIter {
            table: Arc::clone(&self.file),
            file: None,
            buf: Vec::new(),
            end: 0,
            cur: 0,
            len: 0,
            key_end: 0,
            put: false,
            next_read: start,
            data_end: self.data_end,
            lower: Some(lower.to_vec()),
            upper: upper.map(|u| u.to_vec()),
            done: false,
        }
    }
}

/// Bytes a range cursor reads per refill (more when one entry is larger).
const ITER_CHUNK: usize = 8 << 10;

/// Cursor over a key range of one table. It reads through the table's
/// shared handle into its own buffer, decodes each entry in place and
/// lends out its key and value until the next `advance`. A damaged entry
/// fails one `advance` and ends the cursor.
pub struct SstRangeIter {
    table: Arc<TableFile>,
    /// The table's handle, taken at the first read and kept to the end.
    file: Option<Arc<File>>,
    /// Bytes read ahead are `buf[..end]`; the current entry is
    /// `buf[cur..cur + len]`. The buffer keeps its size from refill to
    /// refill and grows only for an entry larger than it.
    buf: Vec<u8>,
    end: usize,
    cur: usize,
    len: usize,
    /// End of the current entry's key in `buf`.
    key_end: usize,
    /// Whether the current entry is a put (not a tombstone).
    put: bool,
    /// File offset just past `buf`.
    next_read: u64,
    data_end: u64,
    /// Entries below this key are skipped; `None` once the cursor has
    /// passed it, as every later key is larger.
    lower: Option<Vec<u8>>,
    upper: Option<Vec<u8>>,
    done: bool,
}

impl SstRangeIter {
    /// Step to the next entry in range; `Ok(false)` at the end.
    pub fn advance(&mut self) -> Result<bool, SstError> {
        if self.done {
            return Ok(false);
        }
        let step = self.step();
        self.done = !matches!(step, Ok(true));
        step
    }

    /// Key of the current entry. Valid after `advance` returned `true`.
    pub fn key(&self) -> &[u8] {
        &self.buf[self.cur + ENTRY_HEADER..self.key_end]
    }

    /// Value of the current entry; `None` for a tombstone. Valid after
    /// `advance` returned `true`.
    pub fn value(&self) -> Option<&[u8]> {
        self.put
            .then(|| &self.buf[self.key_end..self.cur + self.len])
    }

    fn step(&mut self) -> Result<bool, SstError> {
        self.cur += std::mem::take(&mut self.len);
        loop {
            let avail = &self.buf[self.cur..self.end];
            match entry_len(avail)? {
                Some(n) if n <= avail.len() => {}
                need => {
                    if !self.refill(need.unwrap_or(ENTRY_HEADER))? {
                        return Ok(false);
                    }
                    continue;
                }
            }
            let entry = decode_entry(avail)?;
            if let Some(lower) = &self.lower {
                if entry.key < lower.as_slice() {
                    self.cur += entry.len;
                    continue;
                }
                self.lower = None;
            }
            if self.upper.as_deref().is_some_and(|u| entry.key >= u) {
                return Ok(false);
            }
            self.len = entry.len;
            self.key_end = self.cur + ENTRY_HEADER + entry.key.len();
            self.put = entry.value.is_some();
            return Ok(true);
        }
    }

    /// Make at least `need` bytes available at `buf[cur]`; `Ok(false)` is
    /// the clean end of the data section.
    fn refill(&mut self, need: usize) -> Result<bool, SstError> {
        let have = self.end - self.cur;
        let left = self.data_end - self.next_read;
        if have == 0 && left == 0 {
            return Ok(false);
        }
        if have as u64 + left < need as u64 {
            return Err(SstError::Corrupt("entry runs past the data section".into()));
        }
        // Move the unread tail to the front and fill the rest of the
        // buffer behind it; `need` exceeds `have`, so the read is never
        // empty.
        self.buf.copy_within(self.cur..self.end, 0);
        self.cur = 0;
        let size = self.buf.len().max(ITER_CHUNK).max(need);
        if self.buf.len() < size {
            self.buf.resize(size, 0);
        }
        let n = left.min((size - have) as u64) as usize;
        self.end = have + n;
        let file = match &self.file {
            Some(f) => f,
            None => self.file.insert(self.table.handle()?),
        };
        read_at(file, &mut self.buf[have..self.end], self.next_read)?;
        self.next_read += n as u64;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lsmdb-sst-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Every entry a cursor yields, owned, ending with its error if any.
    fn entries(mut it: SstRangeIter) -> Vec<Result<(Vec<u8>, Value), SstError>> {
        let mut out = Vec::new();
        loop {
            match it.advance() {
                Ok(true) => out.push(Ok((
                    it.key().to_vec(),
                    it.value()
                        .map_or(Value::Tombstone, |v| Value::Put(v.to_vec())),
                ))),
                Ok(false) => return out,
                Err(e) => {
                    out.push(Err(e));
                    return out;
                }
            }
        }
    }

    fn build_table(path: &Path, n: u32) -> SstReader {
        let mut w = SstWriter::create(path, 10).unwrap();
        for i in 0..n {
            let key = format!("key{i:06}");
            if i % 7 == 3 {
                w.add(key.as_bytes(), None).unwrap();
            } else {
                w.add(key.as_bytes(), Some(format!("val{i}").as_bytes()))
                    .unwrap();
            }
        }
        w.finish().unwrap()
    }

    #[test]
    fn write_read_round_trip() {
        let d = tmpdir("rt");
        let r = build_table(&d.join("t1.sst"), 1000);
        assert_eq!(r.entry_count(), 1000);
        assert_eq!(r.min_key(), b"key000000");
        assert_eq!(r.max_key(), b"key000999");
        // 501 % 7 != 3, so it is a live entry (500 is a tombstone).
        assert_eq!(
            r.get(b"key000501").unwrap(),
            Some(Value::Put(b"val501".to_vec()))
        );
        assert_eq!(r.get(b"key000003").unwrap(), Some(Value::Tombstone));
        assert_eq!(r.get(b"key001000").unwrap(), None);
        assert_eq!(r.get(b"absent").unwrap(), None);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn every_key_is_retrievable() {
        let d = tmpdir("all");
        let r = build_table(&d.join("t.sst"), 500);
        for i in 0..500u32 {
            let key = format!("key{i:06}");
            let got = r.get(key.as_bytes()).unwrap().unwrap();
            if i % 7 == 3 {
                assert_eq!(got, Value::Tombstone);
            } else {
                assert_eq!(got, Value::Put(format!("val{i}").into_bytes()));
            }
        }
        std::fs::remove_dir_all(&d).ok();
    }

    /// Entries from 1 B to 20 KiB, smaller than, straddling and larger
    /// than one refill of the cursor's buffer, read by cursors over the
    /// whole table and over sub-ranges starting at every few keys, equal
    /// point reads of the same keys.
    #[test]
    fn cursor_over_entries_around_the_refill_size_matches_point_reads() {
        let d = tmpdir("chunky");
        let sizes = [
            1,
            7,
            300,
            ITER_CHUNK - 40,
            ITER_CHUNK - 1,
            ITER_CHUNK,
            ITER_CHUNK + 1,
            2 * ITER_CHUNK + 3,
            20 << 10,
        ];
        let mut rng = StdRng::seed_from_u64(11);
        let mut w = SstWriter::create(&d.join("t.sst"), 10).unwrap();
        let mut keys = Vec::new();
        for i in 0..160u32 {
            let key = format!("key{i:05}").into_bytes();
            if rng.gen_range(0..9) == 0 {
                w.add(&key, None).unwrap();
            } else {
                let n = sizes[rng.gen_range(0..sizes.len())];
                let value: Vec<u8> = (0..n).map(|j| (i as usize * 31 + j) as u8).collect();
                w.add(&key, Some(&value)).unwrap();
            }
            keys.push(key);
        }
        let r = w.finish().unwrap();
        let point = |key: &[u8]| r.get(key).unwrap().expect("every key was written");
        for start in (0..keys.len()).step_by(13) {
            let upper = keys.get(start + 40).map(Vec::as_slice);
            let got = entries(r.iter_range(&keys[start], upper));
            let want: Vec<_> = keys[start..(start + 40).min(keys.len())]
                .iter()
                .map(|k| (k.clone(), point(k)))
                .collect();
            assert_eq!(got.len(), want.len(), "range from key {start}");
            for (g, w) in got.into_iter().zip(want) {
                assert_eq!(g.unwrap(), w, "range from key {start}");
            }
        }
        let all = entries(r.iter_range(b"", None));
        assert_eq!(all.len(), keys.len());
        for (got, key) in all.into_iter().zip(&keys) {
            assert_eq!(got.unwrap(), (key.clone(), point(key)));
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn range_iteration() {
        let d = tmpdir("range");
        let r = build_table(&d.join("t.sst"), 100);
        let got: Vec<_> = entries(r.iter_range(b"key000010", Some(b"key000015")))
            .into_iter()
            .map(|e| String::from_utf8(e.unwrap().0).unwrap())
            .collect();
        assert_eq!(
            got,
            vec![
                "key000010",
                "key000011",
                "key000012",
                "key000013",
                "key000014"
            ]
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn full_iteration_is_sorted_and_complete() {
        let d = tmpdir("full");
        let r = build_table(&d.join("t.sst"), 300);
        let keys: Vec<_> = entries(r.iter_range(&[], None))
            .into_iter()
            .map(|e| e.unwrap().0)
            .collect();
        assert_eq!(keys.len(), 300);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn out_of_order_add_is_rejected() {
        let d = tmpdir("ooo");
        let mut w = SstWriter::create(&d.join("t.sst"), 10).unwrap();
        w.add(b"b", Some(b"1")).unwrap();
        assert!(matches!(w.add(b"a", Some(b"2")), Err(SstError::OutOfOrder)));
        assert!(matches!(w.add(b"b", Some(b"2")), Err(SstError::OutOfOrder)));
        // The empty key is a valid first key, and only once.
        let mut w = SstWriter::create(&d.join("e.sst"), 10).unwrap();
        w.add(b"", None).unwrap();
        assert!(matches!(w.add(b"", Some(b"2")), Err(SstError::OutOfOrder)));
        w.add(b"a", Some(b"1")).unwrap();
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn table_bytes_are_pinned() {
        // Golden digest of a whole table file: the entry framing, index,
        // bloom filter and footer are the on-disk format and must not
        // drift. The table starts with the empty key, holds a tombstone
        // and one value longer than a scan read chunk.
        const GOLDEN: (usize, u32) = (10160, 920181408);
        let d = tmpdir("pinned");
        let p = d.join("t.sst");
        let mut w = SstWriter::create(&p, 10).unwrap();
        w.add(b"", Some(b"first")).unwrap();
        for i in 0..40u32 {
            let key = format!("pin{i:03}");
            let value = match i {
                7 => Value::Tombstone,
                21 => Value::Put((0..9000u32).map(|b| b as u8).collect()),
                _ => Value::Put(format!("value-{}", "v".repeat(i as usize % 9)).into_bytes()),
            };
            w.add(key.as_bytes(), value.live()).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&p).unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), GOLDEN);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn empty_table() {
        let d = tmpdir("empty");
        let w = SstWriter::create(&d.join("t.sst"), 10).unwrap();
        let r = w.finish().unwrap();
        assert_eq!(r.entry_count(), 0);
        assert_eq!(r.get(b"anything").unwrap(), None);
        assert!(entries(r.iter_range(&[], None)).is_empty());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn finish_to_renames_atomically() {
        let d = tmpdir("rename");
        let tmp = d.join("000001.sst.tmp");
        let fin = d.join("000001.sst");
        let mut w = SstWriter::create(&tmp, 10).unwrap();
        w.add(b"a", Some(b"1")).unwrap();
        w.add(b"b", Some(b"2")).unwrap();
        let r = w.finish_to(&fin).unwrap();
        assert!(!tmp.exists());
        assert!(fin.exists());
        assert_eq!(r.path(), fin.as_path());
        assert_eq!(r.get(b"b").unwrap(), Some(Value::Put(b"2".to_vec())));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let d = tmpdir("badmagic");
        let p = d.join("t.sst");
        build_table(&p, 10);
        let mut data = std::fs::read(&p).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF;
        std::fs::write(&p, &data).unwrap();
        assert!(matches!(SstReader::open(&p), Err(SstError::Corrupt(_))));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn corrupt_footer_checksum_is_rejected() {
        let d = tmpdir("badcrc");
        let p = d.join("t.sst");
        build_table(&p, 10);
        let mut data = std::fs::read(&p).unwrap();
        let n = data.len();
        data[n - 20] ^= 0xFF; // inside the footer body
        std::fs::write(&p, &data).unwrap();
        assert!(matches!(SstReader::open(&p), Err(SstError::Corrupt(_))));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn bloom_filters_skip_absent_prefix() {
        let d = tmpdir("bloomskip");
        let r = build_table(&d.join("t.sst"), 1000);
        // Keys outside [min,max] short-circuit without bloom.
        assert!(!r.may_contain(b"aaa"));
        assert!(!r.may_contain(b"zzz"));
        // In-range absent keys: bloom should reject nearly all.
        let hits = (0..1000)
            .filter(|i| r.may_contain(format!("key{i:06}x").as_bytes()))
            .count();
        assert!(hits < 100, "bloom passes too many absent keys: {hits}");
        std::fs::remove_dir_all(&d).ok();
    }

    /// `n` entries keyed `k0000`, `k0002`, … (odd numbers stay absent),
    /// with tombstones on the first and last entry of every index span and
    /// on the table's last entry.
    fn build_matrix_table(path: &Path, n: usize, bits_per_key: usize) -> BTreeMap<Vec<u8>, Value> {
        let mut w = SstWriter::create(path, bits_per_key).unwrap();
        let mut model = BTreeMap::new();
        for i in 0..n {
            let key = format!("k{:04}", 2 * i).into_bytes();
            let edge = i % INDEX_INTERVAL == 0 || i % INDEX_INTERVAL == INDEX_INTERVAL - 1;
            let value = if edge || i == n - 1 {
                Value::Tombstone
            } else {
                Value::Put(format!("value-{i}-{}", "x".repeat(i % 5)).into_bytes())
            };
            w.add(&key, value.live()).unwrap();
            model.insert(key, value);
        }
        w.finish().unwrap();
        model
    }

    fn collect_range(r: &SstReader, lower: &[u8], upper: Option<&[u8]>) -> Vec<(Vec<u8>, Value)> {
        entries(r.iter_range(lower, upper))
            .into_iter()
            .map(|e| e.unwrap())
            .collect()
    }

    #[test]
    fn point_lookup_matrix_covers_span_edges() {
        let d = tmpdir("matrix");
        let mut absent_reaching_parse = 0;
        for bits_per_key in [10, 1] {
            for n in [1, 15, 16, 17, 33] {
                let p = d.join(format!("t{n}-{bits_per_key}.sst"));
                let model = build_matrix_table(&p, n, bits_per_key);
                let r = SstReader::open(&p).unwrap();
                assert_eq!(r.index.len(), n.div_ceil(INDEX_INTERVAL));
                for (k, v) in &model {
                    assert_eq!(r.get(k).unwrap().as_ref(), Some(v), "n={n} key {k:?}");
                }
                // Absent keys before, between and after the present ones.
                for i in 0..=2 * n {
                    let key = format!("k{:04}", 2 * i as isize - 1);
                    if r.may_contain(key.as_bytes()) {
                        absent_reaching_parse += 1;
                    }
                    assert_eq!(r.get(key.as_bytes()).unwrap(), None, "n={n} key {key}");
                }
                // Range scans starting and ending on every key.
                let keys: Vec<&Vec<u8>> = model.keys().collect();
                for (i, lower) in keys.iter().enumerate() {
                    let upper = keys.get(i + 3).map(|k| k.as_slice());
                    let want: Vec<_> = model
                        .range::<[u8], _>((
                            std::ops::Bound::Included(lower.as_slice()),
                            upper.map_or(std::ops::Bound::Unbounded, std::ops::Bound::Excluded),
                        ))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    assert_eq!(
                        collect_range(&r, lower, upper),
                        want,
                        "n={n} from {lower:?}"
                    );
                }
            }
        }
        // One bit per key lets absent keys through the filter, so the span
        // parse itself had to answer "absent" for them.
        assert!(absent_reaching_parse > 0);
        std::fs::remove_dir_all(&d).ok();
    }

    /// 40 live entries `k0000`..`k0039` with 5-byte values: every entry is
    /// 19 bytes, so entry `i` starts at byte `19 * i`.
    fn build_fixed_table(path: &Path) -> SstReader {
        let mut w = SstWriter::create(path, 10).unwrap();
        for i in 0..40 {
            w.add(
                format!("k{i:04}").as_bytes(),
                Some(format!("v{i:04}").as_bytes()),
            )
            .unwrap();
        }
        w.finish().unwrap()
    }

    const FIXED_ENTRY: u64 = 19;

    fn fixed_key(i: u64) -> Vec<u8> {
        format!("k{i:04}").into_bytes()
    }

    #[test]
    fn truncated_data_section_is_corrupt() {
        let d = tmpdir("truncated");
        let p = d.join("t.sst");
        let r = build_fixed_table(&p);
        // Cut the file in the middle of the second index span.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&p)
            .unwrap()
            .set_len(20 * FIXED_ENTRY + 4)
            .unwrap();
        assert_eq!(
            r.get(&fixed_key(3)).unwrap(),
            Some(Value::Put(b"v0003".to_vec()))
        );
        for i in [16, 25, 39] {
            assert!(
                matches!(r.get(&fixed_key(i)), Err(SstError::Corrupt(_))),
                "key {i}"
            );
        }
        // The iterator reads ahead past the cut, so it may fail before
        // reaching entry 20, but it fails once and then ends.
        let items = entries(r.iter_range(&[], None));
        let (last, entries) = items.split_last().unwrap();
        assert!(matches!(last, Err(SstError::Corrupt(_))));
        assert!(entries.len() <= 20 && entries.iter().all(|e| e.is_ok()));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn malformed_entries_are_corrupt() {
        let d = tmpdir("malformed");
        let p = d.join("t.sst");
        let r = build_fixed_table(&p);
        let f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        // Entry 20: unknown kind byte.
        f.write_all_at(&[0x7F], 20 * FIXED_ENTRY + 4).unwrap();
        assert_eq!(
            r.get(&fixed_key(17)).unwrap(),
            Some(Value::Put(b"v0017".to_vec()))
        );
        for i in [20, 25] {
            assert!(
                matches!(r.get(&fixed_key(i)), Err(SstError::Corrupt(_))),
                "key {i}"
            );
        }
        let items = entries(r.iter_range(&[], None));
        assert_eq!(items.len(), 21);
        assert!(matches!(items[20], Err(SstError::Corrupt(_))));
        assert!(matches!(
            entries(r.iter_range(&fixed_key(18), None)).get(2),
            Some(Err(SstError::Corrupt(_)))
        ));
        // Entry 35: a key length running past the span and the data section.
        f.write_all_at(&u32::MAX.to_le_bytes(), 35 * FIXED_ENTRY)
            .unwrap();
        assert!(matches!(r.get(&fixed_key(37)), Err(SstError::Corrupt(_))));
        let mut it = r.iter_range(&fixed_key(33), None);
        assert!(it.advance().unwrap());
        assert_eq!(it.key(), fixed_key(33));
        assert!(it.advance().unwrap());
        assert_eq!(
            (it.key(), it.value()),
            (&fixed_key(34)[..], Some(&b"v0034"[..]))
        );
        assert!(matches!(it.advance(), Err(SstError::Corrupt(_))));
        assert!(!it.advance().unwrap());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn corrupt_index_offsets_are_rejected() {
        let d = tmpdir("badindex");
        let p = d.join("t.sst");
        build_fixed_table(&p);
        // The index follows the 760 data bytes: a u32 count, then per entry
        // key_len u32 | key (5 bytes) | offset u64. Point entry 1 past the
        // data section.
        let f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        f.write_all_at(&10_000u64.to_le_bytes(), 40 * FIXED_ENTRY + 4 + 17 + 9)
            .unwrap();
        assert!(matches!(SstReader::open(&p), Err(SstError::Corrupt(_))));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn concurrent_readers_match_oracle() {
        let d = tmpdir("concurrent");
        let p = d.join("t.sst");
        let mut rng = StdRng::seed_from_u64(14);
        let mut model = BTreeMap::new();
        let mut w = SstWriter::create(&p, 10).unwrap();
        for i in 0..3000u32 {
            let key = format!("key{:07}", 3 * i).into_bytes();
            let value = if rng.gen_bool(0.1) {
                Value::Tombstone
            } else {
                Value::Put(vec![i as u8; rng.gen_range(0..300usize)])
            };
            w.add(&key, value.live()).unwrap();
            model.insert(key, value);
        }
        let r = Arc::new(w.finish().unwrap());
        let model = Arc::new(model);
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let (r, model) = (Arc::clone(&r), Arc::clone(&model));
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + t);
                    for op in 0..2000 {
                        let key = format!("key{:07}", rng.gen_range(0..9100u32)).into_bytes();
                        if op % 20 == 0 {
                            let upper = format!("key{:07}", rng.gen_range(0..9100u32)).into_bytes();
                            let upper = (upper > key).then_some(upper);
                            let want: Vec<_> = model
                                .range::<[u8], _>((
                                    std::ops::Bound::Included(key.as_slice()),
                                    upper.as_deref().map_or(
                                        std::ops::Bound::Unbounded,
                                        std::ops::Bound::Excluded,
                                    ),
                                ))
                                .map(|(k, v)| (k.clone(), v.clone()))
                                .collect();
                            assert_eq!(collect_range(&r, &key, upper.as_deref()), want);
                        } else {
                            assert_eq!(r.get(&key).unwrap().as_ref(), model.get(&key));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        std::fs::remove_dir_all(&d).ok();
    }
}
