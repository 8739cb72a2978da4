//! Range-filter replies read in place.
//!
//! An `OP_FILTER_SCAN` reply is one factored key block (the prefix and
//! suffix every kept key shares, then each key's middle) followed by one
//! slot per key: a [`FilterReply`] in the program form, a value in the
//! value form. [`ScanPage`] keeps the response buffer and one span per
//! entry, so a page of a thousand kept keys costs one offsets `Vec`, not a
//! `Vec` per key; each entry's key is read as three views and its reply as
//! a borrowed [`FilterView`] or a zero-copy value slice. [`FilterView::parse`]
//! is the one decoder of a filter slot: the per-key `OP_FILTER` reply reads
//! its slots through it too.

use crate::encoding::KeyBlock;
use crate::error::YokanError;
use crate::service::{FILTER_IDS, FILTER_MISSING, FILTER_NOT_COLUMNAR};
use bytes::{BufMut, Bytes, BytesMut};

/// Per-key outcome of a push-down [`crate::YokanClient::filter`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterReply {
    /// No value stored under the key.
    Missing,
    /// A value is stored but it is not a columnar page blob; the caller
    /// should fall back to fetching and filtering it client-side.
    NotColumnar,
    /// The predicate program ran server-side over the columnar pages.
    Ids {
        /// Id-column values of surviving rows, in row order.
        ids: Vec<u64>,
        /// Rows stored in the blob.
        rows_in: u32,
        /// Pages whose columns were decoded and evaluated.
        pages_scanned: u32,
        /// Pages skipped via zone maps without decoding.
        pages_skipped: u32,
        /// Stored size of the blob (bytes that did *not* cross the wire).
        stored_bytes: u32,
    },
}

/// A [`FilterReply`] borrowed from the response buffer: the survivor ids
/// stay little-endian bytes until they are read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterView<'a> {
    /// No value stored under the key.
    Missing,
    /// The stored value is not a columnar page blob.
    NotColumnar,
    /// The predicate program ran server-side over the columnar pages.
    Ids {
        /// Id-column values of surviving rows, in row order.
        ids: SurvivorIds<'a>,
        /// Rows stored in the blob.
        rows_in: u32,
        /// Pages whose columns were decoded and evaluated.
        pages_scanned: u32,
        /// Pages skipped via zone maps without decoding.
        pages_skipped: u32,
        /// Stored size of the blob.
        stored_bytes: u32,
    },
}

/// Survivor ids as they came off the wire: eight little-endian bytes each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurvivorIds<'a>(&'a [u8]);

impl<'a> SurvivorIds<'a> {
    /// Number of ids.
    pub fn len(&self) -> usize {
        self.0.len() / 8
    }

    /// Whether no row survived.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The ids in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        (self.0.chunks_exact(8)).map(|b| u64::from_le_bytes(b.try_into().expect("eight bytes")))
    }
}

/// Reads a reply front to back; every short read is a protocol error.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], YokanError> {
        let end = (self.at.checked_add(n))
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| YokanError::Protocol(format!("truncated {what}")))?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, YokanError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("four bytes")))
    }

    /// A `u32`-length-prefixed byte string, as its span in the buffer.
    fn span(&mut self) -> Result<Span, YokanError> {
        let len = self.u32()? as usize;
        self.take(len, "byte string")?;
        Ok(Span {
            start: self.at - len,
            end: self.at,
        })
    }
}

impl<'a> FilterView<'a> {
    /// Decode the filter slot at the start of `slot`; returns the view and
    /// the bytes it spans. A short slot or an unknown tag is a protocol
    /// error.
    pub(crate) fn parse(slot: &'a [u8]) -> Result<(FilterView<'a>, usize), YokanError> {
        let short = || YokanError::Protocol("truncated filter reply".into());
        match *slot.first().ok_or_else(short)? {
            FILTER_MISSING => Ok((FilterView::Missing, 1)),
            FILTER_NOT_COLUMNAR => Ok((FilterView::NotColumnar, 1)),
            FILTER_IDS => {
                // Tag, four counters and the id count, then the ids.
                let head = slot.get(..21).ok_or_else(short)?;
                let word = |i: usize| {
                    let at = 1 + 4 * i;
                    u32::from_le_bytes(head[at..at + 4].try_into().expect("four bytes"))
                };
                let end = 21 + 8 * word(4) as usize;
                let ids = SurvivorIds(slot.get(21..end).ok_or_else(short)?);
                let view = FilterView::Ids {
                    ids,
                    rows_in: word(0),
                    pages_scanned: word(1),
                    pages_skipped: word(2),
                    stored_bytes: word(3),
                };
                Ok((view, end))
            }
            t => Err(YokanError::Protocol(format!("bad filter reply tag {t}"))),
        }
    }
}

impl From<FilterView<'_>> for FilterReply {
    fn from(view: FilterView<'_>) -> FilterReply {
        match view {
            FilterView::Missing => FilterReply::Missing,
            FilterView::NotColumnar => FilterReply::NotColumnar,
            FilterView::Ids {
                ids,
                rows_in,
                pages_scanned,
                pages_skipped,
                stored_bytes,
            } => FilterReply::Ids {
                ids: ids.iter().collect(),
                rows_in,
                pages_scanned,
                pages_skipped,
                stored_bytes,
            },
        }
    }
}

/// Append a columnar filter slot in one reserve: the tag, the counters and
/// the id count as one 21-byte copy, then the survivor ids as one block.
pub(crate) fn put_ids_slot(out: &mut BytesMut, counts: [u32; 4], ids: &[u64]) {
    let mut head = [FILTER_IDS; 21];
    let words = counts.into_iter().chain([ids.len() as u32]);
    for (dst, w) in head[1..].chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
    let at = out.len() + head.len();
    out.reserve(head.len() + 8 * ids.len());
    out.put_slice(&head);
    out.resize(at + 8 * ids.len(), 0);
    for (dst, id) in out[at..].chunks_exact_mut(8).zip(ids) {
        dst.copy_from_slice(&id.to_le_bytes());
    }
}

/// The form of a range-filter page: a [`FilterReply`] per kept key, or
/// its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScanForm {
    Filter,
    Values,
}

/// A byte range of the response.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    fn of(self, buf: &[u8]) -> &[u8] {
        &buf[self.start..self.end]
    }
}

/// One kept key: its middle, and its whole slot (tag or length prefix
/// included).
#[derive(Debug, Clone, Copy)]
struct Entry {
    middle: Span,
    slot: Span,
}

/// One page of a range filter or value scan, read in place (see the module
/// docs). Entries are in key order; every accessor takes an entry index
/// below [`ScanPage::len`].
#[derive(Debug, Clone)]
pub struct ScanPage {
    resp: Bytes,
    prefix: Span,
    suffix: Span,
    entries: Vec<Entry>,
    form: ScanForm,
}

impl ScanPage {
    /// Check `resp` end to end and record where each entry lies. A
    /// truncated block, a slot count unequal to the key count or a bad
    /// filter tag is a protocol error.
    pub(crate) fn decode(resp: Bytes, form: ScanForm) -> Result<ScanPage, YokanError> {
        let mut r = Reader { buf: &resp, at: 0 };
        let (prefix, suffix) = (r.span()?, r.span()?);
        let n = r.u32()? as usize;
        // Each entry takes at least four bytes: size nothing from `n` alone.
        let mut entries = Vec::with_capacity(n.min(resp.len() / 4));
        for _ in 0..n {
            let middle = r.span()?;
            entries.push(Entry {
                middle,
                slot: middle,
            });
        }
        let replies = r.u32()? as usize;
        if replies != n {
            return Err(YokanError::Protocol(format!(
                "{replies} filter replies for {n} keys"
            )));
        }
        for e in &mut entries {
            let start = r.at;
            match form {
                ScanForm::Filter => r.at += FilterView::parse(&resp[start..])?.1,
                ScanForm::Values => drop(r.span()?),
            }
            e.slot = Span { start, end: r.at };
        }
        Ok(ScanPage {
            resp,
            prefix,
            suffix,
            entries,
            form,
        })
    }

    /// Entries on the page.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the page holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry `i`'s key as the shared prefix, its own middle and the shared
    /// suffix.
    pub fn key_parts(&self, i: usize) -> [&[u8]; 3] {
        [
            self.prefix.of(&self.resp),
            self.entries[i].middle.of(&self.resp),
            self.suffix.of(&self.resp),
        ]
    }

    /// Entry `i`'s key into `key`, replacing what it held.
    pub fn key_into(&self, i: usize, key: &mut Vec<u8>) {
        key.clear();
        for part in self.key_parts(i) {
            key.extend_from_slice(part);
        }
    }

    /// Entry `i`'s key, owned.
    pub fn key(&self, i: usize) -> Vec<u8> {
        let mut key = Vec::new();
        self.key_into(i, &mut key);
        key
    }

    /// Entry `i`'s filter reply. Panics on a value-scan page.
    pub fn reply(&self, i: usize) -> FilterView<'_> {
        assert_eq!(self.form, ScanForm::Filter, "a value scan has no replies");
        let slot = self.entries[i].slot.of(&self.resp);
        FilterView::parse(slot)
            .expect("slots are checked on decode")
            .0
    }

    /// Entry `i`'s value, a slice of the response buffer. Panics on a
    /// range-filter page.
    pub fn value(&self, i: usize) -> Bytes {
        assert_eq!(self.form, ScanForm::Values, "a range filter has no values");
        let slot = self.entries[i].slot;
        self.resp.slice(slot.start + 4..slot.end)
    }

    /// Every entry owned: its key and its raw slot.
    pub(crate) fn to_owned_entries(&self) -> Vec<(Vec<u8>, Bytes)> {
        (0..self.len())
            .map(|i| {
                let slot = self.entries[i].slot;
                (self.key(i), self.resp.slice(slot.start..slot.end))
            })
            .collect()
    }

    /// The page holding `entries` (keys and raw slots, in key order), as a
    /// server would have sent it.
    pub(crate) fn from_owned_entries(
        entries: &[(Vec<u8>, Bytes)],
        form: ScanForm,
    ) -> Result<ScanPage, YokanError> {
        let mut keys = KeyBlock::default();
        for (k, _) in entries {
            keys.push(k);
        }
        let slots: usize = entries.iter().map(|(_, s)| s.len()).sum();
        let mut out = BytesMut::with_capacity(keys.encoded_len() + 4 + slots);
        keys.encode_into(&mut out);
        out.put_u32_le(entries.len() as u32);
        for (_, slot) in entries {
            out.put_slice(slot);
        }
        ScanPage::decode(out.freeze(), form)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{decode_keys_factored, encode_keys_factored, put_bytes};
    use proptest::collection::{btree_set, vec};
    use proptest::prelude::*;

    fn put_reply(out: &mut BytesMut, reply: &FilterReply) {
        match reply {
            FilterReply::Missing => out.put_u8(FILTER_MISSING),
            FilterReply::NotColumnar => out.put_u8(FILTER_NOT_COLUMNAR),
            FilterReply::Ids {
                ids,
                rows_in,
                pages_scanned,
                pages_skipped,
                stored_bytes,
            } => put_ids_slot(
                out,
                [*rows_in, *pages_scanned, *pages_skipped, *stored_bytes],
                ids,
            ),
        }
    }

    /// A reply page as the server sends it.
    fn encode_page<S>(entries: &[(Vec<u8>, S)], put: impl Fn(&mut BytesMut, &S)) -> Bytes {
        let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
        let mut out = BytesMut::from(&encode_keys_factored(&keys)[..]);
        out.put_u32_le(entries.len() as u32);
        for (_, s) in entries {
            put(&mut out, s);
        }
        out.freeze()
    }

    /// The owned decoding the page replaces: every key a `Vec`, every
    /// reply decoded on its own.
    fn reference_filter(resp: &Bytes) -> Option<Vec<(Vec<u8>, FilterReply)>> {
        let mut rest = resp.clone();
        let keys = decode_keys_factored(&mut rest).ok()?;
        let n = crate::encoding::get_u32(&mut rest).ok()? as usize;
        let mut replies = Vec::new();
        for _ in 0..n {
            let (view, len) = FilterView::parse(&rest).ok()?;
            replies.push(FilterReply::from(view));
            let _ = rest.split_to(len);
        }
        (replies.len() == keys.len()).then(|| keys.into_iter().zip(replies).collect())
    }

    fn filter_entries(page: &ScanPage) -> Vec<(Vec<u8>, FilterReply)> {
        (0..page.len())
            .map(|i| (page.key(i), page.reply(i).into()))
            .collect()
    }

    fn value_entries(page: &ScanPage) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..page.len())
            .map(|i| (page.key(i), page.value(i).to_vec()))
            .collect()
    }

    /// Sorted distinct keys that share a head and a tail more often than
    /// not, as product keys of one dataset do.
    fn keys() -> impl Strategy<Value = Vec<Vec<u8>>> {
        const HEADS: [&[u8]; 3] = [b"", b"ds/", b"0123456789abcdef"];
        const TAILS: [&[u8]; 3] = [b"", b"#", b"slc#col"];
        let key = (0usize..3, vec(any::<u8>(), 0..12), 0usize..3)
            .prop_map(|(h, m, t)| [HEADS[h], &m[..], TAILS[t]].concat());
        btree_set(key, 0..24).prop_map(|s| s.into_iter().collect())
    }

    fn reply() -> impl Strategy<Value = FilterReply> {
        let counts = (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>());
        prop_oneof![
            Just(FilterReply::Missing),
            Just(FilterReply::NotColumnar),
            (vec(any::<u64>(), 0..20), counts).prop_map(|(ids, c)| FilterReply::Ids {
                ids,
                rows_in: c.0,
                pages_scanned: c.1,
                pages_skipped: c.2,
                stored_bytes: c.3,
            }),
        ]
    }

    fn is_protocol<T: std::fmt::Debug>(res: Result<T, YokanError>) -> bool {
        matches!(res, Err(YokanError::Protocol(_)))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn filter_pages_decode_as_the_owned_reference(
            keys in keys(),
            replies in vec(reply(), 24),
        ) {
            let entries: Vec<_> = keys.into_iter().zip(replies).collect();
            let resp = encode_page(&entries, put_reply);
            let page = ScanPage::decode(resp.clone(), ScanForm::Filter).unwrap();
            prop_assert_eq!(&filter_entries(&page), &entries);
            prop_assert_eq!(reference_filter(&resp), Some(entries.clone()));
            for (i, (key, _)) in entries.iter().enumerate() {
                prop_assert_eq!(&page.key_parts(i).concat(), key);
            }
            // Rebuilt from its owned entries, the page is the same page.
            let owned = page.to_owned_entries();
            let rebuilt = ScanPage::from_owned_entries(&owned, ScanForm::Filter).unwrap();
            prop_assert_eq!(filter_entries(&rebuilt), entries);
            // Every cut of the page is a protocol error.
            for cut in 0..resp.len() {
                prop_assert!(is_protocol(ScanPage::decode(resp.slice(..cut), ScanForm::Filter)));
            }
        }

        #[test]
        fn value_pages_decode_as_the_owned_reference(
            keys in keys(),
            values in vec(vec(any::<u8>(), 0..16), 24),
        ) {
            let entries: Vec<_> = keys.into_iter().zip(values).collect();
            let resp = encode_page(&entries, |out, v: &Vec<u8>| put_bytes(out, v));
            let page = ScanPage::decode(resp.clone(), ScanForm::Values).unwrap();
            prop_assert_eq!(&value_entries(&page), &entries);
            let rebuilt =
                ScanPage::from_owned_entries(&page.to_owned_entries(), ScanForm::Values).unwrap();
            prop_assert_eq!(value_entries(&rebuilt), entries);
            for cut in 0..resp.len() {
                prop_assert!(is_protocol(ScanPage::decode(resp.slice(..cut), ScanForm::Values)));
            }
        }

        #[test]
        fn count_mismatches_and_bad_tags_are_protocol_errors(
            keys in keys(),
            replies in vec(reply(), 24),
            delta in prop_oneof![Just(1u32), Just(u32::MAX), Just(1 << 31), Just(7)],
            tag in 3u8..=255,
        ) {
            let entries: Vec<_> = keys.into_iter().zip(replies).collect();
            let values: Vec<_> = entries.iter().map(|(k, _)| (k.clone(), k.clone())).collect();
            let pages = [
                (encode_page(&entries, put_reply), ScanForm::Filter),
                (encode_page(&values, |out, v: &Vec<u8>| put_bytes(out, v)), ScanForm::Values),
            ];
            for (resp, form) in &pages {
                // The slot count follows the key block.
                let at = slot_count_at(resp);
                let mut bad = resp.to_vec();
                let n = u32::from_le_bytes(bad[at..at + 4].try_into().unwrap());
                bad[at..at + 4].copy_from_slice(&n.wrapping_add(delta).to_le_bytes());
                prop_assert!(is_protocol(ScanPage::decode(Bytes::from(bad), *form)));
            }
            if !entries.is_empty() {
                let resp = &pages[0].0;
                let mut bad = resp.to_vec();
                bad[slot_count_at(resp) + 4] = tag;
                prop_assert!(is_protocol(ScanPage::decode(Bytes::from(bad), ScanForm::Filter)));
            }
        }
    }

    /// Offset of the slot count: past the prefix, the suffix, the key
    /// count and every middle.
    fn slot_count_at(resp: &[u8]) -> usize {
        let len = |at: usize| u32::from_le_bytes(resp[at..at + 4].try_into().unwrap()) as usize;
        let mut at = 4 + len(0);
        at += 4 + len(at);
        let n = len(at);
        at += 4;
        for _ in 0..n {
            at += 4 + len(at);
        }
        at
    }

    #[test]
    fn survivor_ids_read_little_endian() {
        let mut out = BytesMut::new();
        put_ids_slot(&mut out, [4, 1, 2, 99], &[1, u64::MAX, 1 << 40]);
        let (view, len) = FilterView::parse(&out).unwrap();
        assert_eq!(len, out.len());
        let FilterView::Ids { ids, rows_in, .. } = view else {
            panic!("not an ids slot: {view:?}");
        };
        assert_eq!((ids.len(), rows_in), (3, 4));
        assert_eq!(ids.iter().collect::<Vec<_>>(), [1, u64::MAX, 1 << 40]);
    }
}
