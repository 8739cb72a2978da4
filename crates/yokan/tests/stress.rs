//! Concurrency stress tests for the storage backends.
//!
//! `MemBackend` (one ordered map behind one lock) and the LSM engine behind
//! `LsmBackend` promise the same observable contract: `put_if_absent` is
//! linearizable (exactly one winner per key, every loser sees the winner's
//! value), `list_keys` returns a sorted, prefix-filtered listing while other
//! threads are writing, both page a listing identically, and a
//! `put_multi` / `erase_multi` batch is atomic to concurrent readers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use yokan::{Backend, LsmBackend, MemBackend};

const THREADS: usize = 8;
const KEYS_PER_THREAD: usize = 200;
const CONTENDED_KEYS: usize = 32;

fn key(prefix: u8, i: usize) -> Vec<u8> {
    // Big-endian suffix: lexicographic order == numeric order, the property
    // HEPnOS event iteration depends on.
    let mut k = vec![prefix];
    k.extend_from_slice(&(i as u32).to_be_bytes());
    k
}

/// Mixed put/get/put_if_absent/list_keys workload from `THREADS` threads.
fn hammer(backend: Arc<dyn Backend>) {
    let winners: Vec<Vec<Option<Vec<u8>>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let backend = Arc::clone(&backend);
                scope.spawn(move || {
                    let mut my_claims = Vec::with_capacity(CONTENDED_KEYS);
                    for i in 0..KEYS_PER_THREAD {
                        // Private keys: put then read back.
                        let k = key(b'a' + t as u8, i);
                        backend.put(&k, &i.to_le_bytes()).unwrap();
                        assert_eq!(
                            backend.get(&k).unwrap().as_deref(),
                            Some(&i.to_le_bytes()[..])
                        );
                        // Contended keys: race to claim with put_if_absent.
                        if i < CONTENDED_KEYS {
                            let ck = key(b'Z', i);
                            my_claims.push(backend.put_if_absent(&ck, &[t as u8]).unwrap());
                        }
                        // Listings while writes are in flight must stay
                        // sorted and prefix-clean.
                        if i % 50 == 0 {
                            let listed = backend.list_keys(b"", b"Z", 0).unwrap();
                            assert!(
                                listed.windows(2).all(|w| w[0] < w[1]),
                                "concurrent listing not sorted"
                            );
                            assert!(listed.iter().all(|k| k[0] == b'Z'));
                        }
                    }
                    my_claims
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Linearizability of put_if_absent: per contended key, exactly one
    // thread saw None (it won), and everyone else saw the winner's value —
    // which must be what the backend still stores.
    for i in 0..CONTENDED_KEYS {
        let stored = backend.get(&key(b'Z', i)).unwrap().unwrap();
        let mut none_count = 0;
        for per_thread in &winners {
            match &per_thread[i] {
                None => none_count += 1,
                Some(seen) => assert_eq!(seen, &stored, "loser saw a non-winner value"),
            }
        }
        assert_eq!(none_count, 1, "key {i}: expected exactly one winner");
    }

    // Full listing: every thread's private keys, sorted, numeric order
    // preserved by the big-endian encoding.
    for t in 0..THREADS {
        let prefix = [b'a' + t as u8];
        let listed = backend.list_keys(b"", &prefix, 0).unwrap();
        let expected: Vec<Vec<u8>> = (0..KEYS_PER_THREAD).map(|i| key(prefix[0], i)).collect();
        assert_eq!(listed, expected, "thread {t} listing mismatch");
    }
    assert_eq!(
        backend.count().unwrap(),
        (THREADS * KEYS_PER_THREAD + CONTENDED_KEYS) as u64
    );
}

#[test]
fn mem_backend_survives_mixed_stress() {
    hammer(Arc::new(MemBackend::new()));
}

#[test]
fn lsm_backend_survives_mixed_stress() {
    let dir = std::env::temp_dir().join(format!("yokan-stress-lsm-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    hammer(Arc::new(LsmBackend::open(&dir).unwrap()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mem_listing_matches_lsm_reference() {
    // Same data in the in-memory map and in an LSM engine whose memtable is
    // small enough to flush while it loads: two independent implementations
    // of the listing, which must page byte-identical, sorted results.
    let dir = std::env::temp_dir().join(format!("yokan-stress-listing-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mem = MemBackend::new();
    let lsm = LsmBackend::open_with(
        &dir,
        lsmdb::Options {
            memtable_bytes: 4096,
            ..lsmdb::Options::default()
        },
    )
    .unwrap();
    let mut rng: u64 = 0x243F_6A88_85A3_08D3;
    for _ in 0..2000 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let kl = (rng >> 32) as usize % 12 + 1;
        let kb: Vec<u8> = (0..kl).map(|j| (rng >> (j * 5)) as u8 & 0x3f).collect();
        mem.put(&kb, &rng.to_le_bytes()).unwrap();
        lsm.put(&kb, &rng.to_le_bytes()).unwrap();
    }
    assert!(
        lsm.db().stats().flushes > 0,
        "the LSM reference never flushed"
    );
    for prefix in [&b""[..], &b"\x01"[..], &b"\x0a\x0b"[..]] {
        // Whole listing in one shot.
        assert_eq!(
            mem.list_keyvals(b"", prefix, 0).unwrap(),
            lsm.list_keyvals(b"", prefix, 0).unwrap()
        );
        // Paginated with a small limit, resuming from the last key. The
        // initial `from` is empty (below any prefix) so a key exactly equal
        // to the prefix is included, per the inclusive-at-prefix bound rule.
        let mut from = Vec::new();
        let mut paged = Vec::new();
        loop {
            let page = mem.list_keys(&from, prefix, 7).unwrap();
            if page.is_empty() {
                break;
            }
            from.clone_from(page.last().unwrap());
            paged.extend(page);
        }
        assert_eq!(paged, lsm.list_keys(b"", prefix, 0).unwrap());
    }
    drop(lsm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mem_batches_are_atomic_to_concurrent_readers() {
    // Each writer owns a pair `{a_i, b_i}`: it writes both halves with one
    // version in one `put_multi`, and every fourth round drops both in one
    // `erase_multi`. A reader listing the prefix must see each pair whole —
    // both halves with the same version, or neither.
    const WRITERS: u8 = 4;
    const READERS: usize = 2;
    // Each reader lists until it has made `LISTINGS` listings and seen
    // `WHOLE_PAIRS` written pairs: on a busy host a whole burst of writes
    // can fall between two listings, so a fixed count could miss them all.
    const LISTINGS: usize = 2000;
    const WHOLE_PAIRS: usize = 1000;
    let deadline = Instant::now() + Duration::from_secs(30);
    let backend = MemBackend::new();
    let pair_key = |w: u8, half: u8| vec![b'T', w, half];
    let start = Barrier::new(usize::from(WRITERS) + READERS);
    let done = AtomicBool::new(false);
    let whole_pairs_seen: usize = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (backend, start, done) = (&backend, &start, &done);
                scope.spawn(move || {
                    start.wait();
                    let mut v = 0u32;
                    while !done.load(Ordering::Acquire) {
                        let version = v.to_be_bytes().to_vec();
                        backend
                            .put_multi(&[
                                (pair_key(w, b'a'), version.clone()),
                                (pair_key(w, b'b'), version),
                            ])
                            .unwrap();
                        if v % 4 == 3 {
                            backend
                                .erase_multi(&[pair_key(w, b'a'), pair_key(w, b'b')])
                                .unwrap();
                        }
                        v += 1;
                    }
                    backend
                        .erase_multi(&[pair_key(w, b'a'), pair_key(w, b'b')])
                        .unwrap();
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let mut seen = 0;
                    let mut listings = 0;
                    while listings < LISTINGS || (seen < WHOLE_PAIRS && Instant::now() < deadline) {
                        listings += 1;
                        let listed = backend.list_keyvals(b"", b"T", 0).unwrap();
                        for w in 0..WRITERS {
                            let half = |h| {
                                listed
                                    .iter()
                                    .find(|(k, _)| *k == pair_key(w, h))
                                    .map(|(_, v)| v.clone())
                            };
                            let (a, b) = (half(b'a'), half(b'b'));
                            assert_eq!(a, b, "writer {w}: torn pair in {listed:?}");
                            seen += usize::from(a.is_some());
                        }
                    }
                    seen
                })
            })
            .collect();
        // Stop the writers before a reader's panic is rethrown, or the
        // scope would wait on them forever.
        let seen: Vec<_> = readers.into_iter().map(|h| h.join()).collect();
        done.store(true, Ordering::Release);
        for h in writers {
            h.join().unwrap();
        }
        seen.into_iter().map(|r| r.unwrap()).sum()
    });
    assert!(
        whole_pairs_seen >= WHOLE_PAIRS,
        "readers saw {whole_pairs_seen} written pairs"
    );
    assert_eq!(backend.count().unwrap(), 0);
}
