//! Offline shim for the `rand` crate.
//!
//! Provides `RngCore` / `SeedableRng` / `Rng`, a deterministic `StdRng`
//! (xoshiro256** seeded through splitmix64), and a lazily-seeded
//! `thread_rng()`. Only the sampling surface this workspace uses is
//! implemented: `gen`, `gen_bool`, `gen_range` over integer and float
//! ranges, and `fill_bytes`.

use std::cell::RefCell;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// Core traits
// ---------------------------------------------------------------------------

/// Minimal random source.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let last = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&last[..rem.len()]);
        }
    }
}

/// Construction from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// Seed type (a byte array).
    type Seed: AsRef<[u8]> + AsMut<[u8]> + Default;

    /// Build from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build from a single `u64` (expanded via splitmix64).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let v = splitmix64(&mut sm).to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&v[..n]);
        }
        Self::from_seed(seed)
    }
}

/// High-level sampling helpers.
pub trait Rng: RngCore {
    /// Sample a value from the "standard" distribution for `T`.
    fn gen<T: SampleStandard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Bernoulli sample with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range");
        standard_f64(self.next_u64()) < p
    }

    /// Uniform sample from a range.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore> Rng for R {}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn standard_f64(bits: u64) -> f64 {
    // 53 mantissa bits -> uniform in [0, 1).
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn standard_f32(bits: u32) -> f32 {
    (bits >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

/// Types samplable by [`Rng::gen`].
pub trait SampleStandard {
    /// Draw one value.
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self;
}

impl SampleStandard for f64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> f64 {
        standard_f64(rng.next_u64())
    }
}
impl SampleStandard for f32 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> f32 {
        standard_f32(rng.next_u32())
    }
}
impl SampleStandard for bool {
    fn sample_standard<R: RngCore>(rng: &mut R) -> bool {
        rng.next_u32() & 1 == 1
    }
}
macro_rules! standard_int {
    ($($t:ty => $via:ty),*) => {$(
        impl SampleStandard for $t {
            fn sample_standard<R: RngCore>(rng: &mut R) -> $t {
                <$via>::sample_standard_bits(rng) as $t
            }
        }
    )*};
}
trait StandardBits {
    fn sample_standard_bits<R: RngCore>(rng: &mut R) -> Self;
}
impl StandardBits for u32 {
    fn sample_standard_bits<R: RngCore>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}
impl StandardBits for u64 {
    fn sample_standard_bits<R: RngCore>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}
standard_int!(u8 => u32, u16 => u32, u32 => u32, i8 => u32, i16 => u32, i32 => u32,
              u64 => u64, i64 => u64, usize => u64, isize => u64, u128 => u64, i128 => u64);

/// Types with uniform range sampling.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform in `[low, high)`.
    fn sample_uniform<R: RngCore>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Uniform in `[low, high]`.
    fn sample_uniform_inclusive<R: RngCore>(rng: &mut R, low: Self, high: Self) -> Self;
}

impl SampleUniform for f64 {
    fn sample_uniform<R: RngCore>(rng: &mut R, low: f64, high: f64) -> f64 {
        low + standard_f64(rng.next_u64()) * (high - low)
    }
    fn sample_uniform_inclusive<R: RngCore>(rng: &mut R, low: f64, high: f64) -> f64 {
        Self::sample_uniform(rng, low, high)
    }
}
impl SampleUniform for f32 {
    fn sample_uniform<R: RngCore>(rng: &mut R, low: f32, high: f32) -> f32 {
        low + standard_f32(rng.next_u32()) * (high - low)
    }
    fn sample_uniform_inclusive<R: RngCore>(rng: &mut R, low: f32, high: f32) -> f32 {
        Self::sample_uniform(rng, low, high)
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low < high, "gen_range: empty range");
                let span = (high as i128).wrapping_sub(low as i128) as u128;
                let v = sample_below(rng, span);
                ((low as i128).wrapping_add(v as i128)) as $t
            }
            fn sample_uniform_inclusive<R: RngCore>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low <= high, "gen_range: empty range");
                let span = ((high as i128).wrapping_sub(low as i128) as u128).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range of a 128-bit type.
                    let hi = rng.next_u64() as u128;
                    let lo = rng.next_u64() as u128;
                    return ((hi << 64) | lo) as $t;
                }
                let v = sample_below(rng, span);
                ((low as i128).wrapping_add(v as i128)) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Uniform value in `[0, bound)` by rejection sampling (bound > 0).
fn sample_below<R: RngCore>(rng: &mut R, bound: u128) -> u128 {
    debug_assert!(bound > 0);
    // Zone is the largest multiple of `bound` fitting in u128 minus one.
    let zone = u128::MAX - (u128::MAX % bound) - 1;
    loop {
        let hi = rng.next_u64() as u128;
        let lo = rng.next_u64() as u128;
        let v = (hi << 64) | lo;
        if v <= zone {
            return v % bound;
        }
    }
}

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T {
        T::sample_uniform(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_uniform_inclusive(rng, low, high)
    }
}

// ---------------------------------------------------------------------------
// StdRng (xoshiro256**)
// ---------------------------------------------------------------------------

/// RNG generator types.
pub mod rngs {
    use super::*;

    /// Deterministic PRNG seeded from 32 bytes (xoshiro256**).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn step(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.step() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.step()
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> StdRng {
            // Run the raw seed words through splitmix64 so similar seeds
            // (e.g. consecutive event ids) produce uncorrelated streams,
            // and an all-zero seed cannot yield the degenerate zero state.
            let mut s = [0u64; 4];
            let mut mix = 0x5851_F42D_4C95_7F2Du64;
            for (i, word) in s.iter_mut().enumerate() {
                let mut w = [0u8; 8];
                w.copy_from_slice(&seed[i * 8..i * 8 + 8]);
                mix ^= u64::from_le_bytes(w);
                *word = splitmix64(&mut mix);
            }
            StdRng { s }
        }
    }

    /// Handle to the thread-local RNG (see [`super::thread_rng`]).
    #[derive(Debug, Clone)]
    pub struct ThreadRng {
        _private: (),
    }

    thread_local! {
        static THREAD_RNG: RefCell<StdRng> = RefCell::new(StdRng::from_seed(entropy_seed()));
    }

    fn entropy_seed() -> [u8; 32] {
        // No OS entropy API in std; derive a per-thread seed from
        // RandomState (randomized per process) plus time and a counter.
        use std::hash::{BuildHasher, Hasher, RandomState};
        let rs = RandomState::new();
        let mut seed = [0u8; 32];
        for (i, chunk) in seed.chunks_mut(8).enumerate() {
            let mut h = rs.build_hasher();
            h.write_usize(i);
            h.write_u128(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos())
                    .unwrap_or(0),
            );
            chunk.copy_from_slice(&h.finish().to_le_bytes());
        }
        seed
    }

    impl ThreadRng {
        pub(crate) fn new() -> ThreadRng {
            ThreadRng { _private: () }
        }
    }

    impl RngCore for ThreadRng {
        fn next_u32(&mut self) -> u32 {
            THREAD_RNG.with(|r| r.borrow_mut().next_u32())
        }
        fn next_u64(&mut self) -> u64 {
            THREAD_RNG.with(|r| r.borrow_mut().next_u64())
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            THREAD_RNG.with(|r| r.borrow_mut().fill_bytes(dest))
        }
    }
}

/// The thread-local RNG, seeded once per thread from process entropy.
pub fn thread_rng() -> rngs::ThreadRng {
    rngs::ThreadRng::new()
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::from_seed([7u8; 32]);
        let mut b = StdRng::from_seed([7u8; 32]);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::from_seed([8u8; 32]);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = StdRng::from_seed([0u8; 32]);
        let vals: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::from_seed([1u8; 32]);
        for _ in 0..1000 {
            let f = r.gen_range(-0.7..0.7);
            assert!((-0.7..0.7).contains(&f));
            let g: f32 = r.gen_range(0.85f32..1.0);
            assert!((0.85..1.0).contains(&g));
            let i = r.gen_range(40..400);
            assert!((40..400).contains(&i));
            let u: u64 = r.gen_range(0..=5);
            assert!(u <= 5);
        }
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut r = StdRng::from_seed([2u8; 32]);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((1_800..3_200).contains(&hits), "hits = {hits}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = StdRng::from_seed([3u8; 32]);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        let mut tr = thread_rng();
        let mut b16 = [0u8; 16];
        tr.fill_bytes(&mut b16);
    }
}
