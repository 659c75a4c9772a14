//! Offline drop-in subset of the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the small slice of the `rand` 0.8 API it actually uses:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], the [`Rng`]
//! extension methods (`gen`, `gen_range`, `gen_bool`), and
//! [`distributions::WeightedIndex`]. The generator is xoshiro256++
//! seeded through SplitMix64 — deterministic, fast, and of high enough
//! statistical quality for the seeded synthetic datasets and randomized
//! property tests in this repository. The output *streams* differ from
//! the real `rand` crate's ChaCha-based `StdRng`, so regenerated
//! datasets differ in content (not in shape) from runs against
//! upstream `rand`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Returns the next random `u32`.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable generators (subset: `seed_from_u64`).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that [`Rng::gen`] can produce.
pub trait Standard: Sized {
    /// Draws one value from the standard distribution of `Self`.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Numeric types usable with [`Rng::gen_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)` (`hi` exclusive).
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi]` (`hi` inclusive).
    fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Unbiased-enough integer draw in `[0, span)` via 128-bit widening
/// multiply (Lemire's method without the rejection step; bias is
/// `< span / 2^64`, far below anything these seeded datasets can see).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                lo + below(rng, (hi - lo) as u64) as $t
            }
            fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + below(rng, span + 1) as $t
            }
        }
    )*};
}

impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                lo.wrapping_add(below(rng, lo.abs_diff(hi) as u64) as $t)
            }
            fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                let span = lo.abs_diff(hi) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(below(rng, span + 1) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range: empty range");
        lo + f64::draw(rng) * (hi - lo)
    }
    fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo <= hi, "gen_range: empty range");
        lo + f64::draw(rng) * (hi - lo)
    }
}

impl SampleUniform for f32 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "gen_range: empty range");
        lo + f32::draw(rng) * (hi - lo)
    }
    fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo <= hi, "gen_range: empty range");
        lo + f32::draw(rng) * (hi - lo)
    }
}

/// Ranges accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniform value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_closed(rng, *self.start(), *self.end())
    }
}

/// User-facing random-value methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a value from the standard distribution of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draws a uniform value from `range`.
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} not in [0, 1]");
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// The named generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ seeded via SplitMix64 — the workspace's standard
    /// deterministic generator (API-compatible stand-in for
    /// `rand::rngs::StdRng`; the stream differs from upstream).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the 64-bit seed into 256 bits of
            // state; guarantees a nonzero state for any seed.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
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
}

/// Distributions over values (subset: [`WeightedIndex`](crate::distributions::WeightedIndex)).
pub mod distributions {
    use super::{RngCore, Standard};

    /// A distribution that can be sampled with any generator.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Error constructing a [`WeightedIndex`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WeightedError(pub &'static str);

    impl std::fmt::Display for WeightedError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    impl std::error::Error for WeightedError {}

    /// Samples indices `0..weights.len()` proportionally to the weights.
    #[derive(Debug, Clone)]
    pub struct WeightedIndex {
        cumulative: Vec<f64>,
        total: f64,
    }

    impl WeightedIndex {
        /// Builds the sampler from non-negative weights.
        ///
        /// # Errors
        ///
        /// Returns [`WeightedError`] when the list is empty, any weight
        /// is negative or non-finite, or all weights are zero.
        pub fn new<I>(weights: I) -> Result<WeightedIndex, WeightedError>
        where
            I: IntoIterator,
            I::Item: std::borrow::Borrow<f64>,
        {
            use std::borrow::Borrow;
            let mut cumulative = Vec::new();
            let mut total = 0.0f64;
            for w in weights {
                let w = *w.borrow();
                if !w.is_finite() || w < 0.0 {
                    return Err(WeightedError("invalid weight"));
                }
                total += w;
                cumulative.push(total);
            }
            if cumulative.is_empty() {
                return Err(WeightedError("no weights"));
            }
            if total <= 0.0 {
                return Err(WeightedError("all weights zero"));
            }
            Ok(WeightedIndex { cumulative, total })
        }
    }

    impl Distribution<usize> for WeightedIndex {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
            let r = f64::draw(rng) * self.total;
            match self
                .cumulative
                .binary_search_by(|c| c.partial_cmp(&r).expect("finite cumulative weights"))
            {
                Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::distributions::{Distribution, WeightedIndex};
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_the_whole_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_interval_draws_look_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01, "{hits}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let dist = WeightedIndex::new([8.0, 1.0, 1.0]).unwrap();
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[dist.sample(&mut rng)] += 1;
        }
        assert!(
            counts[0] > counts[1] * 4 && counts[0] > counts[2] * 4,
            "{counts:?}"
        );
        assert!(counts[1] > 0 && counts[2] > 0);
    }

    #[test]
    fn weighted_index_rejects_bad_weights() {
        assert!(WeightedIndex::new(&[] as &[f64]).is_err());
        assert!(WeightedIndex::new([0.0, 0.0]).is_err());
        assert!(WeightedIndex::new([-1.0, 2.0]).is_err());
        assert!(WeightedIndex::new([f64::NAN]).is_err());
    }
}
