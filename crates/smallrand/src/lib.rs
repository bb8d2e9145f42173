//! Deterministic pseudo-random numbers without external dependencies.
//!
//! The workspace must build on machines with no access to a crate
//! registry, so the external `rand` and `proptest` crates are replaced by
//! this self-contained implementation:
//!
//! * [`rngs::StdRng`] — xoshiro256++ seeded through SplitMix64, with the
//!   familiar `SeedableRng::seed_from_u64` constructor and
//!   `RngExt::random_range` sampling over the usual range types;
//! * [`prop`] — a miniature property-testing harness (seeded generators
//!   plus a case runner) used to port the former proptest suites.
//!
//! Everything here is deterministic: the same seed always produces the
//! same stream, on every platform, so generated data sets and property
//! cases are reproducible byte for byte.

#![forbid(unsafe_code)]

pub mod prop;

/// Core source of uniform 64-bit values.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Seeding constructor, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (expanded via SplitMix64).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Convenience sampling methods, mirroring the `rand` extension trait.
pub trait RngExt: RngCore {
    /// A uniform sample from `range`: `lo..hi` (half-open) or `lo..=hi`
    /// (inclusive) over the integer types and `f64`.
    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.random_range(0.0..1.0) < p
    }
}

impl<T: RngCore> RngExt for T {}

/// Types that can be drawn uniformly from a bounded range.
pub trait SampleUniform: Sized {
    /// Uniform sample in `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn sample_between<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let lo_w = lo as i128;
                let hi_w = hi as i128 + i128::from(inclusive);
                assert!(lo_w < hi_w, "cannot sample from empty range");
                let span = (hi_w - lo_w) as u128;
                // Multiply-shift keeps bias below 2^-64 per unit of span,
                // negligible for every range this workspace draws from.
                let v = (u128::from(rng.next_u64()) * span) >> 64;
                (lo_w + v as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        _inclusive: bool,
        rng: &mut R,
    ) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * unit
    }
}

/// Range forms accepted by [`RngExt::random_range`].
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw one uniform sample.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

impl<T: SampleUniform> SampleRange for core::ops::Range<T> {
    type Output = T;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform + Copy> SampleRange for core::ops::RangeInclusive<T> {
    type Output = T;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(*self.start(), *self.end(), true, rng)
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    pub use super::StdRng;
}

/// The workspace's standard generator: xoshiro256++.
///
/// Small, fast, and statistically solid for data generation and test-case
/// sampling (this is not a cryptographic generator).
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
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

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = move || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let a = rng.random_range(0..5usize);
            assert!(a < 5);
            let b = rng.random_range(3..=9);
            assert!((3..=9).contains(&b));
            let c = rng.random_range(-4i64..=4);
            assert!((-4..=4).contains(&c));
        }
    }

    #[test]
    fn int_range_hits_every_value() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.random_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_range_in_bounds_and_varied() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut lo_half = 0;
        for _ in 0..1000 {
            let x = rng.random_range(0.0..1.0);
            assert!((0.0..1.0).contains(&x));
            if x < 0.5 {
                lo_half += 1;
            }
        }
        // Roughly balanced halves.
        assert!((300..700).contains(&lo_half), "{lo_half}");
    }

    #[test]
    fn single_value_inclusive_range() {
        let mut rng = StdRng::seed_from_u64(17);
        assert_eq!(rng.random_range(5..=5usize), 5);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(19);
        let _ = rng.random_range(5..5usize);
    }
}
