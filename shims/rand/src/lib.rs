//! Offline stand-in for the subset of the `rand` crate this workspace
//! uses (`StdRng::seed_from_u64` + `Rng::random_range`), wired in via
//! Cargo dependency renaming so callers keep writing `use rand::...`.
//!
//! The build container has no crates.io access, so external dependencies
//! cannot be resolved; everything here is first-party. The generator is
//! SplitMix64 — deterministic, seedable, and plenty for test-input
//! generation and synthetic meshes. It makes no statistical-quality or
//! value-stability promises beyond "same seed, same sequence, forever on
//! this shim". Range sampling uses simple modulo reduction, whose bias is
//! negligible for the small spans used here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Source of raw random words (the subset of `rand_core::RngCore` we use).
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a seed (the subset of `rand::SeedableRng` we use).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed. Same seed, same sequence.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample uniformly from a range, e.g. `rng.random_range(0..n)` or
    /// `rng.random_range(0.0..1.0)`.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

impl<T: RngCore> Rng for T {}

/// Ranges that [`Rng::random_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Element types with uniform range sampling. Kept as a single generic
/// surface (like real rand's `SampleUniform`) so integer literals in
/// `rng.random_range(0..2)` unify with the surrounding expression's type
/// instead of falling back to `i32`.
pub trait SampleUniform: Copy {
    /// Uniform draw from `[lo, hi)`.
    fn sample_exclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_exclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                assert!(lo < hi, "empty range");
                let span = ((hi as i128) - (lo as i128)) as u128;
                ((lo as i128) + (rng.next_u64() as u128 % span) as i128) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                assert!(lo <= hi, "empty range");
                let span = ((hi as i128) - (lo as i128) + 1) as u128;
                ((lo as i128) + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

int_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_exclusive<R: RngCore + ?Sized>(lo: f64, hi: f64, rng: &mut R) -> f64 {
        assert!(lo < hi, "empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * unit
    }
    fn sample_inclusive<R: RngCore + ?Sized>(lo: f64, hi: f64, rng: &mut R) -> f64 {
        assert!(lo <= hi, "empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * unit
    }
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_exclusive(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// The usual glob-import surface: `use rand::prelude::*;`.
pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::{Rng, RngCore, SampleRange, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_and_in_range() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let x: usize = a.random_range(3..17);
            assert!((3..17).contains(&x));
            assert_eq!(x, b.random_range(3..17));
        }
        let mut c = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: u8 = c.random_range(1..=4);
            assert!((1..=4).contains(&v));
            let f = c.random_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }
}
