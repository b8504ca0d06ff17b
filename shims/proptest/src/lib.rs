//! Offline stand-in for the subset of the `proptest` crate this workspace
//! uses, wired in via Cargo dependency renaming so test files keep
//! writing `use proptest::prelude::*;` unchanged.
//!
//! The build container has no crates.io access, so external dependencies
//! cannot be resolved; everything here is first-party. Supported surface:
//! the [`proptest!`] macro (with `#![proptest_config(...)]`),
//! [`prop_assert!`]/[`prop_assert_eq!`], [`Strategy`] with
//! `prop_map`/`prop_flat_map`, integer-range strategies, [`any`] for
//! primitives, and [`collection::vec`]. Cases are generated from a seed
//! derived deterministically from the test name and case index, so runs
//! are reproducible; there is **no shrinking** — a failure reports the
//! exact generated inputs instead.

#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic case generator (SplitMix64), seeded per (test, case).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded constructor; same seed, same value stream.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[lo, hi]` (inclusive).
    pub fn usize_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty size range");
        let span = (hi as u128) - (lo as u128) + 1;
        lo + (self.next_u64() as u128 % span) as usize
    }
}

/// A recipe for generating values of one type.
///
/// Unlike real proptest there is no shrinking and no value tree; a
/// strategy is just a deterministic function of the per-case RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy `f` builds
    /// from it (dependent generation).
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                ((self.start as i128) + off) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = ((hi as i128) - (lo as i128) + 1) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                ((lo as i128) + off) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types with a canonical whole-domain strategy ([`any`]).
pub trait Arbitrary: Debug + Sized {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// The whole-domain strategy for `T`: `any::<u64>()`, `any::<bool>()`, ...
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// An inclusive length range for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate a `Vec` whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_inclusive(self.size.lo, self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Derive the per-case seed from the test name and case index (FNV-1a),
/// so every test gets its own reproducible stream.
#[doc(hidden)]
pub fn case_seed(test_name: &str, case: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1_0000_01b3);
    }
    h ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Test-runner loop behind the [`proptest!`] macro. `case` fills
/// `inputs_dbg` with a rendering of the generated inputs before running
/// the body, so both `Err` returns (prop-assert failures) and panics can
/// report the exact inputs.
#[doc(hidden)]
pub fn run_cases(
    config: ProptestConfig,
    test_name: &str,
    mut case: impl FnMut(&mut TestRng, &mut String) -> Result<(), String>,
) {
    for i in 0..config.cases {
        let mut rng = TestRng::new(case_seed(test_name, i));
        let mut inputs = String::new();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng, &mut inputs)));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => panic!(
                "proptest case {}/{} of `{}` failed: {}\n  inputs: {}",
                i + 1,
                config.cases,
                test_name,
                msg,
                inputs
            ),
            Err(payload) => {
                eprintln!(
                    "proptest case {}/{} of `{}` panicked\n  inputs: {}",
                    i + 1,
                    config.cases,
                    test_name,
                    inputs
                );
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Define property tests: `proptest! { #![proptest_config(...)] fn name(x
/// in strategy, ...) { body } ... }`. Bodies use [`prop_assert!`]-family
/// macros; plain `assert!`/panics also fail the case (inputs are printed,
/// no shrinking). As in the real crate, each body carries its own
/// `#[test]`: the macro re-emits the body's attributes and adds none, so
/// a test is registered (and its cases run) once.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_cases(config, stringify!($name), |rng, inputs_dbg| {
                $(let $arg = $crate::Strategy::generate(&($strat), rng);)+
                *inputs_dbg = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                $body
                ::std::result::Result::Ok(())
            });
        }
    )*};
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", args...)`: fail the
/// current case (reporting its inputs) without panicking the process.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// `prop_assume!(cond)`: skip the current case when the precondition does
/// not hold. Unlike real proptest this shim does not draw a replacement
/// case — the case simply counts as passed — which keeps generation
/// deterministic and is fine at the assumption rates used here.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// `prop_assert_eq!(a, b)` / `prop_assert_eq!(a, b, "fmt", args...)`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` != `{:?}`",
                a, b
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                a, b, ::std::format!($($fmt)+)
            ));
        }
    }};
}

/// The usual glob-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assume, proptest};
    pub use crate::{Arbitrary, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_stay_in_bounds(
            x in 3usize..17,
            y in 1u8..=4,
            b in any::<bool>(),
            v in prop::collection::vec(0usize..10, 2..=5),
        ) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..=4).contains(&y));
            prop_assert!(usize::from(b) <= 1, "bool arg generated: {}", b);
            prop_assert!(v.len() >= 2 && v.len() <= 5);
            prop_assert!(v.iter().all(|&e| e < 10));
        }

        #[test]
        fn flat_map_dependency(pair in (1usize..6).prop_flat_map(|n| {
            prop::collection::vec(0usize..n, n..=n).prop_map(move |v| (n, v))
        })) {
            let (n, v) = pair;
            prop_assert_eq!(v.len(), n);
            prop_assert!(v.iter().all(|&e| e < n));
        }
    }

    #[test]
    fn failures_report_inputs() {
        let caught = std::panic::catch_unwind(|| {
            crate::run_cases(ProptestConfig::with_cases(8), "demo", |rng, dbg| {
                let x = crate::Strategy::generate(&(0usize..100), rng);
                *dbg = format!("x = {x:?}; ");
                prop_assert!(x > 1000, "x too small: {}", x);
                Ok(())
            });
        });
        let msg = *caught
            .expect_err("must fail")
            .downcast::<String>()
            .expect("string panic");
        assert!(msg.contains("x too small"), "got: {msg}");
        assert!(msg.contains("inputs: x ="), "got: {msg}");
    }

    #[test]
    fn seeds_are_stable() {
        let a = crate::case_seed("some_test", 3);
        let b = crate::case_seed("some_test", 3);
        let c = crate::case_seed("other_test", 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
