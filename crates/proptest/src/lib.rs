//! A vendored, zero-dependency stand-in for the subset of `proptest` that
//! megastream's property tests use.
//!
//! The build environment is offline (no crates.io), so the real `proptest`
//! cannot be fetched. This crate keeps the property tests' *source* intact
//! by re-implementing the consumed surface: the [`proptest!`] macro,
//! [`prop_assert!`]/[`prop_assert_eq!`], [`Strategy`] with `prop_map`,
//! [`any`], integer-range strategies, [`collection::vec`],
//! [`sample::select`], and [`ProptestConfig::with_cases`].
//!
//! Semantics differ from real proptest in one way: cases are drawn from a
//! seeded RNG with **no shrinking**. Failures print the drawn case number;
//! determinism (same binary → same cases) is preserved.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SampleRange, Standard};

/// Per-test configuration (only `cases` is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values, mirroring `proptest::strategy::Strategy`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

impl<T: Copy + 'static> Strategy for core::ops::Range<T>
where
    core::ops::Range<T>: SampleRange<T> + Clone,
{
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T: Copy + 'static> Strategy for core::ops::RangeInclusive<T>
where
    core::ops::RangeInclusive<T>: SampleRange<T> + Clone,
{
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

/// The full-domain strategy, mirroring `proptest::prelude::any`.
pub fn any<T: Standard>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// Strategy type of [`any`].
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Standard> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        rng.gen()
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9);

/// Collection strategies.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// A strategy generating `Vec`s of `element` with a length drawn from
    /// `size`, mirroring `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Strategy type of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Picks one element of `options` uniformly, mirroring
    /// `proptest::sample::select`.
    ///
    /// # Panics
    ///
    /// Panics (at sampling time) if `options` is empty.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        Select { options }
    }

    /// Strategy type of [`select`].
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            assert!(!self.options.is_empty(), "select of empty options");
            self.options[rng.gen_range(0..self.options.len())].clone()
        }
    }
}

/// Everything the tests import via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

#[doc(hidden)]
pub mod __rt {
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;

    /// Stable per-test seed: FNV-1a over the test name.
    pub fn seed_for(name: &str) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random draws of its strategies.
#[macro_export]
macro_rules! proptest {
    (@cfg ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                use $crate::Strategy as _;
                use $crate::__rt::SeedableRng as _;
                let __cases = ($cfg).cases;
                let __seed = $crate::__rt::seed_for(stringify!($name));
                $(let $arg = $strat;)*
                for __case in 0..__cases {
                    let mut __rng = $crate::__rt::StdRng::seed_from_u64(
                        __seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(__case) + 1)),
                    );
                    $(let $arg = $arg.sample(&mut __rng);)*
                    (|| $body)();
                }
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}
