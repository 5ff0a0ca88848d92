//! Offline shim for `proptest`: the same `proptest!` / `Strategy` /
//! `prop_*` surface, backed by a deterministic xoshiro stream seeded
//! from the test's name. Runs a fixed 64 cases per property and does
//! not shrink failures — the failing inputs are printed instead.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases run per property.
pub const CASES: usize = 64;

/// Deterministic per-test generator, seeded from the test name.
pub fn new_test_rng(test_name: &str) -> SmallRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    SmallRng::seed_from_u64(h)
}

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;

    fn generate(&self, rng: &mut SmallRng) -> V {
        (**self).generate(rng)
    }
}

/// Erase a strategy's concrete type (used by `prop_oneof!`).
pub fn box_strategy<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// `Strategy::prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut SmallRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between same-valued strategies (see `prop_oneof!`).
pub struct Union<V> {
    arms: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    pub fn new(arms: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut SmallRng) -> V {
        let idx = rng.random_range(0..self.arms.len());
        self.arms[idx].generate(rng)
    }
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut SmallRng) -> Self;
}

impl<T: rand::Standard> Arbitrary for T {
    fn arbitrary(rng: &mut SmallRng) -> Self {
        rng.random()
    }
}

/// Whole-domain strategy for `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut SmallRng) -> T {
        T::arbitrary(rng)
    }
}

impl<T> Strategy for std::ops::Range<T>
where
    T: Clone,
    std::ops::Range<T>: rand::SampleRange<T>,
{
    type Value = T;

    fn generate(&self, rng: &mut SmallRng) -> T {
        rng.random_range(self.clone())
    }
}

impl<T> Strategy for std::ops::RangeInclusive<T>
where
    T: Clone,
    std::ops::RangeInclusive<T>: rand::SampleRange<T>,
{
    type Value = T;

    fn generate(&self, rng: &mut SmallRng) -> T {
        rng.random_range(self.clone())
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_strategy_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

pub mod collection {
    use super::{SmallRng, Strategy};
    use rand::Rng;

    /// Accepted length specs for [`vec()`]: `n`, `a..b`, `a..=b`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max_incl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_incl: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_incl: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max_incl: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.min..=self.size.max_incl);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::{any, Arbitrary, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Define property tests. Each generated `#[test]` runs [`CASES`]
/// deterministic cases; a failed `prop_assert*` reports the case index.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::new_test_rng(stringify!($name));
                for case in 0..$crate::CASES {
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)*
                    let outcome: ::std::result::Result<(), ::std::string::String> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(msg) = outcome {
                        ::std::panic!(
                            "property {} failed on case {}/{}: {}",
                            stringify!($name),
                            case + 1,
                            $crate::CASES,
                            msg
                        );
                    }
                }
            }
        )*
    };
}

/// Uniform choice across strategy expressions yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(::std::vec![$($crate::box_strategy($arm)),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left != right {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{:?}` != `{:?}` ({} != {})",
                left,
                right,
                stringify!($left),
                stringify!($right)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_across_runs() {
        let s = crate::collection::vec(0u32..100, 1..10);
        let mut a = crate::new_test_rng("x");
        let mut b = crate::new_test_rng("x");
        for _ in 0..20 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3u16..9, f in -1.0f64..1.0) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f), "f out of range: {}", f);
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![Just(1u8), Just(2u8)].prop_map(|x| x * 10)) {
            prop_assert!(v == 10 || v == 20);
        }

        #[test]
        fn vec_lengths(xs in crate::collection::vec(any::<bool>(), 2..5)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 5);
        }

        #[test]
        fn tuples_and_arrays((a, b) in (any::<u8>(), any::<[u8; 4]>())) {
            let _ = (a, b);
            prop_assert_eq!(b.len(), 4);
        }
    }
}
