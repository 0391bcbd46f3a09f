//! In-tree shim of `proptest`.
//!
//! Strategies generate values from a deterministic per-test RNG (seeded
//! from the test's module path and case index, so failures reproduce
//! run-to-run); there is no shrinking — a failing case reports the
//! generated inputs via `Debug` instead. The macro surface matches the
//! subset the workspace's property tests use: `proptest!` with an
//! optional `#![proptest_config(...)]` header, `prop_assert!`,
//! `prop_assert_eq!`, `prop_assume!`, `prop_oneof!`, `any::<T>()`,
//! range/tuple strategies, `prop::collection::vec`, `prop::option::of`,
//! and `Strategy::prop_map`.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::ops::Range;

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude`.
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Test-runner configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A failed or discarded test case.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// Assertion failure with message.
    Fail(String),
    /// `prop_assume!` rejection; the case is skipped, not failed.
    Reject(String),
}

impl TestCaseError {
    /// Failure constructor.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Rejection constructor.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// The RNG driving generation — deterministic per (test, case).
pub struct TestRunner {
    rng: StdRng,
}

impl TestRunner {
    /// Runner for a given test name and case index.
    pub fn new(test_name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Self {
            rng: StdRng::seed_from_u64(h ^ ((case as u64) << 32 | 0x9e37)),
        }
    }

    /// 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform index into `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0);
        self.rng.gen_range(0..n)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }
}

impl rand::RngCore for TestRunner {
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// A generator of random values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, runner: &mut TestRunner) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    /// Type-erase.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, runner: &mut TestRunner) -> T {
        (**self).generate(runner)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, runner: &mut TestRunner) -> U {
        (self.f)(self.base.generate(runner))
    }
}

/// Constant strategy.
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _runner: &mut TestRunner) -> T {
        self.0.clone()
    }
}

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary: Sized {
    /// Draw one value.
    fn arbitrary(runner: &mut TestRunner) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(runner: &mut TestRunner) -> Self {
                runner.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(runner: &mut TestRunner) -> Self {
        runner.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(runner: &mut TestRunner) -> Self {
        // Finite floats only: tests feed these into arithmetic.
        f64::from_bits(runner.next_u64() >> 12)
    }
}

/// The `any::<T>()` strategy.
pub struct Any<T>(std::marker::PhantomData<T>);

/// Whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, runner: &mut TestRunner) -> T {
        T::arbitrary(runner)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, runner: &mut TestRunner) -> $t {
                runner.rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, runner: &mut TestRunner) -> Self::Value {
                ($(self.$idx.generate(runner),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

/// Size specification for collection strategies.
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { lo: n, hi: n }
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::*`).

    use super::{SizeRange, Strategy, TestRunner};

    /// Vec of `element` values with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy produced by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            let len = if self.size.lo == self.size.hi {
                self.size.lo
            } else {
                self.size.lo + runner.index(self.size.hi - self.size.lo + 1)
            };
            (0..len).map(|_| self.element.generate(runner)).collect()
        }
    }
}

pub mod option {
    //! Option strategies (`prop::option::of`).

    use super::{Strategy, TestRunner};

    /// `None` one time in four, `Some(inner)` otherwise (matches real
    //  proptest's default weighting).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Strategy produced by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, runner: &mut TestRunner) -> Option<S::Value> {
            if runner.chance(0.25) {
                None
            } else {
                Some(self.inner.generate(runner))
            }
        }
    }
}

/// Uniform choice among boxed strategies (backs `prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Build from type-erased alternatives.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Self { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, runner: &mut TestRunner) -> T {
        let i = runner.index(self.options.len());
        self.options[i].generate(runner)
    }
}

/// Uniform choice among strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(::std::vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Property assertion: fails the case (with message) instead of panicking
/// directly, so the runner can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n {}",
                stringify!($left), stringify!($right), l, r, ::std::format!($($fmt)+),
            )));
        }
    }};
}

/// Inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left), stringify!($right), l,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: `{} != {}`\n  both: {:?}\n {}",
                stringify!($left), stringify!($right), l, ::std::format!($($fmt)+),
            )));
        }
    }};
}

/// Discard the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Define property tests. Accepts an optional
/// `#![proptest_config(expr)]` header followed by test functions whose
/// arguments are drawn from strategies (`arg in strategy`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ( ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let test_name = ::std::concat!(::std::module_path!(), "::", ::std::stringify!($name));
                for case in 0..cfg.cases {
                    let mut runner = $crate::TestRunner::new(test_name, case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut runner);)+
                    let inputs = ::std::format!(
                        ::std::concat!($(::std::stringify!($arg), " = {:?}\n"),+),
                        $(&$arg),+
                    );
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match outcome {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                        ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                            ::std::panic!(
                                "proptest case {case} failed: {msg}\ninputs:\n{inputs}"
                            );
                        }
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_generation() {
        let s = prop::collection::vec(any::<u8>(), 1..7);
        let mut r1 = crate::TestRunner::new("t", 3);
        let mut r2 = crate::TestRunner::new("t", 3);
        assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
    }

    #[test]
    fn vec_lengths_respect_range() {
        let s = prop::collection::vec(any::<u8>(), 2..5);
        for case in 0..200 {
            let mut r = crate::TestRunner::new("len", case);
            let v = s.generate(&mut r);
            assert!((2..5).contains(&v.len()), "len = {}", v.len());
        }
    }

    #[test]
    fn ranges_and_tuples() {
        let s = (0i64..4, any::<bool>());
        for case in 0..100 {
            let mut r = crate::TestRunner::new("rt", case);
            let (i, _b) = s.generate(&mut r);
            assert!((0..4).contains(&i));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for case in 0..200 {
            let mut r = crate::TestRunner::new("oneof", case);
            seen[s.generate(&mut r) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro surface itself works end-to-end.
        #[test]
        fn macro_roundtrip(v in prop::collection::vec(any::<u8>(), 0..10), flag in any::<bool>()) {
            prop_assume!(v.len() != 9);
            prop_assert!(v.len() < 10);
            let doubled: Vec<u16> = v.iter().map(|&x| x as u16 * 2).collect();
            prop_assert_eq!(doubled.len(), v.len());
            if flag {
                prop_assert_ne!(v.len(), 100);
            }
        }
    }
}
