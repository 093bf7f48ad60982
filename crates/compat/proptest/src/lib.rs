//! Offline stand-in for `proptest` 1.x (see `crates/compat/README.md`).
//!
//! Supports the strategy surface the workspace's property tests use:
//!
//! * numeric range strategies (`0.0f64..1.0`, `8usize..24`, inclusive
//!   forms),
//! * char-class regex strategies (`"[a-z]{1,8}"` — classes with
//!   ranges/literals plus a `{lo,hi}` or `{n}` quantifier, sequences
//!   thereof, and literal characters),
//! * [`collection::vec`] with exact or ranged sizes,
//! * tuple strategies up to arity 5, [`strategy::Just`], and [`prop_oneof!`],
//! * the [`proptest!`] macro with `#![proptest_config(...)]`, and the
//!   `prop_assert!`/`prop_assert_eq!` assertion forms.
//!
//! Each case's RNG seed derives from the test's module path, name, and
//! case index, so runs are deterministic and failures reproduce. There
//! is **no shrinking**: a failing case panics with its case index so it
//! can be replayed under a debugger.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-run configuration (subset of the real `ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

pub mod test_runner {
    //! Deterministic per-case RNG derivation.

    use super::*;

    /// The RNG handed to strategies; a thin wrapper over the seeded
    /// [`StdRng`] so the strategy trait does not leak the rand types.
    pub struct TestRng(pub(crate) StdRng);

    impl TestRng {
        /// Derive a case RNG from the test identity and case index.
        pub fn deterministic(test_path: &str, case: u32) -> Self {
            // FNV-1a over the test path, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_path.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng(StdRng::seed_from_u64(
                h ^ ((case as u64) << 32 | case as u64),
            ))
        }
    }
}

use test_runner::TestRng;

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::*;
    use std::ops::{Range, RangeInclusive};

    /// A generator of random values (stand-in for `proptest::strategy::
    /// Strategy`; generation only, no value tree / shrinking).
    pub trait Strategy {
        /// Type of the generated values.
        type Value;
        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident: $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A: 0, B: 1);
    impl_tuple_strategy!(A: 0, B: 1, C: 2);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);

    /// `&str` strategies are regex patterns over a supported subset:
    /// sequences of literal characters and `[...]` classes, each with
    /// an optional `{n}` / `{lo,hi}` quantifier.
    impl Strategy for str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            super::pattern::generate(self, &mut rng.0)
        }
    }

    /// Uniform choice among boxed strategies (backs [`prop_oneof!`]).
    pub struct Union<V> {
        options: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V> Union<V> {
        /// Build from the already-boxed alternatives.
        pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
            assert!(
                !options.is_empty(),
                "prop_oneof! needs at least one alternative"
            );
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.0.gen_range(0..self.options.len());
            self.options[i].generate(rng)
        }
    }

    /// Boxes one [`prop_oneof!`] alternative. A plain `as Box<dyn
    /// Strategy<Value = _>>` cast would not drive inference of the
    /// union's value type; a generic fn call does.
    #[doc(hidden)]
    pub fn __push_boxed<S>(options: &mut Vec<Box<dyn Strategy<Value = S::Value>>>, s: S)
    where
        S: Strategy + 'static,
    {
        options.push(Box::new(s));
    }
}

mod pattern {
    //! Generation from the supported regex subset.

    use rand::rngs::StdRng;
    use rand::Rng;

    /// One atom of the pattern plus its repetition bounds.
    struct Piece {
        /// Characters the atom can produce.
        choices: Vec<char>,
        lo: usize,
        hi: usize,
    }

    fn parse(pattern: &str) -> Vec<Piece> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        let mut pieces = Vec::new();
        while i < chars.len() {
            let choices = match chars[i] {
                '[' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .unwrap_or_else(|| panic!("unclosed [ in pattern {pattern:?}"))
                        + i;
                    let class = &chars[i + 1..close];
                    i = close + 1;
                    expand_class(class, pattern)
                }
                '\\' => {
                    i += 1;
                    let c = *chars
                        .get(i)
                        .unwrap_or_else(|| panic!("trailing \\ in pattern {pattern:?}"));
                    i += 1;
                    vec![c]
                }
                c => {
                    assert!(
                        !"(){}|*+?.^$".contains(c),
                        "unsupported regex feature {c:?} in pattern {pattern:?}",
                    );
                    i += 1;
                    vec![c]
                }
            };
            let (lo, hi) = if chars.get(i) == Some(&'{') {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .unwrap_or_else(|| panic!("unclosed {{ in pattern {pattern:?}"))
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("bad {lo,hi} bound"),
                        hi.trim().parse().expect("bad {lo,hi} bound"),
                    ),
                    None => {
                        let n = body.trim().parse().expect("bad {n} bound");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            pieces.push(Piece { choices, lo, hi });
        }
        pieces
    }

    fn expand_class(class: &[char], pattern: &str) -> Vec<char> {
        assert!(
            class.first() != Some(&'^'),
            "negated classes unsupported in pattern {pattern:?}",
        );
        let mut out = Vec::new();
        let mut j = 0;
        while j < class.len() {
            // `a-z` range (a `-` at either end is a literal).
            if j + 2 < class.len() && class[j + 1] == '-' {
                let (lo, hi) = (class[j], class[j + 2]);
                assert!(lo <= hi, "inverted class range in pattern {pattern:?}");
                for c in lo..=hi {
                    out.push(c);
                }
                j += 3;
            } else {
                out.push(class[j]);
                j += 1;
            }
        }
        assert!(!out.is_empty(), "empty class in pattern {pattern:?}");
        out
    }

    pub fn generate(pattern: &str, rng: &mut StdRng) -> String {
        let mut out = String::new();
        for piece in parse(pattern) {
            let n = rng.gen_range(piece.lo..=piece.hi);
            for _ in 0..n {
                out.push(piece.choices[rng.gen_range(0..piece.choices.len())]);
            }
        }
        out
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// Acceptable size arguments for [`vec()`].
    pub trait IntoSizeRange {
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    /// Strategy for vectors of `element` values with `size` elements.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        VecStrategy { element, lo, hi }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.0.gen_range(self.lo..=self.hi);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The glob-import surface, mirroring `proptest::prelude`.

    pub use crate::strategy::{Just, Strategy, Union};
    pub use crate::test_runner::TestRng;
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// Mirrors `proptest::prelude::prop` (e.g. `prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Assert inside a property; failures panic with the case context the
/// harness adds. (The real crate returns an error for shrinking; there
/// is no shrinking here, so plain panics are equivalent.)
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// `assert_eq!` inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Uniform choice among alternative strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        let mut options = Vec::new();
        $( $crate::strategy::__push_boxed(&mut options, $strategy); )+
        $crate::strategy::Union::new(options)
    }};
}

/// Define property tests. Each `fn name(pat in strategy, ...)` becomes
/// a `#[test]` running `cases` random cases (from `#![proptest_config]`
/// or the default).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let test_path = concat!(module_path!(), "::", stringify!($name));
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::TestRng::deterministic(test_path, case);
                $(let $pat = $crate::strategy::Strategy::generate(&($strategy), &mut rng);)+
                let run = || -> () { $body };
                if let Err(payload) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                    eprintln!(
                        "proptest case {case}/{} of {test_path} failed (deterministic seed; \
                         re-run reproduces it; no shrinking in the offline stand-in)",
                        config.cases,
                    );
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn pattern_generation_respects_class_and_bounds() {
        let mut rng = TestRng::deterministic("pattern_test", 0);
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z]{1,8}", &mut rng);
            assert!((1..=8).contains(&s.chars().count()), "bad len: {s:?}");
            assert!(
                s.chars().all(|c| c.is_ascii_lowercase()),
                "bad chars: {s:?}"
            );
            let t = Strategy::generate(&"[A-Za-z0-9 ,._-]{0,24}", &mut rng);
            assert!(t.chars().count() <= 24);
            assert!(t
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || " ,._-".contains(c)));
            let u = Strategy::generate(&"[ -~]{0,16}", &mut rng);
            assert!(u.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn deterministic_per_case() {
        let mut a = TestRng::deterministic("x", 3);
        let mut b = TestRng::deterministic("x", 3);
        assert_eq!(
            Strategy::generate(&"[a-z]{1,8}", &mut a),
            Strategy::generate(&"[a-z]{1,8}", &mut b),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: patterns, tuples, vec, oneof, ranges.
        #[test]
        fn macro_smoke(v in prop::collection::vec(0.0f64..1.0, 1..10),
                       (a, b) in (0usize..5, 0usize..5),
                       s in prop_oneof!["[0-9]{1,4}", Just(String::new())]) {
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
            prop_assert!(!v.is_empty() && v.len() < 10);
            prop_assert!(a < 5 && b < 5);
            prop_assert!(s.is_empty() || s.chars().all(|c| c.is_ascii_digit()));
        }
    }
}
