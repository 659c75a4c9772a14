//! Offline drop-in subset of the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of the proptest API its property tests use: the
//! [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`, strategies for
//! numeric ranges, tuples, `Just`, `prop_oneof!`, collection `vec`,
//! string patterns, and the `prop_map`/`prop_flat_map` combinators.
//!
//! Semantics differ from upstream in one deliberate way: there is **no
//! shrinking**. A failing case reports the case number and message and
//! panics immediately. Cases are generated from a deterministic
//! per-test seed (FNV-1a of the test name), so failures reproduce
//! across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;

pub use strategy::{Just, Strategy};

/// Collection strategies (`proptest::collection` subset).
pub mod collection {
    use crate::strategy::{Strategy, TestRng};
    use rand::Rng;

    /// Size bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        /// Inclusive upper bound.
        hi: usize,
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
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.gen_range(self.size.lo..=self.size.hi);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Test-runner configuration and error types.
pub mod test_runner {
    /// How many random cases each property runs.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases (default 64).
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }

        /// The case count actually run: the configured count, capped by
        /// the `PROPTEST_CASES` environment variable when it is set to a
        /// positive integer. `scripts/check.sh --quick` uses the cap to
        /// shrink every property suite at once without touching
        /// per-test configurations.
        pub fn effective_cases(&self) -> u32 {
            match std::env::var("PROPTEST_CASES") {
                Ok(raw) => match raw.trim().parse::<u32>() {
                    Ok(cap) if cap > 0 => self.cases.min(cap),
                    _ => self.cases,
                },
                Err(_) => self.cases,
            }
        }
    }

    /// A failed property assertion (carried out of the case closure).
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.0)
        }
    }
}

/// Everything a property test needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// Namespace alias matching `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
    }
}

/// FNV-1a hash of the test name — the deterministic base seed.
#[doc(hidden)]
pub fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Defines property tests: `proptest! { #[test] fn f(x in strat) {..} }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let base = $crate::name_seed(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.effective_cases() as u64 {
                let mut proptest_rng = <$crate::strategy::TestRng as rand::SeedableRng>::seed_from_u64(
                    base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                $(let $pat = $crate::strategy::Strategy::generate(&$strat, &mut proptest_rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(err) = outcome {
                    panic!(
                        "proptest {} failed at case {case} (seed base {base:#x}): {err}",
                        stringify!($name)
                    );
                }
            }
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!($($fmt)*),
            ));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{}: {:?} != {:?}", format!($($fmt)*), l, r);
    }};
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..9, y in -2i64..=2, f in 0.5f64..1.5) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-2..=2).contains(&y));
            prop_assert!((0.5..1.5).contains(&f));
        }

        #[test]
        fn tuples_and_flat_map_compose((n, v) in (1usize..5).prop_flat_map(|n| {
            (Just(n), prop::collection::vec(0u32..10, n..=n))
        })) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn oneof_and_map_produce_all_variants(words in prop::collection::vec(
            prop_oneof![Just("a"), Just("b")].prop_map(str::to_owned),
            40..=40,
        )) {
            prop_assert!(words.iter().all(|w| w == "a" || w == "b"));
            prop_assert!(words.iter().any(|w| w == "a"));
        }

        #[test]
        fn string_patterns_match_shape(line in "[a-z]{2,4}( [a-z]{2,4}){1,3}") {
            let parts: Vec<&str> = line.split(' ').collect();
            prop_assert!((2..=4).contains(&parts.len()), "{line}");
            for p in parts {
                prop_assert!((2..=4).contains(&p.len()));
                prop_assert!(p.bytes().all(|b| b.is_ascii_lowercase()));
            }
        }
    }

    #[test]
    fn cases_are_deterministic_per_name() {
        assert_eq!(crate::name_seed("a::b"), crate::name_seed("a::b"));
        assert_ne!(crate::name_seed("a::b"), crate::name_seed("a::c"));
    }

    #[test]
    fn effective_cases_caps_via_env() {
        // Env mutation is process-global: keep every scenario in one
        // test so the harness cannot interleave a second reader.
        let config = ProptestConfig::with_cases(48);
        std::env::remove_var("PROPTEST_CASES");
        assert_eq!(config.effective_cases(), 48);
        std::env::set_var("PROPTEST_CASES", "8");
        assert_eq!(config.effective_cases(), 8);
        std::env::set_var("PROPTEST_CASES", "500");
        assert_eq!(config.effective_cases(), 48, "cap never raises");
        std::env::set_var("PROPTEST_CASES", "garbage");
        assert_eq!(config.effective_cases(), 48);
        std::env::set_var("PROPTEST_CASES", "0");
        assert_eq!(config.effective_cases(), 48, "zero is ignored");
        std::env::remove_var("PROPTEST_CASES");
    }
}
