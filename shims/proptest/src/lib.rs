//! Offline shim for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace's property tests
//! use — the `proptest!` macro, assertion/assumption macros, numeric range
//! and tuple strategies, `prop_map`, and `collection::vec` — with
//! deterministic per-test seeding and no shrinking. See `shims/README.md`
//! for the full list of deviations from the real crate.

#![forbid(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

pub mod rng {
    //! SplitMix64 — small, seedable, and good enough to drive strategies.

    /// The RNG handed to strategies during sampling.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            Self { state: seed }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)` with 53 random bits.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform integer in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            let zone = u64::MAX - u64::MAX % n;
            loop {
                let v = self.next_u64();
                if v < zone {
                    return v % n;
                }
            }
        }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that samples its arguments `cases` times.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@fns ($config) $($rest)*);
    };
    (@fns ($config:expr)) => {};
    (@fns ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut runner = $crate::test_runner::TestRunner::new(config, stringify!($name));
            while runner.keep_going() {
                let ($($arg,)+) = {
                    let strat = ($($strat,)+);
                    $crate::strategy::Strategy::sample(&strat, runner.rng())
                };
                let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                runner.record(outcome);
            }
        }
        $crate::proptest!(@fns ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@fns ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the current test case (with an optional formatted message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: {}: {}",
                    stringify!($cond),
                    ::std::format!($($fmt)+),
                ),
            ));
        }
    };
}

/// Fails the current test case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        ::std::format!("assertion failed: `{:?}` == `{:?}`", l, r),
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        ::std::format!(
                            "assertion failed: `{:?}` == `{:?}`: {}",
                            l,
                            r,
                            ::std::format!($($fmt)+),
                        ),
                    ));
                }
            }
        }
    };
}

/// Fails the current test case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        ::std::format!("assertion failed: `{:?}` != `{:?}`", l, r),
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        ::std::format!(
                            "assertion failed: `{:?}` != `{:?}`: {}",
                            l,
                            r,
                            ::std::format!($($fmt)+),
                        ),
                    ));
                }
            }
        }
    };
}

/// Rejects the current test case; it is retried with fresh inputs and does
/// not count toward the case budget.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}
