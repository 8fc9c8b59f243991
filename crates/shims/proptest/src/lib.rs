//! Std-only stand-in for the `proptest` crate (offline build shim).
//!
//! Provides the property-testing surface this workspace uses: the
//! [`proptest!`] macro, `prop_assert*!` / [`prop_assume!`], strategies for
//! primitives, ranges, tuples and collections, [`strategy::Strategy`]
//! combinators (`prop_map`, `prop_recursive`, `boxed`), [`prop_oneof!`],
//! and [`test_runner::Config`] (re-exported as `ProptestConfig`).
//!
//! Differences from real proptest: cases are generated from a
//! deterministic per-test seed, there is **no shrinking**, and
//! `.proptest-regressions` files are ignored. A failing property — a
//! falsified `prop_assert*!` or a panic in the body — panics with the case
//! number and that case's inputs (`{:?}` of each, regenerated from a
//! snapshot of the generator), so failures stay reproducible run-to-run.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod collection;
pub mod test_runner;

/// The `use proptest::prelude::*` surface.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Generates each property as a `#[test]` function. Supports an optional
/// leading `#![proptest_config(expr)]` and any number of
/// `fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::Config::default()) $($rest)* }
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
            $crate::test_runner::run_cases(
                stringify!($name),
                &($config),
                |__rng| {
                    // Strategy expressions are re-evaluated per case; they
                    // are cheap constructors in practice.
                    let ($($pat,)+) =
                        ($($crate::strategy::Strategy::generate(&($strat), __rng),)+);
                    $body
                    Ok(())
                },
                // On failure: the same draws, in the same order, printed.
                |__rng| {
                    let mut __inputs = ::std::string::String::new();
                    $(
                        __inputs.push_str(&::std::format!(
                            "\n    {} = {:?}",
                            stringify!($pat),
                            $crate::strategy::Strategy::generate(&($strat), __rng),
                        ));
                    )+
                    __inputs
                },
            );
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

/// Fails the current case with a message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "{} (left: `{:?}`, right: `{:?}`)",
            format!($($fmt)*), a, b
        );
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: `{} != {}` (both: `{:?}`)",
            stringify!($a), stringify!($b), a
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, "{} (both: `{:?}`)", format!($($fmt)*), a);
    }};
}

/// Discards the current case (drawing a fresh one) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// A strategy choosing among several strategies of the same value type,
/// optionally weighted: `prop_oneof![3 => a, 1 => b]` or `prop_oneof![a, b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
}
