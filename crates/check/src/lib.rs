//! In-tree property-based testing for the `mcds` workspace.
//!
//! The workspace's original property suites were written against the
//! external `proptest` crate, which needs registry access the hermetic
//! build lacks — so they were dark in the default `cargo test` run.
//! This crate replaces them with a zero-dependency engine built on
//! [`mcds_rng`]:
//!
//! * [`gen`] — composable generators: integers, floats, vectors, tuples,
//!   strings, point sets, and unit-disk-graph deployments (uniform,
//!   clustered, corridor) via [`mcds_udg::gen`];
//! * [`runner`] — the [`Property`] runner: deterministic seed derivation
//!   with per-case RNG stream splitting
//!   ([`mcds_rng::SeedableRng::from_stream`]), automatic greedy
//!   counterexample shrinking, and failure reports that print the
//!   replay seed;
//! * [`corpus`] — a persisted regression corpus (`tests/corpus/*.case`):
//!   every failure records its `(master, stream)` pair, and matching
//!   cases are replayed *before* random exploration on later runs;
//! * [`oracle`] — the differential oracle: random UDGs small enough for
//!   [`mcds_exact::brute`] are solved exactly and every approximation
//!   algorithm is checked for validity and for the paper's ratio bounds
//!   (Theorems 8 and 10); it also holds the scalar references that the
//!   production phase-2 and prune kernels must match;
//! * [`fault`] — the same treatment for the fault-tolerant `(k, m)`
//!   backbone family: `(1, m)` and `(2, m)` outputs are checked against
//!   the independent exact-side predicates
//!   ([`mcds_exact::is_m_dominating`], [`mcds_exact::is_biconnected`])
//!   and the exact `(1, 2)`-CDS optimum on small instances.
//!
//! # Determinism contract
//!
//! Case `i` of property `p` under master seed `s` draws from
//! `StdRng::from_stream(split_seed(s, hash(p)), i)` — a pure function of
//! `(s, p, i)`.  No global state, no thread identity, no wall clock is
//! consulted, so a failure reproduces bit-identically at any thread
//! count, and a `.case` file replays the same input (and re-shrinks to
//! the same counterexample) on every machine.
//!
//! # Example
//!
//! ```
//! use mcds_check::gen::{usizes, vecs};
//! use mcds_check::{prop_assert, Property, TestResult};
//!
//! Property::new("sorted_vectors_are_idempotent_under_sort")
//!     .cases(64)
//!     .run(&vecs(usizes(0..=1000), 0..=50), |v| {
//!         let mut once = v.clone();
//!         once.sort_unstable();
//!         let mut twice = once.clone();
//!         twice.sort_unstable();
//!         prop_assert!(once == twice, "sort not idempotent on {v:?}");
//!         TestResult::Pass
//!     });
//! ```
//!
//! A failing property panics with a report like:
//!
//! ```text
//! property `vec_sum_under_100` failed
//!   replay: MCDS_CHECK_REPLAY=6655321:17 (master:stream)
//!   original input (case 17): [57, 93, 4]
//!   shrunk counterexample (9 steps): [100]
//!   failure: sum 100 not under 100
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corpus;
pub mod fault;
pub mod gen;
pub mod oracle;
pub mod runner;

pub use gen::Gen;
pub use runner::{Config, Failure, Property, RunStats, TestResult};

/// Fails the enclosing property unless `cond` holds.
///
/// Must be used inside a property closure returning
/// [`TestResult`]; on failure it `return`s
/// [`TestResult::Fail`] with either the stringified condition or the
/// supplied format message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return $crate::TestResult::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return $crate::TestResult::Fail(format!($($fmt)+));
        }
    };
}

/// Fails the enclosing property unless the two expressions are equal,
/// reporting both sides.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return $crate::TestResult::Fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
}

/// Discards the current case (it counts toward neither passes nor
/// failures) unless `cond` holds — the analogue of `prop_assume!`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return $crate::TestResult::Discard;
        }
    };
}

/// One-line property check: `check!(name, generator, |value| body)`.
///
/// The body is a property closure body that must evaluate to a
/// [`TestResult`] (the `prop_assert!` family early-returns from it).  An
/// optional `cases = n` argument overrides the case count:
///
/// ```
/// use mcds_check::{check, prop_assert, TestResult};
/// use mcds_check::gen::usizes;
///
/// check!(doubling_is_monotone, cases = 32, usizes(0..=1000), |x| {
///     prop_assert!(x * 2 >= *x);
///     TestResult::Pass
/// });
/// ```
#[macro_export]
macro_rules! check {
    ($name:ident, cases = $cases:expr, $gen:expr, |$v:ident| $body:expr) => {
        $crate::Property::new(stringify!($name))
            .cases($cases)
            .run(&$gen, |$v| $body)
    };
    ($name:ident, $gen:expr, |$v:ident| $body:expr) => {
        $crate::Property::new(stringify!($name)).run(&$gen, |$v| $body)
    };
}
