//! Offline stand-in for `proptest`.
//!
//! The build environment has no access to crates.io, so this workspace vendors the
//! subset the integration tests use: the [`proptest!`] macro over `name in range`
//! bindings, [`ProptestConfig::with_cases`], and `prop_assert!` / `prop_assert_eq!`.
//! Inputs are drawn deterministically from a fixed-seed RNG (no shrinking, no
//! persistence), so failures are reproducible by re-running the test.

pub use rand;

/// Subset of `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` generated inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 16 }
    }
}

/// Value-producing strategy (subset of `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The produced value type.
    type Value;
    /// Draws one value.
    fn pick(&self, rng: &mut rand::rngs::StdRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn pick(&self, rng: &mut rand::rngs::StdRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn pick(&self, rng: &mut rand::rngs::StdRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u64, usize, u32, u16, u8);

/// Everything the tests import.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };
}

/// Property-test macro: each `arg in strategy` binding is sampled per case from a
/// deterministic RNG, and the body runs once per case.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                // Deterministic per-test seed: derived from the test name so sibling
                // properties explore different inputs.
                let mut seed = 0xcbf2_9ce4_8422_2325u64;
                for b in stringify!($name).bytes() {
                    seed = (seed ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
                }
                let mut rng = <$crate::rand::rngs::StdRng as $crate::rand::SeedableRng>::seed_from_u64(seed);
                for case in 0..config.cases {
                    $( let $arg = $crate::Strategy::pick(&($strategy), &mut rng); )+
                    let run = || -> Result<(), String> { $body Ok(()) };
                    if let Err(message) = run() {
                        panic!(
                            "proptest case {case} failed for {} = {:?}: {message}",
                            stringify!(($($arg),+)),
                            ($(&$arg),+)
                        );
                    }
                }
            }
        )*
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!("assertion failed: {:?} != {:?}", l, r));
        }
    }};
}

/// `assert_ne!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err(format!("assertion failed: {:?} == {:?}", l, r));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_are_respected(x in 3u64..10, y in 0usize..=4) {
            prop_assert!((3..10).contains(&x), "x out of range: {}", x);
            prop_assert!(y <= 4);
        }

        #[test]
        fn assert_eq_passes(a in 1u32..5) {
            prop_assert_eq!(a, a);
            prop_assert_ne!(a, a + 1);
        }
    }

    #[test]
    fn failing_property_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        let result = std::panic::catch_unwind(always_fails);
        assert!(result.is_err(), "property should have failed");
    }

    #[test]
    fn cases_are_deterministic() {
        fn collect() -> Vec<u64> {
            let mut out = Vec::new();
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(8))]
                fn gather(x in 0u64..1000) {
                    OUT.with(|o| o.borrow_mut().push(x));
                    prop_assert!(true);
                }
            }
            thread_local! {
                static OUT: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
            }
            // gather pushes into OUT via the thread-local above
            OUT.with(|o| o.borrow_mut().clear());
            gather();
            OUT.with(|o| out = o.borrow().clone());
            out
        }
        assert_eq!(collect(), collect());
    }
}
