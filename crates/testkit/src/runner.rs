//! A minimal hermetic property-test runner.
//!
//! N random cases are drawn from a seeded [`SplitMix64`]; on failure the
//! input is shrunk by a caller-supplied *linear* shrinker (candidates are
//! tried in order, greedily descending into the first one that still
//! fails) and the minimal failing input is reported together with the
//! seed needed to reproduce the run.
//!
//! ```text
//! TESTKIT_SEED=12345 cargo test -q        # reproduce a reported failure
//! TESTKIT_CASES=500 cargo test -q         # raise the per-property budget
//! ```

use crate::derive_seed;
use crate::rng::SplitMix64;

/// The outcome of one property evaluation: `Err` carries the assertion
/// message. Produced by the [`prop_assert!`](crate::prop_assert) family.
pub type CaseResult = Result<(), String>;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run (`TESTKIT_CASES` overrides).
    pub cases: u32,
    /// Root seed (`TESTKIT_SEED` overrides). Each property mixes its name
    /// into this root so distinct properties see distinct streams.
    pub seed: u64,
    /// Upper bound on shrinking steps (each step re-runs the property).
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        let cases = std::env::var("TESTKIT_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        let seed = std::env::var("TESTKIT_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0x5eed_cac4e);
        Config {
            cases,
            seed,
            max_shrink_steps: 2_000,
        }
    }
}

/// FNV-1a over the property name: stable across runs and platforms, so a
/// property keeps its case stream when unrelated tests are added.
fn name_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `prop` over `config.cases` random inputs drawn by `gen`.
///
/// On failure, `shrink` proposes smaller candidates; the runner greedily
/// walks to a local minimum and panics with the minimal failing input,
/// the message, and the seed to reproduce.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) when a case fails.
pub fn check_config<T, G, S, P>(config: &Config, name: &str, gen: G, shrink: S, prop: P)
where
    T: std::fmt::Debug,
    G: Fn(&mut SplitMix64) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> CaseResult,
{
    let root = config.seed ^ name_hash(name);
    for case in 0..config.cases {
        let mut rng = SplitMix64::from_seed(derive_seed(root, case as u64));
        let input = gen(&mut rng);
        let Err(message) = prop(&input) else { continue };

        // Greedy linear shrink: take the first failing candidate, repeat.
        let mut best = input;
        let mut best_msg = message;
        let mut steps = 0u32;
        'outer: while steps < config.max_shrink_steps {
            for candidate in shrink(&best) {
                steps += 1;
                if let Err(msg) = prop(&candidate) {
                    best = candidate;
                    best_msg = msg;
                    continue 'outer;
                }
                if steps >= config.max_shrink_steps {
                    break;
                }
            }
            break;
        }
        panic!(
            "property '{name}' failed (case {case}/{}, {steps} shrink steps)\n\
             minimal input: {best:?}\n\
             error: {best_msg}\n\
             reproduce with: TESTKIT_SEED={} cargo test -q {name}",
            config.cases, config.seed,
        );
    }
}

/// [`check_config`] with the default (env-overridable) configuration.
pub fn check<T, G, S, P>(name: &str, gen: G, shrink: S, prop: P)
where
    T: std::fmt::Debug,
    G: Fn(&mut SplitMix64) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> CaseResult,
{
    check_config(&Config::default(), name, gen, shrink, prop);
}

/// Asserts a condition inside a property, early-returning `Err` with the
/// stringified condition (and optional formatted context) on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({})",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// Asserts equality inside a property (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {a:?}\n right: {b:?}",
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: {} == {} ({})\n  left: {a:?}\n right: {b:?}",
                stringify!($a),
                stringify!($b),
                format!($($fmt)+)
            ));
        }
    }};
}

/// Asserts inequality inside a property (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err(format!(
                "assertion failed: {} != {}\n  both: {a:?}",
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u32);
        let config = Config {
            cases: 17,
            seed: 1,
            max_shrink_steps: 10,
        };
        check_config(
            &config,
            "always_true",
            |rng| rng.gen_range(0u32..100),
            |_| vec![],
            |_| {
                counter.set(counter.get() + 1);
                Ok(())
            },
        );
        assert_eq!(counter.get(), 17);
    }

    #[test]
    fn failing_property_panics_with_context() {
        let config = Config {
            cases: 50,
            seed: 2,
            max_shrink_steps: 100,
        };
        let result = std::panic::catch_unwind(|| {
            check_config(
                &config,
                "finds_big_values",
                |rng| rng.gen_range(0u64..1000),
                crate::shrink::halves,
                |&v| {
                    if v < 500 {
                        Ok(())
                    } else {
                        Err(format!("{v} too big"))
                    }
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("finds_big_values"), "{msg}");
        assert!(msg.contains("TESTKIT_SEED=2"), "{msg}");
        // Shrinking must have walked to the boundary.
        assert!(msg.contains("minimal input: 500"), "{msg}");
    }

    #[test]
    fn shrinking_minimizes_vectors() {
        // Property: no vector contains a 7. The minimal counterexample is
        // the singleton [7].
        let config = Config {
            cases: 200,
            seed: 3,
            max_shrink_steps: 2_000,
        };
        let result = std::panic::catch_unwind(|| {
            check_config(
                &config,
                "no_sevens",
                |rng| {
                    let n = rng.gen_range(1usize..40);
                    (0..n).map(|_| rng.gen_range(0u32..10)).collect::<Vec<_>>()
                },
                crate::shrink::vec_linear,
                |v| {
                    if v.contains(&7) {
                        Err("found a 7".into())
                    } else {
                        Ok(())
                    }
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("minimal input: [7]"), "{msg}");
    }

    #[test]
    fn name_hash_separates_properties() {
        assert_ne!(name_hash("a"), name_hash("b"));
        assert_eq!(name_hash("same"), name_hash("same"));
    }
}
