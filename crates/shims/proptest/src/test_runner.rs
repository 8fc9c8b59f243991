//! Case generation and the per-test driver loop.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};

/// Configuration for a `proptest!` block (`ProptestConfig` in the
/// prelude). Construct with struct-update syntax over `default()`.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of successful cases each property must pass.
    pub cases: u32,
    /// Give up (panic) after `cases * max_global_rejects` discarded draws.
    pub max_global_rejects: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config { cases: 256, max_global_rejects: 50 }
    }
}

/// The non-failure ways a single case can end.
pub enum TestCaseError {
    /// `prop_assert*!` failed: the property is falsified.
    Fail(String),
    /// `prop_assume!` failed: discard this case and draw another.
    Reject,
}

/// Deterministic per-test random source handed to strategies. Cloning it
/// snapshots the stream, so a case's inputs can be drawn again.
#[derive(Clone)]
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    fn from_name(name: &str) -> Self {
        // FNV-1a over the test name: stable across runs and platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { inner: StdRng::seed_from_u64(h) }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform draw from `[0, n)`; `n = 0` yields 0.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Multiply-shift with rejection keeps the draw exactly uniform.
        let zone = n.wrapping_neg() % n;
        loop {
            let v = self.next_u64();
            let wide = v as u128 * n as u128;
            if (wide as u64) >= zone {
                return (wide >> 64) as u64;
            }
        }
    }
}

/// Runs one property: draws inputs until `config.cases` cases pass,
/// panicking on the first falsified or panicking case (no shrinking).
///
/// `describe` draws the same inputs `case` draws and formats them; it runs
/// only on failure, from a snapshot of the generator taken before the
/// case, so the failure message names the inputs that caused it. A passing
/// case costs one generator clone.
pub fn run_cases<F, D>(name: &str, config: &Config, mut case: F, mut describe: D)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    D: FnMut(&mut TestRng) -> String,
{
    let mut rng = TestRng::from_name(name);
    let mut passed: u32 = 0;
    let mut rejected: u64 = 0;
    let reject_budget = config.cases as u64 * config.max_global_rejects as u64;
    while passed < config.cases {
        let mut snapshot = rng.clone();
        let failure = match panic::catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
            Ok(Ok(())) => {
                passed += 1;
                continue;
            }
            Ok(Err(TestCaseError::Reject)) => {
                rejected += 1;
                if rejected > reject_budget {
                    panic!(
                        "property `{name}`: too many prop_assume! rejections \
                         ({rejected} rejects for {passed} passes)"
                    );
                }
                continue;
            }
            Ok(Err(TestCaseError::Fail(msg))) => format!("falsified: {msg}"),
            Err(payload) => format!("panicked: {}", panic_message(&*payload)),
        };
        panic!(
            "property `{name}` {failure}\n  at case {} (after {rejected} rejects), inputs:{}",
            passed + 1,
            describe(&mut snapshot)
        );
    }
}

/// The message of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => s,
        (_, Some(s)) => s,
        _ => "<non-string panic payload>",
    }
}
