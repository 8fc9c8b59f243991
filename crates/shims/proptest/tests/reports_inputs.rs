//! A failing property names the inputs of the case that failed, whether a
//! `prop_assert*!` falsified it or its body panicked.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    #[should_panic(expected = "inputs:\n    x = 41\n    v = [3, 3]")]
    fn falsified_case_prints_its_inputs(
        x in 41u32..42,
        v in proptest::collection::vec(Just(3u8), 2),
    ) {
        prop_assert!(x < 10 || v.is_empty(), "x too large");
    }

    #[test]
    #[should_panic(expected = "panicked: boom at 7\n  at case 1 (after 0 rejects), inputs:\n    n = 7")]
    fn panicking_body_prints_its_inputs(n in 7u64..8) {
        if n == 7 {
            panic!("boom at {n}");
        }
    }
}

/// Inputs are regenerated from the failing case's own snapshot, not from
/// the first case's: the report names the first draw above 900.
#[test]
fn later_case_reports_its_own_inputs() {
    use proptest::strategy::Strategy;
    use proptest::test_runner::{run_cases, Config, TestCaseError};
    let draws = std::cell::RefCell::new(Vec::new());
    let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_cases(
            "later_case_reports_its_own_inputs",
            &Config::default(),
            |rng| {
                let s = (0u32..1000).generate(rng);
                draws.borrow_mut().push(s);
                if s < 900 { Ok(()) } else { Err(TestCaseError::Fail("too big".into())) }
            },
            |rng| format!(" s = {}", (0u32..1000).generate(rng)),
        )
    }));
    let msg = *failed.unwrap_err().downcast::<String>().unwrap();
    let draws = draws.into_inner();
    assert!(draws.len() > 1, "the first case already failed; pick another seed");
    let last = draws.last().unwrap();
    assert!(msg.contains(&format!("at case {} ", draws.len())), "{msg}");
    assert!(msg.ends_with(&format!(" s = {last}")), "{msg}");
}
