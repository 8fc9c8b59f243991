//! A 200-document smoke of every workload, untraced and traced: each must
//! pass its own correctness checks and report every declared metric
//! exactly once, as a finite number, under both the human and the driver
//! rendering.

use crate::corpus::Sizes;
use crate::results::RunRecord;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::workloads::Params;
use crate::{rig, workloads};

fn smoke(workload: &str, traced: bool) {
    let p = Params {
        seed: 3,
        seconds: 0.5,
        sizes: Sizes::TINY,
    };
    let outcome = if traced {
        rig::run(workload, &p)
    } else {
        workloads::run(workload, &p)
    }
    .unwrap_or_else(|e| panic!("{workload}: {e}"));
    // `RunRecord::new` refuses missing, duplicate, undeclared and
    // non-finite metrics.
    let record = RunRecord::new(workload, p.seed, p.seconds, traced, outcome)
        .unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(record.correct(), "{workload}: {:?}", record.failures);

    let declared: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let human = record.human();
    let line = record.result_line();
    let printed = line
        .get("metrics")
        .and_then(|m| m.as_object())
        .expect("metrics object");
    assert_eq!(printed.len(), declared.len());
    for name in declared {
        let lines = human
            .lines()
            .filter(|l| l.split(' ').next() == Some(name))
            .count();
        assert_eq!(lines, 1, "{workload}: {name} printed {lines} times");
        let value = printed
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.get("value"))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("{workload}: {name} missing from the result line"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if !traced {
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} = {value} must never be 0"
            );
        }
    }
}

macro_rules! smoke_tests {
    ($($test:ident: $workload:literal, $traced:literal;)*) => {
        $(#[test]
        fn $test() {
            smoke($workload, $traced);
        })*
    };
}

smoke_tests! {
    warm_corr: "warm-corr", false;
    warm_uncorr: "warm-uncorr", false;
    cold_pool: "cold-pool", false;
    deep_xmark: "deep-xmark", false;
    ingest: "ingest", false;
    update_mixed: "update-mixed", false;
    warm_corr_traced: "warm-corr", true;
    warm_uncorr_traced: "warm-uncorr", true;
    cold_pool_traced: "cold-pool", true;
    deep_xmark_traced: "deep-xmark", true;
    ingest_traced: "ingest", true;
    update_mixed_traced: "update-mixed", true;
}
