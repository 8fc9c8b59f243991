//! `--compare a.json b.json`: one row per (workload, end-to-end metric)
//! with both medians, both spreads, the relative move and a verdict by
//! the metric's bound.
//!
//! The rule is the one later performance changes are held to: `b` has
//! regressed when its median is worse than `a`'s by more than the bound.
//! Where the run-to-run spread is wider than the bound the row is
//! `unresolved`, not `ok` — unless the two sets of runs do not overlap,
//! in which case the direction is plain whatever the spread.

use crate::results::{self, RunRecord};
use crate::spec::{self, Better};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the values of one metric on one workload across
/// the runs in a file.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub summary: Summary,
    pub low: f64,
    pub high: f64,
}

impl Side {
    /// Several runs: median and quartiles across runs. A single run: its
    /// own value with the spread of its trials.
    pub fn of(runs: &[Summary]) -> Side {
        if let [only] = runs {
            return Side {
                summary: *only,
                low: only.value - only.iqr / 2.0,
                high: only.value + only.iqr / 2.0,
            };
        }
        let values: Vec<f64> = runs.iter().map(|s| s.value).collect();
        Side {
            summary: Summary::median_of(&values),
            low: values.iter().copied().fold(f64::INFINITY, f64::min),
            high: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let toward_worse = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if toward_worse == 0.0 {
            0.0
        } else {
            toward_worse.signum() * f64::INFINITY
        }
    } else {
        toward_worse / a.abs()
    }
}

pub fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    let moved = worsening(a.summary.value, b.summary.value, better);
    let spread = a.summary.relative_spread().max(b.summary.relative_spread());
    let disjoint = a.high < b.low || b.high < a.low;
    if spread > bound && !disjoint {
        Verdict::Unresolved
    } else if moved > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

type Table = BTreeMap<(String, String), Vec<Summary>>;

fn tabulate(runs: &[RunRecord]) -> Table {
    let mut table = Table::new();
    for run in runs.iter().filter(|r| !r.traced) {
        for metric in &run.metrics {
            table
                .entry((run.workload.clone(), metric.name.clone()))
                .or_default()
                .push(metric.value);
        }
    }
    table
}

/// Prints the comparison; `Ok(false)` when any row regressed.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a_runs, b_runs) = (results::load(a_path)?, results::load(b_path)?);
    let failed: u64 = a_runs.iter().chain(&b_runs).map(|r| r.failed).sum();
    let (a, b) = (tabulate(&a_runs), tabulate(&b_runs));
    println!(
        "{:<13} {:<25} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "a iqr%", "b median", "b iqr%", "worse%", "bound%"
    );
    let mut regressed = 0;
    let mut unresolved = 0;
    let mut rows = 0;
    for workload in &spec::WORKLOADS {
        for metric in &spec::END_TO_END {
            let key = (workload.name.to_string(), metric.name.to_string());
            let (Some(a_values), Some(b_values)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (a_side, b_side) = (Side::of(a_values), Side::of(b_values));
            let verdict = judge(&a_side, &b_side, metric.better, metric.bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            rows += 1;
            println!(
                "{:<13} {:<25} {:>14.4} {:>8.2} {:>14.4} {:>8.2} {:>+8.2} {:>6.0}  {}",
                workload.name,
                metric.name,
                a_side.summary.value,
                100.0 * a_side.summary.relative_spread(),
                b_side.summary.value,
                100.0 * b_side.summary.relative_spread(),
                100.0 * worsening(a_side.summary.value, b_side.summary.value, metric.better),
                100.0 * metric.bound,
                verdict.as_str(),
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no untraced (workload, metric) pair".to_string());
    }
    println!(
        "# {rows} rows: {regressed} regressed, {unresolved} unresolved, {failed} failed operations"
    );
    Ok(regressed == 0 && failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Side {
        Side::of(
            &values
                .iter()
                .map(|v| Summary::exact(*v))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(100.0, 112.0, Better::Lower) - 0.12).abs() < 1e-12);
        assert!((worsening(100.0, 112.0, Better::Higher) + 0.12).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
    }

    #[test]
    fn tight_runs_are_judged_by_the_bound() {
        let a = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(
            judge(
                &a,
                &runs(&[104.0, 105.0, 103.0, 104.5, 103.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                &a,
                &runs(&[114.0, 115.0, 113.0, 114.5, 113.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                &a,
                &runs(&[114.0, 115.0, 113.0, 114.5, 113.5]),
                Better::Higher,
                0.10
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_but_disjoint_ones_are_decided() {
        let noisy = runs(&[80.0, 100.0, 120.0, 90.0, 110.0]);
        assert_eq!(
            judge(
                &noisy,
                &runs(&[85.0, 105.0, 125.0, 95.0, 115.0]),
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(
                &noisy,
                &runs(&[180.0, 200.0, 220.0, 190.0, 210.0]),
                Better::Lower,
                0.10
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                &noisy,
                &runs(&[40.0, 50.0, 60.0, 45.0, 55.0]),
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn a_single_run_brings_the_spread_of_its_trials() {
        let one = Side::of(&[Summary {
            value: 100.0,
            iqr: 30.0,
            n: 9,
        }]);
        assert_eq!((one.low, one.high), (85.0, 115.0));
        let other = Side::of(&[Summary {
            value: 104.0,
            iqr: 2.0,
            n: 9,
        }]);
        assert_eq!(
            judge(&one, &other, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        let exact = Side::of(&[Summary::exact(5.0)]);
        assert_eq!(
            judge(
                &exact,
                &Side::of(&[Summary::exact(5.0)]),
                Better::Lower,
                0.01
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                &exact,
                &Side::of(&[Summary::exact(5.2)]),
                Better::Lower,
                0.01
            ),
            Verdict::Regressed
        );
    }
}
