//! One run's results: checked against the declared metric set, printed
//! for people, printed for the driver, and kept in `--out` files.

use crate::json::{self, obj, Value};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::Outcome;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: Summary,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The declared metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Extra lines for the reader; never part of the result line.
    pub notes: Vec<Metric>,
    pub failures: Vec<String>,
}

impl RunRecord {
    /// Pairs an outcome with the declared metric set of its mode: every
    /// declared metric must have been reported exactly once, as a finite
    /// number, and nothing undeclared may pose as a metric.
    pub fn new(
        workload: &str,
        seed: u64,
        seconds: f64,
        traced: bool,
        outcome: Outcome,
    ) -> Result<RunRecord, String> {
        let declared: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for (name, _) in &outcome.metrics {
            if !declared.iter().any(|(d, _)| d == name) {
                return Err(format!("{workload}: reported undeclared metric {name}"));
            }
        }
        let mut metrics = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let mut reported = outcome.metrics.iter().filter(|(n, _)| *n == name);
            let (_, value) = reported
                .next()
                .ok_or_else(|| format!("{workload}: {name} was not reported"))?;
            if reported.next().is_some() {
                return Err(format!("{workload}: {name} was reported twice"));
            }
            if !value.value.is_finite() {
                return Err(format!("{workload}: {name} is not a finite number"));
            }
            metrics.push(Metric {
                name: name.to_string(),
                unit: unit.to_string(),
                value: *value,
            });
        }
        let notes = outcome
            .notes
            .iter()
            .map(|(name, value, unit)| Metric {
                name: name.to_string(),
                unit: unit.to_string(),
                value: *value,
            })
            .collect();
        Ok(RunRecord {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            attempted: outcome.tally.attempted,
            failed: outcome.tally.failed,
            metrics,
            notes,
            failures: outcome.tally.notes,
        })
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// One line per metric: `name value unit`, then spread and trials.
    pub fn human(&self) -> String {
        let mut out = format!(
            "# workload {} seed {} seconds {} trace {} threads {}\n",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            crate::env::hardware_threads(),
        );
        for (metric, marker) in self
            .metrics
            .iter()
            .map(|m| (m, ""))
            .chain(self.notes.iter().map(|m| (m, "# note: ")))
        {
            let v = metric.value;
            out.push_str(&format!(
                "{marker}{} {:.6} {}",
                metric.name, v.value, metric.unit
            ));
            if v.n > 1 {
                out.push_str(&format!(
                    "  iqr {:.6} ({:.1}%) n {}",
                    v.iqr,
                    100.0 * v.relative_spread(),
                    v.n
                ));
            }
            out.push('\n');
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "# note: failed_share {share} ratio  ({} of {} operations)\n",
            self.failed, self.attempted
        ));
        for failure in &self.failures {
            out.push_str(&format!("# failure: {failure}\n"));
        }
        out
    }

    /// The object the driver reads from the last line of standard output.
    pub fn result_line(&self) -> Value {
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.max(1).into()),
            ("failed", self.failed.into()),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let entry = obj([
                                ("value", m.value.value.into()),
                                ("unit", m.unit.as_str().into()),
                            ]);
                            (m.name.clone(), entry)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The `--out` form: the result line plus what `--compare` needs.
    pub fn to_json(&self) -> Value {
        let metric = |m: &Metric| {
            obj([
                ("name", m.name.as_str().into()),
                ("unit", m.unit.as_str().into()),
                ("value", m.value.value.into()),
                ("iqr", m.value.iqr.into()),
                ("n", (m.value.n as u64).into()),
            ])
        };
        obj([
            ("workload", self.workload.as_str().into()),
            ("seed", self.seed.into()),
            ("seconds", self.seconds.into()),
            ("trace", self.traced.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "metrics",
                Value::Arr(self.metrics.iter().map(metric).collect()),
            ),
            ("notes", Value::Arr(self.notes.iter().map(metric).collect())),
            (
                "failures",
                Value::Arr(self.failures.iter().map(|f| f.as_str().into()).collect()),
            ),
        ])
    }

    pub fn from_json(value: &Value) -> Result<RunRecord, String> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| format!("run record lacks {key:?}"))
        };
        let number = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("{key:?} is not a number"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            field(key)?
                .as_array()
                .ok_or_else(|| format!("{key:?} is not an array"))?
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .ok_or_else(|| format!("metric lacks {k:?}"))
                    };
                    let num = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_f64)
                            .ok_or_else(|| format!("metric lacks {k:?}"))
                    };
                    Ok(Metric {
                        name: text("name")?.to_string(),
                        unit: text("unit")?.to_string(),
                        value: Summary {
                            value: num("value")?,
                            iqr: num("iqr")?,
                            n: num("n")? as usize,
                        },
                    })
                })
                .collect()
        };
        Ok(RunRecord {
            workload: field("workload")?
                .as_str()
                .ok_or("\"workload\" is not a string")?
                .to_string(),
            seed: number("seed")? as u64,
            seconds: number("seconds")?,
            traced: field("trace")?
                .as_bool()
                .ok_or("\"trace\" is not a boolean")?,
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            metrics: metrics("metrics")?,
            notes: metrics("notes")?,
            failures: field("failures")?
                .as_array()
                .ok_or("\"failures\" is not an array")?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
        })
    }
}

/// Reads a result file: a JSON array of run records.
pub fn load(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.as_array()
        .ok_or_else(|| format!("{}: not an array of runs", path.display()))?
        .iter()
        .map(RunRecord::from_json)
        .collect()
}

/// Appends `record` to the result file at `path`, creating it if absent.
pub fn append(path: &Path, record: &RunRecord) -> Result<(), String> {
    let mut runs = if path.exists() {
        load(path)?
    } else {
        Vec::new()
    };
    runs.push(record.clone());
    let doc = Value::Arr(runs.iter().map(RunRecord::to_json).collect());
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Tally;

    fn outcome(names: &[&'static str]) -> Outcome {
        Outcome {
            metrics: names
                .iter()
                .enumerate()
                .map(|(i, n)| (*n, Summary::median_of(&[i as f64 + 0.5, 2.25])))
                .collect(),
            notes: vec![("commit_p50_ms", Summary::exact(3.0), "ms")],
            tally: Tally {
                attempted: 10,
                failed: 0,
                notes: vec![],
            },
        }
    }

    fn all_end_to_end() -> Vec<&'static str> {
        END_TO_END.iter().map(|m| m.name).collect()
    }

    #[test]
    fn result_file_round_trips() {
        let record =
            RunRecord::new("warm-corr", 7, 10.0, false, outcome(&all_end_to_end())).unwrap();
        assert_eq!(
            RunRecord::from_json(&json::parse(&record.to_json().render()).unwrap()).unwrap(),
            record
        );

        let scratch = crate::env::Scratch::new("results-test").unwrap();
        let path = scratch.sub("runs.json");
        append(&path, &record).unwrap();
        append(&path, &record).unwrap();
        assert_eq!(load(&path).unwrap(), vec![record.clone(), record]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let record = RunRecord::new("ingest", 1, 10.0, false, outcome(&all_end_to_end())).unwrap();
        let line = record.result_line();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("unit").unwrap().as_str(), Some("s"));
        assert!(!line.render().contains('\n'));
        assert!(record.human().lines().any(|l| l.starts_with("setup_s ")));
    }

    #[test]
    fn missing_duplicate_undeclared_and_non_finite_metrics_are_refused() {
        let mut names = all_end_to_end();
        let dropped = names.pop().unwrap();
        let err = RunRecord::new("w", 1, 1.0, false, outcome(&names)).unwrap_err();
        assert!(
            err.contains(dropped) && err.contains("not reported"),
            "{err}"
        );

        names.push(dropped);
        names.push(dropped);
        assert!(RunRecord::new("w", 1, 1.0, false, outcome(&names))
            .unwrap_err()
            .contains("twice"));

        let mut with_extra = all_end_to_end();
        with_extra.push("made_up");
        assert!(RunRecord::new("w", 1, 1.0, false, outcome(&with_extra))
            .unwrap_err()
            .contains("undeclared"));

        let mut nan = outcome(&all_end_to_end());
        nan.metrics[0].1 = Summary::exact(f64::NAN);
        assert!(RunRecord::new("w", 1, 1.0, false, nan)
            .unwrap_err()
            .contains("finite"));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut bad = outcome(&all_end_to_end());
        bad.tally = Tally {
            attempted: 10,
            failed: 1,
            notes: vec!["boom".to_string()],
        };
        let record = RunRecord::new("w", 1, 1.0, false, bad).unwrap();
        assert!(!record.correct());
        assert_eq!(
            record.result_line().get("correct").unwrap().as_bool(),
            Some(false)
        );
        assert!(record.human().contains("# failure: boom"));
    }
}
