//! The regression benchmark of this repository. See `README.md`.
//!
//! ```text
//! xrank-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out results.json]
//! xrank-benchmark --compare a.json b.json
//! xrank-benchmark --spec
//! ```

mod check;
mod compare;
mod corpus;
mod env;
mod json;
mod reads;
mod results;
mod rig;
#[cfg(test)]
mod smoke;
mod spans;
mod spec;
mod stats;
mod store;
mod updates;
mod workloads;

use corpus::Sizes;
use results::RunRecord;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Params;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
    Spec,
}

const USAGE: &str =
    "usage: --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--out file.json]
       --compare a.json b.json
       --spec";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut traced = false;
    let mut out = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--spec" => return Ok(Command::Spec),
            "--compare" => return Ok(Command::Compare(value()?.into(), value()?.into())),
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if spec::workload(&workload).is_none() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            names.join(", ")
        ));
    }
    Ok(Command::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        out,
    }))
}

fn run(args: Args) -> Result<bool, String> {
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        sizes: Sizes::FULL,
    };
    let outcome = if args.traced {
        rig::run(&args.workload, &params)?
    } else {
        workloads::run(&args.workload, &params)?
    };
    let record = RunRecord::new(
        &args.workload,
        args.seed,
        args.seconds,
        args.traced,
        outcome,
    )?;
    print!("{}", record.human());
    if let Some(path) = &args.out {
        results::append(path, &record)?;
    }
    // The contract's result line: last on standard output.
    println!("{}", record.result_line().render());
    Ok(record.correct())
}

fn main() -> ExitCode {
    let outcome = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Spec) => {
            print!("{}", spec::benchmark_json().render_pretty());
            Ok(true)
        }
        Ok(Command::Compare(a, b)) => compare::run(&a, &b),
        Ok(Command::Run(args)) => run(args),
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xrank-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
