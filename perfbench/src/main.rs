//! End-to-end scenario benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--tiny]
//! ```
//!
//! Runs one workload through the public scenario API: set-up, then jobs
//! for `--seconds`, the first of which is the reference. Every job is
//! checked (packet conservation; reports bit-identical to the
//! reference). With `--trace 0` it prints the end-to-end metrics;
//! with `--trace 1` it alternates traced and untraced jobs and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod bench;
mod layers;
mod specs;
mod workloads;

use bench::{Options, Outcome};
use std::process::ExitCode;

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 20120616;

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--tiny]";

struct Args {
    workload: Option<String>,
    options: Options,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        options: Options {
            seed: DEFAULT_SEED,
            seconds: 25.0,
            trace: false,
            tiny: false,
        },
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => {
                parsed.options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a finite non-negative number".into());
                }
                parsed.options.seconds = seconds;
            }
            "--trace" => {
                parsed.options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--tiny" => parsed.options.tiny = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// The result line: `value` printed with every digit Rust keeps.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = args.workload else {
        eprintln!("perfbench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let Some(workload) = workloads::find(&name) else {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload `{name}`; one of {names:?}");
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = &args.options;
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        workload.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let outcome = match bench::run(workload, opts) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for metric in &outcome.metrics {
        println!("metric {} {} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "error_rate {} ({} of {} cells failed)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    if outcome.metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("perfbench: a metric is not finite");
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
