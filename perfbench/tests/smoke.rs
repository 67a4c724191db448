//! Smoke test: every workload runs at a tiny size, prints every metric
//! `BENCHMARK.json` names with its unit, and passes its own checks —
//! packet conservation, reports identical across jobs, and traced
//! reports bit-identical to untraced ones.

use serde::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde::json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_seq)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    benchmark_json()
        .get("workloads")
        .and_then(Value::as_seq)
        .expect("workloads is a list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

/// Runs the benchmark and returns its stdout and parsed result line.
fn run(workload: &str, trace: bool) -> (String, Value) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde::json::parse(last).expect("the last line is JSON");
    (stdout, result)
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let names = workloads();
    assert!(names.len() >= 2);
    for workload in &names {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let (stdout, result) = run(workload, trace);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{stdout}"
            );
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            let metrics = result.get("metrics").and_then(Value::as_map).unwrap();
            let expected = declared(section);
            assert_eq!(metrics.len(), expected.len(), "{workload}: {stdout}");
            for (name, unit) in &expected {
                let metric = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .unwrap_or_else(|| panic!("{workload}: {name} missing\n{stdout}"));
                assert_eq!(metric.get("unit").and_then(Value::as_str), Some(&**unit));
                let value = metric.get("value").and_then(Value::as_f64).unwrap();
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                let line = format!("metric {name} ");
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&line) && l.ends_with(unit)),
                    "{workload}: no `{line}… {unit}` line\n{stdout}"
                );
            }
            if trace {
                assert!(stdout.contains(", 1 traced"), "{stdout}");
            }
        }
    }
}

#[test]
fn the_seed_picks_the_inputs() {
    let fingerprint = |seed: &str| {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", "dense-sinr", "--seed", seed])
            .args(["--seconds", "0", "--trace", "0", "--tiny"])
            .output()
            .expect("benchmark runs");
        let stdout = String::from_utf8(output.stdout).unwrap();
        stdout
            .lines()
            .find(|l| l.starts_with("fingerprint "))
            .and_then(|l| l.split_whitespace().nth(4))
            .expect("a fingerprint line")
            .to_string()
    };
    assert_eq!(fingerprint("3"), fingerprint("3"));
    assert_ne!(fingerprint("3"), fingerprint("4"));
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "dense-sinr", "--trace", "2"],
        &["--seconds", "1"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
