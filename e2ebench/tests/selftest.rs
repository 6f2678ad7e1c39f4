//! Self-tests of the benchmark against its own manifest: the metric names
//! and units the command prints are exactly those `BENCHMARK.json` lists.

use e2ebench::metrics::{END_TO_END, PER_LAYER};
use e2ebench::WORKLOADS;
use serde::Value;
use std::process::Command;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is not a string in {v:?}"))
}

/// `(name, unit)` of every metric listed under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    array(&manifest(), key)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_the_manifest() {
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = array(&manifest(), "workloads")
        .iter()
        .map(|w| text(w, "name").to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

/// Runs the command once and returns its last stdout line, parsed.
fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("some output");
    serde_json::parse(last).expect("the last line is JSON")
}

fn printed(result: &Value) -> Vec<(String, String)> {
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics object in {result:?}");
    };
    metrics
        .iter()
        .map(|(name, m)| (name.clone(), text(m, "unit").to_string()))
        .collect()
}

#[test]
fn printed_metrics_match_the_manifest() {
    for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
        let result = run("chti-evolve", trace);
        assert_eq!(printed(&result), listed(key), "--trace {trace}");
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(result.get("failed"), Some(&Value::Int(0)));
        // Whole rounds of 144 PTGs.
        let Some(Value::Int(attempted)) = result.get("attempted") else {
            panic!("attempted is not an integer");
        };
        assert!(
            *attempted > 0 && attempted % 144 == 0,
            "attempted {attempted}"
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
