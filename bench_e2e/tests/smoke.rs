//! Runs the benchmark binary in `--smoke` mode and checks its contract with
//! `BENCHMARK.json`: every metric named there is printed exactly once, with
//! its unit, and nothing else is.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn benchmark_spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).unwrap()
}

/// `(name, unit)` of every metric under `section`, in file order.
fn named(spec: &Value, section: &str) -> Vec<(String, String)> {
    let rows = spec
        .get(section)
        .and_then(Value::as_array)
        .expect("section is a list");
    rows.iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one smoke pass and returns the result object of its last stdout line.
fn smoke(workload: &str, trace: &str) -> Value {
    let out = std::env::temp_dir().join(format!("bench_e2e_smoke_{}.jsonl", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    let _ = std::fs::remove_file(&out);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "bench_e2e failed: {stderr}");
    let stdout = String::from_utf8(run.stdout).expect("stdout is UTF-8");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn assert_reports(result: &Value, expected: &[(String, String)]) {
    let keys: Vec<&str> = result
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
    let mut printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no value"
            );
            let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(
                !name.is_empty() && name.chars().all(legal),
                "illegal name {name:?}"
            );
            (
                name.clone(),
                m.get("unit").and_then(Value::as_str).unwrap().to_owned(),
            )
        })
        .collect();
    let mut expected = expected.to_vec();
    printed.sort();
    expected.sort();
    assert_eq!(printed, expected);
}

#[test]
fn smoke_prints_every_end_to_end_metric_once() {
    let spec = benchmark_spec();
    assert_reports(&smoke("hot-attach", "0"), &named(&spec, "end_to_end"));
}

#[test]
fn smoke_prints_every_per_layer_metric_once() {
    let spec = benchmark_spec();
    assert_reports(&smoke("hot-attach", "1"), &named(&spec, "per_layer"));
}

#[test]
fn benchmark_json_lists_the_workloads_the_binary_knows() {
    let spec = benchmark_spec();
    let listed = spec.get("workloads").and_then(Value::as_array).unwrap();
    let names: Vec<&str> = listed
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(
        names,
        ["hot-attach", "cold-unique", "zipf-mix", "churn-repair"]
    );
    // An unknown workload is refused before anything runs.
    let refused = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
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
        .unwrap();
    assert!(!refused.status.success() && refused.stdout.is_empty());
}
