//! `bench_e2e --compare A.jsonl B.jsonl`: do two sets of runs agree?
//!
//! Each file holds the report lines `--out` collected. Per workload and
//! end-to-end metric the medians of the two sets are compared, in the
//! direction `BENCHMARK.json` calls worse, against the bound it fixes.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::round::Fallible;
use bench_e2e::percentile;

/// `workload → metric → values`, one value per run in the file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Fallible<Runs> {
    let mut runs = Runs::new();
    let lines = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    for line in lines.lines().filter(|l| !l.trim().is_empty()) {
        let report: Value = serde_json::from_str(line)?;
        let workload = report
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("report without workload")?;
        let metrics = report
            .get("end_to_end")
            .and_then(Value::as_object)
            .ok_or("report without end_to_end")?;
        let of_workload = runs.entry(workload.to_owned()).or_default();
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("metric without value")?;
            of_workload.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(runs)
}

/// `(q1, median, q3)` of `values`.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        percentile(&sorted, 25),
        percentile(&sorted, 50),
        percentile(&sorted, 75),
    )
}

/// Prints the comparison; `Ok(false)` when some metric of B is worse than A
/// by more than its bound.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> Fallible<bool> {
    let spec: Value = serde_json::from_str(&std::fs::read_to_string(benchmark)?)?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json without end_to_end")?;
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    let mut within = true;
    println!(
        "{:13} {:25} {:>5} {:>38} {:>38} {:>8} {:>6}",
        "workload", "metric", "runs", "A q1 / median / q3", "B q1 / median / q3", "worse", "bound"
    );
    for (workload, of_a) in &runs_a {
        let Some(of_b) = runs_b.get(workload) else {
            continue;
        };
        for metric in metrics {
            let name = metric
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let bound = metric
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            let lower = metric.get("better").and_then(Value::as_str) == Some("lower");
            let (Some(va), Some(vb)) = (of_a.get(name), of_b.get(name)) else {
                continue;
            };
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let worse = if lower {
                (qb.1 - qa.1) / qa.1
            } else {
                (qa.1 - qb.1) / qa.1
            };
            let verdict = if worse > bound { "EXCEEDED" } else { "" };
            within &= worse <= bound;
            let show = |q: (f64, f64, f64)| format!("{:.5} / {:.5} / {:.5}", q.0, q.1, q.2);
            println!(
                "{workload:13} {name:25} {:>2}/{:<2} {:>38} {:>38} {:>+7.2}% {:>5.0}% {verdict}",
                va.len(),
                vb.len(),
                show(qa),
                show(qb),
                worse * 100.0,
                bound * 100.0,
            );
        }
    }
    Ok(within)
}
