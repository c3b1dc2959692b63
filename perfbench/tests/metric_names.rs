//! Every metric a run prints is well named and declared in `BENCHMARK.json`
//! with the same unit and direction, and the declarations match the
//! benchmark's own table.

use perfbench::json::{self, Value};
use perfbench::report::{Metric, END_TO_END, PER_LAYER};
use perfbench::WORKLOADS;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn well_named(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// `(name, unit, better)` of a `BENCHMARK.json` metric list.
fn declared(doc: &Value, list: &str) -> Vec<(String, String, String)> {
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{list} entry without {k}"))
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn table(metrics: &[Metric]) -> Vec<(String, String, String)> {
    metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.label().to_string(),
            )
        })
        .collect()
}

#[test]
fn declarations_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), table(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), table(&PER_LAYER));
    for metric in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            well_named(metric.name),
            "badly named metric {:?}",
            metric.name
        );
    }
    for entry in doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end list")
    {
        let bound = entry
            .get("bound")
            .and_then(Value::as_f64)
            .expect("every end-to-end metric has a bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "bound {bound} outside (0, 0.25]"
        );
    }
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_printed_metric_is_declared() {
    let doc = benchmark_json();
    for workload in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}"
            );
            let result = json::parse(stdout.lines().last().expect("a result line"))
                .expect("JSON result line");
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}: outputs incorrect\n{stdout}"
            );
            let printed: Vec<(String, String, String)> = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics object")
                .iter()
                .map(|(name, m)| {
                    assert!(well_named(name), "badly named printed metric {name:?}");
                    let unit = m
                        .get("unit")
                        .and_then(Value::as_str)
                        .expect("unit")
                        .to_string();
                    let better = declared(&doc, list)
                        .into_iter()
                        .find(|(n, ..)| n == name)
                        .unwrap_or_else(|| panic!("{workload} printed undeclared metric {name}"))
                        .2;
                    (name.clone(), unit, better)
                })
                .collect();
            assert_eq!(printed, declared(&doc, list), "{workload} --trace {trace}");
        }
    }
}
