//! The spread command: runs one workload untraced in fresh processes, one
//! for each of the seeds [`SEEDS`], and prints every metric's median, quartiles and spread (the
//! distance between the quartiles as a share of the median), so the bounds
//! in `BENCHMARK.json` can be re-checked on another host.

use crate::json::{self, Value};
use std::path::Path;
use std::process::Command;

/// The seeds a spread runs, one process each.
pub const SEEDS: std::ops::RangeInclusive<u64> = 1..=10;

/// Median and quartiles as Python's `statistics.median` and
/// `statistics.quantiles(values, n=4)` (the default, exclusive method)
/// compute them: `(q1, median, q3)`.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let median = if len % 2 == 1 {
        data[len / 2]
    } else {
        (data[len / 2 - 1] + data[len / 2]) / 2.0
    };
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), median, cut(3))
}

/// One run's parsed result line.
struct RunResult {
    seed: u64,
    correct: bool,
    attempted: f64,
    failed: f64,
    digest: String,
    metrics: Vec<(String, f64, String)>,
}

fn run_once(exe: &Path, workload: &str, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "seed {seed}: exit {}\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("seed {seed}: no output"))?;
    let value = json::parse(last).map_err(|e| format!("seed {seed}: {e}"))?;
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .unwrap_or("-")
        .to_string();
    let number = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("seed {seed}: no {key}"))
    };
    let metrics = value
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or(format!("seed {seed}: no metrics"))?
        .iter()
        .map(|(name, m)| {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("seed {seed}: {name} has no value"))?;
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            Ok((name.clone(), v, unit))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RunResult {
        seed,
        correct: value.get("correct") == Some(&Value::Bool(true)),
        attempted: number("attempted")?,
        failed: number("failed")?,
        digest,
        metrics,
    })
}

/// Runs `workload` once per seed of [`SEEDS`] with the executable `exe`,
/// sequentially, and prints the table.
pub fn run(exe: &Path, workload: &str, seconds: u64) -> Result<(), String> {
    let mut results = Vec::new();
    for seed in SEEDS {
        let r = run_once(exe, workload, seed, seconds)?;
        println!(
            "seed {:>4}  correct {}  attempted {}  failed {}  digest {}",
            r.seed, r.correct, r.attempted, r.failed, r.digest
        );
        results.push(r);
    }
    let shares: Vec<f64> = results.iter().map(|r| r.failed / r.attempted).collect();
    let same_share = shares.iter().all(|&s| s == shares[0]);
    println!(
        "failed share {} in every run: {}",
        shares[0],
        if same_share { "yes" } else { "NO" }
    );
    println!(
        "{:<32} {:>14} {:>14} {:>14} {:>8}  unit",
        "metric", "q1", "median", "q3", "spread"
    );
    for (i, (name, _, unit)) in results[0].metrics.iter().enumerate() {
        let values: Vec<f64> = results
            .iter()
            .map(|r| r.metrics.get(i).filter(|(n, ..)| n == name).map(|m| m.1))
            .collect::<Option<_>>()
            .ok_or(format!("runs disagree on the metrics printed for {name}"))?;
        let (q1, median, q3) = quartiles(&values);
        let spread = if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median
        };
        println!("{name:<32} {q1:>14.6} {median:>14.6} {q3:>14.6} {spread:>8.4}  {unit}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 3.0, 7.0));
    }
}
