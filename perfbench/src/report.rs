//! Metric declarations, the result line, and the small statistics every
//! workload shares: the nearest-rank percentile, the outcome digest and the
//! peak resident memory of the process.
//!
//! The declarations here mirror `BENCHMARK.json` one to one; the
//! `metric_names` integration test holds the two together.

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of an untraced run (`--trace 0`), printed by every workload.
pub const END_TO_END: [Metric; 4] = [
    m("setup_s", "s", Lower),
    m("ops_per_s", "1/s", Higher),
    m("sim_cycles_per_host_s", "cycles/s", Higher),
    m("peak_rss_mb", "MiB", Lower),
];

/// Metrics of a traced run (`--trace 1`), printed by every workload. A
/// layer the workload never calls reads 0 (see the README's layer table).
/// Host time per layer is a share of the traced operations' host time, so
/// the shares of one run add up to `trace.coverage_pct`.
pub const PER_LAYER: [Metric; 28] = [
    m("trace.ops_per_s", "1/s", Higher),
    m("trace.coverage_pct", "%", Higher),
    m("machine.build_pct", "%", Lower),
    m("evsets.candidates_pct", "%", Lower),
    m("core.train_pct", "%", Lower),
    m("core.scan_pct", "%", Lower),
    m("probe.capture_pct", "%", Lower),
    m("core.extract_pct", "%", Lower),
    m("recovery.search_pct", "%", Lower),
    m("fleet.busy_s", "s", Lower),
    m("fleet.idle_s", "s", Lower),
    m("cache-model.accesses", "count", Lower),
    m("cache-model.ns_per_access", "ns", Lower),
    m("machine.noise_events", "count", Lower),
    m("machine.tenant_accesses", "count", Lower),
    m("machine.victim_runs", "count", Lower),
    m("machine.sim_cycles", "cycles", Lower),
    m("machine.pool_builds", "count", Lower),
    m("machine.pool_acquisitions", "count", Lower),
    m("evsets.backtracks", "count", Lower),
    m("core.scan_traces", "count", Lower),
    m("probe.signatures_captured", "count", Lower),
    m("recovery.signatures_used", "count", Lower),
    m("recovery.candidates_examined", "count", Lower),
    m("recovery.candidates_tested", "count", Lower),
    m("campaign.chunks", "count", Lower),
    m("campaign.record_bytes", "bytes", Lower),
    m("campaign.quarantined", "count", Lower),
];

/// What one run of a workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed on the operations that did not fail.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Digest of every simulated statistic the run produced.
    pub digest: u64,
    /// Metric values by name: exactly the declared set of the run's mode.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, each metric carrying its value and unit.
///
/// # Panics
///
/// Panics when the metrics are not exactly the declared set of the mode or
/// a value is not finite — both are bugs in a workload, not in its inputs.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let declared: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(
        outcome.metrics.len(),
        declared.len(),
        "metric count differs from the declaration"
    );
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, decl) in declared.iter().enumerate() {
        let value = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == decl.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", decl.name))
            .1;
        assert!(
            value.is_finite(),
            "metric {} is not finite: {value}",
            decl.name
        );
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that reads back as the
        // same f64, so no digit of the measurement is dropped.
        write!(
            line,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            decl.name, value, decl.unit
        )
        .expect("writing to a String cannot fail");
    }
    line.push_str("}}");
    line
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `pct` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a percentile outside `0..=100`.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile {pct} outside 0..=100"
    );
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile with at least [`TAIL_BEYOND`]
/// samples beyond it, as `(percentile, value)`. `None` with fewer than 40
/// samples: that percentile would sit below the 75th and be no tail.
///
/// # Panics
///
/// Panics if the tail comes out below the median, which would mean the
/// samples were not sorted.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 4 * TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    let pct = 100.0 * rank as f64 / n as f64;
    let value = nearest_rank(sorted, pct);
    let median = nearest_rank(sorted, 50.0);
    assert!(
        value >= median,
        "tail {value} below median {median}: samples not sorted"
    );
    Some((pct, value))
}

/// FNV-1a over 64-bit words: a digest of simulated statistics that two
/// commits differing only in speed must reproduce exactly.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a string in, length first.
    pub fn push_str(&mut self, s: &str) {
        self.push(s.len() as u64);
        for byte in s.bytes() {
            self.push(u64::from(byte));
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB: `VmHWM` of
/// `/proc/self/status`. Unlike `getrusage`'s `ru_maxrss`, which Linux
/// carries across `exec`, it does not report the launching process (such
/// as `cargo run`) when that one was larger.
///
/// # Panics
///
/// Panics if `/proc/self/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().strip_suffix("kB"))
        .and_then(|value| value.trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 5.0);
        assert_eq!(nearest_rank(&xs, 51.0), 6.0);
        assert_eq!(nearest_rank(&xs, 100.0), 10.0);
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        let (pct, value) = tail(&xs).expect("50 samples have a tail");
        assert_eq!(pct, 80.0);
        assert_eq!(value, 40.0);
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
    }

    #[test]
    #[should_panic(expected = "below median")]
    fn tail_rejects_unsorted_samples() {
        let xs: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        tail(&xs);
    }

    #[test]
    fn digest_separates_order_and_content() {
        let mut a = Digest::default();
        a.push(1);
        a.push(2);
        let mut b = Digest::default();
        b.push(2);
        b.push(1);
        assert_ne!(a.value(), b.value());
    }
}
