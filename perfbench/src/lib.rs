//! End-to-end and per-layer benchmark of the llc-feasible workspace.
//!
//! Three workloads, each run in its own process over a list of operations
//! fixed by `--seed` and `--seconds`: [`identify`] (Step 2, target-set
//! identification), [`key`] (Step 4 closed to the private key) and
//! [`sweep`] (a pruning campaign on the campaign engine). A run
//! prints one summary line, a digest of every simulated statistic it
//! produced, and as its last line the JSON result of [`report::result_line`].
//! See the README for the workloads, the metrics and how to re-check the
//! bounds of `BENCHMARK.json` with [`spread`].

#![warn(missing_docs)]

pub mod identify;
pub mod json;
pub mod key;
pub mod report;
pub mod spread;
pub mod sweep;

use llc_machine::MachineStats;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Names of the workloads, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["identify", "key", "sweep"];

/// Where runs keep their checkpoint directories while they run.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scratch")
}

/// Runs `f` and charges its host time to `acc`.
pub fn timed<R>(acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed();
    out
}

/// Prints the operation count and host-time percentiles of a run's
/// operations (information only; the metrics are in the result line).
pub fn print_op_summary(op_secs: &[f64]) {
    let mut sorted = op_secs.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return;
    }
    let tail = match report::tail(&sorted) {
        Some((pct, value)) => format!(", p{pct:.1} {value:.6} s"),
        None => String::new(),
    };
    println!(
        "operations {}: host s per operation p50 {:.6} s{tail}",
        sorted.len(),
        report::nearest_rank(&sorted, 50.0)
    );
}

/// Host time and work counts a traced run gathers, layer by layer. Time in
/// `sigproc`, `ml` and `ecdsa-victim` is charged to the `core`, `recovery`
/// or `machine` call that reaches it.
#[derive(Debug, Default)]
pub struct Layers {
    /// Machine construction, snapshots, rewinds, reseeds, victim installs.
    pub machine: Duration,
    /// Candidate-pool allocation and oracle grouping.
    pub evsets: Duration,
    /// Target-set classifier training (`sigproc` and `ml` inside).
    pub train: Duration,
    /// Target-set scans (`probe` and `sigproc` inside).
    pub scan: Duration,
    /// Monitoring signing windows (`capture_signing_run`).
    pub probe: Duration,
    /// Boundary-classifier training, scoring and soft decoding.
    pub core: Duration,
    /// Correction search with public-key verification.
    pub recovery: Duration,
    /// Host time inside trial bodies, summed over fleet workers.
    pub fleet_busy: Duration,
    /// Workers × fleet wall time − `fleet_busy`.
    pub fleet_idle: Duration,
    /// Attacker and victim memory accesses.
    pub accesses: u64,
    /// Background-noise insertions.
    pub noise_events: u64,
    /// Accesses posted by scheduled background tenants.
    pub tenant_accesses: u64,
    /// Victim requests completed.
    pub victim_runs: u64,
    /// Simulated cycles the machines advanced.
    pub sim_cycles: u64,
    /// Machines the pool built.
    pub pool_builds: u64,
    /// Machine checkouts the pool served.
    pub pool_acquisitions: u64,
    /// Pruning backtracks.
    pub backtracks: u64,
    /// Traces the target-set scans collected.
    pub scan_traces: u64,
    /// Signing windows monitored, training windows included.
    pub signatures_captured: u64,
    /// Signatures the correction search attacked before the key verified.
    pub signatures_used: u64,
    /// Correction-search candidates examined.
    pub candidates_examined: u64,
    /// Candidates submitted to public-key verification.
    pub candidates_tested: u64,
    /// Campaign chunks executed.
    pub chunks: u64,
    /// Bytes of the checkpoint directory's manifest and records.
    pub record_bytes: u64,
    /// Quarantined trials.
    pub quarantined: u64,
}

impl Layers {
    /// Folds in the machine work between two statistics snapshots.
    pub fn add_machine(&mut self, after: MachineStats, before: MachineStats, cycles: u64) {
        self.accesses += (after.attacker_accesses + after.victim_accesses)
            - (before.attacker_accesses + before.victim_accesses);
        self.noise_events += after.noise_events - before.noise_events;
        self.tenant_accesses += after.tenant_accesses - before.tenant_accesses;
        self.victim_runs += after.victim_runs - before.victim_runs;
        self.sim_cycles += cycles;
    }

    /// Adds every time and count of `other`.
    pub fn merge(&mut self, other: &Layers) {
        self.machine += other.machine;
        self.evsets += other.evsets;
        self.train += other.train;
        self.scan += other.scan;
        self.probe += other.probe;
        self.core += other.core;
        self.recovery += other.recovery;
        self.fleet_busy += other.fleet_busy;
        self.fleet_idle += other.fleet_idle;
        self.accesses += other.accesses;
        self.noise_events += other.noise_events;
        self.tenant_accesses += other.tenant_accesses;
        self.victim_runs += other.victim_runs;
        self.sim_cycles += other.sim_cycles;
        self.pool_builds += other.pool_builds;
        self.pool_acquisitions += other.pool_acquisitions;
        self.backtracks += other.backtracks;
        self.scan_traces += other.scan_traces;
        self.signatures_captured += other.signatures_captured;
        self.signatures_used += other.signatures_used;
        self.candidates_examined += other.candidates_examined;
        self.candidates_tested += other.candidates_tested;
        self.chunks += other.chunks;
        self.record_bytes += other.record_bytes;
        self.quarantined += other.quarantined;
    }

    /// Host time inside the timed layer calls.
    pub fn covered(&self) -> Duration {
        self.machine + self.evsets + self.train + self.scan + self.probe + self.core + self.recovery
    }

    /// The per-layer metrics. Layer times are shares of `host_s`, the
    /// traced operations' host time; `covered_s` of it was inside timed
    /// calls; `access_s` is the host time charged to the cache-model
    /// accesses.
    pub fn metrics(
        &self,
        host_s: f64,
        covered_s: f64,
        ops_per_s: f64,
        access_s: f64,
    ) -> Vec<(&'static str, f64)> {
        let pct = |d: Duration| 100.0 * d.as_secs_f64() / host_s;
        vec![
            ("trace.ops_per_s", ops_per_s),
            ("trace.coverage_pct", 100.0 * covered_s / host_s),
            ("machine.build_pct", pct(self.machine)),
            ("evsets.candidates_pct", pct(self.evsets)),
            ("core.train_pct", pct(self.train)),
            ("core.scan_pct", pct(self.scan)),
            ("probe.capture_pct", pct(self.probe)),
            ("core.extract_pct", pct(self.core)),
            ("recovery.search_pct", pct(self.recovery)),
            ("fleet.busy_s", self.fleet_busy.as_secs_f64()),
            ("fleet.idle_s", self.fleet_idle.as_secs_f64()),
            ("cache-model.accesses", self.accesses as f64),
            (
                "cache-model.ns_per_access",
                access_s * 1e9 / self.accesses.max(1) as f64,
            ),
            ("machine.noise_events", self.noise_events as f64),
            ("machine.tenant_accesses", self.tenant_accesses as f64),
            ("machine.victim_runs", self.victim_runs as f64),
            ("machine.sim_cycles", self.sim_cycles as f64),
            ("machine.pool_builds", self.pool_builds as f64),
            ("machine.pool_acquisitions", self.pool_acquisitions as f64),
            ("evsets.backtracks", self.backtracks as f64),
            ("core.scan_traces", self.scan_traces as f64),
            ("probe.signatures_captured", self.signatures_captured as f64),
            ("recovery.signatures_used", self.signatures_used as f64),
            (
                "recovery.candidates_examined",
                self.candidates_examined as f64,
            ),
            ("recovery.candidates_tested", self.candidates_tested as f64),
            ("campaign.chunks", self.chunks as f64),
            ("campaign.record_bytes", self.record_bytes as f64),
            ("campaign.quarantined", self.quarantined as f64),
        ]
    }
}
