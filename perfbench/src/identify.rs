//! `identify`: Step 2 of the Section 7.3 attack as fixed work, one client
//! on one thread. One operation trains the target-set classifier
//! (`TraceClassifier::train`: synthetic traces → Welch PSD → SVM) and scans
//! a fixed list of eviction sets once with `scan_for_target`. Host, victim
//! and classifier are those of `run_end_to_end`:
//! the 4-slice Skylake-SP host under Cloud Run noise at exact fidelity, the
//! 128-bit-nonce victim, 1 ms traces.
//!
//! The list holds [`SETS`] eviction sets at the victim's page offset, taken
//! from the oracle rather than Step 1 so that the work does not hang on
//! where a bulk construction happens to place the target: [`SETS`] − 1
//! other SF sets, then the target set last. The scan's timeout allows one
//! pass, so every operation collects [`SETS`] traces (fewer only if it
//! names a decoy, which makes the run incorrect). Without the timeout a
//! classifier that keeps missing the target scans for 60 simulated
//! seconds, and how often it misses decides the work. A miss is an outcome
//! of the attack, counted and in the digest, not a failed operation.
//!
//! This is the only workload that reaches `sigproc` and the SVM of `ml`.
//! Traced and untraced runs run the same code, with a timer around each
//! call into a layer; only the metrics they print differ.

use crate::report::{self, Digest, Outcome};
use crate::{timed, Layers};
use llc_bench::experiments::Environment;
use llc_cache_model::CacheSpec;
use llc_core::{scan_for_target, ClassifierTrainingConfig, ScanConfig, TraceClassifier};
use llc_ecdsa_victim::{EcdsaVictim, EcdsaVictimConfig};
use llc_evsets::{oracle, CandidateSet, EvictionSet, TargetCache};
use llc_fleet::stream_seed;
use llc_machine::{Machine, MachineStats, NoiseFidelity};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Eviction sets in the scanned list, the target's included.
const SETS: usize = 8;
/// Operations per second of `--seconds` (each takes about 0.14 host s).
const OPS_PER_SECOND: u64 = 7;
/// Idle gap between victim requests, as in `AttackConfig::default`.
const REQUEST_GAP: u64 = 200_000;
/// Stream tag of the operation seeds, and the streams of one operation.
const OP_SEEDS: u64 = u64::from_le_bytes(*b"identify");
const MACHINE: u64 = 1;
const VICTIM: u64 = 2;
const ALLOC: u64 = 3;
const TRAIN: u64 = 4;

/// The run's inputs.
#[derive(Debug)]
pub struct Inputs {
    spec: CacheSpec,
    victim: EcdsaVictimConfig,
    classifier: ClassifierTrainingConfig,
    scan: ScanConfig,
    seeds: Vec<u64>,
}

/// Generates the operation seeds from the workload seed and the
/// configuration `run_end_to_end` gives Steps 1–2.
pub fn setup(seed: u64, seconds: u64) -> Inputs {
    let spec = llc_bench::smoke_skylake();
    let environment = Environment::CloudRun;
    let victim = EcdsaVictimConfig {
        nonce_bits: 128,
        pre_cycles: 2_000_000,
        post_cycles: 800_000,
        ..EcdsaVictimConfig::default()
    };
    let mut classifier = ClassifierTrainingConfig::default();
    classifier.features.expected_period_cycles = victim.expected_access_period();
    classifier.noise_per_ms = environment.noise().accesses_per_ms(spec.freq_ghz);
    let trace_cycles = 1_000_000;
    let scan = ScanConfig {
        trace_cycles,
        timeout_cycles: SETS as u64 * trace_cycles,
        ..ScanConfig::default()
    };
    let ops = (seconds * OPS_PER_SECOND).max(1);
    let seeds = (0..ops)
        .map(|i| stream_seed(stream_seed(seed, OP_SEEDS), i))
        .collect();
    Inputs {
        spec,
        victim,
        classifier,
        scan,
        seeds,
    }
}

/// What one identification produced.
struct OpResult {
    identified: Option<usize>,
    traces: u64,
    sim_cycles: u64,
    validation_accuracy: f64,
    host_s: f64,
}

/// One identification, each call into a layer timed into `layers`.
fn run_op(inputs: &Inputs, seed: u64, layers: &mut Layers) -> OpResult {
    let start = Instant::now();
    let spec = &inputs.spec;
    let environment = Environment::CloudRun;
    let (mut machine, handle) = timed(&mut layers.machine, || {
        let mut machine = Machine::builder(spec.clone())
            .noise(environment.noise())
            .noise_fidelity(NoiseFidelity::Exact)
            .seed(stream_seed(seed, MACHINE))
            .build();
        let (victim, handle) = EcdsaVictim::new(EcdsaVictimConfig {
            seed: stream_seed(seed, VICTIM),
            ..inputs.victim.clone()
        });
        machine.install_victim(Box::new(victim), true, REQUEST_GAP);
        (machine, handle)
    });
    let layout = handle
        .lock()
        .expect("victim log")
        .layout
        .clone()
        .expect("victim setup ran");
    let target = machine.oracle_victim_location(layout.branch_line);
    let ways = spec.sf.ways();
    let sets = timed(&mut layers.evsets, || {
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, ALLOC));
        let pool = CandidateSet::allocate(
            &mut machine,
            layout.target_page_offset(),
            spec.sf.uncertainty() * ways * 3,
            &mut rng,
        );
        // One member beyond the set's `ways` serves as its target address;
        // the pool's shuffled order picks the decoys.
        let groups = oracle::group_by_location(&machine, pool.addresses());
        let to_set = |members: &[_]| {
            (
                members[ways],
                EvictionSet::new(members[..ways].to_vec(), TargetCache::Sf),
            )
        };
        let mut sets = Vec::with_capacity(SETS);
        let mut seen = Vec::new();
        for &address in pool.addresses() {
            if sets.len() == SETS - 1 {
                break;
            }
            let location = machine.oracle_attacker_location(address);
            if location == target || seen.contains(&location) {
                continue;
            }
            seen.push(location);
            if let Some(members) = groups.get(&location).filter(|m| m.len() > ways) {
                sets.push(to_set(members));
            }
        }
        let members = groups
            .get(&target)
            .filter(|m| m.len() > ways)
            .expect("candidate pool covers the target set");
        sets.push(to_set(members));
        sets
    });
    assert_eq!(sets.len(), SETS, "candidate pool covers {SETS} sets");
    let classifier = timed(&mut layers.train, || {
        TraceClassifier::train(&ClassifierTrainingConfig {
            seed: stream_seed(seed, TRAIN),
            ..inputs.classifier.clone()
        })
    });
    let scan = timed(&mut layers.scan, || {
        scan_for_target(&mut machine, &sets, &classifier, &inputs.scan)
    });
    layers.add_machine(machine.stats(), MachineStats::default(), machine.now());
    layers.scan_traces += scan.traces_collected;
    OpResult {
        identified: scan.identified,
        traces: scan.traces_collected,
        sim_cycles: machine.now(),
        validation_accuracy: classifier.validation.accuracy(),
        host_s: start.elapsed().as_secs_f64(),
    }
}

/// Runs every identification back to back on one thread and checks that
/// none named a decoy: each names the target set, the last of the list, or
/// nothing.
pub fn run(inputs: &Inputs, trace: bool, setup_s: f64) -> Outcome {
    let mut layers = Layers::default();
    let started = Instant::now();
    let results: Vec<OpResult> = inputs
        .seeds
        .iter()
        .map(|&seed| run_op(inputs, seed, &mut layers))
        .collect();
    let wall = started.elapsed().as_secs_f64();

    let mut digest = Digest::default();
    let mut correct = true;
    let mut sim_cycles = 0u64;
    let mut missed = 0u64;
    let mut op_secs = Vec::with_capacity(results.len());
    for (result, seed) in results.iter().zip(&inputs.seeds) {
        match result.identified {
            None => missed += 1,
            Some(i) if i != SETS - 1 => {
                println!(
                    "wrong set: operation seed {seed:#x} identified decoy {i}, not the target {}",
                    SETS - 1
                );
                correct = false;
            }
            Some(_) => {}
        }
        digest.push(result.identified.map_or(0, |i| i as u64 + 1));
        digest.push(result.traces);
        digest.push(result.sim_cycles);
        digest.push(result.validation_accuracy.to_bits());
        sim_cycles += result.sim_cycles;
        op_secs.push(result.host_s);
    }
    crate::print_op_summary(&op_secs);
    println!("scans that missed the target set: {missed}");
    let ops = inputs.seeds.len() as f64;
    let metrics = if trace {
        let host_s: f64 = op_secs.iter().sum();
        layers.metrics(host_s, layers.covered().as_secs_f64(), ops / wall, host_s)
    } else {
        vec![
            ("setup_s", setup_s),
            ("ops_per_s", ops / wall),
            ("sim_cycles_per_host_s", sim_cycles as f64 / wall),
            ("peak_rss_mb", report::peak_rss_mb()),
        ]
    };
    Outcome {
        correct,
        attempted: inputs.seeds.len() as u64,
        failed: 0,
        digest: digest.value(),
        metrics,
    }
}
