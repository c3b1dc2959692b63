//! `key`: Step 4 closed to the private key, as `e2e_key` drives it — Cloud
//! Run noise on the pinned 4-slice host, 48-bit full-crypto nonces, and a
//! correction search of 300 candidates with 2 flips per signature. One
//! operation is one `measure_key_recovery` campaign on `Fleet::new(1)`; the
//! run is two closed-loop clients, one per thread.
//!
//! The traced run replays the campaign step by step through the public
//! functions `measure_key_recovery` calls, timing each call, and checks
//! that the replay reproduces the untraced campaign's outcome exactly.

use crate::report::{self, Digest, Outcome};
use crate::{timed, Layers};
use llc_bench::experiments::{
    measure_key_recovery, trial_streams, Environment, KeyRecoveryOutcome, SignatureAttemptRow,
};
use llc_cache_model::{CacheSpec, HierarchyOptions};
use llc_core::{
    capture_signing_run, decode_bits_soft, soft_observation, BoundaryClassifier, ExtractionConfig,
};
use llc_ecdsa_victim::{group_order, Ecdsa, EcdsaVictim, EcdsaVictimConfig, KeyPair, Scalar};
use llc_evsets::{oracle, CandidateSet, EvictionSet, TargetCache};
use llc_fleet::{stream_seed, Fleet};
use llc_machine::{Machine, MachineStats, NoiseFidelity, TenantPopulation};
use llc_recovery::{attempt_signature, CampaignConfig, SearchConfig, SignatureObservation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Signature budget per campaign (about 1 campaign in 200 spends it without
/// the key).
const SIGNATURES: usize = 12;
/// Nonce width of the signing service.
const NONCE_BITS: usize = 48;
/// Correction-search budget per signature.
const SEARCH: SearchConfig = SearchConfig {
    max_candidates: 300,
    max_flips: 2,
};
/// The victim's long-term key seed inside `measure_key_recovery`.
const VICTIM_KEY_SEED: u64 = 0x515_0b0b;
/// Closed-loop clients, one per CPU of the host, each running campaigns
/// back to back: one client fits too few campaigns in a run to average out
/// how many signatures each key needs.
const CLIENTS: usize = 2;
/// Campaigns per second of `--seconds` (each takes about one host second
/// per client here).
const OPS_PER_SECOND: u64 = 2;
/// Stream tag of the campaign seeds.
const CAMPAIGN_SEEDS: u64 = u64::from_le_bytes(*b"keyops\0\0");

/// The run's inputs and the shared structures every operation checks
/// against.
#[derive(Debug)]
pub struct Inputs {
    spec: CacheSpec,
    seeds: Vec<u64>,
    /// The victim's private key regenerated from its key seed.
    expected: Scalar,
}

/// Generates the campaign seeds from the workload seed and regenerates the
/// victim's key apart from the program, checking d·G with the reference
/// double-and-add multiplication rather than the ladder that made it.
///
/// # Panics
///
/// Panics if the regenerated key pair is inconsistent.
pub fn setup(seed: u64, seconds: u64) -> Inputs {
    let ops = (seconds * OPS_PER_SECOND).max(1);
    let seeds = (0..ops)
        .map(|i| stream_seed(stream_seed(seed, CAMPAIGN_SEEDS), i))
        .collect();
    let ecdsa = Ecdsa::new();
    let curve = ecdsa.curve();
    let pair = KeyPair::generate(curve, &mut StdRng::seed_from_u64(VICTIM_KEY_SEED));
    assert_eq!(
        curve.scalar_mul_reference(pair.private(), &curve.generator()),
        *pair.public(),
        "d·G differs from the regenerated public key"
    );
    Inputs {
        spec: llc_bench::smoke_skylake(),
        seeds,
        expected: *pair.private(),
    }
}

/// The program's campaign, exactly as `e2e_key` calls it.
fn campaign(spec: &CacheSpec, seed: u64) -> KeyRecoveryOutcome {
    measure_key_recovery(
        spec,
        Environment::CloudRun,
        NoiseFidelity::Exact,
        HierarchyOptions::default(),
        &TenantPopulation::empty(),
        NONCE_BITS,
        SIGNATURES,
        SEARCH,
        seed,
        &Fleet::new(1),
    )
}

/// Simulated cycles of the signing windows the campaign consumed before
/// the key verified: the paper's attack time for Step 4. It is not every
/// cycle the campaign simulated: `measure_key_recovery` reports no total,
/// and the windows captured after the key broke are left out.
fn consumed_cycles(outcome: &KeyRecoveryOutcome) -> u64 {
    (outcome.mean_capture_cycles * outcome.per_signature.len() as f64).round() as u64
}

fn digest_outcome(digest: &mut Digest, outcome: &KeyRecoveryOutcome) {
    digest.push(outcome.per_signature.len() as u64);
    for row in &outcome.per_signature {
        digest.push(row.index as u64);
        digest.push(row.observed_bits as u64);
        digest.push(row.erasures as u64);
        digest.push(row.candidates_examined);
        digest.push(row.candidates_tested);
        digest.push(u64::from(row.recovered));
    }
    digest.push(outcome.signatures_needed.map_or(0, |n| n as u64 + 1));
    digest.push(u64::from(outcome.matches_ground_truth));
    digest.push_str(
        &outcome
            .recovered_key
            .map_or_else(String::new, |k| k.value().to_hex()),
    );
    digest.push(outcome.ladder_bits as u64);
    digest.push(outcome.mean_capture_cycles.to_bits());
}

fn same_outcome(a: &KeyRecoveryOutcome, b: &KeyRecoveryOutcome) -> bool {
    let rows = |o: &KeyRecoveryOutcome| -> Vec<_> {
        o.per_signature
            .iter()
            .map(|r| {
                (
                    r.index,
                    r.observed_bits,
                    r.erasures,
                    r.candidates_examined,
                    r.candidates_tested,
                    r.recovered,
                )
            })
            .collect()
    };
    rows(a) == rows(b)
        && a.signatures_needed == b.signatures_needed
        && a.matches_ground_truth == b.matches_ground_truth
        && a.recovered_key == b.recovered_key
        && a.ladder_bits == b.ladder_bits
        && a.mean_capture_cycles.to_bits() == b.mean_capture_cycles.to_bits()
}

/// One campaign's result as a client hands it back.
struct OpResult {
    outcome: KeyRecoveryOutcome,
    host_s: f64,
    layers: Layers,
    matches_untraced: bool,
}

/// One campaign; with `trace`, the timed replay followed by the untimed
/// campaign it must reproduce.
fn run_op(spec: &CacheSpec, seed: u64, trace: bool) -> OpResult {
    let start = Instant::now();
    let mut layers = Layers::default();
    if trace {
        let outcome = traced_campaign(spec, seed, &mut layers);
        let host_s = start.elapsed().as_secs_f64();
        let matches_untraced = same_outcome(&outcome, &campaign(spec, seed));
        OpResult {
            outcome,
            host_s,
            layers,
            matches_untraced,
        }
    } else {
        let outcome = campaign(spec, seed);
        let host_s = start.elapsed().as_secs_f64();
        OpResult {
            outcome,
            host_s,
            layers,
            matches_untraced: true,
        }
    }
}

/// Runs every campaign on [`CLIENTS`] closed-loop clients; with `trace`,
/// through the timed replay.
pub fn run(inputs: &Inputs, trace: bool, setup_s: f64) -> Outcome {
    let started = Instant::now();
    // Chunks of one campaign: each client takes the next campaign as soon
    // as its last one finishes.
    let results = Fleet::new(CLIENTS).with_chunk(1).run_tasks_with(
        inputs.seeds.len(),
        |_| (),
        |_, i| run_op(&inputs.spec, inputs.seeds[i], trace),
    );
    let wall = started.elapsed().as_secs_f64();

    let mut digest = Digest::default();
    let mut correct = true;
    let mut without_key = 0u64;
    let mut sim_cycles = 0u64;
    let mut signatures = 0u64;
    let mut op_secs = Vec::with_capacity(results.len());
    let mut layers = Layers::default();
    for (result, seed) in results.iter().zip(&inputs.seeds) {
        let outcome = &result.outcome;
        if !result.matches_untraced {
            println!("trace mismatch: the replay of campaign seed {seed:#x} differs from measure_key_recovery");
            correct = false;
        }
        digest_outcome(&mut digest, outcome);
        sim_cycles += consumed_cycles(outcome);
        signatures += outcome.per_signature.len() as u64;
        match outcome.recovered_key {
            None => without_key += 1,
            Some(key) if key != inputs.expected || !outcome.matches_ground_truth => {
                println!(
                    "wrong key: campaign seed {seed:#x} recovered {}",
                    key.value().to_hex()
                );
                correct = false;
            }
            Some(_) => {}
        }
        op_secs.push(result.host_s);
        layers.merge(&result.layers);
    }
    crate::print_op_summary(&op_secs);
    println!(
        "campaigns that spent their {SIGNATURES}-signature budget without the key: {without_key}"
    );
    let metrics = if trace {
        // Host time summed over the clients; the untimed comparison
        // campaigns are outside it.
        let host_s: f64 = op_secs.iter().sum();
        layers.metrics(
            host_s,
            layers.covered().as_secs_f64(),
            CLIENTS as f64 * signatures as f64 / host_s,
            host_s,
        )
    } else {
        vec![
            ("setup_s", setup_s),
            // Signatures attacked, not campaigns: how many signatures a key
            // needs differs so much between campaigns that campaigns per
            // second spread by 9–28% between seeds.
            ("ops_per_s", signatures as f64 / wall),
            ("sim_cycles_per_host_s", sim_cycles as f64 / wall),
            ("peak_rss_mb", report::peak_rss_mb()),
        ]
    };
    // A campaign that spends its budget without the key is an outcome of the
    // attack (its share depends on the seed), not a failed operation: the
    // program reported it correctly and recovered no wrong key.
    Outcome {
        correct,
        attempted: inputs.seeds.len() as u64,
        failed: 0,
        digest: digest.value(),
        metrics,
    }
}

/// Host time one fleet trial spent per layer, returned with its result
/// because the fleet's job closure cannot write to shared state.
#[derive(Default)]
struct TrialTimes {
    machine: Duration,
    probe: Duration,
    core: Duration,
    busy: Duration,
}

/// `measure_key_recovery`, step by step, with every call into a layer
/// timed. It must reproduce the untraced campaign bit for bit; `run`
/// compares the two.
fn traced_campaign(spec: &CacheSpec, seed: u64, layers: &mut Layers) -> KeyRecoveryOutcome {
    const REQUEST_GAP: u64 = 100_000;
    let victim_template = EcdsaVictimConfig {
        nonce_bits: NONCE_BITS,
        pre_cycles: 400_000,
        post_cycles: 200_000,
        full_crypto: true,
        key_seed: VICTIM_KEY_SEED,
        ..EcdsaVictimConfig::default()
    };
    let iteration_cycles = victim_template.iteration_cycles;
    let request_cycles = victim_template.pre_cycles
        + victim_template.post_cycles
        + NONCE_BITS as u64 * iteration_cycles
        + REQUEST_GAP;
    let window = request_cycles * 2;
    let extraction = ExtractionConfig {
        iteration_cycles,
        ..ExtractionConfig::default()
    };
    let install = |machine: &mut Machine, victim_seed: u64| {
        let cfg = EcdsaVictimConfig {
            seed: victim_seed,
            ..victim_template.clone()
        };
        let (victim, handle) = EcdsaVictim::new(cfg);
        machine.install_victim(Box::new(victim), true, REQUEST_GAP);
        handle
    };

    let mut base = timed(&mut layers.machine, || {
        Machine::builder(spec.clone())
            .noise(Environment::CloudRun.noise())
            .noise_fidelity(NoiseFidelity::Exact)
            .hierarchy_options(HierarchyOptions::default())
            .tenants(TenantPopulation::empty())
            .seed(stream_seed(seed, trial_streams::MACHINE))
            .build()
    });
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, trial_streams::ALLOC));
    let pool = timed(&mut layers.evsets, || {
        CandidateSet::allocate(
            &mut base,
            0x240,
            spec.sf.uncertainty() * spec.sf.ways() * 3,
            &mut rng,
        )
    });
    let (snap_stats, snap_clock) = (base.stats(), base.now());
    layers.add_machine(snap_stats, MachineStats::default(), snap_clock);
    let snapshot = timed(&mut layers.machine, || base.snapshot());

    let handle = timed(&mut layers.machine, || {
        install(&mut base, stream_seed(seed, trial_streams::VICTIM))
    });
    let (layout, key_pair) = {
        let log = handle.lock().expect("victim log");
        (
            log.layout.clone().expect("layout"),
            log.key_pair.clone().expect("full crypto key"),
        )
    };
    let target_loc = base.oracle_victim_location(layout.branch_line);
    let groups = timed(&mut layers.evsets, || {
        oracle::group_by_location(&base, pool.addresses())
    });
    let ways = spec.sf.ways();
    let members = groups
        .iter()
        .find(|(loc, m)| **loc == target_loc && m.len() > ways)
        .map(|(_, m)| m.clone())
        .expect("candidate pool covers the target set");
    let evset = EvictionSet::new(members[..ways].to_vec(), TargetCache::Sf);
    let public = *key_pair.public();
    let ground_truth = *key_pair.private();
    layers.add_machine(base.stats(), snap_stats, base.now() - snap_clock);

    timed(&mut layers.machine, || base.reset_to(&snapshot));
    let train_handle = timed(&mut layers.machine, || {
        install(&mut base, stream_seed(seed, trial_streams::TRAIN))
    });
    timed(&mut layers.machine, || {
        base.reseed(stream_seed(seed, trial_streams::TRAIN))
    });
    let training = timed(&mut layers.probe, || {
        capture_signing_run(&mut base, &evset, &train_handle, window, 0)
    })
    .expect("training window must cover one signing");
    layers.signatures_captured += 1;
    let train_boundaries: Vec<u64> = training
        .run
        .iteration_starts
        .iter()
        .map(|&o| training.run_start + o)
        .collect();
    let classifier = timed(&mut layers.core, || {
        BoundaryClassifier::train(&extraction, &[(&training.trace, &train_boundaries)])
    });
    layers.add_machine(base.stats(), snap_stats, base.now() - snap_clock);

    let init_ns = AtomicU64::new(0);
    let fleet_start = Instant::now();
    let trials: Vec<(Option<SignatureObservation>, TrialTimes, MachineStats, u64)> = Fleet::new(1)
        .run_with(
            SIGNATURES,
            seed,
            |_worker| {
                let start = Instant::now();
                let machine = snapshot.to_machine();
                init_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                machine
            },
            |machine, ctx| {
                let start = Instant::now();
                let mut t = TrialTimes::default();
                timed(&mut t.machine, || machine.reset_to(&snapshot));
                let handle = timed(&mut t.machine, || {
                    install(machine, ctx.stream(trial_streams::VICTIM))
                });
                timed(&mut t.machine, || {
                    machine.reseed(ctx.stream(trial_streams::NOISE))
                });
                let capture = timed(&mut t.probe, || {
                    capture_signing_run(machine, &evset, &handle, window, 0)
                });
                let observation = capture.and_then(|capture| {
                    timed(&mut t.core, || {
                        let scored = classifier.scored_boundaries(&capture.trace);
                        let decoded = decode_bits_soft(&capture.trace, &scored, &extraction);
                        let mut observation = soft_observation(&capture.run, &decoded)?;
                        observation.sim_cycles = capture.cycles;
                        Some(observation)
                    })
                });
                t.busy = start.elapsed();
                (observation, t, machine.stats(), machine.now() - snap_clock)
            },
        );
    let fleet_wall = fleet_start.elapsed();
    layers.machine += Duration::from_nanos(init_ns.load(Ordering::Relaxed));
    let mut busy = Duration::ZERO;
    let mut observations = Vec::with_capacity(trials.len());
    for (observation, t, stats, cycles) in trials {
        layers.machine += t.machine;
        layers.probe += t.probe;
        layers.core += t.core;
        busy += t.busy;
        layers.signatures_captured += 1;
        layers.add_machine(stats, snap_stats, cycles);
        observations.push(observation);
    }
    layers.fleet_busy += busy;
    layers.fleet_idle += fleet_wall.saturating_sub(busy);

    let ladder_bits = NONCE_BITS.min(group_order().bit_length()) - 1;
    let campaign_cfg = CampaignConfig {
        ladder_bits,
        iteration_cycles,
        max_signatures: SIGNATURES,
        max_alignment_shift: 1,
        search: SEARCH,
    };
    let mut outcome = KeyRecoveryOutcome {
        per_signature: Vec::new(),
        signatures_needed: None,
        matches_ground_truth: false,
        recovered_key: None,
        ladder_bits,
        mean_capture_cycles: 0.0,
    };
    let mut capture_cycles = Vec::new();
    for (index, observation) in observations.iter().enumerate() {
        let Some(observation) = observation else {
            continue;
        };
        capture_cycles.push(observation.sim_cycles as f64);
        let (recovered, stats) = timed(&mut layers.recovery, || {
            attempt_signature(&campaign_cfg, &public, observation)
        });
        layers.signatures_used += 1;
        layers.candidates_examined += stats.candidates_examined;
        layers.candidates_tested += stats.candidates_tested;
        outcome.per_signature.push(SignatureAttemptRow {
            index,
            observed_bits: observation.observed.len(),
            erasures: stats.erasures,
            candidates_examined: stats.candidates_examined,
            candidates_tested: stats.candidates_tested,
            recovered: recovered.is_some(),
        });
        if let Some(key) = recovered {
            outcome.signatures_needed = Some(index + 1);
            outcome.matches_ground_truth = key.private == ground_truth;
            outcome.recovered_key = Some(key.private);
            break;
        }
    }
    if !capture_cycles.is_empty() {
        outcome.mean_capture_cycles =
            capture_cycles.iter().sum::<f64>() / capture_cycles.len() as f64;
    }
    outcome
}
