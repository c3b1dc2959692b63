//! `sweep`: a pruning campaign through `Campaign::run` on 2 fleet workers,
//! with a fresh checkpoint directory on every run. Its cells are the
//! Table 3 protocol `{Gt, GtOp, BinS} × {xor-fold, modulo} × {quiescent
//! local, Cloud Run}` on the non-inclusive 4-slice host, the
//! `coresidency-grid` population cells, and the inclusive × xor-fold cells
//! under quiescent-local noise. One operation is one campaign trial.
//!
//! A run is several rounds, each a whole campaign with its own master seed
//! and checkpoint directory. All trials of a campaign share the machines
//! its pool builds from one build seed, so the build is a random effect of
//! the whole campaign; averaging over rounds keeps one lucky or unlucky
//! build from setting the run's throughput.
//!
//! Every trial passes through [`Tallied`], a `TrialSource` that delegates
//! each call to `PruningSweep`, times it and tallies its outcome apart from
//! the campaign's own aggregation.

use crate::report::{self, Digest, Outcome};
use crate::Layers;
use llc_bench::experiments::Environment;
use llc_bench::sweeps::{build_preset, PruningSweep, SweepCell, SWEEP_METRICS};
use llc_bench::RunOpts;
use llc_cache_model::{HierarchyOptions, InclusionPolicy, SliceHashSelect};
use llc_campaign::{
    Campaign, CampaignSpec, CellSpec, Fleet, RunOptions, TrialCtx, TrialOutcome, TrialSource,
};
use llc_core::Algorithm;
use llc_fleet::stream_seed;
use llc_machine::{MachineStats, NoiseFidelity, PooledMachine, TenantPopulation};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fleet workers: the host's two CPUs.
const WORKERS: usize = 2;
/// Campaign rounds per run (fewer when `--seconds` is smaller).
const ROUNDS: u64 = 9;
/// Trials per cell per second of `--seconds`, over all rounds: 5 per cell
/// and round at `--seconds 40`. With 4, one chunk of 4 trials per cell,
/// the cross-seed spread of `ops_per_s` was 28% and of `peak_rss_mb` 22%.
const TRIALS_PER_CELL_PER_SECOND: f64 = 1.125;
/// Stream tag of the campaign master seeds.
const MASTER_SEED: u64 = u64::from_le_bytes(*b"sweepops");

/// One round: a campaign, its trial source and its checkpoint directory.
#[derive(Debug)]
struct Round {
    spec: CampaignSpec,
    source: PruningSweep,
    dir: PathBuf,
}

impl Drop for Round {
    fn drop(&mut self) {
        // Best effort: a leftover directory only costs disk space, and the
        // next run with the same name starts by removing it.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The run's campaigns.
#[derive(Debug)]
pub struct Inputs {
    rounds: Vec<Round>,
}

fn cells() -> Vec<SweepCell> {
    let base = RunOpts::smoke_with_threads(WORKERS);
    let algorithms = [Algorithm::Gt, Algorithm::GtOp, Algorithm::BinS];
    let mut cells = Vec::new();
    let mut push = |opts: &RunOpts, environment: Environment| {
        let spec = opts.spec();
        for algorithm in algorithms {
            cells.push(SweepCell {
                id: format!(
                    "{}|{}|{}|{}",
                    algorithm.name(),
                    opts.inclusion.label(),
                    opts.slice_hash.label(),
                    environment.label()
                ),
                spec: spec.clone(),
                noise: environment.noise(),
                algorithm,
                filtering: false,
                tenants: TenantPopulation::empty(),
            });
        }
    };
    for slice_hash in [SliceHashSelect::XorFold, SliceHashSelect::Modulo] {
        for environment in Environment::all() {
            push(
                &RunOpts {
                    slice_hash: slice_hash.clone(),
                    ..base.clone()
                },
                environment,
            );
        }
    }
    // Known fault, kept so its fix shows: the SF-target oracle scores nearly
    // every inclusive trial as failed, because an inclusive host keeps the
    // SF empty and its 11-way LLC evicts. A few trials per run do score as
    // successes, so these are outcomes, not failed operations.
    push(
        &RunOpts {
            inclusion: InclusionPolicy::Inclusive,
            ..base.clone()
        },
        Environment::QuiescentLocal,
    );
    let coresidency =
        build_preset("coresidency-grid", &base).expect("coresidency-grid is a preset");
    cells.extend(coresidency.source.cells().iter().cloned());
    cells
}

/// Builds the campaigns for `seed`, each with a fresh, empty checkpoint
/// directory.
///
/// # Panics
///
/// Panics if a directory cannot be cleared or created.
pub fn setup(seed: u64, seconds: u64) -> Inputs {
    let rounds = ROUNDS.min(seconds);
    let trials =
        ((seconds as f64 * TRIALS_PER_CELL_PER_SECOND / rounds as f64).round() as u64).max(1);
    let rounds = (0..rounds)
        .map(|round| {
            let cells = cells();
            let master_seed = stream_seed(stream_seed(seed, MASTER_SEED), round);
            let spec = CampaignSpec {
                name: "perfbench-sweep".to_string(),
                master_seed,
                chunk_trials: 4,
                metrics: SWEEP_METRICS.iter().map(ToString::to_string).collect(),
                cells: cells
                    .iter()
                    .map(|c| CellSpec {
                        id: c.id.clone(),
                        trials,
                    })
                    .collect(),
            };
            let dir =
                crate::scratch_dir().join(format!("sweep-{}-{seed}-{round}", std::process::id()));
            if dir.exists() {
                std::fs::remove_dir_all(&dir).expect("clear the checkpoint directory");
            }
            std::fs::create_dir_all(&dir).expect("create the checkpoint directory");
            let source = PruningSweep::new(
                cells,
                NoiseFidelity::Exact,
                HierarchyOptions::default(),
                master_seed,
            );
            Round { spec, source, dir }
        })
        .collect();
    Inputs { rounds }
}

/// What the wrapper saw of the trials.
#[derive(Debug, Default)]
struct Tally {
    /// `(trials, successes)` per cell.
    cells: Vec<(u64, u64)>,
    /// Simulated cycles reported by the trials.
    sim_cycles: u64,
    /// Host seconds of each trial.
    trial_secs: Vec<f64>,
    /// Layer counts of the traced run.
    layers: Layers,
}

/// Delegates every call to the sweep, timing and tallying each trial.
struct Tallied<'a> {
    inner: &'a PruningSweep,
    trace: bool,
    tally: Mutex<Tally>,
    /// Pristine machine statistics and clock per pool key (traced run).
    pristine: Mutex<HashMap<u64, (MachineStats, u64)>>,
}

impl TrialSource for Tallied<'_> {
    type Worker = Option<PooledMachine>;
    type Item = TrialOutcome;

    fn init(&self, worker: usize) -> Self::Worker {
        self.inner.init(worker)
    }

    fn run_trial(&self, held: &mut Self::Worker, cell: usize, ctx: TrialCtx) -> TrialOutcome {
        let start = Instant::now();
        let outcome = self.inner.run_trial(held, cell, ctx);
        let elapsed = start.elapsed();
        let machine = held
            .as_ref()
            .expect("the sweep holds a machine after a trial");
        let machine_delta = self.trace.then(|| {
            let (stats, clock) = *self
                .pristine
                .lock()
                .expect("no trial panics while holding the pristine map")
                .entry(machine.key())
                .or_insert_with(|| {
                    let pristine = machine.pristine().to_machine();
                    (pristine.stats(), pristine.now())
                });
            (machine.stats(), stats, machine.now() - clock)
        });
        let mut tally = self
            .tally
            .lock()
            .expect("no trial panics while holding the tally");
        tally.cells[cell].0 += 1;
        tally.cells[cell].1 += u64::from(outcome.success);
        tally.sim_cycles += outcome.metrics[0];
        tally.trial_secs.push(elapsed.as_secs_f64());
        if let Some((after, before, cycles)) = machine_delta {
            let layers = &mut tally.layers;
            layers.fleet_busy += elapsed;
            layers.add_machine(after, before, cycles);
            layers.backtracks += outcome.metrics[1];
        }
        outcome
    }

    fn on_trial_panic(&self, held: &mut Self::Worker) {
        self.inner.on_trial_panic(held);
    }
}

/// Runs every round's campaign, checks each against the wrapper's tally,
/// and resumes each finished directory once to check that nothing re-runs.
/// Each round's directory is removed once the round is checked.
pub fn run(inputs: Inputs, trace: bool, setup_s: f64) -> Outcome {
    let fleet = Fleet::new(WORKERS);
    let mut correct = true;
    let mut complain = |what: String| {
        println!("check failed: {what}");
        correct = false;
    };
    let mut digest = Digest::default();
    let mut trial_secs = Vec::new();
    let (mut attempted, mut failed, mut sim_cycles) = (0u64, 0u64, 0u64);
    let mut wall = Duration::ZERO;
    let mut layers = Layers::default();
    // Each round is dropped after it runs, so only one machine pool is alive
    // at a time.
    for round in inputs.rounds {
        let wrapper = Tallied {
            inner: &round.source,
            trace,
            tally: Mutex::new(Tally {
                cells: vec![(0, 0); round.spec.cells.len()],
                ..Tally::default()
            }),
            pristine: Mutex::new(HashMap::new()),
        };
        let campaign = Campaign::new(round.spec.clone(), &round.dir);
        let started = Instant::now();
        let outcome = campaign.run(&fleet, &wrapper, &RunOptions::default());
        let round_wall = started.elapsed();
        let tally = wrapper
            .tally
            .into_inner()
            .expect("the campaign has joined every worker");
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(err) => {
                // Without aggregates there is nothing to check or time.
                println!("check failed: the campaign returned {err}");
                std::process::exit(1);
            }
        };
        if !outcome.complete {
            complain("the campaign did not complete".to_string());
        }
        // A quarantined trial panicked on every attempt: it never reached
        // the tally, and it counts as failed.
        let quarantined = outcome.quarantined.len() as u64;
        for (cell, (aggregate, &(trials, successes))) in
            outcome.aggregates.iter().zip(&tally.cells).enumerate()
        {
            let spec = &round.spec.cells[cell];
            let lost = outcome
                .quarantined
                .iter()
                .filter(|q| q.cell == cell)
                .count() as u64;
            if (aggregate.trials, aggregate.successes) != (trials, successes)
                || trials + lost != spec.trials
            {
                complain(format!(
                    "cell {} aggregates {}/{} but the trials reported {successes}/{trials}",
                    spec.id, aggregate.successes, aggregate.trials
                ));
            }
        }
        match campaign.run(&fleet, &round.source, &RunOptions::default()) {
            Ok(again) if again.chunks_run == 0 && again.aggregates == outcome.aggregates => {}
            Ok(again) => complain(format!(
                "resuming the finished campaign ran {} chunks or changed its aggregates",
                again.chunks_run
            )),
            Err(err) => complain(format!("resuming the finished campaign returned {err}")),
        }
        for (cell, aggregate) in round.spec.cells.iter().zip(&outcome.aggregates) {
            digest.push_str(&cell.id);
            digest.push_str(&format!("{aggregate:?}"));
        }
        attempted += tally.cells.iter().map(|&(trials, _)| trials).sum::<u64>() + quarantined;
        failed += quarantined;
        sim_cycles += tally.sim_cycles;
        trial_secs.extend(tally.trial_secs);
        wall += round_wall;
        if trace {
            let pool = round.source.pool().stats();
            layers.fleet_idle +=
                (round_wall * WORKERS as u32).saturating_sub(tally.layers.fleet_busy);
            layers.merge(&tally.layers);
            layers.pool_builds += pool.builds;
            layers.pool_acquisitions += pool.acquisitions;
            layers.chunks += outcome.chunks_run;
            layers.record_bytes += ["manifest.json", "records.jsonl"]
                .iter()
                .map(|f| std::fs::metadata(round.dir.join(f)).map_or(0, |m| m.len()))
                .sum::<u64>();
            layers.quarantined += quarantined;
        }
    }
    crate::print_op_summary(&trial_secs);
    let wall_s = wall.as_secs_f64();
    let metrics = if trace {
        // A trial is the operation, so coverage is the share of the
        // workers' time spent inside trials.
        let busy_s = layers.fleet_busy.as_secs_f64();
        layers.metrics(
            wall_s * WORKERS as f64,
            busy_s,
            attempted as f64 / wall_s,
            busy_s,
        )
    } else {
        vec![
            ("setup_s", setup_s),
            ("ops_per_s", attempted as f64 / wall_s),
            ("sim_cycles_per_host_s", sim_cycles as f64 / wall_s),
            ("peak_rss_mb", report::peak_rss_mb()),
        ]
    };
    Outcome {
        correct,
        attempted,
        failed,
        digest: digest.value(),
        metrics,
    }
}
