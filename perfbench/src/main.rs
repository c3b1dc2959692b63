//! Benchmark command. Run one workload:
//!
//! ```text
//! perfbench --workload identify|key|sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! or run one untraced on seeds 1..=10 in fresh processes and print each
//! metric's spread:
//!
//! ```text
//! perfbench spread --workload identify|key|sweep [--seconds 40]
//! ```

use perfbench::{identify, key, report, spread, sweep, WORKLOADS};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up runs this many times per run and `setup_s` is their median, the
/// first timed from process start: one set-up timed alone moved by up to
/// 29% between sets of ten runs.
const SETUP_REPEATS: usize = 9;

/// Upper bound on `--seconds`: the operation list grows with it.
const MAX_SECONDS: u64 = 600;

const USAGE: &str = "usage: perfbench --workload identify|key|sweep --seed N --seconds S --trace 0|1\n       \
                     perfbench spread --workload identify|key|sweep [--seconds S]";

#[derive(Debug)]
struct Args {
    spread: bool,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (spread, rest) = match args.first().map(String::as_str) {
        Some("spread") => (true, &args[1..]),
        _ => (false, args),
    };
    let mut parsed = Args {
        spread,
        workload: String::new(),
        seed: 1,
        seconds: 40,
        trace: false,
    };
    let (mut seen_seed, mut seen_seconds, mut seen_trace) = (false, false, false);
    let mut iter = rest.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seconds" => {
                parsed.seconds = number()?;
                seen_seconds = true;
            }
            "--seed" if !spread => {
                parsed.seed = number()?;
                seen_seed = true;
            }
            "--trace" if !spread => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                };
                seen_trace = true;
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            parsed.workload
        ));
    }
    if !(1..=MAX_SECONDS).contains(&parsed.seconds) {
        return Err(format!("--seconds must be within 1..={MAX_SECONDS}"));
    }
    if !(spread || seen_seed && seen_seconds && seen_trace) {
        return Err("--seed, --seconds and --trace are required".to_string());
    }
    Ok(parsed)
}

enum Inputs {
    Identify(Box<identify::Inputs>),
    Key(Box<key::Inputs>),
    Sweep(sweep::Inputs),
}

fn setup(args: &Args) -> Inputs {
    match args.workload.as_str() {
        "identify" => Inputs::Identify(Box::new(identify::setup(args.seed, args.seconds))),
        "key" => Inputs::Key(Box::new(key::setup(args.seed, args.seconds))),
        _ => Inputs::Sweep(sweep::setup(args.seed, args.seconds)),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.spread {
        let exe = std::env::current_exe().expect("the running executable has a path");
        return match spread::run(&exe, &args.workload, args.seconds) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }

    // The previous inputs are dropped before each repeat, outside the
    // timing, because they share the repeat's checkpoint directories.
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for repeat in 0..SETUP_REPEATS {
        drop(inputs.take());
        let start = if repeat == 0 {
            process_start
        } else {
            Instant::now()
        };
        inputs = Some(setup(&args));
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    setup_secs.sort_by(f64::total_cmp);
    let setup_s = report::nearest_rank(&setup_secs, 50.0);
    let outcome = match inputs.expect("set up at least once") {
        Inputs::Identify(inputs) => identify::run(&inputs, args.trace, setup_s),
        Inputs::Key(inputs) => key::run(&inputs, args.trace, setup_s),
        Inputs::Sweep(inputs) => sweep::run(inputs, args.trace, setup_s),
    };
    println!("digest {:016x}", outcome.digest);
    println!("{}", report::result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}
