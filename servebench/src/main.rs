//! Open-loop serving benchmark for the preview service.
//!
//! ```text
//! servebench --workload <hot-read|cold-read|read-publish|all> --seed <n> --seconds <s> --trace <0|1>
//! servebench --workload <name> --sweep [--rates r1,r2,...] --seed <n> --seconds <s>
//! servebench --workload <name> --setup-only
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! metrics; the last line of standard output is the result as JSON. Every
//! run checks the service's outputs and exits non-zero when a check fails
//! or the run cannot support its percentiles. `--workload all` runs each
//! workload in a process of its own and prints every report. `--sweep`
//! runs one workload over a ladder of offered rates and prints the knee.
//! `--setup-only` sets the workload up once and prints the seconds it took;
//! the untraced run times its set-ups this way, in processes of their own.
//! See `GLOSSARY.md` for every metric and workload.

mod check;
mod host;
mod live;
mod obs;
mod run;
mod setup;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode};

use workload::{configs_of, key_set, workload, WORKLOADS};

/// Further attempts after an invalid one.
const MAX_RETRIES: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sweep: bool,
    setup_only: bool,
    rates: Option<Vec<f64>>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        sweep: false,
        setup_only: false,
        rates: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--sweep" {
            args.sweep = true;
            continue;
        }
        if flag == setup::SETUP_ONLY_FLAG {
            args.setup_only = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 1.0 && *s <= 120.0)
                    .ok_or_else(|| bad("expected seconds in [1, 120]"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--rates" => {
                let rates = value
                    .split(',')
                    .map(|r| r.parse::<f64>().ok().filter(|r| r.is_finite() && *r > 0.0))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| bad("expected positive rates separated by commas"))?;
                args.rates = Some(rates);
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Runs every workload in a child process of its own (so each peak RSS
/// belongs to one workload) and forwards their reports.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let mut all_ok = true;
    let mut lines = Vec::new();
    for w in WORKLOADS {
        let output = Command::new(&exe)
            .args([
                "--workload",
                w.name,
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        // lint: allow(no-println, benchmark binary output)
        print!("{stdout}");
        // lint: allow(no-println, benchmark binary output)
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        all_ok &= output.status.success();
        let last = stdout.lines().last().unwrap_or("null").to_string();
        lines.push(format!("\"{}\":{last}", w.name));
    }
    // lint: allow(no-println, benchmark binary output)
    println!("{{{}}}", lines.join(","));
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            // lint: allow(no-println, benchmark binary output)
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" && !args.sweep {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                // lint: allow(no-println, benchmark binary output)
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(w) = workload(&args.workload) else {
        // lint: allow(no-println, benchmark binary output)
        eprintln!(
            "error: unknown workload {:?} (expected one of: {}, all)",
            args.workload,
            WORKLOADS.map(|w| w.name).join(", ")
        );
        return ExitCode::from(2);
    };
    if args.setup_only {
        return match setup::setup(&w, &configs_of(&key_set(&w))) {
            Ok(served) => {
                // lint: allow(no-println, benchmark binary output)
                println!("{}", served.times.total_s);
                ExitCode::SUCCESS
            }
            Err(message) => {
                // lint: allow(no-println, benchmark binary output)
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        };
    }
    if args.sweep {
        let rates = args.rates.clone().unwrap_or_else(|| {
            [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]
                .iter()
                .map(|f| f * w.rate_rps)
                .collect()
        });
        return match run::sweep(&w, args.seed, args.seconds, &rates) {
            Ok(report) => {
                // lint: allow(no-println, benchmark binary output)
                println!("{report}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                // lint: allow(no-println, benchmark binary output)
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let list = if args.trace {
        &run::PER_LAYER[..]
    } else {
        &run::END_TO_END[..]
    };
    // An invalid attempt (the generator fell behind, or too few samples) is
    // discarded and measured once more; it is never reported.
    let mut attempt = 0;
    let outcome = loop {
        let outcome = if args.trace {
            run::traced(&w, args.seed, args.seconds)
        } else {
            run::untraced(&w, args.seed, args.seconds)
        };
        match outcome {
            Ok(outcome) if !outcome.invalid.is_empty() && attempt < MAX_RETRIES => {
                for reason in &outcome.invalid {
                    // lint: allow(no-println, benchmark binary output)
                    eprintln!("invalid attempt discarded, measuring again: {reason}");
                }
                attempt += 1;
            }
            Ok(outcome) => break outcome,
            Err(message) => {
                // lint: allow(no-println, benchmark binary output)
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
    };
    // lint: allow(no-println, benchmark binary output)
    print!("{}", outcome.text);
    if !outcome.invalid.is_empty() {
        for reason in &outcome.invalid {
            // lint: allow(no-println, benchmark binary output)
            eprintln!("invalid run: {reason}");
        }
        return ExitCode::from(3);
    }
    match outcome.json(list) {
        // lint: allow(no-println, benchmark binary output)
        Ok(line) => println!("{line}"),
        Err(message) => {
            // lint: allow(no-println, benchmark binary output)
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        for failure in &outcome.failures {
            // lint: allow(no-println, benchmark binary output)
            eprintln!("check failed: {failure}");
        }
        ExitCode::FAILURE
    }
}
