//! The repository benchmark: DeepSZ's compress pipeline on a trained
//! surrogate model, then multi-tenant serving of compressed models under
//! seeded open-loop and closed-loop load, with every output checked.
//!
//! ```text
//! benchmark [--workload warm|churn]... [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload runs in this process and prints `workload metric value
//! unit` lines followed by one JSON line: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics (spans go to
//! `bench-trace/<workload>-seed<N>.json`). With no or several `--workload`
//! flags each workload runs in a child process of this binary, so heap and
//! pool state from one cannot reach the next. The exit code is non-zero
//! when any output check fails. `README.md` beside this crate describes the
//! workloads and metrics.

mod compress;
mod load;
mod report;
mod serve;
mod stats;
mod trace;

use report::{Checks, Report};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Rounds per run. Each runs one compress pass with its decodes and one
/// serving cycle, so every metric samples the whole run and a burst of
/// load from elsewhere on the host spoils one round, not one metric.
const ROUNDS: usize = 3;
/// Seconds one run measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 27.0;

const WORKLOADS: [(&str, serve::Traffic); 2] = [("warm", serve::WARM), ("churn", serve::CHURN)];

const USAGE: &str =
    "usage: benchmark [--workload warm|churn]... [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|(name, _)| *name == w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workloads.push(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds < 1.0 {
                    return Err("--seconds must be a number of at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let [name] = args.workloads.as_slice() {
        return run_one(name, &args);
    }
    let names: Vec<&str> = if args.workloads.is_empty() {
        WORKLOADS.iter().map(|(n, _)| *n).collect()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in names {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("workload {name} failed: {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("workload {name} did not start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one workload run produced.
struct Outcome {
    e2e: Report,
    layers: Report,
    checks: Checks,
}

fn run_workload(
    traffic: serve::Traffic,
    seed: u64,
    seconds: f64,
    tr: &trace::Tracer,
) -> Result<Outcome, String> {
    let mut e2e = Report::default();
    let mut layers = Report::default();
    let mut checks = Checks::default();
    layers.add(
        "host_parallelism",
        dsz_tensor::parallel::host_parallelism() as f64,
        "count",
    );
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let start = Instant::now();
        let built = tr.span("setup", None, |sp| -> Result<_, String> {
            let model = compress::setup(seed, tr, sp);
            let fleet = serve::setup(seed, traffic, tr, sp)?;
            Ok((model, fleet))
        })?;
        setup_s.push(start.elapsed().as_secs_f64());
        state = Some(built);
    }
    e2e.add("setup_s", stats::median(&setup_s), "s");
    let (model, mut fleet) = state.expect("at least one set-up");

    let mut compressing = compress::Stage::new(&model);
    let mut serving = serve::Stage::new(&mut fleet, traffic, seed, tr, &mut layers)?;
    let per_round = seconds / ROUNDS as f64;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        compressing.round(tr, &mut checks)?;
        // The serving cycle takes what is left of the round, at least half.
        let left = (per_round - start.elapsed().as_secs_f64()).max(per_round / 2.0);
        serving.cycle(left, tr, &mut checks)?;
    }
    compressing.finish(tr, &mut e2e, &mut layers, &mut checks)?;
    serving.finish(&mut e2e, &mut layers);
    Ok(Outcome {
        e2e,
        layers,
        checks,
    })
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let traffic = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, t)| t)
        .expect("workload names are validated while parsing");
    let tr = trace::Tracer::new(args.trace);
    let outcome = match run_workload(traffic, args.seed, args.seconds, &tr) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in outcome.e2e.metrics.iter().chain(&outcome.layers.metrics) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    for f in &outcome.checks.failures {
        eprintln!("{name}: check failed: {f}");
    }
    if args.trace {
        let dir = std::path::Path::new("bench-trace");
        let path = dir.join(format!("{name}-seed{}.json", args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::to_json(&tr.spans())));
        match written {
            Ok(()) => println!("# trace: {}", path.display()),
            Err(e) => {
                eprintln!("{name}: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let c = &outcome.checks;
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.correct(),
        c.attempted,
        c.failed,
        metrics.json_body()
    );
    if c.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
