//! Outside-in benchmark of the lgo workspace.
//!
//! ```text
//! perfbench --workload <pipeline|profile|serve-steady|defense> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run drives one workload through the workspace's public API for
//! about `--seconds` seconds, checks the outputs, and prints one JSON
//! line last on stdout: `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` makes a
//! separate traced run of the same workload and reports the per-layer
//! metrics from the spans the benchmark records around its own calls into
//! each crate. Progress and the layer breakdown go to stderr. See
//! `perfbench/README.md`.

mod batch;
mod defense;
mod layers;
mod probe;
mod report;
mod reps;
mod schedule;
mod serve;
mod spans;

use report::{Outcome, PER_LAYER};

/// Sets every per-layer metric the workload does not exercise to 0.
pub fn zero_missing(out: &mut Outcome) {
    for (name, _) in PER_LAYER {
        out.values.entry(name).or_insert(0.0);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <pipeline|profile|serve-steady|defense> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "pipeline" => batch::run(batch::Job::Pipeline, args.seed, args.seconds, args.trace),
        "profile" => batch::run(batch::Job::Profile, args.seed, args.seconds, args.trace),
        "serve-steady" => serve::run(args.seed, args.seconds, args.trace),
        "defense" => defense::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!("{}", outcome.result_line(args.trace));
}
