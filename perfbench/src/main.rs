//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-b1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see README.md for why each exists):
//!
//! - `serve-b1`: batch-1 JSON requests, open-loop Poisson, through a
//!   2-worker runtime with 2 local shards of the product cascade plan.
//! - `batch-topk`: one closed-loop caller alternating a cascaded
//!   classification batch and a K=20 top-K query over 2,000 toxic rows,
//!   calling the plans directly.
//! - `serve-remote`: batch-10 requests through a runtime whose endpoint
//!   has only 2 remote shards, served over loopback wire2 by an
//!   in-process node.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the
//! traced variant and prints the per-layer metrics. Every run prints
//! each metric it measured as `metric <name> <value> <unit>`, then, as
//! its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod batch;
mod layers;
mod loadgen;
mod metrics;
mod procfs;
mod report;
mod serve;
mod setup;
mod stack;
mod stats;
mod trace;

use std::process::ExitCode;

use metrics::Outcome;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(1.0..=120.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=120"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve-b1|batch-topk|serve-remote> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "serve-b1" => serve::run(&serve::B1, args.seed, args.seconds, args.trace),
        "serve-remote" => serve::run(&serve::REMOTE, args.seed, args.seconds, args.trace),
        "batch-topk" => batch::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    outcome.print(&args.workload, args.seed, args.trace);
    ExitCode::SUCCESS
}
