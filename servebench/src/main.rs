//! End-to-end benchmark of the dqep serving paths.
//!
//! ```text
//! servebench --workload <serve_hot|shard_join|live_churn>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced;
//! `--trace 1` is a separate run that times each layer's public
//! functions and reads the executor's trace reports. Every op is checked
//! against an independent reference evaluator; a mismatch makes the
//! result `"correct": false` and the exit code 1. The last line of
//! standard output is the JSON result. See `RATIONALE.md`.
//!
//! Every thread of a run is pinned to one CPU. On a shared two-vCPU
//! host, runs that spread their threads over both vCPUs drew 27–42%
//! steal time in busy periods against 1–5% when pinned, and their
//! throughput and tail latency swung far more between runs.

mod layers;
mod live;
mod measure;
mod reference;
mod serve;
mod shard;
mod spans;

use std::time::Duration;

use measure::Report;

const WORKLOADS: [&str; 3] = ["serve_hot", "shard_join", "live_churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let seed = args.seed;
    let pinned = measure::pin_to_one_cpu();
    let mut report: Report = match (args.workload.as_str(), args.trace) {
        ("serve_hot", false) => serve::run(seed, budget),
        ("serve_hot", true) => serve::run_traced(seed, budget),
        ("shard_join", false) => shard::run(seed, budget),
        ("shard_join", true) => shard::run_traced(seed, budget),
        ("live_churn", false) => live::run(seed, budget),
        ("live_churn", true) => live::run_traced(seed, budget),
        _ => unreachable!("workload names are validated"),
    };
    report.note(pinned.map_or_else(
        || "not pinned: the kernel refused to narrow CPU affinity".to_string(),
        |cpu| format!("every thread pinned to CPU {cpu}"),
    ));
    report.print();
    if !report.correct {
        std::process::exit(1);
    }
}
