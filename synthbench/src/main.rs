//! `synthbench` command line.
//!
//! ```text
//! synthbench --workload <table1_sim|opamp_awe|opamp_flow|grid_dc|all>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Log lines go to stderr. On stdout a traced run prints its exact-match
//! work ledger (`ledger {...}`) and every run ends with one JSON object
//! per workload: `correct`, `attempted`, `failed`, `metrics`.

use std::process::ExitCode;
use synthbench::{env, run, RunOptions, Workload};

const USAGE: &str = "usage: synthbench --workload <table1_sim|opamp_awe|opamp_flow|grid_dc|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Vec<Workload>, RunOptions), String> {
    let mut workloads = None;
    let mut opts = RunOptions {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(value).ok_or_else(|| bad("workload"))?]
                });
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !opts.seconds.is_finite() || opts.seconds < 0.0 {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok((workloads.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let settings = env::pin();
    eprintln!("settings: {}", settings.describe());
    for workload in workloads {
        let report = run(workload, &opts, &settings);
        for (name, value, unit) in report.metrics() {
            eprintln!("{:>10} {name:<26} {value:>14.6} {unit}", report.workload);
        }
        if report.traced {
            println!("ledger {}", report.counts_json());
        }
        println!("{}", report.to_json());
    }
    ExitCode::SUCCESS
}
