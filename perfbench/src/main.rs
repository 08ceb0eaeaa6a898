//! Same-host benchmark for the lcdb engine.
//!
//! ```text
//! perfbench --workload <define|fixpoint|served> --seed N --seconds S --trace 0|1
//! perfbench steady [--runs N] [--seconds S] [--workloads a,b,..] [--first-seed N]
//! ```
//!
//! A run executes a fixed, seeded operation sequence in-process against the
//! library crates, checks every answer against an independent oracle, and
//! prints one JSON object as its last line: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). `steady` runs each
//! workload N times in fresh processes and prints the spread of every
//! metric. See README.md for the workloads and metrics.

mod define;
mod fixpoint;
mod gen;
mod harness;
mod oracle;
mod served;
mod steady;

use harness::{Config, Report};
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["define", "fixpoint", "served"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1\n       \
         perfbench steady [--runs N] [--seconds S] [--workloads a,b] [--first-seed N]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// `--name value` pairs from the command line.
fn flags(args: &[String]) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a.strip_prefix("--")?;
        match name.split_once('=') {
            Some((n, v)) => out.push((n.to_string(), v.to_string())),
            None => out.push((name.to_string(), it.next()?.clone())),
        }
    }
    Some(out)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// `correct` speaks of the operations that did not fail. Every oracle
/// check belongs to an operation and a failed check marks that operation
/// failed, so the operations left are correct by construction.
fn result_json(report: &Report, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.attempted(),
        report.tally.failed(),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        return match flags(&args[1..]) {
            Some(f) => steady::run(&f),
            None => usage(),
        };
    }
    let Some(flags) = flags(&args) else {
        return usage();
    };
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    for (name, value) in &flags {
        let ok = match name.as_str() {
            "workload" => {
                workload = WORKLOADS.iter().find(|w| **w == value.as_str()).copied();
                workload.is_some()
            }
            "seed" => value.parse().map(|s| cfg.seed = s).is_ok(),
            "seconds" => value
                .parse()
                .map(|s| cfg.seconds = s)
                .is_ok_and(|_| cfg.seconds > 0.0),
            "trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    cfg.trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("bad flag --{name} {value}");
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };

    // Measure the configuration the `lcdb` binary runs in: the flight
    // recorder armed.
    lcdb_obs::init();
    let report = match workload {
        "define" => define::run(&cfg),
        "fixpoint" => fixpoint::run(&cfg),
        _ => served::run(&cfg),
    };

    println!(
        "workload {workload} seed {} seconds {} trace {}",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    println!("inputs fingerprint {}", report.fingerprint);
    for note in &report.notes {
        println!("{note}");
    }
    for line in report.tally.lines() {
        println!("{line}");
    }
    let setup: Vec<String> = report.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("setup repetitions s [{}]", setup.join(", "));
    println!(
        "timed ops {} tail percentile p{}",
        report.latencies_ms.len(),
        harness::tail_percentile(report.latencies_ms.len())
    );
    let metrics = if cfg.trace {
        report.per_layer()
    } else {
        report.end_to_end()
    };
    for (name, v, unit) in &metrics {
        println!("metric {name:<30} {v:>14.4} {unit}");
    }
    println!("{}", result_json(&report, &metrics));
    if report.tally.failed() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
