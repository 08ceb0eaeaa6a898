//! `steady`: run each workload N times, each in a fresh process with its
//! own seed, and print per metric the median, the quartiles, their spread
//! as a share of the median, and the min–max. The bounds in
//! `BENCHMARK.json` come from two such sets taken at different times.

use crate::WORKLOADS;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method), so the spreads printed here are the
/// ones a reader recomputes from the raw values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// `(attempted, failed, metrics)` of one run.
type RunResult = (u64, u64, Vec<(String, f64)>);

/// Parse a run's last output line.
fn parse_result(line: &str) -> Option<RunResult> {
    let number_after = |key: &str| -> Option<u64> {
        let rest = &line[line.find(key)? + key.len()..];
        rest.trim_start()
            .split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    let attempted = number_after("\"attempted\":")?;
    let failed = number_after("\"failed\":")?;
    let mut metrics = Vec::new();
    let body = &line[line.find("\"metrics\":")?..];
    for chunk in body.split("{\"value\": ").skip(1) {
        let value: f64 = chunk.split([',', '}']).next()?.trim().parse().ok()?;
        metrics.push((String::new(), value));
    }
    // Names precede each value object: `"name": {"value": …`.
    let names: Vec<String> = body
        .split(": {\"value\"")
        .filter_map(|s| s.rsplit('"').nth(1).map(str::to_string))
        .collect();
    for (m, name) in metrics.iter_mut().zip(names) {
        m.0 = name;
    }
    Some((attempted, failed, metrics))
}

pub fn run(flags: &[(String, String)]) -> ExitCode {
    let mut runs = 10usize;
    let mut seconds = "20".to_string();
    let mut first_seed = 1u64;
    let mut workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    for (name, value) in flags {
        let ok = match name.as_str() {
            "runs" => value.parse().map(|v| runs = v).is_ok(),
            "seconds" => {
                seconds = value.clone();
                true
            }
            "first-seed" => value.parse().map(|v| first_seed = v).is_ok(),
            "workloads" => {
                workloads = value.split(',').map(str::to_string).collect();
                workloads.iter().all(|w| WORKLOADS.contains(&w.as_str()))
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad flag --{name} {value}");
            return ExitCode::from(2);
        }
    }
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the perfbench executable");
        return ExitCode::FAILURE;
    };
    let mut all_ok = true;
    for w in &workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut shares = Vec::new();
        for i in 0..runs {
            let seed = (first_seed + i as u64).to_string();
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    &seed,
                    "--seconds",
                    &seconds,
                    "--trace",
                    "0",
                ])
                .output();
            let parsed = out.as_ref().ok().and_then(|o| {
                let stdout = String::from_utf8_lossy(&o.stdout);
                stdout.lines().last().and_then(parse_result)
            });
            let Some((attempted, failed, metrics)) = parsed else {
                eprintln!("{w} seed {seed}: no result line");
                all_ok = false;
                continue;
            };
            all_ok &= failed == 0 && out.is_ok_and(|o| o.status.success());
            shares.push(failed as f64 / attempted.max(1) as f64);
            let row: Vec<String> = metrics.iter().map(|(n, v)| format!("{n}={v:.6}")).collect();
            println!(
                "run {w} seed {seed} attempted {attempted} failed {failed} {}",
                row.join(" ")
            );
            for (name, v) in metrics {
                values.entry(name).or_default().push(v);
            }
        }
        println!(
            "summary {w}: {} runs, failed shares {:?}",
            shares.len(),
            shares
        );
        println!(
            "  {:<30} {:>12} {:>12} {:>12} {:>8} {:>12} {:>12}",
            "metric", "q1", "median", "q3", "iqr/med", "min", "max"
        );
        for (name, v) in &values {
            let [q1, q2, q3] = quartiles(v);
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            println!(
                "  {name:<30} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>8.4} {lo:>12.4} {hi:>12.4}",
                (q3 - q1) / q2
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn parses_result_line() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 1, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "ops_per_s": {"value": 12.25, "unit": "1/s"}}}"#;
        let (a, f, m) = parse_result(line).expect("parses");
        assert_eq!((a, f), (12, 1));
        assert_eq!(
            m,
            vec![
                ("setup_s".to_string(), 0.5),
                ("ops_per_s".to_string(), 12.25)
            ]
        );
    }
}
