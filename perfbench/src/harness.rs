//! What every workload shares: run configuration, per-class failure
//! accounting, latency statistics, set-up repetition, the process's peak
//! resident set, per-layer accumulation from trace summaries, and the
//! report that `main` prints.

use lcdb_core::{MemoryTracer, TraceHandle, TraceSummary};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Set-up samples per run; `setup_s` is their median (see [`SetupClock`]).
pub const SETUP_REPS: usize = 5;

/// One run's parameters, straight from the command line.
#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    /// The fixed number of rounds a run executes: `seconds` worth of rounds
    /// at the round cost measured on the reference host, at least one. It
    /// depends only on the arguments, so every run with the same arguments
    /// executes the same operation sequence, however fast it goes.
    pub fn rounds(&self, round_ms_reference: f64) -> usize {
        ((self.seconds * 1e3 / round_ms_reference).round() as usize).max(1)
    }
}

/// Attempted and failed operations per operation class, in first-seen
/// order. A failed check marks its operation failed; the run continues.
#[derive(Default, Debug, Clone)]
pub struct Tally {
    classes: Vec<(String, u64, u64)>,
    /// Timed-phase latencies per class, in ms.
    latencies: BTreeMap<String, Vec<f64>>,
    reported: usize,
}

impl Tally {
    pub fn record(&mut self, class: &str, outcome: Result<(), String>) {
        let i = match self.classes.iter().position(|c| c.0 == class) {
            Some(i) => i,
            None => {
                self.classes.push((class.to_string(), 0, 0));
                self.classes.len() - 1
            }
        };
        self.classes[i].1 += 1;
        if let Err(why) = outcome {
            self.classes[i].2 += 1;
            // The first few failures are worth reading; the rest only count.
            if self.reported < 5 {
                eprintln!("FAILED {class}: {why}");
                self.reported += 1;
            }
        }
    }

    /// Record a timed operation: its latency and its outcome.
    pub fn timed(&mut self, class: &str, latency_ms: f64, outcome: Result<(), String>) {
        self.latencies
            .entry(class.to_string())
            .or_default()
            .push(latency_ms);
        self.record(class, outcome);
    }

    pub fn attempted(&self) -> u64 {
        self.classes.iter().map(|c| c.1).sum()
    }

    pub fn failed(&self) -> u64 {
        self.classes.iter().map(|c| c.2).sum()
    }

    pub fn lines(&self) -> Vec<String> {
        self.classes
            .iter()
            .map(|(c, a, f)| {
                let p50 = self.latencies.get(c).map_or(String::new(), |l| {
                    let mut l = l.clone();
                    l.sort_by(f64::total_cmp);
                    let p = |q| percentile(&l, q);
                    format!(
                        " ms: min {:.3} p50 {:.3} p90 {:.3} p99 {:.3} max {:.3}",
                        l[0],
                        p(50.0),
                        p(90.0),
                        p(99.0),
                        l[l.len() - 1]
                    )
                });
                format!("class {c:<16} attempted {a:>6} failed {f}{p50}")
            })
            .collect()
    }
}

/// Expect `got == want`, describing the mismatch otherwise.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: T,
    want: T,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest integer percentile (at most 99) with at least ten samples
/// beyond it among `n` samples.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99u32)
        .rev()
        .find(|&p| n.saturating_sub(((p as f64 / 100.0) * n as f64).ceil() as usize) >= 10)
        .unwrap_or(50)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Times a workload's set-up [`SETUP_REPS`] times in one run. The first
/// set-up runs before the timed phase, and the run uses its result. The
/// others run between timed rounds, spread evenly over the run, and their
/// results are dropped. A set-up lasts a fraction of a second, while the
/// host's slow and fast phases last seconds: samples taken back to back
/// would all land in one phase, but spread out, their median follows the
/// run as a whole, as `ops_per_s` does.
pub struct SetupClock {
    rounds: usize,
    pub times: Vec<f64>,
}

impl SetupClock {
    /// A clock for a run of `rounds` timed rounds.
    pub fn new(rounds: usize) -> Self {
        SetupClock {
            rounds,
            times: Vec::with_capacity(SETUP_REPS),
        }
    }

    /// Run and time one set-up.
    pub fn time<T>(&mut self, tally: &mut Tally, f: impl FnOnce(&mut Tally) -> T) -> T {
        let t = Instant::now();
        let out = f(tally);
        self.times.push(t.elapsed().as_secs_f64());
        out
    }

    /// The timed round before which the next set-up is due, if any is left.
    pub fn next_due(&self) -> Option<usize> {
        let k = self.times.len();
        (k < SETUP_REPS).then(|| k * self.rounds / SETUP_REPS)
    }

    /// Run the set-ups due before timed round `round`, dropping their
    /// results. Returns the seconds they took, which the caller keeps out
    /// of the timed phase.
    pub fn due<T>(
        &mut self,
        round: usize,
        tally: &mut Tally,
        mut f: impl FnMut(&mut Tally) -> T,
    ) -> f64 {
        let t = Instant::now();
        while self.next_due().is_some_and(|r| r <= round) {
            drop(self.time(tally, &mut f));
        }
        t.elapsed().as_secs_f64()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the OS
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A fresh in-memory trace sink and the handle feeding it.
pub fn memory_trace() -> (Arc<MemoryTracer>, TraceHandle) {
    let mem = Arc::new(MemoryTracer::new());
    let handle = TraceHandle::new(mem.clone());
    (mem, handle)
}

/// Summed per-layer quantities of a traced phase. Times are kept in ms,
/// counts as plain sums; each workload divides by the operation (or set-up)
/// count the README names for each metric.
#[derive(Default, Debug, Clone)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Fold one trace summary in: span self times by layer, and the sum of
    /// every span's self time (what the spans attribute at all).
    pub fn add_spans(&mut self, s: &TraceSummary) {
        for row in &s.rows {
            let ms = row.self_us as f64 / 1e3;
            self.add("spans.self_ms", ms);
            let layer = match row.name.as_str() {
                "geom.level" => "geom.level_self_ms",
                "geom.finalize" => "geom.finalize_self_ms",
                "fix.stage" => "core.fix_stage_self_ms",
                "tc.edges" => "core.tc_edges_self_ms",
                // Plan execution outside fixpoint stages and TC edge
                // tests: region-quantifier expansion over the extension.
                "eval.sentence" | "eval.query" | "eval.with_regions" | "eval.regions"
                | "fix.run" => "core.regions_self_ms",
                _ => continue,
            };
            self.add(layer, ms);
        }
        self.add("geom.faces", s.counter("geom.faces_built") as f64);
    }

    /// `sum / n` (0 when `n` is 0).
    pub fn mean(&self, name: &str, n: f64) -> f64 {
        if n > 0.0 {
            self.get(name) / n
        } else {
            0.0
        }
    }
}

/// The per-layer metric names with their units, in output order: the
/// `per_layer` list of `BENCHMARK.json`. Every traced run prints all of
/// them; a layer a workload does not exercise reads 0 (the README lists
/// which workload moves which metric).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("logic.parse_ms", "ms"),
    ("core.extension_ms", "ms"),
    ("geom.level_self_ms", "ms"),
    ("geom.finalize_self_ms", "ms"),
    ("geom.faces_per_s", "1/s"),
    ("plan.compile_ms", "ms"),
    ("core.eval_ms", "ms"),
    ("core.fix_stage_self_ms", "ms"),
    ("core.regions_self_ms", "ms"),
    ("core.tc_edges_self_ms", "ms"),
    ("core.fix_tuple_tests", "count"),
    ("core.region_expansions", "count"),
    ("plan.cache_lookups", "count"),
    ("budget.meter_ticks", "count"),
    ("plan.cache_hit_ratio", "ratio"),
    ("server.service_ms", "ms"),
    ("server.wait_ms", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.ext_incremental_ratio", "ratio"),
    ("store.open_ms", "ms"),
    ("store.load_ms", "ms"),
    ("core.decode_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.checkpoint_ms", "ms"),
    ("store.bytes_per_user_byte", "ratio"),
    ("store.pool_hit_ratio", "ratio"),
    ("bench.unattributed_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// Everything one workload run produces.
#[derive(Default, Debug)]
pub struct Report {
    pub fingerprint: String,
    pub setup_s: Vec<f64>,
    pub tally: Tally,
    /// Latencies of the untraced timed phase, in ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the untraced timed phase, in s.
    pub phase_s: f64,
    /// Operations of the traced phase and its wall time (trace runs only).
    pub traced_ops: usize,
    pub traced_s: f64,
    /// Finished per-layer values by metric name (trace runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn ops_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.phase_s
    }

    /// The end-to-end metrics of an untraced run: name, value, unit.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let tail = tail_percentile(sorted.len());
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("ops_per_s", self.ops_per_s(), "1/s"),
            ("latency_p50_ms", percentile(&sorted, 50.0), "ms"),
            ("latency_tail_ms", percentile(&sorted, tail as f64), "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    }

    /// The per-layer metrics of a traced run, every name in
    /// [`LAYER_METRICS`] present.
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let v = if name == "bench.trace_overhead" {
                    if self.traced_s > 0.0 && self.phase_s > 0.0 {
                        (self.traced_ops as f64 / self.traced_s) / self.ops_per_s()
                    } else {
                        0.0
                    }
                } else {
                    self.layers.get(name).copied().unwrap_or(0.0)
                };
                (name, v, unit)
            })
            .collect()
    }
}
