//! `define`: each operation makes one seeded relation queryable — parse
//! its DNF text, then build the arrangement extension. Only the logic,
//! geom, lp and arith layers work here.

use crate::gen::{self, Fingerprint, Rng};
use crate::harness::{self, expect_eq, ms, Config, Layers, Report, Tally};
use crate::oracle;
use lcdb_core::{EvalBudget, Pool, RegionExtension, TraceHandle};
use lcdb_logic::{parse_formula, Database, Relation};
use std::time::Instant;

/// `(d, n)` per operation class: three classes whose costs are well apart,
/// so with equal shares the median falls inside the middle class and the
/// tail inside the top one.
const FAMILIES: [(usize, usize); 3] = [(3, 5), (3, 6), (2, 10)];
/// Distinct relations per class in one round.
const PER_FAMILY: usize = 32;
/// Normal coefficients are drawn from `-COEF..=COEF`, offsets from
/// `-OFFSET..=OFFSET`.
const COEF: i64 = 5;
const OFFSET: i64 = 10;
/// Warm-up operations per class in each set-up.
const WARM_UP: usize = 2;
/// One round on the reference host, for sizing runs.
const ROUND_MS: f64 = 3500.0;

struct Input {
    class: String,
    d: usize,
    text: String,
    census: Vec<u64>,
}

/// One round of inputs, classes interleaved.
fn generate(seed: u64) -> (Vec<Input>, Fingerprint) {
    let mut families: Vec<std::vec::IntoIter<Input>> = FAMILIES
        .iter()
        .enumerate()
        .map(|(i, &(d, n))| {
            let mut rng = Rng::new(seed, 100 + i as u64);
            let family: Vec<Input> = (0..PER_FAMILY)
                .map(|_| {
                    let planes = gen::general_position_planes(&mut rng, d, n, COEF, OFFSET);
                    Input {
                        class: format!("build-d{d}n{n}"),
                        d,
                        text: gen::dnf_text(&mut rng, &planes, d),
                        census: oracle::census(n as u64, d as u64),
                    }
                })
                .collect();
            family.into_iter()
        })
        .collect();
    let mut fp = Fingerprint::default();
    let mut round = Vec::new();
    for _ in 0..PER_FAMILY {
        for family in families.iter_mut() {
            let input = family.next().expect("PER_FAMILY inputs per family");
            fp.add(&input.text);
            round.push(input);
        }
    }
    (round, fp)
}

fn parse(input: &Input) -> Result<Relation, String> {
    let f = parse_formula(&input.text).map_err(|e| e.to_string())?;
    Ok(Relation::new(gen::vars(input.d), &f))
}

fn build(rel: Relation, trace: Option<&TraceHandle>) -> Result<RegionExtension, String> {
    let mut db = Database::new();
    db.insert("S", rel);
    let budget = EvalBudget::unlimited();
    match trace {
        None => RegionExtension::try_arrangement_db(db, "S", &budget),
        Some(t) => RegionExtension::try_arrangement_db_traced(db, "S", &budget, &Pool::serial(), t),
    }
    .map_err(|e| e.to_string())
}

/// The closed-form census and Euler's relation.
fn check(input: &Input, ext: &RegionExtension) -> Result<(), String> {
    let regions = ext
        .as_arrangement_regions()
        .ok_or("not an arrangement extension")?;
    let got: Vec<u64> = regions
        .arrangement()
        .face_counts_by_dim()
        .iter()
        .map(|&c| c as u64)
        .collect();
    expect_eq("face census", &got, &input.census)?;
    if !oracle::euler_holds(&got) {
        return Err(format!("Euler relation fails on {got:?}"));
    }
    Ok(())
}

/// Untraced operation: returns its latency in ms and its outcome.
fn op(input: &Input) -> (f64, Result<(), String>) {
    let t = Instant::now();
    let ext = parse(input).and_then(|r| build(r, None));
    let lat = ms(t);
    (lat, ext.and_then(|e| check(input, &e)))
}

pub fn run(cfg: &Config) -> Report {
    let mut tally = Tally::default();
    let rounds = cfg.rounds(ROUND_MS);
    let timed_rounds = if cfg.trace {
        (rounds / 2).max(1)
    } else {
        rounds
    };
    // Set-up: generate the inputs, then warm up on the first relations of
    // each class.
    let setup = |tally: &mut Tally| {
        let (round, fp) = generate(cfg.seed);
        for input in round.iter().take(WARM_UP * FAMILIES.len()) {
            tally.record(&input.class, op(input).1);
        }
        (round, fp)
    };
    let mut clock = harness::SetupClock::new(timed_rounds);
    let (round, fp) = clock.time(&mut tally, setup);
    let mut latencies = Vec::with_capacity(timed_rounds * round.len());
    let mut setup_in_phase = 0.0;
    let t = Instant::now();
    for r in 0..timed_rounds {
        setup_in_phase += clock.due(r, &mut tally, setup);
        for input in &round {
            let (lat, outcome) = op(input);
            latencies.push(lat);
            tally.timed(&input.class, lat, outcome);
        }
    }
    let phase_s = t.elapsed().as_secs_f64() - setup_in_phase;

    let mut report = Report {
        fingerprint: fp.hex(),
        setup_s: clock.times,
        latencies_ms: latencies,
        phase_s,
        notes: vec![format!("rounds {timed_rounds} x {} relations", round.len())],
        ..Report::default()
    };
    if cfg.trace {
        let mut layers = Layers::default();
        let t = Instant::now();
        let mut n = 0usize;
        for _ in 0..timed_rounds {
            for input in &round {
                let (mem, handle) = harness::memory_trace();
                let t0 = Instant::now();
                let rel = parse(input);
                let parse_ms = ms(t0);
                let t1 = Instant::now();
                let ext = rel.and_then(|r| build(r, Some(&handle)));
                let ext_ms = ms(t1);
                let wall = ms(t0);
                tally.record(&input.class, ext.and_then(|e| check(input, &e)));
                let summary = mem.summary();
                layers.add_spans(&summary);
                layers.add("logic.parse_ms", parse_ms);
                layers.add("core.extension_ms", ext_ms);
                layers.add("wall_ms", wall);
                n += 1;
            }
        }
        report.traced_s = t.elapsed().as_secs_f64();
        report.traced_ops = n;
        let n = n as f64;
        let l = &mut report.layers;
        for name in [
            "logic.parse_ms",
            "core.extension_ms",
            "geom.level_self_ms",
            "geom.finalize_self_ms",
        ] {
            l.insert(name, layers.mean(name, n));
        }
        l.insert(
            "geom.faces_per_s",
            layers.get("geom.faces") / (layers.get("core.extension_ms") / 1e3),
        );
        l.insert(
            "bench.unattributed_ms",
            layers.mean("wall_ms", n)
                - layers.mean("logic.parse_ms", n)
                - layers.mean("spans.self_ms", n),
        );
    }
    report.tally = tally;
    report
}
