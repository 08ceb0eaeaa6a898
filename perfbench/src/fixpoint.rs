//! `fixpoint`: the extensions are built in set-up, persisted into a store
//! and loaded back from it; each operation evaluates one sentence in a
//! fresh `Evaluator` over the loaded extensions. This is E10's shape —
//! nearly all the timed work is the evaluator's.

use crate::gen::{self, Fingerprint, Rng};
use crate::harness::{self, expect_eq, ms, Config, Layers, Report, SetupClock, Tally};
use crate::oracle::{self, Machine};
use lcdb_core::persist::{decode_arrangement, encode_arrangement};
use lcdb_core::{
    parse_regformula, queries, ArrangementRegions, Decomposition, EvalBudget, Evaluator,
    PlanCatalog, Pool, RegFormula, RegionExtension, TraceHandle,
};
use lcdb_logic::{parse_formula, Database, Relation};
use lcdb_tm::{capture::compile_linear_tm, Tm};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Chained and gapped 1-D intervals for Conn.
const INTERVALS: usize = 12;
/// Broken junctions in the gapped family (components = cuts + 1).
const CUTS: usize = 2;
/// Boxes in the 2-D corner chain.
const CORNER_BOXES: usize = 3;
/// Points on the line carrying the TM input word.
const WORD_POINTS: usize = 7;
/// The first membership bits of the TM input word. Fixed, so that where
/// `all-ones` and `any-one` stop — and so what they cost — is the same for
/// every seed; the remaining bits (and so the parity verdict) are seeded.
const WORD_PREFIX: [bool; 4] = [true, true, true, false];
/// Vertices of each NC¹ polygon.
const POLYGON_VERTICES: usize = 12;
/// chem1 and chem2 stretches along the river.
const STRETCHES: usize = 5;
/// One round on the reference host, for sizing runs.
const ROUND_MS: f64 = 1740.0;
/// The set-up's store lives in a directory of its own under this one, in
/// the working directory: the benchmark writes nowhere else.
const STORE_ROOT: &str = ".bench_store";

/// Conn with its fixed point in PFP mode: the operator is inflationary, so
/// the partial fixed point converges to the least one.
const CONN_PFP: &str = "forall Rx. forall Ry. (Rx subset S and Ry subset S) -> \
    [pfp $M, R, Rp. (R = Rp and R subset S) or \
    (exists Z. $M(R, Z) and adj(Z, Rp) and Rp subset S)](Rx, Ry)";
/// A PFP whose stages alternate between everything and nothing, so it
/// has no fixed point and denotes the empty set: the sentence is false.
const PFP_DIVERGENT: &str = "exists Rx. exists Ry. \
    [pfp $M, R, Rp. exists Z. adj(R, Z) and not $M(Z, Rp)](Rx, Ry)";

/// What the oracle says about one sentence.
#[derive(Clone, Copy, Debug)]
enum Expect {
    Is(bool),
    /// DTC ⇒ TC: with TC known false, DTC must be false; with TC known
    /// true, DTC may go either way.
    ImpliedBy(bool),
}

struct Op {
    class: &'static str,
    ext: usize,
    sentence: RegFormula,
    expect: Expect,
}

/// One database: relation texts by name (the spatial relation is `S`),
/// its ambient dimension, and which decomposition to build.
struct Db {
    rels: Vec<(&'static str, String)>,
    d: usize,
    nc1: bool,
}

/// The model of every input, drawn from the seed.
struct Inputs {
    dbs: Vec<Db>,
    ops: Vec<Op>,
    /// One round: indices into `ops`.
    round: Vec<usize>,
    fp: Fingerprint,
}

/// How often a class runs per round. The two middling classes, of like
/// cost, run three times, so the median falls two thirds into a block of
/// six like-cost operations per round instead of on a boundary between two
/// classes. The dearest class runs twice, so that with `tm-parity`, of like
/// cost, it fills the top sixth of a run and the tail percentile (p94,
/// twelve samples from the top) falls inside it.
fn weight(class: &str) -> usize {
    match class {
        "conn-gapped" | "pfp-convergent" => 3,
        "conn-corner" => 2,
        _ => 1,
    }
}

fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 200);
    let mut dbs = Vec::new();
    let mut ops = Vec::new();
    let conn = queries::connectivity();
    let add = |dbs: &mut Vec<Db>, rels: Vec<(&'static str, String)>, nc1: bool, d: usize| {
        dbs.push(Db { rels, d, nc1 });
        dbs.len() - 1
    };

    let chained = gen::chained_intervals(&mut rng, INTERVALS);
    let e = add(&mut dbs, vec![("S", gen::pieces_text(&chained))], false, 1);
    ops.push(Op {
        class: "conn-chained",
        ext: e,
        sentence: conn.clone(),
        expect: Expect::Is(oracle::components_1d(&chained) == 1),
    });

    let gapped = gen::gapped_intervals(&mut rng, INTERVALS, CUTS);
    let connected = oracle::components_1d(&gapped) == 1;
    let e = add(&mut dbs, vec![("S", gen::pieces_text(&gapped))], false, 1);
    ops.push(Op {
        class: "conn-gapped",
        ext: e,
        sentence: conn.clone(),
        expect: Expect::Is(connected),
    });
    let pfp = |text: &str| parse_regformula(text).expect("fixed sentence parses");
    ops.push(Op {
        class: "pfp-convergent",
        ext: e,
        sentence: pfp(CONN_PFP),
        expect: Expect::Is(connected),
    });
    ops.push(Op {
        class: "pfp-divergent",
        ext: e,
        sentence: pfp(PFP_DIVERGENT),
        expect: Expect::Is(false),
    });

    let chain = gen::corner_chain(&mut rng, CORNER_BOXES);
    let e = add(&mut dbs, vec![("S", gen::boxes_text(&chain))], false, 2);
    ops.push(Op {
        class: "conn-corner",
        ext: e,
        sentence: conn,
        expect: Expect::Is(oracle::components_boxes(&chain) == 1),
    });

    let (points, pieces) = gen::membership_line(&mut rng, WORD_POINTS, &WORD_PREFIX);
    let bits: Vec<bool> = points.iter().map(|&p| oracle::member(&pieces, p)).collect();
    let e = add(&mut dbs, vec![("S", gen::pieces_text(&pieces))], false, 1);
    for (class, tm, m) in [
        ("tm-parity", Tm::parity(), Machine::Parity),
        ("tm-all-ones", Tm::all_ones(), Machine::AllOnes),
        ("tm-any-one", Tm::any_one(), Machine::AnyOne),
    ] {
        ops.push(Op {
            class,
            ext: e,
            sentence: compile_linear_tm(&tm, 1),
            expect: Expect::Is(oracle::tm_verdict(m, &bits)),
        });
    }

    // One convex polygon (one component), then two far apart (two).
    let first = gen::convex_polygon(&mut rng, POLYGON_VERTICES, 0, 0);
    let second = gen::convex_polygon(&mut rng, POLYGON_VERTICES, 40, 0);
    for (tc, dtc, polys) in [
        ("tc-one", "dtc-one", vec![&first]),
        ("tc-two", "dtc-two", vec![&first, &second]),
    ] {
        let text: Vec<String> = polys
            .iter()
            .map(|h| format!("({})", gen::polygon_text(h)))
            .collect();
        let e = add(&mut dbs, vec![("S", text.join(" or "))], true, 2);
        // The polygons are x-separated, so their x-extents count components.
        let extents: Vec<oracle::Piece> = polys
            .iter()
            .map(|h| {
                let lo = h.iter().map(|p| p.0).min().unwrap_or(0);
                let hi = h.iter().map(|p| p.0).max().unwrap_or(0);
                oracle::Piece {
                    lo,
                    hi,
                    lo_closed: true,
                    hi_closed: true,
                }
            })
            .collect();
        let connected = oracle::components_1d(&extents) == 1;
        ops.push(Op {
            class: tc,
            ext: e,
            sentence: queries::connectivity_tc(false),
            expect: Expect::Is(connected),
        });
        ops.push(Op {
            class: dtc,
            ext: e,
            sentence: queries::connectivity_tc(true),
            expect: Expect::ImpliedBy(connected),
        });
    }

    // The river [0, L] with chem1 and chem2 stretches at seeded places.
    let mut at = 0;
    let mut stretch = |rng: &mut Rng| {
        let lo = at + rng.range(1, 2);
        let hi = lo + rng.range(1, 2);
        at = hi;
        (lo, hi)
    };
    // Stretches alternate chem2, chem1, …: the seed moves them, not the
    // order, so every seed does the same fixed-point work.
    let mut chem1 = Vec::new();
    let mut chem2 = Vec::new();
    for i in 0..2 * STRETCHES {
        let s = stretch(&mut rng);
        if i % 2 == 0 {
            chem2.push(s);
        } else {
            chem1.push(s);
        }
    }
    let len = at + 1;
    let stretches = |v: &[(i64, i64)]| {
        v.iter()
            .map(|(a, b)| format!("({a} < x and x < {b})"))
            .collect::<Vec<_>>()
            .join(" or ")
    };
    let river = format!("0 <= x and x <= {len}");
    let e = add(
        &mut dbs,
        vec![
            ("S", river.clone()),
            ("river", river),
            ("spring", "x = 0".into()),
            ("chem1", stretches(&chem1)),
            ("chem2", stretches(&chem2)),
        ],
        false,
        1,
    );
    ops.push(Op {
        class: "river-ordered",
        ext: e,
        sentence: queries::river_pollution_ordered(),
        expect: Expect::Is(oracle::river_verdict(&chem1, &chem2)),
    });

    let mut fp = Fingerprint::default();
    for db in &dbs {
        fp.add(&format!("{}", db.nc1));
        for (name, text) in &db.rels {
            fp.add(name);
            fp.add(text);
        }
    }
    for op in &ops {
        fp.add(op.class);
        fp.add(&format!("{:?}", op.expect));
    }
    let mut round: Vec<usize> = (0..ops.len()).collect();
    for pass in 1..3 {
        round.extend((0..ops.len()).filter(|&i| weight(ops[i].class) > pass));
    }
    Inputs {
        dbs,
        ops,
        round,
        fp,
    }
}

/// Build every extension, optionally traced.
fn build(inputs: &Inputs, trace: Option<&TraceHandle>) -> Vec<RegionExtension> {
    let budget = EvalBudget::unlimited();
    inputs
        .dbs
        .iter()
        .map(|spec| {
            let mut db = Database::new();
            for (name, text) in &spec.rels {
                let f = parse_formula(text).expect("generated relation parses");
                db.insert(*name, Relation::new(gen::vars(spec.d), &f));
            }
            let ext = match (spec.nc1, trace) {
                (true, _) => RegionExtension::try_nc1_db(db, "S", &budget),
                (false, None) => RegionExtension::try_arrangement_db(db, "S", &budget),
                (false, Some(t)) => {
                    RegionExtension::try_arrangement_db_traced(db, "S", &budget, &Pool::serial(), t)
                }
            };
            ext.expect("unlimited build succeeds")
        })
        .collect()
}

/// One store round trip: times in ms, the store's size after the
/// checkpoint, and its buffer-pool hit ratio after the loads.
#[derive(Default)]
struct StoreTimes {
    save: f64,
    checkpoint: f64,
    open: f64,
    load: f64,
    stored_bytes: u64,
    pool_hit_ratio: f64,
}

fn census(regions: &ArrangementRegions) -> Vec<usize> {
    regions.arrangement().face_counts_by_dim()
}

/// Persist every arrangement extension into a fresh store at `dir`,
/// checkpoint, reopen the store and load them back, replacing each built
/// extension by its loaded copy: the evaluation then runs over what the
/// store gave back, so a codec fault shows as a wrong verdict. Fails when a
/// loaded census differs from the saved one or `verify()` is not clean.
fn round_trip(
    dir: &Path,
    exts: &mut [RegionExtension],
    times: &mut StoreTimes,
) -> Result<(), String> {
    let err = |e: lcdb_store::StoreError| e.to_string();
    let _ = std::fs::remove_dir_all(dir);
    let cat = PlanCatalog::open(dir).map_err(err)?;
    let t = Instant::now();
    for regions in exts.iter().filter_map(|e| e.as_arrangement_regions()) {
        cat.save_extension(regions).map_err(err)?;
    }
    times.save = ms(t);
    let t = Instant::now();
    cat.checkpoint().map_err(err)?;
    times.checkpoint = ms(t);
    let stat = cat.stat();
    times.stored_bytes = stat.pages_bytes + stat.wal_bytes;
    drop(cat);

    let t = Instant::now();
    let cat = PlanCatalog::open(dir).map_err(err)?;
    times.open = ms(t);
    let t = Instant::now();
    for ext in exts.iter_mut() {
        let Some(saved) = ext.as_arrangement_regions() else {
            continue;
        };
        let loaded = cat
            .load_extension(saved.database(), "S")
            .map_err(err)?
            .ok_or("persisted extension missing")?;
        expect_eq("loaded census", census(&loaded), census(saved))?;
        *ext = RegionExtension::from_arrangement_regions(loaded);
    }
    times.load = ms(t);
    let stat = cat.stat();
    times.pool_hit_ratio =
        stat.pool_hits as f64 / (stat.pool_hits + stat.pool_misses).max(1) as f64;
    let report = cat.verify().map_err(err)?;
    if report.ok {
        Ok(())
    } else {
        Err(format!("verify() after loading: {report:?}"))
    }
}

fn check(op: &Op, got: Result<bool, String>) -> Result<(), String> {
    let got = got?;
    match op.expect {
        Expect::Is(want) => expect_eq("verdict", got, want),
        Expect::ImpliedBy(tc) => {
            if got && !tc {
                Err("DTC holds where TC does not".into())
            } else {
                Ok(())
            }
        }
    }
}

fn eval(
    ext: &RegionExtension,
    op: &Op,
    trace: Option<&TraceHandle>,
) -> (Result<bool, String>, lcdb_core::EvalStats) {
    let mut ev = Evaluator::new(ext);
    if let Some(t) = trace {
        ev = ev.with_trace(t.clone());
    }
    let verdict = ev
        .try_eval_sentence(&op.sentence)
        .map_err(|e| e.to_string());
    (verdict, ev.stats())
}

pub fn run(cfg: &Config) -> Report {
    let mut tally = Tally::default();
    let rounds = cfg.rounds(ROUND_MS);
    let timed_rounds = if cfg.trace {
        (rounds / 2).max(1)
    } else {
        rounds
    };
    let dir = PathBuf::from(STORE_ROOT).join(format!("fixpoint-{}", std::process::id()));
    // Set-up: generate, build every extension, and round-trip the
    // arrangements through the store. The warm-up (one of each sentence)
    // follows outside it: it is evaluator work, and `setup_s` here should
    // move with the extension builds and the store alone.
    let setup = |tally: &mut Tally| {
        let inputs = generate(cfg.seed);
        let mut exts = build(&inputs, None);
        tally.record(
            "restore",
            round_trip(&dir, &mut exts, &mut StoreTimes::default()),
        );
        (inputs, exts)
    };
    let mut clock = SetupClock::new(timed_rounds);
    let (inputs, mut exts) = clock.time(&mut tally, setup);
    for op in &inputs.ops {
        tally.record(op.class, check(op, eval(&exts[op.ext], op, None).0));
    }
    let mut latencies = Vec::new();
    let mut setup_in_phase = 0.0;
    let t = Instant::now();
    for r in 0..timed_rounds {
        setup_in_phase += clock.due(r, &mut tally, setup);
        for op in inputs.round.iter().map(|&i| &inputs.ops[i]) {
            let t0 = Instant::now();
            let (verdict, _) = eval(&exts[op.ext], op, None);
            let lat = ms(t0);
            latencies.push(lat);
            tally.timed(op.class, lat, check(op, verdict));
        }
    }
    let phase_s = t.elapsed().as_secs_f64() - setup_in_phase;
    let mut report = Report {
        fingerprint: inputs.fp.hex(),
        setup_s: clock.times,
        latencies_ms: latencies,
        phase_s,
        notes: vec![
            format!(
                "rounds {timed_rounds} x {} evaluations of {} sentences over {} extensions",
                inputs.round.len(),
                inputs.ops.len(),
                exts.len()
            ),
            format!(
                "store {} (under the working directory; flush policy: the store's default)",
                dir.display()
            ),
        ],
        ..Report::default()
    };
    if cfg.trace {
        let mut layers = Layers::default();
        let mut n = 0usize;
        // Compilation is timed on its own, outside the traced phase's time.
        let mut compile_ms = 0.0;
        let t = Instant::now();
        for _ in 0..timed_rounds {
            for op in inputs.round.iter().map(|&i| &inputs.ops[i]) {
                let t0 = Instant::now();
                std::hint::black_box(lcdb_core::compile(&op.sentence));
                compile_ms += ms(t0);
                let (mem, handle) = harness::memory_trace();
                let t0 = Instant::now();
                let (verdict, stats) = eval(&exts[op.ext], op, Some(&handle));
                layers.add("core.eval_ms", ms(t0));
                tally.record(op.class, check(op, verdict));
                layers.add_spans(&mem.summary());
                layers.add("core.fix_tuple_tests", stats.fix_tuple_tests as f64);
                layers.add("core.region_expansions", stats.region_expansions as f64);
                layers.add("plan.cache_lookups", stats.plan_cache_lookups as f64);
                layers.add("plan.cache_hits", stats.plan_cache_hits as f64);
                layers.add(
                    "budget.meter_ticks",
                    handle.metrics().counter("budget.meter_ticks").get() as f64,
                );
                n += 1;
            }
        }
        report.traced_s = t.elapsed().as_secs_f64() - compile_ms / 1e3;
        report.traced_ops = n;
        layers.add("plan.compile_ms", compile_ms);

        // The set-up's extension builds, traced once.
        let (mem, handle) = harness::memory_trace();
        let t0 = Instant::now();
        drop(build(&inputs, Some(&handle)));
        let ext_ms = ms(t0);
        let mut setup = Layers::default();
        setup.add_spans(&mem.summary());

        // The set-up's store round trip, [`harness::SETUP_REPS`] times, and
        // the codec alone on the same blobs.
        let blobs: Vec<Vec<u8>> = exts
            .iter()
            .filter_map(|e| e.as_arrangement_regions())
            .map(|r| encode_arrangement(r.arrangement()))
            .collect();
        let user_bytes: usize = blobs.iter().map(Vec::len).sum();
        let mut store = Layers::default();
        for _ in 0..harness::SETUP_REPS {
            let mut times = StoreTimes::default();
            tally.record("restore", round_trip(&dir, &mut exts, &mut times));
            store.add("store.save_ms", times.save);
            store.add("store.checkpoint_ms", times.checkpoint);
            store.add("store.open_ms", times.open);
            store.add("store.load_ms", times.load);
            store.add("store.pool_hit_ratio", times.pool_hit_ratio);
            store.add(
                "store.bytes_per_user_byte",
                times.stored_bytes as f64 / user_bytes.max(1) as f64,
            );
            let t0 = Instant::now();
            for blob in &blobs {
                std::hint::black_box(decode_arrangement(blob).map(|a| a.num_faces()).ok());
            }
            store.add("core.decode_ms", ms(t0));
        }

        let n = n as f64;
        let l = &mut report.layers;
        for name in [
            "plan.compile_ms",
            "core.eval_ms",
            "core.fix_stage_self_ms",
            "core.regions_self_ms",
            "core.tc_edges_self_ms",
            "core.fix_tuple_tests",
            "core.region_expansions",
            "plan.cache_lookups",
            "budget.meter_ticks",
        ] {
            l.insert(name, layers.mean(name, n));
        }
        l.insert(
            "plan.cache_hit_ratio",
            layers.get("plan.cache_hits") / layers.get("plan.cache_lookups").max(1.0),
        );
        l.insert(
            "bench.unattributed_ms",
            layers.mean("core.eval_ms", n) - layers.mean("spans.self_ms", n),
        );
        // Set-up layers are per set-up, not per operation.
        l.insert("core.extension_ms", ext_ms);
        l.insert("geom.level_self_ms", setup.get("geom.level_self_ms"));
        l.insert("geom.finalize_self_ms", setup.get("geom.finalize_self_ms"));
        l.insert("geom.faces_per_s", setup.get("geom.faces") / (ext_ms / 1e3));
        for name in [
            "store.save_ms",
            "store.checkpoint_ms",
            "store.open_ms",
            "store.load_ms",
            "core.decode_ms",
            "store.pool_hit_ratio",
            "store.bytes_per_user_byte",
        ] {
            l.insert(name, store.mean(name, harness::SETUP_REPS as f64));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Leave no empty store root behind (another run may still be using it).
    let _ = std::fs::remove_dir(STORE_ROOT);
    report.tally = tally;
    report
}
