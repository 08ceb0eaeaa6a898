//! `served`: an in-process `lcdb-server` on loopback, driven by two client
//! connections in a closed loop — each client sends one request and waits
//! for its answer before sending the next, as `lcdb-load` does. Wire,
//! admission, session layering and the result cache work only here.

use crate::gen::{self, Box2, Fingerprint, Rng};
use crate::harness::{self, expect_eq, ms, Config, Layers, Report, Tally};
use lcdb_core::TraceHandle;
use lcdb_server::client::Client;
use lcdb_server::proto::RespCode;
use lcdb_server::{Server, ServerConfig};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Requests per client round (see [`traffic`]).
const ROUND_REQUESTS: usize = 12;
/// One client round on the reference host (both clients run in parallel).
const ROUND_MS: f64 = 16.0;
/// Result-cache entries. Each client holds at most four live entries per
/// relation version, so the distinct sentences always fit.
const CACHE: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A Define that rebinds the client's relation (a write).
    Define,
    /// The first sentence after a Define: a cache miss that also derives
    /// the new relation's extension incrementally.
    AfterDefine,
    /// A sentence not yet asked against this relation version.
    Miss,
    /// A repeated sentence, answered from the result cache.
    Hit,
}

impl Kind {
    fn class(self) -> &'static str {
        match self {
            Kind::Define => "define",
            Kind::AfterDefine => "after-define",
            Kind::Miss => "fresh",
            Kind::Hit => "repeat",
        }
    }
}

struct Request {
    kind: Kind,
    text: String,
    /// The expected body.
    answer: String,
}

/// The seeded model: two boxes every client shares, one box per client
/// whose right edge moves with every Define.
struct Model {
    shared: [Box2; 2],
    own: Vec<Box2>,
}

fn box_text(b: &Box2) -> String {
    format!(
        "({} <= x and x <= {} and {} <= y and y <= {})",
        b.x0, b.x1, b.y0, b.y1
    )
}

/// The client's relation at `version`: its own box is stretched right by
/// `version`, so every Define yields a relation never seen before and its
/// extension differs from the last one by one hyperplane.
fn relation(m: &Model, client: usize, version: i64) -> Vec<Box2> {
    let mut own = m.own[client];
    own.x1 += version;
    vec![m.shared[0], m.shared[1], own]
}

/// `max (a·x + b·y) > c` over closed boxes: attained at a corner.
fn exceeds(boxes: &[Box2], a: i64, b: i64, c: i64) -> bool {
    boxes
        .iter()
        .flat_map(|q| [(q.x0, q.y0), (q.x0, q.y1), (q.x1, q.y0), (q.x1, q.y1)])
        .map(|(x, y)| a * x + b * y)
        .max()
        .is_some_and(|m| m > c)
}

/// Every box edge on its own line: x-edges strictly increase across the
/// boxes and so do y-edges, so the arrangement is the same grid of 12
/// lines for every seed (the seed moves the lines, not their number).
fn model(seed: u64) -> Model {
    let mut rng = Rng::new(seed, 300);
    let (mut x, mut y) = (0, 0);
    let mut boxes = Vec::new();
    for _ in 0..2 + CLIENTS {
        let x0 = x + rng.range(1, 2);
        let x1 = x0 + rng.range(1, 3);
        let y0 = y + rng.range(1, 2);
        let y1 = y0 + rng.range(1, 3);
        boxes.push(Box2 { x0, x1, y0, y1 });
        (x, y) = (x1, y1);
    }
    // The clients' boxes come last: stretching one right never crosses
    // another box's edges.
    Model {
        shared: [boxes[0], boxes[1]],
        own: boxes[2..].to_vec(),
    }
}

/// One client's request sequence: `rounds` rounds of twelve requests —
/// one Define, the miss after it, two more misses, eight cache hits.
fn traffic(
    m: &Model,
    client: usize,
    first_version: i64,
    rounds: usize,
    rng: &mut Rng,
) -> Vec<Request> {
    let mut out = Vec::with_capacity(rounds * ROUND_REQUESTS);
    for r in 0..rounds {
        let v = first_version + r as i64;
        let boxes = relation(m, client, v);
        let body: Vec<String> = boxes.iter().map(box_text).collect();
        let k = 14 + rng.range(0, 4);
        let repeated = format!("exists x, y. S(x, y) and x > {k}");
        let repeated_answer = exceeds(&boxes, 1, 0, k).to_string();
        let cells = "exists R. R subset S and dim(R) = 2".to_string();
        // Fresh sentences always mention y, so they never repeat the
        // `x > k` sentence, and no two in a round share coefficients.
        let mut used = Vec::new();
        let mut fresh = |out: &mut Vec<Request>| {
            let (a, b) = loop {
                let (a, b) = (
                    rng.range(1, 4),
                    rng.range(1, 3) * if rng.coin() { 1 } else { -1 },
                );
                if !used.contains(&(a, b)) {
                    used.push((a, b));
                    break (a, b);
                }
            };
            let c = rng.range(0, 30 + 4 * v);
            out.push(Request {
                kind: Kind::Miss,
                text: format!(
                    "exists x, y. S(x, y) and {} > {c}",
                    gen::linear_text(&[a, b], &gen::vars(2))
                ),
                answer: exceeds(&boxes, a, b, c).to_string(),
            });
        };
        let hit = |text: &String, answer: &String| Request {
            kind: Kind::Hit,
            text: text.clone(),
            answer: answer.clone(),
        };
        out.push(Request {
            kind: Kind::Define,
            text: format!("S(x, y) := {}", body.join(" or ")),
            answer: "defined S".into(),
        });
        out.push(Request {
            kind: Kind::AfterDefine,
            text: cells.clone(),
            answer: "true".into(),
        });
        out.push(Request {
            kind: Kind::Miss,
            text: repeated.clone(),
            answer: repeated_answer.clone(),
        });
        out.push(hit(&cells, &"true".into()));
        out.push(hit(&repeated, &repeated_answer));
        fresh(&mut out);
        out.push(hit(&cells, &"true".into()));
        out.push(hit(&repeated, &repeated_answer));
        fresh(&mut out);
        out.push(hit(&cells, &"true".into()));
        out.push(hit(&repeated, &repeated_answer));
        out.push(hit(&cells, &"true".into()));
    }
    out
}

fn check(req: &Request, resp: std::io::Result<lcdb_server::proto::Response>) -> Result<(), String> {
    let resp = resp.map_err(|e| e.to_string())?;
    expect_eq("response code", resp.code, RespCode::Ok)?;
    expect_eq("answer", resp.body.as_str(), req.answer.as_str())?;
    match req.kind {
        Kind::Hit => expect_eq("served from the result cache", resp.aux, 1),
        Kind::Miss | Kind::AfterDefine => expect_eq("evaluated", resp.aux, 0),
        Kind::Define => Ok(()),
    }
}

fn send(client: &mut Client, req: &Request) -> std::io::Result<lcdb_server::proto::Response> {
    match req.kind {
        Kind::Define => client.define(&req.text),
        _ => client.eval_sentence(&req.text, 0),
    }
}

/// The per-client outcome of one phase: `(kind, latency ms, outcome)`.
type Log = Vec<(Kind, f64, Result<(), String>)>;

/// Drive `traffic[c]` from client `c`'s connection, all clients released
/// together; returns the logs and the phase's wall time in seconds.
fn drive<R: AsRef<[Request]> + Sync>(clients: &mut [Client], traffic: &[R]) -> (Vec<Log>, f64) {
    let barrier = Arc::new(Barrier::new(clients.len() + 1));
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(traffic)
            .map(|(client, reqs)| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    reqs.as_ref()
                        .iter()
                        .map(|req| {
                            let t = Instant::now();
                            let resp = send(client, req);
                            let lat = ms(t);
                            (req.kind, lat, check(req, resp))
                        })
                        .collect::<Log>()
                })
            })
            .collect();
        barrier.wait();
        let t = Instant::now();
        let logs: Vec<Log> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (logs, t.elapsed().as_secs_f64())
    })
}

struct Session {
    server: Server,
    clients: Vec<Client>,
}

/// Start the server and connect every client with its first relation.
fn start(m: &Model, trace: TraceHandle) -> Session {
    let cfg = ServerConfig {
        workers: CLIENTS,
        eval_threads: 1,
        cache_capacity: CACHE,
        default_timeout: Duration::from_secs(60),
        idle_timeout: Duration::from_secs(600),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, trace).expect("bind a loopback port");
    let addr = server.addr().to_string();
    // Connect every client before the first request, so one pass of the
    // server's accept loop admits them all.
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(&addr).expect("connect to the in-process server"))
        .collect();
    let clients = clients
        .into_iter()
        .enumerate()
        .map(|(c, mut client)| {
            let body: Vec<String> = relation(m, c, 0).iter().map(box_text).collect();
            client
                .define(&format!("S(x, y) := {}", body.join(" or ")))
                .expect("initial define");
            // Build the first extension from scratch (later ones derive
            // incrementally from it).
            client
                .eval_sentence("exists R. R subset S", 0)
                .expect("initial evaluation");
            client
        })
        .collect();
    Session { server, clients }
}

/// Generate the traffic for both clients: a warm-up round, then `rounds`.
fn generate(
    seed: u64,
    rounds: usize,
) -> (Model, Vec<Vec<Request>>, Vec<Vec<Request>>, Fingerprint) {
    let m = model(seed);
    let mut fp = Fingerprint::default();
    let mut warm = Vec::new();
    let mut timed = Vec::new();
    for c in 0..CLIENTS {
        let mut rng = Rng::new(seed, 310 + c as u64);
        warm.push(traffic(&m, c, 1, 1, &mut rng));
        timed.push(traffic(&m, c, 2, rounds, &mut rng));
        for r in warm[c].iter().chain(&timed[c]) {
            fp.add(&r.text);
            fp.add(&r.answer);
        }
    }
    (m, warm, timed, fp)
}

/// Account every request of a phase; `timed` phases also keep per-class
/// latencies. Returns `(kind, latency ms)` per request.
fn record(tally: &mut Tally, logs: Vec<Log>, timed: bool) -> Vec<(Kind, f64)> {
    let mut lats = Vec::new();
    for (kind, lat, outcome) in logs.into_iter().flatten() {
        if timed {
            tally.timed(kind.class(), lat, outcome);
        } else {
            tally.record(kind.class(), outcome);
        }
        lats.push((kind, lat));
    }
    lats
}

pub fn run(cfg: &Config) -> Report {
    let rounds = cfg.rounds(ROUND_MS);
    let timed_rounds = if cfg.trace {
        (rounds / 2).max(1)
    } else {
        rounds
    };
    let mut tally = Tally::default();
    // Set-up: generate the traffic, start the server, connect, warm up on
    // one round per client.
    let setup = |tally: &mut Tally| {
        let (m, warm, timed, fp) = generate(cfg.seed, timed_rounds);
        let mut session = start(&m, TraceHandle::disabled());
        let (logs, _) = drive(&mut session.clients, &warm);
        record(tally, logs, false);
        (m, warm, timed, fp, session)
    };
    let mut clock = harness::SetupClock::new(timed_rounds);
    let (m, warm, timed, fp, mut session) = clock.time(&mut tally, setup);
    // The timed phase runs in stretches of whole rounds between the set-ups
    // still due; only the stretches count towards its time.
    let mut lats = Vec::new();
    let mut phase_s = 0.0;
    let mut at = 0;
    while at < timed_rounds {
        clock.due(at, &mut tally, setup);
        let end = clock
            .next_due()
            .map_or(timed_rounds, |r| r.clamp(at + 1, timed_rounds));
        let stretch: Vec<&[Request]> = timed
            .iter()
            .map(|reqs| &reqs[at * ROUND_REQUESTS..end * ROUND_REQUESTS])
            .collect();
        let (logs, s) = drive(&mut session.clients, &stretch);
        phase_s += s;
        lats.extend(record(&mut tally, logs, true));
        at = end;
    }
    session.server.shutdown();

    let mut report = Report {
        fingerprint: fp.hex(),
        setup_s: clock.times,
        latencies_ms: lats.iter().map(|l| l.1).collect(),
        phase_s,
        notes: vec![format!(
            "rounds {timed_rounds} x {ROUND_REQUESTS} requests x {CLIENTS} clients"
        )],
        ..Report::default()
    };
    if cfg.trace {
        let (mem, handle) = harness::memory_trace();
        let mut session = start(&m, handle.clone());
        let (logs, _) = drive(&mut session.clients, &warm);
        let warm_evals = logs
            .iter()
            .flatten()
            .filter(|l| l.0 != Kind::Define)
            .count();
        record(&mut tally, logs, false);
        let metrics = handle.metrics();
        let before = metrics.counter_snapshot();
        let hist = metrics.histogram("server.latency_us");
        let (sum_before, count_before) = (hist.sum(), hist.count());
        let (logs, traced_s) = drive(&mut session.clients, &timed);
        let lats = record(&mut tally, logs, false);
        session.server.shutdown();
        report.traced_s = traced_s;
        report.traced_ops = lats.len();

        let after = metrics.counter_snapshot();
        let delta = |name: &str| {
            (after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)) as f64
        };
        let share = |num: &str, other: &str| delta(num) / (delta(num) + delta(other)).max(1.0);
        // Service time: the dispatch worker's own clock per evaluation.
        let (sum_us, count) = (hist.sum() - sum_before, hist.count() - count_before);
        let service_ms = sum_us as f64 / 1e3 / count.max(1) as f64;
        let evals: Vec<f64> = lats
            .iter()
            .filter(|l| l.0 != Kind::Define)
            .map(|l| l.1)
            .collect();
        let client_ms = evals.iter().sum::<f64>() / evals.len().max(1) as f64;
        // Span-based layers cover the warm-up round too; average over every
        // evaluation request the traced server saw.
        let mut layers = Layers::default();
        layers.add_spans(&mem.summary());
        let n = (evals.len() + warm_evals) as f64;
        let l = &mut report.layers;
        l.insert("server.service_ms", service_ms);
        l.insert("server.wait_ms", client_ms - service_ms);
        l.insert(
            "server.cache_hit_ratio",
            share("server.cache.hit", "server.cache.miss"),
        );
        l.insert(
            "server.ext_incremental_ratio",
            share("server.ext.incremental", "server.ext.rebuild"),
        );
        l.insert("geom.level_self_ms", layers.mean("geom.level_self_ms", n));
        l.insert(
            "geom.finalize_self_ms",
            layers.mean("geom.finalize_self_ms", n),
        );
        l.insert(
            "core.regions_self_ms",
            layers.mean("core.regions_self_ms", n),
        );
        l.insert(
            "budget.meter_ticks",
            delta("budget.meter_ticks") / evals.len().max(1) as f64,
        );
        l.insert(
            "bench.unattributed_ms",
            client_ms - layers.mean("spans.self_ms", n),
        );
    }
    report.tally = tally;
    report
}
