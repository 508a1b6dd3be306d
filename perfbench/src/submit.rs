//! `submit_hot` and `submit_cold`: one-shot requests over loopback to
//! an in-process daemon.
//!
//! * `submit_hot` sends the loadgen default mix (cholesky 6, amdahl,
//!   P = 64, 16 recurring seeds) after warming every cache: a closed
//!   loop on `nproc` connections, then a paced phase at a fixed rate
//!   on one connection.
//! * `submit_cold` sends `submit_batch` frames of 32 items, every item
//!   with its own seed, mixing shapes, model classes, platform sizes
//!   and both registered algorithms, in a closed loop on `nproc`
//!   connections: no graph is ever cached.
//!
//! Every reply is checked against an in-process `WorkerContext::handle`
//! of the same request, computed outside the timed phases.
//!
//! The traced run replays the same request stream in-process, timing
//! each layer: frame encode/split/parse, `WorkerContext::handle` and
//! its decomposition (graph build, Algorithm 2, engine, validation,
//! bounds), and reply encode/parse. The wire round trip minus those
//! rows is the transport.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moldable_core::{registry, AlgoName, AllocCache, OnlineScheduler};
use moldable_graph::{gen, TaskGraph};
use moldable_model::ModelClass;
use moldable_serve::json::{self, obj, Json};
use moldable_serve::proto::{split_batch_items, GraphSpec, Request, SubmitRequest};
use moldable_serve::server::Server;
use moldable_serve::{Client, EngineChoice, ServiceLimits, WorkerContext};
use moldable_sim::{simulate, simulate_batched, SimOptions};

use crate::daemon::{self, call, hot_request, hot_truth, nproc, wire_seed, HOT_SEEDS};
use crate::gates::{self, Tally};
use crate::pace;
use crate::report::{sub_seed, Cfg, Run};
use crate::stats::{median, LatencySummary};
use crate::trace::{nanos, totals_by_name, Span, Tracer};

/// Fixed rate of the paced phase: far below what one connection
/// sustains, so latency reflects service time rather than a backlog.
pub const PACED_RATE: f64 = 1000.0;

/// Items per `submit_batch` frame on `submit_cold`.
const BATCH: usize = 32;

/// Daemons started per run for the set-up median (each takes ~10 ms).
const SETUPS: usize = 25;

/// Graph shapes of the cold stream: hundreds to a few thousand tasks.
const COLD_SHAPES: [(&str, u32); 10] = [
    ("cholesky", 12),
    ("lu", 10),
    ("wavefront", 40),
    ("layered", 25),
    ("fork-join", 400),
    ("fft", 7),
    ("out-tree", 10),
    ("in-tree", 9),
    ("random", 200),
    ("independent", 3000),
];
const COLD_CLASSES: [&str; 4] = ["roofline", "communication", "amdahl", "general"];
const COLD_PS: [u32; 2] = [64, 256];

/// Item `i` of the cold stream rooted at `base`: a distinct seed per
/// item, the rest drawn from a hash of it.
#[must_use]
pub fn cold_item(base: u64, i: u64) -> SubmitRequest {
    let h = sub_seed(base, i);
    let pick = |shift: u32, n: usize| usize::try_from((h >> shift) % n as u64).expect("small");
    let (shape, size) = COLD_SHAPES[pick(0, COLD_SHAPES.len())];
    SubmitRequest {
        graph: GraphSpec::Named {
            shape: shape.into(),
            size,
        },
        p: Some(COLD_PS[pick(16, COLD_PS.len())]),
        model: COLD_CLASSES[pick(8, COLD_CLASSES.len())].into(),
        seed: base + i,
        scheduler: "online".into(),
        algo: registry::ALGO_NAMES[pick(24, registry::ALGO_NAMES.len())].into(),
        mu: None,
        policy: None,
        include_allocations: false,
    }
}

/// Which one-shot workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Hot,
    Cold,
}

impl Mode {
    fn items_per_frame(self) -> usize {
        match self {
            Self::Hot => 1,
            Self::Cold => BATCH,
        }
    }
}

/// The request stream of one run.
struct Stream {
    mode: Mode,
    base: u64,
    /// Ground truth of the recurring requests (hot only).
    hot: Vec<f64>,
}

impl Stream {
    fn item(&self, i: u64) -> SubmitRequest {
        match self.mode {
            Mode::Hot => hot_request(self.base, i),
            Mode::Cold => cold_item(self.base, i),
        }
    }

    /// Items of global frame `f`.
    fn items(&self, f: u64) -> Vec<(u64, SubmitRequest)> {
        let per = self.mode.items_per_frame() as u64;
        (f * per..(f + 1) * per)
            .map(|i| (i, self.item(i)))
            .collect()
    }

    fn frame(&self, items: &[(u64, SubmitRequest)]) -> Request {
        match self.mode {
            Mode::Hot => Request::Submit(Box::new(items[0].1.clone())),
            Mode::Cold => Request::Batch(
                items
                    .iter()
                    .map(|(_, r)| Request::Submit(Box::new(r.clone())).encode())
                    .collect(),
            ),
        }
    }
}

/// What a closed-loop phase observed.
#[derive(Default)]
struct Phase {
    /// Items answered `ok`, with their makespans, to check afterwards.
    answered: Vec<(u64, f64)>,
    /// Tasks scheduled by the items answered `ok`.
    tasks: u64,
    /// Round trip of every frame, in milliseconds.
    rtt_ms: Vec<f64>,
    /// Frame round trips, as spans (traced phases only).
    spans: Vec<Span>,
    tally: Tally,
    /// Items sent.
    items: u64,
    /// Seconds from the phase start until every client had its last
    /// reply.
    elapsed: f64,
}

impl Phase {
    /// Items answered `ok` per second over the phase.
    #[allow(clippy::cast_precision_loss)]
    fn rate(&self) -> f64 {
        self.answered.len() as f64 / self.elapsed
    }

    /// Tasks scheduled per second over the phase.
    #[allow(clippy::cast_precision_loss)]
    fn tasks_rate(&self) -> f64 {
        self.tasks as f64 / self.elapsed
    }
}

/// Closed loop: each client sends its next frame when the previous
/// reply arrives, until `dur` has passed.
fn closed_loop(stream: &Stream, clients: &mut [Client], dur: Duration, traced: bool) -> Phase {
    let nc = clients.len() as u64;
    let origin = Instant::now();
    let phases: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut ph = Phase::default();
                    let mut n = 0u64;
                    while origin.elapsed() < dur {
                        let f = c as u64 + n * nc;
                        n += 1;
                        let items = stream.items(f);
                        let frame = stream.frame(&items);
                        let start = origin.elapsed();
                        let reply = call(client, &frame);
                        let end = origin.elapsed();
                        ph.items += items.len() as u64;
                        ph.rtt_ms.push((end - start).as_secs_f64() * 1e3);
                        if traced {
                            ph.spans.push(Span {
                                name: "wire.request",
                                start: nanos(start),
                                end: nanos(end),
                                parent: None,
                                req: f,
                            });
                        }
                        collect(&mut ph, &items, reply);
                    }
                    ph
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut all = Phase {
        elapsed: origin.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for ph in phases {
        all.tasks += ph.tasks;
        all.rtt_ms.extend(ph.rtt_ms);
        all.answered.extend(ph.answered);
        all.spans.extend(ph.spans);
        all.items += ph.items;
        all.tally.merge(ph.tally);
    }
    all
}

/// Sort one frame's reply into answered items and failures (transport
/// errors and refusals fail every item of the frame).
fn collect(ph: &mut Phase, items: &[(u64, SubmitRequest)], reply: Result<Json, String>) {
    let reply = match reply {
        Ok(r) => r,
        Err(e) => {
            for _ in items {
                ph.tally.fail(e.clone());
            }
            return;
        }
    };
    // A batch answers with `results`; a single submit is its own result.
    let results = reply
        .get("results")
        .and_then(Json::as_arr)
        .unwrap_or(std::slice::from_ref(&reply));
    if results.len() != items.len() {
        for _ in items {
            ph.tally.fail(format!(
                "reply does not match the frame: {}",
                reply.encode()
            ));
        }
        return;
    }
    for ((i, _), r) in items.iter().zip(results) {
        let field = |k: &str| r.get(k).ok_or_else(|| format!("reply without {k}"));
        match gates::reply_ok(r).and_then(|()| Ok((field("makespan")?, field("n_tasks")?))) {
            Ok((m, n)) => {
                ph.answered.push((*i, m.as_f64().unwrap_or(f64::NAN)));
                ph.tasks += n.as_u64().unwrap_or(0);
            }
            Err(e) => ph.tally.fail(e),
        }
    }
}

/// Compare every answered item with the in-process answer (hot: the
/// precomputed table; cold: recomputed on `nproc` threads) and count
/// one operation per item sent.
fn check_answers(stream: &Stream, ph: &mut Phase, tally: &mut Tally) {
    tally.attempted += ph.items;
    // Failures seen in flight were counted without an attempt.
    tally.merge(std::mem::take(&mut ph.tally));
    let answered = std::mem::take(&mut ph.answered);
    let outcomes: Vec<gates::Check> = match stream.mode {
        Mode::Hot => answered
            .iter()
            .map(|&(i, m)| {
                same_bits(
                    m,
                    stream.hot[usize::try_from(i % HOT_SEEDS).expect("small")],
                )
            })
            .collect(),
        Mode::Cold => {
            let chunk = answered.len().div_ceil(nproc()).max(1);
            std::thread::scope(|scope| {
                let hs: Vec<_> = answered
                    .chunks(chunk)
                    .map(|part| {
                        // A fresh context per slice keeps the checker's
                        // memory small; answers do not depend on it.
                        scope.spawn(move || {
                            part.chunks(256)
                                .flat_map(|slice| {
                                    let mut ctx = WorkerContext::new();
                                    slice
                                        .iter()
                                        .map(|&(i, m)| {
                                            gates::same_makespan(&ctx.handle(&stream.item(i)), m)
                                        })
                                        .collect::<Vec<_>>()
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                hs.into_iter()
                    .flat_map(|h| h.join().expect("ground-truth thread"))
                    .collect()
            })
        }
    };
    for o in outcomes {
        if let Err(e) = o {
            tally.fail(e);
        }
    }
}

fn same_bits(got: f64, want: f64) -> gates::Check {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("makespan {got} differs from in-process {want}"))
    }
}

/// Start, warm and keep the last of [`SETUPS`] daemons; returns the
/// median set-up seconds.
fn setup(base: u64, conns: usize) -> (Server, Vec<Client>, f64) {
    let mut secs = Vec::new();
    let mut live: Option<(Server, Vec<Client>)> = None;
    for _ in 0..SETUPS {
        if let Some((s, c)) = live.take() {
            drop(c);
            daemon::stop(s);
        }
        let (s, c, t) = daemon::start_warm(base, conns);
        secs.push(t);
        live = Some((s, c));
    }
    let (s, c) = live.expect("at least one set-up");
    (s, c, median(&secs))
}

/// `submit_hot`.
pub fn run_hot(cfg: &Cfg) -> Run {
    run_one_shot(cfg, Mode::Hot)
}

/// `submit_cold`.
pub fn run_cold(cfg: &Cfg) -> Run {
    run_one_shot(cfg, Mode::Cold)
}

fn run_one_shot(cfg: &Cfg, mode: Mode) -> Run {
    let mut run = Run::default();
    let base = wire_seed(sub_seed(cfg.seed, 10));
    let (server, mut clients, setup_s) = setup(base, nproc());
    let stream = Stream {
        mode,
        base: match mode {
            Mode::Hot => base,
            Mode::Cold => wire_seed(sub_seed(cfg.seed, 20)),
        },
        // Ground truth, outside set-up and the timed phases.
        hot: match mode {
            Mode::Hot => hot_truth(base),
            Mode::Cold => Vec::new(),
        },
    };
    if cfg.trace {
        traced(cfg, &stream, &mut clients, &mut run);
    } else {
        // Cold leaves time for its ground truth, which costs about as much
        // as the closed phase.
        let closed_share = if mode == Mode::Hot { 0.5 } else { 0.6 };
        let dur = cfg.budget(closed_share);
        let mut ph = closed_loop(&stream, &mut clients, dur, false);
        run.metric("requests_per_s", ph.rate(), "req/s");
        run.metric("tasks_per_s", ph.tasks_rate(), "tasks/s");
        check_answers(&stream, &mut ph, &mut run.tally);
        if mode == Mode::Hot {
            paced_hot(cfg, &stream, &mut clients[0], &mut run);
        } else {
            // Closed loop: the latency is the batch frame's round trip.
            note_latency(&mut run, "submit_batch round trip", &ph.rtt_ms);
            let s = LatencySummary::of(&ph.rtt_ms);
            run.metric("latency_ms", s.p50, "ms");
            run.metric("latency_p90_ms", s.p90, "ms");
        }
        run.metric("setup_s", setup_s, "s");
    }
    drop(clients);
    let st = daemon::stats(&server);
    run.tally.op(st
        .as_ref()
        .map_err(Clone::clone)
        .and_then(gates::ledger_balanced));
    if cfg.trace {
        if let Ok(st) = &st {
            stats_counts(st, &mut run);
        }
    }
    daemon::stop(server);
    run
}

/// The paced phase of `submit_hot`: one connection at [`PACED_RATE`].
fn paced_hot(cfg: &Cfg, stream: &Stream, client: &mut Client, run: &mut Run) {
    let reqs: Vec<Request> = (0..HOT_SEEDS)
        .map(|k| Request::Submit(Box::new(stream.item(k))))
        .collect();
    let mut tally = Tally::default();
    let samples = pace::drive_wall(PACED_RATE, cfg.budget(0.5), &mut |i| {
        let k = usize::try_from(i % HOT_SEEDS).expect("small");
        let outcome = call(client, &reqs[k]).and_then(|r| gates::same_makespan(&r, stream.hot[k]));
        let ok = outcome.is_ok();
        tally.op(outcome);
        ok
    });
    run.tally.merge(tally);
    report_paced(run, &samples, PACED_RATE, "paced one-shot stream");
}

/// Latency metrics of a paced stream (median and p90), with the
/// sample count, the highest supported percentile and its value, and
/// the driver's lateness as notes.
pub fn report_paced(run: &mut Run, samples: &[pace::PacedSample], rate: f64, what: &str) {
    let lat: Vec<f64> = samples.iter().map(pace::PacedSample::latency_ms).collect();
    note_latency(run, what, &lat);
    let (late_p50, late_max) = pace::lateness(samples);
    run.note(format!(
        "{what}: paced at {rate} req/s, driver lateness p50 {late_p50:.4} ms max {late_max:.3} ms"
    ));
    let s = LatencySummary::of(&lat);
    run.metric("latency_ms", s.p50, "ms");
    run.metric("latency_p90_ms", s.p90, "ms");
}

/// One note line: sample count, median, p90 and the highest supported
/// tail percentile with its value.
pub fn note_latency(run: &mut Run, what: &str, lat_ms: &[f64]) {
    let s = LatencySummary::of(lat_ms);
    let tail = s.tail.map_or_else(
        || "no tail percentile supported".to_string(),
        |(q, v)| format!("p{} {v:.4} ms", f64::from(q) / 100.0),
    );
    run.note(format!(
        "{what}: {} samples, p50 {:.4} ms, p90 {:.4} ms, highest supported {tail}",
        s.n, s.p50, s.p90
    ));
}

fn stats_counts(st: &Json, run: &mut Run) {
    let body = st.get("stats").unwrap_or(st);
    #[allow(clippy::cast_precision_loss)]
    let n = |k: &str| body.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    let (hits, misses) = (n("graph_cache_hits"), n("graph_cache_misses"));
    run.metric(
        "serve.service.graph_cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    run.metric("serve.server.shard_steals", n("shard_steals"), "count");
}

/// The bench-side mirror of a worker's state: the same graph LRU and
/// `(algo, P, μ)`-keyed allocation caches the service keeps, so the
/// decomposition sees the same hits and misses as `handle`.
struct Mirror {
    graphs: Vec<(GraphKey, Arc<TaskGraph>)>,
    cap: usize,
    /// Per key: the cache Algorithm 2 runs through alone, and the
    /// cache handed to the scheduler.
    caches: HashMap<(AlgoName, u32, u64), (AllocCache, Option<AllocCache>)>,
    engine: EngineChoice,
}

type GraphKey = (String, u32, u64, String, u32);

impl Mirror {
    fn new(engine: EngineChoice) -> Self {
        Self {
            graphs: Vec::new(),
            cap: ServiceLimits::default().graph_cache_cap,
            caches: HashMap::new(),
            engine,
        }
    }

    fn graph(&mut self, req: &SubmitRequest, class: ModelClass, p: u32) -> Arc<TaskGraph> {
        let GraphSpec::Named { shape, size } = &req.graph else {
            unreachable!("the benchmark sends named graphs only")
        };
        let key: GraphKey = (shape.clone(), *size, req.seed, req.model.clone(), p);
        if let Some(i) = self.graphs.iter().position(|(k, _)| *k == key) {
            let e = self.graphs.remove(i);
            let g = Arc::clone(&e.1);
            self.graphs.insert(0, e);
            return g;
        }
        let g = Arc::new(gen::by_name(shape, *size, class, p, req.seed).expect("valid shape"));
        self.graphs.insert(0, (key, Arc::clone(&g)));
        self.graphs.truncate(self.cap);
        g
    }

    /// Hits over probes of every scheduler-side cache.
    fn hit_ratio(&self) -> f64 {
        let (mut h, mut p) = (0u64, 0u64);
        for (_, b) in self.caches.values() {
            if let Some(b) = b {
                h += b.hits();
                p += b.probes();
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let r = h as f64 / p.max(1) as f64;
        r
    }

    /// `handle` taken apart, each layer in its own span under a
    /// `serve.service.decomposed` root; returns the makespan.
    fn decompose(&mut self, tr: &mut Tracer, id: u64, req: &SubmitRequest) -> f64 {
        let class = parse_class(&req.model);
        let algo = registry::by_name(&req.algo).expect("registered algo");
        let p = req.p.expect("named graphs carry p");
        let mu = algo.optimal_mu(class);
        let root = tr.begin("serve.service.decomposed", id, None);
        let g = tr.time("graph.gen", id, Some(root), || self.graph(req, class, p));
        let (alone, for_sched) = self
            .caches
            .entry((algo, p, mu.to_bits()))
            .or_insert_with(|| (AllocCache::for_algo(algo, p, mu), None));
        tr.time("core.allocator", id, Some(root), || {
            for t in g.task_ids() {
                std::hint::black_box(alone.allocate(g.model(t)));
            }
        });
        let mut sched = OnlineScheduler::with_algo(algo, mu);
        if let Some(c) = for_sched.take() {
            sched = sched.with_alloc_cache(c);
        }
        let opts = SimOptions::new(p);
        let engine = self.engine;
        let s = tr.time("sim.engine", id, Some(root), || match engine {
            EngineChoice::Legacy => simulate(&g, &mut sched, &opts),
            EngineChoice::Batched => simulate_batched(&g, &mut sched, &opts),
        });
        *for_sched = sched.take_alloc_cache();
        let s = s.expect("benchmark requests simulate");
        let valid = tr.time("sim.validate", id, Some(root), || s.validate(&g).is_ok());
        let lb = tr.time("graph.bounds", id, Some(root), || g.bounds(p).lower_bound());
        tr.end(root);
        if valid && s.makespan >= lb * (1.0 - 1e-12) {
            s.makespan
        } else {
            f64::NAN
        }
    }
}

pub fn parse_class(name: &str) -> ModelClass {
    match name {
        "roofline" => ModelClass::Roofline,
        "communication" => ModelClass::Communication,
        "amdahl" => ModelClass::Amdahl,
        "general" => ModelClass::General,
        other => unreachable!("the benchmark sends known classes, not {other}"),
    }
}

/// Replay one frame in-process under a `request` root: encode (and
/// split, for batches), parse, handle, reply encode and parse. Returns
/// the request and reply bytes per item.
fn replay_frame(
    stream: &Stream,
    ctx: &mut WorkerContext,
    tr: &mut Tracer,
    f: u64,
    truth: &HashMap<u64, f64>,
    tally: &mut Tally,
) -> (usize, usize) {
    let items = stream.items(f);
    let reqs: Vec<Request> = items
        .iter()
        .map(|(_, r)| Request::Submit(Box::new(r.clone())))
        .collect();
    let root = tr.begin("request", f, None);
    let (bytes, parts) = match stream.mode {
        Mode::Hot => {
            let b = tr.time("serve.proto.encode", f, Some(root), || reqs[0].encode());
            (b.len(), vec![b])
        }
        Mode::Cold => {
            let frame = tr.time("serve.proto.encode", f, Some(root), || {
                Request::Batch(reqs.iter().map(Request::encode).collect()).encode()
            });
            let parts = tr.time("serve.proto.split_batch", f, Some(root), || {
                split_batch_items(&frame)
            });
            (frame.len(), parts.unwrap_or_default())
        }
    };
    let mut replies = Vec::with_capacity(parts.len());
    for (k, part) in parts.iter().enumerate() {
        let parsed = tr.time("serve.proto.parse", f, Some(root), || Request::parse(part));
        let Ok(Request::Submit(sub)) = parsed else {
            tally.op(Err(format!("frame {f} item {k} did not parse back")));
            continue;
        };
        let reply = tr.time("serve.service.handle", f, Some(root), || ctx.handle(&sub));
        let want = truth.get(&items[k].0).copied().unwrap_or(f64::NAN);
        tally.op(if *sub == items[k].1 {
            gates::same_makespan(&reply, want)
        } else {
            Err(format!("frame {f} item {k} changed in the codec"))
        });
        replies.push(reply);
    }
    if parts.len() != items.len() {
        tally.op(Err(format!("frame {f} split into {} items", parts.len())));
    }
    let text = tr.time("serve.json.reply_encode", f, Some(root), || {
        match stream.mode {
            Mode::Hot => replies.first().map(Json::encode).unwrap_or_default(),
            Mode::Cold => obj(vec![
                ("status", Json::Str("ok".into())),
                ("results", Json::Arr(replies)),
            ])
            .encode(),
        }
    });
    let back = tr.time("serve.json.reply_parse", f, Some(root), || {
        json::parse(&text)
    });
    tr.end(root);
    if back.is_err() {
        tally.op(Err(format!("frame {f} reply did not parse")));
    }
    (bytes, text.len())
}

/// The traced run: untraced and traced closed loops (for the overhead
/// row and the wire round trip), then the in-process replay.
fn traced(cfg: &Cfg, stream: &Stream, clients: &mut [Client], run: &mut Run) {
    let dur = cfg.budget(0.25);
    let mut plain = closed_loop(stream, clients, dur, false);
    let plain_rate = plain.rate();
    check_answers(stream, &mut plain, &mut run.tally);
    let mut wire = closed_loop(stream, clients, dur, true);
    let wire_rate = wire.rate();
    let wire_spans = std::mem::take(&mut wire.spans);
    // Ground truth for the replayed items: the wire phase's checked
    // answers (checked against in-process handles below).
    let truth: HashMap<u64, f64> = wire.answered.iter().copied().collect();
    let mut frames: Vec<u64> = wire_spans.iter().map(|s| s.req).collect();
    frames.sort_unstable();
    check_answers(stream, &mut wire, &mut run.tally);

    let mut ctx = WorkerContext::new();
    let mut mirror = Mirror::new(ctx.engine());
    let mut tr = Tracer::new(Instant::now());
    let mut replay_tally = Tally::default();
    let (mut req_bytes, mut reply_bytes) = (0usize, 0usize);
    // Warm the replay's caches the way the daemon's were warmed.
    if stream.mode == Mode::Hot {
        for k in 0..2 * HOT_SEEDS {
            let _ = ctx.handle(&stream.item(k));
            let mut scratch = Tracer::new(Instant::now());
            mirror.decompose(&mut scratch, 0, &stream.item(k));
        }
    }
    let t0 = Instant::now();
    let mut replayed = 0u64;
    for &f in &frames {
        if replayed > 0 && t0.elapsed() >= cfg.budget(0.4) {
            break;
        }
        replayed += 1;
        let (a, b) = replay_frame(stream, &mut ctx, &mut tr, f, &truth, &mut replay_tally);
        req_bytes += a;
        reply_bytes += b;
        for (i, item) in stream.items(f) {
            let m = mirror.decompose(&mut tr, f, &item);
            let want = truth.get(&i).copied().unwrap_or(f64::NAN);
            replay_tally.op(same_bits(m, want));
        }
    }
    run.tally.merge(replay_tally);
    let spans = tr.take();
    #[allow(clippy::cast_precision_loss)]
    let items = (replayed * stream.mode.items_per_frame() as u64) as f64;
    let t = totals_by_name(&spans, |_| true);
    #[allow(clippy::cast_precision_loss)]
    let us = |name: &str| t.get(name).map_or(0.0, |x| x.total as f64 / items / 1e3);
    #[allow(clippy::cast_precision_loss)]
    let wire_us = {
        let w = totals_by_name(&wire_spans, |_| true);
        let x = w.get("wire.request").copied().unwrap_or_default();
        x.total as f64 / (x.count as f64 * stream.mode.items_per_frame() as f64) / 1e3
    };

    let alloc = us("core.allocator");
    let rows_handle = [
        ("graph.gen_us", us("graph.gen")),
        ("core.allocator.alloc_us", alloc),
        ("sim.engine.simulate_us", us("sim.engine") - alloc),
        ("sim.validate_us", us("sim.validate")),
        ("graph.bounds_us", us("graph.bounds")),
    ];
    let handle = us("serve.service.handle");
    let service_self = handle - rows_handle.iter().map(|r| r.1).sum::<f64>();
    let mut rows_request = vec![("serve.proto.encode_us", us("serve.proto.encode"))];
    if stream.mode == Mode::Cold {
        rows_request.push(("serve.proto.split_batch_us", us("serve.proto.split_batch")));
    }
    rows_request.extend([
        ("serve.proto.parse_us", us("serve.proto.parse")),
        ("serve.service.handle_us", handle),
        ("serve.json.reply_encode_us", us("serve.json.reply_encode")),
        ("serve.json.reply_parse_us", us("serve.json.reply_parse")),
    ]);
    let inproc = us("request");
    let rows_sum: f64 = rows_request.iter().map(|r| r.1).sum();
    let transport = wire_us - rows_sum;

    for (name, v) in rows_request.iter().chain(rows_handle.iter()) {
        run.metric(*name, *v, "us");
    }
    run.metric("serve.service.self_us", service_self, "us");
    run.metric("serve.server.transport_us", transport, "us");
    run.metric("trace.request_us", inproc, "us");
    run.metric("trace.residual_us", inproc - rows_sum, "us");
    run.metric("trace.wire_request_us", wire_us, "us");
    run.metric(
        "trace.overhead_pct",
        100.0 * (plain_rate - wire_rate) / plain_rate,
        "%",
    );
    run.metric(
        "core.allocator.cache_hit_ratio",
        mirror.hit_ratio(),
        "ratio",
    );
    #[allow(clippy::cast_precision_loss)]
    {
        run.metric(
            "serve.proto.request_bytes",
            req_bytes as f64 / items,
            "bytes",
        );
        run.metric(
            "serve.proto.reply_bytes",
            reply_bytes as f64 / items,
            "bytes",
        );
    }

    let mut handle_rows: Vec<(&str, f64)> = rows_handle.to_vec();
    handle_rows.push(("serve.service.self_us", service_self));
    run.ladder("serve.service.handle", &handle_rows, handle);
    run.ladder("in-process request", &rows_request, inproc);
    let mut wire_rows = rows_request.clone();
    wire_rows.push(("serve.server.transport_us", transport));
    run.ladder("wire request", &wire_rows, wire_us);
    run.note(format!(
        "traced replay: {replayed} frames, {items} items; wire phases: {:.1} req/s untraced, {:.1} req/s traced",
        plain_rate, wire_rate
    ));
    run.spans = wire_spans;
    crate::trace::append(&mut run.spans, spans);
}
