//! `sessions_mixed`: the streaming session layer under a deterministic
//! script, with a paced one-shot stream on a second connection.
//!
//! Each iteration starts a fresh daemon. Thread 1 runs the script:
//! `TENANTS` × `SESSIONS` sessions are opened; in each of `DAGS`
//! rounds every session submits one DAG released at `round × GAP`
//! and is then polled; a final poll per session lifts its frontier past
//! every release, polls drain each session's events, and the sessions
//! are closed. Thread 2 sends one-shot `submit_hot` requests at a fixed
//! rate until the script ends. The event log, merged by sequence
//! number, is a pure function of the script: its FNV-1a fingerprint is
//! the same in every iteration and is pinned at the default seed.
//!
//! The traced run replays the same script in-process against a fresh
//! `SessionHub` and against a bare `TenantService`, so hub and tenant
//! time per verb are their own rows.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use moldable_core::registry;
use moldable_graph::gen;
use moldable_serve::json::{self, Json};
use moldable_serve::proto::{
    CloseSessionRequest, GraphSpec, OpenSessionRequest, PollRequest, Request, SubmitDagRequest,
};
use moldable_serve::server::ServerConfig;
use moldable_serve::{Client, ServerStats, ServiceLimits, SessionHub};
use moldable_tenant::{EventKind, TenantService};

use crate::daemon::{self, call, hot_request, hot_truth, wire_seed, HOT_SEEDS};
use crate::gates::{self, Tally};
use crate::pace;
use crate::report::{sub_seed, Cfg, Run, DEFAULT_SEED};
use crate::stats::{median, LatencySummary};
use crate::submit::{note_latency, report_paced};
use crate::trace::{nanos, totals_by_name, Span, Totals, Tracer};

/// Tenants in the script.
const TENANTS: usize = 4;
/// Sessions per tenant.
const SESSIONS: usize = 8;
/// DAGs per session, one per round.
const DAGS: usize = 12;
/// Virtual time between rounds of releases.
const GAP: f64 = 4.0;
/// Frontier of the final poll: past every release and completion.
const HORIZON: f64 = 1e9;
/// Events per poll.
const MAX_EVENTS: u64 = 256;
/// Rate of the paced one-shot stream.
const PACED_RATE: f64 = 500.0;
/// Small DAG shapes the sessions stream.
const SHAPES: [(&str, u32); 7] = [
    ("chain", 8),
    ("fork-join", 6),
    ("cholesky", 4),
    ("lu", 4),
    ("in-tree", 4),
    ("wavefront", 5),
    ("fft", 3),
];
const CLASSES: [&str; 4] = ["amdahl", "general", "roofline", "communication"];

/// The script's event-log fingerprint at [`DEFAULT_SEED`].
const PINNED_FINGERPRINT: u64 = 0x8198_19cf_2fcf_4f20;

/// The deterministic script of one iteration.
struct Plan {
    /// `(tenant, session)` labels, in open order.
    sessions: Vec<(String, String)>,
    /// `rounds[r][k]`: session `k`'s DAG of round `r`.
    rounds: Vec<Vec<SubmitDagRequest>>,
}

impl Plan {
    fn new(seed: u64) -> Self {
        let base = wire_seed(sub_seed(seed, 30));
        let mut sessions = Vec::new();
        for t in 0..TENANTS {
            for s in 0..SESSIONS {
                sessions.push((format!("t{t}"), format!("t{t}-s{s}")));
            }
        }
        let rounds = (0..DAGS)
            .map(|r| {
                sessions
                    .iter()
                    .enumerate()
                    .map(|(k, (_, label))| {
                        let i = (r * sessions.len() + k) as u64;
                        let h = sub_seed(base, i);
                        let pick = |shift: u32, n: usize| {
                            usize::try_from((h >> shift) % n as u64).expect("small")
                        };
                        let (shape, size) = SHAPES[pick(0, SHAPES.len())];
                        #[allow(clippy::cast_precision_loss)]
                        SubmitDagRequest {
                            session: label.clone(),
                            at: r as f64 * GAP,
                            graph: GraphSpec::Named {
                                shape: shape.into(),
                                size,
                            },
                            model: CLASSES[pick(8, CLASSES.len())].into(),
                            seed: base + i,
                            // Odd tenants run Improved'23, even ones ICPP'22.
                            algo: registry::ALGO_NAMES[(k / SESSIONS) % 2].into(),
                        }
                    })
                    .collect()
            })
            .collect();
        Self { sessions, rounds }
    }

    fn dags(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }
}

/// One completion event, rendered as an event-log line.
fn event_line(seq: u64, session: &str, dag: u64, kind: &EventKind) -> String {
    match kind {
        EventKind::TaskDone { task, end, procs } => {
            format!("{seq} {session} dag={dag} task={task} end={end} procs={procs}")
        }
        EventKind::DagDone { at } => format!("{seq} {session} dag={dag} done at={at}"),
    }
}

/// The same line from a wire (or hub) event object.
fn json_event(session: &str, e: &Json) -> Result<(u64, String, bool), String> {
    let n = |k: &str| {
        e.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("event without `{k}`"))
    };
    let seq = e
        .get("seq")
        .and_then(Json::as_u64)
        .ok_or("event without seq")?;
    let dag = e
        .get("dag")
        .and_then(Json::as_u64)
        .ok_or("event without dag")?;
    let (kind, done) = match e.get("type").and_then(Json::as_str) {
        Some("task_done") => {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let kind = EventKind::TaskDone {
                task: n("task")? as u32,
                end: n("end")?,
                procs: n("procs")? as u32,
            };
            (kind, false)
        }
        Some("dag_done") => (EventKind::DagDone { at: n("at")? }, true),
        _ => return Err(format!("unknown event {}", e.encode())),
    };
    Ok((seq, event_line(seq, session, dag, &kind), done))
}

/// What one poll returned.
struct Polled {
    /// `(seq, line, is_dag_done)` per event.
    events: Vec<(u64, String, bool)>,
    closed: bool,
}

/// The four session verbs, against the daemon, a hub, or the tenant
/// service itself.
trait Backend {
    fn open(&mut self, tenant: &str, session: &str) -> Result<(), String>;
    /// Returns the admitted DAG's task count.
    fn submit(&mut self, req: &SubmitDagRequest) -> Result<u64, String>;
    fn poll(&mut self, session: &str, until: Option<f64>) -> Result<Polled, String>;
    fn close(&mut self, session: &str) -> Result<(), String>;
}

/// What a script run produced.
struct ScriptOut {
    fingerprint: u64,
    tasks: u64,
    polls: u64,
    events: u64,
    secs: f64,
}

/// Run the script; every verb must succeed.
fn script(b: &mut dyn Backend, plan: &Plan) -> Result<ScriptOut, String> {
    let t0 = Instant::now();
    let mut log: Vec<(u64, String)> = Vec::new();
    let mut done = vec![0usize; plan.sessions.len()];
    let mut polls = 0u64;
    let mut tasks = 0u64;
    for (tenant, label) in &plan.sessions {
        b.open(tenant, label)?;
    }
    for round in &plan.rounds {
        for req in round {
            tasks += b.submit(req)?;
        }
        for (k, (_, label)) in plan.sessions.iter().enumerate() {
            let p = b.poll(label, None)?;
            polls += 1;
            absorb(&mut done, k, p, &mut log);
        }
    }
    for (k, (_, label)) in plan.sessions.iter().enumerate() {
        let p = b.poll(label, Some(HORIZON))?;
        polls += 1;
        absorb(&mut done, k, p, &mut log);
    }
    for (k, (_, label)) in plan.sessions.iter().enumerate() {
        let mut guard = 0;
        while done[k] < plan.rounds.len() {
            let p = b.poll(label, None)?;
            polls += 1;
            let had = p.events.len();
            absorb(&mut done, k, p, &mut log);
            guard = if had == 0 { guard + 1 } else { 0 };
            if guard > 3 {
                return Err(format!("session `{label}` stopped delivering events"));
            }
        }
    }
    for (k, (_, label)) in plan.sessions.iter().enumerate() {
        b.close(label)?;
        let p = b.poll(label, None)?;
        polls += 1;
        if !absorb(&mut done, k, p, &mut log) {
            return Err(format!("session `{label}` not closed after draining"));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    log.sort_by_key(|(seq, _)| *seq);
    let mut text = String::new();
    for (_, line) in &log {
        text.push_str(line);
        text.push('\n');
    }
    Ok(ScriptOut {
        fingerprint: gates::fnv1a(text.as_bytes()),
        tasks,
        polls,
        events: log.len() as u64,
        secs,
    })
}

/// Add one poll's events to the log, counting `dag_done` events per
/// session; returns whether the session reported itself closed.
fn absorb(done: &mut [usize], k: usize, p: Polled, log: &mut Vec<(u64, String)>) -> bool {
    for (seq, line, is_done) in p.events {
        done[k] += usize::from(is_done);
        log.push((seq, line));
    }
    p.closed
}

/// The task count of an `ok` `submit_dag` reply.
fn admitted(r: &Json) -> Result<u64, String> {
    gates::reply_ok(r)?;
    r.get("n_tasks")
        .and_then(Json::as_u64)
        .ok_or_else(|| "submit_dag reply without n_tasks".to_string())
}

fn poll_reply(session: &str, r: &Json) -> Result<Polled, String> {
    gates::reply_ok(r)?;
    let events = r
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("poll reply without events")?
        .iter()
        .map(|e| json_event(session, e))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Polled {
        events,
        closed: r.get("closed").and_then(Json::as_bool) == Some(true),
    })
}

fn poll_request(session: &str, until: Option<f64>) -> PollRequest {
    PollRequest {
        session: session.into(),
        until,
        max_events: MAX_EVENTS,
    }
}

/// The daemon, over one connection; records `submit_dag` round trips
/// and, when traced, one span per verb.
struct Wire<'a> {
    client: &'a mut Client,
    origin: Instant,
    submit_ms: Vec<f64>,
    spans: Option<Vec<Span>>,
}

impl Wire<'_> {
    fn verb(&mut self, name: &'static str, req: &Request) -> Result<Json, String> {
        let start = self.origin.elapsed();
        let r = call(self.client, req);
        let end = self.origin.elapsed();
        if name == "wire.submit_dag" {
            self.submit_ms.push((end - start).as_secs_f64() * 1e3);
        }
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                name,
                start: nanos(start),
                end: nanos(end),
                parent: None,
                req: spans.len() as u64,
            });
        }
        r
    }
}

impl Backend for Wire<'_> {
    fn open(&mut self, tenant: &str, session: &str) -> Result<(), String> {
        let req = Request::OpenSession(OpenSessionRequest {
            tenant: tenant.into(),
            session: session.into(),
        });
        gates::reply_ok(&self.verb("wire.open_session", &req)?)
    }

    fn submit(&mut self, req: &SubmitDagRequest) -> Result<u64, String> {
        let req = Request::SubmitDag(Box::new(req.clone()));
        admitted(&self.verb("wire.submit_dag", &req)?)
    }

    fn poll(&mut self, session: &str, until: Option<f64>) -> Result<Polled, String> {
        let r = self.verb("wire.poll", &Request::Poll(poll_request(session, until)))?;
        poll_reply(session, &r)
    }

    fn close(&mut self, session: &str) -> Result<(), String> {
        let req = Request::CloseSession(CloseSessionRequest {
            session: session.into(),
        });
        gates::reply_ok(&self.verb("wire.close_session", &req)?)
    }
}

/// A `SessionHub` called in-process; each verb is a `request` root
/// with the hub call as its child.
struct Hub<'a> {
    hub: SessionHub,
    stats: ServerStats,
    tr: &'a mut Tracer,
    n: u64,
}

impl Hub<'_> {
    fn verb(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&SessionHub, &ServerStats) -> Vec<u8>,
    ) -> Result<Json, String> {
        self.n += 1;
        let root = self.tr.begin("request", self.n, None);
        let bytes = self
            .tr
            .time(name, self.n, Some(root), || f(&self.hub, &self.stats));
        self.tr.end(root);
        let text = String::from_utf8(bytes).map_err(|_| "hub reply not UTF-8".to_string())?;
        json::parse(&text).map_err(|e| e.to_string())
    }
}

impl Backend for Hub<'_> {
    fn open(&mut self, tenant: &str, session: &str) -> Result<(), String> {
        let req = OpenSessionRequest {
            tenant: tenant.into(),
            session: session.into(),
        };
        gates::reply_ok(&self.verb("serve.sessions.open", |h, s| h.open(&req, s))?)
    }

    fn submit(&mut self, req: &SubmitDagRequest) -> Result<u64, String> {
        admitted(&self.verb("serve.sessions.submit_dag", |h, s| h.submit_dag(req, s))?)
    }

    fn poll(&mut self, session: &str, until: Option<f64>) -> Result<Polled, String> {
        let req = poll_request(session, until);
        let r = self.verb("serve.sessions.poll", |h, s| h.poll(&req, s))?;
        poll_reply(session, &r)
    }

    fn close(&mut self, session: &str) -> Result<(), String> {
        let req = CloseSessionRequest {
            session: session.into(),
        };
        gates::reply_ok(&self.verb("serve.sessions.close", |h, s| h.close(&req, s))?)
    }
}

/// The tenant service itself, with graphs built by the benchmark (the
/// `graph.gen` row) before each `submit_dag`.
struct Tenant<'a> {
    svc: TenantService,
    p_total: u32,
    tr: &'a mut Tracer,
    n: u64,
}

impl Backend for Tenant<'_> {
    fn open(&mut self, tenant: &str, session: &str) -> Result<(), String> {
        self.n += 1;
        let svc = &mut self.svc;
        self.tr
            .time("tenant.service.open", self.n, None, || {
                svc.open_session(tenant, session, 0)
            })
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn submit(&mut self, req: &SubmitDagRequest) -> Result<u64, String> {
        self.n += 1;
        let GraphSpec::Named { shape, size } = &req.graph else {
            unreachable!("the script sends named graphs only")
        };
        let class = crate::submit::parse_class(&req.model);
        let p = self.p_total;
        let g = self.tr.time("graph.gen", self.n, None, || {
            gen::by_name(shape, *size, class, p, req.seed)
        })?;
        let algo = registry::by_name(&req.algo)?;
        let svc = &mut self.svc;
        self.tr
            .time("tenant.service.submit_dag", self.n, None, || {
                svc.submit_dag(&req.session, Arc::new(g), req.at, algo, 0)
            })
            .map(|r| u64::from(r.n_tasks))
            .map_err(|e| e.to_string())
    }

    fn poll(&mut self, session: &str, until: Option<f64>) -> Result<Polled, String> {
        self.n += 1;
        let svc = &mut self.svc;
        let r = self
            .tr
            .time("tenant.service.poll", self.n, None, || {
                svc.poll(
                    session,
                    until.unwrap_or(f64::NEG_INFINITY),
                    usize::try_from(MAX_EVENTS).expect("small"),
                    0,
                )
            })
            .map_err(|e| e.to_string())?;
        Ok(Polled {
            events: r
                .events
                .iter()
                .map(|e| {
                    (
                        e.seq,
                        event_line(e.seq, session, u64::from(e.dag), &e.kind),
                        matches!(e.kind, EventKind::DagDone { .. }),
                    )
                })
                .collect(),
            closed: r.closed,
        })
    }

    fn close(&mut self, session: &str) -> Result<(), String> {
        self.n += 1;
        let svc = &mut self.svc;
        self.tr
            .time("tenant.service.close", self.n, None, || {
                svc.close_session(session, 0)
            })
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// What the iterations of one phase observed.
#[derive(Default)]
struct Phase {
    setups: Vec<f64>,
    script_secs: f64,
    dags: u64,
    tasks: u64,
    submit_ms: Vec<f64>,
    paced: Vec<pace::PacedSample>,
    spans: Vec<Span>,
    fingerprint: Option<u64>,
    polls: u64,
    events: u64,
}

/// Iterations on fresh daemons until `budget` has passed (at least
/// one).
fn iterate(
    cfg: &Cfg,
    plan: &Plan,
    budget: std::time::Duration,
    traced: bool,
    tally: &mut Tally,
) -> Phase {
    let base = wire_seed(sub_seed(cfg.seed, 10));
    let truth = hot_truth(base);
    let hot: Vec<Request> = (0..HOT_SEEDS)
        .map(|k| Request::Submit(Box::new(hot_request(base, k))))
        .collect();
    let mut ph = Phase::default();
    let t0 = Instant::now();
    while ph.setups.is_empty() || t0.elapsed() < budget {
        let (server, mut clients, setup) = daemon::start_warm(base, 2);
        ph.setups.push(setup);
        let (first, rest) = clients.split_at_mut(1);
        let (script_client, paced_client) = (&mut first[0], &mut rest[0]);
        let stop = AtomicBool::new(false);
        let origin = Instant::now();
        let (out, wire_spans, submit_ms, paced, paced_tally) = std::thread::scope(|scope| {
            let paced = scope.spawn(|| {
                let mut tally = Tally::default();
                let samples = pace::drive_until(PACED_RATE, &stop, &mut |i| {
                    let k = usize::try_from(i % HOT_SEEDS).expect("small");
                    let o = call(paced_client, &hot[k])
                        .and_then(|r| gates::same_makespan(&r, truth[k]));
                    let ok = o.is_ok();
                    tally.op(o);
                    ok
                });
                (samples, tally)
            });
            let mut wire = Wire {
                client: script_client,
                origin,
                submit_ms: Vec::new(),
                spans: traced.then(Vec::new),
            };
            let out = script(&mut wire, plan);
            stop.store(true, Ordering::SeqCst);
            let (samples, tally) = paced.join().expect("paced thread");
            (
                out,
                wire.spans.unwrap_or_default(),
                wire.submit_ms,
                samples,
                tally,
            )
        });
        tally.merge(paced_tally);
        ph.paced.extend(paced);
        ph.submit_ms.extend(submit_ms);
        ph.spans.extend(wire_spans);
        // One operation per verb of the script, failed as a whole when
        // any verb or the fingerprint fails.
        let verbs = script_verbs(plan);
        match out {
            Ok(o) => {
                ph.script_secs += o.secs;
                ph.dags += plan.dags() as u64;
                ph.tasks += o.tasks;
                ph.polls += o.polls;
                ph.events += o.events;
                let want = *ph.fingerprint.get_or_insert(o.fingerprint);
                tally.attempted += verbs;
                if let Err(e) = gates::fingerprint_matches("script", o.fingerprint, want) {
                    tally.fail(e);
                }
            }
            Err(e) => {
                tally.attempted += verbs;
                tally.fail(e);
            }
        }
        drop(clients);
        let st = daemon::stats(&server);
        tally.op(st.as_ref().map_err(Clone::clone).and_then(|s| {
            gates::ledger_balanced(s)?;
            gates::tenant_ledgers_balanced(s, TENANTS)
        }));
        daemon::stop(server);
    }
    if cfg.seed == DEFAULT_SEED {
        tally.op(gates::fingerprint_matches(
            "pinned",
            ph.fingerprint.unwrap_or(0),
            PINNED_FINGERPRINT,
        ));
    }
    ph
}

/// Verbs one script sends, open and close included (polls vary).
fn script_verbs(plan: &Plan) -> u64 {
    (2 * plan.sessions.len() + plan.dags()) as u64
}

/// `sessions_mixed`.
pub fn run(cfg: &Cfg) -> Run {
    let mut run = Run::default();
    let plan = Plan::new(cfg.seed);
    if cfg.trace {
        traced(cfg, &plan, &mut run);
    } else {
        let ph = iterate(cfg, &plan, cfg.budget(1.0), false, &mut run.tally);
        #[allow(clippy::cast_precision_loss)]
        {
            run.metric("dags_per_s", ph.dags as f64 / ph.script_secs, "DAGs/s");
            run.metric("tasks_per_s", ph.tasks as f64 / ph.script_secs, "tasks/s");
        }
        let s = LatencySummary::of(&ph.submit_ms);
        note_latency(&mut run, "submit_dag round trip", &ph.submit_ms);
        run.metric("session_submit_p50_ms", s.p50, "ms");
        run.metric("session_submit_p90_ms", s.p90, "ms");
        report_paced(&mut run, &ph.paced, PACED_RATE, "paced one-shot stream");
        run.metric("setup_s", median(&ph.setups), "s");
        run.note(format!(
            "{} iterations, event-log fingerprint {:016x}",
            ph.setups.len(),
            ph.fingerprint.unwrap_or(0)
        ));
    }
    run
}

/// The traced run: untraced and traced iterations (overhead row and
/// wire time per verb), then in-process replays of the script against
/// a fresh hub and a fresh tenant service.
fn traced(cfg: &Cfg, plan: &Plan, run: &mut Run) {
    let plain = iterate(cfg, plan, cfg.budget(0.3), false, &mut run.tally);
    let wire = iterate(cfg, plan, cfg.budget(0.3), true, &mut run.tally);
    let want = wire.fingerprint.unwrap_or(0);
    let tenant_cfg = ServerConfig::default().tenant;

    let mut tr = Tracer::new(Instant::now());
    let mut replays = 0u64;
    let t0 = Instant::now();
    while replays == 0 || t0.elapsed() < cfg.budget(0.3) {
        let mut hub = Hub {
            hub: SessionHub::new(tenant_cfg, ServiceLimits::default()),
            stats: ServerStats::new(),
            tr: &mut tr,
            n: replays << 32,
        };
        let o = script(&mut hub, plan)
            .and_then(|o| gates::fingerprint_matches("hub replay", o.fingerprint, want));
        run.tally.op(o);
        let mut ten = Tenant {
            svc: TenantService::new(tenant_cfg),
            p_total: tenant_cfg.p_total,
            tr: &mut tr,
            n: replays << 32,
        };
        let o = script(&mut ten, plan)
            .and_then(|o| gates::fingerprint_matches("tenant replay", o.fingerprint, want));
        run.tally.op(o);
        replays += 1;
    }
    let spans = tr.take();
    let t = totals_by_name(&spans, |_| true);
    let w = totals_by_name(&wire.spans, |_| true);
    #[allow(clippy::cast_precision_loss)]
    let mean = |m: &Totals, k: &str| {
        m.get(k)
            .map_or(0.0, |x| x.total as f64 / x.count.max(1) as f64 / 1e3)
    };
    #[allow(clippy::cast_precision_loss)]
    let sum = |m: &Totals, ks: &[&str]| {
        ks.iter()
            .map(|k| m.get(k).map_or(0.0, |x| x.total as f64 / 1e3))
            .sum::<f64>()
    };
    let hub_verbs = [
        "serve.sessions.open",
        "serve.sessions.submit_dag",
        "serve.sessions.poll",
        "serve.sessions.close",
    ];
    let tenant_verbs = [
        "tenant.service.open",
        "tenant.service.submit_dag",
        "tenant.service.poll",
        "tenant.service.close",
    ];
    let wire_verbs = [
        "wire.open_session",
        "wire.submit_dag",
        "wire.poll",
        "wire.close_session",
    ];
    let verbs_per_script = |m: &Totals, ks: &[&str]| {
        ks.iter()
            .map(|k| m.get(k).map_or(0, |x| x.count))
            .sum::<u64>()
    };
    #[allow(clippy::cast_precision_loss)]
    let hub_n = verbs_per_script(&t, &hub_verbs) as f64;
    #[allow(clippy::cast_precision_loss)]
    let wire_n = verbs_per_script(&w, &wire_verbs) as f64;
    // Per verb, averaged over the replays.
    let hub_us = sum(&t, &hub_verbs) / hub_n;
    let tenant_us = sum(&t, &tenant_verbs) / hub_n;
    let gen_us = sum(&t, &["graph.gen"]) / hub_n;
    let hub_self = hub_us - tenant_us - gen_us;
    let wire_us = sum(&w, &wire_verbs) / wire_n;
    let transport = wire_us - hub_us;

    for (name, key) in [
        ("serve.sessions.open_us", "serve.sessions.open"),
        ("serve.sessions.submit_dag_us", "serve.sessions.submit_dag"),
        ("serve.sessions.poll_us", "serve.sessions.poll"),
        ("serve.sessions.close_us", "serve.sessions.close"),
        ("tenant.service.submit_dag_us", "tenant.service.submit_dag"),
        ("tenant.service.poll_us", "tenant.service.poll"),
    ] {
        run.metric(name, mean(&t, key), "us");
    }
    run.metric("serve.sessions.self_us", hub_self, "us");
    run.metric("serve.server.session_transport_us", transport, "us");
    #[allow(clippy::cast_precision_loss)]
    {
        run.metric(
            "tenant.events_per_poll",
            wire.events as f64 / wire.polls as f64,
            "events",
        );
        run.metric(
            "tenant.polls_per_dag",
            wire.polls as f64 / wire.dags as f64,
            "polls",
        );
        let plain_rate = plain.tasks as f64 / plain.script_secs;
        let traced_rate = wire.tasks as f64 / wire.script_secs;
        run.metric(
            "trace.overhead_pct",
            100.0 * (plain_rate - traced_rate) / plain_rate,
            "%",
        );
    }
    let request_us = sum(&t, &["request"]) / hub_n;
    run.metric("trace.request_us", request_us, "us");
    run.metric("trace.residual_us", request_us - hub_us, "us");
    run.metric("trace.wire_request_us", wire_us, "us");
    run.ladder(
        "session verb, hub (per verb)",
        &[
            ("tenant.service", tenant_us),
            ("graph.gen", gen_us),
            ("serve.sessions.self_us", hub_self),
        ],
        hub_us,
    );
    run.ladder(
        "session verb, wire (per verb)",
        &[
            ("serve.sessions (hub)", hub_us),
            ("serve.server.session_transport_us", transport),
        ],
        wire_us,
    );
    run.ladder(
        "in-process hub request (per verb)",
        &[("serve.sessions (hub)", hub_us)],
        request_us,
    );
    run.note(format!(
        "replays: {replays} hub and {replays} tenant; wire iterations {}",
        wire.setups.len()
    ));
    run.spans = wire.spans;
    crate::trace::append(&mut run.spans, spans);
}
