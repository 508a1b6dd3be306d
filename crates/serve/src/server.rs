//! The `moldable-serve` daemon: a TCP server built on the standard
//! library alone. It runs on Linux only, because its transport is an
//! `epoll(7)` readiness loop.
//!
//! Threading model (see DESIGN.md §"Service layer"):
//!
//! * A single non-blocking **event-loop** thread multiplexes the
//!   listener and every client socket through
//!   [`crate::epoll::Poller`]. Client sockets are registered
//!   edge-triggered with per-connection read/write buffers and an
//!   incremental [`crate::proto::FrameDecoder`], so thousands of idle
//!   connections cost no threads. Inline verbs (`ping`/`stats`/session
//!   traffic) are answered on the loop; submits are handed to the
//!   worker pool with a pending-token and answered when the worker's
//!   completion comes back over a wake pipe. A connection stops being
//!   read once its undispatched frames or its unflushed replies pass a
//!   fixed budget, and resumes when they drain, so a peer that
//!   pipelines without reading cannot grow the daemon's memory.
//! * A fixed **worker pool** executes submit requests from *bounded
//!   per-worker shards*: a submit lands on its connection's home
//!   shard, spills to the next shard when full, and idle workers steal
//!   from their neighbours, while total capacity stays exactly
//!   `queue_cap`.
//!
//! Backpressure is explicit: when every shard is full the submit gets
//! `{"status": "overloaded"}` immediately — the server never buffers
//! without bound. A `shutdown` request (or SIGINT via
//! [`install_drain_signals`]) starts a graceful drain: accepting
//! stops, queued work is finished and answered, then every thread
//! exits. The `submit_batch` verb packs many requests into one frame;
//! a single worker executes the items in order and one reply frame
//! carries all the results.

#![cfg_attr(not(target_os = "linux"), allow(dead_code, unused_imports))]

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use moldable_model::ModelClass;
use moldable_tenant::TenantConfig;

use crate::json::{self, obj, Json};
use crate::proto::{self, Request, SubmitRequest};
use crate::service::{ServiceLimits, WorkerContext};
use crate::sessions::SessionHub;
use crate::stats::ServerStats;

/// How long idle loops sleep between polls; bounds the latency of
/// noticing a drain request.
const IDLE_TICK: Duration = Duration::from_millis(50);

/// How long a drain waits for connections with work still in flight
/// before force-closing them, so a stuck peer cannot hold the daemon
/// open forever.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// How long an idle worker parks on its own shard before re-scanning
/// its neighbours for work to steal.
const STEAL_TICK: Duration = Duration::from_millis(10);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Compute worker threads (one request shard each).
    pub workers: usize,
    /// Bounded request-queue capacity, summed across every shard;
    /// beyond it submits get `overloaded` replies.
    pub queue_cap: usize,
    /// Maximum accepted frame size in bytes.
    pub max_frame: u32,
    /// Per-request timeout: a submit unanswered after this long gets a
    /// structured `error` reply.
    pub request_timeout: Duration,
    /// Guard rails on request contents.
    pub limits: ServiceLimits,
    /// The streaming session layer: shared platform size, allocation
    /// μ, per-tenant quotas, idle reaping.
    pub tenant: TenantConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7464".to_string(),
            workers: thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            queue_cap: 256,
            max_frame: 1 << 20,
            request_timeout: Duration::from_secs(30),
            limits: ServiceLimits::default(),
            tenant: TenantConfig::new(64, ModelClass::Amdahl.optimal_mu()),
        }
    }
}

/// Deterministic in-process fault-injection points, for the chaos
/// harness (`crates/chaos`). All-zero (the default) injects nothing;
/// production servers never arm these. The knobs are plain atomics so
/// a chaos scenario can arm them on a *live* server without taking any
/// lock the request path uses.
#[derive(Debug, Default)]
pub struct FaultHooks {
    /// How many upcoming submit executions must panic inside the
    /// worker (exercising the `catch_unwind` containment path). Each
    /// injected panic consumes one unit.
    panic_budget: AtomicU64,
    /// Milliseconds subtracted from the configured per-request timeout
    /// — simulated clock skew. Skew past the timeout makes every
    /// submit time out at the transport layer while the worker still
    /// finishes the job, the worst-case accounting race.
    timeout_skew_ms: AtomicU64,
}

impl FaultHooks {
    /// Arm `n` additional worker-panic injections.
    pub fn arm_panics(&self, n: u64) {
        self.panic_budget.fetch_add(n, Ordering::SeqCst);
    }

    /// Panic injections still pending.
    #[must_use]
    pub fn pending_panics(&self) -> u64 {
        self.panic_budget.load(Ordering::SeqCst)
    }

    /// Set the clock skew subtracted from the request timeout.
    pub fn set_timeout_skew(&self, skew: Duration) {
        let ms = u64::try_from(skew.as_millis()).unwrap_or(u64::MAX);
        self.timeout_skew_ms.store(ms, Ordering::SeqCst);
    }

    /// Consume one panic injection if any is armed.
    fn take_panic(&self) -> bool {
        self.panic_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }

    /// The effective request timeout after skew.
    fn skewed(&self, timeout: Duration) -> Duration {
        timeout.saturating_sub(Duration::from_millis(
            self.timeout_skew_ms.load(Ordering::SeqCst),
        ))
    }
}

/// What a queued job executes.
enum JobKind {
    /// One parsed submit request.
    Submit(Box<SubmitRequest>),
    /// A `submit_batch`: the raw payloads of the inner requests,
    /// parsed and executed in order by a single worker.
    Batch(Vec<Vec<u8>>),
}

/// One queued job awaiting a worker.
struct Job {
    kind: JobKind,
    /// The event loop's pending-request token for the reply.
    token: u64,
    enqueued: Instant,
}

/// A finished job travelling back from a worker to the event loop.
struct Completion {
    token: u64,
    reply: Json,
}

/// One bounded per-worker job queue.
struct Shard {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    cap: usize,
}

impl Shard {
    fn new(cap: usize) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Push unless full; `Err` hands the job back for spill-over.
    fn try_push(&self, job: Job, stats: &ServerStats) -> Result<(), Job> {
        let mut q = self.queue.lock().expect("queue lock");
        if q.len() >= self.cap {
            return Err(job);
        }
        q.push_back(job);
        stats.queue_depth.fetch_add(1, Ordering::Relaxed);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Pop without blocking.
    fn try_pop(&self, stats: &ServerStats) -> Option<Job> {
        let mut q = self.queue.lock().expect("queue lock");
        let job = q.pop_front();
        if job.is_some() {
            stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
        job
    }

    /// Park briefly waiting for a local push (bounds steal latency).
    fn idle_wait(&self, timeout: Duration) {
        let q = self.queue.lock().expect("queue lock");
        if q.is_empty() {
            let _ = self.ready.wait_timeout(q, timeout).expect("queue lock");
        }
    }
}

/// Split `total` queue capacity across `n` shards so the per-shard
/// caps sum to exactly `total` (the first `total % n` shards take the
/// remainder).
fn shard_caps(total: usize, n: usize) -> Vec<usize> {
    let base = total / n;
    let extra = total % n;
    (0..n).map(|i| base + usize::from(i < extra)).collect()
}

/// State shared by every server thread.
struct Shared {
    shards: Vec<Shard>,
    next_conn_id: AtomicU64,
    draining: AtomicBool,
    stats: ServerStats,
    config: ServerConfig,
    hooks: FaultHooks,
    hub: SessionHub,
    completions: Mutex<Vec<Completion>>,
    /// Write end of the event loop's wake pipe (non-blocking).
    wake: UnixStream,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn start_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // Close every streaming session too: in-flight DAGs finish and
        // stay pollable, new session traffic is refused.
        self.hub.drain();
        for shard in &self.shards {
            shard.ready.notify_all();
        }
        self.wake_loop();
    }

    /// Try to enqueue on the home shard, spilling to the next shards
    /// when full; `Err` means every shard was full (backpressure).
    fn enqueue(&self, mut job: Job, home: usize) -> Result<(), ()> {
        let n = self.shards.len();
        for k in 0..n {
            match self.shards[(home + k) % n].try_push(job, &self.stats) {
                Ok(()) => {
                    if k > 0 {
                        ServerStats::bump(&self.stats.shard_spills);
                    }
                    return Ok(());
                }
                Err(back) => job = back,
            }
        }
        Err(())
    }

    fn take_completions(&self) -> Vec<Completion> {
        let mut done = self.completions.lock().expect("completions lock");
        std::mem::take(&mut *done)
    }

    fn push_completion(&self, done: Completion) {
        {
            let mut list = self.completions.lock().expect("completions lock");
            list.push(done);
        }
        self.wake_loop();
    }

    /// Nudge the event loop out of `epoll_wait` (completion or drain).
    fn wake_loop(&self) {
        // The pipe is non-blocking; a full pipe already guarantees a
        // pending wake, so the result is irrelevant.
        let _ = (&self.wake).write(&[1]);
    }
}

/// The shard a connection's submits land on first.
fn home_shard(shared: &Shared, conn_id: u64) -> usize {
    let n = shared.shards.len() as u64;
    usize::try_from(conn_id % n).unwrap_or(0)
}

/// A running daemon. Dropping without [`Server::join`] leaks threads;
/// call [`Server::trigger_drain`] + [`Server::join`] (or use
/// [`Server::run_until_drained`]).
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, set up the event loop and start accepting. Returns once
    /// the listener is live — [`Server::local_addr`] is immediately
    /// connectable.
    ///
    /// # Errors
    ///
    /// The bind failure, or a failure to create the epoll instance or
    /// the wake pipe or to register the listener and the pipe with it.
    #[cfg(target_os = "linux")]
    pub fn start(config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let el = event_loop::EventLoop::new(listener, wake_rx)?;

        let workers = config.workers.max(1);
        let hub = SessionHub::new(config.tenant, config.limits);
        let shards = shard_caps(config.queue_cap, workers)
            .into_iter()
            .map(Shard::new)
            .collect();
        let shared = Arc::new(Shared {
            shards,
            next_conn_id: AtomicU64::new(FIRST_CONN_ID),
            draining: AtomicBool::new(false),
            stats: ServerStats::new(),
            config,
            hooks: FaultHooks::default(),
            hub,
            completions: Mutex::new(Vec::new()),
            wake: wake_tx,
        });

        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker")
            })
            .collect();
        let loop_shared = Arc::clone(&shared);
        let event_loop = thread::Builder::new()
            .name("serve-epoll".to_string())
            .spawn(move || el.run(&loop_shared))
            .expect("spawn event loop");

        Ok(Self {
            local_addr,
            shared,
            event_loop: Some(event_loop),
            workers: worker_handles,
        })
    }

    /// The daemon's transport is an `epoll(7)` loop, so it starts on
    /// Linux only.
    ///
    /// # Errors
    ///
    /// Always [`io::ErrorKind::Unsupported`].
    #[cfg(not(target_os = "linux"))]
    pub fn start(_config: ServerConfig) -> io::Result<Self> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "moldable-serve needs Linux epoll(7)",
        ))
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live counters (shared with every thread).
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// The streaming session hub (shared with the event loop).
    #[must_use]
    pub fn session_hub(&self) -> &SessionHub {
        &self.shared.hub
    }

    /// The fault-injection knobs (all disarmed by default). Chaos
    /// scenarios arm them on a live server; normal operation never
    /// touches this.
    #[must_use]
    pub fn fault_hooks(&self) -> &FaultHooks {
        &self.shared.hooks
    }

    /// Worker threads still running. The pool is fixed-size, so this
    /// equals the configured worker count for the server's whole life
    /// (panics are contained, never thread deaths) until a drain
    /// completes — the chaos harness asserts exactly that.
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| !w.is_finished()).count()
    }

    /// Whether a drain has been requested (by [`Server::trigger_drain`]
    /// or a `shutdown` request).
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Begin a graceful drain: stop accepting, finish queued work.
    pub fn trigger_drain(&self) {
        self.shared.start_drain();
    }

    /// Wait for every thread to exit (drain must have been triggered,
    /// or this blocks until a `shutdown` request arrives).
    pub fn join(mut self) {
        if let Some(l) = self.event_loop.take() {
            let _ = l.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Convenience for the CLI: block until a drain is requested (via
    /// `shutdown` request or [`install_drain_signals`]'s SIGINT/SIGTERM
    /// flag), then drain and join.
    pub fn run_until_drained(self) {
        while !self.is_draining() && !drain_requested() {
            thread::sleep(IDLE_TICK);
        }
        self.trigger_drain();
        self.join();
    }
}

/// Connection ids double as epoll cookies; 0 and 1 are reserved for
/// the listener and the wake pipe.
const FIRST_CONN_ID: u64 = 2;

/// Answer every verb that runs without a worker: observability, drain
/// control, and the session layer. Returns `None` for `submit` and
/// `submit_batch`, which go through the queue.
fn inline_reply(shared: &Shared, req: &Request) -> Option<Vec<u8>> {
    Some(match req {
        Request::Submit(_) | Request::Batch(_) => return None,
        Request::Ping => obj(vec![
            ("status", Json::Str("ok".into())),
            ("pong", Json::Bool(true)),
        ])
        .encode()
        .into_bytes(),
        Request::Stats => obj(vec![
            ("status", Json::Str("ok".into())),
            ("draining", Json::Bool(shared.draining())),
            ("stats", shared.stats.to_json()),
            ("sessions", shared.hub.summary_json()),
        ])
        .encode()
        .into_bytes(),
        Request::Shutdown => {
            shared.start_drain();
            obj(vec![
                ("status", Json::Str("ok".into())),
                ("draining", Json::Bool(true)),
            ])
            .encode()
            .into_bytes()
        }
        // Session verbs run inline (on the event loop, or on the
        // worker for a batch item): they never simulate more than the
        // conservative clock allows per poll, and graph construction
        // happens before the hub lock is taken. Opening and submitting
        // are refused during a drain; polling and closing still work so
        // clients can collect what their in-flight DAGs produced.
        Request::OpenSession(r) => {
            if shared.draining() {
                ServerStats::bump(&shared.stats.errors);
                proto::error_reply("server is draining")
            } else {
                shared.hub.open(r, &shared.stats)
            }
        }
        Request::SubmitDag(r) => {
            if shared.draining() {
                ServerStats::bump(&shared.stats.errors);
                ServerStats::bump(&shared.stats.session_dags_submitted);
                ServerStats::bump(&shared.stats.session_dags_errors);
                proto::error_reply("server is draining")
            } else {
                shared.hub.submit_dag(r, &shared.stats)
            }
        }
        Request::Poll(r) => shared.hub.poll(r, &shared.stats),
        Request::CloseSession(r) => shared.hub.close(r, &shared.stats),
    })
}

/// The reply to an empty `submit_batch` (answered without a worker).
fn empty_batch_reply() -> Vec<u8> {
    obj(vec![
        ("status", Json::Str("ok".into())),
        ("results", Json::Arr(Vec::new())),
    ])
    .encode()
    .into_bytes()
}

/// Run one request handler with panic containment: a panicking handler
/// becomes a structured `error` reply instead of killing the calling
/// worker thread. Without this, each panic would permanently shrink
/// the pool until every submit times out — silent total loss of
/// service. Returns the reply and whether the handler panicked.
fn catch_panic_reply(f: impl FnOnce() -> Json + std::panic::UnwindSafe) -> (Json, bool) {
    match std::panic::catch_unwind(f) {
        Ok(reply) => (reply, false),
        Err(_) => (
            obj(vec![
                ("status", Json::Str("error".into())),
                (
                    "error",
                    Json::Str("internal error: request handler panicked".into()),
                ),
            ]),
            true,
        ),
    }
}

/// A structured error as a [`Json`] value (the in-memory counterpart
/// of [`proto::error_reply`], for batch result arrays).
fn error_json(msg: &str) -> Json {
    obj(vec![
        ("status", Json::Str("error".into())),
        ("error", Json::Str(msg.into())),
    ])
}

/// Per-worker execution state: the warm [`WorkerContext`] plus the
/// graph-cache counters already published into shared stats.
struct WorkerState {
    ctx: WorkerContext,
    seen_hits: u64,
    seen_misses: u64,
}

/// Execute one submit on this worker with panic containment, publish
/// graph-cache deltas, and bump `completed`/`errors` by reply status.
fn run_submit(shared: &Shared, state: &mut WorkerState, req: &SubmitRequest) -> Json {
    let inject_panic = shared.hooks.take_panic();
    let (reply, panicked) = {
        let ctx = &mut state.ctx;
        catch_panic_reply(std::panic::AssertUnwindSafe(|| {
            assert!(!inject_panic, "chaos: injected worker panic");
            ctx.handle(req)
        }))
    };
    // Graph-cache counters are per-context; publish deltas into the
    // shared stats so the totals survive a post-panic context reset.
    shared.stats.graph_cache_hits.fetch_add(
        state.ctx.graph_cache_hits() - state.seen_hits,
        Ordering::Relaxed,
    );
    shared.stats.graph_cache_misses.fetch_add(
        state.ctx.graph_cache_misses() - state.seen_misses,
        Ordering::Relaxed,
    );
    state.seen_hits = state.ctx.graph_cache_hits();
    state.seen_misses = state.ctx.graph_cache_misses();
    if panicked {
        // The context's caches may have been mid-update when the
        // handler unwound; start this worker over with fresh state.
        state.ctx = WorkerContext::with_limits(shared.config.limits);
        state.seen_hits = 0;
        state.seen_misses = 0;
    }
    let ok = reply.get("status").and_then(Json::as_str) == Some("ok");
    ServerStats::bump(if ok {
        &shared.stats.completed
    } else {
        &shared.stats.errors
    });
    reply
}

/// Execute one batch item. Submits get the full single-submit ledger
/// treatment (`submitted`/`accepted` on entry, `submit_ok` /
/// `submit_errors` by status); inline verbs answer exactly as they
/// would standalone; nested batches are refused.
fn run_batch_item(
    shared: &Shared,
    state: &mut WorkerState,
    item: &[u8],
    enqueued: Instant,
) -> Json {
    match Request::parse(item) {
        Err(msg) => {
            ServerStats::bump(&shared.stats.errors);
            error_json(&msg)
        }
        Ok(Request::Submit(req)) => {
            ServerStats::bump(&shared.stats.submitted);
            ServerStats::bump(&shared.stats.accepted);
            let reply = run_submit(shared, state, &req);
            let ok = reply.get("status").and_then(Json::as_str) == Some("ok");
            ServerStats::bump(if ok {
                &shared.stats.submit_ok
            } else {
                &shared.stats.submit_errors
            });
            shared.stats.latency.record(enqueued.elapsed());
            reply
        }
        Ok(Request::Batch(_)) => {
            ServerStats::bump(&shared.stats.errors);
            error_json("nested submit_batch is not allowed")
        }
        Ok(req) => {
            let bytes = inline_reply(shared, &req).expect("non-submit verbs answer inline");
            let text = String::from_utf8_lossy(&bytes);
            json::parse(&text).unwrap_or_else(|_| error_json("internal error: bad inline reply"))
        }
    }
}

/// Execute a whole admitted batch on this worker. An admitted batch
/// always runs to completion — drain waits for it like any other
/// queued work — so every item's ledger entries resolve.
fn run_batch(
    shared: &Shared,
    state: &mut WorkerState,
    items: &[Vec<u8>],
    enqueued: Instant,
) -> Json {
    ServerStats::bump(&shared.stats.batches);
    shared
        .stats
        .batch_items
        .fetch_add(items.len() as u64, Ordering::Relaxed);
    let mut results = Vec::with_capacity(items.len());
    for item in items {
        results.push(run_batch_item(shared, state, item, enqueued));
    }
    obj(vec![
        ("status", Json::Str("ok".into())),
        ("results", Json::Arr(results)),
    ])
}

/// Pop the next job for worker `me`: own shard first, then steal from
/// the neighbours, then park briefly. `None` once draining and every
/// shard is empty.
fn next_job(shared: &Shared, me: usize) -> Option<Job> {
    let n = shared.shards.len();
    loop {
        if let Some(job) = shared.shards[me].try_pop(&shared.stats) {
            return Some(job);
        }
        for k in 1..n {
            if let Some(job) = shared.shards[(me + k) % n].try_pop(&shared.stats) {
                ServerStats::bump(&shared.stats.shard_steals);
                return Some(job);
            }
        }
        if shared.draining() {
            return None;
        }
        shared.shards[me].idle_wait(STEAL_TICK);
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    let mut state = WorkerState {
        ctx: WorkerContext::with_limits(shared.config.limits),
        seen_hits: 0,
        seen_misses: 0,
    };
    while let Some(job) = next_job(shared, me) {
        let Job {
            kind,
            token,
            enqueued,
        } = job;
        let reply = match kind {
            JobKind::Submit(req) => {
                let outcome = run_submit(shared, &mut state, &req);
                shared.stats.latency.record(enqueued.elapsed());
                outcome
            }
            JobKind::Batch(items) => run_batch(shared, &mut state, &items, enqueued),
        };
        shared.push_completion(Completion { token, reply });
    }
}

/// The non-blocking epoll transport: one thread multiplexing the
/// listener, the worker wake pipe, and every client connection.
#[cfg(target_os = "linux")]
mod event_loop {
    use super::*;
    use crate::epoll::{
        EpollEvent, Poller, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
    };
    use crate::proto::{DecodeEvent, FrameDecoder};
    use std::collections::BTreeMap;
    use std::os::unix::io::AsRawFd;

    /// Epoll cookie of the listener.
    const LISTENER: u64 = 0;
    /// Epoll cookie of the wake pipe's read end.
    const WAKE: u64 = 1;

    /// Memory a connection's undispatched decode events may hold
    /// before the loop stops reading it. A closed-loop client has at
    /// most one frame in flight, far below this.
    const INBOX_BUDGET: usize = 4 << 20;
    /// Reply bytes a connection may hold unflushed before the loop
    /// stops dispatching its frames and reading it.
    const WBUF_BUDGET: usize = 4 << 20;

    /// Per-connection state: the socket, the incremental decoder, the
    /// decoded-but-undispatched events, and the pending write buffer.
    struct Conn {
        stream: TcpStream,
        decoder: FrameDecoder,
        inbox: VecDeque<DecodeEvent>,
        /// Memory held by `inbox`, as [`held_bytes`] counts it.
        inbox_bytes: usize,
        wbuf: Vec<u8>,
        wpos: usize,
        /// Reading stopped at the budget with the socket possibly still
        /// holding data. Edge-triggered readiness will not fire again
        /// for that data, so the loop reads again by itself once the
        /// connection drains below the budget.
        read_paused: bool,
        /// A submit/batch is in flight; further frames wait in the
        /// inbox so replies keep arrival order.
        busy: bool,
        /// Finish the inbox and flush, then close (EOF seen, or a
        /// corrupt frame was answered).
        closing: bool,
        /// Remove this connection at the next reap.
        dead: bool,
    }

    impl Conn {
        fn new(stream: TcpStream, max_frame: u32) -> Self {
            Self {
                stream,
                decoder: FrameDecoder::new(max_frame),
                inbox: VecDeque::new(),
                inbox_bytes: 0,
                wbuf: Vec::new(),
                wpos: 0,
                read_paused: false,
                busy: false,
                closing: false,
                dead: false,
            }
        }

        fn unflushed(&self) -> usize {
            self.wbuf.len() - self.wpos
        }

        /// Too much buffered to take more input from this peer.
        fn over_budget(&self) -> bool {
            self.inbox_bytes >= INBOX_BUDGET || self.unflushed() >= WBUF_BUDGET
        }

        /// Nothing buffered in either direction and no frame underway.
        fn idle(&self) -> bool {
            !self.busy
                && self.inbox.is_empty()
                && self.unflushed() == 0
                && !self.decoder.mid_frame()
        }
    }

    /// One submit/batch handed to the worker pool, awaiting its
    /// completion (or the request timeout).
    struct Pending {
        conn: u64,
        deadline: Instant,
        is_batch: bool,
    }

    pub(super) struct EventLoop {
        poller: Poller,
        listener: TcpListener,
        wake_rx: UnixStream,
        conns: BTreeMap<u64, Conn>,
        pending: BTreeMap<u64, Pending>,
        next_token: u64,
    }

    impl EventLoop {
        /// Create the epoll instance and register the listener and the
        /// wake pipe's read end with it.
        pub(super) fn new(listener: TcpListener, wake_rx: UnixStream) -> io::Result<Self> {
            let poller = Poller::new()?;
            poller.add(listener.as_raw_fd(), LISTENER, EPOLLIN)?;
            poller.add(wake_rx.as_raw_fd(), WAKE, EPOLLIN)?;
            Ok(Self {
                poller,
                listener,
                wake_rx,
                conns: BTreeMap::new(),
                pending: BTreeMap::new(),
                next_token: 0,
            })
        }

        /// Run the readiness loop until a drain completes.
        pub(super) fn run(mut self, shared: &Shared) {
            let mut accepting = true;
            // Requests already on the wire when a drain starts deserve
            // their refusal reply rather than a reset, so idle
            // connections stay open for one more IDLE_TICK; whatever
            // is still open at DRAIN_DEADLINE is force-closed.
            let mut idle_close_at: Option<Instant> = None;
            let mut drain_deadline: Option<Instant> = None;
            let mut events = [EpollEvent::zeroed(); 128];
            loop {
                let n = self.poller.wait(&mut events, IDLE_TICK).unwrap_or(0);
                for ev in &events[..n] {
                    match ev.cookie() {
                        LISTENER => self.accept_ready(shared),
                        WAKE => self.drain_wake(),
                        id => self.on_conn_event(shared, id, ev.mask()),
                    }
                }
                for done in shared.take_completions() {
                    self.settle(shared, done);
                }
                let now = Instant::now();
                self.expire(shared, now);
                if shared.draining() {
                    if accepting {
                        accepting = false;
                        self.poller.del(self.listener.as_raw_fd());
                        idle_close_at = Some(now + IDLE_TICK);
                        drain_deadline = Some(now + DRAIN_DEADLINE);
                    }
                    if idle_close_at.is_some_and(|t| now >= t) {
                        self.close_idle();
                    }
                    if drain_deadline.is_some_and(|d| now >= d) {
                        self.close_all();
                    }
                }
                self.reap();
                if shared.draining() && self.conns.is_empty() && self.pending.is_empty() {
                    return;
                }
            }
        }

        /// Drain the wake pipe (level-triggered, so stale bytes would
        /// spin the loop).
        fn drain_wake(&self) {
            let mut buf = [0u8; 256];
            let mut r = &self.wake_rx;
            while let Ok(n) = r.read(&mut buf) {
                if n == 0 {
                    return;
                }
            }
        }

        /// Accept until `WouldBlock`, registering each socket
        /// edge-triggered under a fresh connection id.
        fn accept_ready(&mut self, shared: &Shared) {
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        if shared.draining() {
                            continue; // dropped: refuse post-drain arrivals
                        }
                        ServerStats::bump(&shared.stats.connections);
                        stream.set_nonblocking(true).ok();
                        stream.set_nodelay(true).ok();
                        let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                        if self
                            .poller
                            .add(
                                stream.as_raw_fd(),
                                id,
                                EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
                            )
                            .is_err()
                        {
                            continue; // dropped: nothing registered
                        }
                        self.conns
                            .insert(id, Conn::new(stream, shared.config.max_frame));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return,
                }
            }
        }

        fn on_conn_event(&mut self, shared: &Shared, id: u64, mask: u32) {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                read_ready(conn);
            }
            if mask & EPOLLOUT != 0 {
                flush_io(conn);
            }
            self.serve(shared, id);
        }

        /// Dispatch the connection's inbox, and read it again whenever
        /// reading was paused at the budget and has drained below it.
        fn serve(&mut self, shared: &Shared, id: u64) {
            loop {
                self.pump(shared, id);
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if !conn.read_paused || conn.over_budget() || conn.dead {
                    return;
                }
                read_ready(conn);
            }
        }

        /// Dispatch inbox entries in arrival order until the
        /// connection goes busy (a submit in flight), closes, runs dry,
        /// or holds a full budget of unflushed replies.
        fn pump(&mut self, shared: &Shared, id: u64) {
            loop {
                let ev = {
                    let Some(conn) = self.conns.get_mut(&id) else {
                        return;
                    };
                    if conn.busy || conn.dead || conn.unflushed() >= WBUF_BUDGET {
                        return;
                    }
                    let Some(ev) = conn.inbox.pop_front() else {
                        return;
                    };
                    conn.inbox_bytes -= held_bytes(&ev);
                    ev
                };
                match ev {
                    DecodeEvent::Frame(payload) => self.dispatch_frame(shared, id, &payload),
                    DecodeEvent::TooLarge { announced, limit } => {
                        ServerStats::bump(&shared.stats.errors);
                        self.queue_reply(
                            id,
                            &proto::error_reply(&format!(
                                "frame of {announced} bytes exceeds limit {limit}"
                            )),
                        );
                    }
                    DecodeEvent::Corrupt(n) => {
                        ServerStats::bump(&shared.stats.errors);
                        self.queue_reply(
                            id,
                            &proto::error_reply(&format!("implausible frame length {n}; closing")),
                        );
                        if let Some(conn) = self.conns.get_mut(&id) {
                            conn.closing = true;
                        }
                        return;
                    }
                }
            }
        }

        fn dispatch_frame(&mut self, shared: &Shared, id: u64, payload: &[u8]) {
            // Fast path: recognize a batch without parsing the inner
            // payloads, so the worker parses items, not the loop, and a
            // garbage *item* draws a per-item error instead of failing
            // the whole envelope's parse.
            if let Some(items) = proto::split_batch_items(payload) {
                self.dispatch_batch(shared, id, items);
                return;
            }
            match Request::parse(payload) {
                Err(msg) => {
                    ServerStats::bump(&shared.stats.errors);
                    self.queue_reply(id, &proto::error_reply(&msg));
                }
                Ok(Request::Submit(req)) => self.dispatch_submit(shared, id, req),
                Ok(Request::Batch(items)) => self.dispatch_batch(shared, id, items),
                Ok(req) => {
                    let reply = inline_reply(shared, &req).expect("non-submit verbs answer inline");
                    self.queue_reply(id, &reply);
                }
            }
        }

        /// Hand a job to the worker shards and mark the connection busy
        /// until its completion or timeout; `false` when every shard
        /// was full.
        fn enqueue(&mut self, shared: &Shared, id: u64, kind: JobKind) -> bool {
            let token = self.next_token;
            self.next_token += 1;
            let job = Job {
                kind,
                token,
                enqueued: Instant::now(),
            };
            let is_batch = matches!(job.kind, JobKind::Batch(_));
            if shared.enqueue(job, home_shard(shared, id)).is_err() {
                return false;
            }
            let deadline = Instant::now() + shared.hooks.skewed(shared.config.request_timeout);
            self.pending.insert(
                token,
                Pending {
                    conn: id,
                    deadline,
                    is_batch,
                },
            );
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.busy = true;
            }
            true
        }

        /// Enqueue a submit; its reply comes back through `settle` or
        /// `time_out`.
        ///
        /// Accounting contract: `stats.submitted` is bumped on entry,
        /// and exactly one of `submit_ok` / `submit_errors` /
        /// `rejected_overload` by the time the reply is written — so at
        /// quiescence the ledger in [`crate::stats::Accounting`]
        /// balances.
        fn dispatch_submit(&mut self, shared: &Shared, id: u64, req: Box<SubmitRequest>) {
            ServerStats::bump(&shared.stats.submitted);
            if shared.draining() {
                ServerStats::bump(&shared.stats.errors);
                ServerStats::bump(&shared.stats.submit_errors);
                self.queue_reply(id, &proto::error_reply("server is draining"));
                return;
            }
            if self.enqueue(shared, id, JobKind::Submit(req)) {
                ServerStats::bump(&shared.stats.accepted);
            } else {
                ServerStats::bump(&shared.stats.rejected_overload);
                self.queue_reply(id, &proto::overloaded_reply());
            }
        }

        /// Enqueue a whole batch as one job.
        ///
        /// The per-item accounting (submitted / submit_ok /
        /// submit_errors) happens inside [`run_batch`] on the worker,
        /// so the envelope path touches no ledger counters: a batch
        /// rejected for overload was never `submitted`, keeping the
        /// ledger balanced.
        fn dispatch_batch(&mut self, shared: &Shared, id: u64, items: Vec<Vec<u8>>) {
            if items.is_empty() {
                self.queue_reply(id, &empty_batch_reply());
                return;
            }
            if shared.draining() {
                ServerStats::bump(&shared.stats.errors);
                self.queue_reply(id, &proto::error_reply("server is draining"));
                return;
            }
            if !self.enqueue(shared, id, JobKind::Batch(items)) {
                self.queue_reply(id, &proto::overloaded_reply());
            }
        }

        /// A worker completion arrived. A token no longer pending
        /// already timed out, and its late reply is dropped. A token
        /// whose deadline passed before this loop turn got to it is
        /// answered as the timeout `expire` would give it: settling
        /// runs first, and a fast worker must not beat a deadline that
        /// already fired.
        fn settle(&mut self, shared: &Shared, done: Completion) {
            let Some(p) = self.pending.remove(&done.token) else {
                return;
            };
            if Instant::now() >= p.deadline {
                self.time_out(shared, &p);
                return;
            }
            if !p.is_batch {
                let ok = done.reply.get("status").and_then(Json::as_str) == Some("ok");
                ServerStats::bump(if ok {
                    &shared.stats.submit_ok
                } else {
                    &shared.stats.submit_errors
                });
            }
            self.finish(shared, p.conn, &done.reply.encode().into_bytes());
        }

        /// Time out every pending request whose deadline passed. The
        /// worker still finishes the job; `settle` drops its completion
        /// as late.
        fn expire(&mut self, shared: &Shared, now: Instant) {
            let expired: Vec<u64> = self
                .pending
                .iter()
                .filter(|(_, p)| now >= p.deadline)
                .map(|(&t, _)| t)
                .collect();
            for token in expired {
                if let Some(p) = self.pending.remove(&token) {
                    self.time_out(shared, &p);
                }
            }
        }

        /// Answer a pending request with the timeout reply.
        fn time_out(&mut self, shared: &Shared, p: &Pending) {
            ServerStats::bump(&shared.stats.timeouts);
            if !p.is_batch {
                ServerStats::bump(&shared.stats.submit_errors);
            }
            self.finish(shared, p.conn, &proto::error_reply("request timed out"));
        }

        /// Deliver a submit/batch outcome: write the reply, clear the
        /// busy flag, and resume serving the connection.
        fn finish(&mut self, shared: &Shared, id: u64, payload: &[u8]) {
            self.queue_reply(id, payload);
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.busy = false;
            }
            self.serve(shared, id);
        }

        /// Frame `payload` into the connection's write buffer and push
        /// as much as the socket takes.
        fn queue_reply(&mut self, id: u64, payload: &[u8]) {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.dead {
                return;
            }
            // Writing into a Vec cannot fail.
            let _ = proto::write_frame(&mut conn.wbuf, payload);
            flush_io(conn);
        }

        /// On drain, close connections with nothing in flight: a
        /// connection that is neither reading a frame nor waiting for
        /// a reply has nothing left to be answered.
        fn close_idle(&mut self) {
            for conn in self.conns.values_mut() {
                if conn.idle() {
                    conn.dead = true;
                }
            }
        }

        /// Force-close everything (drain grace period expired).
        fn close_all(&mut self) {
            for conn in self.conns.values_mut() {
                conn.dead = true;
            }
        }

        /// Promote finished closes, then deregister and drop dead
        /// connections (dropping the socket closes the fd).
        fn reap(&mut self) {
            for conn in self.conns.values_mut() {
                if conn.closing && !conn.busy && conn.inbox.is_empty() && conn.unflushed() == 0 {
                    conn.dead = true;
                }
            }
            let dead: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| c.dead)
                .map(|(&id, _)| id)
                .collect();
            for id in dead {
                if let Some(conn) = self.conns.remove(&id) {
                    self.poller.del(conn.stream.as_raw_fd());
                }
            }
        }
    }

    /// Memory one inbox entry holds: the event itself plus its payload
    /// allocation, so a flood of tiny frames is charged for more than
    /// its few payload bytes.
    fn held_bytes(ev: &DecodeEvent) -> usize {
        let payload = match ev {
            DecodeEvent::Frame(p) => p.capacity(),
            DecodeEvent::TooLarge { .. } | DecodeEvent::Corrupt(_) => 0,
        };
        std::mem::size_of::<DecodeEvent>() + payload
    }

    /// Read until `WouldBlock` (mandatory under edge-triggering) or
    /// until the connection is over budget, decoding into the inbox.
    fn read_ready(conn: &mut Conn) {
        let mut buf = [0u8; 64 * 1024];
        let mut decoded = Vec::new();
        loop {
            if conn.over_budget() {
                conn.read_paused = true;
                return;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    conn.decoder.feed(&buf[..n], &mut decoded);
                    for ev in decoded.drain(..) {
                        conn.inbox_bytes += held_bytes(&ev);
                        conn.inbox.push_back(ev);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        conn.read_paused = false;
    }

    /// Write the buffered replies until `WouldBlock`; a drained buffer
    /// on a closing connection finishes the close.
    fn flush_io(conn: &mut Conn) {
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        conn.wbuf.clear();
        conn.wpos = 0;
        if conn.closing {
            conn.dead = true;
        }
    }
}

#[cfg(unix)]
mod drain_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(super) static TRIGGERED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        // async-signal-safe: a single atomic store.
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        // `signal(2)` from libc, which every Rust binary on unix links
        // already — no new dependency. SIG_ERR is ignored: failing to
        // install a handler only loses Ctrl-C niceness.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let h = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: installing an async-signal-safe handler (it performs
        // one atomic store) for signals we own as a daemon binary.
        unsafe {
            signal(SIGINT, h);
            signal(SIGTERM, h);
        }
    }
}

/// Install SIGINT/SIGTERM handlers that flag a graceful drain (no-op
/// off unix). Pair with [`Server::run_until_drained`].
pub fn install_drain_signals() {
    #[cfg(unix)]
    drain_signal::install();
}

/// Whether a drain signal has fired since [`install_drain_signals`].
#[must_use]
pub fn drain_requested() -> bool {
    #[cfg(unix)]
    {
        drain_signal::TRIGGERED.load(Ordering::SeqCst)
    }
    #[cfg(not(unix))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_handler_becomes_structured_error() {
        // Silence the default hook's backtrace spam for this test.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (reply, panicked) = catch_panic_reply(|| panic!("boom"));
        std::panic::set_hook(prev);
        assert!(panicked);
        assert_eq!(reply.get("status").unwrap().as_str(), Some("error"));
        assert!(reply
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("panicked"));
    }

    #[test]
    fn normal_handler_passes_through() {
        let (reply, panicked) = catch_panic_reply(|| obj(vec![("status", Json::Str("ok".into()))]));
        assert!(!panicked);
        assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
    }

    #[test]
    fn shard_caps_sum_to_total() {
        for (total, n) in [(256usize, 8usize), (1, 4), (2, 4), (7, 3), (0, 2)] {
            let caps = shard_caps(total, n);
            assert_eq!(caps.len(), n);
            assert_eq!(caps.iter().sum::<usize>(), total, "total {total} n {n}");
            // Remainder spreads one-deep: caps differ by at most 1.
            let (min, max) = (caps.iter().min().unwrap(), caps.iter().max().unwrap());
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn error_json_matches_wire_error_reply() {
        let from_json = error_json("nope").encode().into_bytes();
        assert_eq!(from_json, proto::error_reply("nope"));
    }
}
