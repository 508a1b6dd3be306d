//! The daemon under test, started in-process with its default
//! configuration (only the port is ephemeral), and a few request
//! helpers shared by the serving workloads.

use std::time::Instant;

use moldable_serve::json::Json;
use moldable_serve::proto::{GraphSpec, Request, SubmitRequest};
use moldable_serve::server::{Server, ServerConfig};
use moldable_serve::{Client, WorkerContext};

/// Load threads and connections: never more than the machine has CPUs.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Start a daemon with `ServerConfig::default()` on an ephemeral port.
///
/// # Panics
///
/// If the loopback bind fails.
#[must_use]
pub fn start() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("daemon binds a loopback port")
}

/// Connect `n` clients.
///
/// # Panics
///
/// If a loopback connect fails.
#[must_use]
pub fn connect(server: &Server, n: usize) -> Vec<Client> {
    let addr = server.local_addr().to_string();
    (0..n)
        .map(|_| Client::connect(&addr).expect("loopback connect"))
        .collect()
}

/// Drain and join a daemon (its clients must be dropped first).
pub fn stop(server: Server) {
    server.trigger_drain();
    server.join();
}

/// One call, with transport failures as messages.
///
/// # Errors
///
/// The transport error.
pub fn call(client: &mut Client, req: &Request) -> Result<Json, String> {
    client.call(req).map_err(|e| format!("transport: {e}"))
}

/// The recurring one-shot request: the loadgen default mix (cholesky 6,
/// amdahl, P = 64) with one of 16 generator seeds.
pub const HOT_SEEDS: u64 = 16;

/// Generator seeds on the wire are JSON numbers: keep them below 2^53.
#[must_use]
pub fn wire_seed(x: u64) -> u64 {
    x >> 24
}

/// The `k`-th recurring request of a stream rooted at `base`.
#[must_use]
pub fn hot_request(base: u64, k: u64) -> SubmitRequest {
    SubmitRequest {
        graph: GraphSpec::Named {
            shape: "cholesky".into(),
            size: 6,
        },
        p: Some(64),
        model: "amdahl".into(),
        seed: base + k % HOT_SEEDS,
        scheduler: "online".into(),
        algo: "icpp22".into(),
        mu: None,
        policy: None,
        include_allocations: false,
    }
}

/// The in-process answer to every recurring request (ground truth for
/// the makespan checks).
#[must_use]
pub fn hot_truth(base: u64) -> Vec<f64> {
    let mut ctx = WorkerContext::new();
    (0..HOT_SEEDS)
        .map(|k| {
            ctx.handle(&hot_request(base, k))
                .get("makespan")
                .and_then(Json::as_f64)
                .expect("the recurring request schedules")
        })
        .collect()
}

/// Start a daemon, connect `conns` clients, and send every recurring
/// request twice on each so that both worker caches are warm. Returns
/// the daemon, its clients and the seconds spent.
///
/// # Panics
///
/// If a warm-up request fails: the workload cannot run.
#[must_use]
pub fn start_warm(base: u64, conns: usize) -> (Server, Vec<Client>, f64) {
    let t0 = Instant::now();
    let server = start();
    let mut clients = connect(&server, conns);
    for c in &mut clients {
        for k in 0..2 * HOT_SEEDS {
            let r = call(c, &Request::Submit(Box::new(hot_request(base, k)))).expect("warm-up");
            crate::gates::reply_ok(&r).expect("warm-up reply");
        }
    }
    (server, clients, t0.elapsed().as_secs_f64())
}

/// The daemon's `stats` reply.
///
/// # Errors
///
/// Transport failures.
pub fn stats(server: &Server) -> Result<Json, String> {
    let mut c = connect(server, 1).pop().expect("one client");
    call(&mut c, &Request::Stats)
}
