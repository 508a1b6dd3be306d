//! Wire goldens: every observable behaviour of the daemon — structured
//! replies, backpressure, drain refusals, frame-error handling,
//! connection lifecycle, session verbs — is pinned as raw reply bytes
//! in `goldens/wire.txt`. Each test replays one wire script against a
//! fresh server and compares the transcript with its golden section
//! (the strongest possible comparison: bit-equal makespans fall out of
//! byte-equal replies).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use moldable_serve::json::Json;
use moldable_serve::proto::{self, GraphSpec, Request, SubmitRequest};
use moldable_serve::server::{Server, ServerConfig};
use moldable_serve::{Accounting, WorkerContext};

/// One `<section> <reply>` line per observation, in script order.
const GOLDEN: &str = include_str!("goldens/wire.txt");

fn start(tweak: impl Fn(&mut ServerConfig)) -> Server {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    Server::start(config).expect("bind ephemeral port")
}

fn submit(seed: u64) -> Request {
    Request::Submit(Box::new(SubmitRequest {
        graph: GraphSpec::Named {
            shape: "cholesky".into(),
            size: 5,
        },
        p: Some(32),
        model: "amdahl".into(),
        seed,
        scheduler: "online".into(),
        algo: "icpp22".into(),
        mu: None,
        policy: None,
        include_allocations: false,
    }))
}

/// Send `payload` as one frame and return the raw reply bytes (or a
/// marker when the server closed / stayed silent instead).
fn roundtrip(stream: &mut TcpStream, payload: &[u8]) -> String {
    proto::write_frame(stream, payload).expect("write frame");
    read_reply(stream)
}

fn read_reply(stream: &mut TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    match proto::read_frame(stream, proto::ABSOLUTE_MAX_FRAME) {
        Ok(Some(bytes)) => String::from_utf8(bytes).expect("utf8 reply"),
        Ok(None) => "<closed>".to_string(),
        Err(_) => "<error>".to_string(),
    }
}

/// Compare `transcript` with the `section` lines of the golden file.
///
/// # Panics
///
/// On any difference, printing the section as it should read, so an
/// intended change of the wire contract is re-pinned by pasting that
/// block.
fn check(section: &str, transcript: &[String]) {
    let prefix = format!("{section} ");
    let pinned: Vec<&str> = GOLDEN
        .lines()
        .filter_map(|line| line.strip_prefix(&prefix))
        .collect();
    if pinned != transcript {
        eprintln!("---- golden section `{section}` should read:");
        for reply in transcript {
            eprintln!("{section} {reply}");
        }
        eprintln!("----");
        panic!("wire transcript `{section}` differs from goldens/wire.txt");
    }
}

/// Run `script` against a fresh server and check its transcript
/// against the `section` goldens.
fn replay(
    section: &str,
    tweak: impl Fn(&mut ServerConfig),
    script: impl Fn(&Server, &str) -> Vec<String>,
) {
    let server = start(tweak);
    let addr = server.local_addr().to_string();
    let transcript = script(&server, &addr);
    assert!(!transcript.is_empty(), "script produced no observations");
    if !server.is_draining() {
        server.trigger_drain();
    }
    server.join();
    check(section, &transcript);
}

#[test]
fn smoke_replies_match_goldens() {
    replay(
        "smoke",
        |_| {},
        |_, addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let mut out = Vec::new();
            // Control verbs and clean submits (repeated seed checks
            // determinism through the same worker shard).
            out.push(roundtrip(&mut stream, &Request::Ping.encode()));
            for seed in [7, 8, 7] {
                out.push(roundtrip(&mut stream, &submit(seed).encode()));
            }
            // Malformed JSON draws an error and the connection lives.
            out.push(roundtrip(&mut stream, b"this is not json"));
            out.push(roundtrip(&mut stream, b"{\"type\":\"nonsense\"}"));
            out.push(roundtrip(&mut stream, &Request::Ping.encode()));
            out
        },
    );
}

#[test]
fn batch_replies_match_goldens_including_mixed_errors() {
    replay(
        "batch",
        |_| {},
        |_, addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let mut out = Vec::new();
            // Empty batch.
            out.push(roundtrip(&mut stream, &Request::Batch(Vec::new()).encode()));
            // Mixed batch: ok, truncated item, ok. The truncated item
            // is not a JSON value, so the envelope itself no longer
            // parses and the whole frame draws one parse error.
            let mixed = Request::Batch(vec![
                submit(3).encode(),
                b"{\"type\":\"broken\"".to_vec(),
                submit(4).encode(),
            ]);
            out.push(roundtrip(&mut stream, &mixed.encode()));
            // A nested batch is refused per item, not executed.
            let nested = Request::Batch(vec![Request::Batch(vec![submit(3).encode()]).encode()]);
            out.push(roundtrip(&mut stream, &nested.encode()));
            // Inline verbs ride inside batches too.
            let verbs = Request::Batch(vec![Request::Ping.encode(), submit(5).encode()]);
            out.push(roundtrip(&mut stream, &verbs.encode()));
            out
        },
    );
}

#[test]
fn overload_backpressure_matches_goldens() {
    replay(
        "overload",
        |c| c.queue_cap = 0,
        |_, addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut out = Vec::new();
            for _ in 0..3 {
                out.push(roundtrip(&mut stream, &submit(1).encode()));
            }
            // A whole batch bounces off the full queue as one
            // `overloaded` envelope.
            let batch = Request::Batch(vec![submit(1).encode(), submit(2).encode()]);
            out.push(roundtrip(&mut stream, &batch.encode()));
            // Backpressure never kills the connection.
            out.push(roundtrip(&mut stream, &Request::Ping.encode()));
            out
        },
    );
}

#[test]
fn drain_refusals_match_goldens() {
    replay(
        "drain",
        |_| {},
        |server, addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let mut out = Vec::new();
            out.push(roundtrip(&mut stream, &submit(2).encode()));
            server.trigger_drain();
            // Refusals arrive inside the drain grace window, before
            // idle connections are closed.
            out.push(roundtrip(&mut stream, &submit(2).encode()));
            out.push(roundtrip(
                &mut stream,
                &Request::Batch(vec![submit(2).encode()]).encode(),
            ));
            out
        },
    );
}

#[test]
fn frame_errors_and_close_policy_match_goldens() {
    // Oversized (within the absolute ceiling): error reply, connection
    // survives. Implausible length: final error reply, then close.
    replay(
        "frame_errors",
        |c| c.max_frame = 128,
        |_, addr| {
            let mut out = Vec::new();
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            out.push(roundtrip(&mut stream, &vec![b' '; 4096]));
            out.push(roundtrip(&mut stream, &Request::Ping.encode()));
            drop(stream);

            // Zero-length frame on a fresh connection.
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(&0u32.to_be_bytes()).expect("announce");
            stream.flush().ok();
            out.push(read_reply(&mut stream));
            drop(stream);

            // Corrupt (absurd) length prefix: error then close.
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(&(proto::ABSOLUTE_MAX_FRAME + 1).to_be_bytes())
                .expect("announce");
            stream.flush().ok();
            out.push(read_reply(&mut stream));
            let mut rest = Vec::new();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let n = stream.read_to_end(&mut rest).unwrap_or(usize::MAX);
            out.push(format!("post-error bytes: {n}"));
            out
        },
    );
}

#[test]
fn session_verbs_match_goldens() {
    replay(
        "sessions",
        |_| {},
        |_, addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let mut out = Vec::new();
            let open = r#"{"type":"open_session","tenant":"t0","session":"s0"}"#;
            out.push(roundtrip(&mut stream, open.as_bytes()));
            for (at, seed) in [(0.0, 11u64), (1.0, 12)] {
                let dag = format!(
                    concat!(
                        "{{\"type\":\"submit_dag\",\"session\":\"s0\",\"at\":{at},",
                        "\"graph\":{{\"shape\":\"chain\",\"size\":3}},",
                        "\"model\":\"amdahl\",\"seed\":{seed},\"algo\":\"icpp22\"}}"
                    ),
                    at = at,
                    seed = seed
                );
                out.push(roundtrip(&mut stream, dag.as_bytes()));
            }
            let close = r#"{"type":"close_session","session":"s0"}"#;
            out.push(roundtrip(&mut stream, close.as_bytes()));
            // Drain the deterministic event log to `closed`.
            for _ in 0..100 {
                let poll = r#"{"type":"poll","session":"s0","max_events":64}"#;
                let reply = roundtrip(&mut stream, poll.as_bytes());
                let done = reply.contains("\"closed\":true");
                out.push(reply);
                if done {
                    break;
                }
            }
            out
        },
    );
}

#[test]
fn one_byte_at_a_time_torture_matches_goldens() {
    replay(
        "one_byte",
        |_| {},
        |_, addr| {
            let mut out = Vec::new();
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let frames: Vec<Vec<u8>> = vec![
                Request::Ping.encode(),
                submit(6).encode(),
                Request::Batch(vec![submit(6).encode(), Request::Ping.encode()]).encode(),
            ];
            for payload in frames {
                let mut frame = Vec::with_capacity(4 + payload.len());
                frame.extend_from_slice(
                    &u32::try_from(payload.len())
                        .expect("fits u32")
                        .to_be_bytes(),
                );
                frame.extend_from_slice(&payload);
                // The decoder must survive maximal fragmentation: one
                // byte per write, flushed every time.
                for b in frame {
                    stream.write_all(&[b]).expect("write byte");
                    stream.flush().ok();
                }
                out.push(read_reply(&mut stream));
            }
            out
        },
    );
}

#[test]
fn makespans_are_bit_equal_to_a_bare_worker_context() {
    // The wire (plain or batched) must not perturb a single scheduling
    // decision relative to an in-process worker.
    let mut ctx = WorkerContext::new();
    let expected: Vec<f64> = (0..4)
        .map(|seed| {
            let r = ctx.handle(&match submit(seed) {
                Request::Submit(req) => *req,
                _ => unreachable!(),
            });
            r.get("makespan").and_then(Json::as_f64).expect("makespan")
        })
        .collect();

    let server = start(|_| {});
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    for (seed, want) in expected.iter().enumerate() {
        let reply = roundtrip(&mut stream, &submit(seed as u64).encode());
        let v = moldable_serve::json::parse(&reply).expect("reply json");
        let got = v.get("makespan").and_then(Json::as_f64).expect("makespan");
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "seed {seed} diverged from WorkerContext"
        );
    }
    // Batched path too.
    let batch = Request::Batch((0..4).map(|s| submit(s).encode()).collect());
    let reply = roundtrip(&mut stream, &batch.encode());
    let v = moldable_serve::json::parse(&reply).expect("reply json");
    let results = v.get("results").and_then(Json::as_arr).expect("results");
    for (seed, (r, want)) in results.iter().zip(&expected).enumerate() {
        let got = r.get("makespan").and_then(Json::as_f64).expect("makespan");
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "batched seed {seed} diverged"
        );
    }
    server.trigger_drain();
    drop(stream);
    server.join();
}

#[test]
fn accounting_ledgers_match_goldens_at_quiescence() {
    // Ample queue: whether a frame lands `overloaded` with a tiny queue
    // depends on worker timing, and overload already has its own
    // deterministic (cap 0) script above.
    replay(
        "ledger",
        |_| {},
        |_, addr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            // A deterministic mixed diet: ok submits, a parse error, a
            // mixed batch, an empty batch.
            roundtrip(&mut stream, &submit(1).encode());
            roundtrip(&mut stream, b"not json");
            roundtrip(
                &mut stream,
                &Request::Batch(vec![submit(2).encode(), b"broken".to_vec()]).encode(),
            );
            roundtrip(&mut stream, &Request::Batch(Vec::new()).encode());
            let stats = roundtrip(&mut stream, &Request::Stats.encode());
            let v = moldable_serve::json::parse(&stats).expect("stats json");
            let ledger = Accounting::from_stats_json(&v).expect("ledger");
            assert!(ledger.balanced(), "{ledger:?}");
            let body = v.get("stats").expect("stats body");
            let counter = |k: &str| body.get(k).and_then(Json::as_u64).expect(k);
            vec![format!(
                "submitted={} ok={} errors={} drops={} batches={} batch_items={} errors_total={}",
                ledger.submitted,
                ledger.ok,
                ledger.errors,
                ledger.drops,
                counter("batches"),
                counter("batch_items"),
                counter("errors"),
            )]
        },
    );
}
