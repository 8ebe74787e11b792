//! End-to-end hardening tests: the connection cap, mid-stream client
//! aborts, per-dataset admission control, and sharded cache accounting,
//! all driven over real sockets. Pins the PR's acceptance invariants:
//!
//! * at the cap, the overflow connect is answered with a typed `busy`
//!   frame (never a silent hang or a dropped socket), and a slot freed
//!   by a disconnect becomes connectable again;
//! * a client that hangs up mid-stream is classified as a client abort
//!   (`server.client_aborts`, a `client_abort` span event) — never a
//!   query error — and the in-flight gauge drains back to zero;
//! * a query bounced by the admission limit gets a `busy` error on a
//!   connection that stays usable;
//! * the shard-merged cache stats account exactly for a replayed
//!   workload (the shard-vs-single-lock equivalence itself is unit-
//!   tested next to the cache).
//! * a request line nested far past the JSON parser's depth cap gets a
//!   typed `bad_request` frame, and the server keeps answering.

use kr_server::{
    CacheOutcome, Client, ClientError, ErrorCode, Frame, QuerySpec, Request, Server, ServerConfig,
    ServerHandle,
};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Big enough (wide `r`) that enumeration streams several frames with
/// real compute between them; small enough to stay fast in CI.
fn heavy_spec() -> QuerySpec {
    QuerySpec {
        scale: 0.5,
        ..QuerySpec::new("gowalla-like", 3, 12.0)
    }
}

fn log_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "kr_hardening_e2e_{}_{}_{}.jsonl",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Polls until the server's query books balance — every accepted query
/// answered, rejected, or aborted — so races against in-flight work are
/// waited out instead of asserted away.
fn settle(handle: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = &handle.state().metrics;
        let resolved = m.query_latency_us.snapshot().count
            + m.client_aborts.get()
            + m.admission_rejections.get()
            + m.query_errors.get();
        if m.queries.get() == resolved {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "query accounting never settled: {} accepted vs {resolved} resolved",
            m.queries.get()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Waits for dropped sessions to drain so a follow-up connect (or the
/// shutdown handshake) is not bounced off the connection cap.
fn wait_sessions_drained(handle: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.state().active_sessions() > 0 {
        assert!(Instant::now() < deadline, "sessions never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// How a raw-socket enumerate stood at its first response frame.
enum Started {
    /// First frame was a `core`: the query is mid-stream right now.
    Streaming(std::net::TcpStream, BufReader<std::net::TcpStream>),
    /// First frame was `done`: the query finished before we could act.
    Finished,
    /// First frame was a `busy` error: the admission slot of a previous
    /// attempt had not been released yet.
    Rejected,
}

/// Raw-socket enumerate that blocks until the first response frame, so
/// the caller knows the query is mid-stream before acting on it.
fn start_streaming(addr: std::net::SocketAddr, spec: QuerySpec) -> Started {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello");
    let req = Request::Enumerate {
        id: "q-hold".to_string(),
        spec,
    };
    stream
        .write_all(format!("{}\n", req.to_line()).as_bytes())
        .expect("send");
    line.clear();
    reader.read_line(&mut line).expect("first frame");
    match Frame::parse(line.trim()).expect("parse") {
        Frame::Core { .. } => Started::Streaming(stream, reader),
        Frame::Done { .. } => Started::Finished,
        Frame::Error {
            code: ErrorCode::Busy,
            ..
        } => Started::Rejected,
        other => panic!("unexpected first frame: {other:?}"),
    }
}

#[test]
fn connection_cap_rejects_overflow_with_busy_and_recycles_freed_slots() {
    let handle = Server::bind(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = handle.addr();

    // The one admitted session works normally.
    let mut held = Client::connect(addr).expect("connect under cap");
    held.ping().expect("ping");

    // N+1: every further connect is answered with a typed `busy` frame
    // that echoes the cap, then closed.
    for i in 0..3 {
        match Client::connect(addr) {
            Err(ClientError::Busy {
                max_connections,
                message,
            }) => {
                assert_eq!(max_connections, 1, "busy frame must echo the cap");
                assert!(message.contains("connection cap"), "got: {message}");
            }
            Ok(_) => panic!("overflow connect {i} was admitted past the cap"),
            Err(e) => panic!("overflow connect {i} got {e}, not a busy frame"),
        }
    }
    assert_eq!(handle.state().metrics.busy_rejections.get(), 3);
    // The held session was never disturbed by the rejections.
    held.ping().expect("ping after rejections");

    // Dropping the held session frees its slot: within the server's
    // read-poll interval a fresh client gets in.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut recycled = loop {
        match Client::connect(addr) {
            Ok(c) => break c,
            Err(ClientError::Busy { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("freed slot never became connectable: {e}"),
        }
    };
    recycled.ping().expect("ping on recycled slot");
    drop(recycled);

    wait_sessions_drained(&handle);
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn mid_stream_hangup_is_a_client_abort_not_a_query_error() {
    let log = log_path("abort");
    let handle = Server::bind(ServerConfig {
        trace_log: Some(log.display().to_string()),
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = handle.addr();

    // Warm the component cache so the abort attempts go straight to the
    // streaming sweep instead of repaying preprocessing.
    let mut warm = Client::connect(addr).expect("connect");
    warm.enumerate(heavy_spec()).expect("warm query");

    // The hangup races the sweep: `done` can win on a fast machine, in
    // which case the query was simply answered and we try again.
    let mut aborted = false;
    for _ in 0..10 {
        match start_streaming(addr, heavy_spec()) {
            Started::Streaming(stream, reader) => {
                drop(reader);
                drop(stream); // hang up mid-query
                settle(&handle);
                if handle.state().metrics.client_aborts.get() > 0 {
                    aborted = true;
                    break;
                }
            }
            Started::Finished => settle(&handle), // done won the race; retry
            Started::Rejected => panic!("admission rejection on an unlimited server"),
        }
    }
    let m = &handle.state().metrics;
    assert!(aborted, "no hangup was classified as a client abort");
    assert_eq!(
        m.query_errors.get(),
        0,
        "a client hangup must never count as a server-side query error"
    );
    assert_eq!(
        m.active_queries.get(),
        0,
        "aborted queries must drain the in-flight gauge"
    );

    handle.shutdown_and_join().expect("clean shutdown");

    let text = std::fs::read_to_string(&log).expect("trace log readable");
    assert!(
        text.lines().any(|l| l.contains("\"client_abort\"")),
        "the span log must record the abort"
    );
    let _ = std::fs::remove_file(log);
}

#[test]
fn admission_limit_bounces_second_query_and_connection_stays_usable() {
    let handle = Server::bind(ServerConfig {
        max_queries_per_dataset: Some(1),
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = handle.addr();

    let mut warm = Client::connect(addr).expect("connect");
    warm.enumerate(heavy_spec()).expect("warm query");

    let mut rejected = false;
    for _ in 0..10 {
        match start_streaming(addr, heavy_spec()) {
            Started::Streaming(_stream, mut reader) => {
                // The holder's slot is live until its `done` goes out: a
                // concurrent same-dataset query must bounce busy.
                let mut contender = Client::connect(addr).expect("connect");
                match contender.enumerate(heavy_spec()) {
                    Err(ClientError::Server {
                        code: ErrorCode::Busy,
                        message,
                    }) => {
                        assert!(message.contains("admission limit"), "got: {message}");
                        rejected = true;
                    }
                    Ok(_) => {} // holder finished first; retry
                    Err(e) => panic!("contender failed unexpectedly: {e}"),
                }
                // The bounced connection stays usable: same socket, next
                // request answered normally.
                contender.ping().expect("ping after admission rejection");
                // Drain the holder to its `done`.
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("drain holder");
                    match Frame::parse(line.trim()).expect("parse") {
                        Frame::Done { .. } => break,
                        Frame::Core { .. } => {}
                        other => panic!("unexpected frame draining holder: {other:?}"),
                    }
                }
            }
            // `done` (or a stale previous slot) won the race; the stale
            // slot case is itself the rejection under test.
            Started::Finished => {}
            Started::Rejected => rejected = true,
        }
        if rejected {
            break;
        }
    }
    assert!(rejected, "no concurrent query was admission-rejected");
    assert!(handle.state().metrics.admission_rejections.get() >= 1);

    settle(&handle);
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn sharded_cache_stats_account_exactly_for_a_replayed_workload() {
    let handle = Server::bind(ServerConfig::default()).expect("bind").spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Deterministic replay over six distinct (k, r) keys, three rounds:
    // round one is all misses, later rounds all hits. The cache behind
    // this is sharded by key hash; its merged stats must account for the
    // replay exactly as the old single-lock cache did (the strict
    // shard-vs-single-lock equivalence is unit-tested in `cache`).
    let keys: Vec<(u32, f64)> = vec![(3, 8.0), (3, 9.0), (3, 10.0), (4, 8.0), (4, 9.0), (5, 8.0)];
    let mut hits = 0u64;
    let mut misses = 0u64;
    for round in 0..3 {
        for &(k, r) in &keys {
            let spec = QuerySpec {
                scale: 0.2,
                ..QuerySpec::new("gowalla-like", k, r)
            };
            let res = client.enumerate(spec).expect("query");
            match res.cache {
                CacheOutcome::Hit => hits += 1,
                CacheOutcome::Miss => misses += 1,
            }
            if round == 0 {
                assert_eq!(res.cache, CacheOutcome::Miss, "round one is cold");
            } else {
                assert_eq!(res.cache, CacheOutcome::Hit, "later rounds are warm");
            }
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.misses, misses, "merged shard stats must match");
    assert_eq!(stats.hits, hits, "merged shard stats must match");
    assert_eq!(stats.entries, keys.len(), "all keys resident");
    assert_eq!(stats.evictions, 0, "capacity was never exceeded");

    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn deeply_nested_json_line_is_a_bad_request_not_a_crash() {
    let handle = Server::bind(ServerConfig::default()).expect("bind").spawn();
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello");

    // 200 000 unclosed `[`: well under the session's line cap, far past
    // the parser's nesting cap. Unbounded recursion would abort the
    // whole server process here.
    let mut hostile = "[".repeat(200_000);
    hostile.push('\n');
    stream.write_all(hostile.as_bytes()).expect("send");
    line.clear();
    reader.read_line(&mut line).expect("error frame");
    match Frame::parse(line.trim()).expect("parse") {
        Frame::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("nesting too deep"), "got: {message}");
        }
        other => panic!("unexpected frame {other:?}"),
    }
    assert_eq!(handle.state().metrics.requests_malformed.get(), 1);

    // The same connection, and the server, keep answering.
    let ping = Request::Ping { id: "after".into() };
    stream
        .write_all(format!("{}\n", ping.to_line()).as_bytes())
        .expect("send ping");
    line.clear();
    reader.read_line(&mut line).expect("pong");
    match Frame::parse(line.trim()).expect("parse") {
        Frame::Pong { id, .. } => assert_eq!(id, "after"),
        other => panic!("unexpected frame {other:?}"),
    }
    drop((stream, reader));
    Client::connect(handle.addr())
        .expect("fresh connect")
        .ping()
        .expect("ping on a fresh connection");

    wait_sessions_drained(&handle);
    handle.shutdown_and_join().expect("clean shutdown");
}
