//! End-to-end observability tests: a real server with a trace log and a
//! zero slow-query threshold, driven through the shipped client. Pins
//! the PR's acceptance invariants:
//!
//! * the `metrics` request returns the latency histogram with bucket
//!   counts summing to the number of queries served, and p99 ≥ p50;
//! * every response frame of a query carries the same server-assigned
//!   trace id, and that id joins against the span events in the log;
//! * a sub-threshold `slow_query_ms` forces parseable slow-query lines;
//! * every answered query's `stream` event counts at most one socket
//!   write per frame plus `done`: one for a `maximum` answer, and for an
//!   enumeration its first flush, one per elapsed flush interval and
//!   `done`;
//! * the first miss on a dataset without a stored index reports the
//!   index build on its `index_candidates` event and logs it as one
//!   `index_build` span per dataset, and later misses report none;
//! * the first query on a dataset logs its load as a `dataset_load`
//!   span, and later queries log none;
//! * `stats.preprocess_ms` is the `server.preprocess_us` histogram's sum
//!   in whole milliseconds, not a sum of per-miss truncations.

use kr_server::json::Json;
use kr_server::{
    CacheOutcome, Client, Frame, HistogramSnapshot, MetricsSnapshot, QuerySpec, Request, Server,
    ServerConfig,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};

const SCALE: f64 = 0.2;

fn spec(k: u32) -> QuerySpec {
    QuerySpec {
        scale: SCALE,
        ..QuerySpec::new("gowalla-like", k, 8.0)
    }
}

/// A unique trace-log path per test (tests share one process and temp dir).
fn log_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "kr_obs_e2e_{}_{}_{}.jsonl",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn spawn_traced(log: &std::path::Path) -> kr_server::ServerHandle {
    Server::bind(ServerConfig {
        trace_log: Some(log.display().to_string()),
        slow_query_ms: 0, // every query is "slow": forces emission
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
        .1
}

fn histogram<'a>(snap: &'a MetricsSnapshot, name: &str) -> &'a HistogramSnapshot {
    &snap
        .histograms
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("histogram {name} missing from snapshot"))
        .1
}

/// Parses the trace log into `(trace, span)` pairs, asserting every line
/// is well-formed JSON with the mandatory fields.
fn read_spans(log: &std::path::Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(log).expect("trace log readable");
    text.lines()
        .map(|line| {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("bad log line {line:?}: {e}"));
            assert!(
                v.get("ts_us").and_then(Json::as_u64).is_some(),
                "log line must carry ts_us: {line}"
            );
            let span = v
                .get("span")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("log line must carry span: {line}"))
                .to_string();
            let trace = v
                .get("trace")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            (trace, span)
        })
        .collect()
}

/// `(trace, field)` of every `span` event, in log order.
fn span_field<T>(
    log: &std::path::Path,
    span: &str,
    field: impl Fn(&Json) -> Option<T>,
) -> Vec<(String, T)> {
    let text = std::fs::read_to_string(log).expect("trace log readable");
    text.lines()
        .map(|line| Json::parse(line).expect("log line parses"))
        .filter(|v| v.get("span").and_then(Json::as_str) == Some(span))
        .map(|v| {
            let trace = v.get("trace").and_then(Json::as_str).unwrap().to_string();
            (
                trace,
                field(&v).unwrap_or_else(|| panic!("{span} event: {v:?}")),
            )
        })
        .collect()
}

/// `(trace, built)` of every `index_candidates` event, in log order.
fn index_builds(log: &std::path::Path) -> Vec<(String, bool)> {
    span_field(log, "index_candidates", |v| {
        v.get("built").and_then(Json::as_bool)
    })
}

/// `(trace, (bands, vertices))` of every `index_build` event, in log
/// order; each must carry `dur_us`.
fn index_build_spans(log: &std::path::Path) -> Vec<(String, (u64, u64))> {
    span_field(log, "index_build", |v| {
        v.get("dur_us").and_then(Json::as_u64)?;
        Some((
            v.get("bands").and_then(Json::as_u64)?,
            v.get("vertices").and_then(Json::as_u64)?,
        ))
    })
}

/// `(trace, source)` of every `dataset_load` event, in log order.
fn dataset_loads(log: &std::path::Path) -> Vec<(String, String)> {
    span_field(log, "dataset_load", |v| {
        v.get("dur_us").and_then(Json::as_u64)?;
        Some(v.get("source").and_then(Json::as_str)?.to_string())
    })
}

/// The session's flush interval for a streaming enumeration
/// (docs/PROTOCOL.md, `enumerate`).
const FLUSH_INTERVAL_MS: u64 = 10;

/// Checks the socket writes of every answered query in the log against
/// the flush rule; returns how many queries it checked.
fn assert_write_counts(log: &std::path::Path) -> usize {
    #[derive(Default)]
    struct Query {
        cmd: String,
        stream: Option<(u64, u64)>,
        elapsed_ms: Option<u64>,
    }
    let text = std::fs::read_to_string(log).expect("trace log readable");
    let mut queries: HashMap<String, Query> = HashMap::new();
    for line in text.lines() {
        let v = Json::parse(line).expect("log line parses");
        let trace = v.get("trace").and_then(Json::as_str).unwrap_or_default();
        let field = |name: &str| v.get(name).and_then(Json::as_u64);
        let q = queries.entry(trace.to_string()).or_default();
        match v.get("span").and_then(Json::as_str) {
            Some("request") => {
                q.cmd = v.get("cmd").and_then(Json::as_str).unwrap().to_string();
            }
            Some("stream") => {
                q.stream = Some((field("frames").unwrap(), field("writes").expect("writes")));
            }
            Some("query") => q.elapsed_ms = field("elapsed_ms"),
            _ => {}
        }
    }
    let mut checked = 0;
    for (trace, q) in &queries {
        let Some((frames, writes)) = q.stream else {
            continue;
        };
        let elapsed_ms = q.elapsed_ms.expect("answered query logs `query`");
        assert!(
            (1..=frames + 1).contains(&writes),
            "trace {trace}: {writes} writes for {frames} frames"
        );
        match q.cmd.as_str() {
            "maximum" => assert_eq!(writes, 1, "trace {trace}: maximum in one write"),
            "enumerate" => assert!(
                writes <= 2 + elapsed_ms / FLUSH_INTERVAL_MS,
                "trace {trace}: {writes} writes in {elapsed_ms} ms"
            ),
            other => panic!("trace {trace}: stream event for `{other}`"),
        }
        checked += 1;
    }
    checked
}

#[test]
fn metrics_snapshot_matches_queries_issued_and_log_joins_on_trace() {
    let log = log_path("metrics");
    let handle = spawn_traced(&log);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Five answered queries: cold miss, warm hit, a different k (miss),
    // and a maximum; plus one rejected query that must NOT reach the
    // latency histogram.
    let mut traces = Vec::new();
    let first = client.enumerate(spec(3)).expect("cold");
    assert_eq!(first.cache, CacheOutcome::Miss);
    traces.push(first.trace.clone());
    let warm = client.enumerate(spec(3)).expect("warm");
    assert_eq!(warm.cache, CacheOutcome::Hit);
    traces.push(warm.trace.clone());
    traces.push(client.enumerate(spec(4)).expect("k=4").trace);
    traces.push(client.maximum(spec(3)).expect("maximum").trace);
    traces.push(client.enumerate(spec(3)).expect("again").trace);
    let err = client
        .enumerate(QuerySpec {
            scale: SCALE,
            ..QuerySpec::new("middle-earth", 3, 8.0)
        })
        .expect_err("unknown dataset");
    assert!(matches!(err, kr_server::ClientError::Server { .. }));

    for t in &traces {
        assert_eq!(t.len(), 16, "trace ids are 16 hex digits: {t:?}");
        assert!(t.chars().all(|c| c.is_ascii_hexdigit()), "{t:?}");
    }
    let mut unique = traces.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), traces.len(), "one fresh trace id per query");

    let snap = client.metrics().expect("metrics");

    // Acceptance invariant: bucket counts sum to the queries issued.
    let lat = histogram(&snap, "server.query_latency_us");
    assert_eq!(lat.count, 5, "five queries were answered");
    let bucket_total: u64 = lat.buckets.iter().map(|&(_, c)| c).sum();
    assert_eq!(bucket_total, 5, "bucket counts must sum to queries issued");
    let (p50, p99) = (lat.quantile(0.5), lat.quantile(0.99));
    assert!(p99 >= p50, "p99 {p99:?} must be >= p50 {p50:?}");

    // Preprocessing ran once per cache miss (k=3 cold, k=4 cold).
    assert_eq!(histogram(&snap, "server.preprocess_us").count, 2);

    assert_eq!(counter(&snap, "server.queries"), 6, "rejects count too");
    assert_eq!(counter(&snap, "server.query_errors"), 1);
    assert_eq!(counter(&snap, "server.slow_queries"), 5, "threshold 0");
    assert!(counter(&snap, "server.cores_streamed") > 0);
    assert!(counter(&snap, "server.connections") >= 1);

    // Library-layer metrics merge into the same snapshot (process-global:
    // at least this server's two preprocessing runs contributed).
    assert!(counter(&snap, "similarity.oracle_evals") > 0);

    handle.shutdown_and_join().expect("clean shutdown");

    let spans = read_spans(&log);
    assert_eq!(
        assert_write_counts(&log),
        5,
        "every answered query is checked"
    );
    assert!(spans.iter().any(|(_, s)| s == "accept"));
    for t in &traces {
        for want in ["request", "search", "stream", "query", "slow_query"] {
            assert!(
                spans.iter().any(|(tr, s)| tr == t && s == want),
                "trace {t} missing span {want}"
            );
        }
    }
    // Cache misses (and only they) resolve candidates and preprocess:
    // the cold k=3 and k=4 queries.
    let preprocessed: Vec<_> = spans
        .iter()
        .filter(|(_, s)| s == "preprocess")
        .map(|(t, _)| t.clone())
        .collect();
    assert_eq!(preprocessed.len(), 2);
    assert!(preprocessed.contains(&traces[0]));
    assert!(
        !preprocessed.contains(&traces[1]),
        "warm hit: no preprocess"
    );
    // The generated dataset carries no index: the first miss builds it
    // exactly once, the second only looks it up.
    assert_eq!(
        index_builds(&log),
        vec![(traces[0].clone(), true), (traces[2].clone(), false)]
    );
    // The first query generates the preset; no later query loads it.
    assert_eq!(
        dataset_loads(&log),
        vec![(traces[0].clone(), "preset".to_string())]
    );

    let _ = std::fs::remove_file(log);
}

#[test]
fn every_frame_of_a_query_carries_its_trace_and_joins_the_log() {
    let log = log_path("frames");
    let handle = spawn_traced(&log);

    // Raw socket: inspect each frame's trace, not just the client digest.
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello");

    let req = Request::Enumerate {
        id: "q-trace".to_string(),
        spec: spec(3),
    };
    stream
        .write_all(format!("{}\n", req.to_line()).as_bytes())
        .expect("send");
    let mut frame_traces = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("frame");
        match Frame::parse(line.trim()).expect("parse") {
            Frame::Core { trace, .. } => frame_traces.push(trace),
            Frame::Done { trace, .. } => {
                frame_traces.push(trace);
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(frame_traces.len() > 1, "test instance must stream cores");
    let trace = frame_traces[0].clone();
    assert_eq!(trace.len(), 16);
    assert!(
        frame_traces.iter().all(|t| *t == trace),
        "every frame of the query must carry the same trace id: {frame_traces:?}"
    );

    // A malformed line gets an error frame whose trace also joins the log.
    stream.write_all(b"this is not json\n").expect("send");
    line.clear();
    reader.read_line(&mut line).expect("error frame");
    let err_trace = match Frame::parse(line.trim()).expect("parse") {
        Frame::Error { trace, .. } => trace,
        other => panic!("unexpected frame {other:?}"),
    };
    assert_eq!(err_trace.len(), 16);

    let mut client = Client::connect(handle.addr()).expect("connect");
    let snap = client.metrics().expect("metrics");
    assert_eq!(counter(&snap, "server.requests_malformed"), 1);

    handle.shutdown_and_join().expect("clean shutdown");

    let spans = read_spans(&log);
    assert_eq!(
        assert_write_counts(&log),
        1,
        "the one answered query is checked"
    );
    for want in ["request", "cache_lookup", "preprocess", "search", "query"] {
        assert!(
            spans.iter().any(|(t, s)| t == &trace && s == want),
            "trace {trace} missing span {want}"
        );
    }
    assert!(
        spans
            .iter()
            .any(|(t, s)| t == &err_trace && s == "request_error"),
        "malformed request must log a request_error event"
    );

    let _ = std::fs::remove_file(log);
}

#[test]
fn index_build_span_is_logged_once_per_dataset() {
    let log = log_path("index_build");
    let handle = spawn_traced(&log);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let dblp = |k: u32| QuerySpec {
        scale: SCALE,
        ..QuerySpec::new("dblp-like", k, 0.3)
    };
    // Two datasets, each with a cold miss, a hit and a second miss.
    let mut traces = Vec::new();
    for spec in [spec(3), spec(3), spec(4), dblp(3), dblp(3), dblp(4)] {
        traces.push(client.enumerate(spec).expect("query").trace);
    }
    handle.shutdown_and_join().expect("clean shutdown");

    // One build per dataset, on its first miss; none on the hits or on
    // the second misses.
    let builds = index_build_spans(&log);
    let built: Vec<String> = builds.iter().map(|(t, _)| t.clone()).collect();
    assert_eq!(
        built,
        vec![traces[0].clone(), traces[3].clone()],
        "{builds:?}"
    );
    for (_, (bands, vertices)) in &builds {
        assert!(*bands > 0 && *vertices > 0, "{builds:?}");
    }
    // The `built` flag of `index_candidates` names the same queries.
    let flagged: Vec<String> = index_builds(&log)
        .into_iter()
        .filter(|&(_, b)| b)
        .map(|(t, _)| t)
        .collect();
    assert_eq!(flagged, built);

    let _ = std::fs::remove_file(log);
}

#[test]
fn stats_preprocess_ms_is_the_preprocess_histogram_sum_in_ms() {
    let handle = Server::bind(ServerConfig::default()).expect("bind").spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    // Forty serial misses, most of them well under a millisecond:
    // truncating each to whole milliseconds before summing would lose
    // most of their time.
    let keys: Vec<(u32, f64)> = (2..=5)
        .flat_map(|k| (0..10).map(move |i| (k, 6.0 + 0.5 * i as f64)))
        .collect();
    for &(k, r) in &keys {
        let spec = QuerySpec {
            scale: SCALE,
            ..QuerySpec::new("gowalla-like", k, r)
        };
        assert_eq!(
            client.enumerate(spec).expect("query").cache,
            CacheOutcome::Miss
        );
    }
    let stats = client.stats().expect("stats");
    let hist = histogram(&client.metrics().expect("metrics"), "server.preprocess_us").clone();
    assert_eq!((stats.misses, hist.count), (40, 40));
    assert_eq!(
        stats.preprocess_ms,
        hist.sum / 1_000,
        "preprocess_us sum {} µs",
        hist.sum
    );
    handle.shutdown_and_join().expect("clean shutdown");
}
