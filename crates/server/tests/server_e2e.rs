//! End-to-end service tests: a real server on an ephemeral port, driven
//! through the shipped [`Client`] — the same code path `krcore-cli query`
//! uses, so these tests exercise the full wire protocol.

use kr_core::{enumerate_maximal, find_maximum, AlgoConfig};
use kr_datagen::DatasetPreset;
use kr_server::{
    Algo, CacheOutcome, Client, ErrorCode, Frame, QuerySpec, Request, Server, ServerConfig,
};
use kr_similarity::Threshold;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const SCALE: f64 = 0.2;

fn spawn_server() -> kr_server::ServerHandle {
    Server::bind(ServerConfig::default())
        .expect("bind ephemeral port")
        .spawn()
}

/// The reference answer: the direct engine call the server must match.
fn direct_problem(preset: DatasetPreset, k: u32, r: f64) -> kr_core::ProblemInstance {
    let d = preset.generate_scaled(SCALE);
    let threshold = if d.metric.is_distance() {
        Threshold::MaxDistance(r)
    } else {
        Threshold::MinSimilarity(r)
    };
    kr_core::ProblemInstance::new(d.graph, d.attributes, d.metric, threshold, k)
}

fn spec(preset: DatasetPreset, k: u32, r: f64) -> QuerySpec {
    QuerySpec {
        scale: SCALE,
        ..QuerySpec::new(preset.name(), k, r)
    }
}

#[test]
fn enumeration_and_maximum_match_direct_engine_on_two_presets() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    for (preset, k, r) in [
        (DatasetPreset::GowallaLike, 3, 8.0),
        (DatasetPreset::BrightkiteLike, 3, 8.0),
    ] {
        let problem = direct_problem(preset, k, r);
        let expect_enum = enumerate_maximal(&problem, &AlgoConfig::adv_enum());
        let expect_max = find_maximum(&problem, &AlgoConfig::adv_max());

        let got = client.enumerate(spec(preset, k, r)).expect("enumerate");
        assert!(got.completed);
        let mut streamed = got.cores.clone();
        streamed.sort();
        let expected: Vec<Vec<u32>> = expect_enum
            .cores
            .iter()
            .map(|c| c.vertices.clone())
            .collect();
        assert_eq!(streamed, expected, "{} enumeration", preset.name());
        assert!(!expected.is_empty(), "test instance must be non-trivial");

        let got = client.maximum(spec(preset, k, r)).expect("maximum");
        assert!(got.completed);
        assert_eq!(
            got.cores,
            expect_max
                .core
                .iter()
                .map(|c| c.vertices.clone())
                .collect::<Vec<_>>(),
            "{} maximum",
            preset.name()
        );
    }
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn repeated_query_is_served_from_cache_without_repreprocessing() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let q = spec(DatasetPreset::GowallaLike, 3, 8.0);

    let first = client.enumerate(q.clone()).expect("first query");
    assert_eq!(first.cache, CacheOutcome::Miss);
    let stats = client.stats().expect("stats");
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
    assert!(
        stats.oracle_evals > 0,
        "a cache miss must report its metric evaluations"
    );
    let cold_evals = stats.oracle_evals;
    let cold_ms = stats.preprocess_ms;

    // Same (dataset, k, r): no new preprocessing, identical results.
    let second = client.enumerate(q.clone()).expect("second query");
    assert_eq!(second.cache, CacheOutcome::Hit);
    assert_eq!(second.cores, first.cores);
    let stats = client.stats().expect("stats");
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (1, 1, 1),
        "second query must not preprocess again"
    );
    assert_eq!(
        (stats.oracle_evals, stats.preprocess_ms),
        (cold_evals, cold_ms),
        "a cache hit spends no preprocessing"
    );

    // The maximum query for the same parameters shares the entry too.
    let max = client.maximum(q).expect("maximum");
    assert_eq!(max.cache, CacheOutcome::Hit);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.misses, 1, "maximum reused the cached components");

    // A different k is a different key.
    let other = client
        .enumerate(spec(DatasetPreset::GowallaLike, 4, 8.0))
        .expect("different k");
    assert_eq!(other.cache, CacheOutcome::Miss);
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn two_concurrent_clients_get_complete_correct_streams() {
    let handle = spawn_server();
    let addr = handle.addr();
    let specs = [
        spec(DatasetPreset::GowallaLike, 3, 8.0),
        spec(DatasetPreset::BrightkiteLike, 3, 8.0),
    ];
    let workers: Vec<_> = specs
        .into_iter()
        .map(|q| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Hammer the same connection a few times to overlap with
                // the other client's preprocessing and queries.
                let first = client.enumerate(q.clone()).expect("enumerate");
                for _ in 0..3 {
                    let again = client.enumerate(q.clone()).expect("repeat");
                    assert_eq!(again.cores, first.cores);
                }
                (q, first)
            })
        })
        .collect();
    for worker in workers {
        let (q, got) = worker.join().expect("client thread");
        let preset = DatasetPreset::all()
            .into_iter()
            .find(|p| p.name() == q.dataset)
            .unwrap();
        let expect = enumerate_maximal(&direct_problem(preset, q.k, q.r), &AlgoConfig::adv_enum());
        let mut streamed = got.cores.clone();
        streamed.sort();
        assert_eq!(
            streamed,
            expect
                .cores
                .iter()
                .map(|c| c.vertices.clone())
                .collect::<Vec<_>>(),
            "concurrent client on {} got a wrong or truncated stream",
            q.dataset
        );
    }
    handle.shutdown_and_join().expect("clean shutdown");
}

/// A cold miss's raw `core` frame lines (trace id blanked, since every
/// query stamps its own) and the `done` frame's node count.
fn cold_core_lines(spec: QuerySpec) -> (Vec<String>, u64) {
    let handle = spawn_server();
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello");
    let req = Request::Enumerate {
        id: "q".to_string(),
        spec,
    };
    (&stream)
        .write_all(format!("{}\n", req.to_line()).as_bytes())
        .expect("send");
    let mut cores = Vec::new();
    let nodes = loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("frame");
        match Frame::parse(line.trim_end()).expect("frame parses") {
            Frame::Core { trace, .. } => cores.push(line.replace(&trace, "")),
            Frame::Done {
                nodes,
                cache,
                completed,
                ..
            } => {
                assert_eq!(cache, CacheOutcome::Miss);
                assert!(completed);
                break nodes;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    };
    handle.shutdown_and_join().expect("clean shutdown");
    (cores, nodes)
}

/// `threads` is accepted and ignored: a cold miss at `threads` 0, 1 and
/// 1024 streams byte-identical `core` frames after the same search work,
/// and a later query at another value hits the same cache entry.
#[test]
fn threads_is_ignored_over_the_wire() {
    let base = spec(DatasetPreset::GowallaLike, 3, 8.0);
    let runs = [0, 1, 1024].map(|threads| {
        cold_core_lines(QuerySpec {
            threads,
            ..base.clone()
        })
    });
    assert!(!runs[1].0.is_empty(), "test instance must emit cores");
    assert_eq!(runs[0], runs[1], "threads 0 vs 1");
    assert_eq!(runs[2], runs[1], "threads 1024 vs 1");

    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let cold = client.enumerate(base.clone()).expect("cold query");
    let warm = client
        .enumerate(QuerySpec { threads: 4, ..base })
        .expect("warm query");
    assert_eq!(
        warm.cache,
        CacheOutcome::Hit,
        "same key regardless of threads"
    );
    assert_eq!(warm.cores, cold.cores);
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn budget_limited_query_reports_incomplete() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let q = QuerySpec {
        node_limit: Some(1),
        ..spec(DatasetPreset::GowallaLike, 3, 8.0)
    };
    let got = client.enumerate(q).expect("limited query still answers");
    assert!(!got.completed, "1-node budget cannot finish");
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn protocol_errors_leave_the_connection_usable() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Unknown dataset.
    let err = client
        .enumerate(spec_named("middle-earth"))
        .expect_err("unknown dataset");
    match err {
        kr_server::ClientError::Server { code, .. } => {
            assert_eq!(code, ErrorCode::UnknownDataset)
        }
        other => panic!("wrong error {other}"),
    }

    // Wrong version / raw garbage, sent on the raw socket.
    client
        .send(&Request::Ping { id: "x".into() })
        .expect("still usable");
    match client.read_frame().expect("pong") {
        Frame::Pong { id, .. } => assert_eq!(id, "x"),
        other => panic!("wrong frame {other:?}"),
    }
    handle.shutdown_and_join().expect("clean shutdown");
}

fn spec_named(name: &str) -> QuerySpec {
    QuerySpec {
        scale: SCALE,
        ..QuerySpec::new(name, 3, 8.0)
    }
}

#[test]
fn version_mismatch_rejected_over_the_wire() {
    use std::io::{BufRead, BufReader, Write};
    let handle = spawn_server();
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello");
    assert!(matches!(
        Frame::parse(line.trim()).expect("hello frame"),
        Frame::Hello { protocol: 1, .. }
    ));
    stream
        .write_all(b"{\"v\":99,\"cmd\":\"ping\",\"id\":\"z\"}\n")
        .expect("send");
    line.clear();
    reader.read_line(&mut line).expect("error frame");
    match Frame::parse(line.trim()).expect("parse") {
        Frame::Error { id, code, .. } => {
            assert_eq!(id, "z");
            assert_eq!(code, ErrorCode::UnsupportedVersion);
        }
        other => panic!("wrong frame {other:?}"),
    }
    handle.shutdown_and_join().expect("clean shutdown");
}

/// Result frames must be byte-identical no matter whether the arena came
/// fresh from preprocessing or `Arc`-shared out of the component cache,
/// and whether the answer was searched or replayed from the entry's
/// stored answer — the wire bytes pin the CSR arena's determinism and
/// the stored streaming order end to end (only the `done` frame may
/// differ, in its timing fields).
#[test]
fn raw_result_frames_byte_identical_cold_vs_cached() {
    use std::io::{BufRead, BufReader, Write};
    let handle = spawn_server();
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello");

    let mut run_query = |maximum: bool, id: &str| -> (Vec<Vec<u8>>, CacheOutcome, u64) {
        let (id, spec) = (id.to_string(), spec(DatasetPreset::GowallaLike, 3, 8.0));
        let req = if maximum {
            Request::Maximum {
                id: id.clone(),
                spec,
            }
        } else {
            Request::Enumerate {
                id: id.clone(),
                spec,
            }
        };
        stream
            .write_all(format!("{}\n", req.to_line()).as_bytes())
            .expect("send");
        let mut core_lines = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("frame");
            match Frame::parse(line.trim()).expect("parse") {
                Frame::Core { trace, .. } => {
                    // Strip the correlation id and the per-query trace id
                    // so runs with different ids stay comparable;
                    // everything else must match exactly.
                    let stripped = line
                        .trim()
                        .replace(&format!("\"id\":\"{id}\""), "\"id\":\"_\"")
                        .replace(&format!("\"trace\":\"{trace}\""), "\"trace\":\"_\"");
                    core_lines.push(stripped.into_bytes());
                }
                Frame::Done {
                    cache,
                    nodes,
                    completed,
                    ..
                } => {
                    assert!(completed);
                    return (core_lines, cache, nodes);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    };

    let state = handle.state();
    let metrics = &state.metrics;
    for maximum in [false, true] {
        let replayed = metrics.answers_replayed.get();
        // Enumeration: a miss, a first hit that searches and stores, a
        // replay. Maximum (the entry is resident): a first hit, then two
        // replays.
        let (cold, outcome_cold, nodes_cold) = run_query(maximum, "q-cold");
        let (warm, outcome_warm, nodes_warm) = run_query(maximum, "q-warm");
        let (stored, outcome_stored, nodes_stored) = run_query(maximum, "q-stored");
        let expect_cold = if maximum {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        };
        assert_eq!(outcome_cold, expect_cold);
        assert_eq!(outcome_warm, CacheOutcome::Hit);
        assert_eq!(outcome_stored, CacheOutcome::Hit);
        assert!(!cold.is_empty(), "test instance must emit cores");
        assert_eq!(
            cold, warm,
            "cached arena must serialize byte-identically to the fresh one"
        );
        if !maximum {
            // The stream's discovery order is not the sorted order the
            // engine returns, so replaying sorted cores would fail below.
            let order: Vec<Vec<u32>> = cold
                .iter()
                .map(|l| match Frame::parse(std::str::from_utf8(l).unwrap()) {
                    Ok(Frame::Core { vertices, .. }) => vertices,
                    other => panic!("not a core frame: {other:?}"),
                })
                .collect();
            assert!(!order.is_sorted(), "instance streams in sorted order");
        }
        assert_eq!(
            cold, stored,
            "a stored answer must replay the fresh run's core frames in order"
        );
        assert_eq!((nodes_warm, nodes_stored), (nodes_cold, nodes_cold));
        assert_eq!(
            metrics.answers_replayed.get(),
            replayed + if maximum { 2 } else { 1 },
            "replays (maximum: {maximum})"
        );
    }
    assert_eq!(metrics.answers_verified.get(), 2);
    assert_eq!(metrics.verify_failures.get(), 0);
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn basic_algo_buffered_results_match_adv() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let adv = client
        .enumerate(spec(DatasetPreset::BrightkiteLike, 3, 8.0))
        .expect("adv");
    let basic = client
        .enumerate(QuerySpec {
            algo: Algo::Basic,
            ..spec(DatasetPreset::BrightkiteLike, 3, 8.0)
        })
        .expect("basic");
    let (mut a, mut b) = (adv.cores.clone(), basic.cores.clone());
    a.sort();
    b.sort();
    assert_eq!(a, b, "BasicEnum must agree with AdvEnum");
    handle.shutdown_and_join().expect("clean shutdown");
}
