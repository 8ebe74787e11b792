//! End-to-end tests for file-backed datasets: a real server hosting a
//! `.krb` snapshot, driven over the wire.
//!
//! The enumeration check is **byte-identical at the frame level**: the
//! raw `core` frame lines received from the socket must equal, byte for
//! byte, the lines an in-process engine run over the same loaded graph
//! would emit through the same streaming hook.

use kr_core::{enumerate_maximal_prepared, find_maximum_prepared, AlgoConfig, CoreHook, KrCore};
use kr_datagen::DatasetPreset;
use kr_server::{
    cache::r_band, dataset_key, CacheKey, CacheOutcome, Client, ClientError, ErrorCode, Frame,
    QuerySpec, Request, Server, ServerConfig,
};
use kr_similarity::{write_snapshot_file, Threshold};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const K: u32 = 3;
const R: f64 = 8.0;

/// Writes a Brightkite-like dataset (identity original ids, so dense ids
/// match the direct in-memory instance) as a snapshot in a temp file.
fn write_dataset_snapshot(tag: &str) -> (PathBuf, kr_core::ProblemInstance) {
    let d = DatasetPreset::BrightkiteLike.generate_scaled(0.2);
    let n = d.graph.num_vertices();
    let original_ids: Vec<u64> = (0..n as u64).collect();
    let path = std::env::temp_dir().join(format!("kr_file_e2e_{tag}_{}.krb", std::process::id()));
    write_snapshot_file(&path, &d.graph, &original_ids, &d.attributes, d.metric)
        .expect("write snapshot");
    let problem = kr_core::ProblemInstance::new(
        d.graph,
        d.attributes,
        d.metric,
        Threshold::MaxDistance(R),
        K,
    );
    (path, problem)
}

fn serve_file(name: &str, path: &Path) -> kr_server::ServerHandle {
    Server::bind(ServerConfig {
        file_datasets: vec![(name.to_string(), path.display().to_string())],
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
}

/// The exact `core` frame lines the server must produce for query `id`:
/// an in-process run over the same components, streamed through the same
/// hook in the same order.
fn expected_core_lines(comps: &[kr_core::LocalComponent], id: &str, trace: &str) -> Vec<String> {
    let streamed: Arc<Mutex<Vec<KrCore>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = streamed.clone();
    let cfg = AlgoConfig::adv_enum().with_on_core(CoreHook::new(move |core: &KrCore| {
        sink.lock().unwrap().push(core.clone());
    }));
    let res = enumerate_maximal_prepared(comps, &cfg);
    assert!(res.completed);
    let streamed = streamed.lock().unwrap();
    assert_eq!(streamed.len(), res.cores.len());
    streamed
        .iter()
        .enumerate()
        .map(|(index, core)| {
            Frame::Core {
                id: id.to_string(),
                trace: trace.to_string(),
                index: index as u64,
                vertices: core.vertices.clone(),
            }
            .to_line()
        })
        .collect()
}

#[test]
fn served_snapshot_frames_are_byte_identical_to_in_process_engine() {
    let (path, problem) = write_dataset_snapshot("frames");
    let handle = serve_file("bk-file", &path);

    // Raw socket: this test pins wire bytes, not client-side parses.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello");
    assert!(line.contains("\"frame\":\"hello\""), "{line}");

    let mut spec = QuerySpec::new("bk-file", K, R);
    spec.scale = 0.25; // ignored for file-backed datasets
    let req = Request::Enumerate {
        id: "q1".to_string(),
        spec,
    };
    let mut w = stream.try_clone().expect("clone");
    w.write_all(format!("{}\n", req.to_line()).as_bytes())
        .expect("send");

    let comps = problem.preprocess();

    let mut received = Vec::new();
    let done_count: u64;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("frame");
        let line = line.trim_end_matches('\n').to_string();
        if line.contains("\"frame\":\"done\"") {
            match Frame::parse(&line).expect("done frame") {
                Frame::Done {
                    count,
                    completed,
                    cache,
                    ..
                } => {
                    done_count = count;
                    assert!(completed);
                    assert_eq!(cache, CacheOutcome::Miss);
                }
                other => panic!("wrong frame {other:?}"),
            }
            break;
        }
        received.push(line);
    }
    // The server stamps one trace id per query; pin the expected bytes
    // with the id it actually assigned (taken from the first frame).
    let trace = match Frame::parse(&received[0]).expect("core frame") {
        Frame::Core { trace, .. } => trace,
        other => panic!("wrong frame {other:?}"),
    };
    assert_eq!(trace.len(), 16, "trace ids are 16 hex digits: {trace:?}");
    let expected = expected_core_lines(&comps, "q1", &trace);
    assert!(!expected.is_empty(), "test instance must be non-trivial");
    assert_eq!(done_count, expected.len() as u64);
    assert_eq!(
        received, expected,
        "core frames must be byte-identical to the in-process engine's stream"
    );

    handle.shutdown_and_join().expect("clean shutdown");
    let _ = std::fs::remove_file(path);
}

#[test]
fn file_dataset_caches_under_its_dataset_key_and_ignores_scale() {
    let (path, problem) = write_dataset_snapshot("cache");
    let handle = serve_file("bk-file", &path);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let first = client
        .enumerate(QuerySpec::new("bk-file", K, R))
        .expect("first");
    assert_eq!(first.cache, CacheOutcome::Miss);

    // The component cache holds the entry under dataset_key(name, 1.0) —
    // a probing get_or_build must hit without building.
    let key = CacheKey {
        dataset: dataset_key("bk-file", 1.0),
        k: K,
        r_band: r_band(R),
    };
    let (_, out) = handle.state().cache.get_or_build(&key, 0, || {
        panic!("file-backed entry must already be cached")
    });
    assert!(out.hit, "cache entry must live under {:?}", key.dataset);

    // A different requested scale maps to the same dataset and the same
    // cache entry: hit, identical results — even a scale beyond the
    // server's max_scale generation policy (2.0 by default), which only
    // governs what the registry may *generate*.
    let mut other_scale = QuerySpec::new("bk-file", K, R);
    other_scale.scale = 4.0;
    let second = client.enumerate(other_scale).expect("second");
    assert_eq!(second.cache, CacheOutcome::Hit);
    assert_eq!(second.cores, first.cores);

    // Stats frame: exactly one miss (the probe above counts one hit).
    let stats = client.stats().expect("stats");
    assert_eq!(stats.misses, 1);
    assert!(stats.oracle_evals > 0);

    // maximum over the wire matches the in-process engine.
    let max = client
        .maximum(QuerySpec::new("bk-file", K, R))
        .expect("max");
    let comps = problem.preprocess();
    let direct = find_maximum_prepared(&comps, &AlgoConfig::adv_max());
    assert_eq!(
        max.cores,
        direct
            .core
            .iter()
            .map(|c| c.vertices.clone())
            .collect::<Vec<_>>()
    );

    handle.shutdown_and_join().expect("clean shutdown");
    let _ = std::fs::remove_file(path);
}

#[test]
fn fixture_snapshot_is_servable() {
    // The golden fixture committed at the repo root, served end to end.
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/tiny_points.krb");
    let handle = serve_file("tiny", &path);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let res = client
        .enumerate(QuerySpec::new("tiny", 3, 2.0))
        .expect("enumerate");
    // The fixture is a unit-square 4-clique (dense ids 0..4) plus a far
    // pendant: exactly one maximal (3, 2.0)-core.
    assert_eq!(res.cores, vec![vec![0, 1, 2, 3]]);
    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn binding_with_missing_snapshot_fails_fast() {
    let result = Server::bind(ServerConfig {
        file_datasets: vec![("ghost".to_string(), "/nonexistent/ghost.krb".to_string())],
        ..ServerConfig::default()
    });
    match result {
        Err(err) => assert!(err.to_string().contains("ghost"), "{err}"),
        Ok(_) => panic!("missing file must fail at bind"),
    }
}

/// Above ~9.22e9 every `r` would round to the same saturated cache band,
/// so a query at one such `r` could be served the answer of another. The
/// wire rejects those thresholds instead, and the connection stays
/// usable.
#[test]
fn thresholds_past_the_band_range_are_rejected() {
    // A triangle whose sides are all ~1.5e10 long.
    let path = std::env::temp_dir().join(format!("kr_file_e2e_far_{}.krb", std::process::id()));
    let graph = kr_graph::Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
    let points =
        kr_similarity::AttributeTable::points(vec![(0.0, 0.0), (1.5e10, 0.0), (0.75e10, 1.3e10)]);
    write_snapshot_file(
        &path,
        &graph,
        &[0, 1, 2],
        &points,
        kr_similarity::Metric::Euclidean,
    )
    .expect("write snapshot");
    let handle = serve_file("far", &path);
    let mut client = Client::connect(handle.addr()).expect("connect");
    for r in [1e10, 2e10] {
        match client.enumerate(QuerySpec::new("far", 2, r)) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::BadRequest, "r={r}")
            }
            other => panic!("r={r} must be rejected, got {other:?}"),
        }
    }
    let within = client
        .enumerate(QuerySpec::new("far", 2, 9e9))
        .expect("a threshold inside the band range still answers");
    assert!(within.cores.is_empty(), "every side is longer than 9e9");
    handle.shutdown_and_join().expect("clean shutdown");
    let _ = std::fs::remove_file(path);
}
