//! End-to-end mutation tests: a real server on an ephemeral port, driven
//! through the shipped [`Client`]'s `add_edges` / `remove_edges` /
//! `set_attributes` — the write half of the wire protocol. The tests pin
//! the serving contract of invalidate-and-repair: a mutation that cannot
//! affect a cached `(k, r)` entry *repairs* it (the follow-up query hits
//! the cache, byte-identical answer, no second preprocessing bill), and
//! a mutation that can affect it *invalidates* (the follow-up query
//! recomputes and matches the direct engine on the mutated graph).

use kr_core::{enumerate_maximal, AlgoConfig};
use kr_graph::Graph;
use kr_server::{
    AttributeValue, CacheOutcome, Client, ClientError, ErrorCode, QuerySpec, Server, ServerConfig,
};
use kr_similarity::{write_snapshot_file, AttributeTable, Metric};
use std::path::PathBuf;

const DATASET: &str = "gowalla-like";
const SCALE: f64 = 0.2;
const K: u32 = 3;
const R: f64 = 8.0;

fn spawn_server() -> kr_server::ServerHandle {
    Server::bind(ServerConfig::default())
        .expect("bind ephemeral port")
        .spawn()
}

fn spec() -> QuerySpec {
    QuerySpec {
        scale: SCALE,
        ..QuerySpec::new(DATASET, K, R)
    }
}

fn point_rows(attrs: &AttributeTable) -> &[(f64, f64)] {
    match attrs {
        AttributeTable::Points(rows) => rows,
        other => panic!("gowalla-like must carry points, got {other:?}"),
    }
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// A non-adjacent vertex pair whose Euclidean distance exceeds `min_d`
/// (its edge is dropped by the dissimilar-edge filter at any `r <=
/// min_d`, so inserting it cannot change a query at this `r`).
fn dissimilar_non_edge(view: &kr_server::DatasetView, min_d: f64) -> (u32, u32) {
    let rows = point_rows(&view.attributes);
    for u in 0..view.graph.num_vertices() as u32 {
        for v in (u + 1)..view.graph.num_vertices() as u32 {
            if !view.graph.has_edge(u, v) && dist(rows[u as usize], rows[v as usize]) > min_d {
                return (u, v);
            }
        }
    }
    panic!("no dissimilar non-edge found");
}

#[test]
fn irrelevant_mutation_repairs_the_cache_and_requery_hits_identically() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let first = client.enumerate(spec()).expect("cold query");
    assert_eq!(first.cache, CacheOutcome::Miss);
    assert!(!first.cores.is_empty(), "test instance must be non-trivial");

    // An edge far beyond the queried r: preprocessing at r = 8 filters
    // it out, so the cached component set is provably unaffected.
    let dataset = handle
        .state()
        .datasets
        .get(DATASET, SCALE)
        .expect("dataset resident");
    let (u, v) = dissimilar_non_edge(&dataset.view(), 10.0 * R);
    let res = client
        .add_edges(DATASET, SCALE, vec![(u, v)])
        .expect("mutate");
    assert_eq!((res.applied, res.ignored), (1, 0));
    assert_eq!(res.version, 1);
    assert!(
        res.repairs >= 1,
        "the resident entry must be repaired, not dropped: {res:?}"
    );
    assert_eq!(res.invalidations, 0, "{res:?}");

    // Repaired entry serves the re-query: cache hit, identical cores, no
    // second preprocessing bill.
    let second = client.enumerate(spec()).expect("warm query");
    assert_eq!(
        second.cache,
        CacheOutcome::Hit,
        "repair must keep the entry"
    );
    assert_eq!(second.cores, first.cores);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.misses, 1, "no recompute after a repair");
    assert!(stats.repairs >= 1);
    assert_eq!(stats.invalidations, 0);

    // Write traffic stays out of the query accounting: two queries, one
    // mutation batch, one applied update.
    let snap = client.metrics().expect("metrics");
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert_eq!(counter("server.queries"), 2);
    assert_eq!(counter("server.mutations"), 1);
    assert_eq!(counter("server.updates_applied"), 1);
    let latency = snap
        .histograms
        .iter()
        .find(|(n, _)| n == "server.query_latency_us")
        .map(|(_, h)| h.count)
        .unwrap_or(0);
    assert_eq!(latency, 2, "mutations must not record query latency");

    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn relevant_mutation_invalidates_and_requery_matches_the_direct_engine() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let first = client.enumerate(spec()).expect("cold query");
    assert_eq!(first.cache, CacheOutcome::Miss);
    assert!(!first.cores.is_empty(), "test instance must be non-trivial");

    // Remove a graph edge inside a returned core: it survived the
    // similarity filter and the peel, so dropping it can genuinely
    // change the answer — the entry must be invalidated.
    let dataset = handle
        .state()
        .datasets
        .get(DATASET, SCALE)
        .expect("dataset resident");
    let view = dataset.view();
    let core = &first.cores[0];
    let (u, v) = core
        .iter()
        .flat_map(|&u| core.iter().map(move |&v| (u, v)))
        .find(|&(u, v)| u < v && view.graph.has_edge(u, v))
        .expect("a (k,r)-core with k >= 1 contains at least one edge");
    let res = client
        .remove_edges(DATASET, SCALE, vec![(u, v)])
        .expect("mutate");
    assert_eq!((res.applied, res.ignored), (1, 0));
    assert!(
        res.invalidations >= 1,
        "an in-core edge removal must invalidate: {res:?}"
    );

    // The re-query recomputes and matches a direct engine run on the
    // mutated dataset.
    let second = client.enumerate(spec()).expect("recompute query");
    assert_eq!(second.cache, CacheOutcome::Miss, "entry must be gone");
    let expect = enumerate_maximal(&dataset.problem(K, R), &AlgoConfig::adv_enum());
    let mut got = second.cores.clone();
    got.sort();
    let expected: Vec<Vec<u32>> = expect.cores.iter().map(|c| c.vertices.clone()).collect();
    assert_eq!(got, expected, "post-mutation answer must be exact");

    // Idempotent replay: removing the same edge again is a no-op — no
    // version bump, nothing to repair or invalidate.
    let res = client
        .remove_edges(DATASET, SCALE, vec![(u, v)])
        .expect("no-op mutate");
    assert_eq!((res.applied, res.ignored), (0, 1));
    assert_eq!((res.repairs, res.invalidations), (0, 0));
    let third = client.enumerate(spec()).expect("still cached");
    assert_eq!(third.cache, CacheOutcome::Hit);
    assert_eq!(third.cores, second.cores);

    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn attribute_update_conservatively_invalidates_and_stays_exact() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let first = client.enumerate(spec()).expect("cold query");
    assert_eq!(first.cache, CacheOutcome::Miss);
    let w = first.cores[0][0];

    // Moving a core member's point far away breaks its similarities; the
    // cached entry cannot be proven intact and must be dropped.
    let res = client
        .set_attributes(DATASET, SCALE, vec![(w, AttributeValue::Point(1e6, 1e6))])
        .expect("mutate");
    assert_eq!(res.applied, 1);
    assert!(res.invalidations >= 1, "{res:?}");

    let dataset = handle
        .state()
        .datasets
        .get(DATASET, SCALE)
        .expect("dataset resident");
    let second = client.enumerate(spec()).expect("recompute query");
    assert_eq!(second.cache, CacheOutcome::Miss);
    let expect = enumerate_maximal(&dataset.problem(K, R), &AlgoConfig::adv_enum());
    let mut got = second.cores.clone();
    got.sort();
    let expected: Vec<Vec<u32>> = expect.cores.iter().map(|c| c.vertices.clone()).collect();
    assert_eq!(got, expected);
    assert!(
        !second.cores.iter().any(|c| c.contains(&w)),
        "a vertex exiled to (1e6, 1e6) cannot sit in any r = {R} core"
    );

    handle.shutdown_and_join().expect("clean shutdown");
}

#[test]
fn invalid_batches_are_rejected_atomically_over_the_wire() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Resolve the dataset (and its true vertex count) up front.
    let probe = client.enumerate(spec()).expect("probe query");
    let dataset = handle
        .state()
        .datasets
        .get(DATASET, SCALE)
        .expect("dataset resident");
    let n = dataset.view().graph.num_vertices() as u32;

    // One good update and one bad one: the whole batch must be rejected
    // with nothing applied and no version bump.
    let err = client
        .add_edges(DATASET, SCALE, vec![(0, 1), (0, n + 7)])
        .expect_err("out-of-range vertex must reject the batch");
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("out of range"), "{message}");
        }
        other => panic!("wrong error {other:?}"),
    }
    assert_eq!(dataset.version(), 0, "rejected batch must not change state");

    // Wrong attribute family is equally fatal.
    let err = client
        .set_attributes(
            DATASET,
            SCALE,
            vec![(0, AttributeValue::Keywords(vec![(1, 1.0)]))],
        )
        .expect_err("family mismatch must reject");
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("family mismatch"), "{message}");
        }
        other => panic!("wrong error {other:?}"),
    }

    // Unknown dataset keeps its own error class.
    let err = client
        .add_edges("no-such-dataset", 1.0, vec![(0, 1)])
        .expect_err("unknown dataset");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::UnknownDataset),
        other => panic!("wrong error {other:?}"),
    }

    // The connection survives every rejection; the cache entry from the
    // probe query is untouched.
    let again = client.enumerate(spec()).expect("connection still usable");
    assert_eq!(again.cache, CacheOutcome::Hit);
    assert_eq!(again.cores, probe.cores);

    handle.shutdown_and_join().expect("clean shutdown");
}

/// Vertex 2 shares keywords with both 0 and 1; the pair (0, 1) has a
/// Jaccard similarity of exactly 3/10 (3 shared of 10 keywords), the
/// query threshold below. The graph is the path 0–2–1 when `with_01` is
/// false and the triangle when it is true.
fn boundary_keyword_server(tag: &str, with_01: bool) -> (kr_server::ServerHandle, PathBuf) {
    let mut edges = vec![(0, 2), (2, 1)];
    if with_01 {
        edges.push((0, 1));
    }
    let kw = |ids: std::ops::Range<u32>| ids.map(|t| (t, 1.0)).collect::<Vec<_>>();
    let attrs = AttributeTable::keywords(vec![kw(0..7), kw(4..10), kw(0..10)]);
    let path = std::env::temp_dir().join(format!("kr_mutation_{tag}_{}.krb", std::process::id()));
    write_snapshot_file(
        &path,
        &Graph::from_edges(3, &edges),
        &[0, 1, 2],
        &attrs,
        Metric::Jaccard,
    )
    .expect("write snapshot");
    let handle = Server::bind(ServerConfig {
        file_datasets: vec![(BOUNDARY.to_string(), path.display().to_string())],
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn();
    (handle, path)
}

const BOUNDARY: &str = "boundary";

/// `k = 2, r = 0.3` on the boundary dataset: the pair (0, 1) sits exactly
/// on the threshold, so it is similar.
fn boundary_spec() -> QuerySpec {
    QuerySpec::new(BOUNDARY, 2, 0.3)
}

/// Inserting an edge whose similarity equals `r` exactly completes a
/// triangle: the cached empty answer must not survive the repair pass.
#[test]
fn inserting_an_edge_at_exactly_r_invalidates_the_entry() {
    let (handle, path) = boundary_keyword_server("insert", false);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let first = client.enumerate(boundary_spec()).expect("cold query");
    assert!(first.cores.is_empty(), "a path holds no 2-core");

    let res = client
        .add_edges(BOUNDARY, 1.0, vec![(0, 1)])
        .expect("mutate");
    assert_eq!((res.applied, res.repairs), (1, 0), "{res:?}");
    let second = client.enumerate(boundary_spec()).expect("re-query");
    assert_eq!(second.cache, CacheOutcome::Miss);
    assert_eq!(second.cores, vec![vec![0, 1, 2]]);

    handle.shutdown_and_join().expect("clean shutdown");
    let _ = std::fs::remove_file(path);
}

/// Removing an edge whose similarity equals `r` exactly breaks the only
/// (k,r)-core: the cached triangle must not survive the repair pass.
#[test]
fn removing_an_edge_at_exactly_r_invalidates_the_entry() {
    let (handle, path) = boundary_keyword_server("remove", true);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let first = client.enumerate(boundary_spec()).expect("cold query");
    assert_eq!(first.cores, vec![vec![0, 1, 2]]);

    let res = client
        .remove_edges(BOUNDARY, 1.0, vec![(0, 1)])
        .expect("mutate");
    assert_eq!((res.applied, res.repairs), (1, 0), "{res:?}");
    let second = client.enumerate(boundary_spec()).expect("re-query");
    assert_eq!(second.cache, CacheOutcome::Miss);
    assert!(second.cores.is_empty(), "{:?}", second.cores);

    handle.shutdown_and_join().expect("clean shutdown");
    let _ = std::fs::remove_file(path);
}
