//! CI bench-smoke gate: quick-mode enumeration benchmarks on two presets,
//! recorded as one JSON trajectory point and compared against a
//! checked-in baseline (CI gates against the newest, `BENCH_pr34.json`; the
//! older `BENCH_*.json` files are earlier points of the same trajectory).
//!
//! ```text
//! bench_smoke check <baseline.json>   # run, compare, exit 1 on regression
//! bench_smoke write <baseline.json>   # run, (re)write the baseline
//! ```
//!
//! Wall-clock on a CI runner is not comparable to wall-clock on the
//! machine that recorded the baseline, so the gate compares *normalized*
//! times: every timed sample is bracketed by two runs of a fixed
//! calibration loop, and a point's normalized time is the median over
//! its samples of wall time / mean of the two (schema 7), which tracks
//! the drift of a shared box within one run. A point regresses when its normalized time exceeds the
//! baseline's by more than `BENCH_SMOKE_MAX_REGRESSION_PCT` percent
//! (default 25). A missing baseline is not an error — the gate arms
//! itself once the first baseline is committed.
//!
//! Schema 2 (PR 4) adds two fields per point, both gated:
//!
//! * `preprocess_ms` — wall time of `ProblemInstance::preprocess`
//!   (informational; folded into the same noise-tolerant wall gate is
//!   pointless since enumeration dominates, so it is recorded but not
//!   gated on its own);
//! * `oracle_evals` — similarity-metric evaluations preprocessing spent.
//!   This is **deterministic** (seeded datasets, deterministic candidate
//!   indexes), so the gate fails on any regression beyond 10% with no
//!   wall-clock noise allowance. `check` reads only baselines that carry
//!   the field (schema 2 on); an older one is unreadable (exit 2).
//!
//! Schema 3 (PR 6) adds the decomposition-index miss path per point:
//!
//! * `index_build_ms` — one-off cost of `DecompositionIndex::build_default`
//!   (informational: paid once per dataset, amortized over every query);
//! * `indexed_preprocess_ms` — `preprocess_with_candidates` over the
//!   index-resolved candidate set, i.e. what a server cache miss pays.
//!   `check` asserts in-run (same machine, same samples — no calibration
//!   needed) that the indexed path beats full preprocessing on the
//!   DblpLike point by at least [`MIN_INDEX_SPEEDUP`]×.
//!
//! Schema 4 (PR 7) adds per-point latency quantiles, informational only
//! (never gated — `SAMPLES` runs are too few for stable tails, but the
//! spread vs `wall_ms` flags noisy runs at a glance):
//!
//! * `p50_us` / `p99_us` — the enumeration samples fed through the same
//!   `kr_obs` log-linear histogram the server uses for
//!   `server.query_latency_us`, so bucket rounding matches production
//!   metrics. Absent in older baselines; `check` never reads them.
//!
//! Schema 5 (PR 9) adds the lazy-dissimilarity story:
//!
//! * a third built-in point, `geo-corridor` — a 26-cluster corridor of
//!   circulant rings (1040 vertices, one giant component, ~1M dissimilar
//!   pairs) sized past the auto-lazy floor, measured with the *maximum*
//!   search (`AlgoConfig::adv_max`) rather than enumeration: the
//!   incumbent + (k,k')-core bound collapse the tree after the first
//!   descent, which is exactly the access pattern the lazy view is for
//!   (enumeration visits every row by construction and would erase the
//!   effect);
//! * `lazy_rows_materialized` / `dissim_pairs_avoided` per point, with an
//!   in-run gate on the lazy view's materialized share (both dropped in
//!   schema 8: no view materializes rows any more).
//!
//! A second in-run gate (no schema change) bounds the corridor point's
//! `peak_component_bytes` by [`corridor_component_bound`]: twice the
//! `n·⌈n/64⌉` words of bit rows the view keeps its similar pairs in. A
//! view that kept a similarity CSR again (486 928 B on this corridor)
//! fails it.
//!
//! Schema 6 (PR 10) adds the write path, measured end to end through an
//! in-process server (two top-level fields, informational — wall-clock
//! across a socket is too noisy to gate):
//!
//! * `updates_per_sec` — effective applied updates per client-observed
//!   wall second over a stream of single-edge mutation batches against
//!   a warm cache (each batch pays apply + incremental coreness
//!   maintenance + the cache repair pass + the wire round trip);
//! * `repair_ms` — mean client-observed wall per batch of that stream;
//! * an in-run mechanism gate: every batch toggles an edge that is
//!   dissimilar at the cached entry's `r`, so the invalidate-and-repair
//!   pass must *repair* (keep) the warm entry on every single batch —
//!   one invalidation fails the run.
//!
//! Schema 7 gates `normalized` (above) per point, drops the top-level
//! `calib_ms`, and reports `preprocess_ms` / `indexed_preprocess_ms` as
//! medians over alternating pairs, whose median ratio the index gate
//! reads. `write` takes 3× the samples. `check`
//! rejects older baselines as unreadable (exit 2).
//!
//! Schema 8 drops the lazy-view fields and adds, per point:
//!
//! * `estimator_visits` — the row words and entries the vertex chooser's
//!   first-hop counts read in one run of the point's search
//!   (`SearchStats::estimator_visits`). Deterministic, so `check` gates
//!   it exactly: any change fails, and a deliberate one rewrites the
//!   baseline. It sees a search regression the ±25% wall gate cannot. A
//!   schema-7 baseline lacks it; that gate is then skipped;
//! * an in-run footprint gate (deterministic, no baseline): every
//!   component of every point with `n ≤ BIT_ROWS_MAX_N` vertices has a
//!   dissimilarity view of exactly `n·⌈n/64⌉·8` bytes.

use kr_bench::{corridor_instance, BenchDataset};
use kr_core::{enumerate_maximal_prepared, find_maximum_prepared, AlgoConfig};
use kr_datagen::DatasetPreset;
use kr_graph::VertexId;
use kr_server::{Client, QuerySpec, Server, ServerConfig};
use kr_similarity::{AttributeTable, BIT_ROWS_MAX_N};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Timed samples per enumeration point; the median normalized sample is
/// gated and the minimum wall time reported.
const SAMPLES: usize = 7;

/// Timed samples of the corridor point (~2 s each).
const CORRIDOR_SAMPLES: usize = 5;

/// Default regression gate, percent over baseline normalized time.
const DEFAULT_MAX_REGRESSION_PCT: f64 = 25.0;

/// Gate on the deterministic oracle-evaluation counter: preprocessing
/// may not spend more than this many percent extra metric evaluations
/// over the baseline (no noise to tolerate — any bigger jump means the
/// candidate indexes lost leverage).
const MAX_ORACLE_EVALS_REGRESSION_PCT: f64 = 10.0;

/// In-run gate on the decomposition-index miss path: on the DblpLike
/// point, `preprocess_with_candidates` over the index-resolved candidates
/// must be at least this many times faster than full preprocessing. Both
/// sides alternate over [`PREPROCESS_PAIRS`] pairs on the same machine
/// in the same process and the gate reads the median per-pair ratio, so
/// the ratio is stable. The metric-aware candidate indexes (PR 4) already
/// made full preprocessing cheap on this point, so the decomposition
/// index's remaining win is modest — measured ~1.2× locally — and the
/// gate guards that it stays a win at all, not a fictional margin.
const MIN_INDEX_SPEEDUP: f64 = 1.05;

/// Alternating full / indexed preprocessing pairs per point.
const PREPROCESS_PAIRS: usize = 21;

/// In-run gate on the corridor's footprint: the largest component may
/// take at most twice the bit rows of an `n`-vertex view (`n·⌈n/64⌉`
/// words; ~283 KB for the 1 040-vertex corridor), leaving room for its
/// adjacency and id map. Deterministic.
fn corridor_component_bound(n: usize) -> usize {
    2 * n * n.div_ceil(64) * std::mem::size_of::<u64>()
}

struct Point {
    preset: String,
    scale: f64,
    k: u32,
    r: f64,
    wall_ms: f64,
    /// Median normalized sample time (see the module doc).
    normalized: f64,
    preprocess_ms: f64,
    index_build_ms: f64,
    indexed_preprocess_ms: f64,
    /// Median over alternating pairs of full / indexed preprocessing
    /// time (0 where the index path is not measured).
    index_speedup: f64,
    oracle_evals: u64,
    p50_us: u64,
    p99_us: u64,
    peak_component_bytes: usize,
    /// `SearchStats::estimator_visits` of one run of the point's search.
    estimator_visits: u64,
    /// Components of at most `BIT_ROWS_MAX_N` vertices whose view is not
    /// exactly `n·⌈n/64⌉·8` bytes, as `(n, bytes)` (gated empty; not
    /// written to the baseline).
    off_layout: Vec<(usize, usize)>,
}

/// The components of `comps` with at most `BIT_ROWS_MAX_N` vertices
/// whose dissimilarity view is not exactly their bit rows, as
/// `(n, view bytes)`.
fn off_bit_row_layout(comps: &[kr_core::LocalComponent]) -> Vec<(usize, usize)> {
    comps
        .iter()
        .map(|c| (c.len(), c.dissimilarity().heap_bytes()))
        .filter(|&(n, bytes)| n <= BIT_ROWS_MAX_N && bytes != n * n.div_ceil(64) * 8)
        .collect()
}

fn quick_cases() -> Vec<(DatasetPreset, f64, u32, f64)> {
    vec![
        // One geo preset, one keyword preset; parameters chosen so the
        // enumeration does real search work (tens to hundreds of ms) but
        // stays far from the pathological blow-up region.
        (DatasetPreset::GowallaLike, 1.0, 3, 12.0),
        (DatasetPreset::DblpLike, 1.0, 3, 10.0),
    ]
}

/// One run of a fixed calibration loop, in ms: the unit wall times are
/// normalized by. Two xorshift streams index a 256 KiB table and steer
/// unpredictable branches: like the search, and unlike a register-only
/// loop, it slows down when a neighbour contends for the core.
fn calibration_sample_ms() -> f64 {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..1 << 16)
            .map(|_| {
                x = xorshift(x);
                x as u32
            })
            .collect()
    });
    let mask = table.len() - 1;
    let t = Instant::now();
    let (mut x, mut y) = (0x9E37_79B9_7F4A_7C15u64, 0x2545_F491_4F6C_DD1Du64);
    let (mut a, mut b) = (0u64, 0u64);
    for _ in 0..4_000_000 {
        x = xorshift(x);
        y = xorshift(y);
        let (p, q) = (table[x as usize & mask], table[y as usize & mask]);
        if p & 1 == 0 {
            a = a.wrapping_add(u64::from(q));
        } else {
            b ^= u64::from(p);
        }
        if q & 2 == 0 {
            b = b.wrapping_add(1);
        }
    }
    black_box((a, b));
    t.elapsed().as_secs_f64() * 1e3
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Timed samples of `run`, each bracketed by calibration samples.
struct Timed {
    /// Best sample wall time in ms.
    best_ms: f64,
    /// Median over samples of wall / mean(calibration before, after).
    normalized: f64,
    /// The samples through the log-linear histogram the server feeds for
    /// `server.query_latency_us`, so quantiles carry its bucket rounding.
    latency: kr_obs::HistogramSnapshot,
}

fn timed(samples: usize, mut run: impl FnMut()) -> Timed {
    let hist = kr_obs::Histogram::default();
    let (mut best_ms, mut ratios) = (f64::INFINITY, Vec::with_capacity(samples));
    let mut before = calibration_sample_ms();
    for _ in 0..samples {
        let t = Instant::now();
        run();
        let elapsed = t.elapsed();
        let after = calibration_sample_ms();
        hist.record_duration(elapsed);
        let wall = elapsed.as_secs_f64() * 1e3;
        best_ms = best_ms.min(wall);
        ratios.push(wall / ((before + after) / 2.0));
        before = after;
    }
    Timed {
        best_ms,
        normalized: median(&mut ratios),
        latency: hist.snapshot(),
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Optional snapshot-backed point: when `BENCH_SMOKE_SNAPSHOT` names a
/// `.krb` file, its dataset is measured alongside the synthetic presets
/// (`BENCH_SMOKE_SNAPSHOT_K` / `BENCH_SMOKE_SNAPSHOT_R` override the
/// default parameters; `r` defaults by metric direction). The point is
/// written into the trajectory JSON like any other; `check` gates it
/// only once a baseline recorded it, so machines without the file — CI
/// included — are unaffected. This is how the perf trajectory moves onto
/// real Table 3 data once the SNAP originals are ingested.
fn snapshot_case() -> Option<(String, kr_core::ProblemInstance, u32, f64)> {
    let path = std::env::var("BENCH_SMOKE_SNAPSHOT").ok()?;
    let ds = match kr_similarity::read_snapshot_file(&path) {
        Ok(ds) => ds,
        Err(e) => {
            eprintln!("BENCH_SMOKE_SNAPSHOT {path}: {e}");
            std::process::exit(2);
        }
    };
    let env_num = |key: &str| std::env::var(key).ok().and_then(|v| v.parse().ok());
    let k: u32 = env_num("BENCH_SMOKE_SNAPSHOT_K").unwrap_or(3.0) as u32;
    let r: f64 = env_num("BENCH_SMOKE_SNAPSHOT_R").unwrap_or(if ds.metric.is_distance() {
        10.0
    } else {
        0.3
    });
    let threshold = if ds.metric.is_distance() {
        kr_similarity::Threshold::MaxDistance(r)
    } else {
        kr_similarity::Threshold::MinSimilarity(r)
    };
    let name = std::path::Path::new(&path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".to_string());
    let problem = kr_core::ProblemInstance::new(ds.graph, ds.attributes, ds.metric, threshold, k);
    Some((format!("snapshot:{name}"), problem, k, r))
}

fn measure_instance(
    name: String,
    scale: f64,
    k: u32,
    r: f64,
    p: &kr_core::ProblemInstance,
    samples: usize,
) -> Point {
    let comps = p.preprocess();
    // The decomposition-index miss path: build once (amortized per
    // dataset in the server), then preprocess only the index-resolved
    // candidates. Full and indexed preprocessing alternate (which goes
    // first alternates too), and the speedup is the median of the
    // per-pair ratios, so drift of the box hits both sides alike.
    let t = Instant::now();
    let index = kr_core::DecompositionIndex::build_default(p.graph(), p.oracle());
    let index_build_ms = t.elapsed().as_secs_f64() * 1e3;
    let candidates = index.candidates(k, p.oracle().threshold());
    let (mut full_ms, mut indexed_ms) = (Vec::new(), Vec::new());
    for pair in 0..PREPROCESS_PAIRS {
        for indexed in [pair % 2 == 1, pair % 2 == 0] {
            let t = Instant::now();
            let components = black_box(if indexed {
                p.preprocess_with_candidates(&candidates.vertices).len()
            } else {
                p.preprocess().len()
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                components,
                comps.len(),
                "indexed preprocessing must reproduce the component split"
            );
            if indexed {
                &mut indexed_ms
            } else {
                &mut full_ms
            }
            .push(ms);
        }
    }
    let mut speedups: Vec<f64> = full_ms
        .iter()
        .zip(&indexed_ms)
        .map(|(f, i)| f / i.max(1e-6))
        .collect();
    let oracle_evals = comps.iter().map(|c| c.oracle_evals).sum();
    let peak_component_bytes = comps.iter().map(|c| c.memory_bytes()).max().unwrap_or(0);
    let cfg = AlgoConfig::adv_enum();
    let estimator_visits = enumerate_maximal_prepared(&comps, &cfg)
        .stats
        .estimator_visits;
    let run = timed(samples, || {
        black_box(enumerate_maximal_prepared(&comps, &cfg).cores.len());
    });
    Point {
        preset: name,
        scale,
        k,
        r,
        wall_ms: run.best_ms,
        normalized: run.normalized,
        preprocess_ms: median(&mut full_ms),
        index_build_ms,
        indexed_preprocess_ms: median(&mut indexed_ms),
        index_speedup: median(&mut speedups),
        oracle_evals,
        p50_us: run.latency.quantile(0.5),
        p99_us: run.latency.quantile(0.99),
        peak_component_bytes,
        estimator_visits,
        off_layout: off_bit_row_layout(&comps),
    }
}

/// Measures the corridor point: maximum search (not enumeration — see
/// the module doc), `samples` at ~2 s each. The decomposition-index
/// fields stay 0: the miss-path story is told by the DblpLike point and
/// repeating it here would double the corridor's wall for no new signal.
/// Returns the point plus its vertex count (the footprint gate's input).
fn measure_corridor(samples: usize) -> (Point, usize) {
    const CLUSTERS: usize = 26;
    const SIZE: usize = 40;
    const K: u32 = 3;
    const R: f64 = 7.0;
    let p = corridor_instance(CLUSTERS, SIZE, K, R);
    let mut preprocess_ms = f64::INFINITY;
    let mut comps = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        comps = p.preprocess();
        preprocess_ms = preprocess_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let oracle_evals = comps.iter().map(|c| c.oracle_evals).sum();
    let cfg = AlgoConfig::adv_max();
    let estimator_visits = find_maximum_prepared(&comps, &cfg).stats.estimator_visits;
    let run = timed(samples, || {
        let res = black_box(find_maximum_prepared(&comps, &cfg));
        assert!(res.completed, "corridor maximum search must complete");
    });
    let peak_component_bytes = comps.iter().map(|c| c.memory_bytes()).max().unwrap_or(0);
    let point = Point {
        preset: "geo-corridor".to_string(),
        scale: 1.0,
        k: K,
        r: R,
        wall_ms: run.best_ms,
        normalized: run.normalized,
        preprocess_ms,
        index_build_ms: 0.0,
        indexed_preprocess_ms: 0.0,
        index_speedup: 0.0,
        oracle_evals,
        p50_us: run.latency.quantile(0.5),
        p99_us: run.latency.quantile(0.99),
        peak_component_bytes,
        estimator_visits,
        off_layout: off_bit_row_layout(&comps),
    };
    (point, CLUSTERS * SIZE)
}

/// Measures the write path end to end (schema 6): an in-process server
/// with one warm cache entry takes [`MUTATION_BATCHES`] single-edge
/// mutation batches, each toggling a non-edge whose endpoints are far
/// beyond the cached entry's `r` — provably filtered by preprocessing,
/// so the repair pass must keep the entry every time (asserted; one
/// invalidation aborts the run). Returns `(updates_per_sec, repair_ms)`.
fn measure_mutation() -> (f64, f64) {
    const DATASET: &str = "gowalla-like";
    const K: u32 = 3;
    const R: f64 = 12.0;
    let handle = Server::bind(ServerConfig::default())
        .expect("bind ephemeral port")
        .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut spec = QuerySpec::new(DATASET, K, R);
    spec.scale = 1.0;
    let warm = client.enumerate(spec).expect("warm query");
    assert!(!warm.cores.is_empty(), "warm instance must be non-trivial");

    // A non-adjacent pair far beyond R: its edge never survives the
    // dissimilar-edge filter at this r, so toggling it cannot change the
    // cached component set.
    let dataset = handle
        .state()
        .datasets
        .get(DATASET, 1.0)
        .expect("dataset resident after the warm query");
    let view = dataset.view();
    let AttributeTable::Points(rows) = view.attributes.as_ref() else {
        panic!("gowalla-like carries points");
    };
    let n = view.graph.num_vertices() as VertexId;
    let far = |u: VertexId, v: VertexId| {
        let (a, b) = (rows[u as usize], rows[v as usize]);
        ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt() > 2.0 * R
    };
    let (u, v) = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .find(|&(u, v)| !view.graph.has_edge(u, v) && far(u, v))
        .expect("a dissimilar non-edge exists");

    let t = Instant::now();
    let mut applied = 0u64;
    for i in 0..MUTATION_BATCHES {
        let res = if i % 2 == 0 {
            client.add_edges(DATASET, 1.0, vec![(u, v)])
        } else {
            client.remove_edges(DATASET, 1.0, vec![(u, v)])
        }
        .expect("mutation batch");
        assert_eq!((res.applied, res.ignored), (1, 0), "toggle is effective");
        assert!(
            res.repairs >= 1 && res.invalidations == 0,
            "a dissimilar-edge toggle must repair the warm entry, not \
             invalidate it: {res:?}"
        );
        applied += res.applied;
    }
    let wall_s = t.elapsed().as_secs_f64();
    handle.shutdown_and_join().expect("clean shutdown");
    (
        applied as f64 / wall_s,
        wall_s * 1e3 / MUTATION_BATCHES as f64,
    )
}

/// Mutation batches in the schema-6 write-path measurement.
const MUTATION_BATCHES: usize = 200;

fn render(updates_per_sec: f64, repair_ms: f64, points: &[Point]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 8,\n");
    out.push_str(&format!(
        "  \"updates_per_sec\": {updates_per_sec:.1},\n  \"repair_ms\": {repair_ms:.4},\n"
    ));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"preset\": \"{}\", \"scale\": {}, \"k\": {}, \"r\": {}, \
             \"wall_ms\": {:.3}, \"normalized\": {:.5}, \"preprocess_ms\": {:.3}, \
             \"index_build_ms\": {:.3}, \
             \"indexed_preprocess_ms\": {:.3}, \"oracle_evals\": {}, \
             \"p50_us\": {}, \"p99_us\": {}, \
             \"peak_component_bytes\": {}, \"estimator_visits\": {}}}{comma}\n",
            p.preset,
            p.scale,
            p.k,
            p.r,
            p.wall_ms,
            p.normalized,
            p.preprocess_ms,
            p.index_build_ms,
            p.indexed_preprocess_ms,
            p.oracle_evals,
            p.p50_us,
            p.p99_us,
            p.peak_component_bytes,
            p.estimator_visits
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Minimal scanner for the flat schema this binary itself writes: finds
/// `"key": <number>` after `from` and returns the number. Not a general
/// JSON parser — both reader and writer live in this file.
fn scan_num(text: &str, key: &str, from: usize) -> Option<(f64, usize)> {
    let needle = format!("\"{key}\":");
    let at = text[from..].find(&needle)? + from + needle.len();
    let rest = text[at..].trim_start();
    let off = at + (text[at..].len() - rest.len());
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok().map(|v| (v, off + end))
}

fn scan_str(text: &str, key: &str, from: usize) -> Option<(String, usize)> {
    let needle = format!("\"{key}\": \"");
    let at = text[from..].find(&needle)? + from + needle.len();
    let end = text[at..].find('"')? + at;
    Some((text[at..end].to_string(), end))
}

struct BaselinePoint {
    preset: String,
    scale: f64,
    k: f64,
    r: f64,
    normalized: f64,
    oracle_evals: f64,
    /// Absent in schema-7 baselines.
    estimator_visits: Option<f64>,
}

fn parse_baseline(text: &str) -> Option<Vec<BaselinePoint>> {
    let mut pos = 0;
    let mut points = Vec::new();
    while let Some((preset, next)) = scan_str(text, "preset", pos) {
        let (scale, next) = scan_num(text, "scale", next)?;
        let (k, next) = scan_num(text, "k", next)?;
        let (r, next) = scan_num(text, "r", next)?;
        let (normalized, next) = scan_num(text, "normalized", next)?;
        let (oracle_evals, next) = scan_num(text, "oracle_evals", next)?;
        // Read only up to the next point's preset, so a schema-7 point
        // never picks up a later point's field.
        let end = text[next..]
            .find("\"preset\"")
            .map_or(text.len(), |at| next + at);
        let estimator_visits = scan_num(&text[..end], "estimator_visits", next).map(|(v, _)| v);
        points.push(BaselinePoint {
            preset,
            scale,
            k,
            r,
            normalized,
            oracle_evals,
            estimator_visits,
        });
        pos = next;
    }
    (!points.is_empty()).then_some(points)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path) = match args.as_slice() {
        [mode, path] if mode == "check" || mode == "write" => (mode.as_str(), path.as_str()),
        _ => {
            eprintln!("usage: bench_smoke <check|write> <baseline.json>");
            std::process::exit(2);
        }
    };

    // `write` takes 3× the samples, so the baseline sits near the median
    // of the box's drift.
    let factor = if mode == "write" { 3 } else { 1 };
    let samples = factor * SAMPLES;
    // One instance lives at a time: each dataset is built, measured, and
    // dropped before the next — peak memory is the largest single case,
    // not the sum (the snapshot case is meant for real Table 3 data).
    let report = |p: &Point| {
        println!(
            "{:<16} scale {:<5} k {} r {:<5} wall {:>9.3} ms  (normalized {:.4})  \
             preprocess {:>8.3} ms  indexed {:>8.3} ms (build {:.3} ms)  \
             {} oracle evals  p50/p99 {}/{} us  peak component {} bytes  \
             {} estimator visits",
            p.preset,
            p.scale,
            p.k,
            p.r,
            p.wall_ms,
            p.normalized,
            p.preprocess_ms,
            p.indexed_preprocess_ms,
            p.index_build_ms,
            p.oracle_evals,
            p.p50_us,
            p.p99_us,
            p.peak_component_bytes,
            p.estimator_visits
        );
    };
    let mut points: Vec<Point> = quick_cases()
        .into_iter()
        .map(|(preset, scale, k, r)| {
            let ds = BenchDataset::new(preset, scale);
            let instance = ds.instance(k, r);
            let p = measure_instance(preset.name().to_string(), scale, k, r, &instance, samples);
            report(&p);
            p
        })
        .collect();
    let (corridor_point, corridor_n) = measure_corridor(factor * CORRIDOR_SAMPLES);
    let corridor_peak = corridor_point.peak_component_bytes;
    report(&corridor_point);
    points.push(corridor_point);
    if let Some((name, problem, k, r)) = snapshot_case() {
        // Snapshot points carry scale 1 by convention: the file pins the
        // dataset, there is nothing to scale.
        let p = measure_instance(name, 1.0, k, r, &problem, samples);
        report(&p);
        points.push(p);
    }
    // The write path: informational numbers, but the repair-not-invalidate
    // mechanism is asserted inside — a wrongly-invalidating cache fails
    // both `check` and `write` here.
    let (updates_per_sec, repair_ms) = measure_mutation();
    println!(
        "{:<16} {updates_per_sec:>9.1} updates/s  {repair_ms:.4} ms/batch \
         (warm-cache repair stream, {MUTATION_BATCHES} batches)",
        "mutation"
    );

    if mode == "write" {
        std::fs::write(path, render(updates_per_sec, repair_ms, &points)).expect("write baseline");
        println!("baseline written to {path}");
        return;
    }

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(_) => {
            println!("no baseline at {path}; gate inactive (commit one with `bench_smoke write`)");
            return;
        }
    };
    let Some(base_points) = parse_baseline(&text) else {
        eprintln!("baseline {path} is unreadable");
        std::process::exit(2);
    };
    let max_pct: f64 = std::env::var("BENCH_SMOKE_MAX_REGRESSION_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_MAX_REGRESSION_PCT);

    let mut failed = false;
    // In-run index gate: both sides measured in this process on this
    // machine, so no baseline or calibration is involved. DblpLike is the
    // gated point (keyword metric, the heavier preprocessing of the two).
    for p in points.iter().filter(|p| p.preset == "dblp-like") {
        let speedup = p.index_speedup;
        let verdict = if speedup < MIN_INDEX_SPEEDUP {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{:<16} indexed miss path {:.3} ms vs full preprocess {:.3} ms  \
             ({speedup:.2}x, gate {MIN_INDEX_SPEEDUP}x)  {verdict}",
            p.preset, p.indexed_preprocess_ms, p.preprocess_ms
        );
    }
    // In-run layout gate: deterministic, no baseline involved. Every
    // component up to the bit-row cutoff keeps exactly its bit rows.
    for p in &points {
        let verdict = if p.off_layout.is_empty() {
            "ok"
        } else {
            failed = true;
            "REGRESSION"
        };
        println!(
            "{:<16} views of n <= {BIT_ROWS_MAX_N} vertices off n*ceil(n/64)*8 bytes: \
             {:?}  {verdict}",
            p.preset, p.off_layout
        );
    }
    // In-run footprint gate: deterministic, no baseline involved.
    {
        let bound = corridor_component_bound(corridor_n);
        let verdict = if corridor_peak > bound {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{:<16} largest component {corridor_peak} B  (gate {bound} B)  {verdict}",
            "geo-corridor"
        );
    }
    for p in &points {
        // Match on the full workload identity, not just the preset name:
        // comparing against a baseline recorded for different (scale, k,
        // r) would gate incomparable numbers.
        let Some(base) = base_points.iter().find(|b| {
            b.preset == p.preset && b.scale == p.scale && b.k == f64::from(p.k) && b.r == p.r
        }) else {
            println!(
                "{:<16} no baseline point for scale {} k {} r {}; skipping \
                 (rewrite the baseline after retuning quick_cases)",
                p.preset, p.scale, p.k, p.r
            );
            continue;
        };
        let (now, then) = (p.normalized, base.normalized);
        let delta_pct = (now / then - 1.0) * 100.0;
        let verdict = if delta_pct > max_pct {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{:<16} normalized {now:.4} vs baseline {then:.4}  ({delta_pct:+.1}%, gate {max_pct}%)  {verdict}",
            p.preset
        );
        // Deterministic counter: no calibration, tight gate.
        let base_evals = base.oracle_evals;
        let delta_pct = (p.oracle_evals as f64 / base_evals - 1.0) * 100.0;
        let verdict = if delta_pct > MAX_ORACLE_EVALS_REGRESSION_PCT {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{:<16} oracle evals {} vs baseline {base_evals:.0}  ({delta_pct:+.1}%, gate {MAX_ORACLE_EVALS_REGRESSION_PCT}%)  {verdict}",
            p.preset, p.oracle_evals
        );
        // Deterministic counter: gated exactly.
        match base.estimator_visits {
            Some(then) => {
                let verdict = if p.estimator_visits as f64 == then {
                    "ok"
                } else {
                    failed = true;
                    "CHANGED (rewrite the baseline if intended)"
                };
                println!(
                    "{:<16} estimator visits {} vs baseline {then:.0}  (gate: equal)  {verdict}",
                    p.preset, p.estimator_visits
                );
            }
            None => println!(
                "{:<16} estimator visits {}: the baseline predates them; not gated",
                p.preset, p.estimator_visits
            ),
        }
    }
    if failed {
        eprintln!(
            "bench-smoke gate failed: wall time regressed > {max_pct}%, oracle evals \
             regressed > {MAX_ORACLE_EVALS_REGRESSION_PCT}%, estimator visits changed, \
             the index miss path lost its speedup, a view left its bit-row layout, \
             or a corridor component outgrew its bit-row bound"
        );
        std::process::exit(1);
    }
}
