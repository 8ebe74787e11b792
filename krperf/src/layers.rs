//! Per-layer metrics for the traced run. Two sources:
//!
//! * the server's own spans (`ServerConfig::trace_log`), joined to the
//!   client's calls by the trace id every `done`/`mutated` frame echoes;
//! * the benchmark's own timers around calls into each layer's public
//!   functions, on the workload's keys ("replays", run in-process after
//!   the window against the server's resident datasets).
//!
//! Which end-to-end metric each layer metric should move, and where its
//! layer does little (so the prediction there is "no change"):
//!
//! | layer | should move | little work on |
//! |---|---|---|
//! | `protocol.*` | `query_p50_ms`, `queries_per_s` on hot-read | cold-miss |
//! | `session.*` | `query_p50_ms`, `query_tail_ms` on hot-read | cold-miss |
//! | `cache.*` | `query_p50_ms` on hot-read; `query_tail_ms`, `queries_per_s` on read-write; `peak_rss_mb` | cold-miss |
//! | `datasets.*` | `setup_s` everywhere; `queries_per_s` on read-write (and its printed `update_*`) | hot-read after set-up |
//! | `decomp.*` | `query_p50_ms` on cold-miss; `setup_s` | hot-read |
//! | `preprocess.*` | `query_p50_ms` on cold-miss; `query_tail_ms` on read-write | hot-read |
//! | `search.*` | `queries_per_s` on cold-miss (the corridor maximum) | hot-read |
//! | `order.choose_root_us` | `queries_per_s` on cold-miss (the corridor maximum) | hot-read |
//! | `bounds.root_us` | `queries_per_s` on cold-miss (the corridor maximum) | hot-read |
//! | `maximal.check_us` | `query_p50_ms` on cold-miss (enumeration) | hot-read |
//! | `parallel.*` | none while every workload runs `threads=1` (reported) | every workload |
//! | `component.*` | `peak_rss_mb`, `queries_per_s` on cold-miss (the lazy corridor component) | hot-read |
//! | `verify.us_per_answer` | none; sizes a sampled self-check | — |
//! | `trace.*` | none (reported) | — |
//!
//! The gated `query_cpu_tail_ratio` moves with whatever adds more work
//! to the slow reads than to the median read on the same workload.
//!
//! The write-path metrics (`datasets.apply_us`, `cache.repair_us`,
//! `cache.keep_ratio`, `session.mutation_self_us`, ...) are 0 on the
//! read-only workloads, which send no writes.
//!
//! Self time of a span is its duration minus the time its child spans
//! cover. `session.self_us` is the server query span (`request` event to
//! `query` event) minus its `cache_lookup` and `search` children;
//! `cache.lookup_self_us` is `cache_lookup` minus `index_candidates` and
//! `preprocess`; the leaf spans' self times are their durations
//! (`decomp.candidates_us`, `preprocess.us`, `search.us`, ...).
//! `trace.unattributed_us` is the client latency no server phase span
//! covers.

use crate::check::CheckResult;
use crate::plan::{Algo, Key, Plan, CORRIDOR};
use crate::run::{anchor, trace_id, OpKind, OpRec, SetupSample, Status, WindowLog};
use crate::{hit_ratio, mean, median, metric, write_totals, Metric};
use kr_core::bounds::size_upper_bound;
use kr_core::maximal::check_maximal;
use kr_core::order::Chooser;
use kr_core::search::{SearchState, SearchStats};
use kr_core::{
    enumerate_maximal_prepared, find_maximum_prepared, AlgoConfig, BoundKind, LocalComponent,
};
use kr_graph::components::connected_components_of_subset;
use kr_graph::VertexId;
use kr_server::json::Json;
use kr_server::{Frame, HostedDataset, Request, ServerHandle};
use kr_similarity::{DissimMode, SimilarityOracle, TableOracle};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Cold-miss keys replayed (its window draws thousands).
const COLD_REPLAY_KEYS: usize = 40;

/// A span recorded by the benchmark itself.
pub struct Span {
    pub name: String,
    pub trace: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
}

/// Wall-clock microseconds since the Unix epoch for an `Instant`, on the
/// same clock the server stamps its span events with.
pub fn epoch_us(t: Instant) -> u64 {
    static ANCHOR: OnceLock<(Instant, u64)> = OnceLock::new();
    let (at, sys) = *ANCHOR.get_or_init(|| {
        let sys = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_micros() as u64);
        (Instant::now(), sys)
    });
    match t.checked_duration_since(at) {
        Some(d) => sys + d.as_micros() as u64,
        None => sys - (at - t).as_micros() as u64,
    }
}

/// What the replays measured.
#[derive(Default)]
pub struct Replay {
    pub spans: Vec<Span>,
    pub keys: usize,
    pub candidate_frac: Vec<f64>,
    pub candidate_precision: Vec<f64>,
    pub filter_us: Vec<f64>,
    pub peel_us: Vec<f64>,
    pub split_us: Vec<f64>,
    pub arena_us: Vec<f64>,
    pub oracle_evals: Vec<f64>,
    pub stats: SearchStats,
    pub answers: u64,
    pub choose_root_us: Vec<f64>,
    pub bound_root_us: Vec<f64>,
    pub check_us: Vec<f64>,
    pub seq_search_s: f64,
    pub par_search_s: f64,
    pub resplits: u64,
    pub lazy_rows: u64,
    pub peak_bytes: u64,
}

impl Replay {
    /// Runs `f` inside a benchmark span named `name` under `parent`.
    fn span<T>(
        &mut self,
        name: &str,
        trace: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            trace: trace.to_string(),
            start_us: epoch_us(start),
            end_us: epoch_us(end),
            parent,
        });
        (out, (end - start).as_secs_f64() * 1e6)
    }
}

/// The keys the replays run: the workload's fixed keys, or the first
/// cold-miss draws of the traced window.
fn replay_keys(plan: &Plan, log: &WindowLog) -> Vec<Key> {
    if !plan.keys.is_empty() {
        return plan.keys.clone();
    }
    let mut keys: Vec<Key> = Vec::new();
    for op in &log.ops {
        if let OpKind::Read { key, .. } = op.kind {
            let key = log.keys[key as usize];
            if !keys.iter().any(|k| k.id() == key.id()) {
                keys.push(key);
            }
        }
        if keys.len() == COLD_REPLAY_KEYS {
            break;
        }
    }
    keys
}

/// Times the layers' public functions on the workload's keys, against
/// the server's resident datasets (read-write replays on a fresh copy of
/// the base graph, since its window left the server's graph mutated).
pub fn replay(plan: &Plan, log: &WindowLog, server: &ServerHandle) -> Replay {
    let state = server.state();
    let mut datasets: HashMap<&str, Arc<HostedDataset>> = HashMap::new();
    let mut r = Replay::default();
    let keys = replay_keys(plan, log);
    r.keys = keys.len();
    for key in &keys {
        let ds = datasets
            .entry(key.dataset)
            .or_insert_with(|| {
                if plan.toggles.is_empty() {
                    state
                        .datasets
                        .get(key.dataset, key.scale)
                        .expect("resident")
                } else {
                    let s = &plan.shadows[key.dataset];
                    Arc::new(HostedDataset::new(
                        "replay".to_string(),
                        s.graph.clone(),
                        s.attrs.clone(),
                        s.metric,
                    ))
                }
            })
            .clone();
        replay_key(&mut r, &ds, key);
    }
    r
}

fn replay_key(r: &mut Replay, ds: &HostedDataset, key: &Key) {
    let label = key.label();
    let root = r.spans.len();
    r.spans.push(Span {
        name: "replay.key".to_string(),
        trace: label.clone(),
        start_us: epoch_us(Instant::now()),
        end_us: 0,
        parent: None,
    });
    let p = Some(root);
    let view = ds.view();
    let k = key.k;
    let threshold = ds.threshold(key.r);
    let oracle = TableOracle::from_shared(view.attributes.clone(), ds.metric(), threshold);
    let index = ds.decomposition();
    let (cand, _) = r.span("replay.index_candidates", &label, p, || {
        index.candidates(k, threshold).vertices
    });
    let mut filter_evals = 0u64;
    let (filtered, us) = r.span("replay.filter", &label, p, || {
        view.graph.filter_edges_within(&cand, |u, v| {
            filter_evals += 1;
            oracle.is_similar(u, v)
        })
    });
    r.filter_us.push(us);
    let (core, us) = r.span("replay.peel", &label, p, || kr_graph::k_core(&filtered, k));
    r.peel_us.push(us);
    let (groups, us) = r.span("replay.split", &label, p, || {
        connected_components_of_subset(&filtered, &core)
            .groups()
            .into_iter()
            .filter(|g| g.len() > k as usize)
            .collect::<Vec<_>>()
    });
    r.split_us.push(us);
    let (arenas, us) = r.span("replay.arena", &label, p, || {
        groups
            .iter()
            .map(|g| LocalComponent::build(&filtered, &oracle, g, k, DissimMode::Auto))
            .collect::<Vec<_>>()
    });
    r.arena_us.push(us);
    let arena_evals: u64 = arenas.iter().map(|c| c.oracle_evals).sum();
    r.oracle_evals.push((filter_evals + arena_evals) as f64);
    r.candidate_frac
        .push(cand.len() as f64 / view.graph.num_vertices() as f64);
    r.candidate_precision
        .push(core.len() as f64 / cand.len().max(1) as f64);
    drop(arenas);

    // The server's own component order, for a search replay that matches
    // the served one.
    let comps = ds.problem(k, key.r).preprocess_with_candidates(&cand);
    let cfg = match key.algo {
        Algo::Enum => AlgoConfig::adv_enum(),
        Algo::Max => AlgoConfig::adv_max(),
    };
    for comp in &comps {
        let st = SearchState::new(comp);
        let mut chooser = Chooser::new(&cfg, comp.len());
        let (_, us) = r.span("replay.choose_root", &label, p, || {
            black_box(chooser.choose(&st, false))
        });
        r.choose_root_us.push(us);
        let (_, us) = r.span("replay.bound_root", &label, p, || {
            black_box(size_upper_bound(&st, BoundKind::DoubleKCore))
        });
        r.bound_root_us.push(us);
    }
    let ((stats, cores), us) = r.span("replay.search", &label, p, || match key.algo {
        Algo::Enum => {
            let res = enumerate_maximal_prepared(&comps, &cfg);
            (
                res.stats,
                res.cores
                    .into_iter()
                    .map(|c| c.vertices)
                    .collect::<Vec<_>>(),
            )
        }
        Algo::Max => {
            let res = find_maximum_prepared(&comps, &cfg);
            (
                res.stats,
                res.core.into_iter().map(|c| c.vertices).collect(),
            )
        }
    });
    let seq_s = us / 1e6;
    add_stats(&mut r.stats, &stats);
    r.answers += cores.len() as u64;
    if key.algo == Algo::Enum {
        for core in &cores {
            let Some(comp) = comps
                .iter()
                .find(|c| c.local_to_global.binary_search(&core[0]).is_ok())
            else {
                continue;
            };
            let local: Vec<VertexId> = core
                .iter()
                .map(|v| comp.local_to_global.binary_search(v).expect("member") as VertexId)
                .collect();
            let others: Vec<VertexId> = (0..comp.len() as VertexId)
                .filter(|v| local.binary_search(v).is_err())
                .collect();
            let (maximal, us) = r.span("replay.check_maximal", &label, p, || {
                check_maximal(comp, k, &local, &others)
            });
            assert!(maximal, "a returned core failed its maximal check");
            r.check_us.push(us);
        }
    }
    // The corridor's maximum search is a few nodes deep: threads cannot
    // split it, and replaying it twice would lengthen the run by seconds.
    if key.dataset != CORRIDOR {
        let par = cfg.clone().with_threads(2);
        let (resplits, us) = r.span("replay.parallel_search", &label, p, || match key.algo {
            Algo::Enum => enumerate_maximal_prepared(&comps, &par).stats.resplits,
            Algo::Max => find_maximum_prepared(&comps, &par).stats.resplits,
        });
        r.seq_search_s += seq_s;
        r.par_search_s += us / 1e6;
        r.resplits += resplits;
    }
    for c in &comps {
        if c.is_dissimilarity_lazy() {
            r.lazy_rows += c.dissimilarity().materialized_rows() as u64;
        }
        r.peak_bytes = r.peak_bytes.max(c.memory_bytes() as u64);
    }
    r.spans[root].end_us = epoch_us(Instant::now());
}

fn add_stats(total: &mut SearchStats, s: &SearchStats) {
    total.nodes += s.nodes;
    total.leaves += s.leaves;
    total.early_terminations += s.early_terminations;
    total.bound_prunes += s.bound_prunes;
    total.maximal_checks += s.maximal_checks;
}

/// The server-side spans of one trace id.
#[derive(Default, Clone)]
struct ServerTrace {
    request_ts: Option<u64>,
    end_ts: Option<u64>,
    lookup: Option<(u64, u64, bool)>,
    index: Option<(u64, u64)>,
    preprocess: Option<(u64, u64)>,
    search: Option<(u64, u64)>,
    apply: Option<(u64, u64)>,
    repair: Option<(u64, u64)>,
    write_us: u64,
}

impl ServerTrace {
    /// The server query (or mutation) span: `request` event to the
    /// closing `query` (or `mutation`) event.
    fn span_us(&self) -> Option<f64> {
        Some(self.end_ts?.saturating_sub(self.request_ts?) as f64)
    }
}

fn dur(s: &Option<(u64, u64)>) -> f64 {
    s.map_or(0.0, |(_, d)| d as f64)
}

/// Reads the server's span log, keyed by trace id.
fn read_server_log(path: &Path) -> HashMap<u64, ServerTrace> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut traces: HashMap<u64, ServerTrace> = HashMap::new();
    for line in text.lines() {
        let Ok(ev) = Json::parse(line) else { continue };
        let (Some(trace), Some(span), Some(ts)) = (
            ev.get("trace").and_then(Json::as_str),
            ev.get("span").and_then(Json::as_str),
            ev.get("ts_us").and_then(Json::as_u64),
        ) else {
            continue;
        };
        let trace = trace_id(trace);
        if trace == 0 {
            continue;
        }
        let d = ev.get("dur_us").and_then(Json::as_u64).unwrap_or(0);
        let t = traces.entry(trace).or_default();
        match span {
            "request" => t.request_ts = Some(ts),
            "query" | "mutation" => t.end_ts = Some(ts),
            "cache_lookup" => {
                let hit = ev.get("outcome").and_then(Json::as_str) == Some("hit");
                t.lookup = Some((ts, d, hit));
            }
            "index_candidates" => t.index = Some((ts, d)),
            "preprocess" => t.preprocess = Some((ts, d)),
            "search" => t.search = Some((ts, d)),
            "mutate_apply" => t.apply = Some((ts, d)),
            "cache_repair" => t.repair = Some((ts, d)),
            "stream" => t.write_us = ev.get("write_us").and_then(Json::as_u64).unwrap_or(0),
            _ => {}
        }
    }
    traces
}

/// Mean time per call of `f` over `items`, median of three passes.
fn time_per<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for it in items {
                f(it);
            }
            t.elapsed().as_secs_f64() * 1e6 / items.len() as f64
        })
        .collect();
    median(&passes)
}

fn protocol(samples: &[(Request, Vec<Frame>)]) -> Vec<Metric> {
    let requests: Vec<&Request> = samples.iter().map(|(r, _)| r).collect();
    let request_lines: Vec<String> = requests.iter().map(|r| r.to_line()).collect();
    let frames: Vec<&Frame> = samples.iter().flat_map(|(_, f)| f).collect();
    let frame_lines: Vec<String> = frames.iter().map(|f| f.to_line()).collect();
    let reads: Vec<&(Request, Vec<Frame>)> = samples
        .iter()
        .filter(|(r, _)| matches!(r, Request::Enumerate { .. } | Request::Maximum { .. }))
        .collect();
    let bytes = mean(
        reads
            .iter()
            .map(|(_, fs)| fs.iter().map(|f| f.to_line().len() as f64 + 1.0).sum()),
    );
    let n = format!(
        "{} requests, {} frames sampled",
        requests.len(),
        frames.len()
    );
    vec![
        metric(
            "protocol.request_encode_us",
            "us",
            time_per(&requests, |r| {
                black_box(r.to_line());
            }),
            n.clone(),
        ),
        metric(
            "protocol.request_parse_us",
            "us",
            time_per(&request_lines, |l| {
                black_box(Request::parse(l).expect("own line parses"));
            }),
            n.clone(),
        ),
        metric(
            "protocol.frame_encode_us",
            "us",
            time_per(&frames, |f| {
                black_box(f.to_line());
            }),
            n.clone(),
        ),
        metric(
            "protocol.frame_parse_us",
            "us",
            time_per(&frame_lines, |l| {
                black_box(Frame::parse(l).expect("own line parses"));
            }),
            n,
        ),
        metric(
            "protocol.response_bytes",
            "bytes",
            bytes,
            format!("mean per read over {} sampled reads", reads.len()),
        ),
    ]
}

/// Writes the benchmark's spans (client calls, replays) and the joined
/// server spans as JSON lines; `parent` is a line number in the file.
fn write_spans(path: &Path, ops: &[&OpRec], traces: &HashMap<u64, ServerTrace>, replay: &Replay) {
    let mut spans: Vec<Span> = Vec::new();
    let add = |spans: &mut Vec<Span>, name: &str, trace: &str, s: u64, e: u64, parent| {
        spans.push(Span {
            name: name.to_string(),
            trace: trace.to_string(),
            start_us: s,
            end_us: e,
            parent,
        });
        spans.len() - 1
    };
    let anchor = epoch_us(anchor());
    for op in ops {
        let name = if op.is_read() {
            "client.read"
        } else {
            "client.write"
        };
        let s = anchor + u64::from(op.start_us);
        let id = format!("{:016x}", op.trace);
        let client = add(&mut spans, name, &id, s, s + op.lat_ns / 1000, None);
        let Some(t) = traces.get(&op.trace) else {
            continue;
        };
        let (Some(a), Some(b)) = (t.request_ts, t.end_ts) else {
            continue;
        };
        let server = add(&mut spans, "server.request", &id, a, b, Some(client));
        let leaf = |s: &Option<(u64, u64)>| s.map(|(ts, d)| (ts.saturating_sub(d), ts));
        if let Some((ts, d, _)) = t.lookup {
            let lookup = add(
                &mut spans,
                "cache_lookup",
                &id,
                ts.saturating_sub(d),
                ts,
                Some(server),
            );
            for (name, s) in [
                ("index_candidates", &t.index),
                ("preprocess", &t.preprocess),
            ] {
                if let Some((s, e)) = leaf(s) {
                    add(&mut spans, name, &id, s, e, Some(lookup));
                }
            }
        }
        for (name, s) in [
            ("search", &t.search),
            ("mutate_apply", &t.apply),
            ("cache_repair", &t.repair),
        ] {
            if let Some((s, e)) = leaf(s) {
                add(&mut spans, name, &id, s, e, Some(server));
            }
        }
    }
    let offset = spans.len();
    let mut out = String::new();
    for (i, s) in spans.iter().chain(&replay.spans).enumerate() {
        let parent = s
            .parent
            .map(|p| if i >= offset { p + offset } else { p })
            .map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"trace\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent}}}\n",
            s.name, s.trace, s.start_us, s.end_us
        ));
    }
    let _ = std::fs::File::create(path).and_then(|mut f| f.write_all(out.as_bytes()));
}

#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    untraced: &WindowLog,
    traced: &WindowLog,
    setups: &[SetupSample],
    replay: &Replay,
    server_log: &Path,
    out: &Path,
    checks: &[CheckResult],
) -> Vec<Metric> {
    let traces = read_server_log(server_log);
    let answered = |log: &WindowLog| -> Vec<f64> {
        log.ops
            .iter()
            .filter(|o| o.is_read() && o.status != Status::Error)
            .map(|o| o.lat_ns as f64 / 1e3)
            .collect()
    };
    let reads: Vec<&OpRec> = traced
        .ops
        .iter()
        .filter(|o| o.is_read() && o.status != Status::Error)
        .collect();
    let writes: Vec<&OpRec> = traced.ops.iter().filter(|o| !o.is_read()).collect();
    let joined: Vec<(&OpRec, &ServerTrace)> = reads
        .iter()
        .filter_map(|o| traces.get(&o.trace).map(|t| (*o, t)))
        .collect();
    let joined_writes: Vec<(&OpRec, &ServerTrace)> = writes
        .iter()
        .filter_map(|o| traces.get(&o.trace).map(|t| (*o, t)))
        .collect();
    write_spans(
        &out.join("bench-spans.jsonl"),
        &traced.ops.iter().collect::<Vec<_>>(),
        &traces,
        replay,
    );

    let lat_us = |o: &OpRec| o.lat_ns as f64 / 1e3;
    let phase = |t: &ServerTrace| t.lookup.map_or(0.0, |l| l.1 as f64) + dur(&t.search);
    let server_span: f64 = joined.iter().filter_map(|(_, t)| t.span_us()).sum();
    let search_sum: f64 = joined.iter().map(|(_, t)| dur(&t.search)).sum();
    let misses: Vec<&ServerTrace> = joined
        .iter()
        .map(|(_, t)| *t)
        .filter(|t| t.lookup.is_some_and(|l| !l.2))
        .collect();
    let (repairs, invalidations, _) =
        write_totals(&writes.iter().map(|o| (*o).clone()).collect::<Vec<_>>());
    let core_updates = mean(writes.iter().map(|o| match o.kind {
        OpKind::Write { core_updates, .. } => core_updates as f64,
        _ => 0.0,
    }));
    let before = traced.stats_before;
    let after = traced.stats_after;
    let p50_untraced = median(&answered(untraced));
    let p50_traced = median(&answered(traced));
    let unattributed = mean(joined.iter().map(|(o, t)| lat_us(o) - phase(t)));
    let verify = mean(checks.iter().map(|c| c.verify_us_per_answer));
    let setup = |f: fn(&SetupSample) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let nj = format!("{} traced reads joined", joined.len());
    let nw = format!("{} writes joined", joined_writes.len());
    let nr = format!("{} replayed keys", replay.keys);
    let s = &replay.stats;

    let mut m = protocol(&traced.samples);
    m.extend([
        metric(
            "session.outside_server_us",
            "us",
            mean(
                joined
                    .iter()
                    .filter_map(|(o, t)| Some(lat_us(o) - t.span_us()?)),
            ),
            nj.clone(),
        ),
        metric(
            "session.stream_write_us",
            "us",
            mean(joined.iter().map(|(_, t)| t.write_us as f64)),
            nj.clone(),
        ),
        metric(
            "session.frames_per_query",
            "count",
            mean(reads.iter().map(|o| match o.kind {
                OpKind::Read { frames, .. } => frames as f64,
                _ => 0.0,
            })),
            format!("{} traced reads", reads.len()),
        ),
        metric(
            "session.self_us",
            "us",
            mean(
                joined
                    .iter()
                    .filter_map(|(_, t)| Some(t.span_us()? - phase(t))),
            ),
            nj.clone(),
        ),
        metric(
            "session.mutation_self_us",
            "us",
            mean(
                joined_writes
                    .iter()
                    .filter_map(|(_, t)| Some(t.span_us()? - dur(&t.apply) - dur(&t.repair))),
            ),
            nw.clone(),
        ),
        metric("cache.hit_ratio", "ratio", hit_ratio(traced), nj.clone()),
        metric(
            "cache.lookup_hit_us",
            "us",
            mean(
                joined
                    .iter()
                    .filter_map(|(_, t)| t.lookup.filter(|l| l.2).map(|l| l.1 as f64)),
            ),
            nj.clone(),
        ),
        metric(
            "cache.lookup_self_us",
            "us",
            mean(joined.iter().filter_map(|(_, t)| {
                t.lookup
                    .map(|l| l.1 as f64 - dur(&t.index) - dur(&t.preprocess))
            })),
            nj.clone(),
        ),
        metric(
            "cache.evictions",
            "count",
            (after.evictions - before.evictions) as f64,
            "traced window",
        ),
        metric(
            "cache.resident_mb",
            "MiB",
            after.resident_bytes as f64 / (1024.0 * 1024.0),
            "stats after the traced window",
        ),
        metric(
            "cache.keep_ratio",
            "ratio",
            repairs as f64 / (repairs + invalidations).max(1) as f64,
            format!("{repairs} repairs, {invalidations} invalidations"),
        ),
        metric(
            "cache.repair_us",
            "us",
            mean(joined_writes.iter().map(|(_, t)| dur(&t.repair))),
            nw.clone(),
        ),
        metric(
            "datasets.load_ms",
            "ms",
            setup(|s| s.load_ms),
            "median over set-ups",
        ),
        metric(
            "datasets.index_build_ms",
            "ms",
            setup(|s| s.index_ms),
            "median over set-ups",
        ),
        metric(
            "datasets.apply_us",
            "us",
            mean(joined_writes.iter().map(|(_, t)| dur(&t.apply))),
            nw.clone(),
        ),
        metric(
            "datasets.core_updates_per_batch",
            "count",
            core_updates,
            format!("{} writes", writes.len()),
        ),
        metric(
            "decomp.candidates_us",
            "us",
            mean(misses.iter().map(|t| dur(&t.index))),
            format!("{} traced misses", misses.len()),
        ),
        metric(
            "decomp.candidate_frac",
            "ratio",
            mean(replay.candidate_frac.iter().copied()),
            nr.clone(),
        ),
        metric(
            "decomp.candidate_precision",
            "ratio",
            mean(replay.candidate_precision.iter().copied()),
            nr.clone(),
        ),
        metric(
            "preprocess.us",
            "us",
            mean(misses.iter().map(|t| dur(&t.preprocess))),
            format!("{} traced misses", misses.len()),
        ),
        metric(
            "preprocess.filter_us",
            "us",
            mean(replay.filter_us.iter().copied()),
            nr.clone(),
        ),
        metric(
            "preprocess.peel_us",
            "us",
            mean(replay.peel_us.iter().copied()),
            nr.clone(),
        ),
        metric(
            "preprocess.split_us",
            "us",
            mean(replay.split_us.iter().copied()),
            nr.clone(),
        ),
        metric(
            "preprocess.arena_us",
            "us",
            mean(replay.arena_us.iter().copied()),
            nr.clone(),
        ),
        metric(
            "preprocess.oracle_evals",
            "count",
            mean(replay.oracle_evals.iter().copied()),
            nr.clone(),
        ),
        metric(
            "search.us",
            "us",
            mean(joined.iter().map(|(_, t)| dur(&t.search))),
            nj.clone(),
        ),
        metric(
            "search.query_share",
            "ratio",
            search_sum / server_span.max(1.0),
            "search span time / server query span time",
        ),
        metric("search.nodes", "count", s.nodes as f64, nr.clone()),
        metric("search.leaves", "count", s.leaves as f64, nr.clone()),
        metric(
            "search.early_terminations",
            "count",
            s.early_terminations as f64,
            nr.clone(),
        ),
        metric(
            "search.bound_prunes",
            "count",
            s.bound_prunes as f64,
            nr.clone(),
        ),
        metric(
            "search.maximal_checks",
            "count",
            s.maximal_checks as f64,
            nr.clone(),
        ),
        metric(
            "search.nodes_per_answer",
            "count",
            s.nodes as f64 / replay.answers.max(1) as f64,
            format!("{} cores returned", replay.answers),
        ),
        metric(
            "order.choose_root_us",
            "us",
            mean(replay.choose_root_us.iter().copied()),
            format!("{} root choices", replay.choose_root_us.len()),
        ),
        metric(
            "bounds.root_us",
            "us",
            mean(replay.bound_root_us.iter().copied()),
            format!("{} root bounds", replay.bound_root_us.len()),
        ),
        metric(
            "maximal.check_us",
            "us",
            mean(replay.check_us.iter().copied()),
            format!("{} cores checked", replay.check_us.len()),
        ),
        metric(
            "parallel.speedup",
            "ratio",
            replay.seq_search_s / replay.par_search_s.max(1e-9),
            "sequential / 2-thread search on the same components",
        ),
        metric(
            "parallel.resplits",
            "count",
            replay.resplits as f64,
            nr.clone(),
        ),
        metric(
            "component.lazy_rows_materialized",
            "count",
            replay.lazy_rows as f64,
            nr.clone(),
        ),
        metric(
            "component.peak_bytes",
            "bytes",
            replay.peak_bytes as f64,
            nr,
        ),
        metric(
            "verify.us_per_answer",
            "us",
            verify,
            "is_kr_core / verify_maximal_family in the answer check",
        ),
        metric(
            "trace.overhead_frac",
            "ratio",
            p50_traced / p50_untraced - 1.0,
            format!("traced p50 {p50_traced:.2} us / untraced p50 {p50_untraced:.2} us - 1"),
        ),
        metric("trace.unattributed_us", "us", unattributed, nj.clone()),
        metric(
            "trace.unattributed_frac",
            "ratio",
            unattributed / mean(joined.iter().map(|(o, _)| lat_us(o))).max(1e-9),
            nj,
        ),
    ]);
    m
}
