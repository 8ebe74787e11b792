//! Wire protocol: versioned, line-delimited JSON.
//!
//! Every message is one JSON object on one line (the codec escapes all
//! control characters, so framing by `\n` is safe). Requests carry a
//! `cmd` field, responses a `frame` field; both carry the protocol
//! version `v` and echo the client-chosen request `id` so responses can
//! be correlated on pipelined connections.
//!
//! ```text
//! C: {"v":1,"cmd":"enumerate","id":"q1","dataset":"gowalla-like","scale":0.25,"k":3,"r":8}
//! S: {"v":1,"frame":"core","id":"q1","index":0,"vertices":[4,9,17,23]}
//! S: {"v":1,"frame":"core","id":"q1","index":1,"vertices":[40,41,42,44]}
//! S: {"v":1,"frame":"done","id":"q1","count":2,"completed":true,"cache":"miss","elapsed_ms":12,"nodes":523}
//! ```
//!
//! Enumeration results are **streamed**: each maximal core is its own
//! `core` frame, the first flushed the moment the engine confirms it
//! (via [`kr_core::CoreHook`]) and later ones every 10 ms and with
//! `done`, so a client sees early results of a heavy query long before
//! `done`. Unknown *request* fields are ignored (a
//! `v2` client degrades gracefully against a `v1` server); an unknown
//! version is rejected with an `error` frame.
//!
//! Every response frame (except `hello`) also carries a server-assigned
//! `trace` id — the same id the server's span log uses for that request
//! (see `docs/OBSERVABILITY.md`), so a wire capture joins against the
//! trace log on this field. The `metrics` request returns a full
//! [`kr_obs::MetricsSnapshot`] — counters, gauges, and histograms with
//! their buckets — as a `metrics` frame. Both are additive: `trace` is
//! optional on decode (frames from older servers parse with an empty
//! trace), so v1 stays backward compatible.

use crate::cache::{r_band_fits, CacheStats};
use crate::datasets::AttributeValue;
use crate::json::{self, Json, JsonError};
use kr_graph::VertexId;
use kr_obs::{HistogramSnapshot, MetricsSnapshot, HIST_BUCKETS};

/// Protocol version spoken by this build. Bump on breaking changes; the
/// server rejects requests with a different `v`.
pub const PROTOCOL_VERSION: u64 = 1;

/// Every request `cmd` this protocol version defines, by wire name.
/// `docs/PROTOCOL.md` is checked against this list by a test — extend
/// both together.
pub const REQUEST_CMDS: &[&str] = &[
    "enumerate",
    "maximum",
    "add_edge",
    "remove_edge",
    "set_attribute",
    "stats",
    "metrics",
    "ping",
    "shutdown",
];

/// Every response `frame` kind this protocol version defines, by wire
/// name. `docs/PROTOCOL.md` is checked against this list by a test —
/// extend both together.
pub const FRAME_KINDS: &[&str] = &[
    "hello",
    "busy",
    "core",
    "done",
    "mutated",
    "stats",
    "metrics",
    "pong",
    "shutting_down",
    "error",
];

/// Default dataset scale factor when a query omits `scale`.
pub const DEFAULT_SCALE: f64 = 0.25;

/// Algorithm family for a query (the server exposes the two
/// pruning-complete configurations; NaiveEnum and the clique baseline
/// stay offline tools).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// AdvEnum / AdvMax (all techniques; streaming-capable).
    Adv,
    /// BasicEnum / BasicMax (Theorems 2–3 only; enumeration results are
    /// buffered because maximality is only known after the post-filter).
    Basic,
}

impl Algo {
    /// Canonical wire name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Adv => "adv",
            Algo::Basic => "basic",
        }
    }

    fn parse(text: &str) -> Option<Algo> {
        match text {
            "adv" => Some(Algo::Adv),
            "basic" => Some(Algo::Basic),
            _ => None,
        }
    }
}

/// Parameters shared by `enumerate` and `maximum` queries.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Dataset preset name (`kr_datagen::DatasetPreset::name`).
    pub dataset: String,
    /// Dataset scale factor (see [`DEFAULT_SCALE`]).
    pub scale: f64,
    /// Degree threshold `k` (≥ 1).
    pub k: u32,
    /// Similarity threshold `r`: max distance for geo presets, min
    /// similarity for keyword presets.
    pub r: f64,
    /// Algorithm family.
    pub algo: Algo,
    /// Preprocessing workers on a cache miss (`1` = sequential, `0` =
    /// all cores; clamped to the machine's cores). The search always runs
    /// sequentially.
    pub threads: usize,
    /// Wall-clock budget; clamped by the server's own ceiling.
    pub time_limit_ms: Option<u64>,
    /// Search-node budget; clamped by the server's own ceiling.
    pub node_limit: Option<u64>,
}

impl QuerySpec {
    /// A spec with defaults (`scale` = [`DEFAULT_SCALE`], `algo` = adv,
    /// sequential, no limits).
    pub fn new(dataset: &str, k: u32, r: f64) -> Self {
        QuerySpec {
            dataset: dataset.to_string(),
            scale: DEFAULT_SCALE,
            k,
            r,
            algo: Algo::Adv,
            threads: 1,
            time_limit_ms: None,
            node_limit: None,
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enumerate all maximal (k,r)-cores; results stream as `core` frames.
    Enumerate {
        /// Client-chosen correlation id (echoed on every response frame).
        id: String,
        /// Query parameters.
        spec: QuerySpec,
    },
    /// Find the maximum (k,r)-core; at most one `core` frame.
    Maximum {
        /// Correlation id.
        id: String,
        /// Query parameters.
        spec: QuerySpec,
    },
    /// Insert a batch of edges into a resident dataset (answered by one
    /// `mutated` frame; the whole batch applies atomically or not at
    /// all).
    AddEdges {
        /// Correlation id.
        id: String,
        /// Dataset preset / registered file name.
        dataset: String,
        /// Dataset scale factor (same resolution rules as a query's).
        scale: f64,
        /// Edges to insert, as `[u, v]` vertex-id pairs.
        edges: Vec<(VertexId, VertexId)>,
    },
    /// Remove a batch of edges from a resident dataset.
    RemoveEdges {
        /// Correlation id.
        id: String,
        /// Dataset preset / registered file name.
        dataset: String,
        /// Dataset scale factor (same resolution rules as a query's).
        scale: f64,
        /// Edges to remove, as `[u, v]` vertex-id pairs.
        edges: Vec<(VertexId, VertexId)>,
    },
    /// Replace attribute values for a batch of vertices.
    SetAttributes {
        /// Correlation id.
        id: String,
        /// Dataset preset / registered file name.
        dataset: String,
        /// Dataset scale factor (same resolution rules as a query's).
        scale: f64,
        /// `(vertex, replacement value)` pairs; the value family must
        /// match the dataset's attribute table.
        updates: Vec<(VertexId, AttributeValue)>,
    },
    /// Component-cache statistics.
    Stats {
        /// Correlation id.
        id: String,
    },
    /// Full metrics-registry snapshot (counters, gauges, histograms).
    Metrics {
        /// Correlation id.
        id: String,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id.
        id: String,
    },
    /// Ask the server to stop accepting connections and exit cleanly.
    Shutdown {
        /// Correlation id.
        id: String,
    },
}

/// Cache outcome reported in a `done` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Preprocessed components were served from the cache.
    Hit,
    /// Preprocessing ran for this query (and was cached).
    Miss,
}

impl CacheOutcome {
    /// Canonical wire name.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }

    fn parse(text: &str) -> Option<CacheOutcome> {
        match text {
            "hit" => Some(CacheOutcome::Hit),
            "miss" => Some(CacheOutcome::Miss),
            _ => None,
        }
    }
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// First frame on every connection.
    Hello {
        /// Server protocol version.
        protocol: u64,
        /// Server software name.
        server: String,
    },
    /// Connection-level rejection: the server is at its connection cap.
    /// Sent *instead of* `hello` as the only frame on the connection,
    /// which the server then closes — clients should back off and retry.
    Busy {
        /// The `--max-connections` cap that was hit.
        max_connections: u64,
        /// Human-readable detail.
        message: String,
    },
    /// One (k,r)-core (enumeration: streamed incrementally; maximum: the
    /// single winner).
    Core {
        /// Correlation id.
        id: String,
        /// Server-assigned trace id ("" = untraced / older server).
        trace: String,
        /// 0-based position in the stream.
        index: u64,
        /// Member vertices (global ids, sorted).
        vertices: Vec<VertexId>,
    },
    /// Query end marker.
    Done {
        /// Correlation id.
        id: String,
        /// Server-assigned trace id ("" = untraced / older server).
        trace: String,
        /// Number of `core` frames sent for this query.
        count: u64,
        /// False when a node/time budget cut the search short.
        completed: bool,
        /// Whether preprocessing was served from the component cache.
        cache: CacheOutcome,
        /// Server-side wall clock for the query.
        elapsed_ms: u64,
        /// Search nodes visited.
        nodes: u64,
    },
    /// Acknowledges one mutation batch (`add_edge` / `remove_edge` /
    /// `set_attribute`): what was applied and what the invalidate-and-
    /// repair pass did to the component cache.
    Mutated {
        /// Correlation id.
        id: String,
        /// Server-assigned trace id ("" = untraced / older server).
        trace: String,
        /// Updates that changed the dataset.
        applied: u64,
        /// No-op updates (duplicate insert, absent removal, identical
        /// attribute value).
        ignored: u64,
        /// Dataset version after the batch.
        version: u64,
        /// `(vertex, layer)` core numbers the incremental maintenance
        /// repaired in the decomposition index.
        core_updates: u64,
        /// Cached component sets proven still valid and kept.
        repairs: u64,
        /// Cached component sets dropped (next query rebuilds them).
        invalidations: u64,
        /// Server-side wall clock for the batch.
        elapsed_ms: u64,
    },
    /// Cache statistics snapshot.
    Stats {
        /// Correlation id.
        id: String,
        /// Server-assigned trace id ("" = untraced / older server).
        trace: String,
        /// Counters since server start.
        stats: CacheStats,
    },
    /// Metrics-registry snapshot (the server's own registry merged with
    /// the process-global one).
    Metrics {
        /// Correlation id.
        id: String,
        /// Server-assigned trace id ("" = untraced / older server).
        trace: String,
        /// Counters, gauges, and histograms (buckets included).
        snapshot: MetricsSnapshot,
    },
    /// Reply to `ping`.
    Pong {
        /// Correlation id.
        id: String,
        /// Server-assigned trace id ("" = untraced / older server).
        trace: String,
    },
    /// Acknowledges `shutdown`; the server exits after this frame.
    ShuttingDown {
        /// Correlation id.
        id: String,
        /// Server-assigned trace id ("" = untraced / older server).
        trace: String,
    },
    /// Request-level failure (the connection stays usable).
    Error {
        /// Correlation id ("" when the request was unparseable).
        id: String,
        /// Server-assigned trace id ("" = untraced / older server).
        trace: String,
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Error classes for [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON or missing/invalid fields.
    BadRequest,
    /// The request's `v` differs from [`PROTOCOL_VERSION`].
    UnsupportedVersion,
    /// The dataset name is not a known preset.
    UnknownDataset,
    /// The server failed internally.
    Internal,
    /// The request was declined by admission control (e.g. the target
    /// dataset is at its `--max-queries-per-dataset` in-flight limit).
    /// The connection stays usable — back off and retry.
    Busy,
}

impl ErrorCode {
    /// Canonical wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::UnknownDataset => "unknown_dataset",
            ErrorCode::Internal => "internal",
            ErrorCode::Busy => "busy",
        }
    }

    fn parse(text: &str) -> Option<ErrorCode> {
        match text {
            "bad_request" => Some(ErrorCode::BadRequest),
            "unsupported_version" => Some(ErrorCode::UnsupportedVersion),
            "unknown_dataset" => Some(ErrorCode::UnknownDataset),
            "internal" => Some(ErrorCode::Internal),
            "busy" => Some(ErrorCode::Busy),
            _ => None,
        }
    }
}

/// Decode failure for a request or frame line.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The line is not valid JSON.
    Json(JsonError),
    /// The line carries a different protocol version.
    UnsupportedVersion(Option<u64>),
    /// The JSON is well-formed but violates the message schema.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Json(e) => write!(f, "invalid JSON: {e}"),
            ProtoError::UnsupportedVersion(Some(v)) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this server speaks v{PROTOCOL_VERSION})"
                )
            }
            ProtoError::UnsupportedVersion(None) => {
                write!(
                    f,
                    "missing protocol version (this server speaks v{PROTOCOL_VERSION})"
                )
            }
            ProtoError::Malformed(msg) => write!(f, "malformed message: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<JsonError> for ProtoError {
    fn from(e: JsonError) -> Self {
        ProtoError::Json(e)
    }
}

fn malformed(msg: impl Into<String>) -> ProtoError {
    ProtoError::Malformed(msg.into())
}

fn check_version(v: &Json) -> Result<(), ProtoError> {
    match v.get("v").and_then(Json::as_u64) {
        Some(PROTOCOL_VERSION) => Ok(()),
        other => Err(ProtoError::UnsupportedVersion(other)),
    }
}

fn get_id(v: &Json) -> String {
    v.get("id").and_then(Json::as_str).unwrap_or("").to_string()
}

fn get_trace(v: &Json) -> String {
    v.get("trace")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string()
}

/// An empty trace is omitted on the wire, keeping frames from a tracing
/// server distinguishable from (and backward compatible with) untraced
/// ones.
fn push_trace<'a>(trace: &'a str, fields: &mut Vec<(&'a str, Json)>) {
    if !trace.is_empty() {
        fields.push(("trace", json::s(trace)));
    }
}

/// Encodes a metrics snapshot as three name-keyed objects. Values are
/// exact up to 2^53 (the codec's integer range) — ~285 years of
/// microseconds, so latency sums fit comfortably.
fn metrics_to_fields(snap: &MetricsSnapshot, fields: &mut Vec<(&str, Json)>) {
    fields.push((
        "counters",
        Json::Obj(
            snap.counters
                .iter()
                .map(|(k, v)| (k.clone(), json::n(*v as f64)))
                .collect(),
        ),
    ));
    fields.push((
        "gauges",
        Json::Obj(
            snap.gauges
                .iter()
                .map(|(k, v)| (k.clone(), json::n(*v as f64)))
                .collect(),
        ),
    ));
    fields.push((
        "histograms",
        Json::Obj(
            snap.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        json::obj(vec![
                            ("count", json::n(h.count as f64)),
                            ("sum", json::n(h.sum as f64)),
                            (
                                "buckets",
                                Json::Arr(
                                    h.buckets
                                        .iter()
                                        .map(|&(i, c)| {
                                            Json::Arr(vec![json::n(i as f64), json::n(c as f64)])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        ),
    ));
}

fn obj_entries<'a>(v: &'a Json, key: &str) -> Result<&'a [(String, Json)], ProtoError> {
    match v.get(key) {
        Some(Json::Obj(fields)) => Ok(fields),
        _ => Err(malformed(format!("missing object field '{key}'"))),
    }
}

fn metrics_from_json(v: &Json) -> Result<MetricsSnapshot, ProtoError> {
    let mut snap = MetricsSnapshot::default();
    for (name, val) in obj_entries(v, "counters")? {
        let c = val
            .as_u64()
            .ok_or_else(|| malformed("counter values must be non-negative integers"))?;
        snap.counters.push((name.clone(), c));
    }
    for (name, val) in obj_entries(v, "gauges")? {
        let g = val
            .as_i64()
            .ok_or_else(|| malformed("gauge values must be integers"))?;
        snap.gauges.push((name.clone(), g));
    }
    for (name, val) in obj_entries(v, "histograms")? {
        let count = val
            .get("count")
            .and_then(Json::as_u64)
            .ok_or_else(|| malformed("histogram missing integer field 'count'"))?;
        let sum = val
            .get("sum")
            .and_then(Json::as_u64)
            .ok_or_else(|| malformed("histogram missing integer field 'sum'"))?;
        let buckets =
            val.get("buckets")
                .and_then(Json::as_arr)
                .ok_or_else(|| malformed("histogram missing array field 'buckets'"))?
                .iter()
                .map(|pair| {
                    let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                        malformed("histogram buckets must be [index, count] pairs")
                    })?;
                    let i = pair[0]
                        .as_u64()
                        .filter(|&i| i < HIST_BUCKETS as u64)
                        .ok_or_else(|| malformed("bucket index out of range"))?;
                    let c = pair[1]
                        .as_u64()
                        .ok_or_else(|| malformed("bucket count must be a non-negative integer"))?;
                    Ok((i as u32, c))
                })
                .collect::<Result<Vec<_>, ProtoError>>()?;
        snap.histograms.push((
            name.clone(),
            HistogramSnapshot {
                count,
                sum,
                buckets,
            },
        ));
    }
    Ok(snap)
}

fn edges_to_json(edges: &[(VertexId, VertexId)]) -> Json {
    Json::Arr(
        edges
            .iter()
            .map(|&(u, v)| Json::Arr(vec![json::n(u as f64), json::n(v as f64)]))
            .collect(),
    )
}

fn attr_update_to_json(vertex: VertexId, value: &AttributeValue) -> Json {
    let mut fields = vec![("vertex", json::n(vertex as f64))];
    match value {
        AttributeValue::Point(x, y) => {
            fields.push(("point", Json::Arr(vec![json::n(*x), json::n(*y)])));
        }
        AttributeValue::Keywords(list) => {
            fields.push((
                "keywords",
                Json::Arr(
                    list.iter()
                        .map(|&(k, w)| Json::Arr(vec![json::n(k as f64), json::n(w)]))
                        .collect(),
                ),
            ));
        }
        AttributeValue::Vector(vec) => {
            fields.push((
                "vector",
                Json::Arr(vec.iter().map(|&x| json::n(x)).collect()),
            ));
        }
    }
    json::obj(fields)
}

fn vertex_from_json(x: &Json) -> Result<VertexId, ProtoError> {
    x.as_u64()
        .filter(|&x| x <= VertexId::MAX as u64)
        .map(|x| x as VertexId)
        .ok_or_else(|| malformed("vertex ids must be non-negative integers"))
}

fn scale_from_json(v: &Json) -> Result<f64, ProtoError> {
    match v.get("scale") {
        None => Ok(DEFAULT_SCALE),
        Some(s) => s
            .as_f64()
            .filter(|s| s.is_finite() && *s > 0.0 && *s <= 100.0)
            .ok_or_else(|| malformed("'scale' must be in (0, 100]")),
    }
}

/// Decodes the `(dataset, scale)` target shared by all mutation
/// requests.
fn mutation_target(v: &Json) -> Result<(String, f64), ProtoError> {
    let dataset = v
        .get("dataset")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed("missing string field 'dataset'"))?
        .to_string();
    Ok((dataset, scale_from_json(v)?))
}

fn edges_from_json(v: &Json) -> Result<Vec<(VertexId, VertexId)>, ProtoError> {
    let arr = v
        .get("edges")
        .and_then(Json::as_arr)
        .ok_or_else(|| malformed("missing array field 'edges'"))?;
    if arr.is_empty() {
        return Err(malformed("'edges' must be a non-empty array"));
    }
    arr.iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| malformed("'edges' must hold [u, v] pairs"))?;
            Ok((vertex_from_json(&pair[0])?, vertex_from_json(&pair[1])?))
        })
        .collect()
}

fn attr_updates_from_json(v: &Json) -> Result<Vec<(VertexId, AttributeValue)>, ProtoError> {
    let arr = v
        .get("updates")
        .and_then(Json::as_arr)
        .ok_or_else(|| malformed("missing array field 'updates'"))?;
    if arr.is_empty() {
        return Err(malformed("'updates' must be a non-empty array"));
    }
    arr.iter()
        .map(|up| {
            let vertex = vertex_from_json(
                up.get("vertex")
                    .ok_or_else(|| malformed("update missing integer field 'vertex'"))?,
            )?;
            let value = match (up.get("point"), up.get("keywords"), up.get("vector")) {
                (Some(p), None, None) => {
                    let p = p
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| malformed("'point' must be an [x, y] pair"))?;
                    let coord = |x: &Json| {
                        x.as_f64()
                            .ok_or_else(|| malformed("'point' coordinates must be numbers"))
                    };
                    AttributeValue::Point(coord(&p[0])?, coord(&p[1])?)
                }
                (None, Some(kw), None) => {
                    let list = kw
                        .as_arr()
                        .ok_or_else(|| malformed("'keywords' must be an array"))?
                        .iter()
                        .map(|pair| {
                            let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                                malformed("'keywords' must hold [id, weight] pairs")
                            })?;
                            let id = pair[0]
                                .as_u64()
                                .filter(|&k| k <= u32::MAX as u64)
                                .ok_or_else(|| malformed("keyword ids must be u32 integers"))?;
                            let w = pair[1]
                                .as_f64()
                                .ok_or_else(|| malformed("keyword weights must be numbers"))?;
                            Ok((id as u32, w))
                        })
                        .collect::<Result<Vec<_>, ProtoError>>()?;
                    AttributeValue::Keywords(list)
                }
                (None, None, Some(vec)) => {
                    let vals = vec
                        .as_arr()
                        .ok_or_else(|| malformed("'vector' must be an array"))?
                        .iter()
                        .map(|x| {
                            x.as_f64()
                                .ok_or_else(|| malformed("'vector' components must be numbers"))
                        })
                        .collect::<Result<Vec<_>, ProtoError>>()?;
                    AttributeValue::Vector(vals)
                }
                _ => {
                    return Err(malformed(
                        "update must carry exactly one of 'point', 'keywords', 'vector'",
                    ))
                }
            };
            Ok((vertex, value))
        })
        .collect()
}

fn spec_to_fields(spec: &QuerySpec, fields: &mut Vec<(&str, Json)>) {
    fields.push(("dataset", json::s(&spec.dataset)));
    fields.push(("scale", json::n(spec.scale)));
    fields.push(("k", json::n(spec.k as f64)));
    fields.push(("r", json::n(spec.r)));
    fields.push(("algo", json::s(spec.algo.name())));
    fields.push(("threads", json::n(spec.threads as f64)));
    if let Some(ms) = spec.time_limit_ms {
        fields.push(("time_limit_ms", json::n(ms as f64)));
    }
    if let Some(limit) = spec.node_limit {
        fields.push(("node_limit", json::n(limit as f64)));
    }
}

fn spec_from_json(v: &Json) -> Result<QuerySpec, ProtoError> {
    let dataset = v
        .get("dataset")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed("missing string field 'dataset'"))?
        .to_string();
    let k = v
        .get("k")
        .and_then(Json::as_u64)
        .filter(|&k| (1..=u32::MAX as u64).contains(&k))
        .ok_or_else(|| malformed("'k' must be an integer >= 1"))? as u32;
    let r = v
        .get("r")
        .and_then(Json::as_f64)
        .filter(|&r| r.is_finite() && r >= 0.0 && r_band_fits(r))
        .ok_or_else(|| {
            malformed("'r' must be a finite number >= 0 and below 2^63 * 1e-9 (about 9.22e9)")
        })?;
    let scale = scale_from_json(v)?;
    let algo = match v.get("algo") {
        None => Algo::Adv,
        Some(a) => a
            .as_str()
            .and_then(Algo::parse)
            .ok_or_else(|| malformed("'algo' must be 'adv' or 'basic'"))?,
    };
    let threads = match v.get("threads") {
        None => 1,
        Some(t) => t
            .as_u64()
            .filter(|&t| t <= 1024)
            .ok_or_else(|| malformed("'threads' must be an integer <= 1024"))?
            as usize,
    };
    let opt_u64 = |key: &str| -> Result<Option<u64>, ProtoError> {
        match v.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(x) => x
                .as_u64()
                .map(Some)
                .ok_or_else(|| malformed(format!("'{key}' must be a non-negative integer"))),
        }
    };
    Ok(QuerySpec {
        dataset,
        scale,
        k,
        r,
        algo,
        threads,
        time_limit_ms: opt_u64("time_limit_ms")?,
        node_limit: opt_u64("node_limit")?,
    })
}

impl Request {
    /// Encodes to one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields: Vec<(&str, Json)> = vec![("v", json::n(PROTOCOL_VERSION as f64))];
        match self {
            Request::Enumerate { id, spec } => {
                fields.push(("cmd", json::s("enumerate")));
                fields.push(("id", json::s(id)));
                spec_to_fields(spec, &mut fields);
            }
            Request::Maximum { id, spec } => {
                fields.push(("cmd", json::s("maximum")));
                fields.push(("id", json::s(id)));
                spec_to_fields(spec, &mut fields);
            }
            Request::AddEdges {
                id,
                dataset,
                scale,
                edges,
            } => {
                fields.push(("cmd", json::s("add_edge")));
                fields.push(("id", json::s(id)));
                fields.push(("dataset", json::s(dataset)));
                fields.push(("scale", json::n(*scale)));
                fields.push(("edges", edges_to_json(edges)));
            }
            Request::RemoveEdges {
                id,
                dataset,
                scale,
                edges,
            } => {
                fields.push(("cmd", json::s("remove_edge")));
                fields.push(("id", json::s(id)));
                fields.push(("dataset", json::s(dataset)));
                fields.push(("scale", json::n(*scale)));
                fields.push(("edges", edges_to_json(edges)));
            }
            Request::SetAttributes {
                id,
                dataset,
                scale,
                updates,
            } => {
                fields.push(("cmd", json::s("set_attribute")));
                fields.push(("id", json::s(id)));
                fields.push(("dataset", json::s(dataset)));
                fields.push(("scale", json::n(*scale)));
                fields.push((
                    "updates",
                    Json::Arr(
                        updates
                            .iter()
                            .map(|(v, value)| attr_update_to_json(*v, value))
                            .collect(),
                    ),
                ));
            }
            Request::Stats { id } => {
                fields.push(("cmd", json::s("stats")));
                fields.push(("id", json::s(id)));
            }
            Request::Metrics { id } => {
                fields.push(("cmd", json::s("metrics")));
                fields.push(("id", json::s(id)));
            }
            Request::Ping { id } => {
                fields.push(("cmd", json::s("ping")));
                fields.push(("id", json::s(id)));
            }
            Request::Shutdown { id } => {
                fields.push(("cmd", json::s("shutdown")));
                fields.push(("id", json::s(id)));
            }
        }
        json::obj(fields).to_line()
    }

    /// Decodes one protocol line.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let v = Json::parse(line)?;
        check_version(&v)?;
        let id = get_id(&v);
        match v.get("cmd").and_then(Json::as_str) {
            Some("enumerate") => Ok(Request::Enumerate {
                id,
                spec: spec_from_json(&v)?,
            }),
            Some("maximum") => Ok(Request::Maximum {
                id,
                spec: spec_from_json(&v)?,
            }),
            Some("add_edge") => {
                let (dataset, scale) = mutation_target(&v)?;
                Ok(Request::AddEdges {
                    id,
                    dataset,
                    scale,
                    edges: edges_from_json(&v)?,
                })
            }
            Some("remove_edge") => {
                let (dataset, scale) = mutation_target(&v)?;
                Ok(Request::RemoveEdges {
                    id,
                    dataset,
                    scale,
                    edges: edges_from_json(&v)?,
                })
            }
            Some("set_attribute") => {
                let (dataset, scale) = mutation_target(&v)?;
                Ok(Request::SetAttributes {
                    id,
                    dataset,
                    scale,
                    updates: attr_updates_from_json(&v)?,
                })
            }
            Some("stats") => Ok(Request::Stats { id }),
            Some("metrics") => Ok(Request::Metrics { id }),
            Some("ping") => Ok(Request::Ping { id }),
            Some("shutdown") => Ok(Request::Shutdown { id }),
            Some(other) => Err(malformed(format!("unknown cmd '{other}'"))),
            None => Err(malformed("missing string field 'cmd'")),
        }
    }
}

impl Frame {
    /// Encodes to one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields: Vec<(&str, Json)> = vec![("v", json::n(PROTOCOL_VERSION as f64))];
        match self {
            Frame::Hello { protocol, server } => {
                fields.push(("frame", json::s("hello")));
                fields.push(("protocol", json::n(*protocol as f64)));
                fields.push(("server", json::s(server)));
            }
            Frame::Busy {
                max_connections,
                message,
            } => {
                fields.push(("frame", json::s("busy")));
                fields.push(("max_connections", json::n(*max_connections as f64)));
                fields.push(("message", json::s(message)));
            }
            Frame::Core {
                id,
                trace,
                index,
                vertices,
            } => {
                fields.push(("frame", json::s("core")));
                fields.push(("id", json::s(id)));
                push_trace(trace, &mut fields);
                fields.push(("index", json::n(*index as f64)));
                fields.push((
                    "vertices",
                    Json::Arr(vertices.iter().map(|&v| json::n(v as f64)).collect()),
                ));
            }
            Frame::Done {
                id,
                trace,
                count,
                completed,
                cache,
                elapsed_ms,
                nodes,
            } => {
                fields.push(("frame", json::s("done")));
                fields.push(("id", json::s(id)));
                push_trace(trace, &mut fields);
                fields.push(("count", json::n(*count as f64)));
                fields.push(("completed", Json::Bool(*completed)));
                fields.push(("cache", json::s(cache.name())));
                fields.push(("elapsed_ms", json::n(*elapsed_ms as f64)));
                fields.push(("nodes", json::n(*nodes as f64)));
            }
            Frame::Mutated {
                id,
                trace,
                applied,
                ignored,
                version,
                core_updates,
                repairs,
                invalidations,
                elapsed_ms,
            } => {
                fields.push(("frame", json::s("mutated")));
                fields.push(("id", json::s(id)));
                push_trace(trace, &mut fields);
                fields.push(("applied", json::n(*applied as f64)));
                fields.push(("ignored", json::n(*ignored as f64)));
                fields.push(("version", json::n(*version as f64)));
                fields.push(("core_updates", json::n(*core_updates as f64)));
                fields.push(("repairs", json::n(*repairs as f64)));
                fields.push(("invalidations", json::n(*invalidations as f64)));
                fields.push(("elapsed_ms", json::n(*elapsed_ms as f64)));
            }
            Frame::Stats { id, trace, stats } => {
                fields.push(("frame", json::s("stats")));
                fields.push(("id", json::s(id)));
                push_trace(trace, &mut fields);
                fields.push(("hits", json::n(stats.hits as f64)));
                fields.push(("misses", json::n(stats.misses as f64)));
                fields.push(("evictions", json::n(stats.evictions as f64)));
                fields.push(("entries", json::n(stats.entries as f64)));
                fields.push(("resident_bytes", json::n(stats.resident_bytes as f64)));
                fields.push(("preprocess_ms", json::n(stats.preprocess_ms as f64)));
                fields.push(("oracle_evals", json::n(stats.oracle_evals as f64)));
                fields.push(("index_hits", json::n(stats.index_hits as f64)));
                fields.push(("residual_vertices", json::n(stats.residual_vertices as f64)));
                fields.push(("repairs", json::n(stats.repairs as f64)));
                fields.push(("invalidations", json::n(stats.invalidations as f64)));
            }
            Frame::Metrics {
                id,
                trace,
                snapshot,
            } => {
                fields.push(("frame", json::s("metrics")));
                fields.push(("id", json::s(id)));
                push_trace(trace, &mut fields);
                metrics_to_fields(snapshot, &mut fields);
            }
            Frame::Pong { id, trace } => {
                fields.push(("frame", json::s("pong")));
                fields.push(("id", json::s(id)));
                push_trace(trace, &mut fields);
            }
            Frame::ShuttingDown { id, trace } => {
                fields.push(("frame", json::s("shutting_down")));
                fields.push(("id", json::s(id)));
                push_trace(trace, &mut fields);
            }
            Frame::Error {
                id,
                trace,
                code,
                message,
            } => {
                fields.push(("frame", json::s("error")));
                fields.push(("id", json::s(id)));
                push_trace(trace, &mut fields);
                fields.push(("code", json::s(code.name())));
                fields.push(("message", json::s(message)));
            }
        }
        json::obj(fields).to_line()
    }

    /// Decodes one protocol line.
    pub fn parse(line: &str) -> Result<Frame, ProtoError> {
        let v = Json::parse(line)?;
        check_version(&v)?;
        let id = get_id(&v);
        let trace = get_trace(&v);
        let req_u64 = |key: &str| -> Result<u64, ProtoError> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| malformed(format!("missing integer field '{key}'")))
        };
        match v.get("frame").and_then(Json::as_str) {
            Some("hello") => Ok(Frame::Hello {
                protocol: req_u64("protocol")?,
                server: v
                    .get("server")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            Some("busy") => Ok(Frame::Busy {
                max_connections: req_u64("max_connections")?,
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            Some("core") => {
                let vertices = v
                    .get("vertices")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| malformed("missing array field 'vertices'"))?
                    .iter()
                    .map(|x| {
                        x.as_u64()
                            .filter(|&x| x <= VertexId::MAX as u64)
                            .map(|x| x as VertexId)
                            .ok_or_else(|| malformed("'vertices' must hold vertex ids"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Frame::Core {
                    id,
                    trace,
                    index: req_u64("index")?,
                    vertices,
                })
            }
            Some("done") => Ok(Frame::Done {
                id,
                trace,
                count: req_u64("count")?,
                completed: v
                    .get("completed")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| malformed("missing bool field 'completed'"))?,
                cache: v
                    .get("cache")
                    .and_then(Json::as_str)
                    .and_then(CacheOutcome::parse)
                    .ok_or_else(|| malformed("'cache' must be 'hit' or 'miss'"))?,
                elapsed_ms: req_u64("elapsed_ms")?,
                nodes: req_u64("nodes")?,
            }),
            Some("mutated") => Ok(Frame::Mutated {
                id,
                trace,
                applied: req_u64("applied")?,
                ignored: req_u64("ignored")?,
                version: req_u64("version")?,
                core_updates: req_u64("core_updates")?,
                repairs: req_u64("repairs")?,
                invalidations: req_u64("invalidations")?,
                elapsed_ms: req_u64("elapsed_ms")?,
            }),
            Some("stats") => Ok(Frame::Stats {
                id,
                trace,
                stats: CacheStats {
                    hits: req_u64("hits")?,
                    misses: req_u64("misses")?,
                    evictions: req_u64("evictions")?,
                    entries: req_u64("entries")? as usize,
                    // Absent on frames from pre-PR3 servers: default 0.
                    resident_bytes: v.get("resident_bytes").and_then(Json::as_u64).unwrap_or(0),
                    // Absent on frames from pre-PR4 servers: default 0.
                    preprocess_ms: v.get("preprocess_ms").and_then(Json::as_u64).unwrap_or(0),
                    oracle_evals: v.get("oracle_evals").and_then(Json::as_u64).unwrap_or(0),
                    // Absent on frames from pre-PR6 servers: default 0.
                    index_hits: v.get("index_hits").and_then(Json::as_u64).unwrap_or(0),
                    residual_vertices: v
                        .get("residual_vertices")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                    // Absent on frames from pre-PR10 servers: default 0.
                    repairs: v.get("repairs").and_then(Json::as_u64).unwrap_or(0),
                    invalidations: v.get("invalidations").and_then(Json::as_u64).unwrap_or(0),
                },
            }),
            Some("metrics") => Ok(Frame::Metrics {
                id,
                trace,
                snapshot: metrics_from_json(&v)?,
            }),
            Some("pong") => Ok(Frame::Pong { id, trace }),
            Some("shutting_down") => Ok(Frame::ShuttingDown { id, trace }),
            Some("error") => Ok(Frame::Error {
                id,
                trace,
                code: v
                    .get("code")
                    .and_then(Json::as_str)
                    .and_then(ErrorCode::parse)
                    .ok_or_else(|| malformed("unknown error code"))?,
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            Some(other) => Err(malformed(format!("unknown frame '{other}'"))),
            None => Err(malformed("missing string field 'frame'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = vec![
            Request::Enumerate {
                id: "q1".into(),
                spec: QuerySpec::new("gowalla-like", 3, 8.0),
            },
            Request::Maximum {
                id: "q\"2\"".into(),
                spec: QuerySpec {
                    algo: Algo::Basic,
                    threads: 4,
                    time_limit_ms: Some(500),
                    node_limit: Some(10_000),
                    scale: 0.5,
                    ..QuerySpec::new("dblp-like", 4, 0.3)
                },
            },
            Request::Stats { id: "s".into() },
            Request::Metrics { id: "m".into() },
            Request::Ping { id: String::new() },
            Request::Shutdown { id: "bye".into() },
            Request::AddEdges {
                id: "u1".into(),
                dataset: "gowalla-like".into(),
                scale: 0.25,
                edges: vec![(0, 7), (3, 12)],
            },
            Request::RemoveEdges {
                id: "u2".into(),
                dataset: "dblp-like".into(),
                scale: 1.0,
                edges: vec![(5, 6)],
            },
            Request::SetAttributes {
                id: "u3".into(),
                dataset: "gowalla-like".into(),
                scale: 0.25,
                updates: vec![
                    (4, AttributeValue::Point(1.5, -2.0)),
                    (9, AttributeValue::Keywords(vec![(3, 1.0), (8, 0.5)])),
                    (2, AttributeValue::Vector(vec![0.0, 1.0, 2.5])),
                ],
            },
        ];
        for req in reqs {
            let line = req.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn frame_roundtrip() {
        let frames = vec![
            Frame::Hello {
                protocol: 1,
                server: "kr-server/0.1.0".into(),
            },
            Frame::Busy {
                max_connections: 256,
                message: "connection cap reached".into(),
            },
            Frame::Core {
                id: "q1".into(),
                trace: "00f1a2b3c4d5e6f7".into(),
                index: 3,
                vertices: vec![0, 5, 17],
            },
            Frame::Done {
                id: "q1".into(),
                trace: "00f1a2b3c4d5e6f7".into(),
                count: 4,
                completed: true,
                cache: CacheOutcome::Hit,
                elapsed_ms: 12,
                nodes: 523,
            },
            Frame::Stats {
                id: "s".into(),
                trace: String::new(),
                stats: CacheStats {
                    hits: 1,
                    misses: 2,
                    evictions: 0,
                    entries: 2,
                    resident_bytes: 4096,
                    preprocess_ms: 17,
                    oracle_evals: 12345,
                    index_hits: 2,
                    residual_vertices: 678,
                    repairs: 3,
                    invalidations: 1,
                },
            },
            Frame::Mutated {
                id: "u1".into(),
                trace: "00f1a2b3c4d5e6f7".into(),
                applied: 2,
                ignored: 1,
                version: 7,
                core_updates: 5,
                repairs: 3,
                invalidations: 1,
                elapsed_ms: 4,
            },
            Frame::Metrics {
                id: "m".into(),
                trace: "deadbeefdeadbeef".into(),
                snapshot: MetricsSnapshot {
                    counters: vec![
                        ("server.queries".into(), 5),
                        ("server.requests_malformed".into(), 1),
                    ],
                    gauges: vec![("server.active_queries".into(), -2)],
                    histograms: vec![(
                        "server.query_latency_us".into(),
                        HistogramSnapshot {
                            count: 5,
                            sum: 12_345,
                            buckets: vec![(0, 1), (63, 3), (495, 1)],
                        },
                    )],
                },
            },
            Frame::Pong {
                id: "p".into(),
                trace: "0000000000000001".into(),
            },
            Frame::ShuttingDown {
                id: String::new(),
                trace: String::new(),
            },
            Frame::Error {
                id: "x".into(),
                trace: "ffffffffffffffff".into(),
                code: ErrorCode::UnknownDataset,
                message: "no such preset: nope".into(),
            },
            Frame::Error {
                id: "y".into(),
                trace: String::new(),
                code: ErrorCode::Busy,
                message: "dataset at its admission limit".into(),
            },
        ];
        for frame in frames {
            let line = frame.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Frame::parse(&line).unwrap(), frame, "{line}");
        }
    }

    #[test]
    fn frame_kinds_and_request_cmds_are_complete() {
        // One sample message per enum variant; every wire name must be
        // listed in the public constants (which docs/PROTOCOL.md is in
        // turn checked against), and the counts must match so a new
        // variant cannot ship without extending the list.
        let spec = QuerySpec::new("d", 2, 1.0);
        let reqs = [
            Request::Enumerate {
                id: "i".into(),
                spec: spec.clone(),
            },
            Request::Maximum {
                id: "i".into(),
                spec,
            },
            Request::Stats { id: "i".into() },
            Request::Metrics { id: "i".into() },
            Request::Ping { id: "i".into() },
            Request::Shutdown { id: "i".into() },
            Request::AddEdges {
                id: "i".into(),
                dataset: "d".into(),
                scale: 1.0,
                edges: vec![(0, 1)],
            },
            Request::RemoveEdges {
                id: "i".into(),
                dataset: "d".into(),
                scale: 1.0,
                edges: vec![(0, 1)],
            },
            Request::SetAttributes {
                id: "i".into(),
                dataset: "d".into(),
                scale: 1.0,
                updates: vec![(0, AttributeValue::Point(0.0, 0.0))],
            },
        ];
        assert_eq!(reqs.len(), REQUEST_CMDS.len());
        for req in &reqs {
            let line = req.to_line();
            let cmd = Json::parse(&line)
                .unwrap()
                .get("cmd")
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            assert!(REQUEST_CMDS.contains(&cmd.as_str()), "{cmd} not listed");
        }
        let frames = [
            Frame::Hello {
                protocol: 1,
                server: String::new(),
            },
            Frame::Busy {
                max_connections: 1,
                message: String::new(),
            },
            Frame::Core {
                id: "i".into(),
                trace: String::new(),
                index: 0,
                vertices: vec![],
            },
            Frame::Done {
                id: "i".into(),
                trace: String::new(),
                count: 0,
                completed: true,
                cache: CacheOutcome::Hit,
                elapsed_ms: 0,
                nodes: 0,
            },
            Frame::Stats {
                id: "i".into(),
                trace: String::new(),
                stats: CacheStats::default(),
            },
            Frame::Mutated {
                id: "i".into(),
                trace: String::new(),
                applied: 0,
                ignored: 0,
                version: 0,
                core_updates: 0,
                repairs: 0,
                invalidations: 0,
                elapsed_ms: 0,
            },
            Frame::Metrics {
                id: "i".into(),
                trace: String::new(),
                snapshot: MetricsSnapshot::default(),
            },
            Frame::Pong {
                id: "i".into(),
                trace: String::new(),
            },
            Frame::ShuttingDown {
                id: "i".into(),
                trace: String::new(),
            },
            Frame::Error {
                id: "i".into(),
                trace: String::new(),
                code: ErrorCode::Internal,
                message: String::new(),
            },
        ];
        assert_eq!(frames.len(), FRAME_KINDS.len());
        for frame in &frames {
            let line = frame.to_line();
            let kind = Json::parse(&line)
                .unwrap()
                .get("frame")
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            assert!(FRAME_KINDS.contains(&kind.as_str()), "{kind} not listed");
        }
    }

    #[test]
    fn empty_trace_omitted_on_wire() {
        let line = Frame::Pong {
            id: "p".into(),
            trace: String::new(),
        }
        .to_line();
        assert!(!line.contains("trace"), "{line}");
    }

    #[test]
    fn optional_frame_fields_default_against_old_literals() {
        // Table-driven backward-compatibility pin: every optional field
        // added after the v1 freeze (PR 3 resident_bytes, PR 4
        // preprocess_ms/oracle_evals, PR 6 index_hits/residual_vertices,
        // PR 7 trace) must decode as 0/absent from a frame literal the
        // original v1 server would have emitted. A row failing here means
        // a new field silently became mandatory — a wire break.
        struct Case {
            name: &'static str,
            line: &'static str,
            check: fn(Frame),
        }
        let cases = [
            Case {
                name: "pre-PR3/4/6 stats frame: all optional counters zero",
                line: r#"{"v":1,"frame":"stats","id":"s","hits":3,"misses":1,"evictions":0,"entries":1}"#,
                check: |f| match f {
                    Frame::Stats { trace, stats, .. } => {
                        assert_eq!(stats.hits, 3);
                        assert_eq!(stats.resident_bytes, 0, "PR 3 field");
                        assert_eq!(stats.preprocess_ms, 0, "PR 4 field");
                        assert_eq!(stats.oracle_evals, 0, "PR 4 field");
                        assert_eq!(stats.index_hits, 0, "PR 6 field");
                        assert_eq!(stats.residual_vertices, 0, "PR 6 field");
                        assert_eq!(trace, "", "PR 7 field");
                        assert_eq!(stats.repairs, 0, "PR 10 field");
                        assert_eq!(stats.invalidations, 0, "PR 10 field");
                    }
                    other => panic!("wrong frame {other:?}"),
                },
            },
            Case {
                name: "pre-PR7 core frame: no trace",
                line: r#"{"v":1,"frame":"core","id":"q","index":0,"vertices":[1,2]}"#,
                check: |f| match f {
                    Frame::Core {
                        trace, vertices, ..
                    } => {
                        assert_eq!(trace, "");
                        assert_eq!(vertices, vec![1, 2]);
                    }
                    other => panic!("wrong frame {other:?}"),
                },
            },
            Case {
                name: "pre-PR7 done frame: no trace",
                line: r#"{"v":1,"frame":"done","id":"q","count":1,"completed":true,"cache":"miss","elapsed_ms":5,"nodes":9}"#,
                check: |f| match f {
                    Frame::Done { trace, count, .. } => {
                        assert_eq!(trace, "");
                        assert_eq!(count, 1);
                    }
                    other => panic!("wrong frame {other:?}"),
                },
            },
            Case {
                name: "pre-PR7 pong frame: no trace",
                line: r#"{"v":1,"frame":"pong","id":"p"}"#,
                check: |f| match f {
                    Frame::Pong { trace, .. } => assert_eq!(trace, ""),
                    other => panic!("wrong frame {other:?}"),
                },
            },
            Case {
                name: "pre-PR7 error frame: no trace",
                line: r#"{"v":1,"frame":"error","id":"","code":"bad_request","message":"m"}"#,
                check: |f| match f {
                    Frame::Error { trace, code, .. } => {
                        assert_eq!(trace, "");
                        assert_eq!(code, ErrorCode::BadRequest);
                    }
                    other => panic!("wrong frame {other:?}"),
                },
            },
            Case {
                name: "metrics frame with empty sections parses as empty snapshot",
                line: r#"{"v":1,"frame":"metrics","id":"m","counters":{},"gauges":{},"histograms":{}}"#,
                check: |f| match f {
                    Frame::Metrics { snapshot, .. } => {
                        assert_eq!(snapshot, MetricsSnapshot::default())
                    }
                    other => panic!("wrong frame {other:?}"),
                },
            },
        ];
        for case in cases {
            let frame = Frame::parse(case.line)
                .unwrap_or_else(|e| panic!("{}: parse failed: {e}", case.name));
            (case.check)(frame);
        }
    }

    #[test]
    fn malformed_metrics_frames_rejected() {
        for bad in [
            // missing sections
            r#"{"v":1,"frame":"metrics","id":"m"}"#,
            // bucket index beyond the table
            r#"{"v":1,"frame":"metrics","id":"m","counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":1,"buckets":[[496,1]]}}}"#,
            // bucket pair wrong arity
            r#"{"v":1,"frame":"metrics","id":"m","counters":{},"gauges":{},"histograms":{"h":{"count":1,"sum":1,"buckets":[[1]]}}}"#,
            // counter not an integer
            r#"{"v":1,"frame":"metrics","id":"m","counters":{"c":1.5},"gauges":{},"histograms":{}}"#,
        ] {
            assert!(
                matches!(Frame::parse(bad), Err(ProtoError::Malformed(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let line = r#"{"v":2,"cmd":"ping","id":"x"}"#;
        assert!(matches!(
            Request::parse(line),
            Err(ProtoError::UnsupportedVersion(Some(2)))
        ));
        let line = r#"{"cmd":"ping"}"#;
        assert!(matches!(
            Request::parse(line),
            Err(ProtoError::UnsupportedVersion(None))
        ));
    }

    #[test]
    fn unknown_request_fields_ignored() {
        let line = r#"{"v":1,"cmd":"enumerate","id":"q","dataset":"dblp-like","k":3,"r":0.2,"future_field":[1,2]}"#;
        let req = Request::parse(line).unwrap();
        match req {
            Request::Enumerate { spec, .. } => {
                assert_eq!(spec.scale, DEFAULT_SCALE);
                assert_eq!(spec.algo, Algo::Adv);
            }
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn field_validation() {
        for bad in [
            r#"{"v":1,"cmd":"enumerate","dataset":"x","k":0,"r":1}"#,
            r#"{"v":1,"cmd":"enumerate","dataset":"x","k":3,"r":-1}"#,
            r#"{"v":1,"cmd":"enumerate","dataset":"x","k":3,"r":1e10}"#,
            r#"{"v":1,"cmd":"maximum","dataset":"x","k":3,"r":9.3e9}"#,
            r#"{"v":1,"cmd":"enumerate","dataset":"x","k":3}"#,
            r#"{"v":1,"cmd":"enumerate","k":3,"r":1}"#,
            r#"{"v":1,"cmd":"enumerate","dataset":"x","k":3,"r":1,"scale":0}"#,
            r#"{"v":1,"cmd":"frobnicate"}"#,
            r#"{"v":1}"#,
        ] {
            assert!(
                matches!(Request::parse(bad), Err(ProtoError::Malformed(_))),
                "{bad}"
            );
        }
        // Thresholds from 0 up to just below the saturation point parse.
        for good in [
            r#"{"v":1,"cmd":"enumerate","dataset":"x","k":3,"r":0}"#,
            r#"{"v":1,"cmd":"enumerate","dataset":"x","k":3,"r":9.2e9}"#,
        ] {
            assert!(Request::parse(good).is_ok(), "{good}");
        }
    }
}
