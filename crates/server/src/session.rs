//! Per-connection request handling.
//!
//! A session owns one client socket. Requests are processed one at a
//! time in arrival order (the protocol is line-delimited, so pipelining
//! just queues in the kernel buffer); response frames for a query carry
//! its `id`. The socket is read with a short timeout so the session
//! notices a server-wide shutdown even while idle.
//!
//! **Buffered frames.** A query's response frames are encoded into the
//! session's [`FrameWriter`] buffer and leave in as few socket writes as
//! the streaming rule allows: a streaming enumeration flushes its first
//! `core` at once, then at most once per [`FLUSH_INTERVAL`] (10 ms), and
//! `done` flushes the rest; a maximum or BasicEnum answer goes out with
//! its `done` in one write. The bytes on the wire are those of one write
//! per frame; only their split into TCP segments differs.
//!
//! **Cancellation.** Runaway work is bounded two ways. The engine's
//! node/time limits: the session clamps every query's budgets to the
//! server's configured ceilings; the engine checks them at each search
//! node and returns `completed = false` when exceeded, which the `done`
//! frame reports. And client aborts: before every flush of a streaming
//! enumeration, the final one included, the session peeks the socket
//! (see [`FrameWriter::client_gone`]) — a client that hung up mid-query
//! is detected within one flush interval, trips a [`kr_core::CancelFlag`]
//! and the engine winds down at its next search node instead of burning
//! CPU on an answer nobody reads. Aborted queries count in
//! `server.client_aborts` (not `server.query_errors`) and emit a
//! `client_abort` span event.
//!
//! **Observability.** Every request line gets a fresh trace id, echoed
//! in each of its response frames and stamped on every span event the
//! request emits to the server's [`kr_obs::TraceSink`] — see
//! `docs/OBSERVABILITY.md` for the span taxonomy. The session also feeds
//! the server's `server.*` metrics registry (query latency and
//! preprocessing histograms, request/rejection counters, the in-flight
//! gauge), which a `metrics` request returns over the wire.

use crate::cache::{beyond_band, r_band, CacheKey, R_BAND_WIDTH};
use crate::datasets::{GraphUpdate, HostedDataset, MutationOutcome};
use crate::json::Json;
use crate::protocol::{
    Algo, CacheOutcome, ErrorCode, Frame, ProtoError, QuerySpec, Request, PROTOCOL_VERSION,
};
use crate::server::{ServerState, SessionPermit};
use crate::sync::lock;
use kr_core::{
    enumerate_maximal_prepared, find_maximum_prepared, AlgoConfig, CancelFlag, CoreHook, KrCore,
    LocalComponent,
};
use kr_obs::{next_trace_id, Counter, Field, PhaseTimer};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Socket poll interval; bounds how long shutdown waits on idle sessions.
const READ_POLL: Duration = Duration::from_millis(150);

/// Hard cap on one request line. Real requests are well under 1 KiB; a
/// client that streams bytes without a newline is dropped at this bound
/// instead of growing the session buffer without limit.
const MAX_LINE_BYTES: usize = 1 << 20;

/// How long a streaming enumeration may hold confirmed cores in the
/// session buffer. Its first core is flushed at once; after that a core
/// triggers a flush only once this much time has passed since the last
/// one, and `done` flushes the rest.
const FLUSH_INTERVAL: Duration = Duration::from_millis(10);

/// Buffer capacity a session keeps between flushes: a rare huge answer
/// does not pin its buffer for the rest of the connection.
const KEEP_BUF_BYTES: usize = 1 << 16;

type SharedWriter = Arc<Mutex<FrameWriter>>;

/// Sends one frame on the session's writer.
fn send(writer: &SharedWriter, frame: &Frame) -> std::io::Result<()> {
    // Poison-tolerant: a panicking query thread must not wedge every
    // later frame write on this connection (see `crate::sync`).
    lock(writer).send(frame)
}

/// Write errors that mean "the peer went away" rather than "this server
/// failed". The session counts these as `server.client_aborts`, not
/// `server.query_errors`: the distinction separates clients hanging up
/// (routine under real traffic) from actual serving trouble.
fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::UnexpectedEof
    )
}

/// The session's buffered frame writer. Every frame is encoded into one
/// byte buffer, reused across requests, and a flush sends the whole
/// buffer with one `write_all`: a query's frames leave in a few socket
/// writes instead of one per frame, with the same bytes on the wire.
///
/// The per-query fields account for the current query's stream (reset
/// by [`FrameWriter::begin_query`]); the `stream` span event reports
/// them.
struct FrameWriter {
    stream: TcpStream,
    buf: Vec<u8>,
    /// `server.cores_streamed`: bumped by the cores a flush delivered.
    cores_streamed: Arc<Counter>,
    last_flush: Instant,
    /// Core frames pushed for this query (the next core's `index`).
    frames: u64,
    /// Core frames in `buf` not yet flushed.
    unsent: u64,
    /// Socket writes issued for this query, and their time.
    writes: u64,
    write_us: u64,
    /// First error of this query's stream: a failed flush, or the abort
    /// probe finding the peer gone. Later cores are dropped.
    failed: Option<std::io::Error>,
}

impl FrameWriter {
    fn new(stream: TcpStream, cores_streamed: Arc<Counter>) -> FrameWriter {
        FrameWriter {
            stream,
            buf: Vec::new(),
            cores_streamed,
            last_flush: Instant::now(),
            frames: 0,
            unsent: 0,
            writes: 0,
            write_us: 0,
            failed: None,
        }
    }

    fn begin_query(&mut self) {
        self.buf.clear();
        (self.frames, self.unsent, self.writes, self.write_us) = (0, 0, 0, 0);
        self.failed = None;
    }

    /// Encodes one frame onto the buffer.
    fn push(&mut self, frame: &Frame) {
        self.buf.extend_from_slice(frame.to_line().as_bytes());
        self.buf.push(b'\n');
        if matches!(frame, Frame::Core { .. }) {
            self.frames += 1;
            self.unsent += 1;
        }
    }

    /// Sends the whole buffer with one `write_all`; `now` starts the
    /// next streaming interval.
    fn flush(&mut self, now: Instant) -> std::io::Result<()> {
        let t = Instant::now();
        let res = self.stream.write_all(&self.buf);
        self.write_us += t.elapsed().as_micros() as u64;
        self.writes += 1;
        self.last_flush = now;
        self.buf.clear();
        self.buf.shrink_to(KEEP_BUF_BYTES);
        if res.is_ok() {
            self.cores_streamed.add(self.unsent);
        }
        self.unsent = 0;
        res
    }

    /// Sends one frame on its own (requests answered by a single frame).
    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.push(frame);
        self.flush(Instant::now())
    }

    /// A flush of a streaming enumeration: the abort probe runs first.
    fn flush_probed(&mut self, now: Instant) -> std::io::Result<()> {
        if self.client_gone() {
            return Err(std::io::Error::new(
                ErrorKind::ConnectionAborted,
                "client went away mid-query",
            ));
        }
        self.flush(now)
    }

    /// Pushes one core of a streaming enumeration and flushes when due:
    /// the query's first core at once, later ones once
    /// [`FLUSH_INTERVAL`] has passed since the last flush. Returns false
    /// once the stream has failed, so the caller cancels the engine.
    fn stream_core(&mut self, frame: &Frame, now: Instant) -> bool {
        if self.failed.is_some() {
            return false;
        }
        self.push(frame);
        if self.writes == 0 || now.duration_since(self.last_flush) >= FLUSH_INTERVAL {
            if let Err(e) = self.flush_probed(now) {
                self.failed = Some(e);
                return false;
            }
        }
        true
    }

    /// Ends the query: pushes `done` and flushes everything buffered in
    /// one write, after the abort probe when the query streamed. Returns
    /// the stream's first error instead when one happened.
    fn finish(&mut self, done: &Frame, probe: bool) -> std::io::Result<()> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        self.push(done);
        let now = Instant::now();
        if probe {
            self.flush_probed(now)
        } else {
            self.flush(now)
        }
    }

    /// The client-abort probe, run before every flush of a streaming
    /// enumeration: true when the peer is known to be gone. False on any
    /// doubt: a false "alive" just means the abort is caught at the
    /// next flush instead.
    ///
    /// `peek` is non-destructive — pipelined request bytes stay queued
    /// for the [`LineReader`] — and distinguishes the three states the
    /// session cares about: EOF (client closed: abort), pending bytes or
    /// nothing yet (client alive), hard error (abort). The probe must not
    /// block, and `set_nonblocking` applies to the whole underlying
    /// socket (it is shared with the reader's clone), so blocking mode is
    /// restored immediately after the peek. That toggle is safe because
    /// the probe only runs inside `run_query`, where the session thread —
    /// the only reader — is busy computing, and flushes are serialized
    /// behind the writer lock. The `LineReader`'s read timeout is a
    /// socket option (`SO_RCVTIMEO`) and is unaffected.
    fn client_gone(&self) -> bool {
        if self.stream.set_nonblocking(true).is_err() {
            return false;
        }
        let mut byte = [0u8; 1];
        let gone = match self.stream.peek(&mut byte) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) if e.kind() == ErrorKind::WouldBlock => false,
            Err(e) => is_disconnect(&e),
        };
        let _ = self.stream.set_nonblocking(false);
        gone
    }
}

/// Timeout-tolerant line framing over the raw socket. `BufRead::read_line`
/// is unusable here: a read timeout mid-line would hand back a partial
/// line indistinguishable from a complete one.
struct LineReader {
    stream: TcpStream,
    pending: Vec<u8>,
}

enum ReadOutcome {
    Line(String),
    TimedOut,
    Closed,
}

impl LineReader {
    fn next(&mut self) -> ReadOutcome {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.pending, rest);
                line.pop(); // the '\n'
                return match String::from_utf8(line) {
                    Ok(s) => ReadOutcome::Line(s),
                    Err(_) => ReadOutcome::Closed, // not UTF-8: drop client
                };
            }
            if self.pending.len() > MAX_LINE_BYTES {
                return ReadOutcome::Closed; // unframed flood: drop client
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Closed,
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return ReadOutcome::TimedOut;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Closed,
            }
        }
    }
}

/// Serves one connection to completion (EOF, I/O failure, or shutdown).
/// The `permit` is the connection-cap slot claimed by the accept loop; it
/// is held for the lifetime of this call and freed on any exit path.
pub(crate) fn run_session(stream: TcpStream, state: Arc<ServerState>, permit: SessionPermit) {
    let _permit = permit;
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    state.metrics.connections.inc();
    if state.trace.enabled() {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        state.trace.event("", "accept", &[("peer", Field::S(peer))]);
    }
    let writer: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(FrameWriter::new(
            w,
            state.metrics.cores_streamed.clone(),
        ))),
        Err(_) => return,
    };
    let hello = Frame::Hello {
        protocol: PROTOCOL_VERSION,
        server: format!("kr-server/{}", env!("CARGO_PKG_VERSION")),
    };
    if send(&writer, &hello).is_err() {
        return;
    }
    let mut reader = LineReader {
        stream,
        pending: Vec::new(),
    };
    loop {
        match reader.next() {
            ReadOutcome::Closed => return,
            ReadOutcome::TimedOut => {
                if state.is_shutting_down() {
                    return;
                }
            }
            ReadOutcome::Line(line) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                if handle_line(trimmed, &writer, &state).is_err() {
                    return; // client gone
                }
                if state.is_shutting_down() {
                    return;
                }
            }
        }
    }
}

fn handle_line(line: &str, writer: &SharedWriter, state: &Arc<ServerState>) -> std::io::Result<()> {
    // Every request line — even an unparseable one — gets a trace id, so
    // the error frame on the wire still joins against the span log.
    let trace = next_trace_id();
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(e) => {
            state.metrics.record_request_error(&e);
            let code = match &e {
                ProtoError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
                _ => ErrorCode::BadRequest,
            };
            let message = e.to_string();
            state.trace.event(
                &trace,
                "request_error",
                &[
                    ("code", Field::S(code.name().to_string())),
                    ("message", Field::S(message.clone())),
                ],
            );
            // Best-effort id echo so the client can correlate the failure.
            let id = Json::parse(line)
                .ok()
                .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_string))
                .unwrap_or_default();
            return send(
                writer,
                &Frame::Error {
                    id,
                    trace,
                    code,
                    message,
                },
            );
        }
    };
    if state.trace.enabled() {
        let (cmd, id) = match &req {
            Request::Ping { id } => ("ping", id),
            Request::Stats { id } => ("stats", id),
            Request::Metrics { id } => ("metrics", id),
            Request::Shutdown { id } => ("shutdown", id),
            Request::Enumerate { id, .. } => ("enumerate", id),
            Request::Maximum { id, .. } => ("maximum", id),
            Request::AddEdges { id, .. } => ("add_edge", id),
            Request::RemoveEdges { id, .. } => ("remove_edge", id),
            Request::SetAttributes { id, .. } => ("set_attribute", id),
        };
        state.trace.event(
            &trace,
            "request",
            &[("cmd", Field::from(cmd)), ("id", Field::S(id.clone()))],
        );
    }
    match req {
        Request::Ping { id } => send(writer, &Frame::Pong { id, trace }),
        Request::Stats { id } => send(
            writer,
            &Frame::Stats {
                id,
                trace,
                stats: state.cache.stats(),
            },
        ),
        Request::Metrics { id } => send(
            writer,
            &Frame::Metrics {
                id,
                trace,
                snapshot: state.metrics.wire_snapshot(),
            },
        ),
        Request::Shutdown { id } => {
            send(writer, &Frame::ShuttingDown { id, trace })?;
            state.begin_shutdown();
            Ok(())
        }
        Request::Enumerate { id, spec } => {
            run_query(QueryKind::Enumerate, id, trace, spec, writer, state)
        }
        Request::Maximum { id, spec } => {
            run_query(QueryKind::Maximum, id, trace, spec, writer, state)
        }
        Request::AddEdges {
            id,
            dataset,
            scale,
            edges,
        } => {
            let updates = edges
                .into_iter()
                .map(|(u, v)| GraphUpdate::AddEdge(u, v))
                .collect();
            run_mutation(id, trace, dataset, scale, updates, writer, state)
        }
        Request::RemoveEdges {
            id,
            dataset,
            scale,
            edges,
        } => {
            let updates = edges
                .into_iter()
                .map(|(u, v)| GraphUpdate::RemoveEdge(u, v))
                .collect();
            run_mutation(id, trace, dataset, scale, updates, writer, state)
        }
        Request::SetAttributes {
            id,
            dataset,
            scale,
            updates,
        } => {
            let updates = updates
                .into_iter()
                .map(|(w, value)| GraphUpdate::SetAttribute(w, value))
                .collect();
            run_mutation(id, trace, dataset, scale, updates, writer, state)
        }
    }
}

enum QueryKind {
    Enumerate,
    Maximum,
}

/// Budget clamp: the tighter of the request's wish and the server ceiling.
fn clamp_limit(requested: Option<u64>, ceiling: Option<u64>) -> Option<u64> {
    match (requested, ceiling) {
        (Some(r), Some(c)) => Some(r.min(c)),
        (Some(r), None) => Some(r),
        (None, ceiling) => ceiling,
    }
}

/// Whole microseconds since `start`, for a span's `dur_us`.
fn elapsed_us(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// The dataset a query or mutation names. The call that loads it —
/// generating a preset or reading a snapshot file — logs a
/// `dataset_load` span, so a first query's load is not left unexplained.
fn load_dataset(
    state: &ServerState,
    trace: &str,
    name: &str,
    scale: f64,
) -> Result<Arc<HostedDataset>, String> {
    let start = Instant::now();
    let (dataset, loaded) = state.datasets.get_reporting_load(name, scale)?;
    if let Some(source) = loaded {
        state.trace.event(
            trace,
            "dataset_load",
            &[
                ("dur_us", Field::U(elapsed_us(start))),
                ("source", Field::from(source)),
            ],
        );
    }
    Ok(dataset)
}

fn run_query(
    kind: QueryKind,
    id: String,
    trace: String,
    spec: QuerySpec,
    writer: &SharedWriter,
    state: &Arc<ServerState>,
) -> std::io::Result<()> {
    let metrics = &state.metrics;
    let sink = &state.trace;
    metrics.queries.inc();
    let _active = metrics.active_queries.track();
    // `max_scale` bounds what the registry may *generate*; file-backed
    // datasets are pinned by their snapshot and ignore scale entirely,
    // so the policy does not apply to them.
    if spec.scale > state.config.max_scale && !state.datasets.is_file_backed(&spec.dataset) {
        metrics.query_errors.inc();
        return send(
            writer,
            &Frame::Error {
                id,
                trace,
                code: ErrorCode::BadRequest,
                message: format!(
                    "scale {} exceeds this server's max_scale {}",
                    spec.scale, state.config.max_scale
                ),
            },
        );
    }
    let dataset = match load_dataset(state, &trace, &spec.dataset, spec.scale) {
        Ok(ds) => ds,
        Err(message) => {
            metrics.query_errors.inc();
            return send(
                writer,
                &Frame::Error {
                    id,
                    trace,
                    code: ErrorCode::UnknownDataset,
                    message,
                },
            );
        }
    };
    // Per-dataset admission control: the guard holds this query's
    // in-flight slot until the query resolves (any exit path).
    let _admission = match state.try_admit(dataset.key()) {
        Ok(guard) => guard,
        Err(limit) => {
            metrics.admission_rejections.inc();
            sink.event(
                &trace,
                "admission_reject",
                &[
                    ("dataset", Field::S(spec.dataset.clone())),
                    ("limit", Field::from(limit)),
                ],
            );
            return send(
                writer,
                &Frame::Error {
                    id,
                    trace,
                    code: ErrorCode::Busy,
                    message: format!(
                        "dataset '{}' is at its admission limit ({limit} queries in flight); retry later",
                        spec.dataset
                    ),
                },
            );
        }
    };

    let t0 = Instant::now();
    let key = CacheKey {
        dataset: dataset.key().to_string(),
        k: spec.k,
        r_band: r_band(spec.r),
    };
    // The miss's (preprocess µs, candidate vertices), set by the build.
    let miss_cost = std::cell::Cell::new(None::<(u64, u64)>);
    let lookup = PhaseTimer::start(sink, &trace, "cache_lookup");
    // One view answers the whole lookup: the key's version, the index
    // candidates, and the graph and attributes preprocessing runs on, so
    // a write landing mid-miss cannot mix two versions in one entry. The
    // version pins which graph state an entry answers for: a mutation
    // bumps it, so a post-mutation query is never served a component set
    // the cache-repair pass has not revalidated. The view comes with the
    // decomposition index, built once per dataset (or loaded from the
    // snapshot) outside any miss's preprocessing bill; `built` marks the
    // one query that paid for the build, which logs it as `index_build`.
    let t_build = Instant::now();
    let (view, built) = dataset.indexed_view();
    if built {
        let index = view.index.as_deref().expect("an indexed view");
        sink.event(
            &trace,
            "index_build",
            &[
                ("dur_us", Field::U(elapsed_us(t_build))),
                ("bands", Field::from(index.bands().len())),
                ("vertices", Field::from(index.num_vertices())),
            ],
        );
    }
    let (comps, outcome) = state.cache.get_or_build(&key, view.version, || {
        let t_index = PhaseTimer::start(sink, &trace, "index_candidates");
        let index = view.index.as_deref().expect("an indexed view");
        let candidates = index.candidates(spec.k, dataset.threshold(spec.r));
        t_index.finish_with(&[
            ("vertices", Field::from(candidates.vertices.len())),
            ("built", Field::from(built)),
        ]);
        let t_pre = PhaseTimer::start(sink, &trace, "preprocess");
        let problem = dataset.problem_on(&view, spec.k, spec.r);
        let comps = problem.preprocess_with_candidates(&candidates.vertices);
        let dur_us = t_pre.finish_with(&[("components", Field::from(comps.len()))]);
        metrics.preprocess_us.record(dur_us);
        miss_cost.set(Some((dur_us, candidates.vertices.len() as u64)));
        comps
    });
    let hit = outcome.hit;
    lookup.finish_with(&[("outcome", Field::from(if hit { "hit" } else { "miss" }))]);
    // Attribute the miss's cost to the stats frame so operators see
    // cold-query preprocessing time and candidate-index leverage — but
    // only when this query's build is the one the cache kept. Two
    // clients racing a cold key both run the build; counting both would
    // double-bill `preprocess_ms` / `oracle_evals` for one resident
    // entry.
    if let (true, Some((us, vertices))) = (outcome.won, miss_cost.get()) {
        let evals = comps.iter().map(|c| c.oracle_evals).sum();
        state.cache.record_miss(us, evals, vertices);
    }
    let cache = if hit {
        CacheOutcome::Hit
    } else {
        CacheOutcome::Miss
    };

    let mut cfg = match (&kind, spec.algo) {
        (QueryKind::Enumerate, Algo::Adv) => AlgoConfig::adv_enum(),
        (QueryKind::Enumerate, Algo::Basic) => AlgoConfig::basic_enum(),
        (QueryKind::Maximum, Algo::Adv) => AlgoConfig::adv_max(),
        (QueryKind::Maximum, Algo::Basic) => AlgoConfig::basic_max(),
    };
    if let Some(ms) = clamp_limit(spec.time_limit_ms, state.config.max_time_limit_ms) {
        cfg = cfg.with_time_limit_ms(ms);
    }
    if let Some(limit) = clamp_limit(spec.node_limit, state.config.max_node_limit) {
        cfg = cfg.with_node_limit(limit);
    }

    // AdvEnum streams: every core the engine confirms is pushed onto the
    // session's writer from the hook, which flushes the first one at once
    // and later ones every `FLUSH_INTERVAL`. BasicEnum (maximality is only
    // known after the post-filter) and the maximum search push their
    // cores after the search instead, so they go out with `done` in one
    // write. A failed flush (or the abort probe finding the client gone)
    // cancels the engine, which winds down at its next search node.
    let streaming = matches!(kind, QueryKind::Enumerate) && cfg.maximal_check;
    lock(writer).begin_query();
    let cancel = CancelFlag::new();
    cfg = cfg.with_cancel(cancel.clone());
    if streaming {
        let (out, stop, qid, qtrace) = (writer.clone(), cancel.clone(), id.clone(), trace.clone());
        cfg = cfg.with_on_core(CoreHook::new(move |core: &KrCore| {
            let mut out = lock(&out);
            let frame = Frame::Core {
                id: qid.clone(),
                trace: qtrace.clone(),
                index: out.frames,
                vertices: core.vertices.clone(),
            };
            if !out.stream_core(&frame, Instant::now()) {
                stop.cancel();
            }
        }));
    }

    let search = PhaseTimer::start(sink, &trace, "search");
    let (cores, completed, nodes) = match kind {
        QueryKind::Enumerate => {
            let res = enumerate_maximal_prepared(&comps, &cfg);
            (res.cores, res.completed, res.stats.nodes)
        }
        QueryKind::Maximum => {
            let res = find_maximum_prepared(&comps, &cfg);
            (
                res.core.into_iter().collect(),
                res.completed,
                res.stats.nodes,
            )
        }
    };
    search.finish_with(&[
        ("nodes", Field::U(nodes)),
        ("completed", Field::B(completed)),
    ]);
    let count = cores.len() as u64;

    let elapsed = t0.elapsed();
    let elapsed_ms = elapsed.as_millis() as u64;
    let mut out = lock(writer);
    if !streaming {
        for core in cores {
            let frame = Frame::Core {
                id: id.clone(),
                trace: trace.clone(),
                index: out.frames,
                vertices: core.vertices,
            };
            out.push(&frame);
        }
    }
    let done = Frame::Done {
        id,
        trace: trace.clone(),
        count,
        completed,
        cache,
        elapsed_ms,
        nodes,
    };
    let (sent, frames, writes, write_us) = (
        out.finish(&done, streaming),
        out.frames,
        out.writes,
        out.write_us,
    );
    drop(out);
    if let Err(e) = sent {
        if is_disconnect(&e) {
            // The client hung up mid-query (the abort probe or a
            // disconnect-class write error): not an answered query (no
            // `done`, no latency sample) and not a server failure.
            metrics.client_aborts.inc();
            sink.event(
                &trace,
                "client_abort",
                &[
                    ("dataset", Field::S(spec.dataset.clone())),
                    ("frames", Field::U(frames)),
                    ("nodes", Field::U(nodes)),
                    ("error", Field::S(e.to_string())),
                ],
            );
        } else {
            metrics.query_errors.inc();
        }
        return Err(e);
    }

    if sink.enabled() {
        sink.event(
            &trace,
            "stream",
            &[
                ("frames", Field::U(frames)),
                ("writes", Field::U(writes)),
                ("write_us", Field::U(write_us)),
            ],
        );
        sink.event(
            &trace,
            "query",
            &[
                ("dataset", Field::S(spec.dataset.clone())),
                ("k", Field::U(u64::from(spec.k))),
                ("r", Field::F(spec.r)),
                ("cache", Field::from(if hit { "hit" } else { "miss" })),
                ("count", Field::U(count)),
                ("nodes", Field::U(nodes)),
                ("completed", Field::B(completed)),
                ("elapsed_ms", Field::U(elapsed_ms)),
            ],
        );
    }
    if elapsed_ms >= state.config.slow_query_ms {
        metrics.slow_queries.inc();
        sink.event(
            &trace,
            "slow_query",
            &[
                ("dataset", Field::S(spec.dataset.clone())),
                ("k", Field::U(u64::from(spec.k))),
                ("r", Field::F(spec.r)),
                ("elapsed_ms", Field::U(elapsed_ms)),
                ("threshold_ms", Field::U(state.config.slow_query_ms)),
            ],
        );
    }
    // The acceptance invariant: exactly one latency sample per *answered*
    // query — `done` delivered — so the histogram's bucket counts plus
    // the abort/rejection counters account for every query accepted.
    metrics.query_latency_us.record_duration(elapsed);
    Ok(())
}

/// Handles one mutation batch: validate-and-apply on the dataset, then
/// an invalidate-and-repair pass over that dataset's cached component
/// sets, then one `mutated` ack. Mutations count in `server.mutations`
/// (never `server.queries` — the query-accounting identity must not see
/// write traffic).
fn run_mutation(
    id: String,
    trace: String,
    dataset_name: String,
    scale: f64,
    updates: Vec<GraphUpdate>,
    writer: &SharedWriter,
    state: &Arc<ServerState>,
) -> std::io::Result<()> {
    let metrics = &state.metrics;
    let sink = &state.trace;
    metrics.mutations.inc();
    let t0 = Instant::now();
    if scale > state.config.max_scale && !state.datasets.is_file_backed(&dataset_name) {
        metrics.mutation_errors.inc();
        return send(
            writer,
            &Frame::Error {
                id,
                trace,
                code: ErrorCode::BadRequest,
                message: format!(
                    "scale {} exceeds this server's max_scale {}",
                    scale, state.config.max_scale
                ),
            },
        );
    }
    let dataset = match load_dataset(state, &trace, &dataset_name, scale) {
        Ok(ds) => ds,
        Err(message) => {
            metrics.mutation_errors.inc();
            return send(
                writer,
                &Frame::Error {
                    id,
                    trace,
                    code: ErrorCode::UnknownDataset,
                    message,
                },
            );
        }
    };
    let apply = PhaseTimer::start(sink, &trace, "mutate_apply");
    let outcome = match dataset.apply_batch(&updates) {
        Ok(outcome) => outcome,
        Err(message) => {
            apply.finish_with(&[("rejected", Field::B(true))]);
            metrics.mutation_errors.inc();
            return send(
                writer,
                &Frame::Error {
                    id,
                    trace,
                    code: ErrorCode::BadRequest,
                    message,
                },
            );
        }
    };
    apply.finish_with(&[
        ("applied", Field::U(outcome.applied)),
        ("ignored", Field::U(outcome.ignored)),
        ("core_updates", Field::U(outcome.core_updates)),
    ]);
    metrics.updates_applied.add(outcome.applied);

    let (repairs, invalidations) = if outcome.delta.is_empty() {
        // Nothing changed: the version did not move and every cached
        // entry is still exact.
        (0, 0)
    } else {
        let repair = PhaseTimer::start(sink, &trace, "cache_repair");
        let counts = repair_cache(state, &dataset, &outcome);
        repair.finish_with(&[
            ("repairs", Field::U(counts.0)),
            ("invalidations", Field::U(counts.1)),
        ]);
        counts
    };

    let elapsed_ms = t0.elapsed().as_millis() as u64;
    if sink.enabled() {
        sink.event(
            &trace,
            "mutation",
            &[
                ("dataset", Field::S(dataset_name)),
                ("applied", Field::U(outcome.applied)),
                ("ignored", Field::U(outcome.ignored)),
                ("version", Field::U(outcome.version)),
                ("core_updates", Field::U(outcome.core_updates)),
                ("repairs", Field::U(repairs)),
                ("invalidations", Field::U(invalidations)),
                ("elapsed_ms", Field::U(elapsed_ms)),
            ],
        );
    }
    send(
        writer,
        &Frame::Mutated {
            id,
            trace,
            applied: outcome.applied,
            ignored: outcome.ignored,
            version: outcome.version,
            core_updates: outcome.core_updates,
            repairs,
            invalidations,
            elapsed_ms,
        },
    )
}

/// The invalidate-and-repair pass: walks the dataset's cached component
/// sets and, for each, decides whether the batch's effective deltas
/// could have changed that `(k, r)` entry's preprocessing output. Proven-
/// unaffected entries are *repaired* — revalidated in place at the new
/// version, keeping their preprocessing investment — and everything else
/// is invalidated (dropped; the next query recomputes). Returns
/// `(repairs, invalidations)`.
fn repair_cache(
    state: &Arc<ServerState>,
    dataset: &HostedDataset,
    outcome: &MutationOutcome,
) -> (u64, u64) {
    let view = dataset.view();
    let delta = &outcome.delta;
    state
        .cache
        .repair_after_mutation(dataset.key(), outcome.version, |key, comps| {
            // Attribute changes move similarities on every incident pair
            // at once; classifying them per-entry would need the old
            // table. Conservative: invalidate.
            if !delta.attr_changed.is_empty() {
                return false;
            }
            let index = match &view.index {
                Some(ix) => ix,
                // No index yet means no query ever touched this dataset
                // version chain in a way we can reason about cheaply.
                None => return false,
            };
            // The entry serves every `r` of its band, so each keep
            // decision below must hold for all of them: a pair counts as
            // dissimilar only when its value's band lies strictly on the
            // dissimilar side of the entry's band.
            let distance = dataset.metric().is_distance();
            let dissimilar = |u, v| {
                let value = dataset.metric().evaluate(&view.attributes, u, v);
                beyond_band(distance, value, key.r_band)
            };
            // Vertices resident in this entry's preprocessed components.
            let in_comps = |w: kr_graph::VertexId| -> bool {
                comps
                    .iter()
                    .any(|c: &LocalComponent| c.local_to_global.contains(&w))
            };
            // A removed edge cannot change the entry when it was never
            // part of the entry's k-core subgraph: either the pair is
            // dissimilar at this band (the preprocess filter drops it) or
            // an endpoint sits outside every cached component (the unique
            // maximal k-core of the filtered subgraph is intact without
            // it).
            for &(u, v) in &delta.removed {
                if dissimilar(u, v) {
                    continue;
                }
                if !in_comps(u) || !in_comps(v) {
                    continue;
                }
                return false;
            }
            // An inserted edge cannot change the entry when it never
            // enters the candidate-induced similar subgraph: the pair is
            // dissimilar at this band, or — provided no vertex's band
            // coreness moved anywhere (`core_updates == 0`, so candidate
            // sets are exactly what they were) — an endpoint is not an
            // index candidate at a threshold looser than every `r` of the
            // band: the next band's, or the structural coreness when that
            // one is not strictly looser.
            if !delta.inserted.is_empty() {
                let candidates = if outcome.core_updates == 0 {
                    let step = if distance { 1 } else { -1 };
                    let looser = key
                        .r_band
                        .checked_add(step)
                        .map(|b| b as f64 * R_BAND_WIDTH)
                        .filter(|&r| beyond_band(distance, r, key.r_band))
                        .unwrap_or(step as f64 * f64::INFINITY);
                    Some(index.candidates(key.k, dataset.threshold(looser)).vertices)
                } else {
                    None
                };
                for &(u, v) in &delta.inserted {
                    if dissimilar(u, v) {
                        continue;
                    }
                    match &candidates {
                        Some(cand) if !cand.contains(&u) || !cand.contains(&v) => continue,
                        _ => return false,
                    }
                }
            }
            true
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected loopback pair: the session's end wrapped in a
    /// `FrameWriter`, and the client's end.
    fn pair() -> (FrameWriter, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (
            FrameWriter::new(server, Arc::new(Counter::default())),
            client,
        )
    }

    fn core(index: u64) -> Frame {
        Frame::Core {
            id: "q".to_string(),
            trace: "00000000000000ab".to_string(),
            index,
            vertices: vec![index as u32, index as u32 + 1],
        }
    }

    fn done(count: u64) -> Frame {
        Frame::Done {
            id: "q".to_string(),
            trace: "00000000000000ab".to_string(),
            count,
            completed: true,
            cache: CacheOutcome::Hit,
            elapsed_ms: 0,
            nodes: 7,
        }
    }

    fn wire(frames: &[Frame]) -> Vec<u8> {
        frames
            .iter()
            .flat_map(|f| format!("{}\n", f.to_line()).into_bytes())
            .collect()
    }

    /// Reads exactly `len` bytes, then checks nothing more is queued.
    fn read_exactly(client: &mut TcpStream, len: usize) -> Vec<u8> {
        let mut got = vec![0u8; len];
        client.read_exact(&mut got).expect("read");
        client.set_nonblocking(true).unwrap();
        let mut more = [0u8; 1];
        let pending = client.read(&mut more);
        client.set_nonblocking(false).unwrap();
        assert!(
            matches!(&pending, Err(e) if e.kind() == ErrorKind::WouldBlock),
            "unexpected bytes after {len}: {pending:?}"
        );
        got
    }

    #[test]
    fn streaming_flushes_first_core_then_per_interval_then_with_done() {
        let (mut w, mut client) = pair();
        w.begin_query();
        let t0 = Instant::now();
        let frames = [core(0), core(1), core(2), core(3), core(4), done(5)];

        // The first core goes out alone, at once.
        assert!(w.stream_core(&frames[0], t0));
        assert_eq!(w.writes, 1);
        assert_eq!(
            read_exactly(&mut client, wire(&frames[..1]).len()),
            wire(&frames[..1])
        );

        // Within the interval: buffered, nothing written.
        assert!(w.stream_core(&frames[1], t0 + Duration::from_millis(4)));
        assert!(w.stream_core(&frames[2], t0 + Duration::from_millis(9)));
        assert_eq!(w.writes, 1);

        // A core pushed once the interval has passed flushes everything
        // buffered, itself included; the interval restarts there.
        assert!(w.stream_core(&frames[3], t0 + FLUSH_INTERVAL));
        assert_eq!(w.writes, 2);
        assert_eq!(
            read_exactly(&mut client, wire(&frames[1..4]).len()),
            wire(&frames[1..4])
        );
        assert!(w.stream_core(&frames[4], t0 + FLUSH_INTERVAL + Duration::from_millis(9)));
        assert_eq!(w.writes, 2);

        // `done` goes out with the buffered core in one write.
        w.finish(&frames[5], true).expect("finish");
        assert_eq!(w.writes, 3);
        assert_eq!(
            read_exactly(&mut client, wire(&frames[4..]).len()),
            wire(&frames[4..])
        );
        assert_eq!(w.frames, 5);
        assert_eq!(w.cores_streamed.get(), 5);
    }

    #[test]
    fn buffered_answer_goes_out_with_done_in_one_write() {
        let (mut w, mut client) = pair();
        // The writer is reused across queries: a second query's stream
        // starts from fresh per-query accounting.
        for _ in 0..2 {
            w.begin_query();
            let frames = [core(0), core(1), done(2)];
            w.push(&frames[0]);
            w.push(&frames[1]);
            assert_eq!(w.writes, 0);
            w.finish(&frames[2], false).expect("finish");
            assert_eq!((w.frames, w.writes), (2, 1));
            let bytes = wire(&frames);
            assert_eq!(read_exactly(&mut client, bytes.len()), bytes);
        }
        assert_eq!(w.cores_streamed.get(), 4);
    }

    #[test]
    fn hangup_is_caught_by_the_probe_before_the_final_flush() {
        let (mut w, client) = pair();
        w.begin_query();
        let t0 = Instant::now();
        assert!(w.stream_core(&core(0), t0));
        assert!(w.stream_core(&core(1), t0 + Duration::from_millis(1)));
        drop(client);
        let err = w.finish(&done(2), true).expect_err("peer is gone");
        assert!(is_disconnect(&err), "{err:?}");
        assert_eq!(w.writes, 1, "nothing is written to a gone peer");
        assert_eq!(w.cores_streamed.get(), 1, "only the flushed core counts");
    }
}
