//! The accept loop and server lifecycle.
//!
//! One OS thread per connection handles protocol framing and blocks on
//! its client's socket, and a query's search runs on that session
//! thread; only a cache miss's preprocessing may run on a short-lived
//! worker pool sized by the query's `threads`. Sessions poll their
//! socket with a short read timeout so that a server-wide shutdown flag
//! is observed promptly, which is what makes `shutdown` clean: the accept
//! loop stops, every session thread drains, and `run` returns.

use crate::cache::ComponentCache;
use crate::datasets::DatasetRegistry;
use crate::obs::ServerMetrics;
use crate::protocol::Frame;
use crate::session;
use crate::sync::lock;
use kr_obs::{Field, TraceSink};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Maximum resident preprocessed component sets (LRU beyond that).
    pub cache_capacity: usize,
    /// Ceiling for a query's wall-clock budget. A request asking for more
    /// (or for no limit) is clamped to this; `None` = no ceiling. This is
    /// the server's cancellation mechanism: the engine checks the
    /// deadline at every search node and reports `completed = false`.
    pub max_time_limit_ms: Option<u64>,
    /// Ceiling for a query's search-node budget (`None` = no ceiling).
    pub max_node_limit: Option<u64>,
    /// Largest dataset scale a query may ask the registry to generate.
    pub max_scale: f64,
    /// File-backed datasets to register: `(name, snapshot path)`. Paths
    /// are checked for existence at bind time (fail fast on a typo'd
    /// `--dataset`), but the snapshots themselves open lazily on first
    /// query. A query's `scale` is ignored for these — the file pins the
    /// graph (identity `name@1`).
    pub file_datasets: Vec<(String, String)>,
    /// Where structured trace events (JSON lines) go: `None` disables
    /// tracing, `"-"` writes to stderr, anything else is a file path
    /// opened in append mode at bind time (fail fast on an unwritable
    /// path).
    pub trace_log: Option<String>,
    /// Queries at or above this wall-clock latency emit a `slow_query`
    /// trace event and bump `server.slow_queries`. `0` flags every query
    /// (useful in smoke tests to force an emission).
    pub slow_query_ms: u64,
    /// Connection cap: while this many sessions are live, further
    /// connections are answered with a single `busy` frame and closed
    /// (counted in `server.busy_rejections`) instead of silently queueing
    /// behind a saturated accept loop. `0` = unlimited.
    pub max_connections: usize,
    /// Per-dataset admission limit: at most this many queries in flight
    /// per dataset identity; excess queries get an `error` frame with
    /// code `busy` (counted in `server.admission_rejections`) and the
    /// connection stays usable. `None` = unlimited.
    pub max_queries_per_dataset: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_capacity: 16,
            max_time_limit_ms: Some(120_000),
            max_node_limit: None,
            max_scale: 2.0,
            file_datasets: Vec::new(),
            trace_log: None,
            slow_query_ms: 1_000,
            max_connections: 256,
            max_queries_per_dataset: None,
        }
    }
}

/// State shared by the accept loop and every session.
pub struct ServerState {
    /// Tunables the server was started with.
    pub config: ServerConfig,
    /// The shared component cache.
    pub cache: ComponentCache,
    /// Resident datasets.
    pub datasets: DatasetRegistry,
    /// This instance's `server.*` metrics (merged with the process-global
    /// registry when answering a `metrics` request).
    pub metrics: ServerMetrics,
    /// Destination for structured trace events (disabled unless
    /// [`ServerConfig::trace_log`] was set).
    pub trace: TraceSink,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    /// Live sessions (incremented before the session thread spawns,
    /// decremented when its [`SessionPermit`] drops) — the connection
    /// cap's book.
    active_sessions: AtomicUsize,
    /// Queries in flight per dataset identity — the admission-control
    /// book. A plain mutex: touched twice per query, never held across
    /// compute.
    admission: Mutex<HashMap<String, usize>>,
}

impl ServerState {
    /// True once a `shutdown` request was accepted.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flags shutdown and pokes the accept loop awake with a throwaway
    /// connection (the listener has no timeout of its own).
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Sessions currently being served.
    pub fn active_sessions(&self) -> usize {
        self.active_sessions.load(Ordering::SeqCst)
    }

    /// Claims one connection slot (the accept loop has already checked
    /// the cap; the claim itself is unconditional).
    fn claim_session(self: &Arc<Self>) -> SessionPermit {
        self.active_sessions.fetch_add(1, Ordering::SeqCst);
        SessionPermit {
            state: self.clone(),
        }
    }

    /// Admission control: claims one in-flight slot for `dataset_key`, or
    /// reports the configured limit when the dataset is saturated.
    pub(crate) fn try_admit(self: &Arc<Self>, dataset_key: &str) -> Result<AdmissionGuard, usize> {
        let limit = match self.config.max_queries_per_dataset {
            None => {
                // Unlimited: skip the book entirely.
                return Ok(AdmissionGuard {
                    state: self.clone(),
                    key: None,
                });
            }
            Some(limit) => limit.max(1),
        };
        let mut book = lock(&self.admission);
        let in_flight = book.entry(dataset_key.to_string()).or_insert(0);
        if *in_flight >= limit {
            return Err(limit);
        }
        *in_flight += 1;
        Ok(AdmissionGuard {
            state: self.clone(),
            key: Some(dataset_key.to_string()),
        })
    }
}

/// RAII slot in the connection-cap book; dropping it (session thread
/// exit, however it exits) frees the slot.
pub(crate) struct SessionPermit {
    state: Arc<ServerState>,
}

impl Drop for SessionPermit {
    fn drop(&mut self) {
        self.state.active_sessions.fetch_sub(1, Ordering::SeqCst);
    }
}

/// RAII slot in the per-dataset admission book (`key = None` when
/// admission control is off and nothing was claimed).
pub(crate) struct AdmissionGuard {
    state: Arc<ServerState>,
    key: Option<String>,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        if let Some(key) = &self.key {
            let mut book = lock(&self.state.admission);
            if let Some(in_flight) = book.get_mut(key) {
                *in_flight = in_flight.saturating_sub(1);
                if *in_flight == 0 {
                    book.remove(key);
                }
            }
        }
    }
}

/// Writes one `busy` frame and closes the overflow connection. Runs on
/// the accept-loop thread, so the write gets a short timeout: a peer that
/// never drains its receive buffer must not stall accepting.
fn reject_busy(mut stream: TcpStream, max_connections: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut line = Frame::Busy {
        max_connections: max_connections as u64,
        message: format!("server is at its connection cap ({max_connections}); retry later"),
    }
    .to_line();
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
    // Dropping the stream closes it.
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener and builds the shared state. No connection is
    /// accepted until [`Server::run`] (or [`Server::spawn`]).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let bad_input = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        let mut datasets = DatasetRegistry::new();
        for (name, path) in &config.file_datasets {
            if !std::path::Path::new(path).is_file() {
                return Err(bad_input(format!(
                    "dataset '{name}': snapshot file {path:?} does not exist"
                )));
            }
            datasets.register_file(name, path).map_err(bad_input)?;
        }
        let trace = match config.trace_log.as_deref() {
            None => TraceSink::disabled(),
            Some("-") => TraceSink::stderr(),
            Some(path) => TraceSink::file(path)?,
        };
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            cache: ComponentCache::new(config.cache_capacity),
            datasets,
            metrics: ServerMetrics::new(),
            trace,
            config,
            shutdown: AtomicBool::new(false),
            local_addr,
            active_sessions: AtomicUsize::new(0),
            admission: Mutex::new(HashMap::new()),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Shared state handle (tests read cache stats through this).
    pub fn state(&self) -> Arc<ServerState> {
        self.state.clone()
    }

    /// Serves until a `shutdown` request arrives, then drains all session
    /// threads and returns.
    pub fn run(self) -> std::io::Result<()> {
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for conn in self.listener.incoming() {
            if self.state.is_shutting_down() {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue, // transient accept failure
            };
            // Reap finished sessions so a long-lived server's handle list
            // tracks live connections, not its whole accept history.
            sessions.retain(|h| !h.is_finished());
            let cap = self.state.config.max_connections;
            if cap != 0 && self.state.active_sessions() >= cap {
                self.state.metrics.busy_rejections.inc();
                if self.state.trace.enabled() {
                    let peer = stream
                        .peer_addr()
                        .map(|a| a.to_string())
                        .unwrap_or_else(|_| "unknown".to_string());
                    self.state.trace.event(
                        "",
                        "busy_reject",
                        &[
                            ("peer", Field::S(peer)),
                            ("max_connections", Field::from(cap)),
                        ],
                    );
                }
                reject_busy(stream, cap);
                continue;
            }
            let permit = self.state.claim_session();
            let state = self.state.clone();
            sessions.push(std::thread::spawn(move || {
                session::run_session(stream, state, permit);
            }));
        }
        for handle in sessions {
            let _ = handle.join();
        }
        Ok(())
    }

    /// Runs the server on a background thread, returning a handle with
    /// the resolved address.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let state = self.state.clone();
        let join = std::thread::spawn(move || self.run());
        ServerHandle { addr, state, join }
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (cache stats etc.).
    pub fn state(&self) -> Arc<ServerState> {
        self.state.clone()
    }

    /// Requests shutdown over the wire and waits for the accept loop and
    /// every session to finish.
    pub fn shutdown_and_join(self) -> std::io::Result<()> {
        if !self.state.is_shutting_down() {
            match crate::client::Client::connect(self.addr) {
                Ok(mut client) => {
                    let _ = client.shutdown();
                }
                // Listener already gone — flag directly as a fallback.
                Err(_) => self.state.begin_shutdown(),
            }
        }
        self.join.join().expect("server thread panicked")
    }
}
