//! # kr-server
//!
//! A long-lived (k,r)-core query service. The paper's algorithms answer
//! one query over a fixed graph; serving "heavy traffic" means the
//! expensive, query-independent work — dataset residency and Algorithm
//! 1's preprocessing (dissimilar-edge filter → k-core peel → component
//! split → arena build) — must be paid once and amortized across
//! queries. This crate wraps the `kr_core` engines in exactly that:
//!
//! * [`protocol`] — a versioned, line-delimited JSON wire protocol
//!   (std-only; the codec lives in [`json`]);
//! * [`cache`] — an LRU cache of preprocessed [`kr_core::LocalComponent`]
//!   sets keyed by `(dataset, k, r-band)`, sharded by key hash and shared
//!   across connections via `Arc`, with hit/miss/eviction statistics
//!   merged across shards;
//! * [`datasets`] — resident, lazily-generated preset datasets;
//! * [`obs`] — the per-instance `server.*` metrics registry surfaced by
//!   the wire `metrics` request, and the structured-trace sink every
//!   query's span events go to (see `docs/OBSERVABILITY.md`);
//! * `session` / [`server`] — one thread per connection dispatching
//!   queries onto the engines (the search runs on the session thread; a
//!   cache miss may preprocess on a short-lived worker pool), with
//!   budget-clamped cancellation,
//!   a connection cap (`busy` rejection frames), per-dataset admission
//!   limits, mid-query client-abort detection, and clean shutdown;
//! * [`client`] — the blocking client that backs `krcore-cli query` and
//!   doubles as the integration-test driver.
//!
//! Enumeration queries **stream**: each maximal core is its own frame,
//! the first flushed the moment the engine confirms it (via
//! [`kr_core::CoreHook`]) and later ones every 10 ms and with `done`, so
//! heavy queries deliver early results instead of buffering the full
//! family.
//!
//! ## In-process quickstart
//!
//! ```
//! use kr_server::{Client, QuerySpec, Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! let handle = server.spawn();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let spec = QuerySpec { scale: 0.1, ..QuerySpec::new("gowalla-like", 3, 8.0) };
//! let first = client.enumerate(spec.clone()).unwrap();
//! let again = client.enumerate(spec).unwrap();          // served from cache
//! assert_eq!(first.cores, again.cores);
//! assert_eq!(again.cache, kr_server::CacheOutcome::Hit);
//! handle.shutdown_and_join().unwrap();
//! ```

pub mod cache;
pub mod client;
pub mod datasets;
pub mod json;
pub mod obs;
pub mod protocol;
pub mod server;
pub(crate) mod session;
pub(crate) mod sync;

pub use cache::{CacheKey, CacheStats, ComponentCache, LookupOutcome, DEFAULT_SHARDS};
pub use client::{Client, ClientError, MutationResult, QueryResult};
pub use datasets::{
    dataset_key, AttributeValue, DatasetRegistry, DatasetView, GraphUpdate, HostedDataset,
    MutationDelta, MutationOutcome,
};
pub use kr_obs::{HistogramSnapshot, MetricsSnapshot, TraceSink, HIST_BUCKETS};
pub use obs::ServerMetrics;
pub use protocol::{
    Algo, CacheOutcome, ErrorCode, Frame, ProtoError, QuerySpec, Request, FRAME_KINDS,
    PROTOCOL_VERSION, REQUEST_CMDS,
};
pub use server::{Server, ServerConfig, ServerHandle, ServerState};
