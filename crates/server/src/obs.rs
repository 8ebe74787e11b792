//! Server-side observability: the per-instance `server.*` metrics.
//!
//! Each server instance owns its own [`kr_obs::Registry`] so that
//! instance totals are exact — in particular the acceptance invariant
//! that the `server.query_latency_us` bucket counts sum to the number
//! of queries the instance served, which a process-global registry
//! could not guarantee with several servers in one process (tests, or
//! one binary hosting multiple listeners). Library-layer metrics
//! (`graph.*`, `similarity.*`) accumulate on the process-global
//! registry and are merged in at snapshot time.

use crate::protocol::ProtoError;
use kr_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use std::sync::Arc;

/// Cached handles to every `server.*` metric (the registry lock is taken
/// once, at construction).
pub struct ServerMetrics {
    /// The instance registry backing the handles below.
    pub registry: Registry,
    /// Connections accepted.
    pub connections: Arc<Counter>,
    /// Enumerate/maximum queries accepted (before validation).
    pub queries: Arc<Counter>,
    /// Queries that ended in an error frame (bad scale, unknown dataset).
    pub query_errors: Arc<Counter>,
    /// Request lines rejected as malformed (bad JSON or schema).
    pub requests_malformed: Arc<Counter>,
    /// Request lines rejected for a protocol-version mismatch.
    pub requests_version_rejected: Arc<Counter>,
    /// Queries whose latency crossed the slow-query threshold.
    pub slow_queries: Arc<Counter>,
    /// `core` frames delivered: counted when the flush carrying them
    /// succeeds.
    pub cores_streamed: Arc<Counter>,
    /// Connections refused with a `busy` frame at the `--max-connections`
    /// cap.
    pub busy_rejections: Arc<Counter>,
    /// Queries refused with a `busy` error by per-dataset admission
    /// control (`--max-queries-per-dataset`).
    pub admission_rejections: Arc<Counter>,
    /// Queries abandoned because the client disconnected mid-flight
    /// (detected by the probe before a streaming flush or on a
    /// peer-disconnect write error). Distinct from `query_errors`: the server was healthy, the
    /// client hung up.
    pub client_aborts: Arc<Counter>,
    /// Mutation batches accepted (`add_edge` / `remove_edge` /
    /// `set_attribute`). Counted separately from `server.queries` so the
    /// query-accounting identity (latency samples + aborts + rejections
    /// + errors = queries) is undisturbed by write traffic.
    pub mutations: Arc<Counter>,
    /// Mutation batches that ended in an error frame (bad scale, unknown
    /// dataset, rejected batch).
    pub mutation_errors: Arc<Counter>,
    /// Individual updates that changed a dataset (batch `applied` sums).
    pub updates_applied: Arc<Counter>,
    /// Answers a cache hit's search produced that `kr_core::verify`
    /// accepted and the entry stored.
    pub answers_verified: Arc<Counter>,
    /// Answers a cache hit's search produced that `kr_core::verify`
    /// rejected; nothing was stored. Any nonzero value is an engine bug.
    pub verify_failures: Arc<Counter>,
    /// Cache hits answered from a stored answer, with no search.
    pub answers_replayed: Arc<Counter>,
    /// Queries currently executing.
    pub active_queries: Arc<Gauge>,
    /// End-to-end latency of successfully answered queries, µs.
    pub query_latency_us: Arc<Histogram>,
    /// Preprocessing time on cache misses, µs.
    pub preprocess_us: Arc<Histogram>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// A fresh instance registry with every metric registered.
    pub fn new() -> Self {
        let registry = Registry::new();
        ServerMetrics {
            connections: registry.counter("server.connections"),
            queries: registry.counter("server.queries"),
            query_errors: registry.counter("server.query_errors"),
            requests_malformed: registry.counter("server.requests_malformed"),
            requests_version_rejected: registry.counter("server.requests_version_rejected"),
            slow_queries: registry.counter("server.slow_queries"),
            cores_streamed: registry.counter("server.cores_streamed"),
            busy_rejections: registry.counter("server.busy_rejections"),
            admission_rejections: registry.counter("server.admission_rejections"),
            client_aborts: registry.counter("server.client_aborts"),
            mutations: registry.counter("server.mutations"),
            mutation_errors: registry.counter("server.mutation_errors"),
            updates_applied: registry.counter("server.updates_applied"),
            answers_verified: registry.counter("server.answers_verified"),
            verify_failures: registry.counter("server.verify_failures"),
            answers_replayed: registry.counter("server.answers_replayed"),
            active_queries: registry.gauge("server.active_queries"),
            query_latency_us: registry.histogram("server.query_latency_us"),
            preprocess_us: registry.histogram("server.preprocess_us"),
            registry,
        }
    }

    /// Classifies and counts a rejected request line: version mismatches
    /// and everything else (bad JSON, schema violations) are tracked
    /// separately — the two have different operational meanings (stale
    /// client fleet vs. buggy/hostile client).
    pub fn record_request_error(&self, e: &ProtoError) {
        match e {
            ProtoError::UnsupportedVersion(_) => self.requests_version_rejected.inc(),
            ProtoError::Json(_) | ProtoError::Malformed(_) => self.requests_malformed.inc(),
        }
    }

    /// What a `metrics` wire request returns: this instance's registry
    /// merged with the process-global one (`graph.*`, `similarity.*`).
    pub fn wire_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot().merge(&kr_obs::global().snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonError;

    #[test]
    fn request_errors_classified() {
        let m = ServerMetrics::new();
        m.record_request_error(&ProtoError::Json(JsonError {
            message: "trailing data".into(),
            offset: 3,
        }));
        m.record_request_error(&ProtoError::Malformed("missing 'cmd'".into()));
        m.record_request_error(&ProtoError::UnsupportedVersion(Some(2)));
        m.record_request_error(&ProtoError::UnsupportedVersion(None));
        assert_eq!(m.requests_malformed.get(), 2);
        assert_eq!(m.requests_version_rejected.get(), 2);
        // And both surface in the wire snapshot under their names.
        let snap = m.wire_snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        };
        assert_eq!(get("server.requests_malformed"), Some(2));
        assert_eq!(get("server.requests_version_rejected"), Some(2));
    }

    #[test]
    fn wire_snapshot_includes_global_registry() {
        let m = ServerMetrics::new();
        kr_obs::global().counter("test.obs_merge_marker").inc();
        let snap = m.wire_snapshot();
        assert!(
            snap.counters
                .iter()
                .any(|(n, v)| n == "test.obs_merge_marker" && *v >= 1),
            "global metrics must be merged into the wire snapshot"
        );
        assert!(snap
            .histograms
            .iter()
            .any(|(n, _)| n == "server.query_latency_us"));
    }
}
