//! # kr-obs
//!
//! Std-only observability substrate for the (k,r)-core serving stack.
//! Two halves:
//!
//! * [`metrics`] — a registry of atomic [`Counter`]s, [`Gauge`]s, and
//!   log-linear-bucket [`Histogram`]s. The record path is lock-free
//!   (plain relaxed atomics on `Arc`'d metrics); the registry lock is
//!   only taken at registration and snapshot time. Snapshots are plain
//!   data, mergeable across registries (the server merges its
//!   per-instance registry with the process-global one before answering
//!   a `metrics` wire request), with exact-bucket p50/p90/p99
//!   extraction.
//! * [`trace`] — structured spans: a per-query `trace_id`, a
//!   [`PhaseTimer`] that emits one JSON-lines event per finished phase,
//!   and a [`TraceSink`] that writes those events to a file or stderr
//!   (`krcore-cli serve --log <path|->`). The same sink carries the
//!   slow-query log.
//!
//! Library crates record into the process-global registry ([`global`])
//! under a crate-prefixed name (`graph.*`, `similarity.*`);
//! the server owns its own [`Registry`] instance for `server.*` metrics
//! so that concurrently-running server instances (e.g. in one test
//! process) keep independent query-latency totals.
//!
//! ```
//! use kr_obs::{Registry, TraceSink};
//!
//! let reg = Registry::new();
//! let lat = reg.histogram("server.query_latency_us");
//! lat.record(250);
//! lat.record(8_000);
//! let snap = reg.snapshot();
//! let (_, hist) = &snap.histograms[0];
//! assert_eq!(hist.count, 2);
//! assert!(hist.quantile(0.99) >= hist.quantile(0.50));
//!
//! let sink = TraceSink::disabled();
//! let trace = kr_obs::next_trace_id();
//! let t = kr_obs::PhaseTimer::start(&sink, &trace, "preprocess");
//! let _dur_us = t.finish(); // would emit one JSON line if the sink were enabled
//! ```

pub mod metrics;
pub mod trace;

pub use metrics::{
    bucket_bounds, bucket_index, global, Counter, Gauge, GaugeGuard, Histogram, HistogramSnapshot,
    MetricsSnapshot, Registry, HIST_BUCKETS, HIST_SUBS,
};
pub use trace::{next_trace_id, Field, PhaseTimer, TraceSink};
