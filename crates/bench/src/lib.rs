//! # kr-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (Section 8) on the synthetic preset datasets. The `repro`
//! binary prints the same rows/series the paper reports; Criterion benches
//! under `benches/` cover the same code paths with statistical rigor.
//!
//! The paper's absolute numbers come from million-vertex SNAP graphs on a
//! Xeon with a one-hour INF cutoff; the presets are ~500x smaller, so we
//! compare *shapes*: which algorithm/bound/order wins, by what factor, and
//! how costs move with `k` and `r`. `EXPERIMENTS.md` records the
//! paper-vs-measured correspondence per figure.

pub mod datasets;
pub mod experiments;
pub mod runner;
pub mod table;

pub use datasets::{corridor_instance, BenchDataset, RAxis};
pub use runner::{measure, MeasureOutcome};
pub use table::Table;
