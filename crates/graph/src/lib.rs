//! # kr-graph
//!
//! Graph substrate for the `(k,r)`-core reproduction: a compact undirected
//! graph representation together with the classic graph machinery the paper's
//! algorithms depend on:
//!
//! * [`Graph`] — an immutable, CSR-backed undirected simple graph.
//! * [`Csr`] — reusable offsets-plus-arena storage for per-vertex lists
//!   (the `kr-core` search arena and the dissimilarity lists are built on
//!   it).
//! * [`GraphBuilder`] — incremental construction with duplicate/self-loop
//!   elimination.
//! * [`kcore`] — the Batagelj–Zaversnik linear core decomposition and k-core
//!   extraction (Algorithm 1 line 3 of the paper, Theorem 2 pruning,
//!   and both core-based size upper bounds).
//! * [`components`] — connected components / connectivity checks.
//! * [`maintain`] — incremental coreness maintenance under edge updates
//!   (subcore-bounded traversal repair) plus the mutable
//!   [`AdjacencyList`] companion to the immutable CSR graph.
//! * [`coloring`] — greedy coloring used by the color-based upper bound.
//! * [`order`] — degeneracy ordering (used by clique enumeration and
//!   coloring heuristics).
//! * [`io`] — SNAP-style edge-list reading/writing (line-buffered reference
//!   reader plus the chunked streaming loader real ingestion uses) so that
//!   real datasets can be dropped in for the synthetic ones.
//! * [`snapshot`] — the `.krb` binary snapshot container: checksummed,
//!   64-byte-aligned little-endian sections holding the densified CSR
//!   graph, original-id map, and (via `kr_similarity`) attributes.
//! * [`subgraph`] — induced-subgraph extraction with vertex renumbering.

pub mod coloring;
pub mod components;
pub mod csr;
pub mod graph;
pub mod io;
pub mod kcore;
pub mod maintain;
pub mod order;
pub mod snapshot;
pub mod subgraph;

pub use coloring::{greedy_coloring, greedy_coloring_in_order};
pub use components::{connected_components, is_connected, ComponentLabels};
pub use csr::Csr;
pub use graph::{Graph, GraphBuilder, VertexId};
pub use io::{
    read_edge_list, read_edge_list_streaming, read_edge_list_streaming_file,
    read_edge_list_streaming_with, ByteSource, IoError, LoadProgress, LoadedGraph,
};
pub use kcore::{core_decomposition, k_core, k_core_of_subset, CoreDecomposition};
pub use maintain::{coreness_after_insert, coreness_after_remove, AdjacencyList, NeighborSource};
pub use order::degeneracy_order;
pub use snapshot::{Snapshot, SnapshotError, SnapshotWriter};
pub use subgraph::InducedSubgraph;
