//! # kr-similarity
//!
//! Similarity substrate for the (k,r)-core reproduction.
//!
//! The paper's similarity constraint is parameterized by a metric over
//! vertex attributes and a threshold `r`:
//!
//! * DBLP / Pokec use **weighted Jaccard** over keyword multisets, with `r`
//!   calibrated as the top-x‰ quantile of the pairwise similarity
//!   distribution;
//! * Gowalla / Brightkite use **Euclidean distance** over geo-locations,
//!   with `r` a distance threshold in kilometers (two users are "similar"
//!   iff their distance is *at most* `r`).
//!
//! This crate provides attribute storage ([`AttributeTable`]), metrics
//! ([`Metric`]), threshold semantics ([`Threshold`]), the pairwise-quantile
//! calibration ([`quantile`]), metric-aware candidate indexes
//! ([`candidates`]), and similarity/dissimilarity graph materialization
//! over vertex subsets ([`simgraph`]).

pub mod attributes;
pub mod candidates;
pub mod io;
pub mod metrics;
pub mod oracle;
pub mod quantile;
pub mod simgraph;
pub mod snapshot;

pub use attributes::AttributeTable;
pub use candidates::{AllPairs, CandidatePairs, GridCandidates, InvertedIndexCandidates};
pub use io::{
    read_keywords_mapped, read_points_mapped, write_attributes, AttrIoError, AttrJoinStats,
};
pub use metrics::Metric;
pub use oracle::{SimilarityOracle, TableOracle, Threshold};
pub use quantile::{
    similarity_quantile_exact, similarity_quantile_sampled, similarity_quantiles_exact,
    similarity_quantiles_sampled, top_permille_threshold,
};
pub use simgraph::{
    build_dissimilarity_lists, build_dissimilarity_lists_brute, build_dissimilarity_view,
    build_similarity_graph, build_similarity_graph_brute, DissimMode, DissimilarityLists,
    DissimilarityView, LazyDissimilarity, LAZY_MIN_N,
};
pub use snapshot::{
    read_snapshot, read_snapshot_bytes, read_snapshot_file, snapshot_to_bytes, write_snapshot,
    write_snapshot_file, DatasetSnapshot,
};
