//! (k,r)-core decomposition index: one precomputed hierarchy that serves
//! candidate sets for the *whole* (k,r) parameter space.
//!
//! (k,r)-cores are containment-monotone in both parameters: every
//! (k,r)-core is contained in the k-core of the graph that remains after
//! dropping r-dissimilar edges, and tightening either parameter only
//! shrinks that graph. The index exploits both axes:
//!
//! * **k axis** — the classic coreness ordering
//!   ([`kr_graph::core_decomposition`], one O(n+m) peel) answers "which
//!   vertices survive the k-core" for *every* k at once.
//! * **r axis** — a small ladder of similarity thresholds (*r-bands*,
//!   default quantiles of the sampled pairwise-metric distribution).
//!   For each band the index stores the coreness of every vertex in the
//!   band-filtered graph, i.e. the maximal k at which the vertex
//!   survives within that band.
//!
//! A query `(k, r)` picks the tightest band that is still a **sound
//! superset** of the query's filtered graph (for a distance threshold
//! the filtered graph grows with `r`, so the smallest band `>= r`; for a
//! similarity threshold it shrinks, so the largest band `<= r`) and
//! returns `{v : coreness_band(v) >= k}`. When no band bounds the query,
//! the unfiltered *structural* coreness — always a sound superset — is
//! the fallback. The candidate set then feeds
//! [`ProblemInstance::preprocess_with_candidates`], which pays the
//! similarity oracle only on candidate-internal edges instead of the
//! whole graph: the residual search the paper's engines run is
//! unchanged, it just starts from a far smaller frontier.
//!
//! The index is computed once per dataset (`krcore-cli ingest
//! --with-index`, or lazily by the server registry). The build streams
//! the pairwise values for all band quantiles at once, storing none per
//! pair, and evaluates the metric once per edge, shared by every band:
//! about 12 ms on the 2000-vertex dblp-like preset and 13 ms on the
//! 1600-vertex gowalla-like one (bench_smoke `index_build_ms`), where a
//! pass per quantile took 4–5 s. It is persisted as an
//! optional `.krb` section ([`kr_graph::snapshot::section::DECOMP_INDEX`])
//! so old readers skip it and old snapshots still serve without it. See
//! `docs/KRB_FORMAT.md` for the byte layout.

use crate::problem::ProblemInstance;
use kr_graph::maintain::{coreness_after_insert, coreness_after_remove, NeighborSource};
use kr_graph::snapshot::{
    add_graph_sections, get_u32, get_u64, put_u32, put_u64, section, Snapshot, SnapshotError,
    SnapshotWriter, SECTION_FLAG_OPTIONAL,
};
use kr_graph::{core_decomposition, AdjacencyList, Graph, VertexId};
use kr_similarity::snapshot::{encode_attributes, read_snapshot, DatasetSnapshot};
use kr_similarity::{
    similarity_quantiles_exact, similarity_quantiles_sampled, AttributeTable, Metric,
    SimilarityOracle, TableOracle, Threshold,
};
use std::io::Write;
use std::path::Path;

/// Quantiles (fraction-from-top of the pairwise metric distribution)
/// at which [`DecompositionIndex::build_default`] places its r-bands.
/// Geometric on both tails because that is where queries live: the
/// paper's similarity sweeps use top-permille thresholds (q near 0),
/// while its distance sweeps use kilometre radii that admit only a tiny
/// fraction of pairs (q near 1). Duplicate quantile values collapse, so
/// the realised band count is usually lower — on a sparse similarity
/// distribution the whole q >= 0.1 half dedups to a single zero band.
pub const DEFAULT_BAND_QUANTILES: [f64; 12] = [
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 0.7, 0.9, 0.97, 0.99, 0.997, 0.999,
];

/// Above this vertex count the default band thresholds come from a
/// seeded sample of vertex pairs instead of the exact O(n²) pairwise
/// distribution.
const EXACT_QUANTILE_CUTOFF: usize = 2_000;

/// Seed for the sampled quantile pass — fixed so the same dataset always
/// produces byte-identical index sections (the golden fixtures pin it).
const BAND_SAMPLE_SEED: u64 = 0xC0DE_BA5E;

/// Candidate vertex set resolved from the index for one `(k, r)` query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSet {
    /// Global vertex ids that may belong to some (k,r)-core — a sound
    /// superset of every (k,r)-core's vertex set at these parameters.
    pub vertices: Vec<VertexId>,
    /// Index of the band that bounded the query, or `None` when the
    /// structural (unfiltered) coreness fallback answered instead.
    pub band: Option<usize>,
}

/// The per-dataset (k,r)-core decomposition index. Immutable once built;
/// the server shares it via `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompositionIndex {
    /// True when the dataset's metric is a distance (threshold semantics
    /// `dist <= r`, filtered graph grows with `r`); false for similarity
    /// semantics (`sim >= r`, filtered graph shrinks as `r` grows).
    distance: bool,
    /// Band thresholds, strictly ascending.
    bands: Vec<f64>,
    /// Coreness of every vertex in the *unfiltered* graph — the pure k
    /// axis, sound for any `r`.
    structural: Vec<u32>,
    /// `band_core[b][v]`: coreness of `v` in the graph filtered at
    /// `bands[b]` — the maximal k at which `v` survives within band `b`.
    band_core: Vec<Vec<u32>>,
}

impl DecompositionIndex {
    /// Builds the index for `graph` over explicit band thresholds. The
    /// oracle's own threshold value is irrelevant (only its metric
    /// direction matters); non-finite, negative, and duplicate bands are
    /// dropped.
    pub fn build(graph: &Graph, oracle: &TableOracle, bands: &[f64]) -> Self {
        let distance = oracle.metric().is_distance();
        let mut bands: Vec<f64> = bands
            .iter()
            .copied()
            .filter(|b| b.is_finite() && *b >= 0.0)
            .collect();
        bands.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite bands"));
        bands.dedup();
        let structural = core_decomposition(graph).core;
        // One metric evaluation per edge, shared by every band's filter,
        // which keeps the parent's sorted rows.
        let values = graph.edge_values(|u, v| oracle.value(u, v));
        let band_core = bands
            .iter()
            .map(|&b| {
                let threshold = band_threshold(distance, b);
                let band = graph.retain_edges_by_value(&values, |x| threshold.is_similar_value(x));
                core_decomposition(&band).core
            })
            .collect();
        DecompositionIndex {
            distance,
            bands,
            structural,
            band_core,
        }
    }

    /// [`DecompositionIndex::build`] with band thresholds derived from
    /// the dataset itself: the [`DEFAULT_BAND_QUANTILES`] of the pairwise
    /// metric distribution (exact below `EXACT_QUANTILE_CUTOFF`
    /// vertices, seeded sampling above — deterministic either way).
    ///
    /// Cost: the pairwise values for all twelve quantiles — `n(n-1)/2`
    /// of them, or a fixed sample above the cutoff — plus one metric
    /// value per edge and one peel per band; no value is stored per
    /// pair. [`TableOracle`] runs the exact pass through bit-identical
    /// kernels. Keyword metrics with small integer weight totals
    /// (dblp-like, pokec-like) sum every pair's exact `(num, den)` in
    /// `u16` in one pass — along dense weight rows for the keywords an
    /// eighth of the vertices list, along posting lists for the rest —
    /// and tally them in a table of bounded size. Euclidean points
    /// stream their squared distances, and every other input (cosine,
    /// other keyword weights) its values, twice through an exact rank
    /// select that keeps a 256 KiB histogram plus the values of the few
    /// histogram buckets holding a requested rank; points root only the
    /// selected squares. bench_smoke's `index_build_ms` reads ~12 ms on
    /// dblp-like (n = 2000) and ~13 ms on gowalla-like (n = 1600),
    /// against ~24 and ~31 ms with 64-bit posting lists and a
    /// per-pair distance loop. The builds peak near 1 MiB and 1.5 MiB of
    /// heap, where a buffer of every pair's value alone took 16 MB and
    /// 10 MB.
    pub fn build_default(graph: &Graph, oracle: &TableOracle) -> Self {
        let n = graph.num_vertices();
        if n < 2 {
            return DecompositionIndex::build(graph, oracle, &[]);
        }
        let bands = if n <= EXACT_QUANTILE_CUTOFF {
            similarity_quantiles_exact(oracle, n, &DEFAULT_BAND_QUANTILES)
        } else {
            let samples = 200_000.min(n.saturating_mul(32));
            similarity_quantiles_sampled(
                oracle,
                n,
                &DEFAULT_BAND_QUANTILES,
                samples,
                BAND_SAMPLE_SEED,
            )
        };
        DecompositionIndex::build(graph, oracle, &bands)
    }

    /// Number of vertices the index covers.
    pub fn num_vertices(&self) -> usize {
        self.structural.len()
    }

    /// The band thresholds, strictly ascending.
    pub fn bands(&self) -> &[f64] {
        &self.bands
    }

    /// True when the index was built for distance-threshold semantics.
    pub fn is_distance(&self) -> bool {
        self.distance
    }

    /// Heap footprint of the index in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bands.len() * 8
            + self.structural.len() * 4
            + self.band_core.iter().map(|c| c.len() * 4).sum::<usize>()
    }

    /// Picks the tightest band that is a sound superset of the query's
    /// filtered graph, or `None` when only the structural fallback is
    /// sound: for distance thresholds the filtered graph *grows* with
    /// `r`, so any band `>= r` over-approximates it (smallest wins); for
    /// similarity thresholds it *shrinks* as `r` grows, so any band
    /// `<= r` over-approximates it (largest wins).
    fn band_for(&self, r: f64) -> Option<usize> {
        if self.distance {
            self.bands.iter().position(|&b| b >= r)
        } else {
            self.bands.iter().rposition(|&b| b <= r)
        }
    }

    /// Resolves the candidate vertex set for a `(k, r)` query: every
    /// vertex of every (k,r)-core at these parameters is in the returned
    /// set (soundness is pinned by the `decomp_prop` harness — the set
    /// may over-approximate, never under-approximate).
    ///
    /// # Panics
    /// Panics when `threshold`'s direction contradicts the metric family
    /// the index was built for — the same configuration bug
    /// [`TableOracle::new`] rejects.
    pub fn candidates(&self, k: u32, threshold: Threshold) -> CandidateSet {
        match (self.distance, threshold) {
            (true, Threshold::MinSimilarity(_)) | (false, Threshold::MaxDistance(_)) => {
                panic!("threshold direction contradicts the index's metric family")
            }
            _ => {}
        }
        let band = self.band_for(threshold.value());
        let core: &[u32] = match band {
            Some(b) => &self.band_core[b],
            None => &self.structural,
        };
        let vertices = (0..core.len() as VertexId)
            .filter(|&v| core[v as usize] >= k)
            .collect();
        CandidateSet { vertices, band }
    }

    /// Maintains the index through one edge insertion: `adj` must already
    /// contain `{u, v}` and `oracle` must carry the current attributes
    /// (its own threshold is irrelevant). The structural coreness and
    /// every band whose filter admits the edge are repaired by the
    /// subcore-bounded traversal of [`kr_graph::maintain`] — band graphs
    /// are never materialized; band adjacency is the structural
    /// neighborhood filtered through the oracle at the band's threshold.
    /// Returns the number of (vertex, layer) core numbers that changed.
    pub fn apply_insert(
        &mut self,
        adj: &AdjacencyList,
        oracle: &TableOracle,
        u: VertexId,
        v: VertexId,
    ) -> u64 {
        let mut changed = coreness_after_insert(&mut self.structural, adj, u, v).len() as u64;
        for b in 0..self.bands.len() {
            let banded = oracle.with_threshold(band_threshold(self.distance, self.bands[b]));
            if banded.is_similar(u, v) {
                let view = BandView::new(adj, &banded);
                changed += coreness_after_insert(&mut self.band_core[b], &view, u, v).len() as u64;
            }
        }
        changed
    }

    /// Maintains the index through one edge removal: `adj` must no longer
    /// contain `{u, v}`. Mirror of [`DecompositionIndex::apply_insert`].
    pub fn apply_remove(
        &mut self,
        adj: &AdjacencyList,
        oracle: &TableOracle,
        u: VertexId,
        v: VertexId,
    ) -> u64 {
        let mut changed = coreness_after_remove(&mut self.structural, adj, u, v).len() as u64;
        for b in 0..self.bands.len() {
            let banded = oracle.with_threshold(band_threshold(self.distance, self.bands[b]));
            if banded.is_similar(u, v) {
                let view = BandView::new(adj, &banded);
                changed += coreness_after_remove(&mut self.band_core[b], &view, u, v).len() as u64;
            }
        }
        changed
    }

    /// Maintains the index through one vertex attribute change: `adj` is
    /// the (unchanged) structural adjacency, `old`/`new` are oracles over
    /// the attribute tables before and after the change. The structural
    /// coreness is untouched; in each band, every incident structural
    /// edge whose similarity flipped at the band threshold is replayed as
    /// a band-edge insertion or removal. Returns the number of (vertex,
    /// layer) core numbers that changed.
    pub fn apply_attribute(
        &mut self,
        adj: &AdjacencyList,
        old: &TableOracle,
        new: &TableOracle,
        w: VertexId,
    ) -> u64 {
        let mut changed = 0u64;
        for b in 0..self.bands.len() {
            let threshold = band_threshold(self.distance, self.bands[b]);
            let old_b = old.with_threshold(threshold);
            let new_b = new.with_threshold(threshold);
            // Edges whose band membership flips, pinned at their old
            // state until each is individually replayed below, so every
            // traversal sees a graph exactly one edge away from the
            // coreness array it repairs.
            let mut pinned: std::collections::HashMap<(VertexId, VertexId), bool> =
                std::collections::HashMap::new();
            for &x in adj.neighbors(w) {
                let was = old_b.is_similar(w, x);
                if was != new_b.is_similar(w, x) {
                    pinned.insert(edge_key(w, x), was);
                }
            }
            let flips: Vec<((VertexId, VertexId), bool)> =
                pinned.iter().map(|(&e, &was)| (e, was)).collect();
            for ((a, bv), was) in flips {
                pinned.remove(&(a, bv));
                let view = BandView {
                    adj,
                    oracle: &new_b,
                    pinned: &pinned,
                };
                changed += if was {
                    coreness_after_remove(&mut self.band_core[b], &view, a, bv).len() as u64
                } else {
                    coreness_after_insert(&mut self.band_core[b], &view, a, bv).len() as u64
                };
            }
        }
        changed
    }

    /// Encodes the index as a [`section::DECOMP_INDEX`] payload (layout
    /// in `docs/KRB_FORMAT.md`; all integers little-endian, `f64` as
    /// IEEE-754 bits).
    pub fn to_section_bytes(&self) -> Vec<u8> {
        let n = self.structural.len();
        let bc = self.bands.len();
        let mut out = Vec::with_capacity(16 + bc * 8 + (bc + 1) * n * 4);
        put_u32(&mut out, if self.distance { 1 } else { 2 });
        put_u32(&mut out, bc as u32);
        put_u64(&mut out, n as u64);
        for &b in &self.bands {
            put_u64(&mut out, b.to_bits());
        }
        for &c in &self.structural {
            put_u32(&mut out, c);
        }
        for core in &self.band_core {
            debug_assert_eq!(core.len(), n);
            for &c in core {
                put_u32(&mut out, c);
            }
        }
        out
    }

    /// Decodes a [`section::DECOMP_INDEX`] payload, re-validating every
    /// structural property (direction code, band monotonicity, exact
    /// payload length) — corrupt input that slipped past the container
    /// checksum yields a typed error, never a panic.
    pub fn from_section_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let malformed = |msg: String| SnapshotError::Malformed(format!("decomp index: {msg}"));
        if bytes.len() < 16 {
            return Err(malformed(format!(
                "{} bytes is shorter than the header",
                bytes.len()
            )));
        }
        let distance = match get_u32(bytes, 0) {
            1 => true,
            2 => false,
            other => return Err(malformed(format!("unknown direction code {other}"))),
        };
        let bc = get_u32(bytes, 4) as usize;
        let n64 = get_u64(bytes, 8);
        let n = usize::try_from(n64)
            .ok()
            .filter(|&n| n <= bytes.len())
            .ok_or_else(|| malformed(format!("vertex count {n64} exceeds the payload")))?;
        let expected = 16usize
            .checked_add(
                bc.checked_mul(8)
                    .ok_or_else(|| malformed("band count overflows".into()))?,
            )
            .and_then(|x| x.checked_add((bc + 1).checked_mul(n)?.checked_mul(4)?))
            .ok_or_else(|| malformed("size overflows".into()))?;
        if bytes.len() != expected {
            return Err(malformed(format!(
                "payload is {} bytes, layout requires {expected}",
                bytes.len()
            )));
        }
        let mut at = 16;
        let mut bands = Vec::with_capacity(bc);
        for _ in 0..bc {
            let b = f64::from_bits(get_u64(bytes, at));
            at += 8;
            if !b.is_finite() || b < 0.0 {
                return Err(malformed(format!("band threshold {b} is not finite >= 0")));
            }
            if bands.last().is_some_and(|&prev: &f64| prev >= b) {
                return Err(malformed(
                    "band thresholds are not strictly ascending".into(),
                ));
            }
            bands.push(b);
        }
        let read_core = |at: &mut usize| -> Vec<u32> {
            let core = (0..n).map(|i| get_u32(bytes, *at + i * 4)).collect();
            *at += n * 4;
            core
        };
        let structural = read_core(&mut at);
        let band_core = (0..bc).map(|_| read_core(&mut at)).collect();
        Ok(DecompositionIndex {
            distance,
            bands,
            structural,
            band_core,
        })
    }
}

/// The filter threshold of a band at value `b`: `dist <= b` for distance
/// metrics, `sim >= b` for similarity metrics.
fn band_threshold(distance: bool, b: f64) -> Threshold {
    if distance {
        Threshold::MaxDistance(b)
    } else {
        Threshold::MinSimilarity(b)
    }
}

/// Canonical undirected key for a pinned-edge map.
fn edge_key(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// One band's adjacency, viewed through the similarity filter: the
/// structural neighborhood with edges admitted by the band-threshold
/// oracle. `pinned` overrides individual edges to their pre-update state
/// while an attribute change's flips are replayed one at a time.
struct BandView<'a> {
    adj: &'a AdjacencyList,
    oracle: &'a TableOracle,
    pinned: &'a std::collections::HashMap<(VertexId, VertexId), bool>,
}

impl<'a> BandView<'a> {
    fn new(adj: &'a AdjacencyList, oracle: &'a TableOracle) -> Self {
        static EMPTY: std::sync::OnceLock<std::collections::HashMap<(VertexId, VertexId), bool>> =
            std::sync::OnceLock::new();
        BandView {
            adj,
            oracle,
            pinned: EMPTY.get_or_init(std::collections::HashMap::new),
        }
    }
}

impl NeighborSource for BandView<'_> {
    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        for &x in self.adj.neighbors(v) {
            let similar = match self.pinned.get(&edge_key(v, x)) {
                Some(&state) => state,
                None => self.oracle.is_similar(v, x),
            };
            if similar {
                f(x);
            }
        }
    }
}

/// Serializes a dataset snapshot *with* its decomposition index: the
/// four standard sections of `kr_similarity::snapshot_to_bytes` plus an
/// optional [`section::DECOMP_INDEX`]. Deterministic byte for byte.
///
/// # Panics
/// Panics when `original_ids`/`attributes`/`index` do not cover the
/// graph's vertices or the metric does not fit the attribute family
/// (caller bugs, same contract as `kr_similarity::snapshot_to_bytes`).
pub fn indexed_snapshot_to_bytes(
    graph: &Graph,
    original_ids: &[u64],
    attributes: &AttributeTable,
    metric: Metric,
    index: &DecompositionIndex,
) -> Vec<u8> {
    assert_eq!(
        original_ids.len(),
        graph.num_vertices(),
        "original-id map must cover every vertex"
    );
    assert_eq!(
        attributes.len(),
        graph.num_vertices(),
        "attribute table must cover every vertex"
    );
    assert_eq!(
        index.num_vertices(),
        graph.num_vertices(),
        "decomposition index must cover every vertex"
    );
    let mut w = SnapshotWriter::new();
    add_graph_sections(&mut w, graph, original_ids);
    w.add_section(
        section::ATTRIBUTES,
        0,
        encode_attributes(attributes, metric),
    );
    w.add_section(
        section::DECOMP_INDEX,
        SECTION_FLAG_OPTIONAL,
        index.to_section_bytes(),
    );
    w.to_bytes()
}

/// Writes an indexed dataset snapshot file (see
/// [`indexed_snapshot_to_bytes`]).
pub fn write_indexed_snapshot_file(
    path: impl AsRef<Path>,
    graph: &Graph,
    original_ids: &[u64],
    attributes: &AttributeTable,
    metric: Metric,
    index: &DecompositionIndex,
) -> Result<(), SnapshotError> {
    let bytes = indexed_snapshot_to_bytes(graph, original_ids, attributes, metric, index);
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)?;
    f.flush()?;
    Ok(())
}

/// Reads a dataset snapshot plus its decomposition index, when present.
/// Unindexed snapshots load with `None` — the index is optional in the
/// format and in every consumer.
pub fn read_indexed_snapshot_bytes(
    bytes: Vec<u8>,
) -> Result<(DatasetSnapshot, Option<DecompositionIndex>), SnapshotError> {
    let snap = Snapshot::from_bytes(bytes)?;
    let mut ds = read_snapshot(&snap)?;
    let index = match snap.section(section::DECOMP_INDEX) {
        Some(payload) => {
            let ix = DecompositionIndex::from_section_bytes(payload)?;
            if ix.num_vertices() != ds.graph.num_vertices() {
                return Err(SnapshotError::Malformed(format!(
                    "decomp index covers {} vertices, graph has {}",
                    ix.num_vertices(),
                    ds.graph.num_vertices()
                )));
            }
            if ix.is_distance() != ds.metric.is_distance() {
                return Err(SnapshotError::Malformed(
                    "decomp index direction contradicts the stored metric".to_string(),
                ));
            }
            // The attribute-only reader reports kind 5 as skipped; this
            // reader understood it.
            ds.skipped_sections.retain(|&k| k != section::DECOMP_INDEX);
            Some(ix)
        }
        None => None,
    };
    Ok((ds, index))
}

/// Reads an indexed dataset snapshot file (see
/// [`read_indexed_snapshot_bytes`]).
pub fn read_indexed_snapshot_file(
    path: impl AsRef<Path>,
) -> Result<(DatasetSnapshot, Option<DecompositionIndex>), SnapshotError> {
    read_indexed_snapshot_bytes(std::fs::read(path)?)
}

/// Builds the default index for an existing [`ProblemInstance`] (the
/// instance's `(k, r)` are irrelevant — the index covers the whole
/// parameter space).
pub fn build_index_for(problem: &ProblemInstance) -> DecompositionIndex {
    DecompositionIndex::build_default(problem.graph(), problem.oracle())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kr_datagen::DatasetPreset;
    use kr_similarity::Metric;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng};

    /// Two unit-square clusters 100 apart, bridged: rich (k,r) structure.
    fn cluster_instance() -> (Graph, TableOracle) {
        let mut edges = Vec::new();
        for base in [0u32, 4u32] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((0, 4));
        let graph = Graph::from_edges(8, &edges);
        let pts = (0..8)
            .map(|i| {
                let off = if i < 4 { 0.0 } else { 100.0 };
                ((i % 4) as f64 + off, ((i / 2) % 2) as f64)
            })
            .collect();
        let oracle = TableOracle::new(
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(1.0),
        );
        (graph, oracle)
    }

    #[test]
    fn bands_sorted_deduped_and_sanitized() {
        let (g, o) = cluster_instance();
        let ix = DecompositionIndex::build(&g, &o, &[5.0, 2.0, 5.0, f64::NAN, -1.0, 200.0]);
        assert_eq!(ix.bands(), &[2.0, 5.0, 200.0]);
        assert!(ix.is_distance());
        assert_eq!(ix.num_vertices(), 8);
    }

    #[test]
    fn structural_matches_core_decomposition() {
        let (g, o) = cluster_instance();
        let ix = DecompositionIndex::build(&g, &o, &[]);
        assert_eq!(ix.structural, core_decomposition(&g).core);
    }

    #[test]
    fn band_selection_distance_smallest_geq() {
        let (g, o) = cluster_instance();
        let ix = DecompositionIndex::build(&g, &o, &[2.0, 5.0, 200.0]);
        assert_eq!(ix.band_for(1.0), Some(0));
        assert_eq!(ix.band_for(2.0), Some(0));
        assert_eq!(ix.band_for(3.0), Some(1));
        assert_eq!(ix.band_for(150.0), Some(2));
        assert_eq!(
            ix.band_for(500.0),
            None,
            "beyond all bands: structural fallback"
        );
    }

    #[test]
    fn band_selection_similarity_largest_leq() {
        let o = TableOracle::new(
            AttributeTable::keywords(vec![vec![(1, 1.0)], vec![(1, 1.0)], vec![(2, 1.0)]]),
            Metric::WeightedJaccard,
            Threshold::MinSimilarity(0.5),
        );
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let ix = DecompositionIndex::build(&g, &o, &[0.2, 0.5, 0.8]);
        assert!(!ix.is_distance());
        assert_eq!(ix.band_for(0.9), Some(2));
        assert_eq!(ix.band_for(0.5), Some(1));
        assert_eq!(ix.band_for(0.3), Some(0));
        assert_eq!(
            ix.band_for(0.1),
            None,
            "below all bands: structural fallback"
        );
    }

    #[test]
    fn candidates_are_sound_superset_of_preprocessed_core() {
        let (g, o) = cluster_instance();
        let ix = DecompositionIndex::build_default(&g, &o);
        for k in 1..=4u32 {
            for r in [0.5, 1.0, 1.5, 5.0, 99.0, 150.0, 1000.0] {
                let cand = ix.candidates(k, Threshold::MaxDistance(r));
                let problem = ProblemInstance::from_oracle(
                    g.clone(),
                    o.with_threshold(Threshold::MaxDistance(r)),
                    k,
                );
                for v in problem.preprocessed_core() {
                    assert!(
                        cand.vertices.contains(&v),
                        "k={k} r={r}: core vertex {v} missing from candidates"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn direction_mismatch_panics() {
        let (g, o) = cluster_instance();
        let ix = DecompositionIndex::build(&g, &o, &[1.0]);
        ix.candidates(2, Threshold::MinSimilarity(0.5));
    }

    #[test]
    fn section_roundtrip_is_exact() {
        let (g, o) = cluster_instance();
        let ix = DecompositionIndex::build_default(&g, &o);
        let bytes = ix.to_section_bytes();
        let back = DecompositionIndex::from_section_bytes(&bytes).expect("roundtrip");
        assert_eq!(back, ix);
        assert_eq!(
            back.to_section_bytes(),
            bytes,
            "re-encode is byte-identical"
        );
    }

    #[test]
    fn section_decode_rejects_corruption() {
        let (g, o) = cluster_instance();
        let ix = DecompositionIndex::build(&g, &o, &[1.0, 5.0]);
        let good = ix.to_section_bytes();
        // Truncation at every boundary: typed error, never a panic.
        for cut in 0..good.len() {
            assert!(
                DecompositionIndex::from_section_bytes(&good[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
        // Bad direction code.
        let mut bad = good.clone();
        bad[0..4].copy_from_slice(&9u32.to_le_bytes());
        assert!(DecompositionIndex::from_section_bytes(&bad).is_err());
        // Non-ascending bands.
        let mut bad = good.clone();
        let (a, b) = (16, 24);
        let tmp: Vec<u8> = bad[a..a + 8].to_vec();
        bad.copy_within(b..b + 8, a);
        bad[b..b + 8].copy_from_slice(&tmp);
        assert!(DecompositionIndex::from_section_bytes(&bad).is_err());
        // Oversized vertex count.
        let mut bad = good.clone();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(DecompositionIndex::from_section_bytes(&bad).is_err());
    }

    #[test]
    fn indexed_snapshot_roundtrip_and_plain_reader_skips() {
        let (g, o) = cluster_instance();
        let ix = DecompositionIndex::build_default(&g, &o);
        let ids: Vec<u64> = (0..8).map(|i| i * 10 + 1).collect();
        let bytes = indexed_snapshot_to_bytes(&g, &ids, o.attributes(), o.metric(), &ix);
        // The indexed reader recovers everything.
        let (ds, loaded) = read_indexed_snapshot_bytes(bytes.clone()).expect("indexed load");
        assert_eq!(ds.graph, g);
        assert_eq!(ds.original_ids, ids);
        assert!(ds.skipped_sections.is_empty());
        assert_eq!(loaded, Some(ix));
        // A reader that predates the index (the plain attribute reader)
        // loads the same bytes and reports the section as skipped.
        let plain = kr_similarity::read_snapshot_bytes(bytes).expect("plain load");
        assert_eq!(plain.graph, g);
        assert_eq!(plain.skipped_sections, vec![section::DECOMP_INDEX]);
    }

    /// Deterministic xorshift stream for the maintenance equivalence run.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    #[test]
    fn incremental_maintenance_matches_from_scratch_rebuild() {
        // Random geometric instance, random insert/delete/attribute
        // stream; after every update the maintained index must equal a
        // from-scratch build over the same bands.
        let n = 24usize;
        let mut rng = Rng(0xDECA_FBAD_0000_0001);
        let mut pts: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                (
                    (rng.next() % 100) as f64 / 10.0,
                    (rng.next() % 100) as f64 / 10.0,
                )
            })
            .collect();
        let mut edges = Vec::new();
        for _ in 0..40 {
            let u = (rng.next() % n as u64) as VertexId;
            let v = (rng.next() % n as u64) as VertexId;
            if u != v {
                edges.push((u, v));
            }
        }
        let mut adj = AdjacencyList::from_graph(&Graph::from_edges(n, &edges));
        let oracle = |pts: &Vec<(f64, f64)>| {
            TableOracle::new(
                AttributeTable::points(pts.clone()),
                Metric::Euclidean,
                Threshold::MaxDistance(1.0),
            )
        };
        let bands = [2.0, 5.0, 9.0];
        let mut ix = DecompositionIndex::build(&adj.to_graph(), &oracle(&pts), &bands);
        for step in 0..120 {
            match rng.next() % 3 {
                0 | 1 => {
                    let u = (rng.next() % n as u64) as VertexId;
                    let v = (rng.next() % n as u64) as VertexId;
                    if u == v {
                        continue;
                    }
                    if adj.has_edge(u, v) {
                        adj.remove_edge(u, v);
                        ix.apply_remove(&adj, &oracle(&pts), u, v);
                    } else {
                        adj.insert_edge(u, v);
                        ix.apply_insert(&adj, &oracle(&pts), u, v);
                    }
                }
                _ => {
                    let w = (rng.next() % n as u64) as VertexId;
                    let old = oracle(&pts);
                    pts[w as usize] = (
                        (rng.next() % 100) as f64 / 10.0,
                        (rng.next() % 100) as f64 / 10.0,
                    );
                    ix.apply_attribute(&adj, &old, &oracle(&pts), w);
                }
            }
            let rebuilt = DecompositionIndex::build(&adj.to_graph(), &oracle(&pts), &bands);
            assert_eq!(ix, rebuilt, "diverged at step {step}");
        }
    }

    #[test]
    fn incremental_maintenance_matches_for_similarity_metric() {
        // Same pin for the similarity direction (weighted Jaccard over
        // keyword lists), where the band filter *shrinks* as r grows.
        let n = 12usize;
        let mut rng = Rng(0x5EED_5EED_5EED_5EED);
        let mut lists: Vec<Vec<(u32, f64)>> = (0..n)
            .map(|_| {
                (0..3)
                    .map(|_| ((rng.next() % 6) as u32, 1.0 + (rng.next() % 3) as f64))
                    .collect()
            })
            .collect();
        let oracle = |lists: &Vec<Vec<(u32, f64)>>| {
            TableOracle::new(
                AttributeTable::keywords(lists.clone()),
                Metric::WeightedJaccard,
                Threshold::MinSimilarity(0.5),
            )
        };
        let mut adj = AdjacencyList::from_graph(&Graph::empty(n));
        let bands = [0.2, 0.5, 0.8];
        let mut ix = DecompositionIndex::build(&adj.to_graph(), &oracle(&lists), &bands);
        assert!(!ix.is_distance());
        for step in 0..100 {
            match rng.next() % 4 {
                3 => {
                    let w = (rng.next() % n as u64) as VertexId;
                    let old = oracle(&lists);
                    lists[w as usize] = (0..3)
                        .map(|_| ((rng.next() % 6) as u32, 1.0 + (rng.next() % 3) as f64))
                        .collect();
                    ix.apply_attribute(&adj, &old, &oracle(&lists), w);
                }
                _ => {
                    let u = (rng.next() % n as u64) as VertexId;
                    let v = (rng.next() % n as u64) as VertexId;
                    if u == v {
                        continue;
                    }
                    if adj.has_edge(u, v) {
                        adj.remove_edge(u, v);
                        ix.apply_remove(&adj, &oracle(&lists), u, v);
                    } else {
                        adj.insert_edge(u, v);
                        ix.apply_insert(&adj, &oracle(&lists), u, v);
                    }
                }
            }
            let rebuilt = DecompositionIndex::build(&adj.to_graph(), &oracle(&lists), &bands);
            assert_eq!(ix, rebuilt, "diverged at step {step}");
        }
    }

    /// The band derivation before the single pass: the same values (all
    /// pairs, or the same seeded sample above the cutoff), fully sorted
    /// once per quantile.
    fn reference_bands(oracle: &TableOracle, n: usize) -> Vec<f64> {
        let vals: Vec<f64> = if n <= EXACT_QUANTILE_CUTOFF {
            (0..n as u32)
                .flat_map(|u| ((u + 1)..n as u32).map(move |v| oracle.value(u, v)))
                .collect()
        } else {
            let mut rng = StdRng::seed_from_u64(BAND_SAMPLE_SEED);
            let mut vals = Vec::new();
            while vals.len() < 200_000.min(n * 32) {
                let u = rng.random_range(0..n as u32);
                let v = rng.random_range(0..n as u32);
                if u != v {
                    vals.push(oracle.value(u, v));
                }
            }
            vals
        };
        DEFAULT_BAND_QUANTILES
            .iter()
            .map(|&q| {
                let mut sorted = vals.clone();
                sorted.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite values"));
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                sorted[rank - 1]
            })
            .collect()
    }

    #[test]
    fn build_default_equals_build_over_reference_bands() {
        // Every preset on the exact path, and dblp-like just past the
        // cutoff on the sampled path.
        let cases = DatasetPreset::all()
            .map(|p| (p, 0.1))
            .into_iter()
            .chain([(DatasetPreset::DblpLike, 1.05)]);
        let mut sampled = false;
        for (preset, scale) in cases {
            let d = preset.generate_scaled(scale);
            let n = d.graph.num_vertices();
            sampled |= n > EXACT_QUANTILE_CUTOFF;
            let threshold = band_threshold(d.metric.is_distance(), 0.5);
            let oracle = TableOracle::new(d.attributes, d.metric, threshold);
            let want = DecompositionIndex::build(&d.graph, &oracle, &reference_bands(&oracle, n));
            let got = DecompositionIndex::build_default(&d.graph, &oracle);
            let bits = |ix: &DecompositionIndex| -> Vec<u64> {
                ix.bands().iter().map(|b| b.to_bits()).collect()
            };
            assert_eq!(bits(&got), bits(&want), "{preset:?}@{scale}");
            assert_eq!(got, want, "{preset:?}@{scale}");
            // Each band's coreness equals a peel of the graph filtered
            // through the oracle pair by pair.
            for (b, &band) in got.bands().iter().enumerate() {
                let banded = oracle.with_threshold(band_threshold(got.distance, band));
                let filtered = d.graph.filter_edges(|u, v| banded.is_similar(u, v));
                assert_eq!(
                    got.band_core[b],
                    core_decomposition(&filtered).core,
                    "{preset:?}@{scale} band {band}"
                );
            }
        }
        assert!(sampled, "no case exercised the sampled path");
    }

    /// The default ladder of dblp-like at full scale, as raw bits: the
    /// exact path at `n == EXACT_QUANTILE_CUTOFF` through the keyword
    /// kernel. Any change to how the pairwise values are gathered or
    /// ranked must leave these bits alone.
    #[test]
    fn dblp_like_default_bands_are_pinned() {
        let d = DatasetPreset::DblpLike.generate_scaled(1.0);
        assert_eq!(d.graph.num_vertices(), EXACT_QUANTILE_CUTOFF);
        let oracle = TableOracle::new(d.attributes, d.metric, Threshold::MinSimilarity(0.5));
        let ix = DecompositionIndex::build_default(&d.graph, &oracle);
        let bits: Vec<u64> = ix.bands().iter().map(|b| b.to_bits()).collect();
        let want: [u64; 10] = [
            0x0000000000000000, // 0
            0x3f915b1e5f75270d, // 1/59
            0x3faaf286bca1af28, // 1/19
            0x3fb745d1745d1746, // 1/11
            0x3fc3b13b13b13b14, // 2/13
            0x3fccbc14e5e0a72f, // 11/49
            0x3fd1b3bea3677d47, // 13/47
            0x3fd5555555555555, // 1/3
            0x3fe0000000000000, // 1/2
            0x3fe286bca1af286c, // 11/19
        ];
        assert_eq!(bits, want, "{:?}", ix.bands());
    }

    /// The default ladders of gowalla-like at the hot-read scale
    /// (n = 400) and at full scale (n = 1600), as raw bits: the exact
    /// path over Euclidean points, through the per-pair metric values.
    #[test]
    fn gowalla_like_default_bands_are_pinned() {
        let ladder = |scale: f64| -> Vec<u64> {
            let d = DatasetPreset::GowallaLike.generate_scaled(scale);
            let oracle = TableOracle::new(d.attributes, d.metric, Threshold::MaxDistance(1.0));
            let ix = DecompositionIndex::build_default(&d.graph, &oracle);
            ix.bands().iter().map(|b| b.to_bits()).collect()
        };
        let quarter: Vec<u64> = vec![
            0x3fddd5ef2e10b435,
            0x3fe9e79e6e2858d7,
            0x3ff70c6386aa9e06,
            0x40059b0d27356a19,
            0x401a74a984113b5d,
            0x4087e82aa9db30e7,
            0x40a15d0bb09cdef8,
            0x40ab7ff0480591cb,
            0x40b138c87c49b384,
            0x40b23328dafaf32b,
            0x40b5e4672131121b,
            0x40b61660911c0f97,
        ];
        let full: Vec<u64> = vec![
            0x3fde7b33e4e78ff2,
            0x3fea563572951e3b,
            0x3ff8c37b0fbcc061,
            0x4006b4a4c454f456,
            0x40184e675e134559,
            0x402e4294f75a572b,
            0x409c7fdfad323163,
            0x40a996c29339f040,
            0x40ac35f7c924e7b9,
            0x40b0c1bf53371cda,
            0x40b36068f9600dbc,
            0x40b3beef39c747cd,
        ];
        for (scale, want) in [(0.25, quarter), (1.0, full)] {
            let got = ladder(scale);
            assert_eq!(got, want, "gowalla-like@{scale}: {got:#018x?}");
        }
    }

    #[test]
    fn unindexed_snapshot_reads_as_none() {
        let (g, o) = cluster_instance();
        let ids: Vec<u64> = (0..8).collect();
        let bytes = kr_similarity::snapshot_to_bytes(&g, &ids, o.attributes(), o.metric());
        let (_, ix) = read_indexed_snapshot_bytes(bytes).expect("load");
        assert_eq!(ix, None);
    }
}
