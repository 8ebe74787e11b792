//! Local search arena.
//!
//! After preprocessing, each connected k-core component is renumbered to
//! `0..n` and equipped with adjacency lists plus a *dissimilarity* view
//! (the pairs that violate the similarity constraint — exactly the pairs
//! the paper's `DP(·)` counters range over). All search algorithms operate
//! on this arena with dense arrays.
//!
//! The adjacency is a CSR ([`kr_graph::Csr`]): one offsets array plus one
//! flat target arena, so a neighbor visit reads a contiguous slice. The
//! dissimilar pairs are a [`DissimilarityView`]: bit rows of the similar
//! pairs up to [`kr_similarity::BIT_ROWS_MAX_N`] vertices, one CSR of the
//! sparser side above, visited word by word. A component is a handful of
//! flat allocations that never grow after the build, which makes the
//! serving layer's `Arc`-shared cache entries cheap and their footprint
//! exactly measurable ([`LocalComponent::memory_bytes`]).

use kr_graph::{Csr, Graph, VertexId};
use kr_similarity::{build_dissimilarity_view, DissimMode, DissimilarityView, SimilarityOracle};

/// A renumbered connected component of the preprocessed k-core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalComponent {
    /// Adjacency (local ids), sorted per vertex, CSR-flattened.
    adj: Csr,
    /// Dissimilar partners (local ids).
    dis: DissimilarityView,
    /// Total number of dissimilar unordered pairs.
    pub num_dissimilar_pairs: usize,
    /// Metric evaluations the dissimilarity build spent. The candidate
    /// indexes keep this far below the brute-force `n·(n-1)/2`; the
    /// serving layer and `bench_smoke` report it as the index-leverage
    /// counter.
    pub oracle_evals: u64,
    /// Map back to global vertex ids.
    pub local_to_global: Vec<VertexId>,
    /// The degree threshold the component was built for.
    pub k: u32,
}

impl LocalComponent {
    /// Builds the arena for `members` (global ids) of `graph`. The
    /// adjacency CSR is laid out in one pass (rows fill in local-id
    /// order); the dissimilarity view comes straight from
    /// [`build_dissimilarity_view`], which verifies only the pairs the
    /// oracle's candidate index produces. `_mode` has one value and is
    /// ignored; it stays until the benchmark PR, whose package passes it.
    pub fn build<O: SimilarityOracle>(
        graph: &Graph,
        oracle: &O,
        members: &[VertexId],
        k: u32,
        _mode: DissimMode,
    ) -> Self {
        let mut local_to_global = members.to_vec();
        local_to_global.sort_unstable();
        let n = local_to_global.len();
        // The id map and the edge list are dropped before the
        // dissimilarity view is built, so they never add to its peak.
        let adj = {
            let mut global_to_local = std::collections::HashMap::with_capacity(n);
            for (i, &g) in local_to_global.iter().enumerate() {
                global_to_local.insert(g, i as VertexId);
            }
            let mut adj_pairs: Vec<(VertexId, VertexId)> = Vec::new();
            for (i, &g) in local_to_global.iter().enumerate() {
                for &u in graph.neighbors(g) {
                    if let Some(&lu) = global_to_local.get(&u) {
                        adj_pairs.push((i as VertexId, lu));
                    }
                }
            }
            Csr::from_pairs(n, &adj_pairs)
        };
        let d = build_dissimilarity_view(oracle, &local_to_global);
        LocalComponent {
            adj,
            num_dissimilar_pairs: d.num_pairs(),
            oracle_evals: d.oracle_evals(),
            dis: d,
            local_to_global,
            k,
        }
    }

    /// Builds a component directly from local adjacency + dissimilarity
    /// lists (used by unit tests to craft exact scenarios). Rows are
    /// sorted and deduplicated, and **both** list families are
    /// symmetrized: if `u` lists `v`, then `v` gains `u` — an asymmetric
    /// input would otherwise make `has_edge(u, v)` / `are_dissimilar(u,
    /// v)` disagree with their mirrors and silently corrupt every degree
    /// and `DP(·)` counter built from the lists.
    ///
    /// # Panics
    /// Panics when a list references a vertex `>= n` or contains a self
    /// pair.
    pub fn from_parts(adj: Vec<Vec<VertexId>>, dis: Vec<Vec<VertexId>>, k: u32) -> Self {
        assert_eq!(adj.len(), dis.len());
        let n = adj.len();
        let symmetrized = |lists: &[Vec<VertexId>]| {
            let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
            for (u, list) in lists.iter().enumerate() {
                for &w in list {
                    assert!((w as usize) < n, "target {w} out of range for {n} vertices");
                    assert_ne!(w as usize, u, "self pair at {u}");
                    pairs.push((u as VertexId, w));
                    pairs.push((w, u as VertexId));
                }
            }
            Csr::from_pairs(n, &pairs)
        };
        let adj = symmetrized(&adj);
        let dis = DissimilarityView::from_dissimilar(symmetrized(&dis));
        LocalComponent {
            adj,
            num_dissimilar_pairs: dis.num_pairs(),
            dis,
            oracle_evals: 0,
            local_to_global: (0..n as VertexId).collect(),
            k,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.num_rows()
    }

    /// True iff the component is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Sorted neighbors of local vertex `u` — a contiguous slice of the
    /// adjacency arena.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        self.adj.row(u)
    }

    /// Visits the dissimilar partners of local vertex `u` in ascending
    /// order, a word of the view's row at a time.
    #[inline(always)]
    pub fn for_each_dissimilar(&self, u: VertexId, f: impl FnMut(VertexId)) {
        self.dis.for_each(u, f)
    }

    /// True iff any dissimilar partner of local vertex `u` satisfies
    /// `pred`. Short-circuits at the first hit — the hot maximality
    /// checks must not pay for full-row visits.
    #[inline]
    pub fn any_dissimilar_where(&self, u: VertexId, pred: impl FnMut(VertexId) -> bool) -> bool {
        self.dis.any_where(u, pred)
    }

    /// Degree of local vertex `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.adj.row_len(u)
    }

    /// Number of dissimilar partners of local vertex `u`. See
    /// [`DissimilarityView::count`].
    #[inline]
    pub fn dissimilar_count(&self, u: VertexId) -> usize {
        self.dis.count(u)
    }

    /// The adjacency CSR (offsets + arena).
    pub fn adj_csr(&self) -> &Csr {
        &self.adj
    }

    /// The dissimilarity view.
    pub fn dissimilarity(&self) -> &DissimilarityView {
        &self.dis
    }

    /// True iff the view stores the similar pairs
    /// ([`DissimilarityView::stores_similar`]): every component up to
    /// [`kr_similarity::BIT_ROWS_MAX_N`] vertices. Kept under this name
    /// because the benchmark package reads it; it stays until the
    /// benchmark PR.
    pub fn is_dissimilarity_lazy(&self) -> bool {
        self.dis.stores_similar()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.adj.total_targets() / 2
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.adj.max_row_len()
    }

    /// Whether local vertices `u` and `v` are adjacent.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adj.contains(u, v)
    }

    /// Whether local vertices `u` and `v` are dissimilar.
    #[inline]
    pub fn are_dissimilar(&self, u: VertexId, v: VertexId) -> bool {
        self.dis.are_dissimilar(u, v)
    }

    /// Flat memory footprint in bytes: the struct itself plus the heap
    /// behind the adjacency CSR, the dissimilarity view, and the id
    /// map. Fixed once built.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.adj.heap_bytes()
            + self.dis.heap_bytes()
            + self.local_to_global.capacity() * std::mem::size_of::<VertexId>()
    }

    /// Maps a local vertex set back to sorted global ids.
    pub fn globalize(&self, locals: &[VertexId]) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = locals
            .iter()
            .map(|&l| self.local_to_global[l as usize])
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kr_similarity::{AttributeTable, Metric, TableOracle, Threshold};

    /// The dissimilar partners of `u`, collected.
    fn dissimilar(c: &LocalComponent, u: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        c.for_each_dissimilar(u, |w| out.push(w));
        out
    }

    #[test]
    fn builds_adjacency_and_dissimilarity() {
        // Global graph on vertices {2, 5, 7}: edges 2-5, 5-7.
        let g = Graph::from_edges(8, &[(2, 5), (5, 7), (0, 1)]);
        let oracle = TableOracle::new(
            AttributeTable::points(vec![
                (0.0, 0.0),
                (0.0, 0.0),
                (0.0, 0.0), // v2
                (0.0, 0.0),
                (0.0, 0.0),
                (1.0, 0.0), // v5
                (0.0, 0.0),
                (9.0, 0.0), // v7
            ]),
            Metric::Euclidean,
            Threshold::MaxDistance(2.0),
        );
        let c = LocalComponent::build(&g, &oracle, &[2, 5, 7], 1, DissimMode::Auto);
        assert_eq!(c.len(), 3);
        assert_eq!(c.local_to_global, vec![2, 5, 7]);
        // Local: 0=g2, 1=g5, 2=g7. Edges 0-1, 1-2.
        assert!(c.has_edge(0, 1));
        assert!(c.has_edge(1, 2));
        assert!(!c.has_edge(0, 2));
        assert_eq!(c.neighbors(1), &[0, 2]);
        // Distances: g2-g5 = 1 (similar), g5-g7 = 8 (dissimilar), g2-g7 = 9.
        assert!(c.are_dissimilar(1, 2));
        assert!(c.are_dissimilar(0, 2));
        assert!(!c.are_dissimilar(0, 1));
        assert_eq!(dissimilar(&c, 2), [0, 1]);
        assert_eq!(c.num_dissimilar_pairs, 2);
        assert_eq!(c.num_edges(), 2);
        assert_eq!(c.max_degree(), 2);
        // One bit-row word per vertex: the footprint is exact.
        assert!(c.dissimilarity().stores_similar());
        assert_eq!(
            c.memory_bytes(),
            std::mem::size_of::<LocalComponent>() + c.adj_csr().heap_bytes() + 3 * 8 + 3 * 4
        );
    }

    #[test]
    fn globalize_sorts() {
        let g = Graph::from_edges(6, &[(1, 3), (3, 5)]);
        let oracle = TableOracle::new(
            AttributeTable::points(vec![(0.0, 0.0); 6]),
            Metric::Euclidean,
            Threshold::MaxDistance(1.0),
        );
        let c = LocalComponent::build(&g, &oracle, &[1, 3, 5], 1, DissimMode::Auto);
        assert_eq!(c.globalize(&[2, 0]), vec![1, 5]);
    }

    #[test]
    fn from_parts_computes_pairs() {
        let c = LocalComponent::from_parts(
            vec![vec![1], vec![0, 2], vec![1]],
            vec![vec![2], vec![], vec![0]],
            1,
        );
        assert_eq!(c.num_dissimilar_pairs, 1);
        assert!(c.are_dissimilar(0, 2));
        assert!(!c.are_dissimilar(0, 1));
    }

    #[test]
    fn from_parts_repairs_asymmetric_input() {
        // `dis` lists (0 -> 2) but not the mirror (2 -> 0), and `adj`
        // lists (0 -> 1) one-sidedly: the arena must repair both
        // asymmetries rather than answer inconsistently.
        let c = LocalComponent::from_parts(
            vec![vec![1], vec![2], vec![]],
            vec![vec![2], vec![], vec![]],
            1,
        );
        assert!(c.are_dissimilar(0, 2));
        assert!(c.are_dissimilar(2, 0));
        assert_eq!(dissimilar(&c, 2), [0]);
        assert_eq!(c.num_dissimilar_pairs, 1);
        assert!(c.has_edge(1, 0));
        assert_eq!(c.neighbors(2), &[1]);
        assert_eq!(c.num_edges(), 2);
        assert_eq!(c.degree(1), 2);
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_out_of_range() {
        LocalComponent::from_parts(vec![vec![5], vec![]], vec![vec![], vec![]], 1);
    }
}
