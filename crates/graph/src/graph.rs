//! Compact undirected simple graph.
//!
//! The representation is CSR-like: a flat neighbor array plus per-vertex
//! offsets. Neighbor lists are sorted, enabling `O(log d)` adjacency tests
//! and linear-time sorted-list intersections (used heavily by the clique
//! baseline and the similarity machinery).

use serde::{Deserialize, Serialize};

/// Vertex identifier. The paper's datasets have at most a few million
/// vertices, so `u32` keeps adjacency arrays compact (half the memory
/// traffic of `usize` on 64-bit platforms).
pub type VertexId = u32;

/// An immutable undirected simple graph in CSR form.
///
/// Invariants:
/// * no self loops, no parallel edges;
/// * each undirected edge `{u, v}` is stored twice (in `u`'s and `v`'s list);
/// * every neighbor list is strictly sorted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Flat, per-vertex-sorted adjacency array.
    neighbors: Vec<VertexId>,
}

impl Graph {
    /// Builds a graph from an edge list; duplicates and self loops are
    /// dropped. `n` is the vertex count (vertices are `0..n`).
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Adjacency test in `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        // Search in the shorter list for a tighter bound.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree (`2m / n`), 0.0 for the empty graph.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Returns a copy of this graph with the given undirected edges removed.
    ///
    /// Used by Algorithm 1's preprocessing: *"Remove edge (u,v) from G if
    /// sim(u,v) < r"*. Edges not present are ignored.
    pub fn remove_edges(&self, to_remove: &[(VertexId, VertexId)]) -> Graph {
        use std::collections::HashSet;
        let dead: HashSet<(VertexId, VertexId)> = to_remove
            .iter()
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        let mut b = GraphBuilder::new(self.num_vertices());
        for (u, v) in self.edges() {
            if !dead.contains(&(u, v)) {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// The raw CSR parts: per-vertex offsets and the flat neighbor arena.
    /// This is the layout the snapshot format serializes verbatim.
    pub fn csr_parts(&self) -> (&[usize], &[VertexId]) {
        (&self.offsets, &self.neighbors)
    }

    /// Rebuilds a graph directly from CSR parts, validating every
    /// invariant the rest of the crate relies on: monotone offsets
    /// covering the arena exactly, strictly sorted rows, no self loops,
    /// in-range targets, and symmetric adjacency (`v ∈ N(u) ⇔ u ∈ N(v)`).
    ///
    /// This is the canonical snapshot-load path: unlike
    /// [`GraphBuilder::build`] it does no sorting or deduplication, so a
    /// round trip through [`Graph::csr_parts`] is byte-identical — but it
    /// must therefore reject malformed input instead of trusting it.
    pub fn from_csr_parts(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Result<Graph, String> {
        if offsets.is_empty() {
            return Err("offsets must hold at least one entry".to_string());
        }
        if offsets[0] != 0 {
            return Err(format!("offsets[0] must be 0, found {}", offsets[0]));
        }
        let n = offsets.len() - 1;
        if *offsets.last().expect("non-empty") != neighbors.len() {
            return Err(format!(
                "final offset {} does not cover the {}-entry neighbor arena",
                offsets.last().expect("non-empty"),
                neighbors.len()
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be monotone".to_string());
        }
        let g = Graph { offsets, neighbors };
        for v in 0..n as VertexId {
            let row = g.neighbors(v);
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("neighbor row of vertex {v} is not strictly sorted"));
            }
            for &u in row {
                if u as usize >= n {
                    return Err(format!("vertex {v} lists neighbor {u} >= n = {n}"));
                }
                if u == v {
                    return Err(format!("vertex {v} lists a self loop"));
                }
            }
        }
        // Symmetry: every directed entry must have its mirror, and the two
        // half-edge counts already match (total entries are even per pair)
        // only if each (u, v) has (v, u).
        for v in 0..n as VertexId {
            for &u in g.neighbors(v) {
                if g.neighbors(u).binary_search(&v).is_err() {
                    return Err(format!("edge {v}->{u} has no mirror {u}->{v}"));
                }
            }
        }
        Ok(g)
    }

    /// One value per adjacency entry, aligned to the neighbor arena of
    /// [`Graph::csr_parts`]: `f(u, v)` runs once per undirected edge,
    /// `u < v`, in [`Graph::edges`] order, and its result fills both the
    /// `(u, v)` and the `(v, u)` entry.
    pub fn edge_values<T: Copy + Default>(
        &self,
        mut f: impl FnMut(VertexId, VertexId) -> T,
    ) -> Vec<T> {
        let mut values = vec![T::default(); self.neighbors.len()];
        // `next[v]`: the entry in v's row of v's next neighbor above v.
        // Rows are visited in ascending order, so the rows mirroring v's
        // upper entries arrive in the order those entries are sorted.
        let mut next = vec![0usize; self.num_vertices()];
        for u in 0..self.num_vertices() {
            let row = self.offsets[u]..self.offsets[u + 1];
            let upper =
                row.start + self.neighbors[row.clone()].partition_point(|&v| v < u as VertexId);
            for i in row.start..upper {
                let v = self.neighbors[i] as usize;
                values[i] = values[next[v]];
                next[v] += 1;
            }
            next[u] = upper;
            for (value, &v) in values[upper..row.end]
                .iter_mut()
                .zip(&self.neighbors[upper..row.end])
            {
                *value = f(u as VertexId, v);
            }
        }
        values
    }

    /// The subgraph of the edges whose value passes `keep`, with `values`
    /// aligned as [`Graph::edge_values`] returns them (both entries of an
    /// edge must hold the same value). Filters the sorted rows in place
    /// of a rebuild, so no sort runs.
    ///
    /// # Panics
    /// Panics when `values` does not hold one value per adjacency entry.
    pub fn retain_edges_by_value<T: Copy>(&self, values: &[T], keep: impl Fn(T) -> bool) -> Graph {
        assert_eq!(values.len(), self.neighbors.len(), "one value per entry");
        let kept = values.iter().filter(|&&x| keep(x)).count();
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut neighbors = Vec::with_capacity(kept);
        offsets.push(0);
        for w in self.offsets.windows(2) {
            let row = w[0]..w[1];
            neighbors.extend(
                self.neighbors[row.clone()]
                    .iter()
                    .zip(&values[row])
                    .filter(|&(_, &x)| keep(x))
                    .map(|(&v, _)| v),
            );
            offsets.push(neighbors.len());
        }
        Graph { offsets, neighbors }
    }

    /// Retains only edges for which `keep(u, v)` returns true.
    pub fn filter_edges(&self, mut keep: impl FnMut(VertexId, VertexId) -> bool) -> Graph {
        let mut b = GraphBuilder::new(self.num_vertices());
        for (u, v) in self.edges() {
            if keep(u, v) {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// [`Graph::filter_edges`] restricted to `subset`: keeps only edges
    /// with **both** endpoints in `subset` that also pass `keep`. The
    /// predicate is evaluated only on subset-internal edges, so when
    /// `keep` is expensive (a similarity oracle) the cost scales with
    /// the subset's edge count, not the whole graph's. The returned
    /// graph keeps the original vertex numbering; vertices outside
    /// `subset` are isolated.
    ///
    /// # Panics
    /// Panics when `subset` names a vertex `>= num_vertices()`.
    pub fn filter_edges_within(
        &self,
        subset: &[VertexId],
        mut keep: impl FnMut(VertexId, VertexId) -> bool,
    ) -> Graph {
        let mut in_subset = vec![false; self.num_vertices()];
        for &v in subset {
            in_subset[v as usize] = true;
        }
        let mut b = GraphBuilder::new(self.num_vertices());
        for &u in subset {
            for &v in self.neighbors(u) {
                if u < v && in_subset[v as usize] && keep(u, v) {
                    b.add_edge(u, v);
                }
            }
        }
        b.build()
    }
}

/// Incremental builder for [`Graph`].
///
/// Accepts edges in any order, tolerates duplicates and self loops (both are
/// dropped), and produces sorted CSR adjacency on [`build`](Self::build).
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// New builder over vertices `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Adds undirected edge `{u, v}`. Self loops are silently dropped.
    ///
    /// # Panics
    /// Panics if `u >= n` or `v >= n`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for {} vertices",
            self.n
        );
        if u == v {
            return;
        }
        self.edges.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Number of vertices the builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Finalizes into an immutable [`Graph`], deduplicating edges.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();

        let mut degree = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as VertexId; acc];
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each list was filled in increasing order of the *other* endpoint
        // only for the (u, v) sorted pass over u; v-side insertions are also
        // monotone because edges are sorted by (u, v) and v-side entries are
        // the u's, which increase. Still, sort defensively: correctness over
        // micro-optimization here; builds are not hot.
        for v in 0..self.n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph { offsets, neighbors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.num_edges(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 0));
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(6, &[(3, 0), (3, 5), (3, 1), (3, 4), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4, 5]);
        assert_eq!(g.degree(3), 5);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn edges_iterator_each_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn remove_edges_works() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let g2 = g.remove_edges(&[(2, 1), (3, 3)]);
        assert!(g2.has_edge(0, 1));
        assert!(!g2.has_edge(1, 2));
        assert!(g2.has_edge(2, 3));
        assert_eq!(g2.num_edges(), 2);
    }

    #[test]
    fn filter_edges_works() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let g2 = g.filter_edges(|u, v| u + v != 3);
        assert_eq!(g2.num_edges(), 2);
        assert!(g2.has_edge(0, 1));
        assert!(!g2.has_edge(1, 2));
        assert!(g2.has_edge(2, 3));
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn csr_parts_roundtrip_is_identical() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)]);
        let (offsets, neighbors) = g.csr_parts();
        let back = Graph::from_csr_parts(offsets.to_vec(), neighbors.to_vec()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn from_csr_parts_rejects_malformed() {
        // Monotone violation.
        assert!(Graph::from_csr_parts(vec![0, 2, 1], vec![1, 0]).is_err());
        // Arena not covered.
        assert!(Graph::from_csr_parts(vec![0, 1], vec![0, 0]).is_err());
        // Unsorted row.
        assert!(Graph::from_csr_parts(vec![0, 2, 3, 4], vec![2, 1, 0, 0]).is_err());
        // Self loop.
        assert!(Graph::from_csr_parts(vec![0, 1, 2], vec![0, 0]).is_err());
        // Out-of-range target.
        assert!(Graph::from_csr_parts(vec![0, 1, 2], vec![5, 0]).is_err());
        // Asymmetric: 0 lists 1, 1 does not list 0.
        assert!(Graph::from_csr_parts(vec![0, 1, 1], vec![1]).is_err());
        // Empty offsets.
        assert!(Graph::from_csr_parts(vec![], vec![]).is_err());
        // Valid empty graph.
        assert!(Graph::from_csr_parts(vec![0], vec![]).is_ok());
    }

    #[test]
    fn avg_degree() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        assert!((g.avg_degree() - 1.0).abs() < 1e-12);
    }
}
