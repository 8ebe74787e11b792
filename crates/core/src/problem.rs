//! Problem instance and preprocessing.
//!
//! Algorithm 1's initial stage: remove dissimilar edges, compute the
//! k-core, split into connected components. Each surviving component is
//! turned into a [`crate::component::LocalComponent`] — the arena all
//! search algorithms run in.

use crate::component::LocalComponent;
use kr_graph::components::connected_components_of_subset;
use kr_graph::{k_core, Graph, VertexId};
use kr_similarity::{AttributeTable, DissimMode, Metric, SimilarityOracle, TableOracle, Threshold};
use std::sync::Arc;

/// An attributed-graph problem instance: graph, similarity oracle, and the
/// `(k, r)` parameters.
///
/// The graph and the oracle's attribute table sit behind [`Arc`]s, so an
/// instance can share a resident dataset's storage instead of copying
/// it, and cloning an instance or [`ProblemInstance::with_params`] copies
/// no graph or attribute data.
#[derive(Debug, Clone)]
pub struct ProblemInstance {
    graph: Arc<Graph>,
    oracle: TableOracle,
    k: u32,
    dissim_mode: DissimMode,
}

impl ProblemInstance {
    /// Builds an instance. `threshold` carries `r`; `k` is the degree
    /// threshold. `graph` and `attrs` are taken owned or already shared
    /// (`Arc`); shared ones are not copied.
    ///
    /// # Panics
    /// Panics if the attribute table does not cover all vertices, or the
    /// metric/threshold directions disagree (see
    /// [`TableOracle::new`]).
    pub fn new(
        graph: impl Into<Arc<Graph>>,
        attrs: impl Into<Arc<AttributeTable>>,
        metric: Metric,
        threshold: Threshold,
        k: u32,
    ) -> Self {
        let (graph, attrs) = (graph.into(), attrs.into());
        assert_eq!(
            attrs.len(),
            graph.num_vertices(),
            "attribute table must cover every vertex"
        );
        ProblemInstance {
            graph,
            oracle: TableOracle::from_shared(attrs, metric, threshold),
            k,
            dissim_mode: DissimMode::Auto,
        }
    }

    /// Builds an instance directly from an oracle.
    pub fn from_oracle(graph: impl Into<Arc<Graph>>, oracle: TableOracle, k: u32) -> Self {
        let graph = graph.into();
        assert_eq!(oracle.attributes().len(), graph.num_vertices());
        ProblemInstance {
            graph,
            oracle,
            k,
            dissim_mode: DissimMode::Auto,
        }
    }

    /// Overrides how component dissimilarity is represented
    /// ([`DissimMode::Auto`] by default: large dissimilarity-heavy
    /// components go lazy, everything else stays eager).
    pub fn with_dissim_mode(mut self, mode: DissimMode) -> Self {
        self.dissim_mode = mode;
        self
    }

    /// The dissimilarity representation policy used by preprocessing.
    pub fn dissim_mode(&self) -> DissimMode {
        self.dissim_mode
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The similarity oracle.
    pub fn oracle(&self) -> &TableOracle {
        &self.oracle
    }

    /// Degree threshold `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Similarity threshold `r` (raw value).
    pub fn r(&self) -> f64 {
        self.oracle.threshold().value()
    }

    /// Returns a copy of the instance with different `(k, r)` — cheap way
    /// to drive parameter sweeps off one dataset: the graph and the
    /// attribute table are shared, not copied.
    pub fn with_params(&self, k: u32, threshold: Threshold) -> Self {
        ProblemInstance {
            graph: self.graph.clone(),
            oracle: self.oracle.with_threshold(threshold),
            k,
            dissim_mode: self.dissim_mode,
        }
    }

    /// Algorithm 1 lines 1–4: drop dissimilar edges, peel to the k-core,
    /// split into connected components, and materialize each component's
    /// local adjacency + dissimilarity lists.
    ///
    /// Components are returned largest-first except that the component
    /// containing the globally highest-degree vertex comes first, matching
    /// the paper's "start from the subgraph holding the highest-degree
    /// vertex" strategy for the maximum search.
    pub fn preprocess(&self) -> Vec<LocalComponent> {
        self.preprocess_impl(None)
    }

    /// [`Self::preprocess`] restricted to a candidate vertex set (usually
    /// resolved from a [`crate::decomp::DecompositionIndex`]): the
    /// similarity oracle is evaluated only on candidate-internal edges,
    /// so the cost of step 1 scales with the candidates' edge count
    /// instead of the whole graph's.
    ///
    /// When `candidates` is a superset of the filtered graph's k-core —
    /// which any sound index lookup guarantees — the returned components
    /// are **identical** to [`Self::preprocess`]'s, in the same order:
    /// vertices outside the k-core never influence the component split,
    /// the arenas, or the seed-component ordering.
    pub fn preprocess_with_candidates(&self, candidates: &[VertexId]) -> Vec<LocalComponent> {
        self.preprocess_impl(Some(candidates))
    }

    fn preprocess_impl(&self, candidates: Option<&[VertexId]>) -> Vec<LocalComponent> {
        // 1. Remove edges between dissimilar endpoints — only evaluating
        //    the oracle inside the candidate set, when one is given. The
        //    filtered graph keeps the global vertex numbering either way,
        //    so every step below is oblivious to how it was produced.
        let filtered = match candidates {
            None => self.graph.filter_edges(|u, v| self.oracle.is_similar(u, v)),
            Some(c) => self
                .graph
                .filter_edges_within(c, |u, v| self.oracle.is_similar(u, v)),
        };
        // 2. k-core of the filtered graph.
        let core_vertices = k_core(&filtered, self.k);
        if core_vertices.is_empty() {
            return Vec::new();
        }
        // 3. Connected components of the k-core.
        let labels = connected_components_of_subset(&filtered, &core_vertices);
        let groups = labels.groups();
        // 4. Local components (skips any group smaller than k + 1, which
        //    cannot host a (k,r)-core).
        let mut comps: Vec<LocalComponent> = groups
            .into_iter()
            .filter(|g| g.len() > self.k as usize)
            .map(|g| LocalComponent::build(&filtered, &self.oracle, &g, self.k, self.dissim_mode))
            .collect();
        // Put the component with the highest-degree vertex first; order the
        // rest by size descending.
        let best_seed = comps
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.max_degree())
            .map(|(i, _)| i);
        if let Some(i) = best_seed {
            comps.swap(0, i);
            comps[1..].sort_by_key(|c| std::cmp::Reverse(c.len()));
        }
        comps
    }

    /// Convenience wrapper exposing the preprocessed k-core vertex set in
    /// global ids (used by tests and the clique baseline).
    pub fn preprocessed_core(&self) -> Vec<VertexId> {
        let filtered = self.graph.filter_edges(|u, v| self.oracle.is_similar(u, v));
        k_core(&filtered, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two geo-clusters of 4 vertices each, connected by one bridge edge;
    /// inside a cluster everyone is adjacent and similar.
    fn two_cluster_instance(k: u32, r: f64) -> ProblemInstance {
        let mut edges = Vec::new();
        for base in [0u32, 4u32] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((0, 4)); // bridge (will survive only if similar)
        let graph = Graph::from_edges(8, &edges);
        let pts = (0..8)
            .map(|i| if i < 4 { (0.0, 0.0) } else { (100.0, 0.0) })
            .collect();
        ProblemInstance::new(
            graph,
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(r),
            k,
        )
    }

    #[test]
    fn preprocess_splits_dissimilar_bridge() {
        let p = two_cluster_instance(2, 10.0);
        let comps = p.preprocess();
        // Bridge 0-4 spans 100km > 10km, so it is removed; two 4-cliques.
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 4);
        assert_eq!(comps[1].len(), 4);
    }

    #[test]
    fn preprocess_keeps_similar_bridge() {
        let p = two_cluster_instance(2, 200.0);
        let comps = p.preprocess();
        // Everything within 200km: a single 8-vertex component.
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 8);
    }

    #[test]
    fn preprocess_empty_when_k_too_large() {
        let p = two_cluster_instance(5, 10.0);
        assert!(p.preprocess().is_empty());
    }

    #[test]
    fn with_params_changes_k_and_r() {
        let p = two_cluster_instance(2, 10.0);
        let p2 = p.with_params(3, Threshold::MaxDistance(500.0));
        assert_eq!(p2.k(), 3);
        assert_eq!(p2.r(), 500.0);
        assert_eq!(p2.preprocess().len(), 1);
    }

    #[test]
    fn small_groups_skipped() {
        // Triangle with k = 2 passes (3 > 2 fails: 3 > 2 means len > k i.e.
        // 3 > 2 true) — a triangle is a valid 2-core of size 3.
        let graph = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let p = ProblemInstance::new(
            graph,
            AttributeTable::points(vec![(0.0, 0.0); 3]),
            Metric::Euclidean,
            Threshold::MaxDistance(1.0),
            2,
        );
        let comps = p.preprocess();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 3);
    }

    #[test]
    fn candidate_restricted_preprocess_is_identical() {
        for r in [10.0, 200.0] {
            let p = two_cluster_instance(2, r);
            let full = p.preprocess();
            // Both the tightest sound candidate set (the preprocessed
            // k-core itself) and a loose superset (every vertex) must
            // reproduce the unrestricted result exactly.
            for cand in [p.preprocessed_core(), (0..8).collect::<Vec<_>>()] {
                let restricted = p.preprocess_with_candidates(&cand);
                assert_eq!(restricted.len(), full.len(), "r={r}");
                for (a, b) in full.iter().zip(&restricted) {
                    let ids: Vec<VertexId> = (0..a.len() as VertexId).collect();
                    assert_eq!(a.globalize(&ids), b.globalize(&ids), "r={r}");
                    assert_eq!(a.num_edges(), b.num_edges(), "r={r}");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn attribute_coverage_enforced() {
        let graph = Graph::from_edges(3, &[(0, 1)]);
        ProblemInstance::new(
            graph,
            AttributeTable::points(vec![(0.0, 0.0)]),
            Metric::Euclidean,
            Threshold::MaxDistance(1.0),
            1,
        );
    }
}
