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
use std::sync::Mutex;

/// An attributed-graph problem instance: graph, similarity oracle, and the
/// `(k, r)` parameters.
#[derive(Debug, Clone)]
pub struct ProblemInstance {
    graph: Graph,
    oracle: TableOracle,
    k: u32,
    dissim_mode: DissimMode,
}

impl ProblemInstance {
    /// Builds an instance. `threshold` carries `r`; `k` is the degree
    /// threshold.
    ///
    /// # Panics
    /// Panics if the attribute table does not cover all vertices, or the
    /// metric/threshold directions disagree (see
    /// [`TableOracle::new`]).
    pub fn new(
        graph: Graph,
        attrs: AttributeTable,
        metric: Metric,
        threshold: Threshold,
        k: u32,
    ) -> Self {
        assert_eq!(
            attrs.len(),
            graph.num_vertices(),
            "attribute table must cover every vertex"
        );
        ProblemInstance {
            graph,
            oracle: TableOracle::new(attrs, metric, threshold),
            k,
            dissim_mode: DissimMode::Auto,
        }
    }

    /// Builds an instance directly from an oracle.
    pub fn from_oracle(graph: Graph, oracle: TableOracle, k: u32) -> Self {
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
    /// to drive parameter sweeps off one dataset.
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
        self.preprocess_impl(None, None)
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
        self.preprocess_impl(None, Some(candidates))
    }

    /// [`Self::preprocess_with_candidates`] on a caller-provided pool
    /// (the parallel analogue of [`Self::preprocess_on`]).
    pub fn preprocess_with_candidates_on(
        &self,
        candidates: &[VertexId],
        pool: &rayon::ThreadPool,
    ) -> Vec<LocalComponent> {
        self.preprocess_impl(Some(pool), Some(candidates))
    }

    /// [`Self::preprocess`] on `threads` workers (`0` = all cores, `1` =
    /// the sequential path): the k-core peel runs level-synchronously in
    /// parallel and the per-group arenas are materialized concurrently
    /// (with a single group, its candidate-pair verification is
    /// shard-split across the pool instead). The returned components are
    /// identical to the sequential ones, in the same order.
    pub fn preprocess_parallel(&self, threads: usize) -> Vec<LocalComponent> {
        match threads {
            1 => self.preprocess(),
            n => self.preprocess_on(&query_pool(n)),
        }
    }

    /// [`Self::preprocess_parallel`] on a caller-provided pool, which
    /// serves the peel and the arena builds alike.
    pub fn preprocess_on(&self, pool: &rayon::ThreadPool) -> Vec<LocalComponent> {
        self.preprocess_impl(Some(pool), None)
    }

    fn preprocess_impl(
        &self,
        pool: Option<&rayon::ThreadPool>,
        candidates: Option<&[VertexId]>,
    ) -> Vec<LocalComponent> {
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
        let core_vertices = match pool {
            None => k_core(&filtered, self.k),
            Some(pool) => kr_graph::k_core_on(&filtered, self.k, pool),
        };
        if core_vertices.is_empty() {
            return Vec::new();
        }
        // 3. Connected components of the k-core.
        let labels = connected_components_of_subset(&filtered, &core_vertices);
        let groups = labels.groups();
        // 4. Local components (skips any group smaller than k + 1, which
        //    cannot host a (k,r)-core).
        let groups: Vec<Vec<VertexId>> = groups
            .into_iter()
            .filter(|g| g.len() > self.k as usize)
            .collect();
        let mut comps: Vec<LocalComponent> = match pool {
            Some(pool) if pool.current_num_threads() > 1 && groups.len() > 1 => {
                // Build each arena concurrently; outputs come back in
                // group order so the result matches the sequential path
                // exactly.
                ordered_pool_map(pool, &groups, |group| {
                    LocalComponent::build(&filtered, &self.oracle, group, self.k, self.dissim_mode)
                })
            }
            Some(pool) if pool.current_num_threads() > 1 => {
                // A single (often giant) component: parallelism comes
                // from shard-splitting its candidate-pair verification
                // across the same pool instead.
                groups
                    .into_iter()
                    .map(|g| {
                        LocalComponent::build_on(
                            &filtered,
                            &self.oracle,
                            &g,
                            self.k,
                            self.dissim_mode,
                            pool,
                        )
                    })
                    .collect()
            }
            _ => groups
                .into_iter()
                .map(|g| {
                    LocalComponent::build(&filtered, &self.oracle, &g, self.k, self.dissim_mode)
                })
                .collect(),
        };
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

/// A pool of `threads` preprocessing workers; `0` means all available
/// cores, as rayon reads it.
fn query_pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
}

/// Runs `f` over `items` on `pool`'s workers, returning the outputs in
/// item order. The association between an item and its output is by
/// index, so callers never correlate results positionally themselves.
fn ordered_pool_map<'env, T, U, F>(pool: &rayon::ThreadPool, items: &'env [T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&'env T) -> U + Sync,
{
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let obs = crate::obs::engine_obs();
    obs.pool_tasks.add(items.len() as u64);
    // The spawning thread runs `pool.scope`'s body itself; a task that
    // executes on any other thread crossed the pool's stealing deques.
    let spawner = std::thread::current().id();
    pool.scope(|s| {
        for (item, slot) in items.iter().zip(&slots) {
            let f = &f;
            s.spawn(move |_| {
                if std::thread::current().id() != spawner {
                    crate::obs::engine_obs().pool_tasks_stolen.inc();
                }
                *slot.lock().expect("slot lock") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("worker completed")
        })
        .collect()
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
