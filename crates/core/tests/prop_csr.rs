//! CSR arena equivalence: a component built through the CSR path must
//! answer every query identically to a reference nested-`Vec` model built
//! side by side from the same random input — both for `from_parts`
//! (random lists) and for `build` (random graph + real similarity
//! oracle).

use kr_core::component::LocalComponent;
use kr_graph::{Csr, Graph, VertexId};
use kr_similarity::{AttributeTable, DissimMode, Metric, SimilarityOracle, TableOracle, Threshold};
use proptest::prelude::*;

/// Reference model: plain nested, sorted, deduplicated, symmetric lists.
struct Reference {
    adj: Vec<Vec<VertexId>>,
    dis: Vec<Vec<VertexId>>,
}

impl Reference {
    fn from_pairs(n: usize, edges: &[(VertexId, VertexId)], dis: &[(VertexId, VertexId)]) -> Self {
        let build = |pairs: &[(VertexId, VertexId)]| {
            let mut lists: Vec<Vec<VertexId>> = vec![Vec::new(); n];
            for &(u, v) in pairs {
                if u != v && !lists[u as usize].contains(&v) {
                    lists[u as usize].push(v);
                    lists[v as usize].push(u);
                }
            }
            for l in &mut lists {
                l.sort_unstable();
            }
            lists
        };
        Reference {
            adj: build(edges),
            dis: build(dis),
        }
    }

    fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    fn num_dis_pairs(&self) -> usize {
        self.dis.iter().map(Vec::len).sum::<usize>() / 2
    }
}

/// The dissimilar partners of `u`, collected.
fn dissimilar(comp: &LocalComponent, u: VertexId) -> Vec<VertexId> {
    let mut out = Vec::new();
    comp.for_each_dissimilar(u, |w| out.push(w));
    out
}

fn assert_component_matches(comp: &LocalComponent, reference: &Reference, n: usize) {
    assert_eq!(comp.len(), n);
    assert_eq!(comp.num_edges(), reference.num_edges());
    assert_eq!(comp.max_degree(), reference.max_degree());
    assert_eq!(comp.num_dissimilar_pairs, reference.num_dis_pairs());
    for u in 0..n as VertexId {
        assert_eq!(
            comp.neighbors(u),
            reference.adj[u as usize].as_slice(),
            "neighbors({u})"
        );
        assert_eq!(
            dissimilar(comp, u),
            reference.dis[u as usize],
            "dissimilar({u})"
        );
        for v in 0..n as VertexId {
            assert_eq!(
                comp.has_edge(u, v),
                reference.adj[u as usize].contains(&v),
                "has_edge({u},{v})"
            );
            assert_eq!(
                comp.are_dissimilar(u, v),
                reference.dis[u as usize].contains(&v),
                "are_dissimilar({u},{v})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `from_parts` on random (possibly duplicated, unsorted) lists equals
    /// the nested-Vec reference on every accessor.
    #[test]
    fn from_parts_matches_nested_reference(
        n in 2usize..16,
        edges in proptest::collection::vec((0u32..16, 0u32..16), 0..40),
        dis_pairs in proptest::collection::vec((0u32..16, 0u32..16), 0..20),
    ) {
        let clamp = |pairs: &[(VertexId, VertexId)]| -> Vec<(VertexId, VertexId)> {
            pairs
                .iter()
                .map(|&(u, v)| (u % n as VertexId, v % n as VertexId))
                .filter(|&(u, v)| u != v)
                .collect()
        };
        let edges = clamp(&edges);
        let dis_pairs = clamp(&dis_pairs);
        let reference = Reference::from_pairs(n, &edges, &dis_pairs);
        let comp = LocalComponent::from_parts(reference.adj.clone(), reference.dis.clone(), 2);
        assert_component_matches(&comp, &reference, n);
    }

    /// `from_parts` repairs an asymmetric dissimilarity input into the
    /// same component the symmetric closure produces.
    #[test]
    fn from_parts_symmetrizes_like_closure(
        n in 2usize..12,
        dis_pairs in proptest::collection::vec((0u32..12, 0u32..12), 0..16),
    ) {
        let dis_pairs: Vec<(VertexId, VertexId)> = dis_pairs
            .iter()
            .map(|&(u, v)| (u % n as VertexId, v % n as VertexId))
            .filter(|&(u, v)| u != v)
            .collect();
        // One-sided input: only u's row lists v.
        let mut one_sided: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for &(u, v) in &dis_pairs {
            one_sided[u as usize].push(v);
        }
        let reference = Reference::from_pairs(n, &[], &dis_pairs);
        let comp = LocalComponent::from_parts(vec![Vec::new(); n], one_sided, 1);
        for u in 0..n as VertexId {
            prop_assert_eq!(dissimilar(&comp, u), reference.dis[u as usize].clone());
        }
        prop_assert_eq!(comp.num_dissimilar_pairs, reference.num_dis_pairs());
    }

    /// `from_symmetric_pairs` files each pair under both endpoints: the
    /// CSR `from_pairs` builds from the list doubled with every pair
    /// reversed, duplicates and self-pairs included.
    #[test]
    fn symmetric_pairs_equal_doubled_from_pairs(
        n in 1usize..16,
        pairs in proptest::collection::vec((0u32..16, 0u32..16), 0..40),
    ) {
        let pairs: Vec<(VertexId, VertexId)> = pairs
            .iter()
            .map(|&(u, v)| (u % n as VertexId, v % n as VertexId))
            .collect();
        let doubled: Vec<(VertexId, VertexId)> =
            pairs.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        prop_assert_eq!(Csr::from_symmetric_pairs(n, &pairs), Csr::from_pairs(n, &doubled));
    }

    /// `build` over a random graph and a real Euclidean oracle equals a
    /// brute-force reference derived directly from the graph and oracle.
    #[test]
    fn build_matches_graph_and_oracle(
        n in 3usize..14,
        edges in proptest::collection::vec((0u32..14, 0u32..14), 0..50),
        coords in proptest::collection::vec((0.0f64..20.0, 0.0f64..20.0), 14),
        r in 1.0f64..15.0,
    ) {
        let edges: Vec<(VertexId, VertexId)> = edges
            .iter()
            .map(|&(u, v)| (u % n as VertexId, v % n as VertexId))
            .filter(|&(u, v)| u != v)
            .collect();
        let graph = Graph::from_edges(n, &edges);
        let oracle = TableOracle::new(
            AttributeTable::points(coords[..n].to_vec()),
            Metric::Euclidean,
            Threshold::MaxDistance(r),
        );
        // Members = all vertices, so local id == global id.
        let members: Vec<VertexId> = (0..n as VertexId).collect();
        let comp = LocalComponent::build(&graph, &oracle, &members, 2, DissimMode::Auto);
        let dis_pairs: Vec<(VertexId, VertexId)> = (0..n as VertexId)
            .flat_map(|u| ((u + 1)..n as VertexId).map(move |v| (u, v)))
            .filter(|&(u, v)| !oracle.is_similar(u, v))
            .collect();
        let reference = Reference::from_pairs(n, &edges, &dis_pairs);
        assert_component_matches(&comp, &reference, n);
    }
}
