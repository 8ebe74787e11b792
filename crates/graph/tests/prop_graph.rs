//! Property-based tests for the graph substrate.

use kr_graph::kcore::{core_decomposition, k_core, k_core_naive};
use kr_graph::{
    connected_components, degeneracy_order, greedy_coloring, Graph, InducedSubgraph, VertexId,
};
use proptest::prelude::*;

/// Strategy: a random simple graph with up to `n_max` vertices.
fn arb_graph(n_max: usize) -> impl Strategy<Value = Graph> {
    (2..=n_max).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..=max_edges.min(60))
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

proptest! {
    #[test]
    fn value_filter_equals_rebuild_filter(g in arb_graph(14), seed in 0u64..1000, cut in 0u64..8) {
        // A hash of the edge stands in for a metric value.
        let value = |u: VertexId, v: VertexId| {
            (u64::from(u) * 31 + u64::from(v)).wrapping_mul(seed | 1) % 8
        };
        let mut calls = Vec::new();
        let values = g.edge_values(|u, v| {
            calls.push((u, v));
            value(u, v)
        });
        // One call per undirected edge, in `edges()` order.
        prop_assert_eq!(calls, g.edges().collect::<Vec<_>>());
        let kept = g.retain_edges_by_value(&values, |x| x < cut);
        prop_assert_eq!(&kept, &g.filter_edges(|u, v| value(u, v) < cut));
    }

    #[test]
    fn kcore_matches_naive(g in arb_graph(14), k in 0u32..5) {
        prop_assert_eq!(k_core(&g, k), k_core_naive(&g, k));
    }

    #[test]
    fn kcore_vertices_have_min_degree(g in arb_graph(14), k in 1u32..5) {
        let core = k_core(&g, k);
        let inset: std::collections::HashSet<_> = core.iter().copied().collect();
        for &v in &core {
            let d = g.neighbors(v).iter().filter(|u| inset.contains(u)).count();
            prop_assert!(d as u32 >= k, "vertex {} has degree {} < {}", v, d, k);
        }
    }

    #[test]
    fn kcore_is_maximal(g in arb_graph(12), k in 1u32..4) {
        // No vertex outside the k-core can be added while keeping all
        // degrees >= k: adding the full complement and re-peeling must give
        // the same set.
        let core = k_core(&g, k);
        prop_assert_eq!(&core, &k_core_naive(&g, k));
        // Re-peel from everything: fixpoint.
        let again = kr_graph::k_core_of_subset(&g, k, &core);
        prop_assert_eq!(again, core);
    }

    #[test]
    fn core_numbers_monotone_under_k(g in arb_graph(12)) {
        let d = core_decomposition(&g);
        for k in 0..=d.max_core {
            let a = d.k_core_vertices(k + 1);
            let b = d.k_core_vertices(k);
            let bs: std::collections::HashSet<_> = b.into_iter().collect();
            for v in a {
                prop_assert!(bs.contains(&v));
            }
        }
    }

    #[test]
    fn coloring_is_proper(g in arb_graph(14)) {
        let (colors, k) = greedy_coloring(&g);
        for (u, v) in g.edges() {
            prop_assert_ne!(colors[u as usize], colors[v as usize]);
        }
        let used: std::collections::HashSet<_> = colors.iter().copied().collect();
        prop_assert!(used.len() as u32 <= k.max(1));
    }

    #[test]
    fn coloring_bounded_by_degeneracy(g in arb_graph(14)) {
        let (_, d) = degeneracy_order(&g);
        let (_, k) = greedy_coloring(&g);
        if g.num_vertices() > 0 {
            prop_assert!(k <= d + 1);
        }
    }

    #[test]
    fn components_partition_vertices(g in arb_graph(14)) {
        let cc = connected_components(&g);
        let groups = cc.groups();
        let total: usize = groups.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, g.num_vertices());
        // No edges between different components.
        for (u, v) in g.edges() {
            prop_assert_eq!(cc.label[u as usize], cc.label[v as usize]);
        }
    }

    #[test]
    fn induced_subgraph_edge_consistency(g in arb_graph(12)) {
        let n = g.num_vertices();
        let subset: Vec<VertexId> = (0..n as VertexId).step_by(2).collect();
        let s = InducedSubgraph::new(&g, &subset);
        for (lu, lv) in s.graph.edges() {
            prop_assert!(g.has_edge(s.to_global(lu), s.to_global(lv)));
        }
        // Every in-subset edge appears.
        let inset: std::collections::HashSet<_> = subset.iter().copied().collect();
        let expected = g
            .edges()
            .filter(|(u, v)| inset.contains(u) && inset.contains(v))
            .count();
        prop_assert_eq!(s.graph.num_edges(), expected);
    }

    #[test]
    fn degeneracy_order_visits_all(g in arb_graph(14)) {
        let (order, _) = degeneracy_order(&g);
        let mut seen = vec![false; g.num_vertices()];
        for v in order {
            prop_assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}
