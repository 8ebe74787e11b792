//! Property tests for metrics and the quantile calibration.

use kr_similarity::metrics::{cosine, euclidean, jaccard, weighted_jaccard};
use kr_similarity::{
    build_dissimilarity_lists_brute, build_dissimilarity_view, build_similarity_graph,
    build_similarity_graph_brute, similarity_quantile_exact, AttributeTable, Metric,
    SimilarityOracle, TableOracle, Threshold,
};
use proptest::prelude::*;

fn arb_kwlist() -> impl Strategy<Value = Vec<(u32, f64)>> {
    proptest::collection::vec((0u32..30, 0.1f64..5.0), 0..10).prop_map(|mut l| {
        l.sort_by_key(|&(k, _)| k);
        l.dedup_by_key(|&mut (k, _)| k);
        l
    })
}

/// Indexed preprocessing must be indistinguishable from the brute-force
/// reference: same similarity graph, and a dissimilarity view whose every
/// row visits the brute-force CSR row (and counts it, and tests each pair
/// like it), same pair count, exact bit-row footprint — and never more
/// metric evaluations.
fn assert_indexed_matches_brute(oracle: &TableOracle, n: usize) -> Result<(), TestCaseError> {
    let members: Vec<u32> = (0..n as u32).collect();
    let view = build_dissimilarity_view(oracle, &members);
    let brute = build_dissimilarity_lists_brute(oracle, &members);
    prop_assert_eq!(view.num_pairs(), brute.num_pairs);
    prop_assert!(view.oracle_evals() <= brute.oracle_evals);
    prop_assert_eq!(view.heap_bytes(), n * n.div_ceil(64) * 8);
    for u in 0..n as u32 {
        let mut row = Vec::new();
        view.for_each(u, |w| row.push(w));
        prop_assert_eq!(&row[..], brute.row(u));
        prop_assert_eq!(view.count(u), brute.row(u).len());
        for v in 0..n as u32 {
            prop_assert_eq!(view.are_dissimilar(u, v), brute.are_dissimilar(u, v));
        }
    }
    let g_fast = build_similarity_graph(oracle, &members);
    let g_brute = build_similarity_graph_brute(oracle, &members);
    prop_assert_eq!(g_fast, g_brute);
    Ok(())
}

proptest! {
    #[test]
    fn jaccard_symmetric_and_bounded(a in arb_kwlist(), b in arb_kwlist()) {
        let s1 = jaccard(&a, &b);
        let s2 = jaccard(&b, &a);
        prop_assert!((s1 - s2).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&s1));
        prop_assert!((jaccard(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_jaccard_symmetric_and_bounded(a in arb_kwlist(), b in arb_kwlist()) {
        let s1 = weighted_jaccard(&a, &b);
        let s2 = weighted_jaccard(&b, &a);
        prop_assert!((s1 - s2).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&s1));
        prop_assert!((weighted_jaccard(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_jaccard_dominated_by_jaccard_structure(a in arb_kwlist(), b in arb_kwlist()) {
        // If the keyword sets are disjoint, both metrics are 0 (unless both
        // empty).
        let keys_a: std::collections::HashSet<u32> = a.iter().map(|&(k, _)| k).collect();
        let disjoint = b.iter().all(|&(k, _)| !keys_a.contains(&k));
        if disjoint && !(a.is_empty() && b.is_empty()) && !(a.is_empty() || b.is_empty()) {
            prop_assert_eq!(jaccard(&a, &b), 0.0);
            prop_assert_eq!(weighted_jaccard(&a, &b), 0.0);
        }
    }

    #[test]
    fn euclidean_metric_axioms(
        a in proptest::collection::vec(-50.0f64..50.0, 3),
        b in proptest::collection::vec(-50.0f64..50.0, 3),
        c in proptest::collection::vec(-50.0f64..50.0, 3),
    ) {
        let dab = euclidean(&a, &b);
        let dba = euclidean(&b, &a);
        prop_assert!((dab - dba).abs() < 1e-9);
        prop_assert!(euclidean(&a, &a) < 1e-12);
        // Triangle inequality.
        prop_assert!(euclidean(&a, &c) <= dab + euclidean(&b, &c) + 1e-9);
    }

    #[test]
    fn cosine_bounded(
        a in proptest::collection::vec(-10.0f64..10.0, 4),
        b in proptest::collection::vec(-10.0f64..10.0, 4),
    ) {
        let s = cosine(&a, &b);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s));
        prop_assert!((s - cosine(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn simgraph_and_dissim_partition(
        pts in proptest::collection::vec((0.0f64..20.0, 0.0f64..20.0), 2..12),
        r in 1.0f64..15.0,
    ) {
        let n = pts.len();
        let oracle = TableOracle::new(
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(r),
        );
        let members: Vec<u32> = (0..n as u32).collect();
        let sim = build_similarity_graph(&oracle, &members);
        let dis = build_dissimilarity_view(&oracle, &members);
        prop_assert_eq!(sim.num_edges() + dis.num_pairs(), n * (n - 1) / 2);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                let s = sim.has_edge(u, v);
                let d = dis.are_dissimilar(u, v);
                prop_assert!(s != d, "pair ({u},{v}) must be exactly one of similar/dissimilar");
                prop_assert_eq!(s, oracle.is_similar(u, v));
            }
        }
    }

    #[test]
    fn indexed_matches_brute_on_points(
        pts in proptest::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 1..28),
        r in 0.0f64..30.0,
    ) {
        // MaxDistance direction (geo): exercises the spatial grid, and —
        // at r = 0 — the brute-force fallback.
        let n = pts.len();
        let oracle = TableOracle::new(
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(r),
        );
        assert_indexed_matches_brute(&oracle, n)?;
    }

    #[test]
    fn indexed_matches_brute_on_keywords(
        lists in proptest::collection::vec(arb_kwlist(), 1..22),
        r in 0.0f64..1.2,
        unweighted in false..true,
    ) {
        // MinSimilarity direction: exercises the inverted keyword index
        // (including empty lists, thresholds past 1.0, and — at r = 0 —
        // the brute-force fallback).
        let n = lists.len();
        let metric = if unweighted { Metric::Jaccard } else { Metric::WeightedJaccard };
        let oracle = TableOracle::new(
            AttributeTable::keywords(lists),
            metric,
            Threshold::MinSimilarity(r),
        );
        assert_indexed_matches_brute(&oracle, n)?;
    }

    #[test]
    fn indexed_matches_brute_on_vectors(
        vecs in proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, 3), 1..12),
        r in 0.0f64..1.0,
    ) {
        // Cosine has no index: the all-pairs fallback must still agree.
        let n = vecs.len();
        let oracle = TableOracle::new(
            AttributeTable::vectors(vecs),
            Metric::Cosine,
            Threshold::MinSimilarity(r),
        );
        assert_indexed_matches_brute(&oracle, n)?;
    }

    #[test]
    fn quantile_monotone_in_q(
        pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 3..15),
    ) {
        let n = pts.len();
        let oracle = TableOracle::new(
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(1.0),
        );
        // For a distance metric, values sorted descending: larger q keeps
        // more pairs, so the threshold value decreases (toward similarity);
        // for distances "top" means largest distance first, so quantile is
        // non-increasing in q.
        let q25 = similarity_quantile_exact(&oracle, n, 0.25);
        let q50 = similarity_quantile_exact(&oracle, n, 0.5);
        let q100 = similarity_quantile_exact(&oracle, n, 1.0);
        prop_assert!(q25 >= q50);
        prop_assert!(q50 >= q100);
    }

    #[test]
    fn quantile_keeps_expected_fraction(
        pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 4..14),
        q in 0.1f64..1.0,
    ) {
        let n = pts.len();
        let oracle = TableOracle::new(
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(1.0),
        );
        let threshold = similarity_quantile_exact(&oracle, n, q);
        let total = n * (n - 1) / 2;
        let kept = (0..n as u32)
            .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
            .filter(|&(u, v)| oracle.value(u, v) >= threshold)
            .count();
        // At least ceil(q * total) pairs are at or above the cut (ties can
        // push it higher).
        prop_assert!(kept >= (q * total as f64).ceil() as usize);
    }
}
