//! The one dissimilarity layout must be invisible in results.
//!
//! * Every component's view visits exactly the brute-force dissimilar
//!   rows (`build_dissimilarity_lists_brute` over its members), and the
//!   searches answer what the from-scratch clique-based baseline
//!   answers, in both threshold directions (Euclidean `MaxDistance` and
//!   Jaccard `MinSimilarity`), also on rings whose one component fills
//!   the last row word to every possible edge.
//! * A component's footprint is exact and fixed: its view is `n·⌈n/64⌉`
//!   words of bit rows, and a search does not grow it.

use kr_core::{
    clique_based_maximal, enumerate_maximal, enumerate_maximal_prepared, find_maximum,
    verify_maximal_family, AlgoConfig, LocalComponent, ProblemInstance,
};
use kr_graph::{Graph, VertexId};
use kr_similarity::{build_dissimilarity_lists_brute, AttributeTable, Metric, Threshold};
use proptest::prelude::*;

/// Random geometric instance: Euclidean points, similar = close
/// (`MaxDistance` direction — dissimilarity is "too far").
fn geo_instance(
    n: usize,
    edges: &[(VertexId, VertexId)],
    coords: &[(f64, f64)],
    r: f64,
) -> ProblemInstance {
    ProblemInstance::new(
        Graph::from_edges(n, edges),
        AttributeTable::points(coords[..n].to_vec()),
        Metric::Euclidean,
        Threshold::MaxDistance(r),
        2,
    )
}

/// Random keyword instance: Jaccard similarity, similar = enough overlap
/// (`MinSimilarity` direction — dissimilarity is "too little overlap").
fn keyword_instance(
    n: usize,
    edges: &[(VertexId, VertexId)],
    keyword_bits: &[u8],
    r: f64,
) -> ProblemInstance {
    let lists: Vec<Vec<(u32, f64)>> = (0..n)
        .map(|v| {
            let bits = keyword_bits[v];
            (0..8u32)
                .filter(|kw| bits & (1 << kw) != 0)
                .map(|kw| (kw, 1.0))
                .collect()
        })
        .collect();
    ProblemInstance::new(
        Graph::from_edges(n, edges),
        AttributeTable::keywords(lists),
        Metric::Jaccard,
        Threshold::MinSimilarity(r),
        2,
    )
}

fn clamp_edges(edges: &[(VertexId, VertexId)], n: usize) -> Vec<(VertexId, VertexId)> {
    edges
        .iter()
        .map(|&(u, v)| (u % n as VertexId, v % n as VertexId))
        .filter(|&(u, v)| u != v)
        .collect()
}

/// Every component of `p` visits the brute-force dissimilar rows, and
/// the enumeration and maximum searches match the clique-based baseline
/// (the family verified maximal against the definitions, the maximum of
/// the family's largest size).
fn assert_matches_references(p: &ProblemInstance) {
    for comp in p.preprocess() {
        let brute = build_dissimilarity_lists_brute(p.oracle(), &comp.local_to_global);
        assert_eq!(comp.num_dissimilar_pairs, brute.num_pairs);
        for u in 0..comp.len() as VertexId {
            let mut row = Vec::new();
            comp.for_each_dissimilar(u, |w| row.push(w));
            assert_eq!(row, brute.row(u), "row {u}");
            assert_eq!(comp.dissimilar_count(u), brute.row(u).len());
        }
    }

    let baseline = clique_based_maximal(p);
    let found = enumerate_maximal(p, &AlgoConfig::adv_enum());
    assert!(found.completed);
    assert_eq!(found.cores, baseline, "enum");
    verify_maximal_family(p, &found.cores).expect("a verified maximal family");

    let max = find_maximum(p, &AlgoConfig::adv_max());
    assert!(max.completed);
    assert_eq!(
        max.core.as_ref().map_or(0, |c| c.len()),
        baseline.iter().map(|c| c.len()).max().unwrap_or(0),
        "max"
    );
    if let Some(core) = &max.core {
        assert!(
            baseline.contains(core),
            "max core {core:?} not in the family"
        );
    }
}

/// Vertex counts on both sides of the view's 64-vertex row words.
const WORD_EDGES: [usize; 6] = [63, 64, 65, 127, 128, 129];

/// A one-component geometric instance over `n` vertices for `n` past
/// the 13 random coordinates: a circulant ring (each vertex joined to
/// its two ring successors) plus the random `edges`, vertex `i` placed
/// at `x = i/2` with `coords[i % 13]` as jitter in `[0, 1)²`. Only
/// ring neighbours within about `2r` positions stay similar, so the
/// view's rows are mostly complement, up to the last word's padding.
fn ring_instance(
    n: usize,
    edges: &[(VertexId, VertexId)],
    coords: &[(f64, f64)],
    r: f64,
) -> ProblemInstance {
    let ring = n as VertexId;
    let mut edges = edges.to_vec();
    edges.extend((0..ring).flat_map(|i| [(i, (i + 1) % ring), (i, (i + 2) % ring)]));
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let (dx, dy) = coords[i % coords.len()];
            (i as f64 / 2.0 + dx / 20.0, dy / 20.0)
        })
        .collect();
    ProblemInstance::new(
        Graph::from_edges(n, &edges),
        AttributeTable::points(pts),
        Metric::Euclidean,
        Threshold::MaxDistance(r),
        2,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// MaxDistance direction: random geometric instances, and rings of
    /// [`WORD_EDGES`] vertices whose one component fills the view's last
    /// row word to every possible edge.
    #[test]
    fn views_and_answers_match_references_geometric(
        n in prop_oneof![6usize..13, (0..WORD_EDGES.len()).prop_map(|i| WORD_EDGES[i])],
        edges in proptest::collection::vec((0u32..13, 0u32..13), 8..60),
        coords in proptest::collection::vec((0.0f64..20.0, 0.0f64..20.0), 13),
        r in 2.0f64..18.0,
    ) {
        let edges = clamp_edges(&edges, n);
        if n <= coords.len() {
            assert_matches_references(&geo_instance(n, &edges, &coords, r));
        } else {
            let p = ring_instance(n, &edges, &coords, r);
            let comps = p.preprocess();
            prop_assert!(comps.len() == 1 && comps[0].len() == n);
            assert_matches_references(&p);
        }
    }

    /// MinSimilarity direction: random keyword instances under Jaccard.
    #[test]
    fn views_and_answers_match_references_keywords(
        n in 6usize..13,
        edges in proptest::collection::vec((0u32..13, 0u32..13), 8..60),
        keyword_bits in proptest::collection::vec(1u8..=255, 13),
        r in 0.1f64..0.9,
    ) {
        let edges = clamp_edges(&edges, n);
        assert_matches_references(&keyword_instance(n, &edges, &keyword_bits, r));
    }
}

/// A chain of `c` 4-cliques, each bridged to the next through a shared
/// vertex, laid out on a line so only *adjacent* cliques are similar:
/// one component whose far-apart pairs are all dissimilar.
fn chain_of_cliques(c: usize) -> ProblemInstance {
    let mut edges = Vec::new();
    let mut pts = Vec::new();
    // Clique i owns vertices [3i, 3i+3]; vertex 3(i+1) is shared with
    // clique i+1.
    for i in 0..c {
        let base = (3 * i) as VertexId;
        let group = [base, base + 1, base + 2, base + 3];
        for a in 0..4 {
            for b in (a + 1)..4 {
                edges.push((group[a], group[b]));
            }
        }
    }
    let n = 3 * c + 1;
    for v in 0..n {
        // Cliques are 6.0 apart; within-clique spread is ~1. With r = 7
        // adjacent cliques stay similar, farther pairs turn dissimilar.
        let clique = v / 3;
        let offset = (v % 3) as f64 * 0.5;
        pts.push((clique as f64 * 6.0 + offset, offset));
    }
    ProblemInstance::new(
        Graph::from_edges(n, &edges),
        AttributeTable::points(pts),
        Metric::Euclidean,
        Threshold::MaxDistance(7.0),
        2,
    )
}

/// The chain's one component, exercised end to end: its footprint is
/// exactly the struct, the adjacency arena, `n·⌈n/64⌉` words of bit rows
/// and the id map, the same after a search as before it, and its family
/// matches the references.
#[test]
fn component_bytes_are_exact_and_fixed_on_chain() {
    let p = chain_of_cliques(8);
    let comps = p.preprocess();
    assert_eq!(comps.len(), 1);
    let c = &comps[0];
    let n = c.len();
    assert!(c.dissimilarity().stores_similar());
    let exact = std::mem::size_of::<LocalComponent>()
        + c.adj_csr().heap_bytes()
        + n * n.div_ceil(64) * 8
        + n * std::mem::size_of::<VertexId>();
    assert_eq!(c.dissimilarity().heap_bytes(), n * n.div_ceil(64) * 8);
    assert_eq!(c.memory_bytes(), exact);
    let seq = enumerate_maximal_prepared(&comps, &AlgoConfig::adv_enum());
    assert!(seq.completed);
    assert_eq!(c.memory_bytes(), exact);
    assert_matches_references(&p);
}
