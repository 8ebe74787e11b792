//! The lazy dissimilarity view must be invisible in results.
//!
//! * Lazy ≡ eager: forcing [`DissimMode::Lazy`] (vs `Eager`) on random
//!   instances changes no enumerated core family and no maximum core —
//!   with sequential and with pooled preprocessing, in both threshold
//!   directions (Euclidean `MaxDistance` and Jaccard `MinSimilarity`).
//! * Lazy mode touches fewer rows: on a chain of bridged cliques the
//!   search materializes only part of the dissimilarity rows.

use kr_core::{enumerate_maximal, find_maximum, AlgoConfig, ProblemInstance};
use kr_graph::{Graph, VertexId};
use kr_similarity::{AttributeTable, DissimMode, Metric, Threshold};
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

/// Sequential and pooled preprocessing, each over the eager and the lazy
/// view, must reproduce the eager sequential result on `p` exactly (core
/// family and maximum core vertex set).
fn assert_all_modes_agree(p: &ProblemInstance) {
    let eager = p.clone().with_dissim_mode(DissimMode::Eager);
    let lazy = p.clone().with_dissim_mode(DissimMode::Lazy);

    let enum_base = enumerate_maximal(&eager, &AlgoConfig::adv_enum());
    let max_base = find_maximum(&eager, &AlgoConfig::adv_max());

    let enum_cfgs = [
        ("seq", AlgoConfig::adv_enum()),
        ("pool2", AlgoConfig::adv_enum().with_threads(2)),
    ];
    for (name, cfg) in &enum_cfgs {
        for (mode, inst) in [("eager", &eager), ("lazy", &lazy)] {
            let res = enumerate_maximal(inst, cfg);
            assert!(res.completed, "enum {name}/{mode}");
            assert_eq!(res.cores, enum_base.cores, "enum {name}/{mode}");
        }
    }

    let max_cfgs = [
        ("seq", AlgoConfig::adv_max()),
        ("pool2", AlgoConfig::adv_max().with_threads(2)),
    ];
    for (name, cfg) in &max_cfgs {
        for (mode, inst) in [("eager", &eager), ("lazy", &lazy)] {
            let res = find_maximum(inst, cfg);
            assert!(res.completed, "max {name}/{mode}");
            assert_eq!(
                res.core.as_ref().map(|c| &c.vertices),
                max_base.core.as_ref().map(|c| &c.vertices),
                "max {name}/{mode}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// MaxDistance direction: random geometric instances.
    #[test]
    fn lazy_and_eager_agree_geometric(
        n in 6usize..13,
        edges in proptest::collection::vec((0u32..13, 0u32..13), 8..60),
        coords in proptest::collection::vec((0.0f64..20.0, 0.0f64..20.0), 13),
        r in 2.0f64..18.0,
    ) {
        let edges = clamp_edges(&edges, n);
        assert_all_modes_agree(&geo_instance(n, &edges, &coords, r));
    }

    /// MinSimilarity direction: random keyword instances under Jaccard.
    #[test]
    fn lazy_and_eager_agree_keywords(
        n in 6usize..13,
        edges in proptest::collection::vec((0u32..13, 0u32..13), 8..60),
        keyword_bits in proptest::collection::vec(1u8..=255, 13),
        r in 0.1f64..0.9,
    ) {
        let edges = clamp_edges(&edges, n);
        assert_all_modes_agree(&keyword_instance(n, &edges, &keyword_bits, r));
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

/// Lazy mode on the chain, exercised end to end: the searches must agree
/// and the component must report lazily materialized rows strictly below
/// the full row count (the ≤ 30 % bench gate's mechanism in miniature).
#[test]
fn lazy_materializes_fewer_rows_than_eager_on_chain() {
    let p = chain_of_cliques(8).with_dissim_mode(DissimMode::Lazy);
    let comps = p.preprocess();
    assert!(comps.iter().any(|c| c.is_dissimilarity_lazy()));
    let seq = kr_core::enumerate_maximal_prepared(&comps, &AlgoConfig::adv_enum());
    assert!(seq.completed);
    let (total_rows, materialized): (usize, usize) = comps.iter().fold((0, 0), |(t, m), c| {
        (t + c.len(), m + c.dissimilarity().materialized_rows())
    });
    assert!(
        materialized < total_rows,
        "search must not touch every row ({materialized}/{total_rows})"
    );
    // And the family still matches the eager run.
    let eager = chain_of_cliques(8).with_dissim_mode(DissimMode::Eager);
    let expect = enumerate_maximal(&eager, &AlgoConfig::adv_enum());
    assert_eq!(seq.cores, expect.cores);
}
