//! The central correctness property: every algorithm configuration and the
//! clique-based baseline agree on random attributed graphs, and all agree
//! with the brute-force definition oracle.

use kr_core::{
    clique_based_maximal, enumerate_maximal, find_maximum, AlgoConfig, BoundKind, BranchPolicy,
    KrCore, ProblemInstance, SearchOrder,
};
use kr_graph::{Graph, VertexId};
use kr_similarity::{AttributeTable, Metric, Threshold};
use proptest::prelude::*;

/// Random instance: n vertices, random edges, random 1-D positions in a
/// small range so similar/dissimilar pairs both occur, k in 0..=3.
fn arb_instance(n_max: usize) -> impl Strategy<Value = ProblemInstance> {
    (4..=n_max).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        (
            proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..=max_edges.min(36)),
            proptest::collection::vec(0.0f64..10.0, n),
            0u32..=3,
            1.0f64..9.0,
        )
            .prop_map(move |(edges, xs, k, r)| {
                let g = Graph::from_edges(n, &edges);
                let pts = xs.into_iter().map(|x| (x, 0.0)).collect();
                ProblemInstance::new(
                    g,
                    AttributeTable::points(pts),
                    Metric::Euclidean,
                    Threshold::MaxDistance(r),
                    k,
                )
            })
    })
}

/// Brute-force maximal (k,r)-core oracle by subset enumeration (n <= ~12).
fn brute_maximal(p: &ProblemInstance) -> Vec<KrCore> {
    let n = p.graph().num_vertices();
    assert!(n <= 14);
    let mut cores: Vec<(u32, Vec<VertexId>)> = Vec::new();
    for mask in 1u32..(1u32 << n) {
        let vs: Vec<VertexId> = (0..n as VertexId).filter(|&v| mask >> v & 1 == 1).collect();
        if kr_core::is_kr_core(p, &KrCore::new(vs.clone())) {
            cores.push((mask, vs));
        }
    }
    let mut out = Vec::new();
    'outer: for &(m, ref vs) in &cores {
        for &(m2, _) in &cores {
            if m != m2 && m & m2 == m {
                continue 'outer;
            }
        }
        out.push(KrCore::new(vs.clone()));
    }
    out.sort_by(|a, b| a.vertices.cmp(&b.vertices));
    out
}

fn enum_configs() -> Vec<(&'static str, AlgoConfig)> {
    vec![
        ("naive", AlgoConfig::naive_enum()),
        ("basic", AlgoConfig::basic_enum()),
        ("be_cr", AlgoConfig::be_cr()),
        ("be_cr_et", AlgoConfig::be_cr_et()),
        ("adv", AlgoConfig::adv_enum()),
        ("adv_degree", AlgoConfig::adv_enum_no_order()),
        (
            "adv_random",
            AlgoConfig::adv_enum().with_order(SearchOrder::Random),
        ),
        (
            "adv_d1",
            AlgoConfig::adv_enum().with_order(SearchOrder::Delta1),
        ),
        (
            "adv_d2",
            AlgoConfig::adv_enum().with_order(SearchOrder::Delta2),
        ),
        (
            "adv_lambda",
            AlgoConfig::adv_enum().with_order(SearchOrder::LambdaDelta),
        ),
    ]
}

fn max_configs() -> Vec<(&'static str, AlgoConfig)> {
    vec![
        ("basic_max", AlgoConfig::basic_max()),
        ("adv_max", AlgoConfig::adv_max()),
        (
            "max_color",
            AlgoConfig::adv_max().with_bound(BoundKind::Color),
        ),
        (
            "max_kcore",
            AlgoConfig::adv_max().with_bound(BoundKind::KCore),
        ),
        (
            "max_ck",
            AlgoConfig::adv_max().with_bound(BoundKind::ColorKCore),
        ),
        (
            "max_expand",
            AlgoConfig::adv_max().with_branch(BranchPolicy::AlwaysExpand),
        ),
        (
            "max_shrink",
            AlgoConfig::adv_max().with_branch(BranchPolicy::AlwaysShrink),
        ),
        ("max_degree", AlgoConfig::adv_max_no_order()),
        (
            "max_random",
            AlgoConfig::adv_max().with_order(SearchOrder::Random),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// AdvEnum output = brute-force maximal family.
    #[test]
    fn adv_enum_matches_brute_force(p in arb_instance(10)) {
        let expect = brute_maximal(&p);
        let got = enumerate_maximal(&p, &AlgoConfig::adv_enum());
        prop_assert!(got.completed);
        prop_assert_eq!(&got.cores, &expect);
    }

    /// Every enumeration configuration agrees with NaiveEnum.
    #[test]
    fn all_enum_configs_agree(p in arb_instance(10)) {
        let reference = enumerate_maximal(&p, &AlgoConfig::naive_enum()).cores;
        for (name, cfg) in enum_configs() {
            let got = enumerate_maximal(&p, &cfg);
            prop_assert!(got.completed, "{} aborted", name);
            prop_assert_eq!(&got.cores, &reference, "config {}", name);
        }
    }

    /// The clique-based baseline agrees too.
    #[test]
    fn clique_baseline_agrees(p in arb_instance(10)) {
        let reference = enumerate_maximal(&p, &AlgoConfig::adv_enum()).cores;
        let baseline = clique_based_maximal(&p);
        prop_assert_eq!(baseline, reference);
    }

    /// Every maximum configuration finds a core of the true maximum size.
    #[test]
    fn max_configs_find_true_maximum(p in arb_instance(10)) {
        let maximal = brute_maximal(&p);
        let expect = maximal.iter().map(|c| c.len()).max().unwrap_or(0);
        for (name, cfg) in max_configs() {
            let got = find_maximum(&p, &cfg);
            prop_assert!(got.completed, "{} aborted", name);
            let size = got.core.as_ref().map_or(0, |c| c.len());
            prop_assert_eq!(size, expect, "config {}", name);
            if let Some(c) = &got.core {
                prop_assert!(kr_core::is_kr_core(&p, c), "{} returned non-core", name);
            }
        }
    }

    /// Upper bounds at the root dominate the true maximum size.
    #[test]
    fn bounds_dominate_maximum(p in arb_instance(10)) {
        use kr_core::bounds::size_upper_bound;
        use kr_core::search::SearchState;
        let maximal = brute_maximal(&p);
        let truth = maximal.iter().map(|c| c.len()).max().unwrap_or(0);
        // Bound is per component; the max over components bounds the max core.
        let comps = p.preprocess();
        for bound in [
            BoundKind::Naive,
            BoundKind::Color,
            BoundKind::KCore,
            BoundKind::ColorKCore,
            BoundKind::DoubleKCore,
        ] {
            let ub: u32 = comps
                .iter()
                .map(|c| {
                    let mut st = SearchState::new(c);
                    prop_assume!(st.prune_root());
                    Ok(size_upper_bound(&st, bound))
                })
                .collect::<Result<Vec<_>, TestCaseError>>()?
                .into_iter()
                .max()
                .unwrap_or(0);
            prop_assert!(ub as usize >= truth, "{bound:?}: ub {ub} < truth {truth}");
        }
        // The (k,k')-core bound is never looser than the similarity k-core
        // bound.
        for c in &comps {
            let mut st = SearchState::new(c);
            prop_assume!(st.prune_root());
            prop_assert!(
                size_upper_bound(&st, BoundKind::DoubleKCore)
                    <= size_upper_bound(&st, BoundKind::KCore)
            );
        }
    }

    /// Keyword attributes + weighted Jaccard: AdvEnum still matches brute
    /// force (exercises the similarity-metric side).
    #[test]
    fn keyword_instances_agree(
        n in 4usize..=9,
        edges in proptest::collection::vec((0u32..9, 0u32..9), 0..24),
        seeds in proptest::collection::vec(0u32..4, 9),
        k in 1u32..=2,
    ) {
        let edges: Vec<(VertexId, VertexId)> = edges
            .into_iter()
            .filter(|&(a, b)| (a as usize) < n && (b as usize) < n)
            .collect();
        let g = Graph::from_edges(n, &edges);
        // Two keyword "topics"; a vertex's list depends on its seed.
        let lists: Vec<Vec<(u32, f64)>> = seeds
            .iter()
            .take(n)
            .map(|&s| match s {
                0 => vec![(0, 2.0), (1, 1.0)],
                1 => vec![(0, 1.0), (1, 2.0)],
                2 => vec![(2, 2.0), (3, 1.0)],
                _ => vec![(1, 1.0), (2, 1.0)],
            })
            .collect();
        let p = ProblemInstance::new(
            g,
            AttributeTable::keywords(lists),
            Metric::WeightedJaccard,
            Threshold::MinSimilarity(0.4),
            k,
        );
        let expect = brute_maximal(&p);
        let got = enumerate_maximal(&p, &AlgoConfig::adv_enum());
        prop_assert_eq!(&got.cores, &expect);
        let m = find_maximum(&p, &AlgoConfig::adv_max());
        prop_assert_eq!(
            m.core.map_or(0, |c| c.len()),
            expect.iter().map(|c| c.len()).max().unwrap_or(0)
        );
    }
}
