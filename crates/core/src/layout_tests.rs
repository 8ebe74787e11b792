//! The one-word search layout pinned to the counter layout.
//!
//! Components of at most [`WORD_MAX_N`] vertices search on one-word
//! masks; the counter layout, which larger components take, is the
//! reference. Under `testing::on_counters` this thread runs the counter
//! layout at every size, so both layouts run the same searches on the
//! same random components and must agree on every counter and core.

use crate::bounds::size_upper_bound;
use crate::component::LocalComponent;
use crate::config::{AlgoConfig, BoundKind, BranchPolicy, SearchOrder};
use crate::enumerate::enumerate_maximal_prepared;
use crate::maximal::check_maximal;
use crate::maximum::find_maximum_prepared;
use crate::search::{SearchState, WORD_MAX_N};
use crate::testing::{on_counters, random_component, random_walk};
use kr_graph::VertexId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every enumeration preset of `tests/config_matrix.rs`.
fn enum_presets() -> Vec<(&'static str, AlgoConfig)> {
    vec![
        ("naive", AlgoConfig::naive_enum()),
        ("basic", AlgoConfig::basic_enum()),
        ("be_cr", AlgoConfig::be_cr()),
        ("be_cr_et", AlgoConfig::be_cr_et()),
        ("adv", AlgoConfig::adv_enum()),
    ]
}

/// Every maximum preset of `tests/config_matrix.rs`.
fn max_presets() -> Vec<(&'static str, AlgoConfig)> {
    let mut random = AlgoConfig::adv_max().with_order(SearchOrder::Random);
    random.seed = 7;
    vec![
        ("basic_max", AlgoConfig::basic_max()),
        ("adv_max", AlgoConfig::adv_max()),
        ("color", AlgoConfig::adv_max().with_bound(BoundKind::Color)),
        ("kcore", AlgoConfig::adv_max().with_bound(BoundKind::KCore)),
        (
            "color_kcore",
            AlgoConfig::adv_max().with_bound(BoundKind::ColorKCore),
        ),
        (
            "shrink_first",
            AlgoConfig::adv_max().with_branch(BranchPolicy::AlwaysShrink),
        ),
        ("degree", AlgoConfig::adv_max_no_order()),
        ("random", random),
    ]
}

/// Exponential configurations stop here; an aborted walk must match too.
const NODE_LIMIT: u64 = 400;

/// Everything both layouts must agree on at one state.
fn observe(st: &SearchState<'_>) -> Vec<u64> {
    let n = st.comp.len() as VertexId;
    let (m, c, e) = st.sizes();
    let mut out = vec![
        m as u64,
        c as u64,
        e as u64,
        st.mc_len() as u64,
        st.dp_c_total(),
        st.edges_mc(),
        st.sf_count() as u64,
        st.all_candidates_similarity_free() as u64,
        crate::early_term::can_terminate(st) as u64,
    ];
    for v in 0..n {
        out.extend([
            st.status(v) as u64,
            st.deg_mc(v) as u64,
            st.deg_m(v) as u64,
            st.dp_c(v) as u64,
            st.dp_e(v) as u64,
        ]);
    }
    for bound in [
        BoundKind::Naive,
        BoundKind::Color,
        BoundKind::KCore,
        BoundKind::ColorKCore,
        BoundKind::DoubleKCore,
    ] {
        out.push(size_upper_bound(st, bound) as u64);
    }
    out.extend(st.mc_components().iter().map(|p| p.len() as u64));
    out
}

/// The maximal check of every piece of `st`'s `M ∪ C` against the rest
/// of the component, and of a random subset against another.
fn checks(st: &SearchState<'_>, rng: &mut StdRng) -> Vec<bool> {
    let comp = st.comp;
    let n = comp.len() as VertexId;
    let mut out = Vec::new();
    for piece in st.mc_components() {
        let rest: Vec<VertexId> = (0..n).filter(|v| !piece.contains(v)).collect();
        out.push(check_maximal(comp, st.k, &piece, &rest));
    }
    let core: Vec<VertexId> = (0..n).filter(|_| rng.random_bool(0.3)).collect();
    let cands: Vec<VertexId> = (0..n).filter(|_| rng.random_bool(0.5)).collect();
    out.push(check_maximal(comp, st.k, &core, &cands));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every preset on one random component, run on both layouts: equal
    /// `SearchStats` (nodes, leaves, early terminations, bound prunes,
    /// maximal checks, estimator visits), equal cores, equal
    /// completion. Then random states: equal counters, bounds,
    /// termination verdicts, pieces and maximal checks.
    #[test]
    fn word_layout_matches_counter_layout(
        size in 0usize..6,
        p_edge in 0.05f64..0.9,
        p_dis in 0.0f64..0.6,
        k in 1u32..4,
        steps in 0usize..10,
        seed in 0u64..u64::MAX,
    ) {
        let n = [1, 2, 5, 17, 63, 64][size];
        let mut rng = StdRng::seed_from_u64(seed);
        let comp = random_component(&mut rng, n, p_edge, p_dis, k);
        prop_assert!(SearchState::new(&comp).words().is_some());
        let comps = [comp];
        for (name, cfg) in enum_presets() {
            let cfg = cfg.with_node_limit(NODE_LIMIT);
            let words = enumerate_maximal_prepared(&comps, &cfg);
            let counters = on_counters(|| enumerate_maximal_prepared(&comps, &cfg));
            prop_assert_eq!(words.stats, counters.stats, "{}", name);
            prop_assert_eq!(&words.cores, &counters.cores, "{}", name);
            prop_assert_eq!(words.completed, counters.completed, "{}", name);
        }
        for (name, cfg) in max_presets() {
            let cfg = cfg.with_node_limit(NODE_LIMIT);
            let words = find_maximum_prepared(&comps, &cfg);
            let counters = on_counters(|| find_maximum_prepared(&comps, &cfg));
            prop_assert_eq!(words.stats, counters.stats, "{}", name);
            prop_assert_eq!(&words.core, &counters.core, "{}", name);
            prop_assert_eq!(words.completed, counters.completed, "{}", name);
        }
        let comp = &comps[0];
        let walk_seed = rng.random_range(0..u64::MAX);
        let st = random_walk(comp, &mut StdRng::seed_from_u64(walk_seed), steps);
        let (seen, verdicts) = (observe(&st), checks(&st, &mut StdRng::seed_from_u64(walk_seed)));
        let (ref_seen, ref_verdicts) = on_counters(|| {
            let st = random_walk(comp, &mut StdRng::seed_from_u64(walk_seed), steps);
            prop_assert!(st.words().is_none());
            Ok::<_, TestCaseError>((observe(&st), checks(&st, &mut StdRng::seed_from_u64(walk_seed))))
        })?;
        prop_assert_eq!(seen, ref_seen);
        prop_assert_eq!(verdicts, ref_verdicts);
    }
}

/// The layout is picked by size alone: one word up to 64 vertices, the
/// counters from 65.
#[test]
fn sixty_five_vertices_take_the_counter_layout() {
    let mut rng = StdRng::seed_from_u64(3);
    for (n, words) in [(WORD_MAX_N, true), (WORD_MAX_N + 1, false)] {
        let comp = random_component(&mut rng, n, 0.2, 0.2, 2);
        assert_eq!(SearchState::new(&comp).words().is_some(), words, "n {n}");
    }
}

/// Two triangles bridged by vertex 6, and vertex 7 on the first triangle,
/// dissimilar to 6 (k = 2). Shrinking 6 leaves a leaf with `M = ∅` whose
/// pieces are `{0, 1, 2, 7}` and `{3, 4, 5}`: the second is extended only
/// by 6 together with the co-leaf triangle `{0, 1, 2}`, so the maximal
/// check must take the co-leaf vertices as candidates on both layouts.
#[test]
fn co_leaf_pieces_extend_a_piece_through_e() {
    let comp = LocalComponent::from_parts(
        vec![
            vec![1, 2, 6],
            vec![0, 2, 7],
            vec![0, 1, 7],
            vec![4, 5, 6],
            vec![3, 5],
            vec![3, 4],
            vec![0, 3],
            vec![1, 2],
        ],
        vec![
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![7],
            vec![6],
        ],
        2,
    );
    let comps = [comp];
    let want = vec![
        crate::result::KrCore::new(vec![0, 1, 2, 3, 4, 5, 6]),
        crate::result::KrCore::new(vec![0, 1, 2, 7]),
    ];
    let cfg = AlgoConfig::adv_enum();
    assert_eq!(enumerate_maximal_prepared(&comps, &cfg).cores, want);
    let counters = on_counters(|| enumerate_maximal_prepared(&comps, &cfg));
    assert_eq!(counters.cores, want);
}
