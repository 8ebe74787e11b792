//! Exhaustive configuration-matrix test: every combination of toggles,
//! orders, bounds, branch policies, and check orders must produce the same
//! answer on a fixed non-trivial instance.

use kr_core::{
    enumerate_maximal, find_maximum, AlgoConfig, BoundKind, BranchPolicy, CheckOrder, KrCore,
    ProblemInstance, SearchOrder,
};
use kr_graph::{Graph, VertexId};
use kr_similarity::{AttributeTable, Metric, Threshold};

/// A 14-vertex instance with three geo clusters, bridges, and a hub that
/// blends two clusters — small enough to be fast, rich enough to exercise
/// every code path (disconnected leaves, E-set evictions, maximal checks).
fn fixture() -> ProblemInstance {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    // Cluster A: 0..5 (5-clique-ish), Cluster B: 5..10, Cluster C: 10..14.
    for base in [0u32, 5] {
        for i in 0..5 {
            for j in (i + 1)..5 {
                if (i + j) % 4 != 3 {
                    edges.push((base + i, base + j));
                }
            }
        }
    }
    for i in 10..14u32 {
        for j in (i + 1)..14 {
            edges.push((i, j));
        }
    }
    // Bridges and a blending hub.
    edges.extend([(4, 5), (9, 10), (2, 7), (3, 12), (8, 13)]);
    let g = Graph::from_edges(14, &edges);
    let pts = vec![
        (0.0, 0.0),
        (1.0, 0.0),
        (0.0, 1.0),
        (1.0, 1.0),
        (3.0, 0.5), // A, with 4 drifting toward B
        (6.0, 0.0),
        (7.0, 0.0),
        (6.0, 1.0),
        (7.0, 1.0),
        (9.0, 0.5), // B, with 9 drifting toward C
        (12.0, 0.0),
        (13.0, 0.0),
        (12.0, 1.0),
        (13.0, 1.0),
    ];
    ProblemInstance::new(
        g,
        AttributeTable::points(pts),
        Metric::Euclidean,
        Threshold::MaxDistance(4.5),
        2,
    )
}

#[test]
fn all_enumeration_configs_agree() {
    let p = fixture();
    let reference = enumerate_maximal(&p, &AlgoConfig::naive_enum()).cores;
    assert!(!reference.is_empty(), "fixture should have cores; got none");
    let mut tried = 0;
    for retain in [false, true] {
        for early in [false, true] {
            for maximal in [false, true] {
                for order in [
                    SearchOrder::Random,
                    SearchOrder::Degree,
                    SearchOrder::Delta1,
                    SearchOrder::Delta2,
                    SearchOrder::Delta1ThenDelta2,
                    SearchOrder::LambdaDelta,
                ] {
                    for check in [
                        CheckOrder::Degree,
                        CheckOrder::Delta1ThenDelta2,
                        CheckOrder::LambdaDelta,
                    ] {
                        let mut cfg = AlgoConfig::basic_enum();
                        cfg.retain_candidates = retain;
                        cfg.early_termination = early;
                        cfg.maximal_check = maximal;
                        cfg.order = order;
                        cfg.check_order = check;
                        let got = enumerate_maximal(&p, &cfg);
                        assert!(got.completed);
                        assert_eq!(
                            got.cores, reference,
                            "retain={retain} early={early} maximal={maximal} order={order:?} check={check:?}"
                        );
                        tried += 1;
                    }
                }
            }
        }
    }
    assert_eq!(tried, 2 * 2 * 2 * 6 * 3);
}

#[test]
fn all_maximum_configs_agree() {
    let p = fixture();
    let reference: usize = enumerate_maximal(&p, &AlgoConfig::adv_enum())
        .cores
        .iter()
        .map(KrCore::len)
        .max()
        .unwrap();
    for bound in [
        BoundKind::Naive,
        BoundKind::Color,
        BoundKind::KCore,
        BoundKind::ColorKCore,
        BoundKind::DoubleKCore,
    ] {
        for branch in [
            BranchPolicy::AlwaysExpand,
            BranchPolicy::AlwaysShrink,
            BranchPolicy::Adaptive,
        ] {
            for order in [
                SearchOrder::Random,
                SearchOrder::Degree,
                SearchOrder::Delta1ThenDelta2,
                SearchOrder::LambdaDelta,
            ] {
                for early in [false, true] {
                    let mut cfg = AlgoConfig::adv_max();
                    cfg.bound = bound;
                    cfg.branch = branch;
                    cfg.order = order;
                    cfg.early_termination = early;
                    let got = find_maximum(&p, &cfg);
                    assert!(got.completed);
                    assert_eq!(
                        got.core.map_or(0, |c| c.len()),
                        reference,
                        "bound={bound:?} branch={branch:?} order={order:?} early={early}"
                    );
                }
            }
        }
    }
}

#[test]
fn lambda_extremes_agree() {
    let p = fixture();
    let reference = enumerate_maximal(&p, &AlgoConfig::adv_enum()).cores;
    for lambda in [0.0, 0.5, 5.0, 100.0] {
        let got = enumerate_maximal(&p, &AlgoConfig::adv_enum().with_lambda(lambda));
        assert_eq!(got.cores, reference, "lambda={lambda}");
        let m = find_maximum(&p, &AlgoConfig::adv_max().with_lambda(lambda));
        assert_eq!(
            m.core.map_or(0, |c| c.len()),
            reference.iter().map(KrCore::len).max().unwrap(),
            "lambda={lambda}"
        );
    }
}

#[test]
fn random_seeds_agree() {
    let p = fixture();
    let reference = enumerate_maximal(&p, &AlgoConfig::adv_enum()).cores;
    for seed in 0..8 {
        let mut cfg = AlgoConfig::adv_enum().with_order(SearchOrder::Random);
        cfg.seed = seed;
        assert_eq!(enumerate_maximal(&p, &cfg).cores, reference, "seed={seed}");
    }
}

/// The pinned work counters of one search: `nodes`, `leaves`,
/// `early_terminations`, `bound_prunes`, `maximal_checks`.
type Counters = [u64; 5];

fn counters(s: &kr_core::search::SearchStats) -> Counters {
    [
        s.nodes,
        s.leaves,
        s.early_terminations,
        s.bound_prunes,
        s.maximal_checks,
    ]
}

/// Every enumeration preset, by name.
fn enum_presets() -> Vec<(&'static str, AlgoConfig)> {
    vec![
        ("naive", AlgoConfig::naive_enum()),
        ("basic", AlgoConfig::basic_enum()),
        ("be_cr", AlgoConfig::be_cr()),
        ("be_cr_et", AlgoConfig::be_cr_et()),
        ("adv", AlgoConfig::adv_enum()),
    ]
}

/// Every maximum preset and each single-knob variation of AdvMax: the
/// bounds, shrink-first branching, the Degree order and the seeded
/// Random order.
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

fn preset_instance(
    preset: kr_datagen::DatasetPreset,
    scale: f64,
    k: u32,
    threshold: Threshold,
) -> ProblemInstance {
    let ds = preset.generate_scaled(scale);
    ProblemInstance::new(ds.graph, ds.attributes, ds.metric, threshold, k)
}

/// The instances the counters are pinned on: the fixture, and the two
/// serving datasets at the scale the benchmark hosts them
/// (gowalla-like@0.25, dblp-like@1.0) at a `(k, r)` where the trees have
/// dozens to thousands of nodes and early termination fires.
fn golden_instances() -> Vec<(&'static str, ProblemInstance)> {
    use kr_datagen::DatasetPreset;
    vec![
        ("fixture", fixture()),
        (
            "gowalla",
            preset_instance(
                DatasetPreset::GowallaLike,
                0.25,
                3,
                Threshold::MaxDistance(9.0),
            ),
        ),
        (
            "dblp",
            preset_instance(
                DatasetPreset::DblpLike,
                1.0,
                3,
                Threshold::MinSimilarity(0.35),
            ),
        ),
    ]
}

/// NaiveEnum is exponential in the component size, so on the preset
/// instances it runs under this node limit: its counters then pin the
/// aborted walk.
const NAIVE_NODE_LIMIT: u64 = 20_000;

/// `(instance, preset, counters)` at `threads = 1`, recorded from the
/// search as it stands. Any change to a search decision (vertex choice,
/// branch order, a prune, a leaf test) moves at least one of them.
const GOLDEN: &[(&str, &str, Counters)] = &[
    ("fixture", "naive", [32767, 16384, 0, 0, 0]),
    ("fixture", "basic", [58, 18, 0, 0, 0]),
    ("fixture", "be_cr", [9, 5, 0, 0, 0]),
    ("fixture", "be_cr_et", [9, 5, 0, 0, 0]),
    ("fixture", "adv", [9, 5, 0, 0, 5]),
    ("fixture", "basic_max", [11, 2, 0, 4, 0]),
    ("fixture", "adv_max", [5, 2, 0, 1, 0]),
    ("fixture", "color", [5, 2, 0, 1, 0]),
    ("fixture", "kcore", [5, 2, 0, 1, 0]),
    ("fixture", "color_kcore", [5, 2, 0, 1, 0]),
    ("fixture", "shrink_first", [11, 2, 0, 4, 0]),
    ("fixture", "degree", [5, 2, 0, 1, 0]),
    ("fixture", "random", [3, 1, 0, 1, 0]),
    ("gowalla", "naive", [21516, 10740, 0, 0, 0]),
    ("gowalla", "basic", [33249, 7670, 0, 0, 0]),
    ("gowalla", "be_cr", [36, 24, 0, 0, 0]),
    ("gowalla", "be_cr_et", [36, 24, 0, 0, 0]),
    ("gowalla", "adv", [36, 24, 0, 0, 24]),
    ("gowalla", "basic_max", [21, 3, 0, 19, 0]),
    ("gowalla", "adv_max", [11, 3, 0, 14, 0]),
    ("gowalla", "color", [11, 3, 0, 14, 0]),
    ("gowalla", "kcore", [11, 3, 0, 14, 0]),
    ("gowalla", "color_kcore", [11, 3, 0, 14, 0]),
    ("gowalla", "shrink_first", [25, 5, 0, 19, 0]),
    ("gowalla", "degree", [11, 1, 0, 16, 0]),
    ("gowalla", "random", [28, 6, 0, 14, 0]),
    ("dblp", "naive", [150244, 75014, 0, 0, 0]),
    ("dblp", "basic", [34010, 12756, 0, 0, 0]),
    ("dblp", "be_cr", [439, 254, 0, 0, 0]),
    ("dblp", "be_cr_et", [439, 247, 7, 0, 0]),
    ("dblp", "adv", [439, 247, 7, 0, 246]),
    ("dblp", "basic_max", [200, 2, 2, 171, 0]),
    ("dblp", "adv_max", [86, 2, 0, 118, 0]),
    ("dblp", "color", [94, 2, 0, 122, 0]),
    ("dblp", "kcore", [98, 2, 0, 124, 0]),
    ("dblp", "color_kcore", [94, 2, 0, 122, 0]),
    ("dblp", "shrink_first", [110, 5, 0, 126, 0]),
    ("dblp", "degree", [43, 2, 2, 95, 0]),
    ("dblp", "random", [61, 4, 0, 99, 0]),
];

#[test]
fn golden_search_counters() {
    let mut got: Vec<(&str, &str, Counters)> = Vec::new();
    for (iname, p) in golden_instances() {
        let comps = p.preprocess();
        for (name, mut cfg) in enum_presets() {
            if name == "naive" && iname != "fixture" {
                cfg = cfg.with_node_limit(NAIVE_NODE_LIMIT);
            }
            let res = kr_core::enumerate_maximal_prepared(&comps, &cfg);
            got.push((iname, name, counters(&res.stats)));
        }
        for (name, cfg) in max_presets() {
            let res = kr_core::find_maximum_prepared(&comps, &cfg);
            assert!(res.completed, "{iname} {name}");
            got.push((iname, name, counters(&res.stats)));
        }
    }
    let table: String = got
        .iter()
        .map(|(i, n, c)| format!("    (\"{i}\", \"{n}\", {c:?}),\n"))
        .collect();
    assert!(got == GOLDEN, "search counters moved; now:\n{table}");
}

/// The shape the cold-miss traffic serves: dblp-like at scale 1.0,
/// `k = 4`, min-similarity 0.45, where preprocessing leaves a few dozen
/// components of a handful to a few dozen vertices each. The pinned
/// fields are `[nodes, leaves, early_terminations, bound_prunes,
/// maximal_checks, estimator_visits]` of AdvEnum and AdvMax.
const SERVED_SHAPE_GOLDEN: &[(&str, [u64; 6])] = &[
    ("adv", [124, 75, 0, 0, 70, 175]),
    ("adv_max", [13, 2, 0, 36, 0, 16]),
];

#[test]
fn golden_served_shape_counters() {
    let p = preset_instance(
        kr_datagen::DatasetPreset::DblpLike,
        1.0,
        4,
        Threshold::MinSimilarity(0.45),
    );
    let comps = p.preprocess();
    // 35 components of 5 to 11 vertices: every one fits a 64-bit word.
    let largest = comps.iter().map(|c| c.len()).max();
    assert_eq!((comps.len(), largest), (35, Some(11)));
    let pinned = |s: &kr_core::search::SearchStats| {
        [
            s.nodes,
            s.leaves,
            s.early_terminations,
            s.bound_prunes,
            s.maximal_checks,
            s.estimator_visits,
        ]
    };
    let got = [
        (
            "adv",
            pinned(&kr_core::enumerate_maximal_prepared(&comps, &AlgoConfig::adv_enum()).stats),
        ),
        (
            "adv_max",
            pinned(&kr_core::find_maximum_prepared(&comps, &AlgoConfig::adv_max()).stats),
        ),
    ];
    assert!(
        got == SERVED_SHAPE_GOLDEN,
        "served-shape counters moved; now: {got:?}"
    );
}
