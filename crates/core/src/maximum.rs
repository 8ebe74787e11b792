//! Finding the maximum (k,r)-core (Algorithm 5).
//!
//! The same branch-and-prune walk as the enumeration — one walker serves
//! both — with three changes (Section 6.1): the subtree is cut when the
//! size upper bound cannot beat the best core seen so far, no maximal
//! check is needed, and the branch order is chosen adaptively to reach
//! large cores early.
//!
//! The expensive bounds are evaluated lazily: the O(1) naive bound runs
//! first and the configured bound is consulted only when the naive one
//! fails to prune — semantics are unchanged because every bound is ≤ the
//! naive bound.

use crate::bounds::size_upper_bound;
use crate::component::LocalComponent;
use crate::config::{AlgoConfig, BoundKind, BranchPolicy};
use crate::order::FirstBranch;
use crate::problem::ProblemInstance;
use crate::result::KrCore;
use crate::search::{SearchState, SearchStats};
use crate::walk::{merge_stats, Goal, Walker};
use kr_graph::VertexId;

/// Result of a maximum search.
#[derive(Debug, Clone)]
pub struct MaxResult {
    /// The maximum (k,r)-core, or `None` when no (k,r)-core exists.
    pub core: Option<KrCore>,
    /// Search statistics summed over components.
    pub stats: SearchStats,
    /// False when the node limit was hit (result may be suboptimal).
    pub completed: bool,
}

/// Finds the maximum (k,r)-core of `problem` under `cfg`. Preprocessing
/// runs on [`AlgoConfig::threads`] workers; the search is sequential.
pub fn find_maximum(problem: &ProblemInstance, cfg: &AlgoConfig) -> MaxResult {
    find_maximum_prepared(&problem.preprocess_parallel(cfg.threads), cfg)
}

/// [`find_maximum`] over components preprocessed earlier (e.g. by
/// [`ProblemInstance::preprocess`] or pulled from a serving-layer cache):
/// the initial peel/split stage is skipped. The components must stem from
/// the same `(k, r)` the query runs with.
pub fn find_maximum_prepared(comps: &[LocalComponent], cfg: &AlgoConfig) -> MaxResult {
    let mut stats = SearchStats::default();
    let mut completed = true;
    let mut best: Option<KrCore> = None;
    let deadline = cfg.deadline();

    // Components are ordered so that the one holding the highest-degree
    // vertex is searched first (Section 6.1); later components whose total
    // size cannot beat the incumbent are skipped outright.
    for comp in comps {
        let best_len = best.as_ref().map_or(0, |c| c.len());
        if comp.len() <= best_len {
            stats.bound_prunes += 1;
            continue;
        }
        let mut walker = Walker::new(comp, cfg, deadline, MaxGoal::new(cfg, best_len));
        walker.run();
        if let Some(piece) = &walker.goal.best {
            best = Some(KrCore::new(comp.globalize(piece)));
        }
        merge_stats(&mut stats, walker.stats);
        completed &= !walker.aborted;
    }
    MaxResult {
        core: best,
        stats,
        completed,
    }
}

/// The maximum side of the walk (Algorithm 5): the size-bound cut,
/// Theorem 4 leaves whose largest piece may beat the incumbent, and the
/// configured [`BranchPolicy`].
struct MaxGoal<'a> {
    cfg: &'a AlgoConfig,
    /// Size to beat (max of start incumbent and local best).
    best_len: usize,
    /// The best core this walk found (local ids).
    best: Option<Vec<VertexId>>,
}

impl<'a> MaxGoal<'a> {
    fn new(cfg: &'a AlgoConfig, best_len: usize) -> Self {
        MaxGoal {
            cfg,
            best_len,
            best: None,
        }
    }
}

impl Goal for MaxGoal<'_> {
    /// Upper-bound pruning (Algorithm 5 line 2). The O(1) naive bound
    /// first; the configured one only when the naive one fails to prune.
    fn cut(&mut self, st: &SearchState<'_>, stats: &mut SearchStats) -> bool {
        let cut = st.mc_len() as usize <= self.best_len
            || (self.cfg.bound != BoundKind::Naive
                && size_upper_bound(st, self.cfg.bound) as usize <= self.best_len);
        if cut {
            stats.bound_prunes += 1;
        }
        cut
    }

    fn is_leaf(&self, st: &SearchState<'_>) -> bool {
        st.all_candidates_similarity_free()
    }

    /// Every connected piece of a Theorem 4 leaf is a (k,r)-core; keep the
    /// largest.
    fn leaf(&mut self, st: &SearchState<'_>, _stats: &mut SearchStats) {
        for piece in st.mc_components() {
            if piece.len() > self.best_len && piece.len() > st.k as usize {
                self.best_len = piece.len();
                self.best = Some(piece);
            }
        }
    }

    fn include_sf(&self) -> bool {
        false
    }

    fn expand_first(&self, preferred: FirstBranch) -> bool {
        match self.cfg.branch {
            BranchPolicy::AlwaysExpand => true,
            BranchPolicy::AlwaysShrink => false,
            BranchPolicy::Adaptive => preferred == FirstBranch::Expand,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchOrder;
    use crate::enumerate::enumerate_maximal;
    use kr_graph::Graph;
    use kr_similarity::{AttributeTable, Metric, Threshold};

    fn bridged_cliques(r: f64) -> ProblemInstance {
        let mut edges = vec![];
        for group in [[0u32, 1, 2, 3], [3u32, 4, 5, 6], [3u32, 7, 8, 9]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((group[i], group[j]));
                }
            }
        }
        // Make the third group a 5-clique (largest core).
        for v in [3u32, 7, 8, 9] {
            edges.push((v, 10));
        }
        let g = Graph::from_edges(11, &edges);
        let pts = vec![
            (0.0, 0.0),
            (1.0, 0.0),
            (0.0, 1.0),
            (5.0, 0.0),
            (10.0, 0.0),
            (11.0, 0.0),
            (10.0, 1.0),
            (5.0, 4.0),
            (6.0, 4.0),
            (5.0, 5.0),
            (6.0, 5.0),
        ];
        ProblemInstance::new(
            g,
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(r),
            2,
        )
    }

    fn max_configs() -> Vec<(&'static str, AlgoConfig)> {
        vec![
            ("basic_max", AlgoConfig::basic_max()),
            ("adv_max", AlgoConfig::adv_max()),
            (
                "adv_max_color",
                AlgoConfig::adv_max().with_bound(BoundKind::Color),
            ),
            (
                "adv_max_kcore",
                AlgoConfig::adv_max().with_bound(BoundKind::KCore),
            ),
            (
                "adv_max_ck",
                AlgoConfig::adv_max().with_bound(BoundKind::ColorKCore),
            ),
            ("adv_max_deg", AlgoConfig::adv_max_no_order()),
            (
                "adv_max_shrinkfirst",
                AlgoConfig::adv_max().with_branch(BranchPolicy::AlwaysShrink),
            ),
            (
                "adv_max_random",
                AlgoConfig::adv_max().with_order(SearchOrder::Random),
            ),
        ]
    }

    #[test]
    fn maximum_matches_enumeration() {
        for r in [7.0, 9.0, 100.0] {
            let p = bridged_cliques(r);
            let enum_res = enumerate_maximal(&p, &AlgoConfig::adv_enum());
            let expect = enum_res.cores.iter().map(|c| c.len()).max().unwrap_or(0);
            for (name, cfg) in max_configs() {
                let res = find_maximum(&p, &cfg);
                assert!(res.completed, "{name}");
                let got = res.core.as_ref().map_or(0, |c| c.len());
                assert_eq!(got, expect, "{name} at r={r}");
                if let Some(c) = &res.core {
                    assert!(crate::verify::is_kr_core(&p, c), "{name} invalid core");
                }
            }
        }
    }

    /// Two disjoint, mutually dissimilar 6-cliques, each holding one
    /// dissimilar pair: four maximum cores of size 5, two per component.
    /// The search keeps the first component's core, with sequential and
    /// with pooled preprocessing alike.
    #[test]
    fn ties_keep_the_first_components_core() {
        let mut edges = vec![];
        let mut pts = vec![];
        for (c, dx) in [(0u32, 0.0), (6, 100.0)] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    edges.push((c + i, c + j));
                }
            }
            for (x, y) in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)] {
                pts.push((x + dx, y));
            }
            pts.extend([(dx - 0.9, 0.5), (dx + 1.9, 0.5)]);
        }
        let p = ProblemInstance::new(
            Graph::from_edges(12, &edges),
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(2.0),
            2,
        );
        let comps = p.preprocess();
        assert_eq!(comps.len(), 2);
        let first = comps[0].globalize(&(0..comps[0].len() as VertexId).collect::<Vec<_>>());
        for threads in [1, 2] {
            let core = find_maximum(&p, &AlgoConfig::adv_max().with_threads(threads))
                .core
                .unwrap();
            assert_eq!(core.len(), 5, "threads={threads}");
            assert!(
                core.vertices.iter().all(|v| first.contains(v)),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn none_when_no_core() {
        let p = bridged_cliques(0.1);
        let res = find_maximum(&p, &AlgoConfig::adv_max());
        assert!(res.core.is_none());
    }

    #[test]
    fn bound_prunes_counted() {
        let p = bridged_cliques(7.0);
        let res = find_maximum(&p, &AlgoConfig::adv_max());
        // With several components, at least the skip-or-prune machinery
        // must have fired somewhere on this instance.
        assert!(res.stats.nodes > 0);
    }

    #[test]
    fn node_limit_marks_incomplete() {
        let p = bridged_cliques(7.0);
        let res = find_maximum(&p, &AlgoConfig::adv_max().with_node_limit(2));
        assert!(!res.completed);
    }

    #[test]
    fn pre_cancelled_flag_marks_incomplete() {
        let p = bridged_cliques(7.0);
        let flag = crate::config::CancelFlag::new();
        flag.cancel();
        let res = find_maximum(&p, &AlgoConfig::adv_max().with_cancel(flag));
        assert!(!res.completed);
    }
}
