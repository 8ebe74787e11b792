//! Finding the maximum (k,r)-core (Algorithm 5).
//!
//! The same branch-and-prune walk as the enumeration, with three changes
//! (Section 6.1): the subtree is cut when the size upper bound cannot beat
//! the best core seen so far, no maximal check is needed, and the branch
//! order is chosen adaptively to reach large cores early.
//!
//! The expensive bounds are evaluated lazily: the O(1) naive bound runs
//! first and the configured bound is consulted only when the naive one
//! fails to prune — semantics are unchanged because every bound is ≤ the
//! naive bound.

use crate::bounds::size_upper_bound;
use crate::component::LocalComponent;
use crate::config::{AlgoConfig, BoundKind, BranchPolicy};
use crate::early_term::can_terminate;
use crate::enumerate::{merge_stats, promote_free_candidates, replay_prefix};
use crate::order::{Chooser, FirstBranch};
use crate::problem::ProblemInstance;
use crate::result::KrCore;
use crate::search::{Decision, SearchState, SearchStats};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Finds the maximum (k,r)-core of `problem` under `cfg`.
///
/// With [`AlgoConfig::threads`] ≠ 1 the run is dispatched to the
/// work-stealing engine of [`crate::parallel`], which shares the incumbent
/// size across workers through an atomic and — for deterministic search
/// orders — returns the identical core. Node-limited runs stay
/// sequential: a per-worker node budget would change what "limit reached"
/// means and break that equivalence.
pub fn find_maximum(problem: &ProblemInstance, cfg: &AlgoConfig) -> MaxResult {
    if parallel_eligible(cfg) {
        return crate::parallel::find_maximum_parallel(problem, cfg);
    }
    find_maximum_sequential(&problem.preprocess(), cfg)
}

/// [`find_maximum`] over components preprocessed earlier (e.g. by
/// [`ProblemInstance::preprocess`] or pulled from a serving-layer cache):
/// the initial peel/split stage is skipped. The components must stem from
/// the same `(k, r)` the query runs with.
pub fn find_maximum_prepared(comps: &[LocalComponent], cfg: &AlgoConfig) -> MaxResult {
    if parallel_eligible(cfg) {
        return crate::parallel::find_maximum_parallel_prepared(comps, cfg);
    }
    find_maximum_sequential(comps, cfg)
}

/// [`find_maximum_prepared`] on a caller-provided pool (see
/// [`crate::enumerate_maximal_prepared_on`] for when the pool is used).
pub fn find_maximum_prepared_on(
    comps: &[LocalComponent],
    cfg: &AlgoConfig,
    pool: &rayon::ThreadPool,
) -> MaxResult {
    if parallel_eligible(cfg) {
        return crate::parallel::find_maximum_on(comps, cfg, pool);
    }
    find_maximum_sequential(comps, cfg)
}

/// Node-limited runs stay sequential (a per-worker node budget would
/// change what "limit reached" means and break result equivalence).
fn parallel_eligible(cfg: &AlgoConfig) -> bool {
    cfg.threads != 1 && cfg.node_limit.is_none()
}

fn find_maximum_sequential(comps: &[LocalComponent], cfg: &AlgoConfig) -> MaxResult {
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
        let mut driver = MaxDriver::new(comp, cfg, deadline, best_len, None);
        driver.run(&[]);
        if !driver.best_local.is_empty() {
            best = Some(KrCore::new(comp.globalize(&driver.best_local)));
        }
        merge_stats(&mut stats, driver.stats);
        completed &= !driver.aborted;
    }
    MaxResult {
        core: best,
        stats,
        completed,
    }
}

pub(crate) struct MaxDriver<'a> {
    comp: &'a LocalComponent,
    cfg: &'a AlgoConfig,
    chooser: Chooser,
    pub(crate) stats: SearchStats,
    pub(crate) aborted: bool,
    /// Best core found in this component (local ids); empty = none yet.
    pub(crate) best_local: Vec<kr_graph::VertexId>,
    /// Size to beat (max of start incumbent and local best).
    pub(crate) best_len: usize,
    deadline: Option<std::time::Instant>,
    /// Shared incumbent size, published by every worker of a parallel
    /// run. Only consulted with a *strict* comparison (`ub < global`):
    /// unlike `best_len`, this value may stem from DFS-later subtrees, and
    /// pruning `ub == global` there could cut the tie-breaking core the
    /// sequential run would have returned.
    global: Option<&'a AtomicUsize>,
    /// Re-split host, armed by [`Self::with_host`] on parallel task
    /// drivers (see [`crate::parallel::DonationHost`]).
    host: Option<&'a dyn crate::parallel::DonationHost>,
    /// Decision path from the component root to the current node
    /// (prefix decisions included for task drivers).
    path: Vec<Decision>,
    /// One entry per ancestor whose second branch is still pending —
    /// the frontier a re-split donates from.
    slots: Vec<crate::parallel::DonationSlot>,
    /// DFS-ordered merge events (improving finds and donated-child
    /// markers), recorded only when a host is armed.
    pub(crate) events: Vec<crate::parallel::MergeEvent>,
}

impl<'a> MaxDriver<'a> {
    pub(crate) fn new(
        comp: &'a LocalComponent,
        cfg: &'a AlgoConfig,
        deadline: Option<std::time::Instant>,
        best_len: usize,
        global: Option<&'a AtomicUsize>,
    ) -> Self {
        MaxDriver {
            comp,
            cfg,
            chooser: Chooser::new(cfg, comp.len()),
            stats: SearchStats::default(),
            aborted: false,
            best_local: Vec::new(),
            best_len,
            deadline,
            global,
            host: None,
            path: Vec::new(),
            slots: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Arms re-splitting on this (parallel task) driver: `host` is polled
    /// at node entry and pending sibling branches of the DFS path are
    /// donated as fresh tasks when the pool runs dry. Also switches
    /// the driver to recording DFS-ordered [`crate::parallel::MergeEvent`]s.
    pub(crate) fn with_host(mut self, host: &'a dyn crate::parallel::DonationHost) -> Self {
        self.host = Some(host);
        self
    }

    /// Algorithm 5 line 2 pruning: local incumbent with `<=`, shared
    /// atomic incumbent with `<` (see the `global` field docs).
    fn bound_cut(&self, ub: usize) -> bool {
        ub <= self.best_len || self.global.is_some_and(|g| ub < g.load(Ordering::Relaxed))
    }

    /// Searches the subtree below `prefix`: empty for a whole component,
    /// a donated branch for a parallel task.
    pub(crate) fn run(&mut self, prefix: &[Decision]) {
        let Some(mut st) = replay_prefix(self.comp, self.cfg, prefix) else {
            return;
        };
        self.path = prefix.to_vec();
        self.rec(&mut st);
        self.path.clear();
    }

    fn rec(&mut self, st: &mut SearchState<'a>) {
        self.stats.nodes += 1;
        if self.cfg.budget_exceeded(self.stats.nodes, self.deadline) {
            self.aborted = true;
            return;
        }
        crate::parallel::maybe_donate(
            self.host,
            &self.path,
            &mut self.slots,
            self.best_len,
            &mut self.stats,
        );
        if self.cfg.retain_candidates {
            promote_free_candidates(st);
        }
        if self.cfg.early_termination && can_terminate(st) {
            self.stats.early_terminations += 1;
            return;
        }
        // Upper-bound pruning (Algorithm 5 line 2). Cheap bound first.
        if self.bound_cut(st.mc_len() as usize) {
            self.stats.bound_prunes += 1;
            return;
        }
        if self.cfg.bound != BoundKind::Naive
            && self.bound_cut(size_upper_bound(st, self.cfg.bound) as usize)
        {
            self.stats.bound_prunes += 1;
            return;
        }
        if st.all_candidates_similarity_free() {
            self.stats.leaves += 1;
            self.record_leaf(st);
            return;
        }
        let Some((u, preferred)) = self.chooser.choose(st, false) else {
            return;
        };
        let first = match self.cfg.branch {
            BranchPolicy::AlwaysExpand => FirstBranch::Expand,
            BranchPolicy::AlwaysShrink => FirstBranch::Shrink,
            BranchPolicy::Adaptive => preferred,
        };
        // Task drivers track the DFS path and the pending second branch
        // of every ancestor (the re-split frontier); a donated sibling is
        // skipped inline and marked with a `Child` event so the merge can
        // splice the donated task's finds in at exactly this DFS point.
        let track = self.host.is_some();
        let branches = match first {
            FirstBranch::Expand => [true, false],
            FirstBranch::Shrink => [false, true],
        };
        let m = st.mark();
        let mut donated = None;
        let ok = if branches[0] {
            st.expand(u)
        } else {
            st.shrink(u)
        };
        if ok {
            if track {
                self.slots.push(crate::parallel::DonationSlot {
                    depth: self.path.len(),
                    sibling: (u, branches[1]),
                    donated: None,
                });
                self.path.push((u, branches[0]));
            }
            self.rec(st);
            if track {
                self.path.pop();
                donated = self.slots.pop().expect("slot pushed above").donated;
            }
        }
        st.rollback(m);
        match donated {
            Some(tid) => self.events.push(crate::parallel::MergeEvent::Child(tid)),
            None => {
                let ok = if branches[1] {
                    st.expand(u)
                } else {
                    st.shrink(u)
                };
                if ok {
                    if track {
                        self.path.push((u, branches[1]));
                    }
                    self.rec(st);
                    if track {
                        self.path.pop();
                    }
                }
                st.rollback(m);
            }
        }
    }

    /// Every connected piece of a Theorem 4 leaf is a (k,r)-core; keep the
    /// largest and publish its size to the shared bound.
    fn record_leaf(&mut self, st: &SearchState<'a>) {
        for piece in st.mc_components() {
            if piece.len() > self.best_len && piece.len() > self.comp.k as usize {
                self.best_len = piece.len();
                if self.host.is_some() {
                    self.events.push(crate::parallel::MergeEvent::Found {
                        size: piece.len(),
                        piece: piece.clone(),
                    });
                }
                self.best_local = piece;
                if let Some(g) = self.global {
                    // `fetch_max` returns the previous value; a smaller
                    // previous value means this worker actually advanced
                    // the shared incumbent.
                    if g.fetch_max(self.best_len, Ordering::Relaxed) < self.best_len {
                        crate::obs::engine_obs().incumbent_updates.inc();
                    }
                }
            }
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
