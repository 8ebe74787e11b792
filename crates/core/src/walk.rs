//! The one expand/shrink search walker behind AdvEnum, AdvMax and the
//! maximal check.
//!
//! Algorithm 3 (enumeration), Algorithm 5 (maximum) and Algorithm 4 (the
//! maximal check) walk the same binary tree over `(M, C, E)` with the same
//! per-node steps: the budget check, Remark 1 promotion, early termination
//! (Theorem 5), the vertex choice and the two branches. They differ in a
//! few places only — a size-bound cut, what happens at a leaf, which
//! branch goes first and when to stop — and those are a [`Goal`]'s job
//! (`enumerate::EnumGoal`, `maximum::MaxGoal`, `maximal::CheckGoal`). A
//! [`Walker`] runs one goal over one component.

use crate::component::LocalComponent;
use crate::config::AlgoConfig;
use crate::early_term::{can_terminate_with, Scratch};
use crate::order::{Chooser, FirstBranch};
use crate::search::{bits, SearchState, SearchStats, Status};
use kr_graph::VertexId;

/// What one algorithm does at the points where the searches differ.
pub(crate) trait Goal {
    /// Cuts the node after early termination and before the leaf test:
    /// the maximum search's size bound. Counts its own prunes.
    fn cut(&mut self, _st: &SearchState<'_>, _stats: &mut SearchStats) -> bool {
        false
    }
    /// Whether the node is a leaf.
    fn is_leaf(&self, st: &SearchState<'_>) -> bool;
    /// Handles a leaf (already counted in `stats.leaves`).
    fn leaf(&mut self, st: &SearchState<'_>, stats: &mut SearchStats);
    /// Whether similarity-free candidates may be chosen to branch on.
    fn include_sf(&self) -> bool;
    /// Whether to expand first, given the chooser's preferred branch.
    fn expand_first(&self, preferred: FirstBranch) -> bool;
    /// Stops the walk: the goal has its answer.
    fn done(&self) -> bool {
        false
    }
}

/// One search over one component.
pub(crate) struct Walker<'a, G> {
    pub(crate) comp: &'a LocalComponent,
    pub(crate) cfg: &'a AlgoConfig,
    chooser: Chooser,
    /// Early termination's buffers on the counter layout.
    term: Scratch,
    deadline: Option<std::time::Instant>,
    pub(crate) goal: G,
    pub(crate) stats: SearchStats,
    /// Set when the node budget, the deadline or a cancel stopped the walk.
    pub(crate) aborted: bool,
}

impl<'a, G: Goal> Walker<'a, G> {
    pub(crate) fn new(
        comp: &'a LocalComponent,
        cfg: &'a AlgoConfig,
        deadline: Option<std::time::Instant>,
        goal: G,
    ) -> Self {
        Walker {
            comp,
            cfg,
            chooser: Chooser::new(cfg, comp.len()),
            term: Scratch::default(),
            deadline,
            goal,
            stats: SearchStats::default(),
            aborted: false,
        }
    }

    /// Counts a node and checks the budget; false when the walk must stop.
    pub(crate) fn enter(&mut self) -> bool {
        if self.goal.done() {
            return false;
        }
        self.stats.nodes += 1;
        if self.cfg.budget_exceeded(self.stats.nodes, self.deadline) {
            self.aborted = true;
            return false;
        }
        true
    }

    /// Searches the whole component.
    pub(crate) fn run(&mut self) {
        self.run_from(&mut SearchState::new(self.comp));
    }

    /// Searches the tree below `st`: the structure prune, then the tree.
    pub(crate) fn run_from(&mut self, st: &mut SearchState<'_>) {
        if st.prune_root() {
            self.rec(st);
        }
    }

    fn rec(&mut self, st: &mut SearchState<'_>) {
        if !self.enter() {
            return;
        }
        if self.cfg.retain_candidates {
            promote_free_candidates(st);
        }
        if self.cfg.early_termination && can_terminate_with(st, &mut self.term) {
            self.stats.early_terminations += 1;
            return;
        }
        if self.goal.cut(st, &mut self.stats) {
            return;
        }
        if self.goal.is_leaf(st) {
            self.stats.leaves += 1;
            self.goal.leaf(st, &mut self.stats);
            return;
        }
        let chosen = self.chooser.choose(st, self.goal.include_sf());
        self.stats.estimator_visits = self.chooser.estimator_visits();
        let Some((u, preferred)) = chosen else {
            return;
        };
        let first = (u, self.goal.expand_first(preferred));
        let second = (u, !first.1);
        let m = st.mark();
        if apply(st, first) {
            self.rec(st);
        }
        st.rollback(m);
        if apply(st, second) {
            self.rec(st);
        }
        st.rollback(m);
    }
}

fn apply(st: &mut SearchState<'_>, (u, expand): (VertexId, bool)) -> bool {
    if expand {
        st.expand(u)
    } else {
        st.shrink(u)
    }
}

/// Remark 1 of the paper: a similarity-free candidate already adjacent to
/// `k` chosen vertices (and to at least one, so `M` stays connected at
/// `k = 0`) can be moved straight into `M` — every maximal (k,r)-core
/// below this node must contain it (it extends any core that omits it).
/// The move evicts `E` members dissimilar to the promoted vertex and
/// cannot fail structurally (no `M ∪ C` vertex is removed).
fn promote_free_candidates(st: &mut SearchState<'_>) {
    let attached = st.k.max(1);
    loop {
        let u = match st.words() {
            Some(w) => bits(w.c())
                .find(|&v| w.dis(v) & w.c() == 0 && (w.adj(v) & w.m()).count_ones() >= attached),
            None => (0..st.comp.len() as VertexId).find(|&v| {
                st.status(v) == Status::Cand && st.dp_c(v) == 0 && st.deg_m(v) >= attached
            }),
        };
        match u {
            Some(u) => {
                let ok = st.expand(u);
                debug_assert!(ok, "promotion cannot fail");
            }
            None => break,
        }
    }
}

pub(crate) fn merge_stats(into: &mut SearchStats, from: SearchStats) {
    into.nodes += from.nodes;
    into.leaves += from.leaves;
    into.early_terminations += from.early_terminations;
    into.bound_prunes += from.bound_prunes;
    into.maximal_checks += from.maximal_checks;
    into.estimator_visits += from.estimator_visits;
}
