//! The one expand/shrink search walker behind AdvEnum and AdvMax.
//!
//! Algorithm 3 (enumeration) and Algorithm 5 (maximum) walk the same
//! binary tree over `(M, C, E)` with the same per-node steps: the budget
//! check, the donation poll of a parallel task, Remark 1 promotion, early
//! termination (Theorem 5), the vertex choice and the two branches. They
//! differ in three places only — a size-bound cut, what happens at a leaf,
//! and which branch goes first — and those are a [`Goal`]'s job
//! (`enumerate::EnumGoal`, `maximum::MaxGoal`). A [`Walker`] runs one
//! goal over one component, sequentially or as a task of the parallel
//! engine ([`crate::parallel`]), which arms its [`Donor`].

use crate::component::LocalComponent;
use crate::config::AlgoConfig;
use crate::early_term::can_terminate;
use crate::order::{Chooser, FirstBranch};
use crate::search::{Decision, SearchState, SearchStats, Status};
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
    /// Incumbent size a donated sibling starts from.
    fn incumbent(&self) -> usize {
        0
    }
    /// The node's second branch was donated as task `tid` and is skipped.
    fn donated(&mut self, _tid: u64) {}
}

/// What a finished walk leaves: its goal (the answers it found), its
/// counters and whether it was cut short.
pub(crate) struct Outcome<G> {
    pub(crate) goal: G,
    pub(crate) stats: SearchStats,
    pub(crate) aborted: bool,
}

/// One search over one component: a whole component from its root, or a
/// donated branch below a decision prefix.
pub(crate) struct Walker<'a, G> {
    pub(crate) comp: &'a LocalComponent,
    pub(crate) cfg: &'a AlgoConfig,
    chooser: Chooser,
    deadline: Option<std::time::Instant>,
    donor: Donor<'a>,
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
            deadline,
            donor: Donor::default(),
            goal,
            stats: SearchStats::default(),
            aborted: false,
        }
    }

    /// Arms donation on a parallel task's walker: `host` is polled at
    /// node entry and pending sibling branches of the DFS path are donated
    /// as fresh tasks when the pool runs dry.
    pub(crate) fn with_host(mut self, host: &'a dyn DonationHost) -> Self {
        self.donor.host = Some(host);
        self
    }

    /// Counts a node and checks the budget; false when the walk must stop.
    pub(crate) fn enter(&mut self) -> bool {
        self.stats.nodes += 1;
        if self.cfg.budget_exceeded(self.stats.nodes, self.deadline) {
            self.aborted = true;
            return false;
        }
        true
    }

    /// The walk's result, once it has run.
    pub(crate) fn outcome(self) -> Outcome<G> {
        Outcome {
            goal: self.goal,
            stats: self.stats,
            aborted: self.aborted,
        }
    }

    /// Searches the subtree below `prefix`: empty for a whole component,
    /// a donated branch for a parallel task.
    pub(crate) fn run(&mut self, prefix: &[Decision]) {
        let Some(mut st) = replay_prefix(self.comp, self.cfg, prefix) else {
            return;
        };
        self.donor.path = prefix.to_vec();
        self.rec(&mut st);
        self.donor.path.clear();
    }

    fn rec(&mut self, st: &mut SearchState<'a>) {
        if !self.enter() {
            return;
        }
        self.donor.poll(self.goal.incumbent(), &mut self.stats);
        if self.cfg.retain_candidates {
            promote_free_candidates(st);
        }
        if self.cfg.early_termination && can_terminate(st) {
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
        let Some((u, preferred)) = self.chooser.choose(st, self.goal.include_sf()) else {
            return;
        };
        let first = (u, self.goal.expand_first(preferred));
        let second = (u, !first.1);
        let m = st.mark();
        let mut donated = None;
        if apply(st, first) {
            self.donor.descend(first, Some(second));
            self.rec(st);
            donated = self.donor.ascend();
        }
        st.rollback(m);
        match donated {
            Some(tid) => self.goal.donated(tid),
            None => {
                if apply(st, second) {
                    self.donor.descend(second, None);
                    self.rec(st);
                    self.donor.ascend();
                }
                st.rollback(m);
            }
        }
    }
}

fn apply(st: &mut SearchState<'_>, (u, expand): Decision) -> bool {
    if expand {
        st.expand(u)
    } else {
        st.shrink(u)
    }
}

/// Surface through which a running task's walker donates (implemented by
/// the parallel engine so donated tasks are spawned onto the live scope).
pub(crate) trait DonationHost {
    /// How many fresh tasks the pool could absorb right now. Zero means
    /// the pool is busy and donation would only add replay overhead.
    fn wanted(&self) -> usize;
    /// Spawns `prefix` as a fresh task and returns its task id.
    /// `start_incumbent` is the donor's best size at donation time
    /// (ignored by enumeration).
    fn donate(&self, prefix: Vec<Decision>, start_incumbent: usize) -> u64;
}

/// A pending second branch on the walker's DFS path: the donation
/// currency.
struct DonationSlot {
    /// Length of the decision path at the branch node (the sibling's
    /// prefix is `path[..depth]` plus `sibling`).
    depth: usize,
    /// The branch the walker has not yet taken at that node.
    sibling: Decision,
    /// Task id the sibling was donated as, if any; the walker then skips
    /// the branch inline on unwind.
    donated: Option<u64>,
}

/// Donation state of a walker. Armed only on parallel tasks; without a
/// host every method is a no-op, so sequential runs skip the bookkeeping.
#[derive(Default)]
struct Donor<'a> {
    host: Option<&'a dyn DonationHost>,
    /// Decision path from the component root to the current node (prefix
    /// decisions included for donated tasks).
    path: Vec<Decision>,
    /// One entry per ancestor whose second branch is still pending — the
    /// frontier a donation takes from.
    slots: Vec<DonationSlot>,
}

impl Donor<'_> {
    /// Node-entry check: donates the shallowest pending siblings of the
    /// current DFS path while the host still wants tasks. Shallowest
    /// first — those subtrees are the largest, so one donation feeds an
    /// idle worker for longest.
    fn poll(&mut self, start_incumbent: usize, stats: &mut SearchStats) {
        let Some(host) = self.host else { return };
        let mut want = host.wanted();
        if want == 0 {
            return;
        }
        let mut donated = 0u64;
        for slot in &mut self.slots {
            if want == 0 {
                break;
            }
            if slot.donated.is_some() {
                continue;
            }
            let mut prefix = self.path[..slot.depth].to_vec();
            prefix.push(slot.sibling);
            slot.donated = Some(host.donate(prefix, start_incumbent));
            donated += 1;
            want -= 1;
        }
        if donated > 0 {
            stats.resplits += 1;
            stats.resplit_subtasks += donated;
            let obs = crate::obs::engine_obs();
            obs.resplits.inc();
            obs.resplit_subtasks.add(donated);
        }
    }

    /// Steps into branch `d`; `pending` is the node's other branch while
    /// it is still to come (the first branch), which makes it donatable.
    fn descend(&mut self, d: Decision, pending: Option<Decision>) {
        if self.host.is_none() {
            return;
        }
        if let Some(sibling) = pending {
            self.slots.push(DonationSlot {
                depth: self.path.len(),
                sibling,
                donated: None,
            });
        }
        self.path.push(d);
    }

    /// Steps back out of the branch entered last. For a first branch,
    /// returns the task id its pending sibling was donated as, if it was.
    fn ascend(&mut self) -> Option<u64> {
        self.host?;
        self.path.pop();
        // A first branch's slot has the depth of its node; any other slot
        // still on the stack belongs to a strictly shallower ancestor.
        if self
            .slots
            .last()
            .is_some_and(|slot| slot.depth == self.path.len())
        {
            return self.slots.pop().and_then(|slot| slot.donated);
        }
        None
    }
}

/// Remark 1 of the paper: a similarity-free candidate already adjacent to
/// `k` chosen vertices can be moved straight into `M` — every maximal
/// (k,r)-core below this node must contain it (it extends any core that
/// omits it). The move evicts `E` members dissimilar to the promoted
/// vertex and cannot fail structurally (no `M ∪ C` vertex is removed).
pub(crate) fn promote_free_candidates(st: &mut SearchState<'_>) {
    loop {
        let u = (0..st.comp.len() as VertexId)
            .find(|&v| st.status(v) == Status::Cand && st.dp_c(v) == 0 && st.deg_m(v) >= st.k);
        match u {
            Some(u) => {
                let ok = st.expand(u);
                debug_assert!(ok, "promotion cannot fail");
            }
            None => break,
        }
    }
}

/// Rebuilds the search state at the node `prefix` leads to from the
/// component root: the root prune, then per decision the node-entry
/// promotions and the expand or shrink, exactly as the DFS that recorded
/// the prefix applied them. `None` when the root prunes away or the final
/// decision fails. Only the final decision may fail: it is the one branch
/// a donor never attempted itself, and an infeasible sibling is an empty
/// subtree.
pub(crate) fn replay_prefix<'a>(
    comp: &'a LocalComponent,
    cfg: &AlgoConfig,
    prefix: &[Decision],
) -> Option<SearchState<'a>> {
    let mut st = SearchState::new(comp);
    if !st.prune_root() {
        return None;
    }
    for (i, &d) in prefix.iter().enumerate() {
        if cfg.retain_candidates {
            promote_free_candidates(&mut st);
        }
        if !apply(&mut st, d) {
            debug_assert_eq!(i + 1, prefix.len(), "prefix replay failed early");
            return None;
        }
    }
    Some(st)
}

pub(crate) fn merge_stats(into: &mut SearchStats, from: SearchStats) {
    into.nodes += from.nodes;
    into.leaves += from.leaves;
    into.early_terminations += from.early_terminations;
    into.bound_prunes += from.bound_prunes;
    into.maximal_checks += from.maximal_checks;
    into.resplits += from.resplits;
    into.resplit_subtasks += from.resplit_subtasks;
}
