//! Algorithm configuration.
//!
//! Every pruning technique, upper bound, and search order from the paper is
//! an independent toggle so that the evaluation's ablations (BasicEnum,
//! BE+CR, BE+CR+ET, AdvEnum, AdvEnum-O, AdvEnum-P, BasicMax, AdvMax-O,
//! AdvMax-UB, ...) are just configurations of one engine.

use crate::result::KrCore;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Streaming callback invoked once per *confirmed-maximal* core as the
/// enumeration discovers it — the hook a serving layer uses to push
/// incremental result frames instead of buffering the full family.
///
/// The engine only invokes the hook when [`AlgoConfig::maximal_check`] is
/// on: under Theorem 6 every core pushed into the sink is already final,
/// so streaming it early cannot emit a core the finished run would have
/// filtered out. Configurations relying on the naive subset post-filter
/// (NaiveEnum, BasicEnum) ignore the hook — their cores are only known
/// maximal after the run, and callers read them from
/// [`crate::EnumResult::cores`] as before.
#[derive(Clone)]
pub struct CoreHook(Arc<dyn Fn(&KrCore) + Send + Sync>);

impl CoreHook {
    /// Wraps a callback.
    pub fn new(f: impl Fn(&KrCore) + Send + Sync + 'static) -> Self {
        CoreHook(Arc::new(f))
    }

    /// Invokes the callback on one confirmed-maximal core.
    pub fn emit(&self, core: &KrCore) {
        (self.0)(core)
    }
}

impl std::fmt::Debug for CoreHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CoreHook(..)")
    }
}

/// Hooks compare by identity: two configs are equal only when they share
/// the same callback instance (or both have none).
impl PartialEq for CoreHook {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Cooperative cancellation token checked at every search node, next to
/// the node/time budgets. A caller that learns mid-search that the result
/// is no longer wanted (the serving layer's client hung up, a speculative
/// run lost a race) cancels the flag and the engine winds down at the next
/// node, reporting `completed = false` exactly like an exhausted budget.
///
/// The flag is shared: clones observe the same state, so the caller keeps
/// one clone and the engine reads another through the config. Checks
/// are `Relaxed` loads — cancellation needs no ordering with other memory,
/// only eventual visibility, and a relaxed load keeps the per-node cost
/// negligible.
#[derive(Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelFlag::default()
    }

    /// Requests cancellation; every engine sharing this token aborts at
    /// its next search node. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelFlag::cancel`] was called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for CancelFlag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CancelFlag({})", self.is_cancelled())
    }
}

/// Tokens compare by identity, like [`CoreHook`]: two configs are equal
/// only when they share the same flag instance (or both have none).
impl PartialEq for CancelFlag {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Vertex visiting order (Section 7.1's measurements).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SearchOrder {
    /// Seeded pseudo-random choice (ablation baseline).
    Random,
    /// Highest degree in `M ∪ C` first (used by CheckMaximal, Section 7.4).
    Degree,
    /// Largest Δ1 (dissimilar-pair reduction) only.
    Delta1,
    /// Smallest Δ2 (edge reduction) only.
    Delta2,
    /// Largest Δ1, ties broken by smallest Δ2 (AdvEnum, Section 7.3).
    Delta1ThenDelta2,
    /// Largest `λ·Δ1 − Δ2` (AdvMax, Section 7.2). λ lives in
    /// [`AlgoConfig::lambda`].
    LambdaDelta,
}

/// Branch exploration policy for the maximum search (Algorithm 5 lines
/// 7–12). Enumeration explores both branches regardless, so the policy only
/// affects which (k,r)-cores are found *first*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BranchPolicy {
    /// Always expand first (ablation in Figure 11(b)).
    AlwaysExpand,
    /// Always shrink first (ablation in Figure 11(b)).
    AlwaysShrink,
    /// Explore the branch with the higher order score first (AdvMax).
    Adaptive,
}

/// Vertex order inside the maximal-check sub-search (Algorithm 4 /
/// Figure 11(f)). Each value selects the [`SearchOrder`] the search walker
/// uses inside the check; the check always expands first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckOrder {
    /// [`SearchOrder::Degree`] (the paper's choice).
    Degree,
    /// [`SearchOrder::Delta1ThenDelta2`], AdvEnum's order.
    Delta1ThenDelta2,
    /// [`SearchOrder::LambdaDelta`] with [`AlgoConfig::lambda`], AdvMax's
    /// order.
    LambdaDelta,
}

/// Size upper bound used by the maximum algorithm (Section 6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BoundKind {
    /// `|M| + |C|` (BasicMax).
    Naive,
    /// Greedy-coloring bound on the similarity graph.
    Color,
    /// k-core bound on the similarity graph (`kmax + 1`).
    KCore,
    /// `min(Color, KCore)` — the state of the art the paper compares with.
    ColorKCore,
    /// The paper's novel (k,k')-core bound (Algorithm 6, Theorem 7).
    DoubleKCore,
}

/// Full algorithm configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlgoConfig {
    /// Theorem 2 + Theorem 3 candidate pruning. Off only in NaiveEnum.
    pub prune_candidates: bool,
    /// Theorem 4 candidate retention (skip similarity-free vertices; close
    /// the node when `C = SF(C)`).
    pub retain_candidates: bool,
    /// Theorem 5 early termination on the excluded set E.
    pub early_termination: bool,
    /// Theorem 6 maximal check via E (Algorithm 4). When off, enumeration
    /// falls back to the naive pairwise post-filter of Algorithm 1.
    pub maximal_check: bool,
    /// Vertex visiting order.
    pub order: SearchOrder,
    /// Vertex order for the maximal-check sub-search.
    pub check_order: CheckOrder,
    /// Branch policy (maximum search only).
    pub branch: BranchPolicy,
    /// Upper bound for maximum-search pruning.
    pub bound: BoundKind,
    /// λ of the `λ·Δ1 − Δ2` order (the paper tunes λ = 5).
    pub lambda: f64,
    /// Seed for [`SearchOrder::Random`].
    pub seed: u64,
    /// Safety valve: abort the search after this many search nodes
    /// (`None` = unlimited). The harness uses it to emulate the paper's
    /// one-hour INF cutoff.
    pub node_limit: Option<u64>,
    /// Wall-clock budget in milliseconds (`None` = unlimited). Checked at
    /// every search node; the run reports `completed = false` when
    /// exceeded — the harness renders that as the paper's INF.
    pub time_limit_ms: Option<u64>,
    /// Accepted and ignored: preprocessing and the search both run
    /// sequentially. Kept so configurations that set it still build;
    /// default `1`.
    pub threads: usize,
    /// Streaming callback for enumeration: called once per confirmed
    /// maximal core as it is discovered (see [`CoreHook`] for when the
    /// engine honors it). `None` (default) buffers results as usual.
    pub on_core: Option<CoreHook>,
    /// Cooperative cancellation token, checked at every search node next
    /// to the node/time budgets (see [`CancelFlag`]). `None` (default) =
    /// not cancellable.
    pub cancel: Option<CancelFlag>,
}

impl Default for AlgoConfig {
    fn default() -> Self {
        AlgoConfig::adv_enum()
    }
}

impl AlgoConfig {
    /// NaiveEnum: Algorithm 1 + 2, no pruning beyond the initial k-core,
    /// naive maximal post-filter. Exponential — toy graphs only.
    pub fn naive_enum() -> Self {
        AlgoConfig {
            prune_candidates: false,
            retain_candidates: false,
            early_termination: false,
            maximal_check: false,
            order: SearchOrder::Degree,
            check_order: CheckOrder::Degree,
            branch: BranchPolicy::AlwaysExpand,
            bound: BoundKind::Naive,
            lambda: 5.0,
            seed: 0,
            node_limit: None,
            time_limit_ms: None,
            threads: 1,
            on_core: None,
            cancel: None,
        }
    }

    /// BasicEnum: structure + similarity pruning (Thms 2–3) and the best
    /// enumeration order, but no retention / early termination / maximal
    /// check (naive post-filter instead).
    pub fn basic_enum() -> Self {
        AlgoConfig {
            prune_candidates: true,
            order: SearchOrder::Delta1ThenDelta2,
            ..AlgoConfig::naive_enum()
        }
    }

    /// BE+CR of Figure 9: BasicEnum + candidate retention (Theorem 4).
    pub fn be_cr() -> Self {
        AlgoConfig {
            retain_candidates: true,
            ..AlgoConfig::basic_enum()
        }
    }

    /// BE+CR+ET of Figure 9: adds early termination (Theorem 5).
    pub fn be_cr_et() -> Self {
        AlgoConfig {
            early_termination: true,
            ..AlgoConfig::be_cr()
        }
    }

    /// AdvEnum: all enumeration techniques + Δ1-then-Δ2 order.
    pub fn adv_enum() -> Self {
        AlgoConfig {
            maximal_check: true,
            ..AlgoConfig::be_cr_et()
        }
    }

    /// AdvEnum-O of Figure 12: all advanced techniques but degree order.
    pub fn adv_enum_no_order() -> Self {
        AlgoConfig {
            order: SearchOrder::Degree,
            ..AlgoConfig::adv_enum()
        }
    }

    /// AdvEnum-P of Figure 12: best order but no advanced pruning
    /// (candidate retention / early termination / maximal check off).
    pub fn adv_enum_no_pruning() -> Self {
        AlgoConfig::basic_enum()
    }

    /// BasicMax: maximum search with the naive `|M|+|C|` bound and the best
    /// order.
    pub fn basic_max() -> Self {
        AlgoConfig {
            prune_candidates: true,
            retain_candidates: true,
            early_termination: true,
            maximal_check: false,
            order: SearchOrder::LambdaDelta,
            check_order: CheckOrder::Degree,
            branch: BranchPolicy::Adaptive,
            bound: BoundKind::Naive,
            lambda: 5.0,
            seed: 0,
            node_limit: None,
            time_limit_ms: None,
            threads: 1,
            on_core: None,
            cancel: None,
        }
    }

    /// AdvMax: maximum search with the (k,k')-core bound.
    pub fn adv_max() -> Self {
        AlgoConfig {
            bound: BoundKind::DoubleKCore,
            ..AlgoConfig::basic_max()
        }
    }

    /// AdvMax-O of Figure 12: (k,k')-core bound but degree order.
    pub fn adv_max_no_order() -> Self {
        AlgoConfig {
            order: SearchOrder::Degree,
            branch: BranchPolicy::AlwaysExpand,
            ..AlgoConfig::adv_max()
        }
    }

    /// AdvMax-UB of Figure 12: best order but naive bound (alias of
    /// BasicMax).
    pub fn adv_max_no_bound() -> Self {
        AlgoConfig::basic_max()
    }

    /// Builder-style override of the search order.
    pub fn with_order(mut self, order: SearchOrder) -> Self {
        self.order = order;
        self
    }

    /// Builder-style override of the branch policy.
    pub fn with_branch(mut self, branch: BranchPolicy) -> Self {
        self.branch = branch;
        self
    }

    /// Builder-style override of the bound.
    pub fn with_bound(mut self, bound: BoundKind) -> Self {
        self.bound = bound;
        self
    }

    /// Builder-style override of λ.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style override of the node limit.
    pub fn with_node_limit(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Builder-style override of the wall-clock budget (milliseconds).
    pub fn with_time_limit_ms(mut self, ms: u64) -> Self {
        self.time_limit_ms = Some(ms);
        self
    }

    /// Builder-style override of the maximal-check order.
    pub fn with_check_order(mut self, order: CheckOrder) -> Self {
        self.check_order = order;
        self
    }

    /// Builder-style override of [`AlgoConfig::threads`], which nothing
    /// reads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style override of the streaming callback.
    pub fn with_on_core(mut self, hook: CoreHook) -> Self {
        self.on_core = Some(hook);
        self
    }

    /// Builder-style override of the cancellation token.
    pub fn with_cancel(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// The wall-clock deadline of a run starting now. Taken once per run
    /// and shared by all of its components.
    pub(crate) fn deadline(&self) -> Option<std::time::Instant> {
        self.time_limit_ms
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms))
    }

    /// Whether a search that has visited `nodes` nodes must stop: node
    /// limit reached, `deadline` passed, or cancelled.
    pub(crate) fn budget_exceeded(&self, nodes: u64, deadline: Option<std::time::Instant>) -> bool {
        self.node_limit.is_some_and(|limit| nodes >= limit)
            || deadline.is_some_and(|d| std::time::Instant::now() >= d)
            || self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_ladder_is_monotone() {
        let naive = AlgoConfig::naive_enum();
        assert!(!naive.prune_candidates && !naive.retain_candidates);
        let basic = AlgoConfig::basic_enum();
        assert!(basic.prune_candidates && !basic.retain_candidates);
        let cr = AlgoConfig::be_cr();
        assert!(cr.retain_candidates && !cr.early_termination);
        let et = AlgoConfig::be_cr_et();
        assert!(et.early_termination && !et.maximal_check);
        let adv = AlgoConfig::adv_enum();
        assert!(adv.maximal_check);
    }

    #[test]
    fn max_configs() {
        assert_eq!(AlgoConfig::basic_max().bound, BoundKind::Naive);
        assert_eq!(AlgoConfig::adv_max().bound, BoundKind::DoubleKCore);
        assert_eq!(AlgoConfig::adv_max().order, SearchOrder::LambdaDelta);
        assert_eq!(AlgoConfig::adv_max_no_order().order, SearchOrder::Degree);
    }

    #[test]
    fn builders_override() {
        let c = AlgoConfig::adv_max()
            .with_lambda(2.0)
            .with_order(SearchOrder::Degree)
            .with_bound(BoundKind::Color)
            .with_branch(BranchPolicy::AlwaysShrink)
            .with_node_limit(10)
            .with_threads(4);
        assert_eq!(c.threads, 4);
        assert_eq!(c.lambda, 2.0);
        assert_eq!(c.order, SearchOrder::Degree);
        assert_eq!(c.bound, BoundKind::Color);
        assert_eq!(c.branch, BranchPolicy::AlwaysShrink);
        assert_eq!(c.node_limit, Some(10));
    }
}
