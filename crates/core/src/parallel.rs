//! Work-stealing parallel engine for the (k,r)-core searches.
//!
//! Both searches run on **one walker and one task engine**: the walker is
//! the crate's single expand/shrink recursion (the private `walk` module),
//! generic over the algorithm's goal, and this module runs it as tasks
//! the same way for enumeration and for the maximum. A parallel query
//! starts as **one root task per component** on a rayon work-stealing
//! pool; donation then spreads each tree over the workers:
//!
//! 1. **Root tasks**: task `ci` walks component `ci` from its root (empty
//!    decision prefix), exactly as the sequential run does.
//! 2. **Donation**: a task's walker polls the engine at node entry; when
//!    the pool has room (per [`Resplit`]) it *donates* the shallowest
//!    not-yet-taken sibling branches of its current DFS path as fresh
//!    tasks — shallowest first, since those subtrees are the largest — and
//!    skips them inline on unwind. A donee replays its decision prefix on
//!    a fresh [`crate::search::SearchState`] (linear in the prefix length,
//!    with the same node-entry promotions the donor applied) and walks on
//!    below it. Only the prefix's **final** decision may fail
//!    structurally: it is the one branch the donor never attempted itself,
//!    and an infeasible sibling is an empty subtree.
//! 3. **Merge**: every task leaves its outcome under its task id, and the
//!    results are combined per algorithm.
//!
//! Enumeration merges by sink union, which is traversal-independent.
//! Maximum search tasks record DFS-ordered `MergeEvent`s — improving finds
//! plus a `Child` marker where each sibling was donated — and the merge
//! folds each root task in component order, recursively splicing a
//! donated child in at its marker: the fold visits finds in exactly the
//! sequential DFS order, so the carried incumbent selects the identical
//! winner.
//!
//! ### Result equivalence with the sequential engine
//!
//! *Enumeration* emits a set of cores that is a function of the problem
//! alone (every maximal core is found on every traversal order), so
//! concatenating task sinks, deduplicating, and sorting reproduces the
//! sequential output exactly.
//!
//! *Maximum search* prunes with an incumbent, so naive sharing would
//! change which of several equally-sized maximum cores survives. Two rules
//! keep the returned core identical to the sequential run's:
//!
//! * a task prunes with `ub <= incumbent` only against its **local**
//!   incumbent: 0 for a root task, the donor's best size at donation time
//!   for a donated one. Both are DFS-prefix subsets of what the sequential
//!   run knows at that node, so a task can only under-prune (never skip
//!   the true winner); the fold's carried incumbent discards any extra
//!   sub-incumbent finds that weaker pruning lets through;
//! * the cross-worker [`AtomicUsize`] incumbent — the engine's speed
//!   lever — is only consulted **strictly** (`ub < global`). A strict cut
//!   can never prune the subtree holding the DFS-first core of the final
//!   maximum size `S`: that subtree's bound is at least `S`, and the
//!   global incumbent never exceeds `S`.
//!
//! Hence a later component's equal-size core, even when found first,
//! never displaces the earlier component's core the sequential run keeps.
//! (With [`SearchOrder::Random`] the chooser RNG stream differs between
//! the two engines, so tie-breaking — and only tie-breaking — may differ;
//! all shipped parallel presets use deterministic orders.)
//!
//! [`SearchOrder::Random`]: crate::config::SearchOrder::Random

use crate::component::LocalComponent;
use crate::config::{AlgoConfig, Resplit};
use crate::enumerate::{merge_walks, EnumGoal, EnumResult};
use crate::maximum::{MaxGoal, MaxResult};
use crate::result::KrCore;
use crate::search::{Decision, SearchStats};
use crate::walk::{merge_stats, DonationHost, Goal, Outcome, Walker};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Whether a search under `cfg` runs on this engine. Node-limited runs
/// stay sequential: a per-worker node budget would change what "limit
/// reached" means and break result equivalence.
pub(crate) fn eligible(cfg: &AlgoConfig) -> bool {
    cfg.threads != 1 && cfg.node_limit.is_none()
}

/// The pool of one parallel query: it serves the preprocessing phases
/// and the search tasks alike. `threads == 0` means all available cores,
/// as rayon reads it.
pub(crate) fn query_pool(cfg: &AlgoConfig) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.threads)
        .build()
        .expect("thread pool")
}

/// Runs `f` over `items` on `pool`'s workers, returning the outputs in
/// item order. The association between an item and its output is by
/// index, so callers never correlate results positionally themselves.
pub(crate) fn ordered_pool_map<'env, T, U, F>(
    pool: &rayon::ThreadPool,
    items: &'env [T],
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&'env T) -> U + Sync,
{
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let obs = crate::obs::engine_obs();
    obs.pool_tasks.add(items.len() as u64);
    // The spawning thread runs `pool.scope`'s body itself; a task that
    // executes on any other thread crossed the pool's stealing deques.
    let spawner = std::thread::current().id();
    pool.scope(|s| {
        for (item, slot) in items.iter().zip(&slots) {
            let f = &f;
            s.spawn(move |_| {
                if std::thread::current().id() != spawner {
                    crate::obs::engine_obs().pool_tasks_stolen.inc();
                }
                *slot.lock().expect("slot lock") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("worker completed")
        })
        .collect()
}

/// Starvation signal and task-id allocator shared by every task of one
/// parallel query (root and donated alike).
struct ResplitShared {
    /// Tasks spawned and not yet finished.
    live: AtomicUsize,
    workers: usize,
    /// Next task id; root task `ci` owns id `ci`, donations allocate from
    /// the component count upward.
    next_tid: AtomicUsize,
    mode: Resplit,
}

impl ResplitShared {
    fn new(components: usize, workers: usize, mode: Resplit) -> Self {
        ResplitShared {
            live: AtomicUsize::new(0),
            workers,
            next_tid: AtomicUsize::new(components),
            mode,
        }
    }

    fn task_spawned(&self) {
        self.live.fetch_add(1, Ordering::SeqCst);
    }

    fn task_finished(&self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }

    fn wanted(&self) -> usize {
        match self.mode {
            Resplit::Forced => 1,
            // Fewer live tasks than workers ⇒ at least that many workers
            // have nothing left to steal.
            Resplit::Adaptive => self
                .workers
                .saturating_sub(self.live.load(Ordering::Relaxed)),
        }
    }

    fn next_tid(&self) -> u64 {
        self.next_tid.fetch_add(1, Ordering::Relaxed) as u64
    }
}

/// One DFS-ordered event recorded by a maximum-search walk, folded by the
/// merge phase (see the module docs).
#[derive(Debug, Clone)]
pub(crate) enum MergeEvent {
    /// A leaf piece (component-local ids) that improved the walk's
    /// incumbent.
    Found(Vec<kr_graph::VertexId>),
    /// Point where a pending sibling branch was donated as the named
    /// task; the child task's events splice in here — exactly where the
    /// donor would have walked that subtree.
    Child(u64),
}

/// Everything a task needs, bundled copyably so donated tasks can be
/// spawned recursively from inside a running one. `goal` makes a task's
/// goal from the incumbent size it starts with.
struct Ctx<'env, G, F> {
    comps: &'env [LocalComponent],
    cfg: &'env AlgoConfig,
    deadline: Option<std::time::Instant>,
    shared: &'env ResplitShared,
    outcomes: &'env Mutex<HashMap<u64, Outcome<G>>>,
    goal: &'env F,
    spawner: std::thread::ThreadId,
}

impl<G, F> Clone for Ctx<'_, G, F> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<G, F> Copy for Ctx<'_, G, F> {}

/// Spawns one task (root or donated) onto the scope: a walk of component
/// `ci` below `prefix`, whose outcome is kept under task id `tid`.
fn spawn_task<'scope, 'env: 'scope, G, F>(
    s: &rayon::Scope<'scope>,
    ctx: Ctx<'env, G, F>,
    tid: u64,
    ci: usize,
    prefix: Vec<Decision>,
    start_incumbent: usize,
) where
    G: Goal + Send + 'env,
    F: Fn(usize) -> G + Sync,
{
    ctx.shared.task_spawned();
    crate::obs::engine_obs().pool_tasks.inc();
    s.spawn(move |s| {
        if std::thread::current().id() != ctx.spawner {
            crate::obs::engine_obs().pool_tasks_stolen.inc();
        }
        let host = Host { s, ctx, ci };
        let goal = (ctx.goal)(start_incumbent);
        let mut walker = Walker::new(&ctx.comps[ci], ctx.cfg, ctx.deadline, goal).with_host(&host);
        walker.run(&prefix);
        ctx.outcomes
            .lock()
            .expect("outcomes lock")
            .insert(tid, walker.outcome());
        ctx.shared.task_finished();
    });
}

/// The engine's side of one running task: where its walker's donations
/// are spawned.
struct Host<'a, 'scope, 'env, G, F> {
    s: &'a rayon::Scope<'scope>,
    ctx: Ctx<'env, G, F>,
    ci: usize,
}

impl<'scope, 'env: 'scope, G, F> DonationHost for Host<'_, 'scope, 'env, G, F>
where
    G: Goal + Send + 'env,
    F: Fn(usize) -> G + Sync,
{
    fn wanted(&self) -> usize {
        self.ctx.shared.wanted()
    }

    fn donate(&self, prefix: Vec<Decision>, start_incumbent: usize) -> u64 {
        let tid = self.ctx.shared.next_tid();
        spawn_task(self.s, self.ctx, tid, self.ci, prefix, start_incumbent);
        tid
    }
}

/// Runs one root task per component on `pool` (task id = component
/// index, start incumbent 0), plus every task they donate, and returns
/// each task's outcome by task id.
fn run_tasks<G, F>(
    comps: &[LocalComponent],
    cfg: &AlgoConfig,
    pool: &rayon::ThreadPool,
    goal: F,
) -> HashMap<u64, Outcome<G>>
where
    G: Goal + Send,
    F: Fn(usize) -> G + Sync,
{
    let shared = ResplitShared::new(comps.len(), pool.current_num_threads(), cfg.resplit);
    let outcomes = Mutex::new(HashMap::new());
    let ctx = Ctx {
        comps,
        cfg,
        deadline: cfg.deadline(),
        shared: &shared,
        outcomes: &outcomes,
        goal: &goal,
        spawner: std::thread::current().id(),
    };
    pool.scope(|s| {
        for ci in 0..comps.len() {
            spawn_task(s, ctx, ci as u64, ci, Vec::new(), 0);
        }
    });
    outcomes.into_inner().expect("outcomes lock")
}

/// Parallel [`crate::enumerate_maximal`]. Requires `cfg.prune_candidates`
/// (callers dispatch NaiveEnum to the sequential engine).
pub(crate) fn enumerate_on(
    comps: &[LocalComponent],
    cfg: &AlgoConfig,
    pool: &rayon::ThreadPool,
) -> EnumResult {
    let outcomes = run_tasks(comps, cfg, pool, |_| EnumGoal::new(cfg, false));
    // Cross-task duplicates are possible (the same leaf piece is reachable
    // in several subtrees); the merge dedups them. With the maximal check
    // on, every deduplicated core is final, so this is also where a
    // streaming hook fires — exactly once per core.
    merge_walks(cfg, outcomes.into_values(), true)
}

/// Parallel [`crate::find_maximum`] (see the module docs for the
/// equivalence argument).
pub(crate) fn find_maximum_on(
    comps: &[LocalComponent],
    cfg: &AlgoConfig,
    pool: &rayon::ThreadPool,
) -> MaxResult {
    // Every task shares the incumbent size through an atomic.
    let global = AtomicUsize::new(0);
    let mut outcomes = run_tasks(comps, cfg, pool, |start| {
        MaxGoal::new(cfg, start, Some(&global))
    });

    // Merge in component order with a carried incumbent; `fold_task`
    // splices each donated task in at its `Child` marker, so the fold sees
    // finds in sequential DFS order.
    let mut merged = Fold {
        comps,
        outcomes: &mut outcomes,
        incumbent: 0,
        best: None,
        stats: SearchStats::default(),
        completed: true,
    };
    for ci in 0..comps.len() {
        merged.fold_task(ci as u64, ci);
    }
    debug_assert!(
        merged.outcomes.is_empty(),
        "every donated task is reachable from a root task's events"
    );
    MaxResult {
        core: merged.best,
        stats: merged.stats,
        completed: merged.completed,
    }
}

/// The maximum merge's carried state.
struct Fold<'a, 'g> {
    comps: &'a [LocalComponent],
    outcomes: &'a mut HashMap<u64, Outcome<MaxGoal<'g>>>,
    incumbent: usize,
    best: Option<KrCore>,
    stats: SearchStats,
    completed: bool,
}

impl Fold<'_, '_> {
    /// Folds one task's DFS-ordered events into the carried incumbent,
    /// recursing into donated children at their `Child` markers.
    fn fold_task(&mut self, tid: u64, ci: usize) {
        let outcome = self.outcomes.remove(&tid).expect("each task merged once");
        merge_stats(&mut self.stats, outcome.stats);
        self.completed &= !outcome.aborted;
        for event in outcome.goal.events {
            match event {
                MergeEvent::Found(piece) => {
                    if piece.len() > self.incumbent {
                        self.incumbent = piece.len();
                        self.best = Some(KrCore::new(self.comps[ci].globalize(&piece)));
                    }
                }
                MergeEvent::Child(child) => self.fold_task(child, ci),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_maximal;
    use crate::maximum::find_maximum;
    use crate::problem::ProblemInstance;
    use kr_graph::Graph;
    use kr_similarity::{AttributeTable, Metric, Threshold};

    /// Three bridged cliques, mixed similarity (same shape the sequential
    /// engines are tested on).
    fn instance(r: f64) -> ProblemInstance {
        let mut edges = vec![];
        for group in [[0u32, 1, 2, 3], [3u32, 4, 5, 6], [3u32, 7, 8, 9]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((group[i], group[j]));
                }
            }
        }
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

    #[test]
    fn parallel_enum_identical_to_sequential() {
        for r in [0.5, 7.0, 9.0, 100.0] {
            let p = instance(r);
            let seq = enumerate_maximal(&p, &AlgoConfig::adv_enum());
            for threads in [2, 4, 8] {
                let par =
                    enumerate_maximal(&p, &AlgoConfig::adv_enum_parallel().with_threads(threads));
                assert!(par.completed);
                assert_eq!(par.cores, seq.cores, "r={r} threads={threads}");
            }
        }
    }

    /// Two disjoint, mutually dissimilar 6-cliques, each holding one
    /// dissimilar pair: four maximum cores of size 5, two per component.
    /// Root tasks start both components at incumbent 0, so the second
    /// component may publish size 5 first; the merge must still return
    /// the first component's core, as the sequential run does.
    fn twin_cliques() -> ProblemInstance {
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
        ProblemInstance::new(
            Graph::from_edges(12, &edges),
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(2.0),
            2,
        )
    }

    #[test]
    fn parallel_max_identical_to_sequential() {
        let twins = twin_cliques();
        let mut inputs: Vec<(String, ProblemInstance)> = [0.5, 7.0, 9.0, 100.0]
            .into_iter()
            .map(|r| (format!("r={r}"), instance(r)))
            .collect();
        inputs.push(("twin cliques".into(), twins.clone()));
        for (name, p) in &inputs {
            let seq = find_maximum(p, &AlgoConfig::adv_max());
            for threads in [2, 4, 8] {
                for resplit in [Resplit::Adaptive, Resplit::Forced] {
                    let cfg = AlgoConfig::adv_max_parallel()
                        .with_threads(threads)
                        .with_resplit(resplit);
                    let par = find_maximum(p, &cfg);
                    assert!(par.completed);
                    assert_eq!(
                        par.core.as_ref().map(|c| &c.vertices),
                        seq.core.as_ref().map(|c| &c.vertices),
                        "{name} threads={threads} {resplit:?}"
                    );
                }
            }
        }

        let comps = twins.preprocess();
        assert_eq!(comps.len(), 2);
        let first: Vec<_> = (0..comps[0].len() as kr_graph::VertexId).collect();
        let first = comps[0].globalize(&first);
        let seq = find_maximum(&twins, &AlgoConfig::adv_max()).core.unwrap();
        assert_eq!(seq.len(), 5);
        assert!(seq.vertices.iter().all(|v| first.contains(v)));
    }

    #[test]
    fn thread_knob_one_uses_sequential_engine() {
        let p = instance(7.0);
        let cfg = AlgoConfig::adv_enum_parallel().with_threads(1);
        // threads == 1 must route to the sequential engine and still agree.
        let a = enumerate_maximal(&p, &cfg);
        let b = enumerate_maximal(&p, &AlgoConfig::adv_enum());
        assert_eq!(a.cores, b.cores);
    }

    #[test]
    fn parallel_prepared_matches_and_streams() {
        let p = instance(7.0);
        let comps = p.preprocess();
        let seq = enumerate_maximal(&p, &AlgoConfig::adv_enum());
        let streamed = std::sync::Arc::new(Mutex::new(Vec::new()));
        let tap = streamed.clone();
        let cfg = AlgoConfig::adv_enum_parallel()
            .with_threads(4)
            .with_on_core(crate::config::CoreHook::new(
                move |c: &crate::result::KrCore| tap.lock().unwrap().push(c.clone()),
            ));
        let par = crate::enumerate_maximal_prepared(&comps, &cfg);
        assert_eq!(par.cores, seq.cores);
        let mut streamed = streamed.lock().unwrap().clone();
        streamed.sort_by(|a, b| a.vertices.cmp(&b.vertices));
        assert_eq!(streamed, seq.cores, "merge phase streams each core once");

        let max_seq = find_maximum(&p, &AlgoConfig::adv_max());
        let max_par =
            crate::find_maximum_prepared(&comps, &AlgoConfig::adv_max_parallel().with_threads(4));
        assert_eq!(
            max_par.core.as_ref().map(|c| &c.vertices),
            max_seq.core.as_ref().map(|c| &c.vertices),
        );
    }

    #[test]
    fn basic_enum_parallel_matches_without_maximal_check() {
        // No Theorem 6 check: the parallel merge must fall back to the
        // global subset post-filter and still agree with sequential.
        let p = instance(7.0);
        let seq = enumerate_maximal(&p, &AlgoConfig::basic_enum());
        let par = enumerate_maximal(&p, &AlgoConfig::basic_enum().with_threads(4));
        assert_eq!(par.cores, seq.cores);
    }
}
