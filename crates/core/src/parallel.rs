//! Work-stealing parallel engine for the (k,r)-core searches.
//!
//! Both searches walk a binary expand/shrink tree per
//! [`crate::component::LocalComponent`]. A parallel query starts as **one
//! root task per component** on a rayon work-stealing pool; donation then
//! spreads each tree over the workers:
//!
//! 1. **Root tasks**: task `ci` runs the ordinary sequential driver over
//!    component `ci` from its root (empty decision prefix).
//! 2. **Donation**: a running task driver polls a `DonationHost` at node
//!    entry; when the pool has room (per [`Resplit`]) the driver
//!    *donates* the shallowest not-yet-taken sibling branches of its
//!    current DFS path as fresh tasks — shallowest first, since those
//!    subtrees are the largest — and skips them inline on unwind. A donee
//!    replays its decision prefix on a fresh
//!    [`crate::search::SearchState`] (linear in the prefix length, with
//!    the same node-entry promotions the donor applied) and runs the
//!    ordinary recursive search below it. Only the prefix's **final**
//!    decision may fail structurally: it is the one branch the donor never
//!    attempted itself, and an infeasible sibling is an empty subtree.
//! 3. **Merge**: task results are combined in deterministic DFS order.
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
use crate::enumerate::{merge_stats, Driver, EnumResult};
use crate::maximum::{MaxDriver, MaxResult};
use crate::problem::ProblemInstance;
use crate::result::{CoreSink, KrCore};
use crate::search::{Decision, SearchStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves the config knob: `0` = all available cores.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        rayon::current_num_threads()
    } else {
        threads
    }
}

fn make_pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
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

/// A pending second branch on a running task driver's DFS path: the
/// donation currency of re-splitting.
pub(crate) struct DonationSlot {
    /// Length of the driver's decision path at the branch node (the
    /// sibling's prefix is `path[..depth]` plus `sibling`).
    pub(crate) depth: usize,
    /// The branch the driver has not yet taken at that node.
    pub(crate) sibling: Decision,
    /// Task id the sibling was donated as, if any; the driver then skips
    /// the branch inline on unwind (maximum search records a
    /// [`MergeEvent::Child`] marker there instead).
    pub(crate) donated: Option<u64>,
}

/// Surface through which a running task driver re-splits (implemented per
/// engine so donated tasks can be spawned onto the live scope).
pub(crate) trait DonationHost {
    /// How many fresh tasks the pool could absorb right now. Zero
    /// means the pool is busy and donation would only add replay
    /// overhead.
    fn wanted(&self) -> usize;
    /// Spawns `prefix` as a fresh task and returns its task id.
    /// `start_incumbent` is the donor's best size at donation time
    /// (ignored by enumeration).
    fn donate(&self, prefix: Vec<Decision>, start_incumbent: usize) -> u64;
}

/// Starvation signal and task-id allocator shared by every task of one
/// parallel query (root and donated alike).
pub(crate) struct ResplitShared {
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

/// Node-entry re-split check shared by both task drivers: donate the
/// shallowest pending siblings of the current DFS path while the host
/// still wants tasks. Shallowest first — those subtrees are the largest,
/// so one donation feeds an idle worker for longest.
pub(crate) fn maybe_donate(
    host: Option<&dyn DonationHost>,
    path: &[Decision],
    slots: &mut [DonationSlot],
    start_incumbent: usize,
    stats: &mut SearchStats,
) {
    let Some(host) = host else { return };
    let mut want = host.wanted();
    if want == 0 {
        return;
    }
    let mut donated = 0u64;
    for slot in slots.iter_mut() {
        if want == 0 {
            break;
        }
        if slot.donated.is_some() {
            continue;
        }
        let mut prefix = path[..slot.depth].to_vec();
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

/// One DFS-ordered event recorded by a parallel maximum-search task
/// driver, folded by the merge phase (see the module docs).
#[derive(Debug, Clone)]
pub(crate) enum MergeEvent {
    /// A leaf piece that improved the task's local incumbent.
    Found {
        /// Size of the piece.
        size: usize,
        /// Members (component-local ids).
        piece: Vec<kr_graph::VertexId>,
    },
    /// Point where a pending sibling branch was donated as the named
    /// task; the child task's events splice in here — exactly where the
    /// donor would have walked that subtree.
    Child(u64),
}

/// Parallel [`crate::enumerate_maximal`]. Requires `cfg.prune_candidates`
/// (callers dispatch NaiveEnum to the sequential engine). One pool serves
/// the whole query: the preprocessing phases and the search tasks.
pub(crate) fn enumerate_parallel(problem: &ProblemInstance, cfg: &AlgoConfig) -> EnumResult {
    let threads = resolve_threads(cfg.threads);
    let pool = make_pool(threads);
    let comps = problem.preprocess_on(&pool);
    enumerate_on(&comps, cfg, &pool)
}

/// [`enumerate_parallel`] over already-preprocessed components (the
/// serving layer's cache-hit path); builds the query's pool itself.
pub(crate) fn enumerate_parallel_prepared(
    comps: &[LocalComponent],
    cfg: &AlgoConfig,
) -> EnumResult {
    let pool = make_pool(resolve_threads(cfg.threads));
    enumerate_on(comps, cfg, &pool)
}

/// Everything an enumeration task needs, bundled copyably so donated
/// tasks can be spawned recursively from inside a running one.
#[derive(Clone, Copy)]
struct EnumCtx<'env> {
    comps: &'env [LocalComponent],
    cfg: &'env AlgoConfig,
    deadline: Option<std::time::Instant>,
    shared: &'env ResplitShared,
    results: &'env Mutex<Vec<(CoreSink, SearchStats, bool)>>,
    spawner: std::thread::ThreadId,
}

/// Spawns one enumeration task (root or donated) onto the scope.
fn spawn_enum_task<'scope, 'env: 'scope>(
    s: &rayon::Scope<'scope>,
    ctx: EnumCtx<'env>,
    ci: usize,
    prefix: Vec<Decision>,
) {
    ctx.shared.task_spawned();
    crate::obs::engine_obs().pool_tasks.inc();
    s.spawn(move |s| {
        if std::thread::current().id() != ctx.spawner {
            crate::obs::engine_obs().pool_tasks_stolen.inc();
        }
        let host = EnumHost { s, ctx, ci };
        let mut driver = Driver::new(&ctx.comps[ci], ctx.cfg, ctx.deadline).with_host(&host);
        driver.run(&prefix);
        ctx.results
            .lock()
            .expect("results lock")
            .push((driver.sink, driver.stats, driver.aborted));
        ctx.shared.task_finished();
    });
}

struct EnumHost<'a, 'scope, 'env> {
    s: &'a rayon::Scope<'scope>,
    ctx: EnumCtx<'env>,
    ci: usize,
}

impl<'a, 'scope, 'env: 'scope> DonationHost for EnumHost<'a, 'scope, 'env> {
    fn wanted(&self) -> usize {
        self.ctx.shared.wanted()
    }

    fn donate(&self, prefix: Vec<Decision>, _start_incumbent: usize) -> u64 {
        let tid = self.ctx.shared.next_tid();
        spawn_enum_task(self.s, self.ctx, self.ci, prefix);
        tid
    }
}

pub(crate) fn enumerate_on(
    comps: &[LocalComponent],
    cfg: &AlgoConfig,
    pool: &rayon::ThreadPool,
) -> EnumResult {
    // One root task per component; a running task that sees the pool
    // starving donates pending sibling branches of its DFS path onto the
    // same scope (per `cfg.resplit`).
    let shared = ResplitShared::new(comps.len(), pool.current_num_threads(), cfg.resplit);
    let results: Mutex<Vec<(CoreSink, SearchStats, bool)>> = Mutex::new(Vec::new());
    {
        let ctx = EnumCtx {
            comps,
            cfg,
            deadline: cfg.deadline(),
            shared: &shared,
            results: &results,
            spawner: std::thread::current().id(),
        };
        pool.scope(|s| {
            for ci in 0..comps.len() {
                spawn_enum_task(s, ctx, ci, Vec::new());
            }
        });
    }

    // Merge. Cross-task duplicates are possible (the same leaf piece is
    // reachable in several subtrees); the sink dedups them. With the
    // maximal check on, every deduplicated core is final, so this is also
    // where a streaming hook fires — exactly once per core.
    let stream = if cfg.maximal_check {
        cfg.on_core.clone()
    } else {
        None
    };
    let push = |sink: &mut CoreSink, core: KrCore| match &stream {
        Some(hook) => {
            if sink.push(core.clone()) {
                hook.emit(&core);
            }
        }
        None => {
            sink.push(core);
        }
    };
    let mut stats = SearchStats::default();
    let mut completed = true;
    let mut sink = CoreSink::new();
    for (task_sink, task_stats, aborted) in results.into_inner().expect("results lock") {
        for core in task_sink.into_cores() {
            push(&mut sink, core);
        }
        merge_stats(&mut stats, task_stats);
        completed &= !aborted;
    }
    let mut cores = if cfg.maximal_check {
        sink.into_cores()
    } else {
        sink.into_maximal()
    };
    cores.sort_by(|a, b| a.vertices.cmp(&b.vertices));
    EnumResult {
        cores,
        stats,
        completed,
    }
}

/// Parallel [`crate::find_maximum`] (see the module docs for the
/// equivalence argument). One pool serves the whole query.
pub(crate) fn find_maximum_parallel(problem: &ProblemInstance, cfg: &AlgoConfig) -> MaxResult {
    let threads = resolve_threads(cfg.threads);
    let pool = make_pool(threads);
    let comps = problem.preprocess_on(&pool);
    find_maximum_on(&comps, cfg, &pool)
}

/// [`find_maximum_parallel`] over already-preprocessed components (the
/// serving layer's cache-hit path); builds the query's pool itself.
pub(crate) fn find_maximum_parallel_prepared(
    comps: &[LocalComponent],
    cfg: &AlgoConfig,
) -> MaxResult {
    let pool = make_pool(resolve_threads(cfg.threads));
    find_maximum_on(comps, cfg, &pool)
}

pub(crate) fn find_maximum_on(
    comps: &[LocalComponent],
    cfg: &AlgoConfig,
    pool: &rayon::ThreadPool,
) -> MaxResult {
    // One root task per component (task id = component index, start
    // incumbent 0), sharing the incumbent through an atomic. Every task —
    // root or donated — deposits its DFS-ordered events under its task id.
    let shared = ResplitShared::new(comps.len(), pool.current_num_threads(), cfg.resplit);
    let outcomes: Mutex<HashMap<u64, MaxTaskOutcome>> = Mutex::new(HashMap::new());
    let global = AtomicUsize::new(0);
    {
        let ctx = MaxCtx {
            comps,
            cfg,
            deadline: cfg.deadline(),
            shared: &shared,
            outcomes: &outcomes,
            global: &global,
            spawner: std::thread::current().id(),
        };
        pool.scope(|s| {
            for ci in 0..comps.len() {
                spawn_max_task(s, ctx, ci as u64, ci, Vec::new(), 0);
            }
        });
    }
    let mut outcomes = outcomes.into_inner().expect("outcomes lock");

    // Merge in component order with a carried incumbent; `fold_task`
    // splices each donated task in at its `Child` marker, so the fold sees
    // finds in sequential DFS order.
    let mut stats = SearchStats::default();
    let mut completed = true;
    let mut best: Option<KrCore> = None;
    let mut incumbent = 0usize;
    for ci in 0..comps.len() {
        fold_task(
            ci as u64,
            ci,
            comps,
            &mut outcomes,
            &mut incumbent,
            &mut best,
            &mut stats,
            &mut completed,
        );
    }
    debug_assert!(
        outcomes.is_empty(),
        "every donated task is reachable from a root task's events"
    );
    MaxResult {
        core: best,
        stats,
        completed,
    }
}

/// Result of one maximum-search task (root or donated).
struct MaxTaskOutcome {
    events: Vec<MergeEvent>,
    stats: SearchStats,
    aborted: bool,
}

/// Everything a maximum-search task needs, bundled copyably so donated
/// tasks can be spawned recursively from inside a running one.
#[derive(Clone, Copy)]
struct MaxCtx<'env> {
    comps: &'env [LocalComponent],
    cfg: &'env AlgoConfig,
    deadline: Option<std::time::Instant>,
    shared: &'env ResplitShared,
    outcomes: &'env Mutex<HashMap<u64, MaxTaskOutcome>>,
    global: &'env AtomicUsize,
    spawner: std::thread::ThreadId,
}

/// Spawns one maximum-search task (root or donated) onto the scope.
fn spawn_max_task<'scope, 'env: 'scope>(
    s: &rayon::Scope<'scope>,
    ctx: MaxCtx<'env>,
    tid: u64,
    ci: usize,
    prefix: Vec<Decision>,
    start_incumbent: usize,
) {
    ctx.shared.task_spawned();
    crate::obs::engine_obs().pool_tasks.inc();
    s.spawn(move |s| {
        if std::thread::current().id() != ctx.spawner {
            crate::obs::engine_obs().pool_tasks_stolen.inc();
        }
        let host = MaxHost { s, ctx, ci };
        let mut driver = MaxDriver::new(
            &ctx.comps[ci],
            ctx.cfg,
            ctx.deadline,
            start_incumbent,
            Some(ctx.global),
        )
        .with_host(&host);
        driver.run(&prefix);
        let outcome = MaxTaskOutcome {
            events: driver.events,
            stats: driver.stats,
            aborted: driver.aborted,
        };
        ctx.outcomes
            .lock()
            .expect("outcomes lock")
            .insert(tid, outcome);
        ctx.shared.task_finished();
    });
}

struct MaxHost<'a, 'scope, 'env> {
    s: &'a rayon::Scope<'scope>,
    ctx: MaxCtx<'env>,
    ci: usize,
}

impl<'a, 'scope, 'env: 'scope> DonationHost for MaxHost<'a, 'scope, 'env> {
    fn wanted(&self) -> usize {
        self.ctx.shared.wanted()
    }

    fn donate(&self, prefix: Vec<Decision>, start_incumbent: usize) -> u64 {
        let tid = self.ctx.shared.next_tid();
        spawn_max_task(self.s, self.ctx, tid, self.ci, prefix, start_incumbent);
        tid
    }
}

/// Folds one task's DFS-ordered events into the carried incumbent,
/// recursing into donated children at their `Child` markers.
#[allow(clippy::too_many_arguments)]
fn fold_task(
    tid: u64,
    ci: usize,
    comps: &[LocalComponent],
    outcomes: &mut HashMap<u64, MaxTaskOutcome>,
    incumbent: &mut usize,
    best: &mut Option<KrCore>,
    stats: &mut SearchStats,
    completed: &mut bool,
) {
    let outcome = outcomes.remove(&tid).expect("each task merged once");
    merge_stats(stats, outcome.stats);
    *completed &= !outcome.aborted;
    for event in outcome.events {
        match event {
            MergeEvent::Found { size, piece } => {
                if size > *incumbent && !piece.is_empty() {
                    *incumbent = size;
                    *best = Some(KrCore::new(comps[ci].globalize(&piece)));
                }
            }
            MergeEvent::Child(child) => {
                fold_task(
                    child, ci, comps, outcomes, incumbent, best, stats, completed,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_maximal;
    use crate::maximum::find_maximum;
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
