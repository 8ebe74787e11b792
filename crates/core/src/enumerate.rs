//! Enumeration of all maximal (k,r)-cores.
//!
//! BasicEnum (+Theorems 2–3), BE+CR (+Theorem 4), BE+CR+ET (+Theorem 5)
//! and AdvEnum (Algorithm 3, +Theorem 6), selected by [`AlgoConfig`]
//! toggles, run on the search walker the maximum search shares; this
//! module supplies the leaf handling. NaiveEnum (Algorithms 1–2) keeps its
//! own exhaustive recursion with whole-set validation.
//!
//! ### Soundness note (disconnected leaves)
//!
//! Leaf solutions `M ∪ C` may be disconnected; each connected piece is a
//! valid (k,r)-core. The Theorem 6 maximal check consults only the
//! excluded set `E`, which is complete *for cores containing all of `M`*
//! (vertices dropped as dissimilar-to-M can never extend such a core). We
//! therefore emit, at a leaf, exactly the pieces containing all of `M`
//! when the maximal check is on; pieces missing part of `M` are reached
//! through their own canonical branch elsewhere in the tree. Configurations
//! without the maximal check emit every piece and rely on the
//! subset post-filter of Algorithm 1.

use crate::component::LocalComponent;
use crate::config::{AlgoConfig, CoreHook};
use crate::maximal::check_maximal_with_order;
use crate::order::FirstBranch;
use crate::problem::ProblemInstance;
use crate::result::{CoreSink, KrCore};
use crate::search::{SearchState, SearchStats, Status};
use crate::walk::{merge_stats, Goal, Walker};
use kr_graph::VertexId;
use std::collections::HashSet;

/// Result of an enumeration run.
#[derive(Debug, Clone)]
pub struct EnumResult {
    /// All maximal (k,r)-cores (global vertex ids, each sorted), sorted
    /// lexicographically.
    pub cores: Vec<KrCore>,
    /// Search statistics summed over components.
    pub stats: SearchStats,
    /// False when the node limit was hit (results incomplete).
    pub completed: bool,
}

impl EnumResult {
    /// Sizes of the cores: `(count, max, average)`.
    pub fn size_summary(&self) -> (usize, usize, f64) {
        let count = self.cores.len();
        let max = self.cores.iter().map(|c| c.len()).max().unwrap_or(0);
        let avg = if count == 0 {
            0.0
        } else {
            self.cores.iter().map(|c| c.len()).sum::<usize>() as f64 / count as f64
        };
        (count, max, avg)
    }
}

/// Enumerates all maximal (k,r)-cores of `problem` under `cfg`.
/// Preprocessing runs on [`AlgoConfig::threads`] workers; the search is
/// sequential.
pub fn enumerate_maximal(problem: &ProblemInstance, cfg: &AlgoConfig) -> EnumResult {
    enumerate_maximal_prepared(&problem.preprocess_parallel(cfg.threads), cfg)
}

/// [`enumerate_maximal`] over components preprocessed earlier (e.g. by
/// [`ProblemInstance::preprocess`] or pulled from a serving-layer cache):
/// Algorithm 1's initial stage is skipped entirely. The components must
/// stem from the same `(k, r)` the query runs with — preprocessing bakes
/// both the k-core peel and the dissimilarity lists into the arena.
pub fn enumerate_maximal_prepared(comps: &[LocalComponent], cfg: &AlgoConfig) -> EnumResult {
    let deadline = cfg.deadline();
    let mut cores = Vec::new();
    let mut stats = SearchStats::default();
    let mut completed = true;
    for comp in comps {
        let mut walker = Walker::new(comp, cfg, deadline, EnumGoal::new(cfg));
        if cfg.prune_candidates {
            walker.run();
        } else {
            walker.naive_rec(&mut SearchState::new(comp));
        }
        // Components are vertex-disjoint: no core repeats across them and
        // none contains another's, so Algorithm 1 lines 6–8's naive
        // maximal post-filter (whenever the Theorem 6 check was off) runs
        // per component.
        let sink = walker.goal.sink;
        cores.extend(if cfg.maximal_check {
            sink.into_cores()
        } else {
            sink.into_maximal()
        });
        merge_stats(&mut stats, walker.stats);
        completed &= !walker.aborted;
    }
    cores.sort_by(|a, b| a.vertices.cmp(&b.vertices));
    EnumResult {
        cores,
        stats,
        completed,
    }
}

/// The enumeration side of the walk: Algorithm 3 (AdvEnum) and its
/// ablations. Every leaf piece goes to the sink, after the Theorem 6
/// maximal check when that is on.
struct EnumGoal<'a> {
    cfg: &'a AlgoConfig,
    sink: CoreSink,
    /// Leaf pieces already resolved (emitted or rejected as non-maximal):
    /// the same piece reappears at many leaves, and its maximality verdict
    /// cannot change — the candidate universe only depends on the piece.
    checked: HashSet<Vec<VertexId>>,
    /// The [`AlgoConfig::on_core`] hook, armed only with the Theorem 6
    /// maximal check, where every pushed core is already final (see
    /// [`CoreHook`]).
    stream: Option<CoreHook>,
}

impl<'a> EnumGoal<'a> {
    fn new(cfg: &'a AlgoConfig) -> Self {
        EnumGoal {
            cfg,
            sink: CoreSink::new(),
            checked: HashSet::new(),
            stream: cfg.on_core.clone().filter(|_| cfg.maximal_check),
        }
    }

    /// Pushes into the dedup sink; a *new* core is also streamed when the
    /// hook is armed.
    fn push_core(&mut self, core: KrCore) {
        match &self.stream {
            Some(hook) => {
                if self.sink.push(core.clone()) {
                    hook.emit(&core);
                }
            }
            None => {
                self.sink.push(core);
            }
        }
    }
}

impl Goal for EnumGoal<'_> {
    fn is_leaf(&self, st: &SearchState<'_>) -> bool {
        if self.cfg.retain_candidates {
            st.all_candidates_similarity_free()
        } else {
            st.sizes().1 == 0
        }
    }

    /// Emits the connected pieces of the leaf `M ∪ C` (Theorem 4 leaves
    /// are fully similarity-free, so every piece is a (k,r)-core).
    fn leaf(&mut self, st: &SearchState<'_>, stats: &mut SearchStats) {
        let comp = st.comp;
        let pieces = st.mc_components();
        let (n_m, _, _) = st.sizes();
        for piece in &pieces {
            if piece.len() <= comp.k as usize {
                continue; // cannot satisfy deg >= k (defensive; invariant implies it)
            }
            if !self.cfg.maximal_check {
                self.push_core(KrCore::new(comp.globalize(piece)));
                continue;
            }
            // Sound only for pieces containing all of M (see module docs);
            // other pieces are found on their own branches.
            let m_inside = piece
                .iter()
                .filter(|&&v| st.status(v) == Status::Chosen)
                .count() as u32;
            if m_inside != n_m || self.checked.contains(piece) {
                continue; // not all of M, or verdict known from an earlier leaf
            }
            self.checked.insert(piece.clone());
            let mut candidates = st.members(Status::Excluded);
            // Co-leaf vertices outside this piece can also extend it.
            for other in &pieces {
                if other.as_slice() != piece.as_slice() {
                    candidates.extend_from_slice(other);
                }
            }
            stats.maximal_checks += 1;
            if check_maximal_with_order(
                comp,
                comp.k,
                piece,
                &candidates,
                self.cfg.check_order,
                self.cfg.lambda,
            ) {
                self.push_core(KrCore::new(comp.globalize(piece)));
            }
        }
    }

    fn include_sf(&self) -> bool {
        !self.cfg.retain_candidates
    }

    fn expand_first(&self, _preferred: FirstBranch) -> bool {
        true
    }
}

impl<'a> Walker<'a, EnumGoal<'a>> {
    /// Algorithm 2 (NaiveEnum): exhaustive expand/shrink with whole-set
    /// validation. Runs whole components only; it has no safe split points.
    fn naive_rec(&mut self, st: &mut SearchState<'a>) {
        if !self.enter() {
            return;
        }
        let (_, n_c, _) = st.sizes();
        if n_c == 0 {
            self.stats.leaves += 1;
            self.emit_naive(st);
            return;
        }
        // Any candidate works for the naive tree; take the lowest id.
        let u = (0..self.comp.len() as VertexId)
            .find(|&v| st.status(v) == Status::Cand)
            .expect("candidate exists");
        let m = st.mark();
        st.expand_naive(u);
        self.naive_rec(st);
        st.rollback(m);
        st.shrink_naive(u);
        self.naive_rec(st);
        st.rollback(m);
    }

    /// Algorithm 2 line 1: accept M only when the *whole* chosen set
    /// satisfies both constraints, then split into connected pieces.
    fn emit_naive(&mut self, st: &SearchState<'a>) {
        let m_members = st.members(Status::Chosen);
        if m_members.is_empty() {
            return;
        }
        let in_m: Vec<bool> = {
            let mut v = vec![false; self.comp.len()];
            for &u in &m_members {
                v[u as usize] = true;
            }
            v
        };
        // degmin(M) >= k.
        for &u in &m_members {
            let d = self
                .comp
                .neighbors(u)
                .iter()
                .filter(|&&w| in_m[w as usize])
                .count() as u32;
            if d < self.comp.k {
                return;
            }
        }
        // DP(M) = 0.
        for &u in &m_members {
            if self.comp.any_dissimilar_where(u, |w| in_m[w as usize]) {
                return;
            }
        }
        for piece in components_of(self.comp, &m_members) {
            self.goal
                .push_core(KrCore::new(self.comp.globalize(&piece)));
        }
    }
}

/// Connected pieces of a vertex subset (local ids).
fn components_of(comp: &LocalComponent, subset: &[VertexId]) -> Vec<Vec<VertexId>> {
    let mut in_set = vec![false; comp.len()];
    for &v in subset {
        in_set[v as usize] = true;
    }
    let mut seen = vec![false; comp.len()];
    let mut out = Vec::new();
    for &s in subset {
        if seen[s as usize] {
            continue;
        }
        let mut piece = Vec::new();
        let mut stack = vec![s];
        seen[s as usize] = true;
        while let Some(v) = stack.pop() {
            piece.push(v);
            for &w in comp.neighbors(v) {
                if in_set[w as usize] && !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        piece.sort_unstable();
        out.push(piece);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kr_graph::Graph;
    use kr_similarity::{AttributeTable, Metric, Threshold};

    /// The motivating shape: two 4-cliques sharing vertex 3, left clique
    /// near the origin, right clique far away, vertex 3 in the middle but
    /// within range of both.
    fn bridged_cliques(r: f64) -> ProblemInstance {
        let mut edges = vec![];
        for group in [[0u32, 1, 2, 3], [3u32, 4, 5, 6]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((group[i], group[j]));
                }
            }
        }
        let g = Graph::from_edges(7, &edges);
        let pts = vec![
            (0.0, 0.0),
            (1.0, 0.0),
            (0.0, 1.0),
            (5.0, 0.0), // shared vertex, close enough to both sides
            (10.0, 0.0),
            (11.0, 0.0),
            (10.0, 1.0),
        ];
        ProblemInstance::new(
            g,
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(r),
            2,
        )
    }

    fn all_configs() -> Vec<(&'static str, AlgoConfig)> {
        vec![
            ("naive", AlgoConfig::naive_enum()),
            ("basic", AlgoConfig::basic_enum()),
            ("be_cr", AlgoConfig::be_cr()),
            ("be_cr_et", AlgoConfig::be_cr_et()),
            ("adv", AlgoConfig::adv_enum()),
        ]
    }

    #[test]
    fn two_overlapping_cores_found_by_all_configs() {
        // r = 7: each clique is internally similar (left diameter ~1.4 plus
        // vertex 3 at distance ~5; right likewise), but cross-side pairs
        // (distance ~10) are dissimilar.
        let p = bridged_cliques(7.0);
        for (name, cfg) in all_configs() {
            let res = enumerate_maximal(&p, &cfg);
            assert!(res.completed);
            assert_eq!(res.cores.len(), 2, "{name}: {:?}", res.cores);
            assert!(res.cores.contains(&KrCore::new(vec![0, 1, 2, 3])), "{name}");
            assert!(res.cores.contains(&KrCore::new(vec![3, 4, 5, 6])), "{name}");
        }
    }

    #[test]
    fn single_core_when_r_large() {
        let p = bridged_cliques(100.0);
        for (name, cfg) in all_configs() {
            let res = enumerate_maximal(&p, &cfg);
            assert_eq!(res.cores.len(), 1, "{name}");
            assert_eq!(res.cores[0].len(), 7, "{name}");
        }
    }

    #[test]
    fn nothing_when_r_tiny() {
        let p = bridged_cliques(0.5);
        for (name, cfg) in all_configs() {
            let res = enumerate_maximal(&p, &cfg);
            // Every 4-clique loses its bridge vertex... with r=0.5 even the
            // near triangle (distances 1, 1, ~1.4) is dissimilar: no cores.
            assert!(res.cores.is_empty(), "{name}: {:?}", res.cores);
        }
    }

    #[test]
    fn verified_against_definitions() {
        let p = bridged_cliques(7.0);
        let res = enumerate_maximal(&p, &AlgoConfig::adv_enum());
        crate::verify::verify_maximal_family(&p, &res.cores).unwrap();
        for c in &res.cores {
            assert!(crate::verify::is_maximal_kr_core(&p, c));
        }
    }

    #[test]
    fn node_limit_aborts() {
        let p = bridged_cliques(7.0);
        let cfg = AlgoConfig::naive_enum().with_node_limit(3);
        let res = enumerate_maximal(&p, &cfg);
        assert!(!res.completed);
    }

    #[test]
    fn pre_cancelled_flag_aborts_immediately() {
        let p = bridged_cliques(7.0);
        for (name, cfg) in all_configs() {
            let flag = crate::config::CancelFlag::new();
            flag.cancel();
            let res = enumerate_maximal(&p, &cfg.with_cancel(flag));
            assert!(!res.completed, "{name}");
        }
    }

    #[test]
    fn cancel_from_streaming_hook_stops_the_sweep() {
        // The serving layer's abort path in miniature: the hook observes
        // the first streamed core and cancels; the run must end incomplete
        // without streaming the second core.
        let p = bridged_cliques(7.0);
        let flag = crate::config::CancelFlag::new();
        let streamed = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (f, tap) = (flag.clone(), streamed.clone());
        let cfg =
            AlgoConfig::adv_enum()
                .with_cancel(flag)
                .with_on_core(crate::config::CoreHook::new(move |_: &KrCore| {
                    tap.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    f.cancel();
                }));
        let res = enumerate_maximal(&p, &cfg);
        assert!(!res.completed);
        assert_eq!(streamed.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn prepared_matches_and_streams_each_core_once() {
        let p = bridged_cliques(7.0);
        let comps = p.preprocess();
        let streamed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let tap = streamed.clone();
        let cfg =
            AlgoConfig::adv_enum().with_on_core(crate::config::CoreHook::new(move |c: &KrCore| {
                tap.lock().unwrap().push(c.clone())
            }));
        let res = enumerate_maximal_prepared(&comps, &cfg);
        assert_eq!(
            res.cores,
            enumerate_maximal(&p, &AlgoConfig::adv_enum()).cores
        );
        let mut streamed = streamed.lock().unwrap().clone();
        streamed.sort_by(|a, b| a.vertices.cmp(&b.vertices));
        assert_eq!(streamed, res.cores, "hook must fire once per core");
    }

    #[test]
    fn hook_ignored_without_maximal_check() {
        // BasicEnum's cores are only known maximal after the subset
        // post-filter, so the hook must stay silent.
        let p = bridged_cliques(7.0);
        let count = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let tap = count.clone();
        let cfg = AlgoConfig::basic_enum().with_on_core(crate::config::CoreHook::new(
            move |_: &KrCore| {
                tap.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            },
        ));
        let res = enumerate_maximal(&p, &cfg);
        assert_eq!(res.cores.len(), 2);
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn size_summary() {
        let p = bridged_cliques(7.0);
        let res = enumerate_maximal(&p, &AlgoConfig::adv_enum());
        let (count, max, avg) = res.size_summary();
        assert_eq!(count, 2);
        assert_eq!(max, 4);
        assert!((avg - 4.0).abs() < 1e-9);
    }
}
