//! Shared branch-and-prune search state.
//!
//! The enumeration (Algorithm 3) and maximum (Algorithm 5) searches both
//! walk the binary expand/shrink tree of Figure 2 over a
//! [`LocalComponent`]. This module maintains the node state — the sets
//! `M` (chosen), `C` (candidates), `E` (relevant excluded) of Table 1 —
//! with all the counters the pruning rules need, mutated through a trail of
//! status transitions so backtracking is O(changes).
//!
//! Counters per vertex (all maintained for every vertex regardless of its
//! own status):
//!
//! * `deg_mc[v]` — neighbors of `v` inside `M ∪ C` (structure pruning,
//!   Theorem 2; the degree invariant Eq. 2);
//! * `deg_m[v]`  — neighbors inside `M` (early termination, Theorem 5);
//! * `dp_c[v]`   — dissimilar partners inside `C` (`DP(v, C)`; similarity
//!   free sets of Theorems 4–5);
//! * `dp_e[v]`   — dissimilar partners inside `E` (`SF_{C∪E}(E)` of
//!   Theorem 5(ii)).
//!
//! Invariants after every cascade (checked by `debug_assert_invariants`):
//! Eq. 1 `DP(u, M∪C) = 0` for `u ∈ M`, Eq. 2 `degmin(M∪C) ≥ k` (unless the
//! node failed), and every `E` member similar to all of `M`.

use crate::component::LocalComponent;
use kr_graph::VertexId;

/// Where a vertex currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Removed and irrelevant for maximality (dissimilar to some `M`
    /// member).
    Gone,
    /// Candidate set `C`.
    Cand,
    /// Chosen set `M`.
    Chosen,
    /// Relevant excluded set `E` (removed but similar to all of `M`).
    Excluded,
}

/// Search statistics, reported by both algorithms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search-tree nodes visited.
    pub nodes: u64,
    /// Leaves reached (candidate solutions inspected).
    pub leaves: u64,
    /// Subtrees cut by early termination (Theorem 5).
    pub early_terminations: u64,
    /// Subtrees cut by the size upper bound (maximum search).
    pub bound_prunes: u64,
    /// Maximal checks performed (Theorem 6).
    pub maximal_checks: u64,
    /// Row words and stored entries the vertex chooser's first-hop
    /// counts read ([`crate::order::Chooser::estimator_visits`]): the
    /// §7 estimator's work, deterministic for a given search (the
    /// maximal checks' own searches are not counted).
    pub estimator_visits: u64,
    /// Always 0: the search is sequential and never splits. Kept only
    /// until the benchmark package stops reading it for its
    /// `parallel.resplits` metric.
    pub resplits: u64,
}

/// Mutable search-node state over one component.
pub struct SearchState<'a> {
    /// The arena.
    pub comp: &'a LocalComponent,
    /// Degree threshold.
    pub k: u32,
    status: Vec<Status>,
    deg_mc: Vec<u32>,
    deg_m: Vec<u32>,
    dp_c: Vec<u32>,
    dp_e: Vec<u32>,
    n_m: u32,
    n_c: u32,
    n_e: u32,
    /// `Σ_{v ∈ C} dp_c[v]` = `2 · DP(C)`.
    sum_dp_c: u64,
    /// `Σ_{v ∈ M∪C} deg_mc[v]` = `2 · |E(M ∪ C)|`.
    sum_deg_mc: u64,
    /// Number of `C` vertices with `dp_c = 0` (i.e. `|SF(C)|`).
    sf_count: u32,
    trail: Vec<(VertexId, Status)>,
    /// Worklist for structure cascades (drained inside expand/shrink).
    pending: Vec<VertexId>,
    /// Set when an `M` vertex fell below degree `k` (branch dead).
    failed: bool,
}

impl<'a> SearchState<'a> {
    /// Fresh root state: everything in `C`.
    pub fn new(comp: &'a LocalComponent) -> Self {
        let n = comp.len();
        let deg_mc: Vec<u32> = (0..n as VertexId).map(|v| comp.degree(v) as u32).collect();
        let dp_c: Vec<u32> = (0..n as VertexId)
            .map(|v| comp.dissimilar_count(v) as u32)
            .collect();
        let sum_deg_mc = deg_mc.iter().map(|&d| d as u64).sum();
        let sum_dp_c = dp_c.iter().map(|&d| d as u64).sum();
        let sf_count = dp_c.iter().filter(|&&d| d == 0).count() as u32;
        SearchState {
            comp,
            k: comp.k,
            status: vec![Status::Cand; n],
            deg_mc,
            deg_m: vec![0; n],
            dp_c,
            dp_e: vec![0; n],
            n_m: 0,
            n_c: n as u32,
            n_e: 0,
            sum_dp_c,
            sum_deg_mc,
            sf_count,
            trail: Vec::with_capacity(n * 2),
            pending: Vec::new(),
            failed: false,
        }
    }

    /// A node state below the root: `M = chosen`, `C = cands`, every
    /// other vertex `Gone` and `E` empty — the maximal check's start
    /// (Algorithm 4). The counters come from the rows of `chosen ∪ cands`
    /// only. `cands` must be similar to every `chosen` vertex (Eq. 1).
    pub(crate) fn seeded(
        comp: &'a LocalComponent,
        k: u32,
        chosen: &[VertexId],
        cands: &[VertexId],
    ) -> Self {
        let n = comp.len();
        let mut st = SearchState {
            comp,
            k,
            status: vec![Status::Gone; n],
            deg_mc: vec![0; n],
            deg_m: vec![0; n],
            dp_c: vec![0; n],
            dp_e: vec![0; n],
            n_m: 0,
            n_c: 0,
            n_e: 0,
            sum_dp_c: 0,
            sum_deg_mc: 0,
            sf_count: 0,
            trail: Vec::new(),
            pending: Vec::new(),
            failed: false,
        };
        for &v in chosen {
            st.apply_transition(v, Status::Gone, Status::Chosen, false);
        }
        for &v in cands {
            st.apply_transition(v, Status::Gone, Status::Cand, false);
        }
        st
    }

    /// Current status of `v`.
    #[inline]
    pub fn status(&self, v: VertexId) -> Status {
        self.status[v as usize]
    }

    /// `deg(v, M ∪ C)`.
    #[inline]
    pub fn deg_mc(&self, v: VertexId) -> u32 {
        self.deg_mc[v as usize]
    }

    /// `deg(v, M)`.
    #[inline]
    pub fn deg_m(&self, v: VertexId) -> u32 {
        self.deg_m[v as usize]
    }

    /// `DP(v, C)`.
    #[inline]
    pub fn dp_c(&self, v: VertexId) -> u32 {
        self.dp_c[v as usize]
    }

    /// `DP(v, E)`.
    #[inline]
    pub fn dp_e(&self, v: VertexId) -> u32 {
        self.dp_e[v as usize]
    }

    /// `|M|`, `|C|`, `|E|`.
    pub fn sizes(&self) -> (u32, u32, u32) {
        (self.n_m, self.n_c, self.n_e)
    }

    /// `|M| + |C|` — the naive size upper bound.
    #[inline]
    pub fn mc_len(&self) -> u32 {
        self.n_m + self.n_c
    }

    /// Number of dissimilar pairs inside `C` (`DP(C)`).
    #[inline]
    pub fn dp_c_total(&self) -> u64 {
        self.sum_dp_c / 2
    }

    /// Number of edges inside `M ∪ C`.
    #[inline]
    pub fn edges_mc(&self) -> u64 {
        self.sum_deg_mc / 2
    }

    /// `|SF(C)|` — candidates similar to all other candidates.
    #[inline]
    pub fn sf_count(&self) -> u32 {
        self.sf_count
    }

    /// True when `C = SF(C)` (Theorem 4 leaf: `M ∪ C` is pairwise similar).
    #[inline]
    pub fn all_candidates_similarity_free(&self) -> bool {
        self.sf_count == self.n_c
    }

    /// Did the last cascade kill an `M` vertex?
    #[inline]
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Members of a given status, sorted.
    pub fn members(&self, s: Status) -> Vec<VertexId> {
        (0..self.comp.len() as VertexId)
            .filter(|&v| self.status[v as usize] == s)
            .collect()
    }

    /// Trail mark for later rollback.
    #[inline]
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Rolls the state back to a previous [`mark`](Self::mark).
    pub fn rollback(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (v, old) = self.trail.pop().expect("trail underflow");
            let cur = self.status[v as usize];
            self.apply_transition(v, cur, old, false);
        }
        self.failed = false;
        self.pending.clear();
    }

    /// Status transition with full counter maintenance. `record` pushes the
    /// inverse onto the trail (false during rollback).
    fn apply_transition(&mut self, v: VertexId, from: Status, to: Status, record: bool) {
        debug_assert_eq!(self.status[v as usize], from);
        if from == to {
            return;
        }
        if record {
            self.trail.push((v, from));
        }
        let vi = v as usize;
        let was_mc = matches!(from, Status::Chosen | Status::Cand);
        let is_mc = matches!(to, Status::Chosen | Status::Cand);
        let was_m = from == Status::Chosen;
        let is_m = to == Status::Chosen;
        let was_c = from == Status::Cand;
        let is_c = to == Status::Cand;
        let was_e = from == Status::Excluded;
        let is_e = to == Status::Excluded;

        // --- v's own aggregate membership (uses v's counters, which do not
        // change here: they count *other* vertices). ---
        if was_c {
            self.n_c -= 1;
            self.sum_dp_c -= self.dp_c[vi] as u64;
            if self.dp_c[vi] == 0 {
                self.sf_count -= 1;
            }
        }
        if is_c {
            self.n_c += 1;
            self.sum_dp_c += self.dp_c[vi] as u64;
            if self.dp_c[vi] == 0 {
                self.sf_count += 1;
            }
        }
        if was_m {
            self.n_m -= 1;
        }
        if is_m {
            self.n_m += 1;
        }
        if was_e {
            self.n_e -= 1;
        }
        if is_e {
            self.n_e += 1;
        }
        if was_mc && !is_mc {
            self.sum_deg_mc -= self.deg_mc[vi] as u64;
        }
        if !was_mc && is_mc {
            self.sum_deg_mc += self.deg_mc[vi] as u64;
        }

        self.status[vi] = to;

        // The arena outlives `self`'s mutable borrow: copy the `&'a`
        // reference out so the CSR slices can be walked while counters
        // mutate.
        let comp = self.comp;

        // --- adjacency-side counters of neighbors. ---
        if was_mc != is_mc || was_m != is_m {
            let delta_mc: i32 = (is_mc as i32) - (was_mc as i32);
            let delta_m: i32 = (is_m as i32) - (was_m as i32);
            for &w in comp.neighbors(v) {
                let wi = w as usize;
                if delta_mc != 0 {
                    let nd = (self.deg_mc[wi] as i32 + delta_mc) as u32;
                    self.deg_mc[wi] = nd;
                    if matches!(self.status[wi], Status::Chosen | Status::Cand) {
                        self.sum_deg_mc = (self.sum_deg_mc as i64 + delta_mc as i64) as u64;
                        // Structure-pruning trigger (only meaningful while
                        // cascading; harmless otherwise).
                        if delta_mc < 0 && nd < self.k {
                            self.pending.push(w);
                        }
                    }
                }
                if delta_m != 0 {
                    self.deg_m[wi] = (self.deg_m[wi] as i32 + delta_m) as u32;
                }
            }
        }
        // --- dissimilarity-side counters of partners. ---
        if was_c != is_c || was_e != is_e {
            let delta_c: i32 = (is_c as i32) - (was_c as i32);
            let delta_e: i32 = (is_e as i32) - (was_e as i32);
            comp.for_each_dissimilar(v, |w| {
                let wi = w as usize;
                if delta_c != 0 {
                    let nd = (self.dp_c[wi] as i32 + delta_c) as u32;
                    self.dp_c[wi] = nd;
                    if self.status[wi] == Status::Cand {
                        self.sum_dp_c = (self.sum_dp_c as i64 + delta_c as i64) as u64;
                        if delta_c < 0 && nd == 0 {
                            self.sf_count += 1;
                        } else if delta_c > 0 && nd == 1 {
                            self.sf_count -= 1;
                        }
                    }
                }
                if delta_e != 0 {
                    self.dp_e[wi] = (self.dp_e[wi] as i32 + delta_e) as u32;
                }
            });
        }
    }

    /// Records and applies a transition (public for the enumeration
    /// drivers; cascading variants below are what algorithms normally use).
    pub fn set_status(&mut self, v: VertexId, to: Status) {
        let from = self.status[v as usize];
        self.apply_transition(v, from, to, true);
    }

    /// Expand branch with Theorems 2–3 pruning: move `u` from `C` to `M`,
    /// evict candidates and excluded vertices dissimilar to `u`
    /// (Theorem 3 / the E-set invariant), then run the structure cascade
    /// (Theorem 2). Returns `false` (and sets `failed`) if some `M` vertex
    /// lost the structure constraint — the caller must roll back.
    pub fn expand(&mut self, u: VertexId) -> bool {
        debug_assert_eq!(self.status[u as usize], Status::Cand);
        self.pending.clear();
        self.failed = false;
        self.set_status(u, Status::Chosen);
        // Similarity eviction of dissimilar partners (the walk borrows
        // the arena, not `self`).
        let comp = self.comp;
        comp.for_each_dissimilar(u, |w| match self.status[w as usize] {
            Status::Cand | Status::Excluded => self.set_status(w, Status::Gone),
            _ => {}
        });
        self.structure_cascade()
    }

    /// Expand without any pruning (NaiveEnum).
    pub fn expand_naive(&mut self, u: VertexId) {
        debug_assert_eq!(self.status[u as usize], Status::Cand);
        self.set_status(u, Status::Chosen);
    }

    /// Shrink branch: move `u` from `C` to `E` (it is similar to all of `M`
    /// by the similarity invariant), then run the structure cascade.
    pub fn shrink(&mut self, u: VertexId) -> bool {
        debug_assert_eq!(self.status[u as usize], Status::Cand);
        self.pending.clear();
        self.failed = false;
        self.set_status(u, Status::Excluded);
        self.structure_cascade()
    }

    /// Shrink without pruning or E-tracking (NaiveEnum).
    pub fn shrink_naive(&mut self, u: VertexId) {
        debug_assert_eq!(self.status[u as usize], Status::Cand);
        self.set_status(u, Status::Gone);
    }

    /// Theorem 2 cascade: recursively move `C` vertices with
    /// `deg(·, M∪C) < k` to `E` (they stay similar to `M`); fail the branch
    /// if an `M` vertex drops below `k`.
    fn structure_cascade(&mut self) -> bool {
        while let Some(v) = self.pending.pop() {
            let vi = v as usize;
            if self.deg_mc[vi] >= self.k {
                continue; // stale entry
            }
            match self.status[vi] {
                Status::Cand => self.set_status(v, Status::Excluded),
                Status::Chosen => {
                    self.failed = true;
                    self.pending.clear();
                    return false;
                }
                _ => {}
            }
        }
        // Also catch vertices that were already below k before this branch
        // move (possible at the root when the component is exactly a
        // k-core: nothing to do; but after restoring from deep rollbacks the
        // pending queue is empty, so scan nothing). The cascade above is
        // complete because every degree drop pushes to `pending`.
        debug_assert!(self.pending.is_empty());
        true
    }

    /// Runs an initial structure cascade at the root (useful when the
    /// component was built with a smaller k than the query, e.g. in tests).
    pub fn prune_root(&mut self) -> bool {
        self.pending.clear();
        self.failed = false;
        for v in 0..self.comp.len() as VertexId {
            if self.status[v as usize] == Status::Cand && self.deg_mc[v as usize] < self.k {
                self.pending.push(v);
            }
        }
        self.structure_cascade()
    }

    /// Checks Eq. 1 / Eq. 2 and E-set invariants (debug builds only).
    pub fn debug_assert_invariants(&self) {
        if cfg!(debug_assertions) && !self.failed {
            for v in 0..self.comp.len() as VertexId {
                let vi = v as usize;
                let st = self.status[vi];
                // Recompute counters from scratch.
                let deg_mc = self
                    .comp
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| matches!(self.status[w as usize], Status::Chosen | Status::Cand))
                    .count() as u32;
                assert_eq!(deg_mc, self.deg_mc[vi], "deg_mc mismatch at {v}");
                let mut dp_c = 0u32;
                self.comp.for_each_dissimilar(v, |w| {
                    if self.status[w as usize] == Status::Cand {
                        dp_c += 1;
                    }
                });
                assert_eq!(dp_c, self.dp_c[vi], "dp_c mismatch at {v}");
                if st == Status::Chosen {
                    // Similarity invariant Eq. 1.
                    let mut dp_mc = 0usize;
                    self.comp.for_each_dissimilar(v, |w| {
                        if matches!(self.status[w as usize], Status::Chosen | Status::Cand) {
                            dp_mc += 1;
                        }
                    });
                    assert_eq!(dp_mc, 0, "Eq.1 violated at {v}");
                }
                if st == Status::Excluded {
                    // E members similar to all of M.
                    let mut dp_m = 0usize;
                    self.comp.for_each_dissimilar(v, |w| {
                        if self.status[w as usize] == Status::Chosen {
                            dp_m += 1;
                        }
                    });
                    assert_eq!(dp_m, 0, "E-invariant violated at {v}");
                }
                if matches!(st, Status::Chosen | Status::Cand) {
                    // Degree invariant Eq. 2.
                    assert!(self.deg_mc[vi] >= self.k, "Eq.2 violated at {v}");
                }
            }
        }
    }

    /// Connected components of the current `M ∪ C` (local ids, sorted
    /// inside each component).
    pub fn mc_components(&self) -> Vec<Vec<VertexId>> {
        let n = self.comp.len();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        let mut stack = Vec::new();
        for s in 0..n {
            if seen[s] || !matches!(self.status[s], Status::Chosen | Status::Cand) {
                continue;
            }
            let mut comp = Vec::new();
            seen[s] = true;
            stack.push(s as VertexId);
            while let Some(v) = stack.pop() {
                comp.push(v);
                for &w in self.comp.neighbors(v) {
                    let wi = w as usize;
                    if !seen[wi] && matches!(self.status[wi], Status::Chosen | Status::Cand) {
                        seen[wi] = true;
                        stack.push(w);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::LocalComponent;

    /// 4-clique (0-3) plus vertex 4 adjacent to 2,3; 4 dissimilar to 0.
    fn fixture() -> LocalComponent {
        LocalComponent::from_parts(
            vec![
                vec![1, 2, 3],
                vec![0, 2, 3],
                vec![0, 1, 3, 4],
                vec![0, 1, 2, 4],
                vec![2, 3],
            ],
            vec![vec![4], vec![], vec![], vec![], vec![0]],
            2,
        )
    }

    #[test]
    fn root_counters() {
        let comp = fixture();
        let st = SearchState::new(&comp);
        assert_eq!(st.sizes(), (0, 5, 0));
        assert_eq!(st.edges_mc(), 8);
        assert_eq!(st.dp_c_total(), 1);
        assert_eq!(st.sf_count(), 3);
        assert!(!st.all_candidates_similarity_free());
        st.debug_assert_invariants();
    }

    #[test]
    fn expand_evicts_dissimilar() {
        let comp = fixture();
        let mut st = SearchState::new(&comp);
        let m = st.mark();
        assert!(st.expand(0));
        // 4 is dissimilar to 0 -> Gone; degrees of 2,3 drop to 3 (>= 2).
        assert_eq!(st.status(4), Status::Gone);
        assert_eq!(st.status(0), Status::Chosen);
        assert_eq!(st.sizes(), (1, 3, 0));
        assert_eq!(st.dp_c_total(), 0);
        assert!(st.all_candidates_similarity_free());
        st.debug_assert_invariants();
        st.rollback(m);
        assert_eq!(st.sizes(), (0, 5, 0));
        assert_eq!(st.status(4), Status::Cand);
        assert_eq!(st.dp_c_total(), 1);
        assert_eq!(st.sf_count(), 3);
        st.debug_assert_invariants();
    }

    #[test]
    fn shrink_moves_to_excluded_and_cascades() {
        let comp = fixture();
        let mut st = SearchState::new(&comp);
        let m = st.mark();
        // Shrinking 2 drops 4 to degree 1 < 2 -> cascaded into E.
        assert!(st.shrink(2));
        assert_eq!(st.status(2), Status::Excluded);
        assert_eq!(st.status(4), Status::Excluded);
        assert_eq!(st.sizes(), (0, 3, 2));
        st.debug_assert_invariants();
        st.rollback(m);
        assert_eq!(st.sizes(), (0, 5, 0));
    }

    #[test]
    fn m_vertex_failure_detected() {
        // Triangle with k = 2: expanding all of it then shrinking a member
        // is impossible; instead simulate by choosing 0 into M and removing
        // both its neighbors.
        let comp = LocalComponent::from_parts(
            vec![vec![1, 2], vec![0, 2], vec![0, 1]],
            vec![vec![], vec![], vec![]],
            2,
        );
        let mut st = SearchState::new(&comp);
        assert!(st.expand(0));
        let m = st.mark();
        // Shrinking 1: drops 0 and 2 to degree 1 < 2 -> M-vertex 0 dies.
        assert!(!st.shrink(1));
        assert!(st.failed());
        st.rollback(m);
        assert!(!st.failed());
        st.debug_assert_invariants();
        assert_eq!(st.sizes(), (1, 2, 0));
    }

    #[test]
    fn expand_evicts_excluded_dissimilar_to_new_m() {
        let comp = fixture();
        let mut st = SearchState::new(&comp);
        // Push 4 into E by shrinking 2 (cascade), then expand 0: 4 must go
        // from E to Gone since dissimilar to 0.
        assert!(st.shrink(2));
        assert_eq!(st.status(4), Status::Excluded);
        assert!(st.expand(0));
        assert_eq!(st.status(4), Status::Gone);
        st.debug_assert_invariants();
    }

    #[test]
    fn mc_components_splits() {
        // Two triangles, no connecting edges.
        let comp = LocalComponent::from_parts(
            vec![
                vec![1, 2],
                vec![0, 2],
                vec![0, 1],
                vec![4, 5],
                vec![3, 5],
                vec![3, 4],
            ],
            vec![vec![]; 6],
            2,
        );
        let st = SearchState::new(&comp);
        let comps = st.mc_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert_eq!(comps[1], vec![3, 4, 5]);
    }

    #[test]
    fn naive_ops_do_not_cascade() {
        let comp = fixture();
        let mut st = SearchState::new(&comp);
        st.expand_naive(0);
        // No eviction in naive mode.
        assert_eq!(st.status(4), Status::Cand);
        st.shrink_naive(4);
        assert_eq!(st.status(4), Status::Gone);
        assert_eq!(st.sizes(), (1, 3, 0));
    }

    #[test]
    fn deep_rollback_restores_root() {
        let comp = fixture();
        let mut st = SearchState::new(&comp);
        let root = st.mark();
        assert!(st.expand(2));
        assert!(st.expand(3));
        let _ = st.shrink(0);
        st.rollback(root);
        assert_eq!(st.sizes(), (0, 5, 0));
        assert_eq!(st.edges_mc(), 8);
        assert_eq!(st.dp_c_total(), 1);
        assert_eq!(st.sf_count(), 3);
        st.debug_assert_invariants();
    }
}
