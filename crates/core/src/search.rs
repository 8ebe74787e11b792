//! Shared branch-and-prune search state.
//!
//! The enumeration (Algorithm 3) and maximum (Algorithm 5) searches both
//! walk the binary expand/shrink tree of Figure 2 over a
//! [`LocalComponent`]. This module maintains the node state — the sets
//! `M` (chosen), `C` (candidates), `E` (relevant excluded) of Table 1 —
//! and the numbers the pruning rules read, per vertex:
//!
//! * `deg_mc[v]` — neighbors of `v` inside `M ∪ C` (structure pruning,
//!   Theorem 2; the degree invariant Eq. 2);
//! * `deg_m[v]`  — neighbors inside `M` (early termination, Theorem 5);
//! * `dp_c[v]`   — dissimilar partners inside `C` (`DP(v, C)`; similarity
//!   free sets of Theorems 4–5);
//! * `dp_e[v]`   — dissimilar partners inside `E` (`SF_{C∪E}(E)` of
//!   Theorem 5(ii)).
//!
//! The state has two layouts, picked when it is built from the
//! component's size alone:
//!
//! * **One word** (at most `WORD_MAX_N` = 64 vertices): `M`, `C` and `E`
//!   are `u64` masks, and each vertex has one adjacency row word and one
//!   dissimilar row word (the complement of its similar bit row in the
//!   component's view). Every number above is a popcount of a row word
//!   against a mask, a branch is a few mask updates, and
//!   [`mark`](SearchState::mark) / [`rollback`](SearchState::rollback)
//!   save and restore the three masks.
//! * **Counters** (larger components): the numbers are stored for every
//!   vertex regardless of its own status and updated along its rows at
//!   each status transition, recorded on a trail so backtracking is
//!   O(changes).
//!
//! The kernels that read the state in bulk (the vertex chooser, Remark 1
//! promotion, early termination, the enumeration leaf and the maximal
//! check, the peeling bounds) have a body per layout, the word one
//! reached through `SearchState::words`. Both compute the same integers,
//! so every search decision and every [`SearchStats`] counter is the same
//! in both.
//!
//! Invariants after every cascade (checked by `debug_assert_invariants`):
//! Eq. 1 `DP(u, M∪C) = 0` for `u ∈ M`, Eq. 2 `degmin(M∪C) ≥ k` (unless the
//! node failed), and every `E` member similar to all of `M`.

use crate::component::LocalComponent;
use kr_graph::VertexId;
use std::borrow::Cow;

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

/// Largest component whose search state is one-word masks.
pub(crate) const WORD_MAX_N: usize = 64;

#[cfg(test)]
thread_local! {
    /// Set by the layout tests to run the counter layout, their
    /// reference, on components the word layout would take.
    pub(crate) static COUNTERS_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the search over a component of `n` vertices runs on one-word
/// masks.
#[inline]
pub(crate) fn uses_words(n: usize) -> bool {
    #[cfg(test)]
    if COUNTERS_ONLY.with(|c| c.get()) {
        return false;
    }
    n <= WORD_MAX_N
}

/// The vertices of a mask, ascending.
#[inline]
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = VertexId> + Clone {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let v = mask.trailing_zeros();
            mask &= mask - 1;
            v
        })
    })
}

/// The mask of a vertex list (every id below 64).
pub(crate) fn mask_of(vertices: &[VertexId]) -> u64 {
    vertices.iter().fold(0, |m, &v| m | 1 << v)
}

/// The largest subset of `set` whose members each have at least `k`
/// neighbors in `base` and the subset, over one-word `[adjacency,
/// dissimilar]` rows: the structural k-core peel of the (k,k')-core
/// bound, the maximal check's pre-filter and early termination's
/// condition (ii).
pub(crate) fn kcore_within(rows: &[[u64; 2]], k: u32, base: u64, mut set: u64) -> u64 {
    loop {
        let live = base | set;
        let low = bits(set)
            .filter(|&v| (rows[v as usize][0] & live).count_ones() < k)
            .fold(0u64, |acc, v| acc | 1 << v);
        if low == 0 {
            return set;
        }
        set &= !low;
    }
}

/// The connected pieces of `subset` in `comp`, in the order of their
/// first vertex in `subset`, each sorted.
pub(crate) fn pieces_of(comp: &LocalComponent, subset: &[VertexId]) -> Vec<Vec<VertexId>> {
    // A vertex is left until its piece reaches it.
    let mut left = vec![false; comp.len()];
    for &v in subset {
        left[v as usize] = true;
    }
    let mut out = Vec::new();
    for &s in subset {
        if !std::mem::take(&mut left[s as usize]) {
            continue;
        }
        // Breadth first, the piece itself the queue.
        let mut piece = vec![s];
        let mut at = 0;
        while let Some(&v) = piece.get(at) {
            at += 1;
            for &w in comp.neighbors(v) {
                if std::mem::take(&mut left[w as usize]) {
                    piece.push(w);
                }
            }
        }
        piece.sort_unstable();
        out.push(piece);
    }
    out
}

/// Mutable search-node state over one component.
pub struct SearchState<'a> {
    /// The arena.
    pub comp: &'a LocalComponent,
    /// Degree threshold.
    pub k: u32,
    layout: Layout<'a>,
    /// Set when an `M` vertex fell below degree `k` (branch dead).
    failed: bool,
}

enum Layout<'a> {
    Words(Words<'a>),
    Counters(Counters),
}

/// The one-word layout: `M`, `C`, `E` as masks over at most 64 vertices.
pub(crate) struct Words<'a> {
    /// `[adjacency, dissimilar]` row words per vertex; a maximal check
    /// borrows its enumeration node's rows.
    rows: Cow<'a, [[u64; 2]]>,
    m: u64,
    c: u64,
    e: u64,
    /// `(M, C, E)` before each recorded move: a mark is its length.
    saved: Vec<[u64; 3]>,
}

impl<'a> Words<'a> {
    /// The row words of `comp` (at most 64 vertices).
    pub(crate) fn rows_of(comp: &LocalComponent) -> Vec<[u64; 2]> {
        let dis = comp.dissimilarity();
        (0..comp.len() as VertexId)
            .map(|v| [mask_of(comp.neighbors(v)), dis.dissimilar_word(v)])
            .collect()
    }

    fn new(rows: Cow<'a, [[u64; 2]]>, m: u64, c: u64) -> Self {
        Words {
            rows,
            m,
            c,
            e: 0,
            saved: Vec::new(),
        }
    }

    /// `M`.
    #[inline]
    pub(crate) fn m(&self) -> u64 {
        self.m
    }

    /// `C`.
    #[inline]
    pub(crate) fn c(&self) -> u64 {
        self.c
    }

    /// `E`.
    #[inline]
    pub(crate) fn e(&self) -> u64 {
        self.e
    }

    /// `M ∪ C`.
    #[inline]
    pub(crate) fn mc(&self) -> u64 {
        self.m | self.c
    }

    /// The neighbors of `v`.
    #[inline]
    pub(crate) fn adj(&self, v: VertexId) -> u64 {
        self.rows[v as usize][0]
    }

    /// The dissimilar partners of `v`.
    #[inline]
    pub(crate) fn dis(&self, v: VertexId) -> u64 {
        self.rows[v as usize][1]
    }

    /// Every vertex's row words.
    pub(crate) fn rows(&self) -> &[[u64; 2]] {
        &self.rows
    }

    /// The vertices of `within` reachable from `seed` inside `within`.
    #[inline]
    fn reach(&self, seed: u64, within: u64) -> u64 {
        let (mut piece, mut frontier) = (seed, seed);
        while frontier != 0 {
            let next = bits(frontier).fold(0, |acc, v| acc | self.adj(v)) & within & !piece;
            piece |= next;
            frontier = next;
        }
        piece
    }

    /// The connected pieces of `M ∪ C`, by ascending lowest vertex.
    pub(crate) fn pieces(&self) -> impl Iterator<Item = u64> + '_ {
        let mut rest = self.mc();
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let piece = self.reach(rest & rest.wrapping_neg(), rest);
                rest &= !piece;
                piece
            })
        })
    }

    fn status(&self, v: VertexId) -> Status {
        let b = 1u64 << v;
        if self.m & b != 0 {
            Status::Chosen
        } else if self.c & b != 0 {
            Status::Cand
        } else if self.e & b != 0 {
            Status::Excluded
        } else {
            Status::Gone
        }
    }

    fn save(&mut self) {
        self.saved.push([self.m, self.c, self.e]);
    }

    fn rollback(&mut self, mark: usize) {
        if let Some(&[m, c, e]) = self.saved.get(mark) {
            (self.m, self.c, self.e) = (m, c, e);
            self.saved.truncate(mark);
        }
    }

    fn set_status(&mut self, v: VertexId, to: Status) {
        self.save();
        let b = 1u64 << v;
        self.m &= !b;
        self.c &= !b;
        self.e &= !b;
        match to {
            Status::Chosen => self.m |= b,
            Status::Cand => self.c |= b,
            Status::Excluded => self.e |= b,
            Status::Gone => {}
        }
    }

    fn expand(&mut self, k: u32, u: VertexId) -> bool {
        self.save();
        let b = 1u64 << u;
        self.c &= !b;
        self.m |= b;
        let dis = self.dis(u);
        let gone = self.c & dis;
        self.c &= !dis;
        self.e &= !dis;
        self.settle(k, gone)
    }

    fn shrink(&mut self, k: u32, u: VertexId) -> bool {
        self.save();
        let b = 1u64 << u;
        self.c &= !b;
        self.e |= b;
        self.settle(k, b)
    }

    fn prune_root(&mut self, k: u32) -> bool {
        self.save();
        let mc = self.mc();
        let low = bits(self.c)
            .filter(|&v| (self.adj(v) & mc).count_ones() < k)
            .fold(0, |acc, v| acc | 1 << v);
        self.c &= !low;
        self.e |= low;
        self.settle(k, low)
    }

    /// The Theorem 2 cascade after `gone` left `M ∪ C`: candidates left
    /// below `k` neighbors move to `E`, rippling out from `gone`. False
    /// when an `M` vertex next to a removed vertex ends below `k` — the
    /// vertices the counter layout's cascade would find.
    fn settle(&mut self, k: u32, mut gone: u64) -> bool {
        let mut removed = gone;
        while gone != 0 {
            let near = bits(gone).fold(0, |acc, v| acc | self.adj(v));
            let mc = self.mc();
            gone = bits(near & self.c)
                .filter(|&v| (self.adj(v) & mc).count_ones() < k)
                .fold(0, |acc, v| acc | 1 << v);
            self.c &= !gone;
            self.e |= gone;
            removed |= gone;
        }
        let mc = self.mc();
        bits(self.m).all(|v| self.adj(v) & removed == 0 || (self.adj(v) & mc).count_ones() >= k)
    }
}

/// The counter layout: per-vertex counters and a trail of transitions.
struct Counters {
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
}

impl Counters {
    /// Everything in `C`.
    fn root(comp: &LocalComponent) -> Self {
        let n = comp.len();
        let deg_mc: Vec<u32> = (0..n as VertexId).map(|v| comp.degree(v) as u32).collect();
        let dp_c: Vec<u32> = (0..n as VertexId)
            .map(|v| comp.dissimilar_count(v) as u32)
            .collect();
        let sum_deg_mc = deg_mc.iter().map(|&d| d as u64).sum();
        let sum_dp_c = dp_c.iter().map(|&d| d as u64).sum();
        let sf_count = dp_c.iter().filter(|&&d| d == 0).count() as u32;
        Counters {
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
        }
    }

    /// `M = chosen`, `C = cands`, every other vertex `Gone`, counted from
    /// the rows of `chosen ∪ cands` only.
    fn seeded(comp: &LocalComponent, k: u32, chosen: &[VertexId], cands: &[VertexId]) -> Self {
        let n = comp.len();
        let mut st = Counters {
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
        };
        for &v in chosen {
            st.apply_transition(comp, k, v, Status::Gone, Status::Chosen, false);
        }
        for &v in cands {
            st.apply_transition(comp, k, v, Status::Gone, Status::Cand, false);
        }
        st
    }

    fn rollback(&mut self, comp: &LocalComponent, k: u32, mark: usize) {
        while self.trail.len() > mark {
            let (v, old) = self.trail.pop().expect("trail underflow");
            let cur = self.status[v as usize];
            self.apply_transition(comp, k, v, cur, old, false);
        }
        self.pending.clear();
    }

    /// Status transition with full counter maintenance. `record` pushes the
    /// inverse onto the trail (false during rollback).
    fn apply_transition(
        &mut self,
        comp: &LocalComponent,
        k: u32,
        v: VertexId,
        from: Status,
        to: Status,
        record: bool,
    ) {
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
                        if delta_mc < 0 && nd < k {
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

    /// Records and applies a transition.
    fn set_status(&mut self, comp: &LocalComponent, k: u32, v: VertexId, to: Status) {
        let from = self.status[v as usize];
        self.apply_transition(comp, k, v, from, to, true);
    }

    fn expand(&mut self, comp: &LocalComponent, k: u32, u: VertexId) -> bool {
        self.pending.clear();
        self.set_status(comp, k, u, Status::Chosen);
        // Similarity eviction of dissimilar partners.
        comp.for_each_dissimilar(u, |w| match self.status[w as usize] {
            Status::Cand | Status::Excluded => self.set_status(comp, k, w, Status::Gone),
            _ => {}
        });
        self.structure_cascade(comp, k)
    }

    fn shrink(&mut self, comp: &LocalComponent, k: u32, u: VertexId) -> bool {
        self.pending.clear();
        self.set_status(comp, k, u, Status::Excluded);
        self.structure_cascade(comp, k)
    }

    fn prune_root(&mut self, comp: &LocalComponent, k: u32) -> bool {
        self.pending.clear();
        for v in 0..comp.len() as VertexId {
            if self.status[v as usize] == Status::Cand && self.deg_mc[v as usize] < k {
                self.pending.push(v);
            }
        }
        self.structure_cascade(comp, k)
    }

    /// Theorem 2 cascade: recursively move `C` vertices with
    /// `deg(·, M∪C) < k` to `E` (they stay similar to `M`); fail the branch
    /// if an `M` vertex drops below `k`. Complete because every degree
    /// drop below `k` pushes to `pending`.
    fn structure_cascade(&mut self, comp: &LocalComponent, k: u32) -> bool {
        while let Some(v) = self.pending.pop() {
            let vi = v as usize;
            if self.deg_mc[vi] >= k {
                continue; // stale entry
            }
            match self.status[vi] {
                Status::Cand => self.set_status(comp, k, v, Status::Excluded),
                Status::Chosen => {
                    self.pending.clear();
                    return false;
                }
                _ => {}
            }
        }
        true
    }
}

impl<'a> SearchState<'a> {
    /// Fresh root state: everything in `C`.
    pub fn new(comp: &'a LocalComponent) -> Self {
        let n = comp.len();
        let layout = if uses_words(n) {
            let all = (!0u64).checked_shr(64 - n as u32).unwrap_or(0);
            Layout::Words(Words::new(Cow::Owned(Words::rows_of(comp)), 0, all))
        } else {
            Layout::Counters(Counters::root(comp))
        };
        SearchState {
            comp,
            k: comp.k,
            layout,
            failed: false,
        }
    }

    /// A node state below the root on the counter layout: `M = chosen`,
    /// `C = cands`, every other vertex `Gone` and `E` empty — the
    /// maximal check's start (Algorithm 4) above one word. `cands` must
    /// be similar to every `chosen` vertex (Eq. 1).
    pub(crate) fn seeded(
        comp: &'a LocalComponent,
        k: u32,
        chosen: &[VertexId],
        cands: &[VertexId],
    ) -> Self {
        SearchState {
            comp,
            k,
            layout: Layout::Counters(Counters::seeded(comp, k, chosen, cands)),
            failed: false,
        }
    }

    /// [`SearchState::seeded`] on the one-word layout, over row words
    /// already built for `comp`.
    pub(crate) fn seeded_words(
        comp: &'a LocalComponent,
        k: u32,
        rows: &'a [[u64; 2]],
        chosen: u64,
        cands: u64,
    ) -> Self {
        SearchState {
            comp,
            k,
            layout: Layout::Words(Words::new(Cow::Borrowed(rows), chosen, cands)),
            failed: false,
        }
    }

    /// The one-word layout, when the state has it.
    #[inline]
    pub(crate) fn words(&self) -> Option<&Words<'a>> {
        match &self.layout {
            Layout::Words(w) => Some(w),
            Layout::Counters(_) => None,
        }
    }

    /// Current status of `v`.
    #[inline]
    pub fn status(&self, v: VertexId) -> Status {
        match &self.layout {
            Layout::Words(w) => w.status(v),
            Layout::Counters(c) => c.status[v as usize],
        }
    }

    /// `deg(v, M ∪ C)`.
    #[inline]
    pub fn deg_mc(&self, v: VertexId) -> u32 {
        match &self.layout {
            Layout::Words(w) => (w.adj(v) & w.mc()).count_ones(),
            Layout::Counters(c) => c.deg_mc[v as usize],
        }
    }

    /// `deg(v, M)`.
    #[inline]
    pub fn deg_m(&self, v: VertexId) -> u32 {
        match &self.layout {
            Layout::Words(w) => (w.adj(v) & w.m).count_ones(),
            Layout::Counters(c) => c.deg_m[v as usize],
        }
    }

    /// `DP(v, C)`.
    #[inline]
    pub fn dp_c(&self, v: VertexId) -> u32 {
        match &self.layout {
            Layout::Words(w) => (w.dis(v) & w.c).count_ones(),
            Layout::Counters(c) => c.dp_c[v as usize],
        }
    }

    /// `DP(v, E)`.
    #[inline]
    pub fn dp_e(&self, v: VertexId) -> u32 {
        match &self.layout {
            Layout::Words(w) => (w.dis(v) & w.e).count_ones(),
            Layout::Counters(c) => c.dp_e[v as usize],
        }
    }

    /// `|M|`, `|C|`, `|E|`.
    pub fn sizes(&self) -> (u32, u32, u32) {
        match &self.layout {
            Layout::Words(w) => (w.m.count_ones(), w.c.count_ones(), w.e.count_ones()),
            Layout::Counters(c) => (c.n_m, c.n_c, c.n_e),
        }
    }

    /// `|M| + |C|` — the naive size upper bound.
    #[inline]
    pub fn mc_len(&self) -> u32 {
        match &self.layout {
            Layout::Words(w) => w.mc().count_ones(),
            Layout::Counters(c) => c.n_m + c.n_c,
        }
    }

    /// Number of dissimilar pairs inside `C` (`DP(C)`).
    #[inline]
    pub fn dp_c_total(&self) -> u64 {
        match &self.layout {
            Layout::Words(w) => {
                let twice: u32 = bits(w.c).map(|v| (w.dis(v) & w.c).count_ones()).sum();
                twice as u64 / 2
            }
            Layout::Counters(c) => c.sum_dp_c / 2,
        }
    }

    /// Number of edges inside `M ∪ C`.
    #[inline]
    pub fn edges_mc(&self) -> u64 {
        match &self.layout {
            Layout::Words(w) => {
                let mc = w.mc();
                let twice: u32 = bits(mc).map(|v| (w.adj(v) & mc).count_ones()).sum();
                twice as u64 / 2
            }
            Layout::Counters(c) => c.sum_deg_mc / 2,
        }
    }

    /// `|SF(C)|` — candidates similar to all other candidates.
    #[inline]
    pub fn sf_count(&self) -> u32 {
        match &self.layout {
            Layout::Words(w) => bits(w.c).filter(|&v| w.dis(v) & w.c == 0).count() as u32,
            Layout::Counters(c) => c.sf_count,
        }
    }

    /// True when `C = SF(C)` (Theorem 4 leaf: `M ∪ C` is pairwise similar).
    #[inline]
    pub fn all_candidates_similarity_free(&self) -> bool {
        match &self.layout {
            Layout::Words(w) => bits(w.c).all(|v| w.dis(v) & w.c == 0),
            Layout::Counters(c) => c.sf_count == c.n_c,
        }
    }

    /// Did the last cascade kill an `M` vertex?
    #[inline]
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Members of a given status, sorted.
    pub fn members(&self, s: Status) -> Vec<VertexId> {
        (0..self.comp.len() as VertexId)
            .filter(|&v| self.status(v) == s)
            .collect()
    }

    /// Trail mark for later rollback.
    #[inline]
    pub fn mark(&self) -> usize {
        match &self.layout {
            Layout::Words(w) => w.saved.len(),
            Layout::Counters(c) => c.trail.len(),
        }
    }

    /// Rolls the state back to a previous [`mark`](Self::mark).
    pub fn rollback(&mut self, mark: usize) {
        match &mut self.layout {
            Layout::Words(w) => w.rollback(mark),
            Layout::Counters(c) => c.rollback(self.comp, self.k, mark),
        }
        self.failed = false;
    }

    /// Records and applies a transition (public for the enumeration
    /// drivers; cascading variants below are what algorithms normally use).
    pub fn set_status(&mut self, v: VertexId, to: Status) {
        match &mut self.layout {
            Layout::Words(w) => w.set_status(v, to),
            Layout::Counters(c) => c.set_status(self.comp, self.k, v, to),
        }
    }

    /// Expand branch with Theorems 2–3 pruning: move `u` from `C` to `M`,
    /// evict candidates and excluded vertices dissimilar to `u`
    /// (Theorem 3 / the E-set invariant), then run the structure cascade
    /// (Theorem 2). Returns `false` (and sets `failed`) if some `M` vertex
    /// lost the structure constraint — the caller must roll back.
    pub fn expand(&mut self, u: VertexId) -> bool {
        debug_assert_eq!(self.status(u), Status::Cand);
        let ok = match &mut self.layout {
            Layout::Words(w) => w.expand(self.k, u),
            Layout::Counters(c) => c.expand(self.comp, self.k, u),
        };
        self.failed = !ok;
        ok
    }

    /// Expand without any pruning (NaiveEnum).
    pub fn expand_naive(&mut self, u: VertexId) {
        debug_assert_eq!(self.status(u), Status::Cand);
        self.set_status(u, Status::Chosen);
    }

    /// Shrink branch: move `u` from `C` to `E` (it is similar to all of `M`
    /// by the similarity invariant), then run the structure cascade.
    pub fn shrink(&mut self, u: VertexId) -> bool {
        debug_assert_eq!(self.status(u), Status::Cand);
        let ok = match &mut self.layout {
            Layout::Words(w) => w.shrink(self.k, u),
            Layout::Counters(c) => c.shrink(self.comp, self.k, u),
        };
        self.failed = !ok;
        ok
    }

    /// Shrink without pruning or E-tracking (NaiveEnum).
    pub fn shrink_naive(&mut self, u: VertexId) {
        debug_assert_eq!(self.status(u), Status::Cand);
        self.set_status(u, Status::Gone);
    }

    /// Runs an initial structure cascade at the root (useful when the
    /// component was built with a smaller k than the query, e.g. in tests).
    pub fn prune_root(&mut self) -> bool {
        let ok = match &mut self.layout {
            Layout::Words(w) => w.prune_root(self.k),
            Layout::Counters(c) => c.prune_root(self.comp, self.k),
        };
        self.failed = !ok;
        ok
    }

    /// Checks Eq. 1 / Eq. 2 and E-set invariants (debug builds only).
    pub fn debug_assert_invariants(&self) {
        if cfg!(debug_assertions) && !self.failed {
            for v in 0..self.comp.len() as VertexId {
                let st = self.status(v);
                let in_mc = |w: VertexId| matches!(self.status(w), Status::Chosen | Status::Cand);
                // Recompute the numbers from the component's rows.
                let deg_mc = self.comp.neighbors(v).iter().filter(|&&w| in_mc(w)).count() as u32;
                assert_eq!(deg_mc, self.deg_mc(v), "deg_mc mismatch at {v}");
                let mut dp_c = 0u32;
                self.comp.for_each_dissimilar(v, |w| {
                    if self.status(w) == Status::Cand {
                        dp_c += 1;
                    }
                });
                assert_eq!(dp_c, self.dp_c(v), "dp_c mismatch at {v}");
                if st == Status::Chosen {
                    // Similarity invariant Eq. 1.
                    assert!(
                        !self.comp.any_dissimilar_where(v, in_mc),
                        "Eq.1 violated at {v}"
                    );
                }
                if st == Status::Excluded {
                    // E members similar to all of M.
                    assert!(
                        !self
                            .comp
                            .any_dissimilar_where(v, |w| self.status(w) == Status::Chosen),
                        "E-invariant violated at {v}"
                    );
                }
                if in_mc(v) {
                    // Degree invariant Eq. 2.
                    assert!(self.deg_mc(v) >= self.k, "Eq.2 violated at {v}");
                }
            }
        }
    }

    /// Connected components of the current `M ∪ C` (local ids, sorted
    /// inside each component), by ascending lowest vertex.
    pub fn mc_components(&self) -> Vec<Vec<VertexId>> {
        if let Some(w) = self.words() {
            return w.pieces().map(|piece| bits(piece).collect()).collect();
        }
        let mc: Vec<VertexId> = (0..self.comp.len() as VertexId)
            .filter(|&v| matches!(self.status(v), Status::Chosen | Status::Cand))
            .collect();
        pieces_of(self.comp, &mc)
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
