//! Size upper bounds for the maximum (k,r)-core (Section 6.2).
//!
//! Every bound is evaluated on the current `M ∪ C` of a search node. Let
//! `J` be the induced structure graph and `J'` the induced similarity
//! graph; any (k,r)-core inside `M ∪ C` is a clique of `J'` whose vertices
//! have degree ≥ k in `J`:
//!
//! * **Naive** — `|M| + |C|` (what BasicMax uses);
//! * **Color** — a proper coloring of `J'` with `c` colors bounds its
//!   clique number by `c`;
//! * **KCore** — a clique of size `s` is an `(s−1)`-core of `J'`, so
//!   `kmax(J') + 1` is a bound;
//! * **DoubleKCore** — the paper's novel (k,k')-core bound (Algorithm 6,
//!   Theorem 7): the largest `k'` such that some vertex subset is
//!   simultaneously a k-core of `J` and a k'-core of `J'`; the bound is
//!   `k'max + 1`. Always at least as tight as KCore.
//!
//! Every bound reads `M ∪ C` as the active mask, `⌈n/64⌉` words over
//! the component's vertices, and a vertex's similarity degree inside it
//! as `degsim(v) = Σ popcount(sim(v) ∧ active)`, walking `v`'s similar
//! row word by word ([`DissimilarityView::for_each_similar_word`]: bit
//! rows up to 4 096 vertices, either side of a CSR above). The KCore and
//! DoubleKCore peels decrement, for each removed `x`, exactly the set
//! bits of `sim(x) ∧ alive`. On the one-word search layout they run on
//! the active set as one mask instead, each degree a popcount of a row
//! word against it.
//!
//! [`DissimilarityView::for_each_similar_word`]: kr_similarity::DissimilarityView::for_each_similar_word

use crate::config::BoundKind;
use crate::search::{bits, kcore_within, SearchState, Status, Words};
use kr_graph::VertexId;

/// Evaluates `bound` on the current `M ∪ C` of `st`.
pub fn size_upper_bound(st: &SearchState<'_>, bound: BoundKind) -> u32 {
    match bound {
        BoundKind::Naive => st.mc_len(),
        BoundKind::Color => color_bound(st),
        BoundKind::KCore => sim_kcore_bound(st),
        BoundKind::ColorKCore => color_bound(st).min(sim_kcore_bound(st)),
        BoundKind::DoubleKCore => double_kcore_bound(st),
    }
}

/// `M ∪ C` as a mask of `⌈n/64⌉` words.
fn active_mask(st: &SearchState<'_>) -> Vec<u64> {
    let mut active = vec![0u64; st.comp.len().div_ceil(64)];
    for v in 0..st.comp.len() as VertexId {
        if matches!(st.status(v), Status::Chosen | Status::Cand) {
            active[v as usize / 64] |= 1 << (v % 64);
        }
    }
    active
}

/// The members of a mask of words, ascending.
fn members(mask: &[u64]) -> impl Iterator<Item = VertexId> + '_ {
    mask.iter()
        .enumerate()
        .flat_map(|(i, &word)| bits(word).map(move |b| (i * 64) as VertexId + b))
}

/// `degsim(v) = Σ popcount(sim(v) ∧ active)` for every active `v`,
/// indexed by vertex (0 outside `active`).
fn similar_degrees(st: &SearchState<'_>, active: &[u64]) -> Vec<u32> {
    let view = st.comp.dissimilarity();
    let mut degsim = vec![0u32; st.comp.len()];
    for v in members(active) {
        view.for_each_similar_word(v, |i, word| {
            degsim[v as usize] += (word & active[i]).count_ones();
        });
    }
    degsim
}

/// Greedy coloring bound on `J'`, iterating vertices by decreasing
/// similarity degree. Runs on the complement: vertex `v` may reuse color
/// class `c` iff *every* member of `c` is dissimilar to `v`.
pub fn color_bound(st: &SearchState<'_>) -> u32 {
    let active = active_mask(st);
    let degsim = similar_degrees(st, &active);
    let mut order: Vec<VertexId> = members(&active).collect();
    order.sort_unstable_by_key(|&v| std::cmp::Reverse(degsim[v as usize]));

    // color_of[vertex] = assigned color + 1 (0 = uncolored, or inactive).
    let mut color_of = vec![0u32; st.comp.len()];
    let mut class_size: Vec<u32> = Vec::new();
    // Scratch: per color, how many of v's dissimilar partners carry it.
    let mut dis_count: Vec<u32> = Vec::new();
    for v in order {
        dis_count.clear();
        dis_count.resize(class_size.len(), 0);
        st.comp.for_each_dissimilar(v, |w| {
            let cw = color_of[w as usize];
            if cw > 0 {
                dis_count[(cw - 1) as usize] += 1;
            }
        });
        let mut chosen = None;
        for c in 0..class_size.len() {
            if dis_count[c] == class_size[c] {
                chosen = Some(c);
                break;
            }
        }
        let c = chosen.unwrap_or_else(|| {
            class_size.push(0);
            class_size.len() - 1
        });
        class_size[c] += 1;
        color_of[v as usize] = c as u32 + 1;
    }
    class_size.len() as u32
}

/// k-core bound on `J'`: `kmax + 1` where `kmax` is the largest core
/// number of the similarity graph over the active set.
pub fn sim_kcore_bound(st: &SearchState<'_>) -> u32 {
    peel_bound(st, false)
}

/// The (k,k')-core bound of Algorithm 6 / Theorem 7.
pub fn double_kcore_bound(st: &SearchState<'_>) -> u32 {
    peel_bound(st, true)
}

/// Shared peeling kernel. With `enforce_structure` it is Algorithm 6
/// (similarity-degree peeling + structural k-core maintenance on `J`);
/// without, it is plain core decomposition of `J'`.
fn peel_bound(st: &SearchState<'_>, enforce_structure: bool) -> u32 {
    if let Some(w) = st.words() {
        return peel_bound_words(w, st.k, enforce_structure);
    }
    let mut alive = active_mask(st);
    let n = alive.iter().map(|w| w.count_ones() as usize).sum();
    let view = st.comp.dissimilarity();
    let is_alive = |alive: &[u64], v: VertexId| alive[v as usize / 64] >> (v % 64) & 1 == 1;
    let mut degsim = similar_degrees(st, &alive);
    // Bucket queue over degsim with lazy deletion.
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for v in members(&alive) {
        buckets[degsim[v as usize] as usize].push(v);
    }
    let mut alive_count = n;
    let mut kprime = 0u32;
    let mut cur = 0usize;
    // Stack of structurally-dead vertices to remove at the current k'.
    let mut dead_stack: Vec<VertexId> = Vec::new();

    // Structural degrees in J. Vertices below the threshold up front can
    // join no (k,k')-core at all; peel them at k' = 0 before the main
    // loop. (The search always passes a k-core, but callers on raw
    // components may not.)
    let mut deg = vec![0u32; st.comp.len()];
    if enforce_structure {
        for v in members(&alive) {
            let d = st
                .comp
                .neighbors(v)
                .iter()
                .filter(|&&w| is_alive(&alive, w))
                .count() as u32;
            deg[v as usize] = d;
            if d < st.k {
                dead_stack.push(v);
            }
        }
    }
    let mut any_processed = false;

    loop {
        // Drain structurally-dead vertices at the current k'.
        while let Some(x) = dead_stack.pop() {
            if !is_alive(&alive, x) {
                continue;
            }
            alive[x as usize / 64] &= !(1 << (x % 64));
            alive_count -= 1;
            // Similar survivors lose a similarity degree (standard core
            // decomposition: only those above the current k', so none
            // drops below `cur` ≤ k'), ascending.
            view.for_each_similar_word(x, |i, word| {
                for b in bits(word & alive[i]) {
                    let v = i * 64 + b as usize;
                    if degsim[v] > kprime {
                        degsim[v] -= 1;
                        buckets[degsim[v] as usize].push(v as VertexId);
                    }
                }
            });
            // Structural side (Algorithm 6's KK'coreUpdate): neighbors in J
            // lose a degree; below k they die at the same k'.
            if enforce_structure {
                for &w in st.comp.neighbors(x) {
                    if is_alive(&alive, w) {
                        deg[w as usize] -= 1;
                        if deg[w as usize] < st.k {
                            dead_stack.push(w);
                        }
                    }
                }
            }
        }
        if alive_count == 0 {
            break;
        }
        // Pick the alive vertex with minimum current degsim: each alive
        // vertex has an entry in the bucket of its degsim, never below
        // `cur`.
        let u = loop {
            match buckets[cur].pop() {
                Some(v) if is_alive(&alive, v) && degsim[v as usize] as usize == cur => break v,
                Some(_) => {}
                None => cur += 1,
            }
        };
        kprime = kprime.max(degsim[u as usize]);
        any_processed = true;
        dead_stack.push(u);
    }
    if any_processed {
        kprime + 1
    } else {
        // Everything died in the structural pre-pass: no (k,k')-core at
        // all, hence no (k,r)-core either.
        0
    }
}

/// [`peel_bound`] over one word: the same `k'max + 1` (or 0), by
/// removing a vertex of least similarity degree at a time and peeling the
/// structure below `k` after each removal. Any order that removes a
/// minimum-degree vertex reaches the same `k'max`, so the result equals
/// the bucket queue's.
fn peel_bound_words(w: &Words<'_>, k: u32, enforce_structure: bool) -> u32 {
    let structural = |set: u64| {
        if enforce_structure {
            kcore_within(w.rows(), k, 0, set)
        } else {
            set
        }
    };
    let mut alive = structural(w.mc());
    if alive == 0 {
        return 0;
    }
    let mut kprime = 0;
    while alive != 0 {
        // `degsim(v) = |alive \ dis(v)| − 1` (v itself is alive).
        let (degsim, u) = bits(alive)
            .map(|v| ((alive & !w.dis(v)).count_ones() - 1, v))
            .min()
            .expect("alive is non-empty");
        kprime = kprime.max(degsim);
        alive = structural(alive & !(1 << u));
    }
    kprime + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::LocalComponent;
    use crate::search::SearchState;
    use crate::testing::{
        above_the_cutoff, on_counters, random_component, random_walk, windowed_state,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The counter-layout kernels as they were before the similar-word
    /// walk: every bound call scans the active set for each removal and
    /// marks the removed vertex's dissimilar partners. The reference the
    /// word walk is pinned to.
    mod reference {
        use crate::search::{SearchState, Status};
        use kr_graph::VertexId;

        /// Collects the active (`M ∪ C`) vertices.
        fn active_vertices(st: &SearchState<'_>) -> Vec<VertexId> {
            (0..st.comp.len() as VertexId)
                .filter(|&v| matches!(st.status(v), Status::Chosen | Status::Cand))
                .collect()
        }

        /// `degsim` within the active set for every active vertex.
        ///
        /// Thanks to the similarity invariant (Eq. 1) every dissimilar pair inside
        /// `M ∪ C` has both endpoints in `C`, so `degsim(v) = n − 1 − dp_c(v)`;
        /// we still recompute from the lists for robustness when invariants are
        /// not maintained (naive configurations).
        fn sim_degrees(st: &SearchState<'_>, active: &[VertexId], in_active: &[bool]) -> Vec<u32> {
            let n = active.len() as u32;
            active
                .iter()
                .map(|&v| {
                    let mut d = 0u32;
                    st.comp.for_each_dissimilar(v, |w| {
                        if in_active[w as usize] {
                            d += 1;
                        }
                    });
                    n - 1 - d
                })
                .collect()
        }

        /// Greedy coloring bound on `J'`, iterating vertices by decreasing
        /// similarity degree. Runs on the complement: vertex `v` may reuse color
        /// class `c` iff *every* member of `c` is dissimilar to `v`.
        pub(super) fn color_bound(st: &SearchState<'_>) -> u32 {
            let active = active_vertices(st);
            let n = active.len();
            if n == 0 {
                return 0;
            }
            let mut in_active = vec![false; st.comp.len()];
            for &v in &active {
                in_active[v as usize] = true;
            }
            let degsim = sim_degrees(st, &active, &in_active);
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_unstable_by_key(|&i| std::cmp::Reverse(degsim[i]));

            // color_of[global vertex] = assigned color + 1 (0 = uncolored).
            let mut color_of = vec![0u32; st.comp.len()];
            let mut class_size: Vec<u32> = Vec::new();
            // Scratch: per color, how many of v's dissimilar partners carry it.
            let mut dis_count: Vec<u32> = Vec::new();
            for &i in &order {
                let v = active[i];
                dis_count.clear();
                dis_count.resize(class_size.len(), 0);
                st.comp.for_each_dissimilar(v, |w| {
                    let cw = color_of[w as usize];
                    if cw > 0 && in_active[w as usize] {
                        dis_count[(cw - 1) as usize] += 1;
                    }
                });
                let mut chosen = None;
                for c in 0..class_size.len() {
                    if dis_count[c] == class_size[c] {
                        chosen = Some(c);
                        break;
                    }
                }
                let c = chosen.unwrap_or_else(|| {
                    class_size.push(0);
                    class_size.len() - 1
                });
                class_size[c] += 1;
                color_of[v as usize] = c as u32 + 1;
            }
            class_size.len() as u32
        }

        /// Shared peeling kernel. With `enforce_structure` it is Algorithm 6
        /// (similarity-degree peeling + structural k-core maintenance on `J`);
        /// without, it is plain core decomposition of `J'`.
        pub(super) fn peel_bound(st: &SearchState<'_>, enforce_structure: bool) -> u32 {
            let active = active_vertices(st);
            let n = active.len();
            if n == 0 {
                return 0;
            }
            let mut in_active = vec![false; st.comp.len()];
            let mut local = vec![u32::MAX; st.comp.len()];
            for (i, &v) in active.iter().enumerate() {
                in_active[v as usize] = true;
                local[v as usize] = i as u32;
            }
            let mut degsim: Vec<u32> = sim_degrees(st, &active, &in_active);
            let mut deg: Vec<u32> = active
                .iter()
                .map(|&v| {
                    st.comp
                        .neighbors(v)
                        .iter()
                        .filter(|&&w| in_active[w as usize])
                        .count() as u32
                })
                .collect();

            // Bucket queue over degsim with lazy deletion.
            let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n];
            for i in 0..n {
                buckets[degsim[i] as usize].push(i as u32);
            }
            let mut alive = vec![true; n];
            let mut alive_count = n as u32;
            let mut kprime = 0u32;
            let mut cur = 0usize;
            // Stack of structurally-dead vertices to remove at the current k'.
            let mut dead_stack: Vec<u32> = Vec::new();

            // Marks dis-partners of the vertex being removed (to skip them when
            // decrementing similarity degrees of "similar" survivors).
            let mut dis_mark = vec![false; n];

            // Vertices below the structural threshold up front can join no
            // (k,k')-core at all; peel them at k' = 0 before the main loop. (The
            // search always passes a k-core, but callers on raw components may
            // not.)
            if enforce_structure {
                for (i, &d) in deg.iter().enumerate() {
                    if d < st.k {
                        dead_stack.push(i as u32);
                    }
                }
            }
            let mut any_processed = false;

            loop {
                // Drain structurally-dead vertices at the current k'.
                while let Some(x) = dead_stack.pop() {
                    let xi = x as usize;
                    if !alive[xi] {
                        continue;
                    }
                    alive[xi] = false;
                    alive_count -= 1;
                    let gx = active[xi];
                    // Mark x's dissimilar partners.
                    st.comp.for_each_dissimilar(gx, |w| {
                        let lw = local[w as usize];
                        if lw != u32::MAX {
                            dis_mark[lw as usize] = true;
                        }
                    });
                    // Similar survivors lose a similarity degree (standard core
                    // decomposition: only those above the current k').
                    for i in 0..n {
                        if alive[i] && !dis_mark[i] && degsim[i] > kprime {
                            degsim[i] -= 1;
                            buckets[degsim[i] as usize].push(i as u32);
                            if (degsim[i] as usize) < cur {
                                cur = degsim[i] as usize;
                            }
                        }
                    }
                    st.comp.for_each_dissimilar(gx, |w| {
                        let lw = local[w as usize];
                        if lw != u32::MAX {
                            dis_mark[lw as usize] = false;
                        }
                    });
                    // Structural side (Algorithm 6's KK'coreUpdate): neighbors in J
                    // lose a degree; below k they die at the same k'.
                    if enforce_structure {
                        for &w in st.comp.neighbors(gx) {
                            let lw = local[w as usize];
                            if lw != u32::MAX && alive[lw as usize] {
                                deg[lw as usize] -= 1;
                                if deg[lw as usize] < st.k {
                                    dead_stack.push(lw);
                                }
                            }
                        }
                    }
                }
                if alive_count == 0 {
                    break;
                }
                // Pick the alive vertex with minimum current degsim.
                let u = loop {
                    while cur < n && buckets[cur].is_empty() {
                        cur += 1;
                    }
                    if cur >= n {
                        // All remaining entries were stale; fall back to a scan.
                        let mut min_i = None;
                        for i in 0..n {
                            if alive[i] && min_i.is_none_or(|m: u32| degsim[i] < degsim[m as usize])
                            {
                                min_i = Some(i as u32);
                            }
                        }
                        break min_i;
                    }
                    let i = buckets[cur].pop().expect("non-empty bucket");
                    if alive[i as usize] && degsim[i as usize] as usize == cur {
                        break Some(i);
                    }
                };
                let Some(u) = u else { break };
                kprime = kprime.max(degsim[u as usize]);
                any_processed = true;
                dead_stack.push(u);
            }
            if any_processed {
                kprime + 1
            } else {
                // Everything died in the structural pre-pass: no (k,k')-core at
                // all, hence no (k,r)-core either.
                0
            }
        }
    }

    /// Figure 4 of the paper: J is vertices u0..u5; J' differs.
    /// We encode: adjacency of J and the *dissimilarity* lists
    /// (complement of J' edges).
    fn figure4() -> LocalComponent {
        // J (Figure 4a): u0-u1, u0-u2, u0-u3, u0-u4, u0-u5,
        //                u1-u2, u2-u3, u3-u4, u4-u5, u5-u1  (wheel W5)
        let adj = vec![
            vec![1, 2, 3, 4, 5],
            vec![0, 2, 5],
            vec![0, 1, 3],
            vec![0, 2, 4],
            vec![0, 3, 5],
            vec![0, 1, 4],
        ];
        // J' (Figure 4b): complete graph minus edges (1,3) and (2,5)...
        // Chosen so that: color bound = 5, sim-kcore bound = 5 (kmax = 4),
        // and the (3,k')-core bound = 4, matching Example 7 with k = 3.
        let dis = vec![vec![], vec![3], vec![5], vec![1], vec![], vec![2]];
        LocalComponent::from_parts(adj, dis, 3)
    }

    #[test]
    fn naive_bound_is_mc() {
        let comp = figure4();
        let st = SearchState::new(&comp);
        assert_eq!(size_upper_bound(&st, BoundKind::Naive), 6);
    }

    #[test]
    fn example7_bounds() {
        let comp = figure4();
        let st = SearchState::new(&comp);
        // J' = K6 minus a perfect-ish matching {1-3, 2-5}: chromatic
        // number 4?? Let's verify empirically what we claim: the clique
        // number of J' is 4 ({0,1,2,4} etc. avoid both missing edges? 0,1,2,4:
        // pairs (1,3)(2,5) absent -> all present -> yes a 4-clique; adding
        // any of 3 (dissimilar to 1) or 5 (dissimilar to 2) breaks it).
        let color = color_bound(&st);
        let simk = sim_kcore_bound(&st);
        let double = double_kcore_bound(&st);
        // K6 minus 2 disjoint non-edges: min degree of J' is 4 -> kmax = 4
        // -> simk bound 5. Greedy coloring uses 4 colors ({0} alone...).
        assert_eq!(simk, 5);
        assert!((4..=5).contains(&color), "color {color}");
        // Double bound must be tighter or equal, and still >= true max
        // clique-with-structure (= 4: {0,2,3,4} has J-degrees 3,3,3,3? u2
        // adj u0,u3 in set -> degree 2 < 3. The true maximum (3,r)-core
        // here: needs J-degree >= 3 inside the set).
        assert!(double <= simk);
        assert!(double >= 4, "double {double}");
    }

    #[test]
    fn bounds_dominate_true_maximum_on_clique() {
        // J = J' = K5, k = 2: the whole graph is the (2,r)-core of size 5.
        let adj: Vec<Vec<VertexId>> = (0..5)
            .map(|i| (0..5).filter(|&j| j != i).collect())
            .collect();
        let dis = vec![vec![]; 5];
        let comp = LocalComponent::from_parts(adj, dis, 2);
        let st = SearchState::new(&comp);
        for b in [
            BoundKind::Naive,
            BoundKind::Color,
            BoundKind::KCore,
            BoundKind::ColorKCore,
            BoundKind::DoubleKCore,
        ] {
            assert!(size_upper_bound(&st, b) >= 5, "{b:?}");
        }
        // On a clique every bound is exact.
        assert_eq!(size_upper_bound(&st, BoundKind::DoubleKCore), 5);
        assert_eq!(size_upper_bound(&st, BoundKind::Color), 5);
    }

    #[test]
    fn double_no_looser_than_kcore() {
        let comp = figure4();
        let st = SearchState::new(&comp);
        assert!(double_kcore_bound(&st) <= sim_kcore_bound(&st));
    }

    #[test]
    fn empty_state_bounds_zero() {
        let comp = LocalComponent::from_parts(vec![vec![1], vec![0]], vec![vec![], vec![]], 1);
        let mut st = SearchState::new(&comp);
        st.set_status(0, crate::search::Status::Gone);
        st.set_status(1, crate::search::Status::Gone);
        for b in [BoundKind::Color, BoundKind::KCore, BoundKind::DoubleKCore] {
            assert_eq!(size_upper_bound(&st, b), 0, "{b:?}");
        }
    }

    #[test]
    fn structure_enforcement_tightens() {
        // Star + ring (wheel) with k = 3: J' complete (no dissimilar
        // pairs). Sim-kcore bound = 6 (K6 core number 5 -> bound 6).
        // Structural: wheel W5 has hub degree 5, rim degree 3 -> whole
        // graph is a 3-core, so the double bound stays 6.
        let adj = vec![
            vec![1, 2, 3, 4, 5],
            vec![0, 2, 5],
            vec![0, 1, 3],
            vec![0, 2, 4],
            vec![0, 3, 5],
            vec![0, 1, 4],
        ];
        let dis = vec![vec![]; 6];
        let comp = LocalComponent::from_parts(adj.clone(), dis, 3);
        let st = SearchState::new(&comp);
        assert_eq!(sim_kcore_bound(&st), 6);
        assert_eq!(double_kcore_bound(&st), 6);
        // Now with k = 4 the rim dies structurally; only the hub's... the
        // 4-core of the wheel is empty, cascading everything: k' collapses.
        let comp2 = LocalComponent::from_parts(adj, vec![vec![]; 6], 4);
        let st2 = SearchState::new(&comp2);
        let d = double_kcore_bound(&st2);
        assert!(d < 6, "structure constraint should bite: {d}");
    }

    /// Every counter-layout bound at `st` against its reference.
    fn assert_matches_reference(st: &SearchState<'_>) {
        assert!(st.words().is_none(), "counter layout");
        assert_eq!(color_bound(st), reference::color_bound(st), "color");
        assert_eq!(
            sim_kcore_bound(st),
            reference::peel_bound(st, false),
            "kcore"
        );
        assert_eq!(
            double_kcore_bound(st),
            reference::peel_bound(st, true),
            "double"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Bit-row components past one word, dense and sparse in both
        /// pair kinds, at random search states.
        #[test]
        fn counter_bounds_match_reference_on_bit_rows(
            size in 0usize..4,
            p_edge in 0.02f64..0.6,
            p_dis in 0.01f64..0.95,
            k in 1u32..4,
            steps in 0usize..12,
            seed in 0u64..u64::MAX,
        ) {
            let n = [65, 127, 128, 129][size];
            let mut rng = StdRng::seed_from_u64(seed);
            let comp = random_component(&mut rng, n, p_edge, p_dis, k);
            assert_matches_reference(&random_walk(&comp, &mut rng, steps));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Above the bit-row cutoff, in both CSR polarities, at random
        /// nodes drawn from windows of consecutive ids.
        #[test]
        fn counter_bounds_match_reference_above_the_cutoff(
            side in 0usize..2,
            seed in 0u64..u64::MAX,
        ) {
            let comp = &above_the_cutoff()[side];
            prop_assert_eq!(comp.dissimilarity().stores_similar(), side == 0);
            assert_matches_reference(&windowed_state(comp, &mut StdRng::seed_from_u64(seed), 150));
        }
    }

    /// Both components above the cutoff at their root, every vertex
    /// active.
    #[test]
    fn counter_bounds_match_reference_at_the_root_above_the_cutoff() {
        for comp in above_the_cutoff() {
            assert_matches_reference(&SearchState::new(comp));
        }
    }

    /// The Figure 4 fixture on the counter layout, at the root and after
    /// each single expand or shrink.
    #[test]
    fn counter_bounds_match_reference_on_figure4() {
        let comp = figure4();
        on_counters(|| {
            assert_matches_reference(&SearchState::new(&comp));
            for u in 0..comp.len() as VertexId {
                for expand in [true, false] {
                    let mut st = SearchState::new(&comp);
                    if if expand { st.expand(u) } else { st.shrink(u) } {
                        assert_matches_reference(&st);
                    }
                }
            }
        });
    }
}
