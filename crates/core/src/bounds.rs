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
//! `J'` is dense, so all computations run over its complement, the
//! dissimilar pairs a component's view visits: for a vertex `v` of an
//! active set of size `n`, `degsim(v) = n − 1 − |dis(v) ∩ active|`.

use crate::config::BoundKind;
use crate::search::{SearchState, Status};
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
pub fn color_bound(st: &SearchState<'_>) -> u32 {
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
                    if alive[i] && min_i.is_none_or(|m: u32| degsim[i] < degsim[m as usize]) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::LocalComponent;
    use crate::search::SearchState;

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
}
