//! Property tests pitting the size upper bounds against brute force.
//!
//! Theorem 7 says `|R| ≤ k'max + 1` where `k'max` is the largest `k'` of
//! any (k,k')-core. We verify the implementation of Algorithm 6 against a
//! subset-enumeration oracle for the *true* `k'max`, and all bounds
//! against the true maximum (k,r)-core size.

use kr_core::bounds::{color_bound, double_kcore_bound, sim_kcore_bound, size_upper_bound};
use kr_core::component::LocalComponent;
use kr_core::search::SearchState;
use kr_core::BoundKind;
use kr_graph::VertexId;
use proptest::prelude::*;

fn arb_component(n_max: usize) -> impl Strategy<Value = LocalComponent> {
    (3..=n_max).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        (
            proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..=pairs.min(30)),
            proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..=pairs.min(10)),
            1u32..=3,
        )
            .prop_map(move |(edges, dis_pairs, k)| {
                let mut adj = vec![Vec::new(); n];
                for (u, v) in edges {
                    if u != v && !adj[u as usize].contains(&v) {
                        adj[u as usize].push(v);
                        adj[v as usize].push(u);
                    }
                }
                let mut dis = vec![Vec::new(); n];
                for (u, v) in dis_pairs {
                    if u != v && !dis[u as usize].contains(&v) {
                        dis[u as usize].push(v);
                        dis[v as usize].push(u);
                    }
                }
                LocalComponent::from_parts(adj, dis, k)
            })
    })
}

/// Brute force: the largest `k'` over all vertex subsets `U` with
/// `degmin(J_U) >= k` and `degmin(J'_U) = k'` (Definition 6).
fn brute_kprime_max(comp: &LocalComponent) -> Option<u32> {
    let n = comp.len();
    assert!(n <= 12);
    let mut best: Option<u32> = None;
    'mask: for mask in 1u32..(1u32 << n) {
        let members: Vec<VertexId> = (0..n as VertexId).filter(|&v| mask >> v & 1 == 1).collect();
        let in_set = |v: VertexId| mask >> v & 1 == 1;
        let mut min_simdeg = u32::MAX;
        for &v in &members {
            let deg = comp.neighbors(v).iter().filter(|&&w| in_set(w)).count() as u32;
            if deg < comp.k {
                continue 'mask;
            }
            let mut disdeg = 0u32;
            comp.for_each_dissimilar(v, |w| disdeg += in_set(w) as u32);
            let simdeg = members.len() as u32 - 1 - disdeg;
            min_simdeg = min_simdeg.min(simdeg);
        }
        best = Some(best.map_or(min_simdeg, |b| b.max(min_simdeg)));
    }
    best
}

/// Brute force: the largest vertex subset that is pairwise similar, has
/// min degree >= k, and is connected — i.e. the maximum (k,r)-core.
fn brute_max_core(comp: &LocalComponent) -> usize {
    let n = comp.len();
    assert!(n <= 12);
    let mut best = 0usize;
    'mask: for mask in 1u32..(1u32 << n) {
        let members: Vec<VertexId> = (0..n as VertexId).filter(|&v| mask >> v & 1 == 1).collect();
        if members.len() <= best {
            continue;
        }
        let in_set = |v: VertexId| mask >> v & 1 == 1;
        for &v in &members {
            let deg = comp.neighbors(v).iter().filter(|&&w| in_set(w)).count() as u32;
            if deg < comp.k {
                continue 'mask;
            }
            if comp.any_dissimilar_where(v, in_set) {
                continue 'mask;
            }
        }
        // Connectivity.
        let mut seen = vec![false; n];
        let mut stack = vec![members[0]];
        seen[members[0] as usize] = true;
        let mut count = 0;
        while let Some(v) = stack.pop() {
            count += 1;
            for &w in comp.neighbors(v) {
                if in_set(w) && !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        if count == members.len() {
            best = members.len();
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Algorithm 6's result dominates the true k'max (it is an upper-bound
    /// computation; equality is typical but not required by Theorem 7).
    #[test]
    fn alg6_dominates_true_kprime(comp in arb_component(9)) {
        let st = SearchState::new(&comp);
        let bound = double_kcore_bound(&st);
        // When no qualifying subset exists the bound is unconstrained.
        if let Some(kp) = brute_kprime_max(&comp) {
            prop_assert!(
                bound > kp,
                "Alg 6 returned {bound} < true k'max+1 = {}",
                kp + 1
            );
        }
    }

    /// Every bound dominates the true maximum (k,r)-core size.
    #[test]
    fn all_bounds_dominate_true_maximum(comp in arb_component(10)) {
        let mut st = SearchState::new(&comp);
        if !st.prune_root() {
            return Ok(());
        }
        let truth = brute_max_core(&comp);
        for bound in [
            BoundKind::Naive,
            BoundKind::Color,
            BoundKind::KCore,
            BoundKind::ColorKCore,
            BoundKind::DoubleKCore,
        ] {
            let ub = size_upper_bound(&st, bound) as usize;
            prop_assert!(ub >= truth, "{bound:?}: {ub} < {truth}");
        }
    }

    /// Tightness ordering: DoubleKCore <= KCore (the structural constraint
    /// can only remove vertices) and ColorKCore <= min of its parts.
    #[test]
    fn tightness_ordering(comp in arb_component(10)) {
        let st = SearchState::new(&comp);
        prop_assert!(double_kcore_bound(&st) <= sim_kcore_bound(&st));
        let ck = size_upper_bound(&st, BoundKind::ColorKCore);
        prop_assert_eq!(ck, color_bound(&st).min(sim_kcore_bound(&st)));
    }
}
