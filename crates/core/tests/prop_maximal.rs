//! The maximal check (Algorithm 4) against brute force.
//!
//! On random small instances, every (k,r)-core of every
//! component is checked against a candidate set (the rest of the
//! component, and a random part of it) under all three check orders. The
//! verdict must be "maximal" exactly when no non-empty subset `U` of the
//! candidates makes `core ∪ U` a connected (k,r)-core.

use kr_core::maximal::check_maximal_with_order;
use kr_core::{CheckOrder, LocalComponent, ProblemInstance};
use kr_graph::{Graph, VertexId};
use kr_similarity::{AttributeTable, Metric, Threshold};
use proptest::prelude::*;

const ORDERS: [CheckOrder; 3] = [
    CheckOrder::Degree,
    CheckOrder::Delta1ThenDelta2,
    CheckOrder::LambdaDelta,
];

/// Whether the local vertex set `mask` of `comp` is a connected
/// (k,r)-core: pairwise similar, every member with `k` neighbors inside.
fn is_core(comp: &LocalComponent, k: u32, mask: u32) -> bool {
    let members: Vec<VertexId> = (0..comp.len() as VertexId)
        .filter(|&v| mask >> v & 1 == 1)
        .collect();
    let inside = |v: VertexId| mask >> v & 1 == 1;
    let similar = members
        .iter()
        .all(|&u| members.iter().all(|&v| !comp.are_dissimilar(u, v)));
    let degrees = members
        .iter()
        .all(|&u| comp.neighbors(u).iter().filter(|&&w| inside(w)).count() as u32 >= k);
    if members.is_empty() || !similar || !degrees {
        return false;
    }
    let mut seen = 1u32 << members[0];
    let mut stack = vec![members[0]];
    while let Some(v) = stack.pop() {
        for &w in comp.neighbors(v) {
            if inside(w) && seen >> w & 1 == 0 {
                seen |= 1 << w;
                stack.push(w);
            }
        }
    }
    seen == mask
}

/// Brute force: some non-empty `U ⊆ cands` makes `core ∪ U` a core.
fn extendable(cores: &[u32], core: u32, cands: u32) -> bool {
    cores
        .iter()
        .any(|&c| c != core && c & core == core && c & !(core | cands) == 0)
}

fn check_every_core(p: &ProblemInstance, cand_masks: &[u32]) {
    let k = p.k();
    for comp in p.preprocess() {
        let n = comp.len();
        let full = (1u32 << n) - 1;
        let cores: Vec<u32> = (1..=full).filter(|&m| is_core(&comp, k, m)).collect();
        for (i, &core) in cores.iter().enumerate() {
            let members: Vec<VertexId> =
                (0..n as VertexId).filter(|&v| core >> v & 1 == 1).collect();
            let rest = full & !core;
            for cands in [rest, rest & cand_masks[i % cand_masks.len()]] {
                let cand_list: Vec<VertexId> = (0..n as VertexId)
                    .filter(|&v| cands >> v & 1 == 1)
                    .collect();
                let expect = !extendable(&cores, core, cands);
                for order in ORDERS {
                    let got = check_maximal_with_order(&comp, k, &members, &cand_list, order, 5.0);
                    assert_eq!(
                        got, expect,
                        "{order:?}: core {members:?}, candidates {cand_list:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every order's verdict matches brute force.
    #[test]
    fn check_matches_brute_force(
        n in 4usize..=9,
        edges in proptest::collection::vec((0u32..9, 0u32..9), 0..30),
        xs in proptest::collection::vec(0.0f64..10.0, 9),
        k in 1u32..=3,
        r in 1.0f64..9.0,
        cand_masks in proptest::collection::vec(0u32..512, 1..8),
    ) {
        let edges: Vec<(VertexId, VertexId)> = edges
            .into_iter()
            .filter(|&(a, b)| (a as usize) < n && (b as usize) < n)
            .collect();
        let p = ProblemInstance::new(
            Graph::from_edges(n, &edges),
            AttributeTable::points(xs[..n].iter().map(|&x| (x, 0.0)).collect()),
            Metric::Euclidean,
            Threshold::MaxDistance(r),
            k,
        );
        check_every_core(&p, &cand_masks);
    }
}
