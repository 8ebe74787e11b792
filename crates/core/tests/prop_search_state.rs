//! Property tests for the search-state machinery: counter maintenance,
//! cascade invariants, and rollback fidelity under random operation
//! sequences.

use kr_core::component::LocalComponent;
use kr_core::search::{SearchState, Status};
use kr_graph::VertexId;
use proptest::prelude::*;

/// Random component: adjacency + dissimilarity over n vertices.
fn arb_component(n_max: usize) -> impl Strategy<Value = LocalComponent> {
    (3..=n_max).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        (
            proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..=pairs.min(40)),
            proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..=pairs.min(12)),
            1u32..=3,
        )
            .prop_map(move |(edges, dis_pairs, k)| {
                let mut adj = vec![Vec::new(); n];
                for (u, v) in edges {
                    if u != v {
                        adj[u as usize].push(v);
                        adj[v as usize].push(u);
                    }
                }
                let mut dis = vec![Vec::new(); n];
                for (u, v) in dis_pairs {
                    if u != v {
                        dis[u as usize].push(v);
                        dis[v as usize].push(u);
                    }
                }
                LocalComponent::from_parts(adj, dis, k)
            })
    })
}

// Replays random sequences of expand/shrink operations with rollbacks
// interleaved, asserting the invariants after every step.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn invariants_hold_through_random_walk(
        comp in arb_component(10),
        choices in proptest::collection::vec((0u8..3, 0u32..10), 1..24),
    ) {
        let mut st = SearchState::new(&comp);
        if !st.prune_root() {
            return Ok(());
        }
        st.debug_assert_invariants();
        let mut marks: Vec<usize> = vec![];
        for (op, pick) in choices {
            let cands: Vec<VertexId> = (0..comp.len() as VertexId)
                .filter(|&v| st.status(v) == Status::Cand)
                .collect();
            match op {
                0 | 1 if !cands.is_empty() => {
                    let u = cands[pick as usize % cands.len()];
                    marks.push(st.mark());
                    let ok = if op == 0 { st.expand(u) } else { st.shrink(u) };
                    if !ok {
                        let m = marks.pop().expect("mark pushed");
                        st.rollback(m);
                    }
                    st.debug_assert_invariants();
                }
                2 => {
                    if let Some(m) = marks.pop() {
                        st.rollback(m);
                        st.debug_assert_invariants();
                    }
                }
                _ => {}
            }
        }
        // Roll everything back past prune_root: every vertex is a candidate
        // again. (Eq. 2 need not hold in this pre-root state, so only the
        // status book-keeping is checked.)
        while let Some(m) = marks.pop() {
            st.rollback(m);
        }
        st.rollback(0);
        let n_cand = (0..comp.len() as VertexId)
            .filter(|&v| st.status(v) == Status::Cand)
            .count();
        prop_assert_eq!(n_cand, comp.len());
        prop_assert_eq!(st.sizes(), (0, comp.len() as u32, 0));
    }

    #[test]
    fn expand_enforces_similarity_invariant(comp in arb_component(10)) {
        let mut st = SearchState::new(&comp);
        if !st.prune_root() {
            return Ok(());
        }
        // Expand random-but-deterministic candidates until none remain.
        loop {
            let cand = (0..comp.len() as VertexId)
                .find(|&v| st.status(v) == Status::Cand);
            let Some(u) = cand else { break };
            let m = st.mark();
            if st.expand(u) {
                // Every M vertex is similar to all of M ∪ C.
                for v in 0..comp.len() as VertexId {
                    if st.status(v) == Status::Chosen {
                        let inside = comp.any_dissimilar_where(v, |w| {
                            matches!(st.status(w), Status::Chosen | Status::Cand)
                        });
                        prop_assert!(!inside, "dissimilar pair of {v} inside M ∪ C");
                    }
                }
            } else {
                st.rollback(m);
                break;
            }
        }
    }

    #[test]
    fn counters_match_recomputation_after_ops(
        comp in arb_component(9),
        ops in proptest::collection::vec((0u8..2, 0u32..9), 1..10),
    ) {
        let mut st = SearchState::new(&comp);
        if !st.prune_root() {
            return Ok(());
        }
        for (op, pick) in ops {
            let cands: Vec<VertexId> = (0..comp.len() as VertexId)
                .filter(|&v| st.status(v) == Status::Cand)
                .collect();
            if cands.is_empty() {
                break;
            }
            let u = cands[pick as usize % cands.len()];
            let m = st.mark();
            let ok = if op == 0 { st.expand(u) } else { st.shrink(u) };
            if !ok {
                st.rollback(m);
                continue;
            }
            // Aggregates match brute-force recomputation.
            let mc: Vec<VertexId> = (0..comp.len() as VertexId)
                .filter(|&v| matches!(st.status(v), Status::Chosen | Status::Cand))
                .collect();
            let mut edges = 0u64;
            for &v in &mc {
                for &w in comp.neighbors(v) {
                    if w > v && matches!(st.status(w), Status::Chosen | Status::Cand) {
                        edges += 1;
                    }
                }
            }
            prop_assert_eq!(st.edges_mc(), edges);
            let mut dp = 0u64;
            let mut sf = 0u32;
            for v in 0..comp.len() as VertexId {
                if st.status(v) == Status::Cand {
                    let mut d = 0u64;
                    comp.for_each_dissimilar(v, |w| d += (st.status(w) == Status::Cand) as u64);
                    dp += d;
                    if d == 0 {
                        sf += 1;
                    }
                }
            }
            prop_assert_eq!(st.dp_c_total(), dp / 2);
            prop_assert_eq!(st.sf_count(), sf);
        }
    }
}
