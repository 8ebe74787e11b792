//! Fixtures the unit tests share: random components, random search
//! states on them, the two components above the bit-row cutoff, and a
//! switch to the counter layout.

use crate::component::LocalComponent;
use crate::search::{SearchState, Status, COUNTERS_ONLY};
use kr_graph::{Graph, VertexId};
use kr_similarity::{AttributeTable, DissimMode, Metric, TableOracle, Threshold};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `f` on the counter layout whatever the component size.
pub(crate) fn on_counters<T>(f: impl FnOnce() -> T) -> T {
    COUNTERS_ONLY.with(|c| c.set(true));
    let out = f();
    COUNTERS_ONLY.with(|c| c.set(false));
    out
}

/// A random component of `n` vertices: each pair adjacent with
/// probability `p_edge`, dissimilar with `p_dis`.
pub(crate) fn random_component(
    rng: &mut StdRng,
    n: usize,
    p_edge: f64,
    p_dis: f64,
    k: u32,
) -> LocalComponent {
    let (mut adj, mut dis) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(p_edge) {
                adj[u].push(v as VertexId);
            }
            if rng.random_bool(p_dis) {
                dis[u].push(v as VertexId);
            }
        }
    }
    LocalComponent::from_parts(adj, dis, k)
}

/// Random expand / shrink moves from the pruned root, each rolled back
/// when its cascade fails, until `steps` moves or no candidate is left.
pub(crate) fn random_walk<'a>(
    comp: &'a LocalComponent,
    rng: &mut StdRng,
    steps: usize,
) -> SearchState<'a> {
    let mut st = SearchState::new(comp);
    if !st.prune_root() {
        st.rollback(0);
    }
    for _ in 0..steps {
        let cands = st.members(Status::Cand);
        if cands.is_empty() {
            break;
        }
        let u = cands[rng.random_range(0..cands.len())];
        let m = st.mark();
        let ok = if rng.random_bool(0.5) {
            st.expand(u)
        } else {
            st.shrink(u)
        };
        if !ok {
            st.rollback(m);
        }
    }
    st
}

/// A node below the root of a large component: up to two chosen
/// vertices and the candidates, drawn from a window of `width`
/// consecutive ids, that are similar to every chosen one.
pub(crate) fn windowed_state<'a>(
    comp: &'a LocalComponent,
    rng: &mut StdRng,
    width: usize,
) -> SearchState<'a> {
    let start = rng.random_range(0..comp.len() - width) as VertexId;
    let window = start..start + width as VertexId;
    let chosen: Vec<VertexId> = (0..rng.random_range(0..3usize))
        .map(|_| rng.random_range(window.clone()))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let cands: Vec<VertexId> = window
        .filter(|v| !chosen.contains(v) && rng.random_bool(0.7))
        .filter(|&v| chosen.iter().all(|&c| !comp.are_dissimilar(c, v)))
        .collect();
    SearchState::seeded(comp, comp.k, &chosen, &cands)
}

/// Two components above the bit-row cutoff, one per CSR polarity,
/// built once: a dissimilarity-heavy component of point clusters (the
/// similar pairs stored) and a similarity-heavy one built from a few
/// dissimilar pairs per vertex (the dissimilar pairs stored).
pub(crate) fn above_the_cutoff() -> &'static [LocalComponent; 2] {
    static COMPS: std::sync::OnceLock<[LocalComponent; 2]> = std::sync::OnceLock::new();
    COMPS.get_or_init(|| {
        let n = kr_similarity::BIT_ROWS_MAX_N + 37;
        let mut rng = StdRng::seed_from_u64(7);
        let edges: Vec<(VertexId, VertexId)> = (0..3 * n as VertexId)
            .map(|i| {
                let u = i / 3;
                (u, (u + rng.random_range(1..24u32)) % n as VertexId)
            })
            .collect();
        // Clusters of 40 points, 4 apart, jittered: only nearby
        // clusters stay similar at r = 6.
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                (
                    (i / 40) as f64 * 4.0 + rng.random_range(0.0..3.0),
                    rng.random_range(0.0..1.0),
                )
            })
            .collect();
        let oracle = TableOracle::new(
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(6.0),
        );
        let members: Vec<VertexId> = (0..n as VertexId).collect();
        let graph = Graph::from_edges(n, &edges);
        let similar_side = LocalComponent::build(&graph, &oracle, &members, 2, DissimMode::Auto);
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in &edges {
            adj[u as usize].push(v);
        }
        let dis: Vec<Vec<VertexId>> = (0..n as VertexId)
            .map(|u| {
                (0..4)
                    .map(|_| (u + rng.random_range(1..60u32)) % n as VertexId)
                    .collect()
            })
            .collect();
        [similar_side, LocalComponent::from_parts(adj, dis, 2)]
    })
}
