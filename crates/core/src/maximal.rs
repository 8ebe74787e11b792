//! Maximal check (Theorem 6, Algorithm 4).
//!
//! Given a freshly found (k,r)-core `R` and the relevant excluded set `E`
//! (plus any co-leaf vertices outside `R`), `R` is maximal iff no non-empty
//! subset `U` of those vertices yields a connected (k,r)-core `R ∪ U`.
//! Candidates dissimilar to `R` (Theorem 3) or short of `k` neighbors in
//! `R` plus the other candidates (Theorem 2) are dropped up front, on
//! plain marks; most checks end there. The rest are searched by the
//! search walker AdvEnum and AdvMax share, started from `M = R` and
//! `C` = the candidates, with the degree order and expand-first policy of
//! Section 7.4. The walk stops at the first Theorem 4 leaf whose piece
//! around `R` is strictly larger than `R`.

use crate::component::LocalComponent;
use crate::config::{AlgoConfig, CheckOrder, SearchOrder};
use crate::order::FirstBranch;
use crate::search::{bits, kcore_within, mask_of, uses_words, SearchState, SearchStats, Words};
use crate::walk::{Goal, Walker};
use kr_graph::VertexId;

/// Returns true iff `core` (local ids, a valid (k,r)-core of `comp`)
/// cannot be extended by any subset of `candidates` into a larger
/// (k,r)-core. `candidates` must cover every vertex that could possibly
/// extend `core` (Theorem 6's `E`, plus co-leaf vertices when applicable).
pub fn check_maximal(
    comp: &LocalComponent,
    k: u32,
    core: &[VertexId],
    candidates: &[VertexId],
) -> bool {
    check_maximal_with_order(comp, k, core, candidates, CheckOrder::Degree, 5.0)
}

/// [`check_maximal`] with an explicit candidate order — the ablation of
/// Figure 11(f). `order` selects the walker's [`SearchOrder`] inside the
/// check (`lambda` weighs [`SearchOrder::LambdaDelta`]).
pub fn check_maximal_with_order(
    comp: &LocalComponent,
    k: u32,
    core: &[VertexId],
    candidates: &[VertexId],
    order: CheckOrder,
    lambda: f64,
) -> bool {
    if uses_words(comp.len()) {
        let rows = Words::rows_of(comp);
        let (core, candidates) = (mask_of(core), mask_of(candidates));
        return check_maximal_words(comp, &rows, k, core, candidates, order, lambda);
    }
    // `live`: R plus the candidates still in play.
    let mut live = vec![false; comp.len()];
    for &v in core {
        live[v as usize] = true;
    }
    // Pre-filter: keep only candidates similar to every member of R, then
    // peel those short of k live neighbors.
    let mut cand: Vec<VertexId> = candidates
        .iter()
        .copied()
        .filter(|&x| !live[x as usize])
        .filter(|&x| !comp.any_dissimilar_where(x, |w| live[w as usize]))
        .collect();
    for &x in &cand {
        live[x as usize] = true;
    }
    let mut before = 0;
    while before != cand.len() {
        before = cand.len();
        cand.retain(|&x| {
            let nbrs = comp.neighbors(x);
            live[x as usize] = nbrs.iter().filter(|&&w| live[w as usize]).count() >= k as usize;
            live[x as usize]
        });
    }
    if cand.is_empty() {
        return true;
    }
    let st = SearchState::seeded(comp, k, core, &cand);
    !extends(st, core.iter().copied(), order, lambda)
}

/// [`check_maximal_with_order`] on the one-word layout: `core` and
/// `candidates` are masks, `rows` the component's `[adjacency,
/// dissimilar]` row words, which the check's search state borrows.
pub(crate) fn check_maximal_words(
    comp: &LocalComponent,
    rows: &[[u64; 2]],
    k: u32,
    core: u64,
    candidates: u64,
    order: CheckOrder,
    lambda: f64,
) -> bool {
    // Pre-filter: candidates similar to every member of R, peeled to
    // those with k neighbors in R and the candidates left.
    let similar = bits(candidates & !core)
        .filter(|&x| rows[x as usize][1] & core == 0)
        .fold(0u64, |acc, x| acc | 1 << x);
    let cand = kcore_within(rows, k, core, similar);
    if cand == 0 {
        return true;
    }
    let st = SearchState::seeded_words(comp, k, rows, core, cand);
    !extends(st, bits(core), order, lambda)
}

/// Searches below `st` (`M = R`, `C` = the filtered candidates) for a
/// (k,r)-core strictly larger than `R`, the vertices `core`.
fn extends(
    mut st: SearchState<'_>,
    core: impl Iterator<Item = VertexId> + Clone,
    order: CheckOrder,
    lambda: f64,
) -> bool {
    let cfg = AlgoConfig {
        order: match order {
            CheckOrder::Degree => SearchOrder::Degree,
            CheckOrder::Delta1ThenDelta2 => SearchOrder::Delta1ThenDelta2,
            CheckOrder::LambdaDelta => SearchOrder::LambdaDelta,
        },
        lambda,
        // Sound here too, but its per-node scans cost more than they cut.
        early_termination: false,
        ..AlgoConfig::adv_enum()
    };
    let goal = CheckGoal {
        inner: core.clone().map(|v| st.deg_m(v) as u64).sum(),
        core,
        found: false,
    };
    let mut walker = Walker::new(st.comp, &cfg, None, goal);
    walker.run_from(&mut st);
    walker.goal.found
}

/// The check side of the walk: every node keeps `R ⊆ M`, and the walk
/// stops at the first leaf that extends `R`.
struct CheckGoal<I> {
    /// The vertices of `R`.
    core: I,
    /// `Σ_{v ∈ R} deg(v, R)`, i.e. twice the edges inside `R`.
    inner: u64,
    found: bool,
}

impl<I: Iterator<Item = VertexId> + Clone> Goal for CheckGoal<I> {
    fn is_leaf(&self, st: &SearchState<'_>) -> bool {
        st.all_candidates_similarity_free()
    }

    /// A Theorem 4 leaf's `M ∪ C` is pairwise similar, so the piece holding
    /// the connected `R ⊆ M` is a (k,r)-core. It is larger than `R` iff
    /// some `R` vertex has a neighbor in `M ∪ C` outside `R`.
    fn leaf(&mut self, st: &SearchState<'_>, _stats: &mut SearchStats) {
        let reach: u64 = self.core.clone().map(|v| st.deg_mc(v) as u64).sum();
        self.found = reach > self.inner;
    }

    fn include_sf(&self) -> bool {
        false
    }

    fn expand_first(&self, _preferred: FirstBranch) -> bool {
        true
    }

    fn done(&self) -> bool {
        self.found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4-clique {0,1,2,3} all similar; k = 2.
    fn clique4() -> LocalComponent {
        LocalComponent::from_parts(
            vec![vec![1, 2, 3], vec![0, 2, 3], vec![0, 1, 3], vec![0, 1, 2]],
            vec![vec![]; 4],
            2,
        )
    }

    #[test]
    fn sub_triangle_not_maximal() {
        let comp = clique4();
        assert!(!check_maximal(&comp, 2, &[0, 1, 2], &[3]));
    }

    #[test]
    fn full_clique_maximal() {
        let comp = clique4();
        assert!(check_maximal(&comp, 2, &[0, 1, 2, 3], &[]));
    }

    #[test]
    fn dissimilar_candidate_cannot_extend() {
        // {0,1,2} triangle; 3 adjacent to all but dissimilar to 0.
        let comp = LocalComponent::from_parts(
            vec![vec![1, 2, 3], vec![0, 2, 3], vec![0, 1, 3], vec![0, 1, 2]],
            vec![vec![3], vec![], vec![], vec![0]],
            2,
        );
        assert!(check_maximal(&comp, 2, &[0, 1, 2], &[3]));
    }

    #[test]
    fn low_degree_candidate_cannot_extend() {
        // Triangle {0,1,2}; 3 attached only to 2 -> degree 1 < 2.
        let comp = LocalComponent::from_parts(
            vec![vec![1, 2], vec![0, 2], vec![0, 1, 3], vec![2]],
            vec![vec![]; 4],
            2,
        );
        assert!(check_maximal(&comp, 2, &[0, 1, 2], &[3]));
    }

    #[test]
    fn pair_of_candidates_extends_together() {
        // Example 6 pattern: neither 4 nor 5 alone extends the square
        // {0,1,2,3} (k = 2), but together they do.
        // Square 0-1-2-3-0; 4 adjacent to 0 and 5; 5 adjacent to 1 and 4.
        let comp = LocalComponent::from_parts(
            vec![
                vec![1, 3, 4],
                vec![0, 2, 5],
                vec![1, 3],
                vec![0, 2],
                vec![0, 5],
                vec![1, 4],
            ],
            vec![vec![]; 6],
            2,
        );
        assert!(!check_maximal(&comp, 2, &[0, 1, 2, 3], &[4, 5]));
        // Individually they die in the structure-prune fixpoint.
        assert!(check_maximal(&comp, 2, &[0, 1, 2, 3], &[4]));
        assert!(check_maximal(&comp, 2, &[0, 1, 2, 3], &[5]));
    }

    #[test]
    fn disconnected_extension_rejected() {
        // Triangle {0,1,2} plus a far triangle {3,4,5} with no edges
        // between them: even though degrees work out inside {3,4,5}, the
        // union is disconnected, so {0,1,2} stays maximal.
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
        assert!(check_maximal(&comp, 2, &[0, 1, 2], &[3, 4, 5]));
    }

    #[test]
    fn mutually_dissimilar_candidates_branch() {
        // Square {0,1,2,3}; 4 and 5 both could extend but are dissimilar
        // to each other AND each alone has degree 2 via the square.
        // 4 adjacent to 0,1; 5 adjacent to 2,3; dis(4,5).
        let comp = LocalComponent::from_parts(
            vec![
                vec![1, 3, 4],
                vec![0, 2, 4],
                vec![1, 3, 5],
                vec![0, 2, 5],
                vec![0, 1],
                vec![2, 3],
            ],
            vec![vec![], vec![], vec![], vec![], vec![5], vec![4]],
            2,
        );
        // {0,1,2,3,4} is a core (4 has degree 2) -> not maximal.
        assert!(!check_maximal(&comp, 2, &[0, 1, 2, 3], &[4, 5]));
    }
}
