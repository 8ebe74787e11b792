//! Search orders (Section 7).
//!
//! Two decisions are made at every internal node: *which* vertex of
//! `C \ SF(C)` to branch on, and (for the maximum search) *which branch*
//! to explore first. Section 7.1 proposes two measurements per candidate
//! branch:
//!
//! * `Δ1` — the fraction of dissimilar pairs of `C` the branch removes
//!   (progress toward the similarity constraint);
//! * `Δ2` — the fraction of edges of `M ∪ C` the branch removes (loss of
//!   structure / solution mass).
//!
//! Exact values would require running the full prune cascade; the paper
//! (and we) estimate them by a *two-hop* simulation around the chosen
//! vertex: first-hop removals are exact, second-hop removals count
//! candidates whose degree provably falls below `k` given the first hop.

use crate::config::{AlgoConfig, SearchOrder};
use crate::search::{SearchState, Status};
use kr_graph::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-branch `Δ1`/`Δ2` estimates for one candidate vertex.
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchEstimate {
    /// Estimated fraction of `DP(C)` removed.
    pub delta1: f64,
    /// Estimated fraction of `|E(M ∪ C)|` removed.
    pub delta2: f64,
}

/// Estimates for both branches of a candidate.
#[derive(Debug, Clone, Copy, Default)]
pub struct VertexEstimate {
    /// Expand branch (`u → M`, dissimilar candidates evicted).
    pub expand: BranchEstimate,
    /// Shrink branch (`u` removed).
    pub shrink: BranchEstimate,
}

/// Which branch to explore first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstBranch {
    /// Expand before shrink.
    Expand,
    /// Shrink before expand.
    Shrink,
}

/// Stateful vertex chooser (owns the RNG for [`SearchOrder::Random`] and
/// scratch buffers for the estimators).
pub struct Chooser {
    order: SearchOrder,
    lambda: f64,
    rng: StdRng,
    /// Scratch: per-vertex degree-drop accumulator for the 2-hop pass.
    drop: Vec<u32>,
    /// Scratch: stamp marking first-hop removals.
    stamp: Vec<u32>,
    stamp_gen: u32,
    /// Scratch: the branching candidates of the node being chosen at.
    candidates: Vec<VertexId>,
    /// Scratch: the expand branch's first-hop removals.
    first_hop: Vec<VertexId>,
    /// Scratch: second-hop vertices whose degree drop is pending.
    touched: Vec<VertexId>,
}

impl Chooser {
    /// Builds a chooser from a config.
    pub fn new(cfg: &AlgoConfig, n: usize) -> Self {
        Chooser {
            order: cfg.order,
            lambda: cfg.lambda,
            rng: StdRng::seed_from_u64(cfg.seed),
            drop: vec![0; n],
            stamp: vec![0; n],
            stamp_gen: 0,
            candidates: Vec::new(),
            first_hop: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Picks the next branching vertex among `C \ SF(C)` (or all of `C`
    /// when `include_sf` — used by configurations without Theorem 4).
    /// Returns the vertex and the preferred branch under the
    /// `λΔ1 − Δ2` policy (callers with fixed policies ignore it).
    pub fn choose(
        &mut self,
        st: &SearchState<'_>,
        include_sf: bool,
    ) -> Option<(VertexId, FirstBranch)> {
        // The reused list is taken out of `self` while the estimators
        // borrow `self` mutably, and put back before returning.
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        candidates.extend(
            (0..st.comp.len() as VertexId)
                .filter(|&v| st.status(v) == Status::Cand && (include_sf || st.dp_c(v) > 0)),
        );
        let chosen = match self.order {
            _ if candidates.is_empty() => None,
            SearchOrder::Random => {
                let v = candidates[self.rng.random_range(0..candidates.len())];
                Some((v, FirstBranch::Expand))
            }
            SearchOrder::Degree => {
                let v = candidates
                    .iter()
                    .copied()
                    .max_by_key(|&v| st.deg_mc(v))
                    .expect("non-empty");
                Some((v, FirstBranch::Expand))
            }
            SearchOrder::Delta1 => self.choose_scored(st, &candidates, |e| {
                (e.expand.delta1 + e.shrink.delta1, 0.0)
            }),
            SearchOrder::Delta2 => self.choose_scored(st, &candidates, |e| {
                (-(e.expand.delta2 + e.shrink.delta2), 0.0)
            }),
            SearchOrder::Delta1ThenDelta2 => self.choose_scored(st, &candidates, |e| {
                (
                    e.expand.delta1 + e.shrink.delta1,
                    -(e.expand.delta2 + e.shrink.delta2),
                )
            }),
            SearchOrder::LambdaDelta => {
                let lambda = self.lambda;
                let mut best: Option<(VertexId, f64, FirstBranch)> = None;
                for &v in &candidates {
                    let est = self.estimate(st, v);
                    let se = lambda * est.expand.delta1 - est.expand.delta2;
                    let ss = lambda * est.shrink.delta1 - est.shrink.delta2;
                    let (score, first) = if se >= ss {
                        (se, FirstBranch::Expand)
                    } else {
                        (ss, FirstBranch::Shrink)
                    };
                    if best.is_none_or(|(_, bs, _)| score > bs) {
                        best = Some((v, score, first));
                    }
                }
                best.map(|(v, _, f)| (v, f))
            }
        };
        self.candidates = candidates;
        chosen
    }

    /// Lexicographic `(primary, secondary)` maximization over candidates.
    fn choose_scored(
        &mut self,
        st: &SearchState<'_>,
        candidates: &[VertexId],
        score: impl Fn(&VertexEstimate) -> (f64, f64),
    ) -> Option<(VertexId, FirstBranch)> {
        let mut best: Option<(VertexId, (f64, f64))> = None;
        for &v in candidates {
            let est = self.estimate(st, v);
            let s = score(&est);
            let better = match best {
                None => true,
                Some((_, bs)) => s.0 > bs.0 + 1e-12 || ((s.0 - bs.0).abs() <= 1e-12 && s.1 > bs.1),
            };
            if better {
                best = Some((v, s));
            }
        }
        best.map(|(v, _)| (v, FirstBranch::Expand))
    }

    /// Two-hop `Δ1`/`Δ2` estimates for branching on `v`.
    pub fn estimate(&mut self, st: &SearchState<'_>, v: VertexId) -> VertexEstimate {
        let dp_total = st.dp_c_total().max(1) as f64;
        let edges_total = st.edges_mc().max(1) as f64;
        // Expand: first-hop removals are the candidates dissimilar to v
        // (streamed — ordering heuristics never materialize lazy rows).
        let mut first_expand = std::mem::take(&mut self.first_hop);
        first_expand.clear();
        st.comp.for_each_dissimilar(v, |w| {
            if st.status(w) == Status::Cand {
                first_expand.push(w);
            }
        });
        let (dp_e, ed_e) = self.two_hop(st, &first_expand);
        self.first_hop = first_expand;
        // Shrink: the first-hop removal is v itself.
        let (dp_s, ed_s) = self.two_hop(st, &[v]);
        VertexEstimate {
            expand: BranchEstimate {
                delta1: dp_e / dp_total,
                delta2: ed_e / edges_total,
            },
            shrink: BranchEstimate {
                delta1: dp_s / dp_total,
                delta2: ed_s / edges_total,
            },
        }
    }

    /// Counts dissimilar pairs and edges removed by deleting `first` and
    /// then every candidate neighbor whose degree falls below `k`
    /// (one extra hop). Double counts inside the removed set are corrected
    /// for the first hop; the second hop is a heuristic over-count, which
    /// is fine for ordering purposes.
    fn two_hop(&mut self, st: &SearchState<'_>, first: &[VertexId]) -> (f64, f64) {
        self.stamp_gen += 1;
        let gen = self.stamp_gen;
        let mut dp_removed = 0i64;
        let mut edges_removed = 0i64;
        for &d in first {
            self.stamp[d as usize] = gen;
        }
        // First hop: exact within-set corrections.
        for &d in first {
            dp_removed += st.dp_c(d) as i64;
            edges_removed += st.deg_mc(d) as i64;
            // Pairs/edges fully inside the removed set are counted twice.
            st.comp.for_each_dissimilar(d, |w| {
                if self.stamp[w as usize] == gen && w > d && st.status(w) == Status::Cand {
                    dp_removed -= 1;
                }
            });
            for &w in st.comp.neighbors(d) {
                if self.stamp[w as usize] == gen && w > d {
                    edges_removed -= 1;
                }
            }
        }
        // Second hop: accumulate degree drops on surviving neighbors.
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        for &d in first {
            for &w in st.comp.neighbors(d) {
                let wi = w as usize;
                if self.stamp[wi] != gen && matches!(st.status(w), Status::Cand) {
                    if self.drop[wi] == 0 {
                        touched.push(w);
                    }
                    self.drop[wi] += 1;
                }
            }
        }
        for &w in &touched {
            let wi = w as usize;
            if st.deg_mc(w).saturating_sub(self.drop[wi]) < st.k {
                // w would be cascaded out as well.
                dp_removed += st.dp_c(w) as i64;
                edges_removed += st.deg_mc(w) as i64;
            }
            self.drop[wi] = 0;
        }
        self.touched = touched;
        (dp_removed.max(0) as f64, edges_removed.max(0) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::LocalComponent;
    use crate::config::AlgoConfig;

    /// 4-clique (0..4) + vertex 4 tied to 2,3; dissimilar pair (0,4).
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
    fn chooser_skips_sf_vertices() {
        let comp = fixture();
        let st = SearchState::new(&comp);
        let cfg = AlgoConfig::adv_enum();
        let mut ch = Chooser::new(&cfg, comp.len());
        let (v, _) = ch.choose(&st, false).unwrap();
        // Only 0 and 4 have dissimilar partners.
        assert!(v == 0 || v == 4, "chose {v}");
    }

    #[test]
    fn chooser_include_sf_allows_all() {
        let comp = fixture();
        let st = SearchState::new(&comp);
        let cfg = AlgoConfig::basic_enum().with_order(SearchOrder::Degree);
        let mut ch = Chooser::new(&cfg, comp.len());
        let (v, _) = ch.choose(&st, true).unwrap();
        // Highest degree overall: 2 or 3 (degree 4).
        assert!(v == 2 || v == 3);
    }

    #[test]
    fn estimates_positive_on_dissimilar_vertex() {
        let comp = fixture();
        let st = SearchState::new(&comp);
        let cfg = AlgoConfig::adv_max();
        let mut ch = Chooser::new(&cfg, comp.len());
        let est = ch.estimate(&st, 0);
        // Expanding 0 evicts 4 -> removes the single dissimilar pair.
        assert!(est.expand.delta1 > 0.99, "delta1 {:?}", est.expand.delta1);
        assert!(est.expand.delta2 > 0.0);
        // Shrinking 0 removes the pair too (0 is one endpoint).
        assert!(est.shrink.delta1 > 0.99);
    }

    #[test]
    fn all_orders_return_some() {
        let comp = fixture();
        let st = SearchState::new(&comp);
        for order in [
            SearchOrder::Random,
            SearchOrder::Degree,
            SearchOrder::Delta1,
            SearchOrder::Delta2,
            SearchOrder::Delta1ThenDelta2,
            SearchOrder::LambdaDelta,
        ] {
            let cfg = AlgoConfig::adv_enum().with_order(order);
            let mut ch = Chooser::new(&cfg, comp.len());
            assert!(ch.choose(&st, false).is_some(), "{order:?}");
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let comp = fixture();
        let st = SearchState::new(&comp);
        let cfg = AlgoConfig::adv_enum().with_order(SearchOrder::Random);
        let mut a = Chooser::new(&cfg, comp.len());
        let mut b = Chooser::new(&cfg, comp.len());
        for _ in 0..5 {
            assert_eq!(
                a.choose(&st, true).unwrap().0,
                b.choose(&st, true).unwrap().0
            );
        }
    }

    #[test]
    fn empty_candidates_none() {
        let comp = LocalComponent::from_parts(vec![vec![1], vec![0]], vec![vec![], vec![]], 1);
        let mut st = SearchState::new(&comp);
        st.set_status(0, Status::Chosen);
        st.set_status(1, Status::Chosen);
        let cfg = AlgoConfig::adv_enum();
        let mut ch = Chooser::new(&cfg, comp.len());
        assert!(ch.choose(&st, true).is_none());
    }
}
