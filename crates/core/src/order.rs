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
use crate::search::{bits, mask_of, uses_words, SearchState, Status, Words};
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
    /// Scratch: the first hop `F` as a mask of `⌈n/64⌉` words, all clear
    /// between calls.
    in_first: Vec<u64>,
    /// Row words and entries the first-hop counts read so far.
    estimator_visits: u64,
    /// Runs [`Chooser::two_hop_stamp_walk`] in place of
    /// [`Chooser::two_hop`] (the reference the tests pin it to).
    #[cfg(test)]
    stamp_walk: bool,
}

impl Chooser {
    /// Builds a chooser from a config, for a component of `n` vertices.
    /// The per-vertex scratch is sized only for the counter layout; the
    /// one-word layout reads none of it.
    pub fn new(cfg: &AlgoConfig, n: usize) -> Self {
        let scratch = if uses_words(n) { 0 } else { n };
        Chooser {
            order: cfg.order,
            lambda: cfg.lambda,
            rng: StdRng::seed_from_u64(cfg.seed),
            drop: vec![0; scratch],
            stamp: vec![0; scratch],
            stamp_gen: 0,
            candidates: Vec::new(),
            first_hop: Vec::new(),
            touched: Vec::new(),
            in_first: vec![0; scratch.div_ceil(64)],
            estimator_visits: 0,
            #[cfg(test)]
            stamp_walk: false,
        }
    }

    /// Row words and entries the estimator's first-hop counts have read
    /// over this chooser's life ([`DissimilarityView::count_in_reads`]
    /// per count, one row word per first-hop member on the one-word
    /// layout): a deterministic work unit for
    /// [`SearchStats::estimator_visits`](crate::search::SearchStats).
    ///
    /// [`DissimilarityView::count_in_reads`]: kr_similarity::DissimilarityView::count_in_reads
    pub fn estimator_visits(&self) -> u64 {
        self.estimator_visits
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
        if let Some(w) = st.words() {
            let c = w.c();
            let cands = if include_sf {
                c
            } else {
                bits(c)
                    .filter(|&v| w.dis(v) & c != 0)
                    .fold(0, |acc, v| acc | 1 << v)
            };
            return self.choose_among(st, bits(cands));
        }
        // The reused list is taken out of `self` while the estimators
        // borrow `self` mutably, and put back before returning.
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        candidates.extend(
            (0..st.comp.len() as VertexId)
                .filter(|&v| st.status(v) == Status::Cand && (include_sf || st.dp_c(v) > 0)),
        );
        let chosen = self.choose_among(st, candidates.iter().copied());
        self.candidates = candidates;
        chosen
    }

    /// The choice of [`Chooser::choose`] among `candidates` (ascending).
    fn choose_among(
        &mut self,
        st: &SearchState<'_>,
        mut candidates: impl Iterator<Item = VertexId> + Clone,
    ) -> Option<(VertexId, FirstBranch)> {
        match self.order {
            SearchOrder::Random => {
                let len = candidates.clone().count();
                if len == 0 {
                    return None;
                }
                let v = candidates.nth(self.rng.random_range(0..len));
                v.map(|v| (v, FirstBranch::Expand))
            }
            SearchOrder::Degree => candidates
                .max_by_key(|&v| st.deg_mc(v))
                .map(|v| (v, FirstBranch::Expand)),
            SearchOrder::Delta1 => {
                self.choose_scored(st, candidates, |e| (e.expand.delta1 + e.shrink.delta1, 0.0))
            }
            SearchOrder::Delta2 => self.choose_scored(st, candidates, |e| {
                (-(e.expand.delta2 + e.shrink.delta2), 0.0)
            }),
            SearchOrder::Delta1ThenDelta2 => self.choose_scored(st, candidates, |e| {
                (
                    e.expand.delta1 + e.shrink.delta1,
                    -(e.expand.delta2 + e.shrink.delta2),
                )
            }),
            SearchOrder::LambdaDelta => {
                let (lambda, totals) = (self.lambda, node_totals(st));
                let mut best: Option<(VertexId, f64, FirstBranch)> = None;
                for v in candidates {
                    let est = self.estimate_with(st, v, totals);
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
        }
    }

    /// Lexicographic `(primary, secondary)` maximization over candidates.
    fn choose_scored(
        &mut self,
        st: &SearchState<'_>,
        candidates: impl Iterator<Item = VertexId>,
        score: impl Fn(&VertexEstimate) -> (f64, f64),
    ) -> Option<(VertexId, FirstBranch)> {
        let totals = node_totals(st);
        let mut best: Option<(VertexId, (f64, f64))> = None;
        for v in candidates {
            let est = self.estimate_with(st, v, totals);
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
        self.estimate_with(st, v, node_totals(st))
    }

    /// [`Chooser::estimate`] given the node's [`node_totals`].
    fn estimate_with(
        &mut self,
        st: &SearchState<'_>,
        v: VertexId,
        (dp_total, edges_total): (f64, f64),
    ) -> VertexEstimate {
        // Expand: first-hop removals are the candidates dissimilar to v.
        // Shrink: the first-hop removal is v itself.
        let ((dp_e, ed_e), (dp_s, ed_s)) = match st.words() {
            Some(w) => (
                self.two_hop_words(st.k, w, w.dis(v) & w.c()),
                self.two_hop_words(st.k, w, 1 << v),
            ),
            None => {
                let mut first_expand = std::mem::take(&mut self.first_hop);
                first_expand.clear();
                st.comp.for_each_dissimilar(v, |w| {
                    if st.status(w) == Status::Cand {
                        first_expand.push(w);
                    }
                });
                let expand = self.two_hop(st, &first_expand);
                self.first_hop = first_expand;
                (expand, self.two_hop(st, &[v]))
            }
        };
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
    ///
    /// `first ⊆ C` for both branches (the expand branch's candidates
    /// dissimilar to `v`, or `v` itself), so the dissimilar pairs inside
    /// it are `Σ_{d∈F} |dis(d) ∩ F| / 2`, counted by popcounts against
    /// `F`'s mask instead of walking each member's row.
    fn two_hop(&mut self, st: &SearchState<'_>, first: &[VertexId]) -> (f64, f64) {
        #[cfg(test)]
        if self.stamp_walk {
            return self.two_hop_stamp_walk(st, first);
        }
        if let Some(w) = st.words() {
            return self.two_hop_words(st.k, w, mask_of(first));
        }
        self.stamp_gen += 1;
        let gen = self.stamp_gen;
        let mut dp_removed = 0i64;
        let mut edges_removed = 0i64;
        for &d in first {
            self.stamp[d as usize] = gen;
        }
        // First hop: exact within-set corrections.
        if first.len() > 1 {
            dp_removed -= self.pairs_inside(st, first) as i64;
        }
        for &d in first {
            dp_removed += st.dp_c(d) as i64;
            edges_removed += st.deg_mc(d) as i64;
            // Edges fully inside the removed set are counted twice.
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

    /// Dissimilar pairs inside `first` (a set of candidates):
    /// `Σ_{d∈F} |dis(d) ∩ F| / 2` by [`DissimilarityView::count_in`]
    /// against `F`'s mask, which is cleared again before returning.
    ///
    /// [`DissimilarityView::count_in`]: kr_similarity::DissimilarityView::count_in
    fn pairs_inside(&mut self, st: &SearchState<'_>, first: &[VertexId]) -> usize {
        for &d in first {
            self.in_first[d as usize / 64] |= 1 << (d % 64);
        }
        let dis = st.comp.dissimilarity();
        let mut twice = 0usize;
        for &d in first {
            twice += dis.count_in(d, &self.in_first);
            self.estimator_visits += dis.count_in_reads(d) as u64;
        }
        for &d in first {
            self.in_first[d as usize / 64] = 0;
        }
        twice / 2
    }

    /// [`Chooser::two_hop`] on the one-word layout, `first` a mask of
    /// candidates: the same integers, each sum a popcount of a row word
    /// against `F`, `C` or `M ∪ C`. The first hop's inside pairs read one
    /// dissimilar row word per member, as [`Chooser::pairs_inside`] reads
    /// one bit-row word.
    fn two_hop_words(&mut self, k: u32, w: &Words<'_>, first: u64) -> (f64, f64) {
        let (c, mc) = (w.c(), w.mc());
        let mut dp_removed = 0i64;
        let mut edges_removed = 0i64;
        if first.count_ones() > 1 {
            let twice: u32 = bits(first).map(|d| (w.dis(d) & first).count_ones()).sum();
            dp_removed -= (twice / 2) as i64;
            self.estimator_visits += first.count_ones() as u64;
        }
        // First hop, and the candidates next to it.
        let (mut inside_twice, mut near) = (0u32, 0u64);
        for d in bits(first) {
            dp_removed += (w.dis(d) & c).count_ones() as i64;
            edges_removed += (w.adj(d) & mc).count_ones() as i64;
            inside_twice += (w.adj(d) & first).count_ones();
            near |= w.adj(d);
        }
        // Edges fully inside the removed set are counted twice.
        edges_removed -= (inside_twice / 2) as i64;
        // Second hop: a candidate whose degree falls below k.
        for x in bits(near & c & !first) {
            let deg = (w.adj(x) & mc).count_ones();
            if deg.saturating_sub((w.adj(x) & first).count_ones()) < k {
                dp_removed += (w.dis(x) & c).count_ones() as i64;
                edges_removed += deg as i64;
            }
        }
        (dp_removed.max(0) as f64, edges_removed.max(0) as f64)
    }

    /// [`Chooser::two_hop`] as this module computed it before
    /// [`Chooser::pairs_inside`]: the first hop's inside pairs found by
    /// walking each member's whole dissimilar row against the stamps.
    /// The reference the popcount count is pinned to.
    #[cfg(test)]
    fn two_hop_stamp_walk(&mut self, st: &SearchState<'_>, first: &[VertexId]) -> (f64, f64) {
        let n = st.comp.len();
        self.stamp.resize(n, 0);
        self.drop.resize(n, 0);
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

/// `(DP(C), |E(M ∪ C)|)` of the node, each at least 1: the bases of
/// `Δ1` and `Δ2`, read once per choice.
fn node_totals(st: &SearchState<'_>) -> (f64, f64) {
    (st.dp_c_total().max(1) as f64, st.edges_mc().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::LocalComponent;
    use crate::config::AlgoConfig;
    use crate::testing::{above_the_cutoff, random_component, random_walk, windowed_state};
    use proptest::prelude::*;

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

    const ORDERS: [SearchOrder; 6] = [
        SearchOrder::Random,
        SearchOrder::Degree,
        SearchOrder::Delta1,
        SearchOrder::Delta2,
        SearchOrder::Delta1ThenDelta2,
        SearchOrder::LambdaDelta,
    ];

    /// The popcount chooser against the stamp-walk reference on `st`:
    /// both branches' `two_hop` counts at every candidate, and the
    /// choice of every order, with and without similarity-free
    /// candidates (one chooser per side, the same seed). Returns how
    /// many candidates tie with the previous one on both branches.
    fn assert_matches_stamp_walk(st: &SearchState<'_>) -> usize {
        let n = st.comp.len();
        let cfg = AlgoConfig::adv_max();
        let (mut fast, mut reference) = (Chooser::new(&cfg, n), Chooser::new(&cfg, n));
        reference.stamp_walk = true;
        let cands = st.members(Status::Cand);
        let mut scores = Vec::new();
        for &v in &cands {
            let mut first = Vec::new();
            st.comp.for_each_dissimilar(v, |w| {
                if st.status(w) == Status::Cand {
                    first.push(w);
                }
            });
            let mut both = Vec::new();
            for f in [&first[..], &[v]] {
                let got = fast.two_hop(st, f);
                assert_eq!(got, reference.two_hop_stamp_walk(st, f), "v {v}, F {f:?}");
                both.push(got);
            }
            scores.push(both);
        }
        assert!(fast.estimator_visits() > 0 || cands.iter().all(|&v| st.dp_c(v) < 2));
        let ties = scores.windows(2).filter(|w| w[0] == w[1]).count();
        for order in ORDERS {
            let cfg = AlgoConfig::adv_enum().with_order(order);
            let (mut fast, mut reference) = (Chooser::new(&cfg, n), Chooser::new(&cfg, n));
            reference.stamp_walk = true;
            for include_sf in [false, true] {
                assert_eq!(
                    fast.choose(st, include_sf),
                    reference.choose(st, include_sf),
                    "{order:?}, include_sf {include_sf}"
                );
            }
        }
        ties
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Bit-row components at the 64-vertex word edges, dense and
        /// sparse in both pair kinds, at random search states.
        #[test]
        fn popcount_chooser_matches_stamp_walk_on_bit_rows(
            size in 0usize..6,
            p_edge in 0.02f64..0.3,
            p_dis in 0.01f64..0.9,
            k in 1u32..4,
            steps in 0usize..12,
            seed in 0u64..u64::MAX,
        ) {
            let n = [63, 64, 65, 127, 128, 129][size];
            let mut rng = StdRng::seed_from_u64(seed);
            let comp = random_component(&mut rng, n, p_edge, p_dis, k);
            prop_assert!(comp.dissimilarity().stores_similar());
            let st = random_walk(&comp, &mut rng, steps);
            assert_matches_stamp_walk(&st);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Above the bit-row cutoff, in both CSR polarities, at random
        /// nodes drawn from windows of consecutive ids.
        #[test]
        fn popcount_chooser_matches_stamp_walk_above_the_cutoff(
            side in 0usize..2,
            seed in 0u64..u64::MAX,
        ) {
            let comp = &above_the_cutoff()[side];
            prop_assert_eq!(comp.dissimilarity().stores_similar(), side == 0);
            let st = windowed_state(comp, &mut StdRng::seed_from_u64(seed), 150);
            assert_matches_stamp_walk(&st);
        }
    }

    /// A vertex-transitive component (a circulant ring: each vertex
    /// adjacent to its two nearest ring neighbours on each side and
    /// dissimilar to those 5 to 7 away) ties every candidate's
    /// estimates, so each order's choice is decided by its tie-break
    /// alone; both choosers must break the tie the same way.
    #[test]
    fn popcount_chooser_breaks_ties_like_stamp_walk() {
        for n in [64usize, 65, 129] {
            let ring = |offsets: &[usize]| -> Vec<Vec<VertexId>> {
                (0..n)
                    .map(|u| offsets.iter().map(|&d| ((u + d) % n) as VertexId).collect())
                    .collect()
            };
            let comp = LocalComponent::from_parts(ring(&[1, 2]), ring(&[5, 6, 7]), 2);
            let st = SearchState::new(&comp);
            let ties = assert_matches_stamp_walk(&st);
            assert_eq!(ties, n - 1, "n {n}");
        }
    }
}
