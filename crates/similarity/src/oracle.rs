//! Similarity oracle and threshold semantics.
//!
//! Definition 2 of the paper calls two vertices *similar* when
//! `sim(u,v) >= r`; footnote 1 flips the comparison for distance metrics
//! (similar iff `dist(u,v) <= r`). [`Threshold`] captures both conventions
//! so every algorithm is metric-agnostic.

use crate::attributes::AttributeTable;
use crate::candidates::{AllPairs, CandidatePairs, GridCandidates, InvertedIndexCandidates};
use crate::metrics::Metric;
use kr_graph::VertexId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Threshold semantics for the similarity constraint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Threshold {
    /// Similar iff `sim(u,v) >= r` (Jaccard, weighted Jaccard, cosine).
    MinSimilarity(f64),
    /// Similar iff `dist(u,v) <= r` (Euclidean km thresholds in the paper).
    MaxDistance(f64),
}

impl Threshold {
    /// Applies the threshold to a raw metric value.
    #[inline]
    pub fn is_similar_value(self, value: f64) -> bool {
        match self {
            Threshold::MinSimilarity(r) => value >= r,
            Threshold::MaxDistance(r) => value <= r,
        }
    }

    /// The raw threshold value `r`.
    pub fn value(self) -> f64 {
        match self {
            Threshold::MinSimilarity(r) | Threshold::MaxDistance(r) => r,
        }
    }
}

/// A pairwise similarity oracle: everything the (k,r)-core algorithms need
/// to know about attributes.
pub trait SimilarityOracle {
    /// Raw metric value between `u` and `v`.
    fn value(&self, u: u32, v: u32) -> f64;

    /// Whether `u` and `v` satisfy the similarity constraint.
    fn is_similar(&self, u: u32, v: u32) -> bool;

    /// Sound candidate generation over `members` (global ids, renumbered
    /// to local indices `0..members.len()`): every pair the returned set
    /// omits is guaranteed dissimilar, so preprocessing only verifies the
    /// candidates. The default is the brute-force all-pairs set;
    /// [`TableOracle`] overrides it with a metric-aware index.
    fn candidates(&self, members: &[VertexId]) -> Box<dyn CandidatePairs> {
        Box::new(AllPairs::new(members.len()))
    }

    /// Appends [`value`](Self::value) for every pair `u < v` of `0..n`
    /// to `out`, row by row (`u` ascending, then `v` ascending). The
    /// default evaluates `value` per pair; [`TableOracle`] overrides it
    /// with a bit-identical row kernel for keyword metrics.
    fn pairwise_values(&self, n: usize, out: &mut Vec<f64>) {
        pairwise_values_by_value(self, n, out);
    }
}

/// The default [`SimilarityOracle::pairwise_values`]: one `value` call
/// per pair.
fn pairwise_values_by_value<O: SimilarityOracle + ?Sized>(
    oracle: &O,
    n: usize,
    out: &mut Vec<f64>,
) {
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            out.push(oracle.value(u, v));
        }
    }
}

/// Largest per-vertex keyword weight total the row kernel accepts: two
/// such totals sum to at most 2^53, so every partial sum the merge-based
/// metrics form is an exactly representable integer.
const MAX_KERNEL_TOTAL: u64 = 1 << 52;

/// Row kernel for [`Metric::Jaccard`] (`unweighted`) and
/// [`Metric::WeightedJaccard`] over all pairs of `lists`: appends the
/// same values as [`Metric::evaluate`], bit for bit, in
/// [`SimilarityOracle::pairwise_values`] order, and returns true.
///
/// Row `u` is scattered into a dense array indexed by remapped keyword;
/// each later `v` then costs one pass over its own list:
/// `num = Σ min(w_u, w_v)` and `den = W_u + W_v − num`, in `u64`. That
/// is exact only when every list is strictly ascending (the merge's view
/// of a set) and, for the weighted metric, every weight is an integer
/// `>= 0` with per-vertex total at most [`MAX_KERNEL_TOTAL`]: then every
/// `f64` partial sum in [`crate::metrics::weighted_jaccard`] is an exact
/// integer, so `num as f64 / den as f64` is the same IEEE division on the
/// same operands, and `den == 0` is the same two-empty-sets case. On any
/// other input it appends nothing and returns false.
fn keyword_pairwise_values(
    lists: &[Vec<(u32, f64)>],
    unweighted: bool,
    out: &mut Vec<f64>,
) -> bool {
    // Flat rows of (keyword, integer weight), then keywords remapped to
    // dense slots.
    let mut entries: Vec<(u32, u64)> = Vec::new();
    let mut offsets = vec![0];
    let mut totals = Vec::with_capacity(lists.len());
    for list in lists {
        if list.windows(2).any(|w| w[0].0 >= w[1].0) {
            return false;
        }
        let mut total = 0u64;
        for &(k, w) in list {
            let w = if unweighted { 1.0 } else { w };
            // Rejects NaN, infinities, negatives and fractions.
            if !(w >= 0.0 && w.fract() == 0.0 && w <= MAX_KERNEL_TOTAL as f64) {
                return false;
            }
            total += w as u64;
            if total > MAX_KERNEL_TOTAL {
                return false;
            }
            entries.push((k, w as u64));
        }
        totals.push(total);
        offsets.push(entries.len());
    }
    let mut keywords: Vec<u32> = entries.iter().map(|&(k, _)| k).collect();
    keywords.sort_unstable();
    keywords.dedup();
    for e in &mut entries {
        e.0 = keywords.binary_search(&e.0).expect("keyword was collected") as u32;
    }
    let row = |v: usize| &entries[offsets[v]..offsets[v + 1]];
    let mut dense = vec![0u64; keywords.len()];
    for u in 0..lists.len() {
        for &(s, w) in row(u) {
            dense[s as usize] = w;
        }
        for v in (u + 1)..lists.len() {
            let num: u64 = row(v).iter().map(|&(s, w)| dense[s as usize].min(w)).sum();
            let den = totals[u] + totals[v] - num;
            out.push(if den == 0 {
                1.0
            } else {
                num as f64 / den as f64
            });
        }
        for &(s, _) in row(u) {
            dense[s as usize] = 0;
        }
    }
    true
}

/// The standard oracle: an [`AttributeTable`], a [`Metric`], and a
/// [`Threshold`].
///
/// The table sits behind an [`Arc`], so cloning the oracle — as every
/// step of an r-sweep does via [`TableOracle::with_threshold`] — shares
/// the attribute storage instead of deep-copying it.
#[derive(Debug, Clone)]
pub struct TableOracle {
    attrs: Arc<AttributeTable>,
    metric: Metric,
    threshold: Threshold,
}

impl TableOracle {
    /// Creates an oracle.
    ///
    /// # Panics
    /// Panics when the threshold direction contradicts the metric family
    /// (a distance metric with `MinSimilarity`, or vice versa) — a nearly
    /// certain configuration bug.
    pub fn new(attrs: AttributeTable, metric: Metric, threshold: Threshold) -> Self {
        TableOracle::from_shared(Arc::new(attrs), metric, threshold)
    }

    /// [`TableOracle::new`] over an already-shared table (no copy).
    ///
    /// # Panics
    /// Same contract as [`TableOracle::new`].
    pub fn from_shared(attrs: Arc<AttributeTable>, metric: Metric, threshold: Threshold) -> Self {
        match (metric.is_distance(), threshold) {
            (true, Threshold::MinSimilarity(_)) => {
                panic!("distance metric {metric:?} needs Threshold::MaxDistance")
            }
            (false, Threshold::MaxDistance(_)) => {
                panic!("similarity metric {metric:?} needs Threshold::MinSimilarity")
            }
            _ => {}
        }
        TableOracle {
            attrs,
            metric,
            threshold,
        }
    }

    /// The attribute table.
    pub fn attributes(&self) -> &AttributeTable {
        &self.attrs
    }

    /// The metric in use.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The threshold in use.
    pub fn threshold(&self) -> Threshold {
        self.threshold
    }

    /// Returns a copy of this oracle with a different threshold (used by
    /// parameter sweeps over `r`). The attribute table is shared, not
    /// copied.
    pub fn with_threshold(&self, threshold: Threshold) -> Self {
        TableOracle::from_shared(self.attrs.clone(), self.metric, threshold)
    }
}

impl SimilarityOracle for TableOracle {
    #[inline]
    fn value(&self, u: u32, v: u32) -> f64 {
        self.metric.evaluate(&self.attrs, u, v)
    }

    #[inline]
    fn is_similar(&self, u: u32, v: u32) -> bool {
        self.threshold.is_similar_value(self.value(u, v))
    }

    /// Metric-aware candidate index: a spatial grid for Euclidean points,
    /// an inverted keyword index for (weighted) Jaccard, and brute force
    /// for everything else (Cosine, mismatched attribute families, or
    /// inputs outside an index's soundness preconditions).
    fn candidates(&self, members: &[VertexId]) -> Box<dyn CandidatePairs> {
        match (self.metric, &*self.attrs, self.threshold) {
            (Metric::Euclidean, AttributeTable::Points(pts), Threshold::MaxDistance(r)) => {
                let member_pts: Vec<(f64, f64)> =
                    members.iter().map(|&g| pts[g as usize]).collect();
                match GridCandidates::try_new(&member_pts, r) {
                    Some(grid) => Box::new(grid),
                    None => Box::new(AllPairs::new(members.len())),
                }
            }
            (
                m @ (Metric::Jaccard | Metric::WeightedJaccard),
                AttributeTable::Keywords(lists),
                Threshold::MinSimilarity(r),
            ) => {
                let member_lists: Vec<&[(u32, f64)]> = members
                    .iter()
                    .map(|&g| lists[g as usize].as_slice())
                    .collect();
                match InvertedIndexCandidates::try_new(&member_lists, m == Metric::Jaccard, r) {
                    Some(ix) => Box::new(ix),
                    None => Box::new(AllPairs::new(members.len())),
                }
            }
            _ => Box::new(AllPairs::new(members.len())),
        }
    }

    /// The keyword row kernel for (weighted) Jaccard when its exactness
    /// preconditions hold, the per-pair default otherwise.
    fn pairwise_values(&self, n: usize, out: &mut Vec<f64>) {
        if let (m @ (Metric::Jaccard | Metric::WeightedJaccard), AttributeTable::Keywords(lists)) =
            (self.metric, &*self.attrs)
        {
            if keyword_pairwise_values(&lists[..n], m == Metric::Jaccard, out) {
                return;
            }
        }
        pairwise_values_by_value(self, n, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn threshold_directions() {
        assert!(Threshold::MinSimilarity(0.5).is_similar_value(0.5));
        assert!(Threshold::MinSimilarity(0.5).is_similar_value(0.9));
        assert!(!Threshold::MinSimilarity(0.5).is_similar_value(0.4));
        assert!(Threshold::MaxDistance(10.0).is_similar_value(10.0));
        assert!(Threshold::MaxDistance(10.0).is_similar_value(3.0));
        assert!(!Threshold::MaxDistance(10.0).is_similar_value(11.0));
    }

    #[test]
    fn oracle_geo() {
        let o = TableOracle::new(
            AttributeTable::points(vec![(0.0, 0.0), (3.0, 4.0), (100.0, 0.0)]),
            Metric::Euclidean,
            Threshold::MaxDistance(10.0),
        );
        assert!(o.is_similar(0, 1));
        assert!(!o.is_similar(0, 2));
        assert_eq!(o.threshold().value(), 10.0);
    }

    #[test]
    fn oracle_keywords() {
        let o = TableOracle::new(
            AttributeTable::keywords(vec![vec![(1, 1.0)], vec![(1, 1.0)], vec![(2, 1.0)]]),
            Metric::WeightedJaccard,
            Threshold::MinSimilarity(0.5),
        );
        assert!(o.is_similar(0, 1));
        assert!(!o.is_similar(0, 2));
    }

    #[test]
    fn with_threshold_swaps_r() {
        let o = TableOracle::new(
            AttributeTable::points(vec![(0.0, 0.0), (5.0, 0.0)]),
            Metric::Euclidean,
            Threshold::MaxDistance(1.0),
        );
        assert!(!o.is_similar(0, 1));
        let o2 = o.with_threshold(Threshold::MaxDistance(6.0));
        assert!(o2.is_similar(0, 1));
    }

    #[test]
    fn with_threshold_shares_the_table() {
        let o = TableOracle::new(
            AttributeTable::points(vec![(0.0, 0.0); 4]),
            Metric::Euclidean,
            Threshold::MaxDistance(1.0),
        );
        let o2 = o.with_threshold(Threshold::MaxDistance(2.0));
        // Same allocation behind both oracles: an r-sweep step must not
        // deep-copy the attribute table.
        assert!(std::ptr::eq(o.attributes(), o2.attributes()));
    }

    #[test]
    fn candidate_strategy_follows_metric() {
        let geo = TableOracle::new(
            AttributeTable::points(vec![(0.0, 0.0), (1.0, 1.0)]),
            Metric::Euclidean,
            Threshold::MaxDistance(5.0),
        );
        assert_eq!(geo.candidates(&[0, 1]).strategy(), "grid");
        let kw = TableOracle::new(
            AttributeTable::keywords(vec![vec![(1, 1.0)], vec![(2, 1.0)]]),
            Metric::WeightedJaccard,
            Threshold::MinSimilarity(0.5),
        );
        assert_eq!(kw.candidates(&[0, 1]).strategy(), "inverted");
        // r = 0 keeps similarity-0 pairs similar: index preconditions
        // fail, brute force takes over.
        let loose = kw.with_threshold(Threshold::MinSimilarity(0.0));
        assert_eq!(loose.candidates(&[0, 1]).strategy(), "all-pairs");
        let cos = TableOracle::new(
            AttributeTable::vectors(vec![vec![1.0, 0.0], vec![0.0, 1.0]]),
            Metric::Cosine,
            Threshold::MinSimilarity(0.5),
        );
        assert_eq!(cos.candidates(&[0, 1]).strategy(), "all-pairs");
    }

    /// `Metric::evaluate` over every pair `u < v`, as raw bits.
    fn nested_evaluate_bits(o: &TableOracle, n: usize) -> Vec<u64> {
        let mut want = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                want.push(o.metric().evaluate(o.attributes(), u, v).to_bits());
            }
        }
        want
    }

    fn pairwise_bits(o: &TableOracle, n: usize) -> Vec<u64> {
        let mut got = Vec::new();
        o.pairwise_values(n, &mut got);
        got.iter().map(|x| x.to_bits()).collect()
    }

    fn keyword_oracle(lists: Vec<Vec<(u32, f64)>>, metric: Metric) -> TableOracle {
        TableOracle::new(
            AttributeTable::keywords(lists),
            metric,
            Threshold::MinSimilarity(0.5),
        )
    }

    #[test]
    fn keyword_kernel_runs_only_under_its_preconditions() {
        let mut out = Vec::new();
        let integral = vec![vec![(1, 2.0), (4, 0.0)], vec![], vec![(4, 3.0)]];
        assert!(keyword_pairwise_values(&integral, false, &mut out));
        assert_eq!(out.len(), 3);
        out.clear();
        for bad in [
            vec![vec![(1, 0.5)]],
            vec![vec![(1, -1.0)]],
            vec![vec![(1, f64::NAN)]],
            vec![vec![(1, f64::INFINITY)]],
            vec![vec![(1, (1u64 << 52) as f64), (2, 1.0)]],
            vec![vec![(2, 1.0), (1, 1.0)]],
            vec![vec![(1, 1.0), (1, 1.0)]],
        ] {
            assert!(!keyword_pairwise_values(&bad, false, &mut out), "{bad:?}");
            assert!(out.is_empty());
        }
        // Unweighted Jaccard ignores weights, so only the order matters.
        assert!(keyword_pairwise_values(&[vec![(1, 0.5)]], true, &mut out));
        assert!(!keyword_pairwise_values(
            &[vec![(2, 1.0), (1, 1.0)]],
            true,
            &mut out
        ));
    }

    #[test]
    fn unsorted_keyword_lists_take_the_fallback() {
        // Built around the sorting constructor: the merge and the kernel
        // would disagree here, so the default loop must answer.
        let o = TableOracle::new(
            AttributeTable::Keywords(vec![vec![(3, 1.0), (1, 2.0)], vec![(1, 1.0), (3, 1.0)]]),
            Metric::WeightedJaccard,
            Threshold::MinSimilarity(0.5),
        );
        assert_eq!(pairwise_bits(&o, 2), nested_evaluate_bits(&o, 2));
    }

    #[test]
    fn two_empty_lists_are_identical() {
        for metric in [Metric::Jaccard, Metric::WeightedJaccard] {
            let o = keyword_oracle(vec![vec![], vec![], vec![(1, 0.0)], vec![(1, 2.0)]], metric);
            assert_eq!(pairwise_bits(&o, 4), nested_evaluate_bits(&o, 4));
            let mut vals = Vec::new();
            o.pairwise_values(2, &mut vals);
            assert_eq!(vals, vec![1.0]);
        }
    }

    /// Integer weights (the kernel), fractional ones (the fallback),
    /// zero weights and empty lists.
    fn arb_lists() -> impl Strategy<Value = Vec<Vec<(u32, f64)>>> {
        let weight = prop_oneof![
            (0u32..6).prop_map(f64::from),
            Just(0.0),
            0.01f64..4.0,
            Just(1e15),
        ];
        let list = proptest::collection::vec((0u32..12, weight), 0..7);
        (proptest::collection::vec(list, 2..16), false..true).prop_map(|(mut lists, fractional)| {
            if !fractional {
                for l in &mut lists {
                    for e in l.iter_mut() {
                        e.1 = e.1.round();
                    }
                }
            }
            lists
        })
    }

    proptest! {
        #[test]
        fn keyword_pairwise_values_equal_evaluate_bitwise(
            lists in arb_lists(),
            unweighted in false..true,
        ) {
            let n = lists.len();
            let metric = if unweighted { Metric::Jaccard } else { Metric::WeightedJaccard };
            let o = keyword_oracle(lists, metric);
            prop_assert_eq!(pairwise_bits(&o, n), nested_evaluate_bits(&o, n));
            // A prefix of the vertices is a smaller, self-contained pass.
            prop_assert_eq!(pairwise_bits(&o, n - 1), nested_evaluate_bits(&o, n - 1));
        }

        #[test]
        fn point_pairwise_values_equal_evaluate_bitwise(
            pts in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 2..16),
        ) {
            let n = pts.len();
            let o = TableOracle::new(
                AttributeTable::points(pts),
                Metric::Euclidean,
                Threshold::MaxDistance(1.0),
            );
            prop_assert_eq!(pairwise_bits(&o, n), nested_evaluate_bits(&o, n));
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_threshold_panics() {
        TableOracle::new(
            AttributeTable::points(vec![]),
            Metric::Euclidean,
            Threshold::MinSimilarity(0.5),
        );
    }
}
