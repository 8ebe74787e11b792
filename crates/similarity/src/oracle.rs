//! Similarity oracle and threshold semantics.
//!
//! Definition 2 of the paper calls two vertices *similar* when
//! `sim(u,v) >= r`; footnote 1 flips the comparison for distance metrics
//! (similar iff `dist(u,v) <= r`). [`Threshold`] captures both conventions
//! so every algorithm is metric-agnostic.

use crate::attributes::AttributeTable;
use crate::candidates::{AllPairs, CandidatePairs, GridCandidates, InvertedIndexCandidates};
use crate::metrics::Metric;
use crate::quantile::{quantiles_from_runs, select_from_top};
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

    /// Exact `q`-quantiles from the top of [`value`](Self::value) over
    /// every pair `u < v` of `0..n`, one per entry of `qs` (see
    /// [`crate::quantile::similarity_quantiles_exact`], which checks
    /// `n >= 2` and every `0 < q <= 1`). The default streams the
    /// `n(n-1)/2` values twice through the rank select, storing none per
    /// pair; [`TableOracle`] overrides it with a bit-identical counting
    /// kernel for keyword metrics.
    fn pairwise_quantiles(&self, n: usize, qs: &[f64]) -> Vec<f64> {
        pairwise_quantiles_by_value(self, n, qs)
    }
}

/// The default [`SimilarityOracle::pairwise_quantiles`]: one `value`
/// call per pair on each of the rank select's two passes.
fn pairwise_quantiles_by_value<O: SimilarityOracle + ?Sized>(
    oracle: &O,
    n: usize,
    qs: &[f64],
) -> Vec<f64> {
    select_from_top(qs, |select| {
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                select.push(oracle.value(u, v));
            }
        }
    })
}

/// Largest per-vertex keyword weight total the keyword kernel accepts: two
/// such totals sum to at most 2^53, so every partial sum the merge-based
/// metrics form is an exactly representable integer.
const MAX_KERNEL_TOTAL: u64 = 1 << 52;

/// Largest pair denominator — twice the largest per-vertex weight
/// total — for which [`KeywordRows::quantiles`] may count `(num, den)`
/// pairs in a dense `(den + 1)²` table (at most ~2 MiB of counters)
/// instead of streaming the pairs' values through the rank select. It
/// also needs no more cells than there are pairs.
const MAX_TALLY_DEN: u64 = 512;

/// The keyword kernel for [`Metric::Jaccard`] (`unweighted`) and
/// [`Metric::WeightedJaccard`]: every list as a row of dense keyword
/// slots plus its integer weight total, and every slot's posting list of
/// (vertex, integer weight) entries in ascending vertex order.
///
/// For each `u` in turn, the postings of `u`'s keywords after `u`
/// accumulate `num[v] = Σ min(w_u, w_v)` for every later `v`, and
/// `den = W_u + W_v − num`, in `u64`. That is exact only when every
/// list is strictly ascending (the merge's view of a set) and, for the
/// weighted metric, every weight is an integer `>= 0` with per-vertex
/// total at most [`MAX_KERNEL_TOTAL`]: then every `f64` partial sum in
/// [`crate::metrics::weighted_jaccard`] is an exact integer, so
/// [`ratio`]`(num, den)` is the same IEEE division on the same operands
/// as [`Metric::evaluate`], and `den == 0` is the same two-empty-sets
/// case.
struct KeywordRows {
    /// The slot of every list entry, row after row.
    slots: Vec<u32>,
    /// Row `v` is `slots[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    /// Per-row weight total.
    totals: Vec<u64>,
    /// `(vertex, weight)` of every list entry, slot after slot, vertices
    /// ascending within a slot.
    postings: Vec<(u32, u64)>,
    /// Slot `s` posts `postings[posting_offsets[s]..posting_offsets[s + 1]]`.
    posting_offsets: Vec<usize>,
}

impl KeywordRows {
    /// The rows of `lists`, or `None` when an input breaks the kernel's
    /// exactness preconditions.
    fn new(lists: &[Vec<(u32, f64)>], unweighted: bool) -> Option<Self> {
        let mut slots: Vec<u32> = Vec::new();
        let mut weights: Vec<u64> = Vec::new();
        let mut offsets = vec![0];
        let mut totals = Vec::with_capacity(lists.len());
        for list in lists {
            if list.windows(2).any(|w| w[0].0 >= w[1].0) {
                return None;
            }
            let mut total = 0u64;
            for &(k, w) in list {
                let w = if unweighted { 1.0 } else { w };
                // Rejects NaN, infinities, negatives and fractions.
                if !(w >= 0.0 && w.fract() == 0.0 && w <= MAX_KERNEL_TOTAL as f64) {
                    return None;
                }
                total += w as u64;
                if total > MAX_KERNEL_TOTAL {
                    return None;
                }
                slots.push(k);
                weights.push(w as u64);
            }
            totals.push(total);
            offsets.push(slots.len());
        }
        let mut keywords = slots.clone();
        keywords.sort_unstable();
        keywords.dedup();
        let mut posting_offsets = vec![0; keywords.len() + 1];
        for k in &mut slots {
            *k = keywords.binary_search(k).expect("keyword was collected") as u32;
            posting_offsets[*k as usize + 1] += 1;
        }
        for s in 0..keywords.len() {
            posting_offsets[s + 1] += posting_offsets[s];
        }
        // Filled row by row, so each slot lists its vertices ascending.
        let mut fill = posting_offsets.clone();
        let mut postings = vec![(0, 0); slots.len()];
        for v in 0..lists.len() {
            for i in offsets[v]..offsets[v + 1] {
                let s = slots[i] as usize;
                postings[fill[s]] = (v as u32, weights[i]);
                fill[s] += 1;
            }
        }
        Some(KeywordRows {
            slots,
            offsets,
            totals,
            postings,
            posting_offsets,
        })
    }

    /// Calls `sink(num, den)` for every pair `u < v`, row by row (`u`
    /// ascending, then `v` ascending). Row `u` walks the postings of its
    /// keywords from `u` on; `next[s]` is where slot `s`'s postings not
    /// yet reached begin, so `u` heads them when its row comes.
    fn for_each_pair(&self, mut sink: impl FnMut(u64, u64)) {
        let n = self.totals.len();
        let mut num = vec![0u64; n];
        let mut next = self.posting_offsets.clone();
        for u in 0..n {
            for &s in &self.slots[self.offsets[u]..self.offsets[u + 1]] {
                let s = s as usize;
                let (head, wu) = self.postings[next[s]];
                debug_assert_eq!(head as usize, u);
                next[s] += 1;
                for &(v, wv) in &self.postings[next[s]..self.posting_offsets[s + 1]] {
                    num[v as usize] += wu.min(wv);
                }
            }
            let tu = self.totals[u];
            for (x, &tv) in num[u + 1..].iter_mut().zip(&self.totals[u + 1..]) {
                sink(*x, tu + tv - *x);
                *x = 0;
            }
        }
    }

    /// [`SimilarityOracle::pairwise_quantiles`] over all pairs of rows:
    /// read off the [`tally`](Self::tally) when it has at most one cell
    /// per pair, else off the rank select over two kernel passes.
    fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        let n = self.totals.len();
        if let Some(runs) = self.tally(n * (n - 1) / 2) {
            return quantiles_from_runs(&runs, qs);
        }
        select_from_top(qs, |select| {
            self.for_each_pair(|num, den| select.push(ratio(num, den)))
        })
    }

    /// Every distinct pair value with its multiplicity, in descending
    /// value order, counted in a dense `(num, den)` table without
    /// storing a value per pair. `None` when a denominator can exceed
    /// [`MAX_TALLY_DEN`] or the table would have more than `max_cells`
    /// cells. (`num <= den <= 2·max total` for every pair.)
    fn tally(&self, max_cells: usize) -> Option<Vec<(f64, u64)>> {
        let max_den = 2 * self.totals.iter().copied().max().unwrap_or(0);
        let side = max_den as usize + 1;
        if max_den > MAX_TALLY_DEN || side * side > max_cells {
            return None;
        }
        let mut counts = vec![0u64; side * side];
        self.for_each_pair(|num, den| counts[num as usize * side + den as usize] += 1);
        let mut runs: Vec<(f64, u64)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(cell, &c)| (ratio((cell / side) as u64, (cell % side) as u64), c))
            .collect();
        runs.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).expect("ratios are finite"));
        Some(runs)
    }
}

/// A pair's (weighted) Jaccard value from its exact integer sums, with
/// the two-empty-sets convention of [`Metric::evaluate`].
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
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

    /// The keyword kernel for (weighted) Jaccard when its exactness
    /// preconditions hold, the per-pair default otherwise.
    fn pairwise_quantiles(&self, n: usize, qs: &[f64]) -> Vec<f64> {
        if let (m @ (Metric::Jaccard | Metric::WeightedJaccard), AttributeTable::Keywords(lists)) =
            (self.metric, &*self.attrs)
        {
            if let Some(rows) = KeywordRows::new(&lists[..n], m == Metric::Jaccard) {
                return rows.quantiles(qs);
            }
        }
        pairwise_quantiles_by_value(self, n, qs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    /// The keyword kernel's values in pair order, as raw bits, or `None`
    /// when it declines the input.
    fn kernel_bits(o: &TableOracle, n: usize) -> Option<Vec<u64>> {
        let AttributeTable::Keywords(lists) = o.attributes() else {
            panic!("keyword oracle expected");
        };
        let rows = KeywordRows::new(&lists[..n], o.metric() == Metric::Jaccard)?;
        let mut bits = Vec::new();
        rows.for_each_pair(|num, den| bits.push(ratio(num, den).to_bits()));
        Some(bits)
    }

    /// The row kernel the posting lists replaced, as the reference for
    /// [`KeywordRows::for_each_pair`] on lists it accepts: row `u`
    /// scattered into a dense keyword array, then one pass over each
    /// later row, `(num, den)` in pair order.
    fn row_kernel_pairs(lists: &[Vec<(u32, f64)>], unweighted: bool) -> Vec<(u64, u64)> {
        let rows: Vec<Vec<(usize, u64)>> = lists
            .iter()
            .map(|l| {
                l.iter()
                    .map(|&(k, w)| (k as usize, if unweighted { 1 } else { w as u64 }))
                    .collect()
            })
            .collect();
        let totals: Vec<u64> = rows.iter().map(|r| r.iter().map(|e| e.1).sum()).collect();
        let mut dense = vec![0u64; rows.iter().flatten().map(|e| e.0 + 1).max().unwrap_or(0)];
        let mut pairs = Vec::new();
        for u in 0..rows.len() {
            for &(k, w) in &rows[u] {
                dense[k] = w;
            }
            for v in (u + 1)..rows.len() {
                let num: u64 = rows[v].iter().map(|&(k, w)| dense[k].min(w)).sum();
                pairs.push((num, totals[u] + totals[v] - num));
            }
            for &(k, _) in &rows[u] {
                dense[k] = 0;
            }
        }
        pairs
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
        let integral = vec![vec![(1, 2.0), (4, 0.0)], vec![], vec![(4, 3.0)]];
        let rows = KeywordRows::new(&integral, false).expect("integral weights");
        let mut pairs = 0;
        rows.for_each_pair(|_, _| pairs += 1);
        assert_eq!(pairs, 3);
        for bad in [
            vec![vec![(1, 0.5)]],
            vec![vec![(1, -1.0)]],
            vec![vec![(1, f64::NAN)]],
            vec![vec![(1, f64::INFINITY)]],
            vec![vec![(1, (1u64 << 52) as f64), (2, 1.0)]],
            vec![vec![(2, 1.0), (1, 1.0)]],
            vec![vec![(1, 1.0), (1, 1.0)]],
        ] {
            assert!(KeywordRows::new(&bad, false).is_none(), "{bad:?}");
        }
        // Unweighted Jaccard ignores weights, so only the order matters.
        assert!(KeywordRows::new(&[vec![(1, 0.5)]], true).is_some());
        assert!(KeywordRows::new(&[vec![(2, 1.0), (1, 1.0)]], true).is_none());
    }

    #[test]
    fn tally_runs_only_within_its_bounds() {
        let total = |t: u64| vec![vec![(1, t as f64)], vec![(1, 1.0)]];
        let rows = KeywordRows::new(&total(MAX_TALLY_DEN / 2), false).unwrap();
        assert_eq!(
            rows.tally(usize::MAX),
            Some(vec![(1.0 / (MAX_TALLY_DEN / 2) as f64, 1)])
        );
        let rows = KeywordRows::new(&total(MAX_TALLY_DEN / 2 + 1), false).unwrap();
        assert_eq!(rows.tally(usize::MAX), None);
        // The rank select still answers, with the same value.
        assert_eq!(
            rows.quantiles(&[1.0]),
            vec![1.0 / (MAX_TALLY_DEN / 2 + 1) as f64]
        );
        // Denominators up to 2 make a 3×3 table: more cells than one pair.
        let rows = KeywordRows::new(&total(1), false).unwrap();
        assert_eq!(rows.tally(8), None);
        assert_eq!(rows.tally(9), Some(vec![(1.0, 1)]));
        assert_eq!(rows.quantiles(&[1.0]), vec![1.0]);
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
        assert_eq!(kernel_bits(&o, 2), None);
        assert_eq!(o.pairwise_quantiles(2, &[1.0]), vec![o.value(0, 1)]);
    }

    #[test]
    fn two_empty_lists_are_identical() {
        for metric in [Metric::Jaccard, Metric::WeightedJaccard] {
            let o = keyword_oracle(vec![vec![], vec![], vec![(1, 0.0)], vec![(1, 2.0)]], metric);
            assert_eq!(kernel_bits(&o, 4), Some(nested_evaluate_bits(&o, 4)));
            assert_eq!(o.pairwise_quantiles(2, &[1.0]), vec![1.0]);
        }
    }

    /// Integer weights up to `1e15` on shared keywords (the kernel,
    /// mostly above the tally's bound; totals above 2^52 decline),
    /// fractional ones (the fallback) and integers up to 5 (the tally);
    /// zero weights and empty lists in all three.
    fn arb_lists() -> impl Strategy<Value = Vec<Vec<(u32, f64)>>> {
        let weight = prop_oneof![
            (0u32..6).prop_map(f64::from),
            Just(0.0),
            0.01f64..4.0,
            Just(1e15),
        ];
        let list = proptest::collection::vec((0u32..12, weight), 0..7);
        (proptest::collection::vec(list, 2..16), 0u8..3).prop_map(|(mut lists, mode)| {
            for l in &mut lists {
                for e in l.iter_mut() {
                    match mode {
                        0 => e.1 = e.1.round(),
                        1 => {}
                        _ => e.1 = e.1.round().min(5.0),
                    }
                }
            }
            lists
        })
    }

    /// `(bits, multiplicity)` of every distinct value.
    fn multiset(bits: impl IntoIterator<Item = (u64, u64)>) -> BTreeMap<u64, u64> {
        let mut m = BTreeMap::new();
        for (b, c) in bits {
            *m.entry(b).or_insert(0) += c;
        }
        m
    }

    proptest! {
        /// The posting kernel emits the row kernel's `(num, den)` for
        /// every pair in the same order, so its tally is the row
        /// kernel's too. Lists draw integer weights with zeros, empty
        /// lists are common, and `disjoint` gives every vertex its own
        /// vocabulary.
        #[test]
        fn posting_kernel_equals_row_kernel(
            lists in proptest::collection::vec(
                proptest::collection::vec((0u32..10, 0u32..4), 0..6),
                2..40,
            ),
            disjoint in false..true,
            unweighted in false..true,
        ) {
            let lists: Vec<Vec<(u32, f64)>> = lists
                .into_iter()
                .enumerate()
                .map(|(v, l)| {
                    let mut l: Vec<(u32, f64)> = l
                        .into_iter()
                        .map(|(k, w)| (if disjoint { v as u32 * 16 + k } else { k }, f64::from(w)))
                        .collect();
                    l.sort_unstable_by_key(|e| e.0);
                    l.dedup_by_key(|e| e.0);
                    l
                })
                .collect();
            let rows = KeywordRows::new(&lists, unweighted).expect("integer weights, sorted lists");
            let want = row_kernel_pairs(&lists, unweighted);
            let mut got = Vec::new();
            rows.for_each_pair(|num, den| got.push((num, den)));
            prop_assert_eq!(&got, &want);
            if let Some(runs) = rows.tally(usize::MAX) {
                let tallied = multiset(runs.iter().map(|&(v, c)| (v.to_bits(), c)));
                let rows_multiset =
                    multiset(want.iter().map(|&(num, den)| (ratio(num, den).to_bits(), 1)));
                prop_assert_eq!(tallied, rows_multiset);
            }
        }

        /// Wherever the kernel runs, its values are those of
        /// `Metric::evaluate` in pair order, and wherever it tallies, the
        /// tallied multiset is theirs too.
        #[test]
        fn keyword_tally_equals_evaluate_multiset(
            lists in arb_lists(),
            unweighted in false..true,
        ) {
            let metric = if unweighted { Metric::Jaccard } else { Metric::WeightedJaccard };
            let o = keyword_oracle(lists, metric);
            let AttributeTable::Keywords(lists) = o.attributes() else { unreachable!() };
            // A prefix of the vertices is a smaller, self-contained pass.
            for n in [lists.len(), lists.len() - 1] {
                let want = nested_evaluate_bits(&o, n);
                let Some(rows) = KeywordRows::new(&lists[..n], unweighted) else {
                    continue;
                };
                prop_assert_eq!(kernel_bits(&o, n), Some(want.clone()));
                if let Some(runs) = rows.tally(usize::MAX) {
                    prop_assert!(runs.windows(2).all(|w| w[0].0 >= w[1].0));
                    let tallied = multiset(runs.iter().map(|&(v, c)| (v.to_bits(), c)));
                    prop_assert_eq!(tallied, multiset(want.iter().map(|&b| (b, 1))));
                }
            }
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
