//! Similarity oracle and threshold semantics.
//!
//! Definition 2 of the paper calls two vertices *similar* when
//! `sim(u,v) >= r`; footnote 1 flips the comparison for distance metrics
//! (similar iff `dist(u,v) <= r`). [`Threshold`] captures both conventions
//! so every algorithm is metric-agnostic.

use crate::attributes::AttributeTable;
use crate::candidates::{AllPairs, CandidatePairs, GridCandidates, InvertedIndexCandidates};
use crate::metrics::{squared_distance, Metric};
use crate::quantile::{quantiles_from_runs, select_from_top};
use kr_graph::VertexId;
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Sub};
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
    /// pair; [`TableOracle`] overrides it with bit-identical kernels for
    /// Euclidean points and keyword metrics.
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

/// [`SimilarityOracle::pairwise_quantiles`] for [`Metric::Euclidean`]
/// over points. The coordinates are copied into two flat arrays and the
/// rank select runs on each pair's squared distance,
/// [`squared_distance`], the value [`Metric::evaluate`] takes the
/// square root of; only the selected values are rooted. A correctly
/// rounded `sqrt` never decreases, so the distances sort in the order
/// of their squares and the root of the square at a rank is, bit for
/// bit, the distance a sort of the distances holds there.
fn points_quantiles(pts: &[(f64, f64)], qs: &[f64]) -> Vec<f64> {
    let (xs, ys): (Vec<f64>, Vec<f64>) = pts.iter().copied().unzip();
    let squares = select_from_top(qs, |select| {
        for u in 0..xs.len() {
            let a = (xs[u], ys[u]);
            for (&bx, &by) in xs[u + 1..].iter().zip(&ys[u + 1..]) {
                select.push(squared_distance(a, (bx, by)));
            }
        }
    });
    squares.into_iter().map(f64::sqrt).collect()
}

/// Largest per-vertex keyword weight total the keyword kernel accepts: two
/// such totals sum to at most 2^53, so every partial sum the merge-based
/// metrics form is an exactly representable integer.
const MAX_KERNEL_TOTAL: u64 = 1 << 52;

/// Largest pair denominator — twice the largest per-vertex weight
/// total — for which [`KeywordEntries::quantiles`] may count `(num, den)`
/// pairs in a dense `(den + 1)²` table (at most ~2 MiB of counters)
/// instead of streaming the pairs' values through the rank select. It
/// also needs no more cells than there are pairs. Every sum the tally
/// path forms is at most this, so it accumulates in `u16`.
const MAX_TALLY_DEN: u64 = 512;

/// A keyword posted by at least `n / DENSE_SHARE` of the kernel's `n`
/// rows keeps its weights in a dense row of `n` weights, and each row
/// adds it to every later pair's sum in one contiguous min-add loop
/// that the compiler vectorizes, instead of scattering its postings.
/// The loop touches `n − u` sums where the scatter touches the
/// keyword's later postings, so it pays off only for the most widely
/// posted keywords. On dblp-like (n = 2000; 19 keywords reach n/8 and
/// carry most of the posting visits) the exact quantile pass took
/// ~6.1 ms at a share of 4, 8 or 16 alike and ~11 ms with no dense rows
/// (release, best of 50 on a shared 2-CPU box).
const DENSE_SHARE: usize = 8;

/// Keyword lists that meet the keyword kernel's exactness preconditions
/// for [`Metric::Jaccard`] (`unweighted`) and
/// [`Metric::WeightedJaccard`], as flat integer entries.
///
/// The kernel sums every pair's `num = Σ min(w_u, w_v)` over shared
/// keywords and takes `den = W_u + W_v − num` from the per-row weight
/// totals. That is exact only when every list is strictly ascending (the
/// merge's view of a set) and, for the weighted metric, every weight is
/// an integer `>= 0` with per-vertex total at most [`MAX_KERNEL_TOTAL`]:
/// then every `f64` partial sum in [`crate::metrics::weighted_jaccard`]
/// is an exact integer, so [`ratio`]`(num, den)` is the same IEEE
/// division on the same operands as [`Metric::evaluate`], and
/// `den == 0` is the same two-empty-sets case.
#[derive(Clone)]
struct KeywordEntries {
    /// The keyword of every list entry, row after row.
    keywords: Vec<u32>,
    /// The integer weight of every list entry.
    weights: Vec<u64>,
    /// Row `v` is entries `offsets[v]..offsets[v + 1]`.
    offsets: Vec<usize>,
    /// Per-row weight total.
    totals: Vec<u64>,
}

impl KeywordEntries {
    /// The entries of `lists`, or `None` when an input breaks the
    /// kernel's exactness preconditions.
    fn new(lists: &[Vec<(u32, f64)>], unweighted: bool) -> Option<Self> {
        let mut keywords: Vec<u32> = Vec::new();
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
                keywords.push(k);
                weights.push(w as u64);
            }
            totals.push(total);
            offsets.push(keywords.len());
        }
        Some(KeywordEntries {
            keywords,
            weights,
            offsets,
            totals,
        })
    }

    /// [`SimilarityOracle::pairwise_quantiles`] over all pairs of rows:
    /// read off the `u16` kernel's [`tally`](KeywordRows::tally) when
    /// [`tally_side`](Self::tally_side) allows one, else off the rank
    /// select over two `u64` kernel passes.
    fn quantiles(self, qs: &[f64]) -> Vec<f64> {
        if let Some(side) = self.tally_side() {
            let runs = KeywordRows::<u16>::new(self).tally(side);
            return quantiles_from_runs(&runs, qs);
        }
        let rows = KeywordRows::<u64>::new(self);
        select_from_top(qs, |select| {
            rows.for_each_pair(|num, den| select.push(ratio(num, den)))
        })
    }

    /// The side of the dense `(num, den)` tally — the largest pair
    /// denominator plus one (`num <= den <= 2·max total` for every
    /// pair) — or `None` when a denominator can exceed
    /// [`MAX_TALLY_DEN`] or the table would have more cells than there
    /// are pairs.
    fn tally_side(&self) -> Option<usize> {
        let n = self.totals.len();
        let max_den = 2 * self.totals.iter().copied().max().unwrap_or(0);
        let side = max_den as usize + 1;
        (max_den <= MAX_TALLY_DEN && side * side <= n * n.saturating_sub(1) / 2).then_some(side)
    }
}

/// An accumulator width of the keyword kernel: `u16` on the tally path,
/// whose sums stay within [`MAX_TALLY_DEN`], and `u64` on the rank
/// select's, whose sums stay within 2^53.
trait KernelSum:
    Copy
    + Default
    + Ord
    + Add<Output = Self>
    + Sub<Output = Self>
    + AddAssign
    + Into<u64>
    + TryFrom<u64>
{
}

impl KernelSum for u16 {}
impl KernelSum for u64 {}

/// The keyword kernel over [`KeywordEntries`] at accumulator width `W`.
/// Every distinct keyword becomes a slot. Slots `0..dense_slots` are the
/// keywords posted by at least `n /` [`DENSE_SHARE`] rows, each a dense
/// row of `n` weights; every other slot has a posting list of (vertex,
/// weight) entries in ascending vertex order, kept as two parallel
/// arrays.
struct KeywordRows<W> {
    /// The slot of every list entry, row after row.
    slots: Vec<u32>,
    /// Row `v` is `slots[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    /// Per-row weight total.
    totals: Vec<W>,
    /// Slots below this have dense rows, the rest posting lists.
    dense_slots: usize,
    /// Dense slot `s` weighs vertex `v` at `dense[s * n + v]`: zero when
    /// `v` does not list its keyword, which adds nothing to a `min`-sum.
    dense: Vec<W>,
    /// The vertex of every posting, slot after slot, ascending within a
    /// slot.
    posted: Vec<u32>,
    /// The weight of every posting, parallel to `posted`.
    posted_weights: Vec<W>,
    /// Slot `dense_slots + i` posts entries
    /// `posting_offsets[i]..posting_offsets[i + 1]`.
    posting_offsets: Vec<usize>,
}

impl<W: KernelSum> KeywordRows<W> {
    /// The kernel over `entries`.
    ///
    /// # Panics
    /// Panics when a pair's weight sum can overflow `W`.
    fn new(entries: KeywordEntries) -> Self {
        let KeywordEntries {
            keywords: mut slots,
            weights,
            offsets,
            totals,
        } = entries;
        let n = totals.len();
        let max_den = 2 * totals.iter().copied().max().unwrap_or(0);
        assert!(
            W::try_from(max_den).is_ok(),
            "pair sums overflow the kernel width"
        );
        let narrow = |x: u64| W::try_from(x).unwrap_or_else(|_| unreachable!("within max_den"));
        let mut keywords = slots.clone();
        keywords.sort_unstable();
        keywords.dedup();
        let mut postings = vec![0usize; keywords.len()];
        for k in &mut slots {
            *k = keywords.binary_search(k).expect("keyword was collected") as u32;
            postings[*k as usize] += 1;
        }
        // Dense keywords take the low slots, sparse ones the rest, each
        // group in keyword order.
        let cutoff = n / DENSE_SHARE;
        let dense_slots = postings.iter().filter(|&&c| c >= cutoff).count();
        let mut slot_of = Vec::with_capacity(postings.len());
        let (mut dense_seen, mut sparse_seen) = (0, 0);
        let mut posting_offsets = vec![0];
        for &count in &postings {
            if count >= cutoff {
                slot_of.push(dense_seen);
                dense_seen += 1;
            } else {
                slot_of.push(dense_slots + sparse_seen);
                sparse_seen += 1;
                posting_offsets.push(posting_offsets[sparse_seen - 1] + count);
            }
        }
        // Filled row by row, so each slot lists its vertices ascending.
        let mut fill = posting_offsets.clone();
        let mut dense = vec![W::default(); dense_slots * n];
        let posting_len = posting_offsets[sparse_seen];
        let mut posted = vec![0; posting_len];
        let mut posted_weights = vec![W::default(); posting_len];
        for v in 0..n {
            for i in offsets[v]..offsets[v + 1] {
                let s = slot_of[slots[i] as usize];
                slots[i] = s as u32;
                let w = narrow(weights[i]);
                if s < dense_slots {
                    dense[s * n + v] = w;
                } else {
                    let at = &mut fill[s - dense_slots];
                    posted[*at] = v as u32;
                    posted_weights[*at] = w;
                    *at += 1;
                }
            }
        }
        KeywordRows {
            slots,
            offsets,
            totals: totals.into_iter().map(narrow).collect(),
            dense_slots,
            dense,
            posted,
            posted_weights,
            posting_offsets,
        }
    }

    /// Calls `sink(num, den)` for every pair `u < v`, row by row (`u`
    /// ascending, then `v` ascending). Row `u` adds `min(w_u, w_v)` of
    /// each of its keywords to `num[v]` of every later `v`: along the
    /// keyword's dense row, or along its postings from `u` on, where
    /// `next[i]` is where sparse slot `i`'s postings not yet reached
    /// begin, so `u` heads them when its row comes.
    fn for_each_pair(&self, mut sink: impl FnMut(u64, u64)) {
        let n = self.totals.len();
        let mut num = vec![W::default(); n];
        let mut next = self.posting_offsets.clone();
        for u in 0..n {
            for &s in &self.slots[self.offsets[u]..self.offsets[u + 1]] {
                let s = s as usize;
                if s < self.dense_slots {
                    let row = &self.dense[s * n..(s + 1) * n];
                    let wu = row[u];
                    for (x, &wv) in num[u + 1..].iter_mut().zip(&row[u + 1..]) {
                        *x += wu.min(wv);
                    }
                } else {
                    let i = s - self.dense_slots;
                    let (head, end) = (next[i], self.posting_offsets[i + 1]);
                    debug_assert_eq!(self.posted[head] as usize, u);
                    next[i] += 1;
                    let wu = self.posted_weights[head];
                    let later = &self.posted[head + 1..end];
                    for (&v, &wv) in later.iter().zip(&self.posted_weights[head + 1..end]) {
                        num[v as usize] += wu.min(wv);
                    }
                }
            }
            let tu = self.totals[u];
            for (x, &tv) in num[u + 1..].iter_mut().zip(&self.totals[u + 1..]) {
                sink((*x).into(), (tu + tv - *x).into());
                *x = W::default();
            }
        }
    }
}

impl KeywordRows<u16> {
    /// Every distinct pair value with its multiplicity, in descending
    /// value order, counted in a dense `side × side` `(num, den)` table
    /// ([`KeywordEntries::tally_side`]) without storing a value per
    /// pair.
    fn tally(&self, side: usize) -> Vec<(f64, u64)> {
        let mut counts = vec![0u64; side * side];
        self.for_each_pair(|num, den| counts[num as usize * side + den as usize] += 1);
        let mut runs: Vec<(f64, u64)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(cell, &c)| (ratio((cell / side) as u64, (cell % side) as u64), c))
            .collect();
        runs.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).expect("ratios are finite"));
        runs
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

    /// The points kernel for Euclidean points, the keyword kernel for
    /// (weighted) Jaccard when its exactness preconditions hold, the
    /// per-pair default otherwise.
    fn pairwise_quantiles(&self, n: usize, qs: &[f64]) -> Vec<f64> {
        match (self.metric, &*self.attrs) {
            (Metric::Euclidean, AttributeTable::Points(pts)) => points_quantiles(&pts[..n], qs),
            (m @ (Metric::Jaccard | Metric::WeightedJaccard), AttributeTable::Keywords(lists)) => {
                match KeywordEntries::new(&lists[..n], m == Metric::Jaccard) {
                    Some(entries) => entries.quantiles(qs),
                    None => pairwise_quantiles_by_value(self, n, qs),
                }
            }
            _ => pairwise_quantiles_by_value(self, n, qs),
        }
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
        let entries = KeywordEntries::new(&lists[..n], o.metric() == Metric::Jaccard)?;
        let pairs = kernel_pairs(&entries);
        Some(
            pairs
                .iter()
                .map(|&(num, den)| ratio(num, den).to_bits())
                .collect(),
        )
    }

    /// `(num, den)` of every pair in pair order from the kernel at width
    /// `W`.
    fn pairs_at<W: KernelSum>(entries: &KeywordEntries) -> Vec<(u64, u64)> {
        let mut pairs = Vec::new();
        KeywordRows::<W>::new(entries.clone()).for_each_pair(|num, den| pairs.push((num, den)));
        pairs
    }

    /// [`pairs_at`] in `u64`, checked equal to the `u16` kernel's
    /// wherever every pair sum fits `u16`.
    fn kernel_pairs(entries: &KeywordEntries) -> Vec<(u64, u64)> {
        let wide = pairs_at::<u64>(entries);
        if entries.totals.iter().all(|&t| 2 * t <= u64::from(u16::MAX)) {
            assert_eq!(
                pairs_at::<u16>(entries),
                wide,
                "u16 and u64 kernels disagree"
            );
        }
        wide
    }

    /// The `u16` kernel's tally over a table of every denominator,
    /// whatever its cell count, or `None` when a denominator can exceed
    /// [`MAX_TALLY_DEN`].
    fn full_tally(entries: &KeywordEntries) -> Option<Vec<(f64, u64)>> {
        let max_den = 2 * entries.totals.iter().copied().max().unwrap_or(0);
        (max_den <= MAX_TALLY_DEN)
            .then(|| KeywordRows::<u16>::new(entries.clone()).tally(max_den as usize + 1))
    }

    fn bits(vals: &[f64]) -> Vec<u64> {
        vals.iter().map(|x| x.to_bits()).collect()
    }

    /// Quantile lists with `q = 1`, tiny `q`, repeats and no order.
    fn arb_qs() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(prop_oneof![Just(1.0), Just(0.001), 0.0001f64..1.0], 1..14)
    }

    /// [`TableOracle::pairwise_quantiles`] and the per-pair reference
    /// over the first `n` vertices, as raw bits.
    fn kernel_and_reference_bits(o: &TableOracle, n: usize, qs: &[f64]) -> (Vec<u64>, Vec<u64>) {
        (
            bits(&o.pairwise_quantiles(n, qs)),
            bits(&pairwise_quantiles_by_value(o, n, qs)),
        )
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
        let entries = KeywordEntries::new(&integral, false).expect("integral weights");
        assert_eq!(kernel_pairs(&entries).len(), 3);
        for bad in [
            vec![vec![(1, 0.5)]],
            vec![vec![(1, -1.0)]],
            vec![vec![(1, f64::NAN)]],
            vec![vec![(1, f64::INFINITY)]],
            vec![vec![(1, (1u64 << 52) as f64), (2, 1.0)]],
            vec![vec![(2, 1.0), (1, 1.0)]],
            vec![vec![(1, 1.0), (1, 1.0)]],
        ] {
            assert!(KeywordEntries::new(&bad, false).is_none(), "{bad:?}");
        }
        // Unweighted Jaccard ignores weights, so only the order matters.
        assert!(KeywordEntries::new(&[vec![(1, 0.5)]], true).is_some());
        assert!(KeywordEntries::new(&[vec![(2, 1.0), (1, 1.0)]], true).is_none());
    }

    #[test]
    #[should_panic(expected = "overflow the kernel width")]
    fn narrow_kernel_rejects_sums_beyond_its_width() {
        let entries = KeywordEntries::new(&[vec![(1, 40_000.0)], vec![]], false).unwrap();
        KeywordRows::<u16>::new(entries);
    }

    #[test]
    fn tally_runs_only_within_its_bounds() {
        let total = |t: u64| vec![vec![(1, t as f64)], vec![(1, 1.0)]];
        let entries = KeywordEntries::new(&total(MAX_TALLY_DEN / 2), false).unwrap();
        assert_eq!(
            full_tally(&entries),
            Some(vec![(1.0 / (MAX_TALLY_DEN / 2) as f64, 1)])
        );
        // One pair is fewer than the table's 513² cells.
        assert_eq!(entries.tally_side(), None);
        let entries = KeywordEntries::new(&total(MAX_TALLY_DEN / 2 + 1), false).unwrap();
        assert_eq!(full_tally(&entries), None);
        assert_eq!(entries.tally_side(), None);
        // The rank select still answers, with the same value.
        assert_eq!(
            entries.quantiles(&[1.0]),
            vec![1.0 / (MAX_TALLY_DEN / 2 + 1) as f64]
        );
        // Denominators up to 2 make a 3×3 table: more cells than the 6
        // pairs of 4 rows, fewer than the 10 of 5.
        let ones = |n: usize| vec![vec![(1, 1.0)]; n];
        assert_eq!(
            KeywordEntries::new(&ones(4), false).unwrap().tally_side(),
            None
        );
        let entries = KeywordEntries::new(&ones(5), false).unwrap();
        assert_eq!(entries.tally_side(), Some(3));
        assert_eq!(full_tally(&entries), Some(vec![(1.0, 10)]));
        assert_eq!(entries.quantiles(&[1.0]), vec![1.0]);
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
        /// The kernel — dense rows and posting lists, in `u16` and in
        /// `u64` — emits the row kernel's `(num, den)` for every pair in
        /// the same order, so its tally is the row kernel's too. Lists
        /// draw integer weights with zeros, empty lists are common, and
        /// `disjoint` gives every vertex its own vocabulary; the 2 to 39
        /// rows put the dense cutoff between 0 and 4 postings.
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
            let entries =
                KeywordEntries::new(&lists, unweighted).expect("integer weights, sorted lists");
            let want = row_kernel_pairs(&lists, unweighted);
            prop_assert_eq!(&kernel_pairs(&entries), &want);
            if let Some(runs) = full_tally(&entries) {
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
                let Some(entries) = KeywordEntries::new(&lists[..n], unweighted) else {
                    continue;
                };
                prop_assert_eq!(kernel_bits(&o, n), Some(want.clone()));
                if let Some(runs) = full_tally(&entries) {
                    prop_assert!(runs.windows(2).all(|w| w[0].0 >= w[1].0));
                    let tallied = multiset(runs.iter().map(|&(v, c)| (v.to_bits(), c)));
                    prop_assert_eq!(tallied, multiset(want.iter().map(|&b| (b, 1))));
                }
            }
        }
    }

    /// Points on a 4×4 lattice (tied squared distances), repeats of one
    /// point (zero distances), coordinates near ±1e200 whose squared
    /// differences overflow to `inf`, and arbitrary small coordinates.
    fn arb_point() -> impl Strategy<Value = (f64, f64)> {
        prop_oneof![
            (0u8..4, 0u8..4).prop_map(|(x, y)| (f64::from(x), f64::from(y))),
            Just((1.5, -2.0)),
            (-1i8..=1, -1i8..=1).prop_map(|(x, y)| (f64::from(x) * 1e200, f64::from(y) * 3e199)),
            (-10.0f64..10.0, -10.0f64..10.0),
        ]
    }

    /// `n` rows in a shuffled order, where keyword `k` of `0..3` is
    /// listed by the first `n / DENSE_SHARE - 1 + k` rows of that order
    /// (just below, at and just above the dense cutoff), with one shared
    /// weight per row in `0..4`, plus up to three keywords of `3..12` per
    /// row weighted in `0..4`. Zero weights and empty lists are common.
    fn straddling_lists() -> impl Strategy<Value = Vec<Vec<(u32, f64)>>> {
        (16usize..64)
            .prop_flat_map(|n| {
                let keys = proptest::collection::vec(0..=u32::MAX, n);
                let extra = proptest::collection::vec(
                    proptest::collection::vec((3u32..12, 0u32..4), 0..4),
                    n,
                );
                (keys, extra, proptest::collection::vec(0u32..4, n))
            })
            .prop_map(|(keys, extra, weights)| {
                let cutoff = keys.len() / DENSE_SHARE;
                // Row `v`'s rank in the order of `(keys[v], v)`.
                let mut order: Vec<usize> = (0..keys.len()).collect();
                order.sort_unstable_by_key(|&v| (keys[v], v));
                let mut ranks = vec![0; keys.len()];
                for (rank, &v) in order.iter().enumerate() {
                    ranks[v] = rank;
                }
                ranks
                    .iter()
                    .zip(extra)
                    .zip(weights)
                    .map(|((&rank, extra), w)| {
                        let mut l: Vec<(u32, f64)> = (0..3u32)
                            .filter(|&k| rank + 1 < cutoff + k as usize)
                            .map(|k| (k, f64::from(w)))
                            .chain(extra.into_iter().map(|(k, w)| (k, f64::from(w))))
                            .collect();
                        l.sort_unstable_by_key(|e| e.0);
                        l.dedup_by_key(|e| e.0);
                        l
                    })
                    .collect()
            })
    }

    proptest! {
        /// The points kernel returns the per-pair reference's bits on
        /// every prefix `n >= 2` of the table.
        #[test]
        fn points_kernel_equals_per_pair_bits(
            pts in proptest::collection::vec(arb_point(), 2..40),
            cut in 0usize..64,
            qs in arb_qs(),
        ) {
            let n = 2 + cut % (pts.len() - 1);
            let o = TableOracle::new(
                AttributeTable::points(pts),
                Metric::Euclidean,
                Threshold::MaxDistance(1.0),
            );
            let (got, want) = kernel_and_reference_bits(&o, n, &qs);
            prop_assert_eq!(got, want);
        }

        /// The keyword kernel returns the per-pair reference's bits,
        /// weighted and unweighted, with keywords on both sides of the
        /// dense cutoff, on the whole table and on a prefix (whose
        /// cutoff moves with its `n`).
        #[test]
        fn keyword_kernel_equals_per_pair_bits_across_the_dense_cutoff(
            lists in straddling_lists(),
            cut in 0usize..64,
            unweighted in false..true,
            qs in arb_qs(),
        ) {
            let n = lists.len();
            let postings = |k: u32| lists.iter().filter(|l| l.iter().any(|e| e.0 == k)).count();
            prop_assert_eq!(
                [postings(0), postings(1), postings(2)],
                [n / DENSE_SHARE - 1, n / DENSE_SHARE, n / DENSE_SHARE + 1]
            );
            let entries = KeywordEntries::new(&lists, unweighted).expect("integer weights");
            let dense = (0..12).filter(|&k| postings(k) >= n / DENSE_SHARE).count();
            prop_assert_eq!(KeywordRows::<u64>::new(entries).dense_slots, dense);
            let metric = if unweighted { Metric::Jaccard } else { Metric::WeightedJaccard };
            let o = keyword_oracle(lists, metric);
            for n in [n, 2 + cut % (n - 1)] {
                let (got, want) = kernel_and_reference_bits(&o, n, &qs);
                prop_assert_eq!(got, want);
            }
        }
    }

    /// Both sides of the tally's bound on a table big enough for it: 726
    /// rows make 263 175 pairs, enough for the 513² cells a weight total
    /// of 256 needs. A total of 256 tallies in `u16`, one of 257 takes
    /// the `u64` rank select; both return the per-pair reference's bits,
    /// weighted (one heavy keyword) and unweighted (one long list).
    #[test]
    fn keyword_paths_on_both_sides_of_the_tally_bound_equal_per_pair_bits() {
        let qs = [
            0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 0.7, 0.9, 0.97, 0.99, 0.997, 0.999, 1.0,
        ];
        for unweighted in [false, true] {
            for top in [256u32, 257] {
                let heavy = if unweighted {
                    (0..top).map(|k| (k, 1.0)).collect()
                } else {
                    vec![(0, f64::from(top))]
                };
                let lists: Vec<Vec<(u32, f64)>> = std::iter::once(heavy)
                    .chain((1..726u32).map(|v| {
                        let l = vec![(v % 5, f64::from(v % 4)), (5 + v % 11, 1.0)];
                        if v % 9 == 0 {
                            Vec::new()
                        } else {
                            l
                        }
                    }))
                    .collect();
                let entries = KeywordEntries::new(&lists, unweighted).unwrap();
                assert_eq!(entries.tally_side().is_some(), top == 256, "total {top}");
                let metric = if unweighted {
                    Metric::Jaccard
                } else {
                    Metric::WeightedJaccard
                };
                let o = keyword_oracle(lists, metric);
                let (got, want) = kernel_and_reference_bits(&o, 726, &qs);
                assert_eq!(got, want, "total {top}, unweighted {unweighted}");
            }
        }
    }

    /// Squared differences past `f64::MAX` rank as `inf`, as their
    /// distances do.
    #[test]
    fn overflowing_squares_select_as_infinite_distances() {
        let o = TableOracle::new(
            AttributeTable::points(vec![(0.0, 0.0), (1e200, 0.0), (-1e200, 0.0), (3.0, 4.0)]),
            Metric::Euclidean,
            Threshold::MaxDistance(1.0),
        );
        let got = o.pairwise_quantiles(4, &[0.1, 1.0]);
        assert_eq!(got, vec![f64::INFINITY, 5.0]);
        let (got, want) = kernel_and_reference_bits(&o, 4, &[0.1, 0.5, 1.0]);
        assert_eq!(got, want);
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
