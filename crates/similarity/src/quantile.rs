//! Pairwise-similarity quantile calibration.
//!
//! The paper's DBLP and Pokec experiments do not sweep raw `r` values;
//! they sweep the *top-x‰* of the pairwise similarity distribution in
//! decreasing order ("r = top 3‰" means: pick `r` so that 3 per thousand of
//! vertex pairs are similar). We implement an exact variant for small
//! graphs and a seeded-sample variant for large ones.
//!
//! The exact variant makes one pass over all `n(n-1)/2` pairs through
//! [`SimilarityOracle::pairwise_quantiles`], the sampled variant one pass
//! over `samples` seeded draws; neither stores a value per pair. For
//! keyword metrics with small integer weight totals,
//! [`TableOracle`](crate::TableOracle) counts each pair's exact
//! `(num, den)` in a tally (at most one cell per pair, ~2 MiB at most)
//! and walks it in value order to each requested rank. Every other input
//! goes through one streaming rank select over a replayable value
//! stream (Euclidean points through `TableOracle` feed it their squared
//! distances and take the root of the selected values only):
//!
//! 1. The first pass counts the values in a histogram over the top 16
//!    bits of an order-preserving key (2^16 `u32` counters, 256 KiB)
//!    and locates the bucket of each requested descending rank.
//! 2. The second pass replays the stream and keeps only the values of
//!    those buckets (at most one per requested rank).
//! 3. A partial selection inside each kept bucket reads off its ranks.
//!
//! Both readings return the value a full descending sort holds at that
//! rank, bit for bit. `0.0` and `-0.0`, which only cosine yields and
//! which `partial_cmp` ranks as equal, share one key.

use crate::oracle::SimilarityOracle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exact `q`-quantiles (from the top, each `0 < q <= 1`) of the pairwise
/// metric values over all `n(n-1)/2` vertex pairs of `0..n`, one per
/// entry of `qs`, in `qs` order.
///
/// For similarity metrics, each returned value `r` is such that a
/// fraction `q` of pairs have `value >= r`. One `O(n²)` pass serves
/// every quantile — intended for `n` up to a few thousands.
pub fn similarity_quantiles_exact<O: SimilarityOracle>(
    oracle: &O,
    n: usize,
    qs: &[f64],
) -> Vec<f64> {
    check_args(n, qs);
    oracle.pairwise_quantiles(n, qs)
}

/// Sampled variant of [`similarity_quantiles_exact`]: evaluates the
/// metric on `samples` uniformly random vertex pairs (seeded,
/// reproducible), drawn once for all of `qs`.
pub fn similarity_quantiles_sampled<O: SimilarityOracle>(
    oracle: &O,
    n: usize,
    qs: &[f64],
    samples: usize,
    seed: u64,
) -> Vec<f64> {
    check_args(n, qs);
    select_from_top(qs, |select| {
        // Re-seeded on each pass, so both passes see the same draws.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut drawn = 0;
        while drawn < samples {
            let u = rng.random_range(0..n as u32);
            let v = rng.random_range(0..n as u32);
            if u != v {
                select.push(oracle.value(u, v));
                drawn += 1;
            }
        }
    })
}

/// [`similarity_quantiles_exact`] for a single `q`.
pub fn similarity_quantile_exact<O: SimilarityOracle>(oracle: &O, n: usize, q: f64) -> f64 {
    similarity_quantiles_exact(oracle, n, &[q])[0]
}

/// [`similarity_quantiles_sampled`] for a single `q`.
pub fn similarity_quantile_sampled<O: SimilarityOracle>(
    oracle: &O,
    n: usize,
    q: f64,
    samples: usize,
    seed: u64,
) -> f64 {
    similarity_quantiles_sampled(oracle, n, &[q], samples, seed)[0]
}

/// The paper's "top x‰" threshold: the similarity value at the top
/// `permille`/1000 of the (sampled) pairwise distribution. Uses exact
/// computation below `exact_cutoff` vertices, sampling otherwise.
pub fn top_permille_threshold<O: SimilarityOracle>(
    oracle: &O,
    n: usize,
    permille: f64,
    exact_cutoff: usize,
    seed: u64,
) -> f64 {
    let q = permille / 1000.0;
    if n <= exact_cutoff {
        similarity_quantile_exact(oracle, n, q)
    } else {
        // ~2M samples gives a per-mille resolution comfortably.
        similarity_quantile_sampled(oracle, n, q, 2_000_000.min(n * 200), seed)
    }
}

/// Rejects bad arguments before any metric is evaluated.
fn check_args(n: usize, qs: &[f64]) {
    assert!(n >= 2, "need at least two vertices");
    assert!(
        qs.iter().all(|&q| q > 0.0 && q <= 1.0),
        "quantile must be in (0, 1]"
    );
}

/// Descending rank `ceil(q * len) - 1`, clamped to `0..len`: the
/// threshold at which a `q` fraction of `len` values is kept.
fn rank_from_top(q: f64, len: usize) -> usize {
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// Bits of the order-preserving key that index the histogram of
/// [`select_from_top`]: the sign, the exponent and the top four
/// mantissa bits, so one bucket spans a sixteenth of an octave.
const RADIX_BITS: u32 = 16;

/// The sink a value stream feeds in [`select_from_top`]: a histogram
/// of keys on the counting pass, the values of the kept buckets on the
/// keeping pass.
pub(crate) struct TopSelect {
    /// Counting pass: the number of values per bucket. Keeping pass:
    /// `1 +` the slot in `kept` of every kept bucket, `0` elsewhere.
    buckets: Vec<u32>,
    /// Values counted so far.
    len: u64,
    /// Keeping pass: the values of every kept bucket.
    kept: Vec<Vec<f64>>,
    counting: bool,
}

impl TopSelect {
    /// Feeds the next value of the stream.
    #[inline]
    pub(crate) fn push(&mut self, x: f64) {
        let bucket = bucket(x);
        if self.counting {
            assert!(!x.is_nan(), "NaN metric value");
            self.buckets[bucket] += 1;
            self.len += 1;
        } else if let Some(slot) = self.buckets[bucket].checked_sub(1) {
            self.kept[slot as usize].push(x);
        }
    }
}

/// The histogram bucket of `x`: the top [`RADIX_BITS`] bits of a key
/// whose unsigned order is the numeric order of the values. `-0.0` is
/// keyed as `0.0`, so the two zeros tie as they do under `partial_cmp`.
#[inline]
fn bucket(x: f64) -> usize {
    // `-0.0 + 0.0` is `0.0`; every other value is unchanged.
    let bits = (x + 0.0).to_bits();
    let key = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (key >> (64 - RADIX_BITS)) as usize
}

/// The value at descending rank [`rank_from_top`] for every `q` over the
/// values `replay` feeds its sink, each the value a full descending sort
/// holds at that rank. `replay` runs twice, once per pass, and must feed
/// the same values both times. Besides the 256 KiB histogram, only the
/// values of the buckets that hold a requested rank are stored.
///
/// # Panics
/// Panics when the stream is empty, holds a NaN, or holds more than
/// `u32::MAX` values.
pub(crate) fn select_from_top(qs: &[f64], mut replay: impl FnMut(&mut TopSelect)) -> Vec<f64> {
    let mut select = TopSelect {
        buckets: vec![0; 1 << RADIX_BITS],
        len: 0,
        kept: Vec::new(),
        counting: true,
    };
    replay(&mut select);
    assert!(select.len > 0, "no values to rank");
    // No bucket count can have wrapped below this bound.
    assert!(select.len <= u64::from(u32::MAX), "too many values");
    let len = select.len as usize;
    let mut ranks: Vec<usize> = qs.iter().map(|&q| rank_from_top(q, len)).collect();
    ranks.sort_unstable();
    ranks.dedup();
    // Walk the buckets down from the largest values: every rank's slot,
    // and per slot its bucket, its count and the values above it.
    let mut held: Vec<(usize, usize, usize)> = Vec::new();
    let mut slot_of_rank = Vec::with_capacity(ranks.len());
    let mut above = 0;
    for (b, &count) in select.buckets.iter().enumerate().rev() {
        let count = count as usize;
        let first = slot_of_rank.len();
        while slot_of_rank.len() < ranks.len() && ranks[slot_of_rank.len()] < above + count {
            slot_of_rank.push(held.len());
        }
        if slot_of_rank.len() > first {
            held.push((b, count, above));
        }
        if slot_of_rank.len() == ranks.len() {
            break;
        }
        above += count;
    }
    // The histogram becomes the slot map of the keeping pass.
    select.kept = held
        .iter()
        .map(|&(_, count, _)| Vec::with_capacity(count))
        .collect();
    select.buckets.fill(0);
    for (slot, &(b, ..)) in held.iter().enumerate() {
        select.buckets[b] = slot as u32 + 1;
    }
    select.counting = false;
    replay(&mut select);
    for (vals, &(_, count, _)) in select.kept.iter().zip(&held) {
        assert_eq!(vals.len(), count, "the replay fed a different stream");
    }
    // Ranks ascend, so each slot's ranks are selected in ascending order
    // over the suffix the previous selection left unordered.
    let mut unordered_from = vec![0; held.len()];
    let values: Vec<f64> = ranks
        .iter()
        .zip(&slot_of_rank)
        .map(|(&rank, &slot)| {
            let vals = &mut select.kept[slot];
            let (start, r) = (unordered_from[slot], rank - held[slot].2);
            vals[start..].select_nth_unstable_by(r - start, |a, b| {
                b.partial_cmp(a).expect("NaN metric value")
            });
            unordered_from[slot] = r + 1;
            vals[r]
        })
        .collect();
    qs.iter()
        .map(|&q| {
            values[ranks
                .binary_search(&rank_from_top(q, len))
                .expect("rank was selected")]
        })
        .collect()
}

/// [`select_from_top`] over a tally: `runs` holds values with their
/// multiplicities in descending value order. The value at a rank is that
/// of the run whose cumulative count first passes it — the value a
/// descending sort of the expanded multiset holds there.
pub(crate) fn quantiles_from_runs(runs: &[(f64, u64)], qs: &[f64]) -> Vec<f64> {
    let ends: Vec<u64> = runs
        .iter()
        .scan(0, |end, &(_, count)| {
            *end += count;
            Some(*end)
        })
        .collect();
    let len = *ends.last().expect("at least one pair") as usize;
    qs.iter()
        .map(|&q| {
            let rank = rank_from_top(q, len) as u64;
            runs[ends.partition_point(|&end| end <= rank)].0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttributeTable;
    use crate::metrics::Metric;
    use crate::oracle::{TableOracle, Threshold};
    use proptest::prelude::*;

    fn line_oracle(n: usize) -> TableOracle {
        // Points on a line: pairwise distances are distinct-ish.
        let pts: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 0.0)).collect();
        points_oracle(pts)
    }

    fn points_oracle(pts: Vec<(f64, f64)>) -> TableOracle {
        TableOracle::new(
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(1.0),
        )
    }

    /// The per-`q` reference: a full descending sort, then the value at
    /// rank `ceil(q * len) - 1`.
    fn reference_from_top(vals: &[f64], q: f64) -> f64 {
        let mut vals = vals.to_vec();
        vals.sort_unstable_by(|a, b| b.partial_cmp(a).expect("NaN metric value"));
        let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
        vals[rank - 1]
    }

    fn all_pair_values(o: &TableOracle, n: usize) -> Vec<f64> {
        let mut vals = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                vals.push(o.value(u, v));
            }
        }
        vals
    }

    /// The reference sample: the same seeded draw the sampled variant
    /// makes, repeated per `q`.
    fn sampled_values(o: &TableOracle, n: usize, samples: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vals = Vec::new();
        while vals.len() < samples {
            let u = rng.random_range(0..n as u32);
            let v = rng.random_range(0..n as u32);
            if u != v {
                vals.push(o.value(u, v));
            }
        }
        vals
    }

    /// [`select_from_top`] over a slice.
    fn select(vals: &[f64], qs: &[f64]) -> Vec<f64> {
        select_from_top(qs, |sel| vals.iter().for_each(|&x| sel.push(x)))
    }

    fn bits(vals: &[f64]) -> Vec<u64> {
        vals.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn select_from_top_basics() {
        let qs = [0.25, 0.5, 1.0, 0.5];
        assert_eq!(select(&[1.0, 2.0, 3.0, 4.0], &qs), vec![4.0, 3.0, 1.0, 3.0]);
        let runs = [(4.0, 1), (3.0, 1), (2.0, 1), (1.0, 1)];
        assert_eq!(quantiles_from_runs(&runs, &qs), vec![4.0, 3.0, 1.0, 3.0]);
        // Equal values in separate runs read as one.
        let runs = [(0.5, 2), (0.5, 1), (0.25, 1)];
        assert_eq!(quantiles_from_runs(&runs, &qs), vec![0.5, 0.5, 0.25, 0.5]);
    }

    #[test]
    fn exact_quantile_on_line() {
        let o = line_oracle(5);
        // Pairs distances: 1x4, 2x3, 3x2, 4x1 -> sorted desc: 4,3,3,2,2,2,1,1,1,1
        let top10 = similarity_quantile_exact(&o, 5, 0.1);
        assert_eq!(top10, 4.0);
        let all = similarity_quantile_exact(&o, 5, 1.0);
        assert_eq!(all, 1.0);
    }

    #[test]
    fn sampled_close_to_exact() {
        let o = line_oracle(40);
        let exact = similarity_quantile_exact(&o, 40, 0.3);
        let sampled = similarity_quantile_sampled(&o, 40, 0.3, 50_000, 42);
        assert!(
            (exact - sampled).abs() <= 2.0,
            "exact {exact} vs sampled {sampled}"
        );
    }

    #[test]
    fn sampled_is_deterministic_per_seed() {
        let o = line_oracle(30);
        let a = similarity_quantile_sampled(&o, 30, 0.2, 10_000, 7);
        let b = similarity_quantile_sampled(&o, 30, 0.2, 10_000, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn top_permille_uses_exact_under_cutoff() {
        let o = line_oracle(10);
        let t = top_permille_threshold(&o, 10, 500.0, 100, 1); // top 50%
        let e = similarity_quantile_exact(&o, 10, 0.5);
        assert_eq!(t, e);
    }

    #[test]
    #[should_panic]
    fn zero_quantile_panics() {
        let o = line_oracle(3);
        similarity_quantile_exact(&o, 3, 0.0);
    }

    /// Quantile lists with duplicates, `q = 1`, tiny `q` and no order.
    fn arb_qs() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(prop_oneof![Just(1.0), Just(0.001), 0.0001f64..1.0], 1..14)
            .prop_map(|mut qs| {
                let dup = qs[0];
                qs.push(dup);
                qs
            })
    }

    /// Keyword tables for every path of the exact variant. Modes:
    /// 0 small integer weights (the tally once there are at least as
    /// many pairs as table cells, the kernel's rank select below that;
    /// zero weights and empty lists make `den == 0` pairs), 1 all-zero
    /// weights, 2 one fractional weight (the per-pair fallback), 3 one
    /// total above the tally's bound (the kernel's rank select), 4 one
    /// unsorted list (the fallback, built around the sorting
    /// constructor).
    fn keyword_table(mut lists: Vec<Vec<(u32, f64)>>, mode: u8) -> AttributeTable {
        for l in &mut lists {
            for e in l.iter_mut() {
                e.1 = if mode == 1 { 0.0 } else { e.1.round() };
            }
        }
        match mode {
            2 => lists[0].push((8, 0.5)),
            3 => lists[0].push((8, 600.0)),
            4 => {
                lists.insert(0, vec![(5, 1.0), (2, 1.0)]);
                return AttributeTable::Keywords(lists);
            }
            _ => {}
        }
        AttributeTable::keywords(lists)
    }

    /// Multisets that stress the rank select. Modes: 0 one value
    /// repeated, 1 two values (ties straddle every rank), 2 every value
    /// in one histogram bucket (they differ only in low mantissa bits,
    /// with repeats), 3 cosine-like values in `[-1, 1]` with heavy ties
    /// and both zeros, 4 arbitrary non-NaN bit patterns (infinities and
    /// subnormals included).
    fn arb_multiset() -> impl Strategy<Value = Vec<f64>> {
        let len = 1usize..300;
        prop_oneof![
            (0..=u64::MAX, len.clone()).prop_map(|(b, len)| vec![non_nan(b); len]),
            (
                0..=u64::MAX,
                0..=u64::MAX,
                proptest::collection::vec(false..true, 1..300)
            )
                .prop_map(|(a, b, pick)| pick
                    .into_iter()
                    .map(|p| non_nan(if p { a } else { b }))
                    .collect()),
            (0..=u64::MAX, proptest::collection::vec(0u64..64, 1..300)).prop_map(|(top, low)| {
                // The top 16 bits fix the bucket; keep them off NaN.
                let top = non_nan(top).to_bits() >> 48 << 48;
                low.into_iter()
                    .map(|l| f64::from_bits(top | l << 20))
                    .collect()
            }),
            proptest::collection::vec(-8i32..=8, 1..300).prop_map(|xs| xs
                .into_iter()
                .map(|x| match x {
                    0 => -0.0,
                    1 => 0.0,
                    x => f64::from(x) / 8.0,
                })
                .collect()),
            proptest::collection::vec(0..=u64::MAX, 1..300)
                .prop_map(|bs| bs.into_iter().map(non_nan).collect()),
        ]
    }

    /// `f64::from_bits(b)`, with NaN patterns turned into infinities of
    /// the same sign.
    fn non_nan(b: u64) -> f64 {
        let x = f64::from_bits(b);
        if x.is_nan() {
            f64::INFINITY.copysign(x)
        } else {
            x
        }
    }

    proptest! {
        /// The select returns the sort's values. Zeros are compared with
        /// `==` (the sort may hold either zero at a rank); every other
        /// value that compares equal has the same bits.
        #[test]
        fn select_equals_sort_on_hard_multisets(vals in arb_multiset(), qs in arb_qs()) {
            let want: Vec<f64> = qs.iter().map(|&q| reference_from_top(&vals, q)).collect();
            let got = select(&vals, &qs);
            prop_assert!(got.iter().zip(&want).all(|(a, b)| a == b), "{:?} vs {:?}", got, want);
        }

        #[test]
        fn keyword_quantiles_equal_per_q_sort(
            lists in proptest::collection::vec(
                proptest::collection::vec((0u32..8, 0.0f64..4.0), 0..5),
                2..64,
            ),
            mode in 0u8..5,
            unweighted in false..true,
            qs in arb_qs(),
        ) {
            let table = keyword_table(lists, mode);
            let n = table.len();
            let metric = if unweighted { Metric::Jaccard } else { Metric::WeightedJaccard };
            let o = TableOracle::new(table, metric, Threshold::MinSimilarity(0.5));
            let all = all_pair_values(&o, n);
            let want: Vec<f64> = qs.iter().map(|&q| reference_from_top(&all, q)).collect();
            prop_assert_eq!(bits(&similarity_quantiles_exact(&o, n, &qs)), bits(&want));
            // `n = 2`: a single pair.
            let want = reference_from_top(&all[..1], 1.0);
            prop_assert_eq!(similarity_quantile_exact(&o, 2, 1.0).to_bits(), want.to_bits());
        }

        /// Coordinates on a 4×4 integer grid: heavy ties among the
        /// distances, and `n = 2` leaves a single pair.
        #[test]
        fn exact_quantiles_equal_per_q_sort(
            pts in proptest::collection::vec((0u8..4, 0u8..4), 2..24),
            qs in arb_qs(),
        ) {
            let n = pts.len();
            let o = points_oracle(pts.iter().map(|&(x, y)| (x as f64, y as f64)).collect());
            let all = all_pair_values(&o, n);
            let want: Vec<f64> = qs.iter().map(|&q| reference_from_top(&all, q)).collect();
            prop_assert_eq!(bits(&similarity_quantiles_exact(&o, n, &qs)), bits(&want));
        }

        /// Cosine over small integer vectors: negative values, zeros
        /// and heavy ties.
        #[test]
        fn cosine_quantiles_equal_per_q_sort(
            vecs in proptest::collection::vec(proptest::collection::vec(-2i8..=2, 3), 2..24),
            qs in arb_qs(),
        ) {
            let n = vecs.len();
            let o = TableOracle::new(
                AttributeTable::vectors(
                    vecs.iter().map(|v| v.iter().map(|&x| f64::from(x)).collect()).collect(),
                ),
                Metric::Cosine,
                Threshold::MinSimilarity(0.5),
            );
            let all = all_pair_values(&o, n);
            let want: Vec<f64> = qs.iter().map(|&q| reference_from_top(&all, q)).collect();
            let got = similarity_quantiles_exact(&o, n, &qs);
            prop_assert!(got.iter().zip(&want).all(|(a, b)| a == b), "{:?} vs {:?}", got, want);
        }

        #[test]
        fn sampled_quantiles_equal_per_q_sort(
            pts in proptest::collection::vec((0u8..4, 0u8..4), 2..24),
            qs in arb_qs(),
            samples in 1usize..400,
            seed in 0u64..1_000,
        ) {
            let n = pts.len();
            let o = points_oracle(pts.iter().map(|&(x, y)| (x as f64, y as f64)).collect());
            let sample = sampled_values(&o, n, samples, seed);
            let want: Vec<f64> = qs.iter().map(|&q| reference_from_top(&sample, q)).collect();
            let got = similarity_quantiles_sampled(&o, n, &qs, samples, seed);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }
}
