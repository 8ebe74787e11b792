//! Pairwise-similarity quantile calibration.
//!
//! The paper's DBLP and Pokec experiments do not sweep raw `r` values;
//! they sweep the *top-x‰* of the pairwise similarity distribution in
//! decreasing order ("r = top 3‰" means: pick `r` so that 3 per thousand of
//! vertex pairs are similar). We implement an exact variant for small
//! graphs and a seeded-sample variant for large ones.
//!
//! The exact variant makes one pass over all `n(n-1)/2` pairs through
//! [`SimilarityOracle::pairwise_quantiles`]. For keyword metrics with
//! small integer weight totals, [`TableOracle`](crate::TableOracle)
//! counts each pair's exact `(num, den)` in a tally (at most one cell
//! per pair, ~2 MiB at most) and walks it in value order to each
//! requested rank: no per-pair value is stored. Every other input, and
//! the sampled variant's `samples` draws, fill one value buffer once and
//! read every requested rank out of it with ascending partial
//! selections: `O(len)` per distinct quantile on top of the fill, never
//! a full sort. Both readings return
//! the value a full descending sort holds at that rank, bit for bit.

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
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vals = Vec::with_capacity(samples);
    while vals.len() < samples {
        let u = rng.random_range(0..n as u32);
        let v = rng.random_range(0..n as u32);
        if u != v {
            vals.push(oracle.value(u, v));
        }
    }
    quantiles_from_top(&mut vals, qs)
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

/// The value at descending rank [`rank_from_top`] for every `q`. Each
/// distinct rank is selected in ascending order over the suffix the
/// previous selection left unordered, so the values equal those of a full
/// descending sort.
pub(crate) fn quantiles_from_top(vals: &mut [f64], qs: &[f64]) -> Vec<f64> {
    assert!(!vals.is_empty());
    let len = vals.len();
    let mut ranks: Vec<usize> = qs.iter().map(|&q| rank_from_top(q, len)).collect();
    ranks.sort_unstable();
    ranks.dedup();
    let mut start = 0;
    for r in ranks {
        vals[start..].select_nth_unstable_by(r - start, |a, b| {
            b.partial_cmp(a).expect("NaN metric value")
        });
        start = r + 1;
    }
    qs.iter().map(|&q| vals[rank_from_top(q, len)]).collect()
}

/// [`quantiles_from_top`] over a tally: `runs` holds values with their
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

    fn bits(vals: &[f64]) -> Vec<u64> {
        vals.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn quantiles_from_top_basics() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        let qs = [0.25, 0.5, 1.0, 0.5];
        assert_eq!(quantiles_from_top(&mut v, &qs), vec![4.0, 3.0, 1.0, 3.0]);
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
    /// many pairs as table cells, the kernel's value buffer below that;
    /// zero weights and empty lists make `den == 0` pairs), 1 all-zero
    /// weights, 2 one fractional weight (the per-pair fallback), 3 one
    /// total above the tally's bound (the kernel's value buffer), 4 one
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

    proptest! {
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
