//! Pairwise-similarity quantile calibration.
//!
//! The paper's DBLP and Pokec experiments do not sweep raw `r` values;
//! they sweep the *top-x‰* of the pairwise similarity distribution in
//! decreasing order ("r = top 3‰" means: pick `r` so that 3 per thousand of
//! vertex pairs are similar). We implement an exact variant for small
//! graphs and a seeded-sample variant for large ones.
//!
//! Both fill one value buffer once — `O(n²)` metric evaluations through
//! [`SimilarityOracle::pairwise_values`] for the exact variant, `samples`
//! for the sampled one — and then read every requested rank out of it
//! with ascending partial selections: `O(len)` per distinct quantile on
//! top of the fill, never a full sort.

use crate::oracle::SimilarityOracle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exact `q`-quantiles (from the top, each `0 < q <= 1`) of the pairwise
/// metric values over all `n(n-1)/2` vertex pairs of `0..n`, one per
/// entry of `qs`, in `qs` order.
///
/// For similarity metrics, each returned value `r` is such that a
/// fraction `q` of pairs have `value >= r`. One `O(n²)` pass fills the
/// buffer whatever the number of quantiles — intended for `n` up to a
/// few thousands.
pub fn similarity_quantiles_exact<O: SimilarityOracle>(
    oracle: &O,
    n: usize,
    qs: &[f64],
) -> Vec<f64> {
    check_args(n, qs);
    let mut vals = Vec::with_capacity(n * (n - 1) / 2);
    oracle.pairwise_values(n, &mut vals);
    quantiles_from_top(&mut vals, qs)
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

/// The value at descending rank `ceil(q * len) - 1` (clamped) for every
/// `q`, i.e. the threshold at which a `q` fraction of values is kept.
/// Each distinct rank is selected in ascending order over the suffix the
/// previous selection left unordered, so the values equal those of a full
/// descending sort.
fn quantiles_from_top(vals: &mut [f64], qs: &[f64]) -> Vec<f64> {
    assert!(!vals.is_empty());
    let len = vals.len();
    let rank = |q: f64| ((q * len as f64).ceil() as usize).clamp(1, len) - 1;
    let mut ranks: Vec<usize> = qs.iter().map(|&q| rank(q)).collect();
    ranks.sort_unstable();
    ranks.dedup();
    let mut start = 0;
    for r in ranks {
        vals[start..].select_nth_unstable_by(r - start, |a, b| {
            b.partial_cmp(a).expect("NaN metric value")
        });
        start = r + 1;
    }
    qs.iter().map(|&q| vals[rank(q)]).collect()
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
        assert_eq!(
            quantiles_from_top(&mut v, &[0.25, 0.5, 1.0, 0.5]),
            vec![4.0, 3.0, 1.0, 3.0]
        );
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

    proptest! {
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
