//! Similarity / distance metrics.
//!
//! The paper uses (weighted) Jaccard similarity on keyword multisets and
//! Euclidean distance on geo-locations; cosine is included as a common
//! extra for dense vectors.

use crate::attributes::AttributeTable;
use serde::{Deserialize, Serialize};

/// Which metric to evaluate between two vertices' attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Unweighted Jaccard over keyword *sets* (weights ignored).
    Jaccard,
    /// Weighted Jaccard over keyword multisets:
    /// `sum(min(w_u, w_v)) / sum(max(w_u, w_v))`.
    WeightedJaccard,
    /// Euclidean distance over points or vectors (a *distance*: smaller is
    /// more similar; pair with [`crate::Threshold::MaxDistance`]).
    Euclidean,
    /// Cosine similarity over dense vectors.
    Cosine,
}

impl Metric {
    /// True when the metric is a distance (smaller = more similar) rather
    /// than a similarity (larger = more similar).
    pub fn is_distance(self) -> bool {
        matches!(self, Metric::Euclidean)
    }

    /// Evaluates the metric between vertices `u` and `v` of the table.
    ///
    /// # Panics
    /// Panics if the metric is incompatible with the attribute family
    /// (e.g. Jaccard over points).
    pub fn evaluate(self, attrs: &AttributeTable, u: u32, v: u32) -> f64 {
        match (self, attrs) {
            (Metric::Jaccard, AttributeTable::Keywords(lists)) => {
                jaccard(&lists[u as usize], &lists[v as usize])
            }
            (Metric::WeightedJaccard, AttributeTable::Keywords(lists)) => {
                weighted_jaccard(&lists[u as usize], &lists[v as usize])
            }
            (Metric::Euclidean, AttributeTable::Points(pts)) => {
                let (ax, ay) = pts[u as usize];
                let (bx, by) = pts[v as usize];
                ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
            }
            (Metric::Euclidean, AttributeTable::Vectors(vs)) => {
                euclidean(&vs[u as usize], &vs[v as usize])
            }
            (Metric::Cosine, AttributeTable::Vectors(vs)) => {
                cosine(&vs[u as usize], &vs[v as usize])
            }
            (m, t) => panic!(
                "metric {m:?} is not defined over attribute family {}",
                match t {
                    AttributeTable::Keywords(_) => "Keywords",
                    AttributeTable::Points(_) => "Points",
                    AttributeTable::Vectors(_) => "Vectors",
                }
            ),
        }
    }
}

/// Unweighted Jaccard similarity of two sorted keyword lists
/// (`|A ∩ B| / |A ∪ B|`; 1.0 for two empty sets by convention).
pub fn jaccard(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Weighted Jaccard similarity of two sorted `(keyword, weight)` lists:
/// `Σ min(w_a, w_b) / Σ max(w_a, w_b)` over the keyword union.
/// Returns 1.0 for two all-zero / empty multisets by convention.
pub fn weighted_jaccard(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
    let (mut num, mut den) = (0.0f64, 0.0f64);
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                den += a[i].1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                den += b[j].1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                num += a[i].1.min(b[j].1);
                den += a[i].1.max(b[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    den += a[i..].iter().map(|&(_, w)| w).sum::<f64>();
    den += b[j..].iter().map(|&(_, w)| w).sum::<f64>();
    if den == 0.0 {
        1.0
    } else {
        num / den
    }
}

/// Euclidean distance of two equal-length vectors.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Cosine similarity of two equal-length vectors (0.0 if either is zero).
///
/// Finite components beyond ~1e154 overflow the plain sums of products
/// (`inf / inf`, or `inf − inf` with mixed signs). Cosine is
/// scale-invariant, so such a pair is recomputed on each vector divided by
/// its largest absolute component, where no term exceeds the length. Every
/// pair whose plain computation stays finite keeps its bits.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (dot, na, nb) = cosine_terms(a, b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else if dot.is_finite() && (na * nb).is_finite() {
        dot / (na * nb)
    } else {
        cosine_rescaled(a, b)
    }
}

/// [`cosine`] of a pair whose plain sums overflow (kept out of line: it
/// never runs on ordinary input).
#[cold]
#[inline(never)]
fn cosine_rescaled(a: &[f64], b: &[f64]) -> f64 {
    let unit = |v: &[f64]| {
        let max = v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        v.iter().map(|x| x / max).collect::<Vec<f64>>()
    };
    let (dot, na, nb) = cosine_terms(&unit(a), &unit(b));
    dot / (na * nb)
}

/// The dot product and the two norms.
fn cosine_terms(a: &[f64], b: &[f64]) -> (f64, f64, f64) {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    (dot, na, nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kw(ids: &[(u32, f64)]) -> Vec<(u32, f64)> {
        ids.to_vec()
    }

    #[test]
    fn jaccard_basics() {
        let a = kw(&[(1, 1.0), (2, 1.0), (3, 1.0)]);
        let b = kw(&[(2, 1.0), (3, 1.0), (4, 1.0)]);
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&a, &[]), 0.0);
        assert_eq!(jaccard(&[], &[]), 1.0);
    }

    #[test]
    fn weighted_jaccard_basics() {
        let a = kw(&[(1, 2.0), (2, 1.0)]);
        let b = kw(&[(1, 1.0), (3, 1.0)]);
        // num = min(2,1) = 1; den = max(2,1) + 1 + 1 = 4.
        assert!((weighted_jaccard(&a, &b) - 0.25).abs() < 1e-12);
        assert_eq!(weighted_jaccard(&a, &a), 1.0);
        assert_eq!(weighted_jaccard(&[], &[]), 1.0);
        assert_eq!(weighted_jaccard(&a, &[]), 0.0);
    }

    #[test]
    fn weighted_jaccard_reduces_to_jaccard_on_unit_weights() {
        let a = kw(&[(1, 1.0), (2, 1.0), (5, 1.0)]);
        let b = kw(&[(2, 1.0), (5, 1.0), (9, 1.0)]);
        assert!((weighted_jaccard(&a, &b) - jaccard(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn euclidean_basics() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine(&[1.0, 1.0], &[2.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(cosine(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn cosine_of_huge_components_stays_finite() {
        // Squares of 1e200 overflow: the plain formula gives inf / inf.
        let huge = [1e200, 1e200];
        assert!((cosine(&huge, &huge) - 1.0).abs() < 1e-12);
        assert!((cosine(&huge, &[-1e200, -1e200]) + 1.0).abs() < 1e-12);
        // Mixed signs: the plain dot product is inf − inf.
        assert!(cosine(&[1e200, -1e200], &huge).abs() < 1e-12);
        assert!((cosine(&[3e300, 4e300], &[4e300, 3e300]) - 0.96).abs() < 1e-12);
        // One huge vector against an ordinary one.
        assert!((cosine(&huge, &[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(cosine(&[f64::MAX, -f64::MAX, 1.0], &[f64::MAX, f64::MAX, 0.0]).is_finite());
    }

    #[test]
    fn metric_dispatch() {
        let t = AttributeTable::points(vec![(0.0, 0.0), (3.0, 4.0)]);
        assert!((Metric::Euclidean.evaluate(&t, 0, 1) - 5.0).abs() < 1e-12);
        let t = AttributeTable::keywords(vec![vec![(1, 1.0)], vec![(1, 1.0)]]);
        assert_eq!(Metric::WeightedJaccard.evaluate(&t, 0, 1), 1.0);
        assert_eq!(Metric::Jaccard.evaluate(&t, 0, 1), 1.0);
    }

    #[test]
    #[should_panic]
    fn incompatible_metric_panics() {
        let t = AttributeTable::points(vec![(0.0, 0.0)]);
        Metric::Jaccard.evaluate(&t, 0, 0);
    }

    #[test]
    fn is_distance_flags() {
        assert!(Metric::Euclidean.is_distance());
        assert!(!Metric::Jaccard.is_distance());
        assert!(!Metric::WeightedJaccard.is_distance());
        assert!(!Metric::Cosine.is_distance());
    }
}
