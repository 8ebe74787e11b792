//! Vertex attribute storage.
//!
//! Three attribute families cover the paper's datasets:
//!
//! * **Keywords** — weighted keyword multisets (DBLP's counted conference /
//!   journal lists, Pokec's interests). Stored as sorted `(keyword_id,
//!   weight)` pairs per vertex so weighted-Jaccard runs as a linear merge.
//! * **Points** — 2-D coordinates (Gowalla / Brightkite check-in homes).
//! * **Vectors** — dense `f64` vectors (generic embedding input for cosine
//!   or Euclidean metrics).

use serde::{Deserialize, Serialize};

/// Per-vertex attributes for a whole graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttributeTable {
    /// Sorted `(keyword, weight)` lists, one per vertex. Weights must be
    /// non-negative.
    Keywords(Vec<Vec<(u32, f64)>>),
    /// One 2-D point per vertex.
    Points(Vec<(f64, f64)>),
    /// One dense vector per vertex; all vectors must share a dimension.
    Vectors(Vec<Vec<f64>>),
}

impl AttributeTable {
    /// Builds a keyword table, sorting each list by keyword id and merging
    /// duplicate ids by summing their weights.
    pub fn keywords(mut lists: Vec<Vec<(u32, f64)>>) -> Self {
        for list in &mut lists {
            list.sort_unstable_by_key(|&(k, _)| k);
            // Merge duplicates in place.
            let mut w = 0usize;
            for i in 0..list.len() {
                if w > 0 && list[w - 1].0 == list[i].0 {
                    list[w - 1].1 += list[i].1;
                } else {
                    list[w] = list[i];
                    w += 1;
                }
            }
            list.truncate(w);
        }
        AttributeTable::Keywords(lists)
    }

    /// Builds a point table.
    pub fn points(pts: Vec<(f64, f64)>) -> Self {
        AttributeTable::Points(pts)
    }

    /// Builds a dense-vector table.
    ///
    /// # Panics
    /// Panics if the vectors do not all share one dimension.
    pub fn vectors(vecs: Vec<Vec<f64>>) -> Self {
        if let Some(first) = vecs.first() {
            let d = first.len();
            assert!(
                vecs.iter().all(|v| v.len() == d),
                "all attribute vectors must have equal dimension"
            );
        }
        AttributeTable::Vectors(vecs)
    }

    /// Number of vertices covered by the table.
    pub fn len(&self) -> usize {
        match self {
            AttributeTable::Keywords(v) => v.len(),
            AttributeTable::Points(v) => v.len(),
            AttributeTable::Vectors(v) => v.len(),
        }
    }

    /// True iff the table covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short variant name, for mismatch diagnostics ("keywords",
    /// "points", "vectors").
    pub fn family_name(&self) -> &'static str {
        match self {
            AttributeTable::Keywords(_) => "keywords",
            AttributeTable::Points(_) => "points",
            AttributeTable::Vectors(_) => "vectors",
        }
    }
}

// One vertex's attribute value is accepted only when every metric over it
// is a number: a NaN metric value would poison every threshold sort and
// comparison downstream. File loaders, the snapshot reader and the wire's
// attribute updates all apply the checks below.

/// A point is valid when both coordinates are finite.
pub fn check_point(x: f64, y: f64) -> Result<(), String> {
    if x.is_finite() && y.is_finite() {
        Ok(())
    } else {
        Err(format!("non-finite point ({x}, {y})"))
    }
}

/// A keyword list is valid when every weight is finite and non-negative
/// and their total is finite (duplicate keywords merge by summing).
pub fn check_keywords(list: &[(u32, f64)]) -> Result<(), String> {
    for &(kw, weight) in list {
        if !weight.is_finite() || weight < 0.0 {
            return Err(format!(
                "keyword {kw} has invalid weight {weight} (must be finite and non-negative)"
            ));
        }
    }
    let total: f64 = list.iter().map(|&(_, w)| w).sum();
    if total.is_finite() {
        Ok(())
    } else {
        Err("keyword weights overflow to infinity".to_string())
    }
}

/// A vector is valid when every component is finite.
pub fn check_vector(v: &[f64]) -> Result<(), String> {
    if v.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err("non-finite vector component".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_sorted_and_merged() {
        let t = AttributeTable::keywords(vec![vec![(3, 1.0), (1, 2.0), (3, 0.5)]]);
        match t {
            AttributeTable::Keywords(lists) => {
                assert_eq!(lists[0], vec![(1, 2.0), (3, 1.5)]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn len_variants() {
        assert_eq!(AttributeTable::points(vec![(0.0, 0.0); 3]).len(), 3);
        assert_eq!(AttributeTable::keywords(vec![]).len(), 0);
        assert!(AttributeTable::keywords(vec![]).is_empty());
        assert_eq!(AttributeTable::vectors(vec![vec![1.0], vec![2.0]]).len(), 2);
    }

    #[test]
    fn checks_reject_values_no_metric_can_use() {
        assert!(check_point(-2.5, 3.0).is_ok());
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(check_point(x, 0.0).is_err());
            assert!(check_point(0.0, x).is_err());
            assert!(check_keywords(&[(1, 1.0), (2, x)]).is_err());
            assert!(check_vector(&[1.0, x]).is_err());
        }
        assert!(check_keywords(&[(1, 0.0), (2, 3.5)]).is_ok());
        assert!(check_keywords(&[(1, -1.0)]).is_err());
        // Finite weights whose (merged) total overflows.
        assert!(check_keywords(&[(1, f64::MAX), (1, f64::MAX)]).is_err());
        assert!(check_vector(&[1.0, -2.0]).is_ok());
    }

    #[test]
    #[should_panic]
    fn mismatched_vector_dims_panic() {
        AttributeTable::vectors(vec![vec![1.0, 2.0], vec![1.0]]);
    }
}
