//! Bench-side dataset wrapper: preset data + threshold construction.
//!
//! The paper's `r` axis differs per dataset family: kilometers for the
//! geo-social graphs, top-x‰ similarity quantiles for the keyword graphs.
//! [`RAxis`] abstracts both so every experiment sweeps a uniform axis.

use kr_core::ProblemInstance;
use kr_datagen::{DatasetPreset, SyntheticDataset};
use kr_graph::{Graph, VertexId};
use kr_similarity::{top_permille_threshold, AttributeTable, Metric, TableOracle, Threshold};

/// How the sweepable `r` axis maps to a [`Threshold`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RAxis {
    /// `r` is a distance in kilometers (Gowalla / Brightkite style).
    Kilometers,
    /// `r` is a top-x‰ quantile of the pairwise similarity distribution
    /// (DBLP / Pokec style); larger x = lower threshold = more similar
    /// pairs.
    TopPermille,
}

/// A generated dataset plus cached threshold calibration.
pub struct BenchDataset {
    /// The generated data.
    pub data: SyntheticDataset,
    /// Which r-axis the dataset uses.
    pub axis: RAxis,
}

impl BenchDataset {
    /// Generates a preset at the given scale.
    pub fn new(preset: DatasetPreset, scale: f64) -> Self {
        let data = preset.generate_scaled(scale);
        let axis = match data.metric {
            Metric::Euclidean => RAxis::Kilometers,
            _ => RAxis::TopPermille,
        };
        BenchDataset { data, axis }
    }

    /// Default bench scale (1.0 = preset size).
    pub fn preset(preset: DatasetPreset) -> Self {
        BenchDataset::new(preset, 1.0)
    }

    /// Resolves an r-axis value into a [`Threshold`].
    pub fn threshold(&self, r: f64) -> Threshold {
        match self.axis {
            RAxis::Kilometers => Threshold::MaxDistance(r),
            RAxis::TopPermille => {
                let oracle = TableOracle::new(
                    self.data.attributes.clone(),
                    self.data.metric,
                    Threshold::MinSimilarity(0.0),
                );
                let v = top_permille_threshold(
                    &oracle,
                    self.data.graph.num_vertices(),
                    r,
                    3000,
                    0x5EED,
                );
                Threshold::MinSimilarity(v)
            }
        }
    }

    /// Builds a [`ProblemInstance`] for `(k, r)`.
    pub fn instance(&self, k: u32, r: f64) -> ProblemInstance {
        ProblemInstance::new(
            self.data.graph.clone(),
            self.data.attributes.clone(),
            self.data.metric,
            self.threshold(r),
            k,
        )
    }

    /// Default interesting `r` sweep for the dataset family (the "messy
    /// middle" where cores exist but are not whole components).
    pub fn default_r_sweep(&self) -> Vec<f64> {
        match self.axis {
            RAxis::Kilometers => vec![2.0, 5.0, 8.0, 12.0, 16.0],
            RAxis::TopPermille => vec![1.0, 3.0, 5.0, 10.0, 15.0],
        }
    }

    /// Units label for printed tables.
    pub fn r_unit(&self) -> &'static str {
        match self.axis {
            RAxis::Kilometers => "km",
            RAxis::TopPermille => "top-permille",
        }
    }
}

/// The `geo-corridor` instance: `clusters` circulant rings of `size`
/// vertices (each vertex wired to its 3 nearest ring successors), laid
/// out on a line 6.0 apart with 4 bridge edges between consecutive
/// rings, points on a unit circle per ring. With `MaxDistance(7.0)` only
/// adjacent rings stay similar, so the single giant component carries
/// ~1M dissimilar pairs.
pub fn corridor_instance(clusters: usize, size: usize, k: u32, r: f64) -> ProblemInstance {
    let n = clusters * size;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut pts = Vec::new();
    for c in 0..clusters {
        let base = (c * size) as VertexId;
        for i in 0..size as VertexId {
            for d in 1..=3u32 {
                edges.push((base + i, base + (i + d) % size as VertexId));
            }
        }
        if c + 1 < clusters {
            let next = ((c + 1) * size) as VertexId;
            for i in 0..4u32 {
                edges.push((base + i, next + i));
            }
        }
        for i in 0..size {
            let ang = i as f64 / size as f64 * std::f64::consts::TAU;
            pts.push((c as f64 * 6.0 + ang.cos(), ang.sin()));
        }
    }
    kr_core::ProblemInstance::new(
        Graph::from_edges(n, &edges),
        AttributeTable::points(pts),
        Metric::Euclidean,
        Threshold::MaxDistance(r),
        k,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_match_presets() {
        assert_eq!(
            BenchDataset::new(DatasetPreset::GowallaLike, 0.1).axis,
            RAxis::Kilometers
        );
        assert_eq!(
            BenchDataset::new(DatasetPreset::DblpLike, 0.1).axis,
            RAxis::TopPermille
        );
    }

    #[test]
    fn threshold_resolution() {
        let d = BenchDataset::new(DatasetPreset::GowallaLike, 0.1);
        assert_eq!(d.threshold(10.0), Threshold::MaxDistance(10.0));
        let d = BenchDataset::new(DatasetPreset::DblpLike, 0.1);
        match d.threshold(3.0) {
            Threshold::MinSimilarity(v) => assert!(v > 0.0 && v <= 1.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn instance_builds() {
        let d = BenchDataset::new(DatasetPreset::BrightkiteLike, 0.1);
        let p = d.instance(3, 5.0);
        assert_eq!(p.k(), 3);
        assert_eq!(p.graph().num_vertices(), d.data.graph.num_vertices());
    }
}
