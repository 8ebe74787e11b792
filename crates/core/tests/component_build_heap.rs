//! Peak heap of one component build (`LocalComponent::build`): the
//! dissimilarity view is filled straight from the candidate index, so no
//! list of similar or dissimilar pairs is held on the way and the build
//! peaks at about the size of what it returns.
//!
//! Two shapes of geo-corridor (circulant rings of points on unit circles
//! 6.0 apart, max distance 9.0: neighbouring rings are similar, rings two
//! apart are not):
//! * 6 rings × 171 points (1 026 vertices, 56% of pairs dissimilar): the
//!   lazy view, whose bit rows flag the ~233 000 pairs the grid proves
//!   similar without a metric evaluation in 17 words a vertex, so the
//!   whole component stays under 256 KiB (a similarity CSR of those
//!   pairs took 1.86 MB);
//! * 9 rings × 100 points (900 vertices, 69% dissimilar): the eager
//!   complement CSR, written from `n²/8` bytes of bit rows of the
//!   similar pairs, which the bound allows on top.

mod heap;

use heap::{peak_during, MIB};
use kr_core::LocalComponent;
use kr_graph::{Graph, VertexId};
use kr_similarity::{AttributeTable, DissimMode, Metric, TableOracle, Threshold};

/// `rings` circulant rings of `size` vertices (each joined to its three
/// ring successors), consecutive rings bridged by four edges, ring `c`'s
/// points on the unit circle around `(6c, 0)`.
fn corridor(rings: usize, size: usize) -> (Graph, TableOracle) {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut pts = Vec::with_capacity(rings * size);
    for c in 0..rings {
        let base = (c * size) as VertexId;
        let ring = size as VertexId;
        for i in 0..ring {
            for d in 1..=3 {
                edges.push((base + i, base + (i + d) % ring));
            }
        }
        if c + 1 < rings {
            for i in 0..4 {
                let a = (c as VertexId * 7 + i * 10) % ring;
                edges.push((base + a, base + ring + a));
            }
        }
        let phase = c as f64 * 0.7;
        for i in 0..size {
            let ang = phase + i as f64 / size as f64 * std::f64::consts::TAU;
            pts.push((c as f64 * 6.0 + ang.cos(), ang.sin()));
        }
    }
    let oracle = TableOracle::new(
        AttributeTable::points(pts),
        Metric::Euclidean,
        Threshold::MaxDistance(9.0),
    );
    (Graph::from_edges(rings * size, &edges), oracle)
}

#[test]
fn component_build_peaks_at_about_its_final_size() {
    for (rings, size, lazy) in [(6, 171, true), (9, 100, false)] {
        let (graph, oracle) = corridor(rings, size);
        let n = rings * size;
        let members: Vec<VertexId> = (0..n as VertexId).collect();
        let (comp, peak) =
            peak_during(|| LocalComponent::build(&graph, &oracle, &members, 3, DissimMode::Auto));
        assert_eq!(comp.is_dissimilarity_lazy(), lazy, "{rings} × {size}");
        assert!(comp.num_dissimilar_pairs * 2 > n * (n - 1) / 2);
        let size_bytes = comp.memory_bytes();
        if lazy {
            assert!(
                size_bytes <= 256 * 1024,
                "{rings} × {size}: the lazy component takes {size_bytes} B"
            );
        }
        let bitmap = if lazy { 0 } else { (n * n).div_ceil(64) * 8 };
        let bound = size_bytes + size_bytes / 4 + bitmap;
        let mib = |b: usize| b as f64 / MIB as f64;
        assert!(
            peak <= bound,
            "{rings} × {size}: build peaked {:.3} MiB for a {:.3} MiB component \
             (bound {:.3} MiB)",
            mib(peak),
            mib(size_bytes),
            mib(bound)
        );
    }
}
