//! Peak heap of the default decomposition-index build on dblp-like at
//! full scale, the exact band path at its largest size. The build must
//! stay within a few MiB of where it started, far below the
//! `n(n-1)/2`-value buffer (~16 MiB at n = 2000) that storing every
//! pairwise similarity would take.

mod heap;

use heap::{peak_during, MIB};
use kr_core::DecompositionIndex;
use kr_datagen::DatasetPreset;
use kr_similarity::{TableOracle, Threshold};

#[test]
fn dblp_like_default_build_peaks_below_4_mib() {
    let d = DatasetPreset::DblpLike.generate_scaled(1.0);
    let oracle = TableOracle::new(d.attributes, d.metric, Threshold::MinSimilarity(0.5));
    let (ix, peak) = peak_during(|| DecompositionIndex::build_default(&d.graph, &oracle));
    assert!(!ix.bands().is_empty());
    assert!(
        peak < 4 * MIB,
        "build_default peaked {:.2} MiB above its start",
        peak as f64 / MIB as f64
    );
}
