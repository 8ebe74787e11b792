//! Peak heap of the default decomposition-index build on gowalla-like
//! (Euclidean points), at the hot-read scale (n = 400) and at full scale
//! (n = 1600). The band pass must not buffer one `f64` per vertex pair:
//! that buffer alone is 0.61 MiB at n = 400 and 9.8 MiB at n = 1600.

mod heap;

use heap::{peak_during, MIB};
use kr_core::DecompositionIndex;
use kr_datagen::DatasetPreset;
use kr_similarity::{TableOracle, Threshold};

#[test]
fn gowalla_like_default_build_peaks_below_the_pair_buffer() {
    for (scale, bound) in [(0.25, 0.5), (1.0, 2.0)] {
        let d = DatasetPreset::GowallaLike.generate_scaled(scale);
        let oracle = TableOracle::new(d.attributes, d.metric, Threshold::MaxDistance(1.0));
        let (ix, peak) = peak_during(|| DecompositionIndex::build_default(&d.graph, &oracle));
        assert!(!ix.bands().is_empty());
        let peak = peak as f64 / MIB as f64;
        assert!(
            peak < bound,
            "gowalla-like@{scale}: build_default peaked {peak:.3} MiB above its start \
             (bound {bound} MiB)"
        );
    }
}
