//! `threads` is accepted and ignored on every dataset preset: preprocessing
//! and the search run sequentially whatever it says, so `threads` = 0, 2
//! or 4 returns the same answers and does the same search work as
//! `threads` = 1. The server's miss path, which preprocesses only the
//! decomposition index's candidates, builds the same components as the
//! full `preprocess()`.
//!
//! The test names predate the removal of the preprocessing pool and are
//! kept so the suite's history lines up.

use kr_bench::BenchDataset;
use krcore::prelude::*;

/// Representative (scale, k, r) per preset: small enough for CI, large
/// enough that the preprocessed graph has several components.
fn cases() -> Vec<(DatasetPreset, f64, u32, f64)> {
    vec![
        (DatasetPreset::BrightkiteLike, 0.25, 3, 8.0),
        (DatasetPreset::GowallaLike, 0.25, 3, 10.0),
        (DatasetPreset::DblpLike, 0.2, 4, 5.0),
        (DatasetPreset::PokecLike, 0.2, 4, 5.0),
    ]
}

/// Every `threads` value a caller may still pass.
const THREADS: [usize; 3] = [0, 2, 4];

#[test]
fn adv_enum_parallel_matches_sequential_on_all_presets() {
    for (preset, scale, k, r) in cases() {
        let ds = BenchDataset::new(preset, scale);
        let p = ds.instance(k, r);
        let seq = krcore::core::enumerate_maximal(&p, &AlgoConfig::adv_enum());
        assert!(seq.completed, "{preset:?} threads=1 aborted");
        for threads in THREADS {
            let other =
                krcore::core::enumerate_maximal(&p, &AlgoConfig::adv_enum().with_threads(threads));
            assert!(other.completed, "{preset:?} threads={threads} aborted");
            assert_eq!(
                other.cores, seq.cores,
                "{preset:?} (k={k}, r={r}, threads={threads}): core families differ"
            );
            assert_eq!(
                other.stats, seq.stats,
                "{preset:?} threads={threads}: search work differs"
            );
        }
    }
}

#[test]
fn adv_max_parallel_matches_sequential_on_all_presets() {
    for (preset, scale, k, r) in cases() {
        let ds = BenchDataset::new(preset, scale);
        let p = ds.instance(k, r);
        let seq = krcore::core::find_maximum(&p, &AlgoConfig::adv_max());
        assert!(seq.completed, "{preset:?} threads=1 aborted");
        if let Some(core) = &seq.core {
            assert!(
                krcore::core::is_kr_core(&p, core),
                "{preset:?}: result is not a (k,r)-core"
            );
        }
        for threads in THREADS {
            let other =
                krcore::core::find_maximum(&p, &AlgoConfig::adv_max().with_threads(threads));
            assert!(other.completed, "{preset:?} threads={threads} aborted");
            assert_eq!(
                other.core.as_ref().map(|c| &c.vertices),
                seq.core.as_ref().map(|c| &c.vertices),
                "{preset:?} (k={k}, r={r}, threads={threads}): maximum cores differ"
            );
            assert_eq!(
                other.stats, seq.stats,
                "{preset:?} threads={threads}: search work differs"
            );
        }
    }
}

#[test]
fn parallel_preprocessing_matches_sequential_on_all_presets() {
    for (preset, scale, k, r) in cases() {
        let ds = BenchDataset::new(preset, scale);
        let p = ds.instance(k, r);
        let full = p.preprocess();
        let index = krcore::core::DecompositionIndex::build_default(p.graph(), p.oracle());
        let candidates = index.candidates(k, p.oracle().threshold());
        let miss = p.preprocess_with_candidates(&candidates.vertices);
        assert_eq!(
            full.len(),
            miss.len(),
            "{preset:?}: component count differs"
        );
        for (a, b) in full.iter().zip(&miss) {
            assert_eq!(
                a.local_to_global, b.local_to_global,
                "{preset:?}: component membership differs"
            );
            assert_eq!(a.adj_csr(), b.adj_csr(), "{preset:?}: adjacency differs");
            assert_eq!(
                a.dissimilarity(),
                b.dissimilarity(),
                "{preset:?}: dissimilarity differs"
            );
        }
    }
}
