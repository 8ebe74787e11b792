//! Pooled preprocessing is invisible in results on every dataset preset:
//! with `threads` > 1 the k-core peel and the arena builds run on a worker
//! pool, and the enumeration and the maximum search must still return
//! vertex-set-identical results to a `threads = 1` run.

use kr_bench::BenchDataset;
use krcore::prelude::*;

/// Representative (scale, k, r) per preset: small enough for CI, large
/// enough that the preprocessed graph has several components, so the
/// pool builds several arenas concurrently.
fn cases() -> Vec<(DatasetPreset, f64, u32, f64)> {
    vec![
        (DatasetPreset::BrightkiteLike, 0.25, 3, 8.0),
        (DatasetPreset::GowallaLike, 0.25, 3, 10.0),
        (DatasetPreset::DblpLike, 0.2, 4, 5.0),
        (DatasetPreset::PokecLike, 0.2, 4, 5.0),
    ]
}

#[test]
fn adv_enum_parallel_matches_sequential_on_all_presets() {
    for (preset, scale, k, r) in cases() {
        let ds = BenchDataset::new(preset, scale);
        let p = ds.instance(k, r);
        let seq = krcore::core::enumerate_maximal(&p, &AlgoConfig::adv_enum());
        assert!(seq.completed, "{preset:?} sequential aborted");
        for threads in [2, 4] {
            let par =
                krcore::core::enumerate_maximal(&p, &AlgoConfig::adv_enum().with_threads(threads));
            assert!(par.completed, "{preset:?} threads={threads} aborted");
            assert_eq!(
                par.cores, seq.cores,
                "{preset:?} (k={k}, r={r}, threads={threads}): core families differ"
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
        assert!(seq.completed, "{preset:?} sequential aborted");
        for threads in [2, 4] {
            let par = krcore::core::find_maximum(&p, &AlgoConfig::adv_max().with_threads(threads));
            assert!(par.completed, "{preset:?} threads={threads} aborted");
            assert_eq!(
                par.core.as_ref().map(|c| &c.vertices),
                seq.core.as_ref().map(|c| &c.vertices),
                "{preset:?} (k={k}, r={r}, threads={threads}): maximum cores differ"
            );
            if let Some(core) = &par.core {
                assert!(
                    krcore::core::is_kr_core(&p, core),
                    "{preset:?} threads={threads}: result is not a (k,r)-core"
                );
            }
        }
    }
}

#[test]
fn parallel_preprocessing_matches_sequential_on_all_presets() {
    for (preset, scale, k, r) in cases() {
        let ds = BenchDataset::new(preset, scale);
        let p = ds.instance(k, r);
        let seq = p.preprocess();
        let par = p.preprocess_parallel(4);
        assert_eq!(seq.len(), par.len(), "{preset:?}: component count differs");
        for (a, b) in seq.iter().zip(&par) {
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
