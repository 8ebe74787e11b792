//! Pins the PR 4 candidate-index acceptance criteria on the real preset
//! datasets:
//!
//! 1. indexed preprocessing is **byte-identical** to the brute-force
//!    reference — same dissimilarity CSR rows, same `num_pairs` — on
//!    every preset family;
//! 2. on the gowalla-like geo preset (the bench-smoke point:
//!    k = 3, r = 12 km) the indexed build spends at least **5× fewer**
//!    metric evaluations than brute force, measured in the same run.

use kr_bench::BenchDataset;
use kr_datagen::DatasetPreset;
use kr_similarity::build_dissimilarity_lists_brute;

/// Indexed components vs the brute-force dissimilarity reference over the
/// same member sets; returns (indexed evals, brute evals).
fn check_preset(preset: DatasetPreset, scale: f64, k: u32, r: f64) -> (u64, u64) {
    let ds = BenchDataset::new(preset, scale);
    let p = ds.instance(k, r);
    let comps = p.preprocess();
    assert!(
        !comps.is_empty(),
        "{} k={k} r={r} must produce components for the comparison to mean anything",
        preset.name()
    );
    let mut indexed_evals = 0u64;
    let mut brute_evals = 0u64;
    for comp in &comps {
        let brute = build_dissimilarity_lists_brute(p.oracle(), &comp.local_to_global);
        assert_eq!(comp.num_dissimilar_pairs, brute.num_pairs);
        indexed_evals += comp.oracle_evals;
        brute_evals += brute.oracle_evals;
        // Every row of the component's view visits exactly the
        // brute-force partners, in order.
        for u in 0..comp.len() as u32 {
            let mut row = Vec::new();
            comp.for_each_dissimilar(u, |w| row.push(w));
            assert_eq!(
                row,
                brute.row(u),
                "{} component of {} vertices, row {u}: indexed dissimilarity must match \
                 brute force",
                preset.name(),
                comp.len()
            );
        }
    }
    (indexed_evals, brute_evals)
}

#[test]
fn gowalla_geo_preset_drops_oracle_evals_at_least_5x() {
    // Same parameters as the bench-smoke geo trajectory point.
    let (indexed, brute) = check_preset(DatasetPreset::GowallaLike, 1.0, 3, 12.0);
    assert!(
        brute >= 5 * indexed,
        "grid index must cut metric evaluations >= 5x on the geo preset: \
         indexed {indexed} vs brute {brute} ({:.1}x)",
        brute as f64 / indexed.max(1) as f64
    );
}

#[test]
fn brightkite_geo_preset_matches_brute_force() {
    let (indexed, brute) = check_preset(DatasetPreset::BrightkiteLike, 0.5, 3, 8.0);
    assert!(indexed <= brute);
}

#[test]
fn dblp_keyword_preset_matches_brute_force() {
    // Keyword preset at reduced scale (weighted-Jaccard pairs are ~30x
    // costlier than Euclidean, and `cargo test` runs unoptimized).
    let (indexed, brute) = check_preset(DatasetPreset::DblpLike, 0.35, 3, 10.0);
    assert!(
        indexed < brute,
        "inverted index must prune at least some pairs: {indexed} vs {brute}"
    );
}

#[test]
fn pokec_keyword_preset_matches_brute_force() {
    let (indexed, brute) = check_preset(DatasetPreset::PokecLike, 0.35, 3, 10.0);
    assert!(indexed <= brute);
}
