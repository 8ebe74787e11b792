//! Substrate micro-bench: similarity metrics and threshold calibration
//! (the per-pair cost behind every `DP` counter in the paper).

use criterion::{criterion_group, criterion_main, Criterion};
use kr_datagen::DatasetPreset;
use kr_similarity::{
    build_dissimilarity_lists_brute, build_dissimilarity_view, top_permille_threshold, Metric,
    SimilarityOracle, TableOracle, Threshold,
};
use std::hint::black_box;

fn bench_similarity(c: &mut Criterion) {
    let mut g = c.benchmark_group("similarity");
    let dblp = DatasetPreset::DblpLike.generate_scaled(0.5);
    let oracle = TableOracle::new(
        dblp.attributes.clone(),
        Metric::WeightedJaccard,
        Threshold::MinSimilarity(0.4),
    );
    let n = dblp.graph.num_vertices() as u32;
    g.bench_function("weighted_jaccard_pairs", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for u in (0..n).step_by(37) {
                for v in (1..n).step_by(41) {
                    if u != v && oracle.is_similar(u, v) {
                        acc += 1;
                    }
                }
            }
            black_box(acc)
        })
    });
    let gow = DatasetPreset::GowallaLike.generate_scaled(0.5);
    let geo = TableOracle::new(
        gow.attributes.clone(),
        Metric::Euclidean,
        Threshold::MaxDistance(8.0),
    );
    let ng = gow.graph.num_vertices() as u32;
    g.bench_function("euclidean_pairs", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for u in (0..ng).step_by(37) {
                for v in (1..ng).step_by(41) {
                    if u != v && geo.is_similar(u, v) {
                        acc += 1;
                    }
                }
            }
            black_box(acc)
        })
    });
    g.bench_function("top_permille_calibration", |b| {
        b.iter(|| {
            black_box(top_permille_threshold(
                &oracle,
                dblp.graph.num_vertices(),
                3.0,
                600,
                7,
            ))
        })
    });
    // Candidate-indexed dissimilarity view vs the brute-force lists over
    // one vertex block — the PR 4 preprocessing hot path.
    let kw_members: Vec<u32> = (0..dblp.graph.num_vertices().min(400) as u32).collect();
    g.bench_function("dissimilarity_indexed_keywords", |b| {
        b.iter(|| black_box(build_dissimilarity_view(&oracle, &kw_members).num_pairs()))
    });
    g.bench_function("dissimilarity_brute_keywords", |b| {
        b.iter(|| black_box(build_dissimilarity_lists_brute(&oracle, &kw_members).num_pairs))
    });
    let geo_members: Vec<u32> = (0..gow.graph.num_vertices().min(400) as u32).collect();
    g.bench_function("dissimilarity_indexed_geo", |b| {
        b.iter(|| black_box(build_dissimilarity_view(&geo, &geo_members).num_pairs()))
    });
    g.bench_function("dissimilarity_brute_geo", |b| {
        b.iter(|| black_box(build_dissimilarity_lists_brute(&geo, &geo_members).num_pairs))
    });
    g.finish();
}

criterion_group!(benches, bench_similarity);
criterion_main!(benches);
