//! Pooled vs sequential preprocessing (k-core peel, similarity filter,
//! component split and arena builds) on the largest presets, across
//! worker counts, at `k = 3, r = 10` (the dblp-like bench_smoke point).
//! The search itself is always sequential; `threads` only sizes this
//! pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kr_bench::BenchDataset;
use kr_datagen::DatasetPreset;
use std::hint::black_box;

fn bench_preprocess(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_preprocess");
    g.sample_size(10);
    for (name, preset) in [
        ("dblp", DatasetPreset::DblpLike),
        ("pokec", DatasetPreset::PokecLike),
    ] {
        let p = BenchDataset::new(preset, 1.0).instance(3, 10.0);
        g.bench_with_input(
            BenchmarkId::new("preprocess", format!("{name}_seq")),
            &p,
            |b, p| b.iter(|| black_box(p.preprocess().len())),
        );
        for threads in [2, 4] {
            g.bench_with_input(
                BenchmarkId::new("preprocess", format!("{name}_par{threads}")),
                &p,
                |b, p| b.iter(|| black_box(p.preprocess_parallel(threads).len())),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_preprocess);
criterion_main!(benches);
