//! Criterion counterpart of Figure 10's mechanism: the cost of each size
//! upper bound at the root states of every component, summed, at
//! bench_smoke's three points (gowalla-like k = 3 r = 12, dblp-like
//! k = 3 r = 10, the 26×40 corridor at r = 7). Components of more than 64
//! vertices take the counter layout's bounds, the rest the one-word ones.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kr_bench::{corridor_instance, BenchDataset};
use kr_core::bounds::size_upper_bound;
use kr_core::search::SearchState;
use kr_core::BoundKind;
use kr_datagen::DatasetPreset;
use std::hint::black_box;

fn bench_bounds(c: &mut Criterion) {
    let mut g = c.benchmark_group("bounds");
    let gowalla = BenchDataset::new(DatasetPreset::GowallaLike, 1.0).instance(3, 12.0);
    let dblp = BenchDataset::new(DatasetPreset::DblpLike, 1.0).instance(3, 10.0);
    let corridor = corridor_instance(26, 40, 3, 7.0);
    for (name, p) in [
        ("gowalla_k3_r12", gowalla),
        ("dblp_k3_r10", dblp),
        ("corridor_26x40_r7", corridor),
    ] {
        // Preprocessed components are k-cores: their root states need no pruning.
        let comps = p.preprocess();
        let roots: Vec<SearchState<'_>> = comps.iter().map(SearchState::new).collect();
        for bound in [
            BoundKind::Naive,
            BoundKind::Color,
            BoundKind::KCore,
            BoundKind::ColorKCore,
            BoundKind::DoubleKCore,
        ] {
            g.bench_with_input(
                BenchmarkId::new(format!("{bound:?}"), format!("{name}_roots")),
                &roots,
                |b, roots| {
                    b.iter(|| {
                        let sum: u32 = roots.iter().map(|st| size_upper_bound(st, bound)).sum();
                        black_box(sum)
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_bounds);
criterion_main!(benches);
