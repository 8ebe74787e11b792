//! Criterion counterpart of Figures 8, 9, 11(d–f), 12(a), 13: maximal
//! (k,r)-core enumeration across algorithm configurations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kr_bench::BenchDataset;
use kr_core::{
    clique_based_maximal, enumerate_maximal, enumerate_maximal_prepared, AlgoConfig,
    ProblemInstance,
};
use kr_datagen::DatasetPreset;
use kr_similarity::Threshold;
use std::hint::black_box;

fn bench_enumeration(c: &mut Criterion) {
    let mut g = c.benchmark_group("enumeration");
    g.sample_size(10);
    let ds = BenchDataset::new(DatasetPreset::GowallaLike, 0.5);
    let p = ds.instance(4, 8.0);
    // Budget keeps pathological configs bounded; AdvEnum never hits it.
    let configs = [
        ("BasicEnum", AlgoConfig::basic_enum()),
        ("BE+CR", AlgoConfig::be_cr()),
        ("BE+CR+ET", AlgoConfig::be_cr_et()),
        ("AdvEnum", AlgoConfig::adv_enum()),
        ("AdvEnum-O", AlgoConfig::adv_enum_no_order()),
    ];
    for (name, cfg) in configs {
        let cfg = cfg.with_time_limit_ms(2_000);
        g.bench_with_input(BenchmarkId::new(name, "gowalla_k4_r8"), &p, |b, p| {
            b.iter(|| black_box(enumerate_maximal(p, &cfg).cores.len()))
        });
    }
    g.bench_with_input(
        BenchmarkId::new("CliquePlus", "gowalla_k4_r8"),
        &p,
        |b, p| b.iter(|| black_box(clique_based_maximal(p).len())),
    );

    let dblp = BenchDataset::new(DatasetPreset::DblpLike, 0.5);
    let p2 = dblp.instance(4, 5.0);
    g.bench_with_input(BenchmarkId::new("AdvEnum", "dblp_k4_top5"), &p2, |b, p| {
        b.iter(|| black_box(enumerate_maximal(p, &AlgoConfig::adv_enum()).cores.len()))
    });

    // The served cold-miss shape: dblp-like k = 4 misses spread over the
    // min-similarity band [0.40, 0.50) the way a cold-miss round draws
    // them (golden-ratio steps), each key's components prepared once, so
    // only the search runs: dozens of components of 5 to ~25 vertices
    // per key, all on the one-word search layout.
    let served = BenchDataset::new(DatasetPreset::DblpLike, 1.0).data;
    let keys: Vec<_> = (0..8)
        .map(|j| {
            let r = 0.40 + 0.10 * (j as f64 * 0.618_033_988_749_894_8).fract();
            ProblemInstance::new(
                served.graph.clone(),
                served.attributes.clone(),
                served.metric,
                Threshold::MinSimilarity(r),
                4,
            )
            .preprocess()
        })
        .collect();
    g.bench_with_input(
        BenchmarkId::new("AdvEnum-prepared", "dblp_k4_r0.40-0.50_8keys"),
        &keys,
        |b, keys| {
            let cfg = AlgoConfig::adv_enum();
            b.iter(|| {
                let cores: usize = keys
                    .iter()
                    .map(|comps| enumerate_maximal_prepared(comps, &cfg).cores.len())
                    .sum();
                black_box(cores)
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench_enumeration);
criterion_main!(benches);
