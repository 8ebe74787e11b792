//! (k,r)-core statistics explorer — the paper's Figure 7 on any preset.
//!
//! Prints the number of maximal cores and their size distribution across a
//! (k, r) grid, showing the paper's observation that counts and maximum
//! sizes react much more sharply to k and r than average sizes do.
//!
//! ```sh
//! cargo run --release --example core_statistics [preset] [scale]
//! # preset: brightkite | gowalla | dblp | pokec (default gowalla)
//! ```

use krcore::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let preset = match args.next().as_deref() {
        Some("brightkite") => DatasetPreset::BrightkiteLike,
        Some("dblp") => DatasetPreset::DblpLike,
        Some("pokec") => DatasetPreset::PokecLike,
        _ => DatasetPreset::GowallaLike,
    };
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.5);

    let bench = kr_bench_dataset(preset, scale);
    println!(
        "{}: {} vertices, {} edges (scale {scale})",
        bench.data.name,
        bench.data.graph.num_vertices(),
        bench.data.graph.num_edges()
    );
    let rs = bench.default_r_sweep();
    println!(
        "\n{:>4} {:>8} | {:>8} {:>8} {:>8}",
        "k", "r", "#cores", "max", "avg"
    );
    for k in [3u32, 4, 5, 6] {
        for &r in &rs {
            let p = bench.instance(k, r);
            let res = enumerate_maximal(&p, &AlgoConfig::adv_enum().with_time_limit_ms(10_000));
            let (count, max, avg) = res.size_summary();
            let flag = if res.completed { " " } else { "*" };
            println!("{k:>4} {r:>8} | {count:>8} {max:>8} {avg:>8.1}{flag}");
        }
    }
    println!("\n(* = run hit the time budget; counts are partial)");
}

// Small helper so the example depends only on the public crates.
fn kr_bench_dataset(preset: DatasetPreset, scale: f64) -> kr_bench::BenchDataset {
    kr_bench::BenchDataset::new(preset, scale)
}
