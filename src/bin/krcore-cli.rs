//! Command-line (k,r)-core miner for SNAP-style datasets, plus the
//! long-lived query service and its client.
//!
//! ```text
//! krcore-cli enum   --edges graph.txt --points locs.tsv    --k 5 --r 10        [--out cores.txt]
//! krcore-cli enum   --edges dblp.txt  --keywords kw.tsv    --k 5 --r 0.4
//! krcore-cli max    --edges dblp.txt  --keywords kw.tsv    --k 5 --permille 3
//! krcore-cli stats  --edges graph.txt --points locs.tsv    --k 5 --r 10
//! krcore-cli ingest edges.txt (--points locs.tsv | --keywords kw.tsv) -o data.krb
//! krcore-cli serve  [--addr 127.0.0.1:7878] [--cache-capacity 16] [--max-time-limit-ms MS] \
//!                   [--dataset name=path.krb]... [--log PATH|-] [--slow-query-ms MS] \
//!                   [--max-connections N] [--max-queries-per-dataset N]
//! krcore-cli query  --addr 127.0.0.1:7878 <enum|max> --dataset gowalla-like --k 3 --r 8 \
//!                   [--scale 0.25] [--algo adv|basic] [--threads N] [--out FILE]
//! krcore-cli query  --addr 127.0.0.1:7878 <stats|metrics|ping|shutdown>
//! krcore-cli query  --addr 127.0.0.1:7878 <add-edges|remove-edges> --dataset NAME \
//!                   [--scale S] --edge U,V [--edge U,V]...
//! krcore-cli query  --addr 127.0.0.1:7878 set-point --dataset NAME [--scale S] \
//!                   --vertex W --point X,Y
//! ```
//!
//! * `--points FILE` selects Euclidean distance (`--r` is a max distance);
//! * `--keywords FILE` selects weighted Jaccard (`--r` is a min similarity,
//!   or use `--permille X` to calibrate r as the top-X‰ pairwise quantile);
//! * `--algo` picks the configuration (`adv` default, `basic`, `naive`,
//!   `clique`);
//! * `--threads N` is accepted and ignored (preprocessing and the search
//!   run sequentially); it will be removed in the next release;
//! * `--time-limit-ms` bounds the run (prints a warning when exceeded);
//! * `ingest` streams a SNAP edge list + attribute TSV (attribute rows
//!   keyed by the file's original sparse ids) into a verified `.krb`
//!   binary snapshot — the format `serve --dataset` hosts; with
//!   `--with-index` it also precomputes the (k,r)-core decomposition
//!   index and embeds it as an optional snapshot section, so the server
//!   resolves every `(k, r)` cache miss by index lookup from the first
//!   query on;
//! * `serve` hosts the preset datasets — plus any `--dataset name=path.krb`
//!   snapshots — behind the line-delimited JSON protocol of `kr_server`
//!   (preprocessed components cached per `(dataset, k, r-band)`,
//!   enumeration results streamed); `--log PATH` (or `-` for stderr)
//!   turns on the structured span/slow-query trace log, and
//!   `--slow-query-ms MS` sets the slow-query threshold (default 1000;
//!   `0` logs every query); `--max-connections N` caps live sessions
//!   (overflow gets a `busy` frame; `0` = unlimited) and
//!   `--max-queries-per-dataset N` caps in-flight queries per dataset
//!   (see `docs/OPERATIONS.md`);
//! * `query add-edges` / `remove-edges` / `set-point` are the write half
//!   of the client: batched graph mutations applied atomically server-side
//!   (the whole batch is rejected on any invalid update), answered with a
//!   `mutated` frame whose counters print as TAB rows — `applied`,
//!   `ignored`, `version`, `core_updates`, and the cache `repairs` /
//!   `invalidations` the batch triggered;
//! * `query` is the matching client: cores stream to stdout as they
//!   arrive, diagnostics (cache hit/miss, timing, the server-assigned
//!   trace id) to stderr; `query metrics` prints the server's metrics
//!   registry — counters and gauges as `name<TAB>value`, histograms
//!   exploded into `.count`/`.sum`/`.p50`/`.p90`/`.p99` rows (all
//!   microseconds for the latency histograms).

use krcore::core::{
    clique_based_maximal, enumerate_maximal, find_maximum, AlgoConfig, ProblemInstance,
};
use krcore::graph::io::{read_edge_list_streaming_with, LoadedGraph};
use krcore::server::{Algo, Client, QuerySpec, Server, ServerConfig};
use krcore::similarity::{
    read_keywords_mapped, read_points_mapped, top_permille_threshold, write_snapshot_file,
    AttrJoinStats, AttributeTable, Metric, TableOracle, Threshold,
};
use std::io::Write;
use std::process::exit;

struct Args {
    command: String,
    edges: String,
    points: Option<String>,
    keywords: Option<String>,
    k: u32,
    r: Option<f64>,
    permille: Option<f64>,
    algo: String,
    out: Option<String>,
    time_limit_ms: Option<u64>,
}

/// Default edge-record interval of the edge-list loader's progress lines.
const PROGRESS_EVERY_EDGES: u64 = 1_000_000;

fn usage() -> ! {
    eprintln!(
        "usage: krcore-cli <enum|max|stats> --edges FILE (--points FILE | --keywords FILE) \
         --k K (--r R | --permille X) [--algo adv|basic|naive|clique] [--threads N] \
         [--out FILE] [--time-limit-ms MS]\n\
         \x20      krcore-cli ingest EDGES (--points FILE | --keywords FILE) -o OUT.krb \
         [--with-index] [--progress-every EDGES]\n\
         \x20      krcore-cli serve [--addr HOST:PORT] [--cache-capacity N] \
         [--max-time-limit-ms MS] [--max-scale S] [--dataset NAME=PATH.krb]... \
         [--log PATH|-] [--slow-query-ms MS] [--max-connections N] \
         [--max-queries-per-dataset N]\n\
         \x20      krcore-cli query --addr HOST:PORT <enum|max|stats|metrics|ping|shutdown> \
         [--dataset NAME --k K --r R] [--scale S] [--algo adv|basic] [--threads N] \
         [--time-limit-ms MS] [--node-limit N] [--out FILE]\n\
         \x20      krcore-cli query --addr HOST:PORT <add-edges|remove-edges> --dataset NAME \
         [--scale S] --edge U,V [--edge U,V]...\n\
         \x20      krcore-cli query --addr HOST:PORT set-point --dataset NAME [--scale S] \
         --vertex W --point X,Y"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let command = it.next().unwrap_or_else(|| usage());
    if !matches!(command.as_str(), "enum" | "max" | "stats") {
        usage();
    }
    let mut args = Args {
        command,
        edges: String::new(),
        points: None,
        keywords: None,
        k: 0,
        r: None,
        permille: None,
        algo: "adv".into(),
        out: None,
        time_limit_ms: None,
    };
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--edges" => args.edges = val(),
            "--points" => args.points = Some(val()),
            "--keywords" => args.keywords = Some(val()),
            "--k" => args.k = val().parse().unwrap_or_else(|_| usage()),
            "--r" => args.r = Some(val().parse().unwrap_or_else(|_| usage())),
            "--permille" => args.permille = Some(val().parse().unwrap_or_else(|_| usage())),
            "--algo" => args.algo = val(),
            "--out" => args.out = Some(val()),
            "--time-limit-ms" => {
                args.time_limit_ms = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            // Accepted so existing scripts keep working; nothing reads it.
            "--threads" => drop(val()),
            _ => usage(),
        }
    }
    if args.edges.is_empty() || args.k == 0 {
        usage();
    }
    if args.points.is_some() == args.keywords.is_some() {
        eprintln!("exactly one of --points / --keywords is required");
        exit(2);
    }
    if args.r.is_some() == args.permille.is_some() {
        eprintln!("exactly one of --r / --permille is required");
        exit(2);
    }
    if args.permille.is_some() && args.points.is_some() {
        eprintln!("--permille only applies to keyword similarity");
        exit(2);
    }
    args
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("serve") => return cmd_serve(),
        Some("query") => return cmd_query(),
        Some("ingest") => return cmd_ingest(),
        _ => {}
    }
    let args = parse_args();
    let (loaded, attrs, metric, _) = load_attributed_graph(
        &args.edges,
        args.points.as_deref(),
        args.keywords.as_deref(),
        PROGRESS_EVERY_EDGES,
    );
    let n = loaded.graph.num_vertices();

    let threshold = match (metric, args.r, args.permille) {
        (Metric::Euclidean, Some(r), _) => Threshold::MaxDistance(r),
        (Metric::WeightedJaccard, Some(r), _) => Threshold::MinSimilarity(r),
        (Metric::WeightedJaccard, None, Some(x)) => {
            let oracle = TableOracle::new(attrs.clone(), metric, Threshold::MinSimilarity(0.0));
            let r = top_permille_threshold(&oracle, n, x, 3000, 0x5EED);
            eprintln!("calibrated r = {r:.4} (top {x} permille)");
            Threshold::MinSimilarity(r)
        }
        _ => usage(),
    };

    let problem = ProblemInstance::new(loaded.graph, attrs, metric, threshold, args.k);
    let mut cfg = match args.algo.as_str() {
        "adv" => AlgoConfig::adv_enum(),
        "basic" => AlgoConfig::basic_enum(),
        "naive" => AlgoConfig::naive_enum(),
        "clique" => AlgoConfig::adv_enum(), // handled separately below
        other => {
            eprintln!("unknown --algo {other}");
            exit(2);
        }
    };
    if let Some(ms) = args.time_limit_ms {
        cfg = cfg.with_time_limit_ms(ms);
    }

    let t0 = std::time::Instant::now();
    match args.command.as_str() {
        "enum" | "stats" => {
            let cores = if args.algo == "clique" {
                clique_based_maximal(&problem)
            } else {
                let res = enumerate_maximal(&problem, &cfg);
                if !res.completed {
                    eprintln!("warning: time budget exceeded; results are incomplete");
                }
                res.cores
            };
            eprintln!(
                "{} maximal (k,r)-cores in {:.2?}",
                cores.len(),
                t0.elapsed()
            );
            if args.command == "stats" {
                let max = cores.iter().map(|c| c.len()).max().unwrap_or(0);
                let avg = if cores.is_empty() {
                    0.0
                } else {
                    cores.iter().map(|c| c.len()).sum::<usize>() as f64 / cores.len() as f64
                };
                println!("cores\t{}", cores.len());
                println!("max_size\t{max}");
                println!("avg_size\t{avg:.2}");
            } else {
                let mut out: Box<dyn Write> = match &args.out {
                    Some(path) => Box::new(std::io::BufWriter::new(
                        std::fs::File::create(path).unwrap_or_else(|e| {
                            eprintln!("cannot create {path}: {e}");
                            exit(1)
                        }),
                    )),
                    None => Box::new(std::io::stdout().lock()),
                };
                for core in &cores {
                    let ids: Vec<String> = core
                        .vertices
                        .iter()
                        .map(|&v| loaded.original_ids[v as usize].to_string())
                        .collect();
                    writeln!(out, "{}", ids.join("\t")).expect("write failed");
                }
            }
        }
        "max" => {
            let cfg = if args.algo == "basic" {
                AlgoConfig::basic_max()
            } else {
                AlgoConfig::adv_max()
            };
            let cfg = match args.time_limit_ms {
                Some(ms) => cfg.with_time_limit_ms(ms),
                None => cfg,
            };
            let res = find_maximum(&problem, &cfg);
            if !res.completed {
                eprintln!("warning: time budget exceeded; result may be suboptimal");
            }
            match res.core {
                Some(core) => {
                    eprintln!(
                        "maximum core: {} vertices in {:.2?}",
                        core.len(),
                        t0.elapsed()
                    );
                    let ids: Vec<String> = core
                        .vertices
                        .iter()
                        .map(|&v| loaded.original_ids[v as usize].to_string())
                        .collect();
                    println!("{}", ids.join("\t"));
                }
                None => {
                    eprintln!("no (k,r)-core exists for k={} at this threshold", args.k);
                    exit(1);
                }
            }
        }
        _ => usage(),
    }
}

/// Streams the edge list at `edges` and joins the attribute file
/// (`points` or `keywords`, exactly one given) onto it by the edge list's
/// original ids, reporting load progress and the join counts on stderr.
/// Shared by `ingest` and the one-shot commands; exits 1 when a file
/// cannot be read or parsed.
fn load_attributed_graph(
    edges: &str,
    points: Option<&str>,
    keywords: Option<&str>,
    progress_every: u64,
) -> (LoadedGraph, AttributeTable, Metric, AttrJoinStats) {
    let t0 = std::time::Instant::now();
    let source = std::fs::File::open(edges).unwrap_or_else(|e| {
        eprintln!("failed to open {edges}: {e}");
        exit(1)
    });
    let (loaded, progress) = read_edge_list_streaming_with(source, progress_every.max(1), |p| {
        eprintln!(
            "  ... {} edges / {} vertices ({} MiB read)",
            p.edges,
            p.vertices,
            p.bytes >> 20
        );
    })
    .unwrap_or_else(|e| {
        eprintln!("failed to read {edges}: {e}");
        exit(1)
    });
    let n = loaded.graph.num_vertices();
    eprintln!(
        "streamed {} vertices / {} edges ({} raw records, {} bytes) in {:.2?}",
        n,
        loaded.graph.num_edges(),
        progress.edges,
        progress.bytes,
        t0.elapsed()
    );

    let (path, metric) = match (points, keywords) {
        (Some(path), _) => (path, Metric::Euclidean),
        (None, Some(path)) => (path, Metric::WeightedJaccard),
        (None, None) => usage(),
    };
    let f = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("failed to open {path}: {e}");
        exit(1)
    });
    let read = if metric == Metric::Euclidean {
        read_points_mapped(f, &loaded.id_map, n)
    } else {
        read_keywords_mapped(f, &loaded.id_map, n)
    };
    let (attrs, stats) = read.unwrap_or_else(|e| {
        eprintln!("failed to parse {path}: {e}");
        exit(1)
    });
    eprintln!(
        "joined attributes: {} rows matched, {} rows for vertices absent from the graph",
        stats.matched, stats.unmatched
    );
    (loaded, attrs, metric, stats)
}

/// `krcore-cli ingest`: stream an edge list + attribute file into a
/// verified binary snapshot (`.krb`) that `serve --dataset` can host.
fn cmd_ingest() {
    let mut edges: Option<String> = None;
    let mut points: Option<String> = None;
    let mut keywords: Option<String> = None;
    let mut out: Option<String> = None;
    let mut with_index = false;
    let mut progress_every = PROGRESS_EVERY_EDGES;
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--points" => points = Some(val()),
            "--keywords" => keywords = Some(val()),
            "-o" | "--out" => out = Some(val()),
            "--with-index" => with_index = true,
            "--progress-every" => progress_every = val().parse().unwrap_or_else(|_| usage()),
            _ if edges.is_none() && !arg.starts_with('-') => edges = Some(arg),
            _ => usage(),
        }
    }
    let (Some(edges), Some(out)) = (edges, out) else {
        usage()
    };
    if points.is_some() == keywords.is_some() {
        eprintln!("exactly one of --points / --keywords is required");
        exit(2);
    }

    let (loaded, attrs, metric, stats) = load_attributed_graph(
        &edges,
        points.as_deref(),
        keywords.as_deref(),
        progress_every,
    );
    let n = loaded.graph.num_vertices();

    let write_result = if with_index {
        let t_ix = std::time::Instant::now();
        let threshold = if metric.is_distance() {
            Threshold::MaxDistance(f64::MAX)
        } else {
            Threshold::MinSimilarity(0.0)
        };
        let oracle = TableOracle::new(attrs.clone(), metric, threshold);
        let index = krcore::core::decomp::DecompositionIndex::build_default(&loaded.graph, &oracle);
        eprintln!(
            "built decomposition index: {} r-bands, {} KiB, in {:.2?}",
            index.bands().len(),
            index.memory_bytes() >> 10,
            t_ix.elapsed()
        );
        krcore::core::decomp::write_indexed_snapshot_file(
            &out,
            &loaded.graph,
            &loaded.original_ids,
            &attrs,
            metric,
            &index,
        )
    } else {
        write_snapshot_file(&out, &loaded.graph, &loaded.original_ids, &attrs, metric)
    };
    if let Err(e) = write_result {
        eprintln!("failed to write {out}: {e}");
        exit(1);
    }
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    // Machine-readable summary on stdout so scripts can scrape it.
    println!(
        "wrote {out}: {} vertices, {} edges, {} attribute rows, {} bytes, metric {:?}{}",
        n,
        loaded.graph.num_edges(),
        stats.matched,
        bytes,
        metric,
        if with_index { ", indexed" } else { "" }
    );
}

/// `krcore-cli serve`: host the preset datasets behind the wire protocol.
fn cmd_serve() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => config.addr = val(),
            "--cache-capacity" => config.cache_capacity = val().parse().unwrap_or_else(|_| usage()),
            "--max-time-limit-ms" => {
                config.max_time_limit_ms = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--max-node-limit" => {
                config.max_node_limit = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--max-scale" => config.max_scale = val().parse().unwrap_or_else(|_| usage()),
            "--log" => config.trace_log = Some(val()),
            "--slow-query-ms" => config.slow_query_ms = val().parse().unwrap_or_else(|_| usage()),
            "--max-connections" => {
                config.max_connections = val().parse().unwrap_or_else(|_| usage())
            }
            "--max-queries-per-dataset" => {
                config.max_queries_per_dataset = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--dataset" => {
                let spec = val();
                let Some((name, path)) = spec.split_once('=') else {
                    eprintln!("--dataset expects NAME=PATH.krb, got {spec:?}");
                    exit(2);
                };
                config
                    .file_datasets
                    .push((name.to_string(), path.to_string()));
            }
            _ => usage(),
        }
    }
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind: {e}");
            exit(1);
        }
    };
    // Machine-readable line on stdout so scripts can scrape the port.
    println!("kr-server listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run() {
        eprintln!("server failed: {e}");
        exit(1);
    }
    eprintln!("kr-server shut down cleanly");
}

/// `krcore-cli query`: the protocol client. Cores stream to stdout as
/// frames arrive; diagnostics go to stderr.
fn cmd_query() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut action: Option<String> = None;
    let mut dataset: Option<String> = None;
    let mut k: u32 = 0;
    let mut r: Option<f64> = None;
    let mut scale: Option<f64> = None;
    let mut algo = Algo::Adv;
    let mut time_limit_ms: Option<u64> = None;
    let mut node_limit: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut vertex: Option<u32> = None;
    let mut point: Option<(f64, f64)> = None;
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => addr = val(),
            "--dataset" => dataset = Some(val()),
            "--k" => k = val().parse().unwrap_or_else(|_| usage()),
            "--r" => r = Some(val().parse().unwrap_or_else(|_| usage())),
            "--scale" => scale = Some(val().parse().unwrap_or_else(|_| usage())),
            "--algo" => {
                algo = match val().as_str() {
                    "adv" => Algo::Adv,
                    "basic" => Algo::Basic,
                    _ => usage(),
                }
            }
            // Accepted so existing scripts keep working; nothing reads it.
            "--threads" => drop(val()),
            "--time-limit-ms" => time_limit_ms = Some(val().parse().unwrap_or_else(|_| usage())),
            "--node-limit" => node_limit = Some(val().parse().unwrap_or_else(|_| usage())),
            "--out" => out = Some(val()),
            "--edge" => {
                let spec = val();
                let (u, v) = spec.split_once(',').unwrap_or_else(|| usage());
                edges.push((
                    u.parse().unwrap_or_else(|_| usage()),
                    v.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--vertex" => vertex = Some(val().parse().unwrap_or_else(|_| usage())),
            "--point" => {
                let spec = val();
                let (x, y) = spec.split_once(',').unwrap_or_else(|| usage());
                point = Some((
                    x.parse().unwrap_or_else(|_| usage()),
                    y.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "enum" | "max" | "stats" | "metrics" | "ping" | "shutdown" | "add-edges"
            | "remove-edges" | "set-point"
                if action.is_none() =>
            {
                action = Some(arg)
            }
            _ => usage(),
        }
    }
    let action = action.unwrap_or_else(|| usage());

    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            exit(1);
        }
    };
    let fail = |e: krcore::server::ClientError| -> ! {
        eprintln!("query failed: {e}");
        exit(1);
    };
    match action.as_str() {
        "ping" => {
            client.ping().unwrap_or_else(|e| fail(e));
            println!("pong");
        }
        "shutdown" => {
            client.shutdown().unwrap_or_else(|e| fail(e));
            println!("server shutting down");
        }
        "stats" => {
            let stats = client.stats().unwrap_or_else(|e| fail(e));
            println!("hits\t{}", stats.hits);
            println!("misses\t{}", stats.misses);
            println!("evictions\t{}", stats.evictions);
            println!("entries\t{}", stats.entries);
            println!("resident_bytes\t{}", stats.resident_bytes);
            println!("preprocess_ms\t{}", stats.preprocess_ms);
            println!("oracle_evals\t{}", stats.oracle_evals);
            println!("index_hits\t{}", stats.index_hits);
            println!("residual_vertices\t{}", stats.residual_vertices);
            println!("repairs\t{}", stats.repairs);
            println!("invalidations\t{}", stats.invalidations);
        }
        "metrics" => {
            // Flat TAB-separated rows so scripts can `awk -F'\t'` them.
            let snap = client.metrics().unwrap_or_else(|e| fail(e));
            for (name, value) in &snap.counters {
                println!("{name}\t{value}");
            }
            for (name, value) in &snap.gauges {
                println!("{name}\t{value}");
            }
            for (name, h) in &snap.histograms {
                println!("{name}.count\t{}", h.count);
                println!("{name}.sum\t{}", h.sum);
                println!("{name}.p50\t{}", h.quantile(0.5));
                println!("{name}.p90\t{}", h.quantile(0.9));
                println!("{name}.p99\t{}", h.quantile(0.99));
            }
        }
        cmd @ ("add-edges" | "remove-edges" | "set-point") => {
            let dataset = dataset.unwrap_or_else(|| usage());
            let scale = scale.unwrap_or(1.0);
            let res = match cmd {
                "add-edges" | "remove-edges" => {
                    if edges.is_empty() {
                        usage();
                    }
                    if cmd == "add-edges" {
                        client.add_edges(&dataset, scale, edges)
                    } else {
                        client.remove_edges(&dataset, scale, edges)
                    }
                }
                _ => {
                    let w = vertex.unwrap_or_else(|| usage());
                    let (x, y) = point.unwrap_or_else(|| usage());
                    client.set_attributes(
                        &dataset,
                        scale,
                        vec![(w, krcore::server::AttributeValue::Point(x, y))],
                    )
                }
            }
            .unwrap_or_else(|e| fail(e));
            eprintln!(
                "mutation applied in {} ms server-side{}",
                res.elapsed_ms,
                if res.trace.is_empty() {
                    String::new()
                } else {
                    format!(" | trace {}", res.trace)
                },
            );
            // Same TAB rows as `stats`, so scripts scrape both alike.
            println!("applied\t{}", res.applied);
            println!("ignored\t{}", res.ignored);
            println!("version\t{}", res.version);
            println!("core_updates\t{}", res.core_updates);
            println!("repairs\t{}", res.repairs);
            println!("invalidations\t{}", res.invalidations);
        }
        cmd @ ("enum" | "max") => {
            let dataset = dataset.unwrap_or_else(|| usage());
            let r = r.unwrap_or_else(|| usage());
            if k == 0 {
                usage();
            }
            let mut spec = QuerySpec::new(&dataset, k, r);
            if let Some(scale) = scale {
                spec.scale = scale;
            }
            spec.algo = algo;
            spec.time_limit_ms = time_limit_ms;
            spec.node_limit = node_limit;
            let result = if cmd == "enum" {
                client.enumerate(spec)
            } else {
                client.maximum(spec)
            }
            .unwrap_or_else(|e| fail(e));
            eprintln!(
                "{} core(s) | cache {} | {} search nodes | {} ms server-side{}",
                result.cores.len(),
                result.cache.name(),
                result.nodes,
                result.elapsed_ms,
                if result.trace.is_empty() {
                    String::new()
                } else {
                    format!(" | trace {}", result.trace)
                },
            );
            if !result.completed {
                eprintln!("warning: budget exceeded server-side; results are incomplete");
            }
            let mut sink: Box<dyn Write> = match &out {
                Some(path) => Box::new(std::io::BufWriter::new(
                    std::fs::File::create(path).unwrap_or_else(|e| {
                        eprintln!("cannot create {path}: {e}");
                        exit(1)
                    }),
                )),
                None => Box::new(std::io::stdout().lock()),
            };
            for core in &result.cores {
                let ids: Vec<String> = core.iter().map(|v| v.to_string()).collect();
                writeln!(sink, "{}", ids.join("\t")).expect("write failed");
            }
        }
        _ => usage(),
    }
}
