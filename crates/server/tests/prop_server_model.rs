//! Model-based differential test of the whole server: seeded streams of
//! enumerate / maximum queries, interleaved with `add_edge` /
//! `remove_edge` / `set_attribute` batches, against an in-process server
//! hosting two small file datasets (keywords under Jaccard, points under
//! Euclidean distance). A shadow copy of each dataset takes the same
//! writes, and every answer is compared with a from-scratch `kr_core` run
//! on the shadow:
//!
//! * enumerate must return the same family of maximal (k,r)-cores;
//! * maximum must return a core of the same size that passes
//!   [`is_kr_core`].
//!
//! Thresholds are drawn from the current pair values, so they land
//! exactly on some pair's value, and earlier `(k, r)` keys are reused so
//! the cache's hit, repair and invalidate paths all run. A key mostly
//! reruns the command it was first asked with, so hits store answers and
//! later hits replay them, some from entries a write's repair kept. The proptest
//! shim does not shrink, so a failing stream prints its seed; rerun it
//! alone with `KR_MODEL_SEED=<seed>`.

use kr_core::{enumerate_maximal, find_maximum, is_kr_core, AlgoConfig, KrCore, ProblemInstance};
use kr_graph::{Graph, VertexId};
use kr_server::{AttributeValue, CacheStats, Client, QuerySpec, Server, ServerConfig};
use kr_similarity::{write_snapshot_file, AttributeTable, Metric, Threshold};
use std::collections::{BTreeSet, HashMap};

/// Vertices per dataset.
const N: u32 = 14;
/// Operations per stream.
const OPS: usize = 40;
/// Seeded streams per run.
const STREAMS: u64 = 12;

/// SplitMix64: a small, seedable generator with no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Two distinct vertices, smaller first.
    fn pair(&mut self) -> (VertexId, VertexId) {
        let u = self.below(N as u64) as VertexId;
        let v = (u + 1 + self.below(N as u64 - 1) as VertexId) % N;
        (u.min(v), u.max(v))
    }
}

/// The client's view of one hosted dataset: what the server should hold.
struct Shadow {
    name: &'static str,
    metric: Metric,
    edges: BTreeSet<(VertexId, VertexId)>,
    attrs: Vec<AttributeValue>,
}

impl Shadow {
    fn random(name: &'static str, metric: Metric, rng: &mut Rng) -> Shadow {
        let mut edges = BTreeSet::new();
        while edges.len() < 30 {
            edges.insert(rng.pair());
        }
        let attrs = (0..N).map(|_| random_attr(metric, rng)).collect();
        Shadow {
            name,
            metric,
            edges,
            attrs,
        }
    }

    fn graph(&self) -> Graph {
        Graph::from_edges(N as usize, &self.edges.iter().copied().collect::<Vec<_>>())
    }

    fn table(&self) -> AttributeTable {
        match self.metric {
            Metric::Euclidean => AttributeTable::points(
                self.attrs
                    .iter()
                    .map(|a| match a {
                        AttributeValue::Point(x, y) => (*x, *y),
                        other => panic!("not a point: {other:?}"),
                    })
                    .collect(),
            ),
            _ => AttributeTable::keywords(
                self.attrs
                    .iter()
                    .map(|a| match a {
                        AttributeValue::Keywords(k) => k.clone(),
                        other => panic!("not keywords: {other:?}"),
                    })
                    .collect(),
            ),
        }
    }

    fn threshold(&self, r: f64) -> Threshold {
        if self.metric.is_distance() {
            Threshold::MaxDistance(r)
        } else {
            Threshold::MinSimilarity(r)
        }
    }

    /// The metric value of a random pair: a threshold that falls exactly
    /// on a value the filter has to judge.
    fn pair_value(&self, rng: &mut Rng) -> f64 {
        let (u, v) = rng.pair();
        self.metric.evaluate(&self.table(), u, v)
    }

    /// A non-edge to add (`present` false) or an edge to remove. Half the
    /// time the pick is limited to pairs whose value equals the `r` of an
    /// earlier key: the boundary the cache's repair pass has to judge.
    fn edge_pick(
        &self,
        rng: &mut Rng,
        keys: &[(u32, f64, bool)],
        present: bool,
    ) -> Option<(VertexId, VertexId)> {
        let table = self.table();
        let pairs: Vec<(VertexId, VertexId)> = (0..N)
            .flat_map(|u| (u + 1..N).map(move |v| (u, v)))
            .filter(|p| self.edges.contains(p) == present)
            .collect();
        let boundary: Vec<(VertexId, VertexId)> = pairs
            .iter()
            .copied()
            .filter(|&(u, v)| {
                let value = self.metric.evaluate(&table, u, v);
                keys.iter().any(|&(_, r, _)| r == value)
            })
            .collect();
        let pool = if !boundary.is_empty() && rng.chance(50) {
            boundary
        } else {
            pairs
        };
        (!pool.is_empty()).then(|| pool[rng.below(pool.len() as u64) as usize])
    }

    fn problem(&self, k: u32, r: f64) -> ProblemInstance {
        ProblemInstance::new(
            self.graph(),
            self.table(),
            self.metric,
            self.threshold(r),
            k,
        )
    }
}

/// Points on a small integer grid (many equal distances), or 1–4
/// keywords out of 6 (many equal Jaccard values).
fn random_attr(metric: Metric, rng: &mut Rng) -> AttributeValue {
    match metric {
        Metric::Euclidean => AttributeValue::Point(rng.below(6) as f64, rng.below(6) as f64),
        _ => {
            let mut words: Vec<(u32, f64)> = (0..6u32).map(|w| (w, 1.0)).collect();
            let keep = 1 + rng.below(4) as usize;
            while words.len() > keep {
                words.remove(rng.below(words.len() as u64) as usize);
            }
            AttributeValue::Keywords(words)
        }
    }
}

fn sorted_family(cores: impl IntoIterator<Item = Vec<VertexId>>) -> Vec<Vec<VertexId>> {
    let mut family: Vec<Vec<VertexId>> =
        cores.into_iter().map(|c| KrCore::new(c).vertices).collect();
    family.sort();
    family
}

/// What one stream reached besides its cache stats.
#[derive(Default)]
struct Replays {
    /// Queries answered from a stored answer.
    all: u64,
    /// Of those, replays whose key was last answered before a write that
    /// kept (repaired) entries of its dataset: the stored answer was
    /// carried across the repair.
    after_repair: u64,
}

/// The server's `server.answers_replayed` counter.
fn answers_replayed(client: &mut Client) -> u64 {
    client
        .metrics()
        .expect("metrics")
        .counters
        .iter()
        .find(|(name, _)| name == "server.answers_replayed")
        .map_or(0, |&(_, v)| v)
}

/// Runs one seeded stream against a fresh server; panics on the first
/// answer that differs from the shadow's. Returns the server's cache
/// stats at the end of the stream, and its replays.
fn run_stream(seed: u64) -> (CacheStats, Replays) {
    let mut rng = Rng(seed);
    let dir = std::env::temp_dir();
    let mut shadows = [
        Shadow::random("kw", Metric::Jaccard, &mut rng),
        Shadow::random("pts", Metric::Euclidean, &mut rng),
    ];
    let mut files = Vec::new();
    for s in &shadows {
        let path = dir.join(format!(
            "kr_model_{}_{seed}_{}.krb",
            s.name,
            std::process::id()
        ));
        let ids: Vec<u64> = (0..N as u64).collect();
        write_snapshot_file(&path, &s.graph(), &ids, &s.table(), s.metric).expect("write snapshot");
        files.push((s.name.to_string(), path.display().to_string()));
    }
    let paths: Vec<String> = files.iter().map(|(_, p)| p.clone()).collect();
    let handle = Server::bind(ServerConfig {
        file_datasets: files,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    // Earlier (k, r) keys per dataset, reused so cached entries meet
    // the writes that follow them, each with the command it was first
    // asked with (true: maximum).
    let mut keys: [Vec<(u32, f64, bool)>; 2] = [Vec::new(), Vec::new()];
    let mut replays = Replays::default();
    // Per dataset, the writes so far that kept some entry; per query, how
    // many there had been when it was last answered.
    let mut repairs_seen = [0u64; 2];
    let mut answered_at: HashMap<(usize, u32, u64, bool), u64> = HashMap::new();

    for op in 0..OPS {
        let d = rng.below(2) as usize;
        let shadow = &mut shadows[d];
        let name = shadow.name;
        if rng.chance(60) {
            let (k, r, maximum) = if !keys[d].is_empty() && rng.chance(75) {
                let (k, r, maximum) = keys[d][rng.below(keys[d].len() as u64) as usize];
                (k, r, maximum != rng.chance(20))
            } else {
                let key = (
                    1 + rng.below(3) as u32,
                    shadow.pair_value(&mut rng),
                    rng.chance(50),
                );
                keys[d].push(key);
                key
            };
            let spec = QuerySpec::new(name, k, r);
            let problem = shadow.problem(k, r);
            if !maximum {
                let got = client.enumerate(spec).expect("enumerate");
                let want = enumerate_maximal(&problem, &AlgoConfig::adv_enum());
                assert_eq!(
                    sorted_family(got.cores),
                    sorted_family(want.cores.into_iter().map(|c| c.vertices)),
                    "op {op}: enumerate {name} k={k} r={r} ({:?})",
                    got.cache
                );
            } else {
                let got = client.maximum(spec).expect("maximum");
                let want = find_maximum(&problem, &AlgoConfig::adv_max());
                let got_core = got.cores.into_iter().next().map(KrCore::new);
                assert_eq!(
                    got_core.as_ref().map(|c| c.vertices.len()),
                    want.core.as_ref().map(|c| c.vertices.len()),
                    "op {op}: maximum size {name} k={k} r={r} ({:?})",
                    got.cache
                );
                if let Some(core) = &got_core {
                    assert!(
                        is_kr_core(&problem, core),
                        "op {op}: maximum {name} k={k} r={r} is not a (k,r)-core: {core:?}"
                    );
                }
            }
            let replayed = answers_replayed(&mut client);
            let query = (d, k, r.to_bits(), maximum);
            if replayed > replays.all {
                replays.all = replayed;
                if answered_at
                    .get(&query)
                    .is_some_and(|&at| at < repairs_seen[d])
                {
                    replays.after_repair += 1;
                }
            }
            answered_at.insert(query, repairs_seen[d]);
            continue;
        }
        let batch = 1 + rng.below(3) as usize;
        match rng.below(3) {
            0 => {
                let edges: Vec<_> = (0..batch)
                    .filter_map(|_| shadow.edge_pick(&mut rng, &keys[d], false))
                    .collect();
                let done = client
                    .add_edges(name, 1.0, edges.clone())
                    .expect("add edges");
                repairs_seen[d] += u64::from(done.repairs > 0);
                shadow.edges.extend(edges);
            }
            1 => {
                let edges: Vec<_> = (0..batch)
                    .filter_map(|_| shadow.edge_pick(&mut rng, &keys[d], true))
                    .collect();
                let done = client
                    .remove_edges(name, 1.0, edges.clone())
                    .expect("remove edges");
                repairs_seen[d] += u64::from(done.repairs > 0);
                for e in edges {
                    shadow.edges.remove(&e);
                }
            }
            _ => {
                let updates: Vec<_> = (0..batch)
                    .map(|_| {
                        let w = rng.below(N as u64) as VertexId;
                        (w, random_attr(shadow.metric, &mut rng))
                    })
                    .collect();
                let done = client
                    .set_attributes(name, 1.0, updates.clone())
                    .expect("set attributes");
                repairs_seen[d] += u64::from(done.repairs > 0);
                for (w, value) in updates {
                    shadow.attrs[w as usize] = value;
                }
            }
        }
    }
    let stats = client.stats().expect("stats");
    handle.shutdown_and_join().expect("clean shutdown");
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
    (stats, replays)
}

/// Prints the seed of a stream that panics, since the failure output
/// otherwise names only the operation.
struct SeedReport(u64);

impl Drop for SeedReport {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "server model stream failed: seed {0} (rerun with KR_MODEL_SEED={0})",
                self.0
            );
        }
    }
}

#[test]
fn server_answers_match_a_from_scratch_model_under_writes() {
    let env_seed = std::env::var("KR_MODEL_SEED").ok();
    let seeds: Vec<u64> = match &env_seed {
        Some(s) => vec![s.parse().expect("KR_MODEL_SEED is a u64")],
        None => (0..STREAMS).map(|i| 0x5EED_0000 + i).collect(),
    };
    let (mut hits, mut repairs, mut invalidations) = (0, 0, 0);
    let (mut replayed, mut after_repair) = (0, 0);
    for seed in seeds {
        let _report = SeedReport(seed);
        let (stats, replays) = run_stream(seed);
        hits += stats.hits;
        repairs += stats.repairs;
        invalidations += stats.invalidations;
        replayed += replays.all;
        after_repair += replays.after_repair;
    }
    // The default streams must reach every cache path, stored answers
    // carried across a repair included, or they prove little; one rerun
    // seed need not.
    assert!(
        env_seed.is_some() || (hits > 0 && repairs > 0 && invalidations > 0 && after_repair > 0),
        "hits {hits}, repairs {repairs}, invalidations {invalidations}, \
         replayed {replayed}, replayed after a repair {after_repair}"
    );
}
