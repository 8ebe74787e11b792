//! The three workloads: which datasets the server hosts, which requests
//! each client sends, and in what order. Everything here is derived from
//! the run's seed; the server only ever sees the resulting requests and
//! the generated corridor `.krb` file.

use crate::rng::Rng;
use kr_core::{find_maximum, AlgoConfig, ProblemInstance};
use kr_datagen::DatasetPreset;
use kr_graph::{Graph, VertexId};
use kr_server::{dataset_key, CacheKey, ComponentCache, ServerConfig};
use kr_similarity::{AttributeTable, Metric, SimilarityOracle, TableOracle, Threshold};
use std::collections::HashMap;

pub const GOWALLA: (&str, f64) = ("gowalla-like", 0.25);
pub const DBLP: (&str, f64) = ("dblp-like", 1.0);
/// The file dataset the corridor instance is served as.
pub const CORRIDOR: &str = "corridor";
const CORRIDOR_RINGS: usize = 6;
const CORRIDOR_RING_SIZE: usize = 171;
const CORRIDOR_K: u32 = 3;
/// Cold-miss reads per corridor read: the corridor maximum costs about
/// as much as 800 dblp-like misses, so it takes between a quarter and a
/// third of the window.
const COLD_READS_PER_CORRIDOR: usize = 2000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotRead,
    ColdMiss,
    ReadWrite,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotRead, Workload::ColdMiss, Workload::ReadWrite];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot-read",
            Workload::ColdMiss => "cold-miss",
            Workload::ReadWrite => "read-write",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    Enum,
    Max,
}

/// One read request's parameters. Every read runs on one worker thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Key {
    pub dataset: &'static str,
    pub scale: f64,
    pub k: u32,
    pub r: f64,
    pub algo: Algo,
}

impl Key {
    /// Identity for reference answers.
    pub fn id(&self) -> (&'static str, u32, u64, Algo) {
        (self.dataset, self.k, self.r.to_bits(), self.algo)
    }

    pub fn label(&self) -> String {
        let algo = match self.algo {
            Algo::Enum => "enum",
            Algo::Max => "max",
        };
        format!("{}:k{}:r{}:{algo}", self.dataset, self.k, self.r)
    }
}

/// A reversible graph update. Writes always come in pairs, applying one
/// toggle and then reverting it, so the graph is either in its base
/// state or has exactly one toggle applied: the state id is 0 for the
/// base graph and `i + 1` while toggle `i` is applied.
#[derive(Debug, Clone, Copy)]
pub enum Toggle {
    /// An edge present in the base graph is removed while applied, an
    /// absent one is added while applied.
    Edge {
        u: VertexId,
        v: VertexId,
        in_base: bool,
    },
    /// A vertex moved away from its base point while applied.
    Move {
        w: VertexId,
        base: (f64, f64),
        moved: (f64, f64),
    },
}

#[derive(Debug, Clone, Copy)]
pub enum Op {
    Read(Key),
    /// Apply (`true`) or revert (`false`) toggle `i` of the plan's
    /// toggle list.
    Flip(usize, bool),
}

/// An attributed graph the benchmark holds its own copy of: the server's
/// dataset as generated, used to pick toggles and to compute reference
/// answers independently of the server.
pub struct Shadow {
    pub graph: Graph,
    pub attrs: AttributeTable,
    pub metric: Metric,
}

impl Shadow {
    fn preset(name: &str, scale: f64) -> Shadow {
        let preset = DatasetPreset::all()
            .into_iter()
            .find(|p| p.name() == name)
            .expect("known preset");
        let data = preset.generate_scaled(scale);
        Shadow {
            graph: data.graph,
            attrs: data.attributes,
            metric: data.metric,
        }
    }

    pub fn threshold(&self, r: f64) -> Threshold {
        if self.metric.is_distance() {
            Threshold::MaxDistance(r)
        } else {
            Threshold::MinSimilarity(r)
        }
    }

    pub fn problem(&self, graph: Graph, attrs: AttributeTable, k: u32, r: f64) -> ProblemInstance {
        ProblemInstance::new(graph, attrs, self.metric, self.threshold(r), k)
    }

    /// The graph and attributes in state `state` (see [`Toggle`]).
    pub fn state(&self, toggles: &[Toggle], state: u32) -> (Graph, AttributeTable) {
        let mut graph = self.graph.clone();
        let mut attrs = self.attrs.clone();
        match state.checked_sub(1).map(|i| toggles[i as usize]) {
            None => {}
            Some(Toggle::Edge {
                u,
                v,
                in_base: true,
            }) => graph = graph.remove_edges(&[(u, v)]),
            Some(Toggle::Edge {
                u,
                v,
                in_base: false,
            }) => {
                let mut edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
                edges.push((u, v));
                graph = Graph::from_edges(graph.num_vertices(), &edges);
            }
            Some(Toggle::Move { w, moved, .. }) => {
                if let AttributeTable::Points(rows) = &mut attrs {
                    rows[w as usize] = moved;
                }
            }
        }
        (graph, attrs)
    }
}

/// Everything one workload sends, fixed before set-up starts.
pub struct Plan {
    pub workload: Workload,
    /// Concurrent client connections (closed loop each).
    pub clients: usize,
    /// The preset dataset the server hosts, as `(name, scale)`.
    pub preset: (&'static str, f64),
    /// The benchmark's own copies of every hosted dataset (the corridor
    /// is served from a `.krb` file the set-up writes).
    pub shadows: HashMap<&'static str, Shadow>,
    /// The fixed read keys (empty for cold-miss, whose keys are drawn
    /// per request).
    pub keys: Vec<Key>,
    /// Keys queried once during set-up so the cache is warm (or, for
    /// cold-miss, full) when the window opens.
    pub warm: Vec<Key>,
    /// Toggles the read-write window applies and reverts.
    pub toggles: Vec<Toggle>,
    rng: Rng,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let rng = Rng::new(seed);
        let (name, scale) = match workload {
            Workload::HotRead | Workload::ReadWrite => GOWALLA,
            Workload::ColdMiss => DBLP,
        };
        let mut plan = Plan {
            workload,
            clients: 1,
            preset: (name, scale),
            shadows: HashMap::new(),
            keys: Vec::new(),
            warm: Vec::new(),
            toggles: Vec::new(),
            rng: rng.fork(1),
        };
        let shadow = Shadow::preset(name, scale);
        match workload {
            Workload::HotRead => {
                plan.clients = 2;
                plan.keys = hot_keys(&mut rng.fork(2));
            }
            Workload::ColdMiss => {
                // Fill the cache with keys from a band the window never
                // draws from, so every window miss also evicts.
                let mut warm_rng = rng.fork(2);
                plan.warm = (0..ServerConfig::default().cache_capacity)
                    .map(|_| cold_key(&mut warm_rng, 0.50, 0.55))
                    .collect();
                plan.shadows.insert(CORRIDOR, corridor(&mut rng.fork(4)));
            }
            Workload::ReadWrite => {
                plan.keys = hot_keys(&mut rng.fork(2));
                plan.toggles = rw_toggles(&shadow, &plan.keys, &mut rng.fork(3));
            }
        }
        if plan.warm.is_empty() {
            plan.warm = cache_keys(&plan.keys);
        }
        plan.shadows.insert(name, shadow);
        plan
    }

    /// An independent request stream for client `c`.
    pub fn client_rng(&self, c: usize) -> Rng {
        self.rng.fork(100 + c as u64)
    }

    /// Appends the next round of requests to `out`. A client only stops
    /// at a round boundary, so every run measures the same request mix.
    pub fn round(&self, rng: &mut Rng, out: &mut Vec<Op>) {
        match self.workload {
            Workload::HotRead => out.extend(hot_round(&self.keys, rng, 8)),
            Workload::ReadWrite => {
                let t = rng.below(self.toggles.len());
                out.extend(hot_round(&self.keys, rng, 4));
                out.push(Op::Flip(t, true));
                out.extend(hot_round(&self.keys, rng, 4));
                out.push(Op::Flip(t, false));
            }
            Workload::ColdMiss => {
                out.push(Op::Read(corridor_key(rng)));
                let offset = rng.unit();
                for j in 0..COLD_READS_PER_CORRIDOR {
                    out.push(Op::Read(cold_round_key(offset, j)));
                }
            }
        }
    }
}

fn max_r(keys: &[Key]) -> f64 {
    keys.iter().map(|k| k.r).fold(0.0, f64::max)
}

/// One key per distinct cache entry (enumeration and maximum share one).
fn cache_keys(keys: &[Key]) -> Vec<Key> {
    let mut out: Vec<Key> = Vec::new();
    for k in keys {
        if !out
            .iter()
            .any(|o| o.dataset == k.dataset && o.k == k.k && o.r == k.r)
        {
            out.push(*k);
        }
    }
    out
}

/// The hot-read `(k, r)` classes on gowalla-like: small answers, so the
/// fixed per-query cost of the protocol, session and cache hit path is
/// most of the latency.
const HOT_CLASSES: [(u32, f64); 6] = [
    (4, 7.0),
    (4, 9.0),
    (4, 11.0),
    (5, 8.0),
    (5, 10.0),
    (5, 11.0),
];

/// Adds a seeded jitter below `width` to a class's `r`: every seed asks
/// for its own cache keys, while the work per key stays the same.
fn jitter(rng: &mut Rng, r: f64, width: f64) -> f64 {
    r + width * rng.unit()
}

/// The hot classes as cache keys, each as an enumeration and a maximum
/// key. The jitter is redrawn until the keys, replayed through a real
/// default-capacity [`ComponentCache`], cannot evict one another.
fn hot_keys(rng: &mut Rng) -> Vec<Key> {
    let (name, scale) = GOWALLA;
    let picked = loop {
        let picked: Vec<(u32, f64)> = HOT_CLASSES
            .iter()
            .map(|&(k, r)| (k, jitter(rng, r, 1e-3)))
            .collect();
        let cache = ComponentCache::new(ServerConfig::default().cache_capacity);
        for &(k, r) in &picked {
            let key = CacheKey {
                dataset: dataset_key(name, scale),
                k,
                r_band: kr_server::cache::r_band(r),
            };
            cache.get_or_build(&key, 0, Vec::new);
        }
        if cache.stats().evictions == 0 {
            break picked;
        }
    };
    picked
        .into_iter()
        .flat_map(|(k, r)| {
            [Algo::Enum, Algo::Max].map(|algo| Key {
                dataset: name,
                scale,
                k,
                r,
                algo,
            })
        })
        .collect()
}

/// `n` reads over the hot keys, enumeration to maximum 3:1.
fn hot_round(keys: &[Key], rng: &mut Rng, n: usize) -> Vec<Op> {
    let enums: Vec<&Key> = keys.iter().filter(|k| k.algo == Algo::Enum).collect();
    let maxes: Vec<&Key> = keys.iter().filter(|k| k.algo == Algo::Max).collect();
    let mut ops: Vec<Op> = (0..n)
        .map(|i| {
            let from = if i < n * 3 / 4 { &enums } else { &maxes };
            Op::Read(*from[rng.below(from.len())])
        })
        .collect();
    rng.shuffle(&mut ops);
    ops
}

/// A fresh dblp-like key: `k` from a small set, min-similarity drawn
/// uniformly from `[lo, hi)`.
fn cold_key(rng: &mut Rng, lo: f64, hi: f64) -> Key {
    let k = [4u32, 5, 6][rng.below(3)];
    let r = lo + (hi - lo) * rng.unit();
    let algo = if rng.below(4) < 3 {
        Algo::Enum
    } else {
        Algo::Max
    };
    Key {
        dataset: DBLP.0,
        scale: DBLP.1,
        k,
        r,
        algo,
    }
}

/// Read `j` of a cold-miss round whose seeded offset is `offset`: `k`
/// cycles through the small set and every fourth read is a maximum, and
/// min-similarity walks `[0.40, 0.50)` by the golden-ratio sequence from
/// `offset`. Every round so spreads its reads over the same key classes
/// and the whole band evenly, so the cost distribution a window
/// measures, and its tail, is the same for every seed, while no key
/// repeats (the offsets are continuous draws).
fn cold_round_key(offset: f64, j: usize) -> Key {
    const INV_GOLDEN: f64 = 0.618_033_988_749_894_8;
    let (lo, hi) = (0.40, 0.50);
    let u = (offset + j as f64 * INV_GOLDEN).fract();
    Key {
        dataset: DBLP.0,
        scale: DBLP.1,
        k: [4u32, 5, 6][j % 3],
        r: lo + (hi - lo) * u,
        algo: if j % 4 == 3 { Algo::Max } else { Algo::Enum },
    }
}

/// A fresh corridor maximum key: max distance drawn uniformly from
/// `[8.5, 9.5)`, where the components are the same for every draw (see
/// [`corridor`]), so every corridor read costs the same and misses.
fn corridor_key(rng: &mut Rng) -> Key {
    Key {
        dataset: CORRIDOR,
        scale: 1.0,
        k: CORRIDOR_K,
        r: 8.5 + rng.unit(),
        algo: Algo::Max,
    }
}

/// The geo-corridor: six circulant rings of 171 vertices (each joined to
/// its three ring successors), 6.0 apart on a line, consecutive rings
/// bridged by four edges at seeded offsets, ring points on a unit circle
/// at a seeded phase. At a max distance in `[8.5, 9.5)` every pair of
/// neighbouring rings is similar (at most 8.0 apart) and rings two apart
/// are not (at least 10.0 apart), so the one component (1026 vertices)
/// has 56% dissimilar pairs and gets the lazy dissimilarity view. The
/// maximum core is two neighbouring rings.
fn corridor(rng: &mut Rng) -> Shadow {
    let (rings, size) = (CORRIDOR_RINGS, CORRIDOR_RING_SIZE);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut pts = Vec::with_capacity(rings * size);
    for c in 0..rings {
        let base = (c * size) as VertexId;
        let ring = size as VertexId;
        for i in 0..ring {
            for d in 1..=3 {
                edges.push((base + i, base + (i + d) % ring));
            }
        }
        if c + 1 < rings {
            let next = base + ring;
            let offset = rng.below(size) as VertexId;
            for i in 0..4 {
                let a = (offset + i * 10) % ring;
                edges.push((base + a, next + a));
            }
        }
        let phase = rng.unit() * std::f64::consts::TAU;
        for i in 0..size {
            let ang = phase + i as f64 / size as f64 * std::f64::consts::TAU;
            pts.push((c as f64 * 6.0 + ang.cos(), ang.sin()));
        }
    }
    Shadow {
        graph: Graph::from_edges(rings * size, &edges),
        attrs: AttributeTable::points(pts),
        metric: Metric::Euclidean,
    }
}

/// Read-write toggles per kind (far edge, near edge, moved vertex). The
/// kinds are equally many, so each is a third of the writes whatever the
/// seed; many per kind, so a write's cost averages over them instead of
/// depending on which few the seed picked.
const TOGGLES_PER_KIND: usize = 16;

/// Absent edges between vertices farther apart than `threshold`:
/// toggling them can never change a cached entry, so the repair pass
/// keeps every entry.
fn far_toggles(shadow: &Shadow, threshold: f64, count: usize, rng: &mut Rng) -> Vec<Toggle> {
    let oracle = TableOracle::new(
        shadow.attrs.clone(),
        shadow.metric,
        shadow.threshold(threshold),
    );
    let n = shadow.graph.num_vertices();
    let mut out = Vec::new();
    while out.len() < count {
        let (u, v) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
        if u != v && !shadow.graph.has_edge(u, v) && !oracle.is_similar(u, v) {
            out.push(Toggle::Edge {
                u,
                v,
                in_base: false,
            });
        }
    }
    out
}

/// The read-write toggles: far absent edges (repairable), edges inside
/// the maximum core of the widest hot key (they invalidate the entries
/// holding them), and vertices of that core moved 50 units away
/// (attribute changes invalidate every entry of the dataset).
fn rw_toggles(shadow: &Shadow, keys: &[Key], rng: &mut Rng) -> Vec<Toggle> {
    // Smallest k, then largest r: the key with the largest cores.
    let widest = keys
        .iter()
        .min_by(|a, b| a.k.cmp(&b.k).then(b.r.total_cmp(&a.r)))
        .expect("hot keys");
    let problem = shadow.problem(
        shadow.graph.clone(),
        shadow.attrs.clone(),
        widest.k,
        widest.r,
    );
    let core = find_maximum(&problem, &AlgoConfig::adv_max())
        .core
        .expect("the widest hot key has a core")
        .vertices;
    let mut toggles = far_toggles(shadow, 2.0 * max_r(keys), TOGGLES_PER_KIND, rng);
    let mut inner: Vec<(VertexId, VertexId)> = shadow
        .graph
        .edges()
        .filter(|(u, v)| u < v && core.contains(u) && core.contains(v))
        .collect();
    rng.shuffle(&mut inner);
    assert!(
        inner.len() >= TOGGLES_PER_KIND && core.len() >= TOGGLES_PER_KIND,
        "the widest hot key's core is too small for the read-write toggles"
    );
    for &(u, v) in inner.iter().take(TOGGLES_PER_KIND) {
        toggles.push(Toggle::Edge {
            u,
            v,
            in_base: true,
        });
    }
    let AttributeTable::Points(rows) = &shadow.attrs else {
        panic!("gowalla-like carries points");
    };
    let mut movers = core.clone();
    rng.shuffle(&mut movers);
    for &w in movers.iter().take(TOGGLES_PER_KIND) {
        let base = rows[w as usize];
        toggles.push(Toggle::Move {
            w,
            base,
            moved: (base.0 + 50.0, base.1 + 50.0),
        });
    }
    toggles
}
