//! Similarity-graph and dissimilarity-list materialization.
//!
//! Section 3 defines the *similarity graph* `G'`: same vertices, an edge
//! between every similar pair. The clique-based baseline materializes `G'`
//! per component; the advanced search instead stores only the (sparse)
//! **dissimilar** pairs inside each candidate component, which is exactly
//! what the `DP(·)` counters of the paper range over.
//!
//! Since PR 4 both builders are **index-accelerated**: the oracle's
//! [`SimilarityOracle::candidates`] hook produces a sound candidate set
//! (spatial grid for Euclidean, inverted keyword index for Jaccard — see
//! [`crate::candidates`]), only candidates are verified with the metric,
//! and every out-of-candidate pair is classified dissimilar for free. The
//! output is **byte-identical** to the brute-force reference (kept as
//! [`build_similarity_graph_brute`] / [`build_dissimilarity_lists_brute`]
//! and property-tested against the indexed path); only the number of
//! metric evaluations changes, which [`DissimilarityLists::oracle_evals`]
//! records.

use crate::oracle::SimilarityOracle;
use kr_graph::{Csr, Graph, GraphBuilder, VertexId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Dissimilarity lists over a renumbered vertex set `0..n`, stored in CSR
/// form: `row(v)` holds the vertices dissimilar to `v` (sorted), backed by
/// one flat arena instead of `n` separate allocations.
#[derive(Debug, Clone)]
pub struct DissimilarityLists {
    /// Per-vertex sorted dissimilar partners in CSR form.
    pub csr: Csr,
    /// Total number of dissimilar (unordered) pairs.
    pub num_pairs: usize,
    /// Metric evaluations the build spent (brute force pays
    /// `n·(n-1)/2`; the candidate indexes pay one per candidate pair).
    pub oracle_evals: u64,
}

impl DissimilarityLists {
    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.csr.num_rows()
    }

    /// True iff there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.csr.is_empty()
    }

    /// Sorted dissimilar partners of `u`.
    pub fn row(&self, u: VertexId) -> &[VertexId] {
        self.csr.row(u)
    }

    /// Whether `u` and `v` are dissimilar, via binary search.
    pub fn are_dissimilar(&self, u: VertexId, v: VertexId) -> bool {
        self.csr.contains(u, v)
    }
}

/// Process-global `similarity.*` registry counters (see `kr_obs`):
/// cumulative metric evaluations, dissimilarity-list builds, and
/// materialized dissimilar pairs. Per-query figures stay on
/// [`DissimilarityLists::oracle_evals`] and flow into the server's
/// stats frame; these aggregates feed the `metrics` wire request.
/// `dissim_pairs` counts *materialized* pairs in both modes: the whole
/// complement for an eager build, only memoized rows for a lazy one —
/// `lazy_rows_materialized` / `lazy_rows_skipped` break the lazy
/// traffic down further.
struct SimObs {
    oracle_evals: std::sync::Arc<kr_obs::Counter>,
    dissim_builds: std::sync::Arc<kr_obs::Counter>,
    dissim_pairs: std::sync::Arc<kr_obs::Counter>,
    lazy_rows_materialized: std::sync::Arc<kr_obs::Counter>,
    lazy_rows_skipped: std::sync::Arc<kr_obs::Counter>,
}

fn sim_obs() -> &'static SimObs {
    static OBS: OnceLock<SimObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = kr_obs::global();
        SimObs {
            oracle_evals: reg.counter("similarity.oracle_evals"),
            dissim_builds: reg.counter("similarity.dissim_builds"),
            dissim_pairs: reg.counter("similarity.dissim_pairs"),
            lazy_rows_materialized: reg.counter("similarity.lazy_rows_materialized"),
            lazy_rows_skipped: reg.counter("similarity.lazy_rows_skipped"),
        }
    })
}

/// Lazily materialized dissimilarity lists: the complement of the
/// (sparse) similarity CSR, with per-vertex rows memoized on first
/// slice access.
///
/// On dissimilarity-heavy components the eager complement is `O(n²)`
/// output while the search only ever *slices* the rows of vertices it
/// branches on — everything else (counter updates, bounds, maximal
/// checks) is answered by streaming the complement of the similarity
/// row ([`LazyDissimilarity::for_each`]) or by arithmetic
/// ([`LazyDissimilarity::count`] is `n - 1 - |sim(u)|`). Streaming
/// visits partners in ascending order, exactly like an eager CSR row,
/// so consumers observe identical sequences in both modes.
#[derive(Debug)]
pub struct LazyDissimilarity {
    /// Similarity adjacency (both directions), the complement's source.
    sim: Csr,
    /// Total number of dissimilar (unordered) pairs — known exactly
    /// without materializing anything: `n(n-1)/2 - |sim|`.
    num_pairs: usize,
    /// Metric evaluations spent classifying the candidate pairs.
    oracle_evals: u64,
    /// Memoized complement rows; `OnceLock` makes materialization safe
    /// under concurrent sharing (`Arc<LocalComponent>` in the server).
    rows: Vec<OnceLock<Box<[VertexId]>>>,
    /// Rows materialized so far (monotone).
    materialized_rows: AtomicUsize,
    /// Total entries across materialized rows (monotone).
    materialized_entries: AtomicUsize,
}

impl LazyDissimilarity {
    /// Builds from the verified similar pairs (local `(i, j)`, `i < j`)
    /// over `n` vertices. No complement output is produced here.
    pub fn from_similar(n: usize, similar: &[(VertexId, VertexId)], oracle_evals: u64) -> Self {
        let sim = Csr::from_symmetric_pairs(n, similar);
        let num_similar = sim.total_targets() / 2;
        let obs = sim_obs();
        obs.oracle_evals.add(oracle_evals);
        obs.dissim_builds.inc();
        LazyDissimilarity {
            num_pairs: n * n.saturating_sub(1) / 2 - num_similar,
            sim,
            oracle_evals,
            rows: (0..n).map(|_| OnceLock::new()).collect(),
            materialized_rows: AtomicUsize::new(0),
            materialized_entries: AtomicUsize::new(0),
        }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.sim.num_rows()
    }

    /// True iff there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.sim.is_empty()
    }

    /// Total dissimilar (unordered) pairs — exact, `O(1)`.
    pub fn num_pairs(&self) -> usize {
        self.num_pairs
    }

    /// Metric evaluations the build spent.
    pub fn oracle_evals(&self) -> u64 {
        self.oracle_evals
    }

    /// Sorted dissimilar partners of `u`, materializing and memoizing
    /// the row on first access.
    pub fn row(&self, u: VertexId) -> &[VertexId] {
        self.rows[u as usize].get_or_init(|| {
            let mut out = Vec::with_capacity(self.count(u));
            self.complement_walk(u, |w| out.push(w));
            let obs = sim_obs();
            obs.lazy_rows_materialized.inc();
            obs.dissim_pairs.add(out.len() as u64);
            self.materialized_rows.fetch_add(1, Ordering::Relaxed);
            self.materialized_entries
                .fetch_add(out.len(), Ordering::Relaxed);
            out.into_boxed_slice()
        })
    }

    /// Streams the dissimilar partners of `u` in ascending order
    /// *without* memoizing: the memoized row if one exists, else a
    /// complement walk over the similarity row.
    #[inline]
    pub fn for_each(&self, u: VertexId, mut f: impl FnMut(VertexId)) {
        if let Some(row) = self.rows[u as usize].get() {
            for &w in row.iter() {
                f(w);
            }
        } else {
            sim_obs().lazy_rows_skipped.inc();
            self.complement_walk(u, f);
        }
    }

    /// The memoized row of `u`, if a slice access already built it.
    /// Never materializes.
    #[inline]
    pub fn resident_row(&self, u: VertexId) -> Option<&[VertexId]> {
        self.rows[u as usize].get().map(|r| &r[..])
    }

    /// True iff any dissimilar partner of `u` satisfies `pred`. Stops at
    /// the first hit (unlike [`LazyDissimilarity::for_each`]) and never
    /// memoizes — the short-circuiting maximality checks rely on this.
    pub fn any_where(&self, u: VertexId, mut pred: impl FnMut(VertexId) -> bool) -> bool {
        if let Some(row) = self.rows[u as usize].get() {
            return row.iter().any(|&w| pred(w));
        }
        sim_obs().lazy_rows_skipped.inc();
        let row = self.sim.row(u);
        let mut p = 0usize;
        for v in 0..self.sim.num_rows() as VertexId {
            if v == u {
                continue;
            }
            if p < row.len() && row[p] == v {
                p += 1;
                continue;
            }
            if pred(v) {
                return true;
            }
        }
        false
    }

    /// Ascending walk of `{0..n} \ (sim(u) ∪ {u})`.
    #[inline]
    fn complement_walk(&self, u: VertexId, mut f: impl FnMut(VertexId)) {
        let row = self.sim.row(u);
        let mut p = 0usize;
        for v in 0..self.sim.num_rows() as VertexId {
            if v == u {
                continue;
            }
            if p < row.len() && row[p] == v {
                p += 1;
                continue;
            }
            f(v);
        }
    }

    /// Whether `u` and `v` are dissimilar (`O(log |sim(u)|)`, no
    /// materialization).
    pub fn are_dissimilar(&self, u: VertexId, v: VertexId) -> bool {
        u != v && !self.sim.contains(u, v)
    }

    /// Number of dissimilar partners of `u` (`O(1)`, no
    /// materialization).
    pub fn count(&self, u: VertexId) -> usize {
        self.sim.num_rows() - 1 - self.sim.row_len(u)
    }

    /// Rows memoized so far.
    pub fn materialized_rows(&self) -> usize {
        self.materialized_rows.load(Ordering::Relaxed)
    }

    /// Directed entries across memoized rows (each unordered pair a row
    /// holds counts once here; a pair counts twice only once both
    /// endpoint rows materialize).
    pub fn materialized_entries(&self) -> usize {
        self.materialized_entries.load(Ordering::Relaxed)
    }

    /// Current heap footprint: the similarity CSR, the row table, and
    /// every memoized row. **Grows** as the search materializes rows —
    /// cache accounting must re-read it, not snapshot it at build time.
    pub fn heap_bytes(&self) -> usize {
        self.sim.heap_bytes()
            + self.rows.capacity() * std::mem::size_of::<OnceLock<Box<[VertexId]>>>()
            + self.materialized_entries() * std::mem::size_of::<VertexId>()
    }
}

impl Clone for LazyDissimilarity {
    fn clone(&self) -> Self {
        LazyDissimilarity {
            sim: self.sim.clone(),
            num_pairs: self.num_pairs,
            oracle_evals: self.oracle_evals,
            rows: self.rows.clone(),
            materialized_rows: AtomicUsize::new(self.materialized_rows()),
            materialized_entries: AtomicUsize::new(self.materialized_entries()),
        }
    }
}

impl PartialEq for LazyDissimilarity {
    /// Semantic equality: same complement, regardless of which rows
    /// happen to be memoized.
    fn eq(&self, other: &Self) -> bool {
        self.sim == other.sim
    }
}

impl Eq for LazyDissimilarity {}

/// How a component's dissimilarity structure is represented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DissimMode {
    /// Pick per component: lazy for large dissimilarity-heavy
    /// components (≥ [`LAZY_MIN_N`] vertices with at least half of all
    /// pairs dissimilar), eager otherwise.
    #[default]
    Auto,
    /// Always materialize the full complement CSR up front.
    Eager,
    /// Always build the lazy view (tests force this on small inputs).
    Lazy,
}

/// Smallest component `Auto` will consider for the lazy representation:
/// below this the full complement is at most a few MB and the eager
/// build's single pass beats per-row bookkeeping.
pub const LAZY_MIN_N: usize = 1024;

/// Eager-or-lazy dissimilarity lists behind one interface. Eager
/// components keep byte-identical behavior (same CSR, same slices);
/// lazy ones answer everything from the similarity CSR, memoizing a
/// complement row only when [`DissimilarityView::row`] is called.
#[derive(Debug, Clone)]
pub enum DissimilarityView {
    /// Fully materialized complement (small or similarity-heavy
    /// components, and the brute-force reference path).
    Eager(DissimilarityLists),
    /// Complement-on-demand over the similarity CSR.
    Lazy(LazyDissimilarity),
}

impl DissimilarityView {
    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        match self {
            DissimilarityView::Eager(d) => d.len(),
            DissimilarityView::Lazy(d) => d.len(),
        }
    }

    /// True iff there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorted dissimilar partners of `u` as a slice. Lazy views
    /// materialize and memoize the row on first access — callers that
    /// only need to *visit* the partners should use
    /// [`DissimilarityView::for_each`] instead.
    pub fn row(&self, u: VertexId) -> &[VertexId] {
        match self {
            DissimilarityView::Eager(d) => d.row(u),
            DissimilarityView::Lazy(d) => d.row(u),
        }
    }

    /// Visits the dissimilar partners of `u` in ascending order without
    /// materializing anything.
    #[inline(always)]
    pub fn for_each(&self, u: VertexId, mut f: impl FnMut(VertexId)) {
        match self {
            DissimilarityView::Eager(d) => {
                for &w in d.row(u) {
                    f(w);
                }
            }
            DissimilarityView::Lazy(d) => d.for_each(u, f),
        }
    }

    /// The row of `u` when it is resident in memory — always for eager
    /// views, memoized rows only for lazy ones. Never materializes.
    /// Hot per-node loops iterate the slice when one exists (measurably
    /// tighter codegen than the streamed visit) and fall back to
    /// [`DissimilarityView::for_each`] when it would force a build.
    #[inline]
    pub fn resident_row(&self, u: VertexId) -> Option<&[VertexId]> {
        match self {
            DissimilarityView::Eager(d) => Some(d.row(u)),
            DissimilarityView::Lazy(d) => d.resident_row(u),
        }
    }

    /// True iff any dissimilar partner of `u` satisfies `pred`,
    /// short-circuiting at the first hit. Never materializes.
    #[inline]
    pub fn any_where(&self, u: VertexId, mut pred: impl FnMut(VertexId) -> bool) -> bool {
        match self {
            DissimilarityView::Eager(d) => d.row(u).iter().any(|&w| pred(w)),
            DissimilarityView::Lazy(d) => d.any_where(u, pred),
        }
    }

    /// Whether `u` and `v` are dissimilar.
    pub fn are_dissimilar(&self, u: VertexId, v: VertexId) -> bool {
        match self {
            DissimilarityView::Eager(d) => d.are_dissimilar(u, v),
            DissimilarityView::Lazy(d) => d.are_dissimilar(u, v),
        }
    }

    /// Number of dissimilar partners of `u` (`O(1)` in both modes).
    pub fn count(&self, u: VertexId) -> usize {
        match self {
            DissimilarityView::Eager(d) => d.csr.row_len(u),
            DissimilarityView::Lazy(d) => d.count(u),
        }
    }

    /// Total dissimilar (unordered) pairs.
    pub fn num_pairs(&self) -> usize {
        match self {
            DissimilarityView::Eager(d) => d.num_pairs,
            DissimilarityView::Lazy(d) => d.num_pairs(),
        }
    }

    /// Metric evaluations the build spent.
    pub fn oracle_evals(&self) -> u64 {
        match self {
            DissimilarityView::Eager(d) => d.oracle_evals,
            DissimilarityView::Lazy(d) => d.oracle_evals(),
        }
    }

    /// True for the lazy representation.
    pub fn is_lazy(&self) -> bool {
        matches!(self, DissimilarityView::Lazy(_))
    }

    /// Rows memoized so far (0 for eager views — their rows were never
    /// *lazily* materialized).
    pub fn materialized_rows(&self) -> usize {
        match self {
            DissimilarityView::Eager(_) => 0,
            DissimilarityView::Lazy(d) => d.materialized_rows(),
        }
    }

    /// Directed dissimilar entries currently resident: the whole
    /// complement for eager views, only memoized rows for lazy ones.
    pub fn materialized_entries(&self) -> usize {
        match self {
            DissimilarityView::Eager(d) => d.csr.total_targets(),
            DissimilarityView::Lazy(d) => d.materialized_entries(),
        }
    }

    /// Current heap footprint in bytes. Lazy views grow as rows
    /// materialize.
    pub fn heap_bytes(&self) -> usize {
        match self {
            DissimilarityView::Eager(d) => d.csr.heap_bytes(),
            DissimilarityView::Lazy(d) => d.heap_bytes(),
        }
    }
}

impl PartialEq for DissimilarityView {
    /// Semantic equality: two views are equal iff they describe the
    /// same dissimilar-pair set, regardless of representation or
    /// memoization state (an eager build equals the lazy build over the
    /// same oracle verdicts).
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (DissimilarityView::Eager(a), DissimilarityView::Eager(b)) => a.csr == b.csr,
            (DissimilarityView::Lazy(a), DissimilarityView::Lazy(b)) => a == b,
            (a, b) => {
                if a.len() != b.len() || a.num_pairs() != b.num_pairs() {
                    return false;
                }
                (0..a.len() as VertexId).all(|u| {
                    let mut rows_match = true;
                    let mut bw: Vec<VertexId> = Vec::new();
                    b.for_each(u, |w| bw.push(w));
                    let mut i = 0usize;
                    a.for_each(u, |w| {
                        if i >= bw.len() || bw[i] != w {
                            rows_match = false;
                        }
                        i += 1;
                    });
                    rows_match && i == bw.len()
                })
            }
        }
    }
}

impl Eq for DissimilarityView {}

/// Verifies the candidate set serially; returns the similar pairs — the
/// index's known-similar pairs (free) followed by the verified
/// candidates, as local `(i, j)`, `i < j` — and the number of metric
/// evaluations spent.
fn verify_candidates<O: SimilarityOracle + ?Sized>(
    oracle: &O,
    members: &[VertexId],
) -> (Vec<(VertexId, VertexId)>, u64) {
    let index = oracle.candidates(members);
    let mut similar = index.known_similar().to_vec();
    let mut evals = 0u64;
    index.for_each(&mut |i, j| {
        evals += 1;
        if oracle.is_similar(members[i as usize], members[j as usize]) {
            similar.push((i, j));
        }
    });
    (similar, evals)
}

/// Candidate count below which sharding is pure overhead.
const MIN_SHARDED_CANDIDATES: usize = 2048;

/// [`verify_candidates`], shard-split across `pool`: the candidate list
/// is chunked, each chunk verified on a worker, and the per-chunk results
/// concatenated in chunk order — the output is identical to the serial
/// path, including order.
fn verify_candidates_on<O: SimilarityOracle + Sync + ?Sized>(
    oracle: &O,
    members: &[VertexId],
    pool: &rayon::ThreadPool,
) -> (Vec<(VertexId, VertexId)>, u64) {
    let threads = pool.current_num_threads();
    if threads <= 1 {
        return verify_candidates(oracle, members);
    }
    let index = oracle.candidates(members);
    // Only indexes that already hold a materialized pair list are worth
    // sharding; collecting a lazy index (the all-pairs fallback) would
    // allocate an O(n²) transient just to chunk it — stream it serially
    // instead, exactly like the pre-index preprocessing did.
    let Some(candidates) = index.as_pairs() else {
        let mut similar = index.known_similar().to_vec();
        let mut evals = 0u64;
        index.for_each(&mut |i, j| {
            evals += 1;
            if oracle.is_similar(members[i as usize], members[j as usize]) {
                similar.push((i, j));
            }
        });
        return (similar, evals);
    };
    if candidates.len() < MIN_SHARDED_CANDIDATES {
        let mut similar = index.known_similar().to_vec();
        similar.extend(
            candidates
                .iter()
                .copied()
                .filter(|&(i, j)| oracle.is_similar(members[i as usize], members[j as usize])),
        );
        return (similar, candidates.len() as u64);
    }
    let chunk = (candidates.len() / (threads * 4)).max(MIN_SHARDED_CANDIDATES / 4);
    // Slot 0 holds the index's known-similar pairs so the concatenation
    // matches the serial path's order exactly (known first, then the
    // verified candidates in candidate order).
    let mut slots: Vec<Vec<(u32, u32)>> = vec![Vec::new(); candidates.len().div_ceil(chunk) + 1];
    slots[0] = index.known_similar().to_vec();
    pool.scope(|s| {
        for (slot, shard) in slots[1..].iter_mut().zip(candidates.chunks(chunk)) {
            s.spawn(move |_| {
                *slot = shard
                    .iter()
                    .copied()
                    .filter(|&(i, j)| oracle.is_similar(members[i as usize], members[j as usize]))
                    .collect();
            });
        }
    });
    (slots.concat(), candidates.len() as u64)
}

/// Builds the similarity graph over `members` (a set of *global* vertex
/// ids), renumbered to `0..members.len()` in the order given.
///
/// Index-accelerated: only candidate pairs are verified (see module
/// docs); the result equals [`build_similarity_graph_brute`].
pub fn build_similarity_graph<O: SimilarityOracle>(oracle: &O, members: &[VertexId]) -> Graph {
    let (similar, evals) = verify_candidates(oracle, members);
    sim_obs().oracle_evals.add(evals);
    let mut b = GraphBuilder::with_capacity(members.len(), similar.len());
    for (i, j) in similar {
        b.add_edge(i, j);
    }
    b.build()
}

/// Brute-force reference for [`build_similarity_graph`]:
/// `O(|members|²)` metric evaluations — this is the cost the clique-based
/// baseline used to pay and the candidate indexes avoid.
pub fn build_similarity_graph_brute<O: SimilarityOracle>(
    oracle: &O,
    members: &[VertexId],
) -> Graph {
    let n = members.len();
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if oracle.is_similar(members[i], members[j]) {
                b.add_edge(i as VertexId, j as VertexId);
            }
        }
    }
    b.build()
}

/// Components up to this many vertices take the bitmap complement path
/// (`n²/8` bytes of scratch, 2 MiB at the cap); larger ones fall back to
/// the CSR-merge complement.
const BITMAP_COMPLEMENT_MAX_N: usize = 4096;

/// Lays similar pairs out as the complementary dissimilarity CSR: every
/// unordered non-similar pair is emitted in both directions and packed
/// with the same counting sort the brute-force path used, so the layout
/// is byte-identical regardless of how the pairs were discovered.
fn complement_to_csr(
    n: usize,
    similar: Vec<(VertexId, VertexId)>,
    oracle_evals: u64,
) -> DissimilarityLists {
    let num_similar = similar.len();
    let total = n * n.saturating_sub(1) / 2;
    let num_pairs = total - num_similar;
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::with_capacity(num_pairs * 2);
    if n <= BITMAP_COMPLEMENT_MAX_N {
        // Dense n×n bitmap: no sorting anywhere — flags set per similar
        // pair, complement rows emitted in naturally ascending order.
        let mut bits = vec![0u64; (n * n).div_ceil(64)];
        let mut set = |i: usize, j: usize| {
            let at = i * n + j;
            bits[at / 64] |= 1u64 << (at % 64);
        };
        for &(i, j) in &similar {
            set(i as usize, j as usize);
            set(j as usize, i as usize);
        }
        for u in 0..n {
            for v in 0..n {
                let at = u * n + v;
                if v != u && bits[at / 64] & (1u64 << (at % 64)) == 0 {
                    pairs.push((u as VertexId, v as VertexId));
                }
            }
        }
    } else {
        let sim = Csr::from_symmetric_pairs(n, &similar);
        for u in 0..n as VertexId {
            let row = sim.row(u);
            let mut p = 0usize;
            for v in 0..n as VertexId {
                if v == u {
                    continue;
                }
                if p < row.len() && row[p] == v {
                    p += 1;
                    continue;
                }
                pairs.push((u, v));
            }
        }
    }
    debug_assert_eq!(pairs.len(), num_pairs * 2);
    let obs = sim_obs();
    obs.oracle_evals.add(oracle_evals);
    obs.dissim_builds.inc();
    obs.dissim_pairs.add(num_pairs as u64);
    DissimilarityLists {
        csr: Csr::from_pairs(n, &pairs),
        num_pairs,
        oracle_evals,
    }
}

/// Builds dissimilarity lists over `members` (global ids), renumbered to
/// local ids `0..members.len()` in the order given.
///
/// Index-accelerated: candidates from [`SimilarityOracle::candidates`]
/// are verified with the metric; every other pair goes straight into the
/// dissimilarity CSR with zero evaluations. Output is identical to
/// [`build_dissimilarity_lists_brute`], with
/// [`DissimilarityLists::oracle_evals`] recording the saving.
pub fn build_dissimilarity_lists<O: SimilarityOracle>(
    oracle: &O,
    members: &[VertexId],
) -> DissimilarityLists {
    let (similar, evals) = verify_candidates(oracle, members);
    complement_to_csr(members.len(), similar, evals)
}

/// [`build_dissimilarity_lists`] with candidate verification shard-split
/// across `pool` (the query's one-pool-per-query worker pool). The result
/// — including the CSR layout — is identical to the serial build.
pub fn build_dissimilarity_lists_on<O: SimilarityOracle + Sync>(
    oracle: &O,
    members: &[VertexId],
    pool: &rayon::ThreadPool,
) -> DissimilarityLists {
    let (similar, evals) = verify_candidates_on(oracle, members, pool);
    complement_to_csr(members.len(), similar, evals)
}

/// Whether `Auto` picks the lazy representation: only components large
/// enough for the `O(n²)` complement to hurt, and only when the
/// complement actually dominates (at least half of all pairs
/// dissimilar) — otherwise the eager CSR is small and its single
/// counting-sort pass wins.
fn auto_picks_lazy(n: usize, num_similar: usize) -> bool {
    let total = n * n.saturating_sub(1) / 2;
    n >= LAZY_MIN_N && 2 * (total - num_similar) >= total
}

/// Builds a [`DissimilarityView`] over `members` (global ids),
/// renumbered to local ids `0..members.len()` in the order given.
///
/// Candidate verification is identical in both modes (same candidate
/// index, same `oracle_evals`); `mode` only decides whether the
/// complement is materialized now ([`DissimilarityView::Eager`], equal
/// to [`build_dissimilarity_lists`]) or on demand
/// ([`DissimilarityView::Lazy`]).
pub fn build_dissimilarity_view<O: SimilarityOracle>(
    oracle: &O,
    members: &[VertexId],
    mode: DissimMode,
) -> DissimilarityView {
    let (similar, evals) = verify_candidates(oracle, members);
    view_from_similar(members.len(), similar, evals, mode)
}

/// [`build_dissimilarity_view`] with candidate verification shard-split
/// across `pool`. The result is identical to the serial build.
pub fn build_dissimilarity_view_on<O: SimilarityOracle + Sync>(
    oracle: &O,
    members: &[VertexId],
    pool: &rayon::ThreadPool,
    mode: DissimMode,
) -> DissimilarityView {
    let (similar, evals) = verify_candidates_on(oracle, members, pool);
    view_from_similar(members.len(), similar, evals, mode)
}

fn view_from_similar(
    n: usize,
    similar: Vec<(VertexId, VertexId)>,
    evals: u64,
    mode: DissimMode,
) -> DissimilarityView {
    let lazy = match mode {
        DissimMode::Eager => false,
        DissimMode::Lazy => true,
        DissimMode::Auto => auto_picks_lazy(n, similar.len()),
    };
    if lazy {
        DissimilarityView::Lazy(LazyDissimilarity::from_similar(n, &similar, evals))
    } else {
        DissimilarityView::Eager(complement_to_csr(n, similar, evals))
    }
}

/// Brute-force reference for [`build_dissimilarity_lists`]: one oracle
/// pass over all `|members|²/2` pairs, collecting the directed dissimilar
/// pairs, then a counting sort into the flat arena.
pub fn build_dissimilarity_lists_brute<O: SimilarityOracle>(
    oracle: &O,
    members: &[VertexId],
) -> DissimilarityLists {
    let n = members.len();
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    let mut evals = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            evals += 1;
            if !oracle.is_similar(members[i], members[j]) {
                pairs.push((i as VertexId, j as VertexId));
                pairs.push((j as VertexId, i as VertexId));
            }
        }
    }
    let num_pairs = pairs.len() / 2;
    let obs = sim_obs();
    obs.oracle_evals.add(evals);
    obs.dissim_builds.inc();
    obs.dissim_pairs.add(num_pairs as u64);
    DissimilarityLists {
        csr: Csr::from_pairs(n, &pairs),
        num_pairs,
        oracle_evals: evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttributeTable;
    use crate::metrics::Metric;
    use crate::oracle::{TableOracle, Threshold};

    fn geo_oracle() -> TableOracle {
        TableOracle::new(
            AttributeTable::points(vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (50.0, 0.0)]),
            Metric::Euclidean,
            Threshold::MaxDistance(2.5),
        )
    }

    #[test]
    fn similarity_graph_edges() {
        let o = geo_oracle();
        let g = build_similarity_graph(&o, &[0, 1, 2, 3]);
        // 0-1, 0-2, 1-2 similar; 3 is far from everyone.
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn dissimilarity_lists_complement() {
        let o = geo_oracle();
        let d = build_dissimilarity_lists(&o, &[0, 1, 2, 3]);
        assert_eq!(d.num_pairs, 3); // 3 vs each of 0,1,2
        assert_eq!(d.row(3), &[0, 1, 2]);
        assert!(d.are_dissimilar(0, 3));
        assert!(!d.are_dissimilar(0, 1));
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn indexed_build_skips_certain_pairs() {
        let o = geo_oracle();
        let d = build_dissimilarity_lists(&o, &[0, 1, 2, 3]);
        let brute = build_dissimilarity_lists_brute(&o, &[0, 1, 2, 3]);
        assert_eq!(brute.oracle_evals, 6);
        // Vertex 3 sits 48km from the cluster (provably dissimilar) and
        // the cluster pairs are within 2km « r (provably similar): the
        // grid classifies every pair without a single metric evaluation.
        assert_eq!(d.oracle_evals, 0);
        assert_eq!(d.csr, brute.csr);
        assert_eq!(d.num_pairs, brute.num_pairs);
    }

    #[test]
    fn sharded_build_matches_serial() {
        let pts: Vec<(f64, f64)> = (0..40)
            .map(|i| ((i % 7) as f64 * 3.0, (i / 7) as f64 * 3.0))
            .collect();
        let o = TableOracle::new(
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(4.0),
        );
        let members: Vec<VertexId> = (0..40).collect();
        let serial = build_dissimilarity_lists(&o, &members);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .expect("pool");
        let sharded = build_dissimilarity_lists_on(&o, &members, &pool);
        assert_eq!(serial.csr, sharded.csr);
        assert_eq!(serial.num_pairs, sharded.num_pairs);
        assert_eq!(serial.oracle_evals, sharded.oracle_evals);
    }

    #[test]
    fn renumbering_respects_member_order() {
        let o = geo_oracle();
        // Members in reversed order: local 0 = global 3.
        let d = build_dissimilarity_lists(&o, &[3, 2, 1, 0]);
        assert_eq!(d.row(0), &[1, 2, 3]);
        assert_eq!(d.num_pairs, 3);
    }

    #[test]
    fn simgraph_and_dissim_partition_pairs() {
        let o = geo_oracle();
        let members = [0, 1, 2, 3];
        let g = build_similarity_graph(&o, &members);
        let d = build_dissimilarity_lists(&o, &members);
        let n = members.len();
        assert_eq!(g.num_edges() + d.num_pairs, n * (n - 1) / 2);
    }

    #[test]
    fn empty_members() {
        let o = geo_oracle();
        let g = build_similarity_graph(&o, &[]);
        assert_eq!(g.num_vertices(), 0);
        let d = build_dissimilarity_lists(&o, &[]);
        assert!(d.is_empty());
        assert_eq!(d.oracle_evals, 0);
    }

    #[test]
    fn lazy_view_matches_eager() {
        let o = geo_oracle();
        let members = [0, 1, 2, 3];
        let eager = build_dissimilarity_view(&o, &members, DissimMode::Eager);
        let lazy = build_dissimilarity_view(&o, &members, DissimMode::Lazy);
        assert!(!eager.is_lazy());
        assert!(lazy.is_lazy());
        assert_eq!(eager.num_pairs(), lazy.num_pairs());
        assert_eq!(eager.oracle_evals(), lazy.oracle_evals());
        assert_eq!(eager, lazy, "semantic equality across representations");
        for u in 0..4u32 {
            assert_eq!(eager.count(u), lazy.count(u));
            let mut streamed = Vec::new();
            lazy.for_each(u, |w| streamed.push(w));
            assert_eq!(eager.row(u), streamed.as_slice(), "streamed row {u}");
            for v in 0..4u32 {
                assert_eq!(eager.are_dissimilar(u, v), lazy.are_dissimilar(u, v));
            }
        }
        // Nothing above materialized a row.
        assert_eq!(lazy.materialized_rows(), 0);
    }

    #[test]
    fn lazy_rows_memoize_and_grow_footprint() {
        let o = geo_oracle();
        let lazy = build_dissimilarity_view(&o, &[0, 1, 2, 3], DissimMode::Lazy);
        let before = lazy.heap_bytes();
        assert_eq!(lazy.row(3), &[0, 1, 2]);
        assert_eq!(lazy.materialized_rows(), 1);
        assert_eq!(lazy.materialized_entries(), 3);
        assert!(
            lazy.heap_bytes() > before,
            "footprint must grow with materialization"
        );
        // Second slice access hits the memo (counters unchanged).
        assert_eq!(lazy.row(3), &[0, 1, 2]);
        assert_eq!(lazy.materialized_rows(), 1);
        // Streaming a memoized row uses the memo, not the complement walk.
        let mut streamed = Vec::new();
        lazy.for_each(3, |w| streamed.push(w));
        assert_eq!(streamed, vec![0, 1, 2]);
    }

    #[test]
    fn lazy_num_pairs_is_exact_without_materialization() {
        let o = geo_oracle();
        let eager = build_dissimilarity_lists(&o, &[0, 1, 2, 3]);
        let lazy = build_dissimilarity_view(&o, &[0, 1, 2, 3], DissimMode::Lazy);
        assert_eq!(lazy.num_pairs(), eager.num_pairs);
        assert_eq!(lazy.materialized_rows(), 0);
    }

    #[test]
    fn auto_mode_small_component_stays_eager() {
        let o = geo_oracle();
        let auto = build_dissimilarity_view(&o, &[0, 1, 2, 3], DissimMode::Auto);
        assert!(!auto.is_lazy(), "4 vertices is far below LAZY_MIN_N");
    }

    #[test]
    fn auto_threshold_rule() {
        // Large + dissimilarity-heavy -> lazy; large + similarity-heavy
        // or small -> eager.
        assert!(auto_picks_lazy(LAZY_MIN_N, 0));
        assert!(!auto_picks_lazy(LAZY_MIN_N - 1, 0));
        let n = LAZY_MIN_N;
        let total = n * (n - 1) / 2;
        assert!(auto_picks_lazy(n, total / 2));
        assert!(!auto_picks_lazy(n, total / 2 + 1));
    }

    #[test]
    fn lazy_clone_and_equality_ignore_memo_state() {
        let o = geo_oracle();
        let a = build_dissimilarity_view(&o, &[0, 1, 2, 3], DissimMode::Lazy);
        let b = a.clone();
        let _ = a.row(0);
        assert_eq!(a, b, "memoization must not affect equality");
        assert_eq!(b.materialized_rows(), 0, "clone is independent");
    }
}
