//! Similarity-graph and dissimilarity-list materialization.
//!
//! Section 3 defines the *similarity graph* `G'`: same vertices, an edge
//! between every similar pair. The clique-based baseline materializes `G'`
//! per component; the advanced search instead stores only the (sparse)
//! **dissimilar** pairs inside each candidate component, which is exactly
//! what the `DP(·)` counters of the paper range over.
//!
//! Both builders are **index-accelerated**: the oracle's
//! [`SimilarityOracle::candidates`] hook produces a sound candidate set
//! (spatial grid for Euclidean, inverted keyword index for Jaccard — see
//! [`crate::candidates`]), only candidates are verified with the metric,
//! and every out-of-candidate pair is classified dissimilar for free. The
//! output is **byte-identical** to the brute-force reference (kept as
//! [`build_similarity_graph_brute`] / [`build_dissimilarity_lists_brute`]
//! and property-tested against the indexed path); only the number of
//! metric evaluations changes, which [`DissimilarityLists::oracle_evals`]
//! records.
//!
//! The verified similar pairs are flagged once in bit rows of `⌈n/64⌉`
//! words per vertex (a similarity CSR above 4 096 vertices), read
//! through one ascending word-at-a-time walk: its set bits write the
//! similarity graph, its zero bits the eager complement CSR, and the
//! lazy view keeps the rows themselves as its storage.

use crate::candidates::CandidatePairs;
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
/// similar pairs, with per-vertex rows memoized on first slice access.
///
/// On dissimilarity-heavy components the eager complement is `O(n²)`
/// output while the search only ever *slices* the rows of vertices it
/// branches on — everything else (counter updates, bounds, maximal
/// checks) is answered by streaming the complement of the similarity
/// row ([`LazyDissimilarity::for_each`]) or by arithmetic
/// ([`LazyDissimilarity::count`] is `n - 1 - |sim(u)|`). Streaming
/// visits partners in ascending order, exactly like an eager CSR row,
/// so consumers observe identical sequences in both modes.
///
/// Up to 4 096 vertices the similar pairs are a bit matrix of
/// `⌈n/64⌉` words per row (`n²/8` bytes, whatever the share of similar
/// pairs); above that, a similarity CSR.
#[derive(Debug)]
pub struct LazyDissimilarity {
    /// The similar pairs (both directions), the complement's source.
    sim: SimRows,
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
    /// Builds over the similar pairs' rows. No complement output is
    /// produced here.
    fn new(sim: SimRows, oracle_evals: u64) -> Self {
        let n = sim.len();
        let num_similar = (0..n as VertexId).map(|u| sim.row_len(u)).sum::<usize>() / 2;
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
        self.sim.len()
    }

    /// True iff there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
            out.extend(self.sim.dissimilar(u));
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
    /// *without* memoizing: the memoized row if one exists, else the
    /// complement of the similarity row.
    #[inline]
    pub fn for_each(&self, u: VertexId, mut f: impl FnMut(VertexId)) {
        if let Some(row) = self.rows[u as usize].get() {
            for &w in row.iter() {
                f(w);
            }
        } else {
            sim_obs().lazy_rows_skipped.inc();
            self.sim.dissimilar(u).for_each(f);
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
        self.sim.dissimilar(u).any(pred)
    }

    /// Whether `u` and `v` are dissimilar (one bit test, or a binary
    /// search above the bit-row cutoff; no materialization).
    pub fn are_dissimilar(&self, u: VertexId, v: VertexId) -> bool {
        u != v && !self.sim.contains(u, v)
    }

    /// Number of dissimilar partners of `u` (a popcount of `u`'s bit
    /// row, or `O(1)` above the cutoff; no materialization).
    pub fn count(&self, u: VertexId) -> usize {
        self.len() - 1 - self.sim.row_len(u)
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

    /// Current heap footprint: the similar pairs' rows, the row table,
    /// and every memoized row. **Grows** as the search materializes rows
    /// — cache accounting must re-read it, not snapshot it at build time.
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
    /// happen to be memoized or how the similar pairs are stored.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (0..self.len() as VertexId).all(|u| self.sim.similar(u).eq(other.sim.similar(u)))
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
/// build's single pass beats per-row bookkeeping. From here up to 4 096
/// vertices a lazy view keeps `n²/8` bytes of similarity bit rows, at
/// least 128 KiB, whatever the share of similar pairs.
pub const LAZY_MIN_N: usize = 1024;

/// Eager-or-lazy dissimilarity lists behind one interface. Eager
/// components keep byte-identical behavior (same CSR, same slices);
/// lazy ones answer everything from the similar pairs' rows (bit rows
/// up to 4 096 vertices, a similarity CSR above), memoizing a
/// complement row only when [`DissimilarityView::row`] is called.
#[derive(Debug, Clone)]
pub enum DissimilarityView {
    /// Fully materialized complement (small or similarity-heavy
    /// components, and the brute-force reference path).
    Eager(DissimilarityLists),
    /// Complement-on-demand over the similar pairs' rows.
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

    /// Number of dissimilar partners of `u`, never materializing (a
    /// popcount of `⌈n/64⌉` words on a lazy view of bit rows, `O(1)`
    /// otherwise).
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

/// A member set's similar pairs as its candidate index classified them:
/// the index's known-similar pairs plus the candidates the metric
/// verified, visited on demand and never materialized as a pair list.
/// Verification runs once, in [`SimilarPairs::verify`]: one metric
/// evaluation per candidate, each verdict kept as one bit in candidate
/// visit order so later visits replay it.
struct SimilarPairs {
    index: Box<dyn CandidatePairs>,
    /// Bit `t` is set iff the `t`-th visited candidate is similar.
    verdicts: Vec<u64>,
    num_verified: usize,
    oracle_evals: u64,
}

impl SimilarPairs {
    /// Builds `members`' candidate index and verifies every candidate
    /// serially.
    fn verify<O: SimilarityOracle + ?Sized>(oracle: &O, members: &[VertexId]) -> Self {
        let index = oracle.candidates(members);
        let mut verdicts: Vec<u64> = Vec::with_capacity(index.num_candidates().div_ceil(64));
        let mut visited = 0usize;
        let mut num_verified = 0usize;
        index.for_each(&mut |i, j| {
            if visited.is_multiple_of(64) {
                verdicts.push(0);
            }
            if oracle.is_similar(members[i as usize], members[j as usize]) {
                verdicts[visited / 64] |= 1 << (visited % 64);
                num_verified += 1;
            }
            visited += 1;
        });
        SimilarPairs {
            index,
            verdicts,
            num_verified,
            oracle_evals: visited as u64,
        }
    }

    /// Number of similar pairs, `O(blocks)`.
    fn len(&self) -> usize {
        self.index.num_known_similar() + self.num_verified
    }

    /// Visits every similar pair `(i, j)`, `i < j`, once: the
    /// known-similar pairs, then the verified candidates.
    fn for_each(&self, visit: &mut dyn FnMut(VertexId, VertexId)) {
        self.index.for_each_known_similar(visit);
        let mut at = 0usize;
        self.index.for_each(&mut |i, j| {
            if self.verdicts[at / 64] >> (at % 64) & 1 == 1 {
                visit(i, j);
            }
            at += 1;
        });
    }
}

/// Components up to this many vertices keep their similar pairs as bit
/// rows (`n²/8` bytes, 2 MiB at the cap); larger ones as a CSR, the only
/// representation that fits giant inputs.
const BIT_ROWS_MAX_N: usize = 4096;

/// A member set's similar pairs over local ids `0..n`, filed under both
/// endpoints: the lazy view's storage, and the source every eager
/// complement and similarity graph is written from. Rows are read as
/// 64-vertex words ([`SimRows::similar`], [`SimRows::dissimilar`]) in
/// both layouts.
#[derive(Debug, Clone)]
enum SimRows {
    /// Row `u` is the `⌈n/64⌉` words at `u·⌈n/64⌉`; bit `v` is set iff
    /// `u` and `v` are similar. Bit `u` and the padding past `n` stay
    /// clear.
    Bits { n: usize, words: Vec<u64> },
    /// Sorted similar partners per row.
    Csr(Csr),
}

impl SimRows {
    /// Bit rows up to [`BIT_ROWS_MAX_N`] vertices, a CSR above.
    fn build(n: usize, similar: &SimilarPairs) -> Self {
        if n <= BIT_ROWS_MAX_N {
            SimRows::bits(n, similar)
        } else {
            SimRows::csr(n, similar)
        }
    }

    /// Flags every similar pair in both rows; no sort, no count pass.
    fn bits(n: usize, similar: &SimilarPairs) -> Self {
        let stride = n.div_ceil(64);
        let mut words = vec![0u64; n * stride];
        let mut set = |u: usize, v: usize| words[u * stride + v / 64] |= 1 << (v % 64);
        similar.for_each(&mut |i, j| {
            set(i as usize, j as usize);
            set(j as usize, i as usize);
        });
        SimRows::Bits { n, words }
    }

    /// The similarity CSR, by a count-then-fill over
    /// [`SimilarPairs::for_each`].
    fn csr(n: usize, similar: &SimilarPairs) -> Self {
        SimRows::Csr(Csr::from_symmetric_visit(n, |visit| {
            similar.for_each(visit)
        }))
    }

    /// Number of vertices covered.
    fn len(&self) -> usize {
        match self {
            SimRows::Bits { n, .. } => *n,
            SimRows::Csr(csr) => csr.num_rows(),
        }
    }

    /// Whether `u` and `v` are similar.
    fn contains(&self, u: VertexId, v: VertexId) -> bool {
        match self {
            SimRows::Bits { n, words } => {
                words[u as usize * n.div_ceil(64) + v as usize / 64] >> (v % 64) & 1 == 1
            }
            SimRows::Csr(csr) => csr.contains(u, v),
        }
    }

    /// Number of similar partners of `u`.
    fn row_len(&self, u: VertexId) -> usize {
        match self {
            SimRows::Bits { n, words } => {
                let stride = n.div_ceil(64);
                let at = u as usize * stride;
                words[at..at + stride]
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum()
            }
            SimRows::Csr(csr) => csr.row_len(u),
        }
    }

    /// Heap footprint in bytes.
    fn heap_bytes(&self) -> usize {
        match self {
            SimRows::Bits { words, .. } => words.capacity() * std::mem::size_of::<u64>(),
            SimRows::Csr(csr) => csr.heap_bytes(),
        }
    }

    /// Word `k` of `u`'s row: bit `b` is set iff `u` is similar to
    /// `64k + b`. The CSR layout gathers it from the row's entries
    /// starting at `*cursor`, which it advances past them (words must be
    /// asked for in ascending `k`).
    #[inline(always)]
    fn word(&self, u: VertexId, k: usize, cursor: &mut usize) -> u64 {
        match self {
            SimRows::Bits { n, words } => words[u as usize * n.div_ceil(64) + k],
            SimRows::Csr(csr) => {
                let row = csr.row(u);
                let end = (k + 1) * 64;
                let mut word = 0u64;
                while let Some(&v) = row.get(*cursor).filter(|&&v| (v as usize) < end) {
                    word |= 1 << (v % 64);
                    *cursor += 1;
                }
                word
            }
        }
    }

    /// The similar partners of `u`, ascending.
    #[inline]
    fn similar(&self, u: VertexId) -> RowWalk<'_> {
        RowWalk::new(self, u, 0)
    }

    /// The dissimilar partners of `u` (every other vertex not similar to
    /// it), ascending.
    #[inline]
    fn dissimilar(&self, u: VertexId) -> RowWalk<'_> {
        RowWalk::new(self, u, !0)
    }
}

/// Ascending walk over the set bits of one [`SimRows`] row, each word
/// XOR-ed with `flip` first: `0` walks the similar partners, `!0` the
/// complement. Bit `u` and the padding past `n` are masked off either
/// way.
struct RowWalk<'a> {
    rows: &'a SimRows,
    u: VertexId,
    flip: u64,
    /// The next word to load (the current one is `next - 1`), and the
    /// row's word count.
    next: usize,
    words: usize,
    /// The last word's bits below `n`.
    last: u64,
    /// Bits of the current word not yet visited.
    bits: u64,
    /// CSR position of the next entry [`SimRows::word`] gathers.
    cursor: usize,
}

impl<'a> RowWalk<'a> {
    #[inline]
    fn new(rows: &'a SimRows, u: VertexId, flip: u64) -> Self {
        let n = rows.len();
        RowWalk {
            rows,
            u,
            flip,
            next: 0,
            words: n.div_ceil(64),
            last: !0 >> ((64 - n % 64) % 64),
            bits: 0,
            cursor: 0,
        }
    }
}

impl Iterator for RowWalk<'_> {
    type Item = VertexId;

    #[inline(always)]
    fn next(&mut self) -> Option<VertexId> {
        while self.bits == 0 {
            if self.next == self.words {
                return None;
            }
            let k = self.next;
            let mut bits = self.rows.word(self.u, k, &mut self.cursor) ^ self.flip;
            if k + 1 == self.words {
                bits &= self.last;
            }
            if k == self.u as usize / 64 {
                bits &= !(1 << (self.u % 64));
            }
            self.next += 1;
            self.bits = bits;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(((self.next - 1) * 64 + b) as VertexId)
    }
}

/// Builds the similarity graph over `members` (a set of *global* vertex
/// ids), renumbered to `0..members.len()` in the order given.
///
/// Index-accelerated: only candidate pairs are verified (see module
/// docs); the result equals [`build_similarity_graph_brute`].
pub fn build_similarity_graph<O: SimilarityOracle>(oracle: &O, members: &[VertexId]) -> Graph {
    let n = members.len();
    let similar = SimilarPairs::verify(oracle, members);
    sim_obs().oracle_evals.add(similar.oracle_evals);
    let csr = match SimRows::build(n, &similar) {
        SimRows::Csr(csr) => csr,
        bits => Csr::from_ascending_rows(n, 2 * similar.len(), |u| bits.similar(u)),
    };
    let (offsets, targets) = csr.into_parts();
    Graph::from_csr_parts(offsets.into_iter().map(|o| o as usize).collect(), targets)
        .expect("a candidate index yields a simple undirected similarity graph")
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

/// Writes the complement of `similar` over `n` vertices straight into
/// the dissimilarity CSR: each row is the [`SimRows::dissimilar`] walk,
/// ascending, with the total known up front (`n(n-1) - 2·|similar|`
/// entries), so the arena is allocated once and nothing is sorted.
fn complement_lists(n: usize, similar: &SimilarPairs) -> DissimilarityLists {
    let rows = SimRows::build(n, similar);
    let csr = Csr::from_ascending_rows(n, complement_size(n, similar), |u| rows.dissimilar(u));
    let num_pairs = csr.total_targets() / 2;
    let obs = sim_obs();
    obs.oracle_evals.add(similar.oracle_evals);
    obs.dissim_builds.inc();
    obs.dissim_pairs.add(num_pairs as u64);
    DissimilarityLists {
        csr,
        num_pairs,
        oracle_evals: similar.oracle_evals,
    }
}

/// Directed dissimilar entries over `n` vertices: every ordered pair of
/// distinct vertices minus both directions of each similar pair.
fn complement_size(n: usize, similar: &SimilarPairs) -> usize {
    (n * n.saturating_sub(1)).saturating_sub(2 * similar.len())
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
    complement_lists(members.len(), &SimilarPairs::verify(oracle, members))
}

/// Whether `Auto` picks the lazy representation: only components large
/// enough for the `O(n²)` complement to hurt, and only when the
/// complement actually dominates (at least half of all pairs
/// dissimilar) — otherwise the eager CSR is small and its single
/// pass wins.
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
/// ([`DissimilarityView::Lazy`]). Neither representation materializes
/// a list of similar or dissimilar pairs on the way: both are filled
/// from the candidate index's visitor.
pub fn build_dissimilarity_view<O: SimilarityOracle>(
    oracle: &O,
    members: &[VertexId],
    mode: DissimMode,
) -> DissimilarityView {
    let n = members.len();
    let similar = SimilarPairs::verify(oracle, members);
    let lazy = match mode {
        DissimMode::Eager => false,
        DissimMode::Lazy => true,
        DissimMode::Auto => auto_picks_lazy(n, similar.len()),
    };
    if lazy {
        DissimilarityView::Lazy(LazyDissimilarity::new(
            SimRows::build(n, &similar),
            similar.oracle_evals,
        ))
    } else {
        DissimilarityView::Eager(complement_lists(n, &similar))
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

/// The pair-list build this module used before the visitor path: the
/// known-similar pairs copied into a list, the verified candidates
/// appended, and each representation built from that list (the eager one
/// through a second list of every dissimilar pair in both directions).
/// The visitor path must reproduce it byte for byte.
#[cfg(test)]
mod pair_list_reference {
    use super::*;

    fn verify_candidates<O: SimilarityOracle + ?Sized>(
        oracle: &O,
        members: &[VertexId],
    ) -> (Vec<(VertexId, VertexId)>, u64) {
        let index = oracle.candidates(members);
        let mut similar = Vec::new();
        index.for_each_known_similar(&mut |i, j| similar.push((i, j)));
        let mut evals = 0u64;
        index.for_each(&mut |i, j| {
            evals += 1;
            if oracle.is_similar(members[i as usize], members[j as usize]) {
                similar.push((i, j));
            }
        });
        (similar, evals)
    }

    fn complement_to_csr(n: usize, similar: &[(VertexId, VertexId)]) -> Csr {
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
        if n <= BIT_ROWS_MAX_N {
            let mut bits = vec![0u64; (n * n).div_ceil(64)];
            let mut set = |i: usize, j: usize| {
                let at = i * n + j;
                bits[at / 64] |= 1u64 << (at % 64);
            };
            for &(i, j) in similar {
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
            let sim = Csr::from_symmetric_pairs(n, similar);
            for u in 0..n as VertexId {
                for v in 0..n as VertexId {
                    if v != u && !sim.contains(u, v) {
                        pairs.push((u, v));
                    }
                }
            }
        }
        Csr::from_pairs(n, &pairs)
    }

    pub fn build_view<O: SimilarityOracle + ?Sized>(
        oracle: &O,
        members: &[VertexId],
        mode: DissimMode,
    ) -> DissimilarityView {
        let n = members.len();
        let (similar, evals) = verify_candidates(oracle, members);
        let lazy = match mode {
            DissimMode::Eager => false,
            DissimMode::Lazy => true,
            DissimMode::Auto => auto_picks_lazy(n, similar.len()),
        };
        if lazy {
            let sim = Csr::from_symmetric_pairs(n, &similar);
            DissimilarityView::Lazy(LazyDissimilarity::new(SimRows::Csr(sim), evals))
        } else {
            let csr = complement_to_csr(n, &similar);
            DissimilarityView::Eager(DissimilarityLists {
                num_pairs: csr.total_targets() / 2,
                csr,
                oracle_evals: evals,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttributeTable;
    use crate::metrics::Metric;
    use crate::oracle::{TableOracle, Threshold};
    use proptest::prelude::*;

    /// The visitor-built view in every mode equals the brute-force lists
    /// and reproduces the pair-list reference exactly: the same
    /// representation, the same CSR bytes and capacity, the same metric
    /// evaluations. The reference's lazy view keeps a similarity CSR;
    /// up to [`BIT_ROWS_MAX_N`] vertices the built one keeps bit rows
    /// instead, whose size is exactly `n·⌈n/64⌉` words. Every lazy query
    /// is checked against the brute-force rows at every vertex, the
    /// last word's included. The similarity graph equals its
    /// brute-force reference too.
    fn check_against_references<O: SimilarityOracle>(
        oracle: &O,
        members: &[VertexId],
    ) -> Result<(), TestCaseError> {
        let n = members.len();
        let brute = DissimilarityView::Eager(build_dissimilarity_lists_brute(oracle, members));
        let similar = SimilarPairs::verify(oracle, members);
        for mode in [DissimMode::Eager, DissimMode::Lazy, DissimMode::Auto] {
            let view = build_dissimilarity_view(oracle, members, mode);
            let reference = pair_list_reference::build_view(oracle, members, mode);
            prop_assert!(view == brute, "{mode:?} view differs from brute force");
            prop_assert!(
                view == reference,
                "{mode:?} view differs from its reference"
            );
            prop_assert_eq!(view.oracle_evals(), reference.oracle_evals());
            prop_assert_eq!(view.num_pairs(), reference.num_pairs());
            match (&view, &reference) {
                (DissimilarityView::Eager(a), DissimilarityView::Eager(b)) => {
                    prop_assert_eq!(view.heap_bytes(), reference.heap_bytes());
                    prop_assert_eq!(&a.csr, &b.csr);
                    // The zero-bit walk over the CSR layout (above the
                    // bit-row cap) writes the same bytes.
                    let rows = SimRows::csr(n, &similar);
                    let walked = Csr::from_ascending_rows(n, complement_size(n, &similar), |u| {
                        rows.dissimilar(u)
                    });
                    prop_assert_eq!(walked.heap_bytes(), a.csr.heap_bytes());
                    prop_assert_eq!(&walked, &a.csr);
                }
                (DissimilarityView::Lazy(a), DissimilarityView::Lazy(b)) => {
                    let SimRows::Csr(sim) = &b.sim else {
                        unreachable!("the reference keeps a similarity CSR");
                    };
                    let rows_bytes = if n <= BIT_ROWS_MAX_N {
                        n * n.div_ceil(64) * std::mem::size_of::<u64>()
                    } else {
                        sim.heap_bytes()
                    };
                    prop_assert_eq!(
                        view.heap_bytes(),
                        reference.heap_bytes() - sim.heap_bytes() + rows_bytes
                    );
                    for u in 0..n as VertexId {
                        let expect = brute.row(u);
                        prop_assert_eq!(a.count(u), expect.len());
                        let mut visited = Vec::new();
                        prop_assert!(!a.any_where(u, |w| {
                            visited.push(w);
                            false
                        }));
                        prop_assert_eq!(&visited[..], expect);
                        for v in 0..n as VertexId {
                            prop_assert_eq!(a.are_dissimilar(u, v), brute.are_dissimilar(u, v));
                        }
                    }
                    if let Some(last) = (n as VertexId).checked_sub(1) {
                        prop_assert_eq!(a.row(last), brute.row(last));
                        prop_assert_eq!(a.materialized_rows(), 1);
                    }
                }
                _ => prop_assert!(false, "{mode:?} picked another representation"),
            }
        }
        let lists = build_dissimilarity_lists(oracle, members);
        prop_assert!(DissimilarityView::Eager(lists) == brute);
        prop_assert_eq!(
            build_similarity_graph(oracle, members),
            build_similarity_graph_brute(oracle, members)
        );
        Ok(())
    }

    /// Members in a vertex-id order that is not ascending when `reverse`.
    fn members(n: usize, reverse: bool) -> Vec<VertexId> {
        let mut m: Vec<VertexId> = (0..n as VertexId).collect();
        if reverse {
            m.reverse();
        }
        m
    }

    /// Member counts on both sides of the bit rows' 64-vertex words.
    const WORD_EDGES: [usize; 6] = [63, 64, 65, 127, 128, 129];

    /// Vectors of `item()` draws, as many as `small` allows or as one of
    /// [`WORD_EDGES`].
    fn sized<S: Strategy + 'static>(
        item: impl Fn() -> S + 'static,
        small: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<S::Value>> {
        let small = proptest::collection::vec(item(), small);
        prop_oneof![
            small,
            (0..WORD_EDGES.len())
                .prop_flat_map(move |i| proptest::collection::vec(item(), WORD_EDGES[i])),
        ]
    }

    proptest! {
        /// Grid index. Lattice coordinates in steps of 1/8: at `r = 2`
        /// (mode 0) every point sits on a cell boundary (cell side
        /// `r / 16`); mode 1 puts the threshold exactly on a pair's
        /// distance (a zero distance takes the all-pairs fallback);
        /// mode 2 draws it freely.
        #[test]
        fn visitor_views_match_references_on_points(
            cells in sized(|| (-60i32..60, -60i32..60), 2..40),
            mode in 0u8..3,
            pick in 0usize..10_000,
            r_free in 0.2f64..12.0,
            reverse in false..true,
        ) {
            let pts: Vec<(f64, f64)> =
                cells.iter().map(|&(x, y)| (x as f64 / 8.0, y as f64 / 8.0)).collect();
            let n = pts.len();
            let (a, b) = (pick % n, (pick / n) % n);
            let dist = ((pts[a].0 - pts[b].0).powi(2) + (pts[a].1 - pts[b].1).powi(2)).sqrt();
            let r = match mode {
                0 => 2.0,
                1 => dist,
                _ => r_free,
            };
            let oracle = TableOracle::new(
                AttributeTable::points(pts),
                Metric::Euclidean,
                Threshold::MaxDistance(r),
            );
            check_against_references(&oracle, &members(n, reverse))?;
        }

        /// Inverted keyword index, plain and weighted Jaccard; the
        /// threshold lies exactly on a pair's similarity when `on_pair`
        /// (a zero similarity takes the all-pairs fallback).
        #[test]
        fn visitor_views_match_references_on_keywords(
            lists in sized(|| proptest::collection::vec((0u32..8, 1u32..4), 0..5), 2..30),
            weighted in false..true,
            on_pair in false..true,
            pick in 0usize..10_000,
            r_free in 0.05f64..1.0,
            reverse in false..true,
        ) {
            let lists: Vec<Vec<(u32, f64)>> = lists
                .into_iter()
                .map(|l| l.into_iter().map(|(t, w)| (t, w as f64)).collect())
                .collect();
            let n = lists.len();
            let metric = if weighted { Metric::WeightedJaccard } else { Metric::Jaccard };
            let table = AttributeTable::keywords(lists);
            let probe = TableOracle::new(table.clone(), metric, Threshold::MinSimilarity(0.5));
            let r = if on_pair {
                probe.value((pick % n) as VertexId, ((pick / n) % n) as VertexId)
            } else {
                r_free
            };
            let oracle = TableOracle::new(table, metric, Threshold::MinSimilarity(r));
            check_against_references(&oracle, &members(n, reverse))?;
        }

        /// All-pairs fallback (Cosine has no index), the threshold exactly
        /// on a pair's similarity when `on_pair`.
        #[test]
        fn visitor_views_match_references_on_all_pairs(
            vecs in sized(|| proptest::collection::vec(-3i32..4, 3), 2..30),
            on_pair in false..true,
            pick in 0usize..10_000,
            r_free in -1.0f64..1.0,
        ) {
            let vecs: Vec<Vec<f64>> =
                vecs.into_iter().map(|v| v.into_iter().map(f64::from).collect()).collect();
            let n = vecs.len();
            let table = AttributeTable::vectors(vecs);
            let probe = TableOracle::new(table.clone(), Metric::Cosine, Threshold::MinSimilarity(0.0));
            let r = if on_pair {
                probe.value((pick % n) as VertexId, ((pick / n) % n) as VertexId)
            } else {
                r_free
            };
            let oracle = TableOracle::new(table, Metric::Cosine, Threshold::MinSimilarity(r));
            prop_assert_eq!(oracle.candidates(&members(n, false)).strategy(), "all-pairs");
            check_against_references(&oracle, &members(n, false))?;
        }
    }

    /// `Auto` picks the lazy view above [`LAZY_MIN_N`] on a
    /// dissimilarity-heavy corridor (three rings of 342 points, 6.0
    /// apart, max distance 9.0), and the eager one once the threshold
    /// makes every pair similar — both equal to the references.
    #[test]
    fn auto_mode_matches_references_above_the_lazy_cutoff() {
        let mut pts = Vec::new();
        for c in 0..3 {
            for i in 0..342 {
                let ang = i as f64 / 342.0 * std::f64::consts::TAU;
                pts.push((c as f64 * 6.0 + ang.cos(), ang.sin()));
            }
        }
        let members = members(pts.len(), false);
        for (r, lazy) in [(4.5, true), (20.0, false)] {
            let oracle = TableOracle::new(
                AttributeTable::points(pts.clone()),
                Metric::Euclidean,
                Threshold::MaxDistance(r),
            );
            assert_eq!(
                build_dissimilarity_view(&oracle, &members, DissimMode::Auto).is_lazy(),
                lazy
            );
            check_against_references(&oracle, &members).unwrap();
        }
    }

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
    fn eager_view_matches_brute_force() {
        let pts: Vec<(f64, f64)> = (0..40)
            .map(|i| ((i % 7) as f64 * 3.0, (i / 7) as f64 * 3.0))
            .collect();
        let o = TableOracle::new(
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(4.0),
        );
        let members: Vec<VertexId> = (0..40).collect();
        let brute = build_dissimilarity_lists_brute(&o, &members);
        let DissimilarityView::Eager(eager) =
            build_dissimilarity_view(&o, &members, DissimMode::Eager)
        else {
            panic!("eager mode builds eager lists");
        };
        assert_eq!(brute.csr, eager.csr);
        assert_eq!(brute.num_pairs, eager.num_pairs);
        assert!(eager.oracle_evals < brute.oracle_evals);
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
        // Streaming a memoized row uses the memo, not the row walk.
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
