//! Similarity-graph and dissimilarity-view construction.
//!
//! Section 3 defines the *similarity graph* `G'`: same vertices, an edge
//! between every similar pair. The clique-based baseline materializes `G'`
//! per component; the advanced search instead reads only the
//! **dissimilar** pairs inside each candidate component, which is exactly
//! what the `DP(·)` counters of the paper range over.
//!
//! Both builders are **index-accelerated**: the oracle's
//! [`SimilarityOracle::candidates`] hook produces a sound candidate set
//! (spatial grid for Euclidean, inverted keyword index for Jaccard — see
//! [`crate::candidates`]), only candidates are verified with the metric,
//! and every out-of-candidate pair is classified dissimilar for free. The
//! output equals the brute-force reference (kept as
//! [`build_similarity_graph_brute`] / [`build_dissimilarity_lists_brute`]
//! and property-tested against the indexed path); only the number of
//! metric evaluations changes, which
//! [`DissimilarityView::oracle_evals`] records.
//!
//! A component's pairs have one layout, chosen from its size and its
//! pairs alone: up to [`BIT_ROWS_MAX_N`] vertices the similar pairs are
//! flagged once in bit rows of `⌈n/64⌉` words per vertex; above that, one
//! CSR of the sparser side (the similar pairs when at least half of all
//! pairs are dissimilar, the dissimilar ones otherwise). One ascending
//! word-at-a-time walk reads every layout: its zero bits are the
//! dissimilar partners, its set bits write the similarity graph.

use crate::candidates::CandidatePairs;
use crate::oracle::SimilarityOracle;
use kr_graph::{Csr, Graph, GraphBuilder, VertexId};
use std::sync::OnceLock;

/// Dissimilarity lists over a renumbered vertex set `0..n`, stored in CSR
/// form: `row(v)` holds the vertices dissimilar to `v` (sorted). Only the
/// brute-force reference [`build_dissimilarity_lists_brute`] builds them;
/// tests compare every [`DissimilarityView`] against it.
#[derive(Debug, Clone)]
pub struct DissimilarityLists {
    /// Per-vertex sorted dissimilar partners in CSR form.
    pub csr: Csr,
    /// Total number of dissimilar (unordered) pairs.
    pub num_pairs: usize,
    /// Metric evaluations the build spent (brute force pays
    /// `n·(n-1)/2`).
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
/// cumulative metric evaluations, dissimilarity builds, and the
/// dissimilar pairs those builds covered. Per-query figures stay on
/// [`DissimilarityView::oracle_evals`] and flow into the server's stats
/// frame; these aggregates feed the `metrics` wire request.
struct SimObs {
    oracle_evals: std::sync::Arc<kr_obs::Counter>,
    dissim_builds: std::sync::Arc<kr_obs::Counter>,
    dissim_pairs: std::sync::Arc<kr_obs::Counter>,
}

fn sim_obs() -> &'static SimObs {
    static OBS: OnceLock<SimObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = kr_obs::global();
        SimObs {
            oracle_evals: reg.counter("similarity.oracle_evals"),
            dissim_builds: reg.counter("similarity.dissim_builds"),
            dissim_pairs: reg.counter("similarity.dissim_pairs"),
        }
    })
}

/// Kept only so the benchmark package's `LocalComponent::build` calls
/// compile; it stays until the benchmark PR. The layout no longer has a
/// knob: [`build_dissimilarity_view`] picks it from the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DissimMode {
    /// The one layout (see [`DissimilarityView`]).
    #[default]
    Auto,
}

/// A component's dissimilar pairs, read from one stored side of them
/// and never materialized as dissimilar rows.
///
/// Up to [`BIT_ROWS_MAX_N`] vertices the similar pairs are bit rows of
/// `⌈n/64⌉` words (`n²/8` bytes, whatever the share of similar pairs):
/// [`DissimilarityView::count`] and [`DissimilarityView::count_in`] are
/// popcounts, [`DissimilarityView::are_dissimilar`] one bit test. Above
/// the cutoff one CSR holds the sparser side. Every visit
/// ([`DissimilarityView::for_each`], [`DissimilarityView::any_where`])
/// walks a row word by word and yields the dissimilar partners in
/// ascending order. The view never changes after its build, so its
/// footprint is fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DissimilarityView {
    rows: SimRows,
    /// Total number of dissimilar (unordered) pairs.
    num_pairs: usize,
    /// Metric evaluations spent classifying the candidate pairs.
    oracle_evals: u64,
}

impl DissimilarityView {
    /// Wraps `rows`, counting the dissimilar pairs from them.
    fn new(rows: SimRows, oracle_evals: u64) -> Self {
        let n = rows.len();
        let num_similar = (0..n as VertexId).map(|u| rows.row_len(u)).sum::<usize>() / 2;
        DissimilarityView {
            num_pairs: n * n.saturating_sub(1) / 2 - num_similar,
            rows,
            oracle_evals,
        }
    }

    /// The view whose dissimilar pairs are the rows of `dis`, a
    /// symmetric CSR with no self pair (local ids `0..dis.num_rows()`),
    /// in the layout [`build_dissimilarity_view`] would pick for them.
    /// Spends no metric evaluation.
    pub fn from_dissimilar(dis: Csr) -> Self {
        let n = dis.num_rows();
        let rows = if n <= BIT_ROWS_MAX_N {
            let stride = n.div_ceil(64);
            let mut words = vec![0u64; n * stride];
            for (u, row) in words.chunks_exact_mut(stride.max(1)).enumerate() {
                row.fill(!0);
                row[stride - 1] &= last_word_mask(n);
                row[u / 64] &= !(1 << (u % 64));
                for &w in dis.row(u as VertexId) {
                    row[w as usize / 64] &= !(1 << (w % 64));
                }
            }
            SimRows::Bits { n, words }
        } else {
            SimRows::Csr { csr: dis, flip: !0 }.sparser_side()
        };
        DissimilarityView::new(rows, 0)
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total dissimilar (unordered) pairs.
    pub fn num_pairs(&self) -> usize {
        self.num_pairs
    }

    /// Metric evaluations the build spent.
    pub fn oracle_evals(&self) -> u64 {
        self.oracle_evals
    }

    /// Visits the dissimilar partners of `u` in ascending order.
    #[inline(always)]
    pub fn for_each(&self, u: VertexId, f: impl FnMut(VertexId)) {
        self.rows.dissimilar(u).for_each(f)
    }

    /// Calls `f(i, word)` for each word of `u`'s similar bits, ascending:
    /// bit `b` is set iff `u` is similar to `64·i + b` (`u`'s own bit and
    /// the padding past `n` clear), in every layout.
    #[inline(always)]
    pub fn for_each_similar_word(&self, u: VertexId, mut f: impl FnMut(usize, u64)) {
        let mut walk = self.rows.similar(u);
        while let Some((i, word)) = walk.next_word() {
            f(i, word);
        }
    }

    /// True iff any dissimilar partner of `u` satisfies `pred`. Stops at
    /// the first hit, which the short-circuiting maximality checks rely
    /// on.
    #[inline]
    pub fn any_where(&self, u: VertexId, pred: impl FnMut(VertexId) -> bool) -> bool {
        self.rows.dissimilar(u).any(pred)
    }

    /// Whether `u` and `v` are dissimilar (one bit test, or a binary
    /// search above the bit-row cutoff).
    pub fn are_dissimilar(&self, u: VertexId, v: VertexId) -> bool {
        u != v && !self.rows.contains(u, v)
    }

    /// Number of dissimilar partners of `u` (a popcount of `u`'s bit
    /// row, or `O(1)` above the cutoff).
    pub fn count(&self, u: VertexId) -> usize {
        self.len() - 1 - self.rows.row_len(u)
    }

    /// `|dis(u) ∩ mask|`, where `mask` flags vertices in `⌈n/64⌉` words
    /// (bit `v % 64` of word `v / 64`) and flags none at or past `n`. On
    /// bit rows this is `Σ popcount(mask ∧ ¬sim(u))` less `u`'s own bit;
    /// above the cutoff, a walk over `u`'s stored row. Reads
    /// [`DissimilarityView::count_in_reads`] row words and entries.
    #[inline]
    pub fn count_in(&self, u: VertexId, mask: &[u64]) -> usize {
        match &self.rows {
            SimRows::Bits { n, words } => {
                let stride = n.div_ceil(64);
                let row = &words[u as usize * stride..][..stride];
                let outside: usize = row
                    .iter()
                    .zip(mask)
                    .map(|(s, m)| (m & !s).count_ones() as usize)
                    .sum();
                outside - (mask[u as usize / 64] >> (u % 64) & 1) as usize
            }
            SimRows::Csr { .. } => {
                let mut walk = self.rows.dissimilar(u);
                let mut count = 0usize;
                while let Some((k, word)) = walk.next_word() {
                    count += (word & mask[k]).count_ones() as usize;
                }
                count
            }
        }
    }

    /// The dissimilar partners of `u` as one word (bit `v` set iff `u`
    /// and `v` are dissimilar) in a view of at most 64 vertices: the
    /// complement of `u`'s similar bit row, `u`'s own bit and the padding
    /// past `n` clear.
    #[inline]
    pub fn dissimilar_word(&self, u: VertexId) -> u64 {
        debug_assert!(self.len() <= 64, "one word holds at most 64 vertices");
        self.rows.dissimilar(u).next_word().map_or(0, |(_, w)| w)
    }

    /// Row words and stored entries one [`DissimilarityView::count_in`]
    /// of `u` reads: `⌈n/64⌉` on bit rows, plus `u`'s stored entries
    /// above the cutoff. A deterministic work unit, not a timing.
    pub fn count_in_reads(&self, u: VertexId) -> usize {
        let words = self.len().div_ceil(64);
        match &self.rows {
            SimRows::Bits { .. } => words,
            SimRows::Csr { csr, .. } => words + csr.row_len(u),
        }
    }

    /// True iff the view stores the similar pairs: every bit-row view,
    /// and a CSR view whose pairs are at least half dissimilar.
    pub fn stores_similar(&self) -> bool {
        match &self.rows {
            SimRows::Bits { .. } => true,
            SimRows::Csr { flip, .. } => *flip == 0,
        }
    }

    /// Always 0: no row is ever materialized. Kept only because the
    /// benchmark package reads it; it stays until the benchmark PR.
    pub fn materialized_rows(&self) -> usize {
        0
    }

    /// Heap footprint in bytes: the stored rows (`n·⌈n/64⌉·8` on bit
    /// rows). Fixed once built.
    pub fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes()
    }
}

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
/// rows (`n²/8` bytes, 2 MiB at the cap); larger ones keep a CSR of the
/// sparser side, the only layout that fits giant inputs.
pub const BIT_ROWS_MAX_N: usize = 4096;

/// The bits of a row's last word that name vertices below `n`.
fn last_word_mask(n: usize) -> u64 {
    !0 >> ((64 - n % 64) % 64)
}

/// A member set's pairs over local ids `0..n`, filed under both
/// endpoints: the view's storage, and the source the similarity graph is
/// written from. Rows are read as 64-vertex words of *similar* bits
/// ([`SimRows::word`]) in every layout.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SimRows {
    /// Row `u` is the `⌈n/64⌉` words at `u·⌈n/64⌉`; bit `v` is set iff
    /// `u` and `v` are similar. Bit `u` and the padding past `n` stay
    /// clear.
    Bits { n: usize, words: Vec<u64> },
    /// Sorted partners per row: the similar ones when `flip` is `0`,
    /// the dissimilar ones when it is `!0` (each gathered word is XOR-ed
    /// with it to read similar bits).
    Csr { csr: Csr, flip: u64 },
}

impl SimRows {
    /// Bit rows up to [`BIT_ROWS_MAX_N`] vertices, a similarity CSR
    /// above.
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
        SimRows::Csr {
            csr: Csr::from_symmetric_visit(n, |visit| similar.for_each(visit)),
            flip: 0,
        }
    }

    /// A CSR layout holding the side `flip` names (`0` similar, `!0`
    /// dissimilar), writing the complement of the stored rows when they
    /// hold the other side. Bit rows are returned as they are.
    fn with_side(self, flip: u64) -> Self {
        match &self {
            SimRows::Csr { csr, flip: stored } if *stored != flip => {
                let n = csr.num_rows();
                let total = n * n.saturating_sub(1);
                let csr = Csr::from_ascending_rows(n, total - csr.total_targets(), |u| {
                    RowWalk::new(&self, u, flip)
                });
                SimRows::Csr { csr, flip }
            }
            _ => self,
        }
    }

    /// A CSR layout holding the sparser side: the similar pairs when at
    /// least half of all pairs are dissimilar, the dissimilar pairs
    /// otherwise. Bit rows are returned as they are.
    fn sparser_side(self) -> Self {
        let SimRows::Csr { csr, flip } = &self else {
            return self;
        };
        let n = csr.num_rows();
        let total = n * n.saturating_sub(1) / 2;
        let stored = csr.total_targets() / 2;
        let num_dissimilar = if *flip == 0 { total - stored } else { stored };
        let side = if 2 * num_dissimilar >= total { 0 } else { !0 };
        self.with_side(side)
    }

    /// Number of vertices covered.
    fn len(&self) -> usize {
        match self {
            SimRows::Bits { n, .. } => *n,
            SimRows::Csr { csr, .. } => csr.num_rows(),
        }
    }

    /// Whether `u` and `v` are similar (`u != v`).
    fn contains(&self, u: VertexId, v: VertexId) -> bool {
        match self {
            SimRows::Bits { n, words } => {
                words[u as usize * n.div_ceil(64) + v as usize / 64] >> (v % 64) & 1 == 1
            }
            SimRows::Csr { csr, flip } => csr.contains(u, v) == (*flip == 0),
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
            SimRows::Csr { csr, flip: 0 } => csr.row_len(u),
            SimRows::Csr { csr, .. } => csr.num_rows() - 1 - csr.row_len(u),
        }
    }

    /// Heap footprint in bytes.
    fn heap_bytes(&self) -> usize {
        match self {
            SimRows::Bits { words, .. } => words.capacity() * std::mem::size_of::<u64>(),
            SimRows::Csr { csr, .. } => csr.heap_bytes(),
        }
    }

    /// Word `k` of `u`'s similar bits: bit `b` is set iff `u` is similar
    /// to `64k + b` (bit `u` and the padding past `n` are unspecified).
    /// The CSR layout gathers it from the row's entries starting at
    /// `*cursor`, which it advances past them (words must be asked for in
    /// ascending `k`).
    #[inline(always)]
    fn word(&self, u: VertexId, k: usize, cursor: &mut usize) -> u64 {
        match self {
            SimRows::Bits { n, words } => words[u as usize * n.div_ceil(64) + k],
            SimRows::Csr { csr, flip } => {
                let row = csr.row(u);
                let end = (k + 1) * 64;
                let mut word = 0u64;
                while let Some(&v) = row.get(*cursor).filter(|&&v| (v as usize) < end) {
                    word |= 1 << (v % 64);
                    *cursor += 1;
                }
                word ^ flip
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
/// of similar bits XOR-ed with `flip` first: `0` walks the similar
/// partners, `!0` the complement. Bit `u` and the padding past `n` are
/// masked off either way.
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
            last: last_word_mask(n),
            bits: 0,
            cursor: 0,
        }
    }

    /// The next word of the walk and its index, flipped and masked, or
    /// `None` past the row's last word.
    #[inline(always)]
    fn next_word(&mut self) -> Option<(usize, u64)> {
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
        Some((k, bits))
    }
}

impl Iterator for RowWalk<'_> {
    type Item = VertexId;

    #[inline(always)]
    fn next(&mut self) -> Option<VertexId> {
        while self.bits == 0 {
            self.bits = self.next_word()?.1;
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
        SimRows::Csr { csr, .. } => csr,
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

/// Builds the [`DissimilarityView`] over `members` (global ids),
/// renumbered to local ids `0..members.len()` in the order given.
///
/// Candidates from [`SimilarityOracle::candidates`] are verified with the
/// metric; every other pair is classified with zero evaluations. Up to
/// [`BIT_ROWS_MAX_N`] members the similar pairs are flagged straight into
/// bit rows; above that they are filed into a similarity CSR, which is
/// complemented once when the dissimilar side is the sparser one. No
/// list of similar or dissimilar pairs is materialized on the way.
pub fn build_dissimilarity_view<O: SimilarityOracle>(
    oracle: &O,
    members: &[VertexId],
) -> DissimilarityView {
    let n = members.len();
    let similar = SimilarPairs::verify(oracle, members);
    let rows = SimRows::build(n, &similar).sparser_side();
    let view = DissimilarityView::new(rows, similar.oracle_evals);
    let obs = sim_obs();
    obs.oracle_evals.add(view.oracle_evals);
    obs.dissim_builds.inc();
    obs.dissim_pairs.add(view.num_pairs as u64);
    view
}

/// Brute-force reference for [`build_dissimilarity_view`]: one oracle
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

/// The pair-list verification this module used before the visitor path:
/// the known-similar pairs copied into a list, the verified candidates
/// appended. The visitor path must file the same pairs with the same
/// metric evaluations.
#[cfg(test)]
mod pair_list_reference {
    use super::*;

    pub fn verify_candidates<O: SimilarityOracle + ?Sized>(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttributeTable;
    use crate::metrics::Metric;
    use crate::oracle::{TableOracle, Threshold};
    use proptest::prelude::*;

    /// Every query of `view` agrees with the brute-force `lists` at every
    /// vertex, the last word's included: `count`, the `for_each` and
    /// `any_where` visits, `are_dissimilar` on every pair, and `count_in`
    /// under three masks (every vertex, a scattered half, the vertices
    /// at or below `u`).
    fn check_view(
        view: &DissimilarityView,
        lists: &DissimilarityLists,
    ) -> Result<(), TestCaseError> {
        let n = lists.len();
        prop_assert_eq!(view.len(), n);
        prop_assert_eq!(view.num_pairs(), lists.num_pairs);
        let mask_of = |keep: &dyn Fn(usize) -> bool| {
            let mut mask = vec![0u64; n.div_ceil(64)];
            for v in (0..n).filter(|&v| keep(v)) {
                mask[v / 64] |= 1 << (v % 64);
            }
            mask
        };
        let all = mask_of(&|_| true);
        let scattered = mask_of(&|v| (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1);
        for u in 0..n as VertexId {
            let expect = lists.row(u);
            prop_assert_eq!(view.count(u), expect.len());
            let mut visited = Vec::new();
            view.for_each(u, |w| visited.push(w));
            prop_assert_eq!(&visited[..], expect);
            visited.clear();
            prop_assert!(!view.any_where(u, |w| {
                visited.push(w);
                false
            }));
            prop_assert_eq!(&visited[..], expect);
            // The similar words are the rest of the row, word by word.
            let mut words = Vec::new();
            view.for_each_similar_word(u, |i, word| words.push((i, word)));
            let similar = mask_of(&|v| v != u as usize && !lists.are_dissimilar(u, v as VertexId));
            prop_assert_eq!(words, similar.into_iter().enumerate().collect::<Vec<_>>());
            for v in 0..n as VertexId {
                prop_assert_eq!(view.are_dissimilar(u, v), lists.are_dissimilar(u, v));
            }
            let below = mask_of(&|v| v <= u as usize);
            for mask in [&all, &scattered, &below] {
                let inside = expect
                    .iter()
                    .filter(|&&w| mask[w as usize / 64] >> (w % 64) & 1 == 1)
                    .count();
                prop_assert_eq!(view.count_in(u, mask), inside);
            }
        }
        Ok(())
    }

    /// The built view equals the brute-force lists and takes exactly
    /// `n·⌈n/64⌉` words. Every layout of the same pairs (bit rows, a
    /// similarity CSR, a dissimilarity CSR) reads the same; the
    /// similarity CSR equals the one filed from the pair-list
    /// reference byte for byte, the dissimilarity CSR equals the
    /// brute-force CSR, and the sparser side is the one kept above the
    /// cutoff. The view built from the brute-force lists equals the
    /// built one, and the similarity graph its brute-force reference.
    fn check_against_references<O: SimilarityOracle>(
        oracle: &O,
        members: &[VertexId],
    ) -> Result<(), TestCaseError> {
        let n = members.len();
        let brute = build_dissimilarity_lists_brute(oracle, members);
        let view = build_dissimilarity_view(oracle, members);
        check_view(&view, &brute)?;
        prop_assert!(view.stores_similar());
        prop_assert_eq!(view.heap_bytes(), n * n.div_ceil(64) * 8);
        let (pairs, evals) = pair_list_reference::verify_candidates(oracle, members);
        prop_assert_eq!(view.oracle_evals(), evals);
        prop_assert_eq!(
            &DissimilarityView::from_dissimilar(brute.csr.clone()).rows,
            &view.rows
        );

        let similar = SimilarPairs::verify(oracle, members);
        let filed = Csr::from_symmetric_pairs(n, &pairs);
        let SimRows::Csr { csr, .. } = SimRows::csr(n, &similar) else {
            unreachable!("a CSR layout");
        };
        prop_assert_eq!(csr.heap_bytes(), filed.heap_bytes());
        prop_assert_eq!(&csr, &filed);
        let dissimilar = SimRows::csr(n, &similar).with_side(!0);
        prop_assert_eq!(
            &dissimilar,
            &SimRows::Csr {
                csr: brute.csr.clone(),
                flip: !0
            }
        );
        prop_assert_eq!(&dissimilar.clone().with_side(0), &SimRows::csr(n, &similar));
        let total = n * n.saturating_sub(1) / 2;
        let kept = SimRows::csr(n, &similar).sparser_side();
        prop_assert_eq!(
            kept == SimRows::csr(n, &similar),
            2 * brute.num_pairs >= total
        );
        for rows in [
            SimRows::bits(n, &similar),
            SimRows::csr(n, &similar),
            dissimilar,
        ] {
            check_view(&DissimilarityView::new(rows, evals), &brute)?;
        }
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

    /// Points on a line one apart, similar within 1.5: each vertex is
    /// similar to its two line neighbours only.
    fn line_oracle(n: usize) -> TableOracle {
        TableOracle::new(
            AttributeTable::points((0..n).map(|i| (i as f64, 0.0)).collect()),
            Metric::Euclidean,
            Threshold::MaxDistance(1.5),
        )
    }

    /// The layout follows the size and the pairs alone: bit rows at
    /// exactly [`BIT_ROWS_MAX_N`] vertices; one vertex more, a CSR of
    /// the sparser side — the similar pairs of the dissimilarity-heavy
    /// line, the dissimilar pairs of a near-clique built from its few
    /// dissimilar pairs. Every row of the line is checked against the
    /// oracle, and the footprints are exact.
    #[test]
    fn layout_above_the_bit_row_cutoff_keeps_the_sparser_side() {
        let n = BIT_ROWS_MAX_N;
        let at_cap = build_dissimilarity_view(&line_oracle(n), &members(n, false));
        assert!(matches!(at_cap.rows, SimRows::Bits { .. }));
        assert_eq!(at_cap.heap_bytes(), n * n.div_ceil(64) * 8);
        assert_eq!(at_cap.heap_bytes(), 2 << 20);

        let n = BIT_ROWS_MAX_N + 1;
        let oracle = line_oracle(n);
        let line = build_dissimilarity_view(&oracle, &members(n, false));
        assert!(line.stores_similar());
        assert_eq!(line.num_pairs(), n * (n - 1) / 2 - (n - 1));
        assert_eq!(line.heap_bytes(), (n + 1) * 4 + 2 * (n - 1) * 4);
        let mut mask = vec![0u64; n.div_ceil(64)];
        for v in (0..n).step_by(3) {
            mask[v / 64] |= 1 << (v % 64);
        }
        for u in 0..n as VertexId {
            let mut row = Vec::new();
            line.for_each(u, |w| row.push(w));
            let expect: Vec<VertexId> = (0..n as VertexId)
                .filter(|&v| v != u && !oracle.is_similar(u, v))
                .collect();
            assert_eq!(row, expect, "row {u}");
            assert_eq!(line.count(u), expect.len());
            let inside = expect.iter().filter(|&&w| w % 3 == 0).count();
            assert_eq!(line.count_in(u, &mask), inside);
            assert_eq!(
                line.count_in_reads(u),
                n.div_ceil(64) + (n - 1 - expect.len())
            );
        }

        // A near-clique: vertex i dissimilar to i + 1 for even i.
        let pairs: Vec<(VertexId, VertexId)> = (0..n as VertexId - 1)
            .step_by(2)
            .map(|i| (i, i + 1))
            .collect();
        let near_clique = DissimilarityView::from_dissimilar(Csr::from_symmetric_pairs(n, &pairs));
        assert!(!near_clique.stores_similar());
        assert_eq!(near_clique.num_pairs(), pairs.len());
        assert_eq!(near_clique.heap_bytes(), (n + 1) * 4 + 2 * pairs.len() * 4);
        for u in [0, 1, 2, n as VertexId - 2, n as VertexId - 1] {
            // The last vertex (even, n being odd) has no partner.
            let expect: Vec<VertexId> = Some(u ^ 1)
                .filter(|&p| (p as usize) < n)
                .into_iter()
                .collect();
            let mut row = Vec::new();
            near_clique.for_each(u, |w| row.push(w));
            assert_eq!(row, expect, "row {u}");
            assert_eq!(near_clique.count(u), expect.len());
            let inside = expect.iter().filter(|&&w| w % 3 == 0).count();
            assert_eq!(near_clique.count_in(u, &mask), inside);
            assert_eq!(near_clique.are_dissimilar(u, u ^ 1), !expect.is_empty());
        }
    }

    fn geo_oracle() -> TableOracle {
        TableOracle::new(
            AttributeTable::points(vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (50.0, 0.0)]),
            Metric::Euclidean,
            Threshold::MaxDistance(2.5),
        )
    }

    /// The dissimilar partners of `u`, collected.
    fn row(view: &DissimilarityView, u: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        view.for_each(u, |w| out.push(w));
        out
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
    fn dissimilarity_view_complement() {
        let o = geo_oracle();
        let d = build_dissimilarity_view(&o, &[0, 1, 2, 3]);
        assert_eq!(d.num_pairs(), 3); // 3 vs each of 0,1,2
        assert_eq!(row(&d, 3), [0, 1, 2]);
        assert_eq!(d.count(3), 3);
        assert!(d.are_dissimilar(0, 3));
        assert!(!d.are_dissimilar(0, 1));
        assert!(!d.are_dissimilar(3, 3));
        assert_eq!(d.len(), 4);
        assert_eq!(d.heap_bytes(), 4 * 8);
        assert_eq!(d.materialized_rows(), 0);
    }

    #[test]
    fn indexed_build_skips_certain_pairs() {
        let o = geo_oracle();
        let d = build_dissimilarity_view(&o, &[0, 1, 2, 3]);
        let brute = build_dissimilarity_lists_brute(&o, &[0, 1, 2, 3]);
        assert_eq!(brute.oracle_evals, 6);
        // Vertex 3 sits 48km from the cluster (provably dissimilar) and
        // the cluster pairs are within 2km « r (provably similar): the
        // grid classifies every pair without a single metric evaluation.
        assert_eq!(d.oracle_evals(), 0);
        assert_eq!(d, DissimilarityView::from_dissimilar(brute.csr));
        assert_eq!(d.num_pairs(), brute.num_pairs);
    }

    #[test]
    fn renumbering_respects_member_order() {
        let o = geo_oracle();
        // Members in reversed order: local 0 = global 3.
        let d = build_dissimilarity_view(&o, &[3, 2, 1, 0]);
        assert_eq!(row(&d, 0), [1, 2, 3]);
        assert_eq!(d.num_pairs(), 3);
    }

    #[test]
    fn simgraph_and_dissim_partition_pairs() {
        let o = geo_oracle();
        let members = [0, 1, 2, 3];
        let g = build_similarity_graph(&o, &members);
        let d = build_dissimilarity_view(&o, &members);
        let n = members.len();
        assert_eq!(g.num_edges() + d.num_pairs(), n * (n - 1) / 2);
    }

    #[test]
    fn empty_members() {
        let o = geo_oracle();
        let g = build_similarity_graph(&o, &[]);
        assert_eq!(g.num_vertices(), 0);
        let d = build_dissimilarity_view(&o, &[]);
        assert!(d.is_empty());
        assert_eq!(d.oracle_evals(), 0);
        assert_eq!(d.heap_bytes(), 0);
        assert!(DissimilarityView::from_dissimilar(Csr::empty(0)).is_empty());
    }
}
