//! Metric-aware candidate-pair generation.
//!
//! Preprocessing (Algorithm 1) needs, for every vertex group, the set of
//! *dissimilar* pairs — but evaluating the metric on all `|group|²/2`
//! pairs is the dominant cold-query cost. The indexes here invert that:
//! generate a small **candidate** set of possibly-similar pairs from the
//! attribute structure, verify only those with the oracle, and classify
//! every pair *outside* the candidate set as dissimilar with **zero**
//! metric evaluations.
//!
//! Soundness contract: an index partitions the pairs three ways —
//! *known-similar* (provably within the threshold, no evaluation),
//! *candidates* (uncertain, one verification each), and everything else
//! (provably dissimilar, no evaluation). Both certain classes must be
//! provable; when in doubt a pair goes into the candidate set, and the
//! builders below fall back to [`AllPairs`] entirely whenever a
//! precondition for their pruning argument does not hold (non-positive
//! thresholds, negative weights, astronomically scaled coordinates).
//!
//! The known-similar class is handed to the consumer through a visitor
//! ([`CandidatePairs::for_each_known_similar`]) with an `O(blocks)` count
//! ([`CandidatePairs::num_known_similar`]), so an index may keep it as
//! blocks of pairs and never materialize the pairs they cover.
//!
//! * [`GridCandidates`] — uniform spatial grid for Euclidean points with
//!   cell side `r / 16`: the axis-aligned distance bounds between two
//!   cell rectangles classify whole cell pairs at once (max possible
//!   distance ≤ `r` ⇒ every cross pair known-similar; min possible
//!   distance > `r` ⇒ every cross pair dissimilar), so only pairs in
//!   the thin annulus of cell pairs straddling distance `r` are ever
//!   verified. Sub-`r` cells matter: real clusters are *denser* than
//!   `r`, and classifying their pairs similar for free is where most of
//!   the evaluation saving comes from. The known-similar pairs are kept
//!   as cell blocks over the cell-sorted member ids — every pair inside
//!   a cell, and each cell against a run of provably-similar cells — so
//!   a dense cluster costs a few blocks, not one entry per pair; only
//!   the straddling candidate pairs are listed one by one.
//! * [`InvertedIndexCandidates`] — inverted keyword index for (weighted)
//!   Jaccard: a score-accumulation join over postings sorted by token
//!   (no hash index). Walking the shared-token postings accumulates each
//!   touched pair's exact intersection weight, which determines the
//!   similarity (`num / (W_u + W_v - num)`) up to float summation order;
//!   margin bounds then classify every touched pair, untouched pairs
//!   share no keyword (similarity 0, dissimilar for free), and only
//!   knife-edge pairs are verified.
//! * [`AllPairs`] — brute-force fallback (Cosine, custom oracles, or any
//!   input outside an index's preconditions).

/// A sound over-approximation of the similar pairs among `0..n` local
/// indices: every pair **not** produced is guaranteed dissimilar under
/// the threshold the index was built for.
pub trait CandidatePairs {
    /// Number of candidate pairs (= metric evaluations a consumer pays).
    fn num_candidates(&self) -> usize;

    /// Visits every candidate pair `(i, j)` with `i < j`, each exactly
    /// once. Visit order is unspecified but the same on every call, so a
    /// consumer may record one verdict per visit and replay them.
    fn for_each(&self, visit: &mut dyn FnMut(u32, u32));

    /// Short name for diagnostics ("grid", "inverted", "all-pairs").
    fn strategy(&self) -> &'static str;

    /// Number of pairs the index *proved* similar, without visiting
    /// them.
    fn num_known_similar(&self) -> usize {
        0
    }

    /// Visits the pairs the index *proved* similar — the consumer
    /// records them as similar without any metric evaluation. Disjoint
    /// from the candidate set; `(i, j)` with `i < j`, each exactly once,
    /// in unspecified order.
    fn for_each_known_similar(&self, _visit: &mut dyn FnMut(u32, u32)) {}
}

/// Brute-force fallback: every pair is a candidate.
#[derive(Debug, Clone)]
pub struct AllPairs {
    n: usize,
}

impl AllPairs {
    /// All pairs over `n` vertices.
    pub fn new(n: usize) -> Self {
        AllPairs { n }
    }
}

impl CandidatePairs for AllPairs {
    fn num_candidates(&self) -> usize {
        self.n * self.n.saturating_sub(1) / 2
    }

    fn for_each(&self, visit: &mut dyn FnMut(u32, u32)) {
        for i in 0..self.n as u32 {
            for j in (i + 1)..self.n as u32 {
                visit(i, j);
            }
        }
    }

    fn strategy(&self) -> &'static str {
        "all-pairs"
    }
}

/// Materialized pair lists (what the inverted keyword index produces:
/// it touches each classified pair individually anyway).
#[derive(Debug, Clone)]
pub struct PairList {
    pairs: Vec<(u32, u32)>,
    known_similar: Vec<(u32, u32)>,
}

impl CandidatePairs for PairList {
    fn num_candidates(&self) -> usize {
        self.pairs.len()
    }

    fn for_each(&self, visit: &mut dyn FnMut(u32, u32)) {
        for &(i, j) in &self.pairs {
            visit(i, j);
        }
    }

    fn strategy(&self) -> &'static str {
        "inverted"
    }

    fn num_known_similar(&self) -> usize {
        self.known_similar.len()
    }

    fn for_each_known_similar(&self, visit: &mut dyn FnMut(u32, u32)) {
        for &(i, j) in &self.known_similar {
            visit(i, j);
        }
    }
}

/// The grid's classification of a member set: the known-similar pairs as
/// cell blocks over the cell-sorted member ids, and the straddling
/// candidate pairs as a list.
#[derive(Debug, Clone)]
pub struct GridPairs {
    /// Member ids sorted by cell, ascending within each cell.
    order: Vec<u32>,
    /// `order[cells[c]..cells[c + 1]]` holds occupied cell `c`; every
    /// pair inside one cell is known-similar.
    cells: Vec<u32>,
    /// Known-similar cross-cell blocks `(c, lo, hi)`: every member of
    /// cell `c` against every member in `order[lo..hi]` (a run of
    /// consecutive occupied cells after `c`).
    blocks: Vec<(u32, u32, u32)>,
    /// Candidate pairs, `i < j`.
    pairs: Vec<(u32, u32)>,
}

impl GridPairs {
    fn cell(&self, c: u32) -> &[u32] {
        &self.order[self.cells[c as usize] as usize..self.cells[c as usize + 1] as usize]
    }
}

impl CandidatePairs for GridPairs {
    fn num_candidates(&self) -> usize {
        self.pairs.len()
    }

    fn for_each(&self, visit: &mut dyn FnMut(u32, u32)) {
        for &(i, j) in &self.pairs {
            visit(i, j);
        }
    }

    fn strategy(&self) -> &'static str {
        "grid"
    }

    fn num_known_similar(&self) -> usize {
        let within: usize = self
            .cells
            .windows(2)
            .map(|w| {
                let len = (w[1] - w[0]) as usize;
                len * len.saturating_sub(1) / 2
            })
            .sum();
        let across: usize = self
            .blocks
            .iter()
            .map(|&(c, lo, hi)| self.cell(c).len() * (hi - lo) as usize)
            .sum();
        within + across
    }

    fn for_each_known_similar(&self, visit: &mut dyn FnMut(u32, u32)) {
        // Within-cell pairs: each cell's members are ascending.
        for c in 0..self.cells.len() as u32 - 1 {
            let members = self.cell(c);
            for (pos, &i) in members.iter().enumerate() {
                for &j in &members[pos + 1..] {
                    visit(i, j);
                }
            }
        }
        for &(c, lo, hi) in &self.blocks {
            for &i in self.cell(c) {
                for &j in &self.order[lo as usize..hi as usize] {
                    visit(i.min(j), i.max(j));
                }
            }
        }
    }
}

/// Coordinate-to-cell guard: beyond this many cells from the origin the
/// `x / side` quotient loses enough float precision that the cell-bound
/// arguments fray, so the builder falls back to brute force instead.
/// Real data sits many orders of magnitude below (a 5000 km world at
/// r = 2 km and `r/16` cells is ~40 000 cells).
const MAX_CELLS: f64 = (1u64 << 20) as f64;

/// Cells per threshold radius: cell side is `r / GRID_SUBDIV`. Finer
/// cells tighten both distance bounds (the verify annulus has width
/// ~2·diag = `2√2·r/GRID_SUBDIV`) at the cost of more occupied-cell
/// pairs to classify; 16 cuts ~8x of the metric evaluations on the
/// gowalla-like preset while the cell-pair classification stays well
/// under the saved evaluation cost.
const GRID_SUBDIV: f64 = 16.0;

/// Relative slack on the cell distance bounds: a pair is only classified
/// without verification when the bound clears the threshold by this
/// margin, so float error in the `x / side` quotients (bounded via
/// [`MAX_CELLS`]) and in the oracle's own metric evaluation can never
/// make a certain classification disagree with the oracle.
const GRID_MARGIN: f64 = 1e-9;

/// Uniform spatial grid for Euclidean 2-D points, cell side
/// `r / GRID_SUBDIV`.
pub struct GridCandidates;

impl GridCandidates {
    /// Builds the grid classification for `points` under max-distance
    /// `r`: known-similar pairs (cell rectangles provably within `r`),
    /// candidates (bounds straddle `r`), everything else provably
    /// dissimilar.
    ///
    /// Returns `None` when the grid argument is unsound for the input
    /// (`r == 0`, or any coordinate non-finite / past `MAX_CELLS` cells)
    /// — the caller must fall back to [`AllPairs`]. For `r < 0` (or NaN)
    /// no pair can satisfy `dist ≤ r`, so every pair is dissimilar and
    /// both certain sets are empty.
    pub fn try_new(points: &[(f64, f64)], r: f64) -> Option<GridPairs> {
        if r < 0.0 || r.is_nan() {
            return Some(GridPairs {
                order: Vec::new(),
                cells: vec![0],
                blocks: Vec::new(),
                pairs: Vec::new(),
            });
        }
        if r == 0.0 {
            return None;
        }
        let side = r / GRID_SUBDIV;
        let cell = |c: f64| -> Option<i64> {
            let q = c / side;
            if q.is_finite() && q.abs() < MAX_CELLS {
                Some(q.floor() as i64)
            } else {
                None
            }
        };
        // Sort-based cell grouping: no hash map on the hot path, and the
        // occupied-cell list comes out in deterministic key order with
        // each cell's members ascending.
        let mut tagged: Vec<((i64, i64), u32)> = Vec::with_capacity(points.len());
        for (i, &(x, y)) in points.iter().enumerate() {
            tagged.push(((cell(x)?, cell(y)?), i as u32));
        }
        tagged.sort_unstable();
        let mut occupied: Vec<((i64, i64), std::ops::Range<usize>)> = Vec::new();
        let mut start = 0usize;
        for i in 1..=tagged.len() {
            if i == tagged.len() || tagged[i].0 != tagged[start].0 {
                occupied.push((tagged[start].0, start..i));
                start = i;
            }
        }
        let order: Vec<u32> = tagged.into_iter().map(|(_, i)| i).collect();
        // Conservative classification thresholds (squared). If r² itself
        // overflows to infinity the bound comparisons degenerate
        // (`inf <= inf` would classify pairs past r as known-similar):
        // such thresholds are outside the grid's soundness precondition,
        // like out-of-range coordinates.
        let r_lo2 = (r * (1.0 - GRID_MARGIN)).powi(2);
        let r_hi2 = (r * (1.0 + GRID_MARGIN)).powi(2);
        if !r_hi2.is_finite() {
            return None;
        }
        // Within-cell pairs are known-similar: max separation is one
        // cell diagonal, far inside r at this subdivision.
        debug_assert!(2.0 * side * side <= r_lo2);
        // Beyond this Chebyshev cell distance the minimum possible
        // separation already exceeds r.
        let reach = GRID_SUBDIV as i64 + 1;
        // Rank-space row index over the occupied cells: they are sorted
        // by (cx, cy), so each distinct cx is one contiguous range of
        // indices. A cell's neighbors-within-reach are then found by a
        // binary search over rows and one over the cy span per row —
        // the window of occupied cells the classification actually
        // inspects — instead of scanning all `occupied²/2` pairs. On
        // giant sparse inputs (occupied ≈ n) the pair scan's cheap
        // integer rejects dominate preprocessing; this removes them
        // while producing pairs in the exact same order.
        let mut rows: Vec<(i64, std::ops::Range<usize>)> = Vec::new();
        let mut row_start = 0usize;
        for i in 1..=occupied.len() {
            if i == occupied.len() || occupied[i].0 .0 != occupied[row_start].0 .0 {
                rows.push((occupied[row_start].0 .0, row_start..i));
                row_start = i;
            }
        }
        let mut pairs = Vec::new();
        let mut blocks: Vec<(u32, u32, u32)> = Vec::new();
        for (a, ((ax, ay), arange)) in occupied.iter().enumerate() {
            // Distance bounds between two half-open cell rectangles:
            // axis separation lies in ((|d|-1)·side, (|d|+1)·side).
            // Rows ascending in cx, cells ascending in cy: later cells
            // are visited in ascending occupied index, matching the
            // order the full pair scan produced.
            let first_row = rows.partition_point(|&(cx, _)| cx < ax - reach);
            for (bx, range) in &rows[first_row..] {
                if *bx > ax + reach {
                    break;
                }
                let cells = &occupied[range.clone()];
                let lo = cells.partition_point(|((_, cy), _)| *cy < ay - reach);
                let hi = cells.partition_point(|((_, cy), _)| *cy <= ay + reach);
                for (off, ((bx, by), brange)) in cells[lo..hi].iter().enumerate() {
                    if range.start + lo + off <= a {
                        continue; // unordered pairs: handled from the other side
                    }
                    let (dx, dy) = (bx - ax, by - ay);
                    debug_assert!(dx.abs() <= reach && dy.abs() <= reach);
                    let gap = |d: i64| (d.abs() - 1).max(0) as f64 * side;
                    let span = |d: i64| (d.abs() + 1) as f64 * side;
                    let min2 = gap(dx).powi(2) + gap(dy).powi(2);
                    if min2 > r_hi2 {
                        continue; // provably dissimilar, zero evals
                    }
                    let max2 = span(dx).powi(2) + span(dy).powi(2);
                    if max2 <= r_lo2 {
                        // Cells come in ascending occupied index, so a
                        // run of known-similar cells is one run of
                        // `order`: extend the last block when it ends
                        // where this cell starts.
                        let (c, lo, hi) = (a as u32, brange.start as u32, brange.end as u32);
                        match blocks.last_mut() {
                            Some(last) if last.0 == c && last.2 == lo => last.2 = hi,
                            _ => blocks.push((c, lo, hi)),
                        }
                    } else {
                        for &i in &order[arange.clone()] {
                            for &j in &order[brange.clone()] {
                                pairs.push((i.min(j), i.max(j)));
                            }
                        }
                    }
                }
            }
        }
        let mut cells = Vec::with_capacity(occupied.len() + 1);
        cells.push(0);
        cells.extend(occupied.iter().map(|(_, range)| range.end as u32));
        Some(GridPairs {
            order,
            cells,
            blocks,
            pairs,
        })
    }
}

/// Relative slack on the accumulated-similarity bounds: a pair is only
/// classified without verification when its index-side similarity clears
/// the threshold by this margin. The accumulated sums contain exactly
/// the same terms as the oracle's merge, just in a different order, so
/// the disagreement is bounded by ~`len·ε ≈ 1e-14` relative — six
/// orders of magnitude inside the margin.
const SIM_MARGIN: f64 = 1e-9;

/// Inverted keyword index for (weighted) Jaccard: an exact
/// score-accumulation join in the style of prefix-filter similarity
/// joins.
///
/// The postings are sorted, not hashed: one `(token, vertex)` key per
/// keyword occurrence, sorted by token and then by vertex, so each
/// token's postings are one run in ascending vertex order, with the
/// occurrences' weights alongside in the same order. Vertices are then
/// scanned in order; each probes, through the runs of its own tokens in
/// ascending token order, the postings of its predecessors,
/// accumulating the pair's intersection weight `num = Σ min(w_u, w_v)`
/// token by token. Since `sim = num / (W_u + W_v - num)`, every
/// *touched* pair is classified from the accumulator alone
/// (known-similar / candidate / dissimilar, with `SIM_MARGIN` slack),
/// and every untouched pair shares no keyword — similarity 0,
/// dissimilar for free. Total work is one sort of the postings plus
/// `O(shared-token incidences)`, which never exceeds (and on sparsely
/// overlapping sets is far below) the `Σ (len_u + len_v)` the brute
/// merge pays over all pairs.
///
/// Memory is `O(postings + n)`, no `n × n` table: 20 bytes per keyword
/// occurrence (its 8-byte key, its 8-byte weight and the 4-byte start
/// of its token's run) and a few words per vertex, besides the
/// classified pairs themselves. The keys and weights take the 16 bytes
/// a posting that a hash index's per-token `Vec`s hold at best (each of
/// those reserves at least four), with no table slot per token.
pub struct InvertedIndexCandidates;

/// A member's state in [`InvertedIndexCandidates::try_new`].
#[derive(Clone, Copy)]
struct Member {
    /// Total keyword weight `W`.
    total: f64,
    /// Intersection weight accumulated against the vertex being probed,
    /// valid while `stamp` names that vertex.
    num: f64,
    stamp: u32,
    /// Index of the member's first posting in member order.
    first: u32,
    /// Postings of the member met so far by the run pass.
    seen: u32,
}

impl InvertedIndexCandidates {
    /// Builds the classification for sorted `(keyword, weight)` `lists`
    /// under min-similarity `r`. `unweighted` treats every keyword as
    /// weight 1 (plain Jaccard).
    ///
    /// Returns `None` when the accumulation argument does not hold:
    /// `r ≤ 0` (or NaN) makes similarity 0 pass the threshold,
    /// negative / non-finite weights break the weight algebra, and an
    /// unsorted or duplicated keyword list means the oracle's own merge
    /// is ill-defined — the caller must fall back to [`AllPairs`] for
    /// all of these.
    pub fn try_new(lists: &[&[(u32, f64)]], unweighted: bool, r: f64) -> Option<PairList> {
        if r.is_nan() || r <= 0.0 {
            return None;
        }
        let weight = |w: f64| if unweighted { 1.0 } else { w };
        // One pass per list checks it, sums its total and writes its
        // posting keys in member order. Zero-weight members post
        // nothing: no probe touches them.
        let mut members: Vec<Member> = Vec::with_capacity(lists.len());
        let mut keys: Vec<u64> = Vec::with_capacity(lists.iter().map(|l| l.len()).sum());
        for (v, list) in lists.iter().enumerate() {
            let first = keys.len();
            let mut total = 0.0;
            for (at, &(t, w)) in list.iter().enumerate() {
                // The merge semantics of the oracle (and of the
                // accumulator) require strictly sorted, duplicate-free
                // token lists.
                if at > 0 && list[at - 1].0 >= t || !unweighted && (!w.is_finite() || w < 0.0) {
                    return None;
                }
                total += weight(w);
                keys.push(u64::from(t) << 32 | v as u64);
            }
            if total <= 0.0 {
                keys.truncate(first);
            }
            members.push(Member {
                total,
                num: 0.0,
                stamp: u32::MAX,
                first: first as u32,
                seen: 0,
            });
        }
        keys.sort_unstable();
        // One pass over the sorted keys gathers the weights in key order
        // and files each posting's run start under its place in member
        // order: a member's postings appear in key order in its own
        // (ascending) token order.
        let mut weights: Vec<f64> = Vec::with_capacity(keys.len());
        let mut run_start: Vec<u32> = vec![0; keys.len()];
        let mut run = 0usize;
        for (at, &key) in keys.iter().enumerate() {
            if key >> 32 != keys[run] >> 32 {
                run = at;
            }
            let v = key as u32 as usize;
            let m = &mut members[v];
            weights.push(weight(lists[v][m.seen as usize].1));
            run_start[(m.first + m.seen) as usize] = run as u32;
            m.seen += 1;
        }
        let sim_lo = r * (1.0 - SIM_MARGIN);
        let sim_hi = r * (1.0 + SIM_MARGIN);
        let mut pairs = Vec::new();
        let mut known_similar = Vec::new();
        // Classifies a pair from an index-side similarity value.
        let mut classify = |pair: (u32, u32), sim: f64| {
            if sim >= sim_hi {
                known_similar.push(pair);
            } else if sim > sim_lo {
                pairs.push(pair); // uncertainty band: verify
            } // else provably dissimilar, zero evals
        };
        let mut touched: Vec<u32> = Vec::with_capacity(lists.len());
        let mut zero_weight: Vec<u32> = Vec::new();
        for (v, list) in lists.iter().enumerate() {
            let Member {
                total: wv, first, ..
            } = members[v];
            let v = v as u32;
            if wv <= 0.0 {
                // Zero total weight (empty multiset): similarity is 1.0
                // to other zero-weight vertices (the paper's convention)
                // and 0.0 to everyone else.
                for &u in &zero_weight {
                    classify((u, v), 1.0);
                }
                zero_weight.push(v);
                continue;
            }
            touched.clear();
            let runs = &run_start[first as usize..first as usize + list.len()];
            for (&(t, w), &run) in list.iter().zip(runs) {
                let wv_t = weight(w);
                // The run lists the token's postings by vertex: the
                // predecessors of `v` are the keys below `v`'s own.
                let own = u64::from(t) << 32 | u64::from(v);
                let predecessors = keys[run as usize..].iter().take_while(|&&key| key < own);
                for (&key, &wu_t) in predecessors.zip(&weights[run as usize..]) {
                    let m = &mut members[key as u32 as usize];
                    if m.stamp != v {
                        m.stamp = v;
                        m.num = 0.0;
                        touched.push(key as u32);
                    }
                    m.num += wv_t.min(wu_t);
                }
            }
            for &u in &touched {
                let Member { total: wu, num, .. } = members[u as usize];
                // den = Σ max(w_u, w_v) = W_u + W_v - Σ min(w_u, w_v),
                // strictly positive because wv > 0.
                let sim = num / (wu + wv - num);
                classify((u, v), sim);
            }
        }
        Some(PairList {
            pairs,
            known_similar,
        })
    }
}

/// The per-call hash index [`InvertedIndexCandidates::try_new`] used
/// before its postings were sorted: a fresh `HashMap` from token to the
/// postings of earlier vertices. The sorted postings must produce the
/// same pairs in the same order.
#[cfg(test)]
mod hash_index_reference {
    use super::{PairList, SIM_MARGIN};
    use std::collections::HashMap;

    pub fn try_new(lists: &[&[(u32, f64)]], unweighted: bool, r: f64) -> Option<PairList> {
        if r.is_nan() || r <= 0.0 {
            return None;
        }
        if !unweighted
            && lists
                .iter()
                .any(|l| l.iter().any(|&(_, w)| !w.is_finite() || w < 0.0))
        {
            return None;
        }
        if lists.iter().any(|l| l.windows(2).any(|w| w[0].0 >= w[1].0)) {
            return None;
        }
        let n = lists.len();
        let weight = |w: f64| if unweighted { 1.0 } else { w };
        let totals: Vec<f64> = lists
            .iter()
            .map(|l| l.iter().map(|&(_, w)| weight(w)).sum())
            .collect();
        let sim_lo = r * (1.0 - SIM_MARGIN);
        let sim_hi = r * (1.0 + SIM_MARGIN);
        let mut pairs = Vec::new();
        let mut known_similar = Vec::new();
        let mut classify = |pair: (u32, u32), sim: f64| {
            if sim >= sim_hi {
                known_similar.push(pair);
            } else if sim > sim_lo {
                pairs.push(pair);
            }
        };
        let mut index: HashMap<u32, Vec<(u32, f64)>> = HashMap::new();
        let mut acc: Vec<f64> = vec![0.0; n];
        let mut stamp: Vec<u32> = vec![u32::MAX; n];
        let mut touched: Vec<u32> = Vec::new();
        let mut zero_weight: Vec<u32> = Vec::new();
        for v in 0..n {
            let wv = totals[v];
            if wv <= 0.0 {
                for &u in &zero_weight {
                    classify((u, v as u32), 1.0);
                }
                zero_weight.push(v as u32);
                continue;
            }
            touched.clear();
            for &(t, w) in lists[v] {
                let wv_t = weight(w);
                if let Some(postings) = index.get(&t) {
                    for &(u, wu_t) in postings {
                        if stamp[u as usize] != v as u32 {
                            stamp[u as usize] = v as u32;
                            acc[u as usize] = 0.0;
                            touched.push(u);
                        }
                        acc[u as usize] += wv_t.min(wu_t);
                    }
                }
            }
            for &u in &touched {
                let wu = totals[u as usize];
                if wu <= 0.0 {
                    continue;
                }
                let num = acc[u as usize];
                let sim = num / (wu + wv - num);
                classify((u, v as u32), sim);
            }
            for &(t, w) in lists[v] {
                index.entry(t).or_default().push((v as u32, weight(w)));
            }
        }
        Some(PairList {
            pairs,
            known_similar,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn collect(c: &dyn CandidatePairs) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        c.for_each(&mut |i, j| out.push((i, j)));
        out.sort_unstable();
        out
    }

    /// The index-side similarity of every pair that shares a keyword,
    /// summed as the index sums it (ascending token order).
    fn shared_pair_similarities(lists: &[Vec<(u32, f64)>], unweighted: bool) -> Vec<f64> {
        let weight = |w: f64| if unweighted { 1.0 } else { w };
        let total = |l: &[(u32, f64)]| l.iter().map(|&(_, w)| weight(w)).sum::<f64>();
        let mut out = Vec::new();
        for (v, lv) in lists.iter().enumerate() {
            for lu in &lists[..v] {
                let mut num = 0.0;
                let mut shared = false;
                for &(t, w) in lv {
                    if let Ok(at) = lu.binary_search_by_key(&t, |e| e.0) {
                        num += weight(w).min(weight(lu[at].1));
                        shared = true;
                    }
                }
                let (wu, wv) = (total(lu), total(lv));
                if shared && wu > 0.0 && wv > 0.0 {
                    out.push(num / (wu + wv - num));
                }
            }
        }
        out
    }

    /// Keyword lists, and whether they are read unweighted, over `n` ∈
    /// {0, 1, 2, 7, 63, 64, 65} vertices: a vocabulary of 3, 12 or 200
    /// tokens (the small ones share every token heavily), up to 8
    /// keywords a vertex with integer, fractional or zero weights (zero
    /// total weight included), and about one empty list in eight.
    fn arb_keyword_lists() -> impl Strategy<Value = (Vec<Vec<(u32, f64)>>, bool)> {
        let n = (0usize..7).prop_map(|i| [0, 1, 2, 7, 63, 64, 65][i]);
        let shape = (
            n,
            prop_oneof![Just(3u32), Just(12), Just(200)],
            1usize..9,
            0u64..1 << 63,
        );
        (shape, false..true).prop_map(|((n, vocab, len, seed), unweighted)| {
            let mut s = seed | 1;
            let mut next = move |below: u64| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s % below
            };
            let lists = (0..n)
                .map(|_| {
                    if next(8) == 0 {
                        return Vec::new();
                    }
                    let mut l: Vec<(u32, f64)> = (0..1 + next(len as u64))
                        .map(|_| {
                            let w = match next(4) {
                                0 => 0.0,
                                1 => (1 + next(5)) as f64,
                                _ => (1 + next(1000)) as f64 / 7.0,
                            };
                            (next(u64::from(vocab)) as u32, w)
                        })
                        .collect();
                    l.sort_unstable_by_key(|e| e.0);
                    l.dedup_by_key(|e| e.0);
                    l
                })
                .collect();
            (lists, unweighted)
        })
    }

    proptest! {
        /// The sorted postings classify exactly as the per-call hash
        /// index did: the same candidates and known-similar pairs in the
        /// same order, at thresholds on, one ulp either side of, and at
        /// the margin edges of the pairs' own similarities (and `None`
        /// for the same inputs).
        #[test]
        fn sorted_postings_equal_the_hash_index(
            input in arb_keyword_lists(),
            pick in 0usize..1 << 16,
            spoil in 0u8..12,
        ) {
            let (mut lists, unweighted) = input;
            // Occasionally an input outside the preconditions.
            match (spoil, lists.iter().position(|l| l.len() >= 2)) {
                (0, Some(v)) => lists[v].swap(0, 1),
                (1, Some(v)) => lists[v][1].1 = -1.0,
                (2, Some(v)) => lists[v][0].1 = f64::NAN,
                _ => {}
            }
            let refs: Vec<&[(u32, f64)]> = lists.iter().map(Vec::as_slice).collect();
            let sims = shared_pair_similarities(&lists, unweighted);
            let mut rs = vec![0.5, 1.0, 0.0, -1.0, f64::NAN];
            if !sims.is_empty() {
                let s = sims[pick % sims.len()];
                for r in [s, s / (1.0 + SIM_MARGIN), s / (1.0 - SIM_MARGIN)] {
                    rs.extend([r, r.next_up(), r.next_down()]);
                }
            }
            for r in rs {
                let got = InvertedIndexCandidates::try_new(&refs, unweighted, r);
                let want = hash_index_reference::try_new(&refs, unweighted, r);
                prop_assert_eq!(got.is_some(), want.is_some(), "r = {}", r);
                if let (Some(got), Some(want)) = (got, want) {
                    prop_assert_eq!(&got.pairs, &want.pairs, "r = {}", r);
                    prop_assert_eq!(&got.known_similar, &want.known_similar, "r = {}", r);
                }
            }
        }
    }

    #[test]
    fn all_pairs_enumerates_everything() {
        let c = AllPairs::new(4);
        assert_eq!(c.num_candidates(), 6);
        assert_eq!(
            collect(&c),
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        );
        assert_eq!(AllPairs::new(0).num_candidates(), 0);
        assert_eq!(c.strategy(), "all-pairs");
    }

    /// The known-similar pairs, sorted; checks the visitor against the
    /// `O(blocks)` count and the `i < j` contract.
    fn known(c: &dyn CandidatePairs) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        c.for_each_known_similar(&mut |i, j| {
            assert!(i < j, "known pair ({i}, {j}) out of order");
            out.push((i, j));
        });
        assert_eq!(out.len(), c.num_known_similar());
        out.sort_unstable();
        assert!(out.windows(2).all(|w| w[0] < w[1]), "known pair repeated");
        out
    }

    /// Candidates ∪ known-similar, sorted (what a consumer treats as
    /// possibly-or-certainly similar).
    fn not_pruned(c: &dyn CandidatePairs) -> Vec<(u32, u32)> {
        let mut out = collect(c);
        out.extend(known(c));
        out.sort_unstable();
        out
    }

    #[test]
    fn grid_classifies_three_ways() {
        // Two tight clusters 100 apart, r = 2: cross-cluster pairs are
        // pruned outright, intra-cluster pairs at distance ~1.1 « r are
        // proved similar without any metric evaluation.
        let pts = vec![(0.0, 0.0), (1.0, 0.5), (100.0, 0.0), (101.0, 0.5)];
        let g = GridCandidates::try_new(&pts, 2.0).expect("grid applies");
        let known = known(&g);
        assert!(known.contains(&(0, 1)));
        assert!(known.contains(&(2, 3)));
        let survivors = not_pruned(&g);
        assert!(!survivors.contains(&(0, 2)));
        assert!(!survivors.contains(&(1, 3)));
        assert_eq!(g.strategy(), "grid");
    }

    #[test]
    fn grid_boundary_pairs_are_verified_not_assumed() {
        // Pairs at distance exactly r sit in the uncertainty annulus:
        // they must be candidates (verified), never silently classified.
        let pts = vec![(0.9, 0.0), (1.9, 0.0), (0.0, 0.9), (0.0, 1.9)];
        let g = GridCandidates::try_new(&pts, 1.0).expect("grid applies");
        let got = collect(&g);
        assert!(got.contains(&(0, 1)));
        assert!(got.contains(&(2, 3)));
        assert!(!known(&g).contains(&(0, 1)));
    }

    #[test]
    fn grid_rank_space_window_is_sound_on_scatter() {
        // Deterministic scatter across many grid rows: every truly
        // similar pair must survive (candidate or known-similar), and
        // every known-similar pair must truly be similar — the rank-space
        // neighbor window may skip only provably-dissimilar cell pairs.
        let mut pts = Vec::new();
        let mut s = 0x12345678u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 16) % 1000) as f64 / 10.0
        };
        for _ in 0..200 {
            let x = next();
            let y = next();
            pts.push((x, y));
        }
        let r = 7.0;
        let g = GridCandidates::try_new(&pts, r).expect("grid applies");
        let survivors = not_pruned(&g);
        let known: std::collections::HashSet<(u32, u32)> = known(&g).into_iter().collect();
        let candidates = collect(&g);
        assert!(
            candidates.iter().all(|p| !known.contains(p)),
            "known-similar and candidate sets overlap"
        );
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                let d2 = (pts[i].0 - pts[j].0).powi(2) + (pts[i].1 - pts[j].1).powi(2);
                let pair = (i as u32, j as u32);
                if d2 <= r * r * (1.0 - 1e-6) {
                    assert!(
                        survivors.binary_search(&pair).is_ok(),
                        "similar pair {pair:?} was pruned"
                    );
                }
                if known.contains(&pair) {
                    assert!(d2 <= r * r * (1.0 + 1e-6), "{pair:?} known but dissimilar");
                }
            }
        }
    }

    #[test]
    fn grid_rejects_unsound_inputs() {
        assert!(GridCandidates::try_new(&[(0.0, 0.0)], 0.0).is_none());
        assert!(GridCandidates::try_new(&[(f64::NAN, 0.0)], 1.0).is_none());
        assert!(GridCandidates::try_new(&[(f64::INFINITY, 0.0)], 1.0).is_none());
        // Quotient past the cell guard: fall back.
        assert!(GridCandidates::try_new(&[(1e18, 0.0)], 1e-6).is_none());
        // r² overflows to infinity: the bound comparisons would
        // degenerate (a pair at distance 1.0625·r was classified
        // known-similar) — must fall back.
        let r = 1e160;
        assert!(GridCandidates::try_new(&[(0.0, 0.0), (17.0 * r / 16.0, 0.0)], r).is_none());
    }

    #[test]
    fn grid_negative_r_prunes_everything() {
        let g = GridCandidates::try_new(&[(0.0, 0.0), (0.0, 0.0)], -1.0).expect("empty set");
        assert_eq!(g.num_candidates(), 0);
        assert!(known(&g).is_empty());
    }

    #[test]
    fn grid_keeps_a_dense_cluster_as_a_few_blocks() {
        // 400 points in a 10 × 10 square at r = 100: every pair is
        // provably similar, and the grid holds them as at most four
        // cells plus a handful of cross-cell blocks, not 79 800 pairs.
        let pts: Vec<(f64, f64)> = (0..400)
            .map(|i| ((i % 20) as f64 * 0.5, (i / 20) as f64 * 0.5))
            .collect();
        let g = GridCandidates::try_new(&pts, 100.0).expect("grid applies");
        assert_eq!(g.num_candidates(), 0);
        assert_eq!(known(&g).len(), 400 * 399 / 2);
        assert!(g.cells.len() <= 5 && g.blocks.len() <= 4, "{:?}", g.blocks);
    }

    #[test]
    fn inverted_classifies_three_ways() {
        let a: &[(u32, f64)] = &[(1, 1.0), (2, 1.0)];
        let b: &[(u32, f64)] = &[(1, 1.0), (3, 1.0)];
        let c: &[(u32, f64)] = &[(7, 1.0), (8, 1.0)];
        let ix = InvertedIndexCandidates::try_new(&[a, b, c], false, 0.2).expect("index applies");
        // WJ(a, b) = 1/3 ≥ 0.2: the accumulator proves it similar with
        // zero metric evaluations.
        assert!(known(&ix).contains(&(0, 1)));
        // Disjoint keyword sets never touch the accumulator: dissimilar
        // for free.
        let survivors = not_pruned(&ix);
        assert!(!survivors.contains(&(0, 2)));
        assert!(!survivors.contains(&(1, 2)));
    }

    #[test]
    fn inverted_empty_lists_pair_with_each_other() {
        let e: &[(u32, f64)] = &[];
        let a: &[(u32, f64)] = &[(1, 1.0)];
        let ix = InvertedIndexCandidates::try_new(&[e, a, e], false, 0.5).expect("index applies");
        // Empty-vs-empty similarity is 1.0 by convention: known similar.
        // Empty-vs-nonempty is 0.0: pruned.
        assert!(known(&ix).contains(&(0, 2)));
        let survivors = not_pruned(&ix);
        assert!(!survivors.contains(&(0, 1)));
        assert!(!survivors.contains(&(1, 2)));
    }

    #[test]
    fn inverted_threshold_above_one_prunes_everything() {
        let a: &[(u32, f64)] = &[(1, 1.0)];
        let ix = InvertedIndexCandidates::try_new(&[a, a], false, 1.5).expect("index applies");
        assert_eq!(ix.num_candidates(), 0);
        assert!(known(&ix).is_empty());
    }

    #[test]
    fn inverted_exact_threshold_hits_are_verified_not_assumed() {
        // Identical lists at r = 1.0 sit exactly on the threshold: the
        // uncertainty band must send them to verification.
        let a: &[(u32, f64)] = &[(1, 2.0), (5, 1.0)];
        let ix = InvertedIndexCandidates::try_new(&[a, a], false, 1.0).expect("index applies");
        assert_eq!(collect(&ix), vec![(0, 1)]);
        assert!(known(&ix).is_empty());
    }

    #[test]
    fn inverted_rejects_unsound_inputs() {
        let a: &[(u32, f64)] = &[(1, 1.0)];
        let neg: &[(u32, f64)] = &[(1, -1.0)];
        let unsorted: &[(u32, f64)] = &[(5, 1.0), (1, 1.0)];
        let dup: &[(u32, f64)] = &[(1, 1.0), (1, 2.0)];
        assert!(InvertedIndexCandidates::try_new(&[a], false, 0.0).is_none());
        assert!(InvertedIndexCandidates::try_new(&[a], false, -0.5).is_none());
        assert!(InvertedIndexCandidates::try_new(&[a], false, f64::NAN).is_none());
        assert!(InvertedIndexCandidates::try_new(&[a, neg], false, 0.5).is_none());
        assert!(InvertedIndexCandidates::try_new(&[a, unsorted], false, 0.5).is_none());
        assert!(InvertedIndexCandidates::try_new(&[a, dup], true, 0.5).is_none());
        // Unweighted Jaccard ignores weights, so negative weights are fine.
        assert!(InvertedIndexCandidates::try_new(&[a, neg], true, 0.5).is_some());
    }

    #[test]
    fn inverted_prunes_size_skew() {
        // |A| = 1, |B| = 10 sharing a keyword: Jaccard = 1/10 < 0.5, so
        // the accumulator proves the pair dissimilar with zero
        // evaluations.
        let small: &[(u32, f64)] = &[(1, 1.0)];
        let big: Vec<(u32, f64)> = (1..=10).map(|t| (t, 1.0)).collect();
        let ix = InvertedIndexCandidates::try_new(&[small, &big], true, 0.5).expect("index");
        assert_eq!(ix.num_candidates(), 0);
        assert!(known(&ix).is_empty());
    }
}
