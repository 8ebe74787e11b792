//! Compressed sparse row (CSR) storage for per-vertex target lists.
//!
//! One `offsets` array plus one flat `targets` arena replace a
//! `Vec<Vec<VertexId>>`: a vertex's list is a contiguous slice, so walking
//! it is a single pointer dereference into memory that is shared with its
//! neighbors' lists. The search hot loops (`kr-core`) spend nearly all
//! their time in these walks, and the serving layer `Arc`-shares whole
//! arenas across sessions — two allocations per component instead of
//! `n + 1`.
//!
//! Rows are kept strictly sorted, so membership tests are binary searches
//! over contiguous memory.

use crate::graph::VertexId;

/// Per-row sorted target lists in compressed sparse row form.
///
/// Invariants (load-bearing — [`Csr::row`] elides its slice-range check
/// against them; both fields stay private and every constructor
/// establishes them. If the serde shim is ever swapped for the real
/// crate, `Deserialize` must validate before trusting external data):
/// * `offsets.len() == num_rows() + 1`, `offsets[0] == 0`, monotone,
///   `offsets[num_rows()] == targets.len()`;
/// * `targets[offsets[u]..offsets[u+1]]` is strictly sorted (no
///   duplicates) for every row `u`.
// No `Default`/serde derives: a derived constructor could produce an
// invariant-violating value (empty `offsets`, or untrusted wire data),
// which `row()` must never see. `Csr::empty(0)` is the valid empty value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[u]..offsets[u + 1]` indexes `targets` for row `u`.
    offsets: Vec<u32>,
    /// Flat, per-row-sorted target arena.
    targets: Vec<VertexId>,
}

impl Csr {
    /// An empty CSR with `n` empty rows.
    pub fn empty(n: usize) -> Self {
        Csr {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Builds from nested lists, sorting and deduplicating each row.
    pub fn from_lists(lists: &[Vec<VertexId>]) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut targets = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        offsets.push(0u32);
        for list in lists {
            let start = targets.len();
            targets.extend_from_slice(list);
            targets[start..].sort_unstable();
            let tail = dedup_sorted_tail(&mut targets, start);
            targets.truncate(tail);
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }

    /// Builds from unordered directed pairs `(row, target)` over rows
    /// `0..n` via counting sort — no per-row allocations. Duplicate pairs
    /// are dropped.
    pub fn from_pairs(n: usize, pairs: &[(VertexId, VertexId)]) -> Self {
        Csr::counting_sort(n, |emit| {
            for &(u, v) in pairs {
                emit(u, v);
            }
        })
    }

    /// [`Csr::from_pairs`] over every undirected pair `{u, v}` filed
    /// under both endpoints — the CSR of `pairs` plus every pair
    /// reversed — without materializing that doubled list.
    pub fn from_symmetric_pairs(n: usize, pairs: &[(VertexId, VertexId)]) -> Self {
        Csr::from_symmetric_visit(n, |visit| {
            for &(u, v) in pairs {
                visit(u, v);
            }
        })
    }

    /// [`Csr::from_symmetric_pairs`] fed by a visitor instead of a list:
    /// `for_each_pair` must hand every undirected pair to its argument,
    /// and is called twice (once to count the rows, once to fill them),
    /// so the pairs are never materialized. It must visit the same pairs
    /// both times.
    ///
    /// # Panics
    /// Panics when a pair names a row `>= n`, or when the second call
    /// files a different number of targets under some row than the
    /// first.
    pub fn from_symmetric_visit(
        n: usize,
        for_each_pair: impl Fn(&mut dyn FnMut(VertexId, VertexId)),
    ) -> Self {
        Csr::counting_sort(n, |emit| {
            for_each_pair(&mut |u, v| {
                emit(u, v);
                emit(v, u);
            })
        })
    }

    /// Builds row by row from rows whose sizes sum to at most `total`
    /// (the arena is allocated once at that size, and trimmed to fit
    /// when the rows fill less): `row(u)` yields row `u`'s targets for
    /// `u` in `0..n`, in ascending order. No counting pass and no sort.
    ///
    /// # Panics
    /// Panics when a row is not strictly ascending.
    pub fn from_ascending_rows<I: IntoIterator<Item = VertexId>>(
        n: usize,
        total: usize,
        mut row: impl FnMut(VertexId) -> I,
    ) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(total);
        offsets.push(0u32);
        for u in 0..n {
            let start = targets.len();
            targets.extend(row(u as VertexId));
            assert!(
                targets[start..].windows(2).all(|w| w[0] < w[1]),
                "row {u} is not strictly ascending"
            );
            offsets.push(targets.len() as u32);
        }
        targets.shrink_to_fit();
        Csr { offsets, targets }
    }

    /// Counting sort of the directed pairs `for_each` emits (it runs
    /// twice: once to count, once to fill), then per-row sort and dedup.
    fn counting_sort(n: usize, for_each: impl Fn(&mut dyn FnMut(VertexId, VertexId))) -> Self {
        let mut degree = vec![0u32; n];
        for_each(&mut |u, _| degree[u as usize] += 1);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0u32);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        drop(degree);
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; acc as usize];
        for_each(&mut |u, v| {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
        });
        // A second visit that emitted fewer pairs than the first would
        // leave stale zeros behind the cursors.
        assert!(
            cursor.iter().zip(&offsets[1..]).all(|(c, end)| c == end),
            "the pair visitor emitted different pairs on its two passes"
        );
        drop(cursor);
        let mut csr = Csr { offsets, targets };
        csr.sort_dedup_rows();
        csr
    }

    /// Sorts every row and drops duplicate targets (restores the row
    /// invariant after a raw fill).
    fn sort_dedup_rows(&mut self) {
        let n = self.num_rows();
        let mut write = 0usize;
        let mut new_offsets = Vec::with_capacity(n + 1);
        new_offsets.push(0u32);
        for u in 0..n {
            let (start, end) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            self.targets[start..end].sort_unstable();
            let mut prev: Option<VertexId> = None;
            for i in start..end {
                let t = self.targets[i];
                if prev != Some(t) {
                    self.targets[write] = t;
                    write += 1;
                    prev = Some(t);
                }
            }
            new_offsets.push(write as u32);
        }
        self.targets.truncate(write);
        self.offsets = new_offsets;
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True iff there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Sorted target slice of row `u`.
    ///
    /// # Panics
    /// Panics when `u >= num_rows()`.
    #[inline]
    pub fn row(&self, u: VertexId) -> &[VertexId] {
        let u = u as usize;
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        // SAFETY: the construction invariant (offsets monotone, final
        // offset == targets.len(), both fields private) guarantees
        // `lo <= hi <= targets.len()`. Skipping the slice-range re-check
        // matters: `row` sits in the innermost search loops, and the
        // extra check + panic path blocks loop optimizations there
        // (measured ~1.6x on the dissimilarity-heavy keyword presets).
        unsafe { self.targets.get_unchecked(lo..hi) }
    }

    /// Length of row `u`.
    #[inline]
    pub fn row_len(&self, u: VertexId) -> usize {
        let u = u as usize;
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Membership test in `O(log row_len(u))`.
    #[inline]
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.row(u).binary_search(&v).is_ok()
    }

    /// Total number of targets across all rows.
    #[inline]
    pub fn total_targets(&self) -> usize {
        self.targets.len()
    }

    /// Longest row (0 when there are no rows).
    pub fn max_row_len(&self) -> usize {
        (0..self.num_rows() as VertexId)
            .map(|u| self.row_len(u))
            .max()
            .unwrap_or(0)
    }

    /// The backing arrays: row offsets (`num_rows() + 1` entries) and
    /// the flat, per-row-sorted target arena.
    pub fn into_parts(self) -> (Vec<u32>, Vec<VertexId>) {
        (self.offsets, self.targets)
    }

    /// Heap footprint of the two backing arrays in bytes — the arena's
    /// whole variable-size cost (there are no per-row allocations).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.targets.capacity() * std::mem::size_of::<VertexId>()
    }
}

/// Removes consecutive duplicates in `targets[start..]` (which must be
/// sorted) in place; returns the new logical length of `targets`.
fn dedup_sorted_tail(targets: &mut [VertexId], start: usize) -> usize {
    let mut write = start;
    for read in start..targets.len() {
        if write == start || targets[write - 1] != targets[read] {
            targets[write] = targets[read];
            write += 1;
        }
    }
    write
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let c = Csr::empty(3);
        assert_eq!(c.num_rows(), 3);
        assert_eq!(c.row(1), &[] as &[VertexId]);
        assert_eq!(c.total_targets(), 0);
        assert_eq!(c.max_row_len(), 0);
        assert!(!c.contains(0, 1));
        let z = Csr::empty(0);
        assert!(z.is_empty());
    }

    #[test]
    fn from_lists_sorts_and_dedups() {
        let c = Csr::from_lists(&[vec![2, 1, 2], vec![], vec![0, 0, 1]]);
        assert_eq!(c.row(0), &[1, 2]);
        assert_eq!(c.row(1), &[] as &[VertexId]);
        assert_eq!(c.row(2), &[0, 1]);
        assert_eq!(c.total_targets(), 4);
        assert_eq!(c.max_row_len(), 2);
        assert!(c.contains(0, 2));
        assert!(!c.contains(1, 0));
    }

    #[test]
    fn from_pairs_counting_sort() {
        let c = Csr::from_pairs(4, &[(2, 0), (0, 2), (0, 1), (2, 0), (3, 1)]);
        assert_eq!(c.row(0), &[1, 2]);
        assert_eq!(c.row(1), &[] as &[VertexId]);
        assert_eq!(c.row(2), &[0]);
        assert_eq!(c.row(3), &[1]);
        assert_eq!(c.total_targets(), 4);
    }

    #[test]
    fn from_symmetric_visit_files_both_directions() {
        let c = Csr::from_symmetric_visit(3, |visit| {
            visit(0, 2);
            visit(1, 2);
        });
        assert_eq!(c, Csr::from_pairs(3, &[(0, 2), (2, 0), (1, 2), (2, 1)]));
    }

    #[test]
    #[should_panic(expected = "different pairs")]
    fn from_symmetric_visit_rejects_a_visitor_that_changes() {
        let calls = std::cell::Cell::new(0);
        Csr::from_symmetric_visit(3, |visit| {
            calls.set(calls.get() + 1);
            visit(0, 1);
            if calls.get() == 1 {
                visit(1, 2);
            }
        });
    }

    #[test]
    fn from_ascending_rows_allocates_the_arena_once() {
        let rows = [vec![1, 2], vec![], vec![0, 1]];
        let c = Csr::from_ascending_rows(3, 4, |u| rows[u as usize].clone());
        assert_eq!(c, Csr::from_lists(&rows));
        assert_eq!(c.heap_bytes(), 4 * 4 + 4 * 4);
    }

    #[test]
    #[should_panic(expected = "row 1 is not strictly ascending")]
    fn from_ascending_rows_rejects_an_unsorted_row() {
        let rows = [vec![1], vec![2, 0, 2], vec![]];
        Csr::from_ascending_rows(3, 4, |u| rows[u as usize].clone());
    }

    #[test]
    fn matches_nested_reference() {
        let lists = vec![vec![3, 1], vec![0, 2, 3], vec![1], vec![0, 1]];
        let c = Csr::from_lists(&lists);
        for (u, list) in lists.iter().enumerate() {
            let mut want = list.clone();
            want.sort_unstable();
            assert_eq!(c.row(u as VertexId), want.as_slice());
            assert_eq!(c.row_len(u as VertexId), want.len());
        }
    }

    #[test]
    fn heap_bytes_positive() {
        let c = Csr::from_lists(&[vec![1], vec![0]]);
        assert!(c.heap_bytes() >= 3 * 4 + 2 * 4);
    }
}
