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
        Csr::counting_sort(n, || pairs.iter().copied())
    }

    /// [`Csr::from_pairs`] over every undirected pair `{u, v}` filed
    /// under both endpoints — the CSR of `pairs` plus every pair
    /// reversed — without materializing that doubled list.
    pub fn from_symmetric_pairs(n: usize, pairs: &[(VertexId, VertexId)]) -> Self {
        Csr::counting_sort(n, || pairs.iter().flat_map(|&(u, v)| [(u, v), (v, u)]))
    }

    /// Counting sort of the directed pairs `pairs()` yields (it runs
    /// twice: once to count, once to fill), then per-row sort and dedup.
    fn counting_sort<I: Iterator<Item = (VertexId, VertexId)>>(
        n: usize,
        pairs: impl Fn() -> I,
    ) -> Self {
        let mut degree = vec![0u32; n];
        for (u, _) in pairs() {
            degree[u as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0u32);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; acc as usize];
        for (u, v) in pairs() {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
        }
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
