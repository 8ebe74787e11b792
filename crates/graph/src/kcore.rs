//! k-core machinery.
//!
//! Implements the linear-time core decomposition of Batagelj & Zaversnik
//! (*"An O(m) algorithm for cores decomposition of networks"*), plus the
//! k-core extraction primitives the (k,r)-core search uses everywhere:
//! Algorithm 1 preprocessing, Theorem 2 structure pruning, the k-core size
//! upper bound of Section 6.2, and the structure side of the (k,k')-core
//! bound of Algorithm 6.

use crate::graph::{Graph, VertexId};

/// Result of a full core decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDecomposition {
    /// `core[v]` is the core number of `v` (the largest `k` such that `v`
    /// belongs to the k-core).
    pub core: Vec<u32>,
    /// Maximum core number over all vertices (`0` for an edgeless graph).
    pub max_core: u32,
}

impl CoreDecomposition {
    /// Vertices whose core number is at least `k` — i.e. the k-core vertex
    /// set (possibly disconnected).
    pub fn k_core_vertices(&self, k: u32) -> Vec<VertexId> {
        self.core
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= k)
            .map(|(v, _)| v as VertexId)
            .collect()
    }
}

/// Full core decomposition via bucket-sorted peeling, `O(n + m)`.
pub fn core_decomposition(g: &Graph) -> CoreDecomposition {
    let n = g.num_vertices();
    if n == 0 {
        return CoreDecomposition {
            core: Vec::new(),
            max_core: 0,
        };
    }
    let mut deg: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
    let max_deg = *deg.iter().max().unwrap();

    // Bucket sort vertices by degree.
    let mut bin = vec![0usize; max_deg + 2];
    for &d in &deg {
        bin[d] += 1;
    }
    let mut start = 0usize;
    for b in bin.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    // `pos[v]` is v's index in `vert`; `vert` is sorted by current degree.
    let mut pos = vec![0usize; n];
    let mut vert = vec![0 as VertexId; n];
    for v in 0..n {
        let d = deg[v];
        pos[v] = bin[d];
        vert[bin[d]] = v as VertexId;
        bin[d] += 1;
    }
    // Restore bin starts.
    for d in (1..=max_deg + 1).rev() {
        bin[d] = bin[d - 1];
    }
    bin[0] = 0;

    let mut core = vec![0u32; n];
    let mut max_core = 0u32;
    for i in 0..n {
        let v = vert[i];
        let dv = deg[v as usize];
        core[v as usize] = dv as u32;
        max_core = max_core.max(dv as u32);
        for &u in g.neighbors(v) {
            let du = deg[u as usize];
            if du > dv {
                // Swap u with the first vertex of its degree bucket, then
                // shrink its degree by one.
                let pu = pos[u as usize];
                let pw = bin[du];
                let w = vert[pw];
                if u != w {
                    vert[pu] = w;
                    vert[pw] = u;
                    pos[u as usize] = pw;
                    pos[w as usize] = pu;
                }
                bin[du] += 1;
                deg[u as usize] -= 1;
            }
        }
    }
    CoreDecomposition { core, max_core }
}

/// Vertices of the k-core of `g` (possibly disconnected), computed by
/// iterative peeling. `O(n + m)`.
pub fn k_core(g: &Graph, k: u32) -> Vec<VertexId> {
    let n = g.num_vertices();
    let alive = vec![true; n];
    k_core_peel(g, k, alive)
}

/// Vertices of the k-core of the subgraph of `g` induced by `subset`.
///
/// This is the workhorse behind Theorem 2 pruning: given the current
/// candidate set `M ∪ C`, peel vertices whose degree inside the set drops
/// below `k`. Runs in time linear in the induced subgraph.
pub fn k_core_of_subset(g: &Graph, k: u32, subset: &[VertexId]) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut alive = vec![false; n];
    for &v in subset {
        alive[v as usize] = true;
    }
    k_core_peel(g, k, alive)
}

/// Peels the `alive` part of `g` to its k-core, recording the time in
/// the process-global `graph.kcore_peel_us` histogram (one sample per
/// peel; the handle is cached, so the registry lock is taken once).
fn k_core_peel(g: &Graph, k: u32, alive: Vec<bool>) -> Vec<VertexId> {
    static PEEL_US: std::sync::OnceLock<std::sync::Arc<kr_obs::Histogram>> =
        std::sync::OnceLock::new();
    let t0 = std::time::Instant::now();
    let out = k_core_peel_inner(g, k, alive);
    PEEL_US
        .get_or_init(|| kr_obs::global().histogram("graph.kcore_peel_us"))
        .record_duration(t0.elapsed());
    out
}

fn k_core_peel_inner(g: &Graph, k: u32, mut alive: Vec<bool>) -> Vec<VertexId> {
    let n = g.num_vertices();
    // Degrees must be computed against the *initial* alive mask before any
    // vertex is peeled; mutating the mask mid-scan would double-count
    // removals for neighbors visited later in the scan.
    let mut deg = vec![0usize; n];
    for v in 0..n {
        if alive[v] {
            deg[v] = g
                .neighbors(v as VertexId)
                .iter()
                .filter(|&&u| alive[u as usize])
                .count();
        }
    }
    let mut queue: Vec<VertexId> = Vec::new();
    for v in 0..n {
        if alive[v] && (deg[v] as u32) < k {
            queue.push(v as VertexId);
            alive[v] = false;
        }
    }
    while let Some(v) = queue.pop() {
        for &u in g.neighbors(v) {
            if alive[u as usize] {
                deg[u as usize] -= 1;
                if (deg[u as usize] as u32) < k {
                    alive[u as usize] = false;
                    queue.push(u);
                }
            }
        }
    }
    (0..n as VertexId).filter(|&v| alive[v as usize]).collect()
}

/// Naive reference k-core (repeated full scans); used as a test oracle.
pub fn k_core_naive(g: &Graph, k: u32) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut alive = vec![true; n];
    loop {
        let mut changed = false;
        for v in 0..n {
            if !alive[v] {
                continue;
            }
            let d = g
                .neighbors(v as VertexId)
                .iter()
                .filter(|&&u| alive[u as usize])
                .count();
            if (d as u32) < k {
                alive[v] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (0..n as VertexId).filter(|&v| alive[v as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn clique(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..n as VertexId {
            for v in (u + 1)..n as VertexId {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    #[test]
    fn decomposition_of_clique() {
        let g = clique(5);
        let d = core_decomposition(&g);
        assert_eq!(d.max_core, 4);
        assert!(d.core.iter().all(|&c| c == 4));
    }

    #[test]
    fn decomposition_of_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let d = core_decomposition(&g);
        assert_eq!(d.max_core, 1);
        assert_eq!(d.core, vec![1, 1, 1, 1]);
    }

    #[test]
    fn decomposition_empty() {
        let d = core_decomposition(&Graph::empty(0));
        assert_eq!(d.max_core, 0);
        let d = core_decomposition(&Graph::empty(3));
        assert_eq!(d.core, vec![0, 0, 0]);
    }

    #[test]
    fn triangle_with_tail() {
        // Triangle 0-1-2 plus tail 2-3: cores 2,2,2,1.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let d = core_decomposition(&g);
        assert_eq!(d.core, vec![2, 2, 2, 1]);
        assert_eq!(d.k_core_vertices(2), vec![0, 1, 2]);
        assert_eq!(k_core(&g, 2), vec![0, 1, 2]);
        assert_eq!(k_core(&g, 1), vec![0, 1, 2, 3]);
        assert_eq!(k_core(&g, 3), Vec::<VertexId>::new());
    }

    #[test]
    fn k_core_of_subset_restricts() {
        // 4-clique; restricted to 3 vertices it is a triangle (2-core only).
        let g = clique(4);
        assert_eq!(k_core_of_subset(&g, 3, &[0, 1, 2, 3]).len(), 4);
        assert_eq!(k_core_of_subset(&g, 3, &[0, 1, 2]).len(), 0);
        assert_eq!(k_core_of_subset(&g, 2, &[0, 1, 2]).len(), 3);
    }

    #[test]
    fn peeling_cascades() {
        // A "chain of triangles" where removing low-degree vertices cascades.
        // 0-1-2 triangle, 2-3, 3-4: 2-core is just the triangle.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        assert_eq!(k_core(&g, 2), vec![0, 1, 2]);
    }

    #[test]
    fn matches_naive_on_fixed_graphs() {
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
                (6, 7),
            ],
        );
        for k in 0..5 {
            assert_eq!(k_core(&g, k), k_core_naive(&g, k), "k = {k}");
        }
    }

    /// Deterministic pseudo-random graph: a ring plus random chords, so
    /// degrees vary and peeling cascades run deep.
    fn large_graph() -> Graph {
        let n = 3000usize;
        let mut edges = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Ring + random chords: varied degrees, deep peeling cascades.
        for v in 0..n as VertexId {
            edges.push((v, (v + 1) % n as VertexId));
        }
        for _ in 0..4 * n {
            let u = (next() % n as u64) as VertexId;
            let v = (next() % n as u64) as VertexId;
            edges.push((u, v));
        }
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn matches_naive_on_large_graph() {
        let g = large_graph();
        for k in [0, 1, 2, 3, 4, 6, 10] {
            assert_eq!(k_core(&g, k), k_core_naive(&g, k), "k={k}");
        }
    }

    #[test]
    fn core_numbers_consistent_with_kcore() {
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 4),
            ],
        );
        let d = core_decomposition(&g);
        for k in 0..=d.max_core + 1 {
            assert_eq!(d.k_core_vertices(k), k_core(&g, k), "k = {k}");
        }
    }
}
