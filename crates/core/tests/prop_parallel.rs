//! Property tests for pooled preprocessing (`threads` > 1): the
//! enumeration must never lose a maximal core, and the maximum search
//! must return the very core a `threads = 1` run returns.

use kr_core::{enumerate_maximal, find_maximum, AlgoConfig, KrCore, ProblemInstance};
use kr_graph::{Graph, VertexId};
use kr_similarity::{AttributeTable, Metric, Threshold};
use proptest::prelude::*;

/// Random instance: n vertices, random edges, random 1-D positions in a
/// small range so similar/dissimilar pairs both occur, k in 1..=3.
fn arb_instance(n_max: usize) -> impl Strategy<Value = ProblemInstance> {
    (4..=n_max).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        (
            proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..=max_edges.min(36)),
            proptest::collection::vec(0.0f64..10.0, n),
            1u32..=3,
            1.0f64..9.0,
        )
            .prop_map(move |(edges, xs, k, r)| {
                let g = Graph::from_edges(n, &edges);
                let pts = xs.into_iter().map(|x| (x, 0.0)).collect();
                ProblemInstance::new(
                    g,
                    AttributeTable::points(pts),
                    Metric::Euclidean,
                    Threshold::MaxDistance(r),
                    k,
                )
            })
    })
}

/// Brute-force maximal (k,r)-core oracle by subset enumeration.
fn brute_maximal(p: &ProblemInstance) -> Vec<KrCore> {
    let n = p.graph().num_vertices();
    assert!(n <= 14);
    let mut cores: Vec<(u32, Vec<VertexId>)> = Vec::new();
    for mask in 1u32..(1u32 << n) {
        let vs: Vec<VertexId> = (0..n as VertexId).filter(|&v| mask >> v & 1 == 1).collect();
        if kr_core::is_kr_core(p, &KrCore::new(vs.clone())) {
            cores.push((mask, vs));
        }
    }
    let mut out = Vec::new();
    'outer: for &(m, ref vs) in &cores {
        for &(m2, _) in &cores {
            if m != m2 && m & m2 == m {
                continue 'outer;
            }
        }
        out.push(KrCore::new(vs.clone()));
    }
    out.sort_by(|a, b| a.vertices.cmp(&b.vertices));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pooled preprocessing never loses a maximal core: every brute-force
    /// maximal (k,r)-core appears in the enumeration, at every thread
    /// count (and nothing extra appears either).
    #[test]
    fn parallel_enum_never_loses_a_core(p in arb_instance(10)) {
        let expect = brute_maximal(&p);
        for threads in [2, 3, 8] {
            let par = enumerate_maximal(
                &p,
                &AlgoConfig::adv_enum().with_threads(threads),
            );
            prop_assert!(par.completed, "threads={} aborted", threads);
            for core in &expect {
                prop_assert!(
                    par.cores.contains(core),
                    "threads={}: lost maximal core {:?}",
                    threads,
                    core
                );
            }
            prop_assert_eq!(&par.cores, &expect, "threads={}", threads);
        }
    }

    /// The maximum search after pooled preprocessing returns the exact
    /// same vertex set as a `threads = 1` run — tie-breaking included
    /// (the pool returns the components in the sequential order).
    #[test]
    fn parallel_max_identical_to_sequential(p in arb_instance(10)) {
        let seq = find_maximum(&p, &AlgoConfig::adv_max());
        for threads in [2, 3, 8] {
            let par = find_maximum(
                &p,
                &AlgoConfig::adv_max().with_threads(threads),
            );
            prop_assert!(par.completed, "threads={} aborted", threads);
            prop_assert_eq!(
                par.core.as_ref().map(|c| &c.vertices),
                seq.core.as_ref().map(|c| &c.vertices),
                "threads={}",
                threads
            );
        }
    }

    /// BasicMax (naive bound, no maximal check) after pooled
    /// preprocessing also reproduces its `threads = 1` twin.
    #[test]
    fn parallel_basic_max_identical_to_sequential(p in arb_instance(9)) {
        let seq = find_maximum(&p, &AlgoConfig::basic_max());
        let par = find_maximum(&p, &AlgoConfig::basic_max().with_threads(4));
        prop_assert_eq!(
            par.core.as_ref().map(|c| &c.vertices),
            seq.core.as_ref().map(|c| &c.vertices)
        );
    }
}
