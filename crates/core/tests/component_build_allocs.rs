//! Allocation count of one component build (`LocalComponent::build`) on
//! a dblp-like cold miss: the components of the k = 4 (k,r)-core
//! preprocessing at min-similarity 0.43, a miss of the benchmark's p90
//! class (tens of components of about seven vertices each).
//!
//! A build allocates the id map, the adjacency CSR, the keyword
//! candidate index (sorted postings, per-vertex accumulators, the pair
//! lists) and the bit rows, each a handful of flat buffers, and no
//! per-component hash map. The count is a deterministic work counter:
//! the same input always allocates the same number of times.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kr_core::LocalComponent;
use kr_datagen::DatasetPreset;
use kr_graph::components::connected_components_of_subset;
use kr_graph::k_core;
use kr_similarity::{DissimMode, SimilarityOracle, TableOracle, Threshold};

/// [`System`], counting the calls that hand out fresh memory (`alloc`,
/// `alloc_zeroed` and `realloc`) made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - start)
}

/// At most this many allocations per component build.
const MAX_ALLOCS_PER_COMPONENT: usize = 20;

#[test]
fn dblp_like_k4_miss_builds_each_component_in_few_allocations() {
    let (k, r) = (4u32, 0.43);
    let d = DatasetPreset::DblpLike.generate_scaled(1.0);
    let oracle = TableOracle::new(d.attributes, d.metric, Threshold::MinSimilarity(r));
    let filtered = d.graph.filter_edges(|u, v| oracle.is_similar(u, v));
    let core = k_core(&filtered, k);
    let groups: Vec<_> = connected_components_of_subset(&filtered, &core)
        .groups()
        .into_iter()
        .filter(|g| g.len() > k as usize)
        .collect();
    assert!(
        groups.len() >= 10,
        "a p90-class miss has tens of components, got {}",
        groups.len()
    );
    // The first build in a process registers the similarity layer's
    // metrics; that one-time cost is not a component's.
    LocalComponent::build(&filtered, &oracle, &groups[0], k, DissimMode::Auto);
    let mut worst = (0usize, 0usize);
    let mut total = 0usize;
    for g in &groups {
        let (comp, allocs) = allocations_during(|| {
            LocalComponent::build(&filtered, &oracle, g, k, DissimMode::Auto)
        });
        assert_eq!(comp.len(), g.len());
        total += allocs;
        if allocs > worst.0 {
            worst = (allocs, g.len());
        }
    }
    assert!(
        worst.0 <= MAX_ALLOCS_PER_COMPONENT,
        "a {}-vertex component took {} allocations (bound {MAX_ALLOCS_PER_COMPONENT}; \
         {} components, {:.1} on average)",
        worst.1,
        worst.0,
        groups.len(),
        total as f64 / groups.len() as f64
    );
}
