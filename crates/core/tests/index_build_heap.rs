//! Peak heap of the default decomposition-index build on dblp-like at
//! full scale, the exact band path at its largest size. A tracking
//! global allocator records the live and the peak bytes; the build
//! must stay within a few MiB of where it started, far below the
//! `n(n-1)/2`-value buffer (~16 MiB at n = 2000) that storing every
//! pairwise similarity would take.
//!
//! The binary holds a single test so no other test's allocations can
//! land inside the measured window.

use kr_core::DecompositionIndex;
use kr_datagen::DatasetPreset;
use kr_similarity::{TableOracle, Threshold};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`], counting live bytes and their high-water mark.
struct Tracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

const MIB: usize = 1 << 20;

#[test]
fn default_build_on_dblp_like_peaks_below_4_mib() {
    let d = DatasetPreset::DblpLike.generate_scaled(1.0);
    let oracle = TableOracle::new(d.attributes, d.metric, Threshold::MinSimilarity(0.5));
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let ix = DecompositionIndex::build_default(&d.graph, &oracle);
    let peak = PEAK.load(Ordering::Relaxed) - start;
    assert!(!ix.bands().is_empty());
    assert!(
        peak < 4 * MIB,
        "build_default peaked {:.2} MiB above its start",
        peak as f64 / MIB as f64
    );
}
