//! The benchmark's global allocator: `manifest::CountingAlloc` underneath,
//! so `RunManifest` phase spans keep their allocation deltas, plus a count
//! of live heap bytes and its high-water mark for `peak_heap_mb`.

use darsie_bench::manifest::CountingAlloc;
use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Bytes currently allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// Highest value of `LIVE` since the last [`reset_peak`].
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Counting allocator with a live-heap high-water mark.
pub struct PeakAlloc;

// Plain loads and stores instead of read-modify-write: the benchmark
// allocates from one thread, where they are exact and cost no locked
// instruction on the simulator's hot allocation path. Under the parallel
// test harness racing updates can skew the figures, which no test asserts
// on; wrapping arithmetic keeps a skewed count from panicking.
fn grow(bytes: usize) {
    let live = LIVE.load(Relaxed).wrapping_add(bytes as u64);
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.store(LIVE.load(Relaxed).wrapping_sub(bytes as u64), Relaxed);
}

// SAFETY: every call forwards its arguments unchanged to `CountingAlloc`,
// which delegates to `System`; the extra bookkeeping only touches atomics
// and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed through.
        let p = unsafe { CountingAlloc.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator with `layout`.
        unsafe { CountingAlloc.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` come from this allocator and the caller
        // guarantees `new_size` is valid for `layout.align()`.
        let p = unsafe { CountingAlloc.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Restarts the high-water mark at the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live heap, in bytes, since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}
