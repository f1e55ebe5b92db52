//! Counting allocator for the harness binary: every thread's allocations,
//! counted only while a traced window or a probe has switched it on. With
//! counting off the cost is one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from the caller, who got them
        // from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation events and bytes counted so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

pub fn counted() -> AllocCount {
    AllocCount { allocs: ALLOCS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
}

/// Run `f` with counting on and return what it allocated (all threads).
pub fn count<T>(f: impl FnOnce() -> T) -> (T, AllocCount) {
    let before = counted();
    set_counting(true);
    let out = f();
    set_counting(false);
    let after = counted();
    (out, AllocCount { allocs: after.allocs - before.allocs, bytes: after.bytes - before.bytes })
}
