//! A counting [`GlobalAlloc`] for the allocation-count tests: a
//! pass-through to [`System`] that tallies what threads which opted in
//! allocate. Each test binary that includes this module gets it as its
//! global allocator.

#![allow(dead_code)] // each including binary reads the tallies it needs

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations at least this large count as message buffers.
pub const LARGE: usize = 4096;

/// What one thread allocated while it was tracking.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Allocation events: alloc, zeroed alloc, and growth realloc.
    pub events: u64,
    /// Bytes those events asked for.
    pub bytes: u64,
    /// Events of at least [`LARGE`] bytes, and their bytes.
    pub large: u64,
    pub large_bytes: u64,
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, rhs: Counts) -> Counts {
        Counts {
            events: self.events - rhs.events,
            bytes: self.bytes - rhs.bytes,
            large: self.large - rhs.large,
            large_bytes: self.large_bytes - rhs.large_bytes,
        }
    }
}

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static COUNTS: Cell<Counts> =
        const { Cell::new(Counts { events: 0, bytes: 0, large: 0, large_bytes: 0 }) };
}

fn note(size: usize) {
    // `try_with` keeps allocations during thread teardown (after TLS
    // destruction) from panicking inside the allocator.
    let _ = TRACKING.try_with(|t| {
        if t.get() {
            let _ = COUNTS.try_with(|c| {
                let mut n = c.get();
                n.events += 1;
                n.bytes += size as u64;
                if size >= LARGE {
                    n.large += 1;
                    n.large_bytes += size as u64;
                }
                c.set(n);
            });
        }
    });
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tallies are thread-local cells
// and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Switch this thread's tracking on or off; returns the previous setting.
pub fn track(on: bool) -> bool {
    TRACKING.with(|t| t.replace(on))
}

/// This thread's tallies so far.
pub fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

/// What `f` allocated on this thread.
pub fn tracked<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let before = counts();
    let was = track(true);
    let out = f();
    track(was);
    (out, counts() - before)
}

/// Put eight spare buffers of every pool size class up to `max_len` in the
/// simulator's global buffer pool. How many pooled buffers are live at
/// once — WR snapshots and effects in flight, a landed request — depends
/// on thread timing, and the pool allocates the first time a run meets a
/// new peak: growth, not a cost of the call, but counted on whichever
/// thread meets it.
pub fn stock_pool(max_len: usize) {
    let classes = (6..=max_len.next_power_of_two().trailing_zeros()).map(|shift| 1usize << shift);
    let spares: Vec<_> =
        classes.flat_map(|len| [len; 8]).map(hat_rdma_sim::PoolBuf::for_overwrite).collect();
    drop(spares);
}
