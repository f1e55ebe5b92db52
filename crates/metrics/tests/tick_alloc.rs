//! The sample path allocates nothing in the steady state: once the node
//! set and the histogram key set are stable, a `Sampler::tick` copies
//! every series into its ring without touching the heap.
//!
//! A counting global allocator tallies only the thread that opted in, so
//! whatever else the test process runs cannot leak into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hat_metrics::{Sampler, SamplerConfig};
use hat_rdma_sim::{Fabric, NodeStats, SimConfig};

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: allocations during thread teardown must not panic here.
    let _ = TRACKING.try_with(|t| {
        if t.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tallies are thread-local cells
// and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note();
        }
        // SAFETY: `ptr`, `layout` and `new_size` are passed through as
        // received, so the caller's guarantees carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on the calling thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_steady_state_tick_allocates_nothing() {
    hat_trace::hist::reset();
    let fabric = Fabric::new(SimConfig::fast_test());
    let nodes: Vec<_> = ["client", "server", "store"].iter().map(|n| fabric.add_node(n)).collect();
    // A ring smaller than the tick count, so the measured ticks wrap it.
    let s =
        Sampler::attach_paused(&fabric, SamplerConfig { ring_capacity: 16, ..Default::default() });
    let record = |round: u64| {
        for (i, node) in nodes.iter().enumerate() {
            NodeStats::add(&node.stats().calls_ok, round + i as u64);
        }
        for (scope, bytes) in [("Svc.get", 64), ("Svc.put", 4096), ("Svc.get", 1 << 20)] {
            hat_trace::hist::record_latency("Eager-SendRecv", scope, bytes, 1_000 + round * 37);
        }
    };
    // Warm-up: the first tick after the keys appear creates their series.
    record(0);
    s.tick();

    let mut allocs = 0;
    for round in 1..=100 {
        record(round);
        allocs += allocs_in(|| s.tick());
    }
    assert_eq!(allocs, 0, "100 steady-state ticks allocated {allocs} times");

    // The ticks did sample: every series holds the newest values.
    assert_eq!(s.hist_timelines().len(), 3);
    let newest = s.hist_timelines()[0].samples.last().unwrap().values[0];
    assert_eq!(newest, 101, "one latency per key per round, warm-up included");
    hat_trace::hist::reset();
}
