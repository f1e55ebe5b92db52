//! Allocation-regression test for the copy-on-write write path.
//!
//! A counting [`GlobalAlloc`] wrapper tracks the heap traffic of the
//! writing thread. Keys and values are refcounted buffers, so
//! path-copying a node clones pointers: one PUT allocates its value cell
//! plus a few small vectors per tree level, whatever the values *around*
//! the key weigh. When nodes owned their bytes (`Box<[u8]>`), the same
//! 1000 B overwrite into a 2 500-record tree deep-copied every entry on
//! the root→leaf path: ~26 KB in ~90 allocations. This pins the new cost
//! with at most 2× slack, so a change that makes a path copy touch value
//! bytes again fails here before it shows up in a benchmark. A commit
//! applies in place, so with no snapshot open there is no path copy at
//! all: an overwrite allocates only its value cell and its op record.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hat_kvdb::{Database, DbConfig, ShardedDb, SyncMode};

/// Pass-through allocator that counts allocation events and bytes (alloc,
/// zeroed alloc, and growth reallocs) on threads that opted into tracking.
struct CountingAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(bytes: usize) {
    // `try_with` keeps allocations during thread teardown (after TLS
    // destruction) from panicking inside the allocator.
    let _ = TRACKING.try_with(|t| {
        if t.get() {
            let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
            let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are thread-local cells
// and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
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

/// `(allocation events, bytes requested)` made by `f` on this thread.
fn tracked<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (events, bytes) = (ALLOC_EVENTS.with(Cell::get), ALLOC_BYTES.with(Cell::get));
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, ALLOC_EVENTS.with(Cell::get) - events, ALLOC_BYTES.with(Cell::get) - bytes)
}

const RECORDS: u32 = 2_500;
const VALUE_LEN: usize = 1000;

/// 24-byte keys, the paper's YCSB key size.
fn key(i: u32) -> Vec<u8> {
    format!("user{i:020}").into_bytes()
}

fn config() -> DbConfig {
    DbConfig { sync_mode: SyncMode::NoSync, ..DbConfig::default() }
}

/// Measured on this tree shape (depth 3) under a live snapshot: 10
/// allocations / 2 360 B when the transaction was a private root — the
/// 1016 B value cell, and per level one node plus its two pointer
/// vectors — and 12 / 2 528 B now that it is also an op record (key cell
/// and op list). The limits are the old measurement's, slack ≤ 2×.
const PUT_ALLOCS_MAX: u64 = 20;
const PUT_BYTES_MAX: u64 = 4_720;

#[test]
fn overwrite_put_allocates_pointers_not_neighbours() {
    let db = Database::new(config());
    let mut txn = db.begin_write().unwrap();
    for i in 0..RECORDS {
        txn.put(&key(i), &[0xAB; VALUE_LEN]);
    }
    txn.commit();
    assert!(db.depth() >= 3, "a path copy must cross branch levels to mean anything");

    // A live snapshot pins the old tree: the path copy cannot be elided.
    let snapshot = db.begin_read().unwrap();
    let target = key(1_234);
    let value = [0xCD; VALUE_LEN];
    let ((), allocs, bytes) = tracked(|| db.put(&target, &value));
    assert_eq!(snapshot.get(&target).as_deref(), Some(&[0xAB; VALUE_LEN][..]));
    assert_eq!(db.get(&target).as_deref(), Some(&value[..]));

    assert!(bytes >= VALUE_LEN as u64, "the value itself is copied once: {bytes} B");
    assert!(
        allocs <= PUT_ALLOCS_MAX && bytes <= PUT_BYTES_MAX,
        "one {VALUE_LEN} B overwrite allocated {allocs} times, {bytes} B \
         (limits {PUT_ALLOCS_MAX} / {PUT_BYTES_MAX} B; deep-copying nodes cost ~90 / ~26 KB)"
    );
}

/// Measured on the same tree with no snapshot open: 3 allocations /
/// 1 184 B — the 1016 B value cell, the key cell of the op record and the
/// transaction's op list. A commit applies in place, so no node is
/// copied. Slack ≤ 2×.
const UNSHARED_PUT_ALLOCS_MAX: u64 = 6;
const UNSHARED_PUT_BYTES_MAX: u64 = 2_368;

#[test]
fn an_unshared_overwrite_allocates_no_tree_node() {
    let db = Database::new(config());
    let mut txn = db.begin_write().unwrap();
    for i in 0..RECORDS {
        txn.put(&key(i), &[0xAB; VALUE_LEN]);
    }
    txn.commit();
    assert!(db.depth() >= 3, "an elided path copy must cross branch levels to mean anything");

    let target = key(1_234);
    let value = [0xCD; VALUE_LEN];
    let ((), allocs, bytes) = tracked(|| db.put(&target, &value));
    assert_eq!(db.get(&target).as_deref(), Some(&value[..]));

    assert!(bytes >= VALUE_LEN as u64, "the value itself is copied once: {bytes} B");
    assert!(
        allocs <= UNSHARED_PUT_ALLOCS_MAX && bytes <= UNSHARED_PUT_BYTES_MAX,
        "one {VALUE_LEN} B overwrite with no snapshot open allocated {allocs} times, {bytes} B \
         (limits {UNSHARED_PUT_ALLOCS_MAX} / {UNSHARED_PUT_BYTES_MAX} B; a path copy is ~10 / ~2.4 KB)"
    );
}

#[test]
fn multi_put_into_one_shard_shares_its_path_copies() {
    let db = ShardedDb::new(config(), 1);
    db.multi_put((0..RECORDS).map(|i| (key(i), vec![0xAB; VALUE_LEN])));
    let _snapshot = db.begin_read().unwrap();

    let target = key(77);
    let ((), single_allocs, single_bytes) = tracked(|| db.put(&target, &[0xCD; VALUE_LEN]));

    // Ten keys spread over the key space: ten leaves, one transaction. The
    // root (and any shared branch) is copied once, not once per key.
    let pairs: Vec<_> = (0..10).map(|i| (key(i * 241 + 5), vec![0xEF; VALUE_LEN])).collect();
    let ((), batch_allocs, batch_bytes) = tracked(|| db.multi_put(pairs));
    assert_eq!(db.get(&key(5)).as_deref(), Some(&[0xEF; VALUE_LEN][..]));

    assert!(
        batch_allocs < 10 * single_allocs && batch_bytes < 10 * single_bytes,
        "10-key multi_put: {batch_allocs} allocations / {batch_bytes} B; \
         single put: {single_allocs} / {single_bytes} B"
    );
}
