//! Allocation-count proof for the pipelined hot path, for each of the
//! four kinds at or below the eager threshold.
//!
//! A counting `GlobalAlloc` wrapper (`support`) tracks every heap allocation
//! made by the *client* thread. After a warmup phase (which fills the buffer pool,
//! grows the simulator's completion heaps to their steady-state capacity,
//! and touches every lazily-initialised thread-local), a full window lap —
//! submit × window, one flush, wait × window — must perform **zero** heap
//! allocations on the client thread: requests are framed in place in a
//! registered per-slot region, work requests are staged in a pre-sized vector,
//! and responses come back in pooled buffers that return to the pool on
//! drop.
//!
//! The server thread is intentionally not tracked: its echo handler
//! returns a fresh `Vec` per request, which is an application choice, not
//! part of the channel hot path.

mod support;

use hat_protocols::{
    accept_server_pipelined, connect_client_pipelined, ProtocolConfig, ProtocolKind, Token,
    PIPELINED_KINDS,
};
use hat_rdma_sim::{Fabric, PollMode, SimConfig};
use support::tracked;

const WINDOW: usize = 8;
const PAYLOAD: usize = 512;

#[test]
fn pipelined_hot_path_is_allocation_free_after_warmup_for_every_kind() {
    for kind in PIPELINED_KINDS {
        hot_path_is_allocation_free_after_warmup(kind);
    }
}

fn hot_path_is_allocation_free_after_warmup(kind: ProtocolKind) {
    let fabric = Fabric::new(SimConfig::fast_test());
    let cnode = fabric.add_node("client");
    let snode = fabric.add_node("server");
    let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
    let cfg = ProtocolConfig {
        max_msg: 1024,
        ring_slots: WINDOW,
        poll: PollMode::Busy,
        ..Default::default()
    };

    let scfg = cfg.clone();
    let server = std::thread::spawn(move || {
        let mut s = accept_server_pipelined(kind, sep, scfg).unwrap();
        s.serve_loop(&mut |req| req.to_vec()).unwrap();
    });
    let mut client = connect_client_pipelined(kind, cep, cfg).unwrap();
    // Chained-write answers with a WRITE + SEND pair, the rest with one WR.
    let wrs_per_response = if kind == ProtocolKind::ChainedWriteSend { 2 } else { 1 };

    // Everything the measured loop touches is allocated up front.
    let request = vec![0xC3u8; PAYLOAD];
    let mut tokens: Vec<Token> = Vec::with_capacity(WINDOW);

    // Warmup: several full window laps fill the global buffer pool, grow
    // the completion/effect heaps to their steady-state capacity, and hit
    // every first-use lazy path (clock epoch, thread locals). The server
    // may answer in half-window chains, so how many responses this thread
    // finds at once — and with it the high-water mark of every pool
    // bucket and heap it touches — depends on timing: each warmup lap
    // therefore lets the whole window's responses land before taking the
    // first, the most the measured laps can ever meet. Also park once on
    // a parking_lot condvar so this thread's parking slot exists before
    // the measured phase (an idle busy-poller naps on one).
    for _ in 0..4 {
        tokens.clear();
        let answered = snode.stats_snapshot().wrs_posted + (wrs_per_response * WINDOW) as u64;
        for _ in 0..WINDOW {
            tokens.push(client.submit(&request).unwrap());
        }
        client.flush().unwrap();
        while snode.stats_snapshot().wrs_posted < answered {
            std::thread::yield_now();
        }
        hat_rdma_sim::time::spin_until(hat_rdma_sim::now_ns() + 50_000);
        for &t in &tokens {
            let resp = client.wait(t).unwrap();
            assert_eq!(resp.as_slice(), &request[..]);
        }
    }
    let warm_mutex = parking_lot::Mutex::new(());
    let warm_cond = parking_lot::Condvar::new();
    warm_cond.wait_for(&mut warm_mutex.lock(), std::time::Duration::from_millis(1));

    // Sanity: the counter itself works (a boxed value is one event).
    let (_, counted) = tracked(|| std::hint::black_box(Box::new(17u64)));
    assert!(counted.events >= 1, "{kind}: counting allocator saw {counted:?} for a Box::new");

    // hat-metrics is linked into this binary but disabled — the hot path
    // must stay allocation-free with telemetry compiled in, paying only
    // the sampler's relaxed enable-flag load.
    assert!(!hat_metrics::enabled(), "telemetry stays off for the measured phase");

    // Measured phase: 16 window laps, zero client-side heap allocations.
    let ((), allocs) = tracked(|| {
        for _ in 0..16 {
            tokens.clear();
            for _ in 0..WINDOW {
                tokens.push(client.submit(&request).unwrap());
            }
            for &t in &tokens {
                let resp = client.wait(t).unwrap();
                assert_eq!(resp.len(), PAYLOAD);
            }
        }
    });
    assert_eq!(
        allocs.events,
        0,
        "{kind}: pipelined hot path allocated {allocs:?} over 16 window laps \
         ({} calls) after warmup",
        16 * WINDOW
    );

    drop(client);
    server.join().unwrap();
}
