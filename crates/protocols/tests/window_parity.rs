//! A blocking call over a wire is a window of one, and it costs what the
//! depth-1 module it replaced cost: per echo, each side rings the same
//! doorbells, posts the same work requests, reaps the same completions and
//! charges the same memcpys, and the client allocates once per call (the
//! reply `Vec`). The pinned numbers were measured on the depth-1 modules.
//!
//! The one stated exception is Hybrid above its threshold: a window frees
//! a rendezvous stage when the response comes back, so the FIN the
//! depth-1 form sent after every READ — one doorbell, one work request, one
//! completion and one inline copy per message on each side — is gone.
//! Read-RNDV keeps its FIN: its stage is freed by the peer's FIN, not by
//! the response.

mod support;

use hat_protocols::{accept_server, connect_client, ProtocolConfig, ProtocolKind};
use hat_rdma_sim::{Fabric, SimConfig};
use support::tracked;

const WARMUP: u64 = 8;
const CALLS: u64 = 32;

/// What one call costs one side.
#[derive(Debug, PartialEq, Eq)]
struct PerCall {
    doorbells: u64,
    wrs: u64,
    completions: u64,
    memcpys: u64,
}

const fn per_call(doorbells: u64, wrs: u64, completions: u64, memcpys: u64) -> PerCall {
    PerCall { doorbells, wrs, completions, memcpys }
}

/// `(client, server, client allocations)` per echo of `payload`, over
/// `CALLS` warmed echoes. A count that does not divide evenly fails here.
///
/// Each side is counted between its own calls: a side may still be
/// finishing a message after its peer is done with it (a Read-RNDV server
/// takes the FIN for its response after the client's `call` returned).
fn measure(kind: ProtocolKind, payload: usize) -> (PerCall, PerCall, u64) {
    let fabric = Fabric::new(SimConfig::fast_test());
    let cnode = fabric.add_node("client");
    let snode = fabric.add_node("server");
    let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
    let cfg = ProtocolConfig { max_msg: 64 * 1024, ..Default::default() };
    let scfg = cfg.clone();
    let server = std::thread::spawn(move || {
        let mut server = accept_server(kind, sep, scfg).unwrap();
        let mut echo = |req: &[u8]| req.to_vec();
        let mut serve = |n| (0..n).for_each(|_| assert!(server.serve_one(&mut echo).unwrap()));
        serve(WARMUP);
        let s0 = snode.stats_snapshot();
        serve(CALLS);
        let s = snode.stats_snapshot() - s0;
        assert!(!server.serve_one(&mut echo).unwrap(), "{kind}: the client hung up");
        s
    });
    let mut client = connect_client(kind, cep, cfg).unwrap();
    let request = vec![0x5Au8; payload];
    for _ in 0..WARMUP {
        assert_eq!(client.call(&request).unwrap(), request);
    }
    let c0 = cnode.stats_snapshot();
    let ((), allocs) = tracked(|| {
        for _ in 0..CALLS {
            assert!(client.call(&request).unwrap() == request);
        }
    });
    let c = cnode.stats_snapshot() - c0;
    drop(client);
    let s = server.join().unwrap();
    let each = |n: u64| {
        assert_eq!(n % CALLS, 0, "{kind} {payload} B: {n} over {CALLS} calls");
        n / CALLS
    };
    let side = |d: hat_rdma_sim::NodeStatsSnapshot| {
        per_call(each(d.doorbells), each(d.wrs_posted), each(d.completions), each(d.memcpys))
    };
    (side(c), side(s), each(allocs.events))
}

#[test]
fn a_window_of_one_costs_what_the_depth_1_module_cost() {
    use ProtocolKind::*;
    // (kind, payload, per side: doorbells, WRs, completions, memcpys)
    let rows = [
        // Copy in, SEND, copy out.
        (EagerSendRecv, 64, per_call(1, 1, 1, 2)),
        // WRITE + inline SEND notify under one doorbell.
        (ChainedWriteSend, 64, per_call(1, 2, 1, 1)),
        (DirectWriteImm, 64, per_call(1, 1, 1, 0)),
        (HybridEagerRndv, 64, per_call(1, 1, 1, 2)),
        // RTS and the READ it answers; the depth-1 form measured
        // `per_call(3, 3, 3, 1)`, its FIN included.
        (HybridEagerRndv, 64 * 1024, per_call(2, 2, 2, 0)),
        // A WRITE, then its inline SEND notify under a doorbell of its own.
        (DirectWriteSend, 64, per_call(2, 2, 1, 1)),
        // Inline RTS, CTS and FIN; the pooled WRITE and the FIN share a
        // doorbell. The payload size changes none of it.
        (WriteRndv, 64, per_call(3, 4, 3, 3)),
        (WriteRndv, 64 * 1024, per_call(3, 4, 3, 3)),
        // Inline RTS and FIN, and the signaled READ between them.
        (ReadRndv, 64 * 1024, per_call(3, 3, 3, 2)),
    ];
    for (kind, payload, want) in rows {
        let (client, server, allocs) = measure(kind, payload);
        assert_eq!(client, want, "{kind} {payload} B: client per call");
        assert_eq!(server, want, "{kind} {payload} B: server per call");
        assert_eq!(allocs, 1, "{kind} {payload} B: client allocations per call");
    }
}
