//! A blocking call over a wire is a window of one, and it costs what the
//! depth-1 module it replaced cost: per 64 B echo, each side rings the same
//! doorbells, posts the same work requests, reaps the same completions and
//! charges the same memcpys, and the client allocates once per call (the
//! reply `Vec`). The pinned numbers were measured on the depth-1 modules.
//!
//! The one stated exception is Hybrid above its threshold: a window frees
//! a rendezvous stage when the response comes back, so the FIN the
//! depth-1 form sent after every READ — one doorbell, one work request, one
//! completion and one inline copy per message on each side — is gone.

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
fn measure(kind: ProtocolKind, payload: usize) -> (PerCall, PerCall, u64) {
    let fabric = Fabric::new(SimConfig::fast_test());
    let cnode = fabric.add_node("client");
    let snode = fabric.add_node("server");
    let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
    let cfg = ProtocolConfig { max_msg: 64 * 1024, ..Default::default() };
    let scfg = cfg.clone();
    let server = std::thread::spawn(move || {
        let mut server = accept_server(kind, sep, scfg).unwrap();
        server.serve_loop(&mut |req| req.to_vec()).unwrap();
    });
    let mut client = connect_client(kind, cep, cfg).unwrap();
    let request = vec![0x5Au8; payload];
    for _ in 0..WARMUP {
        assert_eq!(client.call(&request).unwrap(), request);
    }
    let (c0, s0) = (cnode.stats_snapshot(), snode.stats_snapshot());
    let ((), allocs) = tracked(|| {
        for _ in 0..CALLS {
            assert!(client.call(&request).unwrap() == request);
        }
    });
    let (c, s) = (cnode.stats_snapshot() - c0, snode.stats_snapshot() - s0);
    drop(client);
    server.join().unwrap();
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
    ];
    for (kind, payload, want) in rows {
        let (client, server, allocs) = measure(kind, payload);
        assert_eq!(client, want, "{kind} {payload} B: client per call");
        assert_eq!(server, want, "{kind} {payload} B: server per call");
        assert_eq!(allocs, 1, "{kind} {payload} B: client allocations per call");
    }
}
