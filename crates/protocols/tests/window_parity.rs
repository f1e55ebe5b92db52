//! A blocking call over a wire is a window of one, and it costs what the
//! depth-1 module it replaced cost: per echo, each side rings the same
//! doorbells, posts the same work requests, reaps the same completions and
//! charges the same memcpys, and the client allocates once per call (the
//! reply `Vec`) — except over Write-RNDV, whose `call` returns the server
//! handler's reply `Vec` itself and allocates nothing. The pinned numbers
//! were measured on the depth-1 modules.
//!
//! The one stated exception is Hybrid above its threshold: a window frees
//! a rendezvous stage when the response comes back, so the FIN the
//! depth-1 form sent after every READ — one doorbell, one work request, one
//! completion and one inline copy per message on each side — is gone.
//! Read-RNDV keeps its FIN: its stage is freed by the peer's FIN, not by
//! the response.
//!
//! The four kinds without a wire (Pilaf, FaRM, RFP, HERD) are pinned the
//! same way, by the program each runs per call: exact counts where the
//! program fixes them, and identities over the one-sided operations where
//! a READ or memory poll repeats for as long as the host takes to serve.

mod support;

use std::sync::Mutex;

use hat_protocols::{accept_server, connect_client, ProtocolConfig, ProtocolKind};
use hat_rdma_sim::{Fabric, NodeStatsSnapshot, PollMode, SimConfig};
use support::{stock_pool, tracked};

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

/// What `CALLS` warmed echoes cost each side, and what each side had
/// registered once connected.
struct Echoes {
    client: NodeStatsSnapshot,
    server: NodeStatsSnapshot,
    client_allocs: u64,
    server_allocs: u64,
    registered: (u64, u64),
}

/// Echo `payload` `CALLS` times over a warmed `kind` connection with
/// `max_msg` 64 KiB and `ring_slots` 16.
///
/// Each side is counted between its own calls: a side may still be
/// finishing a message after its peer is done with it (a Read-RNDV server
/// takes the FIN for its response after the client's `call` returned).
///
/// The global buffer pool is stocked first ([`stock_pool`]), and one run
/// holds it at a time: the tests of this binary run on parallel threads,
/// and one's live buffers must not empty the pool under another's count.
fn echoes(kind: ProtocolKind, payload: usize, sim: SimConfig, poll: PollMode) -> Echoes {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _pool = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    stock_pool(128 * 1024);
    let fabric = Fabric::new(sim);
    let cnode = fabric.add_node("client");
    let snode = fabric.add_node("server");
    let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
    let cfg = ProtocolConfig { max_msg: 64 * 1024, poll, ..Default::default() };
    let scfg = cfg.clone();
    let server = std::thread::spawn(move || {
        let mut server = accept_server(kind, sep, scfg).unwrap();
        let registered = snode.stats_snapshot().registered_bytes;
        let mut echo = |req: &[u8]| req.to_vec();
        let mut serve = |n| (0..n).for_each(|_| assert!(server.serve_one(&mut echo).unwrap()));
        serve(WARMUP);
        let s0 = snode.stats_snapshot();
        let ((), allocs) = tracked(|| serve(CALLS));
        let s = snode.stats_snapshot() - s0;
        assert!(!server.serve_one(&mut echo).unwrap(), "{kind}: the client hung up");
        (s, allocs.events, registered)
    });
    let mut client = connect_client(kind, cep, cfg).unwrap();
    let registered = cnode.stats_snapshot().registered_bytes;
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
    let client_stats = cnode.stats_snapshot() - c0;
    drop(client);
    let (server_stats, server_allocs, server_registered) = server.join().unwrap();
    Echoes {
        client: client_stats,
        server: server_stats,
        client_allocs: allocs.events,
        server_allocs,
        registered: (registered, server_registered),
    }
}

/// `d` per call; a count that does not divide evenly fails here.
fn each_call(what: &str, d: &NodeStatsSnapshot) -> PerCall {
    let each = |n: u64| {
        assert_eq!(n % CALLS, 0, "{what}: {n} over {CALLS} calls");
        n / CALLS
    };
    per_call(each(d.doorbells), each(d.wrs_posted), each(d.completions), each(d.memcpys))
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
        let e = echoes(kind, payload, SimConfig::fast_test(), PollMode::Busy);
        let what = format!("{kind} {payload} B");
        assert_eq!(each_call(&what, &e.client), want, "{what}: client per call");
        assert_eq!(each_call(&what, &e.server), want, "{what}: server per call");
        let replies = if kind == WriteRndv { 0 } else { CALLS };
        assert_eq!(e.client_allocs, replies, "{what}: client allocations");
    }
}

/// Pilaf, FaRM, RFP and HERD, busy and event, at 1× and 32× time: per
/// echo, each side runs the program its kind's request and reply paths
/// make (`read_based`'s module docs). With `out` the client's one-sided
/// operations over the `CALLS` echoes and `n` = `CALLS`:
///
/// * HERD: the request WRITE and its inline notify under one doorbell,
///   the reply landed off the ring (2 memcpys with the notify's inline
///   copy); the server takes the notify and SENDs a copied reply. The
///   WRITE carries a 16 B header.
/// * Pilaf: one copied SEND, then `out − 2n` 8 B directory polls, a 16 B
///   item-header READ and a payload READ each call. FaRM: `out − n` 32 B
///   entry polls and a payload READ. Both servers take one receive and
///   charge its landing copy, and post nothing.
/// * RFP: one WRITE, then 1 040 B polls (header and first 1 KiB) and, for
///   a payload over 1 KiB, one READ of the rest. The server memory-polls
///   and posts nothing.
///
/// Either side allocates once per echo (the client's reply `Vec`, the
/// handler's reply) and registers nothing while serving.
#[test]
fn the_kinds_without_a_wire_keep_their_per_call_program() {
    use ProtocolKind::*;
    for time_scale in [1.0, 32.0] {
        for poll in [PollMode::Busy, PollMode::Event] {
            for payload in [64u64, 2048] {
                for kind in [Herd, Pilaf, Farm, Rfp] {
                    let sim = SimConfig { time_scale, ..SimConfig::default() };
                    let e = echoes(kind, payload as usize, sim, poll);
                    let what = format!("{kind} {payload} B, {poll:?} polling, time ×{time_scale}");
                    let (c, n) = (&e.client, CALLS);
                    let out = c.outbound_rdma;
                    let program = (c.doorbells, c.wrs_posted, c.completions, c.memcpys, c.bytes_rx);
                    let (want, server) = match kind {
                        Herd => {
                            assert_eq!(c.bytes_tx, n * (16 + payload), "{what}: request bytes");
                            let reply = n * (4 + payload);
                            ((n, 2 * n, n, 2 * n, reply), per_call(1, 1, 1, 1))
                        }
                        Pilaf => {
                            let rx = 8 * (out - 2 * n) + n * (16 + payload);
                            ((out + n, out + n, out, n, rx), per_call(0, 0, 1, 1))
                        }
                        Farm => {
                            let rx = 32 * (out - n) + n * payload;
                            ((out + n, out + n, out, n, rx), per_call(0, 0, 1, 1))
                        }
                        _ => {
                            let rest = if payload > 1024 { n } else { 0 };
                            let rx = 1040 * (out - n - rest) + rest * payload.saturating_sub(1024);
                            ((out, out, out - n, 0, rx), per_call(0, 0, 0, 0))
                        }
                    };
                    assert_eq!(
                        program, want,
                        "{what}: client doorbells, WRs, completions, memcpys, bytes in"
                    );
                    assert_eq!(each_call(&what, &e.server), server, "{what}: server per call");
                    assert_eq!(e.client_allocs, n, "{what}: client allocations");
                    assert_eq!(e.server_allocs, n, "{what}: server allocations");
                    assert_eq!(e.server.registered_bytes, 0, "{what}: server registrations");
                }
            }
        }
    }
}

/// What each side of the four kinds pins once connected, at `max_msg`
/// 64 KiB and `ring_slots` 16 (one ring slot is `4 + max_msg`). Only the
/// side that receives on a SEND ring registers it: the Pilaf/FaRM server
/// and the HERD client. RFP registers no ring at all.
#[test]
fn each_side_registers_only_the_regions_it_touches() {
    use ProtocolKind::*;
    const MAX: u64 = 64 * 1024;
    const RING: u64 = 16 * (4 + MAX);
    let rows = [
        // Client: staging slot + landing. Server: board + request ring.
        (Pilaf, (4 + MAX) + MAX, (32 + MAX) + RING),
        (Farm, (4 + MAX) + MAX, (32 + MAX) + RING),
        // Client: request stage + landing behind the header. Server:
        // request region + board.
        (Rfp, (16 + MAX) + (16 + MAX), (16 + MAX) + (32 + MAX)),
        // Client: request stage + reply ring. Server: request region, the
        // 1 B target of the notify receives, reply staging slot.
        (Herd, (16 + MAX) + RING, (16 + MAX) + 1 + (4 + MAX)),
    ];
    for (kind, client, server) in rows {
        let e = echoes(kind, 64, SimConfig::fast_test(), PollMode::Busy);
        assert_eq!(e.registered, (client, server), "{kind}: (client, server) registered bytes");
    }
}
