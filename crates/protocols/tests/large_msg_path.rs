//! Allocation-count proof for the large-message path (DESIGN §4k).
//!
//! A 256 KiB rendezvous echo is staged once and landed once per hop, and
//! the transport allocates nothing of its own: after warm-up the only
//! message-sized heap buffer a call creates is the reply `Vec` that
//! `RpcClient::call` returns. The server's transport — everything in
//! `serve_one` outside the handler — lands the request in a pooled buffer
//! and allocates nothing at all. Counted, not timed: a counting
//! `GlobalAlloc` (`support`) tracks the two threads separately, and the
//! server's handler (whose reply `Vec` is the application's) switches its
//! thread's tracking off while it runs.

mod support;

use hat_protocols::{accept_server, connect_client, ProtocolConfig, ProtocolKind};
use hat_rdma_sim::{Fabric, SimConfig};
use support::{stock_pool, track, tracked, Counts};

const PAYLOAD: usize = 256 * 1024;
const WARMUP: usize = 8;
const MEASURED: usize = 16;

/// (client counts, server-transport counts) over `MEASURED` warmed echoes,
/// on a stocked buffer pool ([`stock_pool`]: without it, a timing-dependent
/// peak of live 64 B control-message snapshots failed about 1 run in 50).
fn measure(kind: ProtocolKind) -> (Counts, Counts) {
    stock_pool(PAYLOAD);
    let fabric = Fabric::new(SimConfig::fast_test());
    let cnode = fabric.add_node("client");
    let snode = fabric.add_node("server");
    let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
    let cfg = ProtocolConfig { max_msg: PAYLOAD, ..Default::default() };

    let scfg = cfg.clone();
    let server = std::thread::spawn(move || {
        let mut server = accept_server(kind, sep, scfg).unwrap();
        // The handler is the application: its reply `Vec` is not the
        // transport's, so it runs untracked.
        let mut handler = |req: &[u8]| {
            let was = track(false);
            let reply = req.to_vec();
            track(was);
            reply
        };
        for _ in 0..WARMUP {
            assert!(server.serve_one(&mut handler).unwrap());
        }
        let ((), transport) = tracked(|| {
            for _ in 0..MEASURED {
                assert!(server.serve_one(&mut handler).unwrap());
            }
        });
        (transport, server)
    });
    let mut client = connect_client(kind, cep, cfg).unwrap();

    let request: Vec<u8> = (0..PAYLOAD).map(|i| (i % 251) as u8).collect();
    for _ in 0..WARMUP {
        assert_eq!(client.call(&request).unwrap(), request);
    }
    let ((), in_call) = tracked(|| {
        for _ in 0..MEASURED {
            assert!(client.call(&request).unwrap() == request);
        }
    });
    let (transport, _server) = server.join().unwrap();
    (in_call, transport)
}

#[test]
fn a_warmed_rendezvous_echo_allocates_only_the_reply_it_returns() {
    for kind in [ProtocolKind::WriteRndv, ProtocolKind::ReadRndv] {
        let (client, server) = measure(kind);
        let calls = MEASURED as u64;
        assert_eq!(
            client.large, calls,
            "{kind}: one message-sized buffer per call — the reply — inside `call`: {client:?}"
        );
        assert!(
            client.large_bytes as f64 <= 1.01 * (PAYLOAD as u64 * calls) as f64,
            "{kind}: {} B allocated for {calls} x {PAYLOAD} B replies",
            client.large_bytes
        );
        assert_eq!(
            server.large, 0,
            "{kind}: the server's transport lands requests in pooled buffers: {server:?}"
        );
        // Control messages travel by value and headers are read into the
        // stack, so nothing small is allocated either.
        assert_eq!(client.events, calls, "{kind}: client allocations besides the reply");
        assert_eq!(server.events, 0, "{kind}: server transport allocations");
    }
}
