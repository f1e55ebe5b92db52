//! Connection setup: a dialer that never sends its handshake, or stalls
//! halfway through it, delays no other connection and no shutdown, a
//! window is bounded by the queue pair's receive depth rather than by a
//! second hand-kept number, and a connection that closes gives its
//! server-side memory back.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hatrpc::core::engine::{CallPolicy, HatClient, HatServer, ServerPolicy};
use hatrpc::core::selection::Selection;
use hatrpc::core::service::ServiceSchema;
use hatrpc::protocols::{
    exchange_blobs, onesided_service, OneSidedHost, OneSidedReader, ProtocolKind,
};
use hatrpc::rdma::{Endpoint, Fabric, Node, PollMode, RecvWr, SimConfig, RECV_DEPTH};

/// What a silent dialer may cost anyone else.
const BOUND: Duration = Duration::from_secs(2);

const IDL: &str = r#"
    service Setup {
        binary plain(1: binary p) [ hint: perf_goal = latency, payload_size = 512; ]
        binary just_past(1: binary p) [ hint: perf_goal = latency, payload_size = 512, queue_depth = 513; ]
        binary deepest(1: binary p) [ hint: perf_goal = latency, payload_size = 512, queue_depth = 1024; ]
        binary big(1: binary p) [ hint: payload_size = 64K; ]
        binary big_window(1: binary p) [ hint: payload_size = 64K, queue_depth = 2; ]
    }
"#;

fn schema() -> ServiceSchema {
    ServiceSchema::parse(IDL, "Setup").unwrap()
}

fn serve(fabric: &Fabric, policy: ServerPolicy) -> (Arc<Node>, HatServer) {
    let snode = fabric.add_node("server");
    let echo = Arc::new(|| Box::new(|req: &[u8]| req.to_vec()) as Box<_>);
    let server = HatServer::serve(fabric, &snode, "setup", schema(), policy, echo);
    (snode, server)
}

/// A client on its own node whose every wait is bounded by [`BOUND`].
fn bounded_client(fabric: &Fabric, name: &str) -> HatClient {
    let cnode = fabric.add_node(name);
    HatClient::new(fabric, &cnode, "setup", &schema())
        .with_policy(CallPolicy { deadline: BOUND, ..CallPolicy::default() })
}

/// A dial left open and silent: it never sends a preamble. Returns once
/// the server has posted the receive its handshake waits on, so whatever
/// the test does next meets a server already waiting on this dialer.
fn silent_dial(fabric: &Fabric, server: &Node, service: &str) -> Endpoint {
    let posted = server.stats_snapshot().recvs_posted;
    let node = fabric.add_node("silent");
    let ep = fabric.dial(&node, service).unwrap();
    let start = Instant::now();
    while server.stats_snapshot().recvs_posted == posted {
        assert!(start.elapsed() < BOUND, "the server never began the silent handshake");
        std::thread::yield_now();
    }
    ep
}

/// Under both policies: `plain` is served on a thread of its own, and
/// `big_window` (depth 2) is adopted by the reactor's driver.
#[test]
fn a_silent_dialer_does_not_stall_another_clients_first_call() {
    for (policy, func) in [(ServerPolicy::Threaded, "plain"), (ServerPolicy::Reactor, "big_window")]
    {
        let fabric = Fabric::new(SimConfig::fast_test());
        let (snode, server) = serve(&fabric, policy);
        let _silent = silent_dial(&fabric, &snode, "setup");
        let mut client = bounded_client(&fabric, "client");
        let start = Instant::now();
        assert_eq!(client.call(func, b"ping").unwrap(), b"ping", "{policy:?}");
        assert!(start.elapsed() < BOUND, "{policy:?}: first call took {:?}", start.elapsed());
        let adopted = snode.stats_snapshot().reactor_parked_hwm;
        assert_eq!(adopted > 0, policy == ServerPolicy::Reactor, "{policy:?}: parked {adopted}");
        drop(client);
        server.shutdown();
    }
}

#[test]
fn a_silent_dialer_does_not_stall_shutdown() {
    for policy in [ServerPolicy::Threaded, ServerPolicy::Reactor] {
        let fabric = Fabric::new(SimConfig::fast_test());
        let (snode, server) = serve(&fabric, policy);
        let _silent = silent_dial(&fabric, &snode, "setup");
        let start = Instant::now();
        server.shutdown();
        assert!(start.elapsed() < BOUND, "{policy:?}: shutdown took {:?}", start.elapsed());
    }
}

/// A dial that sends a Direct-WriteIMM preamble for `plain`, takes the
/// server's half of the wire's own handshake and never sends its half, so
/// the server's build waits in that handshake. Returns once the server's
/// half has arrived.
fn stalled_dial(fabric: &Fabric, service: &str) -> Endpoint {
    let node = fabric.add_node("stalled");
    let ep = fabric.dial(&node, service).unwrap();
    // The engine's preamble: kind, client poll (busy), max_msg,
    // queue_depth, scope length, scope.
    let kind = ProtocolKind::ALL.iter().position(|&k| k == ProtocolKind::DirectWriteImm).unwrap();
    let mut preamble = vec![kind as u8, 0];
    preamble.extend_from_slice(&4096u64.to_le_bytes());
    preamble.extend_from_slice(&1u32.to_le_bytes());
    preamble.extend_from_slice(&(b"plain".len() as u16).to_le_bytes());
    preamble.extend_from_slice(b"plain");
    exchange_blobs(&ep, &preamble).unwrap();
    let mr = ep.pd().register(256).unwrap();
    ep.post_recv(RecvWr::new(0, mr, 0, 256)).unwrap();
    ep.recv_cq().poll_timeout(PollMode::Busy, BOUND.as_nanos() as u64).unwrap();
    ep
}

/// A connection whose build stalls in its protocol's handshake is closed
/// by shutdown, not waited out for the handshake's 30 s timeout.
#[test]
fn a_dialer_stalled_in_the_wire_handshake_does_not_stall_shutdown() {
    for policy in [ServerPolicy::Threaded, ServerPolicy::Reactor] {
        let fabric = Fabric::new(SimConfig::fast_test());
        let (_snode, server) = serve(&fabric, policy);
        let stalled = stalled_dial(&fabric, "setup");
        let start = Instant::now();
        server.shutdown();
        assert!(start.elapsed() < BOUND, "{policy:?}: shutdown took {:?}", start.elapsed());
        assert!(!stalled.is_alive(), "{policy:?}: the stalled connection was not refused");
    }
}

#[test]
fn a_silent_side_channel_dialer_does_not_stall_a_onesided_reader() {
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let host = OneSidedHost::start(&fabric, &snode, "kv").unwrap();
    host.index().apply_put(b"k", b"v");
    let _silent = silent_dial(&fabric, &snode, &onesided_service("kv"));
    let cnode = fabric.add_node("reader");
    let start = Instant::now();
    let mut reader = OneSidedReader::connect(&fabric, &cnode, "kv").unwrap();
    assert_eq!(reader.get(b"k").unwrap(), Ok(b"v".to_vec()));
    assert!(start.elapsed() < BOUND, "first one-sided GET took {:?}", start.elapsed());
    let start = Instant::now();
    host.shutdown();
    assert!(start.elapsed() < BOUND, "host shutdown took {:?}", start.elapsed());
}

/// A `queue_depth` hint past the receive depth is clamped to it: the
/// channel opens with a window of [`RECV_DEPTH`] and serves single calls
/// and windows alike, on a thread or on the reactor.
#[test]
fn queue_depth_hints_past_the_receive_depth_serve_call_and_call_many() {
    for policy in [ServerPolicy::Threaded, ServerPolicy::Reactor] {
        let fabric = Fabric::new(SimConfig::fast_test());
        let (_snode, server) = serve(&fabric, policy);
        let mut client = bounded_client(&fabric, "client");
        for func in ["just_past", "deepest"] {
            assert_eq!(client.call(func, b"one").unwrap(), b"one", "{policy:?} {func}");
            let requests: Vec<Vec<u8>> =
                (0..RECV_DEPTH + 40).map(|i| (i as u32).to_le_bytes().to_vec()).collect();
            let responses = client.call_many(func, &requests).unwrap();
            assert_eq!(responses, requests, "{policy:?} {func}");
        }
        drop(client);
        server.shutdown();
    }
}

/// A closed connection gives its server-side memory back while the server
/// runs, on a thread per connection and on the reactor: after fifty
/// clients that each make one call and leave, the server holds at most two
/// connections' worth of registered memory.
#[test]
fn closed_connections_release_their_server_side_memory() {
    let pin = Selection { protocol: ProtocolKind::EagerSendRecv, poll: PollMode::Event };
    for (policy, func) in [(ServerPolicy::Threaded, "big"), (ServerPolicy::Reactor, "big_window")] {
        let fabric = Fabric::new(SimConfig::fast_test());
        let (snode, server) = serve(&fabric, policy);
        let cnode = fabric.add_node("client");
        let base = snode.stats_snapshot().registered_bytes;
        let registered = || snode.stats_snapshot().registered_bytes.saturating_sub(base);
        let mut one_conn = 0;
        for i in 0..50 {
            let mut client = HatClient::pinned(&fabric, &cnode, "setup", &schema(), pin);
            assert_eq!(client.call(func, b"ping").unwrap(), b"ping", "{policy:?} client {i}");
            if i == 0 {
                one_conn = registered();
            }
        }
        assert!(one_conn > 0, "{policy:?}: a connection registers memory");
        let start = Instant::now();
        while registered() > 2 * one_conn {
            let held = registered();
            assert!(
                start.elapsed() < BOUND,
                "{policy:?}: {held} B registered after 50 closed connections of {one_conn} B each"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }
}
