//! Every fixed-protocol baseline — ATB's fixed and IPoIB modes, the YCSB
//! comparators — is a `HatServer` and a `HatClient` with Figure 6's choice
//! pinned (or hinted onto the socket). These tests pin what that costs and
//! what it fixes:
//!
//! * a pinned call runs the raw protocol's per-call program on each side,
//!   so a baseline's figure row still measures its protocol;
//! * a baseline server's `shutdown` returns with a client still connected,
//!   because the engine closes the endpoints it accepted.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hatrpc::atb::support::{latency_schema, serve, throughput_schema_depth, AtbClient};
use hatrpc::atb::Mode;
use hatrpc::core::engine::{HatClient, HatServer, ServerPolicy};
use hatrpc::core::selection::Selection;
use hatrpc::core::service::ServiceSchema;
use hatrpc::hatkv::comparators::{self, Comparator};
use hatrpc::hatkv::server::HatKvServer;
use hatrpc::kvdb::{DbConfig, ShardedDb, SyncMode};
use hatrpc::protocols::{
    accept_server, connect_client, ProtocolConfig, ProtocolKind, PIPELINED_KINDS,
};
use hatrpc::rdma::{Fabric, Node, NodeStatsSnapshot, PollMode, SimConfig};

const WARMUP: u64 = 8;
const CALLS: u64 = 32;
const PAYLOAD: u64 = 64;

type Handler = Box<dyn FnMut(&[u8]) -> Vec<u8> + Send>;

/// An echo handler that snapshots its node's counters on entry to request
/// `WARMUP + 1` and `WARMUP + CALLS + 1`: between them the server runs its
/// per-call program exactly `CALLS` times, whatever the phase at which a
/// kind's last completion of a call lands.
fn counting_echo(node: Arc<Node>, marks: Arc<Mutex<Vec<NodeStatsSnapshot>>>) -> Handler {
    let mut seen = 0;
    Box::new(move |req: &[u8]| {
        seen += 1;
        if seen == WARMUP + 1 || seen == WARMUP + CALLS + 1 {
            marks.lock().unwrap().push(node.stats_snapshot());
        }
        req.to_vec()
    })
}

/// Each side's counters over `CALLS` warmed 64 B echoes.
struct Program {
    client: NodeStatsSnapshot,
    server: NodeStatsSnapshot,
}

/// Echo `WARMUP`, then `CALLS` counted, then one more (it closes the
/// server's count) through `call`.
fn count(
    cnode: &Node,
    marks: &Mutex<Vec<NodeStatsSnapshot>>,
    mut call: impl FnMut(&[u8]) -> Vec<u8>,
) -> Program {
    let request = vec![0x5Au8; PAYLOAD as usize];
    let mut echo = || assert_eq!(call(&request), request);
    (0..WARMUP).for_each(|_| echo());
    let c0 = cnode.stats_snapshot();
    (0..CALLS).for_each(|_| echo());
    let client = cnode.stats_snapshot() - c0;
    echo();
    let marks = marks.lock().unwrap();
    assert_eq!(marks.len(), 2, "the server saw every request");
    Program { client, server: marks[1] - marks[0] }
}

/// The geometry a pinned client opens for a `payload_size = 64` function:
/// an 8 KiB channel, 16 ring slots, the 4 KiB Hybrid threshold.
fn geometry() -> ProtocolConfig {
    ProtocolConfig { max_msg: 8192, ring_slots: 16, eager_threshold: 4096, ..Default::default() }
}

fn echo_schema() -> ServiceSchema {
    ServiceSchema::parse(
        "service Echo { binary echo(1: binary p) [ hint: payload_size = 64; ] }",
        "Echo",
    )
    .unwrap()
}

/// The raw pair: `connect_client`/`accept_server` over one connection.
fn raw(kind: ProtocolKind) -> Program {
    let fabric = Fabric::new(SimConfig::fast_test());
    let cnode = fabric.add_node("client");
    let snode = fabric.add_node("server");
    let marks = Arc::new(Mutex::new(Vec::new()));
    let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
    let mut handler = counting_echo(snode.clone(), marks.clone());
    let server = std::thread::spawn(move || {
        let mut server = accept_server(kind, sep, geometry()).unwrap();
        server.serve_loop(&mut handler).unwrap();
    });
    let mut client = connect_client(kind, cep, geometry()).unwrap();
    let program = count(&cnode, &marks, |req| client.call(req).unwrap());
    drop(client);
    server.join().unwrap();
    program
}

/// The engine: a `HatServer` on an unhinted schema, a pinned `HatClient`.
fn pinned(kind: ProtocolKind) -> Program {
    let fabric = Fabric::new(SimConfig::fast_test());
    let cnode = fabric.add_node("client");
    let snode = fabric.add_node("server");
    let marks = Arc::new(Mutex::new(Vec::new()));
    let (node, server_marks) = (snode.clone(), marks.clone());
    let server = HatServer::serve(
        &fabric,
        &snode,
        "echo",
        ServiceSchema::unhinted("Echo"),
        ServerPolicy::Threaded,
        Arc::new(move || counting_echo(node.clone(), server_marks.clone())),
    );
    let selection = Selection { protocol: kind, poll: PollMode::Busy };
    let mut client = HatClient::pinned(&fabric, &cnode, "echo", &echo_schema(), selection);
    assert_eq!(client.selection_for("echo"), selection, "{kind}");
    let program = count(&cnode, &marks, |req| client.call("echo", req).unwrap());
    assert_eq!(program.client.calls_ok, CALLS, "{kind}: every call went through the engine");
    drop(client);
    server.shutdown();
    program
}

/// (doorbells, WRs, completions, memcpys) per call; a count that does not
/// divide evenly fails here.
fn per_call(what: &str, d: &NodeStatsSnapshot) -> (u64, u64, u64, u64) {
    let each = |n: u64| {
        assert_eq!(n % CALLS, 0, "{what}: {n} over {CALLS} calls");
        n / CALLS
    };
    (each(d.doorbells), each(d.wrs_posted), each(d.completions), each(d.memcpys))
}

/// The client program of Pilaf, FaRM and RFP as `window_parity` pins it:
/// the READs or memory polls repeat for as long as the server takes, so the
/// program is an identity over the client's one-sided operations `out`.
/// Returns (doorbells, WRs, completions, memcpys, bytes in), expected vs
/// measured.
fn read_family_identity(
    kind: ProtocolKind,
    c: &NodeStatsSnapshot,
) -> [(u64, u64, u64, u64, u64); 2] {
    let (n, out, p) = (CALLS, c.outbound_rdma, PAYLOAD);
    let want = match kind {
        ProtocolKind::Pilaf => (out + n, out + n, out, n, 8 * (out - 2 * n) + n * (16 + p)),
        ProtocolKind::Farm => (out + n, out + n, out, n, 32 * (out - n) + n * p),
        _ => (out, out, out - n, 0, 1040 * (out - n)),
    };
    [want, (c.doorbells, c.wrs_posted, c.completions, c.memcpys, c.bytes_rx)]
}

/// The per-call program table: every kind, engine vs raw pair, per side.
/// The seven wires and HERD match the raw pair exactly; Pilaf, FaRM and
/// RFP hold `window_parity`'s identities on both paths, and every server
/// matches exactly.
#[test]
fn a_pinned_baseline_keeps_the_raw_protocols_per_call_program() {
    use ProtocolKind::*;
    for kind in ProtocolKind::ALL {
        let (engine, raw) = (pinned(kind), raw(kind));
        let what = |side: &str, path: &str| format!("{kind} {side} ({path})");
        let server = per_call(&what("server", "engine"), &engine.server);
        assert_eq!(
            server,
            per_call(&what("server", "raw"), &raw.server),
            "{kind}: server per call"
        );
        match kind {
            Pilaf | Farm | Rfp => {
                for (path, p) in [("engine", &engine), ("raw", &raw)] {
                    let [want, got] = read_family_identity(kind, &p.client);
                    assert_eq!(got, want, "{}", what("client", path));
                }
            }
            _ => {
                let client = per_call(&what("client", "engine"), &engine.client);
                let want = per_call(&what("client", "raw"), &raw.client);
                assert_eq!(client, want, "{kind}: client per call");
            }
        }
    }
}

/// ATB at depth 4 in each mode, on a pipelined kind: the fixed baseline
/// and HatRPC keep a window of four on the schema's `queue_depth` hint;
/// IPoIB runs the batch one call at a time. Every echo is a `calls_ok`.
#[test]
fn atb_at_depth_4_keeps_its_window_in_every_mode() {
    let eager = Selection { protocol: ProtocolKind::EagerSendRecv, poll: PollMode::Event };
    for mode in [Mode::HatRpc, Mode::Fixed(eager.protocol, eager.poll), Mode::Ipoib] {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let cnode = fabric.add_node("client");
        let schema = throughput_schema_depth(512, 1, 4);
        let server = serve(&fabric, &snode, "atb", mode, &schema);
        let mut client = AtbClient::connect(&fabric, &cnode, "atb", mode, &schema);
        let payloads: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 512]).collect();
        assert_eq!(client.call_many("echo", 1, &payloads).unwrap(), payloads, "{}", mode.label());
        let stats = cnode.stats_snapshot();
        assert_eq!(stats.calls_ok, 32, "{}", mode.label());
        let selection = client.engine().selection_for("echo");
        match mode {
            Mode::Ipoib => assert_eq!(stats.pipelined_calls, 0, "IPoIB has no window"),
            _ => {
                assert!(PIPELINED_KINDS.contains(&selection.protocol), "{}", mode.label());
                assert_eq!(stats.pipelined_calls, 32, "{}", mode.label());
                assert_eq!(stats.inflight_hwm, 4, "{}", mode.label());
            }
        }
        if let Mode::Fixed(..) = mode {
            assert_eq!(selection, eager);
        }
        drop(client);
        server.shutdown();
    }
}

/// Run `shutdown` on its own thread and report how long it took, giving
/// up after `bound`; then let `client` go so a blocked server can finish.
fn shutdown_time<C>(shutdown: impl FnOnce() + Send + 'static, client: C) -> Option<Duration> {
    let (done, finished) = mpsc::channel();
    let start = Instant::now();
    let joiner = std::thread::spawn(move || {
        shutdown();
        let _ = done.send(start.elapsed());
    });
    let took = finished.recv_timeout(Duration::from_secs(1)).ok();
    drop(client);
    if took.is_some() {
        joiner.join().unwrap();
    }
    took
}

/// A baseline server's `shutdown` returns within a second while a client
/// is still connected — every ATB mode (each kind, busy and event, for the
/// fixed one) and every YCSB comparator.
#[test]
fn every_baseline_server_shuts_down_with_a_client_still_connected() {
    let mut modes = vec![Mode::HatRpc, Mode::Ipoib];
    for kind in ProtocolKind::ALL {
        modes.extend([Mode::Fixed(kind, PollMode::Busy), Mode::Fixed(kind, PollMode::Event)]);
    }
    let mut blocked = Vec::new();
    for mode in modes {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let cnode = fabric.add_node("client");
        let schema = latency_schema(512);
        let server = serve(&fabric, &snode, "atb", mode, &schema);
        let mut client = AtbClient::connect(&fabric, &cnode, "atb", mode, &schema);
        assert_eq!(client.call("echo", 1, &[7; 512]).unwrap(), [7; 512], "{}", mode.label());
        if shutdown_time(move || drop(server.shutdown()), client).is_none() {
            blocked.push(mode.label());
        }
    }
    for comparator in Comparator::ALL {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let cnode = fabric.add_node("client");
        let db = ShardedDb::new(DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() }, 1);
        let server = HatKvServer::start_with_db(&fabric, &snode, "kv", comparators::schema(), db);
        let mut client = comparator.connect(&fabric, &cnode, "kv");
        client.put(b"k".to_vec(), b"v".to_vec()).unwrap();
        if shutdown_time(move || server.shutdown(), client).is_none() {
            blocked.push(comparator.label().to_string());
        }
    }
    assert!(blocked.is_empty(), "shutdown still blocked after 1 s: {blocked:?}");
}
