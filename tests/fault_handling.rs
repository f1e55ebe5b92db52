//! Failure-path integration tests: disconnects, malformed traffic,
//! resource exhaustion — the paths a production RPC framework must
//! survive.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hatrpc::core::engine::{CallPolicy, HatClient, HatServer, ServerPolicy};
use hatrpc::core::service::ServiceSchema;
use hatrpc::core::CoreError;
use hatrpc::protocols::{ProtocolConfig, ProtocolKind};
use hatrpc::rdma::{Fabric, FaultPlan, FaultScope, RdmaError, SimConfig};

const IDL: &str = r#"
    service Svc {
        hint: perf_goal = latency;
        binary echo(1: binary p) [ hint: payload_size = 4K; ]
    }
"#;

#[test]
fn client_survives_server_side_handler_panic_free_errors() {
    // A handler that returns an exception reply for some inputs.
    let schema = ServiceSchema::parse(IDL, "Svc").unwrap();
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let server = HatServer::serve(
        &fabric,
        &snode,
        "svc",
        schema.clone(),
        ServerPolicy::Threaded,
        Arc::new(|| {
            let mut router = hatrpc::core::dispatch::Router::new().add("echo", |input, output| {
                use hatrpc::core::protocol::{TInputProtocol, TOutputProtocol, TType};
                input.read_struct_begin()?;
                let mut payload = Vec::new();
                loop {
                    let (fty, fid) = input.read_field_begin()?;
                    if fty == TType::Stop {
                        break;
                    }
                    if fid == 1 {
                        payload = input.read_binary()?;
                    } else {
                        input.skip(fty)?;
                    }
                }
                if payload.starts_with(b"boom") {
                    return Err(CoreError::Application("handler failure".into()));
                }
                output.write_struct_begin("r");
                output.write_field_begin(TType::String, 0);
                output.write_binary(&payload);
                output.write_field_end();
                output.write_field_stop();
                output.write_struct_end();
                Ok(())
            });
            Box::new(move |req: &[u8]| router.handle(req))
        }),
    );
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "svc", &schema);

    // Raw engine call returns the exception reply bytes; the typed layer
    // (dispatch::decode_reply) surfaces it as an error — and the
    // connection stays healthy for later calls.
    let req = hatrpc::core::dispatch::encode_call("echo", 1, |out| {
        use hatrpc::core::protocol::{TOutputProtocol, TType};
        out.write_struct_begin("args");
        out.write_field_begin(TType::String, 1);
        out.write_binary(b"boom now");
        out.write_field_end();
        out.write_field_stop();
        out.write_struct_end();
    });
    let reply = client.call("echo", &req).unwrap();
    let err = hatrpc::core::dispatch::decode_reply(&reply, 1, |_| Ok(())).unwrap_err();
    assert!(matches!(err, CoreError::Application(m) if m.contains("handler failure")));

    let req2 = hatrpc::core::dispatch::encode_call("echo", 2, |out| {
        use hatrpc::core::protocol::{TOutputProtocol, TType};
        out.write_struct_begin("args");
        out.write_field_begin(TType::String, 1);
        out.write_binary(b"fine");
        out.write_field_end();
        out.write_field_stop();
        out.write_struct_end();
    });
    let reply2 = client.call("echo", &req2).unwrap();
    assert!(!reply2.is_empty(), "connection survives an application exception");
    server.shutdown();
}

#[test]
fn dialing_a_missing_service_fails_cleanly() {
    let fabric = Fabric::new(SimConfig::fast_test());
    let cnode = fabric.add_node("client");
    let err = fabric.dial(&cnode, "no-such-service").unwrap_err();
    assert!(matches!(err, RdmaError::NoSuchService(_)));
    assert!(fabric.dial_ipoib(&cnode, "nope").is_err());
}

#[test]
fn protocol_servers_handle_abrupt_client_exit_mid_stream() {
    for kind in [
        ProtocolKind::EagerSendRecv,
        ProtocolKind::DirectWriteImm,
        ProtocolKind::WriteRndv,
        ProtocolKind::Rfp,
    ] {
        let fabric = Fabric::new(SimConfig::fast_test());
        let c = fabric.add_node("c");
        let s = fabric.add_node("s");
        let (cep, sep) = fabric.connect(&c, &s).unwrap();
        let cfg = ProtocolConfig { max_msg: 1024, ..Default::default() };
        let scfg = cfg.clone();
        let server_thread = std::thread::spawn(move || {
            let mut server = hatrpc::protocols::accept_server(kind, sep, scfg).unwrap();
            // Serve until disconnect; must return Ok, not hang or panic.
            let mut served = 0;
            while server.serve_one(&mut |r| r.to_vec()).unwrap() {
                served += 1;
            }
            served
        });
        let mut client = hatrpc::protocols::connect_client(kind, cep, cfg).unwrap();
        for i in 0..3 {
            client.call(&[i; 64]).unwrap();
        }
        drop(client); // abrupt exit
        let served = server_thread.join().unwrap();
        assert_eq!(served, 3, "{kind}");
    }
}

#[test]
fn kvdb_reader_exhaustion_is_reported_not_deadlocked() {
    use hatrpc::kvdb::{Database, DbConfig, KvError, SyncMode};
    let db = Database::new(DbConfig {
        max_readers: 3,
        sync_mode: SyncMode::NoSync,
        ..Default::default()
    });
    let _r1 = db.begin_read().unwrap();
    let _r2 = db.begin_read().unwrap();
    let _r3 = db.begin_read().unwrap();
    assert_eq!(db.begin_read().unwrap_err(), KvError::ReadersFull);
    // Writers are unaffected by reader exhaustion.
    db.put(b"k", b"v");
    assert_eq!(db.get(b"k").unwrap(), b"v");
}

#[test]
fn oversized_inline_and_bad_rkey_are_rejected_at_post_time() {
    use hatrpc::rdma::{RemoteBuf, SendWr};
    let fabric = Fabric::new(SimConfig::fast_test());
    let a = fabric.add_node("a");
    let b = fabric.add_node("b");
    let (ea, _eb) = fabric.connect(&a, &b).unwrap();
    // Oversized inline data.
    let err = ea.post_send(&[SendWr::send_inline(1, &[0u8; 100_000])]).unwrap_err();
    assert!(matches!(err, RdmaError::InlineTooLarge { .. }));
    // Bogus remote key.
    let mr = ea.pd().register(64).unwrap();
    let bogus = RemoteBuf { node_id: 424242, rkey: 99, offset: 0, len: 64 };
    let err2 = ea.post_send(&[SendWr::read(2, mr.slice(0, 64), bogus)]).unwrap_err();
    assert!(matches!(err2, RdmaError::InvalidRKey(_)));
}

#[test]
fn unknown_method_over_full_stack_returns_exception() {
    let schema = ServiceSchema::parse(IDL, "Svc").unwrap();
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let server = HatServer::serve(
        &fabric,
        &snode,
        "svc",
        schema.clone(),
        ServerPolicy::Threaded,
        Arc::new(|| {
            let mut router = hatrpc::core::dispatch::Router::new();
            Box::new(move |req: &[u8]| router.handle(req))
        }),
    );
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "svc", &schema);
    let req = hatrpc::core::dispatch::encode_call("nonexistent", 7, |out| {
        use hatrpc::core::protocol::TOutputProtocol;
        out.write_field_stop();
    });
    let reply = client.call("nonexistent", &req).unwrap();
    let err = hatrpc::core::dispatch::decode_reply(&reply, 7, |_| Ok(())).unwrap_err();
    assert!(matches!(err, CoreError::Application(m) if m.contains("nonexistent")));
    server.shutdown();
}

/// A `get` whose arguments hold an unknown field nested 100 000 structs
/// deep (300 015 B). Skipping it recursed once per level and overflowed
/// the serving thread's stack, aborting the server process; now the skip
/// stops at 64 levels, the server answers with an exception and serves
/// the next call.
#[test]
fn a_deeply_nested_unknown_field_gets_an_exception_and_the_server_serves_on() {
    use hatrpc::core::dispatch::decode_reply;
    use hatrpc::core::protocol::binary::{BinaryIn, BinaryOut};
    use hatrpc::core::protocol::{TInputProtocol, TMessageType, TOutputProtocol, TType};
    use hatrpc::hatkv::{HatKVClient, HatKvServer, KvVariant};
    use hatrpc::kvdb::{DbConfig, SyncMode};

    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let config = DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() };
    let server = HatKvServer::start(&fabric, &snode, "kv", KvVariant::ServiceHints, config);
    let cnode = fabric.add_node("client");
    let mut kv = HatKVClient::new(HatClient::new(&fabric, &cnode, "kv", server.schema()));
    kv.put(b"key".to_vec(), b"value".to_vec()).unwrap();

    let mut out = BinaryOut::new();
    out.write_message_begin("get", TMessageType::Call, 1);
    for _ in 0..100_000 {
        out.write_field_begin(TType::Struct, 99);
    }
    let nested = out.into_bytes();
    assert_eq!(nested.len(), 300_015);
    let reply = kv.engine().call("get", &nested).unwrap();
    let header = BinaryIn::new(&reply).read_message_begin().unwrap();
    assert_eq!(header.ty, TMessageType::Exception);
    let err = decode_reply(&reply, header.seq, |_| Ok(())).unwrap_err();
    assert!(matches!(&err, CoreError::Application(m) if m.contains("64 levels")), "{err}");

    assert_eq!(kv.get(b"key".to_vec()).unwrap(), b"value");
    drop(kv);
    server.shutdown();
}

fn echo_factory() -> hatrpc::core::engine::HandlerFactory {
    Arc::new(|| Box::new(|req: &[u8]| req.to_vec()))
}

/// Acceptance: with a fault plan killing the server's node mid-flight,
/// `HatClient::call` surfaces a typed QP/timeout error within the
/// configured deadline — it never hangs on the dead peer.
#[test]
fn killed_server_node_fails_call_within_deadline() {
    let schema = ServiceSchema::parse(IDL, "Svc").unwrap();
    // The server's node dies after a few send work requests: the preamble
    // handshake plus the first two echo replies go through, then the node
    // is gone while the client awaits its third reply.
    let plan = FaultPlan::new(1234).kill_node_after(FaultScope::Node("server".into()), 3);
    let fabric = Fabric::new(SimConfig::fast_test().with_fault_plan(plan));
    let snode = fabric.add_node("server");
    let server = HatServer::serve(
        &fabric,
        &snode,
        "svc",
        schema.clone(),
        ServerPolicy::Threaded,
        echo_factory(),
    );
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "svc", &schema).with_policy(CallPolicy {
        deadline: Duration::from_secs(2),
        retries: 0,
        backoff: Duration::ZERO,
    });

    // The handshake consumes some of the server's WR budget; the kill
    // lands on one of the early replies. Every call up to that point
    // succeeds, and the first affected call must fail with a typed
    // transport error well before the 30-second default would elapse.
    let t0 = Instant::now();
    let mut oks = 0u64;
    let mut saw_typed_error = false;
    for i in 0..6u8 {
        let req = [i; 8];
        match client.call("echo", &req) {
            Ok(resp) => {
                assert_eq!(resp, req, "call {i}");
                oks += 1;
            }
            Err(CoreError::Rdma(
                RdmaError::Timeout | RdmaError::QpError(_) | RdmaError::Disconnected,
            )) => {
                saw_typed_error = true;
                break;
            }
            Err(other) => panic!("expected a typed transport error, got {other:?}"),
        }
    }
    assert!(saw_typed_error, "calls against a dead node kept succeeding");
    assert!(oks >= 1, "the WR budget allows at least one call before the kill");
    assert!(
        t0.elapsed() < Duration::from_secs(15),
        "failure took {:?}, not bounded by the 2s per-wait deadline",
        t0.elapsed()
    );
    assert!(!snode.is_alive(), "fault plan killed the server node");

    // Outcome counters: something failed or timed out, nothing was retried.
    let stats = cnode.stats_snapshot();
    assert_eq!(stats.calls_ok, oks);
    assert_eq!(stats.calls_retried, 0);
    assert!(stats.calls_timed_out + stats.calls_failed >= 1, "failure must be counted: {stats:?}");
    drop(client);
    server.shutdown();
}

/// Acceptance: with retries enabled, a client call issued after the
/// server went away succeeds once a replacement server comes up — the
/// engine reconnects, re-handshakes, and re-issues the request.
#[test]
fn retries_recover_against_a_restarted_server() {
    let schema = ServiceSchema::parse(IDL, "Svc").unwrap();
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let server = HatServer::serve(
        &fabric,
        &snode,
        "svc",
        schema.clone(),
        ServerPolicy::Threaded,
        echo_factory(),
    );
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "svc", &schema).with_policy(CallPolicy {
        deadline: Duration::from_secs(2),
        retries: 6,
        backoff: Duration::from_millis(10),
    });
    assert_eq!(client.call("echo", b"warm").unwrap(), b"warm");

    // Kill the first server, then bring a replacement up after a delay —
    // while it is down, dials fail with NoSuchService (retryable).
    server.shutdown();
    let schema2 = schema.clone();
    let fabric2 = fabric.clone();
    let spawner = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        let snode2 = fabric2.add_node("server2");
        HatServer::serve(&fabric2, &snode2, "svc", schema2, ServerPolicy::Threaded, echo_factory())
    });

    // The cached channel is dead and the service briefly unregistered; the
    // retry loop must ride through both failure modes.
    assert_eq!(client.call("echo", b"again").unwrap(), b"again");
    let stats = cnode.stats_snapshot();
    assert!(stats.calls_retried >= 1, "recovery must go through the retry path: {stats:?}");
    assert_eq!(stats.calls_ok, 2);

    drop(client);
    spawner.join().unwrap().shutdown();
}

/// Seeded fault plans are replayable: two identical runs under the same
/// plan drop the same completions and produce call-by-call identical
/// outcomes; a different seed produces a different (but equally
/// deterministic) schedule.
#[test]
fn dropped_completions_are_deterministic_through_the_protocol_stack() {
    fn run(seed: u64) -> (Vec<bool>, u64) {
        let plan = FaultPlan::new(seed).drop_completions(FaultScope::Node("client".into()), 0.4);
        let fabric = Fabric::new(SimConfig::fast_test().with_fault_plan(plan));
        let cnode = fabric.add_node("client");
        let snode = fabric.add_node("server");
        let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
        // Short per-op deadline on the client so dropped replies fail
        // fast. The server gets a long one: it must keep serving while the
        // client sits out its timeouts (it exits on disconnect, not on
        // idleness), otherwise server patience races client stalls and the
        // outcome stops being a pure function of the drop schedule.
        let cfg = ProtocolConfig { max_msg: 256, op_timeout_ns: 80_000_000, ..Default::default() };
        let mut scfg = cfg.clone();
        scfg.op_timeout_ns = 10_000_000_000;
        let server_thread = std::thread::spawn(move || {
            let mut server =
                hatrpc::protocols::accept_server(ProtocolKind::EagerSendRecv, sep, scfg).unwrap();
            while let Ok(true) = server.serve_one(&mut |r| r.to_vec()) {}
        });
        let mut client =
            hatrpc::protocols::connect_client(ProtocolKind::EagerSendRecv, cep, cfg).unwrap();
        let outcomes: Vec<bool> = (0..12u8).map(|i| client.call(&[i; 32]).is_ok()).collect();
        drop(client);
        server_thread.join().unwrap();
        (outcomes, cnode.stats_snapshot().faults_dropped)
    }

    let (outcomes_a, dropped_a) = run(7);
    let (outcomes_b, dropped_b) = run(7);
    assert_eq!(outcomes_a, outcomes_b, "same seed must replay identically");
    assert_eq!(dropped_a, dropped_b);
    assert!(dropped_a >= 1, "a 40% drop rate over 12 replies must drop something");
    assert!(outcomes_a.iter().any(|ok| *ok), "some calls must still succeed");

    let (outcomes_c, _) = run(8);
    assert_ne!(outcomes_a, outcomes_c, "a different seed must diverge");
}

/// A QP flushed into the error state by the fault plan poisons that
/// connection only: the engine's retry path replaces it with a fresh QP
/// and the call stream continues.
#[test]
fn qp_flush_mid_stream_is_survivable_with_retries() {
    let schema = ServiceSchema::parse(IDL, "Svc").unwrap();
    // Flush the client's QP after 8 send WRs. Every engine connection
    // costs 2 client sends (handshake + preamble ack wait is one send;
    // each call is one more), so the flush lands mid-call-stream.
    let plan = FaultPlan::new(99).flush_qp_after(FaultScope::Node("client".into()), 8);
    let fabric = Fabric::new(SimConfig::fast_test().with_fault_plan(plan));
    let snode = fabric.add_node("server");
    let server = HatServer::serve(
        &fabric,
        &snode,
        "svc",
        schema.clone(),
        ServerPolicy::Threaded,
        echo_factory(),
    );
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "svc", &schema).with_policy(CallPolicy {
        deadline: Duration::from_secs(5),
        retries: 2,
        backoff: Duration::from_millis(1),
    });

    for i in 0..12u8 {
        let req = [i; 16];
        assert_eq!(client.call("echo", &req).unwrap(), req, "call {i}");
    }
    let stats = cnode.stats_snapshot();
    assert_eq!(stats.calls_ok, 12, "every call eventually succeeds");
    assert!(stats.calls_retried >= 1, "the flush must have forced a retry: {stats:?}");
    assert!(stats.qp_errors >= 1, "the flush must be visible in qp_errors: {stats:?}");
    drop(client);
    server.shutdown();
}

/// Satellite acceptance for the pipelined path: a seeded QP flush landing
/// MID-WINDOW (several requests in flight, none yet completed) must not
/// lose or duplicate any request — `call_many` drains what it can, drops
/// the poisoned channel, reconnects, and re-issues exactly the requests
/// that never banked a response.
#[test]
fn qp_flush_mid_window_preserves_exactly_once_pipelined_completion() {
    let idl = r#"
        service Piped {
            binary piped(1: binary p) [ hint: perf_goal = latency, payload_size = 512, queue_depth = 8; ]
        }
    "#;
    let schema = ServiceSchema::parse(idl, "Piped").unwrap();
    // Flush each client QP after 20 send WRs: the handshake costs one, so
    // the first connection dies with a full depth-8 window repeatedly in
    // flight. The counter is per QP, so every reconnect buys a fresh
    // budget and the batch grinds forward ~19 calls per connection.
    let plan = FaultPlan::new(0xD00B).flush_qp_after(FaultScope::Node("client".into()), 20);
    let fabric = Fabric::new(SimConfig::fast_test().with_fault_plan(plan));
    let snode = fabric.add_node("server");
    let server = HatServer::serve(
        &fabric,
        &snode,
        "piped",
        schema.clone(),
        ServerPolicy::Threaded,
        echo_factory(),
    );
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "piped", &schema).with_policy(CallPolicy {
        deadline: Duration::from_secs(5),
        retries: 6,
        backoff: Duration::from_millis(1),
    });

    // Unique payloads so a duplicated or misrouted completion is visible.
    let requests: Vec<Vec<u8>> = (0..40u16)
        .map(|i| {
            let mut p = vec![0u8; 96];
            p[0] = (i >> 8) as u8;
            p[1] = i as u8;
            p[2..].iter_mut().enumerate().for_each(|(j, b)| *b = (i as usize * 31 + j) as u8);
            p
        })
        .collect();
    let responses = client.call_many("piped", &requests).unwrap();
    assert_eq!(responses, requests, "every request completes exactly once, in order");

    let stats = cnode.stats_snapshot();
    assert!(stats.calls_retried >= 2, "40 calls through 20-WR QPs must retry: {stats:?}");
    assert!(stats.qp_errors >= 1, "the flush must be visible in qp_errors: {stats:?}");
    assert!(stats.pipelined_calls >= 40, "the batch rode the pipelined path: {stats:?}");
    assert!(stats.inflight_hwm >= 8, "the window must have filled before dying: {stats:?}");
    drop(client);
    server.shutdown();
}

#[test]
fn hint_typos_degrade_gracefully_not_fatally() {
    // Unknown keys and bad values are filtered with warnings; the service
    // still builds and serves.
    let idl = r#"
        service Typo {
            hint: perf_goal = warp_speed, made_up_key = 42;
            binary f(1: binary p)
        }
    "#;
    let doc = hat_idl::parse(idl).unwrap();
    let mut warnings = Vec::new();
    let resolved = hat_idl::hints::resolve_with_warnings(
        &doc.services[0].hints,
        None,
        hat_idl::hints::Side::Client,
        &mut warnings,
    );
    assert_eq!(warnings.len(), 2);
    assert_eq!(resolved.perf_goal, None, "bad value filtered, not guessed");

    let schema = ServiceSchema::from_idl(&doc.services[0]);
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let server = HatServer::serve(
        &fabric,
        &snode,
        "typo",
        schema.clone(),
        ServerPolicy::Threaded,
        Arc::new(|| Box::new(|req: &[u8]| req.to_vec())),
    );
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "typo", &schema);
    assert_eq!(client.call("f", b"still works").unwrap(), b"still works");
    server.shutdown();
}
