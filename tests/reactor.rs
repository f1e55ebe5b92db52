//! Integration tests for the completion-driven reactor server policy:
//! one driver thread multiplexing every pipelined connection on a node,
//! async client calls against it, fault injection mid-window, and
//! drain-before-close shutdown.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hatrpc::core::engine::{CallPolicy, HatClient, HatServer, ServerPolicy};
use hatrpc::core::service::ServiceSchema;
use hatrpc::core::CoreError;
use hatrpc::rdma::{Fabric, FaultPlan, FaultScope, RdmaError, SimConfig};

const IDL: &str = r#"
    service Piped {
        binary piped(1: binary p) [ hint: perf_goal = latency, payload_size = 512, queue_depth = 8; ]
        binary plain(1: binary p) [ hint: perf_goal = latency, payload_size = 512; ]
    }
"#;

fn echo_factory() -> hatrpc::core::engine::HandlerFactory {
    Arc::new(|| Box::new(|req: &[u8]| req.to_vec()))
}

fn schema() -> ServiceSchema {
    ServiceSchema::parse(IDL, "Piped").unwrap()
}

/// Smoke: several clients' pipelined batches all serve correctly off the
/// single driver thread, and the reactor counters prove the multiplexed
/// path (not a per-connection thread) did the work.
#[test]
fn reactor_policy_serves_many_clients_on_one_driver() {
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let server =
        HatServer::serve(&fabric, &snode, "piped", schema(), ServerPolicy::Reactor, echo_factory());

    let mut handles = Vec::new();
    for c in 0..4u8 {
        let fabric = fabric.clone();
        let schema = schema();
        handles.push(std::thread::spawn(move || {
            let cnode = fabric.add_node(&format!("client-{c}"));
            let mut client = HatClient::new(&fabric, &cnode, "piped", &schema);
            let requests: Vec<Vec<u8>> = (0..24u8).map(|i| vec![c ^ i; 64]).collect();
            let responses = client.call_many("piped", &requests).unwrap();
            assert_eq!(responses, requests, "client {c}");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let stats = snode.stats_snapshot();
    assert!(stats.reactor_resumes >= 4, "each connection must resume on the driver: {stats:?}");
    assert!(stats.reactor_parked_hwm >= 1, "parked connections must be counted: {stats:?}");
    server.shutdown();
}

/// A busy window never waits on the host: over 64 back-to-back batches
/// the driver polls the sim clock, so it naps — and `reactor_wakeups`
/// counts a nap that ended with work found — only when the host
/// deschedules the client for 300 µs. A driver that parks between
/// windows counts one per window; a quiet host counts a handful in all.
#[test]
fn back_to_back_batches_keep_the_driver_off_the_host_clock() {
    const BATCHES: u64 = 64;
    const WINDOWS: u64 = BATCHES * 32 / 8;
    let fabric = Fabric::new(SimConfig::default());
    let snode = fabric.add_node("server");
    let server =
        HatServer::serve(&fabric, &snode, "piped", schema(), ServerPolicy::Reactor, echo_factory());
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "piped", &schema());
    assert_eq!(client.call("piped", b"open the channel").unwrap(), b"open the channel");

    let before = snode.stats_snapshot();
    for b in 0..BATCHES {
        let requests: Vec<Vec<u8>> = (0..32).map(|i| vec![(b * 32 + i) as u8; 512]).collect();
        assert_eq!(client.call_many("piped", &requests).unwrap(), requests, "batch {b}");
    }
    let delta = snode.stats_snapshot() - before;
    assert!(delta.reactor_resumes >= BATCHES, "the driver served the run: {delta:?}");
    assert!(
        delta.reactor_wakeups <= WINDOWS / 2,
        "a busy driver must not nap between windows: {} wakeups over {WINDOWS} windows",
        delta.reactor_wakeups
    );
    drop(client);
    server.shutdown();
}

/// The cold path: a driver idle past `IDLE_BACKOFF_AFTER_NS` naps, and a
/// nap delays — never loses — a request, a new registration, or shutdown.
#[test]
fn a_napping_driver_still_serves_adopts_and_shuts_down() {
    let long_idle = Duration::from_nanos(8 * hatrpc::rdma::time::IDLE_BACKOFF_AFTER_NS);
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let server =
        HatServer::serve(&fabric, &snode, "piped", schema(), ServerPolicy::Reactor, echo_factory());
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "piped", &schema());
    assert_eq!(client.call("piped", b"warm").unwrap(), b"warm");

    // A request on an adopted connection, after the driver went cold.
    std::thread::sleep(long_idle);
    assert_eq!(client.call("piped", b"cold call").unwrap(), b"cold call");

    // A connection registered while the driver naps is adopted and served.
    std::thread::sleep(long_idle);
    let late_node = fabric.add_node("late-client");
    let mut late = HatClient::new(&fabric, &late_node, "piped", &schema());
    let requests: Vec<Vec<u8>> = (0..24u8).map(|i| vec![i; 64]).collect();
    assert_eq!(late.call_many("piped", &requests).unwrap(), requests);

    let stats = snode.stats_snapshot();
    assert!(stats.reactor_wakeups >= 1, "a nap that ends with work found is counted: {stats:?}");
    assert_eq!(stats.reactor_parked_hwm, 2, "both connections sat on the one driver: {stats:?}");

    // Shutdown of an idle (napping) driver returns.
    std::thread::sleep(long_idle);
    drop((client, late));
    server.shutdown();
}

/// A connection whose protocol has no reactor state machine (classic
/// depth-1 channel) still works under the Reactor policy, via the
/// thread-per-connection fallback.
#[test]
fn reactor_policy_falls_back_to_threads_for_classic_channels() {
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let server =
        HatServer::serve(&fabric, &snode, "piped", schema(), ServerPolicy::Reactor, echo_factory());
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "piped", &schema());
    // `plain` has no queue_depth hint: depth-1 channel, fallback path.
    assert_eq!(client.call("plain", b"hello").unwrap(), b"hello");
    // `piped` rides the reactor on the same server.
    assert_eq!(client.call("piped", b"world").unwrap(), b"world");
    drop(client);
    server.shutdown();
}

/// Async calls multiplex: a client keeps the full window of 8 in flight
/// via `call_async`/`poll_async`, never blocking a thread per call, and
/// every response lands intact and in-token-order against the reactor.
#[test]
fn async_calls_fill_the_window_against_a_reactor_server() {
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let server =
        HatServer::serve(&fabric, &snode, "piped", schema(), ServerPolicy::Reactor, echo_factory());
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "piped", &schema());

    let mut done = 0usize;
    let mut next = 0u8;
    let mut inflight = Vec::new();
    const TOTAL: usize = 64;
    while done < TOTAL {
        while inflight.len() < 8 && (next as usize) < TOTAL {
            let req = vec![next; 48];
            let call = client.call_async("piped", &req).unwrap();
            inflight.push((call, req));
            next += 1;
        }
        let mut i = 0;
        while i < inflight.len() {
            let (call, req) = &mut inflight[i];
            match client.poll_async(call).unwrap() {
                Some(resp) => {
                    assert_eq!(&resp, req);
                    inflight.swap_remove(i);
                    done += 1;
                }
                None => i += 1,
            }
        }
        std::thread::yield_now();
    }
    assert_eq!(cnode.stats_snapshot().calls_ok, TOTAL as u64);

    // A ninth submit with the window full is a typed pacing error, not a
    // poisoned channel.
    let mut parked = Vec::new();
    for i in 0..8u8 {
        parked.push(client.call_async("piped", &[i; 16]).unwrap());
    }
    let err = client.call_async("piped", b"one too many").unwrap_err();
    assert!(
        matches!(&err, CoreError::Rdma(RdmaError::InvalidWorkRequest(m)) if m.contains("window full")),
        "got: {err}"
    );
    for mut call in parked {
        client.wait_async(&mut call).unwrap();
    }
    drop(client);
    server.shutdown();
}

/// Satellite 3a: a seeded QP flush mid-window under the Reactor policy
/// surfaces typed errors and the `CallPolicy` retry loop recovers —
/// hundreds of calls from several clients sharing the one driver thread
/// all complete exactly once.
#[test]
fn qp_flush_mid_window_retries_recover_on_the_reactor() {
    // Per-QP budget: each reconnect buys a fresh 30 WRs, so depth-8
    // batches grind forward across repeated flushes.
    let plan = FaultPlan::new(0xBEEF)
        .flush_qp_after(FaultScope::Node("client-0".into()), 30)
        .flush_qp_after(FaultScope::Node("client-1".into()), 30)
        .flush_qp_after(FaultScope::Node("client-2".into()), 30);
    let fabric = Fabric::new(SimConfig::fast_test().with_fault_plan(plan));
    let snode = fabric.add_node("server");
    let server =
        HatServer::serve(&fabric, &snode, "piped", schema(), ServerPolicy::Reactor, echo_factory());

    let mut handles = Vec::new();
    for c in 0..3u8 {
        let fabric = fabric.clone();
        let schema = schema();
        handles.push(std::thread::spawn(move || {
            let cnode = fabric.add_node(&format!("client-{c}"));
            let mut client =
                HatClient::new(&fabric, &cnode, "piped", &schema).with_policy(CallPolicy {
                    deadline: Duration::from_secs(5),
                    retries: 12,
                    backoff: Duration::from_millis(1),
                });
            let requests: Vec<Vec<u8>> =
                (0..100u16).map(|i| vec![(i as u8) ^ c, (i >> 8) as u8, c, 7, 7, 7]).collect();
            let responses = client.call_many("piped", &requests).unwrap();
            assert_eq!(responses, requests, "client {c}: exactly-once, in order");
            cnode.stats_snapshot()
        }));
    }
    let mut retried = 0;
    let mut qp_errors = 0;
    for h in handles {
        let stats = h.join().unwrap();
        assert_eq!(stats.calls_ok, 100);
        retried += stats.calls_retried;
        qp_errors += stats.qp_errors;
    }
    assert!(retried >= 3, "300 calls through 30-WR QPs must retry: {retried}");
    assert!(qp_errors >= 3, "the flushes must surface as typed QP errors: {qp_errors}");
    server.shutdown();
}

/// Satellite 3b: killing the server node mid-window fails every pending
/// async call with a typed error inside the policy deadline — no handle
/// pends forever, no thread hangs.
#[test]
fn node_kill_mid_window_fails_async_calls_typed_not_hung() {
    // The server node dies after a handful of send WRs: the handshake and
    // first few responses go through, then the peer is gone with calls
    // still in flight.
    let plan = FaultPlan::new(4242).kill_node_after(FaultScope::Node("server".into()), 12);
    let fabric = Fabric::new(SimConfig::fast_test().with_fault_plan(plan));
    let snode = fabric.add_node("server");
    let server =
        HatServer::serve(&fabric, &snode, "piped", schema(), ServerPolicy::Reactor, echo_factory());
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "piped", &schema()).with_policy(CallPolicy {
        deadline: Duration::from_secs(2),
        retries: 0,
        backoff: Duration::ZERO,
    });

    let t0 = Instant::now();
    let mut oks = 0u64;
    let mut typed_failures = 0u64;
    'outer: for round in 0..8 {
        let mut window = Vec::new();
        for i in 0..8u8 {
            match client.call_async("piped", &[round as u8 ^ i; 32]) {
                Ok(call) => window.push(call),
                Err(e) => {
                    assert!(matches!(e, CoreError::Rdma(_)), "submit failure must be typed: {e}");
                    typed_failures += 1;
                    break 'outer;
                }
            }
        }
        for mut call in window {
            match client.wait_async(&mut call) {
                Ok(_) => oks += 1,
                Err(e) => {
                    assert!(
                        matches!(
                            e,
                            CoreError::Rdma(
                                RdmaError::Timeout
                                    | RdmaError::Disconnected
                                    | RdmaError::QpError(_)
                            )
                        ),
                        "must be a typed transport error: {e}"
                    );
                    typed_failures += 1;
                }
            }
        }
        if typed_failures > 0 {
            break;
        }
    }
    assert!(typed_failures >= 1, "the kill must surface: {oks} oks");
    assert!(
        t0.elapsed() < Duration::from_secs(25),
        "failures must beat the 30s default deadline, took {:?}",
        t0.elapsed()
    );
    drop(client);
    server.shutdown();
}

/// Satellite 6: shutdown during a depth-16 pipelined burst drains the
/// in-flight state machines before closing endpoints — the client banks
/// all 16 responses, none are cut off mid-window.
#[test]
fn shutdown_drains_inflight_reactor_window_before_close() {
    let idl = r#"
        service Deep {
            binary deep(1: binary p) [ hint: perf_goal = throughput, payload_size = 512, queue_depth = 16; ]
        }
    "#;
    let schema = ServiceSchema::parse(idl, "Deep").unwrap();
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let server = HatServer::serve(
        &fabric,
        &snode,
        "deep",
        schema.clone(),
        ServerPolicy::Reactor,
        echo_factory(),
    );

    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let client_thread = {
        let fabric = fabric.clone();
        std::thread::spawn(move || {
            let cnode = fabric.add_node("client");
            let mut client = HatClient::new(&fabric, &cnode, "deep", &schema);
            let requests: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 128]).collect();
            let mut calls: Vec<_> =
                requests.iter().map(|r| client.call_async("deep", r).unwrap()).collect();
            // One poll rings the doorbell so all 16 are on the wire, then
            // let the main thread race shutdown against our waits.
            let mut responses = vec![None; 16];
            responses[0] = client.poll_async(&mut calls[0]).unwrap();
            tx.send(()).unwrap();
            for (call, response) in calls.iter_mut().zip(&mut responses) {
                if response.is_none() {
                    *response = Some(client.wait_async(call).unwrap());
                }
            }
            let responses: Vec<Vec<u8>> = responses.into_iter().flatten().collect();
            (requests, responses)
        })
    };

    rx.recv().unwrap();
    server.shutdown();
    let (requests, responses) = client_thread.join().unwrap();
    assert_eq!(responses, requests, "the full burst must be answered before close");
}

/// A handle belongs to one opening of its channel. When a timeout poisons
/// the channel and a later call reopens it, window tokens restart at 0 —
/// so a handle that survived the failure must fail typed, not match a new
/// request's token and take that request's response.
#[test]
fn stale_async_handle_fails_typed_and_never_takes_a_siblings_response() {
    // An echo handler that can be held, so "A has not been answered when
    // it is polled" is forced rather than raced.
    let hold = Arc::new(AtomicBool::new(false));
    let held = hold.clone();
    let factory: hatrpc::core::engine::HandlerFactory = Arc::new(move || {
        let held = held.clone();
        Box::new(move |req: &[u8]| {
            while held.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            req.to_vec()
        })
    });
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let server =
        HatServer::serve(&fabric, &snode, "piped", schema(), ServerPolicy::Reactor, factory);
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "piped", &schema());
    // Open the channels without spending a token on them (a zero
    // deadline could not open one).
    let warm = client.warm_all().unwrap();

    // Submit A and B under a deadline that has already passed; polling A
    // times it out and drops the channel under B.
    let normal = CallPolicy::default();
    client = client.with_policy(CallPolicy { deadline: Duration::ZERO, ..normal });
    hold.store(true, Ordering::Release);
    let mut a = client.call_async("piped", &[0xAA; 32]).unwrap();
    let mut b = client.call_async("piped", &[0xBB; 32]).unwrap();
    let err = client.poll_async(&mut a).unwrap_err();
    assert!(matches!(err, CoreError::Rdma(RdmaError::Timeout)), "got: {err}");
    assert_eq!(client.open_channels(), warm - 1, "the timeout poisons the channel");
    hold.store(false, Ordering::Release);

    // C and D reopen it: their tokens are 0 and 1, as A's and B's were.
    client = client.with_policy(normal);
    let mut c = client.call_async("piped", &[0xCC; 32]).unwrap();
    let mut d = client.call_async("piped", &[0xDD; 32]).unwrap();
    assert_eq!(client.wait_async(&mut c).unwrap(), [0xCC; 32]);

    let err = client.poll_async(&mut b).unwrap_err();
    assert!(matches!(err, CoreError::Rdma(RdmaError::Disconnected)), "got: {err}");
    assert!(b.is_done());
    assert_eq!(client.open_channels(), warm, "a stale handle leaves the live channel alone");
    assert_eq!(client.wait_async(&mut d).unwrap(), [0xDD; 32], "D's response is D's to take");
    drop(client);
    server.shutdown();
}
