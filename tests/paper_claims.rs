//! Shape-level assertions tied to the paper's claims — conservative
//! bounds (the simulator reproduces directions and orderings, not the
//! testbed's absolute numbers).

use hatrpc::protocols::{ProtocolConfig, ProtocolKind};
use hatrpc::rdma::{Fabric, PollMode, SimConfig};

/// §3.1/Figure 3c: chaining WRITE+SEND halves the doorbells of
/// Direct-Write-Send.
#[test]
fn chained_write_send_saves_doorbells() {
    let count = |kind| {
        let fabric = Fabric::new(SimConfig::fast_test());
        let c = fabric.add_node("c");
        let s = fabric.add_node("s");
        let (cep, sep) = fabric.connect(&c, &s).unwrap();
        let cfg = ProtocolConfig { max_msg: 1024, ..Default::default() };
        let scfg = cfg.clone();
        let h = std::thread::spawn(move || {
            let mut server = hatrpc::protocols::accept_server(kind, sep, scfg).unwrap();
            for _ in 0..4 {
                server.serve_one(&mut |r| r.to_vec()).unwrap();
            }
            server
        });
        let mut client = hatrpc::protocols::connect_client(kind, cep, cfg).unwrap();
        let before = c.stats_snapshot().doorbells;
        for _ in 0..4 {
            client.call(&[1u8; 100]).unwrap();
        }
        let after = c.stats_snapshot().doorbells;
        drop(client);
        drop(h.join().unwrap());
        after - before
    };
    let separate = count(ProtocolKind::DirectWriteSend);
    let chained = count(ProtocolKind::ChainedWriteSend);
    assert_eq!(separate, 8);
    assert_eq!(chained, 4);
}

/// §3.2: "the event polling mechanism reduces the CPU overhead … at the
/// cost of a relatively higher latency."
#[test]
fn event_polling_trades_latency_for_cpu() {
    // Stretched 32×: the two 2.6 µs wake-ups per round trip become
    // ~170 µs, clear of what a debug build beside six other tests adds.
    let run = |poll: PollMode| {
        let fabric = Fabric::new(SimConfig { time_scale: 32.0, ..SimConfig::default() });
        let p = hat_bench_raw_latency(&fabric, poll);
        let cpu = fabric.stats().total_cpu_busy_ns();
        (p, cpu)
    };
    let (lat_busy, cpu_busy) = run(PollMode::Busy);
    let (lat_event, cpu_event) = run(PollMode::Event);
    assert!(lat_event > lat_busy, "event {lat_event} must exceed busy {lat_busy}");
    assert!(cpu_event < cpu_busy, "event CPU {cpu_event} must undercut busy {cpu_busy}");
}

fn hat_bench_raw_latency(fabric: &Fabric, poll: PollMode) -> u64 {
    let c = fabric.add_node("c");
    let s = fabric.add_node("s");
    let (cep, sep) = fabric.connect(&c, &s).unwrap();
    let cfg = ProtocolConfig { poll, max_msg: 4096, ..Default::default() };
    let scfg = cfg.clone();
    let h = std::thread::spawn(move || {
        let mut server =
            hatrpc::protocols::accept_server(ProtocolKind::EagerSendRecv, sep, scfg).unwrap();
        for _ in 0..20 {
            server.serve_one(&mut |r| r.to_vec()).unwrap();
        }
        server
    });
    let mut client =
        hatrpc::protocols::connect_client(ProtocolKind::EagerSendRecv, cep, cfg).unwrap();
    let payload = [3u8; 512];
    for _ in 0..4 {
        client.call(&payload).unwrap();
    }
    // The median call, not the mean of 16: one descheduling of either
    // thread on a busy host must not decide the comparison.
    let mut calls: Vec<u64> = (0..16)
        .map(|_| {
            let t0 = hatrpc::rdma::now_ns();
            client.call(&payload).unwrap();
            hatrpc::rdma::now_ns() - t0
        })
        .collect();
    calls.sort_unstable();
    drop(client);
    drop(h.join().unwrap());
    calls[calls.len() / 2]
}

/// §3.2 (RFP's observation): issuing out-bound RDMA costs the initiator;
/// serving in-bound RDMA is nearly free for the target — visible in who
/// accumulates one-sided-operation counts.
#[test]
fn server_bypass_protocols_shift_rdma_to_the_client() {
    let fabric = Fabric::new(SimConfig::fast_test());
    let c = fabric.add_node("client");
    let s = fabric.add_node("server");
    let (cep, sep) = fabric.connect(&c, &s).unwrap();
    let cfg = ProtocolConfig { max_msg: 2048, ..Default::default() };
    let scfg = cfg.clone();
    let h = std::thread::spawn(move || {
        let mut server = hatrpc::protocols::accept_server(ProtocolKind::Rfp, sep, scfg).unwrap();
        for _ in 0..4 {
            server.serve_one(&mut |r| r.to_vec()).unwrap();
        }
        server
    });
    let mut client = hatrpc::protocols::connect_client(ProtocolKind::Rfp, cep, cfg).unwrap();
    for _ in 0..4 {
        client.call(&[7u8; 128]).unwrap();
    }
    drop(client);
    drop(h.join().unwrap());
    let cs = c.stats_snapshot();
    let ss = s.stats_snapshot();
    assert!(
        cs.outbound_rdma >= 8,
        "client issues WRITEs + polling READs, saw {}",
        cs.outbound_rdma
    );
    assert_eq!(ss.outbound_rdma, 0, "RFP server never issues one-sided ops");
    assert!(ss.inbound_rdma >= 8, "server serves them in-bound");
}

/// §4.3: rendezvous protocols keep server pinned memory low relative to
/// pre-known-buffer protocols at the same max message size — the
/// `res_util` rationale.
#[test]
fn res_util_hint_selects_memory_lean_protocols() {
    use hat_idl::hints::{HintSet, PerfGoal};
    use hatrpc::core::selection::{select_protocol, SubscriptionBounds};
    let hints = HintSet {
        perf_goal: Some(PerfGoal::ResUtil),
        concurrency: Some(100),
        payload_size: Some(256 * 1024),
        ..Default::default()
    };
    let sel = select_protocol(&hints, &SubscriptionBounds::default());
    assert!(
        !sel.protocol.needs_preknown_buffer(),
        "res_util at scale must avoid per-connection pinned buffers, got {}",
        sel.protocol
    );
}

/// §5.2's selection table, end to end through the engine: the paper's
/// stated switch points.
#[test]
fn figure6_selection_switch_points() {
    use hat_idl::hints::{HintSet, PerfGoal};
    use hatrpc::core::selection::{select_protocol, SubscriptionBounds};
    let b = SubscriptionBounds::default();
    let h = |goal, conc, payload| HintSet {
        perf_goal: Some(goal),
        concurrency: Some(conc),
        payload_size: Some(payload),
        ..Default::default()
    };
    // Latency: always Direct-WriteIMM + busy.
    let lat = select_protocol(&h(PerfGoal::Latency, 1, 512), &b);
    assert_eq!(lat.protocol, ProtocolKind::DirectWriteImm);
    assert_eq!(lat.poll, PollMode::Busy);
    // Throughput large: the 16-client crossover to RFP + event (§5.2).
    assert_eq!(
        select_protocol(&h(PerfGoal::Throughput, 16, 128 * 1024), &b).protocol,
        ProtocolKind::DirectWriteImm
    );
    let over = select_protocol(&h(PerfGoal::Throughput, 17, 128 * 1024), &b);
    assert_eq!(over.protocol, ProtocolKind::Rfp);
    assert_eq!(over.poll, PollMode::Event);
}

/// §5.4: every YCSB system (HatRPC variants + comparators) serves the
/// paper's workload geometry correctly on the shared backend.
#[test]
fn all_six_kv_systems_serve_the_paper_geometry() {
    use hatrpc::hatkv::comparators::{self, Comparator};
    use hatrpc::hatkv::server::{HatKvServer, KvVariant};
    use hatrpc::hatkv::HatKVClient;
    use hatrpc::kvdb::{DbConfig, ShardedDb, SyncMode};

    let value = vec![0xEE; 1000]; // 10 fields x 100 B
    let key = vec![b'u'; 24]; // 24-byte key

    // HatRPC variants.
    for variant in [KvVariant::ServiceHints, KvVariant::FunctionHints] {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("s");
        let config = DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() };
        let server = HatKvServer::start(&fabric, &snode, "kv", variant, config);
        let cnode = fabric.add_node("c");
        let mut kv = HatKVClient::new(hatrpc::core::engine::HatClient::new(
            &fabric,
            &cnode,
            "kv",
            server.schema(),
        ));
        kv.put(key.clone(), value.clone()).unwrap();
        assert_eq!(kv.get(key.clone()).unwrap(), value, "{variant:?}");
        drop(kv);
        server.shutdown();
    }
    // Comparators.
    for comp in Comparator::ALL {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("s");
        let db = ShardedDb::new(DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() }, 1);
        let server = HatKvServer::start_with_db(&fabric, &snode, "kv", comparators::schema(), db);
        let cnode = fabric.add_node("c");
        let mut kv = comp.connect(&fabric, &cnode, "kv");
        kv.put(key.clone(), value.clone()).unwrap();
        assert_eq!(kv.get(key.clone()).unwrap(), value, "{comp:?}");
        drop(kv);
        server.shutdown();
    }
}

/// §5.5: all 22 TPC-H queries give identical answers over all three
/// transports (correctness precedes performance comparisons).
#[test]
fn tpch_answers_are_transport_invariant() {
    use hatrpc::tpch::{all_queries, ClusterConfig, TpchCluster, TransportMode};
    let cfg = ClusterConfig { sf: 0.002, workers: 2, seed: 3 };
    let mut fingerprints: Vec<Vec<f64>> = Vec::new();
    for mode in [TransportMode::Ipoib, TransportMode::HatRpcService, TransportMode::HatRpcFunction]
    {
        let fabric = Fabric::new(SimConfig::fast_test());
        let mut cluster = TpchCluster::start(&fabric, &cfg, mode);
        let rows = cluster.run_all().unwrap();
        fingerprints.push(rows.iter().map(|(_, r, _)| r.fingerprint()).collect());
        cluster.shutdown();
    }
    assert!(fingerprints.iter().all(|f| f.len() == 22));
    for (q, ((&a, &b), &c)) in
        fingerprints[0].iter().zip(&fingerprints[1]).zip(&fingerprints[2]).enumerate()
    {
        assert!((a - b).abs() <= (a.abs() + b.abs()) * 1e-9 + 1e-9, "Q{} ipoib vs service", q + 1);
        assert!((a - c).abs() <= (a.abs() + c.abs()) * 1e-9 + 1e-9, "Q{} ipoib vs function", q + 1);
    }
    let _ = all_queries();
}
