//! Per-layer probes: single-threaded timed loops over one public function
//! of one layer, with the workloads' own input shapes. They do not depend
//! on the workload being run; a traced run of any workload reports them all.
//!
//! Every probe reports the p50 over its samples. A sample times a small
//! batch of calls so the two clock reads stay well under the timed work.

use std::sync::Arc;

use hatrpc::core::protocol::{TInputProtocol, TOutputProtocol, TType};
use hatrpc::core::{
    decode_reply, encode_call, select_protocol, ServerPolicy, ServiceSchema, SubscriptionBounds,
};
use hatrpc::hatkv::{HatKVProcessor, KvStoreHandler, HATKV_IDL};
use hatrpc::idl::hints::Side;
use hatrpc::kvdb::{DbConfig, ShardedDb, SyncMode, WriteObserver};
use hatrpc::protocols::{
    accept_server, connect_client, OneSidedHost, OneSidedIndex, OneSidedReader, ProtocolConfig,
    ProtocolKind,
};
use hatrpc::rdma::{
    now_ns, CostModel, Fabric, PollMode, ProtectionDomain, RecvWr, SendWr, SimConfig,
};

use crate::alloc;
use crate::gen::{self, Rng, BATCH, PRELOAD_BYTE, VALUE_LEN};
use crate::stats::percentile;
use crate::workloads::{decode_echo, deploy_echo, echo_router, encode_echo};

type Out = Vec<(&'static str, f64)>;

/// p50 ns per call of `f` over `samples` samples of `per_sample` calls
/// each, after a warm-up of a tenth as many. `f` receives a call counter.
fn p50_ns(samples: usize, per_sample: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut i = 0;
    for _ in 0..(samples * per_sample / 10).max(2) {
        f(i);
        i += 1;
    }
    let mut totals: Vec<u32> = (0..samples)
        .map(|_| {
            let t0 = now_ns();
            for _ in 0..per_sample {
                f(i);
                i += 1;
            }
            (now_ns() - t0).min(u64::from(u32::MAX)) as u32
        })
        .collect();
    f64::from(percentile(&mut totals, 50.0)) / per_sample as f64
}

/// Scales sample counts down for `--quick` smoke runs.
#[derive(Clone, Copy)]
struct Scale(usize);

impl Scale {
    fn samples(self, n: usize) -> usize {
        (n / self.0).max(11)
    }
}

/// `scratch` is a directory the WAL probe may create files under.
pub fn run_all(quick: bool, scratch: &std::path::Path) -> Out {
    let scale = Scale(if quick { 32 } else { 1 });
    let mut out = Out::new();
    idl_and_selection(scale, &mut out);
    codec_and_dispatch(scale, &mut out);
    hatkv_handlers(scale, &mut out);
    engine_and_protocols(scale, &mut out);
    onesided(scale, &mut out);
    verbs(scale, &mut out);
    kvdb(scale, scratch, &mut out);
    out
}

fn idl_and_selection(scale: Scale, out: &mut Out) {
    let parse = p50_ns(scale.samples(800), 1, |_| {
        std::hint::black_box(ServiceSchema::parse(std::hint::black_box(HATKV_IDL), "HatKV"));
    });
    out.push(("idl.parse_us", parse / 1e3));
    let schema = ServiceSchema::parse(HATKV_IDL, "HatKV").expect("hatkv IDL parses");
    let bounds = SubscriptionBounds::default();
    let resolve = p50_ns(scale.samples(1600), 16, |_| {
        let hints = std::hint::black_box(&schema).resolved("get", Side::Client);
        std::hint::black_box(select_protocol(&hints, &bounds));
    });
    out.push(("selection.resolve_ns", resolve));
}

fn random_payload(len: usize) -> Vec<u8> {
    let mut payload = vec![0u8; len];
    Rng::new(len as u64).fill(&mut payload);
    payload
}

fn codec_and_dispatch(scale: Scale, out: &mut Out) {
    let mut router = echo_router();
    for (len, per_sample, enc, dec, handle) in [
        (64, 32, "codec.encode_ns.echo64", "codec.decode_ns.echo64", "dispatch.handle_ns.echo64"),
        (
            256 * 1024,
            1,
            "codec.encode_ns.echo256k",
            "codec.decode_ns.echo256k",
            "dispatch.handle_ns.echo256k",
        ),
    ] {
        let payload = random_payload(len);
        let request = encode_echo(1, &payload);
        let reply = router.handle(&request);
        assert_eq!(decode_echo(&reply, 1).expect("echo reply decodes"), payload);
        let n = scale.samples(1600);
        out.push((
            enc,
            p50_ns(n, per_sample, |_| {
                std::hint::black_box(encode_echo(1, std::hint::black_box(&payload)));
            }),
        ));
        out.push((
            dec,
            p50_ns(n, per_sample, |_| {
                std::hint::black_box(decode_echo(std::hint::black_box(&reply), 1).ok());
            }),
        ));
        out.push((
            handle,
            p50_ns(n, per_sample, |_| {
                std::hint::black_box(router.handle(std::hint::black_box(&request)));
            }),
        ));
        let rounds = 64;
        let ((), counted) = alloc::count(|| {
            for _ in 0..rounds {
                std::hint::black_box(encode_echo(1, &payload));
                std::hint::black_box(decode_echo(&reply, 1).ok());
            }
        });
        if len == 64 {
            out.push(("codec.allocs_per_msg.echo64", counted.allocs as f64 / (2 * rounds) as f64));
        } else {
            out.push((
                "codec.alloc_bytes_per_msg.echo256k",
                counted.bytes as f64 / (2 * rounds) as f64,
            ));
        }
    }
}

// Request encoders for HatKV, written as the generated stubs write them
// (the stubs themselves only run on top of a connected `HatClient`).

fn encode_keyed(method: &str, key: &[u8], value: Option<&[u8]>) -> Vec<u8> {
    encode_call(method, 1, |out| {
        out.write_struct_begin("args");
        out.write_field_begin(TType::String, 1);
        out.write_binary(key);
        out.write_field_end();
        if let Some(value) = value {
            out.write_field_begin(TType::String, 2);
            out.write_binary(value);
            out.write_field_end();
        }
        out.write_field_stop();
        out.write_struct_end();
    })
}

fn encode_batch(method: &str, keys: &[Vec<u8>], values: Option<&[Vec<u8>]>) -> Vec<u8> {
    encode_call(method, 1, |out| {
        out.write_struct_begin("args");
        for (id, list) in [Some(keys), values].into_iter().flatten().enumerate() {
            out.write_field_begin(TType::List, id as i16 + 1);
            out.write_list_begin(TType::String, list.len());
            for item in list {
                out.write_binary(item);
            }
            out.write_list_end();
            out.write_field_end();
        }
        out.write_field_stop();
        out.write_struct_end();
    })
}

fn decode_value_list(reply: &[u8]) -> Option<Vec<Vec<u8>>> {
    decode_reply(reply, 1, |input| {
        let mut ret = Vec::new();
        input.read_struct_begin()?;
        loop {
            let (fty, fid) = input.read_field_begin()?;
            if fty == TType::Stop {
                break;
            }
            if fid == 0 {
                let (_, len) = input.read_list_begin()?;
                for _ in 0..len.min(1 << 20) {
                    ret.push(input.read_binary()?);
                }
                input.read_list_end()?;
            } else {
                input.skip(fty)?;
            }
            input.read_field_end()?;
        }
        input.read_struct_end()?;
        Ok(ret)
    })
    .ok()
}

const KV_RECORDS: u32 = 10_000;

fn preloaded_db(records: u32) -> (ShardedDb, Vec<Vec<u8>>) {
    let config = DbConfig { sync_mode: SyncMode::NoSync, ..DbConfig::default() };
    let db = ShardedDb::new(config, 4);
    let keys: Vec<Vec<u8>> = (0..records).map(gen::key).collect();
    for chunk in keys.chunks(256) {
        db.multi_put(chunk.iter().map(|k| (k.clone(), vec![PRELOAD_BYTE; VALUE_LEN])));
    }
    (db, keys)
}

/// `count` batches of `BATCH` distinct keys, walking the key space.
fn key_batches(keys: &[Vec<u8>], count: usize) -> Vec<Vec<Vec<u8>>> {
    (0..count)
        .map(|b| (0..BATCH).map(|i| keys[(b * 97 + i * 13) % keys.len()].clone()).collect())
        .collect()
}

fn hatkv_handlers(scale: Scale, out: &mut Out) {
    let (db, keys) = preloaded_db(KV_RECORDS);
    let mut processor = HatKVProcessor::new(KvStoreHandler::new(db));
    let value = vec![0x5Au8; VALUE_LEN];
    let values = vec![value.clone(); BATCH];
    let batches = key_batches(&keys, 64);
    let gets: Vec<_> = keys.iter().step_by(157).map(|k| encode_keyed("get", k, None)).collect();
    let puts: Vec<_> =
        keys.iter().step_by(157).map(|k| encode_keyed("put", k, Some(&value))).collect();
    let mgets: Vec<_> = batches.iter().map(|b| encode_batch("multiget", b, None)).collect();
    let mputs: Vec<_> =
        batches.iter().map(|b| encode_batch("multiput", b, Some(&values))).collect();

    let reply = processor.handle(&mgets[0]);
    assert_eq!(decode_value_list(&reply).map(|v| v.len()), Some(BATCH), "multiget reply decodes");
    let n = scale.samples(1200);
    out.push((
        "codec.roundtrip_ns.mget10",
        p50_ns(n, 2, |i| {
            std::hint::black_box(encode_batch("multiget", &batches[i % batches.len()], None));
            std::hint::black_box(decode_value_list(std::hint::black_box(&reply)));
        }),
    ));
    for (name, requests, per_sample) in [
        ("hatkv.handle_ns.get", &gets, 8),
        ("hatkv.handle_ns.put", &puts, 4),
        ("hatkv.handle_ns.multiget", &mgets, 2),
        ("hatkv.handle_ns.multiput", &mputs, 1),
    ] {
        out.push((
            name,
            p50_ns(n, per_sample, |i| {
                std::hint::black_box(processor.handle(&requests[i % requests.len()]));
            }),
        ));
    }
}

/// Raw protocol echo (no engine, no codec): p50 round trip of `len` bytes.
fn raw_rtt(kind: ProtocolKind, poll: PollMode, len: usize, samples: usize) -> f64 {
    let fabric = Fabric::new(SimConfig::default());
    let server_node = fabric.add_node("raw-server");
    let client_node = fabric.add_node("raw-client");
    let (cep, sep) = fabric.connect(&client_node, &server_node).expect("connect");
    let cfg = ProtocolConfig { poll, max_msg: len.max(64), ..ProtocolConfig::default() };
    let server_cfg = cfg.clone();
    let server = std::thread::spawn(move || {
        let mut server = accept_server(kind, sep, server_cfg).expect("server side");
        let _ = server.serve_loop(&mut |request| request.to_vec());
    });
    let mut client = connect_client(kind, cep, cfg).expect("client side");
    let payload = random_payload(len);
    let rtt = p50_ns(samples, 1, |_| {
        let reply = client.call(&payload).expect("raw echo");
        assert_eq!(reply.len(), payload.len());
    });
    drop(client);
    server.join().expect("raw server thread");
    rtt
}

fn engine_and_protocols(scale: Scale, out: &mut Out) {
    out.push((
        "protocols.rtt_ns.write_imm.64",
        raw_rtt(ProtocolKind::DirectWriteImm, PollMode::Busy, 64, scale.samples(8000)),
    ));
    out.push((
        "protocols.rtt_ns.write_rndv.256k",
        raw_rtt(ProtocolKind::WriteRndv, PollMode::Event, 256 * 1024, scale.samples(800)),
    ));

    // The same 64 B echo through the engine, deployed as `rpc_small` is:
    // `HatClient::call` of an already-encoded request.
    let mut echo = deploy_echo(
        "perf_goal = latency, concurrency = 1",
        "payload_size = 64",
        ServerPolicy::Threaded,
        Arc::default(),
    );
    let request = encode_echo(1, &random_payload(64));
    let call = p50_ns(scale.samples(8000), 1, |_| {
        std::hint::black_box(echo.client.call("echo", &request).expect("engine echo"));
    });
    out.push(("engine.call_ns.echo64", call));
    echo.shutdown();
}

fn onesided(scale: Scale, out: &mut Out) {
    let fabric = Fabric::new(SimConfig::default());
    let server_node = fabric.add_node("server");
    let client_node = fabric.add_node("client");
    let host = OneSidedHost::start(&fabric, &server_node, "probe").expect("one-sided host");
    let keys: Vec<Vec<u8>> = (0..4_000).map(gen::key).collect();
    let value = vec![PRELOAD_BYTE; VALUE_LEN];
    for key in &keys {
        host.index().apply_put(key, &value);
    }
    let mut reader =
        OneSidedReader::connect(&fabric, &client_node, "probe").expect("one-sided reader");
    out.push((
        "onesided.reader_get_ns",
        p50_ns(scale.samples(4000), 1, |i| {
            let _ = std::hint::black_box(reader.get(&keys[(i * 31) % keys.len()]).expect("READ"));
        }),
    ));
    out.push((
        "onesided.apply_put_ns",
        p50_ns(scale.samples(2000), 4, |i| {
            host.index().apply_put(&keys[(i * 31) % keys.len()], &value)
        }),
    ));
    drop(reader);
    host.shutdown();
}

/// The two verbs round trips below, summed from `CostModel` constants the
/// way the simulator schedules them: CPU post + doorbell, NIC processing
/// at both ends, serialization, wire latency, and the CQE poll. A READ
/// sends a 32 B request descriptor and pays the target's turnaround.
pub fn model_write_imm_rtt_ns(c: &CostModel, len: usize) -> f64 {
    let one_way = c.post_wr_ns
        + c.doorbell_ns
        + 2 * c.nic_process_ns
        + c.serialize_ns(len)
        + c.wire_latency_ns
        + c.poll_cqe_ns;
    (2 * one_way) as f64
}

pub fn model_read_rtt_ns(c: &CostModel, len: usize) -> f64 {
    (c.post_wr_ns
        + c.doorbell_ns
        + 2 * c.nic_process_ns
        + c.serialize_ns(32)
        + c.serialize_ns(len)
        + 2 * c.wire_latency_ns
        + c.inbound_rdma_turnaround_ns
        + c.poll_cqe_ns) as f64
}

fn verbs(scale: Scale, out: &mut Out) {
    let config = SimConfig::default();
    let cost = config.cost.clone();
    let fabric = Fabric::new(config);
    let server_node = fabric.add_node("server");
    let client_node = fabric.add_node("client");
    let (cep, sep) = fabric.connect(&client_node, &server_node).expect("connect");
    let cmr = cep.pd().register(8192).expect("client MR");
    let smr = sep.pd().register(8192).expect("server MR");
    let n = scale.samples(4000);

    // 64 B inline SEND + doorbell: the time `post_send` keeps the caller.
    let data = [0x42u8; 64];
    let mut posts: Vec<u32> = (0..n as u64)
        .map(|i| {
            sep.post_recv(RecvWr::new(i, smr.clone(), 0, 64)).expect("post recv");
            let t0 = now_ns();
            cep.post_send(&[SendWr::send_inline(i, &data).signaled()]).expect("post send");
            let took = now_ns() - t0;
            cep.send_cq().poll_one(PollMode::Busy).expect("send completion");
            sep.recv_cq().poll_one(PollMode::Busy).expect("recv completion");
            took as u32
        })
        .collect();
    out.push(("verbs.post_send_ns", f64::from(percentile(&mut posts, 50.0))));

    // WRITE_WITH_IMM ping-pong, both ends driven from this thread (the
    // simulator is passive: a completion is ready once its deadline passes).
    let write_imm_rtt = p50_ns(n, 1, |i| {
        let id = i as u64;
        sep.post_recv(RecvWr::new(id, smr.clone(), 0, 64)).expect("post recv");
        cep.post_recv(RecvWr::new(id, cmr.clone(), 0, 64)).expect("post recv");
        cep.post_send(&[SendWr::write_imm(id, cmr.slice(0, 64), smr.remote_buf(64, 64), 1)])
            .expect("ping");
        sep.recv_cq().poll_one(PollMode::Busy).expect("ping arrives");
        sep.post_send(&[SendWr::write_imm(id, smr.slice(0, 64), cmr.remote_buf(64, 64), 2)])
            .expect("pong");
        cep.recv_cq().poll_one(PollMode::Busy).expect("pong arrives");
    });
    let read_rtt = p50_ns(n, 1, |i| {
        cep.post_send(&[
            SendWr::read(i as u64, cmr.slice(1024, 1024), smr.remote_buf(1024, 1024)).signaled()
        ])
        .expect("post READ");
        cep.send_cq().poll_one(PollMode::Busy).expect("READ completion");
    });
    let model_write = model_write_imm_rtt_ns(&cost, 64);
    out.push(("verbs.write_imm_rtt_ns.64", write_imm_rtt));
    out.push(("verbs.read_rtt_ns.1k", read_rtt));
    out.push(("verbs.sim_overhead_ratio", write_imm_rtt / model_write));
}

/// Mirrors committed writes into a one-sided index, as HatKV's server does.
struct Mirror(OneSidedIndex);

impl WriteObserver for Mirror {
    fn on_put(&self, key: &[u8], value: &[u8]) {
        self.0.apply_put(key, value);
    }
    fn on_del(&self, key: &[u8]) {
        self.0.apply_del(key);
    }
}

fn kvdb(scale: Scale, scratch: &std::path::Path, out: &mut Out) {
    let (db, keys) = preloaded_db(KV_RECORDS);
    let value = vec![0x5Au8; VALUE_LEN];
    let batches = key_batches(&keys, 64);
    let pairs =
        |b: usize| batches[b % batches.len()].iter().map(|k| (k.clone(), vec![0x5Au8; VALUE_LEN]));
    let key = |i: usize| &keys[(i * 157) % keys.len()];
    let n = scale.samples(1200);
    out.push(("kvdb.get_ns", p50_ns(n, 16, |i| drop(std::hint::black_box(db.get(key(i)))))));
    let put_ns = p50_ns(n, 4, |i| db.put(key(i), &value));
    out.push(("kvdb.put_ns", put_ns));
    out.push((
        "kvdb.multi_get_ns.10",
        p50_ns(n, 2, |i| drop(std::hint::black_box(db.multi_get(&batches[i % batches.len()])))),
    ));
    out.push(("kvdb.multi_put_ns.10", p50_ns(n, 1, |i| db.multi_put(pairs(i)))));
    out.push((
        "kvdb.txn_multi_put_ns.10",
        p50_ns(n, 1, |i| db.multi_put_txn(pairs(i)).expect("2PC commit")),
    ));

    // The same put with the write observer mirroring into a one-sided
    // index under the shard writer lock; minus `kvdb.put_ns` = mirror cost.
    let fabric = Fabric::new(SimConfig::default());
    let node = fabric.add_node("server");
    let index = OneSidedIndex::new(&ProtectionDomain::new(node)).expect("index MRs");
    db.set_write_observer(Arc::new(Mirror(index)));
    out.push(("kvdb.put_observed_ns", p50_ns(n, 4, |i| db.put(key(i), &value))));
    db.clear_write_observer();

    // Persistent store: one WAL file per shard, flushed at every commit.
    let dir = scratch.join(format!("wal-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DbConfig { sync_mode: SyncMode::Async, ..DbConfig::default() };
    let wal_db = ShardedDb::open(&dir, config, 4).expect("open WAL-backed store");
    let mut puts = 0u64;
    let wal_put = p50_ns(n, 1, |i| {
        wal_db.put(key(i), &value);
        puts += 1;
    });
    drop(wal_db);
    let wal_bytes: u64 = std::fs::read_dir(&dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    out.push(("kvdb.wal_put_ns", wal_put));
    out.push((
        "kvdb.wal_bytes_per_user_byte",
        wal_bytes as f64 / (puts * (gen::KEY_LEN + VALUE_LEN) as u64) as f64,
    ));
}
