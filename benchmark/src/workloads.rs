//! The five workloads: how each deployment is set up, what one step of its
//! closed load loop does, and the oracle that checks every reply.
//!
//! Load shape, all workloads: one load-generating thread, one `HatClient`,
//! closed loop (the next request is sent only after the previous reply, so
//! a slower stack receives less load), default `SimConfig`.

use std::sync::Arc;

use hatrpc::core::protocol::binary::{BinaryIn, BinaryOut};
use hatrpc::core::protocol::{TInputProtocol, TOutputProtocol, TType};
use hatrpc::core::{
    decode_reply, encode_call, HatClient, HatServer, Result, Router, ServerPolicy, ServiceSchema,
};
use hatrpc::hatkv::{HatKVClient, HatKvServer, KvVariant};
use hatrpc::kvdb::{DbConfig, DbStatsSnapshot, SyncMode};
use hatrpc::rdma::{now_ns, Fabric, SimConfig};

use crate::gen::{self, EchoInputs, KvOp, BATCH, PRELOAD_BYTE, RING_LEN, VALUE_LEN};
use crate::spans::{HandlerLog, SpanName, Trace};

/// Requests per `call_many` batch on `rpc_pipelined`.
pub const PIPELINE_BATCH: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RpcSmall,
    RpcLarge,
    RpcPipelined,
    KvRead,
    KvMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::RpcSmall,
        Workload::RpcLarge,
        Workload::RpcPipelined,
        Workload::KvRead,
        Workload::KvMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RpcSmall => "rpc_small",
            Workload::RpcLarge => "rpc_large",
            Workload::RpcPipelined => "rpc_pipelined",
            Workload::KvRead => "kv_read",
            Workload::KvMixed => "kv_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Build the deployment from scratch — inputs from `seed`, IDL parse,
    /// server start, preload, connect — and run one verified op on every
    /// channel. This whole function is what `setup_s` times.
    pub fn deploy(self, seed: u64) -> Box<dyn Stack> {
        match self {
            Workload::RpcSmall => Box::new(EchoStack::deploy(
                seed,
                64,
                "perf_goal = latency, concurrency = 1",
                "payload_size = 64",
                ServerPolicy::Threaded,
                1,
            )),
            Workload::RpcLarge => Box::new(EchoStack::deploy(
                seed,
                256 * 1024,
                "perf_goal = res_util, concurrency = 1",
                "payload_size = 256K",
                ServerPolicy::Threaded,
                1,
            )),
            Workload::RpcPipelined => Box::new(EchoStack::deploy(
                seed,
                512,
                "perf_goal = throughput, concurrency = 1",
                "payload_size = 512, queue_depth = 8",
                ServerPolicy::Reactor,
                PIPELINE_BATCH,
            )),
            // 4 000 records fit the 4096-set × 4-way one-sided index with room.
            Workload::KvRead => Box::new(KvStack::deploy(seed, 4_000, gen::MIX_READ_ONLY)),
            // 10 000 records overflow some sets: evictions and RPC fallbacks occur.
            Workload::KvMixed => Box::new(KvStack::deploy(seed, 10_000, gen::MIX_A)),
        }
    }
}

/// Operation classes latencies are reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Echo,
    Get,
    Put,
    MultiGet,
    MultiPut,
}

impl Class {
    pub const COUNT: usize = 5;
}

/// What one step of the load loop did.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub class: Class,
    /// Requests attempted (1, or the batch size on `rpc_pipelined`).
    pub ops: u32,
    /// Errors plus wrong answers among them.
    pub failed: u32,
    /// Caller-observed latency: args in hand → checked-ready reply in hand.
    pub latency_ns: u64,
    /// Request plus reply payload bytes the user asked to move.
    pub payload_bytes: u64,
}

/// How a step reaches its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Through the stack.
    Stack,
    /// The same step with the call into the stack (and its codec) replaced
    /// by the expected reply: what the load generator itself costs per op.
    Stubbed,
}

/// A deployed workload the load loop can drive.
pub trait Stack {
    /// Issue the next op of the ring and check its reply.
    fn step(&mut self, drive: Drive, trace: &mut Trace) -> Step;
    fn fabric(&self) -> &Fabric;
    /// Storage counters summed over shards (KV workloads only).
    fn db_stats(&self) -> DbStatsSnapshot {
        DbStatsSnapshot::default()
    }
    /// Switch server-side handler spans on or off (echo workloads only).
    fn set_handler_spans(&self, _on: bool) {}
    fn shutdown(self: Box<Self>);
}

// ---------------------------------------------------------------------------
// Echo workloads
// ---------------------------------------------------------------------------

fn echo_schema(service_hints: &str, fn_hints: &str) -> ServiceSchema {
    let idl = format!(
        "service Echo {{\n    hint: {service_hints};\n    \
         binary echo(1: binary payload) [ hint: {fn_hints}; ]\n}}\n"
    );
    ServiceSchema::parse(&idl, "Echo").expect("echo IDL parses")
}

/// Client-side request encoding, as a generated stub would write it.
pub fn encode_echo(seq: i32, payload: &[u8]) -> Vec<u8> {
    encode_call("echo", seq, |out| {
        out.write_struct_begin("echo_args");
        out.write_field_begin(TType::String, 1);
        out.write_binary(payload);
        out.write_field_end();
        out.write_field_stop();
        out.write_struct_end();
    })
}

/// Client-side reply decoding, as a generated stub would write it.
pub fn decode_echo(reply: &[u8], seq: i32) -> Result<Vec<u8>> {
    decode_reply(reply, seq, |input| {
        let mut ret = Vec::new();
        input.read_struct_begin()?;
        loop {
            let (fty, fid) = input.read_field_begin()?;
            if fty == TType::Stop {
                break;
            }
            match fid {
                0 => ret = input.read_binary()?,
                _ => input.skip(fty)?,
            }
            input.read_field_end()?;
        }
        input.read_struct_end()?;
        Ok(ret)
    })
}

fn echo_method(input: &mut BinaryIn<'_>, output: &mut BinaryOut) -> Result<()> {
    let mut payload = Vec::new();
    input.read_struct_begin()?;
    loop {
        let (fty, fid) = input.read_field_begin()?;
        if fty == TType::Stop {
            break;
        }
        match fid {
            1 => payload = input.read_binary()?,
            _ => input.skip(fty)?,
        }
        input.read_field_end()?;
    }
    input.read_struct_end()?;
    output.write_struct_begin("echo_result");
    output.write_field_begin(TType::String, 0);
    output.write_binary(&payload);
    output.write_field_end();
    output.write_field_stop();
    output.write_struct_end();
    Ok(())
}

/// The server-side echo service: a `Router` with one method.
pub fn echo_router() -> Router {
    Router::new().add("echo", echo_method)
}

/// A served echo service and a client for it: what the three echo
/// workloads and the engine probe run against.
pub struct EchoDeployment {
    pub fabric: Fabric,
    pub server: HatServer,
    pub client: HatClient,
}

/// Serve `echo` under the given hints and connect a client. The handler is
/// `echo_router()`; while `log` is on it also records each invocation.
pub fn deploy_echo(
    service_hints: &str,
    fn_hints: &str,
    policy: ServerPolicy,
    log: Arc<HandlerLog>,
) -> EchoDeployment {
    let schema = echo_schema(service_hints, fn_hints);
    let fabric = Fabric::new(SimConfig::default());
    let server_node = fabric.add_node("server");
    let client_node = fabric.add_node("client");
    let server = HatServer::serve(
        &fabric,
        &server_node,
        "echo",
        schema.clone(),
        policy,
        Arc::new(move || {
            let log = log.clone();
            let mut router = echo_router();
            Box::new(move |request: &[u8]| {
                if !log.is_on() {
                    return router.handle(request);
                }
                let start = now_ns();
                let reply = router.handle(request);
                log.push(start, now_ns());
                reply
            })
        }),
    );
    let client = HatClient::new(&fabric, &client_node, "echo", &schema);
    EchoDeployment { fabric, server, client }
}

impl EchoDeployment {
    pub fn shutdown(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

struct EchoStack {
    deployment: EchoDeployment,
    inputs: EchoInputs,
    pos: usize,
    seq: i32,
    batch: usize,
    handler_log: Arc<HandlerLog>,
    handler_spans: Vec<(u64, u64)>,
}

impl EchoStack {
    fn deploy(
        seed: u64,
        payload_len: usize,
        service_hints: &str,
        fn_hints: &str,
        policy: ServerPolicy,
        batch: usize,
    ) -> EchoStack {
        let inputs = gen::echo_inputs(seed, payload_len);
        let handler_log = Arc::new(HandlerLog::default());
        let mut stack = EchoStack {
            deployment: deploy_echo(service_hints, fn_hints, policy, handler_log.clone()),
            inputs,
            pos: 0,
            seq: 0,
            batch,
            handler_log,
            handler_spans: Vec::new(),
        };
        let first = stack.step(Drive::Stack, &mut Trace::new());
        assert_eq!(first.failed, 0, "first echo on a fresh deployment failed");
        stack
    }

    fn next_payload(&mut self) -> usize {
        let idx = self.inputs.ring[self.pos] as usize;
        self.pos = (self.pos + 1) % RING_LEN;
        idx
    }

    /// Record the server-side handler spans logged since the last step as
    /// children of `engine.call`; returns the time they cover.
    fn handler_child_ns(&mut self, trace: &mut Trace, first_op: u64) -> u64 {
        if !trace.on {
            return 0;
        }
        self.handler_log.drain_into(&mut self.handler_spans);
        let mut covered = 0;
        for (i, &(start, end)) in self.handler_spans.iter().enumerate() {
            trace.span(first_op + i as u64, SpanName::ServerHandler, start, end, 0);
            covered += end - start;
        }
        covered
    }

    fn step_single(&mut self, drive: Drive, trace: &mut Trace) -> Step {
        let begin = now_ns();
        let idx = self.next_payload();
        self.seq = self.seq.wrapping_add(1);
        let (seq, op) = (self.seq, self.seq as u64);
        let payload = &self.inputs.pool[idx];
        let t0 = now_ns();
        let (echoed, t1, t2) = match drive {
            Drive::Stack => {
                let request = encode_echo(seq, payload);
                let t1 = now_ns();
                let reply = self.deployment.client.call("echo", &request);
                let t2 = now_ns();
                (reply.and_then(|r| decode_echo(&r, seq)), t1, t2)
            }
            Drive::Stubbed => (Ok(payload.clone()), t0, t0),
        };
        let t3 = now_ns();
        let ok = echoed.is_ok_and(|e| e == *payload);
        let payload_bytes = 2 * payload.len() as u64;
        let handler_ns = self.handler_child_ns(trace, op);
        let end = now_ns();
        trace.span(op, SpanName::CodecEncode, t0, t1, 0);
        trace.span(op, SpanName::EngineCall, t1, t2, handler_ns);
        trace.span(op, SpanName::CodecDecode, t2, t3, 0);
        trace.span(op, SpanName::BenchOp, begin, end, t3 - t0);
        Step {
            class: Class::Echo,
            ops: 1,
            failed: u32::from(!ok),
            latency_ns: t3 - t0,
            payload_bytes,
        }
    }

    /// One `call_many` batch. The caller blocks until the whole batch is
    /// back, so the batch time is the latency each of its requests saw.
    fn step_batch(&mut self, drive: Drive, trace: &mut Trace) -> Step {
        let begin = now_ns();
        let picks: Vec<usize> = (0..self.batch).map(|_| self.next_payload()).collect();
        let payload_bytes = picks.iter().map(|&i| 2 * self.inputs.pool[i].len() as u64).sum();
        if drive == Drive::Stubbed {
            self.seq = self.seq.wrapping_add(self.batch as i32);
            let wrong = picks.iter().filter(|&&i| {
                std::hint::black_box(self.inputs.pool[i].clone()) != self.inputs.pool[i]
            });
            let failed = wrong.count() as u32;
            let latency_ns = now_ns() - begin;
            return Step {
                class: Class::Echo,
                ops: self.batch as u32,
                failed,
                latency_ns,
                payload_bytes,
            };
        }
        let first_seq = self.seq.wrapping_add(1);
        self.seq = self.seq.wrapping_add(self.batch as i32);
        let first_op = first_seq as u64;
        let t0 = now_ns();
        let mut child_ns = 0;
        let requests: Vec<Vec<u8>> = picks
            .iter()
            .enumerate()
            .map(|(i, &idx)| {
                let e0 = now_ns();
                let request = encode_echo(first_seq.wrapping_add(i as i32), &self.inputs.pool[idx]);
                let e1 = now_ns();
                trace.span(first_op + i as u64, SpanName::CodecEncode, e0, e1, 0);
                child_ns += e1 - e0;
                request
            })
            .collect();
        let t1 = now_ns();
        let replies = self.deployment.client.call_many("echo", &requests);
        let t2 = now_ns();
        let mut failed = 0;
        match replies {
            Ok(replies) => {
                for (i, (reply, &idx)) in replies.iter().zip(&picks).enumerate() {
                    let d0 = now_ns();
                    let echoed = decode_echo(reply, first_seq.wrapping_add(i as i32));
                    let d1 = now_ns();
                    trace.span(first_op + i as u64, SpanName::CodecDecode, d0, d1, 0);
                    child_ns += d1 - d0;
                    failed += u32::from(!echoed.is_ok_and(|e| e == self.inputs.pool[idx]));
                }
                failed += (picks.len() - replies.len()) as u32;
            }
            Err(_) => failed = self.batch as u32,
        }
        let t3 = now_ns();
        let handler_ns = self.handler_child_ns(trace, first_op);
        let end = now_ns();
        trace.span(first_op, SpanName::EngineCall, t1, t2, handler_ns);
        trace.span(first_op, SpanName::BenchOp, begin, end, child_ns + (t2 - t1));
        Step {
            class: Class::Echo,
            ops: self.batch as u32,
            failed,
            latency_ns: t3 - t0,
            payload_bytes,
        }
    }
}

impl Stack for EchoStack {
    fn step(&mut self, drive: Drive, trace: &mut Trace) -> Step {
        if self.batch == 1 {
            self.step_single(drive, trace)
        } else {
            self.step_batch(drive, trace)
        }
    }

    fn fabric(&self) -> &Fabric {
        &self.deployment.fabric
    }

    fn set_handler_spans(&self, on: bool) {
        self.handler_log.set_on(on);
    }

    fn shutdown(self: Box<Self>) {
        self.deployment.shutdown();
    }
}

// ---------------------------------------------------------------------------
// KV workloads
// ---------------------------------------------------------------------------

struct KvStack {
    fabric: Fabric,
    server: HatKvServer,
    client: HatKVClient,
    keys: Vec<Vec<u8>>,
    /// The oracle: fill byte of the last value this (sole) client's acked
    /// PUT/MultiPUT wrote per record, else the preload byte. Every GET and
    /// MultiGET — one-sided or RPC — must return exactly that.
    model: Vec<u8>,
    ring: Vec<KvOp>,
    pos: usize,
    op: u64,
}

fn value_matches(value: &[u8], fill: u8) -> bool {
    value.len() == VALUE_LEN && value.iter().all(|&b| b == fill)
}

impl KvStack {
    fn deploy(seed: u64, records: u32, mix: gen::Mix) -> KvStack {
        let ring = gen::kv_ring(seed, records, mix);
        let keys: Vec<Vec<u8>> = (0..records).map(gen::key).collect();
        let fabric = Fabric::new(SimConfig::default());
        let server_node = fabric.add_node("server");
        let client_node = fabric.add_node("client");
        let config = DbConfig { sync_mode: SyncMode::NoSync, ..DbConfig::default() };
        let server =
            HatKvServer::start(&fabric, &server_node, "hatkv", KvVariant::FunctionHints, config);
        for chunk in keys.chunks(256) {
            server.db().multi_put(chunk.iter().map(|k| (k.clone(), vec![PRELOAD_BYTE; VALUE_LEN])));
        }
        let client = HatKVClient::connect(&fabric, &client_node, "hatkv");
        let mut stack = KvStack {
            fabric,
            server,
            client,
            keys,
            model: vec![PRELOAD_BYTE; records as usize],
            ring: Vec::new(),
            pos: 0,
            op: 0,
        };
        // One verified op of each class in the mix opens the channels the run
        // uses, and no others: an idle server connection is not free.
        let batch: [u32; BATCH] = std::array::from_fn(|i| i as u32);
        let first_ops = [
            KvOp::Get(0),
            KvOp::Put(0, PRELOAD_BYTE),
            KvOp::MultiGet(batch),
            KvOp::MultiPut(batch, [PRELOAD_BYTE; BATCH]),
        ];
        stack.ring =
            first_ops.into_iter().zip(mix).filter(|(_, n)| *n > 0).map(|(op, _)| op).collect();
        for _ in 0..stack.ring.len() {
            let first = stack.step(Drive::Stack, &mut Trace::new());
            assert_eq!(first.failed, 0, "first {:?} on a fresh deployment failed", first.class);
        }
        stack.ring = ring;
        stack.pos = 0;
        stack
    }

    fn next_op(&mut self) -> KvOp {
        let op = self.ring[self.pos].clone();
        self.pos = (self.pos + 1) % self.ring.len();
        self.op += 1;
        op
    }

    fn batch_keys(&self, records: &[u32; BATCH]) -> Vec<Vec<u8>> {
        records.iter().map(|&r| self.keys[r as usize].clone()).collect()
    }
}

impl Stack for KvStack {
    fn step(&mut self, drive: Drive, trace: &mut Trace) -> Step {
        let begin = now_ns();
        let op = self.next_op();
        let stubbed = drive == Drive::Stubbed;
        let expected = |model: &[u8], r: u32| vec![model[r as usize]; VALUE_LEN];
        let (class, span, ok, t0, t1, keys_moved);
        match op {
            KvOp::Get(r) => {
                let key = self.keys[r as usize].clone();
                t0 = now_ns();
                let reply =
                    if stubbed { Ok(expected(&self.model, r)) } else { self.client.get(key) };
                t1 = now_ns();
                ok = reply.is_ok_and(|v| value_matches(&v, self.model[r as usize]));
                (class, span, keys_moved) = (Class::Get, SpanName::KvGet, 1);
            }
            KvOp::Put(r, fill) => {
                let (key, value) = (self.keys[r as usize].clone(), vec![fill; VALUE_LEN]);
                t0 = now_ns();
                let reply = if stubbed { Ok(()) } else { self.client.put(key, value) };
                t1 = now_ns();
                ok = reply.is_ok();
                if ok {
                    self.model[r as usize] = fill;
                }
                (class, span, keys_moved) = (Class::Put, SpanName::KvPut, 1);
            }
            KvOp::MultiGet(records) => {
                let keys = self.batch_keys(&records);
                t0 = now_ns();
                let reply = if stubbed {
                    Ok(records.iter().map(|&r| expected(&self.model, r)).collect())
                } else {
                    self.client.multiget(keys)
                };
                t1 = now_ns();
                ok = reply.is_ok_and(|values| {
                    values.len() == BATCH
                        && values
                            .iter()
                            .zip(&records)
                            .all(|(v, &r)| value_matches(v, self.model[r as usize]))
                });
                (class, span, keys_moved) = (Class::MultiGet, SpanName::KvMultiGet, BATCH);
            }
            KvOp::MultiPut(records, fills) => {
                let keys = self.batch_keys(&records);
                let values = fills.iter().map(|&f| vec![f; VALUE_LEN]).collect();
                t0 = now_ns();
                let reply = if stubbed { Ok(()) } else { self.client.multiput(keys, values) };
                t1 = now_ns();
                ok = reply.is_ok();
                if ok {
                    for (&r, &f) in records.iter().zip(&fills) {
                        self.model[r as usize] = f;
                    }
                }
                (class, span, keys_moved) = (Class::MultiPut, SpanName::KvMultiPut, BATCH);
            }
        }
        let end = now_ns();
        trace.span(self.op, span, t0, t1, 0);
        trace.span(self.op, SpanName::BenchOp, begin, end, t1 - t0);
        Step {
            class,
            ops: 1,
            failed: u32::from(!ok),
            latency_ns: t1 - t0,
            payload_bytes: (keys_moved * (gen::KEY_LEN + VALUE_LEN)) as u64,
        }
    }

    fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    fn db_stats(&self) -> DbStatsSnapshot {
        self.server.db().shard_stats().into_iter().fold(DbStatsSnapshot::default(), |a, b| a + b)
    }

    fn shutdown(self: Box<Self>) {
        drop(self.client);
        self.server.shutdown();
    }
}
