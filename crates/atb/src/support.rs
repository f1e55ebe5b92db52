//! Shared ATB plumbing: the echo/mix service, servers and clients for
//! each [`crate::Mode`], and hint-schema builders.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hat_idl::hints::{Hint, HintBlock};
use hat_protocols::{accept_server, connect_client, ProtocolConfig};
use hat_rdma_sim::{Fabric, Node};
use hatrpc_core::dispatch::{decode_reply, encode_call, Router};
use hatrpc_core::engine::{HatClient, HatServer, ServerPolicy};
use hatrpc_core::error::Result;
use hatrpc_core::protocol::TType;
use hatrpc_core::service::ServiceSchema;
use hatrpc_core::transport::{ServerTransport, TServerSocket, TSocket};

use crate::Mode;

/// Build a `HintBlock` from `(key, value)` pairs (shared group).
pub fn hints(pairs: &[(&str, &str)]) -> HintBlock {
    HintBlock {
        shared: pairs
            .iter()
            .map(|(k, v)| Hint { key: k.to_string(), value: v.to_string() })
            .collect(),
        ..Default::default()
    }
}

/// The ATB latency-benchmark schema: service hinted `latency` with
/// `concurrency = 1` (paper §5.2) and the payload size under test.
pub fn latency_schema(payload: usize) -> ServiceSchema {
    ServiceSchema {
        name: "AtbEcho".to_string(),
        service_hints: hints(&[
            ("perf_goal", "latency"),
            ("concurrency", "1"),
            ("payload_size", &payload.to_string()),
        ]),
        functions: vec![("echo".to_string(), HintBlock::default())],
    }
}

/// The ATB throughput-benchmark schema: `throughput` goal with the client
/// count and payload size under test (paper §5.2).
pub fn throughput_schema(payload: usize, clients: usize) -> ServiceSchema {
    throughput_schema_depth(payload, clients, 1)
}

/// [`throughput_schema`] plus a `queue_depth` hint: each client keeps up
/// to `depth` echo calls in flight on a pipelined channel (open loop).
/// `depth <= 1` leaves the hint off — the classic closed-loop schema.
pub fn throughput_schema_depth(payload: usize, clients: usize, depth: usize) -> ServiceSchema {
    let mut pairs = vec![
        ("perf_goal".to_string(), "throughput".to_string()),
        ("concurrency".to_string(), clients.to_string()),
        ("payload_size".to_string(), payload.to_string()),
    ];
    if depth > 1 {
        pairs.push(("queue_depth".to_string(), depth.to_string()));
    }
    let pairs: Vec<(&str, &str)> = pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    ServiceSchema {
        name: "AtbEcho".to_string(),
        service_hints: hints(&pairs),
        functions: vec![("echo".to_string(), HintBlock::default())],
    }
}

/// The Mix Comm schema: one latency-hinted function and one
/// throughput-hinted function in the same service (paper §5.3).
pub fn mix_schema(payload: usize, clients: usize) -> ServiceSchema {
    ServiceSchema {
        name: "AtbMix".to_string(),
        service_hints: hints(&[("concurrency", &clients.to_string())]),
        functions: vec![
            (
                "fast".to_string(),
                hints(&[("perf_goal", "latency"), ("payload_size", &payload.to_string())]),
            ),
            (
                "bulk".to_string(),
                hints(&[("perf_goal", "throughput"), ("payload_size", &payload.to_string())]),
            ),
        ],
    }
}

/// Fletcher-style checksum — the server-side work of the Mix Comm
/// benchmark ("the service handler at server side will compute a checksum
/// whose overhead increases with the payload size").
pub fn checksum(data: &[u8]) -> u64 {
    let mut a: u64 = 1;
    let mut b: u64 = 0;
    for &byte in data {
        a = a.wrapping_add(byte as u64);
        b = b.wrapping_add(a);
    }
    (b << 32) | (a & 0xffff_ffff)
}

/// The raw-message handler every ATB server runs: `echo`/`fast` return
/// the payload; `bulk` additionally computes the checksum.
pub fn atb_router() -> Router {
    let echo = |input: &mut hatrpc_core::protocol::binary::BinaryIn<'_>,
                output: &mut hatrpc_core::protocol::binary::BinaryOut,
                check: bool|
     -> Result<()> {
        use hatrpc_core::protocol::{TInputProtocol, TOutputProtocol};
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
        input.read_struct_end()?;
        if check {
            // Server-side processing cost scaling with payload size.
            std::hint::black_box(checksum(&payload));
        }
        output.write_struct_begin("result");
        output.write_field_begin(TType::String, 0);
        output.write_binary(&payload);
        output.write_field_end();
        output.write_field_stop();
        output.write_struct_end();
        Ok(())
    };
    Router::new()
        .add("echo", move |i, o| echo(i, o, false))
        .add("fast", move |i, o| echo(i, o, true))
        .add("bulk", move |i, o| echo(i, o, true))
}

/// Encode an ATB call for `method` carrying `payload`.
pub fn encode_echo(method: &str, seq: i32, payload: &[u8]) -> Vec<u8> {
    use hatrpc_core::protocol::TOutputProtocol;
    encode_call(method, seq, |out| {
        out.write_struct_begin("args");
        out.write_field_begin(TType::String, 1);
        out.write_binary(payload);
        out.write_field_end();
        out.write_field_stop();
        out.write_struct_end();
    })
}

/// Decode an ATB reply, returning the echoed payload.
pub fn decode_echo(reply: &[u8], seq: i32) -> Result<Vec<u8>> {
    use hatrpc_core::protocol::TInputProtocol;
    decode_reply(reply, seq, |input| {
        input.read_struct_begin()?;
        let mut payload = Vec::new();
        loop {
            let (fty, fid) = input.read_field_begin()?;
            if fty == TType::Stop {
                break;
            }
            if fid == 0 {
                payload = input.read_binary()?;
            } else {
                input.skip(fty)?;
            }
        }
        Ok(payload)
    })
}

/// Extra wire bytes the Thrift envelope adds around an ATB payload
/// (message header + arg struct framing). Used to size fixed-protocol
/// buffers.
pub const ENVELOPE_SLACK: usize = 128;

/// Ring geometry for fixed-protocol channels: a pipelined channel's
/// window IS its ring depth; classic channels keep the default ring.
fn fixed_ring_slots(depth: usize) -> usize {
    if depth > 1 {
        depth
    } else {
        ProtocolConfig::default().ring_slots
    }
}

/// A running ATB server for any [`Mode`].
pub enum AtbServer {
    /// Hint-aware engine server.
    Hat(HatServer),
    /// Fixed-protocol accept loop.
    Fixed {
        shutdown: Arc<AtomicBool>,
        thread: Option<std::thread::JoinHandle<()>>,
        fabric: Fabric,
        service: String,
    },
    /// IPoIB accept loop.
    Ipoib {
        shutdown: Arc<AtomicBool>,
        thread: Option<std::thread::JoinHandle<()>>,
        fabric: Fabric,
        service: String,
    },
}

impl AtbServer {
    /// Start the server for `mode` with the given hint `schema` (HatRPC
    /// mode) or buffer geometry (fixed mode).
    pub fn start(
        fabric: &Fabric,
        node: &Arc<Node>,
        service: &str,
        mode: Mode,
        schema: ServiceSchema,
        max_msg: usize,
    ) -> AtbServer {
        Self::start_depth(fabric, node, service, mode, schema, max_msg, 1)
    }

    /// Like [`AtbServer::start`] with an explicit pipeline depth. Fixed
    /// mode builds the protocol's pipelined server when `depth > 1`;
    /// HatRPC mode ignores `depth` here — it negotiates the window from
    /// the schema's `queue_depth` hint per connection.
    pub fn start_depth(
        fabric: &Fabric,
        node: &Arc<Node>,
        service: &str,
        mode: Mode,
        schema: ServiceSchema,
        max_msg: usize,
        depth: usize,
    ) -> AtbServer {
        match mode {
            Mode::HatRpc => {
                let server = HatServer::serve(
                    fabric,
                    node,
                    service,
                    schema,
                    ServerPolicy::Threaded,
                    Arc::new(|| {
                        let mut router = atb_router();
                        Box::new(move |req: &[u8]| router.handle(req))
                    }),
                );
                AtbServer::Hat(server)
            }
            Mode::Fixed(kind, poll) => {
                let shutdown = Arc::new(AtomicBool::new(false));
                let listener = fabric.listen(node, service, Default::default());
                let flag = shutdown.clone();
                let cfg = ProtocolConfig {
                    poll,
                    max_msg: max_msg + ENVELOPE_SLACK,
                    ring_slots: fixed_ring_slots(depth),
                    ..Default::default()
                };
                let thread = std::thread::spawn(move || {
                    let mut conns = Vec::new();
                    while !flag.load(Ordering::Acquire) {
                        let Ok(ep) = listener.accept_timeout(std::time::Duration::from_millis(50))
                        else {
                            continue;
                        };
                        let cfg = cfg.clone();
                        conns.push(std::thread::spawn(move || {
                            let node_id = ep.node().id();
                            let built = if depth > 1 {
                                hat_protocols::accept_server_pipelined(kind, ep, cfg)
                                    .map(|s| s as Box<dyn hat_protocols::RpcServer>)
                            } else {
                                accept_server(kind, ep, cfg)
                            };
                            let mut server = match built {
                                Ok(s) => s,
                                Err(e) => {
                                    hat_trace::annotate(
                                        node_id,
                                        hat_rdma_sim::now_ns(),
                                        &format!("server-side protocol setup failed: {e}"),
                                    );
                                    return;
                                }
                            };
                            let mut router = atb_router();
                            if let Err(e) = server.serve_loop(&mut |req| router.handle(req)) {
                                hat_trace::annotate(
                                    node_id,
                                    hat_rdma_sim::now_ns(),
                                    &format!("serve loop ended with error: {e}"),
                                );
                            }
                        }));
                    }
                    for c in conns {
                        let _ = c.join();
                    }
                });
                AtbServer::Fixed {
                    shutdown,
                    thread: Some(thread),
                    fabric: fabric.clone(),
                    service: service.to_string(),
                }
            }
            Mode::Ipoib => {
                let shutdown = Arc::new(AtomicBool::new(false));
                let listener = fabric.listen_ipoib(node, service);
                let flag = shutdown.clone();
                let thread = std::thread::spawn(move || {
                    let mut conns = Vec::new();
                    while !flag.load(Ordering::Acquire) {
                        let Ok(stream) =
                            listener.accept_timeout(std::time::Duration::from_millis(50))
                        else {
                            continue;
                        };
                        conns.push(std::thread::spawn(move || {
                            let mut server = TServerSocket::from_stream(stream);
                            let mut router = atb_router();
                            let _ = server.serve_loop(&mut |req| router.handle(req));
                        }));
                    }
                    for c in conns {
                        let _ = c.join();
                    }
                });
                AtbServer::Ipoib {
                    shutdown,
                    thread: Some(thread),
                    fabric: fabric.clone(),
                    service: service.to_string(),
                }
            }
        }
    }

    /// Stop the server.
    pub fn shutdown(self) {
        match self {
            AtbServer::Hat(s) => {
                s.shutdown();
            }
            AtbServer::Fixed { shutdown, mut thread, fabric, service } => {
                shutdown.store(true, Ordering::Release);
                fabric.unlisten(&service);
                if let Some(t) = thread.take() {
                    let _ = t.join();
                }
            }
            AtbServer::Ipoib { shutdown, mut thread, fabric, service } => {
                shutdown.store(true, Ordering::Release);
                fabric.unlisten_ipoib(&service);
                if let Some(t) = thread.take() {
                    let _ = t.join();
                }
            }
        }
    }
}

/// An ATB client for any [`Mode`]: issues Thrift-encoded echo calls.
pub enum AtbClient {
    Hat(Box<HatClient>),
    Fixed(Box<dyn hat_protocols::RpcClient>),
    /// Fixed protocol over its pipelined channel (depth > 1).
    Piped(Box<dyn hat_protocols::PipelinedClient>),
    Ipoib(TSocket),
}

impl AtbClient {
    /// Connect to `service` for `mode`.
    pub fn connect(
        fabric: &Fabric,
        node: &Arc<Node>,
        service: &str,
        mode: Mode,
        schema: &ServiceSchema,
        max_msg: usize,
    ) -> Result<AtbClient> {
        Self::connect_depth(fabric, node, service, mode, schema, max_msg, 1)
    }

    /// Like [`AtbClient::connect`] with an explicit pipeline depth. Fixed
    /// mode opens the protocol's pipelined channel when `depth > 1`;
    /// HatRPC mode takes its window from the schema's `queue_depth` hint.
    pub fn connect_depth(
        fabric: &Fabric,
        node: &Arc<Node>,
        service: &str,
        mode: Mode,
        schema: &ServiceSchema,
        max_msg: usize,
        depth: usize,
    ) -> Result<AtbClient> {
        Ok(match mode {
            Mode::HatRpc => AtbClient::Hat(Box::new(HatClient::new(fabric, node, service, schema))),
            Mode::Fixed(kind, poll) => {
                let ep = fabric.dial(node, service)?;
                let cfg = ProtocolConfig {
                    poll,
                    max_msg: max_msg + ENVELOPE_SLACK,
                    ring_slots: fixed_ring_slots(depth),
                    ..Default::default()
                };
                if depth > 1 {
                    AtbClient::Piped(hat_protocols::connect_client_pipelined(kind, ep, cfg)?)
                } else {
                    AtbClient::Fixed(connect_client(kind, ep, cfg)?)
                }
            }
            Mode::Ipoib => AtbClient::Ipoib(TSocket::dial(fabric, node, service)?),
        })
    }

    /// One echo round trip of `method` carrying `payload`.
    pub fn call(&mut self, method: &str, seq: i32, payload: &[u8]) -> Result<Vec<u8>> {
        let request = encode_echo(method, seq, payload);
        let reply = match self {
            AtbClient::Hat(c) => c.call(method, &request)?,
            AtbClient::Fixed(c) => c.call(&request)?,
            AtbClient::Piped(p) => p.call(&request)?,
            AtbClient::Ipoib(c) => {
                hatrpc_core::transport::ClientTransport::call(c, method, &request)?
            }
        };
        decode_echo(&reply, seq)
    }

    /// Open-loop batch: issue one echo per payload, keeping the channel's
    /// window full (pipelined stacks) or degrading to back-to-back
    /// closed-loop calls (classic stacks). Sequence numbers run from
    /// `base_seq`; replies come back in request order.
    pub fn call_many(
        &mut self,
        method: &str,
        base_seq: i32,
        payloads: &[Vec<u8>],
    ) -> Result<Vec<Vec<u8>>> {
        match self {
            AtbClient::Hat(c) => {
                let requests: Vec<Vec<u8>> = payloads
                    .iter()
                    .enumerate()
                    .map(|(i, p)| encode_echo(method, base_seq + i as i32, p))
                    .collect();
                let replies = c.call_many(method, &requests)?;
                replies
                    .iter()
                    .enumerate()
                    .map(|(i, r)| decode_echo(r, base_seq + i as i32))
                    .collect()
            }
            AtbClient::Piped(p) => {
                // Sliding window straight on the protocol channel.
                let window = p.window();
                let mut inflight = std::collections::VecDeque::with_capacity(window);
                let mut out = Vec::with_capacity(payloads.len());
                let mut next = 0usize;
                loop {
                    // Refill only once the window has drained to half, so
                    // submits stay bursty (one doorbell per burst) instead
                    // of ack-clocking into one doorbell per call.
                    if inflight.len() <= window / 2 {
                        while inflight.len() < window && next < payloads.len() {
                            let seq = base_seq + next as i32;
                            let token = p.submit(&encode_echo(method, seq, &payloads[next]))?;
                            inflight.push_back((token, seq));
                            next += 1;
                        }
                    }
                    let Some(&(token, seq)) = inflight.front() else { break };
                    let reply = p.wait(token)?;
                    out.push(decode_echo(reply.as_slice(), seq)?);
                    inflight.pop_front();
                }
                Ok(out)
            }
            _ => {
                let mut out = Vec::with_capacity(payloads.len());
                for (i, p) in payloads.iter().enumerate() {
                    out.push(self.call(method, base_seq + i as i32, p)?);
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_protocols::ProtocolKind;
    use hat_rdma_sim::{PollMode, SimConfig};

    #[test]
    fn checksum_varies_with_content() {
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
        assert_eq!(checksum(b""), 1);
    }

    #[test]
    fn schemas_resolve_to_expected_selections() {
        use hat_idl::hints::Side;
        let lat = latency_schema(512);
        let r = lat.resolved("echo", Side::Client);
        assert_eq!(r.concurrency, Some(1));
        let thr = throughput_schema(128 * 1024, 64);
        let r2 = thr.resolved("echo", Side::Client);
        assert_eq!(r2.payload_size, Some(128 * 1024));
        let mix = mix_schema(512, 8);
        assert_eq!(
            mix.resolved("fast", Side::Client).perf_goal,
            Some(hat_idl::hints::PerfGoal::Latency)
        );
        assert_eq!(
            mix.resolved("bulk", Side::Client).perf_goal,
            Some(hat_idl::hints::PerfGoal::Throughput)
        );
    }

    #[test]
    fn echo_roundtrip_every_mode() {
        for mode in
            [Mode::HatRpc, Mode::Fixed(ProtocolKind::DirectWriteImm, PollMode::Busy), Mode::Ipoib]
        {
            let fabric = Fabric::new(SimConfig::fast_test());
            let snode = fabric.add_node("server");
            let cnode = fabric.add_node("client");
            let schema = latency_schema(1024);
            let server = AtbServer::start(&fabric, &snode, "atb", mode, schema.clone(), 1024);
            let mut client =
                AtbClient::connect(&fabric, &cnode, "atb", mode, &schema, 1024).unwrap();
            let payload = vec![5u8; 777];
            let echoed = client.call("echo", 1, &payload).unwrap();
            assert_eq!(echoed, payload, "{}", mode.label());
            drop(client);
            server.shutdown();
        }
    }
}
