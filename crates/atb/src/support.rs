//! Shared ATB plumbing: the echo/mix service, its hint schemas, and the
//! one server and client every [`crate::Mode`] runs on.

use std::sync::Arc;

use hat_idl::hints::{Hint, HintBlock};
use hat_rdma_sim::{Fabric, Node};
use hatrpc_core::dispatch::{decode_reply, encode_call, Router};
use hatrpc_core::engine::{HatClient, HatServer, ServerPolicy};
use hatrpc_core::error::Result;
use hatrpc_core::protocol::binary::{BinaryIn, BinaryOut};
use hatrpc_core::protocol::TType;
use hatrpc_core::selection::Selection;
use hatrpc_core::service::ServiceSchema;

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
/// count and payload size under test (paper §5.2), plus a `queue_depth`
/// hint when `depth > 1`: each client keeps up to `depth` echo calls in
/// flight on a pipelined channel (open loop).
pub fn throughput_schema_depth(payload: usize, clients: usize, depth: usize) -> ServiceSchema {
    let mut schema = ServiceSchema {
        name: "AtbEcho".to_string(),
        service_hints: hints(&[
            ("perf_goal", "throughput"),
            ("concurrency", &clients.to_string()),
            ("payload_size", &payload.to_string()),
        ]),
        functions: vec![("echo".to_string(), HintBlock::default())],
    };
    if depth > 1 {
        let depth = Hint { key: "queue_depth".into(), value: depth.to_string() };
        schema.service_hints.shared.push(depth);
    }
    schema
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
    let echo = |input: &mut BinaryIn<'_>, output: &mut BinaryOut, check: bool| -> Result<()> {
        let payload = read_payload(input, 1)?;
        if check {
            // Server-side processing cost scaling with payload size.
            std::hint::black_box(checksum(&payload));
        }
        write_payload(output, 0, &payload);
        Ok(())
    };
    Router::new()
        .add("echo", move |i, o| echo(i, o, false))
        .add("fast", move |i, o| echo(i, o, true))
        .add("bulk", move |i, o| echo(i, o, true))
}

/// Encode an ATB call for `method` carrying `payload`.
pub fn encode_echo(method: &str, seq: i32, payload: &[u8]) -> Vec<u8> {
    encode_call(method, seq, |out| write_payload(out, 1, payload))
}

/// Decode an ATB reply, returning the echoed payload.
pub fn decode_echo(reply: &[u8], seq: i32) -> Result<Vec<u8>> {
    decode_reply(reply, seq, |input| read_payload(input, 0))
}

/// Write a struct whose one field, `id`, is the binary `payload`.
fn write_payload(out: &mut BinaryOut, id: i16, payload: &[u8]) {
    use hatrpc_core::protocol::TOutputProtocol;
    out.write_struct_begin("payload");
    out.write_field_begin(TType::String, id);
    out.write_binary(payload);
    out.write_field_end();
    out.write_field_stop();
    out.write_struct_end();
}

/// The binary field `id` of the struct `input` is at (empty if absent).
fn read_payload(input: &mut BinaryIn<'_>, id: i16) -> Result<Vec<u8>> {
    use hatrpc_core::protocol::TInputProtocol;
    input.read_struct_begin()?;
    let mut payload = Vec::new();
    loop {
        let (fty, fid) = input.read_field_begin()?;
        if fty == TType::Stop {
            break;
        }
        if fid == id {
            payload = input.read_binary()?;
        } else {
            input.skip(fty)?;
        }
    }
    input.read_struct_end()?;
    Ok(payload)
}

/// Start the echo/mix server for `mode`. Every mode runs a [`HatServer`]:
/// HatRPC and IPoIB serve `schema` (an IPoIB client reaches the server's
/// `{service}/tcp` socket loop), and a fixed-protocol baseline serves an
/// unhinted schema, so the server polls the way the client's preamble
/// asks — the pinned mode's polling on both sides.
pub fn serve(
    fabric: &Fabric,
    node: &Arc<Node>,
    service: &str,
    mode: Mode,
    schema: &ServiceSchema,
) -> HatServer {
    let schema = match mode {
        Mode::Fixed(..) => ServiceSchema::unhinted(&schema.name),
        Mode::HatRpc | Mode::Ipoib => schema.clone(),
    };
    HatServer::serve(
        fabric,
        node,
        service,
        schema,
        ServerPolicy::Threaded,
        Arc::new(|| {
            let mut router = atb_router();
            Box::new(move |req: &[u8]| router.handle(req))
        }),
    )
}

/// An ATB client for any [`Mode`]: Thrift-encoded echo calls over one
/// [`HatClient`] — hinted (HatRPC), pinned to the mode's protocol and
/// polling (a fixed baseline), or hinted `transport = tcp` (IPoIB). The
/// schema sizes the channel and its `queue_depth` hint sets the window
/// in every mode.
pub struct AtbClient {
    engine: HatClient,
}

impl AtbClient {
    /// A client of `service` for `mode`; its channels open on first use.
    pub fn connect(
        fabric: &Fabric,
        node: &Arc<Node>,
        service: &str,
        mode: Mode,
        schema: &ServiceSchema,
    ) -> AtbClient {
        let engine = match mode {
            Mode::HatRpc => HatClient::new(fabric, node, service, schema),
            Mode::Fixed(protocol, poll) => {
                HatClient::pinned(fabric, node, service, schema, Selection { protocol, poll })
            }
            Mode::Ipoib => {
                let mut schema = schema.clone();
                schema
                    .service_hints
                    .shared
                    .push(Hint { key: "transport".into(), value: "tcp".into() });
                HatClient::new(fabric, node, service, &schema)
            }
        };
        AtbClient { engine }
    }

    /// The engine underneath (plans, open channels).
    pub fn engine(&self) -> &HatClient {
        &self.engine
    }

    /// One echo round trip of `method` carrying `payload`.
    pub fn call(&mut self, method: &str, seq: i32, payload: &[u8]) -> Result<Vec<u8>> {
        let reply = self.engine.call(method, &encode_echo(method, seq, payload))?;
        decode_echo(&reply, seq)
    }

    /// Open-loop batch: one echo per payload, kept `queue_depth` deep on
    /// the channel's window ([`HatClient::call_many`]; back-to-back calls
    /// on a window of one). Sequence numbers run from `base_seq`; replies
    /// come back in request order.
    pub fn call_many(
        &mut self,
        method: &str,
        base_seq: i32,
        payloads: &[Vec<u8>],
    ) -> Result<Vec<Vec<u8>>> {
        let seq = |i: usize| base_seq + i as i32;
        let requests: Vec<Vec<u8>> =
            payloads.iter().enumerate().map(|(i, p)| encode_echo(method, seq(i), p)).collect();
        let replies = self.engine.call_many(method, &requests)?;
        replies.iter().enumerate().map(|(i, r)| decode_echo(r, seq(i))).collect()
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
        let thr = throughput_schema_depth(128 * 1024, 64, 1);
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
            let server = serve(&fabric, &snode, "atb", mode, &schema);
            let mut client = AtbClient::connect(&fabric, &cnode, "atb", mode, &schema);
            let payload = vec![5u8; 777];
            let echoed = client.call("echo", 1, &payload).unwrap();
            assert_eq!(echoed, payload, "{}", mode.label());
            drop(client);
            server.shutdown();
        }
    }
}
