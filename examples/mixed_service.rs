//! The paper's motivating scenario (§3.3): one service with
//! heterogeneous functions — a distributed file system that "needs to
//! fetch metadata from metadata servers with low latency and write to
//! chunk servers with high throughput". Function-level hints give each
//! RPC its own protocol and an isolated connection.
//!
//! ```text
//! cargo run --example mixed_service
//! ```

use std::sync::Arc;

use hatrpc::core::dispatch::Router;
use hatrpc::core::engine::{HatClient, HatServer, ServerPolicy};
use hatrpc::core::protocol::{TInputProtocol, TOutputProtocol, TType};
use hatrpc::core::service::ServiceSchema;
use hatrpc::rdma::{now_ns, Fabric, SimConfig};

const IDL: &str = r#"
    service ChunkStore {
        hint: concurrency = 32;
        // Metadata lookups: small and latency-critical.
        binary stat(1: binary path) [ hint: perf_goal = latency, payload_size = 256; ]
        // Chunk writes: large and bandwidth-bound.
        void write_chunk(1: binary chunk) [ hint: perf_goal = throughput, payload_size = 256K; ]
        // Heartbeats: unimportant — keep them off the RDMA channels.
        void heartbeat() [ hint: transport = tcp; ]
    }
"#;

fn chunk_router() -> Router {
    Router::new()
        .add("stat", |input, output| {
            input.read_struct_begin()?;
            loop {
                let (fty, _) = input.read_field_begin()?;
                if fty == TType::Stop {
                    break;
                }
                input.skip(fty)?;
            }
            output.write_struct_begin("r");
            output.write_field_begin(TType::String, 0);
            output.write_binary(b"size=4096,mtime=1719000000");
            output.write_field_end();
            output.write_field_stop();
            output.write_struct_end();
            Ok(())
        })
        .add("write_chunk", |input, output| {
            input.read_struct_begin()?;
            let mut bytes = 0usize;
            loop {
                let (fty, fid) = input.read_field_begin()?;
                if fty == TType::Stop {
                    break;
                }
                if fid == 1 {
                    bytes = input.read_binary()?.len();
                } else {
                    input.skip(fty)?;
                }
            }
            let _ = bytes;
            output.write_struct_begin("r");
            output.write_field_stop();
            output.write_struct_end();
            Ok(())
        })
        .add("heartbeat", |input, output| {
            input.read_struct_begin()?;
            loop {
                let (fty, _) = input.read_field_begin()?;
                if fty == TType::Stop {
                    break;
                }
                input.skip(fty)?;
            }
            output.write_struct_begin("r");
            output.write_field_stop();
            output.write_struct_end();
            Ok(())
        })
}

fn main() {
    let schema = ServiceSchema::parse(IDL, "ChunkStore").expect("valid IDL");
    let fabric = Fabric::new(SimConfig::default());
    let snode = fabric.add_node("chunk-server");
    let cnode = fabric.add_node("fs-client");

    let server = HatServer::serve(
        &fabric,
        &snode,
        "chunkstore",
        schema.clone(),
        ServerPolicy::Threaded,
        Arc::new(|| {
            let mut router = chunk_router();
            Box::new(move |req: &[u8]| router.handle(req))
        }),
    );

    let mut client = HatClient::new(&fabric, &cnode, "chunkstore", &schema);
    for func in ["stat", "write_chunk", "heartbeat"] {
        let s = client.selection_for(func);
        println!("{func:<12} -> {} ({:?} polling)", s.protocol, s.poll);
    }

    // Drive the heterogeneous workload.
    use hatrpc::core::dispatch::encode_call;
    let encode = |method: &str, seq: i32, payload: &[u8]| {
        encode_call(method, seq, |out| {
            out.write_struct_begin("args");
            out.write_field_begin(TType::String, 1);
            out.write_binary(payload);
            out.write_field_end();
            out.write_field_stop();
            out.write_struct_end();
        })
    };

    // Warm channels.
    client.call("stat", &encode("stat", 1, b"/warm")).expect("stat");
    client.call("write_chunk", &encode("write_chunk", 2, &vec![0u8; 1024])).expect("chunk");
    client.call("heartbeat", &encode("heartbeat", 3, b"")).expect("hb");

    let t0 = now_ns();
    for i in 0..20 {
        client.call("stat", &encode("stat", 10 + i, b"/data/file")).expect("stat");
    }
    let stat_us = (now_ns() - t0) as f64 / 20_000.0;

    let chunk = vec![0xCD; 200 * 1024];
    let t1 = now_ns();
    for i in 0..10 {
        client.call("write_chunk", &encode("write_chunk", 100 + i, &chunk)).expect("chunk");
    }
    let wall = (now_ns() - t1) as f64 / 1e9;
    let mbps = (10.0 * chunk.len() as f64) / 1e6 / wall;

    println!("metadata stat latency : {stat_us:.1} us/op");
    println!("chunk write goodput   : {mbps:.0} MB/s");
    println!("isolated channels open: {}", client.open_channels());
    assert!(client.open_channels() >= 3, "each hint class gets its own channel");
    server.shutdown();
}
