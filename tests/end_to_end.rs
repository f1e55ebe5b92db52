//! Cross-crate integration: IDL → codegen → runtime → simulated RDMA, the
//! full pipeline the paper's Figure 8/9 describe.

use std::sync::Arc;

use hatrpc::core::engine::{HatClient, HatServer, ServerPolicy};
use hatrpc::core::service::ServiceSchema;
use hatrpc::rdma::{Fabric, SimConfig};

const IDL: &str = r#"
    service Files {
        hint: concurrency = 8;
        binary read_meta(1: binary path) [ hint: perf_goal = latency, payload_size = 512; ]
        void write_chunk(1: binary data) [ hint: perf_goal = throughput, payload_size = 128K; ]
        void ping() [ hint: transport = tcp; ]
    }
"#;

fn echo_factory() -> hatrpc::core::engine::HandlerFactory {
    Arc::new(|| Box::new(|req: &[u8]| req.to_vec()))
}

/// The generated-code path: the checked-in HatKV module was produced by
/// hat-codegen from the IDL in the repo, compiles as part of the
/// workspace, and its hint tables drive the engine.
#[test]
fn generated_hatkv_module_is_live_and_current() {
    let regenerated = hatrpc::codegen::generate_file(hatrpc::hatkv::HATKV_IDL).expect("parses");
    assert!(regenerated.contains("pub struct HatKVClient"));
    let schema = hatrpc::hatkv::hat_k_v_schema();
    assert_eq!(schema.name, "HatKV");
    assert_eq!(schema.functions.len(), 6);
    for txn_fn in ["multiput_txn", "multidel_txn"] {
        assert!(
            schema.functions.iter().any(|(name, _)| name == txn_fn),
            "{txn_fn} missing from the generated schema",
        );
    }
}

/// Parse hints at runtime, run RPCs through the full engine, verify the
/// per-function isolation that motivates the paper.
#[test]
fn idl_to_engine_round_trip() {
    let schema = ServiceSchema::parse(IDL, "Files").expect("IDL");
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let server = HatServer::serve(
        &fabric,
        &snode,
        "files",
        schema.clone(),
        ServerPolicy::Threaded,
        echo_factory(),
    );
    let cnode = fabric.add_node("client");
    let mut client = HatClient::new(&fabric, &cnode, "files", &schema);

    // Latency function: small echo.
    assert_eq!(client.call("read_meta", b"/etc/motd").unwrap(), b"/etc/motd");
    // Throughput function: large echo.
    let chunk = vec![9u8; 100_000];
    assert_eq!(client.call("write_chunk", &chunk).unwrap(), chunk);
    // Hybrid-transport function.
    assert_eq!(client.call("ping", b"hb").unwrap(), b"hb");
    // Three hint classes → three isolated channels.
    assert_eq!(client.open_channels(), 3);

    // The engine's selections differ per function, from one IDL.
    use hatrpc::protocols::ProtocolKind;
    assert_eq!(client.selection_for("read_meta").protocol, ProtocolKind::DirectWriteImm);
    assert_eq!(client.selection_for("write_chunk").protocol, ProtocolKind::DirectWriteImm);
    server.shutdown();
}

/// Multiple concurrent clients against one hinted server.
#[test]
fn many_clients_one_server() {
    let schema = ServiceSchema::parse(IDL, "Files").expect("IDL");
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let server = HatServer::serve(
        &fabric,
        &snode,
        "files",
        schema.clone(),
        ServerPolicy::Threaded,
        echo_factory(),
    );
    let mut handles = Vec::new();
    for i in 0..6 {
        let fabric = fabric.clone();
        let schema = schema.clone();
        handles.push(std::thread::spawn(move || {
            let node = fabric.add_node(&format!("client{i}"));
            let mut client = HatClient::new(&fabric, &node, "files", &schema);
            for call in 0..10 {
                let payload = vec![(i * 16 + call) as u8; 64 + call * 13];
                assert_eq!(client.call("read_meta", &payload).unwrap(), payload);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

/// The complete Thrift type system survives an RPC round trip through
/// generated-style serialization.
#[test]
fn thrift_types_round_trip_over_the_wire() {
    use hatrpc::core::dispatch::{decode_reply, encode_call, Router};
    use hatrpc::core::protocol::{TInputProtocol, TOutputProtocol, TType};

    let mut router = Router::new().add("types", |input, output| {
        input.read_struct_begin()?;
        let mut sum = 0i64;
        loop {
            let (fty, fid) = input.read_field_begin()?;
            if fty == TType::Stop {
                break;
            }
            match fid {
                1 => sum += input.read_i64()?,
                2 => {
                    let (_t, n) = input.read_list_begin()?;
                    for _ in 0..n {
                        sum += input.read_i32()? as i64;
                    }
                    input.read_list_end()?;
                }
                3 => {
                    let (_k, _v, n) = input.read_map_begin()?;
                    for _ in 0..n {
                        let _key = input.read_string()?;
                        sum += input.read_i16()? as i64;
                    }
                    input.read_map_end()?;
                }
                4 => sum += input.read_double()? as i64,
                _ => input.skip(fty)?,
            }
        }
        output.write_struct_begin("r");
        output.write_field_begin(TType::I64, 0);
        output.write_i64(sum);
        output.write_field_end();
        output.write_field_stop();
        output.write_struct_end();
        Ok(())
    });

    let req = encode_call("types", 1, |out| {
        out.write_struct_begin("args");
        out.write_field_begin(TType::I64, 1);
        out.write_i64(1000);
        out.write_field_end();
        out.write_field_begin(TType::List, 2);
        out.write_list_begin(TType::I32, 3);
        out.write_i32(1);
        out.write_i32(2);
        out.write_i32(3);
        out.write_list_end();
        out.write_field_end();
        out.write_field_begin(TType::Map, 3);
        out.write_map_begin(TType::String, TType::I16, 2);
        out.write_string("a");
        out.write_i16(10);
        out.write_string("b");
        out.write_i16(20);
        out.write_map_end();
        out.write_field_end();
        out.write_field_begin(TType::Double, 4);
        out.write_double(64.0);
        out.write_field_end();
        out.write_field_stop();
        out.write_struct_end();
    });
    let reply = router.handle(&req);
    let sum = decode_reply(&reply, 1, |input| {
        input.read_struct_begin()?;
        let mut v = 0i64;
        loop {
            let (fty, fid) = input.read_field_begin()?;
            if fty == TType::Stop {
                break;
            }
            if fid == 0 {
                v = input.read_i64()?;
            } else {
                input.skip(fty)?;
            }
        }
        Ok(v)
    })
    .unwrap();
    assert_eq!(sum, 1000 + 6 + 30 + 64);
}
