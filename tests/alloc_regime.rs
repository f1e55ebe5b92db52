//! The large-message path does not live next to glibc's trim cliff
//! (DESIGN §4k).
//!
//! A generated stub's caller holds three message-sized buffers per call —
//! the encoded request, the raw reply, the decoded value — and frees them
//! together. Where glibc's trim threshold sits relative to that ~0.8 MB
//! decides whether every call hands its heap top back to the kernel and
//! faults it in again: ~100–200 minor page faults per 256 KiB call, more
//! time than the RPC itself. `Fabric::new` pins the threshold well above
//! any message; this test counts the faults. It lives in its own binary
//! (the regime is process-wide state) and fails when the pin is removed.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use hatrpc::core::protocol::binary::{BinaryIn, BinaryOut};
use hatrpc::core::protocol::{TInputProtocol, TOutputProtocol, TType};
use hatrpc::core::{
    decode_reply, encode_call, HatClient, HatServer, Result, Router, ServerPolicy, ServiceSchema,
};
use hatrpc::rdma::{Fabric, SimConfig};

const IDL: &str = r#"
    service Echo {
        hint: perf_goal = res_util, concurrency = 1;
        binary echo(1: binary payload) [ hint: payload_size = 256K; ]
    }
"#;

const PAYLOAD: usize = 256 * 1024;
const WARMUP: usize = 50;
const CALLS: usize = 500;

/// Read one `binary` field with id `want` out of a struct.
fn read_binary_field(input: &mut BinaryIn<'_>, want: i16) -> Result<Vec<u8>> {
    let mut value = Vec::new();
    input.read_struct_begin()?;
    loop {
        let (fty, fid) = input.read_field_begin()?;
        if fty == TType::Stop {
            break;
        }
        if fid == want {
            value = input.read_binary()?;
        } else {
            input.skip(fty)?;
        }
        input.read_field_end()?;
    }
    input.read_struct_end()?;
    Ok(value)
}

fn write_binary_field(out: &mut BinaryOut, id: i16, value: &[u8]) {
    out.write_struct_begin("echo");
    out.write_field_begin(TType::String, id);
    out.write_binary(value);
    out.write_field_end();
    out.write_field_stop();
    out.write_struct_end();
}

/// Minor faults of this process so far: field 10 of `/proc/self/stat`
/// (counted from after the parenthesised command name, which may itself
/// contain spaces).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    // `after_comm` starts at field 3 (state).
    after_comm.split_whitespace().nth(10 - 3).expect("minflt field").parse().expect("a count")
}

#[test]
fn large_echo_calls_do_not_trim_and_refault_the_heap() {
    let schema = ServiceSchema::parse(IDL, "Echo").unwrap();
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("server");
    let cnode = fabric.add_node("client");
    let server = HatServer::serve(
        &fabric,
        &snode,
        "echo",
        schema.clone(),
        ServerPolicy::Threaded,
        Arc::new(|| {
            let mut router = Router::new().add("echo", |input, output| {
                let payload = read_binary_field(input, 1)?;
                write_binary_field(output, 0, &payload);
                Ok(())
            });
            Box::new(move |request: &[u8]| router.handle(request))
        }),
    );
    let mut client = HatClient::new(&fabric, &cnode, "echo", &schema);
    let payload: Vec<u8> = (0..PAYLOAD).map(|i| (i % 251) as u8).collect();

    // One call, as a generated stub's caller makes it: all three buffers
    // stay alive until the iteration ends.
    let mut call = |seq: i32| {
        let request = encode_call("echo", seq, |out| write_binary_field(out, 1, &payload));
        let reply = client.call("echo", &request).unwrap();
        let echoed = decode_reply(&reply, seq, |input| read_binary_field(input, 0)).unwrap();
        assert!(echoed == payload, "call {seq} echoed something else");
    };
    for seq in 0..WARMUP {
        call(seq as i32);
    }
    let before = minor_faults();
    for seq in WARMUP..WARMUP + CALLS {
        call(seq as i32);
    }
    let per_call = (minor_faults() - before) as f64 / CALLS as f64;

    drop(client);
    server.shutdown();
    assert!(
        per_call < 2.0,
        "{per_call:.1} minor page faults per 256 KiB call: the heap is being trimmed and \
         refaulted every call (is the allocator pin in `Fabric::new` still there?)"
    );
}
