//! How the binary encoder grows its buffer, counted.
//!
//! A message with one large `binary` field is sized once: the buffer grows
//! to the value plus a small tail, so the field stop that follows does not
//! double a 256 KiB buffer to push one byte (524 352 B allocated per
//! `encode_call` before). A long list of small values still grows
//! geometrically, and a small message is a single allocation.

// One counting allocator for the workspace's allocation-count tests.
#[path = "../../protocols/tests/support/mod.rs"]
mod support;

use hatrpc_core::dispatch::{encode_call, exception_reply};
use hatrpc_core::protocol::{TOutputProtocol, TType};
use support::tracked;

fn write_binary_field(out: &mut impl TOutputProtocol, value: &[u8]) {
    out.write_struct_begin("args");
    out.write_field_begin(TType::String, 1);
    out.write_binary(value);
    out.write_field_end();
    out.write_field_stop();
    out.write_struct_end();
}

#[test]
fn one_large_binary_field_is_allocated_once_not_doubled() {
    const PAYLOAD: usize = 256 * 1024;
    const SLACK: u64 = 4096;
    let payload = vec![0xA5u8; PAYLOAD];

    let (request, binary) =
        tracked(|| encode_call("echo", 1, |out| write_binary_field(out, &payload)));
    assert!(request.len() > PAYLOAD);
    assert!(
        binary.bytes <= PAYLOAD as u64 + SLACK,
        "BinaryOut allocated {} B to encode a {PAYLOAD} B field: {binary:?}",
        binary.bytes
    );
}

#[test]
fn a_long_list_of_small_values_still_grows_geometrically() {
    let value = vec![7u8; 1000];
    let (request, counted) = tracked(|| {
        encode_call("multiput", 1, |out| {
            out.write_struct_begin("args");
            out.write_field_begin(TType::List, 1);
            out.write_list_begin(TType::String, 1000);
            for _ in 0..1000 {
                out.write_binary(&value);
            }
            out.write_list_end();
            out.write_field_end();
            out.write_field_stop();
            out.write_struct_end();
        })
    });
    assert!(request.len() > 1000 * 1000);
    // Measured: 12 — the 128 B start, one jump to fit the first value, ten
    // doublings to > 1 MB. One reallocation per value would be 1 000.
    assert!(counted.events <= 12, "1000 x 1000 B values reallocated {} times", counted.events);
    assert!(counted.bytes <= 3 * request.len() as u64, "{counted:?}");
}

#[test]
fn a_small_message_is_one_allocation() {
    let (_, call) = tracked(|| encode_call("echo", 1, |out| write_binary_field(out, &[1u8; 64])));
    assert_eq!(call.events, 1, "a ~100 B call: {call:?}");
    let (_, exception) = tracked(|| exception_reply("echo", 1, "unknown method 'echo'"));
    assert_eq!(exception.events, 1, "a short exception reply: {exception:?}");
}
