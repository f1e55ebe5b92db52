//! A peer-supplied length never panics the server or sizes an allocation.
//!
//! Every protocol reads a message length its peer wrote — a rendezvous RTS
//! field, a ring-slot header, an RFP request header, a WRITE_WITH_IMM
//! immediate — and then reads that many bytes out of a registered region.
//! One test per family drives a server with a raw, hostile peer speaking
//! plain verbs: `serve_one` must return a typed [`RdmaError`] having
//! allocated next to nothing (counted by the `support` allocator on the
//! serving thread) — not panic on `usize::MAX`, and not reserve gigabytes
//! before noticing the region is 4 KiB.

mod support;

use hat_protocols::{accept_server, exchange_blobs, ProtocolConfig, ProtocolKind};
use hat_rdma_sim::{Endpoint, Fabric, RdmaError, RemoteBuf, SendWr, SimConfig};
use support::tracked;

const MAX_MSG: usize = 4096;
const ALLOC_LIMIT: u64 = 64 * 1024;

/// Lengths a hostile peer might announce: just over the connection's
/// `max_msg`, large enough to hurt if allocated, and large enough to
/// overflow any `offset + len`.
const HOSTILE_LENS: [u64; 3] = [MAX_MSG as u64 + 1, 3 << 30, u64::MAX];

/// Start a `kind` server on one end of a fresh connection, let `attack`
/// (the raw peer; it also plays the client's half of any handshake) loose
/// on the other, and return what `serve_one` made of it together with the
/// bytes the serving thread allocated while it ran.
fn serve_hostile(kind: ProtocolKind, attack: impl FnOnce(&Endpoint)) -> (RdmaError, u64) {
    let fabric = Fabric::new(SimConfig::fast_test());
    let cnode = fabric.add_node("attacker");
    let snode = fabric.add_node("server");
    let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
    let cfg =
        ProtocolConfig { max_msg: MAX_MSG, op_timeout_ns: 2_000_000_000, ..Default::default() };
    let server = std::thread::spawn(move || {
        let mut server = accept_server(kind, sep, cfg).unwrap();
        let (outcome, allocated) = tracked(|| server.serve_one(&mut |req| req.to_vec()));
        (outcome, allocated.bytes, server)
    });
    attack(&cep);
    let (outcome, bytes, _server) = server.join().expect("a hostile length must not panic");
    let err = match outcome {
        Err(e) => e,
        Ok(served) => panic!("{kind}: hostile message was accepted (served = {served})"),
    };
    (err, bytes)
}

fn assert_refused(what: &str, (err, bytes): (RdmaError, u64)) {
    assert!(
        matches!(err, RdmaError::InvalidWorkRequest(_) | RdmaError::OutOfBounds { .. }),
        "{what}: expected a typed length error, got {err:?}"
    );
    assert!(bytes < ALLOC_LIMIT, "{what}: server allocated {bytes} B on the peer's say-so");
}

/// `[tag][len u64 LE]`: the rendezvous control message and the hybrid
/// slot header share this shape.
fn tagged(tag: u8, len: u64) -> [u8; 9] {
    let mut msg = [0u8; 9];
    msg[0] = tag;
    msg[1..].copy_from_slice(&len.to_le_bytes());
    msg
}

#[test]
fn rendezvous_rts_announcing_a_hostile_length_is_refused() {
    const RTS: u8 = 1;
    const FIN: u8 = 3;
    for len in HOSTILE_LENS {
        // Write-RNDV: RTS, then the FIN that (absent the check) would send
        // the server to read `len` bytes out of its landing region.
        let outcome = serve_hostile(ProtocolKind::WriteRndv, |ep| {
            ep.post_send(&[SendWr::send_inline(0, &tagged(RTS, len))]).unwrap();
            ep.post_send(&[SendWr::send_inline(0, &tagged(FIN, len))]).unwrap();
        });
        assert_refused(&format!("Write-RNDV RTS len {len}"), outcome);

        // Hybrid, eager half: a slot header claiming more than the 4 body
        // bytes that follow it.
        let outcome = serve_hostile(ProtocolKind::HybridEagerRndv, |ep| {
            const TAG_EAGER: u8 = 0;
            let mut frame = [0u8; 13];
            frame[..9].copy_from_slice(&tagged(TAG_EAGER, len));
            ep.post_send(&[SendWr::send_inline(0, &frame)]).unwrap();
        });
        assert_refused(&format!("Hybrid eager header len {len}"), outcome);
    }
}

#[test]
fn rfp_request_header_with_a_hostile_length_is_refused() {
    for len in HOSTILE_LENS {
        let outcome = serve_hostile(ProtocolKind::Rfp, |ep| {
            // The server's handshake blob: request region, response region.
            let blob = exchange_blobs(ep, b"rfp-client").unwrap();
            let request_region = RemoteBuf::decode(&blob).unwrap();
            let mut hdr = [0u8; 16];
            hdr[..8].copy_from_slice(&1u64.to_le_bytes()); // the sequence it polls for
            hdr[8..].copy_from_slice(&len.to_le_bytes());
            ep.post_send(&[SendWr::write_inline(1, &hdr, request_region.sub(0, 16))]).unwrap();
        });
        assert_refused(&format!("RFP header len {len}"), outcome);
    }
}

#[test]
fn write_imm_immediate_with_a_hostile_length_is_refused() {
    for imm in [MAX_MSG as u32 + 1, u32::MAX] {
        let outcome = serve_hostile(ProtocolKind::DirectWriteImm, |ep| {
            // Handshake as a client would: advertise some region of ours,
            // learn the server's pre-known buffer.
            let ours = ep.pd().register(64).unwrap();
            let blob = exchange_blobs(ep, &ours.remote_buf(0, 64).encode()).unwrap();
            let server_region = RemoteBuf::decode(&blob).unwrap();
            ep.post_send(&[SendWr::write_imm_inline(1, b"x", server_region.sub(0, 1), imm)])
                .unwrap();
        });
        assert_refused(&format!("WRITE_IMM immediate {imm}"), outcome);
    }
}
