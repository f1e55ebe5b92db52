//! A peer-supplied length never panics a protocol or sizes an allocation.
//!
//! Every protocol reads a message length its peer wrote — a rendezvous RTS
//! field, a frame header, an RFP request header, a chained-write notify —
//! or a slot index (a WRITE_WITH_IMM immediate), and then reads that many
//! bytes out of a registered region or READs them from the peer. Each case
//! drives one side with a raw, hostile peer speaking plain verbs: the
//! server's `serve_one`, or the client's `call`, must return a typed
//! [`RdmaError`] having allocated next to nothing (counted by the `support`
//! allocator on that thread) — not panic on `usize::MAX`, and not reserve
//! gigabytes before noticing the region is 4 KiB.

mod support;

use hat_protocols::{
    accept_server, connect_client, connect_client_pipelined, exchange_blobs, ProtocolConfig,
    ProtocolKind, RpcClient, PIPELINED_KINDS,
};
use hat_rdma_sim::{Endpoint, Fabric, MemoryRegion, RdmaError, RemoteBuf, SendWr, SimConfig};
use support::tracked;

const MAX_MSG: usize = 4096;
const ALLOC_LIMIT: u64 = 64 * 1024;

/// Lengths a hostile peer might announce: just over the connection's
/// `max_msg`, large enough to hurt if allocated, and large enough to
/// overflow any `offset + len`.
const HOSTILE_LENS: [u64; 3] = [MAX_MSG as u64 + 1, 3 << 30, u64::MAX];

fn cfg(window: usize) -> ProtocolConfig {
    ProtocolConfig {
        max_msg: MAX_MSG,
        ring_slots: window,
        op_timeout_ns: 2_000_000_000,
        ..Default::default()
    }
}

/// Start a `kind` server on one end of a fresh connection, let `attack`
/// (the raw peer; it also plays the client's half of any handshake) loose
/// on the other, and return what `serve_one` made of it together with the
/// bytes the serving thread allocated while it ran.
fn serve_hostile(kind: ProtocolKind, attack: impl FnOnce(&Endpoint)) -> (RdmaError, u64) {
    let fabric = Fabric::new(SimConfig::fast_test());
    let cnode = fabric.add_node("attacker");
    let snode = fabric.add_node("server");
    let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
    let server = std::thread::spawn(move || {
        let mut server = accept_server(kind, sep, cfg(16)).unwrap();
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

/// The raw peer's side of a connection whose client handshakes: a region
/// the client's request WRITEs land in, and the client's own landing ring.
struct Attacker {
    ep: Endpoint,
    region: MemoryRegion,
    client_ring: Option<RemoteBuf>,
}

/// Connect a `kind` client with a window of `window` — `connect_client` for
/// one, `connect_client_pipelined` for more — to a raw peer playing the
/// server's half of any handshake, let `answer` respond to the client's one
/// call, and return what the call made of it together with the bytes the
/// calling thread allocated while it ran.
fn call_hostile(
    kind: ProtocolKind,
    window: usize,
    answer: impl FnOnce(&Attacker),
) -> (RdmaError, u64) {
    let fabric = Fabric::new(SimConfig::fast_test());
    let cnode = fabric.add_node("client");
    let snode = fabric.add_node("attacker");
    let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
    let handshake = std::thread::spawn(move || {
        let region = sep.pd().register(2 * MAX_MSG).unwrap();
        let handshakes =
            matches!(kind, ProtocolKind::ChainedWriteSend | ProtocolKind::DirectWriteImm);
        let client_ring = handshakes.then(|| {
            let blob = exchange_blobs(&sep, &region.remote_buf(0, region.len()).encode());
            RemoteBuf::decode(&blob.unwrap()).unwrap()
        });
        Attacker { ep: sep, region, client_ring }
    });
    let mut client: Box<dyn RpcClient> = if window == 1 {
        connect_client(kind, cep, cfg(window)).unwrap()
    } else {
        connect_client_pipelined(kind, cep, cfg(window)).unwrap()
    };
    let attacker = handshake.join().unwrap();
    answer(&attacker);
    let (outcome, allocated) = tracked(|| client.call(b"request"));
    let err = match outcome {
        Err(e) => e,
        Ok(reply) => panic!("{kind}: a {}-byte hostile reply was accepted", reply.len()),
    };
    (err, allocated.bytes)
}

fn assert_refused(what: &str, (err, bytes): (RdmaError, u64)) {
    assert!(
        matches!(err, RdmaError::InvalidWorkRequest(_) | RdmaError::OutOfBounds { .. }),
        "{what}: expected a typed length error, got {err:?}"
    );
    assert!(bytes < ALLOC_LIMIT, "{what}: {bytes} B allocated on the peer's say-so");
}

/// `[tag][len u64 LE]`: the rendezvous control message.
fn tagged(tag: u8, len: u64) -> [u8; 9] {
    let mut msg = [0u8; 9];
    msg[0] = tag;
    msg[1..].copy_from_slice(&len.to_le_bytes());
    msg
}

/// A hybrid frame header, `[tag][len u64][token u64]`, for token 0,
/// followed by `body`.
fn hybrid_frame(tag: u8, len: u64, body: &[u8]) -> Vec<u8> {
    [&tagged(tag, len)[..], &0u64.to_le_bytes(), body].concat()
}

/// The `[len u32][token u64]` header of an eager frame, a write-imm slot
/// and a chained-write notify, for token 0; a length no `u32` holds is
/// announced as `u32::MAX`.
fn frame_hdr(len: u64) -> [u8; 12] {
    let mut hdr = [0u8; 12];
    hdr[..4].copy_from_slice(&u32::try_from(len).unwrap_or(u32::MAX).to_le_bytes());
    hdr
}

const HY_EAGER: u8 = 0;
const HY_RTS: u8 = 1;

#[test]
fn rendezvous_rts_and_hybrid_frame_announcing_a_hostile_length_are_refused() {
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

        // Hybrid, eager half: a frame header claiming more than the 4 body
        // bytes that follow it.
        let outcome = serve_hostile(ProtocolKind::HybridEagerRndv, |ep| {
            let frame = hybrid_frame(HY_EAGER, len, &[0; 4]);
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

/// Write-imm's immediate names a window slot and the slot's header the
/// length: a slot header announcing more than was written, and an
/// immediate naming no slot, are both refused.
#[test]
fn write_imm_slot_header_or_immediate_out_of_range_is_refused() {
    let attack = |hdr: [u8; 12], imm: u32| {
        move |ep: &Endpoint| {
            // Handshake as a client would: advertise some region of ours,
            // learn the server's landing ring.
            let ours = ep.pd().register(64).unwrap();
            let blob = exchange_blobs(ep, &ours.remote_buf(0, 64).encode()).unwrap();
            let server_ring = RemoteBuf::decode(&blob).unwrap();
            ep.post_send(&[SendWr::write_imm_inline(1, &hdr, server_ring.sub(0, 12), imm)])
                .unwrap();
        }
    };
    for len in HOSTILE_LENS {
        let outcome = serve_hostile(ProtocolKind::DirectWriteImm, attack(frame_hdr(len), 0));
        assert_refused(&format!("write-imm slot header len {len}"), outcome);
    }
    for imm in [1, MAX_MSG as u32 + 1, u32::MAX] {
        let outcome = serve_hostile(ProtocolKind::DirectWriteImm, attack(frame_hdr(0), imm));
        assert_refused(&format!("write-imm immediate {imm}"), outcome);
    }
}

/// The client half of the same rule, for every wire, blocking (window 1)
/// and pipelined (window 4): a server answering the client's one request
/// with a hostile length makes the call fail typed, having allocated
/// nothing on the server's say-so.
#[test]
fn a_hostile_response_length_fails_the_call_typed_on_every_wire() {
    for window in [1, 4] {
        for len in HOSTILE_LENS {
            for kind in PIPELINED_KINDS {
                let outcome = call_hostile(kind, window, |a| {
                    let answer = match kind {
                        ProtocolKind::EagerSendRecv => {
                            SendWr::send_inline(0, &[&frame_hdr(len)[..], &[0; 4]].concat())
                        }
                        ProtocolKind::ChainedWriteSend => SendWr::send_inline(0, &frame_hdr(len)),
                        ProtocolKind::DirectWriteImm => {
                            let ring = a.client_ring.expect("write-imm handshakes");
                            SendWr::write_imm_inline(0, &frame_hdr(len), ring.sub(0, 12), 0)
                        }
                        ProtocolKind::HybridEagerRndv => {
                            SendWr::send_inline(0, &hybrid_frame(HY_EAGER, len, &[0; 4]))
                        }
                        other => unreachable!("{other} has no wire"),
                    };
                    a.ep.post_send(&[answer]).unwrap();
                });
                assert_refused(&format!("{kind} window {window} reply len {len}"), outcome);
            }
            // Hybrid's rendezvous half: an RTS announcing more than
            // `max_msg` must not be READ into the landing stripe.
            let outcome = call_hostile(ProtocolKind::HybridEagerRndv, window, |a| {
                let advert = a.region.remote_buf(0, a.region.len()).encode();
                let rts = hybrid_frame(HY_RTS, len, &advert);
                a.ep.post_send(&[SendWr::send_inline(0, &rts)]).unwrap();
            });
            assert_refused(&format!("Hybrid window {window} RTS len {len}"), outcome);
        }
    }
}
