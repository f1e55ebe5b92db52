//! A peer-supplied length never panics a protocol or sizes an allocation.
//!
//! Every protocol reads a message length its peer wrote — a rendezvous RTS
//! field, a frame header, an RFP request header, a chained-write notify —
//! or a slot index (a WRITE_WITH_IMM immediate), and then reads that many
//! bytes out of a registered region or READs them from the peer; a buffer
//! the peer advertises (a CTS, a landing ring) aims a WRITE. Each case
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
/// bytes the serving thread allocated while it ran. The handler answers
/// any request it is handed with two bytes, so a hostile request that got
/// through cannot fail on the way out instead.
fn serve_hostile(kind: ProtocolKind, attack: impl FnOnce(&Endpoint)) -> (RdmaError, u64) {
    let fabric = Fabric::new(SimConfig::fast_test());
    let cnode = fabric.add_node("attacker");
    let snode = fabric.add_node("server");
    let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
    let server = std::thread::spawn(move || {
        let mut server = accept_server(kind, sep, cfg(16)).unwrap();
        let (outcome, allocated) = tracked(|| server.serve_one(&mut |_| b"ok".to_vec()));
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
/// the client's request WRITEs land in (or whose board its READs fetch),
/// and the client's own landing ring, if it advertises one.
struct Attacker {
    ep: Endpoint,
    region: MemoryRegion,
    client_ring: Option<RemoteBuf>,
    _fabric: Fabric,
}

/// Connect a `kind` client (built by `connect`) to a raw peer playing the
/// server's half of any handshake, where it advertises `advert` of its
/// region as the server's landing ring — followed by the region's tail
/// from byte 32, for a client that decodes a second buffer (RFP's board
/// follows its request region).
fn connect_to_attacker<C>(
    kind: ProtocolKind,
    advert: impl FnOnce(RemoteBuf) -> RemoteBuf + Send + 'static,
    connect: impl FnOnce(Endpoint) -> C,
) -> (C, Attacker) {
    let fabric = Fabric::new(SimConfig::fast_test());
    let cnode = fabric.add_node("client");
    let snode = fabric.add_node("attacker");
    let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
    let handshake = std::thread::spawn(move || {
        let region = sep.pd().register(2 * MAX_MSG).unwrap();
        let handshakes = !matches!(
            kind,
            ProtocolKind::EagerSendRecv
                | ProtocolKind::WriteRndv
                | ProtocolKind::ReadRndv
                | ProtocolKind::HybridEagerRndv
        );
        // A client of a kind without a wire advertises no ring.
        let client_ring = handshakes
            .then(|| {
                let whole = region.remote_buf(0, region.len());
                let tail = whole.sub(32, whole.len - 32);
                let blob = [advert(whole).encode(), tail.encode()].concat();
                RemoteBuf::decode(&exchange_blobs(&sep, &blob).unwrap()).ok()
            })
            .flatten();
        (sep, region, client_ring)
    });
    let client = connect(cep);
    let (ep, region, client_ring) = handshake.join().unwrap();
    (client, Attacker { ep, region, client_ring, _fabric: fabric })
}

/// Connect a `kind` client with a window of `window` — `connect_client` for
/// one, `connect_client_pipelined` for more; for a kind without a wire,
/// `connect_client` with a ring of `window` slots — to an honestly
/// advertising [`connect_to_attacker`], let `answer` respond to the
/// client's one call, and return what the call made of it together with
/// the bytes the calling thread allocated while it ran.
fn call_hostile(
    kind: ProtocolKind,
    window: usize,
    answer: impl FnOnce(&Attacker),
) -> (RdmaError, u64) {
    let (mut client, attacker) = connect_to_attacker(
        kind,
        |ring| ring,
        |cep| {
            if window == 1 || !PIPELINED_KINDS.contains(&kind) {
                connect_client(kind, cep, cfg(window)).unwrap()
            } else {
                let client: Box<dyn RpcClient> =
                    connect_client_pipelined(kind, cep, cfg(window)).unwrap();
                client
            }
        },
    );
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

/// A hybrid frame or a rendezvous control message: `[tag][len u64][token
/// u64]`, little endian, for token 0, followed by `body`.
fn tagged(tag: u8, len: u64, body: &[u8]) -> Vec<u8> {
    [&[tag][..], &len.to_le_bytes(), &0u64.to_le_bytes(), body].concat()
}

/// The `[len u32][token u64]` header of an eager frame, a write-imm slot
/// and a chained-write notify, for token 0; a length no `u32` holds is
/// announced as `u32::MAX`.
fn frame_hdr(len: u64) -> [u8; 12] {
    let mut hdr = [0u8; 12];
    hdr[..4].copy_from_slice(&u32::try_from(len).unwrap_or(u32::MAX).to_le_bytes());
    hdr
}

const EAGER: u8 = 0;
const RTS: u8 = 1;
const CTS: u8 = 2;
const FIN: u8 = 3;

#[test]
fn rendezvous_rts_and_hybrid_frame_announcing_a_hostile_length_are_refused() {
    for len in HOSTILE_LENS {
        // Write-RNDV: RTS, then the FIN that (absent the check) would send
        // the server to read `len` bytes out of its landing region.
        let outcome = serve_hostile(ProtocolKind::WriteRndv, |ep| {
            ep.post_send(&[SendWr::send_inline(0, &tagged(RTS, len, &[]))]).unwrap();
            ep.post_send(&[SendWr::send_inline(0, &tagged(FIN, len, &[]))]).unwrap();
        });
        assert_refused(&format!("Write-RNDV RTS len {len}"), outcome);

        // Read-RNDV: an RTS advertising a stage of that length, which
        // (absent the check) the server would READ into its landing stripe.
        let outcome = serve_hostile(ProtocolKind::ReadRndv, |ep| {
            let stage = ep.pd().register(64).unwrap();
            let advert = RemoteBuf { len, ..stage.remote_buf(0, 64) };
            let rts = tagged(RTS, len, &advert.encode());
            ep.post_send(&[SendWr::send_inline(0, &rts)]).unwrap();
        });
        assert_refused(&format!("Read-RNDV RTS len {len}"), outcome);

        // Hybrid, eager half: a frame header claiming more than the 4 body
        // bytes that follow it.
        let outcome = serve_hostile(ProtocolKind::HybridEagerRndv, |ep| {
            let frame = tagged(EAGER, len, &[0; 4]);
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

/// A SEND-ring message — Pilaf's and FaRM's request, HERD's reply —
/// announcing `len` (a length no `u32` holds as `u32::MAX`) with four
/// bytes behind it.
fn ring_msg(len: u64) -> Vec<u8> {
    [&u32::try_from(len).unwrap_or(u32::MAX).to_le_bytes()[..], &[0; 4]].concat()
}

/// A Pilaf or FaRM request announcing more than arrived is refused — not
/// served out of the ring past its slot, off the neighbouring slots'
/// stale bytes.
#[test]
fn a_ring_request_announcing_more_than_arrived_is_refused() {
    for kind in [ProtocolKind::Pilaf, ProtocolKind::Farm] {
        for len in HOSTILE_LENS {
            let outcome = serve_hostile(kind, |ep| {
                exchange_blobs(ep, b"client").unwrap();
                ep.post_send(&[SendWr::send_inline(0, &ring_msg(len))]).unwrap();
            });
            assert_refused(&format!("{kind} ring request len {len}"), outcome);
        }
    }
}

/// A HERD server takes the request its notify announces out of the region
/// the WRITE ahead of the notify filled. A header there showing any seq
/// but the next one — the one before it, as a region no request was
/// written to still shows, or one ahead — is refused.
#[test]
fn a_herd_notify_over_a_stale_or_skipped_header_is_refused() {
    for seq in [0u64, 2] {
        let outcome = serve_hostile(ProtocolKind::Herd, |ep| {
            let region = RemoteBuf::decode(&exchange_blobs(ep, b"client").unwrap()).unwrap();
            let request = [&seq.to_le_bytes()[..], &4u64.to_le_bytes(), b"ping"].concat();
            let dst = region.sub(0, request.len() as u64);
            let notify = SendWr::send_inline(2, &[]);
            ep.post_send(&[SendWr::write_inline(1, &request, dst), notify]).unwrap();
        });
        assert_refused(&format!("HERD header seq {seq}"), outcome);
    }
}

/// The client half for the kinds without a wire, on a 16-slot reply ring:
/// a HERD reply announcing more than arrived, and a Pilaf board whose
/// item header does not show the reply its directory word shows, fail the
/// call typed.
#[test]
fn a_herd_reply_or_a_pilaf_board_that_lies_fails_the_call_typed() {
    for len in HOSTILE_LENS {
        let outcome = call_hostile(ProtocolKind::Herd, 16, |a| {
            a.ep.post_send(&[SendWr::send_inline(0, &ring_msg(len))]).unwrap();
        });
        assert_refused(&format!("HERD reply len {len}"), outcome);
    }
    // The directory word shows reply 1; the item header still shows
    // reply 0, and announces 7 bytes.
    let outcome = call_hostile(ProtocolKind::Pilaf, 16, |a| {
        a.region.write(0, &[1u64, 0, 0, 7].map(u64::to_le_bytes).concat()).unwrap();
    });
    assert_refused("Pilaf item header behind its directory word", outcome);
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
/// and, where the wire has a pipelined form, pipelined (window 4): a
/// server answering the client's one request with a hostile length makes
/// the call fail typed, having allocated nothing on the server's say-so.
#[test]
fn a_hostile_response_length_fails_the_call_typed_on_every_wire() {
    for window in [1, 4] {
        let window_one_only = (window == 1).then_some(ProtocolKind::DirectWriteSend);
        for len in HOSTILE_LENS {
            for kind in PIPELINED_KINDS.into_iter().chain(window_one_only) {
                let outcome = call_hostile(kind, window, |a| {
                    let answer = match kind {
                        ProtocolKind::EagerSendRecv => {
                            SendWr::send_inline(0, &[&frame_hdr(len)[..], &[0; 4]].concat())
                        }
                        ProtocolKind::DirectWriteSend | ProtocolKind::ChainedWriteSend => {
                            SendWr::send_inline(0, &frame_hdr(len))
                        }
                        ProtocolKind::DirectWriteImm => {
                            let ring = a.client_ring.expect("write-imm handshakes");
                            SendWr::write_imm_inline(0, &frame_hdr(len), ring.sub(0, 12), 0)
                        }
                        ProtocolKind::HybridEagerRndv => {
                            SendWr::send_inline(0, &tagged(EAGER, len, &[0; 4]))
                        }
                        other => unreachable!("{other} is not answered here"),
                    };
                    a.ep.post_send(&[answer]).unwrap();
                });
                assert_refused(&format!("{kind} window {window} reply len {len}"), outcome);
            }
            // Hybrid's rendezvous half: an RTS announcing more than
            // `max_msg` must not be READ into the landing stripe.
            let outcome = call_hostile(ProtocolKind::HybridEagerRndv, window, |a| {
                let advert = a.region.remote_buf(0, a.region.len()).encode();
                let rts = tagged(RTS, len, &advert);
                a.ep.post_send(&[SendWr::send_inline(0, &rts)]).unwrap();
            });
            assert_refused(&format!("Hybrid window {window} RTS len {len}"), outcome);
        }
    }
}

/// The rendezvous wires (window 1 only): the server lets the client's
/// request through — a CTS for Write-RNDV, a FIN for Read-RNDV, sent ahead
/// — and then announces a reply over `max_msg` in its RTS. The client
/// refuses it before it advertises a landing buffer or READs anything.
#[test]
fn a_rendezvous_rts_over_max_msg_fails_the_call_typed() {
    for len in HOSTILE_LENS {
        let outcome = call_hostile(ProtocolKind::WriteRndv, 1, |a| {
            let landing = a.region.remote_buf(0, MAX_MSG);
            a.ep.post_send(&[SendWr::send_inline(0, &tagged(CTS, 7, &landing.encode()))]).unwrap();
            a.ep.post_send(&[SendWr::send_inline(0, &tagged(RTS, len, &[]))]).unwrap();
        });
        assert_refused(&format!("Write-RNDV RTS len {len}"), outcome);

        let outcome = call_hostile(ProtocolKind::ReadRndv, 1, |a| {
            let stage = RemoteBuf { len, ..a.region.remote_buf(0, MAX_MSG) };
            a.ep.post_send(&[SendWr::send_inline(0, &tagged(FIN, 7, &[]))]).unwrap();
            a.ep.post_send(&[SendWr::send_inline(0, &tagged(RTS, len, &stage.encode()))]).unwrap();
        });
        assert_refused(&format!("Read-RNDV RTS len {len}"), outcome);
    }
}

/// A Write-RNDV CTS aims the initiator's WRITE, so it is checked before the
/// WRITE is posted: one offering fewer bytes than the payload, or no
/// buffer at all, fails the call typed — not a WRITE past what the peer
/// offered and then a wait for a reply that never comes.
#[test]
fn a_cts_that_cannot_take_the_payload_fails_before_the_write() {
    for (what, offers_a_buffer) in [("a 4-byte CTS", true), ("a CTS with no buffer", false)] {
        let outcome = call_hostile(ProtocolKind::WriteRndv, 1, |a| {
            let offer = a.region.remote_buf(0, 4).encode();
            let cts = tagged(CTS, 7, if offers_a_buffer { &offer } else { &[] });
            a.ep.post_send(&[SendWr::send_inline(0, &cts)]).unwrap();
        });
        assert_refused(what, outcome);
    }
}

/// A server that advertises its landing ring at an offset near `u64::MAX`:
/// the second submit on a window of four addresses the ring's second slot,
/// past the end of the address space. The verbs refuse the descriptor when
/// the window is flushed; nothing overflows on the way there.
#[test]
fn a_landing_ring_advertised_near_u64_max_fails_typed() {
    for kind in [ProtocolKind::ChainedWriteSend, ProtocolKind::DirectWriteImm] {
        let near_the_end = |ring| RemoteBuf { offset: u64::MAX - 8, ..ring };
        let (mut client, _attacker) = connect_to_attacker(kind, near_the_end, |cep| {
            connect_client_pipelined(kind, cep, cfg(4)).unwrap()
        });
        let outcome = tracked(|| {
            client.submit(b"one")?;
            client.submit(b"two")?;
            client.flush()
        });
        let outcome = (outcome.0.expect_err("the window must not post"), outcome.1.bytes);
        assert_refused(&format!("{kind} ring at u64::MAX - 8"), outcome);
    }
}
