//! Shared protocol machinery: the client/server traits, configuration,
//! control-message rings, and the out-of-band handshake.

use hat_rdma_sim::{
    Endpoint, MemoryRegion, MrSlice, PollMode, PoolBuf, RdmaError, RecvWr, RemoteBuf, Result,
    SendWr,
};

/// Identifies one of the implemented RDMA protocols (paper Figure 3 plus
/// the Hybrid-EagerRNDV engine default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Figure 3a: copy into pre-posted ring + SEND.
    EagerSendRecv,
    /// Figure 3b: WRITE to pre-known buffer + separate SEND notify.
    DirectWriteSend,
    /// Figure 3c: WRITE and SEND chained under a single doorbell.
    ChainedWriteSend,
    /// Figure 3d: WRITE-based rendezvous.
    WriteRndv,
    /// Figure 3e: READ-based rendezvous.
    ReadRndv,
    /// Figure 3f: single WRITE_WITH_IMM each way.
    DirectWriteImm,
    /// Figure 3g: Pilaf-style — 2 metadata READs + 1 payload READ.
    Pilaf,
    /// Figure 3h: FaRM-style — 1 metadata READ + 1 payload READ.
    Farm,
    /// Figure 3i: RFP — in-bound WRITE request, READ-polled response.
    Rfp,
    /// §4.3: eager below a threshold, Read-RNDV above.
    HybridEagerRndv,
    /// §5.4 comparator: HERD — WRITE-delivered requests, SEND-delivered
    /// (copied) responses.
    Herd,
}

impl ProtocolKind {
    /// All implemented protocols, in the paper's Figure 3 order (plus
    /// the HERD emulation used by the §5.4 comparison).
    ///
    /// The order is a wire format: a kind's index here is its code in the
    /// engine's connection preamble, so a kind is only ever appended.
    pub const ALL: [ProtocolKind; 11] = [
        ProtocolKind::EagerSendRecv,
        ProtocolKind::DirectWriteSend,
        ProtocolKind::ChainedWriteSend,
        ProtocolKind::WriteRndv,
        ProtocolKind::ReadRndv,
        ProtocolKind::DirectWriteImm,
        ProtocolKind::Pilaf,
        ProtocolKind::Farm,
        ProtocolKind::Rfp,
        ProtocolKind::HybridEagerRndv,
        ProtocolKind::Herd,
    ];

    /// Short display name matching the paper's figure labels.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::EagerSendRecv => "Eager-SendRecv",
            ProtocolKind::DirectWriteSend => "Direct-Write-Send",
            ProtocolKind::ChainedWriteSend => "Chained-Write-Send",
            ProtocolKind::WriteRndv => "Write-RNDV",
            ProtocolKind::ReadRndv => "Read-RNDV",
            ProtocolKind::DirectWriteImm => "Direct-WriteIMM",
            ProtocolKind::Pilaf => "Pilaf",
            ProtocolKind::Farm => "FaRM",
            ProtocolKind::Rfp => "RFP",
            ProtocolKind::HybridEagerRndv => "Hybrid-EagerRNDV",
            ProtocolKind::Herd => "HERD",
        }
    }

    /// Whether this protocol requires a per-connection pre-known,
    /// pre-registered message buffer on the remote side (the memory
    /// footprint drawback the paper discusses in §4.3).
    pub fn needs_preknown_buffer(&self) -> bool {
        matches!(
            self,
            ProtocolKind::DirectWriteSend
                | ProtocolKind::ChainedWriteSend
                | ProtocolKind::DirectWriteImm
                | ProtocolKind::Pilaf
                | ProtocolKind::Farm
                | ProtocolKind::Rfp
                | ProtocolKind::Herd
        )
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-side protocol configuration. The *buffer geometry* fields
/// (`max_msg`, `ring_slots`, `eager_threshold`) must match on both sides —
/// HatRPC's engine derives them from the payload-size hint during the
/// connection handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Completion/memory polling mechanism for this side.
    pub poll: PollMode,
    /// Largest message this connection must carry (sizes the pre-known
    /// buffers and eager slots).
    pub max_msg: usize,
    /// A pipelined channel's window, or the depth of the one SEND ring a
    /// kind without a wire has: Pilaf's and FaRM's request ring, HERD's
    /// reply ring (RFP has none). A blocking client or server of a kind
    /// with a wire ignores it: its window is one.
    pub ring_slots: usize,
    /// Eager-vs-rendezvous switch point for [`ProtocolKind::HybridEagerRndv`].
    /// The paper fixes this at 4 KB.
    pub eager_threshold: usize,
    /// Deadline for any single blocking wait (response poll, rendezvous
    /// control message, READ completion). A wait that exceeds it returns
    /// [`RdmaError::Timeout`] instead of spinning forever; the engine
    /// derives it from the caller's `CallPolicy` deadline.
    pub op_timeout_ns: u64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            poll: PollMode::Busy,
            max_msg: 256 * 1024,
            ring_slots: 16,
            eager_threshold: 4096,
            op_timeout_ns: POLL_TIMEOUT_NS,
        }
    }
}

/// Client side of an RPC protocol: synchronous request/response.
pub trait RpcClient: Send {
    /// Issue one RPC: send `request`, block for the response.
    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>>;
}

/// Server side of an RPC protocol, serving one connection.
pub trait RpcServer: Send {
    /// Serve exactly one request with `handler`. Returns `Ok(false)` when
    /// the peer disconnected, `Ok(true)` after a served request.
    fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool>;

    /// Serve until the peer disconnects.
    fn serve_loop(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<()> {
        while self.serve_one(handler)? {}
        Ok(())
    }
}

/// Construct the client side of `kind` over a connected endpoint,
/// performing the protocol's buffer handshake with the (concurrently
/// constructed) server side. Every kind but the READ-based family and
/// HERD ([`crate::read_based`]) is a wire ([`crate::pipeline`]) driven
/// with a window of one, whatever `cfg.ring_slots` says: a blocking client
/// has one request in flight.
pub fn connect_client(
    kind: ProtocolKind,
    ep: Endpoint,
    cfg: ProtocolConfig,
) -> Result<Box<dyn RpcClient>> {
    use ProtocolKind::*;
    Ok(match kind {
        Pilaf | Farm | Rfp | Herd => crate::read_based::connect(kind, ep, cfg)?,
        wire => crate::connect_client_pipelined(wire, ep, ProtocolConfig { ring_slots: 1, ..cfg })?,
    })
}

/// Construct the server side of `kind` over an accepted endpoint — for a
/// kind with a wire, the server of a window of one (see
/// [`connect_client`]).
pub fn accept_server(
    kind: ProtocolKind,
    ep: Endpoint,
    cfg: ProtocolConfig,
) -> Result<Box<dyn RpcServer>> {
    use ProtocolKind::*;
    Ok(match kind {
        Pilaf | Farm | Rfp | Herd => crate::read_based::accept(kind, ep, cfg)?,
        wire => crate::accept_server_pipelined(wire, ep, ProtocolConfig { ring_slots: 1, ..cfg })?,
    })
}

/// Open the charge for a host memcpy of `len` bytes on the endpoint's node
/// (eager protocols pay this; zero-copy ones don't). The caller holds the
/// guard over the real copy the charge models, so the copy's host time is
/// absorbed by the modelled time instead of added to it.
pub(crate) fn charge_memcpy(ep: &Endpoint, len: usize) -> hat_rdma_sim::Charge<'_> {
    let node = ep.node();
    hat_rdma_sim::stats::NodeStats::add(&node.stats().memcpys, 1);
    node.begin_charge(node.config().cost.memcpy_ns(len))
}

/// A little-endian `u64` length field as the peer wrote it, saturated to
/// `usize`. The value is a claim, to be checked against a region or
/// `max_msg` before it sizes anything; one no `usize` holds fails every
/// such check.
pub(crate) fn wire_len(field: &[u8]) -> usize {
    let len = u64::from_le_bytes(field.try_into().expect("8-byte length field"));
    usize::try_from(len).unwrap_or(usize::MAX)
}

/// Reject payloads that exceed the per-slot capacity `room` — one we are
/// about to send, or one a peer's header announces.
pub(crate) fn check_len(len: usize, room: usize) -> Result<()> {
    if len > room {
        return Err(RdmaError::InvalidWorkRequest(format!(
            "payload of {len} bytes exceeds its slot ({room} bytes)"
        )));
    }
    Ok(())
}

/// One side of a connection: the endpoint and the geometry both peers
/// negotiated. Owned by a client or server, lent to the parts it is built
/// from.
pub(crate) struct Link {
    pub(crate) ep: Endpoint,
    pub(crate) cfg: ProtocolConfig,
}

/// Where a received payload lands: a pooled buffer (the server's request,
/// a pipelined client's response) or the `Vec` a blocking call returns.
/// Built from the checked payload bytes, so it is sized by what arrived,
/// never by what a header claims — or, for a WRITE taken where it landed
/// (Write-RNDV), from the sender's buffer itself.
pub(crate) trait Landing: for<'a> From<&'a [u8]> + From<PoolBuf> {}

impl<B: for<'a> From<&'a [u8]> + From<PoolBuf>> Landing for B {}

/// A region of `slots` slots with one receive pre-posted per slot.
pub(crate) fn posted_ring(ep: &Endpoint, slots: usize, slot_size: usize) -> Result<MemoryRegion> {
    let ring = ep.pd().register(slots * slot_size)?;
    for i in 0..slots {
        ep.post_recv(RecvWr::new(i as u64, ring.clone(), i * slot_size, slot_size))?;
    }
    Ok(ring)
}

/// READ `src` into `local` and wait for it, bounded by the op timeout —
/// slow, but never an unbounded park.
pub(crate) fn read_now(link: &Link, wr_id: u64, local: MrSlice, src: RemoteBuf) -> Result<()> {
    let Link { ep, cfg } = link;
    ep.post_send(&[SendWr::read(wr_id, local, src).signaled()])?;
    ep.send_cq().poll_timeout(cfg.poll, cfg.op_timeout_ns)?.ok()?;
    Ok(())
}

/// Default polling timeout: generous enough for heavily loaded sweeps,
/// short enough for tests to fail fast on deadlock bugs. Per-connection
/// deadlines override it via [`ProtocolConfig::op_timeout_ns`].
pub(crate) const POLL_TIMEOUT_NS: u64 = 30_000_000_000;

/// Poll the receive CQ with disconnect and dead-node detection, bounded
/// by `timeout_ns`. Returns `Ok(None)` on a clean peer disconnect,
/// [`RdmaError::QpError`] if either node was killed (fault injection),
/// and [`RdmaError::Timeout`] once the deadline passes — in the simulator
/// every in-flight message completes within microseconds, so a
/// long-silent CQ means the peer is gone or a bug would otherwise hang
/// the harness.
pub(crate) fn poll_recv(
    ep: &Endpoint,
    poll: PollMode,
    timeout_ns: u64,
) -> Result<Option<hat_rdma_sim::Completion>> {
    let give_up = hat_rdma_sim::now_ns().saturating_add(timeout_ns);
    // Wake at least every 100ms to notice disconnects and dead nodes.
    let slice = timeout_ns.clamp(1, 100_000_000);
    loop {
        match ep.recv_cq().poll_timeout(poll, slice) {
            Ok(c) => return Ok(Some(c)),
            Err(RdmaError::Timeout) => {
                if let Some(dead) = ep.fault_down() {
                    return Err(RdmaError::QpError(format!("node '{dead}' is down")));
                }
                if !ep.is_alive() {
                    return Ok(None);
                }
                if hat_rdma_sim::now_ns() > give_up {
                    return Err(RdmaError::Timeout);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Largest control message any protocol sends: tag + length + token + one
/// [`RemoteBuf`] (the rendezvous RTS/CTS).
pub(crate) const CTRL_MAX: usize = 1 + 8 + 8 + RemoteBuf::WIRE_SIZE;

/// One control message, held by value: control traffic is sent inline
/// from, and received into, the stack — never the heap.
pub(crate) struct CtrlMsg {
    bytes: [u8; CTRL_MAX],
    len: usize,
}

impl CtrlMsg {
    /// Concatenate `parts` into one message.
    pub(crate) fn new(parts: &[&[u8]]) -> CtrlMsg {
        let mut msg = CtrlMsg { bytes: [0; CTRL_MAX], len: 0 };
        for part in parts {
            msg.bytes[msg.len..msg.len + part.len()].copy_from_slice(part);
            msg.len += part.len();
        }
        msg
    }
}

impl std::ops::Deref for CtrlMsg {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// A small eager ring used for control traffic (handshakes, RTS/CTS/FIN,
/// notify messages). Sends are inline (control messages are tiny); receive
/// slots are pre-posted and re-posted after consumption.
pub(crate) struct CtrlRing {
    ep: Endpoint,
    mr: MemoryRegion,
    slot_size: usize,
    slots: usize,
    timeout_ns: u64,
}

impl CtrlRing {
    pub(crate) fn new(
        ep: &Endpoint,
        slots: usize,
        slot_size: usize,
        timeout_ns: u64,
    ) -> Result<CtrlRing> {
        assert!(slot_size <= hat_rdma_sim::MAX_INLINE, "control slots must fit inline sends");
        assert!(slot_size <= CTRL_MAX, "control slots must fit a CtrlMsg");
        let mr = posted_ring(ep, slots, slot_size)?;
        Ok(CtrlRing { ep: ep.clone(), mr, slot_size, slots, timeout_ns })
    }

    /// Send a control message (inline).
    pub(crate) fn send(&self, wr_id: u64, data: &[u8]) -> Result<()> {
        assert!(data.len() <= self.slot_size, "control message too large for ring slot");
        self.ep.post_send(&[SendWr::send_inline(wr_id, data)])
    }

    /// Receive one control message; returns `None` on disconnect.
    pub(crate) fn recv(&self, poll: PollMode) -> Result<Option<CtrlMsg>> {
        let Some(comp) = poll_recv(&self.ep, poll, self.timeout_ns)? else { return Ok(None) };
        self.read_slot(comp).map(Some)
    }

    /// Copy one completed slot out and recycle it: the second half of
    /// `recv`, for a caller that polls the CQ itself.
    pub(crate) fn read_slot(&self, comp: hat_rdma_sim::Completion) -> Result<CtrlMsg> {
        comp.ok()?;
        let slot = comp.wr_id as usize % self.slots;
        // A completed receive holds at most `slot_size` bytes.
        let mut data = CtrlMsg { bytes: [0; CTRL_MAX], len: comp.byte_len.min(self.slot_size) };
        self.mr.read(slot * self.slot_size, &mut data.bytes[..data.len])?;
        // Recycle the slot.
        self.ep.post_recv(RecvWr::new(
            comp.wr_id,
            self.mr.clone(),
            slot * self.slot_size,
            self.slot_size,
        ))?;
        Ok(data)
    }
}

/// Out-of-band handshake: exchange fixed-size blobs between the two sides
/// of a fresh connection (models the QP-establishment metadata exchange).
///
/// Both sides must call this concurrently with their own blob; each gets
/// the peer's. Uses busy polling — handshakes are rare and short. Also
/// used by the HatRPC engine for its connection preamble.
pub fn exchange_blobs(ep: &Endpoint, blob: &[u8]) -> Result<Vec<u8>> {
    exchange_blobs_deadline(ep, blob, POLL_TIMEOUT_NS)
}

/// [`exchange_blobs`] with an explicit deadline, for callers (like the
/// engine's connection preamble) whose own call policy bounds how long a
/// connection attempt may take.
pub fn exchange_blobs_deadline(ep: &Endpoint, blob: &[u8], timeout_ns: u64) -> Result<Vec<u8>> {
    const HSK_SLOT: usize = 208;
    assert!(blob.len() <= HSK_SLOT, "handshake blob too large");
    let mr = ep.pd().register(HSK_SLOT)?;
    ep.post_recv(RecvWr::new(u64::MAX, mr.clone(), 0, HSK_SLOT))?;
    ep.post_send(&[SendWr::send_inline(u64::MAX - 1, blob)])?;
    let comp = poll_recv(ep, PollMode::Busy, timeout_ns)?
        .ok_or(hat_rdma_sim::RdmaError::Disconnected)?
        .ok()?;
    let peer = mr.read_vec(0, comp.byte_len)?;
    mr.deregister();
    Ok(peer)
}

/// Handles to a server's accepted connections, held so that shutdown can
/// close them. Before it takes a new handle, [`OpenConns::insert`] looks
/// at the next two held ones, round robin, and lets go of those no longer
/// open: a closed connection's handle (and the posted receives, and with
/// them the registered memory, it pins) is released within a few accepts,
/// at O(1) cost per accept.
#[derive(Debug)]
pub struct OpenConns<T> {
    held: Vec<T>,
    cursor: usize,
}

impl<T> Default for OpenConns<T> {
    fn default() -> Self {
        OpenConns { held: Vec::new(), cursor: 0 }
    }
}

impl<T> OpenConns<T> {
    /// Hold `conn`, first letting go of closed ones per `is_open`.
    pub fn insert(&mut self, conn: T, is_open: impl Fn(&T) -> bool) {
        for _ in 0..2 {
            if self.cursor >= self.held.len() {
                self.cursor = 0;
            }
            match self.held.get(self.cursor) {
                Some(c) if is_open(c) => self.cursor += 1,
                Some(_) => drop(self.held.swap_remove(self.cursor)),
                None => break,
            }
        }
        self.held.push(conn);
    }

    /// Let go of every held handle, for shutdown to close.
    pub fn drain(&mut self) -> std::vec::Drain<'_, T> {
        self.held.drain(..)
    }
}

/// Test helpers shared by every protocol module's unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use hat_rdma_sim::{Fabric, Node, SimConfig};
    use std::sync::Arc;

    /// A client plus enough context to assert on node statistics.
    pub(crate) struct TestClient {
        pub inner: Box<dyn RpcClient>,
        node: Arc<Node>,
        _fabric: Fabric,
    }

    impl TestClient {
        pub(crate) fn call(&mut self, req: &[u8]) -> Result<Vec<u8>> {
            self.inner.call(req)
        }

        pub(crate) fn node_memcpys(&self) -> u64 {
            self.node.stats_snapshot().memcpys
        }

        pub(crate) fn node(&self) -> &Arc<Node> {
            &self.node
        }
    }

    /// A server plus its node for statistics assertions.
    pub(crate) struct TestServer {
        pub inner: Box<dyn RpcServer>,
        node: Arc<Node>,
    }

    impl TestServer {
        pub(crate) fn serve_one(
            &mut self,
            handler: &mut dyn FnMut(&[u8]) -> Vec<u8>,
        ) -> Result<bool> {
            self.inner.serve_one(handler)
        }

        pub(crate) fn node_memcpys(&self) -> u64 {
            self.node.stats_snapshot().memcpys
        }

        pub(crate) fn node(&self) -> &Arc<Node> {
            &self.node
        }
    }

    /// Build a connected client/server pair of `kind` (handshakes run
    /// concurrently, as they must).
    pub(crate) fn echo_pair(kind: ProtocolKind, cfg: ProtocolConfig) -> (TestClient, TestServer) {
        echo_pair_on(SimConfig::fast_test(), kind, cfg)
    }

    /// [`echo_pair`] on a fabric with the given simulator configuration.
    pub(crate) fn echo_pair_on(
        sim: SimConfig,
        kind: ProtocolKind,
        cfg: ProtocolConfig,
    ) -> (TestClient, TestServer) {
        let fabric = Fabric::new(sim);
        let cnode = fabric.add_node("client");
        let snode = fabric.add_node("server");
        let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
        let scfg = cfg.clone();
        let h = std::thread::spawn(move || accept_server(kind, sep, scfg).unwrap());
        let client = connect_client(kind, cep, cfg).unwrap();
        let server = h.join().unwrap();
        (
            TestClient { inner: client, node: cnode, _fabric: fabric },
            TestServer { inner: server, node: snode },
        )
    }

    /// Echo patterned payloads of each size through a fresh pair and
    /// verify byte-exact responses.
    pub(crate) fn run_echo_calls(kind: ProtocolKind, sizes: &[usize]) {
        let max = sizes.iter().copied().max().unwrap_or(64).max(64);
        let cfg = ProtocolConfig { max_msg: max, ..ProtocolConfig::default() };
        let (mut client, mut server) = echo_pair(kind, cfg);
        let n = sizes.len();
        let h = std::thread::spawn(move || {
            for _ in 0..n {
                assert!(server
                    .serve_one(&mut |req| {
                        let mut resp = req.to_vec();
                        resp.reverse();
                        resp
                    })
                    .unwrap_or_else(|e| panic!("{kind} server: {e:?}")));
            }
            server
        });
        for (i, &size) in sizes.iter().enumerate() {
            let req: Vec<u8> = (0..size).map(|j| ((i + j) % 251) as u8).collect();
            let mut expected = req.clone();
            expected.reverse();
            let resp = client.call(&req).unwrap();
            assert_eq!(resp, expected, "echo mismatch for {kind} at {size} bytes");
        }
        h.join().unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{echo_pair, run_echo_calls};
    use super::*;
    use hat_rdma_sim::{Fabric, NodeStatsSnapshot, SimConfig};

    /// Every kind echoes byte-exact across the sizes that exercise its
    /// paths — an eager slot, the hybrid threshold and one byte past it,
    /// RFP's follow-up READ — and its server reports a client that went
    /// away as `Ok(false)`, not as an error or a hang.
    #[test]
    fn every_kind_roundtrips_and_its_server_sees_disconnect() {
        for kind in ProtocolKind::ALL {
            run_echo_calls(kind, &[4, 512, 4096, 4097, 65536]);
            let (client, mut server) =
                echo_pair(kind, ProtocolConfig { max_msg: 1024, ..Default::default() });
            drop(client);
            assert!(!server.serve_one(&mut |r| r.to_vec()).unwrap(), "{kind}");
        }
    }

    /// What eight echoes of `payload` cost the client and the server node,
    /// after a first echo has absorbed any handshake traffic.
    fn eight_echoes(kind: ProtocolKind, payload: usize) -> (NodeStatsSnapshot, NodeStatsSnapshot) {
        let (mut client, mut server) = echo_pair(kind, ProtocolConfig::default());
        let (cnode, snode) = (client.node().clone(), server.node().clone());
        let h = std::thread::spawn(move || {
            for _ in 0..9 {
                assert!(server.serve_one(&mut |r| r.to_vec()).unwrap());
            }
            // Alive until the client has READ the last rendezvous reply.
            server
        });
        let request = vec![7u8; payload];
        client.call(&request).unwrap();
        let (c0, s0) = (cnode.stats_snapshot(), snode.stats_snapshot());
        for _ in 0..8 {
            assert_eq!(client.call(&request).unwrap(), request, "{kind}");
        }
        h.join().unwrap();
        (cnode.stats_snapshot() - c0, snode.stats_snapshot() - s0)
    }

    /// The per-message count each kind is in Figure 3 for, one row each.
    #[test]
    fn each_kind_keeps_its_per_message_counts() {
        use ProtocolKind::*;
        // Chaining the WRITE and its SEND notify rings half the doorbells
        // of posting them separately (3c vs 3b).
        let separate = eight_echoes(DirectWriteSend, 128).0.doorbells;
        let chained = eight_echoes(ChainedWriteSend, 128).0.doorbells;
        assert_eq!((separate, chained), (16, 8), "doorbells: separate vs chained");
        // Write-imm posts one work request per message (3f).
        assert_eq!(eight_echoes(DirectWriteImm, 64).0.wrs_posted, 8, "write-imm WRs");
        // Eager charges a staging and a landing copy on both sides (3a).
        let (client, server) = eight_echoes(EagerSendRecv, 1024);
        assert_eq!((client.memcpys, server.memcpys), (16, 16), "eager copies");
        // Hybrid's rendezvous path copies no payload, and sends no control
        // message that would cost one (§4.3).
        let (client, server) = eight_echoes(HybridEagerRndv, 64 * 1024);
        assert_eq!((client.memcpys, server.memcpys), (0, 0), "hybrid rendezvous copies");
    }

    /// Rendezvous pins less memory than direct-write for the same max_msg:
    /// the paper's reason to map `res_util` → RNDV for large payloads. On
    /// a window of one each side pins, besides its payload regions, two
    /// rendezvous control slots or one 16 B direct-write notify slot.
    #[test]
    fn rndv_server_footprint_below_direct_write() {
        use ProtocolKind::*;
        let max = 256 * 1024;
        let pinned = |kind| {
            let (client, server) =
                echo_pair(kind, ProtocolConfig { max_msg: max, ..Default::default() });
            let bytes = |node: &std::sync::Arc<hat_rdma_sim::Node>| {
                node.stats_snapshot().registered_bytes as usize
            };
            (bytes(client.node()), bytes(server.node()))
        };
        let ctrl = 2 * CTRL_MAX;
        // Write-RNDV: the landing region; Read-RNDV: the stage and the
        // landing region; direct-write: a landing and a staging stripe.
        assert_eq!(pinned(WriteRndv), (max + ctrl, max + ctrl));
        assert_eq!(pinned(ReadRndv), (2 * max + ctrl, 2 * max + ctrl));
        assert_eq!(pinned(DirectWriteSend), (2 * max + 16, 2 * max + 16));
    }

    #[test]
    fn protocol_labels_are_unique() {
        let mut labels: Vec<_> = ProtocolKind::ALL.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), ProtocolKind::ALL.len());
    }

    #[test]
    fn preknown_buffer_classification_matches_paper() {
        assert!(ProtocolKind::DirectWriteImm.needs_preknown_buffer());
        assert!(ProtocolKind::Rfp.needs_preknown_buffer());
        assert!(!ProtocolKind::EagerSendRecv.needs_preknown_buffer());
        assert!(!ProtocolKind::WriteRndv.needs_preknown_buffer());
        assert!(!ProtocolKind::HybridEagerRndv.needs_preknown_buffer());
    }

    #[test]
    fn handshake_exchanges_blobs_both_ways() {
        let f = Fabric::new(SimConfig::fast_test());
        let a = f.add_node("a");
        let b = f.add_node("b");
        let (ea, eb) = f.connect(&a, &b).unwrap();
        let ha = std::thread::spawn(move || exchange_blobs(&ea, b"from-a").unwrap());
        let hb = std::thread::spawn(move || exchange_blobs(&eb, b"from-b").unwrap());
        assert_eq!(ha.join().unwrap(), b"from-b");
        assert_eq!(hb.join().unwrap(), b"from-a");
    }

    #[test]
    fn ctrl_ring_roundtrip_and_recycling() {
        let f = Fabric::new(SimConfig::fast_test());
        let a = f.add_node("a");
        let b = f.add_node("b");
        let (ea, eb) = f.connect(&a, &b).unwrap();
        let ra = CtrlRing::new(&ea, 2, CTRL_MAX, POLL_TIMEOUT_NS).unwrap();
        let rb = CtrlRing::new(&eb, 2, CTRL_MAX, POLL_TIMEOUT_NS).unwrap();
        // Send more messages than slots to prove recycling works.
        for i in 0..6u8 {
            ra.send(i as u64, &[i; 8]).unwrap();
            let got = rb.recv(PollMode::Busy).unwrap().unwrap();
            assert_eq!(&got[..], [i; 8]);
        }
        // And the reverse direction.
        rb.send(0, b"reply").unwrap();
        assert_eq!(&ra.recv(PollMode::Busy).unwrap().unwrap()[..], b"reply");
    }

    #[test]
    fn ctrl_ring_reports_disconnect() {
        let f = Fabric::new(SimConfig::fast_test());
        let a = f.add_node("a");
        let b = f.add_node("b");
        let (ea, eb) = f.connect(&a, &b).unwrap();
        let ring = CtrlRing::new(&eb, 2, CTRL_MAX, POLL_TIMEOUT_NS).unwrap();
        ea.close();
        assert!(ring.recv(PollMode::Busy).unwrap().is_none());
    }

    /// A memcpy charge is a guard held over the real copy: the section
    /// costs `max(copy, model)`, not their sum. The model is slowed to
    /// ~2 ms for 1 MiB so the real copy (measured alone first) is well
    /// inside it, and the accounting is the model's, exactly.
    #[test]
    fn a_memcpy_guard_held_over_the_real_copy_costs_max_not_sum() {
        use hat_rdma_sim::{now_ns, CostModel};
        const LEN: usize = 1 << 20;
        let _nic_local = hat_rdma_sim::numa::bind_current_thread(0);
        let cost = CostModel { memcpy_bytes_per_ns: 0.5, ..CostModel::default() };
        let f = Fabric::new(SimConfig { cost, ..SimConfig::default() });
        let (a, b) = (f.add_node("a"), f.add_node("b"));
        let (ep, _peer) = f.connect(&a, &b).unwrap();
        let model = f.config().cost.memcpy_ns(LEN);
        let (src, mut dst) = (vec![7u8; LEN], vec![0u8; LEN]);

        // Minima over a few runs: a descheduled run says nothing.
        let mut time = |charged: bool| {
            (0..5)
                .map(|_| {
                    let t = now_ns();
                    let guard = charged.then(|| charge_memcpy(&ep, LEN));
                    dst.copy_from_slice(std::hint::black_box(&src));
                    std::hint::black_box(&mut dst);
                    drop(guard);
                    now_ns() - t
                })
                .min()
                .expect("five runs")
        };
        let copy = time(false);
        let before = a.stats_snapshot();
        let charged = time(true);
        let stats = a.stats_snapshot() - before;

        assert!(copy < model / 2, "the model ({model} ns) must dwarf the copy ({copy} ns)");
        assert!(charged >= model);
        assert!(
            charged - model < copy / 2,
            "a charged 1 MiB copy took model + {} ns; the copy alone takes {copy} ns",
            charged - model
        );
        assert_eq!((stats.cpu_busy_ns, stats.memcpys), (5 * model, 5));
    }
}
