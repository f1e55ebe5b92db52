//! Server-bypass protocols built on RDMA READ (paper Figures 3g–3i).
//!
//! These designs offload response delivery to the *client*, which fetches
//! results out of server memory with one-sided READs — the server CPU
//! never posts a response:
//!
//! * [`Pilaf`] (Figure 3g) — ~3 READs per operation: two metadata READs
//!   (directory entry, then item header) plus one payload READ.
//! * [`Farm`] (Figure 3h) — ≥2 READs: one combined metadata READ plus one
//!   payload READ.
//! * [`Rfp`] (Figure 3i) — requests arrive as in-bound RDMA WRITEs into a
//!   server-polled region; the client fetches metadata *and* payload with
//!   a single READ when the response is small (RFP's headline claim),
//!   falling back to a second READ for the remainder otherwise.
//!
//! The RFP asymmetry the paper leans on — issuing an out-bound RDMA is
//! costlier than serving an in-bound one — emerges from the cost model's
//! `inbound_rdma_turnaround_ns` vs the initiator-side post+doorbell+NIC
//! charges.

use hat_rdma_sim::time::dry_pause;
use hat_rdma_sim::{
    now_ns, Endpoint, MemoryRegion, PollMode, RdmaError, RecvWr, RemoteBuf, Result, SendWr,
};

use crate::common::{
    charge_memcpy, poll_recv, wire_len, ProtocolConfig, ProtocolKind, RpcClient, RpcServer,
};

/// Modelled pause between memory/READ polls when the poller is in
/// event-ish mode (these protocols have no completion to block on, so
/// "event polling" degrades to periodic checking — the CPU-vs-latency
/// trade-off is the same).
const EVENT_POLL_PAUSE_NS: u64 = 3_000;

/// Request channel: an eager SEND ring (client → server), used by Pilaf
/// and FaRM whose *requests* travel as ordinary messages.
struct RequestChannel {
    ep: Endpoint,
    poll: PollMode,
    timeout_ns: u64,
    ring: MemoryRegion,
    staging: MemoryRegion,
    slots: usize,
    slot_size: usize,
}

const REQ_HDR: usize = 4;

impl RequestChannel {
    fn new(ep: &Endpoint, cfg: &ProtocolConfig, post_recvs: bool) -> Result<RequestChannel> {
        let slot_size = cfg.max_msg + REQ_HDR;
        let ring = ep.pd().register(cfg.ring_slots * slot_size)?;
        if post_recvs {
            for i in 0..cfg.ring_slots {
                ep.post_recv(RecvWr::new(i as u64, ring.clone(), i * slot_size, slot_size))?;
            }
        }
        let staging = ep.pd().register(slot_size)?;
        Ok(RequestChannel {
            ep: ep.clone(),
            poll: cfg.poll,
            timeout_ns: cfg.op_timeout_ns,
            ring,
            staging,
            slots: cfg.ring_slots,
            slot_size,
        })
    }

    fn send(&self, data: &[u8]) -> Result<()> {
        let copy = charge_memcpy(&self.ep, data.len());
        self.staging.write(0, &(data.len() as u32).to_le_bytes())?;
        self.staging.write(REQ_HDR, data)?;
        drop(copy);
        self.ep.post_send(&[SendWr::send(0, self.staging.slice(0, REQ_HDR + data.len()))])
    }

    fn recv(&self) -> Result<Option<Vec<u8>>> {
        let Some(comp) = poll_recv(&self.ep, self.poll, self.timeout_ns)? else { return Ok(None) };
        comp.ok()?;
        let slot = comp.wr_id as usize % self.slots;
        let base = slot * self.slot_size;
        let mut hdr = [0u8; REQ_HDR];
        self.ring.read(base, &mut hdr)?;
        let len = u32::from_le_bytes(hdr) as usize;
        let data = self.ring.read_vec(base + REQ_HDR, len)?;
        self.ep.post_recv(RecvWr::new(comp.wr_id, self.ring.clone(), base, self.slot_size))?;
        Ok(Some(data))
    }
}

/// Server-side response board: payload region + metadata words the client
/// READ-polls. Layout:
/// * `meta[0..8]`   — directory sequence (Pilaf's first READ)
/// * `meta[16..24]` — item sequence, `meta[24..32]` — payload length
///   (Pilaf's second READ; FaRM reads 16..32 in one go)
struct ResponseBoard {
    meta: MemoryRegion,
    payload: MemoryRegion,
}

impl ResponseBoard {
    fn new(ep: &Endpoint, max_msg: usize) -> Result<ResponseBoard> {
        Ok(ResponseBoard { meta: ep.pd().register(64)?, payload: ep.pd().register(max_msg)? })
    }

    /// Publish a response under sequence `seq` (payload first, directory
    /// word last, so a client never observes a fresh seq with stale data).
    fn publish(&self, seq: u64, data: &[u8]) -> Result<()> {
        self.payload.write(0, data)?;
        let mut item = [0u8; 16];
        item[..8].copy_from_slice(&seq.to_le_bytes());
        item[8..].copy_from_slice(&(data.len() as u64).to_le_bytes());
        self.meta.write(16, &item)?;
        self.meta.write(0, &seq.to_le_bytes())?;
        Ok(())
    }

    fn blob(&self, max_msg: usize) -> Vec<u8> {
        let mut b = Vec::with_capacity(2 * RemoteBuf::WIRE_SIZE);
        b.extend_from_slice(&self.meta.remote_buf(0, 64).encode());
        b.extend_from_slice(&self.payload.remote_buf(0, max_msg).encode());
        b
    }
}

/// Remote view of a [`ResponseBoard`].
#[derive(Clone, Copy)]
struct RemoteBoard {
    meta: RemoteBuf,
    payload: RemoteBuf,
}

impl RemoteBoard {
    fn decode(blob: &[u8]) -> Result<RemoteBoard> {
        Ok(RemoteBoard {
            meta: RemoteBuf::decode(blob)?,
            payload: RemoteBuf::decode(&blob[RemoteBuf::WIRE_SIZE..])?,
        })
    }
}

/// One synchronous one-sided READ into `landing[offset..offset+len]`.
fn read_sync(
    ep: &Endpoint,
    landing: &MemoryRegion,
    offset: usize,
    src: RemoteBuf,
    poll: PollMode,
    timeout_ns: u64,
) -> Result<()> {
    ep.post_send(&[SendWr::read(7, landing.slice(offset, src.len as usize), src).signaled()])?;
    ep.send_cq().poll_timeout(poll, timeout_ns)?.ok()?;
    Ok(())
}

/// A polled wait in progress: for a response board to show the wanted
/// sequence (clients) or the request region the next request (RFP server).
struct PollWait {
    since: u64,
    deadline: u64,
    /// Simulated time between two polls: [`EVENT_POLL_PAUSE_NS`] for an
    /// event-ish poller; 0 for a busy one, which only yields so the
    /// serving/producing peer can run on core-starved hosts (its simulated
    /// CPU is accounted separately).
    pause_ns: u64,
}

impl PollWait {
    fn begin(ep: &Endpoint, cfg: &ProtocolConfig) -> PollWait {
        let since = now_ns();
        let pause_ns = match cfg.poll {
            PollMode::Event => ep.node().config().scaled(EVENT_POLL_PAUSE_NS),
            PollMode::Busy => 0,
        };
        PollWait { since, deadline: since.saturating_add(cfg.op_timeout_ns), pause_ns }
    }

    /// After a dry poll: give up past the deadline, else wait one step on
    /// the simulator clock (`hat_rdma_sim::time::dry_pause`, the one wait
    /// rule shared with the CQ arms).
    fn pause(&self) -> Result<()> {
        let now = now_ns();
        if now > self.deadline {
            return Err(RdmaError::Timeout);
        }
        dry_pause(self.since, now, self.pause_ns);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Pilaf & FaRM
// ---------------------------------------------------------------------------

/// How many metadata READs the client issues before the payload READ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetaReads {
    /// Pilaf: directory READ + item-header READ.
    Two,
    /// FaRM: one combined metadata READ.
    One,
}

/// Shared client/server implementation for the Pilaf and FaRM emulations.
struct ReadPolled {
    ep: Endpoint,
    cfg: ProtocolConfig,
    req: RequestChannel,
    /// Server side only.
    board: Option<ResponseBoard>,
    /// Client side only.
    remote: Option<RemoteBoard>,
    landing: MemoryRegion,
    seq: u64,
    meta_reads: MetaReads,
}

impl ReadPolled {
    fn client(ep: Endpoint, cfg: ProtocolConfig, meta_reads: MetaReads) -> Result<ReadPolled> {
        // Handshake first: the FIFO receive queue must not mix handshake
        // and data-ring receives.
        let peer = crate::common::exchange_blobs(&ep, b"client")?;
        let remote = RemoteBoard::decode(&peer)?;
        let req = RequestChannel::new(&ep, &cfg, false)?;
        let landing = ep.pd().register(cfg.max_msg.max(64))?;
        Ok(ReadPolled {
            ep,
            cfg,
            req,
            board: None,
            remote: Some(remote),
            landing,
            seq: 0,
            meta_reads,
        })
    }

    fn server(ep: Endpoint, cfg: ProtocolConfig, meta_reads: MetaReads) -> Result<ReadPolled> {
        let board = ResponseBoard::new(&ep, cfg.max_msg)?;
        let blob = board.blob(cfg.max_msg);
        crate::common::exchange_blobs(&ep, &blob)?;
        let req = RequestChannel::new(&ep, &cfg, true)?;
        let landing = ep.pd().register(64)?;
        Ok(ReadPolled {
            ep,
            cfg,
            req,
            board: Some(board),
            remote: None,
            landing,
            seq: 0,
            meta_reads,
        })
    }

    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        self.seq += 1;
        let want = self.seq;
        self.req.send(request)?;
        let remote = self.remote.expect("client has a remote board");
        let timeout = self.cfg.op_timeout_ns;
        let wait = PollWait::begin(&self.ep, &self.cfg);

        // Metadata phase. Pilaf polls the small directory word and then
        // issues a second READ for the item header (~2 metadata READs);
        // FaRM's single metadata READ covers the whole 32-byte entry —
        // directory word and length together.
        let len = match self.meta_reads {
            MetaReads::Two => {
                // READ #1 (polled): directory word only.
                loop {
                    read_sync(
                        &self.ep,
                        &self.landing,
                        0,
                        remote.meta.sub(0, 8),
                        self.cfg.poll,
                        timeout,
                    )?;
                    let mut seq = [0u8; 8];
                    self.landing.read(0, &mut seq)?;
                    if u64::from_le_bytes(seq) == want {
                        break;
                    }
                    wait.pause()?;
                }
                // READ #2: the item header.
                read_sync(
                    &self.ep,
                    &self.landing,
                    0,
                    remote.meta.sub(16, 16),
                    self.cfg.poll,
                    timeout,
                )?;
                let mut hdr = [0u8; 16];
                self.landing.read(0, &mut hdr)?;
                let seq = u64::from_le_bytes(hdr[..8].try_into().expect("8B"));
                debug_assert_eq!(seq, want, "item header lags directory");
                u64::from_le_bytes(hdr[8..].try_into().expect("8B")) as usize
            }
            MetaReads::One => {
                // One polled READ of the combined 32-byte entry.
                loop {
                    read_sync(
                        &self.ep,
                        &self.landing,
                        0,
                        remote.meta.sub(0, 32),
                        self.cfg.poll,
                        timeout,
                    )?;
                    let mut entry = [0u8; 32];
                    self.landing.read(0, &mut entry)?;
                    let seq = u64::from_le_bytes(entry[..8].try_into().expect("8B"));
                    if seq == want {
                        break u64::from_le_bytes(entry[24..32].try_into().expect("8B")) as usize;
                    }
                    wait.pause()?;
                }
            }
        };

        // Final READ: the payload.
        read_sync(
            &self.ep,
            &self.landing,
            0,
            remote.payload.sub(0, len as u64),
            self.cfg.poll,
            timeout,
        )?;
        self.landing.read_vec(0, len)
    }

    fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
        let Some(request) = self.req.recv()? else { return Ok(false) };
        let response = handler(&request);
        self.seq += 1;
        self.board.as_ref().expect("server has a board").publish(self.seq, &response)?;
        Ok(true)
    }
}

macro_rules! read_polled_variant {
    ($name:ident, $meta:expr, $kind:expr, $doc:literal) => {
        #[doc = $doc]
        pub struct $name {
            inner: ReadPolled,
        }

        impl $name {
            /// Build the client side.
            pub fn client(ep: Endpoint, cfg: ProtocolConfig) -> Result<$name> {
                Ok($name { inner: ReadPolled::client(ep, cfg, $meta)? })
            }

            /// Build the server side.
            pub fn server(ep: Endpoint, cfg: ProtocolConfig) -> Result<$name> {
                Ok($name { inner: ReadPolled::server(ep, cfg, $meta)? })
            }
        }

        impl RpcClient for $name {
            fn call(&mut self, request: &[u8]) -> Result<Vec<u8>> {
                self.inner.call(request)
            }

            fn kind(&self) -> ProtocolKind {
                $kind
            }
        }

        impl RpcServer for $name {
            fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
                self.inner.serve_one(handler)
            }

            fn kind(&self) -> ProtocolKind {
                $kind
            }
        }
    };
}

read_polled_variant!(
    Pilaf,
    MetaReads::Two,
    ProtocolKind::Pilaf,
    "Pilaf emulation (Figure 3g): request via SEND; the client fetches the \
     response with two metadata READs plus one payload READ (~3 READs/op)."
);

read_polled_variant!(
    Farm,
    MetaReads::One,
    ProtocolKind::Farm,
    "FaRM emulation (Figure 3h): request via SEND; the client fetches the \
     response with one metadata READ plus one payload READ (≥2 READs/op)."
);

// ---------------------------------------------------------------------------
// RFP
// ---------------------------------------------------------------------------

/// Header preceding RFP request/response payloads: `[seq u64, len u64]`.
const RFP_HDR: usize = 16;

fn rfp_header(seq: u64, len: usize) -> [u8; RFP_HDR] {
    let mut hdr = [0u8; RFP_HDR];
    hdr[..8].copy_from_slice(&seq.to_le_bytes());
    hdr[8..].copy_from_slice(&(len as u64).to_le_bytes());
    hdr
}

/// One memory poll: the payload length, once the header at the start of
/// `region` shows sequence `want`. The length is the writer's claim; the
/// read that uses it is bounds-checked against the region.
fn read_rfp_header(region: &MemoryRegion, want: u64) -> Result<Option<usize>> {
    let mut hdr = [0u8; RFP_HDR];
    region.read(0, &mut hdr)?;
    if u64::from_le_bytes(hdr[..8].try_into().expect("8B")) != want {
        return Ok(None);
    }
    Ok(Some(wire_len(&hdr[8..])))
}

/// RFP emulation (Figure 3i): the client WRITEs `[seq, len, payload]` into
/// a server-polled request region (in-bound RDMA — cheap for the server);
/// the server CPU memory-polls, executes, and publishes the response in
/// its response region; the client fetches header *and* payload with one
/// READ when the response fits [`Rfp::first_read_payload`], else issues one
/// follow-up READ for the remainder.
pub struct Rfp {
    ep: Endpoint,
    cfg: ProtocolConfig,
    /// Server: polled request region. Client: staging for outbound WRITEs.
    req_region: MemoryRegion,
    /// Server: response board. Client: landing buffer for READs.
    resp_region: MemoryRegion,
    /// Client's view of the server regions.
    remote_req: Option<RemoteBuf>,
    remote_resp: Option<RemoteBuf>,
    seq: u64,
    first_read_payload: usize,
}

impl Rfp {
    /// Payload bytes covered by the first response READ. The paper notes
    /// RFP shines below 1 KB; beyond this a second READ fetches the rest.
    pub fn first_read_payload(&self) -> usize {
        self.first_read_payload
    }

    /// Build the client side.
    pub fn client(ep: Endpoint, cfg: ProtocolConfig) -> Result<Rfp> {
        let req_region = ep.pd().register(RFP_HDR + cfg.max_msg)?;
        let resp_region = ep.pd().register(RFP_HDR + cfg.max_msg)?;
        let peer = crate::common::exchange_blobs(&ep, b"rfp-client")?;
        let remote_req = RemoteBuf::decode(&peer)?;
        let remote_resp = RemoteBuf::decode(&peer[RemoteBuf::WIRE_SIZE..])?;
        let first_read_payload = cfg.max_msg.min(1024);
        Ok(Rfp {
            ep,
            cfg,
            req_region,
            resp_region,
            remote_req: Some(remote_req),
            remote_resp: Some(remote_resp),
            seq: 0,
            first_read_payload,
        })
    }

    /// Build the server side.
    pub fn server(ep: Endpoint, cfg: ProtocolConfig) -> Result<Rfp> {
        let req_region = ep.pd().register(RFP_HDR + cfg.max_msg)?;
        let resp_region = ep.pd().register(RFP_HDR + cfg.max_msg)?;
        let mut blob = Vec::with_capacity(2 * RemoteBuf::WIRE_SIZE);
        blob.extend_from_slice(&req_region.remote_buf(0, RFP_HDR + cfg.max_msg).encode());
        blob.extend_from_slice(&resp_region.remote_buf(0, RFP_HDR + cfg.max_msg).encode());
        crate::common::exchange_blobs(&ep, &blob)?;
        let first_read_payload = cfg.max_msg.min(1024);
        Ok(Rfp {
            ep,
            cfg,
            req_region,
            resp_region,
            remote_req: None,
            remote_resp: None,
            seq: 0,
            first_read_payload,
        })
    }
}

impl RpcClient for Rfp {
    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        if request.len() > self.cfg.max_msg {
            return Err(RdmaError::InvalidWorkRequest(format!(
                "payload of {} bytes exceeds the RFP region ({} bytes)",
                request.len(),
                self.cfg.max_msg
            )));
        }
        self.seq += 1;
        let want = self.seq;

        // One in-bound WRITE delivers header + payload together.
        let msg_len = RFP_HDR + request.len();
        self.req_region.write(0, &rfp_header(want, request.len()))?;
        self.req_region.write(RFP_HDR, request)?;
        let dst = self.remote_req.expect("client knows the request region");
        self.ep.post_send(&[SendWr::write(
            1,
            self.req_region.slice(0, msg_len),
            dst.sub(0, msg_len as u64),
        )])?;

        // READ-poll the response: header + first chunk in one READ.
        let remote_resp = self.remote_resp.expect("client knows the response region");
        let first = RFP_HDR + self.first_read_payload;
        let timeout = self.cfg.op_timeout_ns;
        let wait = PollWait::begin(&self.ep, &self.cfg);
        let len = loop {
            read_sync(
                &self.ep,
                &self.resp_region,
                0,
                remote_resp.sub(0, first as u64),
                self.cfg.poll,
                timeout,
            )?;
            if let Some(len) = read_rfp_header(&self.resp_region, want)? {
                break len;
            }
            wait.pause()?;
        };

        // Large response: one follow-up READ for the remainder.
        if len > self.first_read_payload {
            let rest = len - self.first_read_payload;
            read_sync(
                &self.ep,
                &self.resp_region,
                RFP_HDR + self.first_read_payload,
                remote_resp.sub((RFP_HDR + self.first_read_payload) as u64, rest as u64),
                self.cfg.poll,
                timeout,
            )?;
        }
        self.resp_region.read_vec(RFP_HDR, len)
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Rfp
    }
}

impl RpcServer for Rfp {
    fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
        // Memory-poll the request region for the next sequence number.
        let want = self.seq + 1;
        let node = self.ep.node().clone();
        let request = {
            // Busy memory polling burns a core, just like CQ busy polling;
            // an event-ish poller parks between checks and is charged
            // nothing.
            let _spin = (self.cfg.poll == PollMode::Busy).then(|| node.enter_spin());
            let wait = PollWait::begin(&self.ep, &self.cfg);
            loop {
                if let Some(dead) = self.ep.fault_down() {
                    return Err(RdmaError::QpError(format!("node '{dead}' is down")));
                }
                if !self.ep.is_alive() {
                    return Ok(false);
                }
                if let Some(len) = read_rfp_header(&self.req_region, want)? {
                    break self.req_region.read_vec(RFP_HDR, len)?;
                }
                wait.pause()?;
            }
        };
        self.seq = want;
        let response = handler(&request);

        // Publish: payload first, header (with fresh seq) last.
        self.resp_region.write(RFP_HDR, &response)?;
        self.resp_region.write(0, &rfp_header(want, response.len()))?;
        Ok(true)
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Rfp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests_support::echo_pair;

    /// The server-bypass property: Pilaf/FaRM/RFP responses cost the
    /// server zero posted work requests.
    #[test]
    fn responses_are_server_bypass() {
        for kind in [ProtocolKind::Pilaf, ProtocolKind::Farm] {
            let (mut client, mut server) =
                echo_pair(kind, ProtocolConfig { max_msg: 4096, ..Default::default() });
            let h = std::thread::spawn(move || {
                server.serve_one(&mut |r| r.to_vec()).unwrap();
                server
            });
            let before = client.node().stats_snapshot();
            client.call(&[9u8; 100]).unwrap();
            let server = h.join().unwrap();
            let s = server.node().stats_snapshot();
            // The only server WR ever posted is the one handshake SEND.
            assert_eq!(s.wrs_posted, 1, "{kind}: server posts nothing beyond the handshake");
            assert!(s.inbound_rdma >= 2, "{kind}: client READs are in-bound at the server");
            let _ = before;
        }
    }

    /// RFP's request is also server-bypass (an in-bound WRITE) — the
    /// server's only activity is CPU memory polling.
    #[test]
    fn rfp_server_posts_nothing() {
        let (mut client, mut server) =
            echo_pair(ProtocolKind::Rfp, ProtocolConfig { max_msg: 2048, ..Default::default() });
        let h = std::thread::spawn(move || {
            server.serve_one(&mut |r| r.to_vec()).unwrap();
            server
        });
        client.call(&[1u8; 256]).unwrap();
        let server = h.join().unwrap();
        // One handshake SEND, nothing else: both request and response paths
        // bypass the server NIC posting entirely.
        assert_eq!(server.node().stats_snapshot().wrs_posted, 1);
    }

    /// Pilaf issues more READs per call than FaRM (3 vs 2 at minimum).
    /// Time is stretched 32× so that how many polls a call needs is decided
    /// by the modelled READ round trip, not by how long a debug build's
    /// server thread takes to be scheduled.
    #[test]
    fn pilaf_issues_more_reads_than_farm() {
        use crate::common::tests_support::echo_pair_on;
        let stretched =
            || hat_rdma_sim::SimConfig { time_scale: 32.0, ..hat_rdma_sim::SimConfig::default() };
        let count_reads = |kind| {
            let cfg = ProtocolConfig { max_msg: 1024, ..Default::default() };
            let (mut client, mut server) = echo_pair_on(stretched(), kind, cfg);
            // Return the server from the thread so its registered regions
            // outlive the client's final READs (avoids a shutdown race).
            let h = std::thread::spawn(move || {
                for _ in 0..4 {
                    server.serve_one(&mut |r| r.to_vec()).unwrap();
                }
                server
            });
            for _ in 0..4 {
                client.call(&[5u8; 64]).unwrap();
            }
            drop(h.join().unwrap());
            client.node().stats_snapshot().outbound_rdma
        };
        let pilaf = count_reads(ProtocolKind::Pilaf);
        let farm = count_reads(ProtocolKind::Farm);
        assert!(pilaf > farm, "Pilaf ({pilaf}) should issue more READs than FaRM ({farm})");
    }

    #[test]
    fn rfp_small_response_uses_single_read_when_prompt() {
        let (mut client, mut server) =
            echo_pair(ProtocolKind::Rfp, ProtocolConfig { max_msg: 2048, ..Default::default() });
        // Keep the server (and its registered regions) alive until the
        // client has fetched both responses.
        let h = std::thread::spawn(move || {
            for _ in 0..2 {
                server.serve_one(&mut |r| r.to_vec()).unwrap();
            }
            server
        });
        // Warm up (first call may need several polling READs).
        client.call(&[1u8; 64]).unwrap();
        let resp = client.call(&[2u8; 300]).unwrap();
        assert_eq!(resp.len(), 300);
        drop(h.join().unwrap());
    }

    /// The wait layer: an event-mode poller waits on the simulator clock.
    /// While a handler stalls, neither side is charged as a spinner
    /// (`cpu_busy_ns` stays far below the stall), and the client's READ
    /// polls are spaced by at least the modelled pause — their count is
    /// bounded by the call's duration, not by how fast the host can loop.
    #[test]
    fn event_pollers_wait_on_the_sim_clock_uncharged() {
        use crate::common::tests_support::echo_pair_on;
        use hat_rdma_sim::SimConfig;

        const STALL_NS: u64 = 200_000;
        for kind in [ProtocolKind::Pilaf, ProtocolKind::Farm, ProtocolKind::Rfp] {
            let cfg = ProtocolConfig { max_msg: 1024, poll: PollMode::Event, ..Default::default() };
            let (mut client, mut server) = echo_pair_on(SimConfig::default(), kind, cfg);
            let snode = server.node().clone();
            let h = std::thread::spawn(move || {
                server.serve_one(&mut |r| r.to_vec()).unwrap();
                server
                    .serve_one(&mut |r| {
                        hat_rdma_sim::time::spin_until(now_ns() + STALL_NS);
                        r.to_vec()
                    })
                    .unwrap();
                server
            });
            client.call(&[1u8; 64]).unwrap(); // warm-up
            let (c0, s0) = (client.node().stats_snapshot(), snode.stats_snapshot());
            let t0 = now_ns();
            assert_eq!(client.call(&[2u8; 64]).unwrap(), [2u8; 64]);
            let elapsed = now_ns() - t0;
            drop(h.join().unwrap());
            let (c, s) = (client.node().stats_snapshot() - c0, snode.stats_snapshot() - s0);

            assert!(
                c.cpu_busy_ns < STALL_NS / 4 && s.cpu_busy_ns < STALL_NS / 4,
                "{kind}: event pollers charged as spinners (client {} ns, server {} ns)",
                c.cpu_busy_ns,
                s.cpu_busy_ns
            );
            // Polls ≥ one pause apart, plus the request WRITE (RFP) and
            // the header/payload READs that follow the polled one.
            let bound = elapsed / EVENT_POLL_PAUSE_NS + 4;
            assert!(
                c.outbound_rdma <= bound,
                "{kind}: {} one-sided ops in a {elapsed} ns call (bound {bound})",
                c.outbound_rdma
            );
        }
    }
}
