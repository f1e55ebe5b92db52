//! The four kinds without a wire: the server-bypass protocols built on
//! RDMA READ (paper Figures 3g–3i) and the HERD comparator of §5.4. Each
//! kind is one request path plus one reply path, and one client and one
//! server, parameterised by those two choices, serve all four:
//!
//! | kind | request path | reply path |
//! |---|---|---|
//! | Pilaf (3g) | SEND ring | board: the 8 B directory word (polled), the 16 B item header, the payload |
//! | FaRM (3h) | SEND ring | board: the 32 B entry (polled), the payload |
//! | RFP (3i) | written region, memory-polled | board: the 16 B header and the first `min(max_msg, 1024)` B (polled), one READ for the rest, if any |
//! | HERD (§5.4) | written region + notify SEND | SEND ring |
//!
//! * A **SEND ring** is eager: the sender copies `[len u32][payload]` into
//!   a staging slot and SENDs it, the receiver lands the payload and
//!   reposts the slot, and each copy is charged. Only the receiving side
//!   registers the ring.
//! * A **written request** is one WRITE of `[seq u64][len u64][payload]`
//!   into the server's pre-known request region: in-bound RDMA, which costs
//!   the server's NIC posting nothing. RFP's server memory-polls the
//!   header; HERD chains a zero-length notify SEND under the WRITE's
//!   doorbell.
//! * A **board** holds the server's reply for the client to fetch with
//!   READs, so the server CPU never posts it: `[seq u64][0 u64][seq
//!   u64][len u64][payload]`. The payload is written first and the 32 B
//!   header after it in one region write, so a READ that shows a fresh seq
//!   never shows a stale payload. Pilaf polls the first word (its
//!   directory), FaRM the whole header (its entry), RFP the second half
//!   with the first payload bytes behind it.
//!
//! The RFP asymmetry the paper leans on — issuing an out-bound RDMA is
//! costlier than serving an in-bound one — emerges from the cost model's
//! `inbound_rdma_turnaround_ns` vs the initiator-side post+doorbell+NIC
//! charges. HERD's weakness is the paper's: "HERD uses RDMA SEND for
//! sending server's response, thereby it can not deliver good performance
//! for GET or MultiGET operations" — a reply is copied into a send slot
//! and delivered two-sided.

use hat_rdma_sim::time::dry_pause;
use hat_rdma_sim::{
    now_ns, Endpoint, MemoryRegion, PollMode, PoolBuf, RdmaError, RecvWr, RemoteBuf, Result, SendWr,
};

use crate::common::{
    charge_memcpy, check_len, exchange_blobs, poll_recv, posted_ring, read_now, wire_len, Landing,
    Link, ProtocolConfig, ProtocolKind, RpcClient, RpcServer,
};

/// Modelled pause between memory/READ polls when the poller is in
/// event-ish mode (these protocols have no completion to block on, so
/// "event polling" degrades to periodic checking — the CPU-vs-latency
/// trade-off is the same).
const EVENT_POLL_PAUSE_NS: u64 = 3_000;

/// `[len u32]`: the header of a SEND-ring message.
const RING_HDR: usize = 4;
/// `[seq u64][len u64]`: the header of a written request, and the second
/// half of a board's.
const SEQ_HDR: usize = 16;
/// A board's header: the directory word, 8 unused bytes, then a
/// [`SEQ_HDR`]. The payload follows it.
const BOARD_HDR: usize = 32;
/// Payload bytes RFP's polled READ brings behind the header, at most: the
/// paper notes RFP shines below 1 KB; beyond, one more READ fetches the
/// rest.
const RFP_FIRST_READ: usize = 1024;

/// Whether `kind`'s request is written into the server's region (RFP,
/// HERD) rather than SENT into its ring (Pilaf, FaRM).
fn written_request(kind: ProtocolKind) -> bool {
    matches!(kind, ProtocolKind::Rfp | ProtocolKind::Herd)
}

/// Whether `kind`'s reply is fetched off the server's board (Pilaf, FaRM,
/// RFP) rather than SENT into the client's ring (HERD).
fn board_reply(kind: ProtocolKind) -> bool {
    kind != ProtocolKind::Herd
}

fn seq_hdr(seq: u64, len: usize) -> [u8; SEQ_HDR] {
    let mut hdr = [0u8; SEQ_HDR];
    hdr[..8].copy_from_slice(&seq.to_le_bytes());
    hdr[8..].copy_from_slice(&(len as u64).to_le_bytes());
    hdr
}

/// Copy `payload` into the staging slot `stage` behind its `[len u32]`
/// and SEND it.
fn ring_send(ep: &Endpoint, stage: &MemoryRegion, payload: &[u8]) -> Result<()> {
    let copy = charge_memcpy(ep, payload.len());
    stage.write_parts(0, &[&(payload.len() as u32).to_le_bytes(), payload])?;
    drop(copy);
    ep.post_send(&[SendWr::send(0, stage.slice(0, RING_HDR + payload.len()))])
}

/// Wait for the next message on `ring`, land its payload and repost the
/// slot; `None` on a clean disconnect. The length is checked against the
/// bytes that arrived behind it — at most a slot's `max_msg` — before it
/// sizes anything, and the copy out is charged from the moment it is
/// known.
fn ring_recv<B: Landing>(link: &Link, ring: &MemoryRegion) -> Result<Option<B>> {
    let Link { ep, cfg } = link;
    let Some(comp) = poll_recv(ep, cfg.poll, cfg.op_timeout_ns)? else { return Ok(None) };
    comp.ok()?;
    let slot_size = RING_HDR + cfg.max_msg;
    let base = (comp.wr_id as usize % cfg.ring_slots) * slot_size;
    let (payload, copy) = ring.with_bytes(base, slot_size, |slot| {
        let frame = &slot[..comp.byte_len.min(slot_size)];
        let Some((hdr, body)) = frame.split_first_chunk::<RING_HDR>() else {
            return Err(RdmaError::InvalidWorkRequest(format!(
                "a {}-byte ring message has no header",
                frame.len()
            )));
        };
        let len = u32::from_le_bytes(*hdr) as usize;
        check_len(len, body.len())?;
        let copy = charge_memcpy(ep, len);
        Ok((B::from(&body[..len]), copy))
    })??;
    drop(copy);
    ep.post_recv(RecvWr::new(comp.wr_id, ring.clone(), base, slot_size))?;
    Ok(Some(payload))
}

/// Request `want` out of a written-request `region`, landed in a pooled
/// buffer, if its header shows that seq. The length is checked against
/// `max_msg` (the region's room behind the header) first.
fn land_written(region: &MemoryRegion, want: u64) -> Result<Option<PoolBuf>> {
    region.with_bytes(0, region.len(), |bytes| {
        let (hdr, body) = bytes.split_at(SEQ_HDR);
        if hdr[..8] != want.to_le_bytes() {
            return Ok(None);
        }
        let len = wire_len(&hdr[8..]);
        check_len(len, body.len())?;
        Ok(Some(PoolBuf::from(&body[..len])))
    })?
}

/// A polled wait in progress: for a board to show the wanted sequence
/// (clients) or the request region the next request (RFP server).
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
    fn begin(Link { ep, cfg }: &Link) -> PollWait {
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

/// The client of any of the four kinds.
struct Client {
    link: Link,
    kind: ProtocolKind,
    /// Where a request is framed: the SEND-ring staging slot, or the stage
    /// a written request is WRITten from.
    stage: MemoryRegion,
    /// Where a reply arrives: the landing for board READs, or the reply
    /// ring.
    inbox: MemoryRegion,
    /// The server's request region, for a written request.
    request: Option<RemoteBuf>,
    /// The server's board, for a board reply.
    board: Option<RemoteBuf>,
    seq: u64,
}

/// Build the client side of `kind` (Pilaf, FaRM, RFP or HERD), concurrently
/// with its peer's [`accept`]: the server advertises its request region
/// and its board, whichever of the two the kind has, in that order.
pub(crate) fn connect(
    kind: ProtocolKind,
    ep: Endpoint,
    cfg: ProtocolConfig,
) -> Result<Box<dyn RpcClient>> {
    // The handshake comes first: receive queues are FIFO, and the reply
    // ring must not take the server's advert.
    let advert = exchange_blobs(&ep, b"client")?;
    let nth = |i: usize| RemoteBuf::decode(advert.get(i * RemoteBuf::WIRE_SIZE..).unwrap_or(&[]));
    let request = if written_request(kind) { Some(nth(0)?) } else { None };
    let board = if board_reply(kind) { Some(nth(request.is_some() as usize)?) } else { None };
    let hdr = if written_request(kind) { SEQ_HDR } else { RING_HDR };
    let stage = ep.pd().register(hdr + cfg.max_msg)?;
    let inbox = if board_reply(kind) {
        // RFP's payload lands behind the header its polled READ brings.
        let at = if kind == ProtocolKind::Rfp { SEQ_HDR } else { 0 };
        ep.pd().register(at + cfg.max_msg.max(BOARD_HDR))?
    } else {
        posted_ring(&ep, cfg.ring_slots, RING_HDR + cfg.max_msg)?
    };
    Ok(Box::new(Client { link: Link { ep, cfg }, kind, stage, inbox, request, board, seq: 0 }))
}

impl Client {
    /// Fetch reply `want` off `board`: READ-poll until the kind's polled
    /// READ shows `want` in its first word, then READ what is left — the
    /// item header (Pilaf), the payload or the rest of it (RFP) — into the
    /// landing, and copy the payload out. The announced length is checked
    /// against `max_msg` before it sizes a READ.
    fn fetch(&self, board: RemoteBuf, want: u64) -> Result<Vec<u8>> {
        let landing = &self.inbox;
        let read = |at: usize, from: usize, len: usize| {
            read_now(&self.link, 7, landing.slice(at, len), board.sub(from as u64, len as u64))
        };
        let seq = |at: usize| landing.with_bytes(at, 8, |b| b == want.to_le_bytes());
        let len_at = |at: usize| landing.with_bytes(at, 8, wire_len);
        // RFP's polled READ brings the header and `first` payload bytes;
        // Pilaf and FaRM READ the payload whole, whatever its length.
        let first = self.link.cfg.max_msg.min(RFP_FIRST_READ);
        let (from, poll_len, at, fetched) = match self.kind {
            ProtocolKind::Pilaf => (0, 8, 0, 0),
            ProtocolKind::Farm => (0, BOARD_HDR, 0, 0),
            _ => (BOARD_HDR - SEQ_HDR, SEQ_HDR + first, SEQ_HDR, first),
        };
        let wait = PollWait::begin(&self.link);
        loop {
            read(0, from, poll_len)?;
            if seq(0)? {
                break;
            }
            wait.pause()?;
        }
        let len = match self.kind {
            ProtocolKind::Pilaf => {
                read(0, BOARD_HDR - SEQ_HDR, SEQ_HDR)?;
                if !seq(0)? {
                    return Err(RdmaError::InvalidWorkRequest(format!(
                        "the item header of reply {want} lags its directory word"
                    )));
                }
                len_at(8)?
            }
            ProtocolKind::Farm => len_at(BOARD_HDR - 8)?,
            _ => len_at(8)?,
        };
        check_len(len, self.link.cfg.max_msg)?;
        if len > fetched || fetched == 0 {
            read(at + fetched, BOARD_HDR + fetched, len - fetched)?;
        }
        landing.with_bytes(at, len, <[u8]>::to_vec)
    }
}

impl RpcClient for Client {
    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        let Link { ep, cfg } = &self.link;
        check_len(request.len(), cfg.max_msg)?;
        self.seq += 1;
        let want = self.seq;
        if let Some(region) = self.request {
            // One region write frames the request, and one WRITE moves it.
            let total = SEQ_HDR + request.len();
            self.stage.write_parts(0, &[&seq_hdr(want, request.len()), request])?;
            let write = SendWr::write(1, self.stage.slice(0, total), region.sub(0, total as u64));
            if self.kind == ProtocolKind::Herd {
                // HERD's trick: the notify rides the WRITE's doorbell.
                ep.post_send(&[write, SendWr::send_inline(2, &[])])?;
            } else {
                ep.post_send(&[write])?;
            }
        } else {
            ring_send(ep, &self.stage, request)?;
        }
        match self.board {
            Some(board) => self.fetch(board, want),
            None => ring_recv(&self.link, &self.inbox)?.ok_or(RdmaError::Disconnected),
        }
    }

    fn kind(&self) -> ProtocolKind {
        self.kind
    }
}

/// The server of any of the four kinds.
struct Server {
    link: Link,
    kind: ProtocolKind,
    /// Where requests arrive: the request ring, or the region a written
    /// request lands in.
    inbox: MemoryRegion,
    /// Where replies leave: the board, or the reply ring's staging slot.
    outbox: MemoryRegion,
    /// HERD: the one region its zero-length notify receives target.
    notify: Option<MemoryRegion>,
    seq: u64,
}

/// Build the server side of `kind`, concurrently with its peer's
/// [`connect`].
pub(crate) fn accept(
    kind: ProtocolKind,
    ep: Endpoint,
    cfg: ProtocolConfig,
) -> Result<Box<dyn RpcServer>> {
    let mut advert = Vec::with_capacity(2 * RemoteBuf::WIRE_SIZE);
    let mut advertised = |len: usize| -> Result<MemoryRegion> {
        let region = ep.pd().register(len)?;
        advert.extend_from_slice(&region.remote_buf(0, len).encode());
        Ok(region)
    };
    let region =
        if written_request(kind) { Some(advertised(SEQ_HDR + cfg.max_msg)?) } else { None };
    let outbox = if board_reply(kind) {
        advertised(BOARD_HDR + cfg.max_msg)?
    } else {
        ep.pd().register(RING_HDR + cfg.max_msg)?
    };
    exchange_blobs(&ep, &advert)?;
    // Receives are posted only now, behind the handshake's.
    let inbox = match region {
        Some(region) => region,
        None => posted_ring(&ep, cfg.ring_slots, RING_HDR + cfg.max_msg)?,
    };
    let notify = if kind == ProtocolKind::Herd {
        let target = ep.pd().register(1)?;
        for i in 0..cfg.ring_slots {
            ep.post_recv(RecvWr::new(i as u64, target.clone(), 0, 0))?;
        }
        Some(target)
    } else {
        None
    };
    Ok(Box::new(Server { link: Link { ep, cfg }, kind, inbox, outbox, notify, seq: 0 }))
}

impl Server {
    /// RFP: memory-poll the request region until it holds request `want`;
    /// `None` once the client has gone.
    fn polled(&self, want: u64) -> Result<Option<PoolBuf>> {
        let Link { ep, cfg } = &self.link;
        // Busy memory polling burns a core, just like CQ busy polling; an
        // event-ish poller parks between checks and is charged nothing.
        let _spin = (cfg.poll == PollMode::Busy).then(|| ep.node().enter_spin());
        let wait = PollWait::begin(&self.link);
        loop {
            if let Some(dead) = ep.fault_down() {
                return Err(RdmaError::QpError(format!("node '{dead}' is down")));
            }
            if !ep.is_alive() {
                return Ok(None);
            }
            if let Some(request) = land_written(&self.inbox, want)? {
                return Ok(Some(request));
            }
            wait.pause()?;
        }
    }

    /// HERD: wait for the notify SEND, then take request `want` out of the
    /// region the WRITE ahead of it filled. A header showing any other seq
    /// is a typed error.
    fn notified(&self, want: u64) -> Result<Option<PoolBuf>> {
        let Link { ep, cfg } = &self.link;
        let Some(comp) = poll_recv(ep, cfg.poll, cfg.op_timeout_ns)? else { return Ok(None) };
        comp.ok()?;
        let target = self.notify.clone().expect("a HERD server posts notify receives");
        ep.post_recv(RecvWr::new(comp.wr_id, target, 0, 0))?;
        let request = land_written(&self.inbox, want)?.ok_or_else(|| {
            RdmaError::InvalidWorkRequest(format!("a notify found no request {want} written"))
        })?;
        Ok(Some(request))
    }
}

impl RpcServer for Server {
    /// The handler borrows the request from a pooled buffer, never from a
    /// registered region (see `PipelinedServer::serve_ready`).
    fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
        let want = self.seq + 1;
        let request = match self.kind {
            ProtocolKind::Rfp => self.polled(want)?,
            ProtocolKind::Herd => self.notified(want)?,
            _ => ring_recv(&self.link, &self.inbox)?,
        };
        let Some(request) = request else { return Ok(false) };
        self.seq = want;
        let response = handler(&request);
        drop(request);
        check_len(response.len(), self.link.cfg.max_msg)?;
        if !board_reply(self.kind) {
            return ring_send(&self.link.ep, &self.outbox, &response).map(|()| true);
        }
        // Publish: payload first, then the whole header in one write.
        self.outbox.write(BOARD_HDR, &response)?;
        let hdr = seq_hdr(want, response.len());
        self.outbox.write_parts(0, &[&want.to_le_bytes(), &[0; 8], &hdr])?;
        Ok(true)
    }

    fn kind(&self) -> ProtocolKind {
        self.kind
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
            client.call(&[9u8; 100]).unwrap();
            let server = h.join().unwrap();
            let s = server.node().stats_snapshot();
            // The only server WR ever posted is the one handshake SEND.
            assert_eq!(s.wrs_posted, 1, "{kind}: server posts nothing beyond the handshake");
            assert!(s.inbound_rdma >= 2, "{kind}: client READs are in-bound at the server");
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

    /// HERD's request WRITE is zero-copy; its reply is copied into a send
    /// slot by the server and out of the ring by the client.
    #[test]
    fn herd_request_path_is_zero_copy_response_path_is_not() {
        let (mut client, mut server) =
            echo_pair(ProtocolKind::Herd, ProtocolConfig { max_msg: 4096, ..Default::default() });
        let h = std::thread::spawn(move || {
            server.serve_one(&mut |r| r.to_vec()).unwrap();
            server
        });
        let c_before = client.node_memcpys();
        client.call(&[1u8; 1024]).unwrap();
        let server = h.join().unwrap();
        // Client pays a copy only to pull the response off the ring; the
        // request WRITE is zero-copy (plus one inline notify counted by
        // the sim layer).
        assert!(client.node_memcpys() - c_before <= 2);
        assert!(server.node_memcpys() >= 1, "server copies every response");
    }

    /// Pilaf issues more READs per call than FaRM (3 vs 2 at minimum). Both
    /// poll until the reply is published — as often as the host takes to
    /// serve it — and then Pilaf READs the item header and the payload,
    /// FaRM the payload alone. A poll is told apart by its size (an 8 B
    /// directory word, a 32 B entry), so the READs after the polls are
    /// counted exactly, however long the server takes.
    #[test]
    fn pilaf_issues_more_reads_than_farm() {
        const CALLS: u64 = 4;
        const PAYLOAD: u64 = 64;
        let reads_and_polls = |kind| {
            let cfg = ProtocolConfig { max_msg: 1024, ..Default::default() };
            let (mut client, mut server) = echo_pair(kind, cfg);
            // Return the server from the thread so its registered regions
            // outlive the client's final READs (avoids a shutdown race).
            let h = std::thread::spawn(move || {
                for _ in 0..CALLS {
                    server.serve_one(&mut |r| r.to_vec()).unwrap();
                }
                server
            });
            let before = client.node().stats_snapshot();
            for _ in 0..CALLS {
                client.call(&[5u8; PAYLOAD as usize]).unwrap();
            }
            drop(h.join().unwrap());
            let c = client.node().stats_snapshot() - before;
            let polled = match kind {
                ProtocolKind::Pilaf => (c.bytes_rx - CALLS * (16 + PAYLOAD)) / 8,
                _ => (c.bytes_rx - CALLS * PAYLOAD) / 32,
            };
            (c.outbound_rdma, polled)
        };
        let (pilaf, pilaf_polls) = reads_and_polls(ProtocolKind::Pilaf);
        let (farm, farm_polls) = reads_and_polls(ProtocolKind::Farm);
        assert_eq!(pilaf - pilaf_polls, 2 * CALLS, "Pilaf: header and payload READs");
        assert_eq!(farm - farm_polls, CALLS, "FaRM: a payload READ");
        assert!(pilaf >= 3 * CALLS && farm >= 2 * CALLS, "Pilaf {pilaf}, FaRM {farm} READs");
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
