//! Pipelined RPC channels: sliding-window in-flight requests with
//! doorbell-batched posting and a zero-alloc hot path.
//!
//! The synchronous [`crate::RpcClient`] issues one request and blocks for
//! its response, leaving the wire idle for a full round trip per call. A
//! [`PipelinedClient`] instead keeps up to `window` requests in flight
//! (the window is bounded by [`crate::ProtocolConfig::ring_slots`], which
//! the engine derives from the `queue_depth` hint):
//!
//! * [`PipelinedClient::submit`] stages a request and returns a [`Token`]
//!   immediately — **no doorbell is rung yet**. Consecutive submits
//!   accumulate into one work-request chain.
//! * [`PipelinedClient::flush`] posts every staged work request under a
//!   **single doorbell** (implicitly called by `try_complete`/`wait`, so a
//!   submit burst followed by a completion wait pays one MMIO total).
//! * [`PipelinedClient::try_complete`] / [`PipelinedClient::wait`] deliver
//!   responses as pooled [`PoolBuf`]s — after warmup the per-call hot path
//!   performs **zero heap allocations** (eager path; verified by the
//!   `zero_alloc` integration test).
//!
//! Every frame carries its token explicitly, so completions map back to
//! the right request even when fault injection delays and reorders CQ
//! entries. Responses may be taken in any order; a window slot is recycled
//! only once its response has been *taken* by the caller, which doubles as
//! flow control for the per-slot remote rings (no FIN control messages are
//! needed: by the time token `t + window` can be submitted, the buffers of
//! token `t` are provably quiescent).
//!
//! Four protocols have pipelined implementations, mirroring their
//! synchronous counterparts' wire behaviour:
//!
//! | kind | request path | notify | doorbells per flushed batch |
//! |------|--------------|--------|------------------------------|
//! | Eager-SendRecv | copy + SEND per slot | in-frame | 1 |
//! | Chained-Write-Send | WRITE to per-slot remote ring | chained inline SEND | 1 |
//! | Direct-WriteIMM | WRITE_WITH_IMM, imm = slot | in-slot header | 1 |
//! | Hybrid-EagerRNDV | eager frame or RTS + peer READ | in-frame | 1 |

use hat_rdma_sim::stats::NodeStats;
use hat_rdma_sim::{Endpoint, MemoryRegion, PoolBuf, RecvWr, RemoteBuf, Result, SendWr};

use crate::common::{
    charge_memcpy, poll_recv, CtrlRing, ProtocolConfig, ProtocolKind, RpcClient, RpcServer,
};

/// Identifies one submitted request. Tokens are sequential per channel,
/// starting at 0; token `t` occupies window slot `t % window`.
pub type Token = u64;

/// Client side of a pipelined RPC channel. See the module docs for the
/// submit/flush/complete protocol.
pub trait PipelinedClient: Send {
    /// Stage one request and return its token. Fails with
    /// `InvalidWorkRequest` when the window is full — the caller must take
    /// a completed response (via [`Self::try_complete`] or [`Self::wait`])
    /// before submitting more. No doorbell is rung until [`Self::flush`].
    fn submit(&mut self, request: &[u8]) -> Result<Token>;

    /// Post all staged work requests under a single doorbell. A no-op when
    /// nothing is staged. Called implicitly by the completion methods.
    fn flush(&mut self) -> Result<()>;

    /// Deliver one completed response if any is ready, lowest token first.
    /// Non-blocking: `Ok(None)` means nothing has completed yet.
    fn try_complete(&mut self) -> Result<Option<(Token, PoolBuf)>>;

    /// Block until the response for `token` arrives and return it. Errors
    /// on unknown/already-taken tokens and on channel failure.
    fn wait(&mut self, token: Token) -> Result<PoolBuf>;

    /// Non-blocking variant of [`Self::wait`]: flush staged work, drain
    /// whatever the CQ has ready, and take `token`'s response if it has
    /// arrived. `Ok(None)` means the response is still in flight — the
    /// substrate for async callers (a reactor or [`Future`]-style poll
    /// loop) that must never park a thread inside the channel. Errors on
    /// unknown/already-taken tokens and on channel failure, like `wait`.
    fn try_wait(&mut self, token: Token) -> Result<Option<PoolBuf>>;

    /// The window size: the maximum number of in-flight requests.
    fn window(&self) -> usize;

    /// Requests submitted but not yet taken by the caller.
    fn in_flight(&self) -> usize;

    /// Which protocol this channel speaks.
    fn kind(&self) -> ProtocolKind;
}

/// One call at a time, expressed over the pipelined API — lets the engine
/// reuse a pipelined channel for plain synchronous calls.
pub fn call_sync(client: &mut dyn PipelinedClient, request: &[u8]) -> Result<Vec<u8>> {
    let token = client.submit(request)?;
    Ok(client.wait(token)?.to_vec())
}

// ---------------------------------------------------------------------------
// Window bookkeeping shared by every pipelined protocol.
// ---------------------------------------------------------------------------

enum Slot {
    /// No outstanding request maps here.
    Free,
    /// A request was submitted; its response has not arrived.
    Waiting(Token),
    /// The response arrived but the caller has not taken it yet.
    Ready(Token, PoolBuf),
}

/// Sliding-window state: token assignment, per-slot occupancy, and
/// out-of-order completion buffering.
struct Window {
    slots: Vec<Slot>,
    next_token: Token,
    in_flight: usize,
}

impl Window {
    fn new(window: usize) -> Window {
        assert!(window > 0, "pipeline window must be at least 1");
        Window { slots: (0..window).map(|_| Slot::Free).collect(), next_token: 0, in_flight: 0 }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn slot_of(&self, token: Token) -> usize {
        token as usize % self.slots.len()
    }

    fn full_error(&self) -> hat_rdma_sim::RdmaError {
        hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
            "pipeline window full ({} of {} in flight): take a completed \
             response before submitting more",
            self.in_flight,
            self.slots.len()
        ))
    }

    /// Claim the next token, mapped to its *ring* slot `token % len`.
    /// Fails while that specific slot is occupied — even when other slots
    /// are free. Protocols whose peer derives the stripe from the token
    /// (chained-write, hybrid) must use this mapping; their callers have
    /// to take response `k` before submitting `k + window`.
    fn begin(&mut self) -> Result<(Token, usize)> {
        let token = self.next_token;
        let slot = self.slot_of(token);
        if !matches!(self.slots[slot], Slot::Free) {
            return Err(self.full_error());
        }
        self.slots[slot] = Slot::Waiting(token);
        self.next_token += 1;
        self.in_flight += 1;
        Ok((token, slot))
    }

    /// Claim the next token, mapped to *any* free slot. Fails only when
    /// the window is genuinely full (`in_flight == len`). For protocols
    /// that carry the token in-band in both directions (eager in the
    /// frame; write-imm in the slot header, the slot itself in the IMM),
    /// where a response left `Ready` in its slot — arrived, but its owner
    /// has not polled it yet — must not block an unrelated submit.
    fn begin_any(&mut self) -> Result<(Token, usize)> {
        if self.in_flight == self.slots.len() {
            return Err(self.full_error());
        }
        let slot = self
            .slots
            .iter()
            .position(|s| matches!(s, Slot::Free))
            .expect("in_flight < len implies a free slot");
        let token = self.next_token;
        self.slots[slot] = Slot::Waiting(token);
        self.next_token += 1;
        self.in_flight += 1;
        Ok((token, slot))
    }

    /// Record an arrived response for `token`.
    fn complete(&mut self, token: Token, response: PoolBuf) -> Result<()> {
        for s in self.slots.iter_mut() {
            if matches!(s, Slot::Waiting(t) if *t == token) {
                *s = Slot::Ready(token, response);
                return Ok(());
            }
        }
        Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
            "completion for token {token} does not match any in-flight request"
        )))
    }

    /// Take the lowest-token ready response, if any.
    fn take_any(&mut self) -> Option<(Token, PoolBuf)> {
        let mut best: Option<usize> = None;
        for (i, s) in self.slots.iter().enumerate() {
            if let Slot::Ready(t, _) = s {
                if best.is_none_or(|b| match &self.slots[b] {
                    Slot::Ready(bt, _) => t < bt,
                    _ => true,
                }) {
                    best = Some(i);
                }
            }
        }
        let i = best?;
        match std::mem::replace(&mut self.slots[i], Slot::Free) {
            Slot::Ready(t, buf) => {
                self.in_flight -= 1;
                Some((t, buf))
            }
            _ => unreachable!("slot was just observed Ready"),
        }
    }

    /// Take the response for `token` if it arrived; `Ok(None)` while it is
    /// still in flight; an error if the token is unknown (never submitted,
    /// already taken, or overwritten by a later window lap).
    fn try_take(&mut self, token: Token) -> Result<Option<PoolBuf>> {
        for slot in 0..self.slots.len() {
            match &self.slots[slot] {
                Slot::Waiting(t) if *t == token => return Ok(None),
                Slot::Ready(t, _) if *t == token => {
                    match std::mem::replace(&mut self.slots[slot], Slot::Free) {
                        Slot::Ready(_, buf) => {
                            self.in_flight -= 1;
                            return Ok(Some(buf));
                        }
                        _ => unreachable!("slot was just observed Ready"),
                    }
                }
                _ => {}
            }
        }
        Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
            "token {token} is not in flight on this channel"
        )))
    }
}

/// Charge one batched post of `batch` staged WRs to the pipeline
/// statistics, and mark the flush boundary on the trace timeline.
fn note_doorbell(ep: &Endpoint, batch: usize) {
    NodeStats::add(&ep.node().stats().pipeline_doorbells, 1);
    if hat_trace::enabled() {
        hat_trace::event(
            hat_trace::Phase::Flush,
            ep.node().id(),
            hat_trace::current_call(),
            batch as u64,
            hat_rdma_sim::now_ns(),
        );
    }
}

/// Mark a server-side burst drain of `n` requests on the trace timeline
/// (bursts serve many interleaved calls, so no single call id applies).
fn note_burst(ep: &Endpoint, n: usize) {
    if hat_trace::enabled() {
        hat_trace::event(
            hat_trace::Phase::Burst,
            ep.node().id(),
            0,
            n as u64,
            hat_rdma_sim::now_ns(),
        );
    }
}

/// The server half of the window's flow control, shared by the eager and
/// write-imm servers in both their blocking and reactor forms: stage a
/// response for `first` (the completion a blocking caller waited for, if
/// any) and for every request completion ready *now*, and post the
/// staged chain whenever it reaches half a window — the unit
/// `call_many` refills in, so the client's next half-window is on the
/// wire while this side is still answering the previous one — or the CQ
/// runs dry. Returns how many requests were served.
fn serve_burst(
    ep: &Endpoint,
    ring_slots: usize,
    staged: &mut Vec<SendWr>,
    first: Option<hat_rdma_sim::Completion>,
    mut stage: impl FnMut(hat_rdma_sim::Completion, &mut Vec<SendWr>) -> Result<()>,
) -> Result<usize> {
    let unit = (ring_slots / 2).max(1);
    let mut served = 0usize;
    staged.clear();
    let mut next = first.or_else(|| ep.recv_cq().try_poll());
    while let Some(comp) = next {
        stage(comp, staged)?;
        served += 1;
        next = ep.recv_cq().try_poll();
        if staged.len() >= unit || next.is_none() {
            note_burst(ep, staged.len());
            ep.post_send(staged)?;
            note_doorbell(ep, staged.len());
            staged.clear();
        }
    }
    Ok(served)
}

/// Charge one submitted call and refresh the in-flight high-water mark.
fn note_submit(ep: &Endpoint, in_flight: usize) {
    let stats = ep.node().stats();
    NodeStats::add(&stats.pipelined_calls, 1);
    stats.note_inflight(in_flight as u64);
}

/// Reject payloads that exceed the per-slot capacity.
fn check_len(len: usize, max_msg: usize) -> Result<()> {
    if len > max_msg {
        return Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
            "payload of {len} bytes exceeds the pipelined slot ({max_msg} bytes)"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Eager-SendRecv, pipelined.
// ---------------------------------------------------------------------------

/// Frame header: 4-byte length + 8-byte token, little endian.
const EAGER_HDR: usize = 12;

/// Pipelined Eager-SendRecv client: a per-slot send ring (so staged frames
/// survive until the batched post), a pre-posted receive ring, and SEND
/// work requests accumulated into one chain per flush.
pub struct PipelinedEager {
    ep: Endpoint,
    cfg: ProtocolConfig,
    send_ring: MemoryRegion,
    recv_ring: MemoryRegion,
    slot_size: usize,
    win: Window,
    staged: Vec<SendWr>,
}

impl PipelinedEager {
    /// Build the client side; the peer must be a [`PipelinedEagerServer`].
    pub fn client(ep: Endpoint, cfg: ProtocolConfig) -> Result<PipelinedEager> {
        let window = cfg.ring_slots;
        let slot_size = EAGER_HDR + cfg.max_msg;
        let recv_ring = ep.pd().register(window * slot_size)?;
        for i in 0..window {
            ep.post_recv(RecvWr::new(i as u64, recv_ring.clone(), i * slot_size, slot_size))?;
        }
        let send_ring = ep.pd().register(window * slot_size)?;
        Ok(PipelinedEager {
            ep,
            cfg,
            send_ring,
            recv_ring,
            slot_size,
            win: Window::new(window),
            staged: Vec::with_capacity(window),
        })
    }

    /// Drain every response frame the CQ has ready, without blocking.
    fn pump(&mut self) -> Result<()> {
        while let Some(comp) = self.ep.recv_cq().try_poll() {
            self.absorb(comp)?;
        }
        Ok(())
    }

    /// Read one response frame out of its ring slot and recycle the slot.
    fn absorb(&mut self, comp: hat_rdma_sim::Completion) -> Result<()> {
        comp.ok()?;
        let slot = comp.wr_id as usize % self.win.len();
        let base = slot * self.slot_size;
        let mut hdr = [0u8; EAGER_HDR];
        self.recv_ring.read(base, &mut hdr)?;
        let len = u32::from_le_bytes(hdr[..4].try_into().expect("4B")) as usize;
        let token = u64::from_le_bytes(hdr[4..12].try_into().expect("8B"));
        let copy = charge_memcpy(&self.ep, len);
        let mut buf = PoolBuf::for_overwrite(len);
        self.recv_ring.read(base + EAGER_HDR, buf.as_mut_slice())?;
        drop(copy);
        self.ep.post_recv(RecvWr::new(comp.wr_id, self.recv_ring.clone(), base, self.slot_size))?;
        self.win.complete(token, buf)
    }
}

impl PipelinedClient for PipelinedEager {
    fn submit(&mut self, request: &[u8]) -> Result<Token> {
        check_len(request.len(), self.cfg.max_msg)?;
        // Any free slot: eager frames carry the token in-band both ways,
        // so nothing on the wire pins a token to `token % window`. An
        // async caller can refill as soon as it has taken *some* response
        // even while older responses sit Ready awaiting their owner's
        // poll.
        let (token, slot) = self.win.begin_any()?;
        let base = slot * self.slot_size;
        let copy = charge_memcpy(&self.ep, request.len());
        self.send_ring.write(base, &(request.len() as u32).to_le_bytes())?;
        self.send_ring.write(base + 4, &token.to_le_bytes())?;
        self.send_ring.write(base + EAGER_HDR, request)?;
        drop(copy);
        self.staged
            .push(SendWr::send(token, self.send_ring.slice(base, EAGER_HDR + request.len())));
        note_submit(&self.ep, self.win.in_flight);
        Ok(token)
    }

    fn flush(&mut self) -> Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let batch = self.staged.len();
        self.ep.post_send(&self.staged)?;
        self.staged.clear();
        note_doorbell(&self.ep, batch);
        Ok(())
    }

    fn try_complete(&mut self) -> Result<Option<(Token, PoolBuf)>> {
        self.flush()?;
        if let Some(done) = self.win.take_any() {
            return Ok(Some(done));
        }
        self.pump()?;
        Ok(self.win.take_any())
    }

    fn wait(&mut self, token: Token) -> Result<PoolBuf> {
        self.flush()?;
        loop {
            // Drain the whole ready batch before (possibly) blocking: the
            // peer posts response bursts under one doorbell, and absorbing
            // them together frees a burst of slots for the caller to refill
            // under one doorbell of its own.
            self.pump()?;
            if let Some(buf) = self.win.try_take(token)? {
                return Ok(buf);
            }
            let comp = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)?
                .ok_or(hat_rdma_sim::RdmaError::Disconnected)?;
            self.absorb(comp)?;
        }
    }

    fn try_wait(&mut self, token: Token) -> Result<Option<PoolBuf>> {
        self.flush()?;
        self.pump()?;
        self.win.try_take(token)
    }

    fn window(&self) -> usize {
        self.win.len()
    }

    fn in_flight(&self) -> usize {
        self.win.in_flight
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::EagerSendRecv
    }
}

/// Server peer for [`PipelinedEager`]: like the synchronous Eager server,
/// but frames carry a token that is echoed back with each response, and
/// the serve loop drains request *bursts* — every response for a drained
/// burst is staged into its own send-ring slot and posted in half-window
/// chains, one doorbell each ([`serve_burst`]).
pub struct PipelinedEagerServer {
    ep: Endpoint,
    cfg: ProtocolConfig,
    recv_ring: MemoryRegion,
    send_ring: MemoryRegion,
    slot_size: usize,
    /// Reusable response-staging scratch, so a driver multiplexing
    /// thousands of connections allocates nothing per resume.
    staged: Vec<SendWr>,
}

impl PipelinedEagerServer {
    /// Build the server side.
    pub fn server(ep: Endpoint, cfg: ProtocolConfig) -> Result<PipelinedEagerServer> {
        let slot_size = EAGER_HDR + cfg.max_msg;
        let recv_ring = ep.pd().register(cfg.ring_slots * slot_size)?;
        for i in 0..cfg.ring_slots {
            ep.post_recv(RecvWr::new(i as u64, recv_ring.clone(), i * slot_size, slot_size))?;
        }
        // One response slot per receive slot. The NIC snapshots the
        // response at post time, so restaging slot `i` when a new request
        // occupies recv slot `i` cannot corrupt an in-flight response.
        let send_ring = ep.pd().register(cfg.ring_slots * slot_size)?;
        let staged = Vec::with_capacity(cfg.ring_slots);
        Ok(PipelinedEagerServer { ep, cfg, recv_ring, send_ring, slot_size, staged })
    }

    /// [`serve_burst`] over this connection's staging scratch.
    fn serve_ready(
        &mut self,
        first: Option<hat_rdma_sim::Completion>,
        handler: &mut dyn FnMut(&[u8]) -> Vec<u8>,
    ) -> Result<usize> {
        let mut staged = std::mem::take(&mut self.staged);
        let served = serve_burst(&self.ep, self.cfg.ring_slots, &mut staged, first, |c, out| {
            self.stage_response(c, handler, out)
        });
        self.staged = staged;
        served
    }

    /// Handle the request in `comp`'s ring slot, staging (not posting) the
    /// response SEND.
    fn stage_response(
        &self,
        comp: hat_rdma_sim::Completion,
        handler: &mut dyn FnMut(&[u8]) -> Vec<u8>,
        staged: &mut Vec<SendWr>,
    ) -> Result<()> {
        comp.ok()?;
        let slot = comp.wr_id as usize % self.cfg.ring_slots;
        let base = slot * self.slot_size;
        let mut hdr = [0u8; EAGER_HDR];
        self.recv_ring.read(base, &mut hdr)?;
        let len = u32::from_le_bytes(hdr[..4].try_into().expect("4B")) as usize;
        let token = u64::from_le_bytes(hdr[4..12].try_into().expect("8B"));
        let copy = charge_memcpy(&self.ep, len);
        let request = self.recv_ring.read_vec(base + EAGER_HDR, len)?;
        drop(copy);
        self.ep.post_recv(RecvWr::new(comp.wr_id, self.recv_ring.clone(), base, self.slot_size))?;

        let response = handler(&request);
        check_len(response.len(), self.cfg.max_msg)?;
        let copy = charge_memcpy(&self.ep, response.len());
        self.send_ring.write(base, &(response.len() as u32).to_le_bytes())?;
        self.send_ring.write(base + 4, &token.to_le_bytes())?;
        self.send_ring.write(base + EAGER_HDR, &response)?;
        drop(copy);
        staged.push(SendWr::send(token, self.send_ring.slice(base, EAGER_HDR + response.len())));
        Ok(())
    }
}

impl RpcServer for PipelinedEagerServer {
    fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
        let Some(comp) = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)? else {
            return Ok(false);
        };
        let mut staged = Vec::with_capacity(1);
        self.stage_response(comp, handler, &mut staged)?;
        self.ep.post_send(&staged)?;
        Ok(true)
    }

    fn serve_loop(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<()> {
        // Block for the head of a burst, then drain without blocking.
        while let Some(first) = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)? {
            self.serve_ready(Some(first), handler)?;
        }
        Ok(())
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::EagerSendRecv
    }
}

// ---------------------------------------------------------------------------
// Chained-Write-Send, pipelined.
// ---------------------------------------------------------------------------

/// Notify message: 4-byte length + 8-byte token.
const NOTIFY_LEN: usize = 12;

fn encode_notify(len: usize, token: Token) -> [u8; NOTIFY_LEN] {
    let mut msg = [0u8; NOTIFY_LEN];
    msg[..4].copy_from_slice(&(len as u32).to_le_bytes());
    msg[4..].copy_from_slice(&token.to_le_bytes());
    msg
}

fn decode_notify(msg: &[u8]) -> Result<(usize, Token)> {
    if msg.len() < NOTIFY_LEN {
        return Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
            "pipelined notify of {} bytes is too short",
            msg.len()
        )));
    }
    let len = u32::from_le_bytes(msg[..4].try_into().expect("4B")) as usize;
    let token = u64::from_le_bytes(msg[4..NOTIFY_LEN].try_into().expect("8B"));
    Ok((len, token))
}

/// Pipelined Chained-Write-Send client: each window slot owns a stripe of
/// the peer's pre-known ring; a submit stages a WRITE into that stripe plus
/// a chained inline SEND notify, and a flush posts the whole
/// `(WRITE, SEND)*` chain under one doorbell.
pub struct PipelinedChainedWrite {
    ep: Endpoint,
    cfg: ProtocolConfig,
    /// Per-slot landing stripes the peer WRITEs responses into.
    in_ring: MemoryRegion,
    /// Per-slot staging stripes outbound WRITEs are issued from.
    out_stage: MemoryRegion,
    /// The peer's advertised in-ring.
    peer_ring: RemoteBuf,
    ctrl: CtrlRing,
    win: Window,
    staged: Vec<SendWr>,
}

impl PipelinedChainedWrite {
    /// Build the client side (handshakes with the concurrently constructed
    /// [`PipelinedChainedWriteServer`]).
    pub fn client(ep: Endpoint, cfg: ProtocolConfig) -> Result<PipelinedChainedWrite> {
        let (in_ring, out_stage, peer_ring, ctrl) = chained_setup(&ep, &cfg)?;
        let window = cfg.ring_slots;
        Ok(PipelinedChainedWrite {
            ep,
            cfg,
            in_ring,
            out_stage,
            peer_ring,
            ctrl,
            win: Window::new(window),
            staged: Vec::with_capacity(2 * window),
        })
    }

    fn absorb(&mut self, msg: &[u8]) -> Result<()> {
        let (len, token) = decode_notify(msg)?;
        let base = self.win.slot_of(token) * self.cfg.max_msg;
        let mut buf = PoolBuf::for_overwrite(len);
        self.in_ring.read(base, buf.as_mut_slice())?;
        self.win.complete(token, buf)
    }
}

/// Shared geometry for both sides of a pipelined chained-write channel:
/// register the per-slot in-ring and staging stripes, exchange ring
/// advertisements (before any control recv is posted — receive queues are
/// FIFO), and build the notify ring.
type ChainedSetup = (MemoryRegion, MemoryRegion, RemoteBuf, CtrlRing);

fn chained_setup(ep: &Endpoint, cfg: &ProtocolConfig) -> Result<ChainedSetup> {
    let window = cfg.ring_slots;
    let in_ring = ep.pd().register(window * cfg.max_msg)?;
    let out_stage = ep.pd().register(window * cfg.max_msg)?;
    let blob = in_ring.remote_buf(0, window * cfg.max_msg).encode();
    let peer_blob = crate::common::exchange_blobs(ep, &blob)?;
    let peer_ring = RemoteBuf::decode(&peer_blob)?;
    let ctrl = CtrlRing::new(ep, window, 16, cfg.op_timeout_ns)?;
    Ok((in_ring, out_stage, peer_ring, ctrl))
}

impl PipelinedClient for PipelinedChainedWrite {
    fn submit(&mut self, request: &[u8]) -> Result<Token> {
        check_len(request.len(), self.cfg.max_msg)?;
        let (token, slot) = self.win.begin()?;
        let base = slot * self.cfg.max_msg;
        // Zero-copy staging, as in the synchronous variant: no memcpy is
        // charged for writing into the registered stripe.
        self.out_stage.write(base, request)?;
        let dst = self.peer_ring.sub(base as u64, request.len() as u64);
        self.staged.push(SendWr::write(token, self.out_stage.slice(base, request.len()), dst));
        self.staged.push(SendWr::send_inline(token, &encode_notify(request.len(), token)));
        note_submit(&self.ep, self.win.in_flight);
        Ok(token)
    }

    fn flush(&mut self) -> Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let batch = self.staged.len();
        self.ep.post_send(&self.staged)?;
        self.staged.clear();
        note_doorbell(&self.ep, batch);
        Ok(())
    }

    fn try_complete(&mut self) -> Result<Option<(Token, PoolBuf)>> {
        self.flush()?;
        if let Some(done) = self.win.take_any() {
            return Ok(Some(done));
        }
        while let Some(msg) = self.ctrl.try_recv()? {
            self.absorb(&msg)?;
        }
        Ok(self.win.take_any())
    }

    fn wait(&mut self, token: Token) -> Result<PoolBuf> {
        self.flush()?;
        loop {
            // Drain ready notifications before blocking so a batch of
            // responses frees a batch of slots at once.
            while let Some(msg) = self.ctrl.try_recv()? {
                self.absorb(&msg)?;
            }
            if let Some(buf) = self.win.try_take(token)? {
                return Ok(buf);
            }
            let msg =
                self.ctrl.recv(self.cfg.poll)?.ok_or(hat_rdma_sim::RdmaError::Disconnected)?;
            self.absorb(&msg)?;
        }
    }

    fn try_wait(&mut self, token: Token) -> Result<Option<PoolBuf>> {
        self.flush()?;
        while let Some(msg) = self.ctrl.try_recv()? {
            self.absorb(&msg)?;
        }
        self.win.try_take(token)
    }

    fn window(&self) -> usize {
        self.win.len()
    }

    fn in_flight(&self) -> usize {
        self.win.in_flight
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::ChainedWriteSend
    }
}

/// Server peer for [`PipelinedChainedWrite`]: requests land in per-slot
/// stripes of the pre-known ring; responses are WRITE + chained SEND with
/// the request's token, one doorbell per response.
pub struct PipelinedChainedWriteServer {
    ep: Endpoint,
    cfg: ProtocolConfig,
    in_ring: MemoryRegion,
    out_stage: MemoryRegion,
    peer_ring: RemoteBuf,
    ctrl: CtrlRing,
}

impl PipelinedChainedWriteServer {
    /// Build the server side.
    pub fn server(ep: Endpoint, cfg: ProtocolConfig) -> Result<PipelinedChainedWriteServer> {
        let (in_ring, out_stage, peer_ring, ctrl) = chained_setup(&ep, &cfg)?;
        Ok(PipelinedChainedWriteServer { ep, cfg, in_ring, out_stage, peer_ring, ctrl })
    }

    /// Serve the request a received notify describes: read it out of its
    /// in-ring stripe, run the handler, and post the WRITE + chained SEND
    /// response pair.
    fn respond(&mut self, msg: &[u8], handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<()> {
        let (len, token) = decode_notify(msg)?;
        let slot = token as usize % self.cfg.ring_slots;
        let base = slot * self.cfg.max_msg;
        let request = self.in_ring.read_vec(base, len)?;

        let response = handler(&request);
        check_len(response.len(), self.cfg.max_msg)?;
        self.out_stage.write(base, &response)?;
        let dst = self.peer_ring.sub(base as u64, response.len() as u64);
        self.ep.post_send(&[
            SendWr::write(token, self.out_stage.slice(base, response.len()), dst),
            SendWr::send_inline(token, &encode_notify(response.len(), token)),
        ])
    }
}

impl RpcServer for PipelinedChainedWriteServer {
    fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
        let Some(msg) = self.ctrl.recv(self.cfg.poll)? else { return Ok(false) };
        self.respond(&msg, handler)?;
        Ok(true)
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::ChainedWriteSend
    }
}

// ---------------------------------------------------------------------------
// Direct-WriteIMM, pipelined.
// ---------------------------------------------------------------------------

/// In-slot header for the IMM variant: 4-byte length + 8-byte token. The
/// immediate only carries the slot index; the header disambiguates which
/// token currently occupies the slot.
const IMM_HDR: usize = 12;

/// Pipelined Direct-WriteIMM: one WRITE_WITH_IMM per message (imm = window
/// slot), per-slot stripes on both sides, batched under one doorbell per
/// flush. The fastest pipelined small-message path, matching Figure 4.
pub struct PipelinedWriteImm {
    ep: Endpoint,
    cfg: ProtocolConfig,
    in_ring: MemoryRegion,
    out_stage: MemoryRegion,
    peer_ring: RemoteBuf,
    imm_dummy: MemoryRegion,
    slot_size: usize,
    win: Window,
    staged: Vec<SendWr>,
}

/// Register the stripes, exchange ring advertisements, and pre-post the
/// zero-length receives WRITE_WITH_IMM completions consume.
type ImmSetup = (MemoryRegion, MemoryRegion, RemoteBuf, MemoryRegion);

fn imm_setup(ep: &Endpoint, cfg: &ProtocolConfig, slot_size: usize) -> Result<ImmSetup> {
    let window = cfg.ring_slots;
    let in_ring = ep.pd().register(window * slot_size)?;
    let out_stage = ep.pd().register(window * slot_size)?;
    let blob = in_ring.remote_buf(0, window * slot_size).encode();
    let peer_blob = crate::common::exchange_blobs(ep, &blob)?;
    let peer_ring = RemoteBuf::decode(&peer_blob)?;
    let dummy = ep.pd().register(1)?;
    for i in 0..window {
        ep.post_recv(RecvWr::new(i as u64, dummy.clone(), 0, 0))?;
    }
    Ok((in_ring, out_stage, peer_ring, dummy))
}

impl PipelinedWriteImm {
    /// Build the client side.
    pub fn client(ep: Endpoint, cfg: ProtocolConfig) -> Result<PipelinedWriteImm> {
        let slot_size = IMM_HDR + cfg.max_msg;
        let (in_ring, out_stage, peer_ring, imm_dummy) = imm_setup(&ep, &cfg, slot_size)?;
        let window = cfg.ring_slots;
        Ok(PipelinedWriteImm {
            ep,
            cfg,
            in_ring,
            out_stage,
            peer_ring,
            imm_dummy,
            slot_size,
            win: Window::new(window),
            staged: Vec::with_capacity(window),
        })
    }

    fn pump(&mut self) -> Result<()> {
        while let Some(comp) = self.ep.recv_cq().try_poll() {
            self.absorb(comp)?;
        }
        Ok(())
    }

    fn absorb(&mut self, comp: hat_rdma_sim::Completion) -> Result<()> {
        comp.ok()?;
        let slot = comp.imm.expect("WRITE_WITH_IMM carries the slot index") as usize;
        let base = slot * self.slot_size;
        let mut hdr = [0u8; IMM_HDR];
        self.in_ring.read(base, &mut hdr)?;
        let len = u32::from_le_bytes(hdr[..4].try_into().expect("4B")) as usize;
        let token = u64::from_le_bytes(hdr[4..12].try_into().expect("8B"));
        let mut buf = PoolBuf::for_overwrite(len);
        self.in_ring.read(base + IMM_HDR, buf.as_mut_slice())?;
        self.ep.post_recv(RecvWr::new(comp.wr_id, self.imm_dummy.clone(), 0, 0))?;
        self.win.complete(token, buf)
    }
}

impl PipelinedClient for PipelinedWriteImm {
    fn submit(&mut self, request: &[u8]) -> Result<Token> {
        check_len(request.len(), self.cfg.max_msg)?;
        // Any free slot: the slot rides in the IMM and the token in the
        // slot header, both ways, so nothing pins a token to
        // `token % window` (see `PipelinedEager::submit`).
        let (token, slot) = self.win.begin_any()?;
        let base = slot * self.slot_size;
        self.out_stage.write(base, &(request.len() as u32).to_le_bytes())?;
        self.out_stage.write(base + 4, &token.to_le_bytes())?;
        self.out_stage.write(base + IMM_HDR, request)?;
        let total = IMM_HDR + request.len();
        self.staged.push(SendWr::write_imm(
            token,
            self.out_stage.slice(base, total),
            self.peer_ring.sub(base as u64, total as u64),
            slot as u32,
        ));
        note_submit(&self.ep, self.win.in_flight);
        Ok(token)
    }

    fn flush(&mut self) -> Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let batch = self.staged.len();
        self.ep.post_send(&self.staged)?;
        self.staged.clear();
        note_doorbell(&self.ep, batch);
        Ok(())
    }

    fn try_complete(&mut self) -> Result<Option<(Token, PoolBuf)>> {
        self.flush()?;
        if let Some(done) = self.win.take_any() {
            return Ok(Some(done));
        }
        self.pump()?;
        Ok(self.win.take_any())
    }

    fn wait(&mut self, token: Token) -> Result<PoolBuf> {
        self.flush()?;
        loop {
            // Drain the whole ready batch before (possibly) blocking: the
            // peer posts response bursts under one doorbell, and absorbing
            // them together frees a burst of slots for the caller to refill
            // under one doorbell of its own.
            self.pump()?;
            if let Some(buf) = self.win.try_take(token)? {
                return Ok(buf);
            }
            let comp = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)?
                .ok_or(hat_rdma_sim::RdmaError::Disconnected)?;
            self.absorb(comp)?;
        }
    }

    fn try_wait(&mut self, token: Token) -> Result<Option<PoolBuf>> {
        self.flush()?;
        self.pump()?;
        self.win.try_take(token)
    }

    fn window(&self) -> usize {
        self.win.len()
    }

    fn in_flight(&self) -> usize {
        self.win.in_flight
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::DirectWriteImm
    }
}

/// Server peer for [`PipelinedWriteImm`].
pub struct PipelinedWriteImmServer {
    ep: Endpoint,
    cfg: ProtocolConfig,
    in_ring: MemoryRegion,
    out_stage: MemoryRegion,
    peer_ring: RemoteBuf,
    imm_dummy: MemoryRegion,
    slot_size: usize,
    /// Reusable response-staging scratch.
    staged: Vec<SendWr>,
}

impl PipelinedWriteImmServer {
    /// Build the server side.
    pub fn server(ep: Endpoint, cfg: ProtocolConfig) -> Result<PipelinedWriteImmServer> {
        let slot_size = IMM_HDR + cfg.max_msg;
        let (in_ring, out_stage, peer_ring, imm_dummy) = imm_setup(&ep, &cfg, slot_size)?;
        let staged = Vec::with_capacity(cfg.ring_slots);
        Ok(PipelinedWriteImmServer {
            ep,
            cfg,
            in_ring,
            out_stage,
            peer_ring,
            imm_dummy,
            slot_size,
            staged,
        })
    }

    /// [`serve_burst`] over this connection's staging scratch.
    fn serve_ready(
        &mut self,
        first: Option<hat_rdma_sim::Completion>,
        handler: &mut dyn FnMut(&[u8]) -> Vec<u8>,
    ) -> Result<usize> {
        let mut staged = std::mem::take(&mut self.staged);
        let served = serve_burst(&self.ep, self.cfg.ring_slots, &mut staged, first, |c, out| {
            self.stage_response(c, handler, out)
        });
        self.staged = staged;
        served
    }

    /// Handle the request in `comp`'s ring slot, staging (not posting) the
    /// response WRITE_WITH_IMM.
    fn stage_response(
        &self,
        comp: hat_rdma_sim::Completion,
        handler: &mut dyn FnMut(&[u8]) -> Vec<u8>,
        staged: &mut Vec<SendWr>,
    ) -> Result<()> {
        comp.ok()?;
        let slot = comp.imm.expect("WRITE_WITH_IMM carries the slot index") as usize;
        let base = slot * self.slot_size;
        let mut hdr = [0u8; IMM_HDR];
        self.in_ring.read(base, &mut hdr)?;
        let len = u32::from_le_bytes(hdr[..4].try_into().expect("4B")) as usize;
        let token = u64::from_le_bytes(hdr[4..12].try_into().expect("8B"));
        let request = self.in_ring.read_vec(base + IMM_HDR, len)?;
        self.ep.post_recv(RecvWr::new(comp.wr_id, self.imm_dummy.clone(), 0, 0))?;

        let response = handler(&request);
        check_len(response.len(), self.cfg.max_msg)?;
        self.out_stage.write(base, &(response.len() as u32).to_le_bytes())?;
        self.out_stage.write(base + 4, &token.to_le_bytes())?;
        self.out_stage.write(base + IMM_HDR, &response)?;
        let total = IMM_HDR + response.len();
        staged.push(SendWr::write_imm(
            token,
            self.out_stage.slice(base, total),
            self.peer_ring.sub(base as u64, total as u64),
            slot as u32,
        ));
        Ok(())
    }
}

impl RpcServer for PipelinedWriteImmServer {
    fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
        let Some(comp) = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)? else {
            return Ok(false);
        };
        let mut staged = Vec::with_capacity(1);
        self.stage_response(comp, handler, &mut staged)?;
        self.ep.post_send(&staged)?;
        Ok(true)
    }

    fn serve_loop(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<()> {
        // Block for the head of a burst, then drain without blocking.
        while let Some(first) = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)? {
            self.serve_ready(Some(first), handler)?;
        }
        Ok(())
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::DirectWriteImm
    }
}

// ---------------------------------------------------------------------------
// Hybrid-EagerRNDV, pipelined.
// ---------------------------------------------------------------------------

/// Frame header: 1-byte tag + 8-byte length + 8-byte token.
const HY_HDR: usize = 17;
const HY_EAGER: u8 = 0;
const HY_RTS: u8 = 1;

/// Pipelined Hybrid-EagerRNDV: payloads at or below the threshold ride
/// eager frames; larger ones are staged in a per-slot rendezvous stripe
/// and advertised with an RTS the peer READs from. No FIN messages are
/// needed: slot reuse is gated on the caller taking the response, by which
/// point the slot's staging stripe is provably no longer referenced.
pub struct PipelinedHybrid {
    ep: Endpoint,
    cfg: ProtocolConfig,
    ring: MemoryRegion,
    eager_stage: MemoryRegion,
    rndv_stage: MemoryRegion,
    landing: MemoryRegion,
    slot_size: usize,
    win: Window,
    staged: Vec<SendWr>,
}

/// Frame-slot geometry shared by both sides.
fn hybrid_slot_size(cfg: &ProtocolConfig) -> usize {
    HY_HDR + cfg.eager_threshold.max(RemoteBuf::WIRE_SIZE)
}

fn write_hybrid_hdr(
    mr: &MemoryRegion,
    base: usize,
    tag: u8,
    len: usize,
    token: Token,
) -> Result<()> {
    mr.write(base, &[tag])?;
    mr.write(base + 1, &(len as u64).to_le_bytes())?;
    mr.write(base + 9, &token.to_le_bytes())
}

impl PipelinedHybrid {
    /// Build the client side; the peer must be a [`PipelinedHybridServer`].
    pub fn client(ep: Endpoint, cfg: ProtocolConfig) -> Result<PipelinedHybrid> {
        let window = cfg.ring_slots;
        let slot_size = hybrid_slot_size(&cfg);
        let ring = ep.pd().register(window * slot_size)?;
        for i in 0..window {
            ep.post_recv(RecvWr::new(i as u64, ring.clone(), i * slot_size, slot_size))?;
        }
        let eager_stage = ep.pd().register(window * slot_size)?;
        let rndv_stage = ep.pd().register(window * cfg.max_msg)?;
        let landing = ep.pd().register(window * cfg.max_msg)?;
        Ok(PipelinedHybrid {
            ep,
            cfg,
            ring,
            eager_stage,
            rndv_stage,
            landing,
            slot_size,
            win: Window::new(window),
            staged: Vec::with_capacity(window),
        })
    }

    fn pump(&mut self) -> Result<()> {
        while let Some(comp) = self.ep.recv_cq().try_poll() {
            self.absorb(comp)?;
        }
        Ok(())
    }

    fn absorb(&mut self, comp: hat_rdma_sim::Completion) -> Result<()> {
        comp.ok()?;
        let rslot = comp.wr_id as usize % self.win.len();
        let base = rslot * self.slot_size;
        let mut hdr = [0u8; HY_HDR];
        self.ring.read(base, &mut hdr)?;
        let tag = hdr[0];
        let len = u64::from_le_bytes(hdr[1..9].try_into().expect("8B")) as usize;
        let token = u64::from_le_bytes(hdr[9..17].try_into().expect("8B"));
        match tag {
            HY_EAGER => {
                let copy = charge_memcpy(&self.ep, len);
                let mut buf = PoolBuf::for_overwrite(len);
                self.ring.read(base + HY_HDR, buf.as_mut_slice())?;
                drop(copy);
                self.recycle(comp.wr_id, base)?;
                self.win.complete(token, buf)
            }
            HY_RTS => {
                let mut enc = [0u8; RemoteBuf::WIRE_SIZE];
                self.ring.read(base + HY_HDR, &mut enc)?;
                self.recycle(comp.wr_id, base)?;
                let src = RemoteBuf::decode(&enc)?;
                // READ the staged response into this slot's landing stripe.
                let dbase = self.win.slot_of(token) * self.cfg.max_msg;
                self.ep.post_send(&[SendWr::read(
                    token,
                    self.landing.slice(dbase, len),
                    src.sub(0, len as u64),
                )
                .signaled()])?;
                self.ep.send_cq().poll_timeout(self.cfg.poll, self.cfg.op_timeout_ns)?.ok()?;
                let mut buf = PoolBuf::for_overwrite(len);
                self.landing.read(dbase, buf.as_mut_slice())?;
                self.win.complete(token, buf)
            }
            other => Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
                "unexpected pipelined hybrid tag {other}"
            ))),
        }
    }

    fn recycle(&self, wr_id: u64, base: usize) -> Result<()> {
        self.ep.post_recv(RecvWr::new(wr_id, self.ring.clone(), base, self.slot_size))
    }
}

impl PipelinedClient for PipelinedHybrid {
    fn submit(&mut self, request: &[u8]) -> Result<Token> {
        check_len(request.len(), self.cfg.max_msg)?;
        let (token, slot) = self.win.begin()?;
        let fbase = slot * self.slot_size;
        if request.len() <= self.cfg.eager_threshold {
            let copy = charge_memcpy(&self.ep, request.len());
            write_hybrid_hdr(&self.eager_stage, fbase, HY_EAGER, request.len(), token)?;
            self.eager_stage.write(fbase + HY_HDR, request)?;
            drop(copy);
            self.staged
                .push(SendWr::send(token, self.eager_stage.slice(fbase, HY_HDR + request.len())));
        } else {
            // Stage zero-copy in this slot's rendezvous stripe; the server
            // READs it before its response can possibly arrive.
            let sbase = slot * self.cfg.max_msg;
            self.rndv_stage.write(sbase, request)?;
            let rb = self.rndv_stage.remote_buf(sbase, request.len());
            write_hybrid_hdr(&self.eager_stage, fbase, HY_RTS, request.len(), token)?;
            self.eager_stage.write(fbase + HY_HDR, &rb.encode())?;
            self.staged.push(SendWr::send(
                token,
                self.eager_stage.slice(fbase, HY_HDR + RemoteBuf::WIRE_SIZE),
            ));
        }
        note_submit(&self.ep, self.win.in_flight);
        Ok(token)
    }

    fn flush(&mut self) -> Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let batch = self.staged.len();
        self.ep.post_send(&self.staged)?;
        self.staged.clear();
        note_doorbell(&self.ep, batch);
        Ok(())
    }

    fn try_complete(&mut self) -> Result<Option<(Token, PoolBuf)>> {
        self.flush()?;
        if let Some(done) = self.win.take_any() {
            return Ok(Some(done));
        }
        self.pump()?;
        Ok(self.win.take_any())
    }

    fn wait(&mut self, token: Token) -> Result<PoolBuf> {
        self.flush()?;
        loop {
            // Drain the whole ready batch before (possibly) blocking: the
            // peer posts response bursts under one doorbell, and absorbing
            // them together frees a burst of slots for the caller to refill
            // under one doorbell of its own.
            self.pump()?;
            if let Some(buf) = self.win.try_take(token)? {
                return Ok(buf);
            }
            let comp = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)?
                .ok_or(hat_rdma_sim::RdmaError::Disconnected)?;
            self.absorb(comp)?;
        }
    }

    fn try_wait(&mut self, token: Token) -> Result<Option<PoolBuf>> {
        self.flush()?;
        // `pump` absorbs RNDV responses with a nested synchronous READ;
        // that READ's completion is bounded by the op timeout, so this
        // stays "non-blocking" in the sense async callers need: it never
        // parks waiting for the *peer* to produce anything new.
        self.pump()?;
        self.win.try_take(token)
    }

    fn window(&self) -> usize {
        self.win.len()
    }

    fn in_flight(&self) -> usize {
        self.win.in_flight
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::HybridEagerRndv
    }
}

/// Server peer for [`PipelinedHybrid`].
pub struct PipelinedHybridServer {
    ep: Endpoint,
    cfg: ProtocolConfig,
    ring: MemoryRegion,
    eager_stage: MemoryRegion,
    rndv_stage: MemoryRegion,
    landing: MemoryRegion,
    slot_size: usize,
}

impl PipelinedHybridServer {
    /// Build the server side.
    pub fn server(ep: Endpoint, cfg: ProtocolConfig) -> Result<PipelinedHybridServer> {
        let window = cfg.ring_slots;
        let slot_size = hybrid_slot_size(&cfg);
        let ring = ep.pd().register(window * slot_size)?;
        for i in 0..window {
            ep.post_recv(RecvWr::new(i as u64, ring.clone(), i * slot_size, slot_size))?;
        }
        let eager_stage = ep.pd().register(slot_size)?;
        let rndv_stage = ep.pd().register(window * cfg.max_msg)?;
        let landing = ep.pd().register(window * cfg.max_msg)?;
        Ok(PipelinedHybridServer { ep, cfg, ring, eager_stage, rndv_stage, landing, slot_size })
    }

    /// Serve the request behind one receive completion: decode the frame,
    /// READ the rendezvous payload if advertised, run the handler, and
    /// post the response (eager or RTS). The single `eager_stage` response
    /// buffer is reused per response, so each response is posted before
    /// the next request is decoded — hybrid drains cannot doorbell-batch.
    fn serve_comp(
        &mut self,
        comp: hat_rdma_sim::Completion,
        handler: &mut dyn FnMut(&[u8]) -> Vec<u8>,
    ) -> Result<()> {
        comp.ok()?;
        let rslot = comp.wr_id as usize % self.cfg.ring_slots;
        let base = rslot * self.slot_size;
        let mut hdr = [0u8; HY_HDR];
        self.ring.read(base, &mut hdr)?;
        let tag = hdr[0];
        let len = u64::from_le_bytes(hdr[1..9].try_into().expect("8B")) as usize;
        let token = u64::from_le_bytes(hdr[9..17].try_into().expect("8B"));
        let slot = token as usize % self.cfg.ring_slots;
        let request = match tag {
            HY_EAGER => {
                let copy = charge_memcpy(&self.ep, len);
                let data = self.ring.read_vec(base + HY_HDR, len)?;
                drop(copy);
                self.ep.post_recv(RecvWr::new(
                    comp.wr_id,
                    self.ring.clone(),
                    base,
                    self.slot_size,
                ))?;
                data
            }
            HY_RTS => {
                let mut enc = [0u8; RemoteBuf::WIRE_SIZE];
                self.ring.read(base + HY_HDR, &mut enc)?;
                self.ep.post_recv(RecvWr::new(
                    comp.wr_id,
                    self.ring.clone(),
                    base,
                    self.slot_size,
                ))?;
                let src = RemoteBuf::decode(&enc)?;
                let dbase = slot * self.cfg.max_msg;
                self.ep.post_send(&[SendWr::read(
                    token,
                    self.landing.slice(dbase, len),
                    src.sub(0, len as u64),
                )
                .signaled()])?;
                self.ep.send_cq().poll_timeout(self.cfg.poll, self.cfg.op_timeout_ns)?.ok()?;
                self.landing.read_vec(dbase, len)?
            }
            other => {
                return Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
                    "unexpected pipelined hybrid tag {other}"
                )))
            }
        };

        let response = handler(&request);
        check_len(response.len(), self.cfg.max_msg)?;
        if response.len() <= self.cfg.eager_threshold {
            let copy = charge_memcpy(&self.ep, response.len());
            write_hybrid_hdr(&self.eager_stage, 0, HY_EAGER, response.len(), token)?;
            self.eager_stage.write(HY_HDR, &response)?;
            drop(copy);
            self.ep.post_send(&[SendWr::send(
                token,
                self.eager_stage.slice(0, HY_HDR + response.len()),
            )])?;
        } else {
            // Stage the response in this slot's stripe and advertise it;
            // the client's READ acts as the FIN (see module docs).
            let sbase = slot * self.cfg.max_msg;
            self.rndv_stage.write(sbase, &response)?;
            let rb = self.rndv_stage.remote_buf(sbase, response.len());
            write_hybrid_hdr(&self.eager_stage, 0, HY_RTS, response.len(), token)?;
            self.eager_stage.write(HY_HDR, &rb.encode())?;
            self.ep.post_send(&[SendWr::send(
                token,
                self.eager_stage.slice(0, HY_HDR + RemoteBuf::WIRE_SIZE),
            )])?;
        }
        Ok(())
    }
}

impl RpcServer for PipelinedHybridServer {
    fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
        let Some(comp) = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)? else {
            return Ok(false);
        };
        self.serve_comp(comp, handler)?;
        Ok(true)
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::HybridEagerRndv
    }
}

// ---------------------------------------------------------------------------
// Reactor-driven serving.
// ---------------------------------------------------------------------------

/// Server side of a pipelined channel driven by an external reactor
/// instead of a dedicated blocking thread.
///
/// [`RpcServer::serve_loop`] owns its thread and parks it inside
/// `poll_recv` whenever the connection goes quiet; a reactor driver can
/// afford neither. `ReactorServe` inverts the control flow: the reactor
/// watches the connection's receive CQ (via [`Self::cq`] +
/// [`hat_rdma_sim::CqNotify`] registration), and calls [`Self::drain`] when
/// completions may be ready. `drain` serves every request whose completion
/// is ready *now* and returns without ever parking, so one driver thread
/// can resume thousands of connections.
pub trait ReactorServe: Send {
    /// Serve every ready request, posting responses (doorbell-batched
    /// where the protocol's staging memory allows). Returns how many
    /// requests were served; `Ok(0)` means the CQ had nothing ready.
    /// An error poisons the connection — the reactor retires it.
    fn drain(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<usize>;

    /// The CQ this connection's request completions arrive on — the
    /// reactor registers its waker here, re-queues the connection while
    /// entries remain, and gates shutdown drains on it being empty.
    fn cq(&self) -> &hat_rdma_sim::CompletionQueue;

    /// False once the peer disconnected or a node died; the reactor
    /// retires the connection after a final drain.
    fn is_open(&self) -> bool;

    /// Which protocol this connection speaks.
    fn kind(&self) -> ProtocolKind;
}

impl ReactorServe for PipelinedEagerServer {
    fn drain(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<usize> {
        self.serve_ready(None, handler)
    }

    fn cq(&self) -> &hat_rdma_sim::CompletionQueue {
        self.ep.recv_cq()
    }

    fn is_open(&self) -> bool {
        self.ep.is_alive()
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::EagerSendRecv
    }
}

impl ReactorServe for PipelinedWriteImmServer {
    fn drain(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<usize> {
        self.serve_ready(None, handler)
    }

    fn cq(&self) -> &hat_rdma_sim::CompletionQueue {
        self.ep.recv_cq()
    }

    fn is_open(&self) -> bool {
        self.ep.is_alive()
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::DirectWriteImm
    }
}

impl ReactorServe for PipelinedChainedWriteServer {
    fn drain(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<usize> {
        // Each response is a WRITE + chained SEND pair posted under its
        // own doorbell (the pair itself is one chain, as in `serve_one`).
        let mut served = 0usize;
        while let Some(msg) = self.ctrl.try_recv()? {
            self.respond(&msg, handler)?;
            served += 1;
        }
        Ok(served)
    }

    fn cq(&self) -> &hat_rdma_sim::CompletionQueue {
        // Control-ring notifies arrive as receive completions on the
        // connection's endpoint.
        self.ep.recv_cq()
    }

    fn is_open(&self) -> bool {
        self.ep.is_alive()
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::ChainedWriteSend
    }
}

impl ReactorServe for PipelinedHybridServer {
    fn drain(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<usize> {
        let mut served = 0usize;
        while let Some(comp) = self.ep.recv_cq().try_poll() {
            // A rendezvous request nests a synchronous READ, bounded by
            // the op timeout — slow, but never an unbounded park.
            self.serve_comp(comp, handler)?;
            served += 1;
        }
        Ok(served)
    }

    fn cq(&self) -> &hat_rdma_sim::CompletionQueue {
        self.ep.recv_cq()
    }

    fn is_open(&self) -> bool {
        self.ep.is_alive()
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::HybridEagerRndv
    }
}

/// Construct the reactor-driven server peer of a pipelined channel of
/// `kind`. Wire-compatible with [`connect_client_pipelined`] clients —
/// the client cannot tell whether a thread or a reactor serves it.
pub fn accept_server_reactor(
    kind: ProtocolKind,
    ep: Endpoint,
    cfg: ProtocolConfig,
) -> Result<Box<dyn ReactorServe>> {
    Ok(match kind {
        ProtocolKind::EagerSendRecv => Box::new(PipelinedEagerServer::server(ep, cfg)?),
        ProtocolKind::ChainedWriteSend => Box::new(PipelinedChainedWriteServer::server(ep, cfg)?),
        ProtocolKind::DirectWriteImm => Box::new(PipelinedWriteImmServer::server(ep, cfg)?),
        ProtocolKind::HybridEagerRndv => Box::new(PipelinedHybridServer::server(ep, cfg)?),
        other => {
            return Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
                "{other} has no pipelined implementation"
            )))
        }
    })
}

// ---------------------------------------------------------------------------
// Factories.
// ---------------------------------------------------------------------------

/// Construct the pipelined client side of `kind` over a connected
/// endpoint. The window is `cfg.ring_slots`. Errors for protocols without
/// a pipelined implementation.
pub fn connect_client_pipelined(
    kind: ProtocolKind,
    ep: Endpoint,
    cfg: ProtocolConfig,
) -> Result<Box<dyn PipelinedClient>> {
    Ok(match kind {
        ProtocolKind::EagerSendRecv => Box::new(PipelinedEager::client(ep, cfg)?),
        ProtocolKind::ChainedWriteSend => Box::new(PipelinedChainedWrite::client(ep, cfg)?),
        ProtocolKind::DirectWriteImm => Box::new(PipelinedWriteImm::client(ep, cfg)?),
        ProtocolKind::HybridEagerRndv => Box::new(PipelinedHybrid::client(ep, cfg)?),
        other => {
            return Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
                "{other} has no pipelined implementation"
            )))
        }
    })
}

/// Construct the server peer of a pipelined channel of `kind`. The server
/// still speaks [`RpcServer`] — pipelining is a client-side property; the
/// server just echoes each request's token.
pub fn accept_server_pipelined(
    kind: ProtocolKind,
    ep: Endpoint,
    cfg: ProtocolConfig,
) -> Result<Box<dyn RpcServer>> {
    Ok(match kind {
        ProtocolKind::EagerSendRecv => Box::new(PipelinedEagerServer::server(ep, cfg)?),
        ProtocolKind::ChainedWriteSend => Box::new(PipelinedChainedWriteServer::server(ep, cfg)?),
        ProtocolKind::DirectWriteImm => Box::new(PipelinedWriteImmServer::server(ep, cfg)?),
        ProtocolKind::HybridEagerRndv => Box::new(PipelinedHybridServer::server(ep, cfg)?),
        other => {
            return Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
                "{other} has no pipelined implementation"
            )))
        }
    })
}

/// The protocols with pipelined implementations.
pub const PIPELINED_KINDS: [ProtocolKind; 4] = [
    ProtocolKind::EagerSendRecv,
    ProtocolKind::ChainedWriteSend,
    ProtocolKind::DirectWriteImm,
    ProtocolKind::HybridEagerRndv,
];

/// Adapter: drive a pipelined channel through the synchronous
/// [`RpcClient`] trait (depth-1 usage; lets the engine hold a single
/// channel type regardless of the negotiated queue depth).
pub struct PipelinedAsSync {
    inner: Box<dyn PipelinedClient>,
}

impl PipelinedAsSync {
    /// Wrap a pipelined channel.
    pub fn new(inner: Box<dyn PipelinedClient>) -> PipelinedAsSync {
        PipelinedAsSync { inner }
    }

    /// Borrow the pipelined channel for windowed use.
    pub fn pipelined(&mut self) -> &mut dyn PipelinedClient {
        self.inner.as_mut()
    }
}

impl RpcClient for PipelinedAsSync {
    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        call_sync(self.inner.as_mut(), request)
    }

    fn kind(&self) -> ProtocolKind {
        self.inner.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_rdma_sim::{Fabric, Node, SimConfig};
    use std::sync::Arc;

    struct PipePair {
        client: Box<dyn PipelinedClient>,
        cnode: Arc<Node>,
        server: std::thread::JoinHandle<()>,
        _fabric: Fabric,
    }

    /// Connected pipelined client plus a server thread echoing `reverse`d
    /// payloads until disconnect.
    fn echo_pipe(kind: ProtocolKind, cfg: ProtocolConfig) -> PipePair {
        echo_pipe_on(Fabric::new(SimConfig::fast_test()), kind, cfg)
    }

    fn echo_pipe_on(fabric: Fabric, kind: ProtocolKind, cfg: ProtocolConfig) -> PipePair {
        let cnode = fabric.add_node("client");
        let snode = fabric.add_node("server");
        let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
        let scfg = cfg.clone();
        let server = std::thread::spawn(move || {
            let mut s = accept_server_pipelined(kind, sep, scfg).unwrap();
            s.serve_loop(&mut reverse).unwrap();
        });
        let client = connect_client_pipelined(kind, cep, cfg).unwrap();
        PipePair { client, cnode, server, _fabric: fabric }
    }

    fn reverse(req: &[u8]) -> Vec<u8> {
        req.iter().rev().copied().collect()
    }

    fn patterned(i: usize, size: usize) -> Vec<u8> {
        (0..size).map(|j| ((i * 31 + j) % 251) as u8).collect()
    }

    #[test]
    fn full_window_roundtrips_for_every_pipelined_kind() {
        for kind in PIPELINED_KINDS {
            let cfg = ProtocolConfig { max_msg: 1024, ring_slots: 8, ..Default::default() };
            let mut pair = echo_pipe(kind, cfg);
            // Two window laps to prove slot recycling.
            for lap in 0..2 {
                let tokens: Vec<Token> = (0..8)
                    .map(|i| pair.client.submit(&patterned(lap * 8 + i, 64 + i)).unwrap())
                    .collect();
                assert_eq!(pair.client.in_flight(), 8, "{kind}");
                for (i, &t) in tokens.iter().enumerate() {
                    let resp = pair.client.wait(t).unwrap();
                    let mut expected = patterned(lap * 8 + i, 64 + i);
                    expected.reverse();
                    assert_eq!(resp.as_slice(), &expected[..], "{kind} token {t}");
                }
                assert_eq!(pair.client.in_flight(), 0, "{kind}");
            }
            drop(pair.client);
            pair.server.join().unwrap();
        }
    }

    #[test]
    fn responses_can_be_taken_out_of_submission_order() {
        for kind in PIPELINED_KINDS {
            let cfg = ProtocolConfig { max_msg: 512, ring_slots: 4, ..Default::default() };
            let mut pair = echo_pipe(kind, cfg);
            let tokens: Vec<Token> =
                (0..4).map(|i| pair.client.submit(&patterned(i, 32)).unwrap()).collect();
            // Wait for the LAST token first; earlier responses buffer.
            for &t in tokens.iter().rev() {
                let resp = pair.client.wait(t).unwrap();
                let mut expected = patterned(t as usize, 32);
                expected.reverse();
                assert_eq!(resp.as_slice(), &expected[..], "{kind} token {t}");
            }
            drop(pair.client);
            pair.server.join().unwrap();
        }
    }

    #[test]
    fn try_complete_delivers_lowest_token_first() {
        let cfg = ProtocolConfig { max_msg: 256, ring_slots: 4, ..Default::default() };
        let mut pair = echo_pipe(ProtocolKind::EagerSendRecv, cfg);
        let tokens: Vec<Token> =
            (0..4).map(|i| pair.client.submit(&patterned(i, 16)).unwrap()).collect();
        let mut got = Vec::new();
        while got.len() < 4 {
            if let Some((t, _)) = pair.client.try_complete().unwrap() {
                got.push(t);
            }
        }
        assert_eq!(got, tokens, "lowest-token-first delivery");
        drop(pair.client);
        pair.server.join().unwrap();
    }

    #[test]
    fn window_full_is_reported_not_silently_dropped() {
        let cfg = ProtocolConfig { max_msg: 256, ring_slots: 2, ..Default::default() };
        let mut pair = echo_pipe(ProtocolKind::EagerSendRecv, cfg);
        let t0 = pair.client.submit(&[1u8; 8]).unwrap();
        let _t1 = pair.client.submit(&[2u8; 8]).unwrap();
        let err = pair.client.submit(&[3u8; 8]).unwrap_err();
        assert!(err.to_string().contains("window full"), "got: {err}");
        // Taking one response frees a slot.
        pair.client.wait(t0).unwrap();
        let t2 = pair.client.submit(&[3u8; 8]).unwrap();
        pair.client.wait(t2).unwrap();
        drop(pair.client);
        pair.server.join().unwrap();
    }

    /// The doorbell-batching claim: a burst of submits followed by one
    /// flush rings exactly one doorbell, for every pipelined protocol.
    #[test]
    fn submit_burst_flushes_under_one_doorbell() {
        for kind in PIPELINED_KINDS {
            let cfg = ProtocolConfig { max_msg: 512, ring_slots: 8, ..Default::default() };
            let mut pair = echo_pipe(kind, cfg);
            // Warm up (handshake traffic also rings doorbells).
            let t = pair.client.submit(&[9u8; 16]).unwrap();
            pair.client.wait(t).unwrap();
            let before = pair.cnode.stats_snapshot();
            let tokens: Vec<Token> =
                (0..8).map(|i| pair.client.submit(&patterned(i, 64)).unwrap()).collect();
            pair.client.flush().unwrap();
            let delta = pair.cnode.stats_snapshot() - before;
            assert_eq!(delta.doorbells, 1, "{kind}: 8 staged submits must post under one doorbell");
            assert_eq!(delta.pipeline_doorbells, 1, "{kind}");
            assert_eq!(delta.pipelined_calls, 8, "{kind}");
            let after = pair.cnode.stats_snapshot();
            assert!(after.inflight_hwm >= 8, "{kind}: high-water mark saw the full window");
            for &t in &tokens {
                pair.client.wait(t).unwrap();
            }
            drop(pair.client);
            pair.server.join().unwrap();
        }
    }

    /// Where the token rides in-band both ways (eager, write-imm), a
    /// caller that took responses out of token order — the common case
    /// once the server answers in half-window bursts — refills to the
    /// full window: no slot is pinned to `token % window`.
    #[test]
    fn out_of_order_takes_refill_the_window_on_in_band_token_kinds() {
        for kind in [ProtocolKind::EagerSendRecv, ProtocolKind::DirectWriteImm] {
            let cfg = ProtocolConfig { max_msg: 512, ring_slots: 8, ..Default::default() };
            let mut pair = echo_pipe(kind, cfg);
            let first: Vec<Token> =
                (0..8).map(|i| pair.client.submit(&patterned(i, 40)).unwrap()).collect();
            // Take three from the middle; tokens 0, 1, 3, 4, 6 stay in the
            // window (arrived or not), so slots 0 and 1 — where tokens 8
            // and 9 would be pinned — are occupied.
            for t in [5, 2, 7] {
                pair.client.wait(first[t]).unwrap();
            }
            assert_eq!(pair.client.in_flight(), 5, "{kind}");
            let refill: Vec<Token> =
                (8..11).map(|i| pair.client.submit(&patterned(i, 40)).unwrap()).collect();
            assert_eq!(pair.client.in_flight(), 8, "{kind}: refilled to the window");
            let err = pair.client.submit(&[0u8; 8]).unwrap_err();
            assert!(err.to_string().contains("window full (8 of 8"), "{kind}: {err}");
            for &t in first.iter().filter(|t| ![5, 2, 7].contains(*t)).chain(&refill) {
                let mut expected = patterned(t as usize, 40);
                expected.reverse();
                assert_eq!(pair.client.wait(t).unwrap().as_slice(), &expected[..], "{kind} {t}");
            }
            drop(pair.client);
            pair.server.join().unwrap();
        }
    }

    /// A client with a full window of 8 flushed and landed on `S`'s CQ,
    /// nothing served yet.
    fn eight_ready<S: ReactorServe + 'static>(
        kind: ProtocolKind,
        make: fn(Endpoint, ProtocolConfig) -> Result<S>,
    ) -> (Box<dyn PipelinedClient>, Vec<Token>, S, Arc<Node>, Fabric) {
        let fabric = Fabric::new(SimConfig::fast_test());
        let cnode = fabric.add_node("client");
        let snode = fabric.add_node("server");
        let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
        let cfg = ProtocolConfig { max_msg: 512, ring_slots: 8, ..Default::default() };
        let scfg = cfg.clone();
        // Write-imm construction handshakes, so the sides build concurrently.
        let server = std::thread::spawn(move || make(sep, scfg).unwrap());
        let mut client = connect_client_pipelined(kind, cep, cfg).unwrap();
        let server = server.join().unwrap();
        let tokens = (0..8).map(|i| client.submit(&patterned(i, 64)).unwrap()).collect();
        client.flush().unwrap();
        // A delivery is stamped ready when its effect is applied, so once
        // all eight are queued all eight are ready.
        while server.cq().len() < 8 {
            snode.drain_effects();
            std::thread::yield_now();
        }
        (client, tokens, server, snode, fabric)
    }

    fn assert_reversed_echoes(client: &mut dyn PipelinedClient, tokens: &[Token]) {
        for (i, &t) in tokens.iter().enumerate() {
            let mut expected = patterned(i, 64);
            expected.reverse();
            assert_eq!(client.wait(t).unwrap().as_slice(), &expected[..], "token {t}");
        }
    }

    /// The burst rule, reactor form: eight ready requests are all served
    /// by one `drain`, answered in two half-window chains.
    #[test]
    fn drain_answers_a_full_window_in_two_half_window_chains() {
        fn check<S: ReactorServe + 'static>(
            kind: ProtocolKind,
            make: fn(Endpoint, ProtocolConfig) -> Result<S>,
        ) {
            let (mut client, tokens, mut server, snode, _fabric) = eight_ready(kind, make);
            let before = snode.stats_snapshot();
            assert_eq!(server.drain(&mut reverse).unwrap(), 8, "{kind}");
            let delta = snode.stats_snapshot() - before;
            assert_eq!(delta.doorbells, 2, "{kind}: two chains of four");
            assert_eq!(delta.pipeline_doorbells, 2, "{kind}");
            assert_eq!(delta.wrs_posted, 8, "{kind}");
            assert_reversed_echoes(client.as_mut(), &tokens);
        }
        check(ProtocolKind::EagerSendRecv, PipelinedEagerServer::server);
        check(ProtocolKind::DirectWriteImm, PipelinedWriteImmServer::server);
    }

    /// The same rule, blocking form: one `serve_loop` turn over eight
    /// ready requests posts the same two chains.
    #[test]
    fn serve_loop_answers_a_full_window_in_two_half_window_chains() {
        fn check<S: ReactorServe + RpcServer + 'static>(
            kind: ProtocolKind,
            make: fn(Endpoint, ProtocolConfig) -> Result<S>,
        ) {
            let (mut client, tokens, mut server, snode, _fabric) = eight_ready(kind, make);
            let before = snode.stats_snapshot();
            let server = std::thread::spawn(move || server.serve_loop(&mut reverse).unwrap());
            assert_reversed_echoes(client.as_mut(), &tokens);
            let delta = snode.stats_snapshot() - before;
            assert_eq!(delta.doorbells, 2, "{kind}: two chains of four");
            assert_eq!(delta.pipeline_doorbells, 2, "{kind}");
            drop(client);
            server.join().unwrap();
        }
        check(ProtocolKind::EagerSendRecv, PipelinedEagerServer::server);
        check(ProtocolKind::DirectWriteImm, PipelinedWriteImmServer::server);
    }

    #[test]
    fn hybrid_pipelines_across_the_threshold() {
        let cfg = ProtocolConfig {
            max_msg: 128 * 1024,
            ring_slots: 4,
            eager_threshold: 4096,
            ..Default::default()
        };
        let mut pair = echo_pipe(ProtocolKind::HybridEagerRndv, cfg);
        // Mix small (eager) and large (rendezvous) in the same window.
        let sizes = [64usize, 100_000, 4096, 70_000];
        let tokens: Vec<Token> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| pair.client.submit(&patterned(i, s)).unwrap())
            .collect();
        for (i, &t) in tokens.iter().enumerate() {
            let resp = pair.client.wait(t).unwrap();
            let mut expected = patterned(i, sizes[i]);
            expected.reverse();
            assert_eq!(resp.as_slice(), &expected[..], "size {}", sizes[i]);
        }
        drop(pair.client);
        pair.server.join().unwrap();
    }

    /// Fault injection: delayed completions may reorder arrival at the CQ;
    /// tokens ride the frames, so every response still lands on the right
    /// request.
    #[test]
    fn delayed_completions_still_map_to_the_right_tokens() {
        let plan = hat_rdma_sim::FaultPlan::new(0xFEED).delay_completions(
            hat_rdma_sim::FaultScope::AllNodes,
            hat_rdma_sim::DelayDistribution::Uniform { min_ns: 0, max_ns: 2_000_000 },
        );
        let fabric = Fabric::new(SimConfig::fast_test().with_fault_plan(plan));
        let cfg = ProtocolConfig { max_msg: 512, ring_slots: 8, ..Default::default() };
        let mut pair = echo_pipe_on(fabric, ProtocolKind::EagerSendRecv, cfg);
        for lap in 0..4 {
            let tokens: Vec<Token> =
                (0..8).map(|i| pair.client.submit(&patterned(lap * 8 + i, 48)).unwrap()).collect();
            for (i, &t) in tokens.iter().enumerate() {
                let resp = pair.client.wait(t).unwrap();
                let mut expected = patterned(lap * 8 + i, 48);
                expected.reverse();
                assert_eq!(resp.as_slice(), &expected[..], "token {t}");
            }
        }
        drop(pair.client);
        pair.server.join().unwrap();
    }

    #[test]
    fn sync_adapter_speaks_rpc_client() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let cnode = fabric.add_node("client");
        let snode = fabric.add_node("server");
        let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
        let cfg = ProtocolConfig { max_msg: 256, ring_slots: 4, ..Default::default() };
        let scfg = cfg.clone();
        let server = std::thread::spawn(move || {
            let mut s = accept_server_pipelined(ProtocolKind::EagerSendRecv, sep, scfg).unwrap();
            s.serve_loop(&mut |req| req.to_vec()).unwrap();
        });
        let inner = connect_client_pipelined(ProtocolKind::EagerSendRecv, cep, cfg).unwrap();
        let mut sync = PipelinedAsSync::new(inner);
        assert_eq!(sync.call(b"ping").unwrap(), b"ping");
        assert_eq!(sync.kind(), ProtocolKind::EagerSendRecv);
        drop(sync);
        server.join().unwrap();
    }

    #[test]
    fn unsupported_kinds_are_rejected() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let (ea, _eb) = fabric.connect(&a, &b).unwrap();
        match connect_client_pipelined(ProtocolKind::Pilaf, ea, ProtocolConfig::default()) {
            Err(err) => assert!(err.to_string().contains("no pipelined implementation")),
            Ok(_) => panic!("Pilaf must not have a pipelined implementation"),
        }
    }
}
