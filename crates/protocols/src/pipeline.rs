//! Pipelined RPC channels: sliding-window in-flight requests with
//! doorbell-batched posting and a zero-alloc hot path.
//!
//! A blocking [`crate::RpcClient::call`] issues one request and waits for
//! its response, leaving the wire idle for a full round trip per call. A
//! [`PipelinedClient`] instead keeps up to `window` requests in flight
//! (the window is [`crate::ProtocolConfig::ring_slots`], which the engine
//! derives from the `queue_depth` hint). The blocking form of every kind
//! with a wire is the same channel with a window of one — what
//! [`crate::connect_client`] and [`crate::accept_server`] build — so each
//! kind has one implementation, its wire:
//!
//! * [`PipelinedClient::submit`] stages a request and returns a [`Token`]
//!   immediately — **no doorbell is rung yet**. Consecutive submits
//!   accumulate into one work-request chain.
//! * [`PipelinedClient::flush`] posts every staged work request under a
//!   **single doorbell** (implicitly called by `wait`/`try_wait`, so a
//!   submit burst followed by a completion wait pays one MMIO total).
//! * [`PipelinedClient::wait`] / [`PipelinedClient::try_wait`] deliver
//!   responses as pooled [`PoolBuf`]s — after warmup the per-call hot path
//!   performs **zero heap allocations** (at or below the eager threshold;
//!   verified for every kind by the `zero_alloc` integration test).
//!
//! Every frame carries its token explicitly, so completions map back to
//! the right request even when fault injection delays and reorders CQ
//! entries. Responses may be taken in any order; a window slot is recycled
//! only once its response has been *taken* by the caller, which doubles as
//! flow control for the per-slot remote rings (the pipelined wires need no
//! FIN control messages: by the time token `t + window` can be submitted,
//! the buffers of token `t` are provably quiescent).
//!
//! A channel is **one window driver plus a wire format**. The client
//! driver (`Pipelined<W>`: the window, the staged-WR vector, flush, pump,
//! wait) and the server driver (`PipelinedServer<W>`: serve whatever is
//! ready, from a blocking thread or a reactor alike) are written once; a
//! protocol is a `Wire` — its slot geometry and handshake, how one message
//! is framed into a slot, and how one receive completion is turned back
//! into `(token, slot, payload)`. Both ends of a connection run the *same*
//! wire: a request and a response are framed identically.
//!
//! | kind | slot (both sides, per window entry) | message path | token rides | slot claim | responses | doorbells per message |
//! |------|-------------------------------------|--------------|-------------|------------|-----------|-----------------------|
//! | Eager-SendRecv | send + recv frame of `12 + max_msg` | copy + SEND | frame header | any free | half-window chains | 1 per flushed batch |
//! | Direct-Write-Send (window 1) | as Chained-Write-Send | WRITE to the peer's stripe, then a separate inline SEND | notify message | `token % window` | one post each | 2 |
//! | Chained-Write-Send | landing + staging stripe of `max_msg` | WRITE to the peer's stripe + chained inline SEND | notify message | `token % window` | one post each | 1 per flushed batch |
//! | Write-RNDV (window 1) | landing region of `max_msg`; two 49 B control slots | RTS → CTS → WRITE of the payload's own buffer + FIN; the receiver takes the landed buffer | RTS | the one slot | one post each | 3 (RTS, CTS, WRITE + FIN) |
//! | Read-RNDV (window 1) | stage + landing of `max_msg`; two 49 B control slots | RTS with the stage's rkey → peer READ → FIN | RTS | the one slot | one post each | 3 (RTS, READ, FIN) |
//! | Direct-WriteIMM | landing + staging stripe of `12 + max_msg` | WRITE_WITH_IMM, imm = slot | slot header | any free | half-window chains | 1 per flushed batch |
//! | Hybrid-EagerRNDV | frame of `17 + max(threshold, 32)`, plus rendezvous stage + landing of `max_msg` | eager frame, or RTS + peer READ | frame header | `token % window` | one post each | 1 per flushed batch |
//!
//! Each side frames a message with one region access (header and payload
//! together) and absorbs one with one borrow of its slot — parse the
//! header, check the peer's length against the bytes that arrived (or
//! against `max_msg`), copy the payload out — so no length off the wire
//! sizes a buffer or a READ before it is checked. The payload is copied
//! out once per side: the server lands a request in a pooled buffer its
//! handler borrows, and a blocking [`RpcClient::call`] lands its reply in
//! the `Vec` it returns. Write-RNDV copies nothing out: its WRITE lands by
//! reference and the receiver takes the sender's buffer
//! ([`MemoryRegion::take_landed`]), so the handler borrows the client's
//! staged request and `call` returns the handler's reply `Vec` itself.
//!
//! Three wires serve a window of one only, and are not in
//! [`PIPELINED_KINDS`]: Direct-Write-Send, whose Figure 3b cost is the
//! second doorbell a batched chain would save, and the two rendezvous
//! kinds, whose `stage` and `absorb` wait on the peer mid-message (for
//! the CTS or the FIN) — sound only with one message in flight each way.

use hat_rdma_sim::stats::NodeStats;
use hat_rdma_sim::{
    Completion, CompletionQueue, Endpoint, MemoryRegion, PoolBuf, RdmaError, RecvWr, RemoteBuf,
    Result, SendWr,
};

use crate::common::{
    charge_memcpy, check_len, exchange_blobs, poll_recv, posted_ring, read_now, wire_len, CtrlMsg,
    CtrlRing, Landing, Link, ProtocolConfig, ProtocolKind, RpcClient, RpcServer, CTRL_MAX,
};

/// Identifies one submitted request. Tokens are sequential per channel,
/// starting at 0.
pub type Token = u64;

/// Client side of a pipelined RPC channel. See the module docs for the
/// submit/flush/complete protocol; [`RpcClient::call`] is a submit and a
/// wait for that token.
pub trait PipelinedClient: RpcClient {
    /// Stage one request and return its token. Fails with
    /// `InvalidWorkRequest` when the window is full — the caller must take
    /// a completed response (via [`Self::wait`] or [`Self::try_wait`])
    /// before submitting more. No doorbell is rung until [`Self::flush`].
    fn submit(&mut self, request: &[u8]) -> Result<Token>;

    /// Post all staged work requests under a single doorbell. A no-op when
    /// nothing is staged. Called implicitly by the completion methods.
    fn flush(&mut self) -> Result<()>;

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

    fn full_error(&self) -> RdmaError {
        RdmaError::InvalidWorkRequest(format!(
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
        let slot = self.next_token as usize % self.slots.len();
        if !matches!(self.slots[slot], Slot::Free) {
            return Err(self.full_error());
        }
        Ok(self.claim(slot))
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
        Ok(self.claim(slot))
    }

    fn claim(&mut self, slot: usize) -> (Token, usize) {
        let token = self.next_token;
        self.slots[slot] = Slot::Waiting(token);
        self.next_token += 1;
        self.in_flight += 1;
        (token, slot)
    }

    /// Record an arrived response for `token`.
    fn complete(&mut self, token: Token, response: PoolBuf) -> Result<()> {
        for s in self.slots.iter_mut() {
            if matches!(s, Slot::Waiting(t) if *t == token) {
                *s = Slot::Ready(token, response);
                return Ok(());
            }
        }
        Err(RdmaError::InvalidWorkRequest(format!(
            "completion for token {token} does not match any in-flight request"
        )))
    }

    /// Take the response for `token` if it arrived; `Ok(None)` while it is
    /// still in flight; an error if the token is unknown (never submitted,
    /// already taken, or overwritten by a later window lap).
    fn try_take(&mut self, token: Token) -> Result<Option<PoolBuf>> {
        for slot in self.slots.iter_mut() {
            match slot {
                Slot::Waiting(t) if *t == token => return Ok(None),
                Slot::Ready(t, _) if *t == token => {
                    let Slot::Ready(_, buf) = std::mem::replace(slot, Slot::Free) else {
                        unreachable!("slot was just observed Ready")
                    };
                    self.in_flight -= 1;
                    return Ok(Some(buf));
                }
                _ => {}
            }
        }
        Err(RdmaError::InvalidWorkRequest(format!(
            "token {token} is not in flight on this channel"
        )))
    }
}

/// Post a staged chain under one doorbell, charge it to the pipeline
/// statistics, mark the flush boundary on the trace timeline, and empty
/// the staging vector for reuse.
fn post_chain(ep: &Endpoint, staged: &mut Vec<SendWr>) -> Result<()> {
    ep.post_send(staged)?;
    NodeStats::add(&ep.node().stats().pipeline_doorbells, 1);
    if hat_trace::enabled() {
        hat_trace::event(
            hat_trace::Phase::Flush,
            ep.node().id(),
            hat_trace::current_call(),
            staged.len() as u64,
            hat_rdma_sim::now_ns(),
        );
    }
    staged.clear();
    Ok(())
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

/// Charge one submitted call and refresh the in-flight high-water mark.
fn note_submit(ep: &Endpoint, in_flight: usize) {
    let stats = ep.node().stats();
    NodeStats::add(&stats.pipelined_calls, 1);
    stats.note_inflight(in_flight as u64);
}

// ---------------------------------------------------------------------------
// What a protocol supplies: its wire format.
// ---------------------------------------------------------------------------

/// What a message is staged from: the caller's borrowed request, or the
/// handler's reply `Vec`. Most wires frame it from its bytes; one that
/// hands the payload itself to the wire (Write-RNDV) turns it into a
/// [`PoolBuf`] — a copy of borrowed bytes, the `Vec` moved.
trait Outgoing: AsRef<[u8]> + Into<PoolBuf> {}

impl<P: AsRef<[u8]> + Into<PoolBuf>> Outgoing for P {}

/// Everything that differs between two pipelined protocols. A wire is
/// symmetric — the client frames requests and absorbs responses with the
/// same two functions the server absorbs requests and frames responses
/// with — so each kind is one implementation, not one per side.
trait Wire: Send + Sized {
    /// Whether the peer derives a message's stripe from `token % window`,
    /// so the client must claim exactly that slot ([`Window::begin`]).
    /// False where token and slot both ride in-band both ways, so nothing
    /// on the wire pins a token to a slot and any free one will do
    /// ([`Window::begin_any`]): an async caller can refill as soon as it
    /// has taken *some* response even while older responses sit `Ready`
    /// awaiting their owner's poll.
    const PINS_TOKEN: bool;

    /// Whether a server stages responses into half-window chains (see
    /// [`PipelinedServer::serve_ready`]) or posts each under its own
    /// doorbell, as the kind's depth-1 form does.
    const CHAINS_RESPONSES: bool;

    /// Work requests one message takes (sizes the staging vectors).
    const WRS_PER_MSG: usize;

    /// Register the per-slot regions, pre-post the receives and run the
    /// kind's handshake, if it has one — concurrently with the peer, which
    /// runs the same function.
    fn setup(link: &Link) -> Result<Self>;

    /// Frame `payload` for `token` into window slot `slot` and push the
    /// work request(s) that carry it — staged, not posted (a window-one
    /// wire may post its first leg itself). The caller has checked
    /// `payload` against `max_msg`.
    fn stage(
        &self,
        link: &Link,
        token: Token,
        slot: usize,
        payload: impl Outgoing,
        staged: &mut Vec<SendWr>,
    ) -> Result<()>;

    /// Take the message behind one receive completion out of its slot and
    /// recycle the receive: `(token, slot, payload)`, where `slot` is the
    /// one an answer to this message is staged in. Every length and index
    /// the peer wrote is checked before it sizes, indexes or READs
    /// anything; a bad one is a typed error.
    fn absorb<B: Landing>(&self, link: &Link, comp: Completion) -> Result<(Token, usize, B)>;
}

// ---------------------------------------------------------------------------
// The client driver.
// ---------------------------------------------------------------------------

/// A pipelined channel's client side: the window, the staged-WR vector and
/// the flush/pump/wait loop, over the wire format `W`.
struct Pipelined<W> {
    link: Link,
    wire: W,
    win: Window,
    staged: Vec<SendWr>,
}

impl<W: Wire> Pipelined<W> {
    /// Build the client side; the peer must be a [`PipelinedServer<W>`]
    /// being constructed concurrently (some wires handshake).
    fn connect(ep: Endpoint, cfg: ProtocolConfig) -> Result<Pipelined<W>> {
        let window = cfg.ring_slots;
        let link = Link { ep, cfg };
        let wire = W::setup(&link)?;
        Ok(Pipelined {
            link,
            wire,
            win: Window::new(window),
            staged: Vec::with_capacity(W::WRS_PER_MSG * window),
        })
    }

    /// Drain every response the CQ has ready, without blocking.
    fn pump(&mut self) -> Result<()> {
        while let Some(comp) = self.link.ep.recv_cq().try_poll() {
            self.absorb(comp)?;
        }
        Ok(())
    }

    /// Bank the response behind one receive completion in the window.
    fn absorb(&mut self, comp: Completion) -> Result<()> {
        let (token, _, response) = self.wire.absorb(&self.link, comp)?;
        self.win.complete(token, response)
    }
}

impl<W: Wire> PipelinedClient for Pipelined<W> {
    fn submit(&mut self, request: &[u8]) -> Result<Token> {
        check_len(request.len(), self.link.cfg.max_msg)?;
        let (token, slot) = if W::PINS_TOKEN { self.win.begin()? } else { self.win.begin_any()? };
        self.wire.stage(&self.link, token, slot, request, &mut self.staged)?;
        note_submit(&self.link.ep, self.win.in_flight);
        Ok(token)
    }

    fn flush(&mut self) -> Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        post_chain(&self.link.ep, &mut self.staged)
    }

    fn wait(&mut self, token: Token) -> Result<PoolBuf> {
        self.flush()?;
        // Drain the whole ready batch before (possibly) blocking: the peer
        // posts response bursts under one doorbell, and absorbing them
        // together frees a burst of slots for the caller to refill under
        // one doorbell of its own. After that, return the moment `token`
        // is banked — the rest of a burst waits for the next call.
        self.pump()?;
        loop {
            if let Some(buf) = self.win.try_take(token)? {
                return Ok(buf);
            }
            let Link { ep, cfg } = &self.link;
            let comp =
                poll_recv(ep, cfg.poll, cfg.op_timeout_ns)?.ok_or(RdmaError::Disconnected)?;
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
}

impl<W: Wire> RpcClient for Pipelined<W> {
    /// Submit one request and wait for its token. Replies are copied out
    /// of the wire straight into a `Vec`, so this call's costs one copy —
    /// none over Write-RNDV, whose reply is the server handler's own `Vec`,
    /// taken where it landed; a sibling's met on the way (an async call's,
    /// on a pipelined channel) is banked in the window as it arrived, as
    /// [`Self::wait`] banks it.
    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        let token = self.submit(request)?;
        self.flush()?;
        loop {
            let Link { ep, cfg } = &self.link;
            let comp =
                poll_recv(ep, cfg.poll, cfg.op_timeout_ns)?.ok_or(RdmaError::Disconnected)?;
            let (t, _, reply): (_, _, Vec<u8>) = self.wire.absorb(&self.link, comp)?;
            if t != token {
                self.win.complete(t, PoolBuf::from_vec(reply))?;
                continue;
            }
            // Free the slot as taking a banked response does.
            self.win.complete(t, PoolBuf::empty())?;
            self.win.try_take(t)?;
            return Ok(reply);
        }
    }
}

// ---------------------------------------------------------------------------
// The server driver, for a blocking thread and a reactor alike.
// ---------------------------------------------------------------------------

/// Server side of a pipelined channel, for a driver that must not block:
/// what a reactor needs on top of [`RpcServer`].
///
/// [`RpcServer::serve_loop`] owns its thread and parks it inside
/// `poll_recv` whenever the connection goes quiet; a reactor driver can
/// afford neither. `ReactorServe` inverts the control flow: the reactor
/// watches the connection's receive CQ (via [`Self::cq`] +
/// [`hat_rdma_sim::CqNotify`] registration), and calls [`Self::drain`] when
/// completions may be ready. `drain` serves every request whose completion
/// is ready *now* and returns without ever parking, so one driver thread
/// can resume thousands of connections. The client cannot tell which of
/// the two forms serves it.
pub trait ReactorServe: RpcServer {
    /// Serve every ready request, posting responses (doorbell-batched
    /// where the protocol chains them). Returns how many requests were
    /// served; `Ok(0)` means the CQ had nothing ready. An error poisons
    /// the connection — the reactor retires it.
    fn drain(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<usize>;

    /// The CQ this connection's request completions arrive on — the
    /// reactor registers its waker here, re-queues the connection while
    /// entries remain, and gates shutdown drains on it being empty.
    fn cq(&self) -> &CompletionQueue;

    /// False once the peer disconnected or a node died; the reactor
    /// retires the connection after a final drain.
    fn is_open(&self) -> bool;
}

/// A pipelined channel's server side over the wire format `W`: absorb a
/// request, run the handler, frame the response with the request's token.
struct PipelinedServer<W> {
    link: Link,
    wire: W,
    /// Reusable response-staging scratch, so a driver multiplexing
    /// thousands of connections allocates nothing per resume.
    staged: Vec<SendWr>,
}

impl<W: Wire> PipelinedServer<W> {
    /// Build the server side, concurrently with the peer's
    /// [`Pipelined::connect`].
    fn accept(ep: Endpoint, cfg: ProtocolConfig) -> Result<PipelinedServer<W>> {
        let staged = Vec::with_capacity(W::WRS_PER_MSG * cfg.ring_slots);
        let link = Link { ep, cfg };
        let wire = W::setup(&link)?;
        Ok(PipelinedServer { link, wire, staged })
    }

    /// The one serving primitive, and the server half of the window's flow
    /// control: answer `first` (the completion a blocking caller waited
    /// for, if any) and every request completion ready *now*, up to a
    /// window's worth — all a client can have in flight, and for a window
    /// of one exactly the one request [`RpcServer::serve_one`] promises,
    /// not also the next one its client sent on seeing the response.
    /// Responses are staged, and the staged chain is posted the moment it
    /// reaches half a window — the unit `call_many` refills in, so the
    /// client's next half-window is on the wire while this side is still
    /// answering the previous one — before the CQ is polled again, so no
    /// response waits behind a poll; whatever is left is posted once the
    /// turn ends. A wire that does not chain posts each response on its
    /// own, as does a window of one. Returns how many requests were
    /// served.
    ///
    /// A request lands in a buffer this side owns — a pooled copy (no
    /// allocation), or for Write-RNDV the client's staged buffer, taken
    /// where it landed — and the handler borrows *that*, never the
    /// registered region: a late or hostile in-bound WRITE to a region
    /// whose lock a handler held would park the node's effect drain, and
    /// with it every connection on the node, behind user code. The buffer
    /// is back in the pool before the response is staged, and the
    /// handler's response `Vec` is staged by value, so a Write-RNDV WRITE
    /// carries it to the client instead of a copy.
    fn serve_ready(
        &mut self,
        first: Option<Completion>,
        handler: &mut dyn FnMut(&[u8]) -> Vec<u8>,
    ) -> Result<usize> {
        let Link { ep, cfg } = &self.link;
        let unit = if W::CHAINS_RESPONSES { (cfg.ring_slots / 2).max(1) } else { 1 };
        let mut served = 0usize;
        self.staged.clear();
        let mut next = first.or_else(|| ep.recv_cq().try_poll());
        while let Some(comp) = next {
            let (token, slot, request): (_, _, PoolBuf) = self.wire.absorb(&self.link, comp)?;
            let response = handler(&request);
            drop(request);
            check_len(response.len(), cfg.max_msg)?;
            self.wire.stage(&self.link, token, slot, response, &mut self.staged)?;
            served += 1;
            if self.staged.len() >= unit {
                note_burst(ep, self.staged.len());
                post_chain(ep, &mut self.staged)?;
            }
            if served == cfg.ring_slots {
                break;
            }
            next = ep.recv_cq().try_poll();
        }
        if !self.staged.is_empty() {
            note_burst(ep, self.staged.len());
            post_chain(ep, &mut self.staged)?;
        }
        Ok(served)
    }
}

impl<W: Wire> RpcServer for PipelinedServer<W> {
    /// Block for the head of a burst, then serve it and whatever else is
    /// ready without blocking: a pipelined peer sends windows, so "one
    /// request" here is one turn of [`PipelinedServer::serve_ready`] — one
    /// request exactly on a window of one.
    fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
        let Link { ep, cfg } = &self.link;
        let Some(first) = poll_recv(ep, cfg.poll, cfg.op_timeout_ns)? else { return Ok(false) };
        self.serve_ready(Some(first), handler)?;
        Ok(true)
    }
}

impl<W: Wire> ReactorServe for PipelinedServer<W> {
    fn drain(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<usize> {
        self.serve_ready(None, handler)
    }

    fn cq(&self) -> &CompletionQueue {
        self.link.ep.recv_cq()
    }

    fn is_open(&self) -> bool {
        self.link.ep.is_alive()
    }
}

// ---------------------------------------------------------------------------
// The wire formats.
// ---------------------------------------------------------------------------

/// The header of an eager frame and of a write-imm slot, and the whole of
/// a chained-write notify: 4-byte length + 8-byte token, little endian.
const HDR: usize = 12;

fn frame_hdr(len: usize, token: Token) -> [u8; HDR] {
    let mut hdr = [0u8; HDR];
    hdr[..4].copy_from_slice(&(len as u32).to_le_bytes());
    hdr[4..].copy_from_slice(&token.to_le_bytes());
    hdr
}

fn parse_hdr(hdr: &[u8]) -> Result<(usize, Token)> {
    if hdr.len() < HDR {
        return Err(RdmaError::InvalidWorkRequest(format!(
            "pipelined frame header of {} bytes is too short",
            hdr.len()
        )));
    }
    let len = u32::from_le_bytes(hdr[..4].try_into().expect("4B")) as usize;
    let token = u64::from_le_bytes(hdr[4..HDR].try_into().expect("8B"));
    Ok((len, token))
}

/// `(token, payload)` of the [`HDR`]-framed message in `slot`, of which
/// the peer wrote the first `arrived` bytes: the header's length is checked
/// against those before it slices anything.
fn framed(slot: &[u8], arrived: usize) -> Result<(Token, &[u8])> {
    let frame = &slot[..arrived.min(slot.len())];
    let (len, token) = parse_hdr(frame)?;
    check_len(len, frame.len() - HDR)?;
    Ok((token, &frame[HDR..HDR + len]))
}

/// A landing region of `window` stripes and a staging region to match,
/// plus the peer's landing region, advertised over the handshake (which
/// must run before any other receive is posted — receive queues are FIFO).
fn striped_setup(
    ep: &Endpoint,
    window: usize,
    stripe: usize,
) -> Result<(MemoryRegion, MemoryRegion, RemoteBuf)> {
    let in_ring = ep.pd().register(window * stripe)?;
    let out_stage = ep.pd().register(window * stripe)?;
    let blob = in_ring.remote_buf(0, window * stripe).encode();
    let peer_ring = RemoteBuf::decode(&exchange_blobs(ep, &blob)?)?;
    Ok((in_ring, out_stage, peer_ring))
}

/// Eager-SendRecv: a per-slot send ring (so staged frames survive until
/// the batched post), a pre-posted receive ring, one SEND per frame. The
/// token rides in the frame and is echoed back with each response.
struct EagerWire {
    send_ring: MemoryRegion,
    recv_ring: MemoryRegion,
    slot_size: usize,
}

impl Wire for EagerWire {
    const PINS_TOKEN: bool = false;
    const CHAINS_RESPONSES: bool = true;
    const WRS_PER_MSG: usize = 1;

    fn setup(link: &Link) -> Result<EagerWire> {
        let window = link.cfg.ring_slots;
        let slot_size = HDR + link.cfg.max_msg;
        let recv_ring = posted_ring(&link.ep, window, slot_size)?;
        // One send slot per receive slot. The NIC snapshots a frame at
        // post time, so a server restaging slot `i` when a new request
        // occupies recv slot `i` cannot corrupt an in-flight response.
        let send_ring = link.ep.pd().register(window * slot_size)?;
        Ok(EagerWire { send_ring, recv_ring, slot_size })
    }

    fn stage(
        &self,
        link: &Link,
        token: Token,
        slot: usize,
        payload: impl Outgoing,
        staged: &mut Vec<SendWr>,
    ) -> Result<()> {
        let payload = payload.as_ref();
        let base = slot * self.slot_size;
        let copy = charge_memcpy(&link.ep, payload.len());
        self.send_ring.write_parts(base, &[&frame_hdr(payload.len(), token), payload])?;
        drop(copy);
        staged.push(SendWr::send(token, self.send_ring.slice(base, HDR + payload.len())));
        Ok(())
    }

    fn absorb<B: Landing>(&self, link: &Link, comp: Completion) -> Result<(Token, usize, B)> {
        comp.ok()?;
        let slot = comp.wr_id as usize % link.cfg.ring_slots;
        let base = slot * self.slot_size;
        // The copy out of the slot is charged from the moment its length
        // is known, and waited out once the borrow has released the ring.
        let (token, payload, copy) =
            self.recv_ring.with_bytes(base, self.slot_size, |slot| {
                let (token, payload) = framed(slot, comp.byte_len)?;
                let copy = charge_memcpy(&link.ep, payload.len());
                Ok::<_, RdmaError>((token, B::from(payload), copy))
            })??;
        drop(copy);
        link.ep.post_recv(RecvWr::new(comp.wr_id, self.recv_ring.clone(), base, self.slot_size))?;
        Ok((token, slot, payload))
    }
}

/// Chained-Write-Send (`SPLIT = false`, Figure 3c): each window slot owns
/// a stripe of the peer's pre-known ring; a message is a WRITE into that
/// stripe plus a chained inline SEND notify carrying length and token, so
/// a flush posts the whole `(WRITE, SEND)*` chain under one doorbell.
///
/// Direct-Write-Send (`SPLIT = true`, Figure 3b) is the same wire with the
/// WRITE posted on its own before the notify is staged: two doorbells per
/// message, the one cost 3c's chaining exists to save. A window of one
/// only ([`PIPELINED_KINDS`] leaves it out), since a batched flush would
/// hide that second doorbell.
struct ChainedWire<const SPLIT: bool> {
    /// Per-slot landing stripes the peer WRITEs into.
    in_ring: MemoryRegion,
    /// Per-slot staging stripes outbound WRITEs are issued from.
    out_stage: MemoryRegion,
    /// The peer's advertised in-ring.
    peer_ring: RemoteBuf,
    ctrl: CtrlRing,
}

impl<const SPLIT: bool> Wire for ChainedWire<SPLIT> {
    const PINS_TOKEN: bool = true;
    const CHAINS_RESPONSES: bool = false;
    const WRS_PER_MSG: usize = if SPLIT { 1 } else { 2 };

    fn setup(link: &Link) -> Result<ChainedWire<SPLIT>> {
        let Link { ep, cfg } = link;
        let (in_ring, out_stage, peer_ring) = striped_setup(ep, cfg.ring_slots, cfg.max_msg)?;
        let ctrl = CtrlRing::new(ep, cfg.ring_slots, 16, cfg.op_timeout_ns)?;
        Ok(ChainedWire { in_ring, out_stage, peer_ring, ctrl })
    }

    fn stage(
        &self,
        link: &Link,
        token: Token,
        slot: usize,
        payload: impl Outgoing,
        staged: &mut Vec<SendWr>,
    ) -> Result<()> {
        let payload = payload.as_ref();
        let base = slot * link.cfg.max_msg;
        // Zero-copy staging: no memcpy is charged for writing into the
        // registered stripe.
        self.out_stage.write(base, payload)?;
        let dst = self.peer_ring.sub(base as u64, payload.len() as u64);
        let write = SendWr::write(token, self.out_stage.slice(base, payload.len()), dst);
        if SPLIT {
            link.ep.post_send(&[write])?;
        } else {
            staged.push(write);
        }
        staged.push(SendWr::send_inline(token, &frame_hdr(payload.len(), token)));
        Ok(())
    }

    fn absorb<B: Landing>(&self, link: &Link, comp: Completion) -> Result<(Token, usize, B)> {
        // Notifies arrive as receive completions on the control ring; the
        // payload they announce must fit the slot's stripe.
        let (len, token) = parse_hdr(&self.ctrl.read_slot(comp)?)?;
        let Link { cfg, .. } = link;
        check_len(len, cfg.max_msg)?;
        let slot = token as usize % cfg.ring_slots;
        let payload = self.in_ring.with_bytes(slot * cfg.max_msg, len, |b| B::from(b))?;
        Ok((token, slot, payload))
    }
}

/// Direct-WriteIMM: one WRITE_WITH_IMM per message into the peer's
/// per-slot stripe, batched under one doorbell per flush — the fastest
/// pipelined small-message path, matching Figure 4. The immediate only
/// carries the slot index; the in-slot header disambiguates which token
/// currently occupies the slot.
struct ImmWire {
    in_ring: MemoryRegion,
    out_stage: MemoryRegion,
    peer_ring: RemoteBuf,
    /// Target of the zero-length receives WRITE_WITH_IMM completions
    /// consume.
    imm_dummy: MemoryRegion,
    slot_size: usize,
}

impl Wire for ImmWire {
    const PINS_TOKEN: bool = false;
    const CHAINS_RESPONSES: bool = true;
    const WRS_PER_MSG: usize = 1;

    fn setup(link: &Link) -> Result<ImmWire> {
        let Link { ep, cfg } = link;
        let slot_size = HDR + cfg.max_msg;
        let (in_ring, out_stage, peer_ring) = striped_setup(ep, cfg.ring_slots, slot_size)?;
        let imm_dummy = ep.pd().register(1)?;
        for i in 0..cfg.ring_slots {
            ep.post_recv(RecvWr::new(i as u64, imm_dummy.clone(), 0, 0))?;
        }
        Ok(ImmWire { in_ring, out_stage, peer_ring, imm_dummy, slot_size })
    }

    fn stage(
        &self,
        _link: &Link,
        token: Token,
        slot: usize,
        payload: impl Outgoing,
        staged: &mut Vec<SendWr>,
    ) -> Result<()> {
        let payload = payload.as_ref();
        let base = slot * self.slot_size;
        self.out_stage.write_parts(base, &[&frame_hdr(payload.len(), token), payload])?;
        let total = HDR + payload.len();
        staged.push(SendWr::write_imm(
            token,
            self.out_stage.slice(base, total),
            self.peer_ring.sub(base as u64, total as u64),
            slot as u32,
        ));
        Ok(())
    }

    fn absorb<B: Landing>(&self, link: &Link, comp: Completion) -> Result<(Token, usize, B)> {
        comp.ok()?;
        let slot = comp.imm.map(|imm| imm as usize).filter(|&slot| slot < link.cfg.ring_slots);
        let slot = slot.ok_or_else(|| {
            RdmaError::InvalidWorkRequest(format!(
                "write-imm immediate {:?} names no slot of the window",
                comp.imm
            ))
        })?;
        let base = slot * self.slot_size;
        let (token, payload) = self.in_ring.with_bytes(base, self.slot_size, |slot| {
            framed(slot, comp.byte_len).map(|(token, payload)| (token, B::from(payload)))
        })??;
        link.ep.post_recv(RecvWr::new(comp.wr_id, self.imm_dummy.clone(), 0, 0))?;
        Ok((token, slot, payload))
    }
}

/// The header of a hybrid frame and of a rendezvous control message:
/// 1-byte tag + 8-byte length + 8-byte token, little endian.
const TAG_HDR: usize = 17;
/// Tags: a hybrid eager payload, and the rendezvous handshake (hybrid
/// frames use RTS alone).
const EAGER: u8 = 0;
const RTS: u8 = 1;
const CTS: u8 = 2;
const FIN: u8 = 3;

fn tag_hdr(tag: u8, len: usize, token: Token) -> [u8; TAG_HDR] {
    let mut hdr = [0u8; TAG_HDR];
    hdr[0] = tag;
    hdr[1..9].copy_from_slice(&(len as u64).to_le_bytes());
    hdr[9..].copy_from_slice(&token.to_le_bytes());
    hdr
}

/// `(tag, len, token, body)` of a tagged message. `len` is the peer's
/// claim, for the caller to check before it sizes or READs anything.
fn parse_tagged(msg: &[u8]) -> Result<(u8, usize, Token, &[u8])> {
    let Some((hdr, body)) = msg.split_first_chunk::<TAG_HDR>() else {
        return Err(RdmaError::InvalidWorkRequest(format!(
            "tagged message of {} bytes is too short",
            msg.len()
        )));
    };
    let token = u64::from_le_bytes(hdr[9..].try_into().expect("8B"));
    Ok((hdr[0], wire_len(&hdr[1..9]), token, body))
}

/// Hybrid-EagerRNDV: payloads at or below the threshold ride eager frames;
/// larger ones are staged in a per-slot rendezvous stripe and advertised
/// with an RTS the peer READs from. No FIN messages are needed: slot reuse
/// is gated on the caller taking the response, by which point the slot's
/// staging stripe is provably no longer referenced — the client's READ of
/// a response acts as its FIN.
struct HybridWire {
    /// Pre-posted frame ring (eager frames and RTS advertisements land here).
    ring: MemoryRegion,
    /// Per-slot staging for outbound frames.
    frame_stage: MemoryRegion,
    /// Per-slot stripes large payloads are advertised from …
    rndv_stage: MemoryRegion,
    /// … and READ into.
    landing: MemoryRegion,
    slot_size: usize,
}

impl HybridWire {
    /// Write a frame — header plus `body` — into `slot` of the frame stage
    /// and push its SEND. `len` is the payload's length, which an RTS
    /// body (an advertisement) does not have.
    fn stage_frame(
        &self,
        tag: u8,
        len: usize,
        token: Token,
        slot: usize,
        body: &[u8],
        staged: &mut Vec<SendWr>,
    ) -> Result<()> {
        let base = slot * self.slot_size;
        self.frame_stage.write_parts(base, &[&tag_hdr(tag, len, token), body])?;
        staged.push(SendWr::send(token, self.frame_stage.slice(base, TAG_HDR + body.len())));
        Ok(())
    }
}

/// What one hybrid frame carried, as taken out of its slot.
enum HybridFrame<B> {
    /// An eager payload.
    Eager(B),
    /// A rendezvous advert, cut to the announced (checked) length.
    Rts(RemoteBuf),
}

impl Wire for HybridWire {
    const PINS_TOKEN: bool = true;
    const CHAINS_RESPONSES: bool = false;
    const WRS_PER_MSG: usize = 1;

    fn setup(link: &Link) -> Result<HybridWire> {
        let Link { ep, cfg } = link;
        let window = cfg.ring_slots;
        let slot_size = TAG_HDR + cfg.eager_threshold.max(RemoteBuf::WIRE_SIZE);
        let ring = posted_ring(ep, window, slot_size)?;
        let frame_stage = ep.pd().register(window * slot_size)?;
        let rndv_stage = ep.pd().register(window * cfg.max_msg)?;
        let landing = ep.pd().register(window * cfg.max_msg)?;
        Ok(HybridWire { ring, frame_stage, rndv_stage, landing, slot_size })
    }

    fn stage(
        &self,
        link: &Link,
        token: Token,
        slot: usize,
        payload: impl Outgoing,
        staged: &mut Vec<SendWr>,
    ) -> Result<()> {
        let payload = payload.as_ref();
        if payload.len() <= link.cfg.eager_threshold {
            let _copy = charge_memcpy(&link.ep, payload.len());
            return self.stage_frame(EAGER, payload.len(), token, slot, payload, staged);
        }
        // Stage zero-copy in this slot's rendezvous stripe; the peer READs
        // it before anything that could overwrite it can be submitted.
        let sbase = slot * link.cfg.max_msg;
        self.rndv_stage.write(sbase, payload)?;
        let rb = self.rndv_stage.remote_buf(sbase, payload.len());
        self.stage_frame(RTS, payload.len(), token, slot, &rb.encode(), staged)
    }

    /// An RTS nests a synchronous READ ([`read_now`]): `try_wait` and
    /// `drain` stay "non-blocking" in the sense their callers need, never
    /// waiting for the *peer* to produce anything new.
    fn absorb<B: Landing>(&self, link: &Link, comp: Completion) -> Result<(Token, usize, B)> {
        comp.ok()?;
        let Link { ep, cfg } = link;
        let base = (comp.wr_id as usize % cfg.ring_slots) * self.slot_size;
        // An eager payload must fit the bytes that arrived behind its
        // header, an advertised one the landing stripe. The eager copy is
        // charged as in the eager wire.
        let (token, frame, copy) = self.ring.with_bytes(base, self.slot_size, |slot| {
            let (tag, len, token, body) = parse_tagged(&slot[..comp.byte_len.min(slot.len())])?;
            Ok(match tag {
                EAGER => {
                    check_len(len, body.len())?;
                    let copy = charge_memcpy(ep, len);
                    (token, HybridFrame::Eager(B::from(&body[..len])), Some(copy))
                }
                RTS => {
                    check_len(len, cfg.max_msg)?;
                    (token, HybridFrame::Rts(RemoteBuf::decode(body)?.sub(0, len as u64)), None)
                }
                other => {
                    return Err(RdmaError::InvalidWorkRequest(format!(
                        "unexpected pipelined hybrid tag {other}"
                    )))
                }
            })
        })??;
        drop(copy);
        ep.post_recv(RecvWr::new(comp.wr_id, self.ring.clone(), base, self.slot_size))?;
        let slot = token as usize % cfg.ring_slots;
        let payload = match frame {
            HybridFrame::Eager(payload) => payload,
            HybridFrame::Rts(src) => {
                // READ the advertised payload into this slot's landing stripe.
                let (dbase, len) = (slot * cfg.max_msg, src.len as usize);
                read_now(link, token, self.landing.slice(dbase, len), src)?;
                self.landing.with_bytes(dbase, len, |b| B::from(b))?
            }
        };
        Ok((token, slot, payload))
    }
}

/// Write-RNDV (`READ = false`, Figure 3d) and Read-RNDV (`READ = true`,
/// Figure 3e): a payload moves zero-copy after a control exchange on a
/// two-slot ring, so the pinned footprint is one landing region (plus, for
/// Read-RNDV, the stage the peer READs) — not a stripe per window slot,
/// which is why Figure 6 sends `res_util` + large payloads here.
///
/// * Write-RNDV: RTS (length, token) → CTS (the target's landing region)
///   → the initiator WRITEs the payload's buffer and sends FIN, under one
///   doorbell. The WRITE lands by reference and the target takes it
///   ([`MemoryRegion::take_landed`]): a borrowed request is copied into a
///   pooled buffer once, while the RTS/CTS round trip is in flight, and a
///   handler's reply `Vec` moves to the caller of `call` untouched.
/// * Read-RNDV: RTS (length, token, the registered stage's rkey) → the
///   target READs the stage and answers FIN, freeing it.
///
/// A CTS and a FIN must name the RTS's token and length. `stage` waits for
/// the CTS or the FIN and `absorb` for the FIN or the READ, which is sound
/// only with one message in flight each way: the window is one (the
/// constructors refuse more).
struct RndvWire<const READ: bool> {
    ctrl: CtrlRing,
    /// Write-RNDV: where the peer's WRITE lands. Read-RNDV: the stage the
    /// peer READs, then (at `max_msg`) the stripe this side READs into.
    region: MemoryRegion,
}

impl<const READ: bool> RndvWire<READ> {
    fn send(&self, tag: u8, len: usize, token: Token, buf: Option<&RemoteBuf>) -> Result<()> {
        self.ctrl.send(token, &ctrl_msg(tag, len, token, buf))
    }

    /// Wait for the peer's next control message, which must be `want` for
    /// the `len`-byte message `token`, and return the buffer it advertises.
    fn expect(&self, link: &Link, want: u8, len: usize, token: Token) -> Result<Option<RemoteBuf>> {
        let msg = self.ctrl.recv(link.cfg.poll)?.ok_or(RdmaError::Disconnected)?;
        let (got_len, got_token, buf) = parse_ctrl(&msg, want)?;
        if (got_len, got_token) != (len, token) {
            return Err(RdmaError::InvalidWorkRequest(format!(
                "rendezvous tag {want} names {got_len} B of message {got_token}, \
                 not {len} B of message {token}"
            )));
        }
        Ok(buf)
    }
}

/// A rendezvous control message: the tagged header, plus the buffer a
/// Read-RNDV RTS or a CTS advertises.
fn ctrl_msg(tag: u8, len: usize, token: Token, buf: Option<&RemoteBuf>) -> CtrlMsg {
    let buf = buf.map(RemoteBuf::encode);
    CtrlMsg::new(&[&tag_hdr(tag, len, token), buf.as_ref().map_or(&[], |b| &b[..])])
}

/// `(len, token, advertised buffer)` of a [`ctrl_msg`] that must carry
/// `want`.
fn parse_ctrl(msg: &[u8], want: u8) -> Result<(usize, Token, Option<RemoteBuf>)> {
    let (tag, len, token, body) = parse_tagged(msg)?;
    if tag != want {
        return Err(RdmaError::InvalidWorkRequest(format!(
            "rendezvous expected tag {want}, got {tag}"
        )));
    }
    let buf = if body.is_empty() { None } else { Some(RemoteBuf::decode(body)?) };
    Ok((len, token, buf))
}

impl<const READ: bool> Wire for RndvWire<READ> {
    const PINS_TOKEN: bool = false;
    const CHAINS_RESPONSES: bool = false;
    const WRS_PER_MSG: usize = 2;

    fn setup(link: &Link) -> Result<RndvWire<READ>> {
        let Link { ep, cfg } = link;
        // Two control slots: a FIN and the RTS right behind it can both
        // arrive before the first is recycled.
        let ctrl = CtrlRing::new(ep, 2, CTRL_MAX, cfg.op_timeout_ns)?;
        let region = ep.pd().register(if READ { 2 * cfg.max_msg } else { cfg.max_msg })?;
        Ok(RndvWire { ctrl, region })
    }

    fn stage(
        &self,
        link: &Link,
        token: Token,
        _slot: usize,
        payload: impl Outgoing,
        staged: &mut Vec<SendWr>,
    ) -> Result<()> {
        let len = payload.as_ref().len();
        if READ {
            // The peer READs the stage, so the bytes must live in the
            // registered region; its FIN frees it.
            self.region.write(0, payload.as_ref())?;
            self.send(RTS, len, token, Some(&self.region.remote_buf(0, len)))?;
            self.expect(link, FIN, len, token)?;
            return Ok(());
        }
        self.send(RTS, len, token, None)?;
        // Stage while the RTS/CTS round trip is in flight: a borrowed
        // request is copied (the one send-side pass), a reply `Vec` moves.
        // The WRITE hands this buffer to the wire, so no registered
        // staging region and no post-time snapshot.
        let buf = payload.into();
        let dst = match self.expect(link, CTS, len, token)? {
            Some(dst) if dst.len >= len as u64 => dst.sub(0, len as u64),
            offered => {
                return Err(RdmaError::InvalidWorkRequest(format!(
                    "a CTS offering {offered:?} cannot take a {len}-byte payload"
                )))
            }
        };
        staged.push(SendWr::write_staged(token, buf, dst));
        staged.push(SendWr::send_inline(token, &tag_hdr(FIN, len, token)));
        Ok(())
    }

    fn absorb<B: Landing>(&self, link: &Link, comp: Completion) -> Result<(Token, usize, B)> {
        let (len, token, src) = parse_ctrl(&self.ctrl.read_slot(comp)?, RTS)?;
        check_len(len, link.cfg.max_msg)?;
        if !READ {
            self.send(CTS, len, token, Some(&self.region.remote_buf(0, len)))?;
            // FIN means the WRITE has fully landed (RC ordering): take it.
            self.expect(link, FIN, len, token)?;
            let landed = self.region.take_landed(0, len)?.ok_or_else(|| {
                RdmaError::InvalidWorkRequest(format!(
                    "a FIN for {len} B with no WRITE of exactly those bytes landed"
                ))
            })?;
            return Ok((token, 0, B::from(landed)));
        }
        let src = src.ok_or_else(|| {
            RdmaError::InvalidWorkRequest("a Read-RNDV RTS advertises no stage".into())
        })?;
        let at = link.cfg.max_msg;
        read_now(link, token, self.region.slice(at, len), src.sub(0, len as u64))?;
        self.send(FIN, len, token, None)?;
        let payload = self.region.with_bytes(at, len, |b| B::from(b))?;
        Ok((token, 0, payload))
    }
}

// ---------------------------------------------------------------------------
// Constructor tables: the one place a kind is matched to its wire.
// ---------------------------------------------------------------------------

/// The protocols with pipelined implementations.
pub const PIPELINED_KINDS: [ProtocolKind; 4] = [
    ProtocolKind::EagerSendRecv,
    ProtocolKind::ChainedWriteSend,
    ProtocolKind::DirectWriteImm,
    ProtocolKind::HybridEagerRndv,
];

/// Refuse a window a kind cannot keep: outside [`PIPELINED_KINDS`] a wire
/// has one message in flight each way.
fn check_window(kind: ProtocolKind, window: usize) -> Result<()> {
    if window > 1 && !PIPELINED_KINDS.contains(&kind) {
        return Err(RdmaError::InvalidWorkRequest(format!(
            "{kind} keeps one message in flight: its window is one, not {window}"
        )));
    }
    Ok(())
}

fn no_wire(kind: ProtocolKind) -> RdmaError {
    RdmaError::InvalidWorkRequest(format!("{kind} has no wire"))
}

/// Construct the client side of `kind`'s wire over a connected endpoint,
/// with a window of `cfg.ring_slots` ([`crate::connect_client`] builds
/// the same channel with a window of one). Errors for a kind without a
/// wire, and for a window above one outside [`PIPELINED_KINDS`].
pub fn connect_client_pipelined(
    kind: ProtocolKind,
    ep: Endpoint,
    cfg: ProtocolConfig,
) -> Result<Box<dyn PipelinedClient>> {
    use ProtocolKind::*;
    check_window(kind, cfg.ring_slots)?;
    Ok(match kind {
        EagerSendRecv => Box::new(Pipelined::<EagerWire>::connect(ep, cfg)?),
        DirectWriteSend => Box::new(Pipelined::<ChainedWire<true>>::connect(ep, cfg)?),
        ChainedWriteSend => Box::new(Pipelined::<ChainedWire<false>>::connect(ep, cfg)?),
        WriteRndv => Box::new(Pipelined::<RndvWire<false>>::connect(ep, cfg)?),
        ReadRndv => Box::new(Pipelined::<RndvWire<true>>::connect(ep, cfg)?),
        DirectWriteImm => Box::new(Pipelined::<ImmWire>::connect(ep, cfg)?),
        HybridEagerRndv => Box::new(Pipelined::<HybridWire>::connect(ep, cfg)?),
        other => return Err(no_wire(other)),
    })
}

/// Construct the server peer of [`connect_client_pipelined`]: one value
/// that serves from a blocking thread ([`RpcServer::serve_loop`]) or from
/// a reactor ([`ReactorServe::drain`]) — pipelining is a client-side
/// property; the server just echoes each request's token.
pub fn accept_server_pipelined(
    kind: ProtocolKind,
    ep: Endpoint,
    cfg: ProtocolConfig,
) -> Result<Box<dyn ReactorServe>> {
    use ProtocolKind::*;
    check_window(kind, cfg.ring_slots)?;
    Ok(match kind {
        EagerSendRecv => Box::new(PipelinedServer::<EagerWire>::accept(ep, cfg)?),
        DirectWriteSend => Box::new(PipelinedServer::<ChainedWire<true>>::accept(ep, cfg)?),
        ChainedWriteSend => Box::new(PipelinedServer::<ChainedWire<false>>::accept(ep, cfg)?),
        WriteRndv => Box::new(PipelinedServer::<RndvWire<false>>::accept(ep, cfg)?),
        ReadRndv => Box::new(PipelinedServer::<RndvWire<true>>::accept(ep, cfg)?),
        DirectWriteImm => Box::new(PipelinedServer::<ImmWire>::accept(ep, cfg)?),
        HybridEagerRndv => Box::new(PipelinedServer::<HybridWire>::accept(ep, cfg)?),
        other => return Err(no_wire(other)),
    })
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

    /// A client with a full window of 8 flushed and landed on the server's
    /// CQ, nothing served yet.
    struct EightReady {
        client: Box<dyn PipelinedClient>,
        tokens: Vec<Token>,
        server: Box<dyn ReactorServe>,
        snode: Arc<Node>,
        _fabric: Fabric,
    }

    fn eight_ready(kind: ProtocolKind) -> EightReady {
        let fabric = Fabric::new(SimConfig::fast_test());
        let cnode = fabric.add_node("client");
        let snode = fabric.add_node("server");
        let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
        let cfg = ProtocolConfig { max_msg: 512, ring_slots: 8, ..Default::default() };
        let scfg = cfg.clone();
        // Some wires handshake, so the sides build concurrently.
        let server = std::thread::spawn(move || accept_server_pipelined(kind, sep, scfg).unwrap());
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
        EightReady { client, tokens, server, snode, _fabric: fabric }
    }

    fn assert_reversed_echoes(client: &mut dyn PipelinedClient, tokens: &[Token]) {
        for (i, &t) in tokens.iter().enumerate() {
            let mut expected = patterned(i, 64);
            expected.reverse();
            assert_eq!(client.wait(t).unwrap().as_slice(), &expected[..], "token {t}");
        }
    }

    /// The burst rule, every kind, both serving forms: eight ready
    /// requests are all answered by one reactor `drain`, or by one turn of
    /// a blocking `serve_loop`, with the same responses and the same posts
    /// — two half-window chains where the wire chains responses, one post
    /// per response where it does not.
    #[test]
    fn a_full_window_is_answered_alike_by_drain_and_serve_loop_for_every_kind() {
        for kind in PIPELINED_KINDS {
            let chains = matches!(kind, ProtocolKind::EagerSendRecv | ProtocolKind::DirectWriteImm);
            let posts = if chains { 2 } else { 8 };
            let wrs = if kind == ProtocolKind::ChainedWriteSend { 16 } else { 8 };
            for blocking in [false, true] {
                let form = if blocking { "serve_loop" } else { "drain" };
                let EightReady { mut client, tokens, mut server, snode, _fabric } =
                    eight_ready(kind);
                let before = snode.stats_snapshot();
                let server = if blocking {
                    Some(std::thread::spawn(move || server.serve_loop(&mut reverse).unwrap()))
                } else {
                    assert_eq!(server.drain(&mut reverse).unwrap(), 8, "{kind} {form}");
                    None
                };
                assert_reversed_echoes(client.as_mut(), &tokens);
                // A serving thread counts a post after ringing it: read the
                // counters once it is done.
                drop(client);
                if let Some(server) = server {
                    server.join().unwrap();
                }
                let delta = snode.stats_snapshot() - before;
                assert_eq!(delta.doorbells, posts, "{kind} {form}");
                assert_eq!(delta.pipeline_doorbells, posts, "{kind} {form}");
                assert_eq!(delta.wrs_posted, wrs, "{kind} {form}");
            }
        }
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

    /// `serve_one` on a window of one serves one request, even when the
    /// next is already waiting: here a client overruns the window (two
    /// requests against one posted receive), so the second lands the
    /// moment the first one's receive is recycled — before the server
    /// looks for more work.
    #[test]
    fn serve_one_on_a_window_of_one_serves_exactly_one_request() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let cnode = fabric.add_node("client");
        let snode = fabric.add_node("server");
        let (cep, sep) = fabric.connect(&cnode, &snode).unwrap();
        let cfg = ProtocolConfig {
            max_msg: 256,
            ring_slots: 2,
            op_timeout_ns: 2_000_000_000,
            ..Default::default()
        };
        let kind = ProtocolKind::EagerSendRecv;
        let mut server = crate::accept_server(kind, sep, cfg.clone()).unwrap();
        let mut client = connect_client_pipelined(kind, cep, cfg).unwrap();
        let tokens = [client.submit(b"one").unwrap(), client.submit(b"two").unwrap()];
        client.flush().unwrap();
        let mut served = Vec::new();
        for _ in 0..2 {
            assert!(server.serve_one(&mut |req| reverse(req)).unwrap());
            served.push(snode.stats_snapshot().completions);
        }
        assert_eq!(served, [1, 2], "one request per serve_one");
        assert_eq!(client.wait(tokens[0]).unwrap().as_slice(), b"eno");
        assert_eq!(client.wait(tokens[1]).unwrap().as_slice(), b"owt");
    }

    /// A kind without a wire has no pipelined form, and a window-one-only
    /// wire refuses a window above one — but is built with a window of one.
    #[test]
    fn unsupported_kinds_and_windows_are_rejected() {
        use ProtocolKind::*;
        let fabric = Fabric::new(SimConfig::fast_test());
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let cfg = |ring_slots| ProtocolConfig { ring_slots, ..Default::default() };
        let refusals = [
            (Pilaf, 1, "Pilaf has no wire".to_string()),
            (Herd, 1, "HERD has no wire".to_string()),
            (DirectWriteSend, 2, "its window is one, not 2".to_string()),
            (WriteRndv, 2, "its window is one, not 2".to_string()),
            (ReadRndv, 16, "its window is one, not 16".to_string()),
        ];
        for (kind, window, want) in refusals {
            let (ea, eb) = fabric.connect(&a, &b).unwrap();
            let client = connect_client_pipelined(kind, ea, cfg(window));
            let server = accept_server_pipelined(kind, eb, cfg(window));
            for err in [client.err(), server.err()] {
                let err = err.unwrap_or_else(|| panic!("{kind} at window {window} is refused"));
                assert!(err.to_string().contains(&want), "{kind}: {err}");
            }
        }
        for kind in [DirectWriteSend, WriteRndv, ReadRndv] {
            let mut pair = echo_pipe(kind, cfg(1));
            assert_eq!(pair.client.call(b"abc").unwrap(), b"cba", "{kind}");
            drop(pair.client);
            pair.server.join().unwrap();
        }
    }

    #[test]
    fn ctrl_msg_roundtrip() {
        let rb = RemoteBuf { node_id: 1, rkey: 2, offset: 3, len: 4 };
        let m = ctrl_msg(CTS, 77, 9, Some(&rb));
        assert_eq!(m.len(), CTRL_MAX);
        assert_eq!(parse_ctrl(&m, CTS).unwrap(), (77, 9, Some(rb)));
        assert_eq!(parse_ctrl(&ctrl_msg(FIN, 0, 1, None), FIN).unwrap(), (0, 1, None));
        assert!(parse_ctrl(&ctrl_msg(FIN, 0, 1, None), CTS).is_err(), "wrong tag");
        assert!(parse_ctrl(&[1, 2], RTS).is_err(), "short message");
    }
}
