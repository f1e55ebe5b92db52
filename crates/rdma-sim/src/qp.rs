//! Queue pairs (endpoints): posting work requests and scheduling their
//! simulated costs.
//!
//! [`Endpoint`] is one side of a connected RC queue pair: its SENDs,
//! WRITEs, WRITE_WITH_IMMs and READs all reach the one peer it is connected
//! to, and a one-sided target on any other node is refused at post time.
//! `post_send` accepts a *chain* of work requests and charges exactly one
//! MMIO doorbell for the whole chain — faithfully modelling why the paper's
//! Chained-Write-Send protocol (Figure 3c) beats Direct-Write-Send: one
//! PCIe doorbell instead of two.
//!
//! That difference is 250 ns, so the charge must not be buried under the
//! simulator's own host work: `post_send` reads the clock on its first
//! line and its cost is a [`crate::node::Charge`] anchored there. The
//! caller gets control back at `entry + eff`, and the chain's wire schedule
//! starts at that instant too (`launch` is handed it; it reads no clock).
//! The chain reaches each node's effect queue in one push, as it reaches
//! the NIC in one doorbell: the peer's for its SENDs, WRITEs and
//! WRITE_WITH_IMMs, this node's for its READs' responses.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use crate::cost::CostModel;
use crate::cq::{Completion, CompletionQueue, CompletionStatus};
use crate::error::{RdmaError, Result};
use crate::memory::{MrInner, MrSlice, ProtectionDomain, RemoteBuf};
use crate::node::{EffectKind, ImmNotice, Node, Padded};
use crate::pool::PoolBuf;
use crate::stats::NodeStats;
use crate::time::now_ns;
use crate::wr::{Opcode, RecvWr, SendOp, SendPayload, SendWr, MAX_INLINE};

/// Receive queue depth of every queue pair (`ibv_qp_init_attr`'s
/// `max_recv_wr`): a `post_recv` past it fails with `QueueFull`. A
/// pipelined window posts one receive per slot, so this also bounds the
/// window.
pub const RECV_DEPTH: usize = 512;

/// Wire-size of the request header of an RDMA READ (the initiator sends
/// only a descriptor; the payload flows back).
const READ_REQUEST_BYTES: usize = 32;

pub(crate) struct EndpointInner {
    id: u64,
    node: Arc<Node>,
    peer_node: Arc<Node>,
    /// The connected peer, set once when the pair is wired.
    peer: OnceLock<Weak<EndpointInner>>,
    send_cq: CompletionQueue,
    recv_cq: CompletionQueue,
    recv_queue: Padded<Mutex<VecDeque<RecvWr>>>,
    /// Arrived messages waiting for a receive buffer (receiver-not-ready).
    /// Kept per endpoint and drained strictly FIFO when receives are
    /// posted: RC ordering means a stalled SEND must never be overtaken
    /// by a later one.
    rnr_backlog: Padded<Mutex<VecDeque<ArrivedMsg>>>,
    alive: AtomicBool,
    /// True once the QP has been flushed into the error state by fault
    /// injection; every later verb fails with [`RdmaError::QpError`].
    error: AtomicBool,
}

/// A delivered-but-unreceived message (see `rnr_backlog`).
pub(crate) struct ArrivedMsg {
    pub data: PoolBuf,
    pub imm: Option<u32>,
    pub byte_len: usize,
    pub opcode: Opcode,
}

impl Drop for EndpointInner {
    fn drop(&mut self) {
        // Dropping the last handle to one side tears down the connection:
        // the peer's polls and posts observe the disconnect.
        if let Some(peer) = self.peer.get().and_then(Weak::upgrade) {
            peer.go_down();
        }
    }
}

impl EndpointInner {
    #[allow(dead_code)]
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Mark this side disconnected and wake its receive CQ's notifiers, so
    /// a reactor serving it retires it even with nothing in flight.
    fn go_down(&self) {
        self.alive.store(false, Ordering::Release);
        self.recv_cq.inner.wake();
    }

    /// Push a completion to this endpoint's receive CQ.
    pub(crate) fn recv_cq_push(&self, ready_at: u64, completion: Completion) {
        self.recv_cq.inner.push(ready_at, completion);
    }

    /// Deliver an arrived message into a posted receive, or queue it in
    /// FIFO order behind earlier receiver-not-ready messages. Returns
    /// whether the message was delivered immediately.
    pub(crate) fn deliver_or_backlog(self: &Arc<Self>, msg: ArrivedMsg, ready_at: u64) -> bool {
        // Lock order: backlog before recv_queue, everywhere.
        let mut backlog = self.rnr_backlog.lock();
        if !backlog.is_empty() {
            backlog.push_back(msg);
            NodeStats::add(&self.node.stats().rnr_stalls, 1);
            return false;
        }
        let recv = self.recv_queue.lock().pop_front();
        match recv {
            Some(recv) => {
                drop(backlog);
                self.complete_into(recv, msg, ready_at);
                true
            }
            None => {
                backlog.push_back(msg);
                NodeStats::add(&self.node.stats().rnr_stalls, 1);
                false
            }
        }
    }

    /// After new receives are posted, drain any backlog in order.
    pub(crate) fn flush_backlog(self: &Arc<Self>) {
        loop {
            let mut backlog = self.rnr_backlog.lock();
            if backlog.is_empty() {
                return;
            }
            let Some(recv) = self.recv_queue.lock().pop_front() else { return };
            let msg = backlog.pop_front().expect("checked non-empty");
            drop(backlog);
            self.complete_into(recv, msg, crate::time::now_ns());
        }
    }

    /// Land a message in a receive buffer and complete it.
    fn complete_into(self: &Arc<Self>, recv: RecvWr, msg: ArrivedMsg, ready_at: u64) {
        let status = if msg.opcode == Opcode::Send {
            if msg.data.len() > recv.len {
                CompletionStatus::LocalLengthError
            } else {
                match recv.mr.write_raw(recv.offset, &msg.data) {
                    Ok(()) => CompletionStatus::Success,
                    Err(_) => CompletionStatus::LocalLengthError,
                }
            }
        } else {
            CompletionStatus::Success
        };
        self.recv_cq_push(
            ready_at,
            Completion {
                wr_id: recv.wr_id,
                opcode: msg.opcode,
                byte_len: msg.byte_len,
                imm: msg.imm,
                status,
                qp_id: self.id,
            },
        );
    }
}

/// One side of a connected queue pair, plus its CQs and PD.
#[derive(Clone)]
pub struct Endpoint {
    inner: Arc<EndpointInner>,
    pd: ProtectionDomain,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.inner.id)
            .field("node", &self.inner.node.name())
            .field("peer", &self.inner.peer_node.name())
            .finish()
    }
}

impl Endpoint {
    pub(crate) fn new(id: u64, node: Arc<Node>, peer_node: Arc<Node>) -> Endpoint {
        let send_cq = CompletionQueue::new(&node);
        let recv_cq = CompletionQueue::new(&node);
        let pd = ProtectionDomain::new(node.clone());
        Endpoint {
            inner: Arc::new(EndpointInner {
                id,
                node,
                peer_node,
                peer: OnceLock::new(),
                send_cq,
                recv_cq,
                recv_queue: Padded(Mutex::new(VecDeque::new())),
                rnr_backlog: Padded(Mutex::new(VecDeque::new())),
                alive: AtomicBool::new(true),
                error: AtomicBool::new(false),
            }),
            pd,
        }
    }

    pub(crate) fn wire_peers(a: &Endpoint, b: &Endpoint) {
        let wired = a.inner.peer.set(Arc::downgrade(&b.inner)).is_ok()
            && b.inner.peer.set(Arc::downgrade(&a.inner)).is_ok();
        assert!(wired, "an endpoint is wired to one peer");
    }

    /// Endpoint id (appears as `qp_id` in completions).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The protection domain for registering memory on this endpoint's node.
    pub fn pd(&self) -> &ProtectionDomain {
        &self.pd
    }

    /// The local node.
    pub fn node(&self) -> &Arc<Node> {
        &self.inner.node
    }

    /// The peer's node.
    pub fn peer_node(&self) -> &Arc<Node> {
        &self.inner.peer_node
    }

    /// Send-side completion queue.
    pub fn send_cq(&self) -> &CompletionQueue {
        &self.inner.send_cq
    }

    /// Receive-side completion queue.
    pub fn recv_cq(&self) -> &CompletionQueue {
        &self.inner.recv_cq
    }

    /// Mark the connection dead; the peer's subsequent posts fail with
    /// [`RdmaError::Disconnected`].
    pub fn close(&self) {
        self.inner.alive.store(false, Ordering::Release);
        if let Some(peer) = self.inner.peer.get().and_then(Weak::upgrade) {
            peer.go_down();
        }
    }

    /// Whether the connection is still up (both endpoints open and both
    /// nodes alive).
    pub fn is_alive(&self) -> bool {
        self.inner.alive.load(Ordering::Acquire)
            && self.inner.node.is_alive()
            && self.inner.peer_node.is_alive()
    }

    /// If this endpoint's own node or its peer's node has been killed
    /// (fault injection / [`crate::Fabric::kill_node`]), the dead node's
    /// name — lets waiters surface a typed [`RdmaError::QpError`] instead
    /// of a generic disconnect.
    pub fn fault_down(&self) -> Option<&str> {
        if !self.inner.node.is_alive() {
            Some(self.inner.node.name())
        } else if !self.inner.peer_node.is_alive() {
            Some(self.inner.peer_node.name())
        } else {
            None
        }
    }

    /// Post a receive work request.
    ///
    /// The modelled `post_recv_ns` is a [`crate::node::Charge`] anchored at
    /// the verb's entry: it covers the queue push, the backlog flush and
    /// the effect drain, and a rejected post charges nothing.
    pub fn post_recv(&self, wr: RecvWr) -> Result<()> {
        let entry = now_ns();
        if let Some(dead) = self.fault_down() {
            return Err(RdmaError::QpError(format!("node '{dead}' is down")));
        }
        if self.inner.error.load(Ordering::Acquire) {
            return Err(RdmaError::QpError("queue pair flushed to error state".into()));
        }
        wr.mr.check_range(wr.offset, wr.len)?;
        let node = &self.inner.node;
        {
            let mut q = self.inner.recv_queue.lock();
            if q.len() >= RECV_DEPTH {
                return Err(RdmaError::QueueFull("receive"));
            }
            q.push_back(wr);
        }
        NodeStats::add(&node.stats().recvs_posted, 1);
        let _charge = node.begin_charge_at(entry, node.config().cost.post_recv_ns);
        // Messages that arrived receiver-not-ready deliver now, in order.
        self.inner.flush_backlog();
        node.drain_effects();
        Ok(())
    }

    /// Post a chain of send-side work requests with a single doorbell.
    ///
    /// Every work request in the chain is posted in order; signaled ones
    /// produce completions on the send CQ. Returns an error without posting
    /// anything if any work request in the chain is invalid.
    ///
    /// The modelled CPU cost (one doorbell + per-WR posting + inline
    /// copies) is a [`crate::node::Charge`] anchored at the verb's *entry*:
    /// validation, resolution and scheduling are the host's rendition of
    /// the work being modelled, so they run inside the charged interval
    /// instead of before it. The call returns at `entry + eff` (later only
    /// if the host work alone outlasts the model), and the wire schedule
    /// starts from that same instant — the doorbell — so the peer sees the
    /// message at `entry + eff + wire` however long the host took. A chain
    /// rejected by validation or fault injection charges nothing.
    pub fn post_send(&self, chain: &[SendWr]) -> Result<()> {
        let entry = now_ns();
        if chain.is_empty() {
            return Err(RdmaError::InvalidWorkRequest("empty chain".into()));
        }
        if let Some(dead) = self.fault_down() {
            return Err(RdmaError::QpError(format!("node '{dead}' is down")));
        }
        if self.inner.error.load(Ordering::Acquire) {
            return Err(RdmaError::QpError("queue pair flushed to error state".into()));
        }
        if !self.is_alive() {
            return Err(RdmaError::Disconnected);
        }
        // The resolved chain and its effects live in per-thread vectors
        // that keep their capacity between posts: resolving once must not
        // cost an allocation per post on the hot pipelined path.
        POST_SCRATCH.with(|cell| {
            let mut scratch = cell.replace(PostScratch::new());
            let posted = self.post_chain(entry, chain, &mut scratch);
            scratch.resolved.clear();
            cell.set(scratch);
            posted
        })
    }

    /// [`Endpoint::post_send`] past its state checks: resolve every WR
    /// once, inject faults, charge, then schedule the chain whole and hand
    /// each node its effects under one lock.
    fn post_chain(&self, entry: u64, chain: &[SendWr], scratch: &mut PostScratch) -> Result<()> {
        let PostScratch { resolved, to_peer, to_self } = scratch;
        let node = &self.inner.node;
        let cost = &node.config().cost;

        // ---- resolve the whole chain up front -----------------------------
        // Everything that can fail happens here: bounds, keys, target
        // liveness, the connected peer, taking a staged payload. Scheduling
        // below then cannot fail, so a chain goes on the wire whole or not
        // at all.
        let mut cpu_ns = cost.doorbell_ns + cost.post_wr_ns * chain.len() as u64;
        let mut memcpys = 0u64;
        let checked = chain.iter().try_for_each(|wr| {
            let r = self.resolve(wr)?;
            if let Some(SendPayload::Inline(_)) = wr.op.payload() {
                cpu_ns += cost.memcpy_ns(r.wire_bytes);
                memcpys += 1;
            }
            resolved.push(r);
            Ok(())
        });
        if let Err(e) = checked.and_then(|()| self.inject_faults(chain.len())) {
            // A rejected chain keeps its staged payloads.
            for (wr, r) in chain.iter().zip(resolved.drain(..)) {
                if let Some(SendPayload::Staged(b)) = wr.op.payload() {
                    b.restore(r.data);
                }
            }
            return Err(e);
        }

        // ---- charge CPU: post + one doorbell for the chain --------------
        let charge = node.begin_charge_at(entry, cpu_ns);
        let doorbell_at = charge.end_ns();
        NodeStats::add(&node.stats().wrs_posted, chain.len() as u64);
        NodeStats::add(&node.stats().doorbells, 1);
        NodeStats::add(&node.stats().memcpys, memcpys);
        if hat_trace::enabled() {
            let call = hat_trace::current_call();
            let n = chain.len() as u64;
            hat_trace::event(hat_trace::Phase::WrPost, node.id(), call, n, doorbell_at);
            hat_trace::event(hat_trace::Phase::Doorbell, node.id(), call, 1, doorbell_at);
        }

        // ---- schedule wire activity -------------------------------------
        // A SEND, WRITE or WRITE_WITH_IMM lands on the peer, a READ's
        // response on this node: each node takes its share of the chain
        // in one push, in posting order.
        for (wr, r) in chain.iter().zip(resolved.drain(..)) {
            match (&wr.op, r) {
                (SendOp::Read { local, .. }, ResolvedWr { wire_bytes, target: Some(t), .. }) => {
                    to_self.push(self.launch_read(wr, local, t, wire_bytes, cost, doorbell_at));
                }
                (_, r) => to_peer.push(self.launch(wr, r, cost, doorbell_at)),
            }
        }
        self.inner.peer_node.push_effects(to_peer);
        node.push_effects(to_self);
        Ok(())
    }

    /// Fault injection: count the chain's WRs against the plan, which may
    /// flush this QP or kill its node.
    fn inject_faults(&self, wrs: usize) -> Result<()> {
        let node = &self.inner.node;
        let Some(faults) = node.faults() else { return Ok(()) };
        for _ in 0..wrs {
            match faults.on_wr_posted(self.inner.id) {
                crate::fault::WrFault::None => {}
                crate::fault::WrFault::FlushQp => {
                    self.inner.error.store(true, Ordering::Release);
                    NodeStats::add(&node.stats().qp_errors, 1);
                    return Err(RdmaError::QpError(format!(
                        "qp {} flushed to error by fault plan",
                        self.inner.id
                    )));
                }
                crate::fault::WrFault::KillNode => {
                    node.kill();
                    return Err(RdmaError::QpError(format!(
                        "node '{}' killed by fault plan",
                        node.name()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Validate one work request and bind everything its launch needs: the
    /// remote target and the payload (snapshotted at post time: the NIC DMAs
    /// from the source buffer once the WR reaches the head of the send
    /// queue, and protocols must not reuse it before the send completion
    /// anyway). A SEND or WRITE_WITH_IMM also checks that the connected
    /// peer endpoint is up, since it consumes one of its receives.
    fn resolve(&self, wr: &SendWr) -> Result<ResolvedWr> {
        let (payload, remote) = match &wr.op {
            SendOp::Send { payload } => (payload, None),
            SendOp::Write { payload, remote } | SendOp::WriteImm { payload, remote, .. } => {
                (payload, Some(remote))
            }
            SendOp::Read { local, remote } => {
                local.validate()?;
                if local.len != remote.len as usize {
                    return Err(RdmaError::InvalidWorkRequest(format!(
                        "READ local len {} != remote len {}",
                        local.len, remote.len
                    )));
                }
                let target = Some(self.resolve_remote(remote, local.len)?);
                return Ok(ResolvedWr { wire_bytes: local.len, data: PoolBuf::empty(), target });
            }
        };
        let len = match payload {
            SendPayload::Mr(s) => {
                s.validate()?;
                s.len
            }
            SendPayload::Inline(d) => d.len(),
            SendPayload::Staged(b) => b.len()?,
        };
        let target = remote.map(|remote| self.resolve_remote(remote, len)).transpose()?;
        if len > MAX_INLINE && matches!(payload, SendPayload::Inline(_)) {
            return Err(RdmaError::InlineTooLarge { len, max: MAX_INLINE });
        }
        if !matches!(wr.op, SendOp::Write { .. }) {
            self.check_peer()?;
        }
        // Snapshots live in pooled buffers: steady-state traffic recycles
        // them instead of allocating per message. A staged payload *is*
        // its snapshot and moves here without a copy.
        let data = match payload {
            SendPayload::Mr(s) => s.mr.read_pool_raw(s.offset, s.len)?,
            SendPayload::Inline(d) => PoolBuf::copy_from(d.as_slice()),
            SendPayload::Staged(b) => b.take()?,
        };
        Ok(ResolvedWr { wire_bytes: len, data, target })
    }

    /// Bind a one-sided target: a region in the connected peer's table.
    /// A descriptor naming any other node is refused as an unknown key
    /// would be — an RC queue pair reaches only its peer, and keys are
    /// numbered per node, so another node's key means nothing here.
    fn resolve_remote(&self, remote: &RemoteBuf, len: usize) -> Result<ResolvedRemote> {
        let peer_node = &self.inner.peer_node;
        if remote.node_id != peer_node.id() {
            return Err(RdmaError::InvalidRKey(remote.rkey));
        }
        let (mr, capacity) =
            peer_node.lookup_mr(remote.rkey).ok_or(RdmaError::InvalidRKey(remote.rkey))?;
        let offset = remote.offset as usize;
        crate::memory::bounds(offset, len, capacity)?;
        Ok(ResolvedRemote { mr, offset })
    }

    /// Schedule the wire-side of one resolved SEND, WRITE or
    /// WRITE_WITH_IMM from `t0`, the modelled instant the chain's doorbell
    /// rings, and return the effect it leaves on the peer: its deadline
    /// and kind.
    fn launch(&self, wr: &SendWr, r: ResolvedWr, cost: &CostModel, t0: u64) -> (u64, EffectKind) {
        let node = &self.inner.node;
        let peer_node = &self.inner.peer_node;
        let cfg = node.config();
        let ResolvedWr { wire_bytes: bytes, data, target } = r;

        // The receiving node counts `bytes_rx` (and, for the one-sided
        // kinds, `inbound_rdma`) when it applies the effect.
        let ser = cfg.scaled(cost.serialize_ns(bytes));
        let (es, ee) = node.egress().reserve_at(t0 + cfg.scaled(cost.nic_process_ns), ser);
        let (_, ie) = peer_node.ingress().reserve_at(es + cfg.scaled(cost.wire_latency_ns), ser);
        let deadline = ie + cfg.scaled(cost.nic_process_ns);
        let effect = match target {
            Some(ResolvedRemote { mr, offset }) => {
                NodeStats::add(&node.stats().outbound_rdma, 1);
                // One effect lands the payload, then delivers the
                // completion of a WRITE_WITH_IMM.
                let notice = match &wr.op {
                    SendOp::WriteImm { imm, .. } => {
                        Some(ImmNotice { ep: self.peer_ref(), imm: *imm, byte_len: bytes })
                    }
                    _ => None,
                };
                peer_node.write_effect(mr, offset, data, notice)
            }
            None => EffectKind::RecvDeliver { ep: self.peer_ref(), data },
        };

        NodeStats::add(&node.stats().bytes_tx, bytes as u64);

        // Wire-phase events: the egress link reservation and the remote
        // delivery deadline are known now, so the events are recorded
        // here with their scheduled (possibly future) timestamps. The
        // `Delivered` event lands on the *destination* node's track —
        // that is the far end of the exported flow arrow.
        if hat_trace::enabled() {
            let call = hat_trace::current_call();
            let peer = peer_node.id();
            hat_trace::event(hat_trace::Phase::NicTx, node.id(), call, bytes as u64, es);
            hat_trace::event(hat_trace::Phase::Wire, node.id(), call, bytes as u64, ee);
            hat_trace::event(hat_trace::Phase::Delivered, peer, call, bytes as u64, deadline);
        }

        if wr.signaled {
            // Local send completion: NIC finished pushing the message out.
            let ready = ee + cfg.scaled(cost.nic_process_ns);
            self.inner.send_cq.inner.push(
                ready,
                Completion {
                    wr_id: wr.wr_id,
                    opcode: wr.op.opcode(),
                    byte_len: bytes,
                    imm: None,
                    status: CompletionStatus::Success,
                    qp_id: self.inner.id,
                },
            );
        }
        (deadline, effect)
    }

    /// [`Endpoint::launch`] of an RDMA READ into `local`: a request
    /// descriptor out, the payload streamed back, one effect at the
    /// initiator, returned with its deadline.
    fn launch_read(
        &self,
        wr: &SendWr,
        local: &MrSlice,
        target: ResolvedRemote,
        bytes: usize,
        cost: &CostModel,
        t0: u64,
    ) -> (u64, EffectKind) {
        let node = &self.inner.node;
        let target_node = &self.inner.peer_node;
        let cfg = node.config();
        // Tiny request descriptor out...
        let (_, ee) = node.egress().reserve_at(
            t0 + cfg.scaled(cost.nic_process_ns),
            cfg.scaled(cost.serialize_ns(READ_REQUEST_BYTES)),
        );
        let req_arrive =
            ee + cfg.scaled(cost.wire_latency_ns) + cfg.scaled(cost.inbound_rdma_turnaround_ns);
        // ...payload streamed back on the target's egress link.
        let ser = cfg.scaled(cost.serialize_ns(bytes));
        let (rs, _) = target_node.egress().reserve_at(req_arrive, ser);
        let (_, ie) = node.ingress().reserve_at(rs + cfg.scaled(cost.wire_latency_ns), ser);
        let deadline = ie + cfg.scaled(cost.nic_process_ns);

        // The target's CPU never touches a READ, so its side is
        // counted here too, at post time.
        NodeStats::add(&node.stats().outbound_rdma, 1);
        NodeStats::add(&target_node.stats().inbound_rdma, 1);
        // Wire accounting is symmetric with the time model above: the
        // initiator transmits the request descriptor (its serialize
        // time is reserved on the egress link at `t0`), the target
        // receives it, then the payload streams back the other way.
        NodeStats::add(&node.stats().bytes_tx, READ_REQUEST_BYTES as u64);
        NodeStats::add(&target_node.stats().bytes_rx, READ_REQUEST_BYTES as u64);
        NodeStats::add(&node.stats().bytes_rx, bytes as u64);
        NodeStats::add(&target_node.stats().bytes_tx, bytes as u64);

        // The simulator knows the whole operation's schedule at post
        // time, so the wire-phase events carry their (future)
        // deadlines: request leaves the NIC at `ee`, the payload
        // finishes streaming back at `ie`, and the read data becomes
        // visible locally at `deadline`.
        if hat_trace::enabled() {
            let call = hat_trace::current_call();
            hat_trace::event(hat_trace::Phase::NicTx, node.id(), call, bytes as u64, ee);
            hat_trace::event(hat_trace::Phase::Wire, node.id(), call, bytes as u64, ie);
            hat_trace::event(hat_trace::Phase::Delivered, node.id(), call, bytes as u64, deadline);
        }

        let fetch = EffectKind::FetchRead {
            target_node: Arc::downgrade(target_node),
            target_mr: target.mr,
            target_offset: target.offset,
            len: bytes,
            local_mr: Arc::downgrade(&local.mr.inner),
            local_offset: local.offset,
            cq: self.inner.send_cq.downgrade(),
            wr_id: wr.wr_id,
            qp_id: self.inner.id,
            signaled: wr.signaled,
        };
        (deadline, fetch)
    }

    /// Check that the connected peer endpoint and its node are up. Read
    /// from this side, touching no count of the peer's: its node is
    /// `peer_node`, and a peer that closes or drops takes this side down
    /// with it (`go_down`).
    fn check_peer(&self) -> Result<()> {
        let peer = self.inner.peer.get().ok_or(RdmaError::Disconnected)?;
        if peer.strong_count() == 0 {
            return Err(RdmaError::Disconnected);
        }
        let node = &self.inner.peer_node;
        if !node.is_alive() {
            return Err(RdmaError::QpError(format!("peer node '{}' is down", node.name())));
        }
        if !self.inner.alive.load(Ordering::Acquire) {
            return Err(RdmaError::Disconnected);
        }
        Ok(())
    }

    /// The weak reference to the connected peer an arriving message holds.
    fn peer_ref(&self) -> Weak<EndpointInner> {
        self.inner.peer.get().cloned().unwrap_or_default()
    }
}

thread_local! {
    /// [`Endpoint::post_send`]'s vectors, kept for their capacity.
    static POST_SCRATCH: Cell<PostScratch> = const { Cell::new(PostScratch::new()) };
}

/// A chain being posted: its resolved work requests, then the effects it
/// leaves on the peer and on this node, each `(deadline, kind)` in posting
/// order. Empty between posts.
struct PostScratch {
    resolved: Vec<ResolvedWr>,
    to_peer: Vec<(u64, EffectKind)>,
    to_self: Vec<(u64, EffectKind)>,
}

impl PostScratch {
    const fn new() -> PostScratch {
        PostScratch { resolved: Vec::new(), to_peer: Vec::new(), to_self: Vec::new() }
    }
}

/// One work request, validated and bound by [`Endpoint::resolve`].
struct ResolvedWr {
    wire_bytes: usize,
    /// The payload snapshot of a SEND, WRITE or WRITE_WITH_IMM; empty for
    /// a READ.
    data: PoolBuf,
    /// The remote target of a one-sided operation.
    target: Option<ResolvedRemote>,
}

/// A region in the connected peer's table, and the offset into it.
struct ResolvedRemote {
    mr: Weak<MrInner>,
    offset: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SimConfig;
    use crate::cq::PollMode;
    use crate::fabric::Fabric;
    use crate::memory::{MemoryRegion, MrSlice};

    fn pair() -> (Fabric, Endpoint, Endpoint) {
        let f = Fabric::new(SimConfig::fast_test());
        let a = f.add_node("a");
        let b = f.add_node("b");
        let (ea, eb) = f.connect(&a, &b).unwrap();
        (f, ea, eb)
    }

    #[test]
    fn send_recv_roundtrip() {
        let (_f, c, s) = pair();
        let smr = s.pd().register(128).unwrap();
        s.post_recv(RecvWr::new(10, smr.clone(), 0, 128)).unwrap();
        let cmr = c.pd().register_with(b"ping").unwrap();
        c.post_send(&[SendWr::send(1, cmr.slice(0, 4)).signaled()]).unwrap();
        assert_eq!(c.send_cq().poll_one(PollMode::Busy).unwrap().wr_id, 1);
        let rc = s.recv_cq().poll_one(PollMode::Busy).unwrap();
        assert_eq!(rc.wr_id, 10);
        assert_eq!(rc.byte_len, 4);
        assert_eq!(smr.read_vec(0, 4).unwrap(), b"ping");
    }

    #[test]
    fn inline_send_works_and_respects_limit() {
        let (_f, c, s) = pair();
        let smr = s.pd().register(512).unwrap();
        s.post_recv(RecvWr::new(0, smr.clone(), 0, 512)).unwrap();
        c.post_send(&[SendWr::send_inline(1, b"tiny")]).unwrap();
        s.recv_cq().poll_one(PollMode::Busy).unwrap();
        assert_eq!(smr.read_vec(0, 4).unwrap(), b"tiny");

        let big = vec![0u8; 4096];
        let err = c.post_send(&[SendWr::send_inline(2, &big)]).unwrap_err();
        assert!(matches!(err, RdmaError::InlineTooLarge { .. }));
    }

    #[test]
    fn one_sided_write_is_invisible_to_peer_cpu_but_lands() {
        let (_f, c, s) = pair();
        let smr = s.pd().register(64).unwrap();
        let rb = smr.remote_buf(0, 64);
        c.post_send(&[SendWr::write_inline(1, b"dma!", rb).signaled()]).unwrap();
        c.send_cq().poll_one(PollMode::Busy).unwrap();
        // No recv CQ activity at the server.
        assert!(s.recv_cq().try_poll().is_none());
        // But the bytes become visible (read drains effects once due).
        let deadline = crate::time::now_ns() + 50_000_000;
        loop {
            if smr.read_vec(0, 4).unwrap() == b"dma!" {
                break;
            }
            assert!(crate::time::now_ns() < deadline, "write never became visible");
        }
    }

    #[test]
    fn write_imm_consumes_recv_and_carries_imm() {
        let (_f, c, s) = pair();
        let smr = s.pd().register(64).unwrap();
        let scratch = s.pd().register(1).unwrap();
        s.post_recv(RecvWr::new(9, scratch, 0, 0)).unwrap();
        let rb = smr.remote_buf(0, 64);
        c.post_send(&[SendWr::write_imm_inline(1, b"imm", rb, 0xfeed)]).unwrap();
        let rc = s.recv_cq().poll_one(PollMode::Busy).unwrap();
        assert_eq!(rc.imm, Some(0xfeed));
        assert_eq!(rc.opcode, Opcode::WriteImm);
        assert_eq!(rc.byte_len, 3);
        // Payload already visible at completion time.
        assert_eq!(smr.read_vec(0, 3).unwrap(), b"imm");
    }

    #[test]
    fn rdma_read_fetches_remote_content() {
        let (_f, c, s) = pair();
        let smr = s.pd().register_with(b"server-secret").unwrap();
        let cmr = c.pd().register(13).unwrap();
        let rb = smr.remote_buf(0, 13);
        c.post_send(&[SendWr::read(5, cmr.slice(0, 13), rb).signaled()]).unwrap();
        let comp = c.send_cq().poll_one(PollMode::Busy).unwrap();
        assert_eq!(comp.wr_id, 5);
        assert_eq!(comp.opcode, Opcode::Read);
        assert_eq!(cmr.read_vec(0, 13).unwrap(), b"server-secret");
    }

    /// Pins the READ cost model: the initiator is charged the request
    /// descriptor on the wire (`bytes_tx`) and the target receives it
    /// (`bytes_rx`), the payload is charged the other way, and the send
    /// completion lands only after the response has finished streaming
    /// back — at minimum request serialize + wire + target turnaround +
    /// payload serialize + wire + NIC processing on both ends.
    #[test]
    fn read_charges_request_header_and_completes_after_response_streams() {
        let f = Fabric::new(SimConfig::default());
        let a = f.add_node("initiator");
        let b = f.add_node("target");
        let (c, s) = f.connect(&a, &b).unwrap();
        const LEN: usize = 125_000; // 10 us of line time at 12.5 B/ns
        let smr = s.pd().register(LEN).unwrap();
        smr.write(0, &vec![7u8; LEN]).unwrap();
        let cmr = c.pd().register(LEN).unwrap();

        let before_i = a.stats_snapshot();
        let before_t = b.stats_snapshot();
        let t0 = crate::time::now_ns();
        c.post_send(&[SendWr::read(1, cmr.slice(0, LEN), smr.remote_buf(0, LEN)).signaled()])
            .unwrap();
        let comp = c.send_cq().poll_timeout(PollMode::Busy, 1_000_000_000).unwrap();
        let elapsed = crate::time::now_ns() - t0;
        assert_eq!(comp.wr_id, 1);
        assert_eq!(cmr.read_vec(0, 8).unwrap(), vec![7u8; 8]);

        let di = a.stats_snapshot() - before_i;
        let dt = b.stats_snapshot() - before_t;
        assert_eq!(di.bytes_tx, READ_REQUEST_BYTES as u64, "initiator pays the request header");
        assert_eq!(di.bytes_rx, LEN as u64, "initiator receives the payload");
        assert_eq!(dt.bytes_rx, READ_REQUEST_BYTES as u64, "target receives the request header");
        assert_eq!(dt.bytes_tx, LEN as u64, "target streams the payload back");
        assert_eq!((di.outbound_rdma, dt.inbound_rdma), (1, 1));

        let cost = &f.config().cost;
        let floor = cost.nic_process_ns
            + cost.serialize_ns(READ_REQUEST_BYTES)
            + cost.wire_latency_ns
            + cost.inbound_rdma_turnaround_ns
            + cost.serialize_ns(LEN)
            + cost.wire_latency_ns
            + cost.nic_process_ns;
        assert!(
            elapsed >= floor,
            "completion after {elapsed} ns; the round trip takes at least {floor} ns"
        );
    }

    #[test]
    fn read_with_bad_rkey_fails_at_post() {
        let (_f, c, _s) = pair();
        let cmr = c.pd().register(8).unwrap();
        let bogus = RemoteBuf { node_id: 999, rkey: 424242, offset: 0, len: 8 };
        let err = c.post_send(&[SendWr::read(1, cmr.slice(0, 8), bogus)]).unwrap_err();
        assert!(matches!(err, RdmaError::InvalidRKey(_)));
    }

    /// Regression for the RC-ordering bug behind the engine's preamble/
    /// handshake corruption: a SEND stalled on receiver-not-ready must
    /// not be overtaken by a later SEND once receives are posted.
    #[test]
    fn rnr_stalled_sends_preserve_fifo_order() {
        let (_f, c, s) = pair();
        let cmr = c.pd().register_with(b"first-messagesecond-msg!").unwrap();
        // Two sends, no receives posted yet.
        c.post_send(&[SendWr::send(1, cmr.slice(0, 13))]).unwrap();
        c.post_send(&[SendWr::send(2, cmr.slice(13, 11))]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let _ = s.recv_cq().try_poll(); // drain arrivals into the backlog
                                        // Post receives; backlog must drain strictly in order.
        let ring = s.pd().register(64).unwrap();
        s.post_recv(RecvWr::new(10, ring.clone(), 0, 32)).unwrap();
        s.post_recv(RecvWr::new(11, ring.clone(), 32, 32)).unwrap();
        let c1 = s.recv_cq().poll_timeout(PollMode::Busy, 1_000_000_000).unwrap();
        let c2 = s.recv_cq().poll_timeout(PollMode::Busy, 1_000_000_000).unwrap();
        assert_eq!((c1.wr_id, c1.byte_len), (10, 13));
        assert_eq!((c2.wr_id, c2.byte_len), (11, 11));
        assert_eq!(ring.read_vec(0, 13).unwrap(), b"first-message");
        assert_eq!(ring.read_vec(32, 11).unwrap(), b"second-msg!");
    }

    #[test]
    fn send_without_posted_recv_stalls_then_delivers() {
        let (_f, c, s) = pair();
        let cmr = c.pd().register_with(b"late").unwrap();
        c.post_send(&[SendWr::send(1, cmr.slice(0, 4))]).unwrap();
        // Give the message time to "arrive" with no recv posted.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let smr = s.pd().register(16).unwrap();
        // Poking the node (via try_poll) triggers the RNR retry path.
        let _ = s.recv_cq().try_poll();
        s.post_recv(RecvWr::new(3, smr.clone(), 0, 16)).unwrap();
        let rc = s.recv_cq().poll_timeout(PollMode::Busy, 1_000_000_000).unwrap();
        assert_eq!(rc.wr_id, 3);
        assert!(s.node().stats_snapshot().rnr_stalls >= 1);
    }

    #[test]
    fn oversized_send_completes_with_length_error() {
        let (_f, c, s) = pair();
        let smr = s.pd().register(2).unwrap();
        s.post_recv(RecvWr::new(1, smr, 0, 2)).unwrap();
        let cmr = c.pd().register_with(b"way too big").unwrap();
        c.post_send(&[SendWr::send(2, cmr.slice(0, 11))]).unwrap();
        let rc = s.recv_cq().poll_one(PollMode::Busy).unwrap();
        assert_eq!(rc.status, CompletionStatus::LocalLengthError);
    }

    #[test]
    fn chained_posts_ring_one_doorbell_vs_two() {
        let (_f, c, s) = pair();
        let smr = s.pd().register(64).unwrap();
        let rb = smr.remote_buf(0, 64);
        let before = c.node().stats_snapshot();
        c.post_send(&[
            SendWr::write_inline(1, b"one", rb),
            SendWr::write_inline(2, b"two", rb.sub(8, 8)),
        ])
        .unwrap();
        let chained = c.node().stats_snapshot() - before;
        assert_eq!(chained.doorbells, 1);
        assert_eq!(chained.wrs_posted, 2);
        c.post_send(&[SendWr::write_inline(3, b"x", rb)]).unwrap();
        c.post_send(&[SendWr::write_inline(4, b"y", rb)]).unwrap();
        let total = c.node().stats_snapshot() - before;
        assert_eq!(total.doorbells, 3);
        assert_eq!(total.wrs_posted, 4);
    }

    /// A staged payload moves onto the wire: the bytes land, the second
    /// post of the same work request is a typed error, and a request whose
    /// chain fails validation keeps its buffer and returns it to the pool.
    /// (The 256 KiB size class is this test's alone, so the LIFO free list
    /// tells where each buffer went.)
    #[test]
    fn staged_write_posts_once_and_never_leaks_its_buffer() {
        const LEN: usize = 200_000;
        let (_f, c, s) = pair();
        let smr = s.pd().register(LEN).unwrap();
        let rb = smr.remote_buf(0, LEN);

        let mut staged = PoolBuf::for_overwrite(LEN);
        staged.fill(0x5A);
        let storage = staged.as_ptr();
        let wr = SendWr::write_staged(1, staged, rb).signaled();
        c.post_send(std::slice::from_ref(&wr)).unwrap();
        c.send_cq().poll_timeout(PollMode::Busy, 1_000_000_000).unwrap();
        let landed = |mr: &MemoryRegion| mr.with_bytes(0, LEN, |b| b.iter().all(|&x| x == 0x5A));
        while !landed(&smr).unwrap() {
            std::thread::yield_now();
        }
        let err = c.post_send(std::slice::from_ref(&wr)).unwrap_err();
        assert!(matches!(err, RdmaError::InvalidWorkRequest(_)), "second post: {err:?}");
        // The applied effect released the storage; nothing else holds it.
        assert_eq!(PoolBuf::for_overwrite(LEN).as_ptr(), storage);

        // A chain that fails validation posts nothing and consumes nothing.
        let staged = PoolBuf::for_overwrite(LEN);
        let storage = staged.as_ptr();
        let bogus = RemoteBuf { node_id: 999, rkey: 424242, offset: 0, len: 8 };
        let chain = [SendWr::write_staged(2, staged, rb), SendWr::write_inline(3, b"x", bogus)];
        let before = c.node().stats_snapshot().wrs_posted;
        assert!(matches!(c.post_send(&chain), Err(RdmaError::InvalidRKey(_))));
        assert_eq!(c.node().stats_snapshot().wrs_posted, before);
        match &chain[0].op {
            SendOp::Write { payload, .. } => assert_eq!(payload.len(), LEN, "still staged"),
            other => panic!("unexpected op {other:?}"),
        }
        drop(chain);
        assert_eq!(PoolBuf::for_overwrite(LEN).as_ptr(), storage, "dropped WR returns its buffer");
    }

    #[test]
    fn empty_chain_is_rejected() {
        let (_f, c, _s) = pair();
        assert!(matches!(c.post_send(&[]), Err(RdmaError::InvalidWorkRequest(_))));
    }

    #[test]
    fn recv_queue_depth_is_enforced() {
        let (_f, ea, _eb) = pair();
        let mr = ea.pd().register(8).unwrap();
        for i in 0..RECV_DEPTH {
            ea.post_recv(RecvWr::new(i as u64, mr.clone(), 0, 8)).unwrap();
        }
        assert_eq!(
            ea.post_recv(RecvWr::new(RECV_DEPTH as u64, mr, 0, 8)).unwrap_err(),
            RdmaError::QueueFull("receive")
        );
    }

    #[test]
    fn closed_endpoint_rejects_posts() {
        let (_f, c, s) = pair();
        s.close();
        let err = c.post_send(&[SendWr::send_inline(1, b"x")]).unwrap_err();
        assert_eq!(err, RdmaError::Disconnected);
        assert!(!c.is_alive());
    }

    #[test]
    fn fault_plan_flushes_qp_after_n_wrs() {
        let plan = crate::fault::FaultPlan::new(7)
            .flush_qp_after(crate::fault::FaultScope::Node("a".into()), 2);
        let f = Fabric::new(SimConfig::fast_test().with_fault_plan(plan));
        let a = f.add_node("a");
        let b = f.add_node("b");
        let (ea, eb) = f.connect(&a, &b).unwrap();
        let smr = eb.pd().register(256).unwrap();
        for i in 0..4 {
            eb.post_recv(RecvWr::new(i, smr.clone(), (i as usize) * 32, 32)).unwrap();
        }

        // First two WRs go through, the third flushes the QP to error.
        ea.post_send(&[SendWr::send_inline(1, b"one")]).unwrap();
        ea.post_send(&[SendWr::send_inline(2, b"two")]).unwrap();
        let err = ea.post_send(&[SendWr::send_inline(3, b"three")]).unwrap_err();
        assert!(matches!(err, RdmaError::QpError(_)), "got {err:?}");
        // The error state is sticky.
        assert!(matches!(
            ea.post_send(&[SendWr::send_inline(4, b"four")]),
            Err(RdmaError::QpError(_))
        ));
        assert_eq!(a.stats_snapshot().qp_errors, 1);
        // The node itself is still alive; only this QP is flushed.
        assert!(a.is_alive());
    }

    #[test]
    fn fault_plan_kills_node_after_n_wrs() {
        let plan = crate::fault::FaultPlan::new(9)
            .kill_node_after(crate::fault::FaultScope::Node("a".into()), 1);
        let f = Fabric::new(SimConfig::fast_test().with_fault_plan(plan));
        let a = f.add_node("a");
        let b = f.add_node("b");
        let (ea, eb) = f.connect(&a, &b).unwrap();
        let smr = eb.pd().register(64).unwrap();
        eb.post_recv(RecvWr::new(0, smr, 0, 64)).unwrap();

        ea.post_send(&[SendWr::send_inline(1, b"ok")]).unwrap();
        let err = ea.post_send(&[SendWr::send_inline(2, b"boom")]).unwrap_err();
        assert!(matches!(err, RdmaError::QpError(_)), "got {err:?}");
        assert!(!a.is_alive());
        // The surviving side sees the peer node as down.
        assert_eq!(eb.fault_down(), Some("a"));
        assert!(matches!(
            eb.post_send(&[SendWr::send_inline(3, b"x")]),
            Err(RdmaError::QpError(_))
        ));
    }

    #[test]
    fn read_from_dead_target_fails_typed() {
        let (f, c, s) = pair();
        let smr = s.pd().register(128).unwrap();
        let rb = smr.remote_buf(0, 128);
        let cmr = c.pd().register(128).unwrap();
        f.kill_node("b").unwrap();
        let err = c.post_send(&[SendWr::read(1, cmr.slice(0, 128), rb).signaled()]).unwrap_err();
        assert!(matches!(err, RdmaError::QpError(_)), "got {err:?}");
    }

    /// Posts one 32-WR chain (31 × 16 KiB WRITE + one 16 KiB WRITE_WITH_IMM,
    /// all from a registered region, so the charge holds no inline copy)
    /// `RUNS` times on a fabric with `cost`, from a NIC-local thread on
    /// idle links. Returns the modelled `eff` of one post, the shortest
    /// `post_send`, the shortest lag of the peer's completion behind
    /// `before + eff + wire` (`before` read just ahead of the call), and the
    /// poster's stats delta. Minima, because a descheduled run says nothing
    /// about the rule.
    fn post_chains(cost: CostModel) -> (u64, u64, u64, crate::stats::NodeStatsSnapshot) {
        const RUNS: u64 = 5;
        const WRS: usize = 32;
        const LEN: usize = 16 << 10;
        let _nic_local = crate::numa::bind_current_thread(0);
        let f = Fabric::new(SimConfig { cost, ..SimConfig::default() });
        let (a, b) = (f.add_node("a"), f.add_node("b"));
        let (c, s) = f.connect(&a, &b).unwrap();
        let cost = &f.config().cost;
        let eff = cost.doorbell_ns + cost.post_wr_ns * WRS as u64;
        let wire =
            2 * cost.nic_process_ns + WRS as u64 * cost.serialize_ns(LEN) + cost.wire_latency_ns;

        let src = c.pd().register(LEN).unwrap();
        let dst = s.pd().register(LEN).unwrap();
        let rb = dst.remote_buf(0, LEN);
        let scratch = s.pd().register(1).unwrap();
        for i in 0..RUNS {
            s.post_recv(RecvWr::new(i, scratch.clone(), 0, 0)).unwrap();
        }
        let mut chain: Vec<SendWr> =
            (1..WRS as u64).map(|i| SendWr::write(i, src.slice(0, LEN), rb)).collect();
        chain.push(SendWr::write_imm(WRS as u64, src.slice(0, LEN), rb, 7));

        let stats0 = a.stats_snapshot();
        let (mut min_post, mut min_lag) = (u64::MAX, u64::MAX);
        for _ in 0..RUNS {
            let before = now_ns();
            c.post_send(&chain).unwrap();
            let posted = now_ns() - before;
            assert!(posted >= eff, "post_send returned {posted} ns in, before entry + {eff}");
            let due = before + eff + wire;
            let seen = loop {
                if let Some(comp) = s.recv_cq().try_poll() {
                    assert_eq!(comp.imm, Some(7));
                    break now_ns();
                }
            };
            assert!(seen >= due, "completion seen {} ns before it was due", due - seen);
            min_post = min_post.min(posted);
            min_lag = min_lag.min(seen - due);
        }
        (eff, min_post, min_lag, a.stats_snapshot() - stats0)
    }

    /// The rule: a post's modelled cost is a deadline from the verb's
    /// entry. With a 200 µs doorbell a 32-WR chain returns at `entry + eff`
    /// and its last completion is pollable at the peer at `entry + eff +
    /// wire` — the host work of validating, snapshotting and scheduling
    /// 512 KiB (measured by the same chain on a zero-cost model) is inside
    /// the charged interval, not in front of it — and `cpu_busy_ns` grows by
    /// exactly `eff` per post.
    #[test]
    fn post_send_returns_at_entry_plus_eff_and_the_wire_starts_there() {
        let free = CostModel { doorbell_ns: 0, post_wr_ns: 0, ..CostModel::default() };
        let (zero, host, _, _) = post_chains(free);
        assert_eq!(zero, 0);

        let (eff, post, lag, stats) =
            post_chains(CostModel { doorbell_ns: 200_000, ..CostModel::default() });
        assert_eq!(eff, 200_000 + 32 * 80);
        assert!(
            post - eff < host / 2,
            "post_send took eff + {} ns; the chain's host work alone is {host} ns and must be \
             absorbed by the charge, not added to it",
            post - eff
        );
        assert!(
            lag < host / 2,
            "peer completion {lag} ns behind entry + eff + wire (host work {host} ns)"
        );
        assert_eq!(stats.cpu_busy_ns, 5 * eff, "accounting is exactly eff per post");
        assert_eq!((stats.doorbells, stats.wrs_posted, stats.memcpys), (5, 5 * 32, 0));
    }

    /// A chain rejected by validation (inline cap, bad rkey), by fault
    /// injection (the post that trips a flush) or by a flushed QP returns
    /// without opening a charge: nothing accounted, and none of the four
    /// waits out the 20 ms doorbell.
    #[test]
    fn rejected_posts_charge_nothing() {
        let plan = crate::fault::FaultPlan::new(3)
            .flush_qp_after(crate::fault::FaultScope::Node("a".into()), 0);
        let cost = CostModel { doorbell_ns: 20_000_000, ..CostModel::default() };
        let f = Fabric::new(SimConfig { cost, ..SimConfig::default() }.with_fault_plan(plan));
        let (a, b) = (f.add_node("a"), f.add_node("b"));
        let (c, s) = f.connect(&a, &b).unwrap();
        let smr = s.pd().register(8192).unwrap();
        let rb = smr.remote_buf(0, 8192);
        let bogus = RemoteBuf { node_id: 999, rkey: 424242, offset: 0, len: 8 };

        let stats0 = a.stats_snapshot();
        let t0 = now_ns();
        let too_big = c.post_send(&[SendWr::write_inline(1, &[0u8; 4096], rb)]);
        assert!(matches!(too_big, Err(RdmaError::InlineTooLarge { .. })));
        let bad_rkey =
            c.post_send(&[SendWr::write_inline(2, b"x", rb), SendWr::write_inline(3, b"y", bogus)]);
        assert!(matches!(bad_rkey, Err(RdmaError::InvalidRKey(_))));
        let flushing = c.post_send(&[SendWr::write_inline(4, b"x", rb)]);
        assert!(matches!(flushing, Err(RdmaError::QpError(_))), "the plan flushes on the first WR");
        let flushed = c.post_send(&[SendWr::write_inline(5, b"x", rb)]);
        assert!(matches!(flushed, Err(RdmaError::QpError(_))), "the error state is sticky");
        let took = now_ns() - t0;

        let stats = a.stats_snapshot() - stats0;
        assert_eq!(
            (stats.cpu_busy_ns, stats.doorbells, stats.wrs_posted, stats.memcpys),
            (0, 0, 0, 0)
        );
        assert!(
            took < 20_000_000,
            "four rejected posts took {took} ns: one of them rang a doorbell"
        );
    }

    #[test]
    fn larger_messages_take_longer() {
        let (_f, c, s) = pair();
        let smr = s.pd().register(1 << 20).unwrap();
        let rb = smr.remote_buf(0, 1 << 20);
        let small = c.pd().register(64).unwrap();
        let large = c.pd().register(512 * 1024).unwrap();

        // Best of 5 each: the link time is a floor, a descheduling is not.
        let best = |slice: MrSlice| {
            (0..5)
                .map(|i| {
                    let t0 = now_ns();
                    c.post_send(&[SendWr::write(i, slice.clone(), rb).signaled()]).unwrap();
                    c.send_cq().poll_one(PollMode::Busy).unwrap();
                    now_ns() - t0
                })
                .min()
                .expect("five samples")
        };
        let t_small = best(small.slice(0, 64));
        let t_large = best(large.slice(0, 512 * 1024));
        assert!(t_large > t_small * 4, "512KB ({t_large}ns) should dwarf 64B ({t_small}ns)");
    }
}
