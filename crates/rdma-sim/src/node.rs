//! Simulated cluster nodes: links, CPU accounting, and the pending-effect
//! queue that realizes deferred memory visibility.
//!
//! A [`Node`] models one machine of the paper's 10-node testbed: a NIC with
//! an egress and an ingress link (100 Gbps each way), a NUMA topology, a
//! core count, and statistics. The node also owns the *pending-effect
//! queue*: simulated operations targeting this node land here with a
//! deadline, and are applied in deadline order by whichever thread next
//! observes the node (a CQ poll or a memory access). See the crate docs for
//! the full model.
//!
//! CPU accounting has one primitive, [`Charge`]: a modelled cost is opened
//! at the entry of the host work it stands for ([`Node::begin_charge`],
//! [`Node::begin_charge_at`]) and closed by dropping the guard after that
//! work, which waits out only what is left of `[start, start + eff)`.
//! Every charge site in the workspace — `post_send`, `post_recv`, CQE
//! consumption, memcpys, registration, connects, the IPoIB syscalls — goes
//! through it; nothing does its work first and spins for the cost after.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::cost::SimConfig;
use crate::cq::{Completion, CompletionStatus, CqInner};
use crate::fault::NodeFaults;
use crate::memory::MrInner;
use crate::numa::{numa_penalty, NumaTopology};
use crate::pool::PoolBuf;
use crate::qp::EndpointInner;
use crate::stats::{NodeStats, NodeStatsSnapshot};
use crate::time::{now_ns, spin_until};
use crate::wr::Opcode;

/// One direction of a NIC link with an atomic busy-until reservation.
///
/// Serialization time is reserved with a CAS loop, which makes bandwidth a
/// genuinely shared, contended resource: concurrent senders to one server
/// queue up on the server's ingress link exactly as fan-in congestion does
/// on a real switch port.
#[derive(Debug, Default)]
pub struct Link {
    busy_until: AtomicU64,
}

impl Link {
    /// Reserve `dur` ns of link time starting no earlier than `min_start`.
    /// Returns `(start, end)` of the granted slot.
    pub fn reserve_at(&self, min_start: u64, dur: u64) -> (u64, u64) {
        let mut cur = self.busy_until.load(Ordering::Relaxed);
        loop {
            let start = cur.max(min_start);
            let end = start + dur;
            match self.busy_until.compare_exchange_weak(
                cur,
                end,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return (start, end),
                Err(actual) => cur = actual,
            }
        }
    }

    /// The timestamp until which the link is currently reserved.
    pub fn busy_until(&self) -> u64 {
        self.busy_until.load(Ordering::Relaxed)
    }
}

/// A deferred simulated effect: something that "arrives" at this node at
/// `deadline` and mutates simulator state when applied.
pub(crate) struct PendingEffect {
    pub deadline: u64,
    pub seq: u64,
    pub kind: EffectKind,
}

impl PartialEq for PendingEffect {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for PendingEffect {}
impl PartialOrd for PendingEffect {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingEffect {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// What a pending effect does when its deadline passes.
pub(crate) enum EffectKind {
    /// An RDMA WRITE payload becoming visible in a registered region.
    MemWrite { mr: Weak<MrInner>, offset: usize, data: PoolBuf },
    /// A SEND (or the completion half of WRITE_WITH_IMM) arriving at an
    /// endpoint: consumes a posted receive and completes on the recv CQ.
    /// `data` is written into the receive buffer for plain SENDs and is
    /// empty for WRITE_WITH_IMM (whose payload was a separate `MemWrite`).
    RecvDeliver {
        ep: Weak<EndpointInner>,
        data: PoolBuf,
        imm: Option<u32>,
        byte_len: usize,
        opcode: Opcode,
    },
    /// An atomic (CAS / fetch-add) completing: read-modify-write the
    /// target word, land the old value locally, complete on the initiator
    /// CQ.
    AtomicOp {
        target_node: Weak<Node>,
        target_mr: Weak<MrInner>,
        target_offset: usize,
        /// `Some((compare, swap))` for CAS; `None` for fetch-and-add.
        compare_swap: Option<(u64, u64)>,
        /// Addend for fetch-and-add (ignored for CAS).
        add: u64,
        local_mr: Weak<MrInner>,
        local_offset: usize,
        cq: Weak<CqInner>,
        wr_id: u64,
        qp_id: u64,
        signaled: bool,
        opcode: Opcode,
    },
    /// An RDMA READ response landing: fetch from the (remote) target region
    /// now, place into the local slice, and complete on the initiator CQ.
    FetchRead {
        target_node: Weak<Node>,
        target_mr: Weak<MrInner>,
        target_offset: usize,
        len: usize,
        local_mr: Weak<MrInner>,
        local_offset: usize,
        cq: Weak<CqInner>,
        wr_id: u64,
        qp_id: u64,
        signaled: bool,
    },
}

/// A simulated machine in the fabric.
pub struct Node {
    id: u64,
    name: String,
    config: Arc<SimConfig>,
    topology: NumaTopology,
    egress: Link,
    ingress: Link,
    /// Deferred effects targeting this node, ordered by deadline.
    pending: Mutex<BinaryHeap<Reverse<PendingEffect>>>,
    /// Serializes effect application so drains from different threads
    /// cannot interleave out of deadline order.
    apply_lock: Mutex<()>,
    /// rkey -> region, for resolving one-sided targets.
    mrs: Mutex<HashMap<u64, Weak<MrInner>>>,
    stats: NodeStats,
    /// Threads currently burning simulated CPU on this node.
    spinners: AtomicU32,
    seq: AtomicU64,
    /// False once the node has been killed (fault injection or
    /// [`crate::Fabric::kill_node`]). Dead nodes reject verbs and stop
    /// delivering pending effects.
    alive: AtomicBool,
    /// Fault-injection runtime state; `None` when the plan is empty.
    faults: Option<NodeFaults>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node").field("id", &self.id).field("name", &self.name).finish()
    }
}

impl Node {
    pub(crate) fn new(id: u64, name: String, config: Arc<SimConfig>) -> Arc<Node> {
        let topology =
            NumaTopology::new(config.cores_per_node, config.numa_nodes, config.nic_numa_node);
        let faults = NodeFaults::from_plan(&config.fault, &name);
        Arc::new(Node {
            id,
            name,
            config,
            topology,
            egress: Link::default(),
            ingress: Link::default(),
            pending: Mutex::new(BinaryHeap::new()),
            apply_lock: Mutex::new(()),
            mrs: Mutex::new(HashMap::new()),
            stats: NodeStats::default(),
            spinners: AtomicU32::new(0),
            seq: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            faults,
        })
    }

    /// Fabric-unique node id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Human-readable node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// This node's NUMA topology.
    pub fn topology(&self) -> &NumaTopology {
        &self.topology
    }

    /// Egress (transmit) link.
    pub fn egress(&self) -> &Link {
        &self.egress
    }

    /// Ingress (receive) link.
    pub fn ingress(&self) -> &Link {
        &self.ingress
    }

    /// Statistics counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Snapshot of this node's statistics.
    pub fn stats_snapshot(&self) -> NodeStatsSnapshot {
        self.stats.snapshot()
    }

    /// True until the node is killed.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Kill the node mid-flight: every subsequent verb on its endpoints
    /// fails with [`crate::RdmaError::QpError`], pending effects stop
    /// being delivered, and peers waiting on it observe a QP error or a
    /// timeout instead of hanging.
    pub fn kill(&self) {
        if self.alive.swap(false, Ordering::AcqRel) {
            NodeStats::add(&self.stats.qp_errors, 1);
            self.pending.lock().clear();
        }
    }

    /// Fault-injection runtime state, if any.
    pub(crate) fn faults(&self) -> Option<&NodeFaults> {
        self.faults.as_ref()
    }

    // ---- CPU model -------------------------------------------------------

    /// Deterministic CPU contention factor: `max(1, spinners / cores)`.
    ///
    /// When more threads actively burn CPU on this node than it has cores,
    /// every charge is stretched proportionally — the mechanism behind the
    /// paper's busy-polling over-subscription collapse.
    pub fn load_factor(&self) -> f64 {
        let s = self.spinners.load(Ordering::Relaxed) as f64;
        let c = self.topology.cores as f64;
        (s / c).max(1.0)
    }

    /// Register the current thread as an active spinner for the duration of
    /// the returned guard (used by CPU charges and busy-poll loops).
    pub fn enter_spin(&self) -> SpinGuard<'_> {
        self.spinners.fetch_add(1, Ordering::Relaxed);
        SpinGuard { node: self }
    }

    /// Open a charge of `ns` modelled CPU on the calling thread, starting
    /// now. See [`Charge`].
    pub fn begin_charge(&self, ns: u64) -> Charge<'_> {
        self.begin_charge_at(now_ns(), ns)
    }

    /// Open a charge of `ns` modelled CPU whose interval began at `start`
    /// (a clock value the caller already read: the verb's entry, the `now`
    /// a readiness check used). The thread counts as a spinner until the
    /// guard drops, and the effective length — `ns` × the thread's NUMA
    /// penalty × the node's load factor × the global time scale — is fixed
    /// here, at entry.
    pub fn begin_charge_at(&self, start: u64, ns: u64) -> Charge<'_> {
        let spin = self.enter_spin();
        let penalty = numa_penalty(&self.topology, self.config.cost.remote_numa_factor);
        let eff = self.config.scaled((ns as f64 * penalty * self.load_factor()) as u64);
        Charge { spin, end_ns: start + eff, eff }
    }

    // ---- memory-region registry -----------------------------------------

    pub(crate) fn remember_mr(&self, rkey: u64, mr: &Arc<MrInner>) {
        self.mrs.lock().insert(rkey, Arc::downgrade(mr));
    }

    pub(crate) fn forget_mr(&self, rkey: u64) {
        self.mrs.lock().remove(&rkey);
    }

    /// Resolve an rkey to its region, as a remote NIC would on an in-bound
    /// one-sided operation.
    pub(crate) fn lookup_mr(&self, rkey: u64) -> Option<Arc<MrInner>> {
        self.mrs.lock().get(&rkey).and_then(Weak::upgrade)
    }

    // ---- pending effects --------------------------------------------------

    /// Enqueue an effect to apply at `deadline`. Dead nodes silently drop
    /// effects: nothing arrives at (or from) a killed machine.
    pub(crate) fn push_effect(&self, deadline: u64, kind: EffectKind) {
        if !self.is_alive() {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.pending.lock().push(Reverse(PendingEffect { deadline, seq, kind }));
    }

    /// Deadline of the earliest pending effect, if any (used by event
    /// waiters to size their timed waits).
    pub fn next_effect_deadline(&self) -> Option<u64> {
        self.pending.lock().peek().map(|Reverse(e)| e.deadline)
    }

    /// Apply every pending effect whose deadline has passed. Called by CQ
    /// polls and memory accesses; cheap when the queue is empty.
    ///
    /// This models NIC/DMA work, so it charges no CPU to the node.
    ///
    /// The due-ness cutoff is snapshotted ONCE at entry: effects that
    /// become due while the drain is running (most importantly RNR
    /// retries, which re-enqueue themselves a short interval ahead) wait
    /// for the next drain. Re-reading the clock each iteration would let
    /// a handful of retrying messages pin the draining thread in this
    /// loop forever — a livelock that starves the caller's own
    /// completion-queue poll.
    pub fn drain_effects(self: &Arc<Self>) {
        let cutoff = now_ns();
        // Fast path without taking the apply lock.
        {
            let pending = self.pending.lock();
            match pending.peek() {
                Some(Reverse(e)) if e.deadline <= cutoff => {}
                _ => return,
            }
        }
        // Someone else draining is equivalent to us draining.
        let Some(_apply) = self.apply_lock.try_lock() else { return };
        loop {
            let effect = {
                let mut pending = self.pending.lock();
                match pending.peek() {
                    Some(Reverse(e)) if e.deadline <= cutoff => pending.pop().map(|Reverse(e)| e),
                    _ => None,
                }
            };
            let Some(effect) = effect else { break };
            self.apply_effect(effect);
        }
    }

    fn apply_effect(self: &Arc<Self>, effect: PendingEffect) {
        match effect.kind {
            EffectKind::MemWrite { mr, offset, data } => {
                if let Some(mr) = mr.upgrade() {
                    let region = crate::memory::MemoryRegion { inner: mr };
                    // Out-of-bounds in-bound WRITE: dropped, as a real NIC
                    // would fail the access; counted implicitly by absence.
                    let _ = region.write_raw(offset, &data);
                }
            }
            EffectKind::RecvDeliver { ep, data, imm, byte_len, opcode } => {
                let Some(ep) = ep.upgrade() else { return };
                // Deliver into a posted receive or join the endpoint's
                // FIFO receiver-not-ready backlog. The backlog (rather
                // than a rescheduled effect) is what preserves RC
                // ordering: a stalled SEND is never overtaken by a later
                // one on the same queue pair.
                let ready = effect.deadline.max(now_ns());
                ep.deliver_or_backlog(crate::qp::ArrivedMsg { data, imm, byte_len, opcode }, ready);
            }
            EffectKind::AtomicOp {
                target_node,
                target_mr,
                target_offset,
                compare_swap,
                add,
                local_mr,
                local_offset,
                cq,
                wr_id,
                qp_id,
                signaled,
                opcode,
            } => {
                if let Some(t) = target_node.upgrade() {
                    t.drain_effects();
                }
                let mut status = CompletionStatus::Success;
                let old = match target_mr.upgrade() {
                    Some(mr) => {
                        let region = crate::memory::MemoryRegion { inner: mr };
                        match region.atomic_update(target_offset, |old| match compare_swap {
                            Some((compare, swap)) => (old == compare).then_some(swap),
                            None => Some(old.wrapping_add(add)),
                        }) {
                            Ok(old) => old,
                            Err(_) => {
                                status = CompletionStatus::RemoteAccessError;
                                0
                            }
                        }
                    }
                    None => {
                        status = CompletionStatus::RemoteAccessError;
                        0
                    }
                };
                if status == CompletionStatus::Success {
                    if let Some(mr) = local_mr.upgrade() {
                        let region = crate::memory::MemoryRegion { inner: mr };
                        if region.write_raw(local_offset, &old.to_le_bytes()).is_err() {
                            status = CompletionStatus::LocalLengthError;
                        }
                    } else {
                        status = CompletionStatus::LocalLengthError;
                    }
                }
                if signaled {
                    if let Some(cq) = cq.upgrade() {
                        cq.push(
                            effect.deadline.max(now_ns()),
                            Completion { wr_id, opcode, byte_len: 8, imm: None, status, qp_id },
                        );
                    }
                }
            }
            EffectKind::FetchRead {
                target_node,
                target_mr,
                target_offset,
                len,
                local_mr,
                local_offset,
                cq,
                wr_id,
                qp_id,
                signaled,
            } => {
                // Let any effects that already arrived at the target become
                // visible before the NIC DMA-reads it.
                if let Some(t) = target_node.upgrade() {
                    t.drain_effects();
                }
                let mut status = CompletionStatus::Success;
                let data = match target_mr.upgrade() {
                    Some(mr) => {
                        let region = crate::memory::MemoryRegion { inner: mr };
                        match region.read_pool_raw(target_offset, len) {
                            Ok(d) => d,
                            Err(_) => {
                                status = CompletionStatus::RemoteAccessError;
                                PoolBuf::empty()
                            }
                        }
                    }
                    None => {
                        status = CompletionStatus::RemoteAccessError;
                        PoolBuf::empty()
                    }
                };
                if status == CompletionStatus::Success {
                    if let Some(mr) = local_mr.upgrade() {
                        let region = crate::memory::MemoryRegion { inner: mr };
                        if region.write_raw(local_offset, &data).is_err() {
                            status = CompletionStatus::LocalLengthError;
                        }
                    } else {
                        status = CompletionStatus::LocalLengthError;
                    }
                }
                if signaled {
                    if let Some(cq) = cq.upgrade() {
                        cq.push(
                            effect.deadline.max(now_ns()),
                            Completion {
                                wr_id,
                                opcode: Opcode::Read,
                                byte_len: len,
                                imm: None,
                                status,
                                qp_id,
                            },
                        );
                    }
                }
            }
        }
    }
}

/// RAII guard for active-spinner registration (see [`Node::enter_spin`]).
pub struct SpinGuard<'a> {
    node: &'a Node,
}

impl Drop for SpinGuard<'_> {
    fn drop(&mut self) {
        self.node.spinners.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A modelled CPU cost as a *deadline*: the interval `[start, start + eff)`
/// of simulated time the calling thread is busy for, opened by
/// [`Node::begin_charge`] / [`Node::begin_charge_at`] **before** the host
/// work the cost stands for and closed by dropping the guard after it.
///
/// Dropping waits out whatever is left of the interval
/// ([`spin_until`]`(end_ns)`; nothing if the host work already overran it)
/// and adds exactly `eff` to [`NodeStats::cpu_busy_ns`]. The host work done
/// while the guard is alive is thereby *absorbed* by the model instead of
/// being added to it: the charged section takes `max(host work, model)`.
#[must_use = "a charge covers the work done while the guard is alive; bind it (`let _c = ...`)"]
pub struct Charge<'a> {
    /// Released after `drop` below has waited out the interval.
    spin: SpinGuard<'a>,
    end_ns: u64,
    eff: u64,
}

impl Charge<'_> {
    /// The modelled instant the charged work finishes (for a post: the
    /// instant the doorbell rings), whether or not the host is there yet.
    pub fn end_ns(&self) -> u64 {
        self.end_ns
    }
}

impl Drop for Charge<'_> {
    fn drop(&mut self) {
        spin_until(self.end_ns);
        NodeStats::add(&self.spin.node.stats.cpu_busy_ns, self.eff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SimConfig;

    fn node() -> Arc<Node> {
        Node::new(0, "n".into(), Arc::new(SimConfig::fast_test()))
    }

    #[test]
    fn link_reservations_are_back_to_back() {
        let l = Link::default();
        let (s1, e1) = l.reserve_at(100, 50);
        assert_eq!((s1, e1), (100, 150));
        let (s2, e2) = l.reserve_at(100, 50);
        assert_eq!((s2, e2), (150, 200));
        // A later min_start leaves a gap.
        let (s3, e3) = l.reserve_at(500, 10);
        assert_eq!((s3, e3), (500, 510));
        assert_eq!(l.busy_until(), 510);
    }

    #[test]
    fn load_factor_grows_past_core_count() {
        let n = node();
        assert_eq!(n.load_factor(), 1.0);
        let guards: Vec<_> = (0..56).map(|_| n.enter_spin()).collect();
        assert!((n.load_factor() - 2.0).abs() < 1e-9, "56 spinners / 28 cores = 2.0");
        drop(guards);
        assert_eq!(n.load_factor(), 1.0);
    }

    /// A charge is the interval `[start, start + eff)`: the guard's drop
    /// waits out what is left of it, accounts exactly `eff`, and the thread
    /// is a spinner only while the guard lives.
    #[test]
    fn a_charge_ends_at_start_plus_eff_and_accounts_exactly_eff() {
        let _nic_local = crate::numa::bind_current_thread(0); // NUMA penalty 1.0
        let n = node(); // fast_test: time_scale 0.1
        let start = now_ns();
        let charge = n.begin_charge_at(start, 2_000_000);
        assert_eq!(charge.end_ns(), start + 200_000);
        assert_eq!(n.spinners.load(Ordering::Relaxed), 1);
        drop(charge);
        assert!(now_ns() >= start + 200_000);
        assert_eq!(n.spinners.load(Ordering::Relaxed), 0);
        assert_eq!(n.stats_snapshot().cpu_busy_ns, 200_000);
    }

    /// A guard dropped after its deadline does not wait again: the host
    /// work it covered already took longer than the model.
    #[test]
    fn a_charge_dropped_after_its_deadline_does_not_spin() {
        let _nic_local = crate::numa::bind_current_thread(0);
        let n = Node::new(0, "n".into(), Arc::new(SimConfig::default()));
        const NS: u64 = 50_000_000;
        let start = now_ns();
        let charge = n.begin_charge_at(start, NS);
        spin_until(charge.end_ns() + 1_000_000); // the "host work" overruns by 1 ms
        let before_drop = now_ns();
        drop(charge);
        let drop_took = now_ns() - before_drop;
        assert!(drop_took < NS / 2, "drop waited {drop_took} ns after the deadline had passed");
        assert_eq!(n.stats_snapshot().cpu_busy_ns, NS, "accounting is the model, not the host");
    }

    /// The load-factor stretch is fixed at entry and includes the charging
    /// thread itself, as it did when the charge was a trailing spin.
    #[test]
    fn a_charge_is_stretched_by_the_load_factor_at_entry() {
        let _nic_local = crate::numa::bind_current_thread(0);
        let n = Node::new(0, "n".into(), Arc::new(SimConfig::default()));
        let guards: Vec<_> = (0..55).map(|_| n.enter_spin()).collect();
        let charge = n.begin_charge_at(1_000, 1_000); // 56th spinner on 28 cores
        drop(guards);
        assert_eq!(charge.end_ns(), 3_000);
        drop(charge);
        assert_eq!(n.stats_snapshot().cpu_busy_ns, 2_000);
    }

    #[test]
    fn effects_apply_in_deadline_order_when_due() {
        let n = node();
        let pd = crate::memory::ProtectionDomain::new(n.clone());
        let mr = pd.register(8).unwrap();
        let t = now_ns();
        // Later effect overwrites the earlier one; push out of order.
        n.push_effect(
            t + 2,
            EffectKind::MemWrite {
                mr: Arc::downgrade(&mr.inner),
                offset: 0,
                data: PoolBuf::copy_from(&[2]),
            },
        );
        n.push_effect(
            t + 1,
            EffectKind::MemWrite {
                mr: Arc::downgrade(&mr.inner),
                offset: 0,
                data: PoolBuf::copy_from(&[1]),
            },
        );
        crate::time::spin_until(t + 3);
        n.drain_effects();
        let mut b = [0u8; 1];
        mr.read(0, &mut b).unwrap();
        assert_eq!(b[0], 2, "the deadline-2 write must land last");
    }

    #[test]
    fn future_effects_are_not_applied_early() {
        let n = node();
        let pd = crate::memory::ProtectionDomain::new(n.clone());
        let mr = pd.register(1).unwrap();
        n.push_effect(
            now_ns() + 50_000_000, // 50 ms out
            EffectKind::MemWrite {
                mr: Arc::downgrade(&mr.inner),
                offset: 0,
                data: PoolBuf::copy_from(&[9]),
            },
        );
        n.drain_effects();
        let mut b = [0u8; 1];
        mr.read(0, &mut b).unwrap();
        assert_eq!(b[0], 0);
        assert!(n.next_effect_deadline().is_some());
    }

    /// Regression: RNR-style self-rescheduling effects must not pin the
    /// draining thread in `drain_effects` forever (the due-ness cutoff is
    /// snapshotted at entry).
    #[test]
    fn drain_terminates_despite_self_rescheduling_effects() {
        let n = node();
        let pd = crate::memory::ProtectionDomain::new(n.clone());
        let mr = pd.register(8).unwrap();
        // Seed many already-due writes; each apply is cheap but with a
        // re-reading drain loop, a steady feed of new due work never ends.
        let t = now_ns();
        for i in 0..64 {
            n.push_effect(
                t.saturating_sub(1000 - i),
                EffectKind::MemWrite {
                    mr: Arc::downgrade(&mr.inner),
                    offset: 0,
                    data: PoolBuf::copy_from(&[i as u8]),
                },
            );
        }
        let start = std::time::Instant::now();
        n.drain_effects();
        assert!(start.elapsed().as_millis() < 500, "drain must terminate promptly");
        // Effects pushed DURING a drain with past deadlines are picked up
        // by the NEXT drain, not the current one — simulate by pushing a
        // past-deadline effect and draining twice.
        n.push_effect(
            now_ns().saturating_sub(1),
            EffectKind::MemWrite {
                mr: Arc::downgrade(&mr.inner),
                offset: 0,
                data: PoolBuf::copy_from(&[200]),
            },
        );
        n.drain_effects();
        let mut b = [0u8; 1];
        mr.read(0, &mut b).unwrap();
        assert_eq!(b[0], 200);
    }

    #[test]
    fn mr_registry_resolves_and_forgets() {
        let n = node();
        let pd = crate::memory::ProtectionDomain::new(n.clone());
        let mr = pd.register(16).unwrap();
        assert!(n.lookup_mr(mr.rkey()).is_some());
        assert!(n.lookup_mr(mr.rkey() + 12345).is_none());
        mr.deregister();
        assert!(n.lookup_mr(mr.rkey()).is_none());
    }
}
