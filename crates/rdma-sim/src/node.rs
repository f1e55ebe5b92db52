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
//!
//! An in-flight WRITE payload of at least a page is *parked* on its
//! destination node while it waits out the wire: a thread waiting on that
//! node's completions reads it into its own cache meanwhile
//! ([`Node::warm_inbound`]), the part DDIO plays on a real host, so the
//! receiver that takes the landed buffer does not pay a cross-core cache
//! transfer for it. That is host work only; it changes no modelled time.
//!
//! The effect queue is written by the posting peer and read by this node's
//! own threads, and each side takes its lock once per batch: a posted
//! chain enqueues all of its effects on a node under one lock
//! ([`Node::push_effects`]), and a drain pops everything due at its cutoff
//! under one lock, then applies the batch in deadline order (equal
//! deadlines in push order) with the queue unlocked ([`Node::drain_at`]).
//! The idle check is kept off the node's other cache lines: the earliest
//! deadline is mirrored in an atomic beside the queue's lock
//! ([`Node::next_effect_deadline`]), written under the lock whenever the
//! head changes, that a drain or a reactor pass reads without taking it.
//! The receive-side counters (`inbound_rdma`, `bytes_rx`) of a SEND, WRITE
//! or WRITE_WITH_IMM are bumped by the thread that applies it, at its
//! deadline, not by the sender at post time; every drain adds what it
//! applied and how late to `effects_applied`, `effect_drains` and
//! `effect_late_ns`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
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
    pub kind: EffectKind,
}

/// An in-flight WRITE's payload: held by its effect, or parked in one of
/// the destination node's read-ahead slots.
pub(crate) enum Payload {
    Held(PoolBuf),
    Parked(usize),
}

/// The completion half of a WRITE_WITH_IMM: the endpoint whose posted
/// receive it consumes, and what the completion carries.
pub(crate) struct ImmNotice {
    pub ep: Weak<EndpointInner>,
    pub imm: u32,
    pub byte_len: usize,
}

/// What a pending effect does when its deadline passes.
pub(crate) enum EffectKind {
    /// An RDMA WRITE payload landing in a registered region (by reference:
    /// see [`crate::memory`]). A WRITE_WITH_IMM is this one effect too:
    /// `imm` delivers its completion right after the payload lands, so the
    /// completion is never visible first.
    MemWrite { mr: Weak<MrInner>, offset: usize, data: Payload, imm: Option<ImmNotice> },
    /// A SEND arriving at an endpoint: consumes a posted receive and
    /// completes on the recv CQ, `data` written into the receive buffer.
    RecvDeliver { ep: Weak<EndpointInner>, data: PoolBuf },
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

/// Pending effects a node holds before its queue first grows: a window of
/// 32 chained messages, two effects each. The thread that pays for growth
/// is the *peer* posting into this node, mid hot path, so the room is
/// reserved up front rather than found when a burst first outruns a drain;
/// a drain's batch is reserved the same.
const PENDING_RESERVE: usize = 64;

/// In-flight WRITE payloads of at least this many bytes — a page — are
/// parked for read-ahead ([`Node::warm_inbound`]); smaller ones fit in a
/// few cache lines and are held by their effect.
const WARM_MIN: usize = 4096;

/// Read-ahead slots per node: payloads parked at once. A WRITE that finds
/// them all taken lands unwarmed.
const WARM_SLOTS: usize = 4;

/// A parked payload, and whether a waiting thread has read it ahead yet.
type WarmSlot = Mutex<Option<(PoolBuf, bool)>>;

/// The effect queue: deferred effects in deadline order, equal deadlines
/// in the order they were pushed, and the earliest deadline mirrored in
/// an atomic. Both sit on the same cache lines, since the posting peer
/// writes both in one critical section.
struct Pending {
    effects: Mutex<VecDeque<PendingEffect>>,
    /// Deadline of the earliest pending effect, `u64::MAX` with none:
    /// written under the `effects` lock whenever it changes, so an idle
    /// check reads it without taking that lock. Relaxed: a stale read
    /// only defers a drain to the next check, and the effects themselves
    /// pass through the lock.
    next_due: AtomicU64,
}

/// The earliest deadline in a queue, `u64::MAX` if it is empty.
fn head(effects: &VecDeque<PendingEffect>) -> u64 {
    effects.front().map_or(u64::MAX, |e| e.deadline)
}

/// A value on cache lines of its own: 128 bytes, the pair of lines an
/// x86 core's adjacent-line prefetcher fetches together.
///
/// A simulated message is written by one host thread and read by another,
/// so a field one side writes on every message evicts whatever shares its
/// line from the other side's cache. The fields of the message path that
/// the posting peer writes (a node's ingress reservations, effect queue
/// and region table) and the ones the owning side locks or bumps on every
/// message (its egress, spinner count, a region's storage lock, an
/// endpoint's receive queues) each sit in one of these.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct Padded<T>(pub(crate) T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// A registered region as the region table holds it: the weak reference
/// an in-bound effect takes, and the region's capacity.
type RegionEntry = (Weak<MrInner>, usize);

/// A node's registered regions by rkey, and the next key it hands out:
/// keys are numbered per node, as a NIC numbers its own regions.
struct Regions {
    by_rkey: HashMap<u64, RegionEntry>,
    next_key: u64,
}

/// A simulated machine in the fabric.
pub struct Node {
    id: u64,
    name: String,
    config: Arc<SimConfig>,
    topology: NumaTopology,
    egress: Padded<Link>,
    ingress: Padded<Link>,
    /// Deferred effects targeting this node, ordered by deadline.
    pending: Padded<Pending>,
    /// Serializes effect application so drains from different threads
    /// cannot interleave out of deadline order, and holds the batch one
    /// drain pops (empty between drains; its capacity is kept). It is per
    /// node because applying a READ drains the READ's target node while
    /// the outer drain still holds its own batch.
    apply_lock: Mutex<Vec<PendingEffect>>,
    /// The region table: resolves one-sided targets and numbers keys.
    mrs: Padded<Mutex<Regions>>,
    /// In-flight WRITE payloads parked for read-ahead.
    parked: [WarmSlot; WARM_SLOTS],
    /// Parked payloads no thread has read ahead yet: the one atomic a
    /// waiting thread checks. Changed only under the lock of the slot
    /// whose state it counts, so it never drifts. Relaxed: it is a hint,
    /// and the payloads themselves pass through the slots' locks.
    unwarmed: AtomicUsize,
    stats: NodeStats,
    /// Threads currently burning simulated CPU on this node.
    spinners: Padded<AtomicU32>,
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
            egress: Padded::default(),
            ingress: Padded::default(),
            pending: Padded(Pending {
                effects: Mutex::new(VecDeque::with_capacity(PENDING_RESERVE)),
                next_due: AtomicU64::new(u64::MAX),
            }),
            apply_lock: Mutex::new(Vec::with_capacity(PENDING_RESERVE)),
            mrs: Padded(Mutex::new(Regions { by_rkey: HashMap::new(), next_key: 1 })),
            parked: Default::default(),
            unwarmed: AtomicUsize::new(0),
            stats: NodeStats::default(),
            spinners: Padded(AtomicU32::new(0)),
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
        &self.egress.0
    }

    /// Ingress (receive) link.
    pub fn ingress(&self) -> &Link {
        &self.ingress.0
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
            let mut effects = self.pending.effects.lock();
            effects.clear();
            self.pending.next_due.store(u64::MAX, Ordering::Relaxed);
            drop(effects);
            for slot in &self.parked {
                if let Some((_, false)) = slot.lock().take() {
                    self.unwarmed.fetch_sub(1, Ordering::Relaxed);
                }
            }
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

    // ---- region table -----------------------------------------------------

    /// Enter the region `make` builds from its `(lkey, rkey)` in the
    /// table, under the next two keys of this node's.
    pub(crate) fn register_mr(&self, make: impl FnOnce(u64, u64) -> Arc<MrInner>) -> Arc<MrInner> {
        let mut mrs = self.mrs.lock();
        let (lkey, rkey) = (mrs.next_key, mrs.next_key + 1);
        mrs.next_key += 2;
        let mr = make(lkey, rkey);
        mrs.by_rkey.insert(rkey, (Arc::downgrade(&mr), mr.len));
        mr
    }

    pub(crate) fn forget_mr(&self, rkey: u64) {
        self.mrs.lock().by_rkey.remove(&rkey);
    }

    /// Resolve an rkey to its region and the region's capacity, as a
    /// remote NIC would on an in-bound one-sided operation. The region is
    /// handed out as the weak reference an effect holds, never upgraded:
    /// the initiator touches no count or lock the region's own node uses.
    pub(crate) fn lookup_mr(&self, rkey: u64) -> Option<(Weak<MrInner>, usize)> {
        let mrs = self.mrs.lock();
        let (mr, len) = mrs.by_rkey.get(&rkey).filter(|(mr, _)| mr.strong_count() > 0)?;
        Some((mr.clone(), *len))
    }

    // ---- pending effects --------------------------------------------------

    /// Enqueue `effects`, each `(deadline, kind)`, in order, leaving the
    /// vector empty: the one way an effect reaches this node's queue. A
    /// posted chain hands each node all of its effects at once, so the
    /// queue's lock and its mirrored head are taken and written once per
    /// chain, not once per work request. Dead nodes silently drop effects:
    /// nothing arrives at (or from) a killed machine.
    pub(crate) fn push_effects(&self, effects: &mut Vec<(u64, EffectKind)>) {
        if effects.is_empty() {
            return;
        }
        if !self.is_alive() {
            effects.clear();
            return;
        }
        let mut queue = self.pending.effects.lock();
        for (deadline, kind) in effects.drain(..) {
            // Deadlines arrive nearly in order. An earlier one goes in
            // behind every effect due no later than it: equal deadlines
            // stay in push order.
            let at = match queue.back() {
                Some(last) if last.deadline > deadline => {
                    queue.partition_point(|e| e.deadline <= deadline)
                }
                _ => queue.len(),
            };
            queue.insert(at, PendingEffect { deadline, kind });
        }
        self.pending.next_due.store(head(&queue), Ordering::Relaxed);
    }

    /// The effect of an in-bound WRITE of `data` into `mr` at `offset`
    /// that, for a WRITE_WITH_IMM, delivers `imm` once it lands. A payload
    /// of at least a page is parked on this node for read-ahead if a slot
    /// is free.
    pub(crate) fn write_effect(
        &self,
        mr: Weak<MrInner>,
        offset: usize,
        data: PoolBuf,
        imm: Option<ImmNotice>,
    ) -> EffectKind {
        let free = (data.len() >= WARM_MIN && self.is_alive())
            .then(|| {
                self.parked.iter().enumerate().find_map(|(i, slot)| {
                    slot.try_lock().filter(|slot| slot.is_none()).map(|slot| (i, slot))
                })
            })
            .flatten();
        let data = match free {
            Some((i, mut slot)) => {
                *slot = Some((data, false));
                self.unwarmed.fetch_add(1, Ordering::Relaxed);
                Payload::Parked(i)
            }
            None => Payload::Held(data),
        };
        EffectKind::MemWrite { mr, offset, data, imm }
    }

    /// Whether a parked in-flight payload is waiting to be read ahead.
    pub(crate) fn has_unwarmed(&self) -> bool {
        self.unwarmed.load(Ordering::Relaxed) != 0
    }

    /// Read every parked payload no thread has read yet, one byte per
    /// cache line, into the calling thread's cache — called by a thread
    /// with nothing ready to poll, so the read fills time the thread
    /// would otherwise yield. A slot being unparked (its WRITE landing) is
    /// skipped, not waited for.
    pub(crate) fn warm_inbound(&self) {
        for slot in &self.parked {
            let Some(mut slot) = slot.try_lock() else { continue };
            if let Some((data, warm @ false)) = &mut *slot {
                let lines = data.iter().step_by(64).fold(0u8, |acc, &b| acc.wrapping_add(b));
                std::hint::black_box(lines);
                *warm = true;
                self.unwarmed.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// The payload of a landing WRITE, out of its slot if it was parked.
    fn unpark(&self, data: Payload) -> PoolBuf {
        match data {
            Payload::Held(data) => data,
            Payload::Parked(i) => match self.parked[i].lock().take() {
                Some((data, warm)) => {
                    if !warm {
                        self.unwarmed.fetch_sub(1, Ordering::Relaxed);
                    }
                    data
                }
                None => PoolBuf::empty(),
            },
        }
    }

    /// Deadline of the earliest pending effect, if any: the instant a
    /// waiter on this node's completions ([`crate::time::wait_step`]) or
    /// the reactor's pass can wait out on the clock, and what a reactor
    /// coming out of a nap stamps its wake-up from. Reads the mirrored
    /// head, not the queue: no lock.
    pub fn next_effect_deadline(&self) -> Option<u64> {
        let due = self.pending.next_due.load(Ordering::Relaxed);
        (due != u64::MAX).then_some(due)
    }

    /// The earliest pending deadline read under the queue's lock, the
    /// value [`Node::next_effect_deadline`] mirrors. For tests that check
    /// the mirror.
    #[doc(hidden)]
    pub fn next_effect_deadline_locked(&self) -> Option<u64> {
        let due = head(&self.pending.effects.lock());
        (due != u64::MAX).then_some(due)
    }

    /// How many effects are queued toward this node. For tests that count
    /// what a work request leaves in flight.
    #[doc(hidden)]
    pub fn pending_effects(&self) -> usize {
        self.pending.effects.lock().len()
    }

    /// Apply every pending effect whose deadline has passed. Called by CQ
    /// polls and memory accesses. With nothing due it reads one atomic
    /// (the mirrored head) and takes no lock, so an idle poll does not
    /// pull the queue's cache line off the core of the peer posting into
    /// it; with nothing queued at all it reads no clock either.
    ///
    /// This models NIC/DMA work, so it charges no CPU to the node.
    ///
    /// The due-ness cutoff is read ONCE, at entry, and everything due by
    /// it is taken off the queue in one pop under one lock: effects pushed
    /// while the drain applies that batch (most importantly RNR-style
    /// retries, which re-enqueue themselves a short interval ahead) wait
    /// for the next drain, whatever their deadline. Re-reading the clock
    /// and popping again would let a handful of retrying messages pin the
    /// draining thread in this loop forever — a livelock that starves the
    /// caller's own completion-queue poll.
    pub fn drain_effects(self: &Arc<Self>) {
        if self.pending.next_due.load(Ordering::Relaxed) != u64::MAX {
            self.drain_at(now_ns());
        }
    }

    /// [`Node::drain_effects`] with the cutoff a caller already read: a
    /// poll loop passes the clock value its last check or wait ended on,
    /// and the completions this pushes are stamped ready at that same
    /// instant (their deadlines are no later), so the poll checks
    /// readiness against it without reading the clock again.
    ///
    /// One drain is one pop: under the queue's lock it moves every effect
    /// due at `cutoff` — a prefix of the queue, which is kept in deadline
    /// order — into the apply lock's scratch vector and rewrites the
    /// mirrored head once; it then applies them with the queue unlocked,
    /// so the peer keeps posting meanwhile. A node killed mid-batch
    /// applies nothing after the kill. The drain adds to
    /// `effects_applied`, `effect_drains` and `effect_late_ns` (the sum of
    /// `cutoff − deadline`) once, reading no clock for them.
    pub(crate) fn drain_at(self: &Arc<Self>, cutoff: u64) {
        if self.pending.next_due.load(Ordering::Relaxed) > cutoff {
            return;
        }
        // Someone else draining is equivalent to us draining.
        let Some(mut due) = self.apply_lock.try_lock() else { return };
        {
            let mut queue = self.pending.effects.lock();
            while queue.front().is_some_and(|e| e.deadline <= cutoff) {
                due.extend(queue.pop_front());
            }
            self.pending.next_due.store(head(&queue), Ordering::Relaxed);
        }
        let (mut applied, mut late_ns) = (0, 0);
        for effect in due.drain(..) {
            if !self.is_alive() {
                break;
            }
            applied += 1;
            late_ns += cutoff - effect.deadline;
            self.apply_effect(effect, cutoff);
        }
        if applied > 0 {
            // Only a drain holding the apply lock writes these three, so a
            // plain load and store adds to them without a locked
            // instruction.
            let add = |counter: &AtomicU64, v: u64| {
                counter.store(counter.load(Ordering::Relaxed) + v, Ordering::Relaxed);
            };
            add(&self.stats.effects_applied, applied);
            add(&self.stats.effect_drains, 1);
            add(&self.stats.effect_late_ns, late_ns);
        }
    }

    /// Deliver an arrived message into a posted receive of `ep`, or join
    /// its FIFO receiver-not-ready backlog. The backlog (rather than a
    /// rescheduled effect) is what preserves RC ordering: a stalled SEND
    /// is never overtaken by a later one on the same queue pair.
    fn deliver(ep: &Weak<EndpointInner>, msg: crate::qp::ArrivedMsg, ready_at: u64) {
        if let Some(ep) = ep.upgrade() {
            ep.deliver_or_backlog(msg, ready_at);
        }
    }

    /// Apply one due effect for a drain whose cutoff is `now`: what it
    /// completes is ready at `now`, the instant the drain found it due.
    fn apply_effect(self: &Arc<Self>, effect: PendingEffect, now: u64) {
        let ready_at = effect.deadline.max(now);
        match effect.kind {
            EffectKind::MemWrite { mr, offset, data, imm } => {
                let data = self.unpark(data);
                NodeStats::add(&self.stats.inbound_rdma, 1);
                NodeStats::add(&self.stats.bytes_rx, data.len() as u64);
                if let Some(mr) = mr.upgrade() {
                    crate::memory::MemoryRegion { inner: mr }.land(offset, data);
                }
                if let Some(ImmNotice { ep, imm, byte_len }) = imm {
                    let msg = crate::qp::ArrivedMsg {
                        data: PoolBuf::empty(),
                        imm: Some(imm),
                        byte_len,
                        opcode: Opcode::WriteImm,
                    };
                    Self::deliver(&ep, msg, ready_at);
                }
            }
            EffectKind::RecvDeliver { ep, data } => {
                let byte_len = data.len();
                NodeStats::add(&self.stats.bytes_rx, byte_len as u64);
                let msg = crate::qp::ArrivedMsg { data, imm: None, byte_len, opcode: Opcode::Send };
                Self::deliver(&ep, msg, ready_at);
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
                            ready_at,
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
/// ([`spin_until`]`(end_ns)`: a deadline the thread knows, so its last
/// [`crate::time::SCHEDULED_WINDOW_NS`] pass on the clock alone, without
/// yielding the core to the peer; nothing if the host work already overran
/// it) and adds exactly `eff` to [`NodeStats::cpu_busy_ns`]. The host work done
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

    /// Enqueue a plain WRITE of `data` into `mr` at `offset`, due at
    /// `deadline`, the way a one-WR chain does.
    fn push_write(
        n: &Node,
        deadline: u64,
        mr: &crate::memory::MemoryRegion,
        offset: usize,
        data: PoolBuf,
    ) {
        let write = n.write_effect(Arc::downgrade(&mr.inner), offset, data, None);
        n.push_effects(&mut vec![(deadline, write)]);
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
        push_write(&n, t + 2, &mr, 0, PoolBuf::copy_from(&[2]));
        push_write(&n, t + 1, &mr, 0, PoolBuf::copy_from(&[1]));
        crate::time::spin_until(t + 3);
        n.drain_effects();
        let mut b = [0u8; 1];
        mr.read(0, &mut b).unwrap();
        assert_eq!(b[0], 2, "the deadline-2 write must land last");
    }

    /// The queue stays in deadline order whatever order effects are
    /// pushed in, and an effect pushed late goes behind every effect due
    /// no later than it: equal deadlines keep their push order.
    #[test]
    fn an_out_of_order_push_goes_behind_every_effect_due_no_later() {
        let n = node();
        let mr = crate::memory::ProtectionDomain::new(n.clone()).register(8).unwrap();
        let t = now_ns() + 1_000_000;
        for (deadline, offset) in [(t + 3, 4), (t + 1, 0), (t + 1, 1), (t + 2, 3), (t + 1, 2)] {
            push_write(&n, deadline, &mr, offset, PoolBuf::copy_from(&[1]));
        }
        let order: Vec<_> = n
            .pending
            .effects
            .lock()
            .iter()
            .map(|e| match e.kind {
                EffectKind::MemWrite { offset, .. } => (e.deadline - t, offset),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, [(1, 0), (1, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(n.next_effect_deadline(), Some(t + 1));
    }

    /// A page-sized in-flight WRITE is parked for read-ahead until a
    /// waiting thread reads it or it lands; a smaller one, and one that
    /// finds every slot taken, is held by its effect. All of them land.
    #[test]
    fn page_sized_writes_are_parked_for_read_ahead_and_still_land() {
        let n = node();
        let pd = crate::memory::ProtectionDomain::new(n.clone());
        let mr = pd.register((WARM_SLOTS + 2) * WARM_MIN).unwrap();
        let page = |i: usize| vec![i as u8 + 1; WARM_MIN];
        let due = now_ns() + 1_000_000;
        push_write(&n, due, &mr, 0, PoolBuf::copy_from(&[9; 64]));
        assert!(!n.has_unwarmed(), "below a page: held");
        for i in 1..=WARM_SLOTS + 1 {
            push_write(&n, due, &mr, i * WARM_MIN, PoolBuf::from_vec(page(i)));
        }
        assert_eq!(n.unwarmed.load(Ordering::Relaxed), WARM_SLOTS, "one per slot");
        n.warm_inbound();
        assert!(!n.has_unwarmed(), "all read ahead");
        // Parked and never read ahead: landing takes it off the count.
        let p = crate::memory::ProtectionDomain::new(n.clone()).register(WARM_MIN).unwrap();
        crate::time::spin_until(due);
        n.drain_effects();
        push_write(&n, due, &p, 0, PoolBuf::from_vec(page(0)));
        assert!(n.has_unwarmed());
        n.drain_effects();
        assert!(!n.has_unwarmed());
        assert!(n.parked.iter().all(|slot| slot.lock().is_none()), "unparked as they land");
        assert_eq!(mr.read_vec(0, 64).unwrap(), [9; 64]);
        for i in 1..=WARM_SLOTS + 1 {
            assert_eq!(mr.read_vec(i * WARM_MIN, WARM_MIN).unwrap(), page(i), "write {i}");
        }
        assert_eq!(p.read_vec(0, WARM_MIN).unwrap(), page(0));
    }

    #[test]
    fn future_effects_are_not_applied_early() {
        let n = node();
        let pd = crate::memory::ProtectionDomain::new(n.clone());
        let mr = pd.register(1).unwrap();
        push_write(&n, now_ns() + 50_000_000, &mr, 0, PoolBuf::copy_from(&[9])); // 50 ms out
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
            push_write(&n, t.saturating_sub(1000 - i), &mr, 0, PoolBuf::copy_from(&[i as u8]));
        }
        let start = std::time::Instant::now();
        n.drain_effects();
        assert!(start.elapsed().as_millis() < 500, "drain must terminate promptly");
        // Effects pushed DURING a drain with past deadlines are picked up
        // by the NEXT drain, not the current one — simulate by pushing a
        // past-deadline effect and draining twice.
        push_write(&n, now_ns().saturating_sub(1), &mr, 0, PoolBuf::copy_from(&[200]));
        n.drain_effects();
        let mut b = [0u8; 1];
        mr.read(0, &mut b).unwrap();
        assert_eq!(b[0], 200);
    }

    /// An effect pushed while a drain applies its batch waits for the next
    /// drain even when it is already due at that drain's cutoff: the drain
    /// takes its whole batch in one pop before applying any of it.
    #[test]
    fn an_effect_pushed_during_a_drain_waits_for_the_next_drain_even_if_due() {
        struct PushDue(Arc<Node>, crate::memory::MemoryRegion);
        impl crate::cq::CqNotify for PushDue {
            fn notify(&self) {
                push_write(&self.0, 0, &self.1, 0, PoolBuf::copy_from(&[7]));
            }
        }
        let f = crate::fabric::Fabric::new(SimConfig::fast_test());
        let (a, b) = (f.add_node("a"), f.add_node("b"));
        let (c, s) = f.connect(&a, &b).unwrap();
        let dst = s.pd().register(8).unwrap();
        s.post_recv(crate::wr::RecvWr::new(0, dst.clone(), 0, 0)).unwrap();
        let notifier = Arc::new(PushDue(b.clone(), dst.clone()));
        s.recv_cq().register_notify(&notifier);
        c.post_send(&[crate::wr::SendWr::write_imm_inline(0, &[], dst.remote_buf(0, 0), 1)])
            .unwrap();
        spin_until(b.next_effect_deadline().unwrap());
        b.drain_effects();
        assert_eq!(b.stats_snapshot().effects_applied, 1, "the WRITE_WITH_IMM alone");
        assert_eq!(b.next_effect_deadline(), Some(0), "pushed mid-drain, long due, still queued");
        b.drain_effects();
        assert_eq!(b.stats_snapshot().effects_applied, 2);
        assert_eq!(dst.read_vec(0, 1).unwrap(), [7]);
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
