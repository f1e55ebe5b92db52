//! Completion queues with busy and event polling.
//!
//! The polling mechanism is the single most consequential knob in the
//! paper's hint→protocol mapping (Figure 6): busy polling minimizes latency
//! but burns a core per poller; event polling adds interrupt latency but
//! scales past core counts. Here:
//!
//! * [`PollMode::Busy`] genuinely spins, registered as an active spinner on
//!   the CQ's node (so over-subscription inflates everyone's CPU charges),
//! * [`PollMode::Event`] is charged the configured interrupt/wakeup
//!   latency on delivery — an entry is observable `event_wakeup_ns` after
//!   its readiness — and burns no *simulated* CPU while it waits: it is not
//!   a registered spinner. The wait itself polls like the busy arm's: a
//!   real futex wake-up on a core-starved host costs more than the
//!   modelled 2.6 µs.
//!
//! Both arms wait by the one step of [`crate::time::wait_step`]: a
//! completion or node effect already queued within the scheduling window
//! is waited out on the clock alone; otherwise the poller yields, and a
//! poller dry for [`crate::time::IDLE_BACKOFF_AFTER_NS`] naps on the CQ's
//! condition variable. A poll that finds nothing ready reads atomics only —
//! the earliest entry's readiness and the node's earliest effect, mirrored
//! out of their heaps — and takes no lock; only a long-idle nap takes the
//! heap lock, to count itself in.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Condvar, Mutex};

use crate::error::{RdmaError, Result};
use crate::node::Node;
use crate::stats::NodeStats;
use crate::time::now_ns;
use crate::wr::Opcode;

/// Completion status, mirroring the `ibv_wc_status` values the protocols
/// care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// Operation completed successfully.
    Success,
    /// Payload did not fit the local buffer.
    LocalLengthError,
    /// Remote key / bounds check failed on a one-sided operation.
    RemoteAccessError,
    /// Peer disconnected mid-operation.
    FlushError,
}

/// A completion queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The `wr_id` of the work request that completed.
    pub wr_id: u64,
    /// What kind of operation completed.
    pub opcode: Opcode,
    /// Bytes transferred.
    pub byte_len: usize,
    /// Immediate data (WRITE_WITH_IMM receive completions only).
    pub imm: Option<u32>,
    /// Outcome.
    pub status: CompletionStatus,
    /// Id of the endpoint this completion belongs to — lets a server thread
    /// multiplex many connections over one shared CQ.
    pub qp_id: u64,
}

impl Completion {
    /// Turn an unsuccessful completion into an error.
    pub fn ok(self) -> Result<Completion> {
        match self.status {
            CompletionStatus::Success => Ok(self),
            CompletionStatus::FlushError => Err(RdmaError::Disconnected),
            other => Err(RdmaError::InvalidWorkRequest(format!("completion failed: {other:?}"))),
        }
    }
}

/// How to wait for completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PollMode {
    /// Spin on the CQ: lowest latency, one core per poller.
    #[default]
    Busy,
    /// Block on a completion event: higher latency, near-zero CPU.
    Event,
}

/// Heap entry ordered by readiness time (earliest first).
struct Entry {
    ready_at: u64,
    seq: u64,
    completion: Completion,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.ready_at == other.ready_at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on (ready_at, seq).
        (other.ready_at, other.seq).cmp(&(self.ready_at, self.seq))
    }
}

/// A completion-arrival callback registered on a CQ with
/// [`CompletionQueue::register_notify`]. Invoked (synchronously, from the
/// pushing thread) after every entry lands in the heap — the entry is
/// already observable when the callback runs, so a woken waiter always
/// finds the work that woke it. Implementations must be cheap and must
/// not poll the CQ from inside the callback.
///
/// Reactors implement this to demux readiness per connection (a ready
/// queue of connection indices); nothing parks on it.
pub trait CqNotify: Send + Sync {
    /// A completion was pushed on a CQ this notifier is registered with.
    fn notify(&self);
}

/// Pending completions ordered by readiness, the push sequence that keeps
/// equal-time entries FIFO, and how many pollers nap on the condvar.
#[derive(Default)]
struct Heap {
    entries: BinaryHeap<Entry>,
    seq: u64,
    nappers: usize,
}

impl Heap {
    fn head(&self) -> u64 {
        self.entries.peek().map_or(u64::MAX, |e| e.ready_at)
    }
}

pub(crate) struct CqInner {
    node: Weak<Node>,
    heap: Mutex<Heap>,
    /// `ready_at` of the earliest entry, `u64::MAX` with none: the heap's
    /// head, written under the heap lock whenever it changes, so a poll
    /// with nothing ready reads it without taking that lock. Relaxed, as
    /// [`Node`]'s mirrored effect deadline is.
    head: AtomicU64,
    cond: Condvar,
    /// Reactor notifiers to invoke on push; dead entries are pruned lazily.
    wakers: Mutex<Vec<Weak<dyn CqNotify>>>,
    /// `wakers.len()`, so a push on a CQ nobody registered with skips the
    /// lock. Written under that lock. A push reads it after releasing the
    /// heap lock, so a registration that then polls the CQ either finds
    /// the entry or is seen by the push.
    registered: AtomicUsize,
}

impl CqInner {
    /// Push a completion that becomes observable at `ready_at`.
    ///
    /// This is the single funnel every completion flows through (send
    /// completions, receive deliveries, one-sided ops), so fault injection
    /// hooks here: a configured [`crate::fault::FaultPlan`] may drop the
    /// completion outright or push its readiness time out.
    pub(crate) fn push(&self, ready_at: u64, completion: Completion) {
        let mut ready_at = ready_at;
        if let Some(node) = self.node.upgrade() {
            if let Some(f) = node.faults() {
                match f.on_completion(completion.qp_id) {
                    crate::fault::CompletionFault::Deliver => {}
                    crate::fault::CompletionFault::Delay(extra) => {
                        NodeStats::add(&node.stats().faults_delayed, 1);
                        ready_at = ready_at.saturating_add(node.config().scaled(extra));
                    }
                    crate::fault::CompletionFault::Drop => {
                        NodeStats::add(&node.stats().faults_dropped, 1);
                        return;
                    }
                }
            }
        }
        let mut guard = self.heap.lock();
        let seq = guard.seq;
        guard.seq += 1;
        guard.entries.push(Entry { ready_at, seq, completion });
        self.head.store(guard.head(), Ordering::Relaxed);
        // The std condvar under `parking_lot::Condvar` wakes through a
        // syscall whether or not anyone waits: notify only a napper, which
        // counted itself in under this lock before it went to sleep.
        let napping = guard.nappers > 0;
        drop(guard);
        if napping {
            self.cond.notify_all();
        }
        if self.registered.load(Ordering::Relaxed) != 0 {
            self.wake();
        }
    }

    /// Pop the earliest entry if it was ready at `by`. With nothing ready
    /// this reads the mirrored head only.
    fn pop_ready(&self, by: u64) -> Option<Entry> {
        if self.head.load(Ordering::Relaxed) > by {
            return None;
        }
        let mut heap = self.heap.lock();
        if heap.head() > by {
            return None;
        }
        let entry = heap.entries.pop();
        self.head.store(heap.head(), Ordering::Relaxed);
        entry
    }

    /// Invoke every registered [`CqNotify`], pruning dead ones: after a
    /// push, and when the QP under this CQ goes down (a real QP flushes
    /// its posted receives into the CQ then, so a reactor hears of it).
    pub(crate) fn wake(&self) {
        let mut wakers = self.wakers.lock();
        wakers.retain(|w| match w.upgrade() {
            Some(w) => {
                w.notify();
                true
            }
            None => false,
        });
        self.registered.store(wakers.len(), Ordering::Relaxed);
    }
}

/// A completion queue bound to a node: each endpoint has a send CQ and a
/// receive CQ of its own. Cheaply cloneable.
#[derive(Clone)]
pub struct CompletionQueue {
    pub(crate) inner: Arc<CqInner>,
}

impl std::fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionQueue").field("depth", &self.len()).finish()
    }
}

impl CompletionQueue {
    /// Create a CQ on `node`.
    pub(crate) fn new(node: &Arc<Node>) -> CompletionQueue {
        CompletionQueue {
            inner: Arc::new(CqInner {
                node: Arc::downgrade(node),
                heap: Mutex::new(Heap::default()),
                head: AtomicU64::new(u64::MAX),
                cond: Condvar::new(),
                wakers: Mutex::new(Vec::new()),
                registered: AtomicUsize::new(0),
            }),
        }
    }

    pub(crate) fn downgrade(&self) -> Weak<CqInner> {
        Arc::downgrade(&self.inner)
    }

    /// Number of entries currently queued (including not-yet-ready ones).
    pub fn len(&self) -> usize {
        self.inner.heap.lock().entries.len()
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn node(&self) -> Option<Arc<Node>> {
        self.inner.node.upgrade()
    }

    /// When the earliest queued entry is (or was) ready, if any: the
    /// mirrored head, read without the heap's lock.
    pub fn next_ready_at(&self) -> Option<u64> {
        let head = self.inner.head.load(Ordering::Relaxed);
        (head != u64::MAX).then_some(head)
    }

    /// The earliest entry's readiness read under the heap's lock, the
    /// value [`CompletionQueue::next_ready_at`] mirrors. For tests that
    /// check the mirror.
    #[doc(hidden)]
    pub fn next_ready_at_locked(&self) -> Option<u64> {
        let head = self.inner.heap.lock().head();
        (head != u64::MAX).then_some(head)
    }

    /// Non-blocking poll: returns a completion if one is ready *now*.
    pub fn try_poll(&self) -> Option<Completion> {
        let node = self.node()?;
        let now = now_ns();
        node.drain_at(now);
        let e = self.inner.pop_ready(now)?;
        NodeStats::add(&node.stats().completions, 1);
        // Consuming the CQE began at the `now` that found it ready.
        let charge = node.begin_charge_at(now, node.config().cost.poll_cqe_ns);
        if hat_trace::enabled() {
            hat_trace::event(
                hat_trace::Phase::Completion,
                node.id(),
                hat_trace::current_call(),
                e.completion.wr_id,
                charge.end_ns(),
            );
        }
        Some(e.completion)
    }

    /// Blocking poll with the given mechanism. See module docs.
    pub fn poll_one(&self, mode: PollMode) -> Result<Completion> {
        self.poll_timeout(mode, u64::MAX)
    }

    /// Blocking poll with a timeout in nanoseconds of real time.
    pub fn poll_timeout(&self, mode: PollMode, timeout_ns: u64) -> Result<Completion> {
        let node = self.node().ok_or(RdmaError::Disconnected)?;
        let start = now_ns();
        let give_up = start.saturating_add(timeout_ns);
        match mode {
            PollMode::Busy => {
                // Spin: counts as an active CPU burner on this node.
                let _spin = node.enter_spin();
                // Long-idle pollers nap (`time::wait_step`); simulated CPU
                // is still accounted for the full window (a real busy
                // poller burns its core whether or not messages arrive).
                let mut now = start;
                loop {
                    node.drain_at(now);
                    if let Some(e) = self.inner.pop_ready(now) {
                        NodeStats::add(&node.stats().completions, 1);
                        NodeStats::add(&node.stats().cpu_busy_ns, now - start);
                        if hat_trace::enabled() {
                            hat_trace::event(
                                hat_trace::Phase::Completion,
                                node.id(),
                                hat_trace::current_call(),
                                e.completion.wr_id,
                                now,
                            );
                        }
                        return Ok(e.completion);
                    }
                    if now >= give_up {
                        NodeStats::add(&node.stats().cpu_busy_ns, now - start);
                        return Err(RdmaError::Timeout);
                    }
                    // The spinner registration above models the burned
                    // simulated core; the host core is yielded unless the
                    // next arrival is already scheduled and near.
                    now = self.dry_step(&node, start, now, 0);
                }
            }
            PollMode::Event => {
                // Event polling is modelled in VIRTUAL time: a completion
                // becomes observable `event_wakeup_ns` after its wire
                // readiness (the interrupt + context switch + wakeup
                // path), and the waiting thread burns (almost) no
                // *simulated* CPU — it is not registered as a spinner and
                // charges only the per-CQE cost. The wait itself polls,
                // by the same step as the busy arm, rather than parking on
                // a condition variable: on hosts with fewer cores than
                // simulated threads, a real futex wakeup costs more
                // scheduler latency than the modelled 2.6 µs and would
                // invert every busy-vs-event comparison. (Simulated CPU
                // accounting, which drives the over-subscription model, is
                // unaffected either way.)
                let wake = node.config().scaled(node.config().cost.event_wakeup_ns);
                let mut now = start;
                loop {
                    node.drain_at(now);
                    // Observable once `ready_at + wake <= now`.
                    let by = now.checked_sub(wake);
                    if let Some(e) = by.and_then(|by| self.inner.pop_ready(by)) {
                        NodeStats::add(&node.stats().completions, 1);
                        let charge = node.begin_charge_at(now, node.config().cost.poll_cqe_ns);
                        if hat_trace::enabled() {
                            // The interrupt/wakeup path is a distinct §3.2
                            // stage: mark when the entry became ready and
                            // when the woken thread consumed it.
                            let call = hat_trace::current_call();
                            hat_trace::event(
                                hat_trace::Phase::Wakeup,
                                node.id(),
                                call,
                                wake,
                                e.ready_at + wake,
                            );
                            hat_trace::event(
                                hat_trace::Phase::Completion,
                                node.id(),
                                call,
                                e.completion.wr_id,
                                charge.end_ns(),
                            );
                        }
                        return Ok(e.completion);
                    }
                    if now >= give_up {
                        return Err(RdmaError::Timeout);
                    }
                    now = self.dry_step(&node, start, now, wake);
                }
            }
        }
    }

    /// One step of a dry `poll_timeout` wait, the CQ's form of
    /// [`crate::time::wait_step`]; an entry is observable `wake` after its
    /// readiness. A parked in-flight payload is read ahead
    /// ([`Node::warm_inbound`]) if the node has one. Otherwise the awaited
    /// instant is the earlier of the node's next effect and the head
    /// entry's observability, both read from their mirrors before the step
    /// waits: one already queued within the window is waited out on the
    /// clock alone (an entry observable already was pushed since the check,
    /// which runs again at once), else the step yields so the peer — or
    /// another thread still applying a due effect — can run even on
    /// core-starved hosts, or, long idle, naps on the condvar. The nap
    /// repeats the dry check (nothing observable by `now`) under the heap
    /// lock, counts the napper in under that lock and waits still holding
    /// it, so a push racing with the check either landed before the locked
    /// check or sees the napper and notifies the wait: no wakeup is ever
    /// lost. Returns the clock value the step ended on, the `now` of the
    /// next check.
    fn dry_step(&self, node: &Node, dry_since: u64, now: u64, wake: u64) -> u64 {
        if node.has_unwarmed() {
            node.warm_inbound();
            return now_ns();
        }
        let observable = self.inner.head.load(Ordering::Relaxed).saturating_add(wake);
        if observable <= now {
            // Pushed since the check (by another thread's drain): check again.
            return now;
        }
        let next = node.next_effect_deadline().unwrap_or(u64::MAX).min(observable);
        crate::time::wait_step(now, next, dry_since, 0, || {
            let by = now.saturating_sub(wake);
            let mut heap = self.inner.heap.lock();
            if heap.head() <= by {
                return;
            }
            heap.nappers += 1;
            self.inner.cond.wait_for(&mut heap, crate::time::IDLE_NAP);
            heap.nappers -= 1;
        })
    }

    /// Register a [`CqNotify`] callback: every subsequent [`CqInner::push`]
    /// on this CQ invokes it. Dropping all `Arc`s to the notifier
    /// unregisters it lazily (the push path prunes dead weak refs).
    pub fn register_notify<N: CqNotify + 'static>(&self, notify: &Arc<N>) {
        let weak: Weak<dyn CqNotify> = Arc::downgrade(notify) as Weak<dyn CqNotify>;
        let mut wakers = self.inner.wakers.lock();
        wakers.push(weak);
        self.inner.registered.store(wakers.len(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SimConfig;
    use crate::fabric::Fabric;

    fn cq() -> (Fabric, Arc<Node>, CompletionQueue) {
        let f = Fabric::new(SimConfig::fast_test());
        let n = f.add_node("n");
        let cq = CompletionQueue::new(&n);
        (f, n, cq)
    }

    fn comp(wr_id: u64) -> Completion {
        Completion {
            wr_id,
            opcode: Opcode::Send,
            byte_len: 0,
            imm: None,
            status: CompletionStatus::Success,
            qp_id: 0,
        }
    }

    #[test]
    fn ready_completion_polls_immediately() {
        let (_f, _n, cq) = cq();
        cq.inner.push(0, comp(42));
        let c = cq.poll_one(PollMode::Busy).unwrap();
        assert_eq!(c.wr_id, 42);
    }

    #[test]
    fn not_ready_completion_waits_for_deadline() {
        let (_f, _n, cq) = cq();
        let t = now_ns();
        cq.inner.push(t + 200_000, comp(1)); // 200 us out
        assert!(cq.try_poll().is_none());
        let c = cq.poll_one(PollMode::Busy).unwrap();
        assert!(now_ns() >= t + 200_000);
        assert_eq!(c.wr_id, 1);
    }

    #[test]
    fn completions_pop_in_ready_order() {
        let (_f, _n, cq) = cq();
        let t = now_ns();
        cq.inner.push(t + 2, comp(2));
        cq.inner.push(t + 1, comp(1));
        crate::time::spin_until(t + 3);
        assert_eq!(cq.poll_one(PollMode::Busy).unwrap().wr_id, 1);
        assert_eq!(cq.poll_one(PollMode::Busy).unwrap().wr_id, 2);
    }

    #[test]
    fn busy_poll_times_out() {
        let (_f, _n, cq) = cq();
        let err = cq.poll_timeout(PollMode::Busy, 100_000).unwrap_err();
        assert_eq!(err, RdmaError::Timeout);
    }

    #[test]
    fn event_poll_times_out() {
        let (_f, _n, cq) = cq();
        let err = cq.poll_timeout(PollMode::Event, 100_000).unwrap_err();
        assert_eq!(err, RdmaError::Timeout);
    }

    #[test]
    fn event_poll_wakes_on_push_from_other_thread() {
        let (_f, _n, cq) = cq();
        let cq2 = cq.clone();
        let h = std::thread::spawn(move || cq2.poll_timeout(PollMode::Event, 2_000_000_000));
        std::thread::sleep(std::time::Duration::from_millis(10));
        cq.inner.push(now_ns(), comp(7));
        let c = h.join().unwrap().unwrap();
        assert_eq!(c.wr_id, 7);
    }

    #[test]
    fn event_poll_is_slower_than_busy_poll() {
        // Best-of-8 comparison: the event path's wakeup latency is a
        // deterministic floor; single samples absorb scheduler noise.
        // Unscaled costs: the 2.6 µs wake-up must stand clear of the few
        // hundred ns a poll takes on the host.
        let f = Fabric::new(SimConfig::default());
        let cq = CompletionQueue::new(&f.add_node("n"));
        let best = |mode: PollMode| {
            let mut best = u64::MAX;
            for i in 0..8 {
                let t = now_ns();
                cq.inner.push(t, comp(i));
                cq.poll_one(mode).unwrap();
                best = best.min(now_ns() - t);
            }
            best
        };
        let busy = best(PollMode::Busy);
        let event = best(PollMode::Event);
        assert!(
            event > busy,
            "event polling must pay wakeup latency (busy={busy}ns event={event}ns)"
        );
    }

    #[test]
    fn failed_completion_converts_to_error() {
        let c = Completion { status: CompletionStatus::FlushError, ..comp(1) };
        assert_eq!(c.ok().unwrap_err(), RdmaError::Disconnected);
        assert!(comp(1).ok().is_ok());
    }

    /// Regression for the lost-wakeup audit: a second thread pushing
    /// completions in a tight loop must never leave an Event-mode poller
    /// stuck in its nap past the entry's readiness — every push is either
    /// seen by the pre-park peek or wakes the timed condvar wait.
    #[test]
    fn event_poll_never_misses_tight_posts_from_second_thread() {
        let (_f, _n, cq) = cq();
        const N: u64 = 200;
        let cq2 = cq.clone();
        let poster = std::thread::spawn(move || {
            for i in 0..N {
                cq2.inner.push(now_ns(), comp(i));
                if i % 16 == 0 {
                    // Occasionally let the poller go idle long enough to
                    // reach its parked-nap branch.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        });
        for _ in 0..N {
            cq.poll_timeout(PollMode::Event, 2_000_000_000)
                .expect("a pushed completion must never be lost");
        }
        poster.join().unwrap();
        assert!(cq.is_empty());
    }

    /// Every registered notifier hears every push, after the entry is
    /// observable; a dropped notifier is pruned, not called.
    #[test]
    fn registered_notifiers_see_each_push_after_it_lands() {
        struct Seen(CompletionQueue, std::sync::atomic::AtomicUsize);
        impl CqNotify for Seen {
            fn notify(&self) {
                assert!(!self.0.is_empty(), "entry lands before the callback");
                self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let (_f, _n, cq) = cq();
        let a = Arc::new(Seen(cq.clone(), Default::default()));
        let b = Arc::new(Seen(cq.clone(), Default::default()));
        cq.register_notify(&a);
        cq.register_notify(&b);
        cq.inner.push(now_ns(), comp(1));
        drop(b);
        cq.inner.push(now_ns(), comp(2));
        assert_eq!(a.1.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(cq.inner.wakers.lock().len(), 1, "the dropped notifier is pruned");
    }

    #[test]
    fn fault_plan_drops_completions_at_the_cq() {
        let f = Fabric::new(
            SimConfig::fast_test().with_fault_plan(
                crate::fault::FaultPlan::new(1)
                    .drop_completions(crate::fault::FaultScope::AllNodes, 1.0),
            ),
        );
        let n = f.add_node("n");
        let cq = CompletionQueue::new(&n);
        cq.inner.push(0, comp(1));
        assert!(cq.try_poll().is_none(), "dropped completion must never surface");
        assert_eq!(n.stats_snapshot().faults_dropped, 1);
        assert_eq!(cq.poll_timeout(PollMode::Busy, 50_000).unwrap_err(), RdmaError::Timeout);
    }

    #[test]
    fn fault_plan_delays_completions_at_the_cq() {
        let f = Fabric::new(SimConfig::fast_test().with_fault_plan(
            crate::fault::FaultPlan::new(1).delay_completions(
                crate::fault::FaultScope::AllNodes,
                crate::fault::DelayDistribution::Fixed { ns: 5_000_000 },
            ),
        ));
        let n = f.add_node("n");
        let cq = CompletionQueue::new(&n);
        let t = now_ns();
        cq.inner.push(t, comp(1));
        assert!(cq.try_poll().is_none(), "completion must not be ready before the delay");
        cq.poll_one(PollMode::Busy).unwrap();
        // fast_test scales durations by 0.1: 5 ms modeled -> 500 us real.
        assert!(now_ns() - t >= 400_000, "delay must actually be applied");
        assert_eq!(n.stats_snapshot().faults_delayed, 1);
    }
}
