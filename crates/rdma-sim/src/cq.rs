//! Completion queues with busy and event polling.
//!
//! The polling mechanism is the single most consequential knob in the
//! paper's hint→protocol mapping (Figure 6): busy polling minimizes latency
//! but burns a core per poller; event polling adds interrupt latency but
//! scales past core counts. Here:
//!
//! * [`PollMode::Busy`] genuinely spins, registered as an active spinner on
//!   the CQ's node (so over-subscription inflates everyone's CPU charges),
//! * [`PollMode::Event`] parks on a condition variable with timed waits
//!   sized by the next known deadline, charges the configured
//!   interrupt/wakeup latency on delivery, and burns no CPU while blocked.

use std::collections::BinaryHeap;
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

/// Pending completions ordered by readiness, plus the push sequence that
/// keeps equal-time entries FIFO.
type Heap = (BinaryHeap<Entry>, u64);

pub(crate) struct CqInner {
    node: Weak<Node>,
    heap: Mutex<Heap>,
    cond: Condvar,
    /// Reactor notifiers to invoke on push; dead entries are pruned lazily.
    wakers: Mutex<Vec<Weak<dyn CqNotify>>>,
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
        let seq = guard.1;
        guard.1 += 1;
        guard.0.push(Entry { ready_at, seq, completion });
        drop(guard);
        self.cond.notify_all();
        let mut wakers = self.wakers.lock();
        if !wakers.is_empty() {
            wakers.retain(|w| match w.upgrade() {
                Some(w) => {
                    w.notify();
                    true
                }
                None => false,
            });
        }
    }
}

/// A completion queue bound to a node. Cheaply cloneable; may be shared by
/// many endpoints (the shared-CQ pattern servers use to serve hundreds of
/// connections with few threads).
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
    /// Create a standalone CQ on `node` (for shared-CQ setups; endpoints
    /// created by [`crate::Fabric::connect`] get their own).
    pub fn new(node: &Arc<Node>) -> CompletionQueue {
        CompletionQueue {
            inner: Arc::new(CqInner {
                node: Arc::downgrade(node),
                heap: Mutex::new((BinaryHeap::new(), 0)),
                cond: Condvar::new(),
                wakers: Mutex::new(Vec::new()),
            }),
        }
    }

    pub(crate) fn downgrade(&self) -> Weak<CqInner> {
        Arc::downgrade(&self.inner)
    }

    /// Number of entries currently queued (including not-yet-ready ones).
    pub fn len(&self) -> usize {
        self.inner.heap.lock().0.len()
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn node(&self) -> Option<Arc<Node>> {
        self.inner.node.upgrade()
    }

    /// Non-blocking poll: returns a completion if one is ready *now*.
    pub fn try_poll(&self) -> Option<Completion> {
        let node = self.node()?;
        node.drain_effects();
        let now = now_ns();
        let mut guard = self.inner.heap.lock();
        if guard.0.peek().is_some_and(|e| e.ready_at <= now) {
            let e = guard.0.pop().expect("peeked entry present");
            drop(guard);
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
        } else {
            None
        }
    }

    /// Blocking poll with the given mechanism. See module docs.
    pub fn poll_one(&self, mode: PollMode) -> Result<Completion> {
        self.poll_timeout(mode, u64::MAX)
    }

    /// Blocking poll with a timeout in nanoseconds of real time.
    pub fn poll_timeout(&self, mode: PollMode, timeout_ns: u64) -> Result<Completion> {
        let node = self.node().ok_or(RdmaError::Disconnected)?;
        let give_up = now_ns().saturating_add(timeout_ns);
        match mode {
            PollMode::Busy => {
                // Spin: counts as an active CPU burner on this node.
                let _spin = node.enter_spin();
                let start = now_ns();
                // Long-idle pollers nap (`time::long_idle`); simulated CPU
                // is still accounted for the full window (a real busy
                // poller burns its core whether or not messages arrive).
                loop {
                    node.drain_effects();
                    let now = now_ns();
                    let mut guard = self.inner.heap.lock();
                    if guard.0.peek().is_some_and(|e| e.ready_at <= now) {
                        let e = guard.0.pop().expect("peeked entry present");
                        drop(guard);
                        NodeStats::add(&node.stats().completions, 1);
                        NodeStats::add(&node.stats().cpu_busy_ns, now_ns() - start);
                        if hat_trace::enabled() {
                            hat_trace::event(
                                hat_trace::Phase::Completion,
                                node.id(),
                                hat_trace::current_call(),
                                e.completion.wr_id,
                                now_ns(),
                            );
                        }
                        return Ok(e.completion);
                    }
                    if now >= give_up {
                        drop(guard);
                        NodeStats::add(&node.stats().cpu_busy_ns, now - start);
                        return Err(RdmaError::Timeout);
                    }
                    // The spinner registration above models the burned
                    // simulated core; the host core is yielded.
                    self.dry_step(guard, start, now);
                }
            }
            PollMode::Event => {
                // Event polling is modelled in VIRTUAL time: a completion
                // becomes observable `event_wakeup_ns` after its wire
                // readiness (the interrupt + context switch + wakeup
                // path), and the waiting thread burns (almost) no
                // *simulated* CPU — it is not registered as a spinner and
                // charges only the per-CQE cost. The wait itself is
                // realized by yield-polling rather than parking on a
                // condition variable: on hosts with fewer cores than
                // simulated threads, a real futex wakeup costs hundreds
                // of microseconds of scheduler latency and would swamp
                // the modelled 2.6 µs, inverting every busy-vs-event
                // comparison. (Simulated CPU accounting, which drives the
                // over-subscription model, is unaffected either way.)
                let wake = node.config().scaled(node.config().cost.event_wakeup_ns);
                let start = now_ns();
                loop {
                    node.drain_effects();
                    let now = now_ns();
                    let mut guard = self.inner.heap.lock();
                    if guard.0.peek().is_some_and(|e| e.ready_at + wake <= now) {
                        let e = guard.0.pop().expect("peeked entry present");
                        drop(guard);
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
                    self.dry_step(guard, start, now);
                }
            }
        }
    }

    /// One step of a dry `poll_timeout` wait, the CQ's form of
    /// [`crate::time::dry_pause`]: yield so the peer can run even on
    /// core-starved hosts, or — long idle — nap on the condvar. The nap is
    /// taken while still holding the heap lock the dry check ran under, so
    /// a push racing with the check either landed before the peek or
    /// notifies the wait: no wakeup is ever lost.
    fn dry_step(&self, mut heap: parking_lot::MutexGuard<'_, Heap>, dry_since: u64, now: u64) {
        if crate::time::long_idle(dry_since, now) {
            self.inner.cond.wait_for(&mut heap, crate::time::IDLE_NAP);
        } else {
            drop(heap);
            std::thread::yield_now();
        }
    }

    /// Non-blocking batch drain into a caller-owned buffer (appended, not
    /// cleared) so a reactor's hot loop allocates nothing after warm-up.
    /// Returns the number of completions drained.
    pub fn try_poll_batch(&self, out: &mut Vec<Completion>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.try_poll() {
                Some(c) => {
                    out.push(c);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Register a [`CqNotify`] callback: every subsequent [`CqInner::push`]
    /// on this CQ invokes it. Dropping all `Arc`s to the notifier
    /// unregisters it lazily (the push path prunes dead weak refs).
    pub fn register_notify<N: CqNotify + 'static>(&self, notify: &Arc<N>) {
        let weak: Weak<dyn CqNotify> = Arc::downgrade(notify) as Weak<dyn CqNotify>;
        self.inner.wakers.lock().push(weak);
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
    fn try_poll_batch_appends_into_reused_buffer() {
        let (_f, _n, cq) = cq();
        let t = now_ns();
        cq.inner.push(t, comp(1));
        cq.inner.push(t, comp(2));
        cq.inner.push(t + 500_000_000, comp(3)); // far future: not drained
        let mut buf = Vec::with_capacity(8);
        assert_eq!(cq.try_poll_batch(&mut buf, 8), 2);
        assert_eq!(buf.len(), 2);
        assert_eq!(cq.len(), 1);
        // Append semantics: a second drain after more pushes keeps earlier
        // entries in place (callers clear between laps).
        cq.inner.push(t, comp(4));
        assert_eq!(cq.try_poll_batch(&mut buf, 8), 1);
        assert_eq!(buf.len(), 3);
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
