//! # hat-trace — virtual-time RPC tracing for the HatRPC reproduction
//!
//! The paper's §3.2 analysis decomposes RPC latency into per-stage
//! segments (WR post CPU, doorbell MMIO, NIC processing, wire
//! serialization, delivery, polling wakeups). This crate captures exactly
//! those stages from the simulator's virtual clock:
//!
//! * **Events** — fixed-size, timestamped records written into a bounded
//!   pre-allocated ring ([`event`]). Writers never block and never
//!   allocate; when the ring wraps, the oldest events are overwritten.
//! * **Spans** — a per-RPC *call id* minted by the engine
//!   ([`next_call_id`]) and threaded through the protocol layer into
//!   sim-level events via a thread-local ([`call_scope`]), so a WR post
//!   deep inside `hat-rdma-sim` knows which RPC it belongs to. The table
//!   naming those calls ([`register_call`]) is bounded like the ring: it
//!   keeps the most recent calls, at most one per ring slot.
//! * **Histograms** — log2-bucketed latency distributions keyed by
//!   protocol × fn-scope × payload-size class ([`hist`]).
//! * **Export** — a Chrome-trace-event / Perfetto JSON rendering of the
//!   timeline, one track per node, with async flow arrows connecting the
//!   client's post to the server-side delivery, and the counter tracks a
//!   `hat-metrics` sampler hands in ([`export`]).
//!
//! ## Zero cost when disabled
//!
//! Tracing is off by default. Every recording entry point starts with an
//! `#[inline]` check of one relaxed atomic load and returns immediately
//! when tracing is disabled — no allocation, no locks, no timestamp
//! reads. The protocols crate's counting-allocator test runs with this
//! crate compiled in and relies on that guarantee.
//!
//! This crate is intentionally dependency-free and clock-free: callers
//! pass in timestamps (the simulator's `now_ns`), so `hat-rdma-sim` can
//! depend on it without a cycle.

pub mod export;
pub mod hist;

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Global enable flag
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the latency histograms record. Kept as its *own* flag so the
/// hot-path check in [`hist::record_latency`] stays exactly one relaxed
/// load: it is the OR of the event-ring flag and the standalone
/// histogram requests (see [`hist_handle`]), recomputed on the rare
/// enable/disable paths.
static HIST_ENABLED: AtomicBool = AtomicBool::new(false);

/// Standalone histogram-recording requests (live `hat-metrics` samplers
/// that want latency distributions without paying for the event ring).
static HIST_STANDALONE: AtomicUsize = AtomicUsize::new(0);

/// Whether tracing is currently enabled. One relaxed load; inlined into
/// every recording hook so the disabled path is a compare-and-branch.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether latency histograms are recording (event-ring tracing on, or
/// at least one standalone histogram handle live). One relaxed load.
#[inline(always)]
pub fn hist_enabled() -> bool {
    HIST_ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
    recompute_hist_enabled();
}

fn recompute_hist_enabled() {
    let on = ENABLED.load(Ordering::Relaxed) || HIST_STANDALONE.load(Ordering::Relaxed) > 0;
    HIST_ENABLED.store(on, Ordering::Relaxed);
}

/// RAII handle keeping latency histograms recording while the full
/// event-ring tracing stays off. A live-telemetry sampler holds one for
/// its lifetime; histograms stop recording when the last handle drops
/// (unless [`set_enabled`]\(true\) keeps them on).
#[derive(Debug)]
pub struct HistHandle(());

/// Enable standalone histogram recording for the lifetime of the handle.
pub fn hist_handle() -> HistHandle {
    HIST_STANDALONE.fetch_add(1, Ordering::Relaxed);
    recompute_hist_enabled();
    HistHandle(())
}

impl Drop for HistHandle {
    fn drop(&mut self) {
        HIST_STANDALONE.fetch_sub(1, Ordering::Relaxed);
        recompute_hist_enabled();
    }
}

/// Clear all captured state: the event ring, call metadata, annotations,
/// and latency histograms. Track registrations (node names) are kept —
/// nodes outlive capture windows.
pub fn reset() {
    ring().reset();
    calls_table().lock().expect("call table poisoned").clear();
    annotations_table().lock().expect("annotation table poisoned").clear();
    hist::reset();
}

// ---------------------------------------------------------------------------
// Call ids and the per-thread current span
// ---------------------------------------------------------------------------

static NEXT_CALL_ID: AtomicU64 = AtomicU64::new(1);

/// Mint a fresh, process-unique RPC call id (never 0; 0 means "no call").
#[inline]
pub fn next_call_id() -> u64 {
    NEXT_CALL_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static CURRENT_CALL: Cell<u64> = const { Cell::new(0) };
}

/// The call id the current thread is working on (0 when none).
///
/// Sim-level hooks read this so that a WR posted by the protocol layer is
/// attributed to the RPC whose engine-level span is open on this thread.
#[inline]
pub fn current_call() -> u64 {
    CURRENT_CALL.with(|c| c.get())
}

/// RAII guard restoring the previous thread-current call id on drop.
pub struct CallScope {
    prev: u64,
}

/// Set the thread-current call id for the lifetime of the returned guard.
#[inline]
pub fn call_scope(call_id: u64) -> CallScope {
    let prev = CURRENT_CALL.with(|c| c.replace(call_id));
    CallScope { prev }
}

impl Drop for CallScope {
    fn drop(&mut self) {
        CURRENT_CALL.with(|c| c.set(self.prev));
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What happened. Sim-level phases reconstruct the paper's §3.2 stage
/// decomposition; engine-level phases delimit RPC spans; protocol-level
/// phases mark the pipelined channel's batching boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Engine: client call span opened (`arg` = request bytes).
    CallBegin = 0,
    /// Engine: client call span closed (`arg` = 1 ok / 0 failed).
    CallEnd = 1,
    /// Engine: server began handling a request (`arg` = request bytes).
    ServerBegin = 2,
    /// Engine: server finished a request (`arg` = response bytes).
    ServerEnd = 3,
    /// Engine: a call attempt failed retryably and will be retried
    /// (`arg` = attempt number).
    Retry = 4,
    /// Engine: a call gave up with a timeout.
    TimedOut = 5,
    /// Sim: work-request chain handed to the QP (`arg` = chain length).
    WrPost = 6,
    /// Sim: MMIO doorbell rung for a posted chain.
    Doorbell = 7,
    /// Sim: NIC starts serializing onto the egress link.
    NicTx = 8,
    /// Sim: last byte leaves the egress link (`arg` = wire bytes).
    Wire = 9,
    /// Sim: payload becomes visible at the destination node
    /// (`arg` = bytes).
    Delivered = 10,
    /// Sim: a completion was consumed from a CQ (`arg` = wr_id).
    Completion = 11,
    /// Sim: an event-mode poller paid its interrupt/wakeup latency.
    Wakeup = 12,
    /// Protocol: a pipelined channel flushed staged WRs under one
    /// doorbell.
    Flush = 13,
    /// Protocol: a pipelined server drained a request burst
    /// (`arg` = burst size).
    Burst = 14,
    /// Free-form annotation; the message lives in the side table.
    Note = 15,
    /// Protocol: one READ phase of a one-sided GET completed
    /// (`arg` = bytes fetched; two per resolved key — index slot, then
    /// value cell).
    OneSidedRead = 16,
    /// Protocol: a one-sided GET gave up and fell back to the RPC path
    /// (`arg` = reason: 1 miss, 2 oversized, 3 seqlock conflict).
    OneSidedFallback = 17,
    /// Engine: a reactor driver was woken out of its park by a completion
    /// notify (`arg` = notify→resume latency in ns).
    ReactorWakeup = 18,
    /// Engine: a reactor resumed a connection state machine and served at
    /// least one request (`arg` = requests served this resume).
    ReactorResume = 19,
}

impl Phase {
    /// Short lowercase name used in exported traces.
    pub fn name(self) -> &'static str {
        match self {
            Phase::CallBegin => "call",
            Phase::CallEnd => "call_end",
            Phase::ServerBegin => "serve",
            Phase::ServerEnd => "serve_end",
            Phase::Retry => "retry",
            Phase::TimedOut => "timeout",
            Phase::WrPost => "wr_post",
            Phase::Doorbell => "doorbell",
            Phase::NicTx => "nic_tx",
            Phase::Wire => "wire",
            Phase::Delivered => "delivered",
            Phase::Completion => "completion",
            Phase::Wakeup => "wakeup",
            Phase::Flush => "flush",
            Phase::Burst => "burst",
            Phase::Note => "note",
            Phase::OneSidedRead => "onesided_read",
            Phase::OneSidedFallback => "onesided_fallback",
            Phase::ReactorWakeup => "reactor_wakeup",
            Phase::ReactorResume => "reactor_resume",
        }
    }

    /// Category used in exported traces ("rpc", "sim", or "proto").
    pub fn category(self) -> &'static str {
        match self {
            Phase::CallBegin
            | Phase::CallEnd
            | Phase::ServerBegin
            | Phase::ServerEnd
            | Phase::Retry
            | Phase::TimedOut
            | Phase::ReactorWakeup
            | Phase::ReactorResume => "rpc",
            Phase::WrPost
            | Phase::Doorbell
            | Phase::NicTx
            | Phase::Wire
            | Phase::Delivered
            | Phase::Completion
            | Phase::Wakeup => "sim",
            Phase::Flush | Phase::Burst | Phase::OneSidedRead | Phase::OneSidedFallback => "proto",
            Phase::Note => "note",
        }
    }

    fn from_u8(v: u8) -> Phase {
        match v {
            0 => Phase::CallBegin,
            1 => Phase::CallEnd,
            2 => Phase::ServerBegin,
            3 => Phase::ServerEnd,
            4 => Phase::Retry,
            5 => Phase::TimedOut,
            6 => Phase::WrPost,
            7 => Phase::Doorbell,
            8 => Phase::NicTx,
            9 => Phase::Wire,
            10 => Phase::Delivered,
            11 => Phase::Completion,
            12 => Phase::Wakeup,
            13 => Phase::Flush,
            14 => Phase::Burst,
            16 => Phase::OneSidedRead,
            17 => Phase::OneSidedFallback,
            18 => Phase::ReactorWakeup,
            19 => Phase::ReactorResume,
            _ => Phase::Note,
        }
    }
}

/// One captured event. Fixed-size and `Copy`: recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual-clock timestamp (simulator `now_ns`). Sim events computed
    /// at post time may carry *future* timestamps — the simulator knows
    /// each operation's deadline when it is scheduled.
    pub ts_ns: u64,
    /// The RPC this event belongs to (0 = unattributed).
    pub call_id: u64,
    /// Node the event happened on (the export track).
    pub node: u64,
    /// What happened.
    pub phase: Phase,
    /// Phase-specific payload (bytes, chain length, wr_id, ...).
    pub arg: u64,
}

/// Bounded event ring: parallel atomic arrays plus one write cursor.
///
/// `fetch_add` on the cursor reserves a slot; the five field stores are
/// relaxed. A reader racing a wrap-around can observe a torn *event*
/// (fields from two different writes) but never torn memory — acceptable
/// for diagnostics, and [`snapshot_events`] is only called after a
/// capture window quiesces anyway.
struct Ring {
    ts: Box<[AtomicU64]>,
    call: Box<[AtomicU64]>,
    node: Box<[AtomicU64]>,
    phase: Box<[AtomicU64]>,
    arg: Box<[AtomicU64]>,
    /// Total events ever written (not wrapped); `cursor % capacity` is
    /// the next slot.
    cursor: AtomicUsize,
}

/// Ring capacity. 64 Ki events ≈ 2.5 MB — a few thousand RPCs at ~10
/// events each; plenty for the capture windows `repro trace` runs.
const RING_CAPACITY: usize = 1 << 16;

impl Ring {
    fn new(capacity: usize) -> Ring {
        let mk = || (0..capacity).map(|_| AtomicU64::new(0)).collect::<Box<[AtomicU64]>>();
        Ring {
            ts: mk(),
            call: mk(),
            node: mk(),
            phase: mk(),
            arg: mk(),
            cursor: AtomicUsize::new(0),
        }
    }

    fn reset(&self) {
        self.cursor.store(0, Ordering::Relaxed);
    }

    fn push(&self, e: Event) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) % self.ts.len();
        self.ts[i].store(e.ts_ns, Ordering::Relaxed);
        self.call[i].store(e.call_id, Ordering::Relaxed);
        self.node[i].store(e.node, Ordering::Relaxed);
        self.phase[i].store(e.phase as u8 as u64, Ordering::Relaxed);
        self.arg[i].store(e.arg, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Vec<Event> {
        let written = self.cursor.load(Ordering::Relaxed);
        let cap = self.ts.len();
        let n = written.min(cap);
        let mut out = Vec::with_capacity(n);
        // Oldest-first when wrapped.
        let start = if written > cap { written % cap } else { 0 };
        for k in 0..n {
            let i = (start + k) % cap;
            out.push(Event {
                ts_ns: self.ts[i].load(Ordering::Relaxed),
                call_id: self.call[i].load(Ordering::Relaxed),
                node: self.node[i].load(Ordering::Relaxed),
                phase: Phase::from_u8(self.phase[i].load(Ordering::Relaxed) as u8),
                arg: self.arg[i].load(Ordering::Relaxed),
            });
        }
        out
    }
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring::new(RING_CAPACITY))
}

/// Record one event. No-op (one relaxed load) when tracing is disabled.
#[inline]
pub fn event(phase: Phase, node: u64, call_id: u64, arg: u64, ts_ns: u64) {
    if !enabled() {
        return;
    }
    ring().push(Event { ts_ns, call_id, node, phase, arg });
}

/// All captured events, oldest first, sorted by timestamp.
pub fn snapshot_events() -> Vec<Event> {
    let mut events = ring().snapshot();
    events.sort_by_key(|e| (e.ts_ns, e.call_id, e.phase as u8));
    events
}

/// How many events have been recorded since the last [`reset`] (may
/// exceed the ring capacity if the ring wrapped).
pub fn events_recorded() -> usize {
    ring().cursor.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Call metadata, node tracks, annotations
// ---------------------------------------------------------------------------

/// Per-call metadata registered by the engine when a span opens; gives
/// exported spans their names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallMeta {
    pub call_id: u64,
    /// Protocol label (e.g. "Eager-SendRecv").
    pub protocol: &'static str,
    /// The Thrift function scope ("Service.method"), or "" when unknown.
    pub fn_scope: String,
    /// Request payload bytes.
    pub bytes: u64,
}

/// The call table holds at most one entry per ring slot: a call needs at
/// least one event in the ring to show in an export, so older entries name
/// calls whose events have been overwritten.
fn calls_table() -> &'static Mutex<VecDeque<CallMeta>> {
    static CALLS: OnceLock<Mutex<VecDeque<CallMeta>>> = OnceLock::new();
    CALLS.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Register metadata for a call id (engine-level; allocation is fine
/// here — the engine call path allocates for payloads anyway), dropping
/// the oldest entry once the table holds as many calls as the event ring
/// holds events. No-op when disabled.
#[inline]
pub fn register_call(call_id: u64, protocol: &'static str, fn_scope: &str, bytes: u64) {
    if !enabled() {
        return;
    }
    let mut calls = calls_table().lock().expect("call table poisoned");
    if calls.len() == RING_CAPACITY {
        calls.pop_front();
    }
    calls.push_back(CallMeta { call_id, protocol, fn_scope: fn_scope.to_string(), bytes });
}

/// Snapshot of the registered call metadata, oldest first: the most
/// recent calls, at most one per event-ring slot.
pub fn calls() -> Vec<CallMeta> {
    calls_table().lock().expect("call table poisoned").iter().cloned().collect()
}

fn tracks_table() -> &'static Mutex<Vec<(u64, String)>> {
    static TRACKS: OnceLock<Mutex<Vec<(u64, String)>>> = OnceLock::new();
    TRACKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register a node id → display-name mapping (one export track per
/// node). Called at node creation regardless of the enable flag — node
/// creation is rare and a later capture window needs names for nodes
/// created before it started.
pub fn register_track(node: u64, name: &str) {
    let mut t = tracks_table().lock().expect("track table poisoned");
    if let Some(entry) = t.iter_mut().find(|(id, _)| *id == node) {
        entry.1 = name.to_string();
    } else {
        t.push((node, name.to_string()));
    }
}

/// All registered tracks, in node-id order.
pub fn tracks() -> Vec<(u64, String)> {
    let mut t = tracks_table().lock().expect("track table poisoned").clone();
    t.sort_by_key(|(id, _)| *id);
    t
}

fn annotations_table() -> &'static Mutex<Vec<(u64, u64, String)>> {
    static NOTES: OnceLock<Mutex<Vec<(u64, u64, String)>>> = OnceLock::new();
    NOTES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Record a free-form annotation (rare-path diagnostics that used to be
/// `eprintln!`s). No-op when disabled; callers should guard message
/// formatting behind [`enabled`].
#[inline]
pub fn annotate(node: u64, ts_ns: u64, msg: &str) {
    if !enabled() {
        return;
    }
    event(Phase::Note, node, current_call(), 0, ts_ns);
    annotations_table().lock().expect("annotation table poisoned").push((
        node,
        ts_ns,
        msg.to_string(),
    ));
}

/// All captured annotations as `(node, ts_ns, message)`.
pub fn annotations() -> Vec<(u64, u64, String)> {
    annotations_table().lock().expect("annotation table poisoned").clone()
}

/// Serializes unit tests that toggle the process-global enable flag.
#[cfg(test)]
pub(crate) static TEST_GATE: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that toggle the global flag.
    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _g = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        reset();
        r
    }

    #[test]
    fn disabled_recording_is_dropped() {
        // Not under with_tracing: verify the default-off behaviour.
        let _g = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        let before = events_recorded();
        event(Phase::WrPost, 1, 1, 1, 100);
        register_call(1, "Eager-SendRecv", "Svc.fn", 64);
        annotate(1, 100, "dropped");
        assert_eq!(events_recorded(), before);
        assert!(calls().is_empty());
        assert!(annotations().is_empty());
    }

    #[test]
    fn events_round_trip_and_sort() {
        with_tracing(|| {
            event(Phase::Doorbell, 2, 7, 1, 300);
            event(Phase::WrPost, 2, 7, 3, 100);
            let evs = snapshot_events();
            assert_eq!(evs.len(), 2);
            assert_eq!(
                evs[0],
                Event { ts_ns: 100, call_id: 7, node: 2, phase: Phase::WrPost, arg: 3 }
            );
            assert_eq!(evs[1].phase, Phase::Doorbell);
        });
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        with_tracing(|| {
            for i in 0..(RING_CAPACITY + 10) as u64 {
                event(Phase::Wire, 0, i, 0, i);
            }
            let evs = snapshot_events();
            assert_eq!(evs.len(), RING_CAPACITY);
            // The 10 oldest events were overwritten.
            assert_eq!(evs.first().map(|e| e.call_id), Some(10));
            assert_eq!(evs.last().map(|e| e.call_id), Some((RING_CAPACITY + 9) as u64));
        });
    }

    #[test]
    fn call_table_is_bounded_by_the_ring() {
        with_tracing(|| {
            let n = 3 * RING_CAPACITY as u64;
            for id in 1..=n {
                register_call(id, "Eager-SendRecv", "Svc.fn", 64);
            }
            let calls = calls();
            assert_eq!(calls.len(), RING_CAPACITY, "the table keeps one entry per ring slot");
            assert_eq!(calls.first().map(|c| c.call_id), Some(n - RING_CAPACITY as u64 + 1));
            assert_eq!(calls.last().map(|c| c.call_id), Some(n), "the newest call keeps its name");
        });
    }

    #[test]
    fn call_scope_nests_and_restores() {
        assert_eq!(current_call(), 0);
        let outer = call_scope(5);
        assert_eq!(current_call(), 5);
        {
            let _inner = call_scope(9);
            assert_eq!(current_call(), 9);
        }
        assert_eq!(current_call(), 5);
        drop(outer);
        assert_eq!(current_call(), 0);
    }

    #[test]
    fn call_ids_are_unique_and_nonzero() {
        let a = next_call_id();
        let b = next_call_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn tracks_update_in_place() {
        register_track(901, "first");
        register_track(901, "renamed");
        let t = tracks();
        let hits: Vec<_> = t.iter().filter(|(id, _)| *id == 901).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, "renamed");
    }

    #[test]
    fn phase_names_and_categories_cover_all() {
        for v in 0..=19u8 {
            let p = Phase::from_u8(v);
            assert!(!p.name().is_empty());
            assert!(matches!(p.category(), "rpc" | "sim" | "proto" | "note"));
            assert_eq!(Phase::from_u8(p as u8), p);
        }
    }
}
