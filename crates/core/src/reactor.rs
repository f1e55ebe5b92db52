//! Completion-driven connection reactor — one driver thread per node.
//!
//! The classic [`HatServer`](crate::engine::HatServer) policies burn one
//! OS thread per live connection (`Threaded`) or pin one connection per
//! pool worker until it disconnects (`ThreadPool`). Either way, N
//! concurrent clients cost N threads — the thread-explosion wall the
//! paper's event-polling hints are meant to push back.
//!
//! [`Reactor`] inverts the model: a **single driver thread** owns the
//! CQ-drain loop for every reactor-capable connection accepted on its
//! node. Each connection is a [`ReactorServe`] state machine (the
//! pipelined protocol servers, which already decouple "a request is
//! ready" from "a thread is blocked on it").
//!
//! ## Demux: per-connection ready queue, not an O(N) sweep
//!
//! Each connection's recv CQ gets a [`ConnWaker`] ([`CqNotify`]): on
//! completion push it enqueues the connection's slab index on a shared
//! ready list (deduplicated by an armed flag). The driver therefore does
//! O(ready) work per pass — drain exactly the connections whose CQs
//! fired — instead of re-polling all N connections per event, which is
//! what lets one thread hold 10k mostly-idle connections.
//!
//! ## How the driver waits
//!
//! A request riding the simulated wire is a *node effect*: it becomes a
//! completion only when some thread observes the node, and with every
//! connection handed to this driver, the driver is that thread. So the
//! driver waits on the simulator clock like every other simulated thread
//! ([`hat_rdma_sim::time::dry_pause`]): each pass applies the node's due
//! effects (which fires the wakers), drains the ready batch, and — if
//! nothing was served — yields once. Only a driver dry for
//! [`hat_rdma_sim::time::IDLE_BACKOFF_AFTER_NS`] naps, for
//! [`hat_rdma_sim::time::IDLE_NAP`] at a time. Nothing parks on a
//! condvar, so there is no wakeup to lose: a notify only appends to the
//! ready list, and the next pass (at most one nap away) pops it. A
//! connection's armed flag is cleared *before* its drain runs, so a
//! completion landing mid-drain re-enqueues it.
//!
//! A nap that ends with work found is counted (`reactor_wakeups`) and
//! the time since the earliest pending request reached the node is
//! recorded (`Reactor/time_to_resume` histogram, `reactor_wakeup` trace
//! phase): that is the host-time price a cold request pays, and the only
//! one.
//!
//! ## Shutdown
//!
//! A response can only be posted on a live endpoint, so the engine
//! shuts down in drain-then-close order: it stops accepting, asks the
//! driver to drain — the driver sweeps until every connection's CQ is
//! empty (bounded by a grace period) — and only then closes the
//! endpoints. A depth-16 pipelined burst in flight when shutdown is
//! called gets all 16 responses.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hat_protocols::ReactorServe;
use hat_rdma_sim::{now_ns, time, CqNotify, Node, NodeStats};
use hat_trace::Phase;

/// Host-time grace the drain phase gets to flush in-flight completions
/// after shutdown is signalled.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Per-connection raw-message handler, as produced by the engine's
/// handler factory (already trace-wrapped when tracing is on).
pub type ConnHandler = Box<dyn FnMut(&[u8]) -> Vec<u8> + Send>;

/// A registered connection: protocol state machine + its handler + the
/// waker that queues it for the driver.
struct Conn {
    server: Box<dyn ReactorServe>,
    handler: ConnHandler,
    waker: Arc<ConnWaker>,
}

/// Slab indices of the connections with completions to drain, shared by
/// every connection's waker and the driver.
type ReadyQueue = Arc<parking_lot::Mutex<Vec<usize>>>;

/// Per-connection [`CqNotify`]: enqueue my slab index once per arming.
struct ConnWaker {
    idx: usize,
    /// True while the index sits in the ready queue (dedup). Cleared by
    /// the driver before draining, so a completion that lands mid-drain
    /// re-enqueues the connection.
    armed: AtomicBool,
    ready: ReadyQueue,
}

impl CqNotify for ConnWaker {
    fn notify(&self) {
        if !self.armed.swap(true, Ordering::AcqRel) {
            self.ready.lock().push(self.idx);
        }
    }
}

/// A negotiated-but-not-yet-adopted connection queued for the driver.
type Registration = (Box<dyn ReactorServe>, ConnHandler);

/// Registration queue shared between accept loop and driver.
#[derive(Clone)]
pub struct ReactorHandle {
    incoming: Arc<parking_lot::Mutex<Vec<Registration>>>,
}

impl ReactorHandle {
    /// Hand a freshly negotiated connection to the driver. The driver
    /// adopts it on its next pass (at most one idle nap away), wires its
    /// recv CQ into the ready queue, and treats it as initially ready — a
    /// request that raced ahead of waker registration is still served.
    pub fn register(&self, server: Box<dyn ReactorServe>, handler: ConnHandler) {
        self.incoming.lock().push((server, handler));
    }
}

/// One CQ-drain driver thread multiplexing every reactor connection on a
/// node. Built by [`Reactor::start`], torn down by [`Reactor::shutdown`].
pub struct Reactor {
    handle: ReactorHandle,
    stop: Arc<AtomicBool>,
    driver: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor").finish_non_exhaustive()
    }
}

impl Reactor {
    /// Spawn the driver thread for `node`.
    pub fn start(node: &Arc<Node>) -> Reactor {
        let incoming: Arc<parking_lot::Mutex<Vec<Registration>>> = Default::default();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = ReactorHandle { incoming: incoming.clone() };
        let node = node.clone();
        let stop2 = stop.clone();
        let driver = std::thread::spawn(move || drive(&node, &incoming, &stop2));
        Reactor { handle, stop, driver: Some(driver) }
    }

    /// Cloneable registration handle for the accept loop.
    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// Signal the driver to drain and stop, then join it. Connections
    /// with completions already in flight are served before the driver
    /// exits (bounded by a grace period).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.driver.take() {
            let _ = t.join();
        }
    }
}

/// The driver loop: adopt new connections, apply the node's due effects,
/// drain the ready connections, and wait on the sim clock when a pass
/// served nothing; on stop, sweep everything until every CQ is empty or
/// the grace expires.
fn drive(node: &Arc<Node>, incoming: &parking_lot::Mutex<Vec<Registration>>, stop: &AtomicBool) {
    // Slab of connections: ready-queue entries are indices, so retired
    // slots go to None (a stale queued index is skipped) and are reused.
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut live = 0u64;
    let ready: ReadyQueue = Default::default();
    let mut batch: Vec<usize> = Vec::new();
    let stats = node.stats();
    let node_id = node.id();
    let mut drain_deadline: Option<Instant> = None;
    // When a pass last served a request, and whether the wait since then
    // has already reached the napping stage.
    let mut dry_since = now_ns();
    let mut napped = false;
    loop {
        // Adopt connections the accept loop negotiated since last pass.
        for (server, handler) in incoming.lock().drain(..) {
            let idx = free.pop().unwrap_or(conns.len());
            let waker = Arc::new(ConnWaker {
                idx,
                // Born armed + queued: a request that arrived before
                // this registration fired no notify we could see.
                armed: AtomicBool::new(true),
                ready: ready.clone(),
            });
            server.cq().register_notify(&waker);
            ready.lock().push(idx);
            let conn = Conn { server, handler, waker };
            if idx == conns.len() {
                conns.push(Some(conn));
            } else {
                conns[idx] = Some(conn);
            }
            live += 1;
            stats.note_reactor_parked(live);
        }

        // The passive sim applies a node's deferred effects (requests
        // riding the wire) only when some thread observes the node — with
        // every connection handed to this driver, the driver IS that
        // thread. Applying a due effect pushes its completion, which
        // queues the connection for the batch below. Coming out of a nap,
        // first note when the earliest of them reached the node: what the
        // nap cost the request that ends it.
        let arrived_at = if napped { node.next_effect_deadline() } else { None };
        node.drain_effects();

        if stop.load(Ordering::Acquire) {
            // Drain mode: sweep every live connection (ignoring the ready
            // queue) until all CQs are empty or the grace expires, so
            // accepted-but-unanswered requests get their responses before
            // the engine closes the endpoints. Requests still riding the
            // simulated wire live in the node's effect queue, not any CQ,
            // so they gate the drain too.
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
            let mut pending = node.next_effect_deadline().is_some();
            for slot in conns.iter_mut() {
                let Some(conn) = slot else { continue };
                if conn.server.drain(&mut conn.handler).is_err() {
                    *slot = None;
                    continue;
                }
                if !conn.server.cq().is_empty() {
                    pending = true;
                }
            }
            if !pending || Instant::now() >= deadline {
                return;
            }
            std::thread::yield_now();
            continue;
        }

        // Pop this pass's ready batch. O(ready): connections whose CQs
        // stayed quiet cost nothing.
        batch.clear();
        std::mem::swap(&mut *ready.lock(), &mut batch);
        let mut served_any = false;
        for &idx in &batch {
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else { continue };
            // Disarm before draining: a completion landing mid-drain
            // re-queues the connection instead of being absorbed into a
            // flag we are about to consume.
            conn.waker.armed.store(false, Ordering::Release);
            match conn.server.drain(&mut conn.handler) {
                Ok(served) => {
                    if served > 0 {
                        served_any = true;
                        NodeStats::add(&stats.reactor_resumes, 1);
                        if hat_trace::enabled() {
                            hat_trace::event(
                                Phase::ReactorResume,
                                node_id,
                                0,
                                served as u64,
                                now_ns(),
                            );
                        }
                    }
                    // Entries can be queued but not yet ready (virtual
                    // completion deadlines in the future): re-arm so the
                    // next pass retries them instead of stranding them
                    // until the next notify.
                    if !conn.server.cq().is_empty() {
                        conn.waker.notify();
                        continue;
                    }
                    // Retire a dead connection only once its CQ is dry:
                    // close() doesn't cancel scheduled deliveries, so a
                    // drained-then-closed peer still gets its responses.
                    if !conn.server.is_open() {
                        conns[idx] = None;
                        free.push(idx);
                        live -= 1;
                    }
                }
                Err(_) => {
                    // Protocol-level failure (QP flush, node kill): the
                    // connection is unrecoverable server-side; the client
                    // sees a typed error from its own endpoint.
                    conns[idx] = None;
                    free.push(idx);
                    live -= 1;
                }
            }
        }

        let now = now_ns();
        if served_any {
            if napped {
                NodeStats::add(&stats.reactor_wakeups, 1);
                let resume_ns = now.saturating_sub(arrived_at.unwrap_or(now));
                hat_trace::hist::record_latency("Reactor", "time_to_resume", 0, resume_ns);
                if hat_trace::enabled() {
                    hat_trace::event(Phase::ReactorWakeup, node_id, 0, resume_ns, now);
                }
            }
            dry_since = now;
            napped = false;
        } else {
            // One wait rule for every simulated thread: yield to the sim
            // clock while recently busy, nap once long idle.
            napped = time::long_idle(dry_since, now);
            time::dry_pause(dry_since, now, 0);
        }
    }
}
