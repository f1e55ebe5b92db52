//! The fabric: node registry, connection establishment, and service
//! listeners.
//!
//! A [`Fabric`] stands in for the paper's 10-node InfiniBand cluster plus
//! its subnet manager: it owns the nodes, brokers queue-pair connections
//! (charging the calibrated connection-establishment cost), and provides a
//! listener/dial rendezvous so servers can accept connections from many
//! clients — the role the out-of-band TCP exchange plays in real RDMA
//! applications.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::cost::SimConfig;
use crate::error::{RdmaError, Result};
use crate::node::Node;
use crate::qp::Endpoint;
use crate::stats::FabricStats;

/// Maps node ids to nodes so one-sided operations can resolve their target.
#[derive(Default)]
pub(crate) struct NodeRegistry {
    nodes: RwLock<HashMap<u64, Arc<Node>>>,
}

impl NodeRegistry {
    pub(crate) fn node_by_id(&self, id: u64) -> Option<Arc<Node>> {
        self.nodes.read().get(&id).cloned()
    }
}

struct ServiceEntry {
    node: Arc<Node>,
    tx: Sender<Endpoint>,
}

struct IpoibServiceEntry {
    node: Arc<Node>,
    tx: Sender<crate::ipoib::IpoibStream>,
}

struct FabricInner {
    config: Arc<SimConfig>,
    registry: Arc<NodeRegistry>,
    services: Mutex<HashMap<String, ServiceEntry>>,
    ipoib_services: Mutex<HashMap<String, IpoibServiceEntry>>,
    by_name: RwLock<HashMap<String, Arc<Node>>>,
    next_node: AtomicU64,
    next_ep: AtomicU64,
    /// Bumped on every `add_node`; samplers compare it against a cached
    /// value to rediscover the node set only when it actually changed
    /// (client nodes are often created after a sampler attaches).
    node_generation: AtomicU64,
}

/// The simulated cluster.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric").field("nodes", &self.inner.by_name.read().len()).finish()
    }
}

/// Size of the one buffer [`pin_allocator_regime`] allocates and frees:
/// twice the largest [`crate::PoolBuf`] class, so every buffer the stack
/// or its callers size from a message stays below both thresholds.
const ALLOC_PIN_BYTES: usize = 8 << 20;

/// Fix glibc malloc's two dynamic thresholds for the life of the process.
///
/// By mallopt(3)'s `M_MMAP_THRESHOLD` rule, freeing an mmapped chunk
/// raises the mmap threshold to that chunk's size and sets the trim
/// threshold to twice it. Left alone, both end up wherever the largest
/// message buffer freed so far puts them — a few hundred KiB — and a
/// caller that holds and frees a request, a reply and a decoded value per
/// call sits right at the trim threshold: a few KiB more or less of
/// unrelated allocation decides whether every call returns ~1 MiB to the
/// kernel and faults it back in (~100 page faults, more than the RPC
/// itself costs). One untouched [`ALLOC_PIN_BYTES`] allocation, freed at
/// once, holds the mmap threshold at 8 MiB and the trim threshold at
/// 16 MiB instead. `black_box` keeps the unused pair from being elided;
/// on other allocators this is one cheap no-op. DESIGN §4k.
fn pin_allocator_regime() {
    static PIN: std::sync::Once = std::sync::Once::new();
    PIN.call_once(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(ALLOC_PIN_BYTES))));
}

impl Fabric {
    /// Create a fabric with the given configuration.
    pub fn new(config: SimConfig) -> Fabric {
        pin_allocator_regime();
        Fabric {
            inner: Arc::new(FabricInner {
                config: Arc::new(config),
                registry: Arc::new(NodeRegistry::default()),
                services: Mutex::new(HashMap::new()),
                ipoib_services: Mutex::new(HashMap::new()),
                by_name: RwLock::new(HashMap::new()),
                next_node: AtomicU64::new(1),
                next_ep: AtomicU64::new(1),
                node_generation: AtomicU64::new(0),
            }),
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &SimConfig {
        &self.inner.config
    }

    /// Add a node named `name`. Panics on duplicate names (a test/config
    /// error, not a runtime condition).
    pub fn add_node(&self, name: &str) -> Arc<Node> {
        let id = self.inner.next_node.fetch_add(1, Ordering::Relaxed);
        let node = Node::new(id, name.to_string(), self.inner.config.clone());
        let prev = self.inner.by_name.write().insert(name.to_string(), node.clone());
        assert!(prev.is_none(), "duplicate node name {name}");
        self.inner.registry.nodes.write().insert(id, node.clone());
        self.inner.node_generation.fetch_add(1, Ordering::Relaxed);
        // Name the node's trace track up front (unconditionally: nodes
        // are rare and often created before a capture window opens).
        hat_trace::register_track(id, name);
        node
    }

    /// Monotonic count of `add_node` calls. A sampler caches this and
    /// only re-enumerates [`Fabric::nodes`] when it moved — one relaxed
    /// load per tick in the steady state instead of a read-lock walk.
    pub fn node_generation(&self) -> u64 {
        self.inner.node_generation.load(Ordering::Relaxed)
    }

    /// All nodes, sorted by name (stable across calls once the node set
    /// stops growing).
    pub fn nodes(&self) -> Vec<Arc<Node>> {
        let by_name = self.inner.by_name.read();
        let mut nodes: Vec<_> = by_name.values().cloned().collect();
        nodes.sort_by(|a, b| a.name().cmp(b.name()));
        nodes
    }

    /// Look up a node by name.
    pub fn node(&self, name: &str) -> Option<Arc<Node>> {
        self.inner.by_name.read().get(name).cloned()
    }

    /// Kill a node mid-flight: pending memory effects are discarded and
    /// every verb touching the node (its own posts, sends to it, READs
    /// from it) fails with [`RdmaError::QpError`] from now on.
    pub fn kill_node(&self, name: &str) -> Result<()> {
        let node = self.node(name).ok_or_else(|| RdmaError::NoSuchService(name.to_string()))?;
        node.kill();
        Ok(())
    }

    /// Connect two nodes. Returns `(a_side, b_side)`, each with its own
    /// send and receive CQ.
    ///
    /// Charges the connection-establishment cost to the initiating side
    /// `a`, mirroring a client paying the QP handshake.
    pub fn connect(&self, a: &Arc<Node>, b: &Arc<Node>) -> Result<(Endpoint, Endpoint)> {
        let _charge = a.begin_charge(self.inner.config.cost.connect_ns);
        let ea = Endpoint::new(
            self.inner.next_ep.fetch_add(1, Ordering::Relaxed),
            a.clone(),
            b.clone(),
            self.inner.registry.clone(),
        );
        let eb = Endpoint::new(
            self.inner.next_ep.fetch_add(1, Ordering::Relaxed),
            b.clone(),
            a.clone(),
            self.inner.registry.clone(),
        );
        Endpoint::wire_peers(&ea, &eb);
        crate::stats::NodeStats::add(&a.stats().connections, 1);
        crate::stats::NodeStats::add(&b.stats().connections, 1);
        Ok((ea, eb))
    }

    /// Register a named service on `node`: incoming dials produce accepted
    /// endpoints on the returned [`Listener`] until [`Fabric::unlisten`].
    pub fn listen(&self, node: &Arc<Node>, service: &str) -> Listener {
        let (tx, rx) = channel();
        self.inner
            .services
            .lock()
            .insert(service.to_string(), ServiceEntry { node: node.clone(), tx });
        Listener { rx, service: service.to_string(), fabric: self.clone() }
    }

    /// Dial a named service from `client_node`.
    pub fn dial(&self, client_node: &Arc<Node>, service: &str) -> Result<Endpoint> {
        let (server_node, tx) = {
            let services = self.inner.services.lock();
            let entry = services
                .get(service)
                .ok_or_else(|| RdmaError::NoSuchService(service.to_string()))?;
            (entry.node.clone(), entry.tx.clone())
        };
        let (client_ep, server_ep) = self.connect(client_node, &server_node)?;
        tx.send(server_ep).map_err(|_| RdmaError::NoSuchService(service.to_string()))?;
        Ok(client_ep)
    }

    /// Remove a service registration: subsequent dials fail, and once the
    /// dials already made are accepted, [`Listener::accept`] returns
    /// `Disconnected`.
    pub fn unlisten(&self, service: &str) {
        self.inner.services.lock().remove(service);
    }

    /// Register an IPoIB (simulated TCP) listener on `node`, the baseline
    /// transport's analogue of [`Fabric::listen`].
    pub fn listen_ipoib(&self, node: &Arc<Node>, service: &str) -> IpoibListener {
        let (tx, rx) = channel();
        self.inner
            .ipoib_services
            .lock()
            .insert(service.to_string(), IpoibServiceEntry { node: node.clone(), tx });
        IpoibListener { rx, service: service.to_string(), fabric: self.clone() }
    }

    /// Dial an IPoIB service; returns the client-side stream.
    pub fn dial_ipoib(
        &self,
        client_node: &Arc<Node>,
        service: &str,
    ) -> Result<crate::ipoib::IpoibStream> {
        let (server_node, tx) = {
            let services = self.inner.ipoib_services.lock();
            let entry = services
                .get(service)
                .ok_or_else(|| RdmaError::NoSuchService(service.to_string()))?;
            (entry.node.clone(), entry.tx.clone())
        };
        let (cs, ss) = crate::ipoib::IpoibStream::pair(client_node, &server_node);
        tx.send(ss).map_err(|_| RdmaError::NoSuchService(service.to_string()))?;
        Ok(cs)
    }

    /// Remove an IPoIB service registration (ends
    /// [`IpoibListener::accept`] as [`Fabric::unlisten`] ends
    /// [`Listener::accept`]).
    pub fn unlisten_ipoib(&self, service: &str) {
        self.inner.ipoib_services.lock().remove(service);
    }

    /// Snapshot statistics for every node.
    pub fn stats(&self) -> FabricStats {
        let by_name = self.inner.by_name.read();
        let mut nodes: Vec<_> =
            by_name.values().map(|n| (n.name().to_string(), n.stats_snapshot())).collect();
        nodes.sort_by(|a, b| a.0.cmp(&b.0));
        FabricStats { nodes }
    }
}

/// Accept side of a registered service.
pub struct Listener {
    rx: Receiver<Endpoint>,
    service: String,
    fabric: Fabric,
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Listener").field("service", &self.service).finish()
    }
}

impl Listener {
    /// Block until a client dials in; returns the server-side endpoint.
    /// Fails with `Disconnected` once the service is unlistened and every
    /// dial made before that has been accepted.
    pub fn accept(&self) -> Result<Endpoint> {
        self.rx.recv().map_err(|_| RdmaError::Disconnected)
    }

    /// The service name this listener serves.
    pub fn service(&self) -> &str {
        &self.service
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.fabric.unlisten(&self.service);
    }
}

/// Accept side of a registered IPoIB service.
pub struct IpoibListener {
    rx: Receiver<crate::ipoib::IpoibStream>,
    service: String,
    fabric: Fabric,
}

impl std::fmt::Debug for IpoibListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IpoibListener").field("service", &self.service).finish()
    }
}

impl IpoibListener {
    /// Block until a client dials in; `Disconnected` once the service is
    /// unlistened and drained, as for [`Listener::accept`].
    pub fn accept(&self) -> Result<crate::ipoib::IpoibStream> {
        self.rx.recv().map_err(|_| RdmaError::Disconnected)
    }

    /// The service name.
    pub fn service(&self) -> &str {
        &self.service
    }
}

impl Drop for IpoibListener {
    fn drop(&mut self) {
        self.fabric.unlisten_ipoib(&self.service);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::PollMode;
    use crate::wr::{RecvWr, SendWr};

    #[test]
    fn nodes_are_registered_and_resolvable() {
        let f = Fabric::new(SimConfig::fast_test());
        let a = f.add_node("alpha");
        assert_eq!(f.node("alpha").unwrap().id(), a.id());
        assert!(f.node("missing").is_none());
        assert!(f.inner.registry.node_by_id(a.id()).is_some());
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_node_names_panic() {
        let f = Fabric::new(SimConfig::fast_test());
        f.add_node("x");
        f.add_node("x");
    }

    #[test]
    fn listener_dial_accept_roundtrip() {
        let f = Fabric::new(SimConfig::fast_test());
        let server = f.add_node("server");
        let client = f.add_node("client");
        let listener = f.listen(&server, "echo");
        let cep = f.dial(&client, "echo").unwrap();
        let sep = listener.accept().unwrap();
        assert_eq!(cep.peer_node().id(), server.id());
        assert_eq!(sep.peer_node().id(), client.id());

        // Endpoints are actually wired.
        let smr = sep.pd().register(32).unwrap();
        sep.post_recv(RecvWr::new(1, smr.clone(), 0, 32)).unwrap();
        cep.post_send(&[SendWr::send_inline(2, b"hi")]).unwrap();
        let c = sep.recv_cq().poll_one(PollMode::Busy).unwrap();
        assert_eq!(c.byte_len, 2);
    }

    #[test]
    fn dial_unknown_service_fails() {
        let f = Fabric::new(SimConfig::fast_test());
        let client = f.add_node("c");
        assert!(matches!(f.dial(&client, "nope"), Err(RdmaError::NoSuchService(_))));
    }

    #[test]
    fn listener_drop_unregisters() {
        let f = Fabric::new(SimConfig::fast_test());
        let server = f.add_node("s");
        let client = f.add_node("c");
        {
            let _l = f.listen(&server, "svc");
            assert!(f.dial(&client, "svc").is_ok());
        }
        assert!(f.dial(&client, "svc").is_err());
    }

    /// An accept loop needs no poll: `unlisten` ends a blocked `accept`,
    /// after the dials made before it have been accepted.
    #[test]
    fn unlisten_ends_a_blocked_accept_after_the_queued_dials() {
        let f = Fabric::new(SimConfig::fast_test());
        let server = f.add_node("s");
        let client = f.add_node("c");
        let l = f.listen(&server, "svc");
        let _queued = f.dial(&client, "svc").unwrap();
        let acceptor = std::thread::spawn(move || {
            let accepted = std::iter::from_fn(|| l.accept().ok()).count();
            (accepted, l.accept().unwrap_err())
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        f.unlisten("svc");
        assert_eq!(acceptor.join().unwrap(), (1, RdmaError::Disconnected));
    }

    #[test]
    fn stats_cover_all_nodes() {
        let f = Fabric::new(SimConfig::fast_test());
        f.add_node("b");
        f.add_node("a");
        let s = f.stats();
        let names: Vec<_> = s.nodes.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn ipoib_listener_roundtrip() {
        let f = Fabric::new(SimConfig::fast_test());
        let server = f.add_node("s");
        let client = f.add_node("c");
        let l = f.listen_ipoib(&server, "tcp-svc");
        let cs = f.dial_ipoib(&client, "tcp-svc").unwrap();
        let ss = l.accept().unwrap();
        cs.write_all(b"over tcp").unwrap();
        let mut buf = [0u8; 8];
        ss.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"over tcp");
        assert!(f.dial_ipoib(&client, "missing").is_err());
    }

    #[test]
    fn killed_node_rejects_posts_and_peer_sees_qp_error() {
        let f = Fabric::new(SimConfig::fast_test());
        let a = f.add_node("a");
        let b = f.add_node("b");
        let (ea, eb) = f.connect(&a, &b).unwrap();
        assert!(ea.is_alive() && eb.is_alive());

        f.kill_node("b").unwrap();
        assert!(f.kill_node("nope").is_err());

        // The dead node's own posts fail typed.
        let bmr = eb.pd().register(32).unwrap();
        assert!(matches!(eb.post_recv(RecvWr::new(1, bmr, 0, 32)), Err(RdmaError::QpError(_))));
        // The survivor sees the peer as down, not merely disconnected.
        assert!(!ea.is_alive());
        assert_eq!(ea.fault_down(), Some("b"));
        assert!(matches!(
            ea.post_send(&[SendWr::send_inline(2, b"hi")]),
            Err(RdmaError::QpError(_))
        ));
        assert_eq!(b.stats_snapshot().qp_errors, 1);
    }

    #[test]
    fn connection_cost_is_charged_to_dialer() {
        let f = Fabric::new(SimConfig::default());
        let a = f.add_node("a");
        let b = f.add_node("b");
        let before = a.stats_snapshot().cpu_busy_ns;
        f.connect(&a, &b).unwrap();
        assert!(a.stats_snapshot().cpu_busy_ns > before);
        assert_eq!(a.stats_snapshot().connections, 1);
        assert_eq!(b.stats_snapshot().connections, 1);
    }
}
