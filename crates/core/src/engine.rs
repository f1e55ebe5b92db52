//! The hint-accelerated RDMA communication engine (paper §4.3).
//!
//! * [`HatClient`] resolves each function's hints once at construction
//!   into cached per-function plans ("we minimize the overhead of the
//!   dynamic hints by … caching the RPC function type"), selects an RDMA
//!   protocol + polling mode per plan (Figure 6), and lazily opens one
//!   connection per distinct plan — giving the paper's *optimization
//!   isolation*: a latency-hinted function and a throughput-hinted one in
//!   the same service ride different, independently tuned channels.
//!   Functions hinted `transport = tcp` ride the IPoIB socket instead
//!   (hybrid transports, §5.5); `numa_binding = true` pins the calling
//!   thread to a NIC-local core for the duration of each call.
//! * [`HatServer`] accepts connections, reads each connection's preamble
//!   (protocol kind + buffer geometry + originating function scope),
//!   resolves its *own* server-side hints for that scope (lateral hints:
//!   the server may poll differently than the client), and serves with
//!   the configured threading policy.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hat_idl::hints::{ResolvedHints, Side, TransportHint};
use hat_protocols::{
    accept_server, accept_server_pipelined, connect_client, connect_client_pipelined,
    PipelinedClient, ProtocolConfig, ProtocolKind, ReactorServe, RpcClient, RpcServer, Token,
    PIPELINED_KINDS,
};
use hat_rdma_sim::{now_ns, numa, Fabric, Node, NodeStats, PollMode, RdmaError};
use hat_trace::Phase;

use crate::error::{CoreError, Result};
use crate::reactor::{ConnHandler, Reactor, ReactorHandle};
use crate::selection::{select_protocol, Selection, SubscriptionBounds};
use crate::service::ServiceSchema;
use crate::transport::{ClientTransport, ServerTransport, TServerSocket, TSocket};

/// Encode a protocol kind for the connection preamble.
fn kind_to_u8(k: ProtocolKind) -> u8 {
    match k {
        ProtocolKind::EagerSendRecv => 0,
        ProtocolKind::DirectWriteSend => 1,
        ProtocolKind::ChainedWriteSend => 2,
        ProtocolKind::WriteRndv => 3,
        ProtocolKind::ReadRndv => 4,
        ProtocolKind::DirectWriteImm => 5,
        ProtocolKind::Pilaf => 6,
        ProtocolKind::Farm => 7,
        ProtocolKind::Rfp => 8,
        ProtocolKind::HybridEagerRndv => 9,
        ProtocolKind::Herd => 10,
    }
}

fn kind_from_u8(v: u8) -> Result<ProtocolKind> {
    Ok(match v {
        0 => ProtocolKind::EagerSendRecv,
        1 => ProtocolKind::DirectWriteSend,
        2 => ProtocolKind::ChainedWriteSend,
        3 => ProtocolKind::WriteRndv,
        4 => ProtocolKind::ReadRndv,
        5 => ProtocolKind::DirectWriteImm,
        6 => ProtocolKind::Pilaf,
        7 => ProtocolKind::Farm,
        8 => ProtocolKind::Rfp,
        9 => ProtocolKind::HybridEagerRndv,
        10 => ProtocolKind::Herd,
        other => return Err(CoreError::Protocol(format!("bad protocol kind {other}"))),
    })
}

/// What the dialing side tells the accepting side before protocol
/// construction: chosen protocol, buffer geometry, and the function scope
/// that motivated the connection (so the server can resolve its own hints).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Preamble {
    kind: ProtocolKind,
    client_poll: PollMode,
    max_msg: u64,
    ring_slots: u32,
    eager_threshold: u32,
    /// Requested in-flight window. `> 1` asks the server to build the
    /// pipelined variant of the protocol; `1` (or `0` from old peers)
    /// means the classic one-at-a-time channel.
    queue_depth: u32,
    /// Capability bits ([`FLAG_ONESIDED`] is the only one defined).
    flags: u8,
    fn_scope: String,
}

/// Preamble flag: the client may resolve hinted GETs one-sided (RDMA
/// READs against the service's published index) and expects the
/// `{service}#onesided` side-channel to exist.
const FLAG_ONESIDED: u8 = 1;

/// Preamble flag: the function's writes are hinted `txn = true` — the
/// client expects multi-key batches to commit atomically across the
/// service's backend shards (2PC over the per-shard WALs). Like
/// [`FLAG_ONESIDED`] this is a capability advertisement only: it never
/// changes the wire protocol, and the server's handler — not the channel
/// — enforces the transactional semantics.
const FLAG_TXN: u8 = 2;

/// Fixed-size prefix of the encoded preamble, before the variable scope.
const PREAMBLE_FIXED: usize = 25;
/// Byte budget for the function scope carried in the preamble.
const MAX_SCOPE_BYTES: usize = 120;

/// Cap `scope` to [`MAX_SCOPE_BYTES`], backing off to a char boundary so
/// the wire never carries a scope cut mid-codepoint.
fn wire_scope(scope: &str) -> &str {
    if scope.len() <= MAX_SCOPE_BYTES {
        return scope;
    }
    let mut end = MAX_SCOPE_BYTES;
    while !scope.is_char_boundary(end) {
        end -= 1;
    }
    &scope[..end]
}

impl Preamble {
    fn encode(&self) -> Vec<u8> {
        let scope = wire_scope(&self.fn_scope).as_bytes();
        let mut out = Vec::with_capacity(PREAMBLE_FIXED + scope.len());
        out.push(kind_to_u8(self.kind));
        out.push(match self.client_poll {
            PollMode::Busy => 0,
            PollMode::Event => 1,
        });
        out.extend_from_slice(&self.max_msg.to_le_bytes());
        out.extend_from_slice(&self.ring_slots.to_le_bytes());
        out.extend_from_slice(&self.eager_threshold.to_le_bytes());
        out.extend_from_slice(&self.queue_depth.to_le_bytes());
        out.push(self.flags);
        out.extend_from_slice(&(scope.len() as u16).to_le_bytes());
        out.extend_from_slice(scope);
        out
    }

    fn decode(bytes: &[u8]) -> Result<Preamble> {
        if bytes.len() < PREAMBLE_FIXED {
            return Err(CoreError::Protocol("short preamble".into()));
        }
        let kind = kind_from_u8(bytes[0])?;
        let client_poll = if bytes[1] == 0 { PollMode::Busy } else { PollMode::Event };
        let max_msg = u64::from_le_bytes(bytes[2..10].try_into().expect("8B"));
        let ring_slots = u32::from_le_bytes(bytes[10..14].try_into().expect("4B"));
        let eager_threshold = u32::from_le_bytes(bytes[14..18].try_into().expect("4B"));
        let queue_depth = u32::from_le_bytes(bytes[18..22].try_into().expect("4B"));
        let flags = bytes[22];
        let slen = u16::from_le_bytes(bytes[23..25].try_into().expect("2B")) as usize;
        if bytes.len() < PREAMBLE_FIXED + slen {
            return Err(CoreError::Protocol("truncated preamble scope".into()));
        }
        let fn_scope =
            String::from_utf8_lossy(&bytes[PREAMBLE_FIXED..PREAMBLE_FIXED + slen]).into_owned();
        Ok(Preamble {
            kind,
            client_poll,
            max_msg,
            ring_slots,
            eager_threshold,
            queue_depth,
            flags,
            fn_scope,
        })
    }
}

/// Identity of a client-side channel; calls whose plans coincide share a
/// connection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ChannelKey {
    kind: ProtocolKind,
    poll: PollMode,
    max_msg: u64,
    tcp: bool,
    /// In-flight window of the channel (1 = classic one-at-a-time). Part
    /// of the key so a depth-8 function never shares a connection with a
    /// depth-1 one — their ring geometries differ.
    depth: u32,
}

/// Precomputed per-function execution plan (the cached dynamic hint).
#[derive(Debug, Clone)]
struct FnPlan {
    selection: Selection,
    max_msg: u64,
    numa_bind: bool,
    /// Resolved `queue_depth` hint, already vetted against the selected
    /// protocol (forced to 1 when pipelining is unavailable).
    queue_depth: u32,
    /// Resolved server-side `shards` hint: how many backend storage
    /// partitions the service asked for (1 = unsharded). Purely a
    /// server-side deployment knob — it never changes the wire protocol,
    /// so it is not part of [`ChannelKey`].
    shards: u32,
    /// Resolved client-side `onesided_get` hint: GETs first try the
    /// server-bypass READ path, falling back to this plan's channel.
    onesided: bool,
    /// Resolved `txn` hint: the function's multi-key writes commit
    /// atomically across backend shards. Advertised in the preamble flag
    /// byte, enforced by the server handler — never part of
    /// [`ChannelKey`], so hinted and unhinted functions share channels.
    txn: bool,
    key: ChannelKey,
}

/// `ring_slots` of a depth-1 channel: the control-ring depth of a non-wire
/// kind (a wire kind's blocking channel is a window of one regardless).
const ENGINE_RING_SLOTS: usize = 16;
/// Upper bound on the `queue_depth` hint: every in-flight slot pins ring
/// memory on both peers, so a runaway hint must not exhaust the MR budget.
const MAX_QUEUE_DEPTH: u32 = 1024;
/// Upper bound on the `shards` hint: each backend shard pins a reader
/// table and (when persistent) a WAL handle, so a runaway hint must not
/// exhaust them. Mirrors `hat_kvdb::sharded::MAX_SHARDS`.
const MAX_BACKEND_SHARDS: u32 = 64;
/// The Hybrid-EagerRNDV threshold (paper §4.3: 4 KB).
const ENGINE_EAGER_THRESHOLD: usize = 4096;
/// Floor for channel buffer sizing.
const MIN_CHANNEL_MSG: u64 = 4096;
/// Channel size when a function carries NO payload hint on either side:
/// without information the engine must provision conservatively — exactly
/// the pinned-memory waste the payload hint exists to eliminate (visible
/// in `registered_bytes` when comparing HatRPC-Service vs -Function).
const UNHINTED_CHANNEL_MSG: u64 = 64 * 1024;
/// Headroom for the Thrift message envelope around a hinted payload.
const ENVELOPE_SLACK: u64 = 512;

fn plan_for(schema: &ServiceSchema, func: &str, bounds: &SubscriptionBounds) -> FnPlan {
    let client = schema.resolved(func, Side::Client);
    let server = schema.resolved(func, Side::Server);
    let selection = select_protocol(&client, bounds);
    // The channel must hold the larger of the two directions' payloads
    // plus serialization envelope overhead; rounding to a power of two
    // lets compatible functions share channels. With no hint at all,
    // provision conservatively (see [`UNHINTED_CHANNEL_MSG`]).
    let payload = match (client.payload_size, server.payload_size) {
        (None, None) => UNHINTED_CHANNEL_MSG,
        (c, s) => c.unwrap_or(1024).max(s.unwrap_or(1024)).max(MIN_CHANNEL_MSG),
    };
    let max_msg = (payload + ENVELOPE_SLACK).next_power_of_two();
    let transport = client.transport.unwrap_or(TransportHint::Rdma);
    let tcp = transport == TransportHint::Tcp;
    // The queue_depth hint only bites when the selected protocol has a
    // pipelined implementation and the call rides RDMA; otherwise the
    // plan quietly degrades to a classic depth-1 channel.
    let queue_depth = match client.queue_depth {
        Some(d) if d > 1 && !tcp && PIPELINED_KINDS.contains(&selection.protocol) => {
            d.min(MAX_QUEUE_DEPTH)
        }
        _ => 1,
    };
    FnPlan {
        selection,
        max_msg,
        numa_bind: client.numa_binding.unwrap_or(false),
        queue_depth,
        // Backend partitioning is negotiated from the *server* side of the
        // hint resolution — it describes the service's storage, which the
        // client cannot observe on the wire.
        shards: server.shards.map(|s| s.min(MAX_BACKEND_SHARDS)).unwrap_or(1),
        // Unlike `shards`, `onesided_get` is client-visible: the client
        // itself changes its access pattern, so it resolves client-side.
        onesided: client.onesided_get.unwrap_or(false) && !tcp,
        // `txn` resolves client-side like `onesided_get`: the client
        // chooses to call the transactional functions and advertises that
        // in the preamble; the semantics live entirely in the handler.
        txn: client.txn.unwrap_or(false),
        key: ChannelKey {
            kind: selection.protocol,
            poll: selection.poll,
            max_msg,
            tcp,
            depth: queue_depth,
        },
    }
}

/// Per-call failure policy: how long a single attempt may block, how many
/// times a failed attempt is retried over a fresh connection, and how long
/// to back off between attempts (doubling each retry).
///
/// Retries reconnect from scratch, so they are safe exactly when the call
/// is idempotent — the engine cannot know whether a timed-out request was
/// executed before the failure. The default policy therefore never
/// retries; callers opt in per client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallPolicy {
    /// Deadline for each blocking wait inside one call attempt. A dead or
    /// silent peer surfaces as [`RdmaError::Timeout`] / [`RdmaError::QpError`]
    /// instead of hanging.
    pub deadline: std::time::Duration,
    /// Number of reconnect-and-retry attempts after a retryable transport
    /// failure (timeout, disconnect, QP error, service not yet listening).
    pub retries: u32,
    /// Sleep before the first retry; doubles on each subsequent one.
    pub backoff: std::time::Duration,
}

impl Default for CallPolicy {
    fn default() -> Self {
        CallPolicy {
            deadline: std::time::Duration::from_secs(30),
            retries: 0,
            backoff: std::time::Duration::from_millis(2),
        }
    }
}

/// Transport failures worth retrying over a fresh connection: the peer
/// vanished, the QP broke, the call timed out, or the service is not
/// (re-)registered yet. Application errors and protocol violations are not
/// retried — repeating them cannot succeed.
fn is_retryable(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::Rdma(
            RdmaError::Timeout
                | RdmaError::Disconnected
                | RdmaError::QpError(_)
                | RdmaError::NoSuchService(_)
        )
    )
}

/// The hint-aware RPC client. One instance per calling thread (plans are
/// shared-nothing; channels are lazily opened).
pub struct HatClient {
    fabric: Fabric,
    node: Arc<Node>,
    service: String,
    plans: HashMap<String, FnPlan>,
    default_plan: FnPlan,
    channels: HashMap<ChannelKey, OpenChannel>,
    /// How many channels this client has opened so far — the incarnation
    /// number the next one is stamped with.
    opened: u64,
    bounds: SubscriptionBounds,
    policy: CallPolicy,
    /// Core chosen when a plan requests NUMA binding.
    bind_core: u32,
    /// Lazily-dialed one-sided GET side-channel (see
    /// [`HatClient::try_onesided_get`]).
    onesided: OneSidedState,
}

/// Lifecycle of the client's one-sided side-channel connection.
enum OneSidedState {
    /// No plan has asked for it yet (or the first use has not happened).
    Untried,
    /// Dial or handshake failed — the service does not publish an index
    /// (or a READ errored); every GET stays on the RPC path for good.
    Disabled,
    /// Connected and serving READs.
    Ready(Box<hat_protocols::OneSidedReader>),
}

static NEXT_BIND_CORE: AtomicU64 = AtomicU64::new(0);

impl HatClient {
    /// Create a client for `service` on `node`. Connections open lazily on
    /// first use per plan.
    pub fn new(
        fabric: &Fabric,
        node: &Arc<Node>,
        service: &str,
        schema: &ServiceSchema,
    ) -> HatClient {
        Self::with_bounds(fabric, node, service, schema, SubscriptionBounds::default())
    }

    /// Like [`HatClient::new`] with explicit subscription bounds.
    pub fn with_bounds(
        fabric: &Fabric,
        node: &Arc<Node>,
        service: &str,
        schema: &ServiceSchema,
        bounds: SubscriptionBounds,
    ) -> HatClient {
        let plans = schema
            .functions
            .iter()
            .map(|(name, _)| (name.clone(), plan_for(schema, name, &bounds)))
            .collect();
        let default_plan = plan_for(schema, "\u{0}default\u{0}", &bounds);
        // Spread bound threads across the NIC-local socket's cores.
        let cores_per_numa = node.topology().cores_per_numa();
        let bind_core = (NEXT_BIND_CORE.fetch_add(1, Ordering::Relaxed) as u32) % cores_per_numa
            + node.topology().nic_node * cores_per_numa;
        HatClient {
            fabric: fabric.clone(),
            node: node.clone(),
            service: service.to_string(),
            plans,
            default_plan,
            channels: HashMap::new(),
            opened: 0,
            bounds,
            policy: CallPolicy::default(),
            bind_core,
            onesided: OneSidedState::Untried,
        }
    }

    /// Builder-style call-policy override.
    pub fn with_policy(mut self, policy: CallPolicy) -> HatClient {
        self.policy = policy;
        self
    }

    /// Replace the call policy on a live client (applies to channels opened
    /// from now on; already-open channels keep their negotiated deadline).
    pub fn set_call_policy(&mut self, policy: CallPolicy) {
        self.policy = policy;
    }

    /// The call policy in use.
    pub fn call_policy(&self) -> CallPolicy {
        self.policy
    }

    /// The subscription bounds in use.
    pub fn bounds(&self) -> &SubscriptionBounds {
        &self.bounds
    }

    /// `func`'s cached plan (the default plan for a function outside the
    /// schema).
    fn plan(&self, func: &str) -> &FnPlan {
        self.plans.get(func).unwrap_or(&self.default_plan)
    }

    /// `func`'s plan, its channel sized to hold a `len`-byte request. A
    /// request larger than the hinted buffer upgrades to a larger channel
    /// rather than failing: mis-hinted payloads cost extra connections and
    /// pinned memory, not correctness.
    fn plan_sized_for(&self, func: &str, len: usize) -> FnPlan {
        let mut plan = self.plan(func).clone();
        let required = (len as u64 + ENVELOPE_SLACK).next_power_of_two().max(MIN_CHANNEL_MSG);
        if required > plan.max_msg {
            plan.max_msg = required;
            plan.key.max_msg = required;
        }
        plan
    }

    /// The plan's protocol selection for `func` (introspection for tests
    /// and the repro harness).
    pub fn selection_for(&self, func: &str) -> Selection {
        self.plan(func).selection
    }

    /// The resolved server-side `shards` hint for `func` (1 = unsharded),
    /// already clamped to the engine's backend-shard ceiling. Servers use
    /// this to size their storage partitioning; clients may use it to
    /// pre-group batched keys.
    pub fn shards_for(&self, func: &str) -> u32 {
        self.plan(func).shards
    }

    /// Whether `func` resolved the `txn` hint (multi-key writes commit
    /// atomically across backend shards). Introspection for tests and the
    /// repro harness; the semantics are enforced server-side.
    pub fn txn_for(&self, func: &str) -> bool {
        self.plan(func).txn
    }

    /// Number of distinct channels currently open.
    pub fn open_channels(&self) -> usize {
        self.channels.len()
    }

    /// Pre-open the channel for every declared function (connection
    /// prewarming): the paper counts fast connection establishment among
    /// the hint scheme's benefits, and latency-sensitive callers don't
    /// want the first real RPC to pay QP setup + protocol handshake.
    /// Returns the number of channels now open.
    pub fn warm_all(&mut self) -> Result<usize> {
        let plans: Vec<(String, FnPlan)> =
            self.plans.iter().map(|(func, plan)| (func.clone(), plan.clone())).collect();
        for (func, plan) in plans {
            self.ensure_channel(&plan, &func)?;
        }
        Ok(self.channels.len())
    }

    /// The plan's channel, opened (and stamped with a fresh incarnation
    /// number) if this client does not hold one — the first use, or the
    /// first after a failure poisoned the last one.
    fn ensure_channel(&mut self, plan: &FnPlan, func: &str) -> Result<&mut OpenChannel> {
        if !self.channels.contains_key(&plan.key) {
            let transport = self.open_channel(plan, func)?;
            self.opened += 1;
            self.channels
                .insert(plan.key.clone(), OpenChannel { transport, incarnation: self.opened });
        }
        Ok(self.channels.get_mut(&plan.key).expect("just inserted"))
    }

    /// Run `attempt` under the client's [`CallPolicy`]: a retryable
    /// transport failure drops the plan's channel — it is poisoned (a call
    /// that gave up still holds its window slot, and its late response
    /// must not answer the next call); the next attempt or call reconnects
    /// and re-runs the handshake — then backs off (doubling) and tries
    /// again, up to `policy.retries` times. Retries are marked on the
    /// timeline against `call_id`.
    fn with_retries<T>(
        &mut self,
        key: &ChannelKey,
        call_id: u64,
        mut attempt: impl FnMut(&mut HatClient) -> Result<T>,
    ) -> Result<T> {
        let mut backoff = self.policy.backoff;
        let mut attempts_left = self.policy.retries;
        loop {
            match attempt(self) {
                Err(e) if is_retryable(&e) => {
                    self.channels.remove(key);
                    if attempts_left == 0 {
                        return Err(e);
                    }
                    attempts_left -= 1;
                    NodeStats::add(&self.node.stats().calls_retried, 1);
                    if hat_trace::enabled() {
                        let left = attempts_left as u64;
                        hat_trace::event(Phase::Retry, self.node.id(), call_id, left, now_ns());
                    }
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2);
                    }
                }
                outcome => return outcome,
            }
        }
    }

    /// Count one call (or one `call_many` batch) that ultimately failed.
    fn count_failure(&self, e: &CoreError) {
        let stats = self.node.stats();
        let counter = if is_timeout(e) { &stats.calls_timed_out } else { &stats.calls_failed };
        NodeStats::add(counter, 1);
    }

    /// Issue one RPC: route `request` through the channel selected by
    /// `func`'s cached plan, honoring the client's [`CallPolicy`] — every
    /// blocking wait is bounded by the policy deadline, and retryable
    /// transport failures are retried over a fresh connection (with
    /// doubling backoff) up to `policy.retries` times.
    pub fn call(&mut self, func: &str, request: &[u8]) -> Result<Vec<u8>> {
        let plan = self.plan_sized_for(func, request.len());
        // One span per engine-level call, covering the whole retry loop —
        // retries and timeouts are part of the latency a caller observes,
        // not a separate population.
        let mut span = CallSpan::begin(self.node.id(), &plan, Cow::Borrowed(func), request.len());
        let _scope = span.enter();
        let outcome =
            self.with_retries(&plan.key, span.call_id, |c| c.call_attempt(&plan, func, request));
        match &outcome {
            Ok(resp) => {
                NodeStats::add(&self.node.stats().calls_ok, 1);
                span.ok(resp.len());
            }
            Err(e) => {
                self.count_failure(e);
                span.fail(e);
            }
        }
        outcome
    }

    /// One attempt: (re)open the plan's channel if needed and run the call.
    fn call_attempt(&mut self, plan: &FnPlan, func: &str, request: &[u8]) -> Result<Vec<u8>> {
        let bind_core = self.bind_core;
        let channel = self.ensure_channel(plan, func)?;
        let _bind = plan.numa_bind.then(|| numa::bind_current_thread(bind_core));
        channel.transport.call(func, request)
    }

    /// Issue a batch of calls to `func`, keeping up to `queue_depth`
    /// requests in flight on the function's pipelined channel. Responses
    /// come back in request order. Functions without a `queue_depth`
    /// hint (or whose protocol has no pipelined variant) fall back to
    /// sequential [`HatClient::call`]s.
    ///
    /// The [`CallPolicy`] applies to the batch: if the channel fails
    /// mid-window with a retryable error, the poisoned channel is
    /// dropped, the client reconnects after backoff, and **only the
    /// requests without a banked response are re-issued** — responses
    /// already taken from the window are never re-executed, so each
    /// entry of the result reflects exactly one completion. (As with
    /// single-call retries, a request whose response was lost in flight
    /// may execute twice server-side; retries remain opt-in.)
    pub fn call_many(&mut self, func: &str, requests: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        if self.plan(func).queue_depth <= 1 {
            return requests.iter().map(|r| self.call(func, r)).collect();
        }
        let largest = requests.iter().map(Vec::len).max().unwrap_or(0);
        let plan = self.plan_sized_for(func, largest);
        let mut done: Vec<Option<Vec<u8>>> = vec![None; requests.len()];
        // A batch-level retry: the unacked requests' spans are re-minted
        // on the next attempt, so no single call id applies.
        let outcome = self
            .with_retries(&plan.key, 0, |c| c.call_many_attempt(&plan, func, requests, &mut done));
        match outcome {
            Ok(()) => {
                NodeStats::add(&self.node.stats().calls_ok, requests.len() as u64);
                Ok(done
                    .into_iter()
                    .map(|r| r.expect("completed attempt banked every response"))
                    .collect())
            }
            Err(e) => {
                self.count_failure(&e);
                Err(e)
            }
        }
    }

    /// One sliding-window pass over the requests still missing a
    /// response in `done`. On error the window's unacked slots stay
    /// `None`, ready for re-issue by the retry loop in `call_many` — and
    /// their spans, dropped with the window, close as failed.
    fn call_many_attempt(
        &mut self,
        plan: &FnPlan,
        func: &str,
        requests: &[Vec<u8>],
        done: &mut [Option<Vec<u8>>],
    ) -> Result<()> {
        let bind_core = self.bind_core;
        let node_id = self.node.id();
        let pipe = self.ensure_channel(plan, func)?.window()?;
        let _bind = plan.numa_bind.then(|| numa::bind_current_thread(bind_core));
        let window = pipe.window();
        // Each windowed request gets its own span (re-issued requests get
        // a fresh one per attempt). Batched flushes inside submit/wait are
        // attributed to the call whose submit or wait triggered them.
        let mut inflight: VecDeque<(Token, usize, CallSpan)> = VecDeque::new();
        let mut next = 0usize;
        loop {
            // Refill with hysteresis: top the window up only once it has
            // drained to half. Refilling one slot per completion would
            // ack-clock the channel into lockstep — one request, one
            // response, one doorbell, one wakeup per call. Letting slots
            // pool keeps the submits bursty, so a burst rides one doorbell
            // (the flush inside wait()) and the server answers it with one
            // chained post of its own.
            if inflight.len() <= window / 2 {
                while inflight.len() < window && next < requests.len() {
                    if done[next].is_none() {
                        let request = &requests[next];
                        let span =
                            CallSpan::begin(node_id, plan, Cow::Borrowed(func), request.len());
                        let _scope = span.enter();
                        inflight.push_back((pipe.submit(request)?, next, span));
                    }
                    next += 1;
                }
            }
            let Some((token, idx, span)) = inflight.front_mut() else { return Ok(()) };
            let _scope = span.enter();
            let response = pipe.wait(*token)?;
            span.ok(response.len());
            done[*idx] = Some(response.to_vec());
            inflight.pop_front();
        }
    }

    /// Begin one asynchronous call on `func`'s pipelined channel and
    /// return a handle to poll. The request is staged (doorbell-batched
    /// with sibling submits) and rung on the first [`HatClient::poll_async`];
    /// nothing blocks here. Errors when the function's plan is not
    /// pipelined, or when `queue_depth` calls are already in flight on
    /// the channel — take a completion before submitting more.
    ///
    /// Async calls sit outside the retry policy: the caller owns the
    /// handle and decides what to re-issue after a failure. The
    /// [`CallPolicy`] deadline *does* apply — a poll past the deadline
    /// surfaces [`RdmaError::Timeout`] instead of pending forever.
    pub fn call_async(&mut self, func: &str, request: &[u8]) -> Result<AsyncCall> {
        let plan = self.plan_sized_for(func, request.len());
        if plan.queue_depth <= 1 {
            return Err(CoreError::Protocol(format!(
                "function '{func}' has no pipelined channel: hint it with queue_depth > 1 \
                 over a pipelined-capable protocol"
            )));
        }
        let deadline_ns = now_ns().saturating_add(self.policy.deadline.as_nanos() as u64);
        let node_id = self.node.id();
        let channel = self.ensure_channel(&plan, func)?;
        let incarnation = channel.incarnation;
        let pipe = channel.window()?;
        // Fail fast on a full window, before minting a span: this is a
        // caller pacing error, not a transport failure, so the channel
        // (and its in-flight siblings) stays healthy.
        if pipe.in_flight() >= pipe.window() {
            return Err(CoreError::Rdma(RdmaError::InvalidWorkRequest(format!(
                "async window full for '{func}' ({} in flight): poll a completion \
                 before submitting more",
                pipe.in_flight()
            ))));
        }
        let mut span = CallSpan::begin(node_id, &plan, Cow::Owned(func.to_string()), request.len());
        let submitted = {
            let _scope = span.enter();
            pipe.submit(request)
        };
        match submitted {
            Ok(token) => Ok(AsyncCall { key: plan.key, incarnation, token, deadline_ns, span }),
            Err(e) => {
                // Transport failure at submit poisons the channel, as in
                // the synchronous path: the next call reconnects.
                self.channels.remove(&plan.key);
                let e = CoreError::from(e);
                self.count_failure(&e);
                span.fail(&e);
                Err(e)
            }
        }
    }

    /// Poll one async call: flush staged submits, drain ready
    /// completions, and take this call's response if it has arrived.
    /// `Ok(None)` means still in flight. Past the policy deadline the
    /// call fails with [`RdmaError::Timeout`]; transport errors poison
    /// the channel (every sibling in flight on it fails too, typed — no
    /// handle ever pends forever).
    pub fn poll_async(&mut self, call: &mut AsyncCall) -> Result<Option<Vec<u8>>> {
        if call.is_done() {
            return Err(CoreError::Protocol("async call already completed".into()));
        }
        // A handle belongs to one opening of its channel. If that channel
        // is gone (poisoned by a sibling's failure) or has been reopened
        // since, the handle's token names nothing — tokens restart at 0 on
        // every channel, so on the new one it could name a *sibling's*
        // request. Such a handle fails typed and leaves the channel alone.
        let channel =
            self.channels.get_mut(&call.key).filter(|c| c.incarnation == call.incarnation);
        let owns_channel = channel.is_some();
        let polled = match channel {
            Some(channel) => {
                let _scope = call.span.enter();
                channel.window().and_then(|pipe| Ok(pipe.try_wait(call.token)?))
            }
            None => Err(CoreError::Rdma(RdmaError::Disconnected)),
        };
        let outcome = match polled {
            Ok(Some(buf)) => Ok(buf.to_vec()),
            Ok(None) if now_ns() < call.deadline_ns => return Ok(None),
            Ok(None) => Err(CoreError::Rdma(RdmaError::Timeout)),
            Err(e) => Err(e),
        };
        match outcome {
            Ok(resp) => {
                NodeStats::add(&self.node.stats().calls_ok, 1);
                call.span.ok(resp.len());
                Ok(Some(resp))
            }
            Err(e) => {
                // A failed or timed-out token still owns a window slot;
                // poison the channel so the next call starts from a clean
                // window.
                if owns_channel {
                    self.channels.remove(&call.key);
                }
                self.count_failure(&e);
                call.span.fail(&e);
                Err(e)
            }
        }
    }

    /// Drive one async call to completion (poll + yield loop). Bounded
    /// by the policy deadline like any [`HatClient::poll_async`].
    pub fn wait_async(&mut self, call: &mut AsyncCall) -> Result<Vec<u8>> {
        loop {
            if let Some(resp) = self.poll_async(call)? {
                return Ok(resp);
            }
            std::thread::yield_now();
        }
    }

    /// Dial the side-channel on first use; `None` once disabled.
    fn onesided_reader(&mut self) -> Option<&mut hat_protocols::OneSidedReader> {
        if matches!(self.onesided, OneSidedState::Untried) {
            self.onesided = match hat_protocols::OneSidedReader::connect(
                &self.fabric,
                &self.node,
                &self.service,
            ) {
                Ok(reader) => OneSidedState::Ready(Box::new(reader)),
                // NoSuchService, handshake failure, geometry mismatch:
                // the accelerator is unavailable, RPC still works.
                Err(_) => OneSidedState::Disabled,
            };
        }
        match &mut self.onesided {
            OneSidedState::Ready(reader) => Some(reader),
            _ => None,
        }
    }

    /// Try to resolve `func(key)` with one-sided READs against the
    /// service's published index. `Some(value)` bypassed the server CPU
    /// entirely; `None` means the caller must issue the normal RPC
    /// (function not hinted `onesided_get`, side-channel unavailable,
    /// index miss, oversized value, or seqlock conflict). Never an error:
    /// the one-sided path is an accelerator, not a source of truth.
    pub fn try_onesided_get(&mut self, func: &str, key: &[u8]) -> Option<Vec<u8>> {
        if !self.plan(func).onesided {
            return None;
        }
        let traced = hat_trace::enabled();
        let node_id = self.node.id();
        let reader = self.onesided_reader()?;
        let before = reader.bytes_read();
        match reader.get(key) {
            Ok(Ok(value)) => {
                if traced {
                    let bytes = reader.bytes_read() - before;
                    hat_trace::event(
                        Phase::OneSidedRead,
                        node_id,
                        hat_trace::current_call(),
                        bytes,
                        now_ns(),
                    );
                }
                Some(value)
            }
            Ok(Err(reason)) => {
                if traced {
                    hat_trace::event(
                        Phase::OneSidedFallback,
                        node_id,
                        hat_trace::current_call(),
                        reason as u64,
                        now_ns(),
                    );
                }
                None
            }
            Err(_) => {
                // A transport-level failure poisons the side-channel;
                // future GETs go straight to RPC.
                self.onesided = OneSidedState::Disabled;
                None
            }
        }
    }

    /// Batch variant of [`HatClient::try_onesided_get`]: resolves the
    /// whole batch with chained READs (two doorbell rounds per chunk) or
    /// not at all — a single unresolvable key sends the entire batch back
    /// to the RPC path so the caller never has to merge partial results.
    pub fn try_onesided_multiget(&mut self, func: &str, keys: &[Vec<u8>]) -> Option<Vec<Vec<u8>>> {
        if keys.is_empty() || !self.plan(func).onesided {
            return None;
        }
        let traced = hat_trace::enabled();
        let node_id = self.node.id();
        let reader = self.onesided_reader()?;
        let before = reader.bytes_read();
        match reader.multiget(keys) {
            Ok(Ok(values)) => {
                if traced {
                    let bytes = reader.bytes_read() - before;
                    hat_trace::event(
                        Phase::OneSidedRead,
                        node_id,
                        hat_trace::current_call(),
                        bytes,
                        now_ns(),
                    );
                }
                Some(values)
            }
            Ok(Err(reason)) => {
                if traced {
                    hat_trace::event(
                        Phase::OneSidedFallback,
                        node_id,
                        hat_trace::current_call(),
                        reason as u64,
                        now_ns(),
                    );
                }
                None
            }
            Err(_) => {
                self.onesided = OneSidedState::Disabled;
                None
            }
        }
    }

    fn open_channel(&self, plan: &FnPlan, func: &str) -> Result<Box<dyn ClientTransport>> {
        if plan.key.tcp {
            let socket = TSocket::dial(&self.fabric, &self.node, &tcp_service(&self.service))?;
            return Ok(Box::new(socket));
        }
        let ep = self.fabric.dial(&self.node, &self.service)?;
        // A pipelined channel's window IS its ring depth: each in-flight
        // request owns one slot of every ring for its whole lifetime.
        let ring_slots =
            if plan.queue_depth > 1 { plan.queue_depth as usize } else { ENGINE_RING_SLOTS };
        let preamble = Preamble {
            kind: plan.selection.protocol,
            client_poll: plan.selection.poll,
            max_msg: plan.max_msg,
            ring_slots: ring_slots as u32,
            eager_threshold: ENGINE_EAGER_THRESHOLD as u32,
            queue_depth: plan.queue_depth,
            flags: (if plan.onesided { FLAG_ONESIDED } else { 0 })
                | (if plan.txn { FLAG_TXN } else { 0 }),
            fn_scope: func.to_string(),
        };
        let ack = hat_protocols::exchange_blobs_deadline(
            &ep,
            &preamble.encode(),
            self.policy.deadline.as_nanos() as u64,
        )?;
        if ack != b"hatrpc-ok" {
            return Err(CoreError::Protocol("bad preamble ack".into()));
        }
        let cfg = ProtocolConfig {
            poll: plan.selection.poll,
            max_msg: plan.max_msg as usize,
            ring_slots,
            eager_threshold: ENGINE_EAGER_THRESHOLD,
            op_timeout_ns: self.policy.deadline.as_nanos() as u64,
        };
        if plan.queue_depth > 1 {
            let client = connect_client_pipelined(plan.selection.protocol, ep, cfg)?;
            return Ok(Box::new(RdmaPipelinedCall { inner: client }));
        }
        let client = connect_client(plan.selection.protocol, ep, cfg)?;
        Ok(Box::new(RdmaCall { inner: client }))
    }
}

/// A channel this client holds open, and which opening of its key it is.
struct OpenChannel {
    transport: Box<dyn ClientTransport>,
    /// Per-client sequence number of this opening. A [`ChannelKey`] is
    /// reopened after a failure and window tokens restart at 0 on every
    /// channel, so key + token alone cannot tell an [`AsyncCall`] from
    /// before the failure apart from a request submitted after it.
    incarnation: u64,
}

impl OpenChannel {
    /// The channel's pipelined window — there whenever the plan that
    /// opened it resolved `queue_depth > 1`.
    fn window(&mut self) -> Result<&mut dyn PipelinedClient> {
        self.transport
            .pipelined()
            .ok_or_else(|| CoreError::Protocol("plan promised a pipelined channel".into()))
    }
}

fn is_timeout(e: &CoreError) -> bool {
    matches!(e, CoreError::Rdma(RdmaError::Timeout))
}

/// The observable life of one engine-level call: a `CallBegin` event when
/// it opens, then exactly one `CallEnd` (after a `TimedOut` marker when
/// that is how it ended) and one latency sample when it closes — by
/// [`CallSpan::ok`], by [`CallSpan::fail`], or as failed by being dropped
/// open, so no early return can leave a begin without its end. The call
/// id rides thread-local state while [`CallSpan::enter`]'s guard lives, so
/// sim-layer events (WR post, doorbell, wire, completion) land on the same
/// timeline row. Histograms also record under a standalone hist capture (a
/// live hat-metrics sampler) with full tracing off — only the events are
/// trace-gated. With both off a span is inert: no clock read, no id.
#[derive(Debug)]
struct CallSpan<'f> {
    node_id: u64,
    /// 0 when tracing was off at `begin`.
    call_id: u64,
    start_ns: u64,
    label: &'static str,
    func: Cow<'f, str>,
    req_len: u64,
    /// Pinned at `begin`, so a span closes the way it opened.
    traced: bool,
    histing: bool,
    open: bool,
}

impl<'f> CallSpan<'f> {
    fn begin(node_id: u64, plan: &FnPlan, func: Cow<'f, str>, req_len: usize) -> CallSpan<'f> {
        let traced = hat_trace::enabled();
        let histing = hat_trace::hist_enabled();
        let label = plan.selection.protocol.label();
        let req_len = req_len as u64;
        let (call_id, start_ns) = if traced {
            let id = hat_trace::next_call_id();
            let t = now_ns();
            hat_trace::register_call(id, label, &func, req_len);
            hat_trace::event(Phase::CallBegin, node_id, id, req_len, t);
            (id, t)
        } else if histing {
            (0, now_ns())
        } else {
            (0, 0)
        };
        CallSpan { node_id, call_id, start_ns, label, func, req_len, traced, histing, open: true }
    }

    /// Attribute this thread's sim-layer events to the call while the
    /// guard lives.
    fn enter(&self) -> Option<hat_trace::CallScope> {
        self.traced.then(|| hat_trace::call_scope(self.call_id))
    }

    fn ok(&mut self, resp_len: usize) {
        self.close(resp_len as u64, false);
    }

    fn fail(&mut self, e: &CoreError) {
        self.close(0, is_timeout(e));
    }

    fn close(&mut self, resp_len: u64, timed_out: bool) {
        if !std::mem::take(&mut self.open) || !(self.traced || self.histing) {
            return;
        }
        let end = now_ns();
        if self.traced {
            if timed_out {
                hat_trace::event(Phase::TimedOut, self.node_id, self.call_id, 0, end);
            }
            hat_trace::event(Phase::CallEnd, self.node_id, self.call_id, resp_len, end);
        }
        let latency = end.saturating_sub(self.start_ns);
        hat_trace::hist::record_latency(self.label, &self.func, self.req_len, latency);
    }
}

impl Drop for CallSpan<'_> {
    fn drop(&mut self) {
        self.close(0, false);
    }
}

/// Handle to one in-flight asynchronous call (see
/// [`HatClient::call_async`]). Holds the channel key, which opening of
/// that channel it was submitted on, and the window token — poll it with
/// [`HatClient::poll_async`] or block with [`HatClient::wait_async`].
/// Dropping an unfinished handle leaks its window slot until the channel
/// is next poisoned (its span closes as failed); poll to completion.
#[derive(Debug)]
pub struct AsyncCall {
    key: ChannelKey,
    incarnation: u64,
    token: Token,
    /// Virtual-time deadline, from the [`CallPolicy`] at submit.
    deadline_ns: u64,
    /// Open until the call has yielded a response or a typed error.
    span: CallSpan<'static>,
}

impl AsyncCall {
    /// The function this call targets.
    pub fn func(&self) -> &str {
        &self.span.func
    }

    /// True once the call has yielded a response or a typed error.
    pub fn is_done(&self) -> bool {
        !self.span.open
    }
}

/// Adapter from a protocol client to [`ClientTransport`].
struct RdmaCall {
    inner: Box<dyn RpcClient>,
}

impl ClientTransport for RdmaCall {
    fn call(&mut self, _fn_name: &str, request: &[u8]) -> Result<Vec<u8>> {
        Ok(self.inner.call(request)?)
    }

    fn label(&self) -> &'static str {
        "trdma-hinted"
    }
}

/// Adapter from a pipelined protocol client to [`ClientTransport`]:
/// single calls are a submit and a wait on the window
/// ([`RpcClient::call`]), and the window surfaces through
/// [`ClientTransport::pipelined`] for [`HatClient::call_many`] /
/// [`HatClient::call_async`].
struct RdmaPipelinedCall {
    inner: Box<dyn PipelinedClient>,
}

impl ClientTransport for RdmaPipelinedCall {
    fn call(&mut self, _fn_name: &str, request: &[u8]) -> Result<Vec<u8>> {
        Ok(self.inner.call(request)?)
    }

    fn label(&self) -> &'static str {
        "trdma-hinted-pipelined"
    }

    fn pipelined(&mut self) -> Option<&mut dyn PipelinedClient> {
        Some(self.inner.as_mut())
    }
}

/// Name of the companion IPoIB service (hybrid transports).
fn tcp_service(service: &str) -> String {
    format!("{service}/tcp")
}

/// Threading policy of a [`HatServer`] (the Thrift server menu of
/// Figure 2, plus the completion-driven reactor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerPolicy {
    /// One thread per connection (TThreadedServer).
    Threaded,
    /// Fixed pool of worker threads (TThreadPoolServer). Workers pin one
    /// connection until it disconnects, so `n` bounds the number of
    /// *concurrently served* connections, not just CPU.
    ThreadPool(usize),
    /// One completion-driven driver thread multiplexes every
    /// reactor-capable connection (pipelined protocols, i.e. the client
    /// hinted `queue_depth > 1`) — see [`crate::reactor`]. Connections
    /// whose protocol has no reactor state machine (classic depth-1
    /// channels, rendezvous/read-based kinds) fall back to a thread each,
    /// as under [`ServerPolicy::Threaded`].
    Reactor,
}

/// Handle to a running hint-aware server.
pub struct HatServer {
    shutdown: Arc<AtomicBool>,
    /// The RDMA accept loop; it returns the per-connection serving threads
    /// it spawned. It is joined *before* a reactor driver drains: once it
    /// has wound down, every connection it negotiated has been registered
    /// — a client whose handshake completed is never left behind a driver
    /// that already drained and exited.
    accept: Option<std::thread::JoinHandle<Vec<std::thread::JoinHandle<()>>>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    service: String,
    fabric: Fabric,
    /// Accepted RDMA endpoints — closed on shutdown so serving threads
    /// observe the disconnect promptly instead of waiting out their poll
    /// caps against still-alive clients.
    conns: Arc<parking_lot::Mutex<Vec<hat_rdma_sim::Endpoint>>>,
    /// Accepted IPoIB streams, closed on shutdown for the same reason.
    tcp_conns: Arc<parking_lot::Mutex<Vec<std::sync::Arc<hat_rdma_sim::ipoib::IpoibStream>>>>,
    /// The connection reactor, when running under [`ServerPolicy::Reactor`].
    /// Shut down (draining in-flight state machines) *before* endpoints
    /// close — a response can only post on a live endpoint.
    reactor: Option<Reactor>,
    /// Live telemetry sampler, attached when `hat_metrics::enabled()` at
    /// serve time. Stopped *last* in [`HatServer::shutdown`] — after the
    /// serving threads join — so its final tail tick captures everything
    /// the run did.
    metrics: Option<hat_metrics::Sampler>,
}

impl std::fmt::Debug for HatServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HatServer").field("service", &self.service).finish()
    }
}

/// Factory producing a fresh raw-message handler per connection.
pub type HandlerFactory = Arc<dyn Fn() -> Box<dyn FnMut(&[u8]) -> Vec<u8> + Send> + Send + Sync>;

impl HatServer {
    /// Start serving `service` on `node` with the given policy. Each
    /// accepted connection's preamble picks the protocol; server-side
    /// hints (resolved against `schema` for the connection's function
    /// scope) pick the server's polling mode and NUMA binding.
    pub fn serve(
        fabric: &Fabric,
        node: &Arc<Node>,
        service: &str,
        schema: ServiceSchema,
        policy: ServerPolicy,
        handler_factory: HandlerFactory,
    ) -> HatServer {
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        let conns: Arc<parking_lot::Mutex<Vec<hat_rdma_sim::Endpoint>>> = Default::default();
        let tcp_conns: Arc<
            parking_lot::Mutex<Vec<std::sync::Arc<hat_rdma_sim::ipoib::IpoibStream>>>,
        > = Default::default();
        let reactor = match policy {
            ServerPolicy::Reactor => Some(Reactor::start(node)),
            _ => None,
        };

        // RDMA accept loop.
        let accept = {
            let listener = fabric.listen(node, service, Default::default());
            let shutdown = shutdown.clone();
            let schema = schema.clone();
            let factory = handler_factory.clone();
            let conns = conns.clone();
            let reactor_handle: Option<ReactorHandle> = reactor.as_ref().map(Reactor::handle);
            let pool_tx = match policy {
                ServerPolicy::ThreadPool(n) => {
                    let (tx, rx) = crossbeam::channel::unbounded::<Connection>();
                    for _ in 0..n.max(1) {
                        let rx = rx.clone();
                        let factory = factory.clone();
                        threads.push(std::thread::spawn(move || {
                            while let Ok(item) = rx.recv() {
                                serve_connection(item, &factory);
                            }
                        }));
                    }
                    Some(tx)
                }
                _ => None,
            };
            std::thread::spawn(move || {
                let mut conn_threads = Vec::new();
                while !shutdown.load(Ordering::Acquire) {
                    let Ok(ep) = listener.accept_timeout(std::time::Duration::from_millis(50))
                    else {
                        continue;
                    };
                    let ep_handle = ep.clone();
                    let conn = match negotiate(ep, &schema) {
                        Ok(conn) => conn,
                        Err(e) => {
                            hat_trace::annotate(
                                ep_handle.node().id(),
                                now_ns(),
                                &format!("connection negotiation failed: {e}"),
                            );
                            continue;
                        }
                    };
                    conns.lock().push(ep_handle);
                    // The reactor drives the same servers a thread would,
                    // so it takes exactly the pipelined connections.
                    let conn = match (conn.server, &reactor_handle) {
                        (ConnServer::Pipelined(server), Some(reactor)) => {
                            let handler = make_handler(
                                &factory,
                                conn.node_id,
                                conn.proto_label,
                                &conn.fn_scope,
                            );
                            reactor.register(server, handler);
                            continue;
                        }
                        (server, _) => Connection { server, ..conn },
                    };
                    match policy {
                        // Under Reactor, connections without a reactor
                        // state machine get a thread each, as Threaded.
                        ServerPolicy::Threaded | ServerPolicy::Reactor => {
                            let factory = factory.clone();
                            conn_threads
                                .push(std::thread::spawn(move || serve_connection(conn, &factory)));
                        }
                        ServerPolicy::ThreadPool(_) => {
                            let _ = pool_tx.as_ref().expect("pool created").send(conn);
                        }
                    }
                }
                drop(pool_tx);
                conn_threads
            })
        };

        // IPoIB accept loop (hybrid transports).
        {
            let listener = fabric.listen_ipoib(node, &tcp_service(service));
            let shutdown = shutdown.clone();
            let factory = handler_factory.clone();
            let tcp_conns = tcp_conns.clone();
            threads.push(std::thread::spawn(move || {
                let mut conn_threads = Vec::new();
                while !shutdown.load(Ordering::Acquire) {
                    let Ok(stream) = listener.accept_timeout(std::time::Duration::from_millis(50))
                    else {
                        continue;
                    };
                    let factory = factory.clone();
                    let mut server = TServerSocket::from_stream(stream);
                    tcp_conns.lock().push(server.stream_handle());
                    conn_threads.push(std::thread::spawn(move || {
                        let mut handler = factory();
                        let _ = server.serve_loop(&mut handler);
                    }));
                }
                for t in conn_threads {
                    let _ = t.join();
                }
            }));
        }

        HatServer {
            shutdown,
            accept: Some(accept),
            threads,
            service: service.to_string(),
            fabric: fabric.clone(),
            conns,
            tcp_conns,
            reactor,
            metrics: hat_metrics::attach_if_enabled(fabric),
        }
    }

    /// The live telemetry sampler, when the server started with
    /// [`hat_metrics::enabled`] set. Exporters (`repro metrics`,
    /// `repro top`) read frames and expositions from it while serving.
    pub fn metrics(&self) -> Option<&hat_metrics::Sampler> {
        self.metrics.as_ref()
    }

    /// Stop accepting, close every live connection, and wait for the
    /// accept loops (and their serving threads) to wind down.
    ///
    /// Under [`ServerPolicy::Reactor`] the driver drains first: every
    /// in-flight request on a reactor connection gets its response posted
    /// (bounded by a grace period) *before* the endpoints close — a
    /// client mid-burst sees its whole window complete, not a reset.
    ///
    /// Returns the telemetry sampler (stopped, final tail tick taken) when
    /// one was attached, so callers can export the run's timelines.
    pub fn shutdown(mut self) -> Option<hat_metrics::Sampler> {
        self.wind_down();
        // Last: a final tail tick now sees every counter the serving
        // threads bumped on their way out.
        let mut sampler = self.metrics.take();
        if let Some(s) = sampler.as_mut() {
            s.stop();
        }
        sampler
    }
}

/// The protocol server a connection negotiated.
enum ConnServer {
    /// A classic depth-1 channel: only a blocking thread can serve it.
    Blocking(Box<dyn RpcServer>),
    /// A pipelined channel (`queue_depth > 1`): one server that a thread's
    /// `serve_loop` and the reactor's `drain` serve alike.
    Pipelined(Box<dyn ReactorServe>),
}

/// A negotiated, ready-to-serve connection.
struct Connection {
    server: ConnServer,
    /// Ignored on the reactor: its one driver thread serves every
    /// connection, so per-connection binding cannot apply.
    numa_bind: bool,
    bind_core: u32,
    /// Function scope from the preamble — names server-side trace spans.
    fn_scope: String,
    /// Negotiated protocol label, for server-side span metadata.
    proto_label: &'static str,
    /// Serving node id — the trace track server spans land on.
    node_id: u64,
}

/// Read the preamble, resolve server-side hints, build the protocol
/// server.
fn negotiate(ep: hat_rdma_sim::Endpoint, schema: &ServiceSchema) -> Result<Connection> {
    let blob = hat_protocols::exchange_blobs(&ep, b"hatrpc-ok")?;
    let preamble = Preamble::decode(&blob)?;
    let server_hints: ResolvedHints = schema.resolved(&preamble.fn_scope, Side::Server);
    // Lateral freedom: the server's polling can differ from the client's.
    let poll = match server_hints.polling {
        Some(hat_idl::hints::PollingHint::Busy) => PollMode::Busy,
        Some(hat_idl::hints::PollingHint::Event) => PollMode::Event,
        _ => {
            if server_hints.perf_goal.is_some() || server_hints.concurrency.is_some() {
                select_protocol(&server_hints, &SubscriptionBounds::default()).poll
            } else {
                preamble.client_poll
            }
        }
    };
    let cfg = ProtocolConfig {
        poll,
        max_msg: preamble.max_msg as usize,
        ring_slots: preamble.ring_slots as usize,
        eager_threshold: preamble.eager_threshold as usize,
        ..ProtocolConfig::default()
    };
    let bind_core = ep.node().topology().nic_node * ep.node().topology().cores_per_numa();
    let node_id = ep.node().id();
    // queue_depth > 1 asks for the protocol's pipelined variant: the
    // window rides in `ring_slots`, so the geometry above already fits.
    let server = if preamble.queue_depth > 1 {
        ConnServer::Pipelined(accept_server_pipelined(preamble.kind, ep, cfg)?)
    } else {
        ConnServer::Blocking(accept_server(preamble.kind, ep, cfg)?)
    };
    Ok(Connection {
        server,
        numa_bind: server_hints.numa_binding.unwrap_or(false),
        bind_core,
        proto_label: preamble.kind.label(),
        fn_scope: preamble.fn_scope,
        node_id,
    })
}

/// Build the per-connection raw-message handler: the factory's handler,
/// trace-wrapped (when tracing is on) so every served request becomes its
/// own span on the server's track, with sim-layer events (response WR
/// post, completion) attributed to it via the thread-local call scope.
fn make_handler(
    factory: &HandlerFactory,
    node: u64,
    label: &'static str,
    fn_scope: &str,
) -> ConnHandler {
    let mut handler = factory();
    if !hat_trace::enabled() {
        return handler;
    }
    let fn_scope = fn_scope.to_string();
    Box::new(move |req: &[u8]| {
        let id = hat_trace::next_call_id();
        hat_trace::register_call(id, label, &fn_scope, req.len() as u64);
        hat_trace::event(Phase::ServerBegin, node, id, req.len() as u64, now_ns());
        let _span = hat_trace::call_scope(id);
        let resp = handler(req);
        hat_trace::event(Phase::ServerEnd, node, id, resp.len() as u64, now_ns());
        resp
    })
}

fn serve_connection(conn: Connection, factory: &HandlerFactory) {
    let _bind = conn.numa_bind.then(|| numa::bind_current_thread(conn.bind_core));
    let mut handler = make_handler(factory, conn.node_id, conn.proto_label, &conn.fn_scope);
    let mut server: Box<dyn RpcServer> = match conn.server {
        ConnServer::Blocking(server) => server,
        ConnServer::Pipelined(server) => server,
    };
    let _ = server.serve_loop(&mut handler);
}

impl HatServer {
    /// The shutdown sequence shared by [`HatServer::shutdown`] and `Drop`
    /// (idempotent: the second pass finds everything already taken).
    fn wind_down(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.fabric.unlisten(&self.service);
        self.fabric.unlisten_ipoib(&tcp_service(&self.service));
        if let Some(accept) = self.accept.take() {
            self.threads.extend(accept.join().unwrap_or_default());
        }
        if let Some(reactor) = self.reactor.take() {
            reactor.shutdown();
        }
        for ep in self.conns.lock().drain(..) {
            ep.close();
        }
        for stream in self.tcp_conns.lock().drain(..) {
            stream.close();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for HatServer {
    fn drop(&mut self) {
        self.wind_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_rdma_sim::SimConfig;

    const IDL: &str = r#"
        service Mix {
            hint: concurrency = 2;
            binary fast(1: binary p) [ hint: perf_goal = latency, payload_size = 512; ]
            binary bulk(1: binary p) [ hint: perf_goal = throughput, payload_size = 128K, concurrency = 64; ]
            binary over_tcp(1: binary p) [ hint: transport = tcp; ]
        }
    "#;

    fn echo_factory() -> HandlerFactory {
        Arc::new(|| Box::new(|req: &[u8]| req.to_vec()))
    }

    fn setup(policy: ServerPolicy) -> (Fabric, Arc<Node>, HatServer, ServiceSchema) {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let schema = ServiceSchema::parse(IDL, "Mix").unwrap();
        let server =
            HatServer::serve(&fabric, &snode, "mix", schema.clone(), policy, echo_factory());
        (fabric, snode, server, schema)
    }

    #[test]
    fn preamble_roundtrip() {
        let p = Preamble {
            kind: ProtocolKind::Rfp,
            client_poll: PollMode::Event,
            max_msg: 131072,
            ring_slots: 16,
            eager_threshold: 4096,
            queue_depth: 8,
            flags: FLAG_ONESIDED | FLAG_TXN,
            fn_scope: "bulk".into(),
        };
        assert_eq!(Preamble::decode(&p.encode()).unwrap(), p);
        assert!(Preamble::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn preamble_flag_bits_are_distinct() {
        // Each capability owns one bit of the flag byte; a collision
        // would make one hint silently imply the other on the wire.
        assert_eq!(FLAG_ONESIDED & FLAG_TXN, 0);
        assert_eq!(FLAG_ONESIDED.count_ones(), 1);
        assert_eq!(FLAG_TXN.count_ones(), 1);
    }

    #[test]
    fn preamble_scope_truncates_on_a_char_boundary() {
        // "é" is 2 bytes; after the 1-byte prefix every char starts on an
        // odd offset, so byte 120 lands mid-codepoint. The old byte-slice
        // truncation panicked here.
        let scope = format!("x{}", "é".repeat(70));
        let p = Preamble {
            kind: ProtocolKind::EagerSendRecv,
            client_poll: PollMode::Busy,
            max_msg: 4096,
            ring_slots: 16,
            eager_threshold: 4096,
            queue_depth: 1,
            flags: 0,
            fn_scope: scope.clone(),
        };
        let decoded = Preamble::decode(&p.encode()).unwrap();
        assert!(decoded.fn_scope.len() <= MAX_SCOPE_BYTES);
        assert!(scope.starts_with(&decoded.fn_scope), "truncation must keep a clean prefix");
        assert_eq!(
            decoded.fn_scope,
            format!("x{}", "é".repeat(59)),
            "119 bytes: the last full char before the cap"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Satellite: encode/decode round-trips for every field, and the
        /// scope survives as a valid UTF-8 prefix no matter what the
        /// caller puts in it (ASCII, CJK, emoji, 4-byte astral chars).
        #[test]
        fn preamble_roundtrips_for_arbitrary_scopes(
            kind_ix in 0usize..ProtocolKind::ALL.len(),
            busy in proptest::prelude::any::<bool>(),
            max_msg in proptest::prelude::any::<u64>(),
            ring_slots in proptest::prelude::any::<u32>(),
            eager_threshold in proptest::prelude::any::<u32>(),
            queue_depth in proptest::prelude::any::<u32>(),
            flags in proptest::prelude::any::<u8>(),
            scope in ".{0,200}",
        ) {
            let p = Preamble {
                kind: ProtocolKind::ALL[kind_ix],
                client_poll: if busy { PollMode::Busy } else { PollMode::Event },
                max_msg,
                ring_slots,
                eager_threshold,
                queue_depth,
                flags,
                fn_scope: scope.clone(),
            };
            let d = Preamble::decode(&p.encode()).unwrap();
            proptest::prop_assert_eq!(d.kind, p.kind);
            proptest::prop_assert_eq!(d.client_poll, p.client_poll);
            proptest::prop_assert_eq!(d.max_msg, max_msg);
            proptest::prop_assert_eq!(d.ring_slots, ring_slots);
            proptest::prop_assert_eq!(d.eager_threshold, eager_threshold);
            proptest::prop_assert_eq!(d.queue_depth, queue_depth);
            proptest::prop_assert_eq!(d.flags, flags);
            // Capability bits decode independently: whatever else is in
            // the byte, the ONESIDED and TXN bits survive untouched.
            proptest::prop_assert_eq!(d.flags & FLAG_ONESIDED, flags & FLAG_ONESIDED);
            proptest::prop_assert_eq!(d.flags & FLAG_TXN, flags & FLAG_TXN);
            proptest::prop_assert!(d.fn_scope.len() <= MAX_SCOPE_BYTES);
            proptest::prop_assert!(scope.starts_with(&d.fn_scope));
            if scope.len() <= MAX_SCOPE_BYTES {
                proptest::prop_assert_eq!(d.fn_scope, scope);
            }
        }
    }

    #[test]
    fn kind_codes_roundtrip() {
        for k in ProtocolKind::ALL {
            assert_eq!(kind_from_u8(kind_to_u8(k)).unwrap(), k);
        }
        assert!(kind_from_u8(99).is_err());
    }

    #[test]
    fn hinted_calls_roundtrip_over_selected_protocols() {
        let (fabric, _snode, server, schema) = setup(ServerPolicy::Threaded);
        let cnode = fabric.add_node("client");
        let mut client = HatClient::new(&fabric, &cnode, "mix", &schema);

        // fast → Direct-WriteIMM busy; bulk → RFP event (concurrency 64 > 16).
        assert_eq!(client.selection_for("fast").protocol, ProtocolKind::DirectWriteImm);
        assert_eq!(client.selection_for("bulk").protocol, ProtocolKind::Rfp);

        let r1 = client.call("fast", b"ping").unwrap();
        assert_eq!(r1, b"ping");
        let big = vec![3u8; 100_000];
        let r2 = client.call("bulk", &big).unwrap();
        assert_eq!(r2, big);
        // Two distinct plans → two isolated channels.
        assert_eq!(client.open_channels(), 2);
        server.shutdown();
    }

    #[test]
    fn hybrid_transport_rides_tcp() {
        let (fabric, _snode, server, schema) = setup(ServerPolicy::Threaded);
        let cnode = fabric.add_node("client");
        let mut client = HatClient::new(&fabric, &cnode, "mix", &schema);
        let resp = client.call("over_tcp", b"kernel path").unwrap();
        assert_eq!(resp, b"kernel path");
        server.shutdown();
    }

    #[test]
    fn warm_all_preopens_every_plan_channel() {
        let (fabric, _snode, server, schema) = setup(ServerPolicy::Threaded);
        let cnode = fabric.add_node("client");
        let mut client = HatClient::new(&fabric, &cnode, "mix", &schema);
        assert_eq!(client.open_channels(), 0);
        let opened = client.warm_all().unwrap();
        // fast / bulk / over_tcp have three distinct plans.
        assert_eq!(opened, 3);
        // Calls after warming reuse, not re-open.
        client.call("fast", b"x").unwrap();
        assert_eq!(client.open_channels(), 3);
        server.shutdown();
    }

    #[test]
    fn channel_reuse_across_calls() {
        let (fabric, _snode, server, schema) = setup(ServerPolicy::Threaded);
        let cnode = fabric.add_node("client");
        let mut client = HatClient::new(&fabric, &cnode, "mix", &schema);
        for _ in 0..5 {
            client.call("fast", b"x").unwrap();
        }
        assert_eq!(client.open_channels(), 1, "repeat calls reuse the cached channel");
        server.shutdown();
    }

    #[test]
    fn thread_pool_policy_progresses_while_one_connection_stalls() {
        // A pool of two workers with one worker pinned by a long-lived
        // connection: every later short-lived client must still be served
        // through the remaining worker.
        let (fabric, _snode, server, schema) = setup(ServerPolicy::ThreadPool(2));
        let anode = fabric.add_node("client-a");
        let mut pinned = HatClient::new(&fabric, &anode, "mix", &schema);
        assert_eq!(pinned.call("fast", b"hold").unwrap(), b"hold");
        // `pinned` stays connected, occupying one pool worker for the
        // rest of the test.

        for i in 0..3u8 {
            let cnode = fabric.add_node(&format!("client-{i}"));
            let mut client = HatClient::new(&fabric, &cnode, "mix", &schema);
            assert_eq!(
                client.call("fast", &[i; 24]).unwrap(),
                [i; 24],
                "client {i} must progress through the free worker"
            );
            // Disconnect so the worker is free for the next client.
            drop(client);
        }

        // The stalled connection is still live the whole time.
        assert_eq!(pinned.call("fast", b"still here").unwrap(), b"still here");
        drop(pinned);
        server.shutdown();
    }

    #[test]
    fn thread_pool_policy_serves_multiple_clients() {
        let (fabric, _snode, server, schema) = setup(ServerPolicy::ThreadPool(2));
        let mut handles = Vec::new();
        for i in 0..3 {
            let fabric = fabric.clone();
            let schema = schema.clone();
            handles.push(std::thread::spawn(move || {
                let cnode = fabric.add_node(&format!("client{i}"));
                let mut client = HatClient::new(&fabric, &cnode, "mix", &schema);
                let resp = client.call("fast", &[i as u8; 16]).unwrap();
                assert_eq!(resp, [i as u8; 16]);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn unhinted_service_still_works() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let schema = ServiceSchema::unhinted("Plain");
        let server = HatServer::serve(
            &fabric,
            &snode,
            "plain",
            schema.clone(),
            ServerPolicy::Threaded,
            echo_factory(),
        );
        let cnode = fabric.add_node("client");
        let mut client = HatClient::new(&fabric, &cnode, "plain", &schema);
        assert_eq!(client.call("anything", b"ok").unwrap(), b"ok");
        server.shutdown();
    }

    /// A service whose `piped` function asks for a depth-8 window.
    const PIPED_IDL: &str = r#"
        service Piped {
            binary piped(1: binary p) [ hint: perf_goal = latency, payload_size = 512, queue_depth = 8; ]
            binary solo(1: binary p) [ hint: perf_goal = latency, payload_size = 512; ]
        }
    "#;

    fn piped_setup() -> (Fabric, Arc<Node>, HatServer, ServiceSchema) {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let schema = ServiceSchema::parse(PIPED_IDL, "Piped").unwrap();
        let server = HatServer::serve(
            &fabric,
            &snode,
            "piped",
            schema.clone(),
            ServerPolicy::Threaded,
            echo_factory(),
        );
        (fabric, snode, server, schema)
    }

    #[test]
    fn queue_depth_hint_opens_a_pipelined_channel() {
        let (fabric, _snode, server, schema) = piped_setup();
        let cnode = fabric.add_node("client");
        let mut client = HatClient::new(&fabric, &cnode, "piped", &schema);

        let requests: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 64 + i as usize]).collect();
        let responses = client.call_many("piped", &requests).unwrap();
        assert_eq!(responses, requests, "responses come back in request order");

        let stats = cnode.stats_snapshot();
        assert_eq!(stats.pipelined_calls, 32, "the batch rode the pipelined path: {stats:?}");
        assert!(
            stats.inflight_hwm >= 8,
            "a 32-call batch over a depth-8 window must fill it: {stats:?}"
        );
        assert_eq!(stats.calls_ok, 32);

        // Plain calls share the same pipelined channel (window of one).
        assert_eq!(client.call("piped", b"solo ride").unwrap(), b"solo ride");
        assert_eq!(client.open_channels(), 1);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn call_many_without_the_hint_falls_back_to_sequential_calls() {
        let (fabric, _snode, server, schema) = piped_setup();
        let cnode = fabric.add_node("client");
        let mut client = HatClient::new(&fabric, &cnode, "piped", &schema);

        // Open the channel first, so its handshake posts are not counted.
        assert_eq!(client.call("solo", b"warm").unwrap(), b"warm");
        let before = cnode.stats_snapshot();
        let requests: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 32]).collect();
        let responses = client.call_many("solo", &requests).unwrap();
        assert_eq!(responses, requests);
        // A blocking channel is a window of one, so every call passes
        // through a window; unhinted, the six ran one at a time, each
        // under a doorbell of its own.
        let stats = cnode.stats_snapshot();
        let delta = stats - before;
        assert_eq!(stats.inflight_hwm, 1, "unhinted calls never overlap: {stats:?}");
        assert_eq!((delta.doorbells, delta.pipeline_doorbells), (6, 6), "{delta:?}");
        assert_eq!(delta.calls_ok, 6);
        drop(client);
        server.shutdown();
    }

    /// A blocking call that times out poisons its channel even with no
    /// retries left, so the next call opens a fresh one and takes its own
    /// response — not the late answer to the call that gave up, and not a
    /// "window full" from the slot that call still holds.
    #[test]
    fn a_timed_out_call_poisons_its_channel_and_the_next_call_gets_its_own_response() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let hold = Arc::new(AtomicBool::new(true));
        let held = hold.clone();
        let factory: HandlerFactory = Arc::new(move || {
            let held = held.clone();
            Box::new(move |req: &[u8]| {
                while held.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                req.to_vec()
            })
        });
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let schema = ServiceSchema::parse(PIPED_IDL, "Piped").unwrap();
        let server = HatServer::serve(
            &fabric,
            &snode,
            "piped",
            schema.clone(),
            ServerPolicy::Threaded,
            factory,
        );
        let cnode = fabric.add_node("client");
        let policy = CallPolicy {
            deadline: std::time::Duration::from_millis(50),
            retries: 0,
            backoff: std::time::Duration::ZERO,
        };
        let mut client = HatClient::new(&fabric, &cnode, "piped", &schema).with_policy(policy);

        let err = client.call("solo", &[0xAA; 32]).unwrap_err();
        // Release the handler before asserting, so a failure cannot leave
        // the server's shutdown waiting on it.
        hold.store(false, Ordering::Release);
        assert!(matches!(err, CoreError::Rdma(RdmaError::Timeout)), "got: {err}");
        assert_eq!(client.open_channels(), 0, "the timeout poisons the channel");
        assert_eq!(client.call("solo", &[0xBB; 32]).unwrap(), [0xBB; 32]);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn async_handles_name_completions_by_token_not_fifo_position() {
        let (fabric, _snode, server, schema) = piped_setup();
        let cnode = fabric.add_node("client");
        let mut client = HatClient::new(&fabric, &cnode, "piped", &schema);

        let mut calls: Vec<AsyncCall> =
            (0..8u8).map(|i| client.call_async("piped", &[i; 48]).unwrap()).collect();
        assert!(client.call_async("piped", b"ninth").is_err(), "the window is 8 deep");
        // One poll rings the doorbell for all eight staged submits.
        let mut responses = vec![None; 8];
        responses[0] = client.poll_async(&mut calls[0]).unwrap();
        // Take responses in reverse submission order: tokens, not FIFO
        // position, name the completions.
        for (i, call) in calls.iter_mut().enumerate().rev() {
            let response = responses[i].take().unwrap_or_else(|| client.wait_async(call).unwrap());
            assert_eq!(response, [i as u8; 48]);
        }
        assert_eq!(cnode.stats_snapshot().calls_ok, 8);

        // The unhinted sibling has no window to hand out.
        match client.call_async("solo", b"x") {
            Err(e) => assert!(e.to_string().contains("queue_depth"), "unexpected error: {e}"),
            Ok(_) => panic!("unhinted function must not expose a window"),
        }
        drop(client);
        server.shutdown();
    }

    /// A service declaring backend sharding at service scope with one
    /// function-scope override and one oversized request.
    const SHARDED_IDL: &str = r#"
        service Store {
            s_hint: shards = 4;
            binary get(1: binary k) [ hint: payload_size = 512; ]
            binary put(1: binary k) [ s_hint: shards = 8; ]
            binary greedy(1: binary k) [ s_hint: shards = 4096; ]
        }
    "#;

    #[test]
    fn shards_hint_resolves_server_side_into_the_plan() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let cnode = fabric.add_node("client");
        let schema = ServiceSchema::parse(SHARDED_IDL, "Store").unwrap();
        let client = HatClient::new(&fabric, &cnode, "store", &schema);
        assert_eq!(client.shards_for("get"), 4, "service-level hint applies to every function");
        assert_eq!(client.shards_for("put"), 8, "function-level hint overrides the service");
        assert_eq!(
            client.shards_for("greedy"),
            MAX_BACKEND_SHARDS,
            "runaway hints clamp to the backend ceiling"
        );
        assert_eq!(
            client.shards_for("unknown"),
            4,
            "functions outside the schema inherit the service-level hint"
        );
        let plain = ServiceSchema::unhinted("Plain");
        let unhinted = HatClient::new(&fabric, &cnode, "plain", &plain);
        assert_eq!(unhinted.shards_for("get"), 1, "no hint anywhere means unsharded");

        // The hint is server-side only: the client-side resolution of the
        // same schema must not see it.
        let resolved = schema.resolved("get", Side::Client);
        assert_eq!(resolved.shards, None, "s_hint is invisible to the client side");
    }

    #[test]
    fn shards_do_not_split_channels() {
        // Sharding is a storage-layout knob, not a wire-protocol one: two
        // functions differing only in `shards` must share a channel key.
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let schema = ServiceSchema::parse(SHARDED_IDL, "Store").unwrap();
        let server = HatServer::serve(
            &fabric,
            &snode,
            "store",
            schema.clone(),
            ServerPolicy::Threaded,
            echo_factory(),
        );
        let cnode = fabric.add_node("client");
        let mut client = HatClient::new(&fabric, &cnode, "store", &schema);
        client.call("put", b"a").unwrap();
        client.call("greedy", b"b").unwrap();
        assert_eq!(client.open_channels(), 1, "shards=8 and shards=64 share one channel");
        drop(client);
        server.shutdown();
    }

    /// A service where only some write functions opt into cross-shard
    /// transactions, with identical payload hints on both variants.
    const TXN_IDL: &str = r#"
        service TxnStore {
            s_hint: shards = 4;
            binary put(1: binary k) [ hint: payload_size = 512; ]
            binary put_txn(1: binary k) [ hint: payload_size = 512, txn = true; ]
            binary put_plain(1: binary k) [ hint: payload_size = 512, txn = false; ]
        }
    "#;

    #[test]
    fn txn_hint_resolves_into_the_plan() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let cnode = fabric.add_node("client");
        let schema = ServiceSchema::parse(TXN_IDL, "TxnStore").unwrap();
        let client = HatClient::new(&fabric, &cnode, "txnstore", &schema);
        assert!(client.txn_for("put_txn"), "explicit txn = true resolves");
        assert!(!client.txn_for("put"), "unhinted functions stay non-transactional");
        assert!(!client.txn_for("put_plain"), "explicit txn = false stays off");
        assert!(!client.txn_for("unknown"), "functions outside the schema inherit nothing");
    }

    /// Mirror of [`shards_do_not_split_channels`] for the `txn` hint: a
    /// transactional function and its plain sibling must share one
    /// channel — `txn` changes handler semantics and a preamble flag bit,
    /// never the wire protocol or the channel key.
    #[test]
    fn txn_does_not_split_channels() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let schema = ServiceSchema::parse(TXN_IDL, "TxnStore").unwrap();
        let server = HatServer::serve(
            &fabric,
            &snode,
            "txnstore",
            schema.clone(),
            ServerPolicy::Threaded,
            echo_factory(),
        );
        let cnode = fabric.add_node("client");
        let mut client = HatClient::new(&fabric, &cnode, "txnstore", &schema);
        client.call("put", b"a").unwrap();
        client.call("put_txn", b"b").unwrap();
        client.call("put_plain", b"c").unwrap();
        assert_eq!(client.open_channels(), 1, "txn on/off share one channel");
        drop(client);
        server.shutdown();
    }
}
