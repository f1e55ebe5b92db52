//! One-sided server-bypass GET path (hint `onesided_get`).
//!
//! The server publishes an MR-backed hash index — a set-associative
//! bucket array of `{key_fp, version, value_off, value_len}` slots plus a
//! value heap — and keeps it current from the KV write path under a
//! per-slot seqlock (odd version = write in progress). Clients resolve
//! GETs entirely with simulated RDMA READs: one READ fetches the bucket
//! set, another fetches the value cell, and the cell's embedded version
//! must match the slot version observed in the set READ. Every key has a
//! *home way* ([`home_way`]) that the writer fills first and the reader
//! bets on: a GET chains the set READ and the home cell's READ under one
//! doorbell, and pays a second round trip only for a key living away from
//! home. Any mismatch, index miss, or oversized value makes the client
//! fall back to the ordinary RPC path — the index is an accelerator,
//! never the source of truth.
//!
//! Geometry and MR descriptors travel out-of-band on a `{service}#onesided`
//! side-channel ([`onesided_service`]): the engine's connection preamble
//! posts its ack before decoding the client hello, so the advert cannot
//! ride the main handshake round.

use std::sync::Arc;
use std::thread::JoinHandle;

use hat_rdma_sim::stats::NodeStats;
use hat_rdma_sim::{
    Endpoint, Fabric, MemoryRegion, Node, PollMode, ProtectionDomain, RdmaError, RemoteBuf, Result,
    SendWr,
};
use parking_lot::Mutex;

use crate::common::{exchange_blobs, OpenConns, POLL_TIMEOUT_NS};

/// Associativity: slots per bucket set. One READ fetches a whole set.
pub const WAYS: usize = 4;
/// Number of bucket sets (power of two keeps the advert honest about
/// capacity; the mapping itself is modulo, not masked).
pub const NUM_SETS: usize = 4096;
/// Total slots in the index.
pub const NUM_SLOTS: usize = WAYS * NUM_SETS;
/// Bytes per slot: `{key_fp, version, value_off, value_len}`, 4 × u64.
pub const SLOT_BYTES: usize = 32;
/// Bytes per bucket set (the first READ's size).
pub const SET_BYTES: usize = WAYS * SLOT_BYTES;
/// Largest value servable one-sided; bigger values stay RPC-only.
pub const VALUE_CAP: usize = 1024;
/// Value-cell header: the cell's own copy of the slot version.
pub const CELL_HDR: usize = 8;
/// Bytes per value cell (each slot owns exactly one cell).
pub const CELL_BYTES: usize = CELL_HDR + VALUE_CAP;
/// Keys resolved per doorbell round in [`OneSidedReader::multiget`].
pub const MULTIGET_BATCH: usize = 32;
/// Seqlock retry budget before a conflict becomes an RPC fallback.
const MAX_ATTEMPTS: usize = 2;
/// Most landing bytes one key may cost a reader (its set plus one cell).
/// [`OneSidedAdvert::decode`] refuses geometry above it, so nothing a
/// server advertises can size more than [`MULTIGET_BATCH`] times this.
const MAX_KEY_FOOTPRINT: u64 = 64 * 1024;

/// The side-channel service name carrying the index advert for `service`.
pub fn onesided_service(service: &str) -> String {
    format!("{service}#onesided")
}

/// 64-bit FNV-1a key fingerprint; zero is reserved for empty slots.
pub fn key_fp(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// The way of its set a key is placed in while that way is free, and the
/// way a reader fetches the cell of before it has seen the set. Part of
/// the wire contract: both sides compute it from the fingerprint bits the
/// set mapping (`fp % num_sets`) did not use. A writer that places keys
/// some other way costs readers round trips, never correctness.
fn home_way(fp: u64, num_sets: u64, ways: u64) -> u64 {
    (fp / num_sets) % ways
}

/// Why a one-sided GET could not be resolved and must go over RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// No slot in the key's bucket set carries its fingerprint (never
    /// indexed, deleted, or evicted). The index cannot distinguish these,
    /// so a miss is *not* an authoritative "key absent".
    Miss = 1,
    /// The slot advertises a value larger than the reader's cell capacity.
    Oversized = 2,
    /// Seqlock validation failed after retries: odd slot version, or the
    /// value cell's version did not match the slot version read first.
    Conflict = 3,
}

/// Self-describing index geometry + the two MR descriptors a client needs
/// to issue READs, exchanged over the side-channel handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneSidedAdvert {
    /// Slots per set.
    pub ways: u32,
    /// Number of bucket sets.
    pub num_sets: u32,
    /// Bytes per slot.
    pub slot_bytes: u32,
    /// Largest value the heap cells hold.
    pub value_cap: u32,
    /// The bucket-array region.
    pub slots: RemoteBuf,
    /// The value-heap region.
    pub heap: RemoteBuf,
}

impl OneSidedAdvert {
    /// Serialized size: 4 × u32 geometry + 2 × [`RemoteBuf::WIRE_SIZE`].
    pub const WIRE_SIZE: usize = 16 + 2 * RemoteBuf::WIRE_SIZE;

    /// Encode to the fixed little-endian side-channel representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_SIZE);
        out.extend_from_slice(&self.ways.to_le_bytes());
        out.extend_from_slice(&self.num_sets.to_le_bytes());
        out.extend_from_slice(&self.slot_bytes.to_le_bytes());
        out.extend_from_slice(&self.value_cap.to_le_bytes());
        out.extend_from_slice(&self.slots.encode());
        out.extend_from_slice(&self.heap.encode());
        out
    }

    /// Decode and sanity-check an advert received from a server.
    pub fn decode(bytes: &[u8]) -> Result<OneSidedAdvert> {
        if bytes.len() < Self::WIRE_SIZE {
            return Err(RdmaError::InvalidWorkRequest(format!(
                "onesided advert needs {} bytes, got {}",
                Self::WIRE_SIZE,
                bytes.len()
            )));
        }
        let u = |r: std::ops::Range<usize>| {
            u32::from_le_bytes(bytes[r].try_into().expect("range is 4 bytes"))
        };
        let advert = OneSidedAdvert {
            ways: u(0..4),
            num_sets: u(4..8),
            slot_bytes: u(8..12),
            value_cap: u(12..16),
            slots: RemoteBuf::decode(&bytes[16..16 + RemoteBuf::WIRE_SIZE])?,
            heap: RemoteBuf::decode(&bytes[16 + RemoteBuf::WIRE_SIZE..])?,
        };
        // The slot layout is part of the protocol: a client parses raw
        // bytes, sizes its landing region from the geometry and computes
        // the home cell's address from it, so prove all of it here. The
        // footprint cap comes first: under it `ways` < 2^11 and a cell
        // < 2^16 bytes, so the region products below cannot overflow.
        let slots = advert.ways as u64 * advert.num_sets as u64;
        let consistent = advert.ways != 0
            && advert.num_sets != 0
            && advert.slot_bytes == SLOT_BYTES as u32
            && advert.value_cap != 0
            && advert.set_bytes() + advert.cell_bytes() <= MAX_KEY_FOOTPRINT
            && advert.slots.len == slots * SLOT_BYTES as u64
            && advert.heap.len == slots * advert.cell_bytes()
            && advert.slots.offset.checked_add(advert.slots.len).is_some()
            && advert.heap.offset.checked_add(advert.heap.len).is_some();
        if !consistent {
            return Err(RdmaError::InvalidWorkRequest(format!(
                "onesided advert geometry is inconsistent: {advert:?}"
            )));
        }
        Ok(advert)
    }

    /// Bytes per bucket set (what the set READ fetches).
    fn set_bytes(&self) -> u64 {
        self.ways as u64 * self.slot_bytes as u64
    }

    /// Bytes per value cell: version header plus `value_cap`.
    fn cell_bytes(&self) -> u64 {
        CELL_HDR as u64 + self.value_cap as u64
    }
}

/// In-memory mirror of a slot's identity, authoritative for writers (so
/// the write path never has to READ its own MR to find a key's slot).
#[derive(Debug, Clone, Copy, Default)]
struct Shadow {
    fp: u64,
    version: u64,
    /// [`OneSidedIndex::open_write`] already published `version + 1`.
    open: bool,
}

/// Server side: the MR-backed index the KV write path keeps current.
///
/// Writers follow the seqlock discipline per slot:
/// 1. publish the odd version (`v+1`) in the slot — readers that observe
///    it fall back (skipped when [`OneSidedIndex::open_write`] already
///    did, which the slot's shadow records);
/// 2. write the value cell (version header `v+2` plus payload) in one
///    region write, which is atomic with respect to simulated READs;
/// 3. publish the full slot `{fp, v+2, off, len}`.
///
/// Cross-shard writers hitting the same bucket set (different keys, same
/// set) are serialized by a per-set mutex; versions are monotonic per
/// slot, so stale readers can never validate (no ABA).
pub struct OneSidedIndex {
    slots: MemoryRegion,
    heap: MemoryRegion,
    sets: Vec<Mutex<[Shadow; WAYS]>>,
}

impl std::fmt::Debug for OneSidedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OneSidedIndex")
            .field("sets", &NUM_SETS)
            .field("ways", &WAYS)
            .field("value_cap", &VALUE_CAP)
            .finish()
    }
}

impl OneSidedIndex {
    /// Register the bucket array and value heap in `pd` (the server's
    /// node pays registration cost and pinned-memory footprint, as the
    /// paper's `res_util` discussion demands).
    pub fn new(pd: &ProtectionDomain) -> Result<OneSidedIndex> {
        let slots = pd.register(NUM_SLOTS * SLOT_BYTES)?;
        let heap = pd.register(NUM_SLOTS * CELL_BYTES)?;
        let sets = (0..NUM_SETS).map(|_| Mutex::new([Shadow::default(); WAYS])).collect();
        Ok(OneSidedIndex { slots, heap, sets })
    }

    /// The advert clients need to READ this index.
    pub fn advert(&self) -> OneSidedAdvert {
        OneSidedAdvert {
            ways: WAYS as u32,
            num_sets: NUM_SETS as u32,
            slot_bytes: SLOT_BYTES as u32,
            value_cap: VALUE_CAP as u32,
            slots: self.slots.remote_buf(0, NUM_SLOTS * SLOT_BYTES),
            heap: self.heap.remote_buf(0, NUM_SLOTS * CELL_BYTES),
        }
    }

    /// Index (or re-index) `key` → `value`. Values above [`VALUE_CAP`]
    /// cannot be served one-sided: any existing slot for the key is
    /// invalidated instead, so readers fall back to RPC.
    pub fn apply_put(&self, key: &[u8], value: &[u8]) {
        let fp = key_fp(key);
        let set = (fp % NUM_SETS as u64) as usize;
        let mut shadow = self.sets[set].lock();
        if value.len() > VALUE_CAP {
            if let Some(way) = shadow.iter().position(|s| s.fp == fp) {
                self.retire_slot(set, way, &mut shadow[way]);
            }
            return;
        }
        // A key already indexed keeps its way; a new one takes its home
        // way while that is free (readers bet on it), else the first free.
        let home = home_way(fp, NUM_SETS as u64, WAYS as u64) as usize;
        let way = shadow
            .iter()
            .position(|s| s.fp == fp)
            .or_else(|| (shadow[home].fp == 0).then_some(home))
            .or_else(|| shadow.iter().position(|s| s.fp == 0))
            .unwrap_or_else(|| {
                // Evict the least-recently-updated way (smallest version).
                let (way, _) =
                    shadow.iter().enumerate().min_by_key(|(_, s)| s.version).expect("WAYS > 0");
                way
            });
        let slot_idx = set * WAYS + way;
        let slot_off = slot_idx * SLOT_BYTES;
        let cell_off = slot_idx * CELL_BYTES;
        let sh = &mut shadow[way];
        let even = sh.version + 2;
        // 1. Odd version: write in progress, unless `open_write` marked it.
        if !sh.open {
            let odd = sh.version + 1;
            self.slots.write(slot_off + 8, &odd.to_le_bytes()).expect("slot in bounds");
        }
        // 2. Value cell, header + payload in one atomic region write.
        self.heap.write_parts(cell_off, &[&even.to_le_bytes(), value]).expect("cell in bounds");
        // 3. Publish the slot.
        let mut slot = [0u8; SLOT_BYTES];
        slot[0..8].copy_from_slice(&fp.to_le_bytes());
        slot[8..16].copy_from_slice(&even.to_le_bytes());
        slot[16..24].copy_from_slice(&(cell_off as u64).to_le_bytes());
        slot[24..32].copy_from_slice(&(value.len() as u64).to_le_bytes());
        self.slots.write(slot_off, &slot).expect("slot in bounds");
        sh.fp = fp;
        sh.version = even;
        sh.open = false;
    }

    /// Drop `key` from the index (no-op if it was never indexed).
    pub fn apply_del(&self, key: &[u8]) {
        let fp = key_fp(key);
        let set = (fp % NUM_SETS as u64) as usize;
        let mut shadow = self.sets[set].lock();
        if let Some(way) = shadow.iter().position(|s| s.fp == fp) {
            self.retire_slot(set, way, &mut shadow[way]);
        }
    }

    /// Empty a slot: bump its version past every published value so
    /// in-flight readers holding the old slot can no longer validate.
    fn retire_slot(&self, set: usize, way: usize, sh: &mut Shadow) {
        let slot_idx = set * WAYS + way;
        let slot_off = slot_idx * SLOT_BYTES;
        let cell_off = slot_idx * CELL_BYTES;
        let odd = sh.version + 1;
        let even = sh.version + 2;
        self.slots.write(slot_off + 8, &odd.to_le_bytes()).expect("slot in bounds");
        self.heap.write(cell_off, &even.to_le_bytes()).expect("cell in bounds");
        let mut slot = [0u8; SLOT_BYTES];
        slot[8..16].copy_from_slice(&even.to_le_bytes());
        self.slots.write(slot_off, &slot).expect("slot in bounds");
        sh.fp = 0;
        sh.version = even;
        sh.open = false;
    }

    /// Mark `key`'s slot write-in-progress (odd version) ahead of the
    /// [`apply_put`](Self::apply_put) / [`apply_del`](Self::apply_del)
    /// that will follow for it; returns false for a key not indexed. The
    /// mark stays in the slot's shadow until that write, which then skips
    /// its own odd-version write.
    ///
    /// A writer mirroring a multi-key batch opens every key first. From
    /// then until the batch's last key is published, every key of it is
    /// odd, absent, or already new — so no instant exists at which a
    /// reader's two rounds can validate one key of the batch new and
    /// another still old.
    pub fn open_write(&self, key: &[u8]) -> bool {
        let fp = key_fp(key);
        let set = (fp % NUM_SETS as u64) as usize;
        let mut shadow = self.sets[set].lock();
        let Some(way) = shadow.iter().position(|s| s.fp == fp) else { return false };
        let sh = &mut shadow[way];
        if !sh.open {
            let slot_off = (set * WAYS + way) * SLOT_BYTES;
            let odd = sh.version + 1;
            self.slots.write(slot_off + 8, &odd.to_le_bytes()).expect("slot in bounds");
            sh.open = true;
        }
        true
    }

    /// Deregister both regions (frees the pinned-memory footprint).
    pub fn teardown(&self) {
        self.slots.deregister();
        self.heap.deregister();
    }
}

/// Server-side host: owns the index and an acceptor thread that serves
/// the advert on the `{service}#onesided` side-channel. Each dial's
/// handshake runs on a thread of its own, so a silent dialer delays no
/// other reader. Accepted endpoints are kept alive until their reader
/// leaves or the host shuts down, so client READs keep a live connection
/// underneath them.
pub struct OneSidedHost {
    index: Arc<OneSidedIndex>,
    fabric: Fabric,
    /// The side-channel's service name.
    side: String,
    peers: Arc<Mutex<OpenConns<Endpoint>>>,
    /// The acceptor; it returns the handshake threads it spawned.
    thread: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for OneSidedHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OneSidedHost").field("index", &self.index).finish()
    }
}

impl OneSidedHost {
    /// Register the index on `node` and start accepting advert requests
    /// for `service`'s side-channel.
    pub fn start(fabric: &Fabric, node: &Arc<Node>, service: &str) -> Result<OneSidedHost> {
        let index = Arc::new(OneSidedIndex::new(&ProtectionDomain::new(node.clone()))?);
        let side = onesided_service(service);
        let listener = fabric.listen(node, &side);
        let advert = index.advert().encode();
        let peers: Arc<Mutex<OpenConns<Endpoint>>> = Arc::default();
        let accepted = peers.clone();
        let thread = std::thread::spawn(move || {
            let mut handshakes: Vec<JoinHandle<()>> = Vec::new();
            while let Ok(ep) = listener.accept() {
                accepted.lock().insert(ep.clone(), Endpoint::is_alive);
                let advert = advert.clone();
                handshakes.retain(|h| !h.is_finished());
                handshakes.push(std::thread::spawn(move || {
                    // A failed handshake only loses this one client; it
                    // falls back to RPC permanently.
                    if exchange_blobs(&ep, &advert).is_err() {
                        ep.close();
                    }
                }));
            }
            handshakes
        });
        Ok(OneSidedHost { index, fabric: fabric.clone(), side, peers, thread: Some(thread) })
    }

    /// The hosted index (for wiring into the KV write path).
    pub fn index(&self) -> &Arc<OneSidedIndex> {
        &self.index
    }

    /// Stop accepting, close every side-channel connection (ending any
    /// handshake still waiting on a silent dialer), and deregister the
    /// index regions.
    pub fn shutdown(mut self) {
        self.fabric.unlisten(&self.side);
        let handshakes = self.thread.take().map(|t| t.join().unwrap_or_default());
        for ep in self.peers.lock().drain() {
            ep.close();
        }
        for h in handshakes.into_iter().flatten() {
            let _ = h.join();
        }
        self.index.teardown();
    }
}

/// One slot as parsed from a READ of the bucket array.
#[derive(Debug, Clone, Copy, Default)]
struct SlotView {
    fp: u64,
    version: u64,
    value_off: u64,
    value_len: u64,
}

impl SlotView {
    fn parse(bytes: &[u8]) -> SlotView {
        let u = |r: std::ops::Range<usize>| {
            u64::from_le_bytes(bytes[r].try_into().expect("range is 8 bytes"))
        };
        SlotView { fp: u(0..8), version: u(8..16), value_off: u(16..24), value_len: u(24..32) }
    }

    /// The used prefix of this slot's value cell: header plus value.
    fn cell_len(&self) -> u64 {
        CELL_HDR as u64 + self.value_len
    }
}

/// Locate `fp`'s slot in a freshly READ `set`. `Ok(slot)` has an even
/// version and a value that fits both the reader's cell and the heap;
/// `Err` is the per-key fallback classification.
fn find_slot(set: &[u8], fp: u64, advert: &OneSidedAdvert) -> OneSidedOutcome<SlotView> {
    let slot = set
        .chunks_exact(SLOT_BYTES)
        .map(SlotView::parse)
        .find(|slot| slot.fp == fp)
        .ok_or(FallbackReason::Miss)?;
    if slot.version % 2 == 1 {
        return Err(FallbackReason::Conflict);
    }
    if slot.value_len > advert.value_cap as u64 {
        return Err(FallbackReason::Oversized);
    }
    match slot.value_off.checked_add(slot.cell_len()) {
        Some(end) if end <= advert.heap.len => Ok(slot),
        // A torn slot READ interleaved with a writer can pair an old
        // offset with a new length; treat it as a conflict.
        _ => Err(FallbackReason::Conflict),
    }
}

/// Validate a READ value `cell` against the slot version observed before
/// it; copies the value out (the one copy a GET makes) on success.
fn check_cell(cell: &[u8], slot: &SlotView) -> OneSidedOutcome<Vec<u8>> {
    let version = u64::from_le_bytes(cell[..CELL_HDR].try_into().expect("8 bytes"));
    if version != slot.version {
        return Err(FallbackReason::Conflict);
    }
    Ok(cell[CELL_HDR..slot.cell_len() as usize].to_vec())
}

/// Client side: resolves GETs against a remote [`OneSidedIndex`] with
/// simulated RDMA READs, never involving the server CPU.
///
/// Outcome accounting lands on the *client* node's stats: `onesided_gets`
/// counts keys resolved one-sided, `onesided_fallbacks` counts calls that
/// had to return to the RPC path, `onesided_conflicts` counts individual
/// seqlock validation failures (retries included).
pub struct OneSidedReader {
    ep: Endpoint,
    landing: MemoryRegion,
    advert: OneSidedAdvert,
    timeout_ns: u64,
    next_wr: u64,
    bytes_read: u64,
}

impl std::fmt::Debug for OneSidedReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OneSidedReader").field("advert", &self.advert).finish()
    }
}

/// `Ok(value)` resolved one-sided, `Err(reason)` means go over RPC.
pub type OneSidedOutcome<T> = std::result::Result<T, FallbackReason>;

impl OneSidedReader {
    /// Dial `service`'s side-channel, fetch the advert, and size the
    /// landing buffers. Fails with [`RdmaError::NoSuchService`] when the
    /// server does not host a one-sided index.
    pub fn connect(fabric: &Fabric, node: &Arc<Node>, service: &str) -> Result<OneSidedReader> {
        let ep = fabric.dial(node, &onesided_service(service))?;
        let advert = OneSidedAdvert::decode(&exchange_blobs(&ep, b"onesided-hello")?)?;
        // At most MULTIGET_BATCH × MAX_KEY_FOOTPRINT, whatever was advertised.
        let per_key = (advert.set_bytes() + advert.cell_bytes()) as usize;
        let landing = ep.pd().register(MULTIGET_BATCH * per_key)?;
        Ok(OneSidedReader {
            ep,
            landing,
            advert,
            timeout_ns: POLL_TIMEOUT_NS,
            next_wr: 0,
            bytes_read: 0,
        })
    }

    /// The advert this reader operates against.
    pub fn advert(&self) -> &OneSidedAdvert {
        &self.advert
    }

    /// Bytes fetched by READs across this reader's lifetime (for spans).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    fn set_bytes(&self) -> usize {
        self.advert.set_bytes() as usize
    }

    fn cell_bytes(&self) -> usize {
        self.advert.cell_bytes() as usize
    }

    fn stats(&self) -> &NodeStats {
        self.ep.node().stats()
    }

    /// A READ of `remote` into the landing region at `local_off`.
    fn read_wr(&mut self, local_off: usize, remote: RemoteBuf) -> SendWr {
        self.next_wr += 1;
        self.bytes_read += remote.len;
        SendWr::read(self.next_wr, self.landing.slice(local_off, remote.len as usize), remote)
    }

    /// Post `chain` under one doorbell and wait for its last READ, the
    /// only one signaled — link reservations are in posting order, so its
    /// completion implies every earlier READ's data has landed.
    fn post_reads(&self, chain: &mut [SendWr]) -> Result<()> {
        if let Some(last) = chain.last_mut() {
            last.signaled = true;
        }
        self.ep.post_send(chain)?;
        self.ep.send_cq().poll_timeout(PollMode::Busy, self.timeout_ns)?.ok()?;
        Ok(())
    }

    fn set_remote(&self, fp: u64) -> RemoteBuf {
        let set = fp % self.advert.num_sets as u64;
        self.advert.slots.sub(set * self.advert.set_bytes(), self.advert.set_bytes())
    }

    /// Heap offset of the cell `fp`'s home slot owns. Inside the heap for
    /// every `fp`: `decode` proved the heap is exactly one cell per slot.
    fn home_cell_off(&self, fp: u64) -> u64 {
        let (sets, ways) = (self.advert.num_sets as u64, self.advert.ways as u64);
        ((fp % sets) * ways + home_way(fp, sets, ways)) * self.advert.cell_bytes()
    }

    /// Run `attempt` until it resolves, fails for a reason a retry cannot
    /// cure, or has lost the seqlock race [`MAX_ATTEMPTS`] times.
    fn retrying<T>(
        &mut self,
        mut attempt: impl FnMut(&mut Self) -> Result<OneSidedOutcome<T>>,
    ) -> Result<OneSidedOutcome<T>> {
        for _ in 0..MAX_ATTEMPTS {
            match attempt(self)? {
                Err(FallbackReason::Conflict) => {
                    NodeStats::add(&self.stats().onesided_conflicts, 1);
                }
                settled => return Ok(settled),
            }
        }
        Ok(Err(FallbackReason::Conflict))
    }

    /// Resolve one GET in one round trip when the key lives in its home
    /// way: the bucket set and the whole home cell are READ in one chain
    /// and validated under the seqlock rules. A key living in another way
    /// costs the second READ its slot names; conflicts are retried once.
    pub fn get(&mut self, key: &[u8]) -> Result<OneSidedOutcome<Vec<u8>>> {
        let fp = key_fp(key);
        let outcome = self.retrying(|reader| reader.get_once(fp))?;
        let counter = match outcome {
            Ok(_) => &self.stats().onesided_gets,
            Err(_) => &self.stats().onesided_fallbacks,
        };
        NodeStats::add(counter, 1);
        Ok(outcome)
    }

    fn get_once(&mut self, fp: u64) -> Result<OneSidedOutcome<Vec<u8>>> {
        let (set_bytes, cell_bytes) = (self.set_bytes(), self.cell_bytes());
        let home_off = self.home_cell_off(fp);
        // The set READ is posted (and so served) before the cell READ: the
        // slot version is observed first, as the seqlock needs. The
        // value's length is in the slot, so the bet fetches the whole cell.
        let mut chain = [
            self.read_wr(0, self.set_remote(fp)),
            self.read_wr(set_bytes, self.advert.heap.sub(home_off, cell_bytes as u64)),
        ];
        self.post_reads(&mut chain)?;
        let found = self.landing.with_bytes(0, set_bytes + cell_bytes, |landed| {
            let (set, cell) = landed.split_at(set_bytes);
            find_slot(set, fp, &self.advert).map(|slot| {
                let home = slot.value_off == home_off;
                (slot, home.then(|| check_cell(cell, &slot)))
            })
        })?;
        Ok(match found {
            Err(reason) => Err(reason),
            Ok((_, Some(checked))) => checked,
            Ok((slot, None)) => {
                // Away from home: fetch the cell the slot names.
                let cell = self.advert.heap.sub(slot.value_off, slot.cell_len());
                let mut away = [self.read_wr(set_bytes, cell)];
                self.post_reads(&mut away)?;
                self.landing
                    .with_bytes(set_bytes, cell.len as usize, |cell| check_cell(cell, &slot))?
            }
        })
    }

    /// Resolve a whole batch one-sided or not at all: chained READs give
    /// two doorbell rounds per [`MULTIGET_BATCH`] chunk (all bucket sets,
    /// then all value cells). Any unresolvable key fails the entire call
    /// back to RPC — partial resolution would force the caller to merge.
    pub fn multiget(&mut self, keys: &[Vec<u8>]) -> Result<OneSidedOutcome<Vec<Vec<u8>>>> {
        let mut values = Vec::with_capacity(keys.len());
        for chunk in keys.chunks(MULTIGET_BATCH) {
            if let Err(reason) = self.retrying(|reader| reader.chunk_once(chunk, &mut values))? {
                NodeStats::add(&self.stats().onesided_fallbacks, 1);
                return Ok(Err(reason));
            }
        }
        NodeStats::add(&self.stats().onesided_gets, keys.len() as u64);
        Ok(Ok(values))
    }

    /// One attempt at up to [`MULTIGET_BATCH`] keys, appending their
    /// values to `values` only if every one validated.
    ///
    /// Every cell is READ after every slot, and validation proves no key
    /// changed between its own two READs, so the values returned are the
    /// index's at one instant between the rounds. That instant cannot
    /// show half of a mirrored batch: writers open every key of a batch
    /// before publishing any ([`OneSidedIndex::open_write`]).
    fn chunk_once(
        &mut self,
        keys: &[Vec<u8>],
        values: &mut Vec<Vec<u8>>,
    ) -> Result<OneSidedOutcome<()>> {
        let (set_bytes, cell_bytes) = (self.set_bytes(), self.cell_bytes());
        let cell_base = MULTIGET_BATCH * set_bytes;
        let mut slots = [SlotView::default(); MULTIGET_BATCH];
        let slots = &mut slots[..keys.len()];
        // Round 1: every bucket set, one doorbell.
        let mut chain = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            chain.push(self.read_wr(i * set_bytes, self.set_remote(key_fp(key))));
        }
        self.post_reads(&mut chain)?;
        let found = self.landing.with_bytes(0, keys.len() * set_bytes, |sets| {
            let sets = sets.chunks_exact(set_bytes);
            keys.iter().zip(sets).zip(slots.iter_mut()).try_for_each(|((key, set), slot)| {
                find_slot(set, key_fp(key), &self.advert).map(|found| *slot = found)
            })
        })?;
        if found.is_err() {
            return Ok(found);
        }
        // Round 2: every value cell, one doorbell.
        chain.clear();
        for (i, slot) in slots.iter().enumerate() {
            let cell = self.advert.heap.sub(slot.value_off, slot.cell_len());
            chain.push(self.read_wr(cell_base + i * cell_bytes, cell));
        }
        self.post_reads(&mut chain)?;
        let resolved = values.len();
        let checked = self.landing.with_bytes(cell_base, keys.len() * cell_bytes, |cells| {
            cells
                .chunks_exact(cell_bytes)
                .zip(slots.iter())
                .try_for_each(|(cell, slot)| check_cell(cell, slot).map(|value| values.push(value)))
        })?;
        if checked.is_err() {
            values.truncate(resolved);
        }
        Ok(checked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_rdma_sim::SimConfig;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn host_and_reader() -> (Fabric, OneSidedHost, OneSidedReader) {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let cnode = fabric.add_node("client");
        let host = OneSidedHost::start(&fabric, &snode, "kv").unwrap();
        let reader = OneSidedReader::connect(&fabric, &cnode, "kv").unwrap();
        (fabric, host, reader)
    }

    #[test]
    fn advert_roundtrip_and_validation() {
        let rb = |len| RemoteBuf { node_id: 1, rkey: 2, offset: 0, len };
        let advert = OneSidedAdvert {
            ways: WAYS as u32,
            num_sets: NUM_SETS as u32,
            slot_bytes: SLOT_BYTES as u32,
            value_cap: VALUE_CAP as u32,
            slots: rb((NUM_SLOTS * SLOT_BYTES) as u64),
            heap: rb((NUM_SLOTS * CELL_BYTES) as u64),
        };
        assert_eq!(OneSidedAdvert::decode(&advert.encode()).unwrap(), advert);
        // Truncated or geometry-inconsistent adverts are rejected.
        assert!(OneSidedAdvert::decode(&advert.encode()[..OneSidedAdvert::WIRE_SIZE - 1]).is_err());
        let mut bad = advert;
        bad.slot_bytes = 16;
        assert!(OneSidedAdvert::decode(&bad.encode()).is_err());
        let mut short = advert;
        short.slots = rb(64);
        assert!(OneSidedAdvert::decode(&short.encode()).is_err());
        // A heap that is not one cell per slot: the home cell's address is
        // computed from the geometry, so it has to be the real geometry.
        let mut thin = advert;
        thin.heap = rb((NUM_SLOTS * CELL_BYTES - 1) as u64);
        assert!(OneSidedAdvert::decode(&thin.encode()).is_err());
        // Self-consistent but huge: a reader sizes its landing region from
        // these, so they are capped, and no product of them may overflow.
        let scaled = |ways: u32, value_cap: u32| {
            let slots = ways as u64 * NUM_SETS as u64;
            OneSidedAdvert {
                ways,
                value_cap,
                slots: rb(slots * SLOT_BYTES as u64),
                heap: rb(slots.wrapping_mul(CELL_HDR as u64 + value_cap as u64)),
                ..advert
            }
        };
        assert!(OneSidedAdvert::decode(&scaled(WAYS as u32, 60_000).encode()).is_ok());
        assert!(OneSidedAdvert::decode(&scaled(WAYS as u32, u32::MAX).encode()).is_err());
        assert!(OneSidedAdvert::decode(&scaled(1 << 27, VALUE_CAP as u32).encode()).is_err());
        assert!(OneSidedAdvert::decode(&scaled(u32::MAX, u32::MAX).encode()).is_err());
        let mut wrapping = advert;
        wrapping.heap.offset = u64::MAX;
        assert!(OneSidedAdvert::decode(&wrapping.encode()).is_err());
    }

    #[test]
    fn get_hits_after_put_and_misses_after_del() {
        let (_f, host, mut reader) = host_and_reader();
        let index = host.index().clone();
        index.apply_put(b"alpha", b"value-1");
        assert_eq!(reader.get(b"alpha").unwrap(), Ok(b"value-1".to_vec()));
        // Overwrite is visible.
        index.apply_put(b"alpha", b"value-2");
        assert_eq!(reader.get(b"alpha").unwrap(), Ok(b"value-2".to_vec()));
        // Never-written key and deleted key both miss.
        assert_eq!(reader.get(b"ghost").unwrap(), Err(FallbackReason::Miss));
        index.apply_del(b"alpha");
        assert_eq!(reader.get(b"alpha").unwrap(), Err(FallbackReason::Miss));
        host.shutdown();
    }

    #[test]
    fn oversized_values_are_not_served_one_sided() {
        let (_f, host, mut reader) = host_and_reader();
        let index = host.index().clone();
        index.apply_put(b"big", &vec![7u8; VALUE_CAP]);
        assert_eq!(reader.get(b"big").unwrap(), Ok(vec![7u8; VALUE_CAP]));
        // Growing past the cap retires the slot: readers must fall back.
        index.apply_put(b"big", &vec![8u8; VALUE_CAP + 1]);
        assert_eq!(reader.get(b"big").unwrap(), Err(FallbackReason::Miss));
        host.shutdown();
    }

    #[test]
    fn poisoned_slot_reports_conflict_and_counts_it() {
        let (_f, host, mut reader) = host_and_reader();
        let index = host.index().clone();
        index.apply_put(b"k", b"v");
        assert!(index.open_write(b"k"));
        let before = reader.ep.node().stats_snapshot();
        assert_eq!(reader.get(b"k").unwrap(), Err(FallbackReason::Conflict));
        let after = reader.ep.node().stats_snapshot();
        assert_eq!(after.onesided_fallbacks - before.onesided_fallbacks, 1);
        assert!(after.onesided_conflicts > before.onesided_conflicts);
        // A clean re-put heals the slot.
        index.apply_put(b"k", b"v2");
        assert_eq!(reader.get(b"k").unwrap(), Ok(b"v2".to_vec()));
        host.shutdown();
    }

    #[test]
    fn eviction_falls_back_for_the_displaced_key() {
        let (_f, host, mut reader) = host_and_reader();
        let index = host.index().clone();
        // Find WAYS + 1 keys that land in the same bucket set.
        let target_set = key_fp(b"seed-0") % NUM_SETS as u64;
        let mut keys = Vec::new();
        let mut i = 0u32;
        while keys.len() < WAYS + 1 {
            let k = format!("seed-{i}").into_bytes();
            if key_fp(&k) % NUM_SETS as u64 == target_set {
                keys.push(k);
            }
            i += 1;
        }
        for (n, k) in keys.iter().enumerate() {
            index.apply_put(k, format!("v{n}").as_bytes());
        }
        // The set holds WAYS keys: exactly one was displaced (which one
        // is placement's business) and misses; the rest resolve, the
        // last written among them.
        let outcomes: Vec<_> = keys.iter().map(|k| reader.get(k).unwrap()).collect();
        for (n, outcome) in outcomes.iter().enumerate() {
            assert!(
                *outcome == Ok(format!("v{n}").into_bytes())
                    || *outcome == Err(FallbackReason::Miss),
                "key {n}: {outcome:?}"
            );
        }
        assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 1, "{outcomes:?}");
        assert!(outcomes[WAYS].is_ok(), "the last written key resolves");
        host.shutdown();
    }

    #[test]
    fn multiget_resolves_batches_and_fails_whole_call_on_miss() {
        let (_f, host, mut reader) = host_and_reader();
        let index = host.index().clone();
        let keys: Vec<Vec<u8>> = (0..40u8).map(|i| vec![b'k', i]).collect();
        let values: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 100]).collect();
        for (k, v) in keys.iter().zip(&values) {
            index.apply_put(k, v);
        }
        // 40 keys > MULTIGET_BATCH exercises chunking.
        assert_eq!(reader.multiget(&keys).unwrap(), Ok(values));
        let mut with_ghost = keys.clone();
        with_ghost.push(b"ghost".to_vec());
        assert_eq!(reader.multiget(&with_ghost).unwrap(), Err(FallbackReason::Miss));
        host.shutdown();
    }

    /// The batch bracket: a writer about to mirror several keys opens
    /// them all first, so the index never holds one key of the batch
    /// published next to another still validly old.
    #[test]
    fn a_half_mirrored_batch_does_not_validate() {
        let (_f, host, mut reader) = host_and_reader();
        let index = host.index().clone();
        let keys = [b"left".to_vec(), b"right".to_vec()];
        let all = |v: &[u8]| Ok(vec![v.to_vec(), v.to_vec()]);
        index.apply_put(&keys[0], b"old");
        index.apply_put(&keys[1], b"old");
        assert_eq!(reader.multiget(&keys).unwrap(), all(b"old"));
        assert!(index.open_write(&keys[0]) && index.open_write(&keys[1]));
        assert_eq!(reader.multiget(&keys).unwrap(), Err(FallbackReason::Conflict));
        index.apply_put(&keys[0], b"new");
        assert_eq!(reader.get(&keys[0]).unwrap(), Ok(b"new".to_vec()));
        assert_eq!(reader.multiget(&keys).unwrap(), Err(FallbackReason::Conflict));
        index.apply_put(&keys[1], b"new");
        assert_eq!(reader.multiget(&keys).unwrap(), all(b"new"));
        assert!(!index.open_write(b"never indexed"));
        host.shutdown();
    }

    /// A batch naming one key twice opens its slot twice and publishes it
    /// twice: the first publish consumes the open mark, the second pays
    /// its own odd write, and the slot ends even, holding the last value.
    #[test]
    fn a_batch_naming_one_key_twice_leaves_the_slot_even_with_the_last_value() {
        let (_f, host, mut reader) = host_and_reader();
        let index = host.index().clone();
        let key = b"twice";
        index.apply_put(key, b"old");
        assert!(index.open_write(key) && index.open_write(key));
        assert_eq!(reader.get(key).unwrap(), Err(FallbackReason::Conflict));
        index.apply_put(key, b"first");
        index.apply_put(key, b"last");
        assert_eq!(reader.get(key).unwrap(), Ok(b"last".to_vec()));

        let fp = key_fp(key);
        let set = (fp % NUM_SETS as u64) as usize;
        let shadow = index.sets[set].lock();
        let way = shadow.iter().position(|s| s.fp == fp).expect("indexed");
        let mut version = [0u8; 8];
        index.slots.read((set * WAYS + way) * SLOT_BYTES + 8, &mut version).unwrap();
        let version = u64::from_le_bytes(version);
        assert!(!shadow[way].open, "the last publish clears the mark");
        assert_eq!(version, shadow[way].version, "the region holds the shadow's version");
        assert_eq!(version % 2, 0, "the slot ends even");
        drop(shadow);
        host.shutdown();
    }

    #[test]
    fn missing_side_channel_is_a_clean_dial_error() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let cnode = fabric.add_node("client");
        let err = OneSidedReader::connect(&fabric, &cnode, "absent").unwrap_err();
        assert!(matches!(err, RdmaError::NoSuchService(_)));
    }

    /// Satellite: seqlock torn-read stress. Writers hammer one key with
    /// self-describing values (every byte equals the round tag) while a
    /// client issues one-sided GETs. A hit must never mix bytes from two
    /// versions; conflicts/misses are legal and must be classified.
    #[test]
    fn concurrent_writers_never_yield_torn_values() {
        let (_f, host, mut reader) = host_and_reader();
        let index = host.index().clone();
        index.apply_put(b"hot", &[0u8; 256]);
        let stop = Arc::new(AtomicBool::new(false));
        let mut writers = Vec::new();
        for w in 0..2u8 {
            let index = index.clone();
            let stop = stop.clone();
            writers.push(std::thread::spawn(move || {
                let mut tag = w;
                while !stop.load(Ordering::Acquire) {
                    index.apply_put(b"hot", &[tag; 256]);
                    tag = tag.wrapping_add(2);
                    // Two writers that never yield can hold both cores of
                    // a small host for the whole run and starve the reader
                    // of every conflict-free window (`hits == 0`).
                    std::thread::yield_now();
                }
            }));
        }
        let mut hits = 0u32;
        for _ in 0..300 {
            match reader.get(b"hot").unwrap() {
                Ok(value) => {
                    hits += 1;
                    assert_eq!(value.len(), 256);
                    let first = value[0];
                    assert!(
                        value.iter().all(|&b| b == first),
                        "torn one-sided read: mixed bytes {:?}...",
                        &value[..8.min(value.len())]
                    );
                }
                Err(FallbackReason::Conflict) | Err(FallbackReason::Miss) => {}
                Err(other) => panic!("unexpected fallback {other:?}"),
            }
        }
        stop.store(true, Ordering::Release);
        for t in writers {
            t.join().unwrap();
        }
        assert!(hits > 0, "stress never resolved a single one-sided GET");
        // After the dust settles the index agrees with the last write.
        let settled = reader.get(b"hot").unwrap().expect("quiescent index resolves");
        assert!(settled.iter().all(|&b| b == settled[0]));
        host.shutdown();
    }
}
