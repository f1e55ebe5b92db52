//! Protection domains and registered memory regions.
//!
//! Registered memory is the currency of RDMA: one-sided operations name a
//! remote region by `rkey` + offset, eager protocols copy payloads into
//! pre-registered slots, and the paper's `res_util` hint exists precisely
//! because pinned regions are a scarce server-side resource. Registration
//! and footprint are therefore tracked per node (see
//! [`crate::stats::NodeStats`]).
//!
//! Every access through [`MemoryRegion::read`]/[`MemoryRegion::write`]
//! first drains the owning node's pending-effect queue so that in-flight
//! simulated RDMA WRITEs become visible exactly when their wire deadline
//! passes — this is what makes memory-polling protocols (RFP, Pilaf, FaRM)
//! time-accurate.
//!
//! An in-bound WRITE lands **by reference**: at its deadline the region
//! keeps the payload buffer itself, beside its storage, and copies it in
//! only when another access touches the storage — a borrow, a local or
//! in-bound write, the NIC serving a READ. Every such access
//! goes through one of the region's own primitives, each of which copies a
//! landed buffer in first, so every reader sees the bytes exactly from the
//! deadline. A receiver that asks for exactly the range the WRITE covered
//! takes the buffer instead ([`MemoryRegion::take_landed`]): the payload
//! moves from the sender's buffer to the receiver without a pass over it.
//!
//! Keys are numbered per node, as a NIC numbers its own regions: a
//! region's lkey and rkey come from its node's region table
//! ([`crate::Node`]), so two fabrics built the same way give their regions
//! the same keys. A key only has to be unique on its node, because a
//! queue pair reaches only its connected peer's regions.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{RwLock, RwLockReadGuard};

use crate::error::{RdmaError, Result};
use crate::node::{Node, Padded};
use crate::pool::PoolBuf;

/// `offset..offset + len` if it lies inside a region of `capacity` bytes.
pub(crate) fn bounds(offset: usize, len: usize, capacity: usize) -> Result<std::ops::Range<usize>> {
    match offset.checked_add(len) {
        Some(end) if end <= capacity => Ok(offset..end),
        _ => Err(RdmaError::OutOfBounds { offset, len, capacity }),
    }
}

/// A region's bytes: its storage, plus the last in-bound WRITE, landed by
/// reference and not yet copied in.
pub(crate) struct Storage {
    bytes: Box<[u8]>,
    landed: Option<(usize, PoolBuf)>,
}

impl Storage {
    /// Copy the landed WRITE, if any, into the storage.
    fn settle(&mut self) {
        if let Some((offset, data)) = self.landed.take() {
            self.bytes[offset..offset + data.len()].copy_from_slice(&data);
        }
    }

    /// Settle, then hand out the storage for writing.
    fn settled_mut(&mut self) -> &mut [u8] {
        self.settle();
        &mut self.bytes
    }
}

pub(crate) struct MrInner {
    /// Local key (slices carry it; checked on local access in debug builds).
    pub lkey: u64,
    /// Remote key: how peers name this region in one-sided operations.
    pub rkey: u64,
    /// Capacity in bytes, fixed at registration: a bounds check reads it
    /// without taking the storage lock, which the region's own node holds
    /// while it lands WRITEs.
    pub len: usize,
    /// Backing storage.
    pub buf: Padded<RwLock<Storage>>,
    /// Owning node (for drains and stats); weak to avoid cycles.
    pub node: Weak<Node>,
    /// Set when deregistered; later accesses fail.
    pub dead: AtomicBool,
}

impl Drop for MrInner {
    /// A region whose last handle drops is deregistered. No handle is ever
    /// dropped under the node's region-table lock (lookups only upgrade
    /// under it), so taking that lock here cannot deadlock.
    fn drop(&mut self) {
        if !*self.dead.get_mut() {
            if let Some(node) = self.node.upgrade() {
                node.stats().mem_deregistered(self.len as u64);
                node.forget_mr(self.rkey);
            }
        }
    }
}

/// A registered memory region handle (cheaply cloneable).
#[derive(Clone)]
pub struct MemoryRegion {
    pub(crate) inner: Arc<MrInner>,
}

impl std::fmt::Debug for MemoryRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryRegion")
            .field("lkey", &self.inner.lkey)
            .field("rkey", &self.inner.rkey)
            .field("len", &self.len())
            .finish()
    }
}

impl MemoryRegion {
    /// Region capacity in bytes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// True for zero-capacity regions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The remote key peers use to target this region.
    pub fn rkey(&self) -> u64 {
        self.inner.rkey
    }

    /// The local key.
    pub fn lkey(&self) -> u64 {
        self.inner.lkey
    }

    /// Describe a sub-range of this region for use in a work request.
    pub fn slice(&self, offset: usize, len: usize) -> MrSlice {
        MrSlice { mr: self.clone(), offset, len }
    }

    /// A [`RemoteBuf`] descriptor a peer can use to READ/WRITE this region.
    ///
    /// In a real deployment this is the metadata exchanged during
    /// rendezvous/handshake messages; here it is a plain value the
    /// protocols serialize into their control messages.
    pub fn remote_buf(&self, offset: usize, len: usize) -> RemoteBuf {
        let node_id = self.inner.node.upgrade().map(|n| n.id()).unwrap_or(u64::MAX);
        RemoteBuf { node_id, rkey: self.inner.rkey, offset: offset as u64, len: len as u64 }
    }

    /// Copy `data` into the region at `offset` (application-side access;
    /// drains pending simulated effects first).
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.write_parts(offset, &[data])
    }

    /// Copy `parts` back to back into the region from `offset`, under one
    /// drain and one lock: a header and its payload framed in one access.
    /// The whole range is checked before any byte is written.
    pub fn write_parts(&self, offset: usize, parts: &[&[u8]]) -> Result<()> {
        self.check_live()?;
        if let Some(node) = self.inner.node.upgrade() {
            node.drain_effects();
        }
        let mut storage = self.inner.buf.write();
        let buf = storage.settled_mut();
        let len = parts.iter().map(|p| p.len()).sum();
        let mut at = bounds(offset, len, buf.len())?.start;
        for part in parts {
            buf[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        Ok(())
    }

    /// Borrow `len` bytes at `offset` for the duration of `f`
    /// (application-side access: drains pending simulated effects first so
    /// in-flight RDMA WRITEs are visible if and only if their deadline
    /// passed). The range is checked against the region's capacity before
    /// `f` sees anything, so a length that came off the wire can neither
    /// index out of bounds nor size an allocation.
    ///
    /// `f` runs under the region's read lock. Copy out and return: an
    /// in-bound WRITE applying to this region waits on that lock while
    /// holding the node's effect-apply lock, so anything slow in `f` (a
    /// user handler, a wait) would stall every connection on the node.
    /// A receiver that hands a payload to slow code takes it instead
    /// ([`MemoryRegion::take_landed`]).
    pub fn with_bytes<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        self.check_live()?;
        if let Some(node) = self.inner.node.upgrade() {
            node.drain_effects();
        }
        let buf = self.settled();
        Ok(f(&buf.bytes[bounds(offset, len, buf.bytes.len())?]))
    }

    /// Take the in-bound WRITE that landed at exactly `offset..offset +
    /// len` (drains pending effects first): the sender's buffer itself,
    /// with no pass over its bytes. `None` when the last WRITE to land
    /// covered another range, or was already copied into the storage by
    /// an access in between. The taken bytes never reach the storage: the
    /// range reads as it did before the WRITE, and a WRITE that lands
    /// after the take leaves the taken buffer as it was.
    pub fn take_landed(&self, offset: usize, len: usize) -> Result<Option<PoolBuf>> {
        self.check_live()?;
        if let Some(node) = self.inner.node.upgrade() {
            node.drain_effects();
        }
        let mut storage = self.inner.buf.write();
        let exact =
            matches!(&storage.landed, Some((at, data)) if *at == offset && data.len() == len);
        Ok(if exact { storage.landed.take().map(|(_, data)| data) } else { None })
    }

    /// The storage with no landed WRITE outstanding, read-locked.
    fn settled(&self) -> RwLockReadGuard<'_, Storage> {
        loop {
            let storage = self.inner.buf.read();
            if storage.landed.is_none() {
                return storage;
            }
            drop(storage);
            self.inner.buf.write().settle();
        }
    }

    /// An in-bound WRITE's payload arriving (the effect-apply path; does
    /// not drain): kept by reference, after copying in the one before it.
    /// An out-of-bounds WRITE is dropped, as a real NIC fails the access.
    pub(crate) fn land(&self, offset: usize, data: PoolBuf) {
        let mut storage = self.inner.buf.write();
        if bounds(offset, data.len(), storage.bytes.len()).is_ok() {
            storage.settle();
            storage.landed = Some((offset, data));
        }
    }

    /// Copy bytes out of the region at `offset` into `out`.
    pub fn read(&self, offset: usize, out: &mut [u8]) -> Result<()> {
        self.with_bytes(offset, out.len(), |b| out.copy_from_slice(b))
    }

    /// Copy `len` bytes at `offset` into a fresh `Vec` (allocated only once
    /// the range is known to lie inside the region).
    pub fn read_vec(&self, offset: usize, len: usize) -> Result<Vec<u8>> {
        self.with_bytes(offset, len, <[u8]>::to_vec)
    }

    /// Internal write that does *not* drain (used by the effect-apply path
    /// itself, which must not recurse).
    pub(crate) fn write_raw(&self, offset: usize, data: &[u8]) -> Result<()> {
        let mut storage = self.inner.buf.write();
        let buf = storage.settled_mut();
        let range = bounds(offset, data.len(), buf.len())?;
        buf[range].copy_from_slice(data);
        Ok(())
    }

    /// Internal read that does *not* drain, into a pooled buffer — the
    /// allocation-free payload-snapshot path used by `post_send` and the
    /// simulated NIC when serving in-bound RDMA READ.
    pub(crate) fn read_pool_raw(&self, offset: usize, len: usize) -> Result<PoolBuf> {
        let buf = &self.settled().bytes;
        Ok(PoolBuf::copy_from(&buf[bounds(offset, len, buf.len())?]))
    }

    /// Check that `offset..offset + len` lies inside the region.
    pub(crate) fn check_range(&self, offset: usize, len: usize) -> Result<()> {
        bounds(offset, len, self.inner.len).map(|_| ())
    }

    fn check_live(&self) -> Result<()> {
        if self.inner.dead.load(Ordering::Acquire) {
            Err(RdmaError::Deregistered)
        } else {
            Ok(())
        }
    }

    /// Deregister the region: frees the footprint accounting and fails all
    /// later accesses. Idempotent.
    pub fn deregister(&self) {
        if !self.inner.dead.swap(true, Ordering::AcqRel) {
            if let Some(node) = self.inner.node.upgrade() {
                node.stats().mem_deregistered(self.len() as u64);
                node.forget_mr(self.inner.rkey);
            }
        }
    }
}

/// A (region, offset, len) triple used as the local buffer of a work request.
#[derive(Debug, Clone)]
pub struct MrSlice {
    /// The region.
    pub mr: MemoryRegion,
    /// Start offset within the region.
    pub offset: usize,
    /// Length of the slice.
    pub len: usize,
}

impl MrSlice {
    /// Validate the slice against its region's bounds.
    pub fn validate(&self) -> Result<()> {
        self.mr.check_range(self.offset, self.len)
    }
}

/// Descriptor of a remote registered buffer (what rendezvous metadata
/// messages carry): enough for a peer to issue a one-sided READ or WRITE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteBuf {
    /// Fabric node id owning the memory: a queue pair posts only to its
    /// connected peer's.
    pub node_id: u64,
    /// Remote key of the region.
    pub rkey: u64,
    /// Offset within the region.
    pub offset: u64,
    /// Usable length.
    pub len: u64,
}

impl RemoteBuf {
    /// Serialized wire size of a `RemoteBuf` (4 × u64), as carried inside
    /// control messages by the rendezvous protocols.
    pub const WIRE_SIZE: usize = 32;

    /// Encode to a fixed 32-byte little-endian representation.
    pub fn encode(&self) -> [u8; Self::WIRE_SIZE] {
        let mut out = [0u8; Self::WIRE_SIZE];
        out[0..8].copy_from_slice(&self.node_id.to_le_bytes());
        out[8..16].copy_from_slice(&self.rkey.to_le_bytes());
        out[16..24].copy_from_slice(&self.offset.to_le_bytes());
        out[24..32].copy_from_slice(&self.len.to_le_bytes());
        out
    }

    /// Decode from the representation produced by [`RemoteBuf::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < Self::WIRE_SIZE {
            return Err(RdmaError::InvalidWorkRequest(format!(
                "RemoteBuf needs {} bytes, got {}",
                Self::WIRE_SIZE,
                bytes.len()
            )));
        }
        let u = |r: std::ops::Range<usize>| {
            u64::from_le_bytes(bytes[r].try_into().expect("range is 8 bytes"))
        };
        Ok(RemoteBuf { node_id: u(0..8), rkey: u(8..16), offset: u(16..24), len: u(24..32) })
    }

    /// A sub-range of this remote buffer. The offset saturates: a peer
    /// that advertised one near `u64::MAX` gets a descriptor every post
    /// refuses with [`RdmaError::OutOfBounds`], not an overflow.
    pub fn sub(&self, offset: u64, len: u64) -> RemoteBuf {
        let offset = self.offset.saturating_add(offset);
        RemoteBuf { node_id: self.node_id, rkey: self.rkey, offset, len }
    }
}

/// A protection domain: the registration scope for memory regions.
///
/// Regions registered in a PD are owned by that PD's node; registration
/// charges CPU time and counts against the node's pinned-memory footprint.
#[derive(Clone)]
pub struct ProtectionDomain {
    node: Arc<Node>,
}

impl std::fmt::Debug for ProtectionDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtectionDomain").field("node", &self.node.name()).finish()
    }
}

impl ProtectionDomain {
    /// Allocate a protection domain on `node` (the `ibv_alloc_pd`
    /// analogue). Endpoints carry their own PD; standalone allocation is
    /// for server-resident regions shared across connections (sequencer
    /// words, response boards).
    pub fn new(node: Arc<Node>) -> Self {
        ProtectionDomain { node }
    }

    /// The node this PD belongs to.
    pub fn node(&self) -> &Arc<Node> {
        &self.node
    }

    /// Register a zero-initialized region of `len` bytes.
    ///
    /// Charges the calibrated per-page registration cost and records the
    /// pinned footprint.
    pub fn register(&self, len: usize) -> Result<MemoryRegion> {
        // The charge covers the allocation and bookkeeping it models.
        let _charge = self.node.begin_charge(self.node.config().cost.register_ns(len));
        let storage = Storage { bytes: vec![0u8; len].into_boxed_slice(), landed: None };
        let inner = self.node.register_mr(|lkey, rkey| {
            Arc::new(MrInner {
                lkey,
                rkey,
                len,
                buf: Padded(RwLock::new(storage)),
                node: Arc::downgrade(&self.node),
                dead: AtomicBool::new(false),
            })
        });
        self.node.stats().mem_registered(len as u64);
        Ok(MemoryRegion { inner })
    }

    /// Register a region initialized with `data`.
    pub fn register_with(&self, data: &[u8]) -> Result<MemoryRegion> {
        let mr = self.register(data.len())?;
        mr.write_raw(0, data)?;
        Ok(mr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SimConfig;
    use crate::fabric::Fabric;

    fn pd() -> (Fabric, ProtectionDomain) {
        let fabric = Fabric::new(SimConfig::fast_test());
        let node = fabric.add_node("n0");
        let pd = ProtectionDomain::new(node);
        (fabric, pd)
    }

    #[test]
    fn roundtrip_write_read() {
        let (_f, pd) = pd();
        let mr = pd.register(128).unwrap();
        mr.write(5, b"abc").unwrap();
        let mut out = [0u8; 3];
        mr.read(5, &mut out).unwrap();
        assert_eq!(&out, b"abc");
    }

    #[test]
    fn out_of_bounds_write_fails() {
        let (_f, pd) = pd();
        let mr = pd.register(8).unwrap();
        let err = mr.write(6, b"abc").unwrap_err();
        assert!(matches!(err, RdmaError::OutOfBounds { .. }));
        // A multi-part write is checked whole: no part lands.
        let err = mr.write_parts(4, &[b"ab", b"cde"]).unwrap_err();
        assert!(matches!(err, RdmaError::OutOfBounds { .. }));
        assert_eq!(mr.read_vec(0, 8).unwrap(), [0; 8]);
        mr.write_parts(3, &[b"ab", b"cde"]).unwrap();
        assert_eq!(mr.read_vec(0, 8).unwrap(), b"\0\0\0abcde");
    }

    #[test]
    fn out_of_bounds_read_fails() {
        let (_f, pd) = pd();
        let mr = pd.register(8).unwrap();
        let mut out = [0u8; 4];
        assert!(mr.read(5, &mut out).is_err());
    }

    /// Lengths that came off the wire: checked before anything is sized
    /// by them (`vec![0; usize::MAX]` panics, `vec![0; 3 << 30]` reserves
    /// 3 GiB first).
    #[test]
    fn oversized_lengths_fail_typed_before_allocating() {
        let (_f, pd) = pd();
        let mr = pd.register(64).unwrap();
        for len in [65, 3 << 30, usize::MAX] {
            assert!(matches!(mr.read_vec(0, len), Err(RdmaError::OutOfBounds { .. })), "{len}");
            assert!(matches!(mr.with_bytes(1, len, |_| ()), Err(RdmaError::OutOfBounds { .. })));
        }
        assert_eq!(mr.with_bytes(60, 4, <[u8]>::len).unwrap(), 4);
    }

    #[test]
    fn deregistered_region_rejects_access() {
        let (_f, pd) = pd();
        let mr = pd.register(8).unwrap();
        mr.deregister();
        assert_eq!(mr.write(0, b"x").unwrap_err(), RdmaError::Deregistered);
        let mut out = [0u8; 1];
        assert_eq!(mr.read(0, &mut out).unwrap_err(), RdmaError::Deregistered);
        // Idempotent.
        mr.deregister();
    }

    #[test]
    fn footprint_accounting() {
        let (_f, pd) = pd();
        let n = pd.node().clone();
        let before = n.stats().snapshot().registered_bytes;
        let mr = pd.register(4096).unwrap();
        assert_eq!(n.stats().snapshot().registered_bytes, before + 4096);
        mr.deregister();
        assert_eq!(n.stats().snapshot().registered_bytes, before);
        // Dropping the last handle deregisters too, once: an explicitly
        // deregistered region is not counted off twice.
        let mr = pd.register(4096).unwrap();
        drop(mr.clone());
        assert_eq!(n.stats().snapshot().registered_bytes, before + 4096);
        drop(mr);
        assert_eq!(n.stats().snapshot().registered_bytes, before);
    }

    #[test]
    fn remote_buf_encode_decode_roundtrip() {
        let rb = RemoteBuf { node_id: 7, rkey: 0xabcdef, offset: 1024, len: 4096 };
        let enc = rb.encode();
        assert_eq!(RemoteBuf::decode(&enc).unwrap(), rb);
        assert!(RemoteBuf::decode(&enc[..31]).is_err());
    }

    #[test]
    fn remote_buf_sub_range() {
        let rb = RemoteBuf { node_id: 1, rkey: 2, offset: 100, len: 50 };
        let s = rb.sub(10, 20);
        assert_eq!(s.offset, 110);
        assert_eq!(s.len, 20);
        assert_eq!(s.rkey, 2);
    }

    #[test]
    fn slice_validation() {
        let (_f, pd) = pd();
        let mr = pd.register(16).unwrap();
        assert!(mr.slice(0, 16).validate().is_ok());
        assert!(mr.slice(8, 9).validate().is_err());
        assert!(mr.slice(usize::MAX, 2).validate().is_err());
    }

    /// Two fabrics built the same way in one process give their regions
    /// the same keys: each node numbers its own, from 1, and never hands
    /// one out twice.
    #[test]
    fn two_fabrics_built_alike_give_their_regions_identical_keys() {
        let build = || {
            let f = Fabric::new(SimConfig::fast_test());
            let (a, b) = (f.add_node("a"), f.add_node("b"));
            let (ea, eb) = f.connect(&a, &b).unwrap();
            let mrs = [ea.pd().register(8), eb.pd().register(8), ea.pd().register(8)];
            mrs.map(|mr| mr.map(|mr| (mr.lkey(), mr.rkey())).unwrap())
        };
        let keys = build();
        assert_eq!(keys, build());
        assert_eq!(keys, [(1, 2), (1, 2), (3, 4)], "per node, not per process");
    }

    #[test]
    fn register_with_initial_data() {
        let (_f, pd) = pd();
        let mr = pd.register_with(b"initial").unwrap();
        assert_eq!(mr.read_vec(0, 7).unwrap(), b"initial");
    }
}
