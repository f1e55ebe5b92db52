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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::RwLock;

use crate::error::{RdmaError, Result};
use crate::node::Node;

/// Monotonic id source for rkeys/lkeys across the whole process.
static NEXT_KEY: AtomicU64 = AtomicU64::new(1);

/// `offset..offset + len` if it lies inside a region of `capacity` bytes.
fn bounds(offset: usize, len: usize, capacity: usize) -> Result<std::ops::Range<usize>> {
    match offset.checked_add(len) {
        Some(end) if end <= capacity => Ok(offset..end),
        _ => Err(RdmaError::OutOfBounds { offset, len, capacity }),
    }
}

pub(crate) struct MrInner {
    /// Local key (slices carry it; checked on local access in debug builds).
    pub lkey: u64,
    /// Remote key: how peers name this region in one-sided operations.
    pub rkey: u64,
    /// Backing storage.
    pub buf: RwLock<Box<[u8]>>,
    /// Owning node (for drains and stats); weak to avoid cycles.
    pub node: Weak<Node>,
    /// Set when deregistered; later accesses fail.
    pub dead: AtomicBool,
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
        self.inner.buf.read().len()
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
        let mut buf = self.inner.buf.write();
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
        let buf = self.inner.buf.read();
        Ok(f(&buf[bounds(offset, len, buf.len())?]))
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
        let mut buf = self.inner.buf.write();
        let range = bounds(offset, data.len(), buf.len())?;
        buf[range].copy_from_slice(data);
        Ok(())
    }

    /// Internal read that does *not* drain, into a pooled buffer — the
    /// allocation-free payload-snapshot path used by `post_send` and the
    /// simulated NIC when serving in-bound RDMA READ.
    pub(crate) fn read_pool_raw(&self, offset: usize, len: usize) -> Result<crate::pool::PoolBuf> {
        let buf = self.inner.buf.read();
        Ok(crate::pool::PoolBuf::copy_from(&buf[bounds(offset, len, buf.len())?]))
    }

    /// Atomically read-modify-write an 8-byte word at `offset` under the
    /// region's write lock (the simulated NIC's atomic unit, used by
    /// RDMA COMPARE_AND_SWAP / FETCH_AND_ADD). Returns the old value;
    /// `f` returns `Some(new)` to store or `None` to leave it unchanged.
    pub(crate) fn atomic_update(
        &self,
        offset: usize,
        f: impl FnOnce(u64) -> Option<u64>,
    ) -> Result<u64> {
        let mut buf = self.inner.buf.write();
        let range = bounds(offset, 8, buf.len())?;
        let old = u64::from_le_bytes(buf[range.clone()].try_into().expect("8 bytes"));
        if let Some(new) = f(old) {
            buf[range].copy_from_slice(&new.to_le_bytes());
        }
        Ok(old)
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
        bounds(self.offset, self.len, self.mr.len()).map(|_| ())
    }
}

/// Descriptor of a remote registered buffer (what rendezvous metadata
/// messages carry): enough for a peer to issue a one-sided READ or WRITE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteBuf {
    /// Fabric node id owning the memory.
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

    /// A sub-range of this remote buffer.
    pub fn sub(&self, offset: u64, len: u64) -> RemoteBuf {
        RemoteBuf { node_id: self.node_id, rkey: self.rkey, offset: self.offset + offset, len }
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
        let lkey = NEXT_KEY.fetch_add(1, Ordering::Relaxed);
        let rkey = NEXT_KEY.fetch_add(1, Ordering::Relaxed);
        let inner = Arc::new(MrInner {
            lkey,
            rkey,
            buf: RwLock::new(vec![0u8; len].into_boxed_slice()),
            node: Arc::downgrade(&self.node),
            dead: AtomicBool::new(false),
        });
        self.node.stats().mem_registered(len as u64);
        self.node.remember_mr(rkey, &inner);
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

    #[test]
    fn register_with_initial_data() {
        let (_f, pd) = pd();
        let mr = pd.register_with(b"initial").unwrap();
        assert_eq!(mr.read_vec(0, 7).unwrap(), b"initial");
    }
}
