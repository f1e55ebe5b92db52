//! Work requests: the verbs operations the paper's protocols are built from.

use parking_lot::Mutex;

use crate::error::{RdmaError, Result};
use crate::memory::{MemoryRegion, MrSlice, RemoteBuf};
use crate::pool::PoolBuf;

/// Operation kind, mirroring `ibv_wr_opcode` / `ibv_wc_opcode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Two-sided send (consumes a posted receive at the peer).
    Send,
    /// Receive completion.
    Recv,
    /// One-sided RDMA WRITE (no peer completion).
    Write,
    /// One-sided RDMA READ.
    Read,
    /// RDMA WRITE_WITH_IMM: one-sided write plus a peer completion carrying
    /// a 32-bit immediate (consumes a posted receive at the peer).
    WriteImm,
    /// One-sided atomic compare-and-swap on an 8-byte remote word.
    CompSwap,
    /// One-sided atomic fetch-and-add on an 8-byte remote word.
    FetchAdd,
}

/// Hard capacity of a work-queue entry's inline segment. Effective inline
/// limits ([`crate::qp::QpConfig::max_inline`]) are clamped to this; real
/// NICs have the same shape (inline data lives inside the fixed-size WQE).
pub const INLINE_CAP: usize = 256;

/// Inline payload bytes stored directly inside the work request — no heap
/// allocation, mirroring how real WQEs embed inline data. Oversized
/// payloads record their true length (and are rejected at post time with
/// [`crate::RdmaError::InlineTooLarge`]) but only retain the first
/// [`INLINE_CAP`] bytes.
#[derive(Clone, Copy)]
pub struct InlineData {
    len: u32,
    bytes: [u8; INLINE_CAP],
}

impl InlineData {
    /// Capture `data` into an inline segment.
    pub fn new(data: &[u8]) -> InlineData {
        let mut bytes = [0u8; INLINE_CAP];
        let kept = data.len().min(INLINE_CAP);
        bytes[..kept].copy_from_slice(&data[..kept]);
        InlineData { len: data.len() as u32, bytes }
    }

    /// The payload length the caller asked for (may exceed [`INLINE_CAP`],
    /// in which case posting fails).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The retained bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..(self.len as usize).min(INLINE_CAP)]
    }
}

impl std::fmt::Debug for InlineData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InlineData").field("len", &self.len).finish()
    }
}

/// A payload the caller already staged in a pooled buffer. Posting *moves*
/// the buffer into the wire effect — the simulator's post-time snapshot
/// without the copy — so a staged work request can be posted once; a
/// second post fails with [`crate::RdmaError::InvalidWorkRequest`]. A
/// request that is dropped unposted, or whose chain failed validation,
/// still owns its buffer and returns it to the pool.
pub struct StagedBuf(Mutex<Option<PoolBuf>>);

impl StagedBuf {
    fn consumed() -> RdmaError {
        RdmaError::InvalidWorkRequest("staged payload was consumed by an earlier post".into())
    }

    /// Length of the staged bytes (validation time).
    pub(crate) fn len(&self) -> Result<usize> {
        self.0.lock().as_ref().map(PoolBuf::len).ok_or_else(Self::consumed)
    }

    /// Hand the buffer to the wire (launch time).
    pub(crate) fn take(&self) -> Result<PoolBuf> {
        self.0.lock().take().ok_or_else(Self::consumed)
    }
}

impl Clone for StagedBuf {
    /// Copies the staged bytes (or the consumed state).
    fn clone(&self) -> StagedBuf {
        StagedBuf(Mutex::new(self.0.lock().clone()))
    }
}

impl std::fmt::Debug for StagedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("StagedBuf").field(&self.len().ok()).finish()
    }
}

/// Payload source for a send-side work request.
///
/// The variants differ in size by design: inline data is embedded in the
/// work request by value, exactly as a WQE embeds it, so posting an
/// inline send performs no heap allocation (boxing the array would put
/// the allocation back — the very cost inline sends exist to avoid).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum SendPayload {
    /// Zero-copy from a registered region.
    Mr(MrSlice),
    /// Inline data copied into the WQE at post time (small payloads only;
    /// bounded by [`crate::qp::QpConfig::max_inline`]). Saves the lkey
    /// lookup/DMA at the cost of a host memcpy.
    Inline(InlineData),
    /// Bytes staged once by the caller in a pooled buffer that the post
    /// moves onto the wire (large messages: no registered staging region,
    /// no post-time snapshot copy).
    Staged(StagedBuf),
}

impl SendPayload {
    /// Payload length in bytes (0 for a staged payload already posted).
    pub fn len(&self) -> usize {
        match self {
            SendPayload::Mr(s) => s.len,
            SendPayload::Inline(d) => d.len(),
            SendPayload::Staged(b) => b.len().unwrap_or(0),
        }
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this payload is inline.
    pub fn is_inline(&self) -> bool {
        matches!(self, SendPayload::Inline(_))
    }
}

/// The operation of a send-side work request.
#[derive(Debug, Clone)]
pub enum SendOp {
    /// Two-sided SEND.
    Send { payload: SendPayload },
    /// One-sided WRITE into `remote`.
    Write { payload: SendPayload, remote: RemoteBuf },
    /// WRITE_WITH_IMM into `remote` carrying `imm`.
    WriteImm { payload: SendPayload, remote: RemoteBuf, imm: u32 },
    /// One-sided READ of `remote` into `local`.
    Read { local: MrSlice, remote: RemoteBuf },
    /// Atomic compare-and-swap: if the remote 8-byte word equals
    /// `compare`, store `swap`; the old value lands in `local`.
    CompSwap { local: MrSlice, remote: RemoteBuf, compare: u64, swap: u64 },
    /// Atomic fetch-and-add: add `add` to the remote 8-byte word; the old
    /// value lands in `local`.
    FetchAdd { local: MrSlice, remote: RemoteBuf, add: u64 },
}

impl SendOp {
    /// Bytes this operation moves across the wire.
    pub fn wire_bytes(&self) -> usize {
        match self {
            SendOp::Send { payload } | SendOp::Write { payload, .. } => payload.len(),
            SendOp::WriteImm { payload, .. } => payload.len(),
            SendOp::Read { local, .. } => local.len,
            SendOp::CompSwap { .. } | SendOp::FetchAdd { .. } => 8,
        }
    }

    /// The completion opcode this operation produces.
    pub fn opcode(&self) -> Opcode {
        match self {
            SendOp::Send { .. } => Opcode::Send,
            SendOp::Write { .. } => Opcode::Write,
            SendOp::WriteImm { .. } => Opcode::WriteImm,
            SendOp::Read { .. } => Opcode::Read,
            SendOp::CompSwap { .. } => Opcode::CompSwap,
            SendOp::FetchAdd { .. } => Opcode::FetchAdd,
        }
    }
}

/// A send-side work request. Post one or more as a *chain* with a single
/// doorbell via [`crate::Endpoint::post_send`] — chaining is the
/// Chained-Write-Send optimization from the paper's Figure 3c.
#[derive(Debug, Clone)]
pub struct SendWr {
    /// Caller-chosen id, surfaced in the matching [`crate::Completion`].
    pub wr_id: u64,
    /// The operation.
    pub op: SendOp,
    /// Whether to generate a completion on the send CQ.
    pub signaled: bool,
}

impl SendWr {
    /// Two-sided SEND from a registered slice.
    pub fn send(wr_id: u64, slice: MrSlice) -> SendWr {
        SendWr { wr_id, op: SendOp::Send { payload: SendPayload::Mr(slice) }, signaled: false }
    }

    /// Two-sided SEND of inline data (copied into the WQE; no allocation).
    pub fn send_inline(wr_id: u64, data: &[u8]) -> SendWr {
        SendWr {
            wr_id,
            op: SendOp::Send { payload: SendPayload::Inline(InlineData::new(data)) },
            signaled: false,
        }
    }

    /// One-sided WRITE from a registered slice.
    pub fn write(wr_id: u64, slice: MrSlice, remote: RemoteBuf) -> SendWr {
        SendWr {
            wr_id,
            op: SendOp::Write { payload: SendPayload::Mr(slice), remote },
            signaled: false,
        }
    }

    /// One-sided WRITE of a payload staged in a pooled buffer; the post
    /// consumes the buffer (see [`StagedBuf`]).
    pub fn write_staged(wr_id: u64, staged: PoolBuf, remote: RemoteBuf) -> SendWr {
        let payload = SendPayload::Staged(StagedBuf(Mutex::new(Some(staged))));
        SendWr { wr_id, op: SendOp::Write { payload, remote }, signaled: false }
    }

    /// One-sided WRITE of inline data (copied into the WQE; no allocation).
    pub fn write_inline(wr_id: u64, data: &[u8], remote: RemoteBuf) -> SendWr {
        SendWr {
            wr_id,
            op: SendOp::Write { payload: SendPayload::Inline(InlineData::new(data)), remote },
            signaled: false,
        }
    }

    /// WRITE_WITH_IMM from a registered slice.
    pub fn write_imm(wr_id: u64, slice: MrSlice, remote: RemoteBuf, imm: u32) -> SendWr {
        SendWr {
            wr_id,
            op: SendOp::WriteImm { payload: SendPayload::Mr(slice), remote, imm },
            signaled: false,
        }
    }

    /// WRITE_WITH_IMM of inline data (copied into the WQE; no allocation).
    pub fn write_imm_inline(wr_id: u64, data: &[u8], remote: RemoteBuf, imm: u32) -> SendWr {
        SendWr {
            wr_id,
            op: SendOp::WriteImm {
                payload: SendPayload::Inline(InlineData::new(data)),
                remote,
                imm,
            },
            signaled: false,
        }
    }

    /// One-sided READ of `remote` into `local`.
    pub fn read(wr_id: u64, local: MrSlice, remote: RemoteBuf) -> SendWr {
        SendWr { wr_id, op: SendOp::Read { local, remote }, signaled: false }
    }

    /// Atomic compare-and-swap on an 8-byte remote word; the old value is
    /// written to `local` (little endian).
    pub fn comp_swap(
        wr_id: u64,
        local: MrSlice,
        remote: RemoteBuf,
        compare: u64,
        swap: u64,
    ) -> SendWr {
        SendWr { wr_id, op: SendOp::CompSwap { local, remote, compare, swap }, signaled: false }
    }

    /// Atomic fetch-and-add on an 8-byte remote word; the old value is
    /// written to `local` (little endian).
    pub fn fetch_add(wr_id: u64, local: MrSlice, remote: RemoteBuf, add: u64) -> SendWr {
        SendWr { wr_id, op: SendOp::FetchAdd { local, remote, add }, signaled: false }
    }

    /// Request a send-CQ completion for this work request.
    pub fn signaled(mut self) -> SendWr {
        self.signaled = true;
        self
    }
}

/// A receive-side work request: a buffer slot awaiting an incoming SEND or
/// WRITE_WITH_IMM completion.
#[derive(Debug, Clone)]
pub struct RecvWr {
    /// Caller-chosen id, surfaced in the matching completion.
    pub wr_id: u64,
    /// Region the payload lands in.
    pub mr: MemoryRegion,
    /// Offset within the region.
    pub offset: usize,
    /// Capacity of this receive slot.
    pub len: usize,
}

impl RecvWr {
    /// Build a receive work request for `len` bytes at `offset` in `mr`.
    pub fn new(wr_id: u64, mr: MemoryRegion, offset: usize, len: usize) -> RecvWr {
        RecvWr { wr_id, mr, offset, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SimConfig;
    use crate::fabric::Fabric;

    #[test]
    fn constructors_set_expected_ops() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let n = fabric.add_node("n");
        let pd = crate::memory::ProtectionDomain::new(n);
        let mr = pd.register(64).unwrap();
        let rb = mr.remote_buf(0, 64);

        let s = SendWr::send(1, mr.slice(0, 8));
        assert_eq!(s.op.opcode(), Opcode::Send);
        assert_eq!(s.op.wire_bytes(), 8);
        assert!(!s.signaled);
        assert!(s.signaled().signaled);

        let w = SendWr::write_inline(2, &[0u8; 16], rb);
        assert_eq!(w.op.opcode(), Opcode::Write);
        assert_eq!(w.op.wire_bytes(), 16);

        let wi = SendWr::write_imm(3, mr.slice(0, 4), rb, 0xbeef);
        assert_eq!(wi.op.opcode(), Opcode::WriteImm);

        let r = SendWr::read(4, mr.slice(0, 32), rb);
        assert_eq!(r.op.opcode(), Opcode::Read);
        assert_eq!(r.op.wire_bytes(), 32);
    }

    #[test]
    fn payload_len_and_inline_flag() {
        let p = SendPayload::Inline(InlineData::new(&[1, 2, 3]));
        assert_eq!(p.len(), 3);
        assert!(p.is_inline());
        assert!(!p.is_empty());
        assert!(SendPayload::Inline(InlineData::new(&[])).is_empty());
    }

    #[test]
    fn oversized_inline_keeps_true_length() {
        let big = vec![7u8; INLINE_CAP + 100];
        let d = InlineData::new(&big);
        assert_eq!(d.len(), INLINE_CAP + 100);
        assert_eq!(d.as_slice().len(), INLINE_CAP);
        assert!(d.as_slice().iter().all(|&b| b == 7));
    }
}
