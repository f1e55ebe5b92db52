//! Direct-Write-Send (paper Figure 3b).
//!
//! The sender writes a payload straight into a *pre-known,
//! pre-registered* buffer on the remote side, established during the
//! connection handshake, then tells the receiver with a separate SEND
//! notify: two work requests, **two MMIO doorbells** per message. Its
//! siblings that save the second doorbell — the WRITE and SEND chained
//! under one post (3c) and a single WRITE_WITH_IMM (3f) — are wires of
//! [`crate::pipeline`]; a wire stages one chain per message, so the one
//! kind whose cost *is* two posts per message lives here.
//!
//! The drawback the direct-write family shares (paper §4.3): the
//! pre-known buffer is pinned per connection and sized for the largest
//! message, trading memory footprint for speed — exactly what the
//! `res_util` hint steers away from.

use hat_rdma_sim::{Endpoint, MemoryRegion, RdmaError, RemoteBuf, Result, SendWr};

use crate::common::{
    exchange_blobs, msg_channel_endpoints, CtrlRing, MsgChannel, ProtocolConfig, ProtocolKind,
};

/// Direct-Write-Send (Figure 3b): RDMA WRITE into the peer's pre-known
/// buffer followed by a separate SEND notify — two doorbells per message.
/// Both sides are built alike.
pub struct DirectWriteSend {
    ep: Endpoint,
    cfg: ProtocolConfig,
    /// Region the peer writes inbound messages into (advertised at
    /// handshake).
    in_region: MemoryRegion,
    /// Registered staging area outbound WRITEs are issued from.
    out_stage: MemoryRegion,
    /// The peer's advertised in-region.
    peer_region: RemoteBuf,
    /// Control ring the SEND notifies land in.
    ctrl: CtrlRing,
}

impl DirectWriteSend {
    /// Build one side of a connection, handshaking with the concurrently
    /// constructed other side.
    pub fn new(ep: Endpoint, cfg: ProtocolConfig) -> Result<DirectWriteSend> {
        let in_region = ep.pd().register(cfg.max_msg)?;
        let out_stage = ep.pd().register(cfg.max_msg)?;
        // Handshake FIRST: receive queues are FIFO, so the handshake blob
        // must not race with ring receives posted below.
        let blob = in_region.remote_buf(0, cfg.max_msg).encode();
        let peer_region = RemoteBuf::decode(&exchange_blobs(&ep, &blob)?)?;
        let ctrl = CtrlRing::new(&ep, cfg.ring_slots, 16, cfg.op_timeout_ns)?;
        Ok(DirectWriteSend { ep, cfg, in_region, out_stage, peer_region, ctrl })
    }
}

impl MsgChannel for DirectWriteSend {
    /// Ship one message into the peer's pre-known buffer, then notify it.
    fn send_msg(&self, data: &[u8]) -> Result<()> {
        if data.len() > self.cfg.max_msg {
            return Err(RdmaError::InvalidWorkRequest(format!(
                "payload of {} bytes exceeds this connection's pre-known buffer ({} bytes)",
                data.len(),
                self.cfg.max_msg
            )));
        }
        // Serialize directly into the registered staging buffer (zero-copy
        // path: no user-to-staging memcpy is charged, unlike Eager).
        self.out_stage.write(0, data)?;
        let dst = self.peer_region.sub(0, data.len() as u64);
        // Two posts → two doorbells.
        self.ep.post_send(&[SendWr::write(1, self.out_stage.slice(0, data.len()), dst)])?;
        self.ep.post_send(&[SendWr::send_inline(2, &(data.len() as u32).to_le_bytes())])
    }

    /// Wait for a notify, then take the message it announces out of the
    /// in-region (whose bounds check the announced length).
    fn recv_msg<T>(&self, land: impl FnOnce(&[u8]) -> T) -> Result<Option<T>> {
        let Some(msg) = self.ctrl.recv(self.cfg.poll)? else { return Ok(None) };
        let len = msg
            .first_chunk::<4>()
            .ok_or_else(|| RdmaError::InvalidWorkRequest(format!("{}-byte notify", msg.len())))?;
        self.in_region.with_bytes(0, u32::from_le_bytes(*len) as usize, land).map(Some)
    }
}

msg_channel_endpoints!(DirectWriteSend, ProtocolKind::DirectWriteSend);
