//! Rendezvous protocols (paper Figures 3d, 3e).
//!
//! Rendezvous trades round trips for memory efficiency: instead of pinning
//! a max-sized buffer per connection, the two sides exchange payload
//! metadata first and move the data zero-copy afterwards. MPI stacks have
//! shipped both flavours for decades:
//!
//! * [`WriteRndv`] — the initiator announces (RTS), the target allocates
//!   and advertises a landing buffer (CTS), the initiator RDMA-WRITEs the
//!   payload and finishes with a FIN. Three control messages + one data
//!   transfer per direction.
//! * [`ReadRndv`] — the initiator's RTS *carries* the rkey of its staged
//!   payload; the target RDMA-READs it directly. One control message +
//!   one data transfer (the READ) per direction, plus a FIN so the
//!   initiator can reuse its staging buffer.
//!
//! Both keep server memory proportional to *active* transfers (a pooled
//! buffer) rather than to connection count — why Figure 6 maps the
//! `res_util` hint to RNDV for large messages.

use hat_rdma_sim::{Endpoint, MemoryRegion, PoolBuf, RdmaError, RemoteBuf, Result, SendWr};

use crate::common::{
    msg_channel_endpoints, wire_len, CtrlMsg, CtrlRing, MsgChannel, ProtocolConfig, ProtocolKind,
    CTRL_MAX,
};

/// Control-message tags shared by both rendezvous flavours.
mod tag {
    pub const RTS: u8 = 1;
    pub const CTS: u8 = 2;
    pub const FIN: u8 = 3;
}

/// Encode a control message: tag byte + u64 len + optional RemoteBuf.
fn ctrl_msg(tag: u8, len: usize, buf: Option<&RemoteBuf>) -> CtrlMsg {
    let buf = buf.map(RemoteBuf::encode);
    CtrlMsg::new(&[&[tag], &(len as u64).to_le_bytes(), buf.as_ref().map_or(&[], |b| &b[..])])
}

/// Decode a control message produced by [`ctrl_msg`].
fn parse_ctrl(msg: &[u8]) -> Result<(u8, usize, Option<RemoteBuf>)> {
    if msg.len() < 9 {
        return Err(RdmaError::InvalidWorkRequest(format!(
            "short rendezvous control message ({} bytes)",
            msg.len()
        )));
    }
    let (tag, len) = (msg[0], wire_len(&msg[1..9]));
    let buf = if msg.len() >= CTRL_MAX { Some(RemoteBuf::decode(&msg[9..])?) } else { None };
    Ok((tag, len, buf))
}

/// Shared state for both rendezvous flavours: a control ring plus one
/// registered data buffer per connection.
struct Rndv {
    ep: Endpoint,
    cfg: ProtocolConfig,
    ctrl: CtrlRing,
    /// The connection's pre-registered data buffer (the paper's buffer
    /// pool, reduced to one slot because calls are synchronous): where the
    /// peer's WRITE lands (Write-RNDV) or what the peer READs from
    /// (Read-RNDV).
    pool: MemoryRegion,
}

impl Rndv {
    fn new(ep: Endpoint, cfg: ProtocolConfig) -> Result<Rndv> {
        let ctrl = CtrlRing::new(&ep, cfg.ring_slots, CTRL_MAX, cfg.op_timeout_ns)?;
        let pool = ep.pd().register(cfg.max_msg)?;
        Ok(Rndv { ep, cfg, ctrl, pool })
    }

    /// A payload we are about to send, or one the peer's RTS announces,
    /// must fit the registered buffers — checked before anything is
    /// staged, advertised or fetched on its behalf.
    fn check_len(&self, len: usize) -> Result<()> {
        if len > self.cfg.max_msg {
            return Err(RdmaError::InvalidWorkRequest(format!(
                "payload of {len} bytes exceeds the rendezvous pool ({} bytes)",
                self.cfg.max_msg
            )));
        }
        Ok(())
    }

    /// Receive a control message of the expected tag (or disconnect).
    fn expect_ctrl(&self, want: u8) -> Result<Option<(usize, Option<RemoteBuf>)>> {
        let Some(msg) = self.ctrl.recv(self.cfg.poll)? else { return Ok(None) };
        let (tag, len, buf) = parse_ctrl(&msg)?;
        if tag != want {
            return Err(RdmaError::InvalidWorkRequest(format!(
                "rendezvous expected tag {want}, got {tag}"
            )));
        }
        Ok(Some((len, buf)))
    }

    /// Receive the RTS that opens a transfer, refusing an oversized one.
    fn expect_rts(&self) -> Result<Option<(usize, Option<RemoteBuf>)>> {
        let Some((len, src)) = self.expect_ctrl(tag::RTS)? else { return Ok(None) };
        self.check_len(len)?;
        Ok(Some((len, src)))
    }
}

/// WRITE-based rendezvous (Figure 3d). See module docs.
pub struct WriteRndv {
    inner: Rndv,
}

impl WriteRndv {
    /// Build the client side.
    pub fn client(ep: Endpoint, cfg: ProtocolConfig) -> Result<WriteRndv> {
        Ok(WriteRndv { inner: Rndv::new(ep, cfg)? })
    }

    /// Build the server side.
    pub fn server(ep: Endpoint, cfg: ProtocolConfig) -> Result<WriteRndv> {
        Ok(WriteRndv { inner: Rndv::new(ep, cfg)? })
    }
}

impl MsgChannel for WriteRndv {
    /// Initiator side of one WRITE-rendezvous transfer.
    fn send_msg(&self, data: &[u8]) -> Result<()> {
        let r = &self.inner;
        r.check_len(data.len())?;
        // RTS: announce length.
        r.ctrl.send(0, &ctrl_msg(tag::RTS, data.len(), None))?;
        // Stage the payload while the RTS/CTS exchange is in flight: the
        // one send-side copy. The WRITE below moves this buffer onto the
        // wire, so no registered staging region and no post-time snapshot.
        let staged = PoolBuf::copy_from(data);
        // CTS: the target's landing buffer.
        let Some((_, Some(dst))) = r.expect_ctrl(tag::CTS)? else {
            return Err(RdmaError::Disconnected);
        };
        r.ep.post_send(&[
            SendWr::write_staged(1, staged, dst.sub(0, data.len() as u64)),
            SendWr::send_inline(2, &ctrl_msg(tag::FIN, data.len(), None)),
        ])
    }

    /// Target side of one WRITE-rendezvous transfer.
    fn recv_msg<T>(&self, land: impl FnOnce(&[u8]) -> T) -> Result<Option<T>> {
        let r = &self.inner;
        let Some((len, _)) = r.expect_rts()? else { return Ok(None) };
        // Advertise the registered landing buffer.
        let rb = r.pool.remote_buf(0, len);
        r.ctrl.send(0, &ctrl_msg(tag::CTS, len, Some(&rb)))?;
        // FIN means the WRITE has fully landed (RC ordering).
        let Some(_) = r.expect_ctrl(tag::FIN)? else { return Ok(None) };
        r.pool.with_bytes(0, len, land).map(Some)
    }
}

/// READ-based rendezvous (Figure 3e). See module docs.
pub struct ReadRndv {
    inner: Rndv,
    /// Landing buffer for inbound READs we issue.
    landing: MemoryRegion,
}

impl ReadRndv {
    /// Build the client side.
    pub fn client(ep: Endpoint, cfg: ProtocolConfig) -> Result<ReadRndv> {
        let landing = ep.pd().register(cfg.max_msg)?;
        Ok(ReadRndv { inner: Rndv::new(ep, cfg)?, landing })
    }

    /// Build the server side.
    pub fn server(ep: Endpoint, cfg: ProtocolConfig) -> Result<ReadRndv> {
        let landing = ep.pd().register(cfg.max_msg)?;
        Ok(ReadRndv { inner: Rndv::new(ep, cfg)?, landing })
    }
}

impl MsgChannel for ReadRndv {
    /// Initiator: stage the payload where the peer can READ it (so, unlike
    /// Write-RNDV, in the registered region), advertise it, wait for FIN.
    fn send_msg(&self, data: &[u8]) -> Result<()> {
        let r = &self.inner;
        r.check_len(data.len())?;
        r.pool.write(0, data)?;
        let rb = r.pool.remote_buf(0, data.len());
        r.ctrl.send(0, &ctrl_msg(tag::RTS, data.len(), Some(&rb)))?;
        // FIN: peer finished its READ; the pool slot is reusable.
        let Some(_) = r.expect_ctrl(tag::FIN)? else {
            return Err(RdmaError::Disconnected);
        };
        Ok(())
    }

    /// Target: READ the advertised payload, then release it with FIN.
    fn recv_msg<T>(&self, land: impl FnOnce(&[u8]) -> T) -> Result<Option<T>> {
        let r = &self.inner;
        let Some((len, Some(src))) = r.expect_rts()? else { return Ok(None) };
        r.ep.post_send(&[SendWr::read(1, self.landing.slice(0, len), src).signaled()])?;
        r.ep.send_cq().poll_timeout(r.cfg.poll, r.cfg.op_timeout_ns)?.ok()?;
        r.ctrl.send(0, &ctrl_msg(tag::FIN, len, None))?;
        self.landing.with_bytes(0, len, land).map(Some)
    }
}

msg_channel_endpoints!(WriteRndv, ProtocolKind::WriteRndv);
msg_channel_endpoints!(ReadRndv, ProtocolKind::ReadRndv);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests_support::echo_pair;

    #[test]
    fn ctrl_msg_roundtrip() {
        let rb = RemoteBuf { node_id: 1, rkey: 2, offset: 3, len: 4 };
        let m = ctrl_msg(tag::CTS, 77, Some(&rb));
        let (t, l, b) = parse_ctrl(&m).unwrap();
        assert_eq!((t, l, b), (tag::CTS, 77, Some(rb)));
        let (t2, l2, b2) = parse_ctrl(&ctrl_msg(tag::FIN, 0, None)).unwrap();
        assert_eq!((t2, l2, b2), (tag::FIN, 0, None));
        assert!(parse_ctrl(&[1, 2]).is_err());
    }

    /// Rendezvous pins less memory than direct-write for the same max_msg:
    /// the paper's reason to map `res_util` → RNDV for large payloads.
    #[test]
    fn rndv_server_footprint_below_direct_write() {
        let cfg = ProtocolConfig { max_msg: 256 * 1024, ..Default::default() };
        let (_c1, s1) = echo_pair(ProtocolKind::WriteRndv, cfg.clone());
        let rndv_bytes = s1.node().stats_snapshot().registered_bytes;
        let (_c2, s2) = echo_pair(ProtocolKind::DirectWriteSend, cfg);
        let dw_bytes = s2.node().stats_snapshot().registered_bytes;
        // Direct-write pins in_region + out_stage (2 x max_msg); rendezvous
        // pins one pooled slot (+ small ring).
        assert!(
            rndv_bytes < dw_bytes,
            "rendezvous ({rndv_bytes}B) should pin less than direct-write ({dw_bytes}B)"
        );
    }
}
