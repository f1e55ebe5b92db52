//! Hybrid-EagerRNDV: eager below a threshold, READ-rendezvous above.
//!
//! This is the adaptive design AR-gRPC ships (and the baseline the paper's
//! Figures 11–14 compare HatRPC against): payloads at or below the
//! threshold (4 KB in the paper, [`crate::ProtocolConfig::eager_threshold`]
//! here) ride the eager ring in one trip; larger payloads send an RTS
//! carrying the staged payload's rkey and the peer fetches it with a
//! one-sided READ. The paper notes its weakness: payloads slightly above
//! the switch point pay extra control messages — visible in our Figure 11
//! reproduction right after 4 KB.

use hat_rdma_sim::{Endpoint, MemoryRegion, RdmaError, RecvWr, RemoteBuf, Result, SendWr};

use crate::common::{
    charge_memcpy, msg_channel_endpoints, poll_recv, wire_len, MsgChannel, ProtocolConfig,
    ProtocolKind,
};

/// Slot framing: 1-byte tag + 8-byte length.
const HDR: usize = 9;
const TAG_EAGER: u8 = 0;
const TAG_RTS: u8 = 1;
const TAG_FIN: u8 = 2;

/// Hybrid eager/rendezvous connection (symmetric; both directions switch
/// independently per message).
pub struct HybridEagerRndv {
    ep: Endpoint,
    cfg: ProtocolConfig,
    /// Eager receive ring, slots sized to the threshold.
    ring: MemoryRegion,
    /// Eager send staging.
    eager_stage: MemoryRegion,
    /// Rendezvous staging (source of peer READs).
    rndv_stage: MemoryRegion,
    /// Landing buffer for READs we issue.
    landing: MemoryRegion,
    slot_size: usize,
}

impl HybridEagerRndv {
    /// Build the client side.
    pub fn client(ep: Endpoint, cfg: ProtocolConfig) -> Result<HybridEagerRndv> {
        Self::new(ep, cfg)
    }

    /// Build the server side.
    pub fn server(ep: Endpoint, cfg: ProtocolConfig) -> Result<HybridEagerRndv> {
        Self::new(ep, cfg)
    }

    fn new(ep: Endpoint, cfg: ProtocolConfig) -> Result<HybridEagerRndv> {
        let slot_size = HDR + cfg.eager_threshold.max(RemoteBuf::WIRE_SIZE);
        let ring = ep.pd().register(cfg.ring_slots * slot_size)?;
        for i in 0..cfg.ring_slots {
            ep.post_recv(RecvWr::new(i as u64, ring.clone(), i * slot_size, slot_size))?;
        }
        let eager_stage = ep.pd().register(slot_size)?;
        let rndv_stage = ep.pd().register(cfg.max_msg)?;
        let landing = ep.pd().register(cfg.max_msg)?;
        Ok(HybridEagerRndv { ep, cfg, ring, eager_stage, rndv_stage, landing, slot_size })
    }

    /// The eager/rendezvous switch point for this connection.
    pub fn threshold(&self) -> usize {
        self.cfg.eager_threshold
    }

    /// Wait for one ring frame and read its header. The body stays in the
    /// slot until the caller has taken what it needs and [`recycle`]d it.
    ///
    /// [`recycle`]: HybridEagerRndv::recycle
    fn recv_frame(&self) -> Result<Option<Frame>> {
        let Some(comp) = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)? else {
            return Ok(None);
        };
        comp.ok()?;
        let base = (comp.wr_id as usize % self.cfg.ring_slots) * self.slot_size;
        let mut hdr = [0u8; HDR];
        self.ring.read(base, &mut hdr)?;
        Ok(Some(Frame {
            tag: hdr[0],
            len: wire_len(&hdr[1..]),
            body: base + HDR,
            body_len: comp.byte_len.saturating_sub(HDR),
            wr_id: comp.wr_id,
        }))
    }

    /// Re-post a consumed frame's slot.
    fn recycle(&self, frame: &Frame) -> Result<()> {
        let base = frame.body - HDR;
        self.ep.post_recv(RecvWr::new(frame.wr_id, self.ring.clone(), base, self.slot_size))
    }
}

/// A received ring frame whose body is still in its slot.
struct Frame {
    tag: u8,
    /// Message length the header claims — the peer's word, checked against
    /// `body_len` or `max_msg` before it sizes anything.
    len: usize,
    /// Ring offset of the body.
    body: usize,
    /// Bytes that actually arrived after the header.
    body_len: usize,
    wr_id: u64,
}

impl MsgChannel for HybridEagerRndv {
    fn send_msg(&self, data: &[u8]) -> Result<()> {
        if data.len() <= self.cfg.eager_threshold {
            // Eager path: copy + single SEND.
            let copy = charge_memcpy(&self.ep, data.len());
            self.eager_stage.write(0, &[TAG_EAGER])?;
            self.eager_stage.write(1, &(data.len() as u64).to_le_bytes())?;
            self.eager_stage.write(HDR, data)?;
            drop(copy);
            self.ep.post_send(&[SendWr::send(0, self.eager_stage.slice(0, HDR + data.len()))])?;
            Ok(())
        } else {
            // Rendezvous path: stage zero-copy, advertise, wait for FIN.
            if data.len() > self.cfg.max_msg {
                return Err(RdmaError::InvalidWorkRequest(format!(
                    "payload of {} bytes exceeds the rendezvous stage ({} bytes)",
                    data.len(),
                    self.cfg.max_msg
                )));
            }
            self.rndv_stage.write(0, data)?;
            let rb = self.rndv_stage.remote_buf(0, data.len());
            self.eager_stage.write(0, &[TAG_RTS])?;
            self.eager_stage.write(1, &(data.len() as u64).to_le_bytes())?;
            self.eager_stage.write(HDR, &rb.encode())?;
            self.ep.post_send(&[SendWr::send(
                0,
                self.eager_stage.slice(0, HDR + RemoteBuf::WIRE_SIZE),
            )])?;
            // The peer READs the staged payload and FINs.
            match self.recv_frame()? {
                Some(fin) if fin.tag == TAG_FIN => self.recycle(&fin),
                Some(other) => Err(RdmaError::InvalidWorkRequest(format!(
                    "expected FIN, got tag {}",
                    other.tag
                ))),
                None => Err(RdmaError::Disconnected),
            }
        }
    }

    fn recv_msg<T>(&self, land: impl FnOnce(&[u8]) -> T) -> Result<Option<T>> {
        let Some(frame) = self.recv_frame()? else { return Ok(None) };
        let len = frame.len;
        match frame.tag {
            TAG_EAGER if len <= frame.body_len => {
                let copy = charge_memcpy(&self.ep, len);
                let msg = self.ring.with_bytes(frame.body, len, land)?;
                drop(copy);
                self.recycle(&frame)?;
                Ok(Some(msg))
            }
            TAG_RTS if len <= self.cfg.max_msg && frame.body_len >= RemoteBuf::WIRE_SIZE => {
                let mut src = [0u8; RemoteBuf::WIRE_SIZE];
                self.ring.read(frame.body, &mut src)?;
                self.recycle(&frame)?;
                let src = RemoteBuf::decode(&src)?.sub(0, len as u64);
                self.ep
                    .post_send(&[SendWr::read(1, self.landing.slice(0, len), src).signaled()])?;
                self.ep.send_cq().poll_timeout(self.cfg.poll, self.cfg.op_timeout_ns)?.ok()?;
                // Release the peer's staging buffer.
                let mut fin = [0u8; 9];
                fin[0] = TAG_FIN;
                fin[1..9].copy_from_slice(&(len as u64).to_le_bytes());
                self.ep.post_send(&[SendWr::send_inline(2, &fin)])?;
                self.landing.with_bytes(0, len, land).map(Some)
            }
            TAG_EAGER | TAG_RTS => Err(RdmaError::InvalidWorkRequest(format!(
                "hybrid frame (tag {}) of {} body bytes announces a {len}-byte message",
                frame.tag, frame.body_len
            ))),
            other => Err(RdmaError::InvalidWorkRequest(format!("unexpected hybrid tag {other}"))),
        }
    }
}

msg_channel_endpoints!(HybridEagerRndv, ProtocolKind::HybridEagerRndv);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests_support::{echo_pair, run_echo_calls};

    #[test]
    fn roundtrips_across_the_threshold() {
        // 4096 rides eager; 4097 and up take the rendezvous path.
        run_echo_calls(ProtocolKind::HybridEagerRndv, &[16, 4096, 4097, 131072]);
    }

    #[test]
    fn small_messages_use_eager_copies_large_do_not() {
        let (mut client, mut server) =
            echo_pair(ProtocolKind::HybridEagerRndv, ProtocolConfig::default());
        let h = std::thread::spawn(move || {
            for _ in 0..2 {
                server.serve_one(&mut |r| r.to_vec()).unwrap();
            }
        });
        let m0 = client.node_memcpys();
        client.call(&[1u8; 128]).unwrap();
        let m1 = client.node_memcpys();
        assert!(m1 > m0, "small payload pays the eager copy");
        client.call(&[2u8; 64 * 1024]).unwrap();
        let m2 = client.node_memcpys();
        // The 64 KB payload moves zero-copy in both directions; the only
        // copy the client pays is the tiny inline FIN control message.
        assert!(m2 - m1 <= 1, "rendezvous path must not copy payloads (saw {} copies)", m2 - m1);
        h.join().unwrap();
    }

    #[test]
    fn server_sees_disconnect() {
        let (client, mut server) =
            echo_pair(ProtocolKind::HybridEagerRndv, ProtocolConfig::default());
        drop(client);
        assert!(!server.serve_one(&mut |r| r.to_vec()).unwrap());
    }
}
