//! Eager-SendRecv (paper Figure 3a).
//!
//! Each side pre-posts a circular ring of receive buffers; a payload is
//! *copied* into a registered send slot and shipped with a single SEND, so
//! it arrives together with its control information in one trip. The copy
//! is the cost: cheap for small messages, prohibitive for large ones —
//! which is why the engine only picks Eager for small payloads and why the
//! paper's `res_util` hint likes it (the ring is small and shared across
//! message sizes).

use hat_rdma_sim::{Endpoint, MemoryRegion, PollMode, RecvWr, Result, SendWr};

use crate::common::{charge_memcpy, poll_recv, ProtocolConfig, ProtocolKind, RpcClient, RpcServer};

/// Message framing: 4-byte little-endian length prefix inside each slot.
const HDR: usize = 4;

/// One side of an Eager-SendRecv connection (construction differs for
/// client and server only in role bookkeeping; the wire behaviour is
/// symmetric).
pub struct EagerSendRecv {
    ep: Endpoint,
    cfg: ProtocolConfig,
    /// Pre-posted receive ring.
    recv_ring: MemoryRegion,
    /// Registered staging buffer sends are copied into.
    send_buf: MemoryRegion,
    slot_size: usize,
}

impl EagerSendRecv {
    /// Build the client side and pre-post its receive ring.
    pub fn client(ep: Endpoint, cfg: ProtocolConfig) -> Result<EagerSendRecv> {
        Self::new(ep, cfg)
    }

    /// Build the server side and pre-post its receive ring.
    pub fn server(ep: Endpoint, cfg: ProtocolConfig) -> Result<EagerSendRecv> {
        Self::new(ep, cfg)
    }

    fn new(ep: Endpoint, cfg: ProtocolConfig) -> Result<EagerSendRecv> {
        let slot_size = cfg.max_msg + HDR;
        let recv_ring = ep.pd().register(cfg.ring_slots * slot_size)?;
        for i in 0..cfg.ring_slots {
            ep.post_recv(RecvWr::new(i as u64, recv_ring.clone(), i * slot_size, slot_size))?;
        }
        let send_buf = ep.pd().register(slot_size)?;
        Ok(EagerSendRecv { ep, cfg, recv_ring, send_buf, slot_size })
    }

    /// Copy a payload into the send slot (the eager copy) and SEND it.
    fn send_msg(&self, data: &[u8]) -> Result<()> {
        if data.len() > self.cfg.max_msg {
            return Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
                "payload of {} bytes exceeds the eager slot ({} bytes)",
                data.len(),
                self.cfg.max_msg
            )));
        }
        let copy = charge_memcpy(&self.ep, data.len());
        self.send_buf.write(0, &(data.len() as u32).to_le_bytes())?;
        self.send_buf.write(HDR, data)?;
        drop(copy);
        self.ep.post_send(&[SendWr::send(0, self.send_buf.slice(0, HDR + data.len()))])?;
        Ok(())
    }

    /// Receive one message from the ring; `None` on disconnect.
    fn recv_msg(&self) -> Result<Option<Vec<u8>>> {
        let Some(comp) = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)? else {
            return Ok(None);
        };
        comp.ok()?;
        let slot = comp.wr_id as usize % self.cfg.ring_slots;
        let base = slot * self.slot_size;
        let mut hdr = [0u8; HDR];
        self.recv_ring.read(base, &mut hdr)?;
        let len = u32::from_le_bytes(hdr) as usize;
        // The receiver copies the payload out of the ring slot before
        // recycling it — the second half of Eager's copy cost.
        let copy = charge_memcpy(&self.ep, len);
        let data = self.recv_ring.read_vec(base + HDR, len)?;
        drop(copy);
        self.ep.post_recv(RecvWr::new(comp.wr_id, self.recv_ring.clone(), base, self.slot_size))?;
        Ok(Some(data))
    }
}

impl RpcClient for EagerSendRecv {
    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        self.send_msg(request)?;
        self.recv_msg()?.ok_or(hat_rdma_sim::RdmaError::Disconnected)
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::EagerSendRecv
    }
}

impl RpcServer for EagerSendRecv {
    fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
        let Some(request) = self.recv_msg()? else { return Ok(false) };
        let response = handler(&request);
        self.send_msg(&response)?;
        Ok(true)
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::EagerSendRecv
    }
}

/// Expose the polling mode in use (for engine introspection/tests).
impl EagerSendRecv {
    /// The configured poll mode.
    pub fn poll_mode(&self) -> PollMode {
        self.cfg.poll
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests_support::{echo_pair, run_echo_calls};

    #[test]
    fn roundtrips_small_and_medium_messages() {
        run_echo_calls(ProtocolKind::EagerSendRecv, &[4, 512, 4096]);
    }

    #[test]
    fn server_sees_disconnect() {
        let (client, mut server) = echo_pair(ProtocolKind::EagerSendRecv, ProtocolConfig::small());
        drop(client);
        let served = server.serve_one(&mut |req| req.to_vec()).unwrap();
        assert!(!served);
    }

    #[test]
    fn eager_charges_copies_on_both_sides() {
        let (mut client, mut server) =
            echo_pair(ProtocolKind::EagerSendRecv, ProtocolConfig::small());
        let h = std::thread::spawn(move || {
            server.serve_one(&mut |req| req.to_vec()).unwrap();
            server
        });
        let before = client.node_memcpys();
        client.call(&[7u8; 1024]).unwrap();
        let server = h.join().unwrap();
        assert!(client.node_memcpys() > before, "client must pay the eager copy");
        assert!(server.node_memcpys() > 0, "server must pay the eager copy");
    }
}
