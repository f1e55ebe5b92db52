//! HERD emulation (comparator for the paper's §5.4 YCSB evaluation).
//!
//! HERD's request path is the fast one: clients WRITE requests directly
//! into a server-polled, pre-known region (chained under one doorbell in
//! later variants). Its response path is its weakness for GET-heavy
//! workloads — the paper: "HERD uses RDMA SEND for sending server's
//! response, thereby it can not deliver good performance for GET or
//! MultiGET operations" — because responses are *copied* into send
//! buffers and delivered two-sided. We emulate exactly that asymmetry:
//!
//! * request: chained WRITE+SEND into the server's pre-known buffer
//!   (zero-copy, one doorbell),
//! * response: eager copy + SEND into the client's pre-posted ring.

use hat_rdma_sim::{Endpoint, MemoryRegion, RecvWr, RemoteBuf, Result, SendWr};

use crate::common::{charge_memcpy, poll_recv, ProtocolConfig, ProtocolKind, RpcClient, RpcServer};

/// Eager response framing: 4-byte length prefix.
const HDR: usize = 4;

/// One side of a HERD-emulation connection.
pub struct Herd {
    ep: Endpoint,
    cfg: ProtocolConfig,
    /// Client: staging for outbound request WRITEs. Server: unused.
    out_stage: MemoryRegion,
    /// Server: the pre-known region clients WRITE requests into.
    req_region: MemoryRegion,
    /// The peer's request region (client side).
    peer_req: Option<RemoteBuf>,
    /// Eager ring for responses (posted by the client) / response staging
    /// (held by the server).
    resp_ring: MemoryRegion,
    resp_stage: MemoryRegion,
    slot_size: usize,
    is_client: bool,
}

impl Herd {
    /// Build the client side.
    pub fn client(ep: Endpoint, cfg: ProtocolConfig) -> Result<Herd> {
        Self::new(ep, cfg, true)
    }

    /// Build the server side.
    pub fn server(ep: Endpoint, cfg: ProtocolConfig) -> Result<Herd> {
        Self::new(ep, cfg, false)
    }

    fn new(ep: Endpoint, cfg: ProtocolConfig, is_client: bool) -> Result<Herd> {
        let slot_size = cfg.max_msg + HDR;
        let req_region = ep.pd().register(HDR + cfg.max_msg)?;
        // Handshake first (FIFO receive queues must not mix handshake and
        // ring receives): server advertises its request region.
        let blob = req_region.remote_buf(0, HDR + cfg.max_msg).encode();
        let peer_blob = crate::common::exchange_blobs(&ep, &blob)?;
        let peer_req = if is_client { Some(RemoteBuf::decode(&peer_blob)?) } else { None };

        let resp_ring = ep.pd().register(cfg.ring_slots * slot_size)?;
        if is_client {
            // Client pre-posts the response ring.
            for i in 0..cfg.ring_slots {
                ep.post_recv(RecvWr::new(i as u64, resp_ring.clone(), i * slot_size, slot_size))?;
            }
        } else {
            // Server pre-posts zero-length receives for the request
            // notification SENDs.
            let dummy = ep.pd().register(1)?;
            for i in 0..cfg.ring_slots {
                ep.post_recv(RecvWr::new(i as u64, dummy.clone(), 0, 0))?;
            }
        }
        let out_stage = ep.pd().register(HDR + cfg.max_msg)?;
        let resp_stage = ep.pd().register(slot_size)?;
        Ok(Herd {
            ep,
            cfg,
            out_stage,
            req_region,
            peer_req,
            resp_ring,
            resp_stage,
            slot_size,
            is_client,
        })
    }
}

impl RpcClient for Herd {
    fn call(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        assert!(self.is_client, "call() is client-side");
        if request.len() > self.cfg.max_msg {
            return Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
                "payload of {} bytes exceeds the HERD region ({} bytes)",
                request.len(),
                self.cfg.max_msg
            )));
        }
        // Zero-copy: serialize [len, payload] into the staging region and
        // chain WRITE + notify SEND under one doorbell (HERD's trick).
        self.out_stage.write(0, &(request.len() as u32).to_le_bytes())?;
        self.out_stage.write(HDR, request)?;
        let dst = self
            .peer_req
            .expect("client knows the request region")
            .sub(0, (HDR + request.len()) as u64);
        self.ep.post_send(&[
            SendWr::write(1, self.out_stage.slice(0, HDR + request.len()), dst),
            SendWr::send_inline(2, &[]),
        ])?;
        // Response arrives on the eager ring.
        let Some(comp) = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)? else {
            return Err(hat_rdma_sim::RdmaError::Disconnected);
        };
        comp.ok()?;
        let slot = comp.wr_id as usize % self.cfg.ring_slots;
        let base = slot * self.slot_size;
        let mut hdr = [0u8; HDR];
        self.resp_ring.read(base, &mut hdr)?;
        let len = u32::from_le_bytes(hdr) as usize;
        let copy = charge_memcpy(&self.ep, len);
        let data = self.resp_ring.read_vec(base + HDR, len)?;
        drop(copy);
        self.ep.post_recv(RecvWr::new(comp.wr_id, self.resp_ring.clone(), base, self.slot_size))?;
        Ok(data)
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Herd
    }
}

impl RpcServer for Herd {
    fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
        assert!(!self.is_client, "serve_one() is server-side");
        // Wait for the notify SEND, then read the written request.
        let Some(comp) = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)? else {
            return Ok(false);
        };
        comp.ok()?;
        let dummy = self.ep.pd().register(1)?;
        self.ep.post_recv(RecvWr::new(comp.wr_id, dummy, 0, 0))?;
        let mut hdr = [0u8; HDR];
        self.req_region.read(0, &mut hdr)?;
        let len = u32::from_le_bytes(hdr) as usize;
        let request = self.req_region.read_vec(HDR, len)?;

        let response = handler(&request);
        if response.len() > self.cfg.max_msg {
            return Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
                "response of {} bytes exceeds the HERD ring slot ({} bytes)",
                response.len(),
                self.cfg.max_msg
            )));
        }
        // HERD's weakness: the response is copied into a send slot and
        // SENT two-sided.
        let copy = charge_memcpy(&self.ep, response.len());
        self.resp_stage.write(0, &(response.len() as u32).to_le_bytes())?;
        self.resp_stage.write(HDR, &response)?;
        drop(copy);
        self.ep.post_send(&[SendWr::send(3, self.resp_stage.slice(0, HDR + response.len()))])?;
        Ok(true)
    }

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Herd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests_support::echo_pair;

    #[test]
    fn request_path_is_zero_copy_response_path_is_not() {
        let (mut client, mut server) =
            echo_pair(ProtocolKind::Herd, ProtocolConfig { max_msg: 4096, ..Default::default() });
        let h = std::thread::spawn(move || {
            server.serve_one(&mut |r| r.to_vec()).unwrap();
            server
        });
        let c_before = client.node_memcpys();
        client.call(&[1u8; 1024]).unwrap();
        let server = h.join().unwrap();
        // Client pays a copy only to pull the response off the ring; the
        // request WRITE is zero-copy (plus one inline notify counted by
        // the sim layer).
        assert!(client.node_memcpys() - c_before <= 2);
        assert!(server.node_memcpys() >= 1, "server copies every response");
    }
}
