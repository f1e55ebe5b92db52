//! The direct-write family (paper Figures 3b, 3c, 3f).
//!
//! All three protocols write payloads straight into a *pre-known,
//! pre-registered* message buffer on the remote side, established during
//! the connection handshake. They differ only in how the receiver is told
//! a message exists:
//!
//! * [`DirectWriteSend`] — a separate SEND notify posted after the WRITE:
//!   two work requests, **two MMIO doorbells**.
//! * [`ChainedWriteSend`] — the same WRITE and SEND chained into one
//!   `post_send`: **one doorbell**, saving a PCIe MMIO (HERD's trick).
//! * [`DirectWriteImm`] — a single WRITE_WITH_IMM whose immediate carries
//!   the length: **one work request**, the fastest small-message path in
//!   the paper's Figure 4.
//!
//! The shared drawback (paper §4.3): the pre-known buffer is pinned per
//! connection and sized for the largest message, so these protocols trade
//! memory footprint for speed — exactly what the `res_util` hint steers
//! away from.

use hat_rdma_sim::{Endpoint, MemoryRegion, RdmaError, RecvWr, RemoteBuf, Result, SendWr};

use crate::common::{poll_recv, CtrlRing, ProtocolConfig, ProtocolKind, RpcClient, RpcServer};

/// Which notification flavour a [`DirectWrite`] connection uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Notify {
    /// WRITE then separate SEND (two doorbells).
    SeparateSend,
    /// WRITE and SEND chained under one doorbell.
    ChainedSend,
    /// WRITE_WITH_IMM (one work request).
    WriteImm,
}

/// Common machinery for the three direct-write variants.
struct DirectWrite {
    ep: Endpoint,
    cfg: ProtocolConfig,
    /// Region the peer writes inbound messages into (advertised at
    /// handshake).
    in_region: MemoryRegion,
    /// Registered staging area outbound WRITEs are issued from.
    out_stage: MemoryRegion,
    /// The peer's advertised in-region.
    peer_region: RemoteBuf,
    /// Control ring for SEND notifies (unused by the IMM variant).
    ctrl: Option<CtrlRing>,
    /// Zero-length receive backing for WRITE_WITH_IMM completions.
    imm_dummy: Option<MemoryRegion>,
    notify: Notify,
}

/// Zero-length receive slots for WRITE_WITH_IMM completions.
const IMM_RECV_SLOTS: usize = 64;

impl DirectWrite {
    fn new(ep: Endpoint, cfg: ProtocolConfig, notify: Notify) -> Result<DirectWrite> {
        let in_region = ep.pd().register(cfg.max_msg)?;
        let out_stage = ep.pd().register(cfg.max_msg)?;
        // Handshake FIRST: receive queues are FIFO, so the handshake blob
        // must not race with ring receives posted below.
        let blob = in_region.remote_buf(0, cfg.max_msg).encode();
        let peer_blob = crate::common::exchange_blobs(&ep, &blob)?;
        let peer_region = RemoteBuf::decode(&peer_blob)?;
        let mut imm_dummy = None;
        let ctrl = match notify {
            Notify::WriteImm => {
                // WRITE_WITH_IMM consumes a posted receive; pre-post a ring
                // of zero-length slots.
                let dummy = ep.pd().register(1)?;
                for i in 0..IMM_RECV_SLOTS {
                    ep.post_recv(RecvWr::new(i as u64, dummy.clone(), 0, 0))?;
                }
                imm_dummy = Some(dummy);
                None
            }
            _ => Some(CtrlRing::new(&ep, cfg.ring_slots, 16, cfg.op_timeout_ns)?),
        };
        Ok(DirectWrite { ep, cfg, in_region, out_stage, peer_region, ctrl, imm_dummy, notify })
    }

    /// Ship one message into the peer's pre-known buffer and notify it.
    fn send_msg(&self, data: &[u8]) -> Result<()> {
        if data.len() > self.cfg.max_msg {
            return Err(hat_rdma_sim::RdmaError::InvalidWorkRequest(format!(
                "payload of {} bytes exceeds this connection's pre-known buffer ({} bytes)",
                data.len(),
                self.cfg.max_msg
            )));
        }
        // Serialize directly into the registered staging buffer (zero-copy
        // path: no user-to-staging memcpy is charged, unlike Eager).
        self.out_stage.write(0, data)?;
        let dst = self.peer_region.sub(0, data.len() as u64);
        let write = SendWr::write(1, self.out_stage.slice(0, data.len()), dst);
        match self.notify {
            Notify::SeparateSend => {
                // Two posts → two doorbells.
                self.ep.post_send(&[write])?;
                self.ep.post_send(&[SendWr::send_inline(2, &(data.len() as u32).to_le_bytes())])?;
            }
            Notify::ChainedSend => {
                // One chained post → one doorbell.
                self.ep.post_send(&[
                    write,
                    SendWr::send_inline(2, &(data.len() as u32).to_le_bytes()),
                ])?;
            }
            Notify::WriteImm => {
                self.ep.post_send(&[SendWr::write_imm(
                    1,
                    self.out_stage.slice(0, data.len()),
                    dst,
                    data.len() as u32,
                )])?;
            }
        }
        Ok(())
    }

    /// Wait for an inbound message; `None` on disconnect.
    fn recv_msg(&self) -> Result<Option<Vec<u8>>> {
        let len = match self.notify {
            Notify::WriteImm => {
                let Some(comp) = poll_recv(&self.ep, self.cfg.poll, self.cfg.op_timeout_ns)? else {
                    return Ok(None);
                };
                comp.ok()?;
                // Recycle the zero-length receive slot.
                let dummy = self.imm_dummy.as_ref().expect("IMM variant has a dummy region");
                self.ep.post_recv(RecvWr::new(comp.wr_id, dummy.clone(), 0, 0))?;
                let imm = comp.imm.ok_or_else(|| {
                    RdmaError::InvalidWorkRequest("notify without a length immediate".into())
                })?;
                imm as usize
            }
            _ => {
                let ctrl = self.ctrl.as_ref().expect("notify variants use a ctrl ring");
                let Some(msg) = ctrl.recv(self.cfg.poll)? else { return Ok(None) };
                let len = msg.first_chunk::<4>().ok_or_else(|| {
                    RdmaError::InvalidWorkRequest(format!("{}-byte notify", msg.len()))
                })?;
                u32::from_le_bytes(*len) as usize
            }
        };
        Ok(Some(self.in_region.read_vec(0, len)?))
    }
}

macro_rules! direct_write_variant {
    ($name:ident, $notify:expr, $kind:expr, $doc:literal) => {
        #[doc = $doc]
        pub struct $name {
            inner: DirectWrite,
        }

        impl $name {
            /// Build the client side (handshakes with the concurrently
            /// constructed server side).
            pub fn client(ep: Endpoint, cfg: ProtocolConfig) -> Result<$name> {
                Ok($name { inner: DirectWrite::new(ep, cfg, $notify)? })
            }

            /// Build the server side.
            pub fn server(ep: Endpoint, cfg: ProtocolConfig) -> Result<$name> {
                Ok($name { inner: DirectWrite::new(ep, cfg, $notify)? })
            }
        }

        impl RpcClient for $name {
            fn call(&mut self, request: &[u8]) -> Result<Vec<u8>> {
                self.inner.send_msg(request)?;
                self.inner.recv_msg()?.ok_or(hat_rdma_sim::RdmaError::Disconnected)
            }

            fn kind(&self) -> ProtocolKind {
                $kind
            }
        }

        impl RpcServer for $name {
            fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
                let Some(request) = self.inner.recv_msg()? else { return Ok(false) };
                let response = handler(&request);
                self.inner.send_msg(&response)?;
                Ok(true)
            }

            fn kind(&self) -> ProtocolKind {
                $kind
            }
        }
    };
}

direct_write_variant!(
    DirectWriteSend,
    Notify::SeparateSend,
    ProtocolKind::DirectWriteSend,
    "Direct-Write-Send (Figure 3b): RDMA WRITE into the peer's pre-known \
     buffer followed by a separate SEND notify — two doorbells per message."
);

direct_write_variant!(
    ChainedWriteSend,
    Notify::ChainedSend,
    ProtocolKind::ChainedWriteSend,
    "Chained-Write-Send (Figure 3c): the WRITE and SEND notify are chained \
     into a single work-request list, ringing one doorbell per message."
);

direct_write_variant!(
    DirectWriteImm,
    Notify::WriteImm,
    ProtocolKind::DirectWriteImm,
    "Direct-WriteIMM (Figure 3f): a single WRITE_WITH_IMM whose immediate \
     carries the message length — one work request, one doorbell."
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests_support::{echo_pair, run_echo_calls};

    #[test]
    fn direct_write_send_roundtrips() {
        run_echo_calls(ProtocolKind::DirectWriteSend, &[4, 512, 4096, 65536]);
    }

    #[test]
    fn chained_write_send_roundtrips() {
        run_echo_calls(ProtocolKind::ChainedWriteSend, &[4, 512, 4096, 65536]);
    }

    #[test]
    fn direct_write_imm_roundtrips() {
        run_echo_calls(ProtocolKind::DirectWriteImm, &[4, 512, 4096, 65536]);
    }

    /// The microarchitectural claim behind Figure 3c: chaining saves one
    /// doorbell per message relative to Direct-Write-Send.
    #[test]
    fn chained_rings_fewer_doorbells_than_separate() {
        let count_doorbells = |kind| {
            let (mut client, mut server) =
                echo_pair(kind, ProtocolConfig { max_msg: 1024, ..Default::default() });
            let h = std::thread::spawn(move || {
                for _ in 0..8 {
                    server.serve_one(&mut |r| r.to_vec()).unwrap();
                }
                server
            });
            let before = client.node().stats_snapshot().doorbells;
            for _ in 0..8 {
                client.call(&[1u8; 128]).unwrap();
            }
            let after = client.node().stats_snapshot().doorbells;
            h.join().unwrap();
            after - before
        };
        let separate = count_doorbells(ProtocolKind::DirectWriteSend);
        let chained = count_doorbells(ProtocolKind::ChainedWriteSend);
        assert_eq!(separate, 16, "8 calls x (WRITE + SEND) doorbells");
        assert_eq!(chained, 8, "8 calls x 1 chained doorbell");
    }

    #[test]
    fn imm_uses_single_work_request_per_message() {
        let (mut client, mut server) = echo_pair(
            ProtocolKind::DirectWriteImm,
            ProtocolConfig { max_msg: 1024, ..Default::default() },
        );
        let h = std::thread::spawn(move || {
            server.serve_one(&mut |r| r.to_vec()).unwrap();
            server
        });
        let before = client.node().stats_snapshot().wrs_posted;
        client.call(&[1u8; 64]).unwrap();
        let after = client.node().stats_snapshot().wrs_posted;
        h.join().unwrap();
        assert_eq!(after - before, 1, "one WRITE_WITH_IMM per request");
    }

    #[test]
    fn server_sees_disconnect() {
        for kind in [
            ProtocolKind::DirectWriteSend,
            ProtocolKind::ChainedWriteSend,
            ProtocolKind::DirectWriteImm,
        ] {
            let (client, mut server) =
                echo_pair(kind, ProtocolConfig { max_msg: 256, ..Default::default() });
            drop(client);
            assert!(!server.serve_one(&mut |r| r.to_vec()).unwrap(), "{kind}");
        }
    }
}
