//! Simulated IPoIB (TCP over InfiniBand) byte streams.
//!
//! The paper's baseline is vanilla Apache Thrift over IPoIB: the kernel
//! TCP/IP stack running on the IB link. Relative to native RDMA it pays
//! syscalls and user/kernel copies on both sides, an interrupt at the
//! receiver, and markedly lower effective bandwidth (20–25 Gbps on EDR).
//! [`IpoibStream`] models exactly those costs over the same fabric links,
//! with blocking `read`/`write` semantics like a `TcpStream`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::error::{RdmaError, Result};
use crate::node::Node;
use crate::stats::NodeStats;
use crate::time::now_ns;

/// One direction of the stream: chunks with visibility deadlines.
struct StreamDir {
    /// (ready_at, data, read_offset)
    chunks: Mutex<VecDeque<(u64, Vec<u8>, usize)>>,
    cond: Condvar,
    closed: AtomicBool,
}

impl StreamDir {
    fn new() -> Arc<StreamDir> {
        Arc::new(StreamDir {
            chunks: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            closed: AtomicBool::new(false),
        })
    }
}

/// A connected, bidirectional simulated TCP stream over IPoIB.
pub struct IpoibStream {
    node: Arc<Node>,
    peer_node: Arc<Node>,
    incoming: Arc<StreamDir>,
    outgoing: Arc<StreamDir>,
}

impl std::fmt::Debug for IpoibStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IpoibStream")
            .field("node", &self.node.name())
            .field("peer", &self.peer_node.name())
            .finish()
    }
}

impl IpoibStream {
    /// Create a connected pair between two nodes. The `a` side is the
    /// dialer and is charged the TCP connection-establishment cost.
    pub fn pair(a: &Arc<Node>, b: &Arc<Node>) -> (IpoibStream, IpoibStream) {
        let _charge = a.begin_charge(a.config().ipoib.connect_ns);
        let ab = StreamDir::new();
        let ba = StreamDir::new();
        let sa = IpoibStream {
            node: a.clone(),
            peer_node: b.clone(),
            incoming: ba.clone(),
            outgoing: ab.clone(),
        };
        let sb = IpoibStream { node: b.clone(), peer_node: a.clone(), incoming: ab, outgoing: ba };
        (sa, sb)
    }

    /// The local node.
    pub fn node(&self) -> &Arc<Node> {
        &self.node
    }

    /// Write all of `data`, paying syscall + user→kernel copy + link
    /// serialization. Returns once the bytes are handed to the "kernel"
    /// (like a buffered TCP send).
    pub fn write_all(&self, data: &[u8]) -> Result<()> {
        if self.outgoing.closed.load(Ordering::Acquire) {
            return Err(RdmaError::Disconnected);
        }
        let cfg = self.node.config();
        let ip = &cfg.ipoib;
        // The syscall + copy charge covers the real copy below; the bytes
        // reach the link when the modelled syscall returns.
        let charge = self.node.begin_charge(ip.syscall_ns + ip.copy_ns(data.len()));
        let t0 = charge.end_ns();

        let ser = cfg.scaled(ip.serialize_ns(data.len()));
        let (es, _) = self.node.egress().reserve_at(t0, ser);
        let (_, ie) =
            self.peer_node.ingress().reserve_at(es + cfg.scaled(ip.one_way_latency_ns), ser);
        let ready_at = ie + cfg.scaled(ip.interrupt_ns);

        NodeStats::add(&self.node.stats().bytes_tx, data.len() as u64);
        NodeStats::add(&self.peer_node.stats().bytes_rx, data.len() as u64);

        let mut chunks = self.outgoing.chunks.lock();
        chunks.push_back((ready_at, data.to_vec(), 0));
        drop(chunks);
        self.outgoing.cond.notify_all();
        Ok(())
    }

    /// Read up to `buf.len()` bytes, blocking until at least one byte is
    /// available. Returns `Ok(0)` on a closed, drained stream.
    ///
    /// Waiting yield-polls in virtual time rather than parking on a
    /// condition variable, for the same host-portability reason as
    /// [`crate::CompletionQueue`]'s event arm: real futex wakeups on a
    /// core-starved host cost far more than the kernel-stack latency
    /// being modelled.
    pub fn read(&self, buf: &mut [u8]) -> Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        // Liveness cap: in the simulator every in-flight chunk becomes
        // readable within microseconds, so a long-silent stream means the
        // peer is gone or wedged — fail instead of waiting forever.
        const READ_TIMEOUT_NS: u64 = 30_000_000_000;
        let cfg = self.node.config();
        let start = now_ns();
        loop {
            {
                let mut chunks = self.incoming.chunks.lock();
                let now = now_ns();
                if let Some((ready_at, data, off)) = chunks.front_mut() {
                    if *ready_at <= now {
                        let avail = data.len() - *off;
                        let n = avail.min(buf.len());
                        buf[..n].copy_from_slice(&data[*off..*off + n]);
                        *off += n;
                        let exhausted = *off == data.len();
                        if exhausted {
                            chunks.pop_front();
                        }
                        drop(chunks);
                        // Receiver-side syscall + kernel→user copy, begun
                        // at the `now` that found the chunk readable.
                        let ip = &cfg.ipoib;
                        let _charge = self.node.begin_charge_at(now, ip.syscall_ns + ip.copy_ns(n));
                        return Ok(n);
                    }
                } else if self.incoming.closed.load(Ordering::Acquire) {
                    return Ok(0);
                }
            }
            // A blocked read is parked in simulated terms; long-idle
            // waiters nap to free the host core (`time::dry_pause`).
            let now = now_ns();
            if now - start > READ_TIMEOUT_NS {
                return Err(RdmaError::Timeout);
            }
            crate::time::dry_pause(start, now, 0);
        }
    }

    /// Read exactly `buf.len()` bytes or fail with `Disconnected` on EOF.
    pub fn read_exact(&self, buf: &mut [u8]) -> Result<()> {
        let mut filled = 0;
        while filled < buf.len() {
            let n = self.read(&mut buf[filled..])?;
            if n == 0 {
                return Err(RdmaError::Disconnected);
            }
            filled += n;
        }
        Ok(())
    }

    /// Close both directions; the peer's reads drain then return 0 and its
    /// writes fail.
    pub fn close(&self) {
        self.incoming.closed.store(true, Ordering::Release);
        self.outgoing.closed.store(true, Ordering::Release);
        self.incoming.cond.notify_all();
        self.outgoing.cond.notify_all();
    }
}

impl Drop for IpoibStream {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SimConfig;
    use crate::fabric::Fabric;

    fn pair() -> (Fabric, IpoibStream, IpoibStream) {
        let f = Fabric::new(SimConfig::fast_test());
        let a = f.add_node("a");
        let b = f.add_node("b");
        let (sa, sb) = IpoibStream::pair(&a, &b);
        (f, sa, sb)
    }

    #[test]
    fn write_read_roundtrip() {
        let (_f, a, b) = pair();
        a.write_all(b"hello over ipoib").unwrap();
        let mut buf = [0u8; 16];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello over ipoib");
    }

    #[test]
    fn partial_reads_consume_a_chunk_incrementally() {
        let (_f, a, b) = pair();
        a.write_all(b"abcdef").unwrap();
        let mut buf = [0u8; 4];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"abcd");
        let mut rest = [0u8; 4];
        let n2 = b.read(&mut rest).unwrap();
        assert_eq!(&rest[..n2], b"ef");
    }

    #[test]
    fn reads_block_until_data_arrives() {
        let (_f, a, b) = pair();
        let h = std::thread::spawn(move || {
            let mut buf = [0u8; 3];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        a.write_all(b"now").unwrap();
        assert_eq!(&h.join().unwrap(), b"now");
    }

    #[test]
    fn close_gives_eof_then_write_error() {
        let (_f, a, b) = pair();
        a.write_all(b"last").unwrap();
        a.close();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"last");
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF after drain");
        assert!(b.write_all(b"x").is_err());
    }

    #[test]
    fn ipoib_latency_exceeds_rdma_wire_latency() {
        let f = Fabric::new(SimConfig::default());
        let a = f.add_node("a");
        let b = f.add_node("b");
        let (sa, sb) = IpoibStream::pair(&a, &b);
        let t0 = now_ns();
        sa.write_all(&[1u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        sb.read_exact(&mut buf).unwrap();
        let elapsed = now_ns() - t0;
        // One-way must cost at least the configured kernel-stack latency.
        assert!(
            elapsed >= f.config().ipoib.one_way_latency_ns,
            "elapsed {elapsed}ns below kernel-stack latency"
        );
    }

    #[test]
    fn bidirectional_traffic_does_not_interfere() {
        let (_f, a, b) = pair();
        a.write_all(b"ping").unwrap();
        b.write_all(b"pong").unwrap();
        let mut ba = [0u8; 4];
        let mut ab = [0u8; 4];
        b.read_exact(&mut ab).unwrap();
        a.read_exact(&mut ba).unwrap();
        assert_eq!(&ab, b"ping");
        assert_eq!(&ba, b"pong");
    }
}
