//! Transport layer: the `TSocket`-compatible abstraction the paper's
//! TRdma bridge keeps (§4.3).
//!
//! Thrift's transports are byte streams; HatRPC's insight is that keeping
//! `TRdma`'s programming model identical to `TSocket`'s lets the code
//! generator reuse the whole stack. Both are one transport per connection,
//! one request → one response: [`TSocket`] sends 4-byte-framed messages
//! over the simulated IPoIB TCP stream, served by [`TServerSocket`], and
//! a channel the engine in [`crate::engine`] opens per hint plan holds
//! either a protocol client or such a socket. The socket has no server
//! loop of its own: a plan hinted `transport = tcp` (the vanilla-Thrift
//! baseline is a schema hinted so) rides the `{service}/tcp` loop of a
//! [`crate::engine::HatServer`].

use std::sync::Arc;

use hat_rdma_sim::ipoib::IpoibStream;
use hat_rdma_sim::{Fabric, Node, RdmaError};

use crate::error::{CoreError, Result};

/// Largest frame the socket transports accept without an explicit
/// negotiated limit. Generous (the engine's biggest channel is 256 KB)
/// while still bounding what a lying length header can make the receiver
/// allocate.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Length-prefix framing over a byte stream (what `TFramedTransport`
/// contributes in the Thrift stack).
pub fn write_frame(stream: &IpoibStream, msg: &[u8]) -> Result<()> {
    if msg.len() > u32::MAX as usize {
        return Err(CoreError::Frame(format!(
            "message of {} bytes cannot be framed with a u32 length header",
            msg.len()
        )));
    }
    let mut frame = Vec::with_capacity(4 + msg.len());
    frame.extend_from_slice(&(msg.len() as u32).to_le_bytes());
    frame.extend_from_slice(msg);
    stream.write_all(&frame)?;
    Ok(())
}

/// Read one length-prefixed frame. Returns `Ok(None)` on a clean EOF
/// between frames. The peer-supplied length header is validated against
/// `max_frame` *before* any allocation, and a stream ending mid-header or
/// mid-body surfaces as a typed [`CoreError::Frame`] — a malicious or
/// corrupt peer can neither trigger an unbounded allocation nor have a
/// truncated message pass for a complete one.
pub fn read_frame(stream: &IpoibStream, max_frame: usize) -> Result<Option<Vec<u8>>> {
    let mut hdr = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = stream.read(&mut hdr[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(CoreError::Frame(format!("stream ended mid-header ({filled} of 4 bytes)")));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(hdr) as usize;
    if len > max_frame {
        return Err(CoreError::Frame(format!(
            "frame header claims {len} bytes, exceeding the {max_frame}-byte limit"
        )));
    }
    let mut msg = vec![0u8; len];
    let mut got = 0;
    while got < len {
        let n = stream.read(&mut msg[got..])?;
        if n == 0 {
            return Err(CoreError::Frame(format!("stream ended mid-frame ({got} of {len} bytes)")));
        }
        got += n;
    }
    Ok(Some(msg))
}

/// Client socket transport over simulated IPoIB (vanilla Thrift baseline).
pub struct TSocket {
    stream: IpoibStream,
}

impl TSocket {
    /// Dial an IPoIB service registered with [`TServerSocket::listen`].
    pub fn dial(fabric: &Fabric, client_node: &Arc<Node>, service: &str) -> Result<TSocket> {
        Ok(TSocket { stream: fabric.dial_ipoib(client_node, service)? })
    }

    /// Issue an RPC: send one frame, read one back.
    pub fn call(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        write_frame(&self.stream, request)?;
        read_frame(&self.stream, DEFAULT_MAX_FRAME)?.ok_or(CoreError::Rdma(RdmaError::Disconnected))
    }
}

/// One accepted server-side socket connection.
pub struct TServerSocket {
    stream: Arc<IpoibStream>,
}

impl TServerSocket {
    /// Register an IPoIB listener; accept with
    /// [`hat_rdma_sim::fabric::IpoibListener::accept`] and wrap each stream.
    pub fn listen(
        fabric: &Fabric,
        node: &Arc<Node>,
        service: &str,
    ) -> hat_rdma_sim::fabric::IpoibListener {
        fabric.listen_ipoib(node, service)
    }

    /// Wrap an accepted stream.
    pub fn from_stream(stream: IpoibStream) -> TServerSocket {
        TServerSocket { stream: Arc::new(stream) }
    }

    /// A shared handle to the underlying stream (lets a server force-close
    /// the connection from its shutdown path while a serve loop blocks in
    /// `read`).
    pub fn stream_handle(&self) -> Arc<IpoibStream> {
        self.stream.clone()
    }

    /// Serve exactly one request with `handler`; `Ok(false)` on disconnect.
    pub fn serve_one(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<bool> {
        let Some(request) = read_frame(&self.stream, DEFAULT_MAX_FRAME)? else {
            return Ok(false);
        };
        let response = handler(&request);
        write_frame(&self.stream, &response)?;
        Ok(true)
    }

    /// Serve until disconnect.
    pub fn serve_loop(&mut self, handler: &mut dyn FnMut(&[u8]) -> Vec<u8>) -> Result<()> {
        while self.serve_one(handler)? {}
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_rdma_sim::SimConfig;

    #[test]
    fn tsocket_roundtrip() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let cnode = fabric.add_node("client");
        let listener = TServerSocket::listen(&fabric, &snode, "echo");
        let mut client = TSocket::dial(&fabric, &cnode, "echo").unwrap();
        let h = std::thread::spawn(move || {
            let mut server = TServerSocket::from_stream(listener.accept().unwrap());
            server.serve_one(&mut |req| req.iter().rev().copied().collect()).unwrap();
        });
        let resp = client.call(b"abc").unwrap();
        assert_eq!(resp, b"cba");
        h.join().unwrap();
    }

    #[test]
    fn tserversocket_reports_clean_eof() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let cnode = fabric.add_node("client");
        let listener = TServerSocket::listen(&fabric, &snode, "svc");
        let client = TSocket::dial(&fabric, &cnode, "svc").unwrap();
        let mut server = TServerSocket::from_stream(listener.accept().unwrap());
        drop(client);
        assert!(!server.serve_one(&mut |r| r.to_vec()).unwrap());
    }

    fn stream_pair(fabric: &Fabric) -> (IpoibStream, IpoibStream) {
        let snode = fabric.add_node("server");
        let cnode = fabric.add_node("client");
        let listener = TServerSocket::listen(fabric, &snode, "raw");
        let cs = fabric.dial_ipoib(&cnode, "raw").unwrap();
        let ss = listener.accept().unwrap();
        (cs, ss)
    }

    #[test]
    fn oversized_frame_header_is_rejected_before_allocation() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let (cs, ss) = stream_pair(&fabric);
        // A lying header claiming ~4 GB must not cause a 4 GB allocation.
        cs.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let err = read_frame(&ss, 1024).unwrap_err();
        assert!(matches!(err, CoreError::Frame(_)), "got {err:?}");
        assert!(err.to_string().contains("exceeding"));
    }

    #[test]
    fn truncated_frame_surfaces_typed_error() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let (cs, ss) = stream_pair(&fabric);
        // Header promises 10 bytes; only 3 arrive before the peer closes.
        cs.write_all(&10u32.to_le_bytes()).unwrap();
        cs.write_all(b"abc").unwrap();
        cs.close();
        let err = read_frame(&ss, 1024).unwrap_err();
        assert!(matches!(err, CoreError::Frame(_)), "got {err:?}");
        assert!(err.to_string().contains("mid-frame"));
    }

    #[test]
    fn truncated_header_surfaces_typed_error() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let (cs, ss) = stream_pair(&fabric);
        cs.write_all(&[1, 2]).unwrap(); // half a header
        cs.close();
        let err = read_frame(&ss, 1024).unwrap_err();
        assert!(matches!(err, CoreError::Frame(_)), "got {err:?}");
        assert!(err.to_string().contains("mid-header"));
    }

    #[test]
    fn large_frames_cross_the_socket() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let cnode = fabric.add_node("client");
        let listener = TServerSocket::listen(&fabric, &snode, "big");
        let mut client = TSocket::dial(&fabric, &cnode, "big").unwrap();
        let h = std::thread::spawn(move || {
            let mut server = TServerSocket::from_stream(listener.accept().unwrap());
            server.serve_one(&mut |req| req.to_vec()).unwrap();
        });
        let big = vec![7u8; 300_000];
        assert_eq!(client.call(&big).unwrap(), big);
        h.join().unwrap();
    }
}
