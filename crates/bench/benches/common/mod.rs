//! Shared Criterion plumbing: a persistent echo pair whose per-call path
//! is what the figure benches time (setup stays outside the measurement),
//! plus tight time budgets so `cargo bench` finishes in minutes.
//!
//! Compiled once per bench target; not every target uses every item.
#![allow(dead_code)]

use std::time::Duration;

use criterion::Criterion;
use hat_protocols::{accept_server, connect_client, ProtocolConfig, ProtocolKind, RpcClient};
use hat_rdma_sim::{Fabric, PollMode, SimConfig};

/// Criterion configured for simulator-scale benches.
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900))
        .configure_from_args()
}

/// A connected raw-protocol echo pair with a background serve loop.
pub struct EchoPair {
    pub client: Box<dyn RpcClient>,
    server_thread: Option<std::thread::JoinHandle<()>>,
    _fabric: Fabric,
}

impl EchoPair {
    /// Build the pair; the server echoes until the client drops.
    pub fn new(kind: ProtocolKind, poll: PollMode, max_msg: usize) -> EchoPair {
        let fabric = Fabric::new(SimConfig::default());
        let c = fabric.add_node("bench-client");
        let s = fabric.add_node("bench-server");
        let (cep, sep) = fabric.connect(&c, &s).expect("connect");
        let cfg = ProtocolConfig { poll, max_msg, ..Default::default() };
        let scfg = cfg.clone();
        let server_thread = std::thread::spawn(move || {
            let Ok(mut server) = accept_server(kind, sep, scfg) else { return };
            let _ = server.serve_loop(&mut |req| req.to_vec());
        });
        let client = connect_client(kind, cep, cfg).expect("client");
        EchoPair { client, server_thread: Some(server_thread), _fabric: fabric }
    }
}

impl Drop for EchoPair {
    fn drop(&mut self) {
        // Dropping the client disconnects; the serve loop exits.
        // (client is dropped as a field before the join below runs via
        // manual take ordering.)
        let client =
            std::mem::replace(&mut self.client, Box::new(NullClient) as Box<dyn RpcClient>);
        drop(client);
        if let Some(t) = self.server_thread.take() {
            let _ = t.join();
        }
    }
}

struct NullClient;

impl RpcClient for NullClient {
    fn call(&mut self, _request: &[u8]) -> hat_rdma_sim::Result<Vec<u8>> {
        Err(hat_rdma_sim::RdmaError::Disconnected)
    }
}
