//! ATB multi-threaded throughput benchmark: N clients, one server
//! (paper Figures 5 and 12).

use hat_rdma_sim::Fabric;
use hatrpc_core::error::Result;

use crate::driver::{run_clients, Completed};
use crate::support::{serve, throughput_schema_depth, AtbClient};
use crate::Mode;

/// Throughput benchmark parameters.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Stack under test.
    pub mode: Mode,
    /// Echo payload size in bytes.
    pub payload: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Client machines the clients are spread over (paper: 4 for YCSB;
    /// ATB sweeps use enough nodes to keep per-node counts realistic).
    pub client_nodes: usize,
    /// Calls per client.
    pub iters: usize,
    /// In-flight requests per client. `1` is the classic closed loop
    /// (each call waits for its reply); `> 1` drives the channel open
    /// loop through the pipelined path, keeping up to `depth` echoes in
    /// flight via the schema's `queue_depth` hint — in every mode whose
    /// protocol has a pipelined form (IPoIB and the other kinds run the
    /// batch closed-loop).
    pub depth: usize,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            mode: Mode::HatRpc,
            payload: 512,
            clients: 4,
            client_nodes: 4,
            iters: 32,
            depth: 1,
        }
    }
}

/// Throughput benchmark output.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Stack label.
    pub label: String,
    /// Payload size.
    pub payload: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Aggregate operations per second.
    pub ops_per_sec: f64,
    /// Aggregate goodput in MB/s (payload bytes, both directions).
    pub mb_per_sec: f64,
    /// Mean per-call latency across clients, ns.
    pub mean_latency_ns: u64,
}

/// Run the throughput benchmark inside `fabric` (creates its own nodes).
pub fn run_throughput(fabric: &Fabric, cfg: &ThroughputConfig) -> Result<ThroughputResult> {
    let snode = fabric.add_node("atb-thr-server");
    let schema = throughput_schema_depth(cfg.payload, cfg.clients, cfg.depth);
    let server = serve(fabric, &snode, "atb-thr", cfg.mode, &schema);

    let client_nodes: Vec<_> = (0..cfg.client_nodes.max(1))
        .map(|i| fabric.add_node(&format!("atb-thr-client{i}")))
        .collect();

    let payload = vec![0xA5u8; cfg.payload];
    // Open loop at depth > 1: a client's whole run is one batch, and the
    // channel keeps `depth` echoes in flight throughout.
    let (ops, batch) = if cfg.depth > 1 { (1, cfg.iters) } else { (cfg.iters, 1) };
    let run: Result<_> = run_clients(
        cfg.clients,
        ops,
        |c| {
            let node = &client_nodes[c % client_nodes.len()];
            let mut client = AtbClient::connect(fabric, node, "atb-thr", cfg.mode, &schema);
            client.call("echo", 0, &payload)?;
            Ok((client, vec![payload.clone(); batch]))
        },
        |(client, payloads), i| {
            if cfg.depth > 1 {
                client.call_many("echo", 1, payloads)?;
            } else {
                client.call("echo", i as i32 + 1, &payload)?;
            }
            Ok(Completed { label: "echo", requests: batch as u64 })
        },
    );
    server.shutdown();
    let run = run?;

    let ops_per_sec = run.throughput_ops_s();
    // A batch is one sample: spread its time over the echoes it carried.
    let echo = run.histogram("echo");
    let mean_latency_ns = echo.mean() * echo.count() / run.total_ops().max(1);
    Ok(ThroughputResult {
        label: cfg.mode.label(),
        payload: cfg.payload,
        clients: cfg.clients,
        ops_per_sec,
        mb_per_sec: ops_per_sec * (2 * cfg.payload) as f64 / 1e6,
        mean_latency_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_rdma_sim::SimConfig;

    fn run(cfg: ThroughputConfig) -> ThroughputResult {
        let fabric = Fabric::new(SimConfig::default());
        run_throughput(&fabric, &cfg).unwrap()
    }

    #[test]
    fn multiple_clients_raise_aggregate_throughput() {
        // On a host with real parallelism, 4 clients should clearly beat
        // 1; on a core-starved CI host the whole simulated cluster
        // time-shares one CPU, so only assert the aggregate does not
        // *collapse* (the over-subscription story is covered by the
        // deterministic selection/load-factor unit tests).
        let one = run(ThroughputConfig { clients: 1, iters: 24, ..Default::default() });
        let four = run(ThroughputConfig { clients: 4, iters: 24, ..Default::default() });
        assert!(
            four.ops_per_sec > one.ops_per_sec * 0.3,
            "4 clients {} vs 1 client {}",
            four.ops_per_sec,
            one.ops_per_sec
        );
    }

    #[test]
    fn open_loop_depth_runs_on_every_stack() {
        use hat_protocols::ProtocolKind;
        use hat_rdma_sim::PollMode;
        // Depth 4 over the hinted engine and over a fixed pipelined
        // protocol; both must produce correct echoes and sane numbers.
        for mode in [Mode::HatRpc, Mode::Fixed(ProtocolKind::EagerSendRecv, PollMode::Busy)] {
            let fabric = Fabric::new(SimConfig::fast_test());
            let r = run_throughput(
                &fabric,
                &ThroughputConfig { mode, clients: 2, iters: 24, depth: 4, ..Default::default() },
            )
            .unwrap();
            assert!(r.ops_per_sec > 0.0, "{}", r.label);
        }
    }

    #[test]
    fn results_carry_configuration() {
        let r = run(ThroughputConfig { clients: 2, payload: 2048, iters: 8, ..Default::default() });
        assert_eq!(r.clients, 2);
        assert_eq!(r.payload, 2048);
        assert!(r.ops_per_sec > 0.0);
        assert!(r.mb_per_sec > 0.0);
        assert!(r.mean_latency_ns > 0);
    }
}
