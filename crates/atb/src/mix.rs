//! The Mix Comm Benchmark (paper §5.3, Figures 13/14): heterogeneous
//! functions in one service — `fast` hinted for latency, `bulk` hinted
//! for throughput — issued randomly by every client at a configured
//! ratio, with checksum server work.

use std::sync::Arc;

use hat_rdma_sim::{now_ns, Fabric};
use hat_trace::hist::Histogram;
use hatrpc_core::error::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::support::{mix_schema, serve, AtbClient};
use crate::Mode;

/// Mix benchmark parameters.
#[derive(Debug, Clone)]
pub struct MixConfig {
    /// Stack under test.
    pub mode: Mode,
    /// Payload size for both functions (the paper runs 512 B and 128 KB).
    pub payload: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Client machines.
    pub client_nodes: usize,
    /// Calls per client.
    pub iters: usize,
    /// Fraction of calls that are the latency function (paper: 0.5).
    pub fast_ratio: f64,
}

impl Default for MixConfig {
    fn default() -> Self {
        MixConfig {
            mode: Mode::HatRpc,
            payload: 512,
            clients: 4,
            client_nodes: 2,
            iters: 32,
            fast_ratio: 0.5,
        }
    }
}

/// Mix benchmark output: latency statistics for the latency-hinted calls,
/// throughput for the throughput-hinted calls (what Figures 13/14 plot).
#[derive(Debug, Clone)]
pub struct MixResult {
    /// Stack label.
    pub label: String,
    /// Payload size.
    pub payload: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Mean latency of `fast` calls, ns.
    pub fast_mean_ns: u64,
    /// p99 latency of `fast` calls, ns.
    pub fast_p99_ns: u64,
    /// Aggregate throughput of `bulk` calls, ops/s.
    pub bulk_ops_per_sec: f64,
    /// `bulk` goodput, MB/s.
    pub bulk_mb_per_sec: f64,
}

/// Run the mix benchmark inside `fabric`.
pub fn run_mix(fabric: &Fabric, cfg: &MixConfig) -> Result<MixResult> {
    let snode = fabric.add_node("atb-mix-server");
    let schema = mix_schema(cfg.payload, cfg.clients);
    let server = serve(fabric, &snode, "atb-mix", cfg.mode, &schema);

    let client_nodes: Vec<_> = (0..cfg.client_nodes.max(1))
        .map(|i| fabric.add_node(&format!("atb-mix-client{i}")))
        .collect();

    let schema = Arc::new(schema);
    let barrier = Arc::new(std::sync::Barrier::new(cfg.clients + 1));
    let mut handles = Vec::with_capacity(cfg.clients);
    for c in 0..cfg.clients {
        let fabric = fabric.clone();
        let node = client_nodes[c % client_nodes.len()].clone();
        let schema = schema.clone();
        let barrier = barrier.clone();
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || -> Result<(Histogram, u64, u64)> {
            let payload = vec![0x3Cu8; cfg.payload];
            let mut rng = StdRng::seed_from_u64(c as u64 + 99);
            // The barrier must be reached on every path (see throughput.rs).
            let setup = (|| {
                let mut client = AtbClient::connect(&fabric, &node, "atb-mix", cfg.mode, &schema);
                // Warm both channels before the measured window.
                client.call("fast", 0, &payload)?;
                client.call("bulk", 0, &payload)?;
                Ok::<_, hatrpc_core::CoreError>(client)
            })();
            barrier.wait();
            let mut client = setup?;
            let fast_hist = Histogram::default();
            let mut bulk_ops = 0u64;
            let t0 = now_ns();
            for i in 0..cfg.iters {
                let is_fast = rng.random::<f64>() < cfg.fast_ratio;
                let method = if is_fast { "fast" } else { "bulk" };
                let t = now_ns();
                client.call(method, i as i32 + 1, &payload)?;
                if is_fast {
                    fast_hist.record(now_ns() - t);
                } else {
                    bulk_ops += 1;
                }
            }
            Ok((fast_hist, bulk_ops, now_ns() - t0))
        }));
    }
    barrier.wait();
    let t0 = now_ns();
    let fast_all = Histogram::default();
    let mut bulk_total = 0u64;
    for h in handles {
        let (hist, bulk, _elapsed) = h.join().expect("client thread")?;
        fast_all.merge(&hist);
        bulk_total += bulk;
    }
    let wall_ns = now_ns() - t0;
    server.shutdown();

    let bulk_ops_per_sec = bulk_total as f64 / (wall_ns as f64 / 1e9);
    Ok(MixResult {
        label: cfg.mode.label(),
        payload: cfg.payload,
        clients: cfg.clients,
        fast_mean_ns: fast_all.mean(),
        fast_p99_ns: fast_all.p99(),
        bulk_ops_per_sec,
        bulk_mb_per_sec: bulk_ops_per_sec * (2 * cfg.payload) as f64 / 1e6,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_rdma_sim::SimConfig;

    #[test]
    fn mix_produces_both_metrics() {
        let fabric = Fabric::new(SimConfig::default());
        let r = run_mix(
            &fabric,
            &MixConfig { clients: 2, iters: 20, payload: 512, ..Default::default() },
        )
        .unwrap();
        assert!(r.fast_mean_ns > 0, "latency side measured");
        assert!(r.bulk_ops_per_sec > 0.0, "throughput side measured");
    }

    #[test]
    fn heterogeneous_functions_use_isolated_channels() {
        // The core §5.3 claim: function-level hints put `fast` and `bulk`
        // on separate, independently tuned connections.
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("s");
        let schema = mix_schema(128 * 1024, 64);
        let server = serve(&fabric, &snode, "mix-iso", Mode::HatRpc, &schema);
        let cnode = fabric.add_node("c");
        let mut client = AtbClient::connect(&fabric, &cnode, "mix-iso", Mode::HatRpc, &schema);
        let payload = vec![1u8; 1024];
        client.call("fast", 1, &payload).unwrap();
        client.call("bulk", 2, &payload).unwrap();
        let hat = client.engine();
        assert!(hat.open_channels() >= 2, "fast and bulk must not share a channel");
        use hat_protocols::ProtocolKind;
        assert_eq!(hat.selection_for("fast").protocol, ProtocolKind::DirectWriteImm);
        assert_eq!(hat.selection_for("bulk").protocol, ProtocolKind::Rfp);
        drop(client);
        server.shutdown();
    }
}
