//! ATB latency benchmark: single client, single server, fixed payload
//! (paper Figures 4 and 11).

use hat_rdma_sim::Fabric;
use hatrpc_core::error::Result;

use crate::driver::{run_ops, Completed};
use crate::support::{latency_schema, serve, AtbClient};
use crate::Mode;

/// Latency benchmark parameters.
#[derive(Debug, Clone)]
pub struct LatencyConfig {
    /// Stack under test.
    pub mode: Mode,
    /// Echo payload size in bytes.
    pub payload: usize,
    /// Warm-up iterations (excluded from statistics).
    pub warmup: usize,
    /// Measured iterations.
    pub iters: usize,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig { mode: Mode::HatRpc, payload: 512, warmup: 8, iters: 64 }
    }
}

/// Latency benchmark output.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// Stack label.
    pub label: String,
    /// Payload size.
    pub payload: usize,
    /// Mean round-trip latency, ns.
    pub mean_ns: u64,
    /// Median (bucketed), ns.
    pub p50_ns: u64,
    /// Tail (bucketed), ns.
    pub p99_ns: u64,
    /// Fastest observed round trip, ns.
    pub min_ns: u64,
    /// Iterations measured.
    pub iters: usize,
}

/// Run the latency benchmark inside `fabric` (nodes `atb-lat-server` /
/// `atb-lat-client` are created; call once per fabric or use fresh
/// fabrics per point, as the repro harness does).
pub fn run_latency(fabric: &Fabric, cfg: &LatencyConfig) -> Result<LatencyResult> {
    let snode = fabric.add_node("atb-lat-server");
    let cnode = fabric.add_node("atb-lat-client");
    let schema = latency_schema(cfg.payload);
    let server = serve(fabric, &snode, "atb-lat", cfg.mode, &schema);
    let mut client = AtbClient::connect(fabric, &cnode, "atb-lat", cfg.mode, &schema);

    let payload = vec![0x5A; cfg.payload];
    let mut seq = 0;
    let mut echo = |_| {
        seq += 1;
        let echoed = client.call("echo", seq, &payload)?;
        debug_assert_eq!(echoed.len(), payload.len());
        Ok(Completed::one("echo"))
    };
    let run: Result<_> = run_ops(cfg.warmup, &mut echo).and_then(|_| run_ops(cfg.iters, &mut echo));
    drop(client);
    server.shutdown();
    let run = run?;
    let hist = run.histogram("echo");
    Ok(LatencyResult {
        label: cfg.mode.label(),
        payload: cfg.payload,
        mean_ns: hist.mean(),
        p50_ns: hist.p50(),
        p99_ns: hist.p99(),
        min_ns: hist.min(),
        iters: cfg.iters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_protocols::ProtocolKind;
    use hat_rdma_sim::{PollMode, SimConfig};

    /// Every modelled duration stretched 32×, ratios unchanged: these tests
    /// compare orderings the *model* produces (a 296 ns memcpy charge, a
    /// 6.5 µs kernel-stack traversal), and at 1× a debug build's own
    /// 50–80 µs per round trip buries them — more so since charges absorb
    /// the host work they model instead of stacking on it.
    fn run(mode: Mode, payload: usize) -> LatencyResult {
        let fabric = Fabric::new(SimConfig { time_scale: 32.0, ..SimConfig::default() });
        run_latency(&fabric, &LatencyConfig { mode, payload, warmup: 4, iters: 24 }).unwrap()
    }

    #[test]
    fn hatrpc_matches_direct_write_imm_for_small_payloads() {
        // Paper §5.2: "the difference between HatRPC and Direct-WriteIMM
        // is within 3%". Compare best-case round trips: minima reflect
        // the deterministic simulated costs, while means absorb host
        // scheduler contention (this suite runs with other test binaries
        // time-sharing the CPU). Even the minima can be inflated when a
        // whole 24-iter run never gets an unpreempted round trip (seen
        // with `--test-threads=4` on one core), so re-measure a few times
        // and accept the best-behaved pair.
        let mut last = (0, 0);
        for _ in 0..4 {
            let hat = run(Mode::HatRpc, 512);
            let dwi = run(Mode::Fixed(ProtocolKind::DirectWriteImm, PollMode::Busy), 512);
            let ratio = hat.min_ns as f64 / dwi.min_ns as f64;
            if (0.6..1.6).contains(&ratio) {
                return;
            }
            last = (hat.min_ns, dwi.min_ns);
        }
        panic!("HatRPC {} vs DWI {}", last.0, last.1);
    }

    #[test]
    fn hatrpc_beats_hybrid_eager_rndv() {
        // Paper: 37–54% improvement over Hybrid-EagerRNDV for small
        // payloads. Compare best-case round trips (min), which reflect
        // the deterministic simulated costs rather than host scheduler
        // noise, at 4 KB where Hybrid still takes the eager path and pays
        // two payload copies that Direct-WriteIMM avoids.
        let hat = run(Mode::HatRpc, 4096);
        let hybrid = run(Mode::Fixed(ProtocolKind::HybridEagerRndv, PollMode::Busy), 4096);
        assert!(
            hat.min_ns < hybrid.min_ns,
            "HatRPC {} should beat Hybrid {}",
            hat.min_ns,
            hybrid.min_ns
        );
    }

    #[test]
    fn ipoib_is_much_slower_than_rdma() {
        // Best-case comparison (see above): the IPoIB floor carries two
        // kernel-stack traversals (~10 µs each way simulated) that native
        // RDMA skips entirely. Even the per-iteration minimum can be
        // inflated by milliseconds when the whole workspace test suite
        // time-shares the host, so allow a couple of re-measurements
        // before declaring the ordering violated.
        let mut last = (0, 0);
        for _ in 0..3 {
            let hat = run(Mode::HatRpc, 512);
            let ipoib = run(Mode::Ipoib, 512);
            if ipoib.min_ns as f64 > hat.min_ns as f64 * 1.5 {
                return;
            }
            last = (ipoib.min_ns, hat.min_ns);
        }
        panic!("IPoIB {} vs HatRPC {}", last.0, last.1);
    }

    #[test]
    fn latency_grows_with_payload() {
        let small = run(Mode::HatRpc, 64);
        let large = run(Mode::HatRpc, 256 * 1024);
        assert!(large.mean_ns > small.mean_ns * 2, "{} vs {}", large.mean_ns, small.mean_ns);
    }
}
