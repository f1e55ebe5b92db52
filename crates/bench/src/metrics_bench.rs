//! Metrics capture harness: run a live micro workload with a hat-metrics
//! sampler attached to its fabric, and export its counter tracks. Backs
//! `repro metrics` and the trace-schema integration test.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hat_metrics::{MetricsDoc, Sampler, SamplerConfig};
use hat_rdma_sim::{Fabric, SimConfig};
use hatrpc_core::engine::HatClient;

use crate::trace_bench::serve_micro;

/// Result of a sampled micro run.
pub struct MicroMetrics {
    /// The sampled series as Perfetto counter tracks (the
    /// `METRICS_*.json` trace-event document), processes named
    /// `"micro {node}"`.
    pub json: String,
    /// The sampler's in-memory node histories the document was written
    /// from.
    pub nodes: Vec<hat_metrics::NodeTimeline>,
    /// Sampling ticks the run took.
    pub ticks: u64,
    /// Ops the load loop completed (for reconciling against the
    /// client's `calls_ok` total).
    pub ops: u64,
}

/// Serve the micro workload, run a load loop against it under sampling,
/// and export everything. The interval is fast, so even a short run
/// yields a real timeline.
///
/// The process-global histogram registry is reset up front: concurrent
/// captures in one process would interleave, so callers (tests, `repro`)
/// run this alone.
pub fn capture_micro_metrics() -> MicroMetrics {
    hat_trace::hist::reset();
    let fabric = Fabric::new(SimConfig::fast_test());
    let (server, schema) = serve_micro(&fabric);
    let mut sampler =
        Sampler::attach(&fabric, SamplerConfig { interval_ns: 500_000, ..Default::default() });
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let cnode = fabric.add_node("client");
            let mut client = HatClient::new(&fabric, &cnode, "micro", &schema);
            let piped: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 128]).collect();
            let mut ops = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for i in 0..4u8 {
                    if client.call("echo", &vec![i; 256]).is_ok() {
                        ops += 1;
                    }
                }
                if let Ok(responses) = client.call_many("piped", &piped) {
                    ops += responses.len() as u64;
                }
            }
            ops
        })
    };
    // Let the load loop span enough intervals for a timeline; bounded so
    // a loaded host can't hang the capture.
    let deadline = Instant::now() + Duration::from_secs(5);
    while sampler.ticks() < 24 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    let ops = worker.join().expect("load thread");
    server.shutdown();
    // Last: a final tail tick now sees every counter the serving threads
    // bumped on their way out.
    sampler.stop();
    let mut doc = MetricsDoc::default();
    doc.add("micro", &sampler);
    MicroMetrics {
        json: doc.to_json(),
        nodes: sampler.node_timelines(),
        ticks: sampler.ticks(),
        ops,
    }
}
