//! Metrics capture harness: run a live micro workload with a hat-metrics
//! sampler attached to its fabric, and export its counter tracks and
//! `repro top` frames. Backs `repro metrics` / `repro top` and the
//! trace-schema integration test.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hat_metrics::{MetricsDoc, Sampler, SamplerConfig, SloSpec};
use hat_rdma_sim::{Fabric, SimConfig};
use hatrpc_core::engine::{HatClient, HatServer};

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
    /// One rendered `repro top` frame of the final state.
    pub top: String,
    /// Sampling ticks the run took.
    pub ticks: u64,
    /// Ops the load loop completed (for reconciling against the
    /// client's `calls_ok` total).
    pub ops: u64,
}

/// A served micro deployment with a background load loop, and the
/// sampler watching its fabric.
struct LiveMicro {
    server: HatServer,
    sampler: Sampler,
    stop: Arc<AtomicBool>,
    worker: std::thread::JoinHandle<u64>,
}

/// Start the deployment and attach a sampler to its fabric.
fn start_live(cfg: SamplerConfig) -> LiveMicro {
    hat_trace::hist::reset();
    let fabric = Fabric::new(SimConfig::fast_test());
    let (server, schema) = serve_micro(&fabric);
    let sampler = Sampler::attach(&fabric, cfg);
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
    LiveMicro { server, sampler, stop, worker }
}

/// The micro capture's sampler configuration: a fast interval so even a
/// short run yields a real timeline, and two SLOs — a loose echo target
/// that should hold, and a deliberately impossible 1 ns target on the
/// pipelined function so the capture always exercises the breach path.
fn micro_config() -> SamplerConfig {
    SamplerConfig {
        interval_ns: 500_000,
        slos: vec![
            SloSpec::p99("echo", 50_000_000),
            SloSpec {
                fn_scope: "piped".into(),
                p99_target_ns: 1,
                window_samples: 8,
                bad_fraction_budget: 0.01,
            },
        ],
        ..Default::default()
    }
}

/// Run the micro workload under sampling and export everything.
///
/// The process-global histogram registry is reset up front: concurrent
/// captures in one process would interleave, so callers (tests, `repro`)
/// run this alone.
pub fn capture_micro_metrics() -> MicroMetrics {
    let LiveMicro { server, mut sampler, stop, worker } = start_live(micro_config());
    // Let the load loop span enough intervals for trends and the SLO
    // window; bounded so a loaded host can't hang the capture.
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
        top: sampler.render_top(),
        ticks: sampler.ticks(),
        ops,
    }
}

/// Serve the micro workload and render `frames` dashboard frames,
/// `interval` apart, from the live sampler. Returns the frames.
pub fn top_frames(frames: usize, interval: Duration) -> Vec<String> {
    let live = start_live(micro_config());
    let mut out = Vec::with_capacity(frames);
    for _ in 0..frames {
        std::thread::sleep(interval);
        out.push(live.sampler.render_top());
    }
    live.stop.store(true, Ordering::Relaxed);
    let _ = live.worker.join();
    live.server.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_frames_render_live_rows() {
        let frames = top_frames(2, Duration::from_millis(20));
        assert_eq!(frames.len(), 2);
        let last = &frames[1];
        assert!(last.contains("NODE"), "header row present: {last}");
        assert!(last.contains("server"), "server node row present: {last}");
    }
}
