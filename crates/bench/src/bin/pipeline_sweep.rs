//! `pipeline_sweep` — open-loop pipeline depth sweep for the ATB
//! throughput benchmark, emitting `BENCH_pipeline.json`.
//!
//! ```text
//! pipeline_sweep [--check-speedup] [--out PATH] [--metrics-out PATH]
//!                [--payload N] [--clients N] [--iters N] [--time-scale F]
//! ```
//!
//! Sweeps the in-flight window (depth 1, 2, 4, 8, 16) for a 512 B echo
//! with 8 concurrent clients over two stacks:
//!
//! * `eager` — Eager-SendRecv with event polling, pinned via fixed mode
//!   (`HatClient::pinned`; the acceptance configuration: depth 8 must
//!   reach ≥ 2x the ops/sec of depth 1),
//! * `hatrpc` — the hint-driven engine, window negotiated end to end
//!   from the schema's `queue_depth` hint.
//!
//! `--check-speedup` exits non-zero when the eager depth-8 speedup falls
//! below 2x — CI runs this as the bench-smoke gate.

use hat_atb::{run_throughput, Mode, ThroughputConfig, ThroughputResult};
use hat_bench::{flag_value, write_artifact, JsonDoc};
use hat_protocols::ProtocolKind;
use hat_rdma_sim::{Fabric, PollMode, SimConfig};

const DEPTHS: [usize; 5] = [1, 2, 4, 8, 16];
const SPEEDUP_FLOOR: f64 = 2.0;
/// hat-metrics sampling interval for each run's fabric.
const SAMPLE_INTERVAL_NS: u64 = 2_000_000;

struct Row {
    stack: &'static str,
    depth: usize,
    result: ThroughputResult,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check-speedup");
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let metrics_out =
        flag_value(&args, "--metrics-out").unwrap_or_else(|| "METRICS_pipeline.json".to_string());
    let payload: usize = flag_value(&args, "--payload").map_or(512, |v| v.parse().expect("int"));
    let clients: usize = flag_value(&args, "--clients").map_or(8, |v| v.parse().expect("int"));
    let iters: usize = flag_value(&args, "--iters").map_or(128, |v| v.parse().expect("int"));
    let time_scale: f64 =
        flag_value(&args, "--time-scale").map_or(48.0, |v| v.parse().expect("float"));

    // Event polling on the fixed stack: the per-wakeup cost that depth
    // amortizes is exactly what event polling pays per call, so this is
    // where pipelining's win lives (and 8 clients + 8 server threads
    // busy-spinning would oversubscribe small CI runners anyway).
    let stacks: [(&'static str, Mode); 2] = [
        ("eager", Mode::Fixed(ProtocolKind::EagerSendRecv, PollMode::Event)),
        ("hatrpc", Mode::HatRpc),
    ];

    let mut rows = Vec::new();
    let mut metrics = hat_metrics::MetricsDoc::default();
    for (stack, mode) in stacks {
        for depth in DEPTHS {
            // A fresh fabric per run: depth sweeps must not share warmed
            // channels or node CPU accounting. The sweep runs with
            // simulated costs scaled UP (default 48x): on small CI hosts
            // the cluster's 16+ threads time-share a core or two, and at
            // 1x the modelled per-op costs (~7 us round trip) are the
            // same order as the host scheduler's rotation latency,
            // burying the depth-sweep signal in noise. Scaling makes the
            // cost model — whose doorbell and wakeup terms are exactly
            // what pipelining amortizes — dominate the measurement;
            // ratios between depths are what the sweep reports, and the
            // common factor cancels out of them.
            let sim = SimConfig { time_scale, ..SimConfig::default() };
            let fabric = Fabric::new(sim);
            let mut sampler = hat_metrics::Sampler::attach(
                &fabric,
                hat_metrics::SamplerConfig { interval_ns: SAMPLE_INTERVAL_NS, ring_capacity: 512 },
            );
            let cfg = ThroughputConfig { mode, payload, clients, client_nodes: 4, iters, depth };
            let result = run_throughput(&fabric, &cfg).expect("benchmark run");
            sampler.stop();
            metrics.add(&format!("{stack} depth {depth}"), &sampler);
            eprintln!(
                "pipeline_sweep: {stack:>6} depth {depth:>2}: {:>12.0} ops/s  {:>8.1} MB/s",
                result.ops_per_sec, result.mb_per_sec
            );
            rows.push(Row { stack, depth, result });
        }
    }

    let ops = |stack: &str, depth: usize| -> f64 {
        rows.iter()
            .find(|r| r.stack == stack && r.depth == depth)
            .map(|r| r.result.ops_per_sec)
            .unwrap_or(0.0)
    };
    let eager_speedup = ops("eager", 8) / ops("eager", 1).max(1.0);
    let hatrpc_speedup = ops("hatrpc", 8) / ops("hatrpc", 1).max(1.0);

    JsonDoc::new("pipeline_sweep")
        .member("payload", payload)
        .member("clients", clients)
        .member("iters", iters)
        .member("time_scale", time_scale)
        .rows(
            "results",
            rows.iter().map(|row| {
                format!(
                    "{{\"stack\": \"{}\", \"label\": \"{}\", \"depth\": {}, \
                     \"ops_per_sec\": {:.1}, \"mb_per_sec\": {:.3}, \"mean_latency_ns\": {}}}",
                    row.stack,
                    row.result.label,
                    row.depth,
                    row.result.ops_per_sec,
                    row.result.mb_per_sec,
                    row.result.mean_latency_ns,
                )
            }),
        )
        .member("eager_speedup_depth8_over_depth1", format!("{eager_speedup:.3}"))
        .member("hatrpc_speedup_depth8_over_depth1", format!("{hatrpc_speedup:.3}"))
        .write(&out_path);

    write_artifact("pipeline_sweep", &metrics_out, &metrics.to_json());
    println!(
        "pipeline_sweep: eager depth-8 speedup {eager_speedup:.2}x, hatrpc {hatrpc_speedup:.2}x"
    );

    if check && eager_speedup < SPEEDUP_FLOOR {
        eprintln!(
            "pipeline_sweep: FAIL — eager depth-8 speedup {eager_speedup:.2}x is below the \
             {SPEEDUP_FLOOR}x floor"
        );
        std::process::exit(1);
    }
}
