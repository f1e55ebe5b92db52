//! `shard_sweep` — backend shard-count sweep for the HatKV YCSB
//! benchmark, emitting `BENCH_shards.json`.
//!
//! ```text
//! shard_sweep [--check-speedup] [--out PATH] [--metrics-out PATH]
//!             [--clients N] [--records N] [--ops N] [--commit-cost-ns N]
//! ```
//!
//! Sweeps the server-side `shards` hint (1, 2, 4, 8) over two operation
//! mixes on the HatRPC-Function deployment:
//!
//! * `write-heavy` — classic YCSB-A (50% GET / 50% PUT, uniform keys):
//!   every PUT takes a writer lock, so shards=1 serializes all clients on
//!   one lock while shards=8 lets their commit stalls overlap. This is
//!   the acceptance mix: shards=8 must reach ≥ 2x the ops/sec of
//!   shards=1.
//! * `read-heavy` — the paper's workload B' (47.5/2.5/47.5/2.5): reads
//!   never take the writer lock, so sharding should be roughly neutral —
//!   the control that shows the speedup is writer-lock relief, not a
//!   side effect.
//!
//! The modeled per-commit stall is raised (default 2 ms) so writer-lock
//! serialization, not host CPU, dominates: the sweep runs on one-core CI
//! machines where real parallel speedups are impossible, but overlapping
//! *modeled* commit waits on independent shard locks is not — concurrent
//! stalls on different shards overlap in wall time; one shard serializes
//! them, which is exactly the phenomenon sharding removes.
//!
//! `--check-speedup` exits non-zero when the write-heavy shards=8 speedup
//! falls below 2x — CI runs this as part of the bench-smoke gate.

use hat_bench::{
    flag_value, run_ycsb_sampled, write_artifact, JsonDoc, KvSystem, KvWorkload, YcsbConfig,
    YcsbPoint,
};

const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];
const SPEEDUP_FLOOR: f64 = 2.0;
/// hat-metrics sampling interval for each point's fabric.
const SAMPLE_INTERVAL_NS: u64 = 2_000_000;

struct Row {
    workload: KvWorkload,
    shards: u32,
    point: YcsbPoint,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check-speedup");
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_shards.json".to_string());
    let metrics_out =
        flag_value(&args, "--metrics-out").unwrap_or_else(|| "METRICS_shards.json".to_string());
    let clients: usize = flag_value(&args, "--clients").map_or(8, |v| v.parse().expect("int"));
    let records: usize = flag_value(&args, "--records").map_or(1000, |v| v.parse().expect("int"));
    let ops: usize = flag_value(&args, "--ops").map_or(40, |v| v.parse().expect("int"));
    let commit_cost_ns: u64 =
        flag_value(&args, "--commit-cost-ns").map_or(2_000_000, |v| v.parse().expect("int"));

    let mut rows = Vec::new();
    let mut metrics = hat_metrics::MetricsDoc::default();
    for workload in [KvWorkload::WriteHeavy, KvWorkload::MixB] {
        for shards in SHARD_COUNTS {
            let (point, sampler) = run_ycsb_sampled(
                &YcsbConfig {
                    system: KvSystem::HatRpcFunction,
                    workload,
                    clients,
                    records,
                    ops_per_client: ops,
                    shards,
                    commit_cost_ns: Some(commit_cost_ns),
                    // The sweep measures server-side writer-lock relief; keep
                    // GETs on the RPC path so read load still hits the server.
                    onesided: false,
                },
                Some(SAMPLE_INTERVAL_NS),
            );
            let label = format!("{} shards {shards}", workload.label());
            metrics.add(&label, &sampler.expect("sampling requested"));
            let wait_ms: f64 =
                point.shard_stats.iter().map(|s| s.writer_wait_ns).sum::<u64>() as f64 / 1e6;
            eprintln!(
                "shard_sweep: {:>11} shards {shards}: {:>10.0} ops/s  writer-wait {wait_ms:>9.1} ms",
                workload.label(),
                point.throughput_ops_s,
            );
            rows.push(Row { workload, shards, point });
        }
    }

    let ops_at = |workload: KvWorkload, shards: u32| -> f64 {
        rows.iter()
            .find(|r| r.workload == workload && r.shards == shards)
            .map(|r| r.point.throughput_ops_s)
            .unwrap_or(0.0)
    };
    let write_speedup =
        ops_at(KvWorkload::WriteHeavy, 8) / ops_at(KvWorkload::WriteHeavy, 1).max(1.0);
    let read_speedup = ops_at(KvWorkload::MixB, 8) / ops_at(KvWorkload::MixB, 1).max(1.0);

    JsonDoc::new("shard_sweep")
        .member("clients", clients)
        .member("records", records)
        .member("ops_per_client", ops)
        .member("commit_cost_ns", commit_cost_ns)
        .rows(
            "results",
            rows.iter().map(|row| {
                let stats: Vec<String> = row
                    .point
                    .shard_stats
                    .iter()
                    .map(|s| {
                        format!(
                            "{{\"txns\": {}, \"writer_wait_ns\": {}, \"bytes_written\": {}}}",
                            s.commits, s.writer_wait_ns, s.bytes_written
                        )
                    })
                    .collect();
                format!(
                    "{{\"workload\": \"{}\", \"shards\": {}, \"ops_per_sec\": {:.1}, \
                     \"put_mean_us\": {:.1}, \"get_mean_us\": {:.1}, \"shard_stats\": [{}]}}",
                    row.workload.label(),
                    row.shards,
                    row.point.throughput_ops_s,
                    row.point.mean_us[1],
                    row.point.mean_us[0],
                    stats.join(", "),
                )
            }),
        )
        .member("write_heavy_speedup_shards8_over_shards1", format!("{write_speedup:.3}"))
        .member("read_heavy_speedup_shards8_over_shards1", format!("{read_speedup:.3}"))
        .write(&out_path);

    write_artifact("shard_sweep", &metrics_out, &metrics.to_json());
    println!(
        "shard_sweep: write-heavy shards-8 speedup {write_speedup:.2}x, read-heavy {read_speedup:.2}x"
    );

    if check && write_speedup < SPEEDUP_FLOOR {
        eprintln!(
            "shard_sweep: FAIL — write-heavy shards-8 speedup {write_speedup:.2}x is below the \
             {SPEEDUP_FLOOR}x floor"
        );
        std::process::exit(1);
    }
}
