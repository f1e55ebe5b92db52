//! `onesided_sweep` — one-sided GET bypass vs plain RPC GETs on the
//! HatKV YCSB benchmark, emitting `BENCH_onesided.json`.
//!
//! ```text
//! onesided_sweep [--check-speedup] [--out PATH] [--metrics-out PATH]
//!                [--clients N] [--records N] [--ops N]
//! ```
//!
//! Runs the HatRPC-Function deployment over two read-side mixes, once
//! with the IDL's `onesided_get` hints stripped (every GET is an RPC the
//! server CPU must serve) and once with them in play (clients resolve
//! GETs with RDMA READs against the server-published index, falling back
//! to RPC on miss or seqlock conflict):
//!
//! * `ycsb-c` — classic YCSB-C (100% GET, Zipfian): the pure-read mix
//!   where bypassing the server shows its full effect. This is the
//!   acceptance mix: the hinted run must reach ≥ 1.5x the ops/sec of the
//!   stripped run.
//! * `ycsb-b` — the paper's workload B' (47.5/2.5/47.5/2.5): writes keep
//!   the index churning under seqlock, so this point shows the bypass
//!   still wins while fallbacks and conflicts are in play.
//!
//! The win is mechanical: an RPC GET costs a request the server must
//! dequeue, decode, execute, and answer — its CPU serializes all
//! clients — while a one-sided GET costs two READs the NIC serves with
//! no server code at all, so client READs overlap freely.
//!
//! `--check-speedup` exits non-zero when the ycsb-c speedup falls below
//! 1.5x — CI runs this as part of the bench-smoke gate.

use hat_bench::{
    flag_value, run_ycsb_sampled, write_artifact, JsonDoc, KvSystem, KvWorkload, YcsbConfig,
    YcsbPoint,
};

const SPEEDUP_FLOOR: f64 = 1.5;
/// hat-metrics sampling interval for each point's fabric.
const SAMPLE_INTERVAL_NS: u64 = 2_000_000;

struct Row {
    workload: KvWorkload,
    onesided: bool,
    point: YcsbPoint,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check-speedup");
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_onesided.json".to_string());
    let metrics_out =
        flag_value(&args, "--metrics-out").unwrap_or_else(|| "METRICS_onesided.json".to_string());
    let clients: usize = flag_value(&args, "--clients").map_or(8, |v| v.parse().expect("int"));
    let records: usize = flag_value(&args, "--records").map_or(1000, |v| v.parse().expect("int"));
    let ops: usize = flag_value(&args, "--ops").map_or(60, |v| v.parse().expect("int"));

    let mut rows = Vec::new();
    let mut metrics = hat_metrics::MetricsDoc::default();
    for workload in [KvWorkload::ReadOnly, KvWorkload::MixB] {
        for onesided in [false, true] {
            let (point, sampler) = run_ycsb_sampled(
                &YcsbConfig {
                    system: KvSystem::HatRpcFunction,
                    workload,
                    clients,
                    records,
                    ops_per_client: ops,
                    shards: 4,
                    commit_cost_ns: None,
                    onesided,
                },
                Some(SAMPLE_INTERVAL_NS),
            );
            let path = if onesided { "onesided" } else { "rpc" };
            let label = format!("{} {path}", workload.label());
            metrics.add(&label, &sampler.expect("sampling requested"));
            eprintln!(
                "onesided_sweep: {:>7} {path:>8}: {:>10.0} ops/s  get {:>7.1} us  mget {:>7.1} us",
                workload.label(),
                point.throughput_ops_s,
                point.mean_us[0],
                point.mean_us[2],
            );
            rows.push(Row { workload, onesided, point });
        }
    }

    let ops_at = |workload: KvWorkload, onesided: bool| -> f64 {
        rows.iter()
            .find(|r| r.workload == workload && r.onesided == onesided)
            .map(|r| r.point.throughput_ops_s)
            .unwrap_or(0.0)
    };
    let read_only_speedup =
        ops_at(KvWorkload::ReadOnly, true) / ops_at(KvWorkload::ReadOnly, false).max(1.0);
    let mix_b_speedup = ops_at(KvWorkload::MixB, true) / ops_at(KvWorkload::MixB, false).max(1.0);

    let path = |row: &Row| if row.onesided { "onesided" } else { "rpc" };
    JsonDoc::new("onesided_sweep")
        .member("clients", clients)
        .member("records", records)
        .member("ops_per_client", ops)
        .rows(
            "results",
            rows.iter().map(|row| {
                format!(
                    "{{\"workload\": \"{}\", \"path\": \"{}\", \"ops_per_sec\": {:.1}, \
                     \"get_mean_us\": {:.1}, \"multiget_mean_us\": {:.1}, \"put_mean_us\": {:.1}}}",
                    row.workload.label(),
                    path(row),
                    row.point.throughput_ops_s,
                    row.point.mean_us[0],
                    row.point.mean_us[2],
                    row.point.mean_us[1],
                )
            }),
        )
        .member("read_only_speedup_onesided_over_rpc", format!("{read_only_speedup:.3}"))
        .member("mix_b_speedup_onesided_over_rpc", format!("{mix_b_speedup:.3}"))
        .write(&out_path);

    write_artifact("onesided_sweep", &metrics_out, &metrics.to_json());
    println!(
        "onesided_sweep: ycsb-c one-sided speedup {read_only_speedup:.2}x, ycsb-b {mix_b_speedup:.2}x"
    );

    if check && read_only_speedup < SPEEDUP_FLOOR {
        eprintln!(
            "onesided_sweep: FAIL — ycsb-c one-sided speedup {read_only_speedup:.2}x is below \
             the {SPEEDUP_FLOOR}x floor"
        );
        std::process::exit(1);
    }
}
