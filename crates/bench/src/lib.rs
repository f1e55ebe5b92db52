//! # hat-bench — the figure-regeneration harness
//!
//! One runner per figure of the paper's evaluation (§5), and one table of
//! the design ablations, each printed by the `repro` binary as a
//! paper-style table on stdout. Default parameters are scaled for a
//! laptop-class simulator run; `Scale::Full` grows client counts and data
//! sizes toward the paper's (still bounded — a 512-client sweep on one
//! machine is slow, not impossible).
//!
//! | Runner | Paper figure |
//! |---|---|
//! | [`fig04_protocol_latency`] | Fig. 4 — 9 protocols × payload × polling, latency |
//! | [`fig05_protocol_throughput`] | Fig. 5 — protocols × clients, throughput |
//! | [`fig11_atb_latency`] | Fig. 11 — service-level hints, latency |
//! | [`fig12_atb_throughput`] | Fig. 12 — service-level hints, throughput |
//! | [`fig13_mix`]/[`fig14_mix`] | Figs. 13/14 — function-level hints, mixed RPCs |
//! | [`fig15_ycsb`]/[`fig16_ycsb`] | Figs. 15/16 — HatKV vs comparators on YCSB |
//! | [`fig17_tpch`] | Fig. 17 — TPC-H over three transports |
//! | [`micro_section3`] | §3.2 claims — CPU and in/out-bound asymmetry |
//! | [`ablations`] | DESIGN §4 — chaining, eager threshold, NUMA, hint dispatch |

pub mod metrics_bench;
pub mod protocol_bench;
pub mod table;
pub mod trace_bench;
pub mod ycsb_bench;

use std::sync::Arc;

use hat_atb::{LatencyConfig, Mode, ThroughputConfig};
use hat_protocols::{ProtocolConfig, ProtocolKind};
use hat_rdma_sim::{numa, Fabric, PollMode, SimConfig};
use hat_tpch::{ClusterConfig, TpchCluster, TransportMode};
use hatrpc_core::engine::{HandlerFactory, HatClient, HatServer, ServerPolicy};
use hatrpc_core::service::ServiceSchema;

pub use metrics_bench::{capture_micro_metrics, MicroMetrics};
pub use protocol_bench::{raw_latency, raw_throughput, RawLatencyPoint, RawThroughputPoint};
pub use table::Table;
pub use trace_bench::{capture_micro_trace, MicroTrace};
pub use ycsb_bench::{run_ycsb, run_ycsb_sampled, KvSystem, KvWorkload, YcsbConfig, YcsbPoint};

/// Sweep size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale defaults.
    Quick,
    /// Larger sweeps approaching the paper's axes.
    Full,
}

impl Scale {
    /// `quick` at [`Scale::Quick`], `full` at [`Scale::Full`].
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// The argument after flag `name` in `args`, if both are there.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// A sweep's JSON document, laid out as every `BENCH_*.json` and
/// `METRICS_*.json` is: `"bench"` first, then one member per line, an
/// array member one element per line. Values are JSON text.
pub struct JsonDoc {
    sweep: &'static str,
    members: Vec<String>,
}

impl JsonDoc {
    /// A document of `sweep`'s, its `"bench"` member set.
    pub fn new(sweep: &'static str) -> JsonDoc {
        JsonDoc { sweep, members: vec![format!("  \"bench\": \"{sweep}\"")] }
    }

    /// Add `"name": value`.
    pub fn member(mut self, name: &str, value: impl std::fmt::Display) -> JsonDoc {
        self.members.push(format!("  \"{name}\": {value}"));
        self
    }

    /// Add `"name": [...]`, one element per line.
    pub fn rows(self, name: &str, items: impl IntoIterator<Item = String>) -> JsonDoc {
        let items: Vec<String> = items.into_iter().map(|item| format!("    {item}")).collect();
        self.member(name, format!("[\n{}\n  ]", items.join(",\n")))
    }

    /// Write the document to `path`, and say so on stdout.
    pub fn write(self, path: &str) {
        write_artifact(self.sweep, path, &format!("{{\n{}\n}}\n", self.members.join(",\n")));
    }
}

/// Write one of `sweep`'s files (a `BENCH_*.json`, or its `METRICS_*.json`
/// trace-event document) to `path`, and say so on stdout.
pub fn write_artifact(sweep: &str, path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("{sweep}: write {path}: {e}"));
    println!("{sweep}: wrote {path}");
}

/// The nine protocols of Figure 3/4 (HERD and the hybrid are §5-only).
pub fn figure4_protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::EagerSendRecv,
        ProtocolKind::DirectWriteSend,
        ProtocolKind::ChainedWriteSend,
        ProtocolKind::WriteRndv,
        ProtocolKind::ReadRndv,
        ProtocolKind::DirectWriteImm,
        ProtocolKind::Pilaf,
        ProtocolKind::Farm,
        ProtocolKind::Rfp,
    ]
}

/// Fig. 4: protocol latency across payload sizes and polling modes.
pub fn fig04_protocol_latency(scale: Scale) -> Table {
    let sizes: Vec<usize> =
        scale.pick(vec![16, 512, 4096, 65536], vec![4, 64, 512, 4096, 32768, 131072, 524288]);
    let iters = scale.pick(20, 50);
    let mut table = Table::new(
        "Figure 4 — RPC-like latency of RDMA protocols (us)",
        &["protocol", "polling", "size(B)", "mean(us)", "p99(us)"],
    );
    for kind in figure4_protocols() {
        for poll in [PollMode::Busy, PollMode::Event] {
            for &size in &sizes {
                let p = raw_latency(kind, poll, size, iters);
                table.row(vec![
                    kind.label().to_string(),
                    format!("{poll:?}"),
                    size.to_string(),
                    format!("{:.2}", p.mean_ns as f64 / 1000.0),
                    format!("{:.2}", p.p99_ns as f64 / 1000.0),
                ]);
            }
        }
    }
    table
}

/// Fig. 5: protocol throughput across client counts.
pub fn fig05_protocol_throughput(scale: Scale) -> Table {
    let clients: Vec<usize> = scale.pick(vec![1, 4, 16, 32], vec![1, 4, 16, 32, 64, 128]);
    let sizes = [512usize, 131072];
    let iters = scale.pick(10, 24);
    // The head-to-head subset the paper's Figure 5 highlights.
    let protocols = [
        ProtocolKind::EagerSendRecv,
        ProtocolKind::DirectWriteSend,
        ProtocolKind::DirectWriteImm,
        ProtocolKind::WriteRndv,
        ProtocolKind::Rfp,
    ];
    let mut table = Table::new(
        "Figure 5 — aggregated throughput of RDMA protocols (Kops/s)",
        &["protocol", "polling", "size(B)", "clients", "kops/s"],
    );
    for kind in protocols {
        for poll in [PollMode::Busy, PollMode::Event] {
            for &size in &sizes {
                for &n in &clients {
                    let p = raw_throughput(kind, poll, size, n, iters);
                    table.row(vec![
                        kind.label().to_string(),
                        format!("{poll:?}"),
                        size.to_string(),
                        n.to_string(),
                        format!("{:.2}", p.ops_per_sec / 1000.0),
                    ]);
                }
            }
        }
    }
    table
}

/// HatRPC, then the four baselines Figures 11–14 plot against it.
fn atb_modes() -> Vec<Mode> {
    vec![
        Mode::HatRpc,
        Mode::Fixed(ProtocolKind::HybridEagerRndv, PollMode::Busy),
        Mode::Fixed(ProtocolKind::DirectWriteSend, PollMode::Busy),
        Mode::Fixed(ProtocolKind::DirectWriteImm, PollMode::Busy),
        Mode::Fixed(ProtocolKind::Rfp, PollMode::Busy),
    ]
}

/// Fig. 11: ATB latency — HatRPC (service-level hints) vs baselines.
pub fn fig11_atb_latency(scale: Scale) -> Table {
    let sizes: Vec<usize> =
        scale.pick(vec![64, 512, 4096, 65536], vec![4, 64, 512, 4096, 32768, 131072, 524288]);
    let iters = scale.pick(20, 50);
    let mut table = Table::new(
        "Figure 11 — ATB latency with service-level hints (us)",
        &["stack", "size(B)", "mean(us)", "p99(us)"],
    );
    for mode in atb_modes() {
        for &size in &sizes {
            let fabric = Fabric::new(SimConfig::default());
            let r = hat_atb::run_latency(
                &fabric,
                &LatencyConfig { mode, payload: size, warmup: 4, iters },
            )
            .expect("latency run");
            table.row(vec![
                r.label,
                size.to_string(),
                format!("{:.2}", r.mean_ns as f64 / 1000.0),
                format!("{:.2}", r.p99_ns as f64 / 1000.0),
            ]);
        }
    }
    table
}

/// Fig. 12: ATB throughput — HatRPC vs baselines across client counts.
pub fn fig12_atb_throughput(scale: Scale) -> Table {
    let clients: Vec<usize> = scale.pick(vec![1, 8, 24], vec![1, 4, 16, 32, 64]);
    let iters = scale.pick(10, 24);
    let mut table = Table::new(
        "Figure 12 — ATB throughput with service-level hints (Kops/s)",
        &["stack", "size(B)", "clients", "kops/s"],
    );
    for mode in atb_modes() {
        for size in [512usize, 131072] {
            for &n in &clients {
                let fabric = Fabric::new(SimConfig::default());
                let r = hat_atb::run_throughput(
                    &fabric,
                    &ThroughputConfig {
                        mode,
                        payload: size,
                        clients: n,
                        client_nodes: n.clamp(1, 4),
                        iters,
                        depth: 1,
                    },
                )
                .expect("throughput run");
                table.row(vec![
                    r.label,
                    size.to_string(),
                    n.to_string(),
                    format!("{:.2}", r.ops_per_sec / 1000.0),
                ]);
            }
        }
    }
    table
}

fn fig_mix(scale: Scale, payload: usize, title: &str) -> Table {
    let clients: Vec<usize> = scale.pick(vec![2, 8], vec![2, 8, 16, 32]);
    let iters = scale.pick(16, 32);
    let mut table =
        Table::new(title, &["stack", "clients", "fast mean(us)", "fast p99(us)", "bulk kops/s"]);
    for mode in atb_modes() {
        for &n in &clients {
            let fabric = Fabric::new(SimConfig::default());
            let r = hat_atb::run_mix(
                &fabric,
                &hat_atb::MixConfig {
                    mode,
                    payload,
                    clients: n,
                    client_nodes: n.clamp(1, 4),
                    iters,
                    fast_ratio: 0.5,
                },
            )
            .expect("mix run");
            table.row(vec![
                r.label,
                n.to_string(),
                format!("{:.2}", r.fast_mean_ns as f64 / 1000.0),
                format!("{:.2}", r.fast_p99_ns as f64 / 1000.0),
                format!("{:.2}", r.bulk_ops_per_sec / 1000.0),
            ]);
        }
    }
    table
}

/// Fig. 13: mixed-function benchmark at 512 B.
pub fn fig13_mix(scale: Scale) -> Table {
    fig_mix(scale, 512, "Figure 13 — mix benchmark, 512 B payloads (function-level hints)")
}

/// Fig. 14: mixed-function benchmark at 128 KB.
pub fn fig14_mix(scale: Scale) -> Table {
    fig_mix(scale, 131072, "Figure 14 — mix benchmark, 128 KB payloads (function-level hints)")
}

fn fig_ycsb(scale: Scale, workload: KvWorkload, title: &str) -> Table {
    let (clients, records, ops) = scale.pick((8, 2_000, 40), (32, 20_000, 150));
    let mut table =
        Table::new(title, &["system", "kops/s", "Get us", "Put us", "MGet us", "MPut us"]);
    for system in KvSystem::ALL {
        let r = run_ycsb(&YcsbConfig {
            system,
            workload,
            clients,
            records,
            ops_per_client: ops,
            shards: 4,
            commit_cost_ns: None,
            onesided: true,
        });
        table.row(vec![
            system.label().to_string(),
            format!("{:.2}", r.throughput_ops_s / 1000.0),
            format!("{:.1}", r.mean_us[0]),
            format!("{:.1}", r.mean_us[1]),
            format!("{:.1}", r.mean_us[2]),
            format!("{:.1}", r.mean_us[3]),
        ]);
    }
    table
}

/// Fig. 15: YCSB workload A' (25/25/25/25) across the six systems.
pub fn fig15_ycsb(scale: Scale) -> Table {
    fig_ycsb(scale, KvWorkload::MixA, "Figure 15 — HatKV vs comparators, YCSB-A (25/25/25/25)")
}

/// Fig. 16: YCSB workload B' (47.5/2.5/47.5/2.5) across the six systems.
pub fn fig16_ycsb(scale: Scale) -> Table {
    fig_ycsb(
        scale,
        KvWorkload::MixB,
        "Figure 16 — HatKV vs comparators, YCSB-B (47.5/2.5/47.5/2.5)",
    )
}

/// Fig. 17: the 22 TPC-H queries over the three transports.
pub fn fig17_tpch(scale: Scale) -> Table {
    let cfg = scale.pick(
        ClusterConfig { sf: 0.004, workers: 3, seed: 7 },
        ClusterConfig { sf: 0.02, workers: 6, seed: 7 },
    );
    let mut table = Table::new(
        "Figure 17 — TPC-H query times (ms) by transport",
        &["query", "Thrift/IPoIB", "HatRPC-Service", "HatRPC-Function", "F-speedup"],
    );
    let mut all: Vec<Vec<u64>> = Vec::new();
    for mode in [TransportMode::Ipoib, TransportMode::HatRpcService, TransportMode::HatRpcFunction]
    {
        let fabric = Fabric::new(SimConfig::default());
        let mut cluster = TpchCluster::start(&fabric, &cfg, mode);
        let rows = cluster.run_all().expect("tpch run");
        all.push(rows.iter().map(|(_, _, ns)| *ns).collect());
        cluster.shutdown();
    }
    let mut totals = [0u64; 3];
    for q in 0..22 {
        for (t, col) in totals.iter_mut().zip(&all) {
            *t += col[q];
        }
        table.row(vec![
            format!("Q{}", q + 1),
            format!("{:.2}", all[0][q] as f64 / 1e6),
            format!("{:.2}", all[1][q] as f64 / 1e6),
            format!("{:.2}", all[2][q] as f64 / 1e6),
            format!("{:.2}x", all[0][q] as f64 / all[2][q].max(1) as f64),
        ]);
    }
    table.row(vec![
        "TOTAL".to_string(),
        format!("{:.2}", totals[0] as f64 / 1e6),
        format!("{:.2}", totals[1] as f64 / 1e6),
        format!("{:.2}", totals[2] as f64 / 1e6),
        format!("{:.2}x", totals[0] as f64 / totals[2].max(1) as f64),
    ]);
    table
}

/// §3.2 micro-claims: polling CPU cost and the in-bound/out-bound RDMA
/// asymmetry, read off the simulator's counters.
pub fn micro_section3() -> Table {
    let mut table =
        Table::new("Section 3.2 micro-measurements", &["measurement", "busy", "event", "note"]);
    // CPU burned for a fixed number of echoes, busy vs event polling.
    let cpu_for = |poll: PollMode| {
        let fabric = Fabric::new(SimConfig::default());
        let r = hat_atb::run_latency(
            &fabric,
            &LatencyConfig {
                mode: Mode::Fixed(ProtocolKind::EagerSendRecv, poll),
                payload: 4096,
                warmup: 2,
                iters: 24,
            },
        )
        .expect("latency run");
        let cpu: u64 = fabric.stats().total_cpu_busy_ns();
        (r.mean_ns, cpu)
    };
    let (lat_busy, cpu_busy) = cpu_for(PollMode::Busy);
    let (lat_event, cpu_event) = cpu_for(PollMode::Event);
    table.row(vec![
        "echo latency (us)".to_string(),
        format!("{:.2}", lat_busy as f64 / 1000.0),
        format!("{:.2}", lat_event as f64 / 1000.0),
        "event polling trades latency...".to_string(),
    ]);
    table.row(vec![
        "CPU busy (us total)".to_string(),
        format!("{:.2}", cpu_busy as f64 / 1000.0),
        format!("{:.2}", cpu_event as f64 / 1000.0),
        "...for far less CPU".to_string(),
    ]);

    // In-bound vs out-bound RDMA: server-bypass READ polling puts the
    // work on the initiator.
    let fabric = Fabric::new(SimConfig::default());
    let cfg = protocol_bench::cfg_for(512, PollMode::Busy);
    let _ = protocol_bench::raw_latency_impl(&fabric, ProtocolKind::Rfp, cfg, 512, 16);
    let stats = fabric.stats();
    let (mut inbound, mut outbound) = (0, 0);
    for (name, s) in &stats.nodes {
        if name.contains("server") {
            inbound += s.inbound_rdma;
            outbound += s.outbound_rdma;
        }
    }
    table.row(vec![
        "RFP server in/out-bound RDMA".to_string(),
        inbound.to_string(),
        outbound.to_string(),
        "server serves in-bound ops only".to_string(),
    ]);
    table
}

/// DESIGN §4's ablations, each isolating one component cost on the raw
/// echo runner of Figure 4: the doorbell chaining saves, the eager copy
/// against the rendezvous round trip, the NUMA hop, and hint dispatch.
pub fn ablations() -> Table {
    const ITERS: usize = 200;
    let mut table = Table::new(
        "Design ablations (DESIGN §4) — one component cost at a time",
        &["ablation", "variant", "mean(us)", "p99(us)", "doorbells/call"],
    );
    let mut row = |ablation: &str, variant: String, p: RawLatencyPoint| {
        table.row(vec![
            ablation.to_string(),
            variant,
            format!("{:.2}", p.mean_ns as f64 / 1000.0),
            format!("{:.2}", p.p99_ns as f64 / 1000.0),
            format!("{:.2}", p.doorbells as f64 / ITERS as f64),
        ]);
    };
    let raw = |kind, cfg, size| {
        let fabric = Fabric::new(SimConfig::default());
        protocol_bench::raw_latency_impl(&fabric, kind, cfg, size, ITERS)
    };

    // #1: a WRITE and a SEND under one doorbell or two, 256 B.
    for kind in [ProtocolKind::DirectWriteSend, ProtocolKind::ChainedWriteSend] {
        let p = raw(kind, protocol_bench::cfg_for(256, PollMode::Busy), 256);
        row("WR chaining, 256 B", kind.label().to_string(), p);
    }
    // #2: an 8 KiB payload copied eagerly or sent by rendezvous.
    for threshold in [1024, 4096, 16384] {
        let cfg = ProtocolConfig {
            eager_threshold: threshold,
            ..protocol_bench::cfg_for(8192, PollMode::Busy)
        };
        let p = raw(ProtocolKind::HybridEagerRndv, cfg, 8192);
        row("eager threshold, 8 KiB", format!("threshold {} KiB", threshold / 1024), p);
    }
    // The NUMA-binding hint (§5.5): the calling thread on the NIC's
    // socket, on the far one, or on neither (the blended cross-socket
    // factor).
    let cfg = protocol_bench::cfg_for(512, PollMode::Busy);
    for (variant, core) in
        [("bound to core 0", Some(0)), ("bound to core 27", Some(27)), ("unbound", None)]
    {
        let _bind = core.map(numa::bind_current_thread);
        let p = raw(ProtocolKind::DirectWriteImm, cfg.clone(), 512);
        row("NUMA binding, 512 B", variant.to_string(), p);
    }
    // #5: the engine's per-function plan lookup against the protocol it
    // selects, called directly.
    row(
        "hint dispatch, 256 B",
        "hinted HatClient::call".to_string(),
        hinted_call_latency(256, ITERS),
    );
    let p = raw(ProtocolKind::DirectWriteImm, protocol_bench::cfg_for(256, PollMode::Busy), 256);
    row("hint dispatch, 256 B", ProtocolKind::DirectWriteImm.label().to_string(), p);
    table
}

/// [`raw_latency`]'s measurement of a `HatClient::call` echo whose hints
/// (`perf_goal = latency`) select Direct-WriteIMM with busy polling.
fn hinted_call_latency(size: usize, iters: usize) -> RawLatencyPoint {
    let idl =
        r#"service E { hint: perf_goal = latency, payload_size = 512; binary f(1: binary p) }"#;
    let schema = ServiceSchema::parse(idl, "E").expect("idl");
    let fabric = Fabric::new(SimConfig::default());
    let snode = fabric.add_node("hint-server");
    let echo: HandlerFactory = Arc::new(|| Box::new(|req: &[u8]| req.to_vec()));
    let server =
        HatServer::serve(&fabric, &snode, "e", schema.clone(), ServerPolicy::Threaded, echo);
    let cnode = fabric.add_node("hint-client");
    let mut client = HatClient::new(&fabric, &cnode, "e", &schema);
    let payload = vec![0x7Eu8; size];
    let point = protocol_bench::time_calls(&[&cnode, &snode], iters, || {
        client.call("f", &payload).expect("call");
    });
    drop(client);
    server.shutdown();
    point
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig04_subset_runs() {
        // One protocol, one point — the full table is exercised by repro.
        let p = raw_latency(ProtocolKind::DirectWriteImm, PollMode::Busy, 512, 8);
        assert!(p.mean_ns > 0);
    }

    #[test]
    fn ablations_table_has_a_row_per_variant() {
        // 2 chaining + 3 thresholds + 3 bindings + 2 dispatch paths.
        let t = ablations();
        assert_eq!(t.rows().len(), 10);
    }

    #[test]
    fn micro_table_has_rows() {
        let t = micro_section3();
        assert_eq!(t.rows().len(), 3);
    }
}
