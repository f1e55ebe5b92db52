//! The metric tables: what the harness emits, in which unit, which way is
//! better, and — for layer metrics — which layer it measures and which
//! end-to-end metric on which workload it should move. `BENCHMARK.json`
//! repeats names, units, directions and bounds; a self-test keeps the two
//! in step.

use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// Every workload reports every one of these, and none is ever 0.
///
/// The bounds are three times the widest spread between ten runs of one
/// commit seen on this shared 2-core host in its noisy hours (throughput
/// 8.2 %, CPU 7.7 %, latency 7.1 %, RSS under 2 %), capped at the 25 % a
/// bound may be: a smaller change cannot be told from the neighbours'
/// load in ten runs of twenty seconds.
/// `failed_ops_ratio`, which should always be 0, travels beside them as the
/// `failed` / `attempted` counts of each run.
pub const END_TO_END: [EndToEnd; 5] = [
    end_to_end("setup_s", "s", Better::Lower, 0.25),
    end_to_end("throughput_ops_s", "1/s", Better::Higher, 0.25),
    end_to_end("latency_p50_us", "us", Better::Lower, 0.22),
    end_to_end("cpu_us_per_op", "us", Better::Lower, 0.25),
    end_to_end("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The repo module the metric measures.
    pub layer: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, layer, moves }
}

use Better::{Higher, Lower};

const SETUP: &str = "setup_s, all workloads";
const SMALL_LAT: &str = "latency_p50_us on rpc_small";
const LARGE_THR: &str = "throughput_ops_s on rpc_large (flat on rpc_small)";
const PIPE_THR: &str = "throughput_ops_s on rpc_pipelined";
const PIPE_ONLY: &str = "throughput_ops_s on rpc_pipelined only (0 elsewhere)";
const RPC_ALL: &str =
    "latency_p50_us on rpc_small, throughput_ops_s on rpc_large and rpc_pipelined";
const KV_CLASS: &str =
    "the matching client.*_p50_us, then latency_p50_us, on kv_mixed (flat on kv_read)";
const READER: &str =
    "throughput_ops_s and latency_p50_us on kv_read, client.get_p50_us on kv_mixed";
const WRITER: &str = "client.put_p50_us and client.multiput_p50_us on kv_mixed (flat on kv_read)";
const FLOOR: &str = "every latency metric; the floor under rpc_small and kv_read";
const KVDB: &str =
    "client.put_p50_us, client.multiput_p50_us, throughput_ops_s on kv_mixed (flat on kv_read, rpc_*)";
const OBSERVE: &str = "throughput_ops_s must not move when observability code changes while off";
const KV_OPS: &str =
    "latency_p50_us and throughput_ops_s on kv_mixed (0 where no such op is issued)";
const PROCESS: &str = "throughput_ops_s and cpu_us_per_op of the workload being run";
const SPANS: &str = "where the traced windows' op time went, per op of the workload being run";

pub const PER_LAYER: &[PerLayer] = &[
    layer("idl.parse_us", "us", Lower, "idl", SETUP),
    layer("selection.resolve_ns", "ns", Lower, "core.selection", SETUP),
    layer("codec.encode_ns.echo64", "ns", Lower, "core.codec", SMALL_LAT),
    layer("codec.decode_ns.echo64", "ns", Lower, "core.codec", SMALL_LAT),
    layer("codec.allocs_per_msg.echo64", "count", Lower, "core.codec", SMALL_LAT),
    layer("codec.encode_ns.echo256k", "ns", Lower, "core.codec", LARGE_THR),
    layer("codec.decode_ns.echo256k", "ns", Lower, "core.codec", LARGE_THR),
    layer("codec.alloc_bytes_per_msg.echo256k", "B", Lower, "core.codec", LARGE_THR),
    layer(
        "codec.roundtrip_ns.mget10",
        "ns",
        Lower,
        "core.codec",
        "client.multiget_p50_us on kv_mixed",
    ),
    layer("dispatch.handle_ns.echo64", "ns", Lower, "core.dispatch", SMALL_LAT),
    layer("dispatch.handle_ns.echo256k", "ns", Lower, "core.dispatch", LARGE_THR),
    layer("hatkv.handle_ns.get", "ns", Lower, "hatkv", KV_CLASS),
    layer("hatkv.handle_ns.put", "ns", Lower, "hatkv", KV_CLASS),
    layer("hatkv.handle_ns.multiget", "ns", Lower, "hatkv", KV_CLASS),
    layer("hatkv.handle_ns.multiput", "ns", Lower, "hatkv", KV_CLASS),
    layer("engine.call_ns.echo64", "ns", Lower, "core.engine", SMALL_LAT),
    layer("engine.overhead_ns.echo64", "ns", Lower, "core.engine", SMALL_LAT),
    layer("engine.call_self_ns", "ns", Lower, "core.engine", RPC_ALL),
    layer("engine.calls_retried", "count", Lower, "core.engine", "failed ops; must be 0"),
    layer("engine.calls_failed", "count", Lower, "core.engine", "failed ops; must be 0"),
    layer("reactor.wakeups_per_kop", "count", Lower, "core.reactor", PIPE_ONLY),
    layer("reactor.resumes_per_wakeup", "count", Higher, "core.reactor", PIPE_ONLY),
    layer("reactor.parked_hwm", "count", Higher, "core.reactor", PIPE_ONLY),
    layer("protocols.rtt_ns.write_imm.64", "ns", Lower, "protocols", SMALL_LAT),
    layer("protocols.rtt_ns.write_rndv.256k", "ns", Lower, "protocols", LARGE_THR),
    layer("protocols.doorbells_per_op", "count", Lower, "protocols", RPC_ALL),
    layer("protocols.wrs_per_op", "count", Lower, "protocols", RPC_ALL),
    layer("protocols.memcpys_per_op", "count", Lower, "protocols", RPC_ALL),
    layer("protocols.wire_bytes_per_payload_byte", "B/B", Lower, "protocols", LARGE_THR),
    layer("protocols.pipeline_doorbells_per_call", "count", Lower, "protocols", PIPE_THR),
    layer("protocols.inflight_hwm", "count", Higher, "protocols", PIPE_THR),
    layer("onesided.reader_get_ns", "ns", Lower, "protocols.onesided", READER),
    layer("onesided.apply_put_ns", "ns", Lower, "protocols.onesided", WRITER),
    layer("onesided.hit_ratio", "ratio", Higher, "protocols.onesided", READER),
    layer("onesided.fallbacks_per_kop", "count", Lower, "protocols.onesided", READER),
    layer("onesided.conflicts_per_kop", "count", Lower, "protocols.onesided", READER),
    layer("verbs.post_send_ns", "ns", Lower, "rdma-sim", FLOOR),
    layer("verbs.write_imm_rtt_ns.64", "ns", Lower, "rdma-sim", FLOOR),
    layer("verbs.read_rtt_ns.1k", "ns", Lower, "rdma-sim", FLOOR),
    layer("verbs.sim_overhead_ratio", "ratio", Lower, "rdma-sim", FLOOR),
    layer("verbs.cpu_busy_ns_per_op", "ns", Lower, "rdma-sim", FLOOR),
    layer("verbs.completions_per_op", "count", Lower, "rdma-sim", FLOOR),
    layer("verbs.rnr_stalls", "count", Lower, "rdma-sim", FLOOR),
    layer("kvdb.get_ns", "ns", Lower, "kvdb", KVDB),
    layer("kvdb.put_ns", "ns", Lower, "kvdb", KVDB),
    layer("kvdb.multi_get_ns.10", "ns", Lower, "kvdb", KVDB),
    layer("kvdb.multi_put_ns.10", "ns", Lower, "kvdb", KVDB),
    layer("kvdb.put_observed_ns", "ns", Lower, "kvdb", KVDB),
    layer("kvdb.txn_multi_put_ns.10", "ns", Lower, "kvdb", KVDB),
    layer("kvdb.wal_put_ns", "ns", Lower, "kvdb", KVDB),
    layer("kvdb.wal_bytes_per_user_byte", "B/B", Lower, "kvdb", KVDB),
    layer("kvdb.txns_per_write_op", "count", Lower, "kvdb", KVDB),
    layer("kvdb.writer_wait_ns_per_write_op", "ns", Lower, "kvdb", KVDB),
    layer("kvdb.bytes_written_per_user_byte", "B/B", Lower, "kvdb", KVDB),
    layer("trace.on_throughput_ratio", "ratio", Higher, "trace", OBSERVE),
    layer("metrics.sampler_on_throughput_ratio", "ratio", Higher, "metrics", OBSERVE),
    layer("client.get_p50_us", "us", Lower, "process", KV_OPS),
    layer("client.put_p50_us", "us", Lower, "process", KV_OPS),
    layer("client.multiget_p50_us", "us", Lower, "process", KV_OPS),
    layer("client.multiput_p50_us", "us", Lower, "process", KV_OPS),
    layer("client.latency_p99_us", "us", Lower, "process", PROCESS),
    layer("client.latency_max_us", "us", Lower, "process", PROCESS),
    layer("process.allocs_per_op", "count", Lower, "process", PROCESS),
    layer("process.alloc_bytes_per_op", "B", Lower, "process", PROCESS),
    layer("loadgen.ns_per_op", "ns", Lower, "benchmark", PROCESS),
    layer("bench.span_overhead_ratio", "ratio", Higher, "benchmark", PROCESS),
    layer("span.op_mean_ns", "ns", Lower, "benchmark", SPANS),
    layer("span.bench_op_self_ns", "ns", Lower, "benchmark", SPANS),
    layer("span.codec_encode_self_ns", "ns", Lower, "core.codec", SPANS),
    layer("span.codec_decode_self_ns", "ns", Lower, "core.codec", SPANS),
    layer("span.server_handler_self_ns", "ns", Lower, "core.dispatch", SPANS),
    layer("span.kv_stub_self_ns", "ns", Lower, "hatkv", SPANS),
    layer("span.residual_ratio", "ratio", Lower, "benchmark", SPANS),
];

/// Why each workload is in the benchmark, in one line.
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::RpcSmall => {
            "64 B echo, latency hints (Direct-WriteIMM, busy polling): per-message cost of \
             codec, engine, protocol and verbs is the whole ~10 us"
        }
        Workload::RpcLarge => {
            "256 KiB echo, res_util hints (Write-RNDV, event polling): bytes dominate - \
             copies, allocation, link time, wake-ups"
        }
        Workload::RpcPipelined => {
            "512 B echo, throughput + queue_depth 8 on the reactor server, call_many \
             batches of 32: window flow control and doorbell batching"
        }
        Workload::KvRead => {
            "HatKV 100% Zipfian GET over 4000 x 1000 B records that fit the one-sided \
             index: two RDMA READs per op, server CPU bypassed"
        }
        Workload::KvMixed => {
            "HatKV workload A' (25% each get/put/multiget/multiput) over 10000 records: \
             index evictions, RPC fallbacks, writes mirrored under the shard lock"
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use serde_json::Value;

    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name));
        for name in names.chain(Workload::ALL.map(Workload::name)) {
            assert!(well_formed(name), "bad name {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_harness_emits() {
        let spec = benchmark_json();
        let rows = |section: &str| spec[section].as_array().cloned().unwrap_or_default();
        let text = |row: &Value, key: &str| row[key].as_str().unwrap_or("").to_string();

        let declared: Vec<_> = rows("end_to_end")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better"), m["bound"].as_f64()))
            .collect();
        let emitted: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into(), Some(m.bound)))
            .collect();
        assert_eq!(declared, emitted);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));

        let declared: Vec<_> = rows("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let emitted: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.as_str().to_string()))
            .collect();
        assert_eq!(declared, emitted);
        assert!(PER_LAYER.iter().all(|m| !m.layer.is_empty() && !m.moves.is_empty()));

        let declared: Vec<_> =
            rows("workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
        let emitted: Vec<_> =
            Workload::ALL.iter().map(|&w| (w.name().to_string(), why(w).to_string())).collect();
        assert_eq!(declared, emitted);
        assert!(emitted.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let paths: Vec<_> = rows("paths").iter().map(|p| p.as_str().map(String::from)).collect();
        assert_eq!(paths, [Some("benchmark".to_string())]);
    }
}
