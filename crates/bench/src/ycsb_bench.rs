//! The Figures 15/16 runner: YCSB over HatKV and the four emulated
//! comparators, all sharing the same server and backend (paper §5.4) —
//! a comparator is a `HatKVClient` pinned to its protocol.

use std::sync::Arc;

use hat_atb::driver::{run_clients, Completed, RunMeasurement};
use hat_hatkv::comparators::{self, Comparator};
use hat_hatkv::server::{service_only_schema, HatKvServer};
use hat_hatkv::{hat_k_v_schema, HatKVClient};
use hat_idl::hints::Hint;
use hat_kvdb::{DbConfig, DbStatsSnapshot, ShardedDb, SyncMode};
use hat_rdma_sim::{Fabric, Node, SimConfig};
use hat_ycsb::{Op, OpGenerator, OpType, WorkloadSpec};
use hatrpc_core::engine::HatClient;
use hatrpc_core::service::ServiceSchema;

/// The six systems of Figures 15/16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvSystem {
    /// HatRPC with full function-level hints.
    HatRpcFunction,
    /// HatRPC with service-level hints only.
    HatRpcService,
    /// AR-gRPC emulation.
    ArGrpc,
    /// HERD emulation.
    Herd,
    /// Pilaf emulation.
    Pilaf,
    /// RFP emulation.
    Rfp,
}

impl KvSystem {
    /// All systems in reporting order (HatRPC variants first, as the
    /// paper's figures do).
    pub const ALL: [KvSystem; 6] = [
        KvSystem::HatRpcFunction,
        KvSystem::HatRpcService,
        KvSystem::ArGrpc,
        KvSystem::Herd,
        KvSystem::Pilaf,
        KvSystem::Rfp,
    ];

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            KvSystem::HatRpcFunction => "HatRPC-Function",
            KvSystem::HatRpcService => "HatRPC-Service",
            KvSystem::ArGrpc => "AR-gRPC",
            KvSystem::Herd => "HERD",
            KvSystem::Pilaf => "Pilaf",
            KvSystem::Rfp => "RFP",
        }
    }

    fn comparator(&self) -> Option<Comparator> {
        match self {
            KvSystem::ArGrpc => Some(Comparator::ArGrpc),
            KvSystem::Herd => Some(Comparator::Herd),
            KvSystem::Pilaf => Some(Comparator::Pilaf),
            KvSystem::Rfp => Some(Comparator::Rfp),
            _ => None,
        }
    }
}

/// Which operation mix a YCSB run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvWorkload {
    /// The paper's workload A' (25/25/25/25, Zipfian).
    MixA,
    /// The paper's workload B' (47.5/2.5/47.5/2.5, Zipfian) — read-heavy.
    MixB,
    /// Classic YCSB-A (50% GET / 50% PUT, uniform keys, no batching) —
    /// the write-serialization stress mix for the shard sweep.
    WriteHeavy,
    /// Classic YCSB-C (100% GET, Zipfian) — the pure-read mix where the
    /// one-sided GET bypass shows its full effect.
    ReadOnly,
}

impl KvWorkload {
    /// The workload spec at `records` preloaded records.
    pub fn spec(&self, records: usize) -> WorkloadSpec {
        match self {
            KvWorkload::MixA => WorkloadSpec::workload_a(records),
            KvWorkload::MixB => WorkloadSpec::workload_b(records),
            KvWorkload::WriteHeavy => WorkloadSpec::write_heavy(records),
            KvWorkload::ReadOnly => WorkloadSpec::read_only(records),
        }
    }

    /// Stable label for report rows and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            KvWorkload::MixA => "ycsb-a",
            KvWorkload::MixB => "ycsb-b",
            KvWorkload::WriteHeavy => "write-heavy",
            KvWorkload::ReadOnly => "ycsb-c",
        }
    }
}

/// YCSB run parameters.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// System under test.
    pub system: KvSystem,
    /// Operation mix.
    pub workload: KvWorkload,
    /// Concurrent client threads (paper: 128 over 4 nodes).
    pub clients: usize,
    /// Records preloaded.
    pub records: usize,
    /// Operations per client.
    pub ops_per_client: usize,
    /// Backend shard count, injected into the schema's server-side
    /// `shards` hint (the server builds its partitioning from the hint).
    pub shards: u32,
    /// Override for the modeled per-commit stall (`None` = the sync
    /// mode's default). The shard sweep raises this so writer-lock
    /// serialization, not CPU, dominates — see `shard_sweep.rs`.
    pub commit_cost_ns: Option<u64>,
    /// Keep the IDL's `onesided_get` hints (true) or strip them so every
    /// GET takes the RPC path (false). Only meaningful for
    /// [`KvSystem::HatRpcFunction`]; the Service variant and the
    /// comparators never see function hints anyway.
    pub onesided: bool,
}

/// One measured YCSB point.
#[derive(Debug)]
pub struct YcsbPoint {
    /// Aggregate throughput, ops/s.
    pub throughput_ops_s: f64,
    /// Mean latency (µs) per op type: [Get, Put, MultiGet, MultiPut].
    pub mean_us: [f64; 4],
    /// The raw measurement.
    pub measurement: RunMeasurement,
    /// Per-shard backend counters at the end of the run, in shard order
    /// (writer-lock wait, txns, bytes — the sharding observability).
    pub shard_stats: Vec<DbStatsSnapshot>,
}

/// The generated schema with its service-level `concurrency` hint set to
/// the *actual* deployment size. The checked-in IDL says 128 (the
/// paper's deployment); when the harness runs a different client count,
/// an operator would hint the real number — a deliberately wrong
/// concurrency hint mis-selects polling exactly as the paper's model
/// predicts.
fn schema_for(clients: usize, service_only: bool, shards: u32, onesided: bool) -> ServiceSchema {
    let mut schema = if service_only { service_only_schema() } else { hat_k_v_schema() };
    if !onesided {
        // Ablation switch: drop the `onesided_get` hints so the same
        // deployment serves every GET over plain RPC.
        for (_, hints) in &mut schema.functions {
            hints.shared.retain(|h| h.key != "onesided_get");
            hints.client.retain(|h| h.key != "onesided_get");
        }
    }
    set_hint(&mut schema.service_hints.shared, "concurrency", clients);
    // The shard count under test rides the server-side `shards` hint, the
    // same way an operator would retune the checked-in IDL's default.
    set_hint(&mut schema.service_hints.server, "shards", shards);
    schema
}

/// Set hint `key` to `value`, adding it if the group has none.
fn set_hint(hints: &mut Vec<Hint>, key: &str, value: impl ToString) {
    let value = value.to_string();
    match hints.iter_mut().find(|h| h.key == key) {
        Some(hint) => hint.value = value,
        None => hints.push(Hint { key: key.into(), value }),
    }
}

fn run_op(client: &mut HatKVClient, op: Op) -> hatrpc_core::Result<()> {
    match op {
        Op::Get { key } => client.get(key).map(drop),
        Op::Put { key, value } => client.put(key, value),
        Op::MultiGet { keys } => client.multiget(keys).map(drop),
        Op::MultiPut { keys, values } => client.multiput(keys, values),
    }
}

/// The warm rule (`hat_atb::driver`): one op of each kind the workload
/// issues, and nothing else, so every channel the measured ops use opens
/// before the clock and none opens that they never use. A write rewrites
/// record 0 with its load-phase value. Where the hints ask for
/// `onesided_get`, a GET or MULTIGET dials the side-channel and is served
/// by READs, so it opens no RPC channel.
fn warm_up(client: &mut HatKVClient, spec: &WorkloadSpec) -> hatrpc_core::Result<()> {
    let (key, value) = OpGenerator::load_phase(spec).next().expect("one record");
    let warm = [
        Op::Get { key: key.clone() },
        Op::Put { key: key.clone(), value: value.clone() },
        Op::MultiGet { keys: vec![key.clone()] },
        Op::MultiPut { keys: vec![key], values: vec![value] },
    ];
    for (op, share) in warm.into_iter().zip(spec.proportions) {
        if share > 0.0 {
            run_op(client, op)?;
        }
    }
    Ok(())
}

/// A `txn_sweep` client `c` of `kv` on `node`, warmed by one round of the
/// call its mode measures.
pub fn txn_client(
    fabric: &Fabric,
    node: &Arc<Node>,
    schema: &ServiceSchema,
    txn: bool,
    c: usize,
    batch: usize,
) -> hatrpc_core::Result<HatKVClient> {
    let mut client = HatKVClient::new(HatClient::new(fabric, node, "kv", schema));
    txn_round(&mut client, txn, c, batch, 0)?;
    Ok(client)
}

/// One `txn_sweep` round of client `c`: its `batch` keys (disjoint from
/// every other client's, so the sweep prices the 2PC protocol, not lock
/// contention) set to 100 bytes of `fill`, by `multiput_txn` (cross-shard
/// 2PC) or plain `multiput`.
pub fn txn_round(
    client: &mut HatKVClient,
    txn: bool,
    c: usize,
    batch: usize,
    fill: u8,
) -> hatrpc_core::Result<()> {
    let keys = (0..batch).map(|i| format!("c{c:02}-k{i:03}").into_bytes()).collect();
    let values = vec![vec![fill; 100]; batch];
    if txn {
        client.multiput_txn(keys, values)
    } else {
        client.multiput(keys, values)
    }
}

/// Run one YCSB point: preload, fan out clients, measure.
pub fn run_ycsb(cfg: &YcsbConfig) -> YcsbPoint {
    run_ycsb_sampled(cfg, None).0
}

/// [`run_ycsb`] with a live hat-metrics sampler attached to the point's
/// fabric for the run. `sample_interval_ns` is the tick interval; the
/// sampler comes back stopped (final tail tick taken) so sweeps can
/// write its counter tracks to `METRICS_*.json` next to their
/// `BENCH_*.json`.
pub fn run_ycsb_sampled(
    cfg: &YcsbConfig,
    sample_interval_ns: Option<u64>,
) -> (YcsbPoint, Option<hat_metrics::Sampler>) {
    let fabric = Fabric::new(SimConfig::default());
    let snode = fabric.add_node("kv-server");
    let db_config = DbConfig {
        sync_mode: SyncMode::NoSync,
        max_readers: 512,
        commit_cost_ns: cfg.commit_cost_ns,
    };

    let spec = cfg.workload.spec(cfg.records);
    // The HatRPC deployments' schema, served and dialed alike.
    let service_only = cfg.system == KvSystem::HatRpcService;
    let schema = schema_for(cfg.clients, service_only, cfg.shards, cfg.onesided);

    let server = match cfg.system.comparator() {
        None => {
            // The HatRPC deployments build their backend from the
            // negotiated `shards` hint; the bench only writes the schema.
            HatKvServer::start_with_schema(&fabric, &snode, "kv", schema.clone(), db_config)
        }
        Some(_) => {
            // The comparator schema carries no `shards` hint: the backend
            // is built directly at the same shard count for a fair
            // comparison.
            let db = ShardedDb::new(db_config, cfg.shards);
            HatKvServer::start_with_db(&fabric, &snode, "kv", comparators::schema(), db)
        }
    };
    let db = server.db().clone();

    // Load phase (direct, as YCSB's load phase is not what's measured —
    // after server start so the hint-constructed backend is the one
    // preloaded; one batched txn per shard).
    db.multi_put(OpGenerator::load_phase(&spec));

    // Clients over 4 client nodes, as in the paper's YCSB deployment.
    let client_nodes: Vec<_> =
        (0..4.min(cfg.clients.max(1))).map(|i| fabric.add_node(&format!("kv-client{i}"))).collect();

    // Attach the sampler after every node exists, so the baseline tick
    // covers them all from zero.
    let mut sampler = sample_interval_ns.map(|interval_ns| {
        hat_metrics::Sampler::attach(
            &fabric,
            hat_metrics::SamplerConfig { interval_ns, ring_capacity: 512 },
        )
    });
    let run: hatrpc_core::Result<_> = run_clients(
        cfg.clients,
        cfg.ops_per_client,
        |c| {
            let node = &client_nodes[c % client_nodes.len()];
            let mut client = match cfg.system.comparator() {
                Some(comp) => comp.connect(&fabric, node, "kv"),
                None => HatKVClient::new(HatClient::new(&fabric, node, "kv", &schema)),
            };
            warm_up(&mut client, &spec)?;
            // Generated before the clock: an op's latency is its KV call.
            let mut generator = OpGenerator::new(spec.clone(), c as u64 + 1);
            let ops: Vec<Op> = (0..cfg.ops_per_client).map(|_| generator.next_op()).collect();
            Ok((client, ops.into_iter()))
        },
        |(client, ops), _| {
            let op = ops.next().expect("one generated op per measured op");
            let label = op.op_type().label();
            run_op(client, op)?;
            Ok(Completed::one(label))
        },
    );
    // Stop the sampler first: its tail tick runs while every counter the
    // clients bumped is final and the server is still alive.
    if let Some(s) = sampler.as_mut() {
        s.stop();
    }
    let shard_stats = db.shard_stats();
    server.shutdown();
    let aggregate = run.expect("ycsb clients");

    let mean_us = OpType::ALL.map(|t| aggregate.histogram(t.label()).mean() as f64 / 1000.0);
    let point = YcsbPoint {
        throughput_ops_s: aggregate.throughput_ops_s(),
        mean_us,
        measurement: aggregate,
        shard_stats,
    };
    (point, sampler)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hatkv_function_point_runs() {
        let p = run_ycsb(&YcsbConfig {
            system: KvSystem::HatRpcFunction,
            workload: KvWorkload::MixA,
            clients: 2,
            records: 300,
            ops_per_client: 10,
            shards: 4,
            commit_cost_ns: None,
            onesided: true,
        });
        assert!(p.throughput_ops_s > 0.0);
        assert_eq!(p.measurement.total_ops(), 20);
        assert_eq!(p.shard_stats.len(), 4, "hint-built backend has the requested shards");
        assert!(p.shard_stats.iter().map(|s| s.puts).sum::<u64>() >= 300, "preload reached shards");
    }

    #[test]
    fn comparator_point_runs() {
        let p = run_ycsb(&YcsbConfig {
            system: KvSystem::Rfp,
            workload: KvWorkload::MixB,
            clients: 2,
            records: 300,
            ops_per_client: 10,
            shards: 2,
            commit_cost_ns: None,
            onesided: true,
        });
        assert!(p.throughput_ops_s > 0.0);
        assert_eq!(p.shard_stats.len(), 2);
    }

    #[test]
    fn write_heavy_point_runs_unsharded() {
        let p = run_ycsb(&YcsbConfig {
            system: KvSystem::HatRpcFunction,
            workload: KvWorkload::WriteHeavy,
            clients: 2,
            records: 300,
            ops_per_client: 10,
            shards: 1,
            commit_cost_ns: None,
            onesided: false,
        });
        assert!(p.throughput_ops_s > 0.0);
        assert_eq!(p.shard_stats.len(), 1);
    }

    /// The warm rule: the warm-up opens every channel the workload's ops
    /// use, so none opens inside the measured window, and no other. A
    /// one-sided client's GET and MULTIGET are READs: its read-only
    /// warm-up opens no channel, and a mix that writes opens both declared
    /// ones. Over RPC, the read-only and the write-heavy mix open exactly
    /// the GET channel, which PUT shares (both 2 KiB-hinted); MULTIGET's
    /// and MULTIPUT's 16 KiB channel stays closed. A txn-sweep client's
    /// warm-up round opens the channel its rounds use.
    #[test]
    fn warm_up_opens_every_channel_the_workload_uses() {
        use KvWorkload::*;
        for (workload, onesided, want) in
            [(ReadOnly, true, 0), (MixB, true, 2), (ReadOnly, false, 1), (WriteHeavy, false, 1)]
        {
            let fabric = Fabric::new(SimConfig::default());
            let snode = fabric.add_node("kv-server");
            let schema = schema_for(2, false, 4, onesided);
            let server = HatKvServer::start_with_schema(
                &fabric,
                &snode,
                "kv",
                schema.clone(),
                DbConfig::default(),
            );
            let spec = workload.spec(100);
            server.db().multi_put(OpGenerator::load_phase(&spec));
            let cnode = fabric.add_node("kv-client");
            let mut client = HatKVClient::new(HatClient::new(&fabric, &cnode, "kv", &schema));
            warm_up(&mut client, &spec).expect("warm-up");
            let what = format!("{} (onesided {onesided})", workload.label());
            assert_eq!(client.engine().open_channels(), want, "{what}: the warm-up");
            let mut generator = OpGenerator::new(spec, 7);
            for _ in 0..40 {
                run_op(&mut client, generator.next_op()).expect("op");
            }
            assert_eq!(client.engine().open_channels(), want, "{what}: the ops opened a channel");
            drop(client);
            server.shutdown();
        }

        let fabric = Fabric::new(SimConfig::default());
        let snode = fabric.add_node("kv-server");
        let server = HatKvServer::start_with_schema(
            &fabric,
            &snode,
            "kv",
            hat_k_v_schema(),
            DbConfig::default(),
        );
        let cnode = fabric.add_node("txn-client");
        for (c, txn) in [false, true].into_iter().enumerate() {
            let mut client =
                txn_client(&fabric, &cnode, server.schema(), txn, c, 16).expect("connect");
            assert_eq!(client.engine().open_channels(), 1, "txn {txn}: the warm-up");
            for round in 1..4 {
                txn_round(&mut client, txn, c, 16, round).expect("round");
            }
            assert_eq!(client.engine().open_channels(), 1, "txn {txn}: a round opened a channel");
        }
        server.shutdown();
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<_> = KvSystem::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["HatRPC-Function", "HatRPC-Service", "AR-gRPC", "HERD", "Pilaf", "RFP"]
        );
        assert_eq!(KvWorkload::ReadOnly.label(), "ycsb-c");
    }

    /// The ablation switch: the same deployment runs YCSB-C with and
    /// without the `onesided_get` hints, and the stripped schema really
    /// has none left.
    #[test]
    fn read_only_point_runs_with_and_without_onesided() {
        for onesided in [true, false] {
            let p = run_ycsb(&YcsbConfig {
                system: KvSystem::HatRpcFunction,
                workload: KvWorkload::ReadOnly,
                clients: 2,
                records: 300,
                ops_per_client: 10,
                shards: 4,
                commit_cost_ns: None,
                onesided,
            });
            assert!(p.throughput_ops_s > 0.0, "onesided={onesided}");
            assert_eq!(p.measurement.total_ops(), 20);
        }
        let stripped = schema_for(2, false, 4, false);
        for (f, hints) in &stripped.functions {
            assert!(
                hints.shared.iter().chain(&hints.client).all(|h| h.key != "onesided_get"),
                "{f} still hinted"
            );
        }
    }
}
