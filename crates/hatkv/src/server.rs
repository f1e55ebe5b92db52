//! HatKV server deployments: the two HatRPC variants of §5.4.

use std::sync::Arc;

use hat_idl::hints::Side;
use hat_kvdb::{DbConfig, ShardedDb};
use hat_protocols::{OneSidedHost, OneSidedIndex};
use hat_rdma_sim::{Fabric, Node};
use hatrpc_core::engine::{HatServer, ServerPolicy};
use hatrpc_core::service::ServiceSchema;

use crate::generated::{hat_k_v_schema, HatKVProcessor};
use crate::handler::{KvStoreHandler, StatsMirror};

/// Which hint configuration a HatKV deployment uses (paper §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvVariant {
    /// HatRPC-Service: service-level hints only.
    ServiceHints,
    /// HatRPC-Function: the full hierarchical hint set.
    FunctionHints,
}

/// The generated schema with function-level hint blocks stripped —
/// HatRPC-Service keeps the service-wide tone but loses per-function
/// tuning.
pub fn service_only_schema() -> ServiceSchema {
    let mut schema = hat_k_v_schema();
    for (_, hints) in &mut schema.functions {
        *hints = Default::default();
    }
    schema
}

/// The shard count a schema's server-side hints ask for (1 when the
/// `shards` hint is absent), clamped to the backend ceiling
/// ([`hat_kvdb::MAX_SHARDS`]) right here at the hint boundary — so
/// stats, bench labels, and `repro stats` always agree with the
/// partition count the backend actually builds.
pub fn hinted_shards(schema: &ServiceSchema) -> u32 {
    hat_kvdb::clamp_shard_count(schema.resolved("", Side::Server).shards.unwrap_or(1))
}

/// True when any function's resolved hints request the one-sided GET
/// path — the server must then host the MR-backed index side-channel.
/// HatRPC-Service strips function hints, so it never hosts one.
pub fn wants_onesided(schema: &ServiceSchema) -> bool {
    schema
        .functions
        .iter()
        .any(|(f, _)| schema.resolved(f, Side::Client).onesided_get.unwrap_or(false))
}

/// Mirrors committed KV writes into the one-sided index. Callbacks run
/// after the commit has published and inside the shard writer-lock
/// scope, so per-key index updates land in commit order and never ahead
/// of the store. A multi-key batch has every slot opened (marked
/// write-in-progress) before any is published, so a one-sided multiget
/// cannot validate half of it.
struct IndexMirror {
    index: Arc<OneSidedIndex>,
}

impl hat_kvdb::WriteObserver for IndexMirror {
    fn on_put(&self, key: &[u8], value: &[u8]) {
        self.index.apply_put(key, value);
    }
    fn on_del(&self, key: &[u8]) {
        self.index.apply_del(key);
    }
    fn on_batch(&self, keys: &mut dyn Iterator<Item = &[u8]>) {
        for key in keys {
            self.index.open_write(key);
        }
    }
}

/// A running HatKV server.
pub struct HatKvServer {
    server: HatServer,
    db: ShardedDb,
    schema: ServiceSchema,
    onesided: Option<OneSidedHost>,
}

impl HatKvServer {
    /// Start serving on `node` under `service`, with the hint variant
    /// selecting the schema. The storage backend is constructed from the
    /// negotiated hints: the `shards` hint fixes the partition count, the
    /// rest tune the per-shard knobs at startup.
    pub fn start(
        fabric: &Fabric,
        node: &Arc<Node>,
        service: &str,
        variant: KvVariant,
        config: DbConfig,
    ) -> HatKvServer {
        let schema = match variant {
            KvVariant::ServiceHints => service_only_schema(),
            KvVariant::FunctionHints => hat_k_v_schema(),
        };
        Self::start_with_schema(fabric, node, service, schema, config)
    }

    /// Like [`HatKvServer::start`] with an explicit (possibly retuned)
    /// schema — benchmarks adjust the service-level concurrency and
    /// shards hints to the actual deployment size.
    pub fn start_with_schema(
        fabric: &Fabric,
        node: &Arc<Node>,
        service: &str,
        schema: ServiceSchema,
        config: DbConfig,
    ) -> HatKvServer {
        let db = ShardedDb::new(config, hinted_shards(&schema));
        Self::start_with_db(fabric, node, service, schema, db)
    }

    /// Like [`HatKvServer::start_with_schema`] with an already-built
    /// backend — for sharing a store across deployments or supplying a
    /// persistent ([`ShardedDb::open`]) one. The backend's shard count
    /// wins over whatever the schema hints say.
    pub fn start_with_db(
        fabric: &Fabric,
        node: &Arc<Node>,
        service: &str,
        schema: ServiceSchema,
        db: ShardedDb,
    ) -> HatKvServer {
        Self::start_with_db_policy(fabric, node, service, schema, db, ServerPolicy::Threaded)
    }

    /// Like [`HatKvServer::start_with_db`] with an explicit threading
    /// policy — deployments expecting many mostly-idle clients run
    /// [`ServerPolicy::Reactor`] to multiplex them on one driver thread.
    pub fn start_with_db_policy(
        fabric: &Fabric,
        node: &Arc<Node>,
        service: &str,
        schema: ServiceSchema,
        db: ShardedDb,
        policy: ServerPolicy,
    ) -> HatKvServer {
        // Hint-selected server bypass: when the schema asks for one-sided
        // GETs, publish the MR-backed index before serving any RPC, keep
        // it current from the write path, and seed it with whatever the
        // backend already holds. Best-effort: if the side-channel cannot
        // start, GETs simply stay on the RPC path. Callers who share one
        // live `db` across deployments should preload before starting —
        // writes racing the seeding scan below may leave briefly stale
        // index entries until the next write to the same key.
        let onesided = if wants_onesided(&schema) {
            match OneSidedHost::start(fabric, node, service) {
                Ok(host) => {
                    let index = host.index().clone();
                    db.set_write_observer(Arc::new(IndexMirror { index: index.clone() }));
                    if let Ok(txn) = db.begin_read() {
                        for (key, value) in txn.range(vec![]..vec![0xff; 130]) {
                            index.apply_put(&key, &value);
                        }
                    }
                    Some(host)
                }
                Err(_) => None,
            }
        } else {
            None
        };

        let mirror = StatsMirror::new(node.clone());
        let handler = KvStoreHandler::new(db.clone()).with_mirror(mirror);
        handler.apply_hints(&schema);
        let factory_handler = handler.clone();
        let server = HatServer::serve(
            fabric,
            node,
            service,
            schema.clone(),
            policy,
            Arc::new(move || {
                let mut processor = HatKVProcessor::new(factory_handler.clone());
                Box::new(move |req: &[u8]| processor.handle(req))
            }),
        );
        HatKvServer { server, db, schema, onesided }
    }

    /// The deployment's schema (what clients should connect with).
    pub fn schema(&self) -> &ServiceSchema {
        &self.schema
    }

    /// The shared sharded database handle (for preloading in benchmarks).
    pub fn db(&self) -> &ShardedDb {
        &self.db
    }

    /// Stop the server. The write observer is cleared before the index
    /// regions are deregistered, so no late write mirrors into torn-down
    /// memory.
    pub fn shutdown(self) {
        self.server.shutdown();
        if let Some(host) = self.onesided {
            self.db.clear_write_observer();
            host.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generated::HatKVClient;
    use hat_kvdb::SyncMode;
    use hat_rdma_sim::SimConfig;
    use hatrpc_core::engine::HatClient;

    fn cfg() -> DbConfig {
        DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() }
    }

    #[test]
    fn end_to_end_kv_rpc_with_function_hints() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let server = HatKvServer::start(&fabric, &snode, "hatkv", KvVariant::FunctionHints, cfg());

        let cnode = fabric.add_node("client");
        let mut client = HatKVClient::connect(&fabric, &cnode, "hatkv");
        client.put(b"alpha".to_vec(), vec![7u8; 1000]).unwrap();
        assert_eq!(client.get(b"alpha".to_vec()).unwrap(), vec![7u8; 1000]);
        assert_eq!(client.get(b"missing".to_vec()).unwrap(), Vec::<u8>::new());

        let keys: Vec<Vec<u8>> = (0..10u8).map(|i| vec![b'k', i]).collect();
        let values: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 1000]).collect();
        client.multiput(keys.clone(), values.clone()).unwrap();
        assert_eq!(client.multiget(keys).unwrap(), values);
        server.shutdown();
    }

    #[test]
    fn end_to_end_with_service_hints_only() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let server = HatKvServer::start(&fabric, &snode, "hatkv", KvVariant::ServiceHints, cfg());
        let schema = server.schema().clone();
        assert!(schema.functions.iter().all(|(_, h)| h.is_empty()), "function hints stripped");

        let cnode = fabric.add_node("client");
        let mut client = HatKVClient::new(HatClient::new(&fabric, &cnode, "hatkv", &schema));
        client.put(b"x".to_vec(), b"y".to_vec()).unwrap();
        assert_eq!(client.get(b"x".to_vec()).unwrap(), b"y");
        server.shutdown();
    }

    #[test]
    fn function_variant_isolates_channels_per_hint_plan() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let server = HatKvServer::start(&fabric, &snode, "hatkv", KvVariant::FunctionHints, cfg());
        let cnode = fabric.add_node("client");
        let mut client = HatKVClient::connect(&fabric, &cnode, "hatkv");
        client.get(b"a".to_vec()).unwrap();
        client.multiget(vec![b"a".to_vec()]).unwrap();
        // get (2K) and multiget (16K) have different payload hints →
        // distinct channels (optimization isolation).
        assert!(client.engine().open_channels() >= 2);
        server.shutdown();
    }

    #[test]
    fn shards_hint_sizes_the_backend() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        // The generated IDL carries `s_hint: shards = 4` at service scope,
        // so both variants (service hints survive the function-stripping)
        // deploy a 4-way sharded backend.
        for variant in [KvVariant::FunctionHints, KvVariant::ServiceHints] {
            let service = format!("hatkv-{variant:?}");
            let server = HatKvServer::start(&fabric, &snode, &service, variant, cfg());
            assert_eq!(server.db().shard_count(), 4, "{variant:?}");
            server.shutdown();
        }
        // An unhinted schema falls back to a single shard.
        let schema = hatrpc_core::service::ServiceSchema::unhinted("Plain");
        assert_eq!(hinted_shards(&schema), 1);
        let server = HatKvServer::start_with_schema(&fabric, &snode, "plainkv", schema, cfg());
        assert_eq!(server.db().shard_count(), 1);
        server.shutdown();
    }

    /// A runaway `shards` hint is clamped at the hint boundary:
    /// `hinted_shards` must report the same number of partitions the
    /// backend actually builds, not the raw hint.
    #[test]
    fn oversized_shards_hint_reports_the_clamped_count() {
        use hat_idl::hints::{Hint, HintBlock};
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let mut schema = hatrpc_core::service::ServiceSchema::unhinted("Big");
        schema.service_hints = HintBlock {
            server: vec![Hint { key: "shards".into(), value: "1000".into() }],
            ..Default::default()
        };
        assert_eq!(hinted_shards(&schema), hat_kvdb::MAX_SHARDS);
        let server = HatKvServer::start_with_schema(&fabric, &snode, "bigkv", schema, cfg());
        assert_eq!(server.db().shard_count(), hat_kvdb::MAX_SHARDS as usize);
        server.shutdown();
    }

    /// Tentpole e2e: with the function-level `onesided_get` hint in play,
    /// GETs resolve via RDMA READs against the server-published index —
    /// the server CPU never sees them — and misses fall back to RPC with
    /// the same `b""` sentinel the RPC path returns.
    #[test]
    fn onesided_get_bypasses_the_server_for_indexed_keys() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let server = HatKvServer::start(&fabric, &snode, "hatkv", KvVariant::FunctionHints, cfg());
        assert!(wants_onesided(server.schema()));

        let cnode = fabric.add_node("client");
        let mut client = HatKVClient::connect(&fabric, &cnode, "hatkv");
        client.put(b"alpha".to_vec(), vec![7u8; 512]).unwrap();
        assert_eq!(client.get(b"alpha".to_vec()).unwrap(), vec![7u8; 512]);
        let snap = cnode.stats_snapshot();
        assert!(snap.onesided_gets >= 1, "hit served one-sided: {snap:?}");

        // A key the store has never seen: index Miss → RPC fallback →
        // the canonical empty-value sentinel.
        assert_eq!(client.get(b"missing".to_vec()).unwrap(), Vec::<u8>::new());
        let snap = cnode.stats_snapshot();
        assert!(snap.onesided_fallbacks >= 1, "miss fell back to RPC: {snap:?}");

        // Batched lookups ride the same path.
        let keys: Vec<Vec<u8>> = (0..10u8).map(|i| vec![b'm', i]).collect();
        let values: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 256]).collect();
        client.multiput(keys.clone(), values.clone()).unwrap();
        let before = cnode.stats_snapshot().onesided_gets;
        assert_eq!(client.multiget(keys).unwrap(), values);
        let snap = cnode.stats_snapshot();
        assert!(snap.onesided_gets >= before + 10, "batch resolved one-sided: {snap:?}");
        server.shutdown();
    }

    /// HatRPC-Service strips function hints, so neither side plays the
    /// one-sided game: the server hosts no index and the client's GETs
    /// all take the RPC path.
    #[test]
    fn service_hints_variant_stays_on_the_rpc_path() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let server = HatKvServer::start(&fabric, &snode, "hatkv", KvVariant::ServiceHints, cfg());
        let schema = server.schema().clone();
        assert!(!wants_onesided(&schema));

        let cnode = fabric.add_node("client");
        let mut client = HatKVClient::new(HatClient::new(&fabric, &cnode, "hatkv", &schema));
        client.put(b"x".to_vec(), b"y".to_vec()).unwrap();
        assert_eq!(client.get(b"x".to_vec()).unwrap(), b"y");
        let snap = cnode.stats_snapshot();
        assert_eq!(snap.onesided_gets, 0, "no READ bypass without the hint: {snap:?}");
        assert_eq!(snap.onesided_fallbacks, 0, "{snap:?}");
        server.shutdown();
    }

    /// `start_with_db` seeds the index from pre-existing contents, so
    /// keys written before the server started are still served one-sided.
    #[test]
    fn preloaded_backend_is_seeded_into_the_index() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let db = ShardedDb::new(cfg(), 4);
        for i in 0..20u8 {
            db.put(&[b's', i], &[i; 100]);
        }
        let server = HatKvServer::start_with_db(&fabric, &snode, "hatkv", hat_k_v_schema(), db);

        let cnode = fabric.add_node("client");
        let mut client = HatKVClient::connect(&fabric, &cnode, "hatkv");
        for i in 0..20u8 {
            assert_eq!(client.get(vec![b's', i]).unwrap(), vec![i; 100]);
        }
        let snap = cnode.stats_snapshot();
        assert!(snap.onesided_gets >= 20, "seeded keys resolve one-sided: {snap:?}");
        server.shutdown();
    }

    /// End-to-end torn-read stress: RPC writers hammer one key with
    /// uniform-byte values while a reader GETs it through the one-sided
    /// path. Every result must be a value some put committed in full —
    /// never a mix of two writes — whether it came from a READ or from a
    /// seqlock-conflict fallback to RPC.
    #[test]
    fn concurrent_rpc_writes_never_yield_torn_onesided_reads() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let server = HatKvServer::start(&fabric, &snode, "hatkv", KvVariant::FunctionHints, cfg());

        let wnode = fabric.add_node("writer");
        let mut seed = HatKVClient::connect(&fabric, &wnode, "hatkv");
        seed.put(b"hot".to_vec(), vec![0u8; 256]).unwrap();

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let fabric = fabric.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let node = fabric.add_node(&format!("w{w}"));
                    let mut client = HatKVClient::connect(&fabric, &node, "hatkv");
                    let mut fill = 1u8;
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        client.put(b"hot".to_vec(), vec![fill; 256]).unwrap();
                        fill = fill.wrapping_add(1).max(1);
                    }
                })
            })
            .collect();

        let cnode = fabric.add_node("reader");
        let mut reader = HatKVClient::connect(&fabric, &cnode, "hatkv");
        for _ in 0..200 {
            let value = reader.get(b"hot".to_vec()).unwrap();
            assert_eq!(value.len(), 256, "hot key always present at full length");
            assert!(
                value.iter().all(|&b| b == value[0]),
                "torn read: mixed fills {:?}/{:?}",
                value[0],
                value[value.len() - 1]
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        for w in writers {
            w.join().unwrap();
        }
        let snap = cnode.stats_snapshot();
        assert!(
            snap.onesided_gets + snap.onesided_fallbacks >= 200,
            "every read accounted: {snap:?}"
        );
        server.shutdown();
    }

    #[test]
    fn served_writes_mirror_into_node_stats() {
        let fabric = Fabric::new(SimConfig::fast_test());
        let snode = fabric.add_node("server");
        let server = HatKvServer::start(&fabric, &snode, "hatkv", KvVariant::FunctionHints, cfg());
        let cnode = fabric.add_node("client");
        let mut client = HatKVClient::connect(&fabric, &cnode, "hatkv");
        client.put(b"k".to_vec(), vec![1u8; 64]).unwrap();
        client
            .multiput(
                (0..10u8).map(|i| vec![b'k', i]).collect(),
                (0..10u8).map(|i| vec![i; 64]).collect(),
            )
            .unwrap();
        let snap = snode.stats_snapshot();
        assert!(snap.kv_txns >= 2, "put + multiput committed: {snap:?}");
        assert!(snap.kv_bytes_written >= 64 + 10 * 66, "payload bytes accounted: {snap:?}");
        server.shutdown();
    }
}
