//! The HatKV service handler over the embedded store, with hint-driven
//! backend tuning and hash-sharded write fan-out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hat_idl::hints::{PerfGoal, Side};
use hat_kvdb::{DbConfig, ShardedDb, SyncMode};
use hat_rdma_sim::{Node, NodeStats};
use hatrpc_core::error::{CoreError, Result};
use hatrpc_core::service::ServiceSchema;

use crate::generated::HatKVHandler;

/// Publishes the storage backend's counters into a node's [`NodeStats`]
/// (`kv_txns`, `kv_writer_wait_ns`, `kv_bytes_written`, and the 2PC
/// `kv_txn_commits`/`kv_txn_aborts`/`kv_txn_recovered` trio) so
/// `repro stats` surfaces them next to the RDMA counters.
///
/// The backend keeps cumulative totals; this mirror tracks the last
/// published values so concurrent handler clones sharing one mirror never
/// double-count.
#[derive(Debug)]
pub struct StatsMirror {
    node: Arc<Node>,
    last: parking_lot::Mutex<Published>,
    /// [`Published::progress`] of `last`, readable without the lock. A
    /// hint only (`Relaxed`): `last` itself is read under the lock.
    seen: AtomicU64,
}

/// Backend totals as of the last publish.
#[derive(Debug, Clone, Copy, Default)]
struct Published {
    commits: u64,
    writer_wait_ns: u64,
    bytes_written: u64,
    txn_commits: u64,
    txn_aborts: u64,
    txn_recovered: u64,
}

impl Published {
    fn of(db: &ShardedDb) -> Published {
        let (agg, txn) = (db.stats(), db.txn_stats());
        Published {
            commits: agg.commits,
            writer_wait_ns: agg.writer_wait_ns,
            bytes_written: agg.bytes_written,
            txn_commits: txn.commits,
            txn_aborts: txn.aborts,
            txn_recovered: txn.recovered,
        }
    }

    /// Shard commits plus 2PC outcomes. Every published counter moves
    /// only together with one of these (waiting and writing end in a
    /// commit or an outcome), and they only grow, so an unchanged sum
    /// means there is nothing new to publish.
    fn progress(&self) -> u64 {
        self.commits + self.txn_commits + self.txn_aborts + self.txn_recovered
    }
}

impl StatsMirror {
    /// Mirror backend counters into `node`'s stats.
    pub fn new(node: Arc<Node>) -> Arc<StatsMirror> {
        Arc::new(StatsMirror { node, last: Default::default(), seen: AtomicU64::new(0) })
    }

    /// Publish the delta since the previous call. A call that finds no
    /// progress — a rejected or empty batch, or a sibling handler that
    /// already published this write — returns without taking the lock or
    /// touching the node's counters.
    fn publish(&self, db: &ShardedDb) {
        let now = Published::of(db);
        if now.progress() == self.seen.load(Ordering::Relaxed) {
            return;
        }
        let mut guard = self.last.lock();
        let last = &mut *guard;
        let stats = self.node.stats();
        // Per field, not wholesale: a racing publisher's totals may be
        // older than `last` in some fields and newer in others.
        for (counter, now, last) in [
            (&stats.kv_txns, now.commits, &mut last.commits),
            (&stats.kv_writer_wait_ns, now.writer_wait_ns, &mut last.writer_wait_ns),
            (&stats.kv_bytes_written, now.bytes_written, &mut last.bytes_written),
            (&stats.kv_txn_commits, now.txn_commits, &mut last.txn_commits),
            (&stats.kv_txn_aborts, now.txn_aborts, &mut last.txn_aborts),
            (&stats.kv_txn_recovered, now.txn_recovered, &mut last.txn_recovered),
        ] {
            if now > *last {
                NodeStats::add(counter, now - *last);
                *last = now;
            }
        }
        self.seen.store(last.progress(), Ordering::Relaxed);
    }
}

/// Implements the generated [`HatKVHandler`] trait over a hash-sharded
/// [`hat_kvdb`] backend.
///
/// Cheap to clone (the shard set and mirror are shared); the server
/// creates one per connection.
#[derive(Clone, Debug)]
pub struct KvStoreHandler {
    db: ShardedDb,
    mirror: Option<Arc<StatsMirror>>,
}

impl KvStoreHandler {
    /// Wrap a (possibly sharded) database.
    pub fn new(db: ShardedDb) -> KvStoreHandler {
        KvStoreHandler { db, mirror: None }
    }

    /// Mirror backend counters into a node's [`NodeStats`] after every
    /// write-class RPC.
    pub fn with_mirror(mut self, mirror: Arc<StatsMirror>) -> KvStoreHandler {
        self.mirror = Some(mirror);
        self
    }

    /// The underlying sharded database handle.
    pub fn db(&self) -> &ShardedDb {
        &self.db
    }

    /// Apply the paper's backend co-design (§4.4): derive storage knobs
    /// from the service's hints —
    ///
    /// * `max_readers` sized from the concurrency hint (with slack for
    ///   internal readers, mirroring "the number of max readers can be
    ///   set according to 'concurrency hint'"),
    /// * sync/commit strategy from the performance goal: latency- and
    ///   throughput-oriented services keep storage flushing off the
    ///   communication critical path (`NoSync`, as the paper's tmpfs
    ///   deployment does); `res_util` keeps the safer async flush.
    ///
    /// The `shards` hint is structural (it fixes the number of writer
    /// locks and WAL files at construction), so it is consumed where the
    /// backend is built — see `HatKvServer::start` — not here.
    pub fn apply_hints(&self, schema: &ServiceSchema) {
        let hints = schema.resolved("", Side::Server);
        let mut cfg: DbConfig = self.db.config();
        if let Some(c) = hints.concurrency {
            cfg.max_readers = c + c / 4 + 8;
        }
        cfg.sync_mode = match hints.perf_goal {
            Some(PerfGoal::Latency) | Some(PerfGoal::Throughput) => SyncMode::NoSync,
            Some(PerfGoal::ResUtil) => SyncMode::Async,
            None => cfg.sync_mode,
        };
        self.db.reconfigure(cfg);
    }

    fn published(&self) {
        if let Some(m) = &self.mirror {
            m.publish(&self.db);
        }
    }
}

/// Sentinel for "key not found" GET responses (Thrift binary results
/// cannot be null; YCSB treats empty values as misses).
const MISS: &[u8] = b"";

impl HatKVHandler for KvStoreHandler {
    fn get(&mut self, key: Vec<u8>) -> Result<Vec<u8>> {
        Ok(self.db.get(&key).unwrap_or_else(|| MISS.to_vec()))
    }

    fn put(&mut self, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
        self.db.put(&key, &value);
        self.published();
        Ok(())
    }

    fn multiget(&mut self, keys: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        let read =
            self.db.begin_read().map_err(|e| CoreError::Application(format!("kvdb: {e}")))?;
        Ok(keys.iter().map(|k| read.get(k).unwrap_or_else(|| MISS.to_vec())).collect())
    }

    fn multiput(&mut self, keys: Vec<Vec<u8>>, values: Vec<Vec<u8>>) -> Result<()> {
        if keys.len() != values.len() {
            return Err(CoreError::Application(format!(
                "multiput arity mismatch: {} keys, {} values",
                keys.len(),
                values.len()
            )));
        }
        // Fan out per shard: keys are grouped by their owning shard and
        // committed with one backend transaction per shard touched —
        // all-or-nothing within a shard, concurrent across shards.
        self.db.multi_put(keys.into_iter().zip(values));
        self.published();
        Ok(())
    }

    fn multiput_txn(&mut self, keys: Vec<Vec<u8>>, values: Vec<Vec<u8>>) -> Result<()> {
        if keys.len() != values.len() {
            return Err(CoreError::Application(format!(
                "multiput_txn arity mismatch: {} keys, {} values",
                keys.len(),
                values.len()
            )));
        }
        // The `txn` hint path: one 2PC transaction across every shard the
        // batch touches. An error here means the batch is NOT applied
        // (lock timeout / prepare failure aborted it everywhere).
        let result = self
            .db
            .multi_put_txn(keys.into_iter().zip(values))
            .map_err(|e| CoreError::Application(format!("txn: {e}")));
        self.published();
        result
    }

    fn multidel_txn(&mut self, keys: Vec<Vec<u8>>) -> Result<()> {
        let result =
            self.db.multi_del_txn(keys).map_err(|e| CoreError::Application(format!("txn: {e}")));
        self.published();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hat_kvdb::DbConfig;

    fn handler() -> KvStoreHandler {
        KvStoreHandler::new(ShardedDb::new(
            DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() },
            4,
        ))
    }

    #[test]
    fn get_put_roundtrip() {
        let mut h = handler();
        h.put(b"k".to_vec(), b"v".to_vec()).unwrap();
        assert_eq!(h.get(b"k".to_vec()).unwrap(), b"v");
        assert_eq!(h.get(b"missing".to_vec()).unwrap(), b"", "miss sentinel");
    }

    #[test]
    fn multiput_is_atomic_and_multiget_consistent() {
        let mut h = handler();
        let keys: Vec<Vec<u8>> = (0..10u8).map(|i| vec![b'k', i]).collect();
        let values: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 100]).collect();
        h.multiput(keys.clone(), values.clone()).unwrap();
        let got = h.multiget(keys).unwrap();
        assert_eq!(got, values);
    }

    #[test]
    fn multiput_fans_out_one_txn_per_shard_touched() {
        let mut h = handler();
        let keys: Vec<Vec<u8>> = (0..40u8).map(|i| vec![b'k', i]).collect();
        let values: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 16]).collect();
        let shards_touched: std::collections::BTreeSet<_> =
            keys.iter().map(|k| h.db().shard_of(k)).collect();
        h.multiput(keys, values).unwrap();
        let commits: u64 = h.db().shard_stats().iter().map(|s| s.commits).sum();
        assert_eq!(commits, shards_touched.len() as u64);
    }

    #[test]
    fn multiput_arity_mismatch_rejected() {
        let mut h = handler();
        let err = h.multiput(vec![b"a".to_vec()], vec![]).unwrap_err();
        assert!(matches!(err, CoreError::Application(m) if m.contains("arity")));
    }

    #[test]
    fn multiput_txn_commits_atomically_and_multidel_txn_removes() {
        let mut h = handler();
        let keys: Vec<Vec<u8>> = (0..12u8).map(|i| vec![b't', i]).collect();
        let values: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i; 32]).collect();
        h.multiput_txn(keys.clone(), values.clone()).unwrap();
        assert_eq!(h.multiget(keys.clone()).unwrap(), values);
        let txn = h.db().txn_stats();
        assert_eq!(txn.commits, 1, "one 2PC commit regardless of shards touched");
        assert_eq!(txn.aborts, 0);

        h.multidel_txn(keys.clone()).unwrap();
        assert!(h.multiget(keys).unwrap().iter().all(|v| v.is_empty()), "all deleted");
        assert_eq!(h.db().txn_stats().commits, 2);
    }

    #[test]
    fn multiput_txn_arity_mismatch_rejected_before_locking() {
        let mut h = handler();
        let err = h.multiput_txn(vec![b"a".to_vec()], vec![]).unwrap_err();
        assert!(matches!(err, CoreError::Application(m) if m.contains("arity")));
        assert_eq!(h.db().txn_stats().aborts, 0, "rejected before the 2PC machinery ran");
    }

    #[test]
    fn mirror_publishes_txn_outcome_counters() {
        use hat_rdma_sim::{Fabric, SimConfig};
        let fabric = Fabric::new(SimConfig::fast_test());
        let node = fabric.add_node("kv");
        let mut h = handler().with_mirror(StatsMirror::new(node.clone()));
        h.multiput_txn(vec![b"x".to_vec(), b"y".to_vec()], vec![vec![1; 8], vec![2; 8]]).unwrap();
        h.multidel_txn(vec![b"x".to_vec()]).unwrap();
        let snap = node.stats_snapshot();
        assert_eq!(snap.kv_txn_commits, 2, "both txn batches committed: {snap:?}");
        assert_eq!(snap.kv_txn_aborts, 0);
        assert_eq!(snap.kv_txn_recovered, 0);
    }

    #[test]
    fn hints_tune_the_backend() {
        let h = handler();
        let schema = crate::hat_k_v_schema();
        h.apply_hints(&schema);
        let cfg = h.db().config();
        assert!(cfg.max_readers >= 128 + 32, "readers sized from concurrency hint");
        assert_eq!(cfg.sync_mode, SyncMode::NoSync, "throughput goal → NoSync commits");
    }

    #[test]
    fn unhinted_schema_leaves_config_alone() {
        let h = KvStoreHandler::new(ShardedDb::new(
            DbConfig { max_readers: 10, sync_mode: SyncMode::Sync, ..Default::default() },
            1,
        ));
        h.apply_hints(&hatrpc_core::service::ServiceSchema::unhinted("Plain"));
        let cfg = h.db().config();
        assert_eq!(cfg.max_readers, 10);
        assert_eq!(cfg.sync_mode, SyncMode::Sync);
    }

    #[test]
    fn mirror_publishes_backend_deltas_without_double_counting() {
        use hat_rdma_sim::{Fabric, SimConfig};
        let fabric = Fabric::new(SimConfig::fast_test());
        let node = fabric.add_node("kv");
        let mirror = StatsMirror::new(node.clone());
        let mut h1 = handler().with_mirror(mirror.clone());
        let mut h2 = KvStoreHandler::new(h1.db().clone()).with_mirror(mirror);

        h1.put(b"a".to_vec(), vec![0; 100]).unwrap();
        h2.put(b"b".to_vec(), vec![0; 50]).unwrap();
        let snap = node.stats_snapshot();
        assert_eq!(snap.kv_txns, 2, "one commit per put, counted once: {snap:?}");
        assert_eq!(snap.kv_bytes_written, 152, "keys + values, counted once");

        h1.multiput(
            (0..10u8).map(|i| vec![b'm', i]).collect(),
            (0..10u8).map(|i| vec![i; 10]).collect(),
        )
        .unwrap();
        let snap2 = node.stats_snapshot();
        assert!(snap2.kv_txns > 2, "multiput adds per-shard txns");
        assert_eq!(snap2.kv_bytes_written, 152 + 10 * 12);

        // Nothing committed since: a publish finds no progress and leaves
        // the node's counters alone.
        h2.published();
        assert_eq!(node.stats_snapshot(), snap2);
    }

    /// Racing publishers read the backend totals outside the mirror's
    /// lock, so one may arrive holding older totals than were already
    /// published: nothing may be counted twice, nothing lost.
    #[test]
    fn racing_publishers_count_every_commit_once() {
        use hat_rdma_sim::{Fabric, SimConfig};
        const WRITERS: u8 = 4;
        const PUTS: u8 = 200;
        let fabric = Fabric::new(SimConfig::fast_test());
        let node = fabric.add_node("kv");
        let mirror = StatsMirror::new(node.clone());
        let first = handler().with_mirror(mirror.clone());
        std::thread::scope(|scope| {
            for t in 0..WRITERS {
                let mut h = KvStoreHandler::new(first.db().clone()).with_mirror(mirror.clone());
                scope.spawn(move || {
                    for i in 0..PUTS {
                        h.put(vec![t, i], vec![0; 30]).unwrap();
                    }
                });
            }
        });
        let snap = node.stats_snapshot();
        let puts = u64::from(WRITERS) * u64::from(PUTS);
        assert_eq!(snap.kv_txns, puts);
        assert_eq!(snap.kv_bytes_written, puts * 32);
        assert_eq!(snap.kv_writer_wait_ns, first.db().stats().writer_wait_ns);
    }
}
