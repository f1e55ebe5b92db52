//! # hat-kvdb — an embedded copy-on-write B+Tree key-value store
//!
//! The LMDB substitute backing HatKV (paper §4.4). LMDB's architecture —
//! a copy-on-write B+Tree with single-writer / multi-reader transactions
//! where readers never block the writer — is reproduced here with
//! `Arc`-shared nodes and path copying:
//!
//! * [`Database::begin_read`] snapshots the current root; the snapshot is
//!   immutable and stays consistent regardless of concurrent commits.
//! * [`Database::begin_write`] takes the single writer lock and mutates a
//!   private copy of the path to each touched leaf. Keys and values are
//!   refcounted buffers ([`Bytes`]), so a path copy clones pointers: a
//!   put copies its value once, into the cell the tree, every snapshot
//!   and the WAL op log then share.
//! * `max_readers` bounds concurrent read transactions (LMDB's reader
//!   table); exceeding it fails with [`KvError::ReadersFull`]. HatKV's
//!   hint co-design tunes this from the `concurrency` hint.
//! * [`SyncMode`] reproduces LMDB's durability knobs (`MDB_NOSYNC` /
//!   `MDB_NOMETASYNC` / full sync) as calibrated commit costs; HatKV maps
//!   hint-selected protocols to commit strategies so storage work stays
//!   off the communication critical path.
//!
//! ```
//! use hat_kvdb::{Database, DbConfig};
//!
//! let db = Database::new(DbConfig::default());
//! let mut txn = db.begin_write().unwrap();
//! txn.put(b"alpha", b"1");
//! txn.put(b"beta", b"2");
//! txn.commit();
//!
//! let read = db.begin_read().unwrap();
//! assert_eq!(read.get(b"alpha").as_deref(), Some(&b"1"[..]));
//! assert_eq!(read.range(b"a".to_vec()..b"z".to_vec()).count(), 2);
//! ```

pub mod cursor;
pub mod sharded;
pub mod tree;
pub mod wal;

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

pub use sharded::{
    clamp_shard_count, ShardedDb, ShardedReadTxn, TxnCrashPoint, TxnError, TxnStatsSnapshot,
    WriteObserver, MAX_SHARDS, TXN_LOCK_DEADLINE,
};
pub use tree::Bytes;
use tree::Node;
use wal::Wal;
pub use wal::{WalOp, WalRecovery};

/// Durability level applied at commit (LMDB's sync flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncMode {
    /// Full fsync per commit — durable, slow.
    Sync,
    /// Metadata-lazy flush (MDB_NOMETASYNC-like).
    #[default]
    Async,
    /// No flushing (MDB_NOSYNC / tmpfs deployments, as the paper's YCSB
    /// setup uses).
    NoSync,
}

impl SyncMode {
    /// Simulated commit cost in nanoseconds (calibrated to tmpfs-backed
    /// LMDB: full sync ~40 µs, async flush ~6 µs, nosync ~0).
    pub fn commit_cost_ns(&self) -> u64 {
        match self {
            SyncMode::Sync => 40_000,
            SyncMode::Async => 6_000,
            SyncMode::NoSync => 0,
        }
    }
}

/// Database configuration (the knobs HatKV's hint co-design turns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbConfig {
    /// Maximum concurrent read transactions (LMDB reader table size).
    pub max_readers: u32,
    /// Commit durability.
    pub sync_mode: SyncMode,
    /// Override for the modeled in-memory commit stall, in nanoseconds.
    /// `None` uses [`SyncMode::commit_cost_ns`]. Benchmarks set this to
    /// emulate slower storage tiers; persistent (WAL-backed) databases
    /// always pay their real I/O cost instead.
    pub commit_cost_ns: Option<u64>,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig { max_readers: 126, sync_mode: SyncMode::default(), commit_cost_ns: None }
    }
}

/// Errors from the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The reader table is full (`max_readers` concurrent read txns).
    ReadersFull,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::ReadersFull => write!(f, "reader table full"),
        }
    }
}

impl std::error::Error for KvError {}

/// Operation counters.
#[derive(Debug, Default)]
pub struct DbStats {
    /// Committed write transactions.
    pub commits: AtomicU64,
    /// Aborted write transactions.
    pub aborts: AtomicU64,
    /// Point lookups served.
    pub gets: AtomicU64,
    /// Keys written.
    pub puts: AtomicU64,
    /// Keys deleted.
    pub dels: AtomicU64,
    /// Simulated fsync nanoseconds paid at commit.
    pub sync_ns: AtomicU64,
    /// Nanoseconds spent waiting for the writer lock in
    /// [`Database::begin_write`] — the write-serialization cost that
    /// sharding exists to attack.
    pub writer_wait_ns: AtomicU64,
    /// Key + value bytes written through committed-or-not `put` calls.
    pub bytes_written: AtomicU64,
}

/// Plain-data snapshot of [`DbStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStatsSnapshot {
    pub commits: u64,
    pub aborts: u64,
    pub gets: u64,
    pub puts: u64,
    pub dels: u64,
    pub sync_ns: u64,
    pub writer_wait_ns: u64,
    pub bytes_written: u64,
}

/// Field-wise sum — how [`ShardedDb::stats`] aggregates its shards.
impl std::ops::Add for DbStatsSnapshot {
    type Output = DbStatsSnapshot;

    fn add(self, rhs: DbStatsSnapshot) -> DbStatsSnapshot {
        DbStatsSnapshot {
            commits: self.commits + rhs.commits,
            aborts: self.aborts + rhs.aborts,
            gets: self.gets + rhs.gets,
            puts: self.puts + rhs.puts,
            dels: self.dels + rhs.dels,
            sync_ns: self.sync_ns + rhs.sync_ns,
            writer_wait_ns: self.writer_wait_ns + rhs.writer_wait_ns,
            bytes_written: self.bytes_written + rhs.bytes_written,
        }
    }
}

#[derive(Debug)]
struct DbInner {
    root: RwLock<Arc<Node>>,
    writer: Mutex<()>,
    config: RwLock<DbConfig>,
    readers: AtomicU32,
    stats: DbStats,
    /// Write-ahead log for persistent databases ([`Database::open`]);
    /// `None` for in-memory ones ([`Database::new`]).
    wal: Mutex<Option<Wal>>,
}

/// The embedded store handle (cheaply cloneable).
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database").field("entries", &self.len()).finish()
    }
}

impl Database {
    /// Create an empty in-memory database (no persistence; commit costs
    /// are simulated per [`SyncMode`]).
    pub fn new(config: DbConfig) -> Database {
        Database {
            inner: Arc::new(DbInner {
                root: RwLock::new(Arc::new(Node::empty_leaf())),
                writer: Mutex::new(()),
                config: RwLock::new(config),
                readers: AtomicU32::new(0),
                stats: DbStats::default(),
                wal: Mutex::new(None),
            }),
        }
    }

    /// Open (or create) a persistent database backed by a write-ahead log
    /// at `path`. Committed transactions are replayed on open; the
    /// [`SyncMode`] picks the real flush discipline per commit.
    ///
    /// A standalone database has no sibling shards to consult, so any
    /// in-doubt 2PC transaction left in the log resolves as presumed
    /// abort (an abort decision is appended so later opens skip it).
    pub fn open(path: &std::path::Path, config: DbConfig) -> std::io::Result<Database> {
        let (db, recovery) = Database::open_recover(path, config)?;
        for (txn_id, _ops) in recovery.in_doubt {
            db.txn_abort(txn_id)?;
        }
        Ok(db)
    }

    /// [`Database::open`] without in-doubt resolution: committed batches
    /// are replayed and the leftover 2PC state is returned for the caller
    /// — [`ShardedDb::open`] — to resolve against its sibling shards.
    /// `recovery.committed` comes back drained (already applied).
    pub fn open_recover(
        path: &std::path::Path,
        config: DbConfig,
    ) -> std::io::Result<(Database, WalRecovery)> {
        let (wal, mut recovery) = Wal::open(path)?;
        let db = Database::new(config);
        {
            let mut txn = db.begin_write().expect("fresh writer");
            for batch in recovery.committed.drain(..) {
                for op in batch {
                    txn.apply(&op);
                }
            }
            // Replay must not re-log; commit via the non-logging path.
            txn.commit_replayed();
        }
        *db.inner.wal.lock() = Some(wal);
        Ok((db, recovery))
    }

    /// Append a 2PC prepare record for this database's share of
    /// transaction `txn_id`. Durable per the configured [`SyncMode`]
    /// before returning; a no-op for in-memory databases (nothing to
    /// recover from, so there is nothing to prepare).
    pub fn txn_prepare(&self, txn_id: u64, ops: &[WalOp]) -> std::io::Result<()> {
        let sync = self.inner.config.read().sync_mode;
        let mut wal = self.inner.wal.lock();
        match wal.as_mut() {
            Some(wal) => {
                let t0 = std::time::Instant::now();
                wal.prepare(txn_id, ops, sync)?;
                self.inner
                    .stats
                    .sync_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Append a 2PC abort decision for `txn_id` and count the abort. The
    /// prepared operations are never applied.
    pub fn txn_abort(&self, txn_id: u64) -> std::io::Result<()> {
        let sync = self.inner.config.read().sync_mode;
        if let Some(wal) = self.inner.wal.lock().as_mut() {
            wal.decision(txn_id, false, sync)?;
        }
        self.inner.stats.aborts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Current configuration.
    pub fn config(&self) -> DbConfig {
        self.inner.config.read().clone()
    }

    /// Retune the configuration at runtime (HatKV applies hint-derived
    /// settings here: `max_readers` from the concurrency hint, sync mode
    /// from the protocol choice).
    pub fn reconfigure(&self, config: DbConfig) {
        *self.inner.config.write() = config;
    }

    /// Number of live key/value pairs.
    pub fn len(&self) -> usize {
        self.inner.root.read().len()
    }

    /// True when no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree depth (diagnostics).
    pub fn depth(&self) -> usize {
        self.inner.root.read().depth()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DbStatsSnapshot {
        let s = &self.inner.stats;
        DbStatsSnapshot {
            commits: s.commits.load(Ordering::Relaxed),
            aborts: s.aborts.load(Ordering::Relaxed),
            gets: s.gets.load(Ordering::Relaxed),
            puts: s.puts.load(Ordering::Relaxed),
            dels: s.dels.load(Ordering::Relaxed),
            sync_ns: s.sync_ns.load(Ordering::Relaxed),
            writer_wait_ns: s.writer_wait_ns.load(Ordering::Relaxed),
            bytes_written: s.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Open a read transaction: an immutable snapshot of the current tree.
    pub fn begin_read(&self) -> Result<ReadTxn, KvError> {
        let max = self.inner.config.read().max_readers;
        let mut cur = self.inner.readers.load(Ordering::Relaxed);
        loop {
            if cur >= max {
                return Err(KvError::ReadersFull);
            }
            match self.inner.readers.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        Ok(ReadTxn { root: self.inner.root.read().clone(), db: self.inner.clone() })
    }

    /// Open the (single) write transaction; blocks while another writer
    /// is active. Time spent blocked is charged to
    /// [`DbStats::writer_wait_ns`].
    pub fn begin_write(&self) -> Result<WriteTxn<'_>, KvError> {
        // Uncontended is the common case: only a writer that actually
        // blocks reads the clock.
        let guard = match self.inner.writer.try_lock() {
            Some(guard) => guard,
            None => {
                let t0 = std::time::Instant::now();
                let guard = self.inner.writer.lock();
                self.inner
                    .stats
                    .writer_wait_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                guard
            }
        };
        let root = self.inner.root.read().clone();
        // The WAL is attached before a database is handed out and never
        // detached, so one look per transaction is enough.
        let logging = self.inner.wal.lock().is_some();
        Ok(WriteTxn { db: self, root, _guard: guard, dirty: false, logging, log: Vec::new() })
    }

    /// Convenience: single-key read outside a transaction.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.stats.gets.fetch_add(1, Ordering::Relaxed);
        self.inner.root.read().get(key).map(|v| v.to_vec())
    }

    /// Convenience: single-key autocommit write.
    pub fn put(&self, key: &[u8], value: &[u8]) {
        let mut txn = self.begin_write().expect("writer lock");
        txn.put(key, value);
        txn.commit();
    }
}

/// A consistent read snapshot.
#[derive(Debug)]
pub struct ReadTxn {
    root: Arc<Node>,
    db: Arc<DbInner>,
}

impl Drop for ReadTxn {
    fn drop(&mut self) {
        self.db.readers.fetch_sub(1, Ordering::AcqRel);
    }
}

impl ReadTxn {
    /// Point lookup within the snapshot.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.db.stats.gets.fetch_add(1, Ordering::Relaxed);
        self.root.get(key).map(|v| v.to_vec())
    }

    /// Ordered range scan within the snapshot.
    pub fn range(&self, range: std::ops::Range<Vec<u8>>) -> cursor::Cursor<'_> {
        cursor::Cursor::new(&self.root, range)
    }

    /// Entries in the snapshot.
    pub fn len(&self) -> usize {
        self.root.len()
    }

    /// True when the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.root.len() == 0
    }
}

/// The single write transaction: mutations are private until `commit`.
pub struct WriteTxn<'db> {
    db: &'db Database,
    root: Arc<Node>,
    _guard: parking_lot::MutexGuard<'db, ()>,
    dirty: bool,
    /// Whether the database is WAL-backed (fixed for the transaction).
    logging: bool,
    /// Operations to append to the WAL at commit (persistent DBs only).
    log: Vec<WalOp>,
}

impl WriteTxn<'_> {
    /// Insert or replace a key. The value is copied once, into the
    /// refcounted cell the tree (and the WAL op log) will share.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.put_shared(key, value.into());
    }

    /// [`WriteTxn::put`] for a value that already lives in a refcounted
    /// cell (WAL replay, 2PC apply): the tree takes the pointer, no bytes
    /// are copied.
    pub(crate) fn put_shared(&mut self, key: &[u8], value: Bytes) {
        self.db.inner.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.db
            .inner
            .stats
            .bytes_written
            .fetch_add((key.len() + value.len()) as u64, Ordering::Relaxed);
        if self.logging {
            self.log.push(WalOp::Put(key.into(), value.clone()));
        }
        tree::insert(&mut self.root, key, value);
        self.dirty = true;
    }

    /// Delete a key; returns whether it existed.
    pub fn del(&mut self, key: &[u8]) -> bool {
        self.db.inner.stats.dels.fetch_add(1, Ordering::Relaxed);
        let existed = tree::remove(&mut self.root, key);
        if existed && self.logging {
            self.log.push(WalOp::Del(key.into()));
        }
        self.dirty |= existed;
        existed
    }

    /// Apply one logged operation (WAL replay, 2PC apply), sharing its
    /// value cell with the tree.
    pub(crate) fn apply(&mut self, op: &WalOp) {
        match op {
            WalOp::Put(k, v) => self.put_shared(k, v.clone()),
            WalOp::Del(k) => {
                self.del(k);
            }
        }
    }

    /// Read through the transaction (sees own uncommitted writes).
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.root.get(key).map(|v| v.to_vec())
    }

    /// Publish the new tree and pay the configured durability cost —
    /// real WAL appends/flushes for persistent databases, a calibrated
    /// stall for in-memory ones.
    pub fn commit(self) {
        self.commit_then(None, || ());
    }

    /// Commit without logging (WAL replay path).
    fn commit_replayed(self) {
        *self.db.inner.root.write() = self.root;
        self.db.inner.stats.commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish this transaction's mutations as the *apply* step of a 2PC
    /// commit: instead of re-logging the operations (the prepare record
    /// already holds them), append a `DECISION(commit)` marker for
    /// `txn_id` and publish the new root — all while still holding the
    /// writer lock, so the log's decision order matches the shard's
    /// apply order exactly.
    pub fn commit_txn(self, txn_id: u64) {
        self.commit_then(Some(txn_id), || ());
    }

    /// The one commit: log (this transaction's operations, or the 2PC
    /// decision for `decided`), publish the new root, then run
    /// `published` — all under the writer lock, which is released only
    /// on return. `published` is where a [`sharded::WriteObserver`] hears
    /// of the mutations: after they are durable and readable, never
    /// before, and in commit order.
    pub(crate) fn commit_then(self, decided: Option<u64>, published: impl FnOnce()) {
        let (sync, cost_override) = {
            let cfg = self.db.inner.config.read();
            (cfg.sync_mode, cfg.commit_cost_ns)
        };
        let mut wal = self.db.inner.wal.lock();
        match wal.as_mut() {
            Some(wal) if decided.is_some() || !self.log.is_empty() => {
                let t0 = std::time::Instant::now();
                match decided {
                    Some(txn_id) => wal.decision(txn_id, true, sync),
                    None => wal.commit(&self.log, sync),
                }
                .expect("WAL append");
                self.db
                    .inner
                    .stats
                    .sync_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            _ => {
                let cost = cost_override.unwrap_or_else(|| sync.commit_cost_ns());
                if self.dirty && cost > 0 {
                    // Model the fsync stall.
                    let start = std::time::Instant::now();
                    while (std::time::Instant::now() - start).as_nanos() < cost as u128 {
                        std::thread::yield_now();
                    }
                    self.db.inner.stats.sync_ns.fetch_add(cost, Ordering::Relaxed);
                }
            }
        }
        drop(wal);
        *self.db.inner.root.write() = self.root;
        self.db.inner.stats.commits.fetch_add(1, Ordering::Relaxed);
        published();
    }

    /// Discard the transaction's mutations.
    pub fn abort(self) {
        self.db.inner.stats.aborts.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_del_roundtrip() {
        let db = Database::new(DbConfig::default());
        let mut txn = db.begin_write().unwrap();
        txn.put(b"k1", b"v1");
        txn.put(b"k2", b"v2");
        assert_eq!(txn.get(b"k1").as_deref(), Some(&b"v1"[..]));
        txn.commit();
        assert_eq!(db.get(b"k2").as_deref(), Some(&b"v2"[..]));
        let mut txn = db.begin_write().unwrap();
        assert!(txn.del(b"k1"));
        assert!(!txn.del(b"missing"));
        txn.commit();
        assert_eq!(db.get(b"k1"), None);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn snapshot_isolation_for_readers() {
        let db = Database::new(DbConfig::default());
        db.put(b"key", b"old");
        let read = db.begin_read().unwrap();
        db.put(b"key", b"new");
        // The snapshot still sees the old value; fresh reads see the new.
        assert_eq!(read.get(b"key").as_deref(), Some(&b"old"[..]));
        assert_eq!(db.get(b"key").as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn abort_discards_changes() {
        let db = Database::new(DbConfig::default());
        db.put(b"a", b"1");
        let mut txn = db.begin_write().unwrap();
        txn.put(b"a", b"2");
        txn.abort();
        assert_eq!(db.get(b"a").as_deref(), Some(&b"1"[..]));
        assert_eq!(db.stats().aborts, 1);
    }

    #[test]
    fn reader_table_limit_enforced() {
        let db = Database::new(DbConfig { max_readers: 2, ..Default::default() });
        let r1 = db.begin_read().unwrap();
        let _r2 = db.begin_read().unwrap();
        assert_eq!(db.begin_read().unwrap_err(), KvError::ReadersFull);
        drop(r1);
        assert!(db.begin_read().is_ok(), "slot freed on drop");
    }

    #[test]
    fn reconfigure_applies_at_runtime() {
        let db = Database::new(DbConfig {
            max_readers: 1,
            sync_mode: SyncMode::NoSync,
            ..Default::default()
        });
        db.reconfigure(DbConfig {
            max_readers: 64,
            sync_mode: SyncMode::Sync,
            ..Default::default()
        });
        assert_eq!(db.config().max_readers, 64);
        db.put(b"x", b"y");
        assert!(db.stats().sync_ns >= SyncMode::Sync.commit_cost_ns());
    }

    #[test]
    fn nosync_commits_pay_nothing() {
        let db = Database::new(DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() });
        db.put(b"x", b"y");
        assert_eq!(db.stats().sync_ns, 0);
    }

    #[test]
    fn many_keys_survive_splits() {
        let db = Database::new(DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() });
        let mut txn = db.begin_write().unwrap();
        for i in 0..5000u32 {
            txn.put(format!("key{i:06}").as_bytes(), &i.to_le_bytes());
        }
        txn.commit();
        assert_eq!(db.len(), 5000);
        assert!(db.depth() > 1, "tree must have split");
        for i in (0..5000u32).step_by(37) {
            assert_eq!(
                db.get(format!("key{i:06}").as_bytes()),
                Some(i.to_le_bytes().to_vec()),
                "key{i}"
            );
        }
    }

    #[test]
    fn overwrite_replaces_value() {
        let db = Database::new(DbConfig::default());
        db.put(b"k", b"first");
        db.put(b"k", b"second");
        assert_eq!(db.get(b"k").as_deref(), Some(&b"second"[..]));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let db = Database::new(DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() });
        for i in 0..1000u32 {
            db.put(&i.to_be_bytes(), b"seed");
        }
        let mut handles = Vec::new();
        for t in 0..4 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    let read = db.begin_read().unwrap();
                    let key = ((i * 7 + t) % 1000u32).to_be_bytes();
                    assert!(read.get(&key).is_some());
                }
            }));
        }
        let writer = {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 1000..1500u32 {
                    db.put(&i.to_be_bytes(), b"new");
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        writer.join().unwrap();
        assert_eq!(db.len(), 1500);
    }
}
