//! Hash-partitioned storage: N independent [`Database`] shards behind one
//! facade.
//!
//! Every key lives in exactly one shard, chosen by an FNV-1a hash of the
//! key bytes modulo the shard count — so each shard keeps its own writer
//! lock, WAL, and statistics, and writes to different shards never
//! serialize on one another. The facade preserves the single-database
//! surface where it can:
//!
//! * [`ShardedDb::get`]/[`ShardedDb::put`]/[`ShardedDb::del`] route to the
//!   owning shard;
//! * [`ShardedDb::begin_read`] takes one snapshot *per shard*; point
//!   lookups route, and [`ShardedReadTxn::range`] merges the per-shard
//!   cursors back into global key order;
//! * [`ShardedDb::multi_put`] groups a batch by shard and commits **one
//!   write transaction per shard touched** — all-or-nothing within a
//!   shard, but *not* across shards (the deliberate trade documented in
//!   DESIGN.md §4f: a reader with an older snapshot of shard A and a
//!   newer one of shard B can observe a cross-shard batch half-applied,
//!   never a half-applied shard).
//!
//! Persistent sharded databases ([`ShardedDb::open`]) keep one WAL file
//! per shard in a directory. The shard count is part of the on-disk
//! layout: reopening must use the same count, or keys recover into shards
//! the hash no longer routes to.
//!
//! ## Cross-shard transactions (2PC)
//!
//! [`ShardedDb::multi_put_txn`] / [`ShardedDb::multi_del_txn`] close the
//! atomicity gap for callers that opt in (the `txn` IDL hint): the handle
//! acts as a two-phase-commit coordinator over its own shards.
//!
//! 1. **Lock** — per-shard key-lock tables are acquired in ascending
//!    shard order (a global order, so concurrent transactions cannot
//!    deadlock), each wait bounded by one transaction-wide deadline.
//! 2. **Prepare** — every touched shard appends a `PREPARE(txn_id, ops)`
//!    record to its own WAL, durable per the configured sync mode.
//! 3. **Decide + apply** — every touched shard appends
//!    `DECISION(txn_id, commit)` and publishes the new tree while still
//!    holding its writer lock, so log order equals apply order.
//!
//! Recovery ([`ShardedDb::open`]) resolves transactions that crashed
//! between phases: a prepared-but-undecided transaction rolls *forward*
//! if any sibling shard logged a commit decision (the coordinator had
//! decided; the ack may even have been sent), and aborts otherwise
//! (presumed abort — the coordinator died before deciding, so the client
//! cannot have been acknowledged).

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::cursor::Cursor;
use crate::wal::WalOp;
use crate::{Bytes, Database, DbConfig, DbStatsSnapshot, KvError, ReadTxn};

/// Default bound on transaction lock acquisition: long enough to ride out
/// writer-lock convoys, short enough that a wedged peer cannot hold the
/// caller forever.
pub const TXN_LOCK_DEADLINE: Duration = Duration::from_secs(2);

/// Upper bound on the shard count (each shard pins a reader table and a
/// WAL handle; a runaway `shards` hint must not exhaust them).
pub const MAX_SHARDS: u32 = 64;

/// Clamp a requested shard count into `1..=`[`MAX_SHARDS`]. The single
/// place the bound lives: callers that *report* a shard count (hint
/// resolution, bench labels) must clamp through here so what they print
/// always matches the partition count [`ShardedDb::new`] actually builds.
pub fn clamp_shard_count(shards: u32) -> u32 {
    shards.clamp(1, MAX_SHARDS)
}

/// FNV-1a over the key bytes — stable across processes, so persistent
/// shard routing survives reopen.
fn fnv1a(key: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut hash = OFFSET;
    for &b in key {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Observes every committed mutation flowing through a [`ShardedDb`].
///
/// The hook for externally-maintained read structures (e.g. the one-sided
/// GET index). Callbacks run once the commit has been logged and its root
/// published — a mutation the store could still lose, or does not serve
/// yet, is never announced — and *inside* the owning shard's writer-lock
/// scope, so for any single key the observer sees mutations in exactly
/// the order the shard applied them: two racing writers to the same key
/// can never leave the observer's view and the database disagreeing about
/// which write was last. Between the publish and the callback the
/// observer's view is stale, never early.
///
/// Callbacks must not write to the database (the shard writer lock is
/// held) and should be quick: their cost serializes with all writes to
/// the shard.
pub trait WriteObserver: Send + Sync {
    /// A key/value pair was written.
    fn on_put(&self, key: &[u8], value: &[u8]);
    /// A key was deleted.
    fn on_del(&self, key: &[u8]);
    /// A batch of more than one key committed atomically in one shard:
    /// each of `keys` gets its `on_put`/`on_del` next, before the shard
    /// writer lock is released. An observer whose view is read
    /// concurrently can use this to hide the batch until its last key is
    /// in.
    fn on_batch(&self, _keys: &mut dyn Iterator<Item = &[u8]>) {}
}

/// Tell the observer, if there is one, of what one shard just committed:
/// the batch bracket, then every mutation in apply order (`None` =
/// delete).
fn announce<'a>(
    observer: &Option<Arc<dyn WriteObserver>>,
    ops: impl ExactSizeIterator<Item = (&'a [u8], Option<&'a [u8]>)> + Clone,
) {
    let Some(observer) = observer else { return };
    if ops.len() > 1 {
        observer.on_batch(&mut ops.clone().map(|(key, _)| key));
    }
    for (key, value) in ops {
        match value {
            Some(value) => observer.on_put(key, value),
            None => observer.on_del(key),
        }
    }
}

/// Errors from the cross-shard transaction path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// Key-lock acquisition exceeded the transaction deadline; the
    /// transaction was aborted without writing any record.
    LockTimeout,
    /// An injected coordinator crash (fault-matrix tests) abandoned the
    /// protocol mid-flight; recovery on reopen resolves the leftovers.
    Crashed,
    /// A WAL append failed during the prepare phase; the transaction was
    /// aborted on every shard already prepared.
    Io(String),
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::LockTimeout => write!(f, "transaction lock deadline exceeded"),
            TxnError::Crashed => write!(f, "coordinator crashed (injected fault)"),
            TxnError::Io(e) => write!(f, "transaction WAL error: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// Plain-data snapshot of the transaction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStatsSnapshot {
    /// Cross-shard transactions committed (decision recorded everywhere).
    pub commits: u64,
    /// Cross-shard transactions aborted (lock timeout or prepare error).
    pub aborts: u64,
    /// Distinct in-doubt transactions resolved during recovery.
    pub recovered: u64,
}

/// Injected coordinator crash points for the seeded fault matrix: the
/// armed point is consumed by the next transaction that reaches it, which
/// then abandons the protocol exactly there — no decisions, no further
/// records — and returns [`TxnError::Crashed`]. In-memory key locks are
/// released (a real crash discards them with the process; tests reopen
/// the directory to model the restart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnCrashPoint {
    /// Die once `n` shards have logged their prepare record (before any
    /// decision is written). `n` = all touched shards models a
    /// coordinator that prepared everywhere but never decided.
    AfterPrepares(usize),
    /// Die once `n` shards have logged the commit decision and applied —
    /// the remaining shards are left prepared-but-undecided, with commit
    /// evidence on their siblings.
    AfterDecisions(usize),
}

/// A shard's key-lock table: transactions hold their keys from lock
/// acquisition through the last decision, bounding interleaving between
/// concurrent transactions that touch the same keys.
#[derive(Default)]
struct LockTable {
    held: Mutex<HashSet<Bytes>>,
    freed: Condvar,
}

impl LockTable {
    /// Acquire every key or none: waits (deadline-bounded) until the full
    /// set is free, so a transaction can never hold a partial key set
    /// inside one shard.
    fn lock_keys(&self, keys: &[Bytes], deadline: Instant) -> bool {
        let mut held = self.held.lock();
        loop {
            if keys.iter().all(|k| !held.contains(k)) {
                for k in keys {
                    held.insert(k.clone());
                }
                return true;
            }
            let Some(remaining) =
                deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())
            else {
                return false;
            };
            // A timed-out wait loops back once more: the deadline check
            // above is the single exit condition.
            let _ = self.freed.wait_for(&mut held, remaining);
        }
    }

    fn unlock_keys(&self, keys: &[Bytes]) {
        let mut held = self.held.lock();
        for k in keys {
            held.remove(k);
        }
        drop(held);
        self.freed.notify_all();
    }
}

/// Coordinator state shared by every clone of a [`ShardedDb`] handle.
struct TxnShared {
    /// Monotonic transaction id source; recovery seeds it above every id
    /// seen on disk so recycled ids can never match stale decisions.
    seq: AtomicU64,
    /// One key-lock table per shard.
    locks: Vec<LockTable>,
    commits: AtomicU64,
    aborts: AtomicU64,
    recovered: AtomicU64,
    /// Armed crash point, if any (fault-matrix tests).
    crash: Mutex<Option<TxnCrashPoint>>,
}

impl TxnShared {
    fn new(shards: usize) -> TxnShared {
        TxnShared {
            seq: AtomicU64::new(0),
            locks: (0..shards).map(|_| LockTable::default()).collect(),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            crash: Mutex::new(None),
        }
    }
}

/// N independent [`Database`] shards behind one handle (cheaply
/// cloneable).
#[derive(Clone)]
pub struct ShardedDb {
    shards: Arc<Vec<Database>>,
    /// Write observer shared by every clone of this handle (preloads that
    /// bypass the RPC layer still flow through it).
    observer: Arc<parking_lot::RwLock<Option<Arc<dyn WriteObserver>>>>,
    /// 2PC coordinator state (id source, lock tables, txn counters).
    txn: Arc<TxnShared>,
}

impl std::fmt::Debug for ShardedDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDb")
            .field("shards", &self.shards.len())
            .field("observed", &self.observer.read().is_some())
            .finish()
    }
}

impl ShardedDb {
    /// Create an in-memory sharded database. Callers resolving a hint
    /// should pass a value already clamped through
    /// [`clamp_shard_count`]; the constructor re-clamps defensively so a
    /// raw count can never build an empty or runaway shard vector.
    pub fn new(config: DbConfig, shards: u32) -> ShardedDb {
        let n = clamp_shard_count(shards) as usize;
        ShardedDb {
            shards: Arc::new((0..n).map(|_| Database::new(config.clone())).collect()),
            observer: Arc::new(parking_lot::RwLock::new(None)),
            txn: Arc::new(TxnShared::new(n)),
        }
    }

    /// Open (or create) a persistent sharded database: one WAL file per
    /// shard under `dir`. Reopening must use the same shard count.
    ///
    /// Recovery resolves in-doubt 2PC transactions across the shard set:
    /// a prepared-but-undecided transaction rolls forward if *any* shard
    /// logged its commit decision, and aborts otherwise (presumed abort).
    /// Either way the resolution is made durable, so a second reopen
    /// finds nothing in doubt.
    pub fn open(dir: &Path, config: DbConfig, shards: u32) -> std::io::Result<ShardedDb> {
        std::fs::create_dir_all(dir)?;
        let n = clamp_shard_count(shards) as usize;
        let mut opened = Vec::with_capacity(n);
        let mut recoveries = Vec::with_capacity(n);
        for i in 0..n {
            let (db, recovery) = Database::open_recover(&Self::wal_path(dir, i), config.clone())?;
            opened.push(db);
            recoveries.push(recovery);
        }

        // Commit evidence from every shard: if any shard logged a commit
        // decision for txn T, the coordinator had decided commit and T
        // must roll forward wherever it is still in doubt.
        let decided_commit: HashSet<u64> =
            recoveries.iter().flat_map(|r| r.decided_commit.iter().copied()).collect();
        let max_txn_id = recoveries.iter().map(|r| r.max_txn_id).max().unwrap_or(0);

        let txn = TxnShared::new(n);
        txn.seq.store(max_txn_id, Ordering::Relaxed);
        let mut resolved: HashSet<u64> = HashSet::new();
        for (db, recovery) in opened.iter().zip(recoveries.iter_mut()) {
            for (txn_id, ops) in recovery.in_doubt.drain(..) {
                if decided_commit.contains(&txn_id) {
                    let mut write = db.begin_write().expect("fresh writer");
                    for op in &ops {
                        write.apply(op);
                    }
                    write.commit_txn(txn_id);
                } else {
                    db.txn_abort(txn_id)?;
                }
                resolved.insert(txn_id);
            }
        }
        txn.recovered.store(resolved.len() as u64, Ordering::Relaxed);

        Ok(ShardedDb {
            shards: Arc::new(opened),
            observer: Arc::new(parking_lot::RwLock::new(None)),
            txn: Arc::new(txn),
        })
    }

    /// Install (or replace) the write observer. Existing contents are
    /// *not* replayed — callers maintaining an external structure should
    /// install the observer first, or scan and seed it themselves.
    pub fn set_write_observer(&self, observer: Arc<dyn WriteObserver>) {
        *self.observer.write() = Some(observer);
    }

    /// Remove the write observer.
    pub fn clear_write_observer(&self) {
        *self.observer.write() = None;
    }

    /// The WAL file backing shard `i` of a database at `dir`.
    pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard:03}.wal"))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        (fnv1a(key) % self.shards.len() as u64) as usize
    }

    /// Direct handle to shard `i` (tests, per-shard diagnostics).
    pub fn shard(&self, i: usize) -> &Database {
        &self.shards[i]
    }

    /// Current configuration (shards share one; shard 0 is authoritative).
    pub fn config(&self) -> DbConfig {
        self.shards[0].config()
    }

    /// Retune every shard's configuration at runtime.
    pub fn reconfigure(&self, config: DbConfig) {
        for shard in self.shards.iter() {
            shard.reconfigure(config.clone());
        }
    }

    /// Live key/value pairs across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Database::len).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(Database::is_empty)
    }

    /// Aggregate statistics (field-wise sum over shards).
    pub fn stats(&self) -> DbStatsSnapshot {
        self.shards.iter().map(Database::stats).fold(DbStatsSnapshot::default(), |a, b| a + b)
    }

    /// Per-shard statistics, in shard order.
    pub fn shard_stats(&self) -> Vec<DbStatsSnapshot> {
        self.shards.iter().map(Database::stats).collect()
    }

    /// Point lookup, routed to the owning shard.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.shards[self.shard_of(key)].get(key)
    }

    /// Single-key autocommit write, routed to the owning shard. The
    /// observer (if any) runs after the commit and while the shard writer
    /// lock is still held, so per-key observer order always matches
    /// database commit order.
    pub fn put(&self, key: &[u8], value: &[u8]) {
        // Clone the observer handle out before taking the shard lock:
        // holding the registry read guard across the shard lock would
        // invert multi_put's lock order and deadlock against a queued
        // set/clear_write_observer writer.
        let observer = self.observer.read().clone();
        let mut txn = self.shards[self.shard_of(key)].begin_write().expect("writer lock");
        txn.put(key, value);
        txn.commit_then(None, || announce(&observer, [(key, Some(value))].into_iter()));
    }

    /// Single-key autocommit delete; returns whether the key existed.
    pub fn del(&self, key: &[u8]) -> bool {
        let observer = self.observer.read().clone();
        let mut txn = self.shards[self.shard_of(key)].begin_write().expect("writer lock");
        let existed = txn.del(key);
        txn.commit_then(None, || announce(&observer, [(key, None)].into_iter()));
        existed
    }

    /// Write a batch: group pairs by shard, then one write transaction
    /// per shard touched. Atomic within each shard, not across shards.
    pub fn multi_put(&self, pairs: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>) {
        let mut groups: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); self.shards.len()];
        for (k, v) in pairs {
            groups[self.shard_of(&k)].push((k, v));
        }
        let observer = self.observer.read().clone();
        for (shard, group) in self.shards.iter().zip(&groups) {
            if group.is_empty() {
                continue;
            }
            let mut txn = shard.begin_write().expect("writer lock");
            for (k, v) in group {
                txn.put(k, v);
            }
            txn.commit_then(None, || {
                announce(&observer, group.iter().map(|(k, v)| (&k[..], Some(&v[..]))))
            });
        }
    }

    /// Write a batch **atomically across shards** via two-phase commit
    /// with the default lock deadline. See [`ShardedDb::txn_write`].
    pub fn multi_put_txn(
        &self,
        pairs: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<(), TxnError> {
        self.txn_write(
            pairs.into_iter().map(|(k, v)| WalOp::Put(k.into(), v.into())).collect(),
            TXN_LOCK_DEADLINE,
        )
    }

    /// Delete a key set **atomically across shards** via two-phase commit
    /// with the default lock deadline. See [`ShardedDb::txn_write`].
    pub fn multi_del_txn(&self, keys: impl IntoIterator<Item = Vec<u8>>) -> Result<(), TxnError> {
        self.txn_write(keys.into_iter().map(|k| WalOp::Del(k.into())).collect(), TXN_LOCK_DEADLINE)
    }

    /// Run one cross-shard transaction: lock every touched key (per-shard
    /// tables, ascending shard order, bounded by `deadline`), prepare on
    /// every touched shard's WAL, then decide-and-apply shard by shard.
    /// On `Ok` the whole batch is durable per the configured sync mode
    /// and will survive any crash; on `Err` none of it will (modulo
    /// [`TxnError::Crashed`], whose leftovers recovery resolves).
    pub fn txn_write(&self, ops: Vec<WalOp>, deadline: Duration) -> Result<(), TxnError> {
        let txn_id = self.txn.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut groups: Vec<Vec<WalOp>> = vec![Vec::new(); self.shards.len()];
        for op in ops {
            groups[self.shard_of(op.key())].push(op);
        }
        let touched: Vec<usize> = (0..groups.len()).filter(|&s| !groups[s].is_empty()).collect();
        if touched.is_empty() {
            self.txn.commits.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        // Pointer clones: the lock tables share the ops' key buffers.
        let keys: Vec<Vec<Bytes>> =
            groups.iter().map(|group| group.iter().map(|op| op.key().clone()).collect()).collect();
        let unlock_upto = |count: usize| {
            for &s in &touched[..count] {
                self.txn.locks[s].unlock_keys(&keys[s]);
            }
        };

        // Phase 0: lock, ascending shard order (global order = no
        // deadlock between concurrent transactions), one shared deadline.
        let lock_deadline = Instant::now() + deadline;
        for (done, &s) in touched.iter().enumerate() {
            if !self.txn.locks[s].lock_keys(&keys[s], lock_deadline) {
                unlock_upto(done);
                self.txn.aborts.fetch_add(1, Ordering::Relaxed);
                return Err(TxnError::LockTimeout);
            }
        }

        // Phase 1: prepare everywhere. A WAL failure aborts: every shard
        // already prepared gets an abort decision so nothing stays in
        // doubt longer than the failure itself.
        for (done, &s) in touched.iter().enumerate() {
            if self.crash_hit(TxnCrashPoint::AfterPrepares(done)) {
                unlock_upto(touched.len());
                return Err(TxnError::Crashed);
            }
            if let Err(e) = self.shards[s].txn_prepare(txn_id, &groups[s]) {
                for &p in &touched[..done] {
                    let _ = self.shards[p].txn_abort(txn_id);
                }
                unlock_upto(touched.len());
                self.txn.aborts.fetch_add(1, Ordering::Relaxed);
                return Err(TxnError::Io(e.to_string()));
            }
        }
        if self.crash_hit(TxnCrashPoint::AfterPrepares(touched.len())) {
            unlock_upto(touched.len());
            return Err(TxnError::Crashed);
        }

        // Phase 2: decide + apply, shard by shard. The decision record is
        // appended and the tree published under the same shard writer
        // lock ([`crate::WriteTxn::commit_txn`]), so replay order always
        // matches live apply order. The observer handle is cloned out
        // *before* any shard writer lock is taken — same lock-order rule
        // as `multi_put`.
        let observer = self.observer.read().clone();
        for (done, &s) in touched.iter().enumerate() {
            let mut write = self.shards[s].begin_write().expect("writer lock");
            for op in &groups[s] {
                // The prepared op's value cell becomes the tree's cell.
                write.apply(op);
            }
            write.commit_then(Some(txn_id), || {
                announce(
                    &observer,
                    groups[s].iter().map(|op| match op {
                        WalOp::Put(k, v) => (&k[..], Some(&v[..])),
                        WalOp::Del(k) => (&k[..], None),
                    }),
                )
            });
            if self.crash_hit(TxnCrashPoint::AfterDecisions(done + 1)) {
                unlock_upto(touched.len());
                return Err(TxnError::Crashed);
            }
        }
        unlock_upto(touched.len());
        self.txn.commits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Transaction counters (coordinator-level, not per shard).
    pub fn txn_stats(&self) -> TxnStatsSnapshot {
        TxnStatsSnapshot {
            commits: self.txn.commits.load(Ordering::Relaxed),
            aborts: self.txn.aborts.load(Ordering::Relaxed),
            recovered: self.txn.recovered.load(Ordering::Relaxed),
        }
    }

    /// Arm an injected coordinator crash (see [`TxnCrashPoint`]): the
    /// next transaction to reach the point consumes it and dies there.
    /// Fault-matrix tests only; production code never arms this.
    pub fn arm_txn_crash(&self, point: TxnCrashPoint) {
        *self.txn.crash.lock() = Some(point);
    }

    /// Consume the armed crash point if the protocol just reached it.
    fn crash_hit(&self, reached: TxnCrashPoint) -> bool {
        let mut armed = self.txn.crash.lock();
        if *armed == Some(reached) {
            *armed = None;
            true
        } else {
            false
        }
    }

    /// Batched point lookups under one sharded snapshot.
    pub fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>, KvError> {
        let read = self.begin_read()?;
        Ok(keys.iter().map(|k| read.get(k)).collect())
    }

    /// Open a read transaction spanning all shards: one snapshot per
    /// shard, each internally consistent. Fails with
    /// [`KvError::ReadersFull`] if any shard's reader table is full
    /// (already-taken snapshots are released).
    pub fn begin_read(&self) -> Result<ShardedReadTxn, KvError> {
        let mut txns = Vec::with_capacity(self.shards.len());
        for shard in self.shards.iter() {
            txns.push(shard.begin_read()?);
        }
        Ok(ShardedReadTxn { txns })
    }
}

/// A read transaction over every shard: per-shard snapshot isolation
/// (each shard's view is a single consistent snapshot; the set of
/// snapshots was not taken atomically across shards).
#[derive(Debug)]
pub struct ShardedReadTxn {
    /// One snapshot per shard, in shard order.
    txns: Vec<ReadTxn>,
}

impl ShardedReadTxn {
    /// Point lookup within the owning shard's snapshot.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let shard = (fnv1a(key) % self.txns.len() as u64) as usize;
        self.txns[shard].get(key)
    }

    /// Entries across all shard snapshots.
    pub fn len(&self) -> usize {
        self.txns.iter().map(ReadTxn::len).sum()
    }

    /// True when every shard snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.txns.iter().all(ReadTxn::is_empty)
    }

    /// Ordered range scan: per-shard cursors merged back into global key
    /// order (k-way merge; shard counts are small, so a linear min scan
    /// over peeked heads beats a heap).
    pub fn range(&self, range: std::ops::Range<Vec<u8>>) -> MergedCursor<'_> {
        MergedCursor {
            cursors: self.txns.iter().map(|t| t.range(range.clone()).peekable()).collect(),
        }
    }
}

/// K-way merge over per-shard [`Cursor`]s, yielding global key order.
pub struct MergedCursor<'a> {
    cursors: Vec<std::iter::Peekable<Cursor<'a>>>,
}

impl Iterator for MergedCursor<'_> {
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        // Each key lives in exactly one shard, so ties are impossible and
        // the minimum peeked head is the unique next entry.
        let mut best: Option<(usize, Vec<u8>)> = None;
        for (i, cursor) in self.cursors.iter_mut().enumerate() {
            let Some((key, _)) = cursor.peek() else { continue };
            match &best {
                Some((_, b)) if b <= key => {}
                _ => best = Some((i, key.clone())),
            }
        }
        self.cursors[best?.0].next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyncMode;

    fn db(shards: u32) -> ShardedDb {
        ShardedDb::new(DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() }, shards)
    }

    type Mutation = (Vec<u8>, Option<Vec<u8>>);

    /// Records every mutation it hears of, and checks the store already
    /// serves it: an observer is told of a write after its commit has
    /// published (and, under the shard writer lock, before the next one).
    struct Recorder {
        db: ShardedDb,
        events: std::sync::Mutex<Vec<Mutation>>,
        /// Per announced batch: its keys, and how many events preceded it.
        batches: std::sync::Mutex<Vec<(Vec<Vec<u8>>, usize)>>,
    }

    impl Recorder {
        fn observe(db: &ShardedDb) -> Arc<Recorder> {
            let rec = Arc::new(Recorder {
                db: db.clone(),
                events: Default::default(),
                batches: Default::default(),
            });
            db.set_write_observer(rec.clone());
            rec
        }
    }

    impl WriteObserver for Recorder {
        fn on_put(&self, key: &[u8], value: &[u8]) {
            assert_eq!(self.db.get(key).as_deref(), Some(value), "told of an unpublished put");
            self.events.lock().unwrap().push((key.to_vec(), Some(value.to_vec())));
        }
        fn on_del(&self, key: &[u8]) {
            assert_eq!(self.db.get(key), None, "told of an unpublished delete");
            self.events.lock().unwrap().push((key.to_vec(), None));
        }
        fn on_batch(&self, keys: &mut dyn Iterator<Item = &[u8]>) {
            let seen = self.events.lock().unwrap().len();
            self.batches.lock().unwrap().push((keys.map(<[u8]>::to_vec).collect(), seen));
        }
    }

    #[test]
    fn routing_is_stable_and_total() {
        let db = db(8);
        for i in 0..500u32 {
            let key = format!("key{i}").into_bytes();
            let s = db.shard_of(&key);
            assert!(s < 8);
            assert_eq!(s, db.shard_of(&key), "routing is deterministic");
        }
    }

    #[test]
    fn put_get_del_route_to_owning_shard() {
        let db = db(4);
        for i in 0..200u32 {
            db.put(format!("k{i}").as_bytes(), &i.to_le_bytes());
        }
        assert_eq!(db.len(), 200);
        for i in 0..200u32 {
            let key = format!("k{i}").into_bytes();
            assert_eq!(db.get(&key), Some(i.to_le_bytes().to_vec()));
            // The key is physically in exactly its hash shard.
            let owner = db.shard_of(&key);
            for s in 0..4 {
                assert_eq!(db.shard(s).get(&key).is_some(), s == owner);
            }
        }
        assert!(db.del(b"k17"));
        assert!(!db.del(b"k17"));
        assert_eq!(db.get(b"k17"), None);
        assert_eq!(db.len(), 199);
    }

    #[test]
    fn merged_scan_is_globally_ordered() {
        for shards in [1u32, 2, 8] {
            let db = db(shards);
            for i in (0..300u32).rev() {
                db.put(format!("k{i:05}").as_bytes(), &i.to_le_bytes());
            }
            let read = db.begin_read().unwrap();
            let all: Vec<_> = read.range(vec![]..vec![0xff]).collect();
            assert_eq!(all.len(), 300, "{shards} shards");
            assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "{shards} shards: ordered");
            let bounded: Vec<_> =
                read.range(b"k00010".to_vec()..b"k00020".to_vec()).map(|(k, _)| k).collect();
            assert_eq!(bounded.len(), 10);
            assert_eq!(bounded[0], b"k00010");
        }
    }

    #[test]
    fn multi_put_commits_once_per_shard_touched() {
        let db = db(4);
        let pairs: Vec<_> =
            (0..40u32).map(|i| (format!("k{i}").into_bytes(), vec![i as u8; 10])).collect();
        let shards_touched: std::collections::BTreeSet<_> =
            pairs.iter().map(|(k, _)| db.shard_of(k)).collect();
        db.multi_put(pairs.clone());
        let commits: u64 = db.shard_stats().iter().map(|s| s.commits).sum();
        assert_eq!(commits, shards_touched.len() as u64, "one txn per shard touched");
        for (k, v) in &pairs {
            assert_eq!(db.get(k).as_deref(), Some(v.as_slice()));
        }
    }

    #[test]
    fn sharded_read_is_a_per_shard_snapshot() {
        let db = db(4);
        db.put(b"stable", b"old");
        let read = db.begin_read().unwrap();
        db.put(b"stable", b"new");
        assert_eq!(read.get(b"stable").as_deref(), Some(&b"old"[..]));
        assert_eq!(db.get(b"stable").as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn readers_full_releases_partial_snapshots() {
        let db = ShardedDb::new(
            DbConfig { max_readers: 1, sync_mode: SyncMode::NoSync, ..Default::default() },
            4,
        );
        let r1 = db.begin_read().unwrap();
        assert_eq!(db.begin_read().unwrap_err(), KvError::ReadersFull);
        drop(r1);
        // Had the failed attempt leaked its partial snapshots, shard 0's
        // single reader slot would still be held here.
        assert!(db.begin_read().is_ok());
    }

    #[test]
    fn stats_aggregate_and_per_shard() {
        let db = db(2);
        for i in 0..20u32 {
            db.put(format!("k{i}").as_bytes(), &[1, 2, 3]);
        }
        let agg = db.stats();
        assert_eq!(agg.puts, 20);
        assert_eq!(agg.commits, 20);
        assert!(agg.bytes_written > 0);
        let per: Vec<_> = db.shard_stats();
        assert_eq!(per.len(), 2);
        assert_eq!(per.iter().map(|s| s.puts).sum::<u64>(), 20);
        assert!(per.iter().all(|s| s.puts > 0), "uniform keys reach both shards");
    }

    #[test]
    fn shard_count_is_clamped() {
        assert_eq!(db(0).shard_count(), 1);
        assert_eq!(ShardedDb::new(DbConfig::default(), 1000).shard_count(), MAX_SHARDS as usize);
    }

    /// The write observer sees every mutation, and per-key event order
    /// matches commit order even under concurrent same-key writers —
    /// the callback runs inside the shard writer-lock scope.
    #[test]
    fn write_observer_sees_all_mutations_in_per_key_order() {
        let db = db(4);
        let rec = Recorder::observe(&db);

        db.put(b"a", b"1");
        db.multi_put([(b"a".to_vec(), b"2".to_vec()), (b"b".to_vec(), b"1".to_vec())]);
        db.del(b"b");
        {
            let events = rec.events.lock().unwrap();
            assert_eq!(events.len(), 4);
            let a: Vec<_> = events.iter().filter(|(k, _)| k == b"a").collect();
            assert_eq!(
                a,
                [&(b"a".to_vec(), Some(b"1".to_vec())), &(b"a".to_vec(), Some(b"2".to_vec()))]
            );
            assert_eq!(events.last().unwrap(), &(b"b".to_vec(), None));
        }

        // Concurrent same-key writers: the observer's last event for the
        // key must carry the value the database actually holds.
        rec.events.lock().unwrap().clear();
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u8 {
                    db.put(b"hot", &[t, i]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        {
            let events = rec.events.lock().unwrap();
            assert_eq!(events.len(), 200);
            let last = events.last().unwrap().1.clone().unwrap();
            assert_eq!(db.get(b"hot").unwrap(), last, "observer tail matches committed value");
        }

        db.clear_write_observer();
        db.put(b"quiet", b"x");
        assert_eq!(rec.events.lock().unwrap().len(), 200, "cleared observer sees nothing");
    }

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hatkvdb-sharded-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn multi_put_txn_commits_across_shards_and_survives_reopen() {
        let dir = temp_dir("txn-commit");
        let pairs: Vec<_> =
            (0..32u32).map(|i| (format!("tk{i}").into_bytes(), vec![i as u8; 8])).collect();
        {
            let db = ShardedDb::open(&dir, DbConfig::default(), 4).unwrap();
            db.multi_put_txn(pairs.clone()).unwrap();
            assert_eq!(db.txn_stats().commits, 1);
            for (k, v) in &pairs {
                assert_eq!(db.get(k).as_deref(), Some(v.as_slice()));
            }
        }
        let db = ShardedDb::open(&dir, DbConfig::default(), 4).unwrap();
        assert_eq!(db.txn_stats().recovered, 0, "clean shutdown leaves nothing in doubt");
        for (k, v) in &pairs {
            assert_eq!(db.get(k).as_deref(), Some(v.as_slice()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_del_txn_deletes_across_shards() {
        let db = db(4);
        let keys: Vec<Vec<u8>> = (0..20u32).map(|i| format!("dk{i}").into_bytes()).collect();
        for k in &keys {
            db.put(k, b"v");
        }
        db.multi_del_txn(keys.clone()).unwrap();
        assert!(db.is_empty());
        assert_eq!(db.txn_stats().commits, 1);
    }

    #[test]
    fn crash_after_all_prepares_aborts_on_recovery() {
        let dir = temp_dir("txn-crash-prepare");
        let pairs: Vec<_> =
            (0..16u32).map(|i| (format!("ck{i}").into_bytes(), b"doomed".to_vec())).collect();
        {
            let db = ShardedDb::open(&dir, DbConfig::default(), 4).unwrap();
            db.put(b"anchor", b"pre-crash");
            let touched: HashSet<usize> = pairs.iter().map(|(k, _)| db.shard_of(k)).collect();
            db.arm_txn_crash(TxnCrashPoint::AfterPrepares(touched.len()));
            assert_eq!(db.multi_put_txn(pairs.clone()), Err(TxnError::Crashed));
            // The crashed coordinator never applied anything.
            for (k, _) in &pairs {
                assert_eq!(db.get(k), None);
            }
        }
        // Restart: no commit decision anywhere => presumed abort.
        let db = ShardedDb::open(&dir, DbConfig::default(), 4).unwrap();
        assert_eq!(db.txn_stats().recovered, 1);
        for (k, _) in &pairs {
            assert_eq!(db.get(k), None, "unacknowledged txn must not surface");
        }
        assert_eq!(db.get(b"anchor").as_deref(), Some(&b"pre-crash"[..]));
        // Resolution was made durable: a second reopen finds nothing.
        drop(db);
        let db = ShardedDb::open(&dir, DbConfig::default(), 4).unwrap();
        assert_eq!(db.txn_stats().recovered, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_decision_rolls_forward_on_recovery() {
        let dir = temp_dir("txn-crash-decide");
        let pairs: Vec<_> =
            (0..16u32).map(|i| (format!("rk{i}").into_bytes(), b"decided".to_vec())).collect();
        let touched: usize;
        {
            let db = ShardedDb::open(&dir, DbConfig::default(), 4).unwrap();
            touched = pairs.iter().map(|(k, _)| db.shard_of(k)).collect::<HashSet<_>>().len();
            assert!(touched >= 2, "need a genuinely cross-shard batch");
            // Die after the first shard's commit decision: siblings stay
            // prepared-but-undecided with commit evidence on shard one.
            db.arm_txn_crash(TxnCrashPoint::AfterDecisions(1));
            assert_eq!(db.multi_put_txn(pairs.clone()), Err(TxnError::Crashed));
        }
        let db = ShardedDb::open(&dir, DbConfig::default(), 4).unwrap();
        assert_eq!(db.txn_stats().recovered, 1);
        for (k, v) in &pairs {
            assert_eq!(db.get(k).as_deref(), Some(v.as_slice()), "decided txn rolls forward");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_timeout_aborts_without_a_trace() {
        let db = db(4);
        let key: Bytes = b"contended"[..].into();
        let shard = db.shard_of(&key);
        // Hold the key's lock directly, then watch a txn time out.
        db.txn.locks[shard].lock_keys(std::slice::from_ref(&key), Instant::now());
        assert_eq!(
            db.txn_write(
                vec![WalOp::Put(key.clone(), b"blocked"[..].into())],
                Duration::from_millis(10),
            ),
            Err(TxnError::LockTimeout)
        );
        assert_eq!(db.txn_stats().aborts, 1);
        assert_eq!(db.get(&key), None);
        db.txn.locks[shard].unlock_keys(std::slice::from_ref(&key));
        // Freed: the same txn now succeeds.
        db.multi_put_txn([(key.to_vec(), b"after".to_vec())]).unwrap();
        assert_eq!(db.get(&key).as_deref(), Some(&b"after"[..]));
    }

    #[test]
    fn concurrent_txns_on_overlapping_keys_serialize() {
        let db = db(8);
        let keys: Vec<Vec<u8>> = (0..8u32).map(|i| format!("shared{i}").into_bytes()).collect();
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let db = db.clone();
            let keys = keys.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..25u8 {
                    let pairs: Vec<_> = keys.iter().map(|k| (k.clone(), vec![t, round])).collect();
                    db.multi_put_txn(pairs).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Key locks held through the last decision mean every committed
        // txn is all-or-nothing even across shards: the quiesced state
        // carries exactly one (writer, round) marker on every key.
        let first = db.get(&keys[0]).unwrap();
        for k in &keys {
            assert_eq!(db.get(k).unwrap(), first, "torn cross-shard txn visible");
        }
        assert_eq!(db.txn_stats().commits, 100);
    }

    #[test]
    fn txn_observer_sees_mutations_like_multi_put() {
        let db = db(4);
        let rec = Recorder::observe(&db);
        db.multi_put_txn([(b"o1".to_vec(), b"v".to_vec()), (b"o2".to_vec(), b"v".to_vec())])
            .unwrap();
        db.multi_del_txn([b"o1".to_vec()]).unwrap();
        assert_eq!(rec.events.lock().unwrap().len(), 3);
        assert_eq!(rec.events.lock().unwrap()[2], (b"o1".to_vec(), None));

        // Keys committed together in one shard are announced as a batch,
        // bracket first, on the plain and the 2PC path alike; a lone key
        // is not.
        let one = self::db(1);
        let rec = Recorder::observe(&one);
        let pairs = |v: &[u8]| [(b"a".to_vec(), v.to_vec()), (b"b".to_vec(), v.to_vec())];
        one.multi_put(pairs(b"1"));
        one.multi_put_txn(pairs(b"2")).unwrap();
        one.multi_put([(b"a".to_vec(), b"3".to_vec())]);
        one.put(b"b", b"3");
        let both = vec![b"a".to_vec(), b"b".to_vec()];
        assert_eq!(*rec.batches.lock().unwrap(), [(both.clone(), 0), (both, 2)]);
        assert_eq!(rec.events.lock().unwrap().len(), 6);
    }

    #[test]
    fn concurrent_writers_on_distinct_shards_make_progress() {
        let db = db(8);
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    db.put(format!("w{t}-k{i}").as_bytes(), &i.to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.len(), 800);
    }
}
