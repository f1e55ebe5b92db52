//! Property-based tests for the copy-on-write B+Tree store: arbitrary
//! operation sequences must match a `BTreeMap` model exactly, snapshots
//! must be immutable, and cursors must agree with model ranges. Tree and
//! snapshots share key/value buffers, so one property drives the tree
//! through leaf and branch splits and merges under a held snapshot.
//!
//! A write transaction is a list of operations applied to the committed
//! tree in place at commit, so further properties interleave snapshots
//! with a transaction's puts, deletes, reads, aborts and commits, check a
//! 64-key commit is seen whole or not at all, and replay one large WAL
//! batch that puts and deletes the same keys.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use hat_kvdb::{Database, DbConfig, ReadTxn, SyncMode, WriteTxn};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum KvOp {
    Put(Vec<u8>, Vec<u8>),
    Del(Vec<u8>),
    Get(Vec<u8>),
}

fn key() -> impl Strategy<Value = Vec<u8>> {
    // A smallish key space forces overwrite/delete collisions.
    prop::collection::vec(0u8..16, 1..6)
}

fn op() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        (key(), prop::collection::vec(any::<u8>(), 0..32)).prop_map(|(k, v)| KvOp::Put(k, v)),
        key().prop_map(KvOp::Del),
        key().prop_map(KvOp::Get),
    ]
}

/// A mutation over a wide (u16-indexed) key space: wide enough that the
/// tree grows branch levels, with contiguous range deletes that empty
/// whole leaves and force leaf *and* branch merges.
#[derive(Debug, Clone)]
enum Churn {
    Put(u16, Vec<u8>),
    Del(u16),
    DelRange(u16, u16),
}

fn wide_key(i: u16) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

fn churn() -> impl Strategy<Value = Churn> {
    prop_oneof![
        (0u16..2048, prop::collection::vec(any::<u8>(), 0..24)).prop_map(|(k, v)| Churn::Put(k, v)),
        (0u16..2048, prop::collection::vec(any::<u8>(), 0..24)).prop_map(|(k, v)| Churn::Put(k, v)),
        (0u16..2048).prop_map(Churn::Del),
        (0u16..2048, 64u16..512).prop_map(|(k, n)| Churn::DelRange(k, n)),
    ]
}

fn db() -> Database {
    Database::new(DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() })
}

/// One step of an interleaving of write transactions and snapshots. A
/// `Put`, `Del` or `Get` opens a transaction when none is open.
#[derive(Debug, Clone)]
enum Step {
    Put(u16, Vec<u8>),
    Del(u16),
    Get(u16),
    Commit,
    Abort,
    Snapshot,
    Release(usize),
}

/// Keys over `0..1024`, so a seeded tree has branch levels and puts,
/// deletes and reads hit both seeded and fresh keys.
fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u16..1024, prop::collection::vec(any::<u8>(), 0..16)).prop_map(|(k, v)| Step::Put(k, v)),
        (0u16..1024, prop::collection::vec(any::<u8>(), 0..16)).prop_map(|(k, v)| Step::Put(k, v)),
        (0u16..1024).prop_map(Step::Del),
        (0u16..1024).prop_map(Step::Del),
        (0u16..1024).prop_map(Step::Get),
        Just(Step::Commit),
        Just(Step::Abort),
        Just(Step::Snapshot),
        (0usize..8).prop_map(Step::Release),
    ]
}

/// The model a transaction or snapshot is checked against.
type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// Full scan of a snapshot.
fn scan(read: &ReadTxn) -> Vec<(Vec<u8>, Vec<u8>)> {
    read.range(vec![]..vec![0xff; 3]).collect()
}

fn entries(model: &Model) -> Vec<(Vec<u8>, Vec<u8>)> {
    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// A WAL file under the temp directory, unique per test case.
fn wal_path(name: &str, case: u32) -> std::path::PathBuf {
    let path = std::env::temp_dir()
        .join(format!("hatkvdb-proptest-{name}-{}-{case}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_btreemap_model(ops in prop::collection::vec(op(), 1..400)) {
        let db = db();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                KvOp::Put(k, v) => {
                    let mut txn = db.begin_write().unwrap();
                    txn.put(k, v);
                    txn.commit();
                    model.insert(k.clone(), v.clone());
                }
                KvOp::Del(k) => {
                    let mut txn = db.begin_write().unwrap();
                    let existed = txn.del(k);
                    txn.commit();
                    prop_assert_eq!(existed, model.remove(k).is_some());
                }
                KvOp::Get(k) => {
                    prop_assert_eq!(db.get(k), model.get(k).cloned());
                }
            }
        }
        prop_assert_eq!(db.len(), model.len());
        // Full-scan equivalence.
        let read = db.begin_read().unwrap();
        let scanned: Vec<_> = read.range(vec![]..vec![0xff; 8]).collect();
        let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expected);
    }

    #[test]
    fn snapshots_never_observe_later_writes(
        initial in prop::collection::btree_map(key(), prop::collection::vec(any::<u8>(), 0..16), 1..50),
        later in prop::collection::vec((key(), prop::collection::vec(any::<u8>(), 0..16)), 1..50),
    ) {
        let db = db();
        {
            let mut txn = db.begin_write().unwrap();
            for (k, v) in &initial {
                txn.put(k, v);
            }
            txn.commit();
        }
        let snapshot = db.begin_read().unwrap();
        {
            let mut txn = db.begin_write().unwrap();
            for (k, v) in &later {
                txn.put(k, v);
            }
            txn.commit();
        }
        // The snapshot equals the initial state exactly.
        let snap: Vec<_> = snapshot.range(vec![]..vec![0xff; 8]).collect();
        let want: Vec<_> = initial.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(snap, want);
    }

    /// Snapshots share key/value buffers with the live tree. A `ReadTxn`
    /// and a `Cursor` opened *before* a run of overwrites and deletes that
    /// splits and merges leaves and branches must still return the old
    /// bytes, and what the reader got must stay valid once the writer has
    /// committed and the old root is gone.
    #[test]
    fn held_snapshot_survives_splits_and_merges_of_shared_buffers(
        seeded in 900u16..1800,
        ops in prop::collection::vec(churn(), 50..250),
        probes in prop::collection::vec(0u16..2048, 1..40),
    ) {
        let db = db();
        let mut initial: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        {
            let mut txn = db.begin_write().unwrap();
            for i in 0..seeded {
                let value = vec![(i % 251) as u8; 1 + (i % 40) as usize];
                txn.put(&wide_key(i), &value);
                initial.insert(wide_key(i), value);
            }
            txn.commit();
        }
        prop_assert!(db.depth() >= 3, "the seed must build branch levels");

        let snapshot = db.begin_read().unwrap();
        let mut cursor = snapshot.range(vec![]..vec![0xff; 3]);
        // Pull a few entries first: the cursor is mid-leaf while the
        // writer reshapes the tree under it.
        let mut scanned: Vec<_> = cursor.by_ref().take(100).collect();

        let mut model = initial.clone();
        for batch in ops.chunks(16) {
            let mut txn = db.begin_write().unwrap();
            for op in batch {
                match op {
                    Churn::Put(k, v) => {
                        txn.put(&wide_key(*k), v);
                        model.insert(wide_key(*k), v.clone());
                    }
                    Churn::Del(k) => {
                        prop_assert_eq!(txn.del(&wide_key(*k)), model.remove(&wide_key(*k)).is_some());
                    }
                    Churn::DelRange(start, n) => {
                        for k in *start..start.saturating_add(*n).min(2048) {
                            prop_assert_eq!(txn.del(&wide_key(k)), model.remove(&wide_key(k)).is_some());
                        }
                    }
                }
            }
            txn.commit();
        }

        // The held snapshot still reads the seed state, point and scan.
        let got: Vec<_> = probes.iter().map(|p| snapshot.get(&wide_key(*p))).collect();
        for (p, value) in probes.iter().zip(&got) {
            prop_assert_eq!(value.as_ref(), initial.get(&wide_key(*p)));
        }
        scanned.extend(cursor);
        let want: Vec<_> = initial.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(&scanned, &want);

        // Drop the last owner of the old root, commit once more, and the
        // bytes the reader took are still the seed's.
        drop(snapshot);
        db.put(&wide_key(0), b"after");
        model.insert(wide_key(0), b"after".to_vec());
        for (p, value) in probes.iter().zip(&got) {
            prop_assert_eq!(value.as_ref(), initial.get(&wide_key(*p)));
        }
        prop_assert_eq!(&scanned, &want);

        // And the live tree equals the model after all that reshaping.
        let live: Vec<_> = db.begin_read().unwrap().range(vec![]..vec![0xff; 3]).collect();
        let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(live, expected);
    }

    #[test]
    fn range_scans_match_model_ranges(
        entries in prop::collection::btree_map(key(), prop::collection::vec(any::<u8>(), 0..8), 0..80),
        lo in key(),
        hi in key(),
    ) {
        let db = db();
        {
            let mut txn = db.begin_write().unwrap();
            for (k, v) in &entries {
                txn.put(k, v);
            }
            txn.commit();
        }
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let read = db.begin_read().unwrap();
        let got: Vec<_> = read.range(lo.clone()..hi.clone()).collect();
        let want: Vec<_> = entries
            .range(lo..hi)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn aborted_transactions_leave_no_trace(
        committed in prop::collection::vec((key(), prop::collection::vec(any::<u8>(), 0..8)), 1..30),
        aborted in prop::collection::vec((key(), prop::collection::vec(any::<u8>(), 0..8)), 1..30),
    ) {
        let db = db();
        {
            let mut txn = db.begin_write().unwrap();
            for (k, v) in &committed {
                txn.put(k, v);
            }
            txn.commit();
        }
        let before: Vec<_> = {
            let r = db.begin_read().unwrap();
            r.range(vec![]..vec![0xff; 8]).collect()
        };
        {
            let mut txn = db.begin_write().unwrap();
            for (k, v) in &aborted {
                txn.put(k, v);
            }
            for (k, _) in &committed {
                txn.del(k);
            }
            txn.abort();
        }
        let after: Vec<_> = {
            let r = db.begin_read().unwrap();
            r.range(vec![]..vec![0xff; 8]).collect()
        };
        prop_assert_eq!(before, after);
    }

    /// Snapshots taken at any point — before, between and inside write
    /// transactions — interleaved with a transaction's puts, deletes,
    /// reads, aborts and commits. A transaction's `get` and `del` see its
    /// own ops, an aborted one leaves the tree as it was, a committed one
    /// is the model's pending state, and a held snapshot never changes.
    #[test]
    fn txns_interleaved_with_snapshots_match_the_model(
        seeded in 0u16..700,
        steps in prop::collection::vec(step(), 1..240),
    ) {
        let db = db();
        let mut committed = Model::new();
        {
            let mut txn = db.begin_write().unwrap();
            for i in 0..seeded {
                txn.put(&wide_key(i), &[i as u8]);
                committed.insert(wide_key(i), vec![i as u8]);
            }
            txn.commit();
        }
        let mut held: Vec<(ReadTxn, Model)> = Vec::new();
        let mut open: Option<(WriteTxn<'_>, Model)> = None;
        for step in &steps {
            if matches!(step, Step::Put(..) | Step::Del(_) | Step::Get(_)) && open.is_none() {
                open = Some((db.begin_write().unwrap(), committed.clone()));
            }
            match step {
                Step::Put(k, v) => {
                    let (txn, pending) = open.as_mut().unwrap();
                    txn.put(&wide_key(*k), v);
                    pending.insert(wide_key(*k), v.clone());
                }
                Step::Del(k) => {
                    let (txn, pending) = open.as_mut().unwrap();
                    prop_assert_eq!(txn.del(&wide_key(*k)), pending.remove(&wide_key(*k)).is_some());
                }
                Step::Get(k) => {
                    let (txn, pending) = open.as_mut().unwrap();
                    prop_assert_eq!(txn.get(&wide_key(*k)), pending.get(&wide_key(*k)).cloned());
                }
                Step::Commit => {
                    if let Some((txn, pending)) = open.take() {
                        txn.commit();
                        committed = pending;
                    }
                }
                Step::Abort => {
                    if let Some((txn, _)) = open.take() {
                        txn.abort();
                    }
                }
                Step::Snapshot => {
                    if held.len() == 8 {
                        held.remove(0);
                    }
                    held.push((db.begin_read().unwrap(), committed.clone()));
                }
                Step::Release(i) => {
                    if !held.is_empty() {
                        held.remove(i % held.len());
                    }
                }
            }
            if matches!(step, Step::Commit | Step::Abort) {
                prop_assert_eq!(scan(&db.begin_read().unwrap()), entries(&committed));
                for (snapshot, model) in &held {
                    prop_assert_eq!(snapshot.len(), model.len());
                }
            }
        }
        if let Some((txn, pending)) = open.take() {
            txn.commit();
            committed = pending;
        }
        prop_assert_eq!(scan(&db.begin_read().unwrap()), entries(&committed));
        for (snapshot, model) in &held {
            prop_assert_eq!(scan(snapshot), entries(model));
        }
    }

    /// WAL replay of one large batch that puts, deletes and re-puts the
    /// same keys: the batch is recorded without per-op scans and applied
    /// in order, so the reopened tree equals the model.
    #[test]
    fn wal_replay_of_one_batch_mixing_puts_and_deletes_of_the_same_keys(
        ops in prop::collection::vec(churn(), 500..3000),
        case in any::<u32>(),
    ) {
        let path = wal_path("mixed-batch", case);
        let config = DbConfig { sync_mode: SyncMode::Async, ..Default::default() };
        let mut model = Model::new();
        {
            let db = Database::open(&path, config.clone()).unwrap();
            let mut txn = db.begin_write().unwrap();
            for op in &ops {
                match op {
                    Churn::Put(k, v) => {
                        // A narrow key space, so puts and deletes collide.
                        txn.put(&wide_key(k % 300), v);
                        model.insert(wide_key(k % 300), v.clone());
                    }
                    Churn::Del(k) => {
                        let k = wide_key(k % 300);
                        prop_assert_eq!(txn.del(&k), model.remove(&k).is_some());
                    }
                    Churn::DelRange(start, n) => {
                        for k in *start % 300..(start % 300 + n / 8).min(300) {
                            prop_assert_eq!(txn.del(&wide_key(k)), model.remove(&wide_key(k)).is_some());
                        }
                    }
                }
            }
            txn.commit();
            prop_assert_eq!(scan(&db.begin_read().unwrap()), entries(&model));
        }
        let reopened = Database::open(&path, config).unwrap();
        prop_assert_eq!(scan(&reopened.begin_read().unwrap()), entries(&model));
        drop(reopened);
        let _ = std::fs::remove_file(&path);
    }
}

/// A 64-key commit is applied under the root's write lock, so a snapshot
/// taken before it sees none of it and one taken after sees all of it —
/// checked once in order, then against a writer committing rounds while
/// two readers take snapshots.
#[test]
fn a_64_key_commit_is_seen_whole_or_not_at_all() {
    let db = db();
    // Spread over every leaf of a 2 048-key tree.
    let keys: Vec<Vec<u8>> = (0..64u16).map(|i| wide_key(i * 32)).collect();
    {
        let mut txn = db.begin_write().unwrap();
        for i in 0..2048u16 {
            txn.put(&wide_key(i), &0u32.to_le_bytes());
        }
        txn.commit();
    }
    let commit_round = |round: u32| {
        let mut txn = db.begin_write().unwrap();
        for k in &keys {
            txn.put(k, &round.to_le_bytes());
        }
        txn.commit();
    };
    let rounds_seen = |read: &ReadTxn| -> Vec<u32> {
        keys.iter().map(|k| u32::from_le_bytes(read.get(k).unwrap().try_into().unwrap())).collect()
    };

    let before = db.begin_read().unwrap();
    commit_round(1);
    let after = db.begin_read().unwrap();
    assert_eq!(rounds_seen(&before), vec![0; 64]);
    assert_eq!(rounds_seen(&after), vec![1; 64]);
    drop((before, after));

    let done = AtomicBool::new(false);
    let snapshots = AtomicU32::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut last = 0;
                while !done.load(Ordering::Acquire) {
                    let read = db.begin_read().unwrap();
                    let seen = rounds_seen(&read);
                    assert!(seen.iter().all(|&r| r == seen[0]), "a torn commit: {seen:?}");
                    assert!(seen[0] >= last, "rounds went back: {} after {last}", seen[0]);
                    last = seen[0];
                    snapshots.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for round in 2..=300 {
            commit_round(round);
        }
        done.store(true, Ordering::Release);
    });
    assert!(snapshots.load(Ordering::Relaxed) > 0);
    assert_eq!(rounds_seen(&db.begin_read().unwrap()), vec![300; 64]);
}
