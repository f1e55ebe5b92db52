//! Property-based tests for the copy-on-write B+Tree store: arbitrary
//! operation sequences must match a `BTreeMap` model exactly, snapshots
//! must be immutable, and cursors must agree with model ranges. Tree and
//! snapshots share key/value buffers, so one property drives the tree
//! through leaf and branch splits and merges under a held snapshot.

use std::collections::BTreeMap;

use hat_kvdb::{Database, DbConfig, SyncMode};
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
}
