//! "Unacked means invisible" on the one-sided GET path: the MR-backed
//! index is mirrored from the write path only once a commit has been
//! logged and published, so a one-sided GET can lag the store by the
//! mirror step (stale) but can never show a write the store does not
//! serve yet, and that a crash could still lose (early).
//!
//! A 2 ms modelled commit stall holds each write form of [`ShardedDb`]
//! between "applied to the transaction" and "committed" while the main
//! thread alternates a one-sided GET and a store GET of the same key. The
//! store is asked second, so a one-sided GET that already shows the new
//! state while the store still answers with the old one ran ahead of the
//! commit.

use std::sync::atomic::{AtomicBool, Ordering};

use hatrpc::hatkv::{hat_k_v_schema, HatKvServer};
use hatrpc::kvdb::{DbConfig, ShardedDb, SyncMode};
use hatrpc::protocols::{FallbackReason, OneSidedReader};
use hatrpc::rdma::{Fabric, SimConfig};

const V1: &[u8] = b"committed-before";
const V2: &[u8] = b"committed-after";

/// One write of `key`, and what a one-sided GET resolves to once it took.
type Write = (&'static str, fn(&ShardedDb, &[u8]), Result<Vec<u8>, FallbackReason>);

#[test]
fn a_onesided_get_never_shows_a_write_the_store_has_not_committed() {
    let fabric = Fabric::new(SimConfig::fast_test());
    let snode = fabric.add_node("kv-server");
    let cnode = fabric.add_node("reader");
    let config = DbConfig {
        sync_mode: SyncMode::NoSync,
        commit_cost_ns: Some(2_000_000),
        ..Default::default()
    };
    let server = HatKvServer::start_with_db(
        &fabric,
        &snode,
        "kv",
        hat_k_v_schema(),
        ShardedDb::new(config, 1),
    );
    let db = server.db().clone();
    let mut reader = OneSidedReader::connect(&fabric, &cnode, "kv").expect("index is hosted");

    let writes: [Write; 4] = [
        ("put", |db, k| db.put(k, V2), Ok(V2.to_vec())),
        ("multi_put", |db, k| db.multi_put([(k.to_vec(), V2.to_vec())]), Ok(V2.to_vec())),
        (
            "multi_put_txn",
            |db, k| db.multi_put_txn([(k.to_vec(), V2.to_vec())]).expect("2PC commit"),
            Ok(V2.to_vec()),
        ),
        (
            "del",
            |db, k| {
                db.del(k);
            },
            Err(FallbackReason::Miss),
        ),
    ];
    for (name, write, written) in writes {
        let key = format!("visible-{name}").into_bytes();
        db.put(&key, V1);
        assert_eq!(reader.get(&key).expect("READ"), Ok(V1.to_vec()), "{name}: seeded");

        let done = AtomicBool::new(false);
        let (polls, early) = std::thread::scope(|s| {
            s.spawn(|| {
                write(&db, &key);
                done.store(true, Ordering::Release);
            });
            let (mut polls, mut early) = (0u32, 0u32);
            while !done.load(Ordering::Acquire) {
                let onesided = reader.get(&key).expect("READ");
                let stored = db.get(&key);
                polls += 1;
                if onesided == written && stored.as_deref() == Some(V1) {
                    early += 1;
                }
            }
            (polls, early)
        });
        assert!(polls >= 10, "{name}: only {polls} polls fit in a 2 ms commit");
        assert_eq!(early, 0, "{name}: {early} of {polls} one-sided GETs ran ahead of the store");
        assert_eq!(reader.get(&key).expect("READ"), written, "{name}: mirrored after commit");
    }
    drop(reader);
    server.shutdown();
}
