//! Tour of HatKV (paper §4.4): the key-value store co-designed with
//! HatRPC and the embedded B+Tree store, compared against an emulated
//! RDMA KV comparator on the same server and backend.
//!
//! ```text
//! cargo run --example hatkv_tour
//! ```

use hatrpc::hatkv::comparators::{self, Comparator};
use hatrpc::hatkv::server::{HatKvServer, KvVariant};
use hatrpc::hatkv::HatKVClient;
use hatrpc::kvdb::{DbConfig, ShardedDb, SyncMode};
use hatrpc::rdma::{now_ns, Fabric, SimConfig};

fn fresh_config() -> DbConfig {
    DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() }
}

fn main() {
    let fabric = Fabric::new(SimConfig::default());

    // ---- HatKV with full function-level hints -------------------------
    let snode = fabric.add_node("hatkv-server");
    let server =
        HatKvServer::start(&fabric, &snode, "hatkv", KvVariant::FunctionHints, fresh_config());
    println!(
        "backend tuned by hints: max_readers={}, sync={:?}, shards={}",
        server.db().config().max_readers,
        server.db().config().sync_mode,
        server.db().shard_count()
    );

    let cnode = fabric.add_node("hatkv-client");
    let mut kv = HatKVClient::connect(&fabric, &cnode, "hatkv");

    kv.put(b"user:42".to_vec(), b"Grace Hopper".to_vec()).expect("put");
    let got = kv.get(b"user:42".to_vec()).expect("get");
    println!("get(user:42) = {:?}", String::from_utf8_lossy(&got));

    // Batched operations ride a separate, larger-buffered channel (the
    // multiget/multiput payload hints are 16 KB vs get's 2 KB).
    let keys: Vec<Vec<u8>> = (0..10).map(|i| format!("batch:{i:02}").into_bytes()).collect();
    let values: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8; 1000]).collect();
    kv.multiput(keys.clone(), values.clone()).expect("multiput");
    let fetched = kv.multiget(keys.clone()).expect("multiget");
    assert_eq!(fetched, values);
    println!("multiput+multiget of 10 x 1000B ok; channels open: {}", kv.engine().open_channels());

    // Quick timing.
    let t0 = now_ns();
    for _ in 0..50 {
        kv.get(b"user:42".to_vec()).expect("get");
    }
    println!("HatKV get: {:.1} us/op", (now_ns() - t0) as f64 / 50_000.0);
    drop(kv);
    server.shutdown();

    // ---- the same workload through an emulated comparator -------------
    // A comparator is the same HatKV server, dialed by a client pinned to
    // the comparator's protocol.
    let pnode = fabric.add_node("pilaf-server");
    let db = ShardedDb::new(fresh_config(), 1);
    let pilaf = HatKvServer::start_with_db(&fabric, &pnode, "pilaf-kv", comparators::schema(), db);
    let cnode2 = fabric.add_node("pilaf-client");
    let mut raw = Comparator::Pilaf.connect(&fabric, &cnode2, "pilaf-kv");
    raw.put(b"user:42".to_vec(), b"Grace Hopper".to_vec()).expect("put");
    let t1 = now_ns();
    for _ in 0..50 {
        raw.get(b"user:42".to_vec()).expect("get");
    }
    println!(
        "Pilaf-emulation get (2 metadata READs + 1 payload READ): {:.1} us/op",
        (now_ns() - t1) as f64 / 50_000.0
    );
    drop(raw);
    pilaf.shutdown();
}
