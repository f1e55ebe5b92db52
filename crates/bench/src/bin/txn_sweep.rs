//! `txn_sweep` — cost of the `txn` hint: cross-shard 2PC multiput vs the
//! plain per-shard multiput, emitting `BENCH_txn.json`.
//!
//! ```text
//! txn_sweep [--check-overhead] [--out PATH]
//!           [--clients N] [--rounds N] [--batch N] [--commit-cost-ns N]
//! ```
//!
//! Both modes run the identical workload — N clients, each committing R
//! rounds of a B-key batch over real HatRPC channels against the
//! hint-sharded HatKV deployment — differing only in the RPC they call:
//! `multiput` (per-shard atomicity, one commit per shard touched) or
//! `multiput_txn` (cross-shard atomicity: per-key locks, a prepare on
//! every touched shard, then decide-and-apply). Each client owns a
//! disjoint key set, so no lock is ever contended. The clients run on
//! `hat_atb::driver`, and each warms with one round of the call its mode
//! measures, so the first measured round opens no channel.
//!
//! What the gap measures: the deployment is an in-memory `ShardedDb`,
//! where a prepare writes nothing (`Database::txn_prepare` is a no-op
//! without a WAL) and each shard's decision pays the same modelled
//! `commit_cost_ns` as a plain commit — both modes make one commit per
//! touched shard (`wal_commits` is equal in `BENCH_txn.json`). So the
//! sweep prices the key-lock table (every key locked, in shard order,
//! before the first commit and released after the last) and the txn
//! RPC's extra handling, not extra WAL records.
//!
//! `--check-overhead` exits non-zero when the txn path falls below a
//! quarter of the plain path's throughput: the lock table and txn
//! handling must keep the path in the same regime, and a collapse here
//! means the fast path regressed or the txn path gained an accidental
//! stall. CI runs this as part of the bench-smoke gate.

use hat_atb::driver::{run_clients, Completed};
use hat_bench::ycsb_bench::{txn_client, txn_round};
use hat_bench::{flag_value, JsonDoc};
use hat_hatkv::{hat_k_v_schema, HatKvServer};
use hat_kvdb::DbConfig;
use hat_rdma_sim::{Fabric, SimConfig};

const OVERHEAD_FLOOR: f64 = 0.25;

struct Mode {
    label: &'static str,
    txn: bool,
}

struct Row {
    label: &'static str,
    ops_per_sec: f64,
    call_mean_us: f64,
    txn_commits: u64,
    txn_aborts: u64,
    wal_commits: u64,
}

fn run_mode(mode: &Mode, clients: usize, rounds: usize, batch: usize, commit_cost_ns: u64) -> Row {
    let fabric = Fabric::new(SimConfig::default());
    let snode = fabric.add_node("kv-server");
    let server = HatKvServer::start_with_schema(
        &fabric,
        &snode,
        "kv",
        hat_k_v_schema(),
        DbConfig { commit_cost_ns: Some(commit_cost_ns), ..Default::default() },
    );

    let run = run_clients(
        clients,
        rounds,
        |c| {
            let node = fabric.add_node(&format!("txn-bench-{c}"));
            let client = txn_client(&fabric, &node, server.schema(), mode.txn, c, batch)?;
            Ok::<_, hatrpc_core::CoreError>((client, c))
        },
        |(client, c), round| {
            txn_round(client, mode.txn, *c, batch, round as u8)?;
            Ok(Completed { label: mode.label, requests: batch as u64 })
        },
    )
    .expect("txn sweep clients");
    let txn_stats = server.db().txn_stats();
    let wal_commits: u64 = server.db().shard_stats().iter().map(|s| s.commits).sum();
    server.shutdown();
    Row {
        label: mode.label,
        ops_per_sec: run.throughput_ops_s(),
        call_mean_us: run.histogram(mode.label).mean() as f64 / 1000.0,
        txn_commits: txn_stats.commits,
        txn_aborts: txn_stats.aborts,
        wal_commits,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check-overhead");
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_txn.json".to_string());
    let clients: usize = flag_value(&args, "--clients").map_or(4, |v| v.parse().expect("int"));
    let rounds: usize = flag_value(&args, "--rounds").map_or(30, |v| v.parse().expect("int"));
    let batch: usize = flag_value(&args, "--batch").map_or(16, |v| v.parse().expect("int"));
    let commit_cost_ns: u64 =
        flag_value(&args, "--commit-cost-ns").map_or(200_000, |v| v.parse().expect("int"));

    let modes = [Mode { label: "multiput", txn: false }, Mode { label: "multiput_txn", txn: true }];
    let rows: Vec<Row> =
        modes.iter().map(|m| run_mode(m, clients, rounds, batch, commit_cost_ns)).collect();
    for row in &rows {
        eprintln!(
            "txn_sweep: {:>12}: {:>10.0} ops/s  {:>8.1} us/call  ({} txn commits, {} aborts)",
            row.label, row.ops_per_sec, row.call_mean_us, row.txn_commits, row.txn_aborts,
        );
    }

    let plain = rows[0].ops_per_sec.max(1.0);
    let ratio = rows[1].ops_per_sec / plain;
    // Each client's warm-up is one txn round too, before the clock.
    let expected_txns = (clients * (rounds + 1)) as u64;
    assert_eq!(rows[1].txn_commits, expected_txns, "every txn round committed exactly once");
    assert_eq!(rows[1].txn_aborts, 0, "disjoint key sets must never abort");
    assert_eq!(rows[0].txn_commits, 0, "the plain path must never enter the 2PC machinery");

    JsonDoc::new("txn_sweep")
        .member("clients", clients)
        .member("rounds", rounds)
        .member("batch", batch)
        .member("commit_cost_ns", commit_cost_ns)
        .rows(
            "results",
            rows.iter().map(|row| {
                format!(
                    "{{\"mode\": \"{}\", \"ops_per_sec\": {:.1}, \"call_mean_us\": {:.1}, \
                     \"txn_commits\": {}, \"txn_aborts\": {}, \"wal_commits\": {}}}",
                    row.label,
                    row.ops_per_sec,
                    row.call_mean_us,
                    row.txn_commits,
                    row.txn_aborts,
                    row.wal_commits,
                )
            }),
        )
        .member("txn_over_plain_throughput", format!("{ratio:.3}"))
        .write(&out_path);
    println!("txn_sweep: txn path runs at {:.2}x the plain multiput throughput", ratio);

    if check && ratio < OVERHEAD_FLOOR {
        eprintln!(
            "txn_sweep: FAIL — txn throughput ratio {ratio:.2}x is below the \
             {OVERHEAD_FLOOR}x floor"
        );
        std::process::exit(1);
    }
}
