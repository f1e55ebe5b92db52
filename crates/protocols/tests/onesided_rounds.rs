//! The one-sided GET path pinned by count, not by clock: how many
//! doorbells, work requests, completions and allocations one
//! [`OneSidedReader::get`] costs (client-node [`NodeStats`] deltas and the
//! `support` allocator around the call), for a key living in its home way
//! and for one living away from it; how many keys of a hatbench-shaped
//! key set get their home way; and what `connect` makes of a server whose
//! advert lies about the index geometry.
//!
//! [`NodeStats`]: hat_rdma_sim::NodeStats

mod support;

use std::sync::Arc;

use hat_protocols::onesided::{key_fp, CELL_HDR, NUM_SETS, SLOT_BYTES, VALUE_CAP, WAYS};
use hat_protocols::{
    exchange_blobs, onesided_service, FallbackReason, OneSidedAdvert, OneSidedHost, OneSidedReader,
};
use hat_rdma_sim::{Fabric, Node, NodeStatsSnapshot, RdmaError, SimConfig};
use support::{tracked, Counts};

struct Rig {
    host: OneSidedHost,
    reader: OneSidedReader,
    client: Arc<Node>,
    _fabric: Fabric,
}

fn rig() -> Rig {
    let fabric = Fabric::new(SimConfig::fast_test());
    let server = fabric.add_node("server");
    let client = fabric.add_node("client");
    let host = OneSidedHost::start(&fabric, &server, "kv").unwrap();
    let reader = OneSidedReader::connect(&fabric, &client, "kv").unwrap();
    Rig { host, reader, client, _fabric: fabric }
}

impl Rig {
    /// One GET, with what it cost the client node and this thread's heap.
    fn get(&mut self, key: &[u8]) -> (Result<Vec<u8>, FallbackReason>, NodeStatsSnapshot, Counts) {
        let before = self.client.stats_snapshot();
        let (outcome, allocated) = tracked(|| self.reader.get(key).expect("READ"));
        (outcome, self.client.stats_snapshot() - before, allocated)
    }
}

/// The wire contract, restated rather than imported: set and home way
/// come from disjoint bits of the fingerprint.
fn set_and_home(key: &[u8]) -> (u64, u64) {
    let fp = key_fp(key);
    (fp % NUM_SETS as u64, (fp / NUM_SETS as u64) % WAYS as u64)
}

/// `count` distinct keys sharing both the bucket set and the home way of
/// the first.
fn keys_sharing_a_home(count: usize) -> Vec<Vec<u8>> {
    let mut keys = vec![b"home-0".to_vec()];
    let want = set_and_home(&keys[0]);
    let mut i = 1u32;
    while keys.len() < count {
        let key = format!("home-{i}").into_bytes();
        if set_and_home(&key) == want {
            keys.push(key);
        }
        i += 1;
    }
    keys
}

#[test]
fn a_home_key_costs_one_round_and_an_away_key_two() {
    let mut rig = rig();
    let index = rig.host.index().clone();
    let keys = keys_sharing_a_home(2);
    let (home, away) = (&keys[0], &keys[1]);
    let value = vec![0xA5u8; 1000];
    index.apply_put(home, &value);
    index.apply_put(away, &value);
    let _ = rig.get(home); // warm the node's effect queue and buffer pool

    // First into the set: placed at home, so the cell READ chained behind
    // the set READ was the right one. The one allocation is the `Vec` the
    // call returns; the reader's own bookkeeping lives on the stack.
    let (outcome, cost, allocated) = rig.get(home);
    assert_eq!(outcome, Ok(value.clone()));
    assert_eq!((cost.doorbells, cost.wrs_posted, cost.completions), (1, 2, 1));
    assert_eq!((allocated.events, allocated.bytes), (1, value.len() as u64));

    // Same set, same home way, arrived second: first-free placement put
    // it elsewhere, and the reader pays the old second READ for it.
    let (outcome, cost, _) = rig.get(away);
    assert_eq!(outcome, Ok(value.clone()));
    assert_eq!((cost.doorbells, cost.wrs_posted, cost.completions), (2, 3, 2));

    // A key already indexed keeps its way when rewritten, and a miss is
    // known after the one chain.
    index.apply_put(away, b"rewritten");
    index.apply_put(home, b"rewritten");
    assert_eq!(rig.get(home).1.doorbells, 1);
    assert_eq!(rig.get(away).1.doorbells, 2);
    index.apply_del(home);
    let (outcome, cost, _) = rig.get(home);
    assert_eq!(outcome, Err(FallbackReason::Miss));
    assert_eq!((cost.doorbells, cost.wrs_posted), (1, 2));
    // The home way is free again, but `away` stays where it is...
    assert_eq!(rig.get(away).1.doorbells, 2);
    // ...and a key growing past the cap there is retired, not served.
    index.apply_put(away, &vec![1u8; VALUE_CAP + 1]);
    assert_eq!(rig.get(away).0, Err(FallbackReason::Miss));
    rig.host.shutdown();
}

/// hatbench's key of record `i`: `user` + 20 decimal digits of FNV-1a(i).
fn hatbench_key(i: u32) -> Vec<u8> {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in u64::from(i).to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("user{hash:020}").into_bytes()
}

/// Share of the resolvable keys, out of `records` inserted in index
/// order, that a reader resolves with one doorbell.
fn one_round_share(records: u32) -> f64 {
    let mut rig = rig();
    let index = rig.host.index().clone();
    let keys: Vec<Vec<u8>> = (0..records).map(hatbench_key).collect();
    for key in &keys {
        index.apply_put(key, b"v");
    }
    let (mut resolved, mut one_round) = (0u32, 0u32);
    for key in &keys {
        let (outcome, cost, _) = rig.get(key);
        if outcome.is_ok() {
            resolved += 1;
            one_round += u32::from(cost.doorbells == 1);
        }
    }
    rig.host.shutdown();
    assert!(resolved > records * 9 / 10, "{resolved} of {records} keys resolvable");
    f64::from(one_round) / f64::from(resolved)
}

/// First-free placement leaves a key where a hash predicts 1 time in
/// `WAYS` (25 %); home placement is bounded by how often two keys of a
/// set share a home way. Simulated: 88.0 % of 4 000, 72.8 % of 10 000.
#[test]
fn most_keys_of_a_hatbench_shaped_set_resolve_in_one_round() {
    let (small, large) = (one_round_share(4_000), one_round_share(10_000));
    assert!(small >= 0.85, "4 000 keys: {small:.3} at home");
    assert!(large >= 0.68, "10 000 keys: {large:.3} at home");
}

/// Serve `advert` on a fake side-channel and report what a reader's
/// `connect` made of it, with what the connecting thread allocated.
fn connect_to(advert: OneSidedAdvert) -> (Result<OneSidedReader, RdmaError>, Counts) {
    let fabric = Fabric::new(SimConfig::fast_test());
    let server = fabric.add_node("liar");
    let client = fabric.add_node("client");
    let listener = fabric.listen(&server, &onesided_service("kv"));
    let serving = std::thread::spawn(move || {
        let ep = listener.accept().expect("reader dials");
        exchange_blobs(&ep, &advert.encode()).expect("advert served");
        ep
    });
    let outcome = tracked(|| OneSidedReader::connect(&fabric, &client, "kv"));
    let _ep = serving.join().expect("fake server");
    outcome
}

/// A reader sizes its landing region from the advert and computes the
/// home cell's address from it. Geometry that would size gigabytes,
/// overflow the set size, or put a home cell outside the heap is refused
/// typed at decode, before anything is sized from it.
#[test]
fn a_lying_advert_is_refused_before_anything_is_sized_from_it() {
    let honest = {
        let rig = rig();
        let advert = *rig.reader.advert();
        rig.host.shutdown();
        advert
    };
    // Every lie is self-consistent, so only the new checks can catch it.
    let scaled = |ways: u32, num_sets: u32, value_cap: u32| {
        let slots = ways as u64 * num_sets as u64;
        let mut advert = OneSidedAdvert { ways, num_sets, value_cap, ..honest };
        advert.slots.len = slots * SLOT_BYTES as u64;
        advert.heap.len = slots * (CELL_HDR as u64 + value_cap as u64);
        advert
    };
    let mut short_heap = honest;
    short_heap.heap.len -= 1;
    let lies = [
        ("value_cap = u32::MAX", scaled(WAYS as u32, NUM_SETS as u32, u32::MAX)),
        ("ways = 1 << 27", scaled(1 << 27, 1, VALUE_CAP as u32)),
        ("heap one byte short of a cell per slot", short_heap),
    ];
    for (lie, advert) in lies {
        let (outcome, allocated) = connect_to(advert);
        assert!(
            matches!(outcome, Err(RdmaError::InvalidWorkRequest(_))),
            "{lie}: expected a typed refusal, got {outcome:?}"
        );
        assert!(allocated.bytes < 64 * 1024, "{lie}: connect allocated {allocated:?}");
    }
    // The same fake server telling the truth is accepted.
    assert!(connect_to(honest).0.is_ok());
}
