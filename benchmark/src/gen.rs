//! Seeded input generation. The harness owns its generator (rather than
//! borrowing `hat-ycsb`'s) so a later change to a workload crate cannot
//! silently change what the benchmark feeds the stack: the same `--seed`
//! gives the same op ring on every commit.

/// Ops pre-generated per run; the load loop replays the ring cyclically.
pub const RING_LEN: usize = 65_536;
/// Keys per MultiGET / MultiPUT (the paper's batch size).
pub const BATCH: usize = 10;
/// YCSB geometry: 24 B keys, 10 × 100 B fields.
pub const KEY_LEN: usize = 24;
pub const VALUE_LEN: usize = 1000;
/// Fill byte of every preloaded record.
pub const PRELOAD_BYTE: u8 = 0xAB;

/// SplitMix64: tiny, seedable, and good enough for workload draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Zipfian ranks after Gray et al. (YCSB's `ZipfianGenerator`), θ = 0.99.
/// Rank 0 is the most popular item.
pub struct Zipfian {
    items: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(items: u64) -> Zipfian {
        let theta = 0.99;
        let zeta = |n: u64| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(items);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipfian { items, theta, zetan, alpha: 1.0 / (1.0 - theta), eta }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.items as f64 * spread) as u64 % self.items) as u32
    }
}

/// The fixed-width key of record `i`: `user` + 20 digits of an FNV-1a
/// scramble, so popular ranks are spread across shards and index sets.
pub fn key(i: u32) -> Vec<u8> {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in u64::from(i).to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let key = format!("user{hash:020}").into_bytes();
    debug_assert_eq!(key.len(), KEY_LEN);
    key
}

/// One pre-generated KV op: record indices and the fill byte of each value
/// written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    Get(u32),
    Put(u32, u8),
    MultiGet([u32; BATCH]),
    MultiPut([u32; BATCH], [u8; BATCH]),
}

/// Bursts of get / put / multiget / multiput per cycle of a KV ring.
pub type Mix = [usize; 4];
pub const MIX_READ_ONLY: Mix = [1, 0, 0, 0];
/// The paper's workload A′: a quarter each.
pub const MIX_A: Mix = [1, 1, 1, 1];

/// Batch keys are distinct, so "the last acked write" to a key is never
/// ambiguous inside one MultiPUT.
fn batch_keys(zipf: &Zipfian, rng: &mut Rng) -> [u32; BATCH] {
    let mut keys = [u32::MAX; BATCH];
    for i in 0..BATCH {
        loop {
            let k = zipf.sample(rng);
            if !keys[..i].contains(&k) {
                keys[i] = k;
                break;
            }
        }
    }
    keys
}

/// Ops of one class come in bursts of this many (see `kv_ring`).
pub const CLASS_BURST: usize = 64;

/// The KV op ring: Zipfian keys, classes in bursts of `CLASS_BURST` ops,
/// the bursts in cycles that hold each class `mix[class]` times in a
/// shuffled order.
///
/// Why bursts: HatKV serves each function on its own event-polling
/// connection, and a server thread that has been idle for 300 µs naps. One
/// closed-loop client spreading 10 k ops/s over four functions leaves each
/// connection idle for about that long, so with ops interleaved one by one
/// an RPC's latency is mostly whether it found its server thread napping:
/// the PUT p50 of `kv_mixed` flipped between ~50 and ~75 µs from window to
/// window. In a burst only the first op can meet a napping thread, and the
/// p50 of a class is the latency of the path itself.
///
/// Why cycles: a multiput costs twenty gets, so a window's throughput
/// follows its class shares; drawing each burst's class independently
/// moved those shares by several percent from one 1 s window to the next.
pub fn kv_ring(seed: u64, records: u32, mix: Mix) -> Vec<KvOp> {
    let mut rng = Rng::new(seed);
    let zipf = Zipfian::new(u64::from(records));
    let mut cycle: Vec<usize> =
        mix.iter().enumerate().flat_map(|(class, &n)| std::iter::repeat_n(class, n)).collect();
    let mut ring = Vec::with_capacity(RING_LEN);
    while ring.len() < RING_LEN {
        for i in (1..cycle.len()).rev() {
            cycle.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        for &class in &cycle {
            for _ in 0..CLASS_BURST {
                ring.push(match class {
                    0 => KvOp::Get(zipf.sample(&mut rng)),
                    1 => KvOp::Put(zipf.sample(&mut rng), rng.next_u64() as u8),
                    2 => KvOp::MultiGet(batch_keys(&zipf, &mut rng)),
                    _ => {
                        let keys = batch_keys(&zipf, &mut rng);
                        let mut fills = [0u8; BATCH];
                        rng.fill(&mut fills);
                        KvOp::MultiPut(keys, fills)
                    }
                });
            }
        }
    }
    ring.truncate(RING_LEN);
    ring
}

/// Echo inputs: a pool of random payloads and a ring of indices into it
/// (a ring of 65 536 × 256 KiB payloads would not fit in memory).
pub struct EchoInputs {
    pub pool: Vec<Vec<u8>>,
    pub ring: Vec<u16>,
}

pub fn echo_inputs(seed: u64, payload_len: usize) -> EchoInputs {
    let mut rng = Rng::new(seed);
    let pool_len = (4 << 20) / payload_len.max(1);
    let pool: Vec<Vec<u8>> = (0..pool_len.clamp(8, 1024))
        .map(|_| {
            let mut p = vec![0u8; payload_len];
            rng.fill(&mut p);
            p
        })
        .collect();
    let ring = (0..RING_LEN).map(|_| (rng.next_u64() % pool.len() as u64) as u16).collect();
    EchoInputs { pool, ring }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ring_other_seed_other_ring() {
        assert_eq!(kv_ring(42, 1000, MIX_A), kv_ring(42, 1000, MIX_A));
        assert_ne!(kv_ring(42, 1000, MIX_A), kv_ring(43, 1000, MIX_A));
        let (a, b) = (echo_inputs(7, 64), echo_inputs(7, 64));
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.ring, b.ring);
        assert_ne!(a.ring, echo_inputs(8, 64).ring);
    }

    #[test]
    fn ring_follows_the_mix_and_stays_in_range() {
        let ring = kv_ring(1, 500, MIX_A);
        assert_eq!(ring.len(), RING_LEN);
        let gets = ring.iter().filter(|op| matches!(op, KvOp::Get(_))).count();
        assert_eq!(gets, RING_LEN / 4, "every cycle holds each class once");
        let burst = &ring[..CLASS_BURST];
        assert!(burst
            .iter()
            .all(|op| std::mem::discriminant(op) == std::mem::discriminant(&burst[0])));
        for op in &ring {
            if let KvOp::MultiPut(keys, _) | KvOp::MultiGet(keys) = op {
                assert!(keys.iter().all(|&k| k < 500));
                let mut sorted = keys.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), BATCH, "batch keys are distinct");
            }
        }
        assert!(kv_ring(1, 500, MIX_READ_ONLY).iter().all(|op| matches!(op, KvOp::Get(_))));
    }

    #[test]
    fn zipfian_is_skewed_toward_rank_zero() {
        let zipf = Zipfian::new(4000);
        let mut rng = Rng::new(9);
        let draws: Vec<u32> = (0..20_000).map(|_| zipf.sample(&mut rng)).collect();
        let zeros = draws.iter().filter(|&&r| r == 0).count();
        assert!(zeros > 1000, "rank 0 drew {zeros} of 20000");
        assert!(draws.iter().all(|&r| r < 4000));
    }

    #[test]
    fn keys_are_fixed_width_and_distinct() {
        assert_eq!(key(0).len(), KEY_LEN);
        assert_ne!(key(1), key(2));
        assert_eq!(key(5), key(5));
    }
}
