//! # hat-ycsb — the YCSB workload core, extended as in the paper
//!
//! Reimplements the parts of the Yahoo! Cloud Serving Benchmark that the
//! HatKV evaluation needs (paper §5.4), including the paper's extension:
//! **MultiGET/MultiPUT** operations with a batch size of 10, and the
//! modified workload mixes —
//!
//! * **Workload A'**: 25% GET, 25% PUT, 25% MultiGET, 25% MultiPUT
//!   (YCSB-A's 50/50 halved into the batched variants);
//! * **Workload B'**: 47.5% GET, 2.5% PUT, 47.5% MultiGET, 2.5% MultiPUT.
//!
//! Records use the paper's geometry: 24-byte keys, 10 fields of 100 bytes
//! (1000-byte values). Request keys follow a scrambled-Zipfian
//! distribution by default (YCSB's request skew), with uniform and
//! latest-biased alternatives.
//!
//! This crate only generates load. Running it is `hat_atb::driver`'s job:
//! the one closed-loop driver every multi-client harness shares, whose
//! `RunMeasurement` records each op's latency under its
//! [`OpType::label`].

pub mod generators;

use generators::{KeyChooser, RequestDistribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four operations of the extended benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpType {
    /// Single-key read.
    Get,
    /// Single-key write.
    Put,
    /// Batched read (paper extension).
    MultiGet,
    /// Batched write (paper extension).
    MultiPut,
}

impl OpType {
    /// All op types, in reporting order.
    pub const ALL: [OpType; 4] = [OpType::Get, OpType::Put, OpType::MultiGet, OpType::MultiPut];

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            OpType::Get => "Get",
            OpType::Put => "Put",
            OpType::MultiGet => "Multi-Get",
            OpType::MultiPut => "Multi-Put",
        }
    }
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Get { key: Vec<u8> },
    Put { key: Vec<u8>, value: Vec<u8> },
    MultiGet { keys: Vec<Vec<u8>> },
    MultiPut { keys: Vec<Vec<u8>>, values: Vec<Vec<u8>> },
}

impl Op {
    /// The operation's type tag.
    pub fn op_type(&self) -> OpType {
        match self {
            Op::Get { .. } => OpType::Get,
            Op::Put { .. } => OpType::Put,
            Op::MultiGet { .. } => OpType::MultiGet,
            Op::MultiPut { .. } => OpType::MultiPut,
        }
    }
}

/// Workload definition (the paper's record/field geometry by default).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Proportions for [Get, Put, MultiGet, MultiPut]; must sum to ~1.
    pub proportions: [f64; 4],
    /// Records loaded before the run phase.
    pub record_count: usize,
    /// Key length in bytes (paper: 24).
    pub key_len: usize,
    /// Field length (paper: 100).
    pub field_len: usize,
    /// Fields per record (paper: 10 → 1000-byte values).
    pub field_count: usize,
    /// Keys per MultiGet/MultiPut (paper: 10).
    pub batch_size: usize,
    /// Request key distribution.
    pub distribution: RequestDistribution,
}

impl WorkloadSpec {
    /// The paper's modified workload A: 25% each operation.
    pub fn workload_a(record_count: usize) -> WorkloadSpec {
        WorkloadSpec { proportions: [0.25, 0.25, 0.25, 0.25], ..Self::base(record_count) }
    }

    /// The paper's modified workload B: 47.5/2.5/47.5/2.5.
    pub fn workload_b(record_count: usize) -> WorkloadSpec {
        WorkloadSpec { proportions: [0.475, 0.025, 0.475, 0.025], ..Self::base(record_count) }
    }

    /// Classic YCSB-A (50% GET / 50% PUT, no batched ops) with uniform
    /// request keys — the write-serialization stress mix for the shard
    /// sweep. Uniform (not Zipfian) so single-key PUTs spread across the
    /// whole key space and therefore across every backend shard.
    pub fn write_heavy(record_count: usize) -> WorkloadSpec {
        WorkloadSpec {
            proportions: [0.5, 0.5, 0.0, 0.0],
            distribution: RequestDistribution::Uniform,
            ..Self::base(record_count)
        }
    }

    /// Classic YCSB-C (100% GET, Zipfian request keys) — the read-heavy
    /// mix where a server-bypass GET path shows its full effect.
    pub fn read_only(record_count: usize) -> WorkloadSpec {
        Self::base(record_count)
    }

    fn base(record_count: usize) -> WorkloadSpec {
        WorkloadSpec {
            proportions: [1.0, 0.0, 0.0, 0.0],
            record_count,
            key_len: 24,
            field_len: 100,
            field_count: 10,
            batch_size: 10,
            distribution: RequestDistribution::Zipfian,
        }
    }

    /// Value size in bytes (`field_len * field_count`).
    pub fn value_len(&self) -> usize {
        self.field_len * self.field_count
    }

    /// The fixed-width key for record `i` (YCSB's "user<hash>" form,
    /// padded/truncated to `key_len`).
    pub fn key(&self, i: u64) -> Vec<u8> {
        let mut key = format!("user{:020}", fnv_hash(i));
        key.truncate(self.key_len);
        while key.len() < self.key_len {
            key.push('0');
        }
        key.into_bytes()
    }
}

/// FNV-1a: YCSB's key scrambling hash, so "hot" Zipfian items are spread
/// across the key space.
fn fnv_hash(v: u64) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut hash = OFFSET;
    for byte in v.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Streams operations for one client thread.
pub struct OpGenerator {
    spec: WorkloadSpec,
    chooser: KeyChooser,
    rng: StdRng,
    /// Deterministic value payload template (rotated per op).
    value_seed: u8,
}

impl OpGenerator {
    /// Create a generator with a deterministic per-client seed.
    pub fn new(spec: WorkloadSpec, seed: u64) -> OpGenerator {
        let chooser = KeyChooser::new(spec.distribution, spec.record_count as u64, seed ^ 0xdead);
        OpGenerator { spec, chooser, rng: StdRng::seed_from_u64(seed), value_seed: seed as u8 }
    }

    /// The workload spec.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn value(&mut self) -> Vec<u8> {
        self.value_seed = self.value_seed.wrapping_add(1);
        vec![self.value_seed; self.spec.value_len()]
    }

    fn batch_keys(&mut self) -> Vec<Vec<u8>> {
        (0..self.spec.batch_size)
            .map(|_| {
                let i = self.chooser.next(&mut self.rng);
                self.spec.key(i)
            })
            .collect()
    }

    /// Generate the next operation.
    pub fn next_op(&mut self) -> Op {
        let roll: f64 = self.rng.random();
        let p = self.spec.proportions;
        if roll < p[0] {
            let i = self.chooser.next(&mut self.rng);
            Op::Get { key: self.spec.key(i) }
        } else if roll < p[0] + p[1] {
            let i = self.chooser.next(&mut self.rng);
            let value = self.value();
            Op::Put { key: self.spec.key(i), value }
        } else if roll < p[0] + p[1] + p[2] {
            Op::MultiGet { keys: self.batch_keys() }
        } else {
            let keys = self.batch_keys();
            let values = (0..keys.len()).map(|_| self.value()).collect();
            Op::MultiPut { keys, values }
        }
    }

    /// All (key, value) pairs of the load phase.
    pub fn load_phase(spec: &WorkloadSpec) -> impl Iterator<Item = (Vec<u8>, Vec<u8>)> + '_ {
        (0..spec.record_count as u64).map(move |i| (spec.key(i), vec![0xAB; spec.value_len()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_geometry_matches_paper() {
        let spec = WorkloadSpec::workload_a(1000);
        let key = spec.key(7);
        assert_eq!(key.len(), 24);
        assert!(key.starts_with(b"user"));
        assert_eq!(spec.value_len(), 1000);
        assert_ne!(spec.key(1), spec.key(2));
        assert_eq!(spec.key(5), spec.key(5), "keys are deterministic");
    }

    #[test]
    fn workload_a_mix_is_balanced() {
        let mut g = OpGenerator::new(WorkloadSpec::workload_a(10_000), 1);
        let mut counts = [0usize; 4];
        for _ in 0..20_000 {
            let ty = g.next_op().op_type();
            counts[OpType::ALL.iter().position(|t| *t == ty).unwrap()] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            let frac = *c as f64 / 20_000.0;
            assert!((frac - 0.25).abs() < 0.02, "op {i} fraction {frac}");
        }
    }

    #[test]
    fn workload_b_is_read_heavy() {
        let mut g = OpGenerator::new(WorkloadSpec::workload_b(10_000), 2);
        let mut writes = 0usize;
        for _ in 0..20_000 {
            if matches!(g.next_op().op_type(), OpType::Put | OpType::MultiPut) {
                writes += 1;
            }
        }
        let frac = writes as f64 / 20_000.0;
        assert!((frac - 0.05).abs() < 0.01, "write fraction {frac}");
    }

    #[test]
    fn write_heavy_mix_is_half_puts_and_unbatched() {
        let mut g = OpGenerator::new(WorkloadSpec::write_heavy(10_000), 4);
        let mut counts = [0usize; 4];
        for _ in 0..20_000 {
            let ty = g.next_op().op_type();
            counts[OpType::ALL.iter().position(|t| *t == ty).unwrap()] += 1;
        }
        let put_frac = counts[1] as f64 / 20_000.0;
        assert!((put_frac - 0.5).abs() < 0.02, "put fraction {put_frac}");
        assert_eq!(counts[2] + counts[3], 0, "no batched ops in the stress mix");
    }

    #[test]
    fn batches_have_configured_size() {
        let mut g = OpGenerator::new(WorkloadSpec::workload_a(1000), 3);
        for _ in 0..200 {
            match g.next_op() {
                Op::MultiGet { keys } => assert_eq!(keys.len(), 10),
                Op::MultiPut { keys, values } => {
                    assert_eq!(keys.len(), 10);
                    assert_eq!(values.len(), 10);
                    assert!(values.iter().all(|v| v.len() == 1000));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn load_phase_covers_all_records() {
        let spec = WorkloadSpec::workload_a(500);
        let pairs: Vec<_> = OpGenerator::load_phase(&spec).collect();
        assert_eq!(pairs.len(), 500);
        let distinct: std::collections::BTreeSet<_> = pairs.iter().map(|(k, _)| k).collect();
        assert_eq!(distinct.len(), 500, "keys are unique");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let spec = WorkloadSpec::workload_a(1000);
        let mut a = OpGenerator::new(spec.clone(), 42);
        let mut b = OpGenerator::new(spec, 42);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }
}
