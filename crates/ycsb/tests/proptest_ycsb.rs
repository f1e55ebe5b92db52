//! Property-based tests for the YCSB generation core.

use hat_ycsb::generators::{KeyChooser, RequestDistribution, Zipfian};
use hat_ycsb::{OpGenerator, WorkloadSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Zipfian samples stay in range for any item count and skew.
    #[test]
    fn zipfian_range(items in 1u64..5_000_000, theta in 0.5f64..0.999, seed in any::<u64>()) {
        let z = Zipfian::new(items, theta);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < items);
        }
    }

    /// Every chooser distribution stays in range.
    #[test]
    fn choosers_stay_in_range(items in 1u64..100_000, seed in any::<u64>()) {
        for dist in [
            RequestDistribution::Zipfian,
            RequestDistribution::Uniform,
            RequestDistribution::Latest,
        ] {
            let mut chooser = KeyChooser::new(dist, items, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 1);
            for _ in 0..100 {
                prop_assert!(chooser.next(&mut rng) < items, "{dist:?}");
            }
        }
    }

    /// Generated operations respect the spec geometry for any record
    /// count and seed.
    #[test]
    fn ops_respect_geometry(records in 1usize..10_000, seed in any::<u64>()) {
        let spec = WorkloadSpec::workload_a(records);
        let mut g = OpGenerator::new(spec.clone(), seed);
        for _ in 0..50 {
            match g.next_op() {
                hat_ycsb::Op::Get { key } => prop_assert_eq!(key.len(), spec.key_len),
                hat_ycsb::Op::Put { key, value } => {
                    prop_assert_eq!(key.len(), spec.key_len);
                    prop_assert_eq!(value.len(), spec.value_len());
                }
                hat_ycsb::Op::MultiGet { keys } => {
                    prop_assert_eq!(keys.len(), spec.batch_size);
                    prop_assert!(keys.iter().all(|k| k.len() == spec.key_len));
                }
                hat_ycsb::Op::MultiPut { keys, values } => {
                    prop_assert_eq!(keys.len(), spec.batch_size);
                    prop_assert_eq!(values.len(), spec.batch_size);
                    prop_assert!(values.iter().all(|v| v.len() == spec.value_len()));
                }
            }
        }
    }
}
