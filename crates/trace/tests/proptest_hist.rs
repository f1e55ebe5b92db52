//! Property tests for the log2 latency histogram: whatever is recorded,
//! reported percentiles stay within the true value range, counts add up,
//! ordering of quantiles is monotone, and merging equals recording the
//! union.

use hat_trace::hist::{CumulativeSnapshot, Histogram};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A percentile must never be below the true minimum nor above the
    /// true maximum of the recorded values.
    #[test]
    fn percentiles_stay_within_recorded_range(
        values in prop::collection::vec(any::<u64>(), 1..200),
        q_mil in 1u64..=1000,
    ) {
        let h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        let true_min = *values.iter().min().unwrap();
        let true_max = *values.iter().max().unwrap();
        let q = q_mil as f64 / 1000.0;
        let p = h.percentile(q);
        prop_assert!(p >= true_min, "p{q} = {p} below true min {true_min}");
        prop_assert!(p <= true_max, "p{q} = {p} above true max {true_max}");
        prop_assert_eq!(h.min(), true_min);
        prop_assert_eq!(h.max(), true_max);
        prop_assert_eq!(h.count(), values.len() as u64);
    }

    /// Quantiles are monotone in q.
    #[test]
    fn percentiles_are_monotone_in_q(
        values in prop::collection::vec(0u64..1_000_000_000, 1..200),
    ) {
        let h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        prop_assert!(h.p50() <= h.p90());
        prop_assert!(h.p90() <= h.p99());
        prop_assert!(h.p99() <= h.max());
    }

    /// Count, mean, min and max are exact: they agree with the recorded
    /// values, whatever their buckets.
    #[test]
    fn count_mean_min_max_agree_with_the_values(
        values in prop::collection::vec(1u64..10_000_000, 1..300),
    ) {
        let h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.mean(), values.iter().sum::<u64>() / values.len() as u64);
        prop_assert_eq!(h.min(), *values.iter().min().unwrap());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
    }

    /// Merging two histograms equals recording the union of their values.
    #[test]
    fn merge_equals_recording_the_union(
        a in prop::collection::vec(1u64..1_000_000, 0..100),
        b in prop::collection::vec(1u64..1_000_000, 0..100),
    ) {
        let (ha, hb, hu) = (Histogram::default(), Histogram::default(), Histogram::default());
        for &v in &a {
            ha.record(v);
        }
        for &v in &b {
            hb.record(v);
        }
        for &v in a.iter().chain(&b) {
            hu.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.snapshot(), hu.snapshot());
        let (mut merged, mut union) = (CumulativeSnapshot::default(), CumulativeSnapshot::default());
        ha.cumulative_into(&mut merged);
        hu.cumulative_into(&mut union);
        prop_assert_eq!(merged, union);
    }
}
