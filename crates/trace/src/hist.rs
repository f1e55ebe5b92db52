//! Log2-bucketed latency histograms keyed by protocol × fn-scope ×
//! payload-size class.
//!
//! "RDMA vs. RPC for Implementing Distributed Data Structures" makes the
//! case that per-op latency *distributions*, not means, are what
//! distinguish designs — so the engine records every call completion
//! (including retried and timed-out calls) here, and `repro trace` /
//! `stats --json` report p50/p90/p99/max per key.
//!
//! Buckets are powers of two: bucket *i* (i ≥ 1) covers `[2^(i-1), 2^i)`.
//! A reported percentile is the inclusive upper bound of the bucket the
//! rank lands in, clamped into `[min, max]` of the actually recorded
//! values — so percentiles are never below the true minimum nor above
//! the true maximum (property-tested).
//!
//! [`Histogram`] is the only latency histogram in the workspace: the
//! benchmark harnesses (ATB, the Figure 4/5 runners, YCSB's per-op
//! measurements) record into standalone instances of it, so every
//! reported percentile follows the one bucket rule above.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of buckets: one zero bucket plus one per bit position.
const BUCKETS: usize = 65;

/// Public bucket count, for consumers (the hat-metrics sampler) that
/// mirror the cumulative bucket array into their own storage.
pub const NUM_BUCKETS: usize = BUCKETS;

/// A concurrent log2 histogram. All operations are relaxed atomics.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
fn bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Inclusive upper bound of bucket `i` (public mirror of the internal
/// bucket geometry, so delta consumers can label and rank their copies).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    bucket_upper(i)
}

/// The `q`-quantile of an externally held bucket-count array (e.g. the
/// *delta* between two cumulative snapshots over a rolling window):
/// upper bound of the bucket the rank lands in. Returns 0 when the
/// array is empty. Unlike [`Histogram::percentile`] there is no
/// min/max clamp — delta windows don't carry exact extrema.
pub fn percentile_of(buckets: &[u64; NUM_BUCKETS], q: f64) -> u64 {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let mut seen = 0u64;
    for (i, c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper(i);
        }
    }
    bucket_upper(BUCKETS - 1)
}

impl Histogram {
    /// Record one value.
    pub fn record(&self, v: u64) {
        self.counts[bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Add everything `other` recorded, as if each of its values had been
    /// recorded here (per-thread histograms folded into one).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter().zip(&other.counts) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min.fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Clamp a derived statistic into `[min, max]` of the recorded
    /// values. `min` and `max` are separate relaxed atomics updated after
    /// `count`, so a reader racing `record` can observe `min > max`
    /// (e.g. `count` bumped, `min` updated, `max` not yet) — in that
    /// window the range is meaningless and the raw value is returned
    /// unclamped rather than feeding an inverted range to `clamp` (which
    /// panics on `min > max`).
    #[inline]
    fn clamp_to_range(&self, v: u64) -> u64 {
        let (min, max) = (self.min(), self.max());
        if min <= max {
            v.clamp(min, max)
        } else {
            v
        }
    }

    /// Mean of recorded values (0 when empty), clamped into
    /// `[min, max]`: `sum` and `count` are loaded separately under
    /// concurrent `record`, so the raw quotient can transiently exceed
    /// the true maximum (a fresh `sum` divided by a stale `count`).
    pub fn mean(&self) -> u64 {
        match self.sum.load(Ordering::Relaxed).checked_div(self.count()) {
            Some(raw) => self.clamp_to_range(raw),
            None => 0,
        }
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`): upper bound of the bucket the
    /// rank lands in, clamped into `[min, max]`.
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.counts[i].load(Ordering::Relaxed);
            if seen >= rank {
                return self.clamp_to_range(bucket_upper(i));
            }
        }
        self.max()
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Copy the raw cumulative state into `out` (count, sum, and every
    /// bucket). Relaxed loads: a reader racing `record` can see a value
    /// counted in `count` but not yet in its bucket (or vice versa) —
    /// each individual field is monotonically non-decreasing, which is
    /// the property delta samplers rely on.
    pub fn cumulative_into(&self, out: &mut CumulativeSnapshot) {
        out.count = self.count();
        out.sum = self.sum.load(Ordering::Relaxed);
        for (slot, c) in out.buckets.iter_mut().zip(self.counts.iter()) {
            *slot = c.load(Ordering::Relaxed);
        }
    }

    /// Plain-data snapshot for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
        }
    }
}

/// Plain-data summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub min: u64,
    pub max: u64,
    pub mean: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

/// Raw cumulative state of a [`Histogram`]: the delta between two of
/// these (taken at different times) is the distribution of everything
/// recorded in between — the substrate live samplers build rolling
/// windows from. Every field is monotonically non-decreasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CumulativeSnapshot {
    /// Values recorded so far.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket counts (log2 geometry, see [`bucket_upper_bound`]).
    pub buckets: [u64; NUM_BUCKETS],
}

impl Default for CumulativeSnapshot {
    fn default() -> Self {
        CumulativeSnapshot { count: 0, sum: 0, buckets: [0; NUM_BUCKETS] }
    }
}

// ---------------------------------------------------------------------------
// Payload-size classes
// ---------------------------------------------------------------------------

/// Smallest size class: everything up to 64 B buckets together.
const MIN_SIZE_CLASS: u8 = 6;

/// Size class of a payload: the power-of-two ceiling's exponent, floored
/// at 64 B (class 6). `bytes <= 2^class`.
pub fn size_class(bytes: u64) -> u8 {
    let c = 64 - bytes.max(1).next_power_of_two().leading_zeros() as u8 - 1;
    c.max(MIN_SIZE_CLASS)
}

/// Human label for a size class ("<=64B", "<=4KB", ...).
pub fn size_class_label(class: u8) -> String {
    let bytes = 1u64 << class.min(63);
    if bytes >= 1 << 30 {
        format!("<={}GB", bytes >> 30)
    } else if bytes >= 1 << 20 {
        format!("<={}MB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("<={}KB", bytes >> 10)
    } else {
        format!("<={bytes}B")
    }
}

// ---------------------------------------------------------------------------
// Global registry: protocol × fn_scope × size class → Histogram
// ---------------------------------------------------------------------------

type Registry = Vec<(Key, Histogram)>;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Key {
    protocol: &'static str,
    fn_scope: String,
    size_class: u8,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Drop every registered histogram.
pub fn reset() {
    registry().lock().expect("histogram registry poisoned").clear();
}

/// Record one completed call's latency under its protocol × fn-scope ×
/// size-class key. No-op when tracing is disabled. The registry is a
/// linear-scanned `Vec` under a mutex: cardinality is tens of keys, the
/// steady-state hit path takes the lock and compares — no allocation.
#[inline]
pub fn record_latency(protocol: &'static str, fn_scope: &str, bytes: u64, latency_ns: u64) {
    if !crate::hist_enabled() {
        return;
    }
    let class = size_class(bytes);
    let mut reg = registry().lock().expect("histogram registry poisoned");
    if let Some((_, h)) = reg
        .iter()
        .find(|(k, _)| k.size_class == class && k.protocol == protocol && k.fn_scope == fn_scope)
    {
        h.record(latency_ns);
        return;
    }
    let h = Histogram::default();
    h.record(latency_ns);
    reg.push((Key { protocol, fn_scope: fn_scope.to_string(), size_class: class }, h));
}

/// Visit every registered histogram's raw cumulative state without
/// allocating: the callback gets `(protocol, fn_scope, size_class,
/// cumulative)` with `cumulative` filled into a caller-invisible reused
/// buffer. Samplers match keys by comparing the borrowed strings against
/// their own registry and only allocate when a key is new — the
/// steady-state sample path stays allocation-free.
pub fn for_each_cumulative(mut f: impl FnMut(&'static str, &str, u8, &CumulativeSnapshot)) {
    let reg = registry().lock().expect("histogram registry poisoned");
    let mut cumulative = CumulativeSnapshot::default();
    for (k, h) in reg.iter() {
        h.cumulative_into(&mut cumulative);
        f(k.protocol, &k.fn_scope, k.size_class, &cumulative);
    }
}

/// One reported histogram row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyRow {
    pub protocol: String,
    pub fn_scope: String,
    pub size_class: u8,
    pub size_label: String,
    pub snapshot: HistogramSnapshot,
}

/// Snapshot every registered histogram, sorted by key.
pub fn latency_rows() -> Vec<LatencyRow> {
    let reg = registry().lock().expect("histogram registry poisoned");
    let mut rows: Vec<LatencyRow> = reg
        .iter()
        .map(|(k, h)| LatencyRow {
            protocol: k.protocol.to_string(),
            fn_scope: k.fn_scope.clone(),
            size_class: k.size_class,
            size_label: size_class_label(k.size_class),
            snapshot: h.snapshot(),
        })
        .collect();
    rows.sort_by(|a, b| {
        (&a.protocol, &a.fn_scope, a.size_class).cmp(&(&b.protocol, &b.fn_scope, b.size_class))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    /// Deterministic input pinning exact bucket boundaries: values
    /// 1..=100 recorded once each. The p50 rank (50) lands in the
    /// [32, 63] bucket whose upper bound is 63; the p99 rank (99) lands
    /// in [64, 127], whose upper bound 127 clamps to the true max 100.
    #[test]
    fn percentiles_hit_exact_bucket_boundaries() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.p50(), 63, "rank 50 lands in bucket [32,63]");
        assert_eq!(h.p90(), 100, "rank 90 lands in [64,127], clamped to max");
        assert_eq!(h.p99(), 100, "rank 99 lands in [64,127], clamped to max");
    }

    #[test]
    fn single_value_pins_all_percentiles() {
        let h = Histogram::default();
        h.record(4096);
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 4096);
        }
        assert_eq!(h.mean(), 4096);
    }

    /// `sum` and `count` are separate relaxed atomics: a reader can see
    /// a `sum` that includes values whose `count` increment it missed.
    /// Reproduce that interleaving directly and check the mean is
    /// clamped into the recorded range instead of exceeding `max`.
    #[test]
    fn mean_is_clamped_under_torn_sum_count() {
        let h = Histogram::default();
        h.record(100);
        h.record(200);
        // A concurrent `record(1_000_000)` has bumped `sum` but not yet
        // `count` / `max` from the reader's point of view.
        h.sum.fetch_add(1_000_000, Ordering::Relaxed);
        assert_eq!(h.mean(), 200, "mean clamps to the recorded max");
    }

    /// A reader racing the very first `record` can observe `count > 0`
    /// while `max` is still the initial 0 and `min` already updated —
    /// an inverted range that used to panic `clamp` inside
    /// `percentile`. Reproduce the interleaving; both `percentile` and
    /// `mean` must stay panic-free.
    #[test]
    fn inverted_min_max_race_does_not_panic() {
        let h = Histogram::default();
        // First `record(5)` in flight: bucket + count + min visible,
        // max store not yet.
        h.counts[bucket(5)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(5, Ordering::Relaxed);
        h.min.fetch_min(5, Ordering::Relaxed);
        assert!(h.min() > h.max(), "interleaving sets up the inverted range");
        let p = h.percentile(0.5);
        assert!(p <= 7, "upper bound of the value's bucket at most");
        let _ = h.mean();
    }

    #[test]
    fn zero_values_are_representable() {
        let h = Histogram::default();
        h.record(0);
        h.record(0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn size_classes_floor_at_64b_and_label() {
        assert_eq!(size_class(0), 6);
        assert_eq!(size_class(64), 6);
        assert_eq!(size_class(65), 7);
        assert_eq!(size_class(4096), 12);
        assert_eq!(size_class_label(6), "<=64B");
        assert_eq!(size_class_label(12), "<=4KB");
        assert_eq!(size_class_label(21), "<=2MB");
    }

    #[test]
    fn registry_keys_by_protocol_scope_and_class() {
        let _g = crate::TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        reset();
        record_latency("Eager-SendRecv", "Svc.get", 64, 1000);
        record_latency("Eager-SendRecv", "Svc.get", 64, 2000);
        record_latency("Eager-SendRecv", "Svc.get", 8192, 9000);
        record_latency("Hybrid-EagerRNDV", "Svc.get", 64, 500);
        let rows = latency_rows();
        crate::set_enabled(false);
        reset();
        assert_eq!(rows.len(), 3);
        let small = rows
            .iter()
            .find(|r| r.protocol == "Eager-SendRecv" && r.size_class == 6)
            .expect("small-class row");
        assert_eq!(small.snapshot.count, 2);
        assert_eq!(small.snapshot.min, 1000);
        assert_eq!(small.snapshot.max, 2000);
    }
}
