//! Latency/throughput measurement: per-op breakdowns over hat-trace's
//! log2 latency histogram, matching what the paper's Figures 15/16 report
//! (throughput per operation type, average latency per operation type).

use std::collections::BTreeMap;

use hat_trace::hist::Histogram;

use crate::OpType;

/// Per-operation-type measurements for one run.
#[derive(Debug, Default)]
pub struct RunMeasurement {
    per_op: BTreeMap<&'static str, Histogram>,
    /// Wall-clock span of the run, ns.
    pub elapsed_ns: u64,
}

impl RunMeasurement {
    /// Empty measurement.
    pub fn new() -> RunMeasurement {
        RunMeasurement::default()
    }

    /// Record one operation's latency.
    pub fn record(&mut self, op: OpType, latency_ns: u64) {
        self.per_op.entry(op.label()).or_default().record(latency_ns);
    }

    /// Total operations across all types.
    pub fn total_ops(&self) -> u64 {
        self.per_op.values().map(Histogram::count).sum()
    }

    /// Aggregate throughput in ops/s over `elapsed_ns`.
    pub fn throughput_ops_s(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.total_ops() as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Per-op throughput in ops/s (paper Figures 15a/16a report per-op
    /// bars).
    pub fn op_throughput_ops_s(&self, op: OpType) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.per_op
            .get(op.label())
            .map_or(0.0, |h| h.count() as f64 / (self.elapsed_ns as f64 / 1e9))
    }

    /// The histogram for one op type, if any samples were recorded.
    pub fn histogram(&self, op: OpType) -> Option<&Histogram> {
        self.per_op.get(op.label())
    }

    /// Merge a per-thread measurement into an aggregate (max of elapsed).
    pub fn merge(&mut self, other: &RunMeasurement) {
        for (label, h) in &other.per_op {
            self.per_op.entry(label).or_default().merge(h);
        }
        self.elapsed_ns = self.elapsed_ns.max(other.elapsed_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_measurement_throughput() {
        let mut m = RunMeasurement::new();
        for _ in 0..1000 {
            m.record(OpType::Get, 5_000);
        }
        for _ in 0..500 {
            m.record(OpType::MultiPut, 20_000);
        }
        m.elapsed_ns = 1_000_000_000; // 1 s
        assert_eq!(m.total_ops(), 1500);
        assert!((m.throughput_ops_s() - 1500.0).abs() < 1e-6);
        assert!((m.op_throughput_ops_s(OpType::Get) - 1000.0).abs() < 1e-6);
        assert_eq!(m.op_throughput_ops_s(OpType::Put), 0.0);
        assert_eq!(m.histogram(OpType::MultiPut).unwrap().mean(), 20_000);
    }

    #[test]
    fn per_thread_merge() {
        let mut a = RunMeasurement::new();
        a.record(OpType::Get, 100);
        a.elapsed_ns = 5;
        let mut b = RunMeasurement::new();
        b.record(OpType::Get, 300);
        b.record(OpType::Put, 400);
        b.elapsed_ns = 9;
        a.merge(&b);
        assert_eq!(a.total_ops(), 3);
        assert_eq!(a.elapsed_ns, 9);
    }
}
