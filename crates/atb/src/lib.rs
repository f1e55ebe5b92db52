//! # hat-atb — the Apache Thrift Benchmarks (paper §5.1)
//!
//! The paper's ATB suite, reimplemented over this repository's runtime:
//!
//! * [`latency`] — single client ↔ single server round-trip latency over
//!   varied payload sizes (Figures 4 and 11),
//! * [`throughput`] — multi-client aggregated throughput over varied
//!   client counts (Figures 5 and 12),
//! * [`mix`] — the Mix Comm Benchmark: two RPCs in one service, one hinted
//!   for latency and one for throughput, issued 50/50 by every client
//!   while the server computes a payload checksum (Figures 13 and 14),
//! * [`driver`] — the load driver those runs share with every other
//!   multi-client harness in the workspace (YCSB, the raw-protocol and
//!   txn sweeps): N client threads behind one barrier, one timed loop,
//!   one warm rule, one [`driver::RunMeasurement`].
//!
//! Every benchmark can run in three modes ([`Mode`]): the hint-driven
//! HatRPC engine, a fixed RDMA protocol (the per-protocol baselines of
//! the figures), or vanilla Thrift over IPoIB. All three are one runtime:
//! a [`hatrpc_core::engine::HatServer`] serves every mode, and the client
//! is a `HatClient` that is hinted (HatRPC), pinned to the mode's protocol
//! and polling (`HatClient::pinned`, a baseline), or hinted
//! `transport = tcp` (IPoIB). The schema's `payload_size` sizes the
//! channel and its `queue_depth` sets the window in every mode. All modes
//! move identical Thrift-encoded messages, "developed based on the
//! generated code skeletons" — the echo service's wire format is exactly
//! what the generated processor would produce.

pub mod driver;
pub mod latency;
pub mod mix;
pub mod support;
pub mod throughput;

use hat_protocols::ProtocolKind;
use hat_rdma_sim::PollMode;

pub use latency::{run_latency, LatencyConfig, LatencyResult};
pub use mix::{run_mix, MixConfig, MixResult};
pub use throughput::{run_throughput, ThroughputConfig, ThroughputResult};

/// Which stack a benchmark run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The hint-accelerated engine: hints supplied per benchmark.
    HatRpc,
    /// One fixed RDMA protocol with one polling mode on both sides.
    Fixed(ProtocolKind, PollMode),
    /// Vanilla Thrift over (simulated) IPoIB.
    Ipoib,
}

impl Mode {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            Mode::HatRpc => "HatRPC".to_string(),
            Mode::Fixed(kind, poll) => {
                let p = match poll {
                    PollMode::Busy => "busy",
                    PollMode::Event => "event",
                };
                format!("{} ({p})", kind.label())
            }
            Mode::Ipoib => "Thrift/IPoIB".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels() {
        assert_eq!(Mode::HatRpc.label(), "HatRPC");
        assert_eq!(Mode::Fixed(ProtocolKind::Rfp, PollMode::Event).label(), "RFP (event)");
        assert_eq!(Mode::Ipoib.label(), "Thrift/IPoIB");
    }
}
