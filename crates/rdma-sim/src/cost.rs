//! Calibrated cost model for the simulated InfiniBand EDR fabric.
//!
//! All constants are in nanoseconds (or bytes-per-nanosecond for
//! bandwidths) and were chosen to match published microbenchmark numbers
//! for ConnectX-class NICs on 100 Gbps IB EDR — the paper's testbed:
//!
//! * ~2 µs round-trip for small two-sided messages with busy polling,
//! * ~1.9–2.2 µs one-sided READ round-trip,
//! * 12.5 GB/s line rate (100 Gbps),
//! * a few hundred ns per MMIO doorbell over PCIe (the quantity that
//!   Chained-Write-Send and WRITE_WITH_IMM optimize away),
//! * single-digit-µs extra latency for event (interrupt-driven)
//!   completions, with near-zero CPU cost while blocked.
//!
//! The *shapes* of the paper's figures depend on ratios between these
//! constants, not their absolute values, so modest calibration error does
//! not change who wins where.

/// Cost constants for one simulated RDMA-capable node and its links.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// CPU cost of assembling and posting one work request (ns).
    pub post_wr_ns: u64,
    /// CPU cost of one MMIO doorbell write over PCIe (ns). Charged once per
    /// posted *chain*, which is exactly why chaining WRITE+SEND helps.
    pub doorbell_ns: u64,
    /// NIC processing time per work request, each direction (ns).
    pub nic_process_ns: u64,
    /// One-way wire propagation + switch latency (ns).
    pub wire_latency_ns: u64,
    /// Link bandwidth in bytes per nanosecond. 12.5 = 100 Gbps.
    pub link_bytes_per_ns: f64,
    /// Host memcpy bandwidth in bytes per nanosecond (used by eager copies).
    pub memcpy_bytes_per_ns: f64,
    /// Fixed CPU cost per memcpy call (ns).
    pub memcpy_base_ns: u64,
    /// Extra completion-delivery latency when a CQ is in event mode:
    /// interrupt raise + context switch + wakeup (ns).
    pub event_wakeup_ns: u64,
    /// CPU cost of consuming one completion from a CQ (ns).
    pub poll_cqe_ns: u64,
    /// CPU cost of posting one receive work request (ns).
    pub post_recv_ns: u64,
    /// One-time cost of establishing a connection (QP exchange etc.), ns.
    pub connect_ns: u64,
    /// Memory registration cost per 4 KiB page (ns).
    pub mr_register_per_page_ns: u64,
    /// Penalty multiplier for CPU-side costs when the issuing thread is
    /// bound to a NUMA node other than the NIC's.
    pub remote_numa_factor: f64,
    /// Target-side NIC turnaround for serving an in-bound one-sided
    /// operation (ns). Deliberately cheaper than `post_wr_ns +
    /// doorbell_ns + nic_process_ns`: serving in-bound RDMA is cheaper
    /// than issuing out-bound RDMA (the RFP observation).
    pub inbound_rdma_turnaround_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            post_wr_ns: 80,
            doorbell_ns: 250,
            nic_process_ns: 160,
            wire_latency_ns: 500,
            link_bytes_per_ns: 12.5,
            memcpy_bytes_per_ns: 16.0,
            memcpy_base_ns: 40,
            event_wakeup_ns: 2_600,
            poll_cqe_ns: 60,
            post_recv_ns: 60,
            connect_ns: 40_000,
            mr_register_per_page_ns: 120,
            remote_numa_factor: 1.35,
            inbound_rdma_turnaround_ns: 120,
        }
    }
}

impl CostModel {
    /// Serialization time for `bytes` on the link (ns).
    #[inline]
    pub fn serialize_ns(&self, bytes: usize) -> u64 {
        (bytes as f64 / self.link_bytes_per_ns) as u64
    }

    /// CPU time for a host memcpy of `bytes` (ns).
    #[inline]
    pub fn memcpy_ns(&self, bytes: usize) -> u64 {
        self.memcpy_base_ns + (bytes as f64 / self.memcpy_bytes_per_ns) as u64
    }

    /// Registration cost for a region of `len` bytes (ns).
    #[inline]
    pub fn register_ns(&self, len: usize) -> u64 {
        let pages = len.div_ceil(4096).max(1) as u64;
        pages * self.mr_register_per_page_ns
    }
}

/// Cost model for the IPoIB (TCP over InfiniBand) baseline transport.
///
/// IPoIB runs the kernel TCP/IP stack over the IB link: every message pays
/// syscalls, user/kernel copies on both sides, and an interrupt at the
/// receiver, and effective bandwidth is a fraction of line rate — on EDR
/// clusters IPoIB commonly measures in the 20–25 Gbps range.
#[derive(Debug, Clone, PartialEq)]
pub struct IpoibCostModel {
    /// CPU cost of a send/recv syscall (ns).
    pub syscall_ns: u64,
    /// Copy bandwidth user<->kernel, bytes per ns.
    pub copy_bytes_per_ns: f64,
    /// One-way latency through kernel stacks + wire (ns).
    pub one_way_latency_ns: u64,
    /// Effective bandwidth, bytes per ns. 2.8 ≈ 22.4 Gbps.
    pub link_bytes_per_ns: f64,
    /// Receiver interrupt + softirq + wakeup cost (ns).
    pub interrupt_ns: u64,
    /// TCP connection establishment (three-way handshake etc.), ns.
    pub connect_ns: u64,
}

impl Default for IpoibCostModel {
    fn default() -> Self {
        IpoibCostModel {
            syscall_ns: 1_400,
            copy_bytes_per_ns: 10.0,
            one_way_latency_ns: 6_500,
            link_bytes_per_ns: 2.8,
            interrupt_ns: 3_000,
            connect_ns: 120_000,
        }
    }
}

impl IpoibCostModel {
    /// Serialization time for `bytes` on the IPoIB link (ns).
    #[inline]
    pub fn serialize_ns(&self, bytes: usize) -> u64 {
        (bytes as f64 / self.link_bytes_per_ns) as u64
    }

    /// User<->kernel copy time for `bytes` (ns).
    #[inline]
    pub fn copy_ns(&self, bytes: usize) -> u64 {
        (bytes as f64 / self.copy_bytes_per_ns) as u64
    }
}

/// Top-level simulator configuration shared by every node in a [`crate::Fabric`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// RDMA-path cost constants.
    pub cost: CostModel,
    /// IPoIB-path cost constants (for the vanilla-Thrift baseline).
    pub ipoib: IpoibCostModel,
    /// Scale factor applied to every simulated duration. `1.0` replays
    /// calibrated EDR timings in real time; smaller values speed up large
    /// sweeps at identical ratios (and therefore identical figure shapes).
    pub time_scale: f64,
    /// Default number of cores per simulated node (the paper's Xeon Gold
    /// 6132 nodes have 28).
    pub cores_per_node: u32,
    /// Number of NUMA nodes per simulated node (paper testbed: 2 sockets).
    pub numa_nodes: u32,
    /// Which NUMA node the NIC is attached to.
    pub nic_numa_node: u32,
    /// Fault-injection plan. Empty by default: no faults, no overhead.
    pub fault: crate::fault::FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cost: CostModel::default(),
            ipoib: IpoibCostModel::default(),
            time_scale: 1.0,
            cores_per_node: 28,
            numa_nodes: 2,
            nic_numa_node: 0,
            fault: crate::fault::FaultPlan::default(),
        }
    }
}

impl SimConfig {
    /// Apply the global time scale to a duration in ns.
    #[inline]
    pub fn scaled(&self, ns: u64) -> u64 {
        if self.time_scale == 1.0 {
            ns
        } else {
            (ns as f64 * self.time_scale) as u64
        }
    }

    /// A configuration with all costs scaled down — useful in unit tests
    /// where wall-clock time matters more than calibration.
    pub fn fast_test() -> Self {
        SimConfig { time_scale: 0.1, ..Self::default() }
    }

    /// Attach a fault-injection plan (builder style).
    pub fn with_fault_plan(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.fault = plan;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rate_matches_100_gbps() {
        let c = CostModel::default();
        // 125 KB at 12.5 B/ns = 10 us.
        assert_eq!(c.serialize_ns(125_000), 10_000);
    }

    #[test]
    fn memcpy_has_base_cost() {
        let c = CostModel::default();
        assert!(c.memcpy_ns(0) >= c.memcpy_base_ns);
        assert!(c.memcpy_ns(4096) > c.memcpy_ns(64));
    }

    #[test]
    fn registration_cost_scales_with_pages() {
        let c = CostModel::default();
        assert_eq!(c.register_ns(1), c.mr_register_per_page_ns);
        assert_eq!(c.register_ns(4096), c.mr_register_per_page_ns);
        assert_eq!(c.register_ns(4097), 2 * c.mr_register_per_page_ns);
    }

    #[test]
    fn ipoib_is_slower_than_native() {
        let c = CostModel::default();
        let i = IpoibCostModel::default();
        assert!(i.serialize_ns(128 * 1024) > c.serialize_ns(128 * 1024));
        assert!(i.one_way_latency_ns > c.wire_latency_ns);
    }

    #[test]
    fn time_scale_applies() {
        let cfg = SimConfig { time_scale: 0.5, ..SimConfig::default() };
        assert_eq!(cfg.scaled(1000), 500);
        let unit = SimConfig::default();
        assert_eq!(unit.scaled(1000), 1000);
    }

    #[test]
    fn inbound_cheaper_than_outbound() {
        // The RFP observation: serving in-bound RDMA must be cheaper than
        // issuing out-bound RDMA.
        let c = CostModel::default();
        assert!(c.inbound_rdma_turnaround_ns < c.post_wr_ns + c.doorbell_ns + c.nic_process_ns);
    }
}
