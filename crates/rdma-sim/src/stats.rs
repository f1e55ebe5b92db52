//! Lock-free statistics counters for nodes and the fabric.
//!
//! The paper's §3.2 analysis reasons about CPU utilization, memory
//! footprint, doorbell counts, and in-bound vs out-bound RDMA asymmetry;
//! these counters make every one of those quantities observable from the
//! simulation so tests and the `repro micro` harness can assert them.
//!
//! The field list is written exactly once, in [`node_counters!`]: the
//! macro expands to [`NodeStats`] (atomics), [`NodeStatsSnapshot`]
//! (plain data), `snapshot()`, `fields()`, the metric-kind table, and
//! the saturating `Sub` — so a new counter cannot appear in one place
//! and silently vanish from another.

use std::sync::atomic::{AtomicU64, Ordering};

/// How an exporter should treat a field: monotonically non-decreasing
/// event counts vs point-in-time levels / high-water marks. Prometheus
/// exposition maps these to `counter` and `gauge` types, and time-series
/// samplers difference counters but report gauges raw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing; per-interval deltas are meaningful.
    Counter,
    /// Level or high-water mark; sample the raw value.
    Gauge,
}

macro_rules! metric_kind {
    (counter) => {
        MetricKind::Counter
    };
    (gauge) => {
        MetricKind::Gauge
    };
}

macro_rules! node_counters {
    ($( $(#[$doc:meta])* $kind:ident $name:ident, )+) => {
        /// Per-node counters. All methods are thread-safe and relaxed —
        /// these are statistics, not synchronization.
        #[derive(Debug, Default)]
        pub struct NodeStats {
            $( $(#[$doc])* pub $name: AtomicU64, )+
        }

        impl NodeStats {
            /// Snapshot all counters into a plain struct (for
            /// printing/asserting).
            pub fn snapshot(&self) -> NodeStatsSnapshot {
                NodeStatsSnapshot {
                    $( $name: Self::get(&self.$name), )+
                }
            }
        }

        /// Plain-data snapshot of [`NodeStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct NodeStatsSnapshot {
            $( $(#[$doc])* pub $name: u64, )+
        }

        /// Number of per-node counters.
        pub const FIELD_COUNT: usize = [$( stringify!($name) ),+].len();

        /// `(name, kind)` per counter, in declaration order — parallel to
        /// [`NodeStatsSnapshot::fields`].
        pub const FIELD_KINDS: [(&str, MetricKind); FIELD_COUNT] =
            [$( (stringify!($name), metric_kind!($kind)) ),+];

        impl NodeStatsSnapshot {
            /// Every counter as a `(name, value)` pair, in declaration
            /// order. The single source of truth for exhaustive
            /// expositions (`repro stats --json`, `repro metrics`, trace
            /// summaries): the macro derives this from the same list as
            /// the struct itself, so reports cannot silently miss a
            /// counter.
            pub fn fields(&self) -> [(&'static str, u64); FIELD_COUNT] {
                [$( (stringify!($name), self.$name) ),+]
            }

            /// Every counter value in declaration order, no names — the
            /// allocation-free row a time-series sampler copies into its
            /// ring (parallel to [`FIELD_KINDS`]).
            pub fn values(&self) -> [u64; FIELD_COUNT] {
                [$( self.$name ),+]
            }
        }

        /// Saturating per-field delta: `after - before` is what a phase
        /// of work did, immune to whatever handshakes and warmup ran
        /// earlier. Gauge-like fields (`registered_bytes`,
        /// `inflight_hwm`) saturate to zero rather than wrapping when
        /// they shrank across the window.
        impl std::ops::Sub for NodeStatsSnapshot {
            type Output = NodeStatsSnapshot;

            fn sub(self, rhs: NodeStatsSnapshot) -> NodeStatsSnapshot {
                NodeStatsSnapshot {
                    $( $name: self.$name.saturating_sub(rhs.$name), )+
                }
            }
        }
    };
}

node_counters! {
    /// Work requests posted (send side).
    counter wrs_posted,
    /// MMIO doorbells rung (one per posted chain).
    counter doorbells,
    /// Receive work requests posted.
    counter recvs_posted,
    /// Completions consumed from CQs on this node.
    counter completions,
    /// Bytes sent on the egress link.
    counter bytes_tx,
    /// Bytes received on the ingress link.
    counter bytes_rx,
    /// In-bound one-sided operations served (remote READ/WRITE targeting us).
    counter inbound_rdma,
    /// Out-bound one-sided operations issued.
    counter outbound_rdma,
    /// Host memcpys *charged to the cost model*: one per inline work
    /// request posted (the copy into the WQE) and one per eager
    /// staging/landing copy a protocol charges. It does not count the
    /// simulator's own passes over a payload (post-time snapshot, effect
    /// apply, copy-out) — a zero-copy WRITE of any size adds 0 here.
    counter memcpys,
    /// Receiver-not-ready stalls (SEND arrived before a RECV was posted).
    counter rnr_stalls,
    /// Simulated CPU nanoseconds burned on this node (spin charges and
    /// busy-poll loops).
    counter cpu_busy_ns,
    /// Bytes of registered (pinned) memory currently live.
    gauge registered_bytes,
    /// Peak of `registered_bytes`.
    gauge registered_bytes_peak,
    /// Connections established.
    counter connections,
    /// Completions dropped by fault injection.
    counter faults_dropped,
    /// Completions delayed by fault injection.
    counter faults_delayed,
    /// QPs flushed into the error state (fault injection or node death).
    counter qp_errors,
    /// Engine-level calls that completed successfully.
    counter calls_ok,
    /// Engine-level call attempts that were retried after a transport
    /// failure.
    counter calls_retried,
    /// Engine-level calls that ultimately failed with a timeout.
    counter calls_timed_out,
    /// Engine-level calls that ultimately failed for any other reason.
    counter calls_failed,
    /// Calls completed through a pipelined (sliding-window) channel.
    counter pipelined_calls,
    /// Doorbells rung by pipelined batch flushes (a subset of
    /// `doorbells`); `pipeline_doorbells / pipelined_calls` is the
    /// doorbells-per-call figure of merit for batched posting.
    counter pipeline_doorbells,
    /// High-water mark of requests simultaneously in flight on any
    /// pipelined channel of this node.
    gauge inflight_hwm,
    /// Storage-backend write transactions committed by services on this
    /// node (one per shard touched by a batch).
    counter kv_txns,
    /// Nanoseconds storage writers spent waiting on shard writer locks
    /// (contention indicator: stays near zero when sharding spreads
    /// writers out).
    counter kv_writer_wait_ns,
    /// Key+value bytes written into the storage backend.
    counter kv_bytes_written,
    /// Cross-shard 2PC transactions committed by services on this node
    /// (one per `multi*_txn` batch, regardless of shards touched).
    counter kv_txn_commits,
    /// Cross-shard 2PC transactions aborted (lock timeout, prepare
    /// failure, or injected coordinator crash).
    counter kv_txn_aborts,
    /// In-doubt 2PC transactions resolved during recovery replay
    /// (rolled forward or presumed-abort after a restart).
    counter kv_txn_recovered,
    /// GETs resolved entirely by one-sided READs (server bypassed).
    counter onesided_gets,
    /// One-sided GET attempts that fell back to the RPC path (miss,
    /// oversized value, or seqlock conflict).
    counter onesided_fallbacks,
    /// Subset of `onesided_fallbacks` caused by a seqlock version
    /// conflict (a writer raced the two READs).
    counter onesided_conflicts,
    /// Long-idle naps of a reactor driver on this node that ended with
    /// work found — the times a request met a cold driver. A driver that
    /// has served anything in the last `IDLE_BACKOFF_AFTER_NS` polls the
    /// sim clock and counts nothing here.
    counter reactor_wakeups,
    /// Connection state machines resumed by a reactor with at least one
    /// request served; `resumes / wakeups` is how much serving each cold
    /// start was amortised over.
    counter reactor_resumes,
    /// High-water mark of connections one reactor driver held at once —
    /// the connections-per-thread this node sustained.
    gauge reactor_parked_hwm,
}

impl NodeStats {
    /// Add to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Read a counter.
    #[inline]
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Track a change in registered-memory footprint.
    pub fn mem_registered(&self, bytes: u64) {
        let now = self.registered_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.registered_bytes_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Track a deregistration.
    pub fn mem_deregistered(&self, bytes: u64) {
        self.registered_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Record `n` requests currently in flight on a pipelined channel,
    /// keeping the high-water mark.
    pub fn note_inflight(&self, n: u64) {
        self.inflight_hwm.fetch_max(n, Ordering::Relaxed);
    }

    /// Record `n` connections held by a reactor driver, keeping the
    /// high-water mark.
    pub fn note_reactor_parked(&self, n: u64) {
        self.reactor_parked_hwm.fetch_max(n, Ordering::Relaxed);
    }
}

/// Fabric-wide aggregate statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Snapshot per node, in node-id order.
    pub nodes: Vec<(String, NodeStatsSnapshot)>,
}

impl FabricStats {
    /// Total bytes transmitted across all nodes.
    pub fn total_bytes_tx(&self) -> u64 {
        self.nodes.iter().map(|(_, s)| s.bytes_tx).sum()
    }

    /// Total simulated CPU-busy time across all nodes, ns.
    pub fn total_cpu_busy_ns(&self) -> u64 {
        self.nodes.iter().map(|(_, s)| s.cpu_busy_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = NodeStats::default();
        NodeStats::add(&s.wrs_posted, 3);
        NodeStats::add(&s.wrs_posted, 2);
        assert_eq!(NodeStats::get(&s.wrs_posted), 5);
    }

    #[test]
    fn peak_memory_tracks_high_watermark() {
        let s = NodeStats::default();
        s.mem_registered(100);
        s.mem_registered(50);
        s.mem_deregistered(120);
        s.mem_registered(10);
        let snap = s.snapshot();
        assert_eq!(snap.registered_bytes, 40);
        assert_eq!(snap.registered_bytes_peak, 150);
    }

    #[test]
    fn inflight_high_water_mark() {
        let s = NodeStats::default();
        s.note_inflight(3);
        s.note_inflight(8);
        s.note_inflight(5);
        assert_eq!(s.snapshot().inflight_hwm, 8);
    }

    #[test]
    fn snapshot_delta_is_per_field_and_saturating() {
        let a = NodeStatsSnapshot {
            wrs_posted: 10,
            doorbells: 4,
            bytes_tx: 1000,
            ..Default::default()
        };
        let b =
            NodeStatsSnapshot { wrs_posted: 3, doorbells: 6, bytes_tx: 400, ..Default::default() };
        let d = a - b;
        assert_eq!(d.wrs_posted, 7);
        assert_eq!(d.bytes_tx, 600);
        // Gauge shrank across the window: saturates instead of wrapping.
        assert_eq!(d.doorbells, 0);
        assert_eq!(d.memcpys, 0);
    }

    #[test]
    fn fields_cover_every_counter() {
        let s = NodeStats::default();
        NodeStats::add(&s.inflight_hwm, 9);
        NodeStats::add(&s.wrs_posted, 2);
        let snap = s.snapshot();
        let fields = snap.fields();
        assert_eq!(fields.len(), FIELD_COUNT);
        let names: Vec<_> = fields.iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "field names must be unique");
        assert_eq!(fields.iter().find(|(n, _)| *n == "wrs_posted").unwrap().1, 2);
        assert_eq!(fields.iter().find(|(n, _)| *n == "inflight_hwm").unwrap().1, 9);
        // The 2PC trio must be exposed (and as counters, not gauges) so
        // `repro stats` and the Prometheus exporter surface txn outcomes.
        for txn_field in ["kv_txn_commits", "kv_txn_aborts", "kv_txn_recovered"] {
            assert!(names.contains(&txn_field), "{txn_field} missing from fields()");
            let kind = FIELD_KINDS.iter().find(|(n, _)| *n == txn_field).unwrap().1;
            assert_eq!(kind, MetricKind::Counter, "{txn_field} must be a counter");
        }
    }

    /// Drift guard: every field the `NodeStats` struct actually carries
    /// (as printed by its derived `Debug`) appears in `fields()` — and
    /// therefore in `repro stats --json` and the Prometheus exporter.
    /// The macro makes drift structurally impossible; this test keeps it
    /// that way if someone ever adds a field outside the macro.
    #[test]
    fn debug_repr_and_fields_agree_on_every_counter() {
        let debug = format!("{:?}", NodeStats::default());
        let body = debug
            .strip_prefix("NodeStats {")
            .and_then(|s| s.strip_suffix('}'))
            .expect("derived Debug shape");
        let debug_names: Vec<&str> = body
            .split(", ")
            .map(|part| part.split(':').next().unwrap().trim())
            .filter(|n| !n.is_empty())
            .collect();
        let snap = NodeStatsSnapshot::default();
        let field_names: Vec<&str> = snap.fields().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            debug_names, field_names,
            "NodeStats struct fields and NodeStatsSnapshot::fields() drifted",
        );
        let kind_names: Vec<&str> = FIELD_KINDS.iter().map(|(n, _)| *n).collect();
        assert_eq!(field_names, kind_names, "FIELD_KINDS drifted from fields()");
        assert_eq!(snap.values().len(), FIELD_COUNT);
    }

    #[test]
    fn gauges_are_exactly_the_level_like_fields() {
        let gauges: Vec<&str> =
            FIELD_KINDS.iter().filter(|(_, k)| *k == MetricKind::Gauge).map(|(n, _)| *n).collect();
        assert_eq!(
            gauges,
            ["registered_bytes", "registered_bytes_peak", "inflight_hwm", "reactor_parked_hwm"],
        );
    }

    #[test]
    fn fabric_stats_aggregate() {
        let mut f = FabricStats::default();
        f.nodes.push((
            "a".into(),
            NodeStatsSnapshot { bytes_tx: 10, cpu_busy_ns: 5, ..Default::default() },
        ));
        f.nodes.push((
            "b".into(),
            NodeStatsSnapshot { bytes_tx: 7, cpu_busy_ns: 3, ..Default::default() },
        ));
        assert_eq!(f.total_bytes_tx(), 17);
        assert_eq!(f.total_cpu_busy_ns(), 8);
    }
}
