//! # hat-rdma-sim — a software-simulated RDMA verbs layer
//!
//! This crate is the hardware substitute used by the HatRPC reproduction: a
//! verbs-like API (protection domains, memory regions, queue pairs, completion
//! queues, SEND/RECV, RDMA WRITE, RDMA READ, WRITE_WITH_IMM, chained work
//! requests, inline data) running over an in-process fabric with a cost model
//! calibrated to an InfiniBand EDR (100 Gbps) cluster.
//!
//! ## Simulation model
//!
//! The simulator is *passive*: there are no NIC threads. Every operation is
//! assigned a completion **deadline** computed from the [`CostModel`]:
//!
//! * CPU-side costs (posting a work request, ringing an MMIO doorbell,
//!   memcpys) are [`Charge`]s: a deadline fixed at the *entry* of the work
//!   they stand for, scaled by the node's deterministic CPU load factor
//!   (see below). The calling thread does the host work inside the charged
//!   interval and waits out only what is left of it, so a verb takes
//!   `max(host work, model)`, not their sum.
//! * Wire-side costs (link serialization at 100 Gbps, propagation latency,
//!   NIC processing) schedule the operation on the sender's egress link and
//!   the receiver's ingress link via atomic busy-until reservations.
//! * Memory effects (payload landing in a receive buffer, an RDMA WRITE
//!   becoming visible) are queued on the destination [`Node`] with their
//!   deadline and applied, in deadline order, by whichever thread next
//!   observes that node — a completion-queue poll or a memory-region access.
//!   This makes RDMA-READ-polling protocols (RFP, Pilaf) behave correctly:
//!   a value polled out of local memory only becomes visible once the
//!   simulated write has "arrived".
//! * **Busy polling** really spins (and is counted against the node's CPU),
//!   while **event polling** parks the thread on a condition variable and
//!   charges the configured interrupt/wakeup latency — so the paper's
//!   busy-vs-event trade-offs (low latency vs low CPU and over-subscription
//!   scalability) emerge from the model rather than being hard-coded.
//!
//! ## Deterministic CPU contention
//!
//! Each [`Node`] declares a core count. Threads that are actively burning
//! simulated CPU (spinning on a charge or busy-polling a CQ) register as
//! *active spinners*; when the number of spinners exceeds the core count,
//! all CPU charges on that node are multiplied by `spinners / cores`. This
//! reproduces the paper's over-subscription collapse of busy polling
//! (Figure 5) deterministically, independent of how many physical cores the
//! host running the simulation has.
//!
//! ## What is deliberately simplified
//!
//! * Only RC (reliable connected) queue pairs are modelled; all the paper's
//!   protocols use RC.
//! * There is no packetization/MTU model: serialization time is linear in
//!   bytes, which is accurate for the message sizes the paper evaluates.
//! * Memory registration is instantaneous but carries a configurable cost,
//!   and registered memory is tracked so footprint statistics can be
//!   reported (the paper's `res_util` hint optimizes exactly this).
//!
//! ## Quick example
//!
//! ```
//! use hat_rdma_sim::{Fabric, SimConfig, PollMode, RecvWr, SendWr};
//!
//! let fabric = Fabric::new(SimConfig::default());
//! let server = fabric.add_node("server");
//! let client = fabric.add_node("client");
//! let (cep, sep) = fabric.connect(&client, &server).unwrap();
//!
//! // Server pre-posts a receive buffer.
//! let smr = sep.pd().register(4096).unwrap();
//! sep.post_recv(RecvWr::new(1, smr.clone(), 0, 4096)).unwrap();
//!
//! // Client sends 11 bytes.
//! let cmr = cep.pd().register(4096).unwrap();
//! cmr.write(0, b"hello rdma!").unwrap();
//! cep.post_send(&[SendWr::send(2, cmr.slice(0, 11)).signaled()]).unwrap();
//!
//! let sc = cep.send_cq().poll_one(PollMode::Busy).unwrap();
//! assert_eq!(sc.wr_id, 2);
//! let rc = sep.recv_cq().poll_one(PollMode::Busy).unwrap();
//! assert_eq!(rc.byte_len, 11);
//! let mut buf = [0u8; 11];
//! smr.read(0, &mut buf).unwrap();
//! assert_eq!(&buf, b"hello rdma!");
//! ```

pub mod cost;
pub mod cq;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod ipoib;
pub mod memory;
pub mod node;
pub mod numa;
pub mod pool;
pub mod qp;
pub mod stats;
pub mod time;
pub mod wr;

pub use cost::{CostModel, SimConfig};
pub use cq::{Completion, CompletionQueue, CompletionStatus, CqNotify, PollMode};
pub use error::{RdmaError, Result};
pub use fabric::Fabric;
pub use fault::{DelayDistribution, FaultAction, FaultPlan, FaultRule, FaultScope, FaultTrigger};
pub use memory::{MemoryRegion, MrSlice, ProtectionDomain, RemoteBuf};
pub use node::{Charge, Node};
pub use numa::{CoreBinding, NumaTopology};
pub use pool::PoolBuf;
pub use qp::{Endpoint, QpConfig};
pub use stats::{FabricStats, MetricKind, NodeStats, NodeStatsSnapshot, FIELD_COUNT, FIELD_KINDS};
pub use time::now_ns;
pub use wr::{Opcode, RecvWr, SendWr};

// The sim layer emits `hat-trace` events (WR post → doorbell → NIC →
// wire → delivery → completion → wakeup) when tracing is enabled;
// re-exported so downstream layers share one tracing crate instance
// without spelling the dependency twice.
pub use hat_trace;
