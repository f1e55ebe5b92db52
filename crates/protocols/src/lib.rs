//! # hat-protocols — the nine RDMA RPC protocols of HatRPC's Figure 3
//!
//! Each protocol implements one of the state-of-the-art RDMA communication
//! protocols the paper analyzes in §3, over the simulated verbs layer
//! ([`hat_rdma_sim`]), behind a uniform [`RpcClient`]/[`RpcServer`] API
//! ([`connect_client`]/[`accept_server`]):
//!
//! | Protocol | Figure | Request path | Response path |
//! |---|---|---|---|
//! | Eager-SendRecv, a [`pipeline`] wire | 3a | copy + SEND into pre-posted ring | copy + SEND |
//! | Direct-Write-Send, a [`pipeline`] wire (window 1) | 3b | WRITE to pre-known buf + SEND notify (2 doorbells) | same |
//! | Chained-Write-Send, a [`pipeline`] wire | 3c | WRITE+SEND chained (1 doorbell) | same |
//! | Write-RNDV, a [`pipeline`] wire (window 1) | 3d | RTS → CTS → WRITE + FIN | same |
//! | Read-RNDV, a [`pipeline`] wire (window 1) | 3e | RTS(with rkey) → server READs → FIN | RTS → client READs → FIN |
//! | Direct-WriteIMM, a [`pipeline`] wire | 3f | WRITE_WITH_IMM (1 WR) | WRITE_WITH_IMM |
//! | Pilaf, in [`read_based`] | 3g | copy + SEND into pre-posted ring | client: 2 READs metadata + 1 READ payload |
//! | FaRM, in [`read_based`] | 3h | copy + SEND into pre-posted ring | client: 1 READ metadata + 1 READ payload |
//! | RFP, in [`read_based`] | 3i | WRITE into server buf (server polls memory) | client READ-polls server buf |
//! | Hybrid-EagerRNDV, a [`pipeline`] wire | §4.3 | eager ≤ 4 KB else RTS → peer READs | same |
//! | HERD, in [`read_based`] | §5.4 | WRITE into server buf + chained SEND notify | copy + SEND into pre-posted ring |
//!
//! The HatRPC engine (`hatrpc-core`) selects among these per service or
//! function based on user hints; benchmarks compare them head-to-head to
//! regenerate the paper's Figures 4 and 5.
//!
//! Seven protocols are a **wire format** under one channel driver
//! ([`pipeline::PipelinedClient`]): a sliding window of in-flight
//! requests with doorbell-batched posting and pooled zero-alloc response
//! delivery, and one server driver ([`pipeline::ReactorServe`], serving
//! from a blocking thread or a reactor alike). [`connect_client_pipelined`]
//! and [`accept_server_pipelined`] build any of them with a window of
//! `ring_slots`; their blocking form ([`connect_client`]/[`accept_server`])
//! is the same channel with a window of one, and three of them (window 1
//! above) refuse any other — see the [`pipeline`] module docs. The other
//! four are one request path plus one reply path each, under one client
//! and one server — see the [`read_based`] module docs.
//!
//! A queue pair takes at most [`hat_rdma_sim::RECV_DEPTH`] posted
//! receives and a window posts one per slot, so that is also the largest
//! window.

pub mod common;
pub mod onesided;
pub mod pipeline;
pub mod read_based;

pub use common::{
    accept_server, connect_client, exchange_blobs, exchange_blobs_deadline, OpenConns,
    ProtocolConfig, ProtocolKind, RpcClient, RpcServer,
};
pub use onesided::{
    onesided_service, FallbackReason, OneSidedAdvert, OneSidedHost, OneSidedIndex, OneSidedReader,
};
pub use pipeline::{
    accept_server_pipelined, connect_client_pipelined, PipelinedClient, ReactorServe, Token,
    PIPELINED_KINDS,
};
