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
//! | [`direct_write::DirectWriteSend`] | 3b | WRITE to pre-known buf + SEND notify (2 doorbells) | same |
//! | Chained-Write-Send, a [`pipeline`] wire | 3c | WRITE+SEND chained (1 doorbell) | same |
//! | [`rndv::WriteRndv`] | 3d | RTS → CTS → WRITE + FIN | same |
//! | [`rndv::ReadRndv`] | 3e | RTS(with rkey) → server READs | RTS → client READs → FIN |
//! | Direct-WriteIMM, a [`pipeline`] wire | 3f | WRITE_WITH_IMM (1 WR) | WRITE_WITH_IMM |
//! | [`read_based::Pilaf`] | 3g | SEND | client: 2 READs metadata + 1 READ payload |
//! | [`read_based::Farm`] | 3h | SEND | client: 1 READ metadata + 1 READ payload |
//! | [`read_based::Rfp`] | 3i | WRITE into server buf (server polls memory) | client READ-polls server buf |
//! | Hybrid-EagerRNDV, a [`pipeline`] wire | §4.3 | eager ≤ 4 KB else RTS → peer READs | same |
//!
//! The HatRPC engine (`hatrpc-core`) selects among these per service or
//! function based on user hints; benchmarks compare them head-to-head to
//! regenerate the paper's Figures 4 and 5.
//!
//! Four protocols are a **wire format** under one pipelined channel
//! ([`pipeline::PipelinedClient`]): a sliding window of in-flight
//! requests with doorbell-batched posting and pooled zero-alloc response
//! delivery, and one server driver ([`pipeline::ReactorServe`], serving
//! from a blocking thread or a reactor alike). Their blocking form is the
//! same channel with a window of one — see the [`pipeline`] module docs.

pub mod common;
pub mod direct_write;
pub mod herd;
pub mod onesided;
pub mod pipeline;
pub mod read_based;
pub mod rndv;

pub use common::{
    accept_server, connect_client, exchange_blobs, exchange_blobs_deadline, ProtocolConfig,
    ProtocolKind, RpcClient, RpcServer,
};
pub use direct_write::DirectWriteSend;
pub use herd::Herd;
pub use onesided::{
    onesided_service, FallbackReason, OneSidedAdvert, OneSidedHost, OneSidedIndex, OneSidedReader,
};
pub use pipeline::{
    accept_server_pipelined, connect_client_pipelined, PipelinedClient, ReactorServe, Token,
    PIPELINED_KINDS,
};
pub use read_based::{Farm, Pilaf, Rfp};
pub use rndv::{ReadRndv, WriteRndv};
