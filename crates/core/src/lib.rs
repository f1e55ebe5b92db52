//! # hatrpc-core — the HatRPC runtime
//!
//! The Thrift-compatible RPC stack of the paper's Figure 2, with the
//! hint-accelerated RDMA engine of Figure 9 underneath:
//!
//! * [`protocol`] — Thrift binary serialization.
//! * [`transport`] — the `TSocket`-compatible message transport and its
//!   IPoIB socket (the vanilla-Thrift baseline's wire).
//! * [`dispatch`] — message routing: method dispatch, application
//!   exceptions, call/reply framing helpers used by generated code.
//! * [`service`] — [`service::ServiceSchema`]: the hint tables carried
//!   from the IDL into the runtime.
//! * [`selection`] — the hint → (protocol, polling) mapping of Figure 6.
//! * [`engine`] — [`engine::HatClient`] / [`engine::HatServer`]: cached
//!   per-function plans, per-plan isolated channels, lateral server-side
//!   hint resolution, hybrid transports, and NUMA binding.
//!
//! ## End-to-end example
//!
//! ```
//! use std::sync::Arc;
//! use hat_rdma_sim::{Fabric, SimConfig};
//! use hatrpc_core::engine::{HatClient, HatServer, ServerPolicy};
//! use hatrpc_core::service::ServiceSchema;
//!
//! let idl = r#"
//!     service Echo {
//!         hint: perf_goal = latency, concurrency = 1;
//!         binary ping(1: binary payload) [ hint: payload_size = 512; ]
//!     }
//! "#;
//! let schema = ServiceSchema::parse(idl, "Echo").unwrap();
//! let fabric = Fabric::new(SimConfig::fast_test());
//! let snode = fabric.add_node("server");
//! let server = HatServer::serve(
//!     &fabric, &snode, "echo", schema.clone(), ServerPolicy::Threaded,
//!     Arc::new(|| Box::new(|req: &[u8]| req.to_vec())),
//! );
//! let cnode = fabric.add_node("client");
//! let mut client = HatClient::new(&fabric, &cnode, "echo", &schema);
//! assert_eq!(client.call("ping", b"hello").unwrap(), b"hello");
//! server.shutdown();
//! ```

pub mod dispatch;
pub mod engine;
pub mod error;
pub mod protocol;
pub mod reactor;
pub mod selection;
pub mod service;
pub mod transport;

pub use dispatch::{decode_reply, encode_call, Router};
pub use engine::{AsyncCall, CallPolicy, HatClient, HatServer, ServerPolicy};
pub use error::{CoreError, Result};
pub use reactor::{Reactor, ReactorHandle};
pub use selection::{select_protocol, Selection, SubscriptionBounds};
pub use service::ServiceSchema;
pub use transport::{read_frame, write_frame, TSocket, DEFAULT_MAX_FRAME};
