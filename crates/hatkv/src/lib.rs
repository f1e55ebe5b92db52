//! # hat-hatkv — the HatKV key-value store (paper §4.4)
//!
//! The co-design example demonstrating HatRPC's usability: a KV store
//! whose RPC surface is generated from the hinted IDL of Figure 10 (see
//! `idl/hatkv.thrift`), backed by the LMDB-like [`hat_kvdb`] engine, with
//! the backend itself tuned by the same hints (`max_readers` from the
//! concurrency hint; commit/sync strategy from the performance goal).
//!
//! Two HatKV deployment variants match the paper's §5.4 configurations:
//!
//! * **HatRPC-Service** — only service-level hints are active (function
//!   hint blocks stripped),
//! * **HatRPC-Function** — the full hierarchical hint set.
//!
//! Plus the four emulated comparators sharing the *same* server, backend
//! and wire format (the paper: "we make all six candidates share the same
//! backend implementation to avoid unfair comparison"): AR-gRPC
//! (Hybrid-EagerRNDV), HERD, Pilaf, and RFP, each a [`HatKVClient`]
//! pinned to its protocol in [`comparators`].

pub mod comparators;
// Codegen output is compared byte-for-byte against a fresh `hatc` run by
// `generated_code_is_current`; keep rustfmt away from it.
#[rustfmt::skip]
pub mod generated;
pub mod handler;
pub mod server;

pub use generated::{hat_k_v_schema, HatKVClient, HatKVHandler, HatKVProcessor};
pub use handler::KvStoreHandler;
pub use server::{service_only_schema, HatKvServer, KvVariant};

/// The hinted IDL of the HatKV service (paper Figure 10's shape).
pub const HATKV_IDL: &str = include_str!("../idl/hatkv.thrift");

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in generated code must match what the current
    /// generator produces (drift detector).
    #[test]
    fn generated_code_is_current() {
        let fresh = hat_codegen_generate();
        let checked_in = include_str!("generated.rs");
        assert_eq!(
            fresh, checked_in,
            "generated.rs is stale: re-run `cargo run -p hat-codegen --bin hatc -- \
             crates/hatkv/idl/hatkv.thrift -o crates/hatkv/src/generated.rs`"
        );
    }

    fn hat_codegen_generate() -> String {
        // hat-codegen is a dev-dependency-free path: regenerate via the
        // library the binary wraps.
        hat_codegen::generate_file(HATKV_IDL).expect("IDL parses")
    }

    #[test]
    fn schema_matches_idl_hints() {
        use hat_idl::hints::{PerfGoal, Side};
        let schema = hat_k_v_schema();
        assert_eq!(schema.name, "HatKV");
        let get = schema.resolved("get", Side::Client);
        assert_eq!(get.perf_goal, Some(PerfGoal::Throughput));
        assert_eq!(get.concurrency, Some(128));
        assert_eq!(get.payload_size, Some(2048));
        let put_s = schema.resolved("put", Side::Server);
        assert_eq!(put_s.payload_size, Some(64), "server acks are tiny");
        assert_eq!(put_s.shards, Some(4), "service-level s_hint reaches every function");
        assert_eq!(schema.resolved("", Side::Server).shards, Some(4));
        assert_eq!(get.shards, None, "shards is a server-side hint only");
    }
}
