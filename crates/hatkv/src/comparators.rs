//! Emulated comparator systems for the §5.4 YCSB evaluation.
//!
//! The paper: "Since the four systems design their own backends and have
//! different data layouts, it is hard to unify them. Therefore, we only
//! study their communication protocols and emulate them … We make all six
//! candidates share the same backend implementation to avoid unfair
//! comparison." Accordingly each comparator is the HatKV deployment itself
//! with Figure 6's choice replaced: the same [`crate::HatKvServer`],
//! processor and [`hat_kvdb`] backend, dialed by a [`HatClient::pinned`]
//! to one protocol with busy polling:
//!
//! | System | Emulated protocol |
//! |---|---|
//! | AR-gRPC | [`ProtocolKind::HybridEagerRndv`] (adaptive eager/Read-RNDV) |
//! | HERD | [`ProtocolKind::Herd`] (WRITE requests, copied SEND responses) |
//! | Pilaf | [`ProtocolKind::Pilaf`] (2 metadata READs + payload READ) |
//! | RFP | [`ProtocolKind::Rfp`] (in-bound WRITE + READ-polled response) |
//!
//! The server runs on [`schema`]: its only hints are a server-side
//! `polling = event` — the scalable choice at the paper's 128-client scale
//! — and a `payload_size` that gives every function a 32 KiB channel, big
//! enough for a MultiGet response.

use std::sync::Arc;

use hat_idl::hints::{Hint, HintBlock};
use hat_protocols::ProtocolKind;
use hat_rdma_sim::{Fabric, Node, PollMode};
use hatrpc_core::engine::HatClient;
use hatrpc_core::selection::Selection;
use hatrpc_core::service::ServiceSchema;

use crate::generated::HatKVClient;
use crate::server::service_only_schema;

/// The four comparator systems of Figures 15/16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Comparator {
    /// AR-gRPC: adaptive eager / Read-RNDV.
    ArGrpc,
    /// HERD: direct-write requests, SEND responses.
    Herd,
    /// Pilaf: READ-heavy GET path.
    Pilaf,
    /// RFP: remote-fetch paradigm.
    Rfp,
}

impl Comparator {
    /// All comparators in the paper's reporting order.
    pub const ALL: [Comparator; 4] =
        [Comparator::ArGrpc, Comparator::Herd, Comparator::Pilaf, Comparator::Rfp];

    /// The fixed protocol this system is emulated with.
    pub fn protocol(&self) -> ProtocolKind {
        match self {
            Comparator::ArGrpc => ProtocolKind::HybridEagerRndv,
            Comparator::Herd => ProtocolKind::Herd,
            Comparator::Pilaf => ProtocolKind::Pilaf,
            Comparator::Rfp => ProtocolKind::Rfp,
        }
    }

    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            Comparator::ArGrpc => "AR-gRPC",
            Comparator::Herd => "HERD",
            Comparator::Pilaf => "Pilaf",
            Comparator::Rfp => "RFP",
        }
    }

    /// A KV client of `service` speaking this system's protocol with busy
    /// polling, whatever the schema's hints would pick.
    pub fn connect(&self, fabric: &Fabric, node: &Arc<Node>, service: &str) -> HatKVClient {
        let selection = Selection { protocol: self.protocol(), poll: PollMode::Busy };
        HatKVClient::new(HatClient::pinned(fabric, node, service, &schema(), selection))
    }
}

/// The schema every comparator deployment is served and dialed with: the
/// HatKV functions with no hints of their own, a 16 KiB `payload_size`
/// (a 32 KiB channel) and a server-side `polling = event`. Serve it with
/// [`crate::HatKvServer::start_with_db`].
pub fn schema() -> ServiceSchema {
    let hint = |key: &str, value: &str| Hint { key: key.into(), value: value.into() };
    ServiceSchema {
        service_hints: HintBlock {
            shared: vec![hint("payload_size", "16K")],
            server: vec![hint("polling", "event")],
            ..Default::default()
        },
        ..service_only_schema()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HatKvServer;
    use hat_kvdb::{DbConfig, ShardedDb, SyncMode};
    use hat_rdma_sim::SimConfig;

    fn db() -> ShardedDb {
        ShardedDb::new(DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() }, 4)
    }

    #[test]
    fn comparator_protocol_mapping() {
        assert_eq!(Comparator::ArGrpc.protocol(), ProtocolKind::HybridEagerRndv);
        assert_eq!(Comparator::Herd.protocol(), ProtocolKind::Herd);
        assert_eq!(Comparator::Pilaf.protocol(), ProtocolKind::Pilaf);
        assert_eq!(Comparator::Rfp.protocol(), ProtocolKind::Rfp);
        let labels: Vec<_> = Comparator::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["AR-gRPC", "HERD", "Pilaf", "RFP"]);
    }

    #[test]
    fn every_comparator_serves_the_full_kv_api() {
        for comparator in Comparator::ALL {
            let fabric = Fabric::new(SimConfig::fast_test());
            let snode = fabric.add_node("server");
            let cnode = fabric.add_node("client");
            let server = HatKvServer::start_with_db(&fabric, &snode, "kv", schema(), db());
            let mut client = comparator.connect(&fabric, &cnode, "kv");

            client.put(b"key".to_vec(), vec![9u8; 1000]).unwrap();
            assert_eq!(client.get(b"key".to_vec()).unwrap(), vec![9u8; 1000], "{comparator:?}");

            let keys: Vec<Vec<u8>> = (0..10u8).map(|i| vec![b'k', i]).collect();
            let values: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 1000]).collect();
            client.multiput(keys.clone(), values.clone()).unwrap();
            assert_eq!(client.multiget(keys).unwrap(), values, "{comparator:?}");

            // Every call went through the engine, on the pinned protocol,
            // over one 32 KiB channel the event-polling server shares.
            let engine = client.engine();
            for func in ["get", "put", "multiget", "multiput"] {
                let want = Selection { protocol: comparator.protocol(), poll: PollMode::Busy };
                assert_eq!(engine.selection_for(func), want, "{comparator:?} {func}");
            }
            assert_eq!(engine.open_channels(), 1, "{comparator:?}");
            assert_eq!(cnode.stats_snapshot().calls_ok, 4, "{comparator:?}");
            drop(client);
            server.shutdown();
        }
    }
}
